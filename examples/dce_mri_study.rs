//! The full disk-resident workflow on one machine: generate a synthetic
//! DCE-MRI study, distribute its slices over simulated storage-node
//! directories, run the real filter pipeline (RFR → IIC → HMP → HIC → JIW)
//! on the threaded engine, and write normalized parameter images — the
//! end-to-end application of paper §4.
//!
//! ```sh
//! cargo run --release --example dce_mri_study [output_dir]
//! ```

use haralick4d::datacutter::{EngineConfig, SchedulePolicy};
use haralick4d::haralick::raster::Representation;
use haralick4d::mri::store::write_distributed;
use haralick4d::mri::synth::{generate, SynthConfig};
use haralick4d::pipeline::config::AppConfig;
use haralick4d::pipeline::graphs::{Copies, SplitGraph, VisualGraph};
use haralick4d::pipeline::run::{run_threaded, IoRuntime};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let base: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("h4d_dce_mri_study"));
    let data = base.join("dataset");
    let out = base.join("results");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&out).unwrap();

    // The application configuration: test-scale geometry (64x64x8x8) so the
    // example finishes in seconds; swap in `AppConfig::paper(..)` for the
    // full 256x256x32x32 study.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));

    // 1. Acquire + store: synthesize the study and distribute its 2D slices
    //    round-robin across storage-node directories, with per-node index
    //    files (paper §4.2).
    println!("generating synthetic DCE-MRI study {} ...", cfg.dims);
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(7)
    });
    let desc = write_distributed(&raw, &data, "dce-study", cfg.storage_nodes).unwrap();
    println!(
        "stored {} slices over {} storage nodes under {}",
        desc.dims.z * desc.dims.t,
        desc.num_nodes,
        data.display()
    );

    // 2. Analysis for radiologist viewing: the visual pipeline writes one
    //    normalized PGM per (z, t) slice per Haralick parameter.
    let visual = VisualGraph {
        rfr: Copies::Count(cfg.storage_nodes),
        iic: Copies::Count(1),
        hmp: Copies::Count(3),
        hic: Copies::Count(1),
        jiw: Copies::Count(1),
    }
    .build();
    let t = std::time::Instant::now();
    let engine = EngineConfig::default();
    let rows = run_threaded(&visual, &cfg, &data, &out, &IoRuntime::new(), &engine)
        .expect("visual pipeline")
        .per_copy;
    println!(
        "\nvisual pipeline done in {:.2?}: {} chunks through {} HMP copies",
        t.elapsed(),
        rows.buffers_into("HMP"),
        rows.copies_of("HMP").len()
    );
    for feature in cfg.selection.iter() {
        println!(
            "  images: {}/{}/slice_t????_z????.pgm",
            out.display(),
            feature.short_name()
        );
    }

    // 3. Analysis for computer-aided diagnosis: the split pipeline writes
    //    raw parameter values with positional information (USO files).
    let split = SplitGraph {
        rfr: Copies::Count(cfg.storage_nodes),
        iic: Copies::Count(1),
        hcc: Copies::Count(3),
        hpc: Copies::Count(1),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let cad_out = base.join("cad");
    std::fs::create_dir_all(&cad_out).unwrap();
    let t = std::time::Instant::now();
    let rows = run_threaded(&split, &cfg, &data, &cad_out, &IoRuntime::new(), &engine)
        .expect("split pipeline")
        .per_copy;
    println!(
        "\nsplit (HCC+HPC) pipeline done in {:.2?}: {} matrix packets HCC -> HPC",
        t.elapsed(),
        rows.buffers_into("HPC")
    );
    println!("  parameter files under {}", cad_out.display());
    println!("\nall output under {}", base.display());
}
