//! Follow-up monitoring — the paper's motivating clinical workflow:
//! acquire a baseline DCE-MRI study and a later follow-up, compute Haralick
//! texture maps of both, and compare texture inside the known lesion region
//! against healthy tissue to quantify progression.
//!
//! Both visits run through the real threaded pipeline, sharing one
//! content-addressed result store (`pipeline::store`). The baseline run is
//! cold and publishes every chunk; the follow-up run is **incremental** —
//! only chunks whose input (overlap) region touches voxels the lesion
//! growth actually changed are recomputed, everything else is served from
//! the store. The example predicts that recompute set offline from the two
//! datasets' per-chunk region digests and checks the pipeline's store
//! counters against the prediction.
//!
//! ```sh
//! cargo run --release --example followup_monitoring
//! ```

use haralick4d::datacutter::EngineConfig;
use haralick4d::haralick::features::Feature;
use haralick4d::haralick::raster::Representation;
use haralick4d::haralick::volume::{Dims4, Point4};
use haralick4d::mri::digest::region_digest;
use haralick4d::mri::study::Study;
use haralick4d::mri::synth::{generate_followup, generate_with_truth, Lesion, SynthConfig};
use haralick4d::mri::ChunkGrid;
use haralick4d::pipeline::config::AppConfig;
use haralick4d::pipeline::graphs::standard_graph;
use haralick4d::pipeline::run::{merge_uso_outputs, run_threaded, IoRuntime};
use haralick4d::pipeline::store::{ResultStore, StoreSession};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Runs the HMP pipeline on one visit's dataset with a session on the shared
/// result `store`, returning the run's (hits, misses) store counters.
/// Canonical output keeps the `.h4dp` files byte-stable regardless of packet
/// arrival order.
fn analyze_visit(cfg: &AppConfig, store: &ResultStore, dataset: &Path, out: &Path) -> (u64, u64) {
    let spec = standard_graph("hmp", cfg.storage_nodes, 3).expect("hmp variant exists");
    std::fs::create_dir_all(out).expect("create output dir");
    let cfg = Arc::new(cfg.clone());
    let rt = IoRuntime {
        canonical_output: true,
        store: Some(Arc::new(StoreSession::new(store, &cfg))),
        ..IoRuntime::new()
    };
    let report = run_threaded(&spec, &cfg, dataset, out, &rt, &EngineConfig::default())
        .expect("pipeline run succeeds");
    let store = report.store.expect("the run had a store session");
    (store.hits, store.misses)
}

/// Merges the USO parameter files of one run into a dense x-fastest map.
fn merged(out: &Path, feature: Feature, dims: Dims4) -> Vec<f64> {
    // 8 is a safe upper bound on USO copies; the merge skips copies that
    // wrote no file for the feature.
    merge_uso_outputs(out, feature, 8, dims).expect("merge USO outputs")
}

/// Mean feature value over output voxels whose ROI center falls inside /
/// outside every lesion.
fn region_means(values: &[f64], out_dims: Dims4, lesions: &[Lesion], roi: Dims4) -> (f64, f64) {
    let (mut tum, mut bg) = ((0.0, 0usize), (0.0, 0usize));
    for (i, p) in out_dims.region().points().enumerate() {
        // ROI center in input coordinates.
        let c = Point4::new(
            p.x + roi.x / 2,
            p.y + roi.y / 2,
            p.z + roi.z / 2,
            p.t + roi.t / 2,
        );
        let inside = lesions
            .iter()
            .any(|l| l.membership(c.x as f64, c.y as f64, c.z as f64) > 0.3);
        let v = values[i];
        if inside {
            tum = (tum.0 + v, tum.1 + 1);
        } else {
            bg = (bg.0 + v, bg.1 + 1);
        }
    }
    (tum.0 / tum.1.max(1) as f64, bg.0 / bg.1.max(1) as f64)
}

fn main() {
    let root: PathBuf = std::env::temp_dir().join("h4d_followup");
    let _ = std::fs::remove_dir_all(&root);

    // Baseline and a 6-week follow-up with 30% lesion growth (same
    // anatomy, same scanner noise field).
    let synth = SynthConfig::test_scale(77);
    let (baseline, truth0) = generate_with_truth(&synth);
    let (followup, truth1) = generate_followup(&synth, 1.3);

    // Persist as a longitudinal study (distributed datasets + descriptor).
    let mut study = Study::new("phantom-77");
    study
        .add_visit(
            &root,
            "baseline",
            "2004-01-15",
            &baseline,
            2,
            truth0.clone(),
        )
        .unwrap();
    study
        .add_visit(&root, "week-6", "2004-02-26", &followup, 2, truth1.clone())
        .unwrap();
    study.save(&root).unwrap();
    println!(
        "study {} saved under {} ({} visits)",
        study.patient,
        root.display(),
        study.visits.len()
    );

    // One analysis configuration and one result store for both visits.
    let cfg = AppConfig::for_dataset(baseline.dims(), 2, Representation::Full)
        .expect("dataset fits the analysis window");
    let store = ResultStore::open_fs(&root.join("store")).expect("result store opens");
    let out_dims = cfg.out_dims();

    // Predict which chunks the follow-up must recompute, without running
    // anything: a chunk is invalidated iff the digest of its input
    // (overlap) region differs between the visits.
    let ds0 = study.open_visit(&root, "baseline").unwrap();
    let ds1 = study.open_visit(&root, "week-6").unwrap();
    let grid = ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
    let chunks: Vec<_> = grid.chunks().collect();
    let changed: Vec<usize> = chunks
        .iter()
        .filter(|c| region_digest(&ds0, c.input).unwrap() != region_digest(&ds1, c.input).unwrap())
        .map(|c| c.id)
        .collect();
    println!(
        "\nlesion growth touches {} of {} chunk input regions",
        changed.len(),
        chunks.len()
    );

    // Baseline: cold store — every chunk computes and is published.
    let out0 = root.join("out_baseline");
    let t = std::time::Instant::now();
    let visit0 = study.visit_path(&root, &study.visits[0]);
    let (hits0, misses0) = analyze_visit(&cfg, &store, &visit0, &out0);
    println!(
        "baseline run: {} hits, {} misses (cold) in {:.2?}",
        hits0,
        misses0,
        t.elapsed()
    );
    assert_eq!(hits0, 0, "a cold store cannot serve anything");
    assert_eq!(misses0 as usize, chunks.len(), "every chunk computes once");

    // Follow-up: incremental — unchanged chunks are served from the store,
    // exactly the predicted set recomputes.
    let out1 = root.join("out_week6");
    let t = std::time::Instant::now();
    let visit1 = study.visit_path(&root, &study.visits[1]);
    let (hits1, misses1) = analyze_visit(&cfg, &store, &visit1, &out1);
    println!(
        "follow-up run: {} hits, {} misses (incremental) in {:.2?}",
        hits1,
        misses1,
        t.elapsed()
    );
    assert_eq!(
        misses1 as usize,
        changed.len(),
        "exactly the chunks whose overlap region changed recompute"
    );
    assert_eq!(hits1 as usize, chunks.len() - changed.len());

    // Texture separates lesion from background, and the separation moves
    // with progression.
    println!(
        "\n{:<24} {:>10} {:>10} {:>10} {:>10}",
        "feature", "tum base", "bg base", "tum wk6", "bg wk6"
    );
    for feature in cfg.selection.iter() {
        let v0 = merged(&out0, feature, out_dims);
        let v1 = merged(&out1, feature, out_dims);
        let (t0, b0) = region_means(&v0, out_dims, &truth0, cfg.roi.size());
        let (t1, b1) = region_means(&v1, out_dims, &truth1, cfg.roi.size());
        println!(
            "{:<24} {t0:>10.4} {b0:>10.4} {t1:>10.4} {b1:>10.4}",
            feature.short_name()
        );
    }

    // Progression delta map: follow-up minus baseline.
    let c0 = merged(&out0, Feature::Contrast, out_dims);
    let c1 = merged(&out1, Feature::Contrast, out_dims);
    let deltas: Vec<f64> = c0.iter().zip(&c1).map(|(a, b)| b - a).collect();
    let (lo, hi) = deltas
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    println!("\ncontrast delta map range: [{lo:+.4}, {hi:+.4}]");
    let grown = deltas.iter().filter(|v| v.abs() > 0.05).count();
    println!(
        "{grown} of {} texture voxels changed materially between visits",
        deltas.len()
    );
}
