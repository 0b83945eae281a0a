//! Integration tests for the overlap-aware I/O plane: the slice cache
//! must change *when* disk is touched, never *what* the pipeline produces.
//! `.h4dp` outputs are compared byte for byte between cache-on and
//! cache-off runs (with canonical output, so arrival order cannot differ),
//! on both scan engines, and against the sequential reference.

use datacutter::SchedulePolicy;
use haralick::raster::{raster_scan, Representation, ScanEngine};
use mri::store::write_distributed;
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::filters::UsoFilter;
use pipeline::graphs::{Copies, HmpGraph};
use pipeline::run::{merge_uso_outputs, run_threaded_outcome_with, IoRuntime};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Creates a fresh working directory and a small distributed dataset
/// matching `cfg`; returns `(dataset root, base dir)`. Output dirs are
/// created per run under the base so one dataset serves several runs.
fn setup(tag: &str, cfg: &AppConfig, seed: u64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("h4d_io_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let data = base.join("data");
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    write_distributed(&raw, &data, "io", cfg.storage_nodes).unwrap();
    (data, base)
}

fn hmp_spec(hmp: usize) -> datacutter::GraphSpec {
    HmpGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hmp: Copies::Count(hmp),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

/// Runs the pipeline into `out` and returns the run's I/O report.
fn run_into(cfg: &Arc<AppConfig>, data: &Path, out: &Path) -> datacutter::IoReport {
    std::fs::create_dir_all(out).unwrap();
    let rt = IoRuntime::new();
    run_threaded_outcome_with(&hmp_spec(2), cfg, data, out, &rt).expect("pipeline run");
    rt.io_report()
}

/// Reads every `.h4dp` parameter file the run wrote, keyed by file name.
fn output_files(cfg: &AppConfig, out: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for feature in cfg.selection.iter() {
        let name = UsoFilter::file_name(feature, 0);
        let bytes =
            std::fs::read(out.join(&name)).unwrap_or_else(|e| panic!("missing output {name}: {e}"));
        files.push((name, bytes));
    }
    files
}

#[test]
fn h4dp_outputs_are_byte_identical_cache_on_and_off() {
    // On both scan engines: the I/O plane sits upstream of the texture
    // filters, so neither may observe different pixels.
    for (i, engine) in [ScanEngine::Reference, ScanEngine::Fused]
        .into_iter()
        .enumerate()
    {
        let mut base_cfg = AppConfig::test_scale(Representation::Full);
        base_cfg.engine = engine;
        base_cfg.canonical_output = true;
        let (data, base) = setup(&format!("ident{i}"), &base_cfg, 201);

        let cached = Arc::new(base_cfg.clone());
        let mut uncached = base_cfg.clone();
        uncached.io_cache_bytes = 0;
        let uncached = Arc::new(uncached);

        let on = run_into(&cached, &data, &base.join("on"));
        let off = run_into(&uncached, &data, &base.join("off"));

        assert!(on.cache_hits > 0, "overlapped grid must produce hits");
        assert_eq!(off.cache_hits, 0, "disabled cache cannot hit");
        assert!(
            on.bytes_read < off.bytes_read,
            "cache must reduce disk traffic ({} vs {})",
            on.bytes_read,
            off.bytes_read
        );
        assert_eq!(
            output_files(&cached, &base.join("on")),
            output_files(&uncached, &base.join("off")),
            "{engine:?}: .h4dp outputs diverge between cache on and off"
        );
    }
}

#[test]
fn cached_pipeline_reads_each_slice_exactly_once() {
    // With an unlimited budget the two RFR copies together read exactly the
    // dataset: every slice decoded once, by the node that owns it.
    let mut cfg = AppConfig::test_scale(Representation::Full);
    cfg.io_cache_bytes = usize::MAX;
    let cfg = Arc::new(cfg);
    let (data, base) = setup("once", &cfg, 202);
    let report = run_into(&cfg, &data, &base.join("out"));
    let dataset_bytes = (cfg.dims.len() * 2) as u64;
    assert_eq!(
        report.bytes_read, dataset_bytes,
        "exactly-once property: bytes read must equal the dataset size"
    );
    let slices = (cfg.dims.z * cfg.dims.t) as u64;
    assert_eq!(report.disk_reads, slices);
    assert!(report.retained_high_water > 0);
    assert_eq!(report.budget_rejects, 0);
}

#[test]
fn tiny_budget_still_matches_the_reference() {
    // A budget of two slices forces constant eviction and budget rejects;
    // results must still be exact to the sequential reference.
    let mut cfg = AppConfig::test_scale(Representation::Full);
    cfg.io_cache_bytes = cfg.dims.x * cfg.dims.y * 2 * 2;
    let cfg = Arc::new(cfg);
    let (data, base) = setup("tiny", &cfg, 203);
    let out = base.join("out");
    let report = run_into(&cfg, &data, &out);
    assert!(report.budget_rejects > 0, "tiny budget must reject");

    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(203)
    });
    let reference = raster_scan(&raw.quantize(&cfg.quantizer), &cfg.scan_config());
    let dims = cfg.out_dims();
    for feature in cfg.selection.iter() {
        let merged = merge_uso_outputs(&out, feature, 1, dims)
            .unwrap_or_else(|e| panic!("merging {feature:?}: {e}"));
        let expect = reference.feature_volume(feature);
        for (a, b) in merged.iter().zip(&expect) {
            assert!(
                (a - b).abs() < 1e-9,
                "{feature:?} diverges under tiny budget: {a} vs {b}"
            );
        }
    }
}
