//! Integration tests for the overlap-aware I/O plane: the slice cache
//! must change *when* disk is touched, never *what* the pipeline produces.
//! `.h4dp` outputs are compared byte for byte between cache-on and
//! cache-off runs (with canonical output, so arrival order cannot differ),
//! on both scan engines and both dataset formats, and against the
//! sequential reference.

use datacutter::{EngineConfig, GraphSpec, SchedulePolicy};
use haralick::raster::{raster_scan, Representation, ScanEngine};
use mri::dicom::write_distributed_dicom;
use mri::store::write_distributed;
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::filters::UsoFilter;
use pipeline::graphs::{with_dicom_reader, Copies, HmpGraph};
use pipeline::run::{merge_uso_outputs, run_threaded, IoRuntime, SliceCaching};
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

fn hmp_spec(hmp: usize) -> GraphSpec {
    HmpGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hmp: Copies::Count(hmp),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

/// Runs `spec` into `out` under the reader `caching` mode (fresh counters
/// per run) and returns the run's I/O report.
fn run_into(
    spec: &GraphSpec,
    cfg: &Arc<AppConfig>,
    data: &Path,
    out: &Path,
    caching: SliceCaching,
    canonical_output: bool,
) -> datacutter::IoReport {
    std::fs::create_dir_all(out).unwrap();
    let rt = IoRuntime {
        caching,
        canonical_output,
        ..IoRuntime::new()
    };
    let report =
        run_threaded(spec, cfg, data, out, &rt, &EngineConfig::default()).expect("pipeline run");
    report.io.expect("run_threaded always reports io")
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
    // On both scan engines and both dataset formats: the I/O plane sits
    // upstream of the texture filters, so neither may observe different
    // pixels — whichever reader path (cached or not, RFR or DFR) ran.
    for (i, engine) in [ScanEngine::Reference, ScanEngine::Fused]
        .into_iter()
        .enumerate()
    {
        let mut cfg = AppConfig::test_scale(Representation::Full);
        cfg.engine = engine;
        let cfg = Arc::new(cfg);
        let (raw_data, base) = setup(&format!("ident{i}"), &cfg, 201);
        // The same study again as DICOM files, for the DFR graph.
        let dicom_data = base.join("dicom");
        let study = generate(&SynthConfig {
            dims: cfg.dims,
            ..SynthConfig::test_scale(201)
        });
        write_distributed_dicom(&study, &dicom_data, "io", cfg.storage_nodes).unwrap();

        let mut outputs = Vec::new();
        for (reader, spec, data) in [
            ("RFR", hmp_spec(2), &raw_data),
            ("DFR", with_dicom_reader(hmp_spec(2)), &dicom_data),
        ] {
            let on_dir = base.join(format!("{reader}_on"));
            let off_dir = base.join(format!("{reader}_off"));
            let on = run_into(&spec, &cfg, data, &on_dir, SliceCaching::default(), true);
            let off = run_into(&spec, &cfg, data, &off_dir, SliceCaching::Off, true);

            assert!(on.cache_hits > 0, "overlapped grid must produce hits");
            assert_eq!(off.cache_hits, 0, "disabled cache cannot hit");
            assert!(
                on.bytes_read < off.bytes_read,
                "{reader}: cache must reduce disk traffic ({} vs {})",
                on.bytes_read,
                off.bytes_read
            );
            let files = output_files(&cfg, &on_dir);
            assert_eq!(
                files,
                output_files(&cfg, &off_dir),
                "{engine:?}/{reader}: .h4dp outputs diverge between cache on and off"
            );
            outputs.push(files);
        }
        assert_eq!(
            outputs[0], outputs[1],
            "{engine:?}: .h4dp outputs diverge between the raw and DICOM datasets"
        );
    }
}

#[test]
fn cached_pipeline_reads_each_slice_exactly_once() {
    // With an unlimited budget the two RFR copies together read exactly the
    // dataset: every slice decoded once, by the node that owns it.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, base) = setup("once", &cfg, 202);
    let unlimited = SliceCaching::PerCopy(usize::MAX);
    let report = run_into(
        &hmp_spec(2),
        &cfg,
        &data,
        &base.join("out"),
        unlimited,
        false,
    );
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
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let two_slices = SliceCaching::PerCopy(cfg.dims.x * cfg.dims.y * 2 * 2);
    let (data, base) = setup("tiny", &cfg, 203);
    let out = base.join("out");
    let report = run_into(&hmp_spec(2), &cfg, &data, &out, two_slices, false);
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
