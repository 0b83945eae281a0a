//! Fallible spin-up over the real application graphs: a reader (raw or
//! DICOM) whose dataset is missing must fail the run with a typed `Io` root
//! cause that names the filter and the dataset path — no panic, no
//! committed output — and a healthy run must produce a `RunReport` that
//! passes its own invariant check.

use datacutter::{
    run_graph, EngineConfig, FilterErrorKind, GraphSpec, RunFailure, RunReport, SchedulePolicy,
};
use haralick::raster::Representation;
use mri::store::write_distributed;
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::graphs::{with_dicom_reader, Copies, HmpGraph};
use pipeline::run::{run_threaded, threaded_factories, IoRuntime};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

type Factories = HashMap<String, datacutter::engine::FilterFactory>;

/// Creates a fresh working directory with a small distributed dataset and
/// returns `(dataset root, output dir)`.
fn setup(tag: &str, cfg: &AppConfig, seed: u64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("h4d_spinup_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("data");
    let out = base.join("out");
    std::fs::create_dir_all(&out).unwrap();
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    write_distributed(&raw, &data, "spinup", cfg.storage_nodes).unwrap();
    (data, out)
}

fn hmp_spec() -> GraphSpec {
    HmpGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hmp: Copies::Count(2),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

fn run_with_watchdog(spec: GraphSpec, mut factories: Factories) -> Result<RunReport, RunFailure> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let r = run_graph(&spec, &mut factories, &EngineConfig::default());
        let _ = tx.send(r);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run_graph deadlocked (watchdog expired)");
    handle.join().expect("driver thread panicked");
    result
}

fn committed_outputs(out: &Path) -> Vec<String> {
    let mut leaked = Vec::new();
    for entry in std::fs::read_dir(out).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.ends_with(".h4dp") {
            leaked.push(name);
        }
    }
    leaked
}

#[test]
fn missing_dataset_fails_typed_with_path_and_no_committed_output() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let base = std::env::temp_dir().join(format!("h4d_spinup_missing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("no_such_dataset");
    // Both dataset formats fail the same way: one reader filter opens both.
    for (reader, spec) in [("RFR", hmp_spec()), ("DFR", with_dicom_reader(hmp_spec()))] {
        let out = base.join(format!("out_{reader}"));
        std::fs::create_dir_all(&out).unwrap();
        let factories = threaded_factories(&spec, &cfg, &data, &out, &IoRuntime::new());
        let err =
            run_with_watchdog(spec, factories).expect_err("missing dataset must fail the run");
        assert_eq!(err.error.kind(), FilterErrorKind::Io, "{reader}: {err}");
        assert_eq!(err.error.filter(), Some(reader), "{err}");
        let message = err.error.message();
        assert!(
            message.contains(reader) && message.contains("no_such_dataset"),
            "error must name the filter and the dataset path: {err}"
        );
        assert!(
            committed_outputs(&out).is_empty(),
            "{reader}: a run that failed at spin-up must commit no parameter files"
        );
    }
}

#[test]
fn unknown_filter_kind_is_an_engine_error_not_a_panic() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("unknown", &cfg, 11);
    let spec = GraphSpec::new().filter("XYZ", 1);
    let factories = threaded_factories(&spec, &cfg, &data, &out, &IoRuntime::new());
    let err = run_with_watchdog(spec, factories).expect_err("unknown filter kind must fail");
    assert_eq!(err.error.kind(), FilterErrorKind::Engine, "{err}");
    assert!(err.error.message().contains("XYZ"), "{err}");
}

#[test]
fn healthy_run_produces_checkable_run_report() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("report", &cfg, 12);
    let spec = hmp_spec();
    let (rt, engine) = (IoRuntime::new(), EngineConfig::default());
    let report = run_threaded(&spec, &cfg, &data, &out, &rt, &engine).expect("pipeline run");
    report.check().expect("report invariants");
    assert!(
        report.io.is_some() && report.store.is_none(),
        "io always, store only when the run had a result store"
    );
    // Every declared filter appears with its copy rows.
    for f in &spec.filters {
        let rows = report.per_copy.copies_of(&f.name);
        assert_eq!(rows.len(), f.copies, "{}", f.name);
    }
    // Figure 9's waiting split is present and parseable end-to-end.
    let json = report.to_json_pretty();
    for key in ["blocked_send_s", "blocked_recv_s", "busy_s", "wall_s"] {
        assert!(json.contains(key), "missing {key}");
    }
    let back: RunReport = serde_json::from_str(&json).expect("parse back");
    assert_eq!(back, report);
}
