//! Cross-crate integration: the facade crate's re-exports compose into the
//! full workflow, and the simulator's flow model agrees with the real
//! threaded engine's buffer accounting.

use haralick4d::cluster::calibrated_defaults::default_model;
use haralick4d::cluster::des::simulate;
use haralick4d::datacutter::{CopyRows, EngineConfig, GraphSpec, SchedulePolicy};
use haralick4d::haralick::raster::Representation;
use haralick4d::mri::store::write_distributed;
use haralick4d::mri::synth::{generate, SynthConfig};
use haralick4d::pipeline::config::AppConfig;
use haralick4d::pipeline::graphs::{Copies, SplitGraph};
use haralick4d::pipeline::run::{run_threaded, IoRuntime};
use haralick4d::pipeline::simfilters::sim_factories;
use haralick4d::pipeline::Workload;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Runs `spec` with private I/O counters and default engine options,
/// returning the per-copy rows.
fn run_rows(spec: &GraphSpec, cfg: &Arc<AppConfig>, data: &Path, out: &Path) -> CopyRows {
    let (rt, engine) = (IoRuntime::new(), EngineConfig::default());
    run_threaded(spec, cfg, data, out, &rt, &engine)
        .unwrap()
        .per_copy
}

/// Bytes consumed by the copies of `filter` — measured or simulated, the
/// rows are one type.
fn bytes_into(rows: &CopyRows, filter: &str) -> u64 {
    rows.copies_of(filter).iter().map(|c| c.bytes_in).sum()
}

fn setup(tag: &str, cfg: &AppConfig, seed: u64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("h4d_xc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("data");
    let out = base.join("out");
    std::fs::create_dir_all(&out).unwrap();
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    write_distributed(&raw, &data, "xc", cfg.storage_nodes).unwrap();
    (data, out)
}

/// The same graph topology run (a) for real on the threaded engine and
/// (b) analytically on the simulator must move the same number of buffers
/// through every stage — the flow model is exact, not approximate.
#[test]
fn simulator_flow_model_matches_real_engine_buffer_counts() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Sparse));
    let (data, out) = setup("flow", &cfg, 21);

    // Real run: 2 RFR, 1 IIC, 2 HCC, 1 HPC, 1 USO.
    let spec_real = SplitGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hcc: Copies::Count(2),
        hpc: Copies::Count(1),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let real = run_rows(&spec_real, &cfg, &data, &out);

    // Simulated run: identical topology on a small modeled cluster.
    let cluster = haralick4d::cluster::presets::uniform(7);
    let spec_sim = SplitGraph {
        rfr: Copies::Placed(vec![0, 1]),
        iic: Copies::Placed(vec![2]),
        hcc: Copies::Placed(vec![3, 4]),
        hpc: Copies::Placed(vec![5]),
        uso: Copies::Placed(vec![6]),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let w = Arc::new(Workload::new((*cfg).clone()));
    let model = Arc::new(default_model());
    let mut factories = sim_factories(&spec_sim, &cluster, &w, &model);
    let sim = simulate(&spec_sim, &cluster, &mut factories);

    for filter in ["IIC", "HCC", "HPC", "USO"] {
        assert_eq!(
            real.buffers_into(filter),
            sim.per_copy.buffers_into(filter),
            "{filter}: flow model diverges from the real engine"
        );
    }
    assert!(sim.makespan > 0.0);
}

/// Byte accounting agrees too (the communication volumes the paper's
/// figures hinge on).
#[test]
fn simulator_byte_model_tracks_real_engine() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("bytes", &cfg, 22);
    let spec = SplitGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hcc: Copies::Count(1),
        hpc: Copies::Count(1),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let real = run_rows(&spec, &cfg, &data, &out);

    let cluster = haralick4d::cluster::presets::uniform(6);
    let spec_sim = SplitGraph {
        rfr: Copies::Placed(vec![0, 1]),
        iic: Copies::Placed(vec![2]),
        hcc: Copies::Placed(vec![3]),
        hpc: Copies::Placed(vec![4]),
        uso: Copies::Placed(vec![5]),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let w = Arc::new(Workload::new((*cfg).clone()));
    let model = Arc::new(default_model());
    let mut factories = sim_factories(&spec_sim, &cluster, &w, &model);
    let sim = simulate(&spec_sim, &cluster, &mut factories);

    // Chunk bytes into HCC must match exactly (deterministic geometry).
    assert_eq!(
        bytes_into(&real, "HCC"),
        bytes_into(&sim.per_copy, "HCC"),
        "IIC->HCC bytes diverge"
    );
    // Full-representation matrix bytes are exactly Ng^2-sized, so they too
    // must match.
    assert_eq!(
        bytes_into(&real, "HPC"),
        bytes_into(&sim.per_copy, "HPC"),
        "HCC->HPC bytes diverge"
    );
}

/// The result store composes through the facade: a cold run publishes and
/// a warm run serves every chunk, the `.h4dp` files are byte-identical
/// across the two, and the store counters arrive in the `RunReport` the
/// driver returns — the one the CLI's `--report` path writes (hits + misses
/// == chunk count, the invariant CI's jq assertions rely on).
#[test]
fn result_store_round_trips_through_the_facade() {
    use haralick4d::pipeline::filters::UsoFilter;
    use haralick4d::pipeline::store::{ResultStore, StoreSession};

    let base = std::env::temp_dir().join(format!("h4d_xc_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, _) = setup("store", &cfg, 24);
    let spec = SplitGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hcc: Copies::Count(2),
        hpc: Copies::Count(1),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let chunks = Workload::new((*cfg).clone()).grid.len() as u64;

    let mut reports = Vec::new();
    for out in [base.join("cold"), base.join("warm")] {
        std::fs::create_dir_all(&out).unwrap();
        let store = ResultStore::open_fs(&base.join("store")).expect("store opens");
        let rt = IoRuntime {
            canonical_output: true,
            store: Some(Arc::new(StoreSession::new(&store, &cfg))),
            ..IoRuntime::new()
        };
        let report = run_threaded(&spec, &cfg, &data, &out, &rt, &EngineConfig::default()).unwrap();
        report.check().expect("report invariants");
        reports.push(report.store.expect("store counters reported"));
    }
    let (cold, warm) = (&reports[0], &reports[1]);
    assert_eq!((cold.hits, cold.misses), (0, cold.published));
    assert_eq!(
        (warm.hits, warm.misses, warm.published),
        (cold.misses, 0, 0)
    );
    assert!(
        cold.misses >= chunks,
        "split stores per-packet blobs: at least one lookup per chunk"
    );
    assert!(warm.bytes_served > 0 && cold.bytes_published > 0);

    for feature in cfg.selection.iter() {
        let name = UsoFilter::file_name(feature, 0);
        assert_eq!(
            std::fs::read(base.join("cold").join(&name)).unwrap(),
            std::fs::read(base.join("warm").join(&name)).unwrap(),
            "{name} differs between cold and warm facade runs"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Quantitative §4.4.1 claim at workload scale: the sparse representation
/// reduces the measured HCC→HPC traffic by more than an order of magnitude.
#[test]
fn sparse_transmission_cuts_real_traffic() {
    let traffic = |repr| {
        let cfg = Arc::new(AppConfig::test_scale(repr));
        let (data, out) = setup(&format!("traffic_{repr:?}"), &cfg, 23);
        let spec = SplitGraph {
            rfr: Copies::Count(2),
            iic: Copies::Count(1),
            hcc: Copies::Count(2),
            hpc: Copies::Count(1),
            uso: Copies::Count(1),
            texture_policy: SchedulePolicy::DemandDriven,
            matrix_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        bytes_into(&run_rows(&spec, &cfg, &data, &out), "HPC")
    };
    let full = traffic(Representation::Full);
    let sparse = traffic(Representation::Sparse);
    assert!(
        full > 15 * sparse,
        "sparse reduction too small: full {full} vs sparse {sparse}"
    );
}
