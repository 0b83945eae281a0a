//! Chaos over the real application graphs: randomized fault schedules
//! injected into RFR→IIC→HMP→USO runs must (a) terminate within a
//! watchdog deadline, (b) report the injected fault — not a cascade
//! symptom — as the root cause, naming the armed filter, and (c) leave no
//! committed (non-`.tmp`) parameter file behind. Benign faults (delays,
//! emit-stalls) must leave results bit-identical to the sequential
//! reference.

use datacutter::{
    reserve_loopback_listeners, run_graph, DataBuffer, FaultKind, FaultPlan, FaultSite, FaultSpec,
    Filter, FilterContext, FilterError, FilterErrorKind, GraphSpec, NodeConfig, RunFailure,
    RunReport, SchedulePolicy, TransportFault, TransportFaultKind,
};
use haralick::raster::{raster_scan, Representation};
use haralick::volume::{Dims4, Point4, Region4};
use mri::chunks::Chunk;
use mri::store::write_distributed;
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::graphs::{Copies, HmpGraph};
use pipeline::payload::ParamPacket;
use pipeline::run::{
    merge_uso_outputs, run_node_threaded, run_threaded, threaded_factories, IoRuntime,
};
use pipeline::store::{ResultStore, StoreSession};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

type Factories = HashMap<String, datacutter::engine::FilterFactory>;

/// SplitMix64 (Vigna's constants): the schedule generator, in-file so the
/// suite has no dev-dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Creates a fresh working directory with a small distributed dataset and
/// returns `(dataset root, output dir)`.
fn setup(tag: &str, cfg: &AppConfig, seed: u64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("h4d_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("data");
    let out = base.join("out");
    std::fs::create_dir_all(&out).unwrap();
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    write_distributed(&raw, &data, "chaos", cfg.storage_nodes).unwrap();
    (data, out)
}

fn hmp_spec() -> GraphSpec {
    HmpGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(2),
        hmp: Copies::Count(2),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

/// Total spawned copies of [`hmp_spec`]: RFR(2) + IIC(2) + HMP(2) + USO(1).
const HMP_SPEC_COPIES: usize = 2 + 2 + 2 + 1;

/// Runs the graph on a helper thread with a deadline so an injected-fault
/// deadlock fails the test instead of hanging CI.
fn run_with_watchdog(spec: GraphSpec, mut factories: Factories) -> Result<RunReport, RunFailure> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let r = run_graph(&spec, &mut factories);
        let _ = tx.send(r);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run_graph deadlocked (watchdog expired)");
    handle.join().expect("driver thread panicked");
    result
}

/// Committed parameter files in `out` — a failed run must leave none; the
/// abandoned `.h4dp.tmp` files are the acceptable residue.
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
fn injected_lethal_faults_abort_cleanly_without_committed_outputs() {
    // Randomized schedule, fixed seeds: every lethal fault anywhere in the
    // graph must surface as the root cause and abort before any parameter
    // file is committed. Override with H4D_CHAOS_SEED to replay one case.
    let seeds: Vec<u64> = match std::env::var("H4D_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("H4D_CHAOS_SEED must be an integer")],
        Err(_) => (0..6).collect(),
    };
    for seed in seeds {
        let mut rng = SplitMix64(seed);
        let victim = ["IIC", "HMP", "USO"][rng.below(3)];
        let kind = if rng.chance(0.5) {
            FaultKind::Panic
        } else {
            FaultKind::Error
        };
        let at_buffer = 1 + rng.below(2) as u64;
        let label = format!("chaos fault s{seed} in {victim}");
        let case = format!("seed {seed}: {kind:?} in {victim} at buffer {at_buffer}");

        let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
        let (data, out) = setup(&format!("lethal_{seed}"), &cfg, 200 + seed);
        let spec = hmp_spec();
        let mut factories = threaded_factories(&spec, &cfg, &data, &out, &IoRuntime::new());
        FaultPlan::new()
            .with(FaultSpec {
                filter: victim.to_string(),
                copy: None,
                site: FaultSite::Process,
                at_buffer,
                kind: kind.clone(),
                label: label.clone(),
            })
            .apply_to_factories(&mut factories);

        let err = run_with_watchdog(spec, factories).expect_err("lethal fault must abort the run");
        let expect_kind = match kind {
            FaultKind::Panic => FilterErrorKind::Panic,
            _ => FilterErrorKind::App,
        };
        assert_eq!(err.error.kind(), expect_kind, "{case}: {err}");
        assert_eq!(err.error.filter(), Some(victim), "{case}: {err}");
        assert!(
            err.error.copy().is_some(),
            "{case}: copy index missing: {err}"
        );
        assert!(
            err.error.message().contains(&label),
            "{case}: injected label lost: {err}"
        );
        assert!(
            !err.error.is_cascade(),
            "{case}: cascade won selection: {err}"
        );
        // Every spawned copy still reports stats on the aborted run.
        assert_eq!(
            err.per_copy.len(),
            HMP_SPEC_COPIES,
            "{case}: stats incomplete: {:?}",
            err.per_copy
        );
        // The crash-clean guarantee: nothing committed, only .tmp residue.
        let leaked = committed_outputs(&out);
        assert!(
            leaked.is_empty(),
            "{case}: failed run committed output files {leaked:?}"
        );
    }
}

#[test]
fn fault_in_reader_start_aborts_cleanly() {
    // A reader that dies before producing anything: the whole downstream
    // graph sees immediate end-of-stream, yet the run must report the
    // reader's panic — not a clean (but empty) completion — and USO must
    // not commit empty parameter files.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("rfr_start", &cfg, 210);
    let spec = hmp_spec();
    let mut factories = threaded_factories(&spec, &cfg, &data, &out, &IoRuntime::new());
    FaultPlan::new()
        .with(FaultSpec {
            filter: "RFR".to_string(),
            copy: None,
            site: FaultSite::Start,
            at_buffer: 0,
            kind: FaultKind::Panic,
            label: "reader died on startup".to_string(),
        })
        .apply_to_factories(&mut factories);
    let err = run_with_watchdog(spec, factories).expect_err("reader fault must abort the run");
    assert_eq!(err.error.kind(), FilterErrorKind::Panic, "{err}");
    assert_eq!(err.error.filter(), Some("RFR"), "{err}");
    assert!(committed_outputs(&out).is_empty());
}

#[test]
fn benign_faults_preserve_reference_results() {
    // A delayed HMP copy and an emit-stalled IIC copy slow the run down but
    // must not change a single output voxel.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let seed = 220;
    let (data, out) = setup("benign", &cfg, seed);
    let spec = hmp_spec();
    let mut factories = threaded_factories(&spec, &cfg, &data, &out, &IoRuntime::new());
    FaultPlan::new()
        .with(FaultSpec {
            filter: "HMP".to_string(),
            copy: Some(0),
            site: FaultSite::Process,
            at_buffer: 1,
            kind: FaultKind::Delay(Duration::from_millis(5)),
            label: "slow HMP copy".to_string(),
        })
        .with(FaultSpec {
            filter: "IIC".to_string(),
            copy: Some(0),
            site: FaultSite::Process,
            at_buffer: 2,
            kind: FaultKind::EmitStall,
            label: "stalled IIC copy".to_string(),
        })
        .apply_to_factories(&mut factories);
    run_with_watchdog(spec, factories).expect("benign faults must not fail the run");

    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    let vol = raw.quantize(&cfg.quantizer);
    let reference = raster_scan(&vol, &cfg.scan_config());
    let dims = cfg.out_dims();
    for feature in cfg.selection.iter() {
        let merged = merge_uso_outputs(&out, feature, 1, dims)
            .unwrap_or_else(|e| panic!("merging {feature:?}: {e}"));
        let expect = reference.feature_volume(feature);
        for (i, (a, b)) in merged.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "{feature:?} diverges at {i} under benign faults: {a} vs {b}"
            );
        }
    }
}

// ---- distributed transport chaos -----------------------------------------

/// The HMP graph split over two nodes: readers on both, the stitch and the
/// output on node 0, the texture copies on node 1 — every stage boundary
/// crosses the TCP bridge at least once. Demand-driven chunks are legal
/// because both HMP copies share node 1.
fn placed_hmp_spec() -> GraphSpec {
    HmpGraph {
        rfr: Copies::Placed(vec![0, 1]),
        iic: Copies::Placed(vec![0]),
        hmp: Copies::Placed(vec![1, 1]),
        uso: Copies::Placed(vec![0]),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

/// Runs both partitions of [`placed_hmp_spec`] concurrently (threads in
/// this process, real TCP over loopback) under a watchdog, each hosted by
/// its own copy of `rt`. Returns each node's result, indexed by node id.
fn run_two_node_pipeline(
    cfg: &Arc<AppConfig>,
    data: &Path,
    out: &Path,
    rt: &IoRuntime,
    faults: [Option<TransportFault>; 2],
) -> Vec<Result<RunReport, RunFailure>> {
    // Pre-bound listeners close the port-reservation race under parallel CI.
    let (addrs, listeners) = reserve_loopback_listeners(2).expect("loopback ports");
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for node in 0..2 {
        let spec = placed_hmp_spec();
        let cfg = cfg.clone();
        let (data, out) = (data.to_path_buf(), out.to_path_buf());
        let mut node_cfg = NodeConfig::new(node, addrs.clone());
        node_cfg.listener = Some(listeners[node].clone());
        node_cfg.fault = faults[node];
        let (tx, rt) = (tx.clone(), rt.clone());
        handles.push(std::thread::spawn(move || {
            let r = run_node_threaded(&spec, &cfg, &data, &out, &node_cfg, &rt);
            let _ = tx.send((node, r));
        }));
    }
    drop(tx);
    let mut results: Vec<Option<Result<RunReport, RunFailure>>> = vec![None, None];
    for _ in 0..2 {
        let (node, r) = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("distributed pipeline deadlocked (watchdog expired)");
        results[node] = Some(r);
    }
    for h in handles {
        h.join().expect("node thread panicked");
    }
    results.into_iter().map(|r| r.expect("both sent")).collect()
}

#[test]
fn distributed_clean_run_is_byte_identical_to_in_process() {
    // The conformance core: the placement-split graph over two cooperating
    // partitions must produce byte-identical `.h4dp` files to the same
    // graph in one process. Canonical output mode pins the write order, so
    // any surviving difference is a real transport defect (lost, altered,
    // duplicated or misrouted buffers).
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out_local) = setup("dist_equiv", &cfg, 230);
    let spec = placed_hmp_spec();
    let rt = IoRuntime {
        canonical_output: true,
        ..IoRuntime::new()
    };
    run_threaded(&spec, &cfg, &data, &out_local, &rt).expect("in-process run failed");

    let out_dist = out_local.parent().unwrap().join("out_dist");
    std::fs::create_dir_all(&out_dist).unwrap();
    let results = run_two_node_pipeline(&cfg, &data, &out_dist, &rt, [None, None]);
    for (node, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "node {node} failed: {}", r.as_ref().unwrap_err());
    }

    let mut compared = 0;
    for name in committed_outputs(&out_local) {
        let a = std::fs::read(out_local.join(&name)).unwrap();
        let b = std::fs::read(out_dist.join(&name))
            .unwrap_or_else(|e| panic!("distributed run did not write {name}: {e}"));
        assert_eq!(a, b, "{name} differs between in-process and distributed");
        compared += 1;
    }
    assert_eq!(
        compared,
        cfg.selection.len(),
        "expected one committed file per selected feature"
    );
    assert_eq!(
        committed_outputs(&out_dist).len(),
        compared,
        "distributed run committed extra files"
    );
}

#[test]
fn transport_drop_aborts_both_nodes_without_committed_outputs() {
    // Node 1 (the texture node) hard-closes its connection mid-run: both
    // partitions must abort with an Io-kind root cause naming the dead
    // peer, and the USO copy on node 0 must leave only `.tmp` residue —
    // a committed parameter file from a half-delivered run would
    // masquerade as a complete result.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("dist_drop", &cfg, 240);
    let fault = TransportFault {
        peer: None,
        after_frames: 1,
        kind: TransportFaultKind::Drop,
    };
    let rt = IoRuntime::new();
    let results = run_two_node_pipeline(&cfg, &data, &out, &rt, [None, Some(fault)]);
    let err0 = results[0].as_ref().expect_err("node 0 must fail");
    let err1 = results[1].as_ref().expect_err("node 1 must fail");
    assert_eq!(err0.error.kind(), FilterErrorKind::Io, "node 0: {err0}");
    assert_eq!(err1.error.kind(), FilterErrorKind::Io, "node 1: {err1}");
    assert!(
        err0.error.message().contains("node 1"),
        "node 0 root cause does not name the dead peer: {err0}"
    );
    assert!(
        err1.error.message().contains("node 0"),
        "node 1 root cause does not name its dropped connection: {err1}"
    );
    let leaked = committed_outputs(&out);
    assert!(
        leaked.is_empty(),
        "failed distributed run committed output files {leaked:?}"
    );
}

/// A one-shot source that emits pre-built parameter packets, for driving
/// HIC's paste-time validation directly.
struct PacketSource {
    packets: Vec<ParamPacket>,
}

impl Filter for PacketSource {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        for p in self.packets.drain(..) {
            let size = p.wire_size();
            ctx.emit(0, DataBuffer::new(p, size, 0))?;
        }
        Ok(())
    }
    fn process(
        &mut self,
        _: usize,
        _: DataBuffer,
        _: &mut FilterContext,
    ) -> Result<(), FilterError> {
        unreachable!("source has no inputs")
    }
}

fn hic_graph(cfg: Arc<AppConfig>, packets: Vec<ParamPacket>) -> (GraphSpec, Factories) {
    let spec = GraphSpec::new().filter("src", 1).filter("HIC", 1).stream(
        "params",
        "src",
        "HIC",
        SchedulePolicy::RoundRobin,
    );
    let mut factories: Factories = HashMap::new();
    let mut packets = Some(packets);
    factories.insert(
        "src".to_string(),
        Box::new(move |_| {
            Ok(Box::new(PacketSource {
                packets: packets.take().expect("single src copy"),
            }))
        }),
    );
    factories.insert(
        "HIC".to_string(),
        Box::new(move |_| Ok(Box::new(pipeline::filters::HicFilter::new(cfg.clone())))),
    );
    (spec, factories)
}

/// A one-value packet at output position `p`: its chunk owns the single
/// cell `p`.
fn packet(feature: haralick::features::Feature, p: Point4, v: f64) -> ParamPacket {
    let cell = Region4::new(p, Dims4::new(1, 1, 1, 1));
    ParamPacket {
        chunk: Chunk {
            grid_pos: Point4::ZERO,
            id: 0,
            owned_output: cell,
            input: cell,
        },
        feature,
        first: 0,
        values: vec![v],
    }
}

#[test]
fn hic_rejects_duplicate_points_at_paste_time() {
    // Two packets claiming the same output cell: HIC must fail on the
    // second paste, naming the feature — a silently overwritten cell would
    // corrupt the completion count and the assembled map.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let feature = haralick::features::Feature::AngularSecondMoment;
    let p = Point4::new(0, 0, 0, 0);
    let (spec, factories) = hic_graph(cfg, vec![packet(feature, p, 1.0), packet(feature, p, 2.0)]);
    let err = run_with_watchdog(spec, factories).expect_err("duplicate point must fail");
    assert_eq!(err.error.filter(), Some("HIC"), "{err}");
    assert_eq!(err.error.kind(), FilterErrorKind::App, "{err}");
    assert!(
        err.error
            .message()
            .contains("duplicate value for feature asm"),
        "imprecise duplicate diagnostic: {err}"
    );
    assert!(
        err.error.message().contains("already written"),
        "imprecise duplicate diagnostic: {err}"
    );
}

// ---- result-store chaos ---------------------------------------------------

/// Committed blobs in a store's `objects/` tree (sharded two levels deep).
fn committed_blob_count(store_dir: &Path) -> usize {
    fn walk(dir: &Path, n: &mut usize) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, n);
                } else {
                    *n += 1;
                }
            }
        }
    }
    let mut n = 0;
    walk(&store_dir.join("objects"), &mut n);
    n
}

/// An `IoRuntime` carrying a fresh session on the store at `store_dir`, as
/// `h4d --result-store` (or a caller that wraps the factories itself) sets
/// one up.
fn runtime_with_session(
    store_dir: &Path,
    cfg: &AppConfig,
    canonical_output: bool,
) -> (IoRuntime, Arc<StoreSession>) {
    let store = ResultStore::open_fs(store_dir).expect("store opens");
    let session = Arc::new(StoreSession::new(&store, cfg));
    let rt = IoRuntime {
        canonical_output,
        store: Some(Arc::clone(&session)),
        ..IoRuntime::new()
    };
    (rt, session)
}

#[test]
fn failed_run_commits_nothing_to_the_result_store() {
    // A lethal fault lands in USO after several chunks were computed (and
    // staged): the two-phase protocol must keep every one of them out of
    // the committed objects tree, and the run must have no manifest.
    let store_dir = std::env::temp_dir().join(format!("h4d_chaos_sfail_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("store_fail", &cfg, 250);
    let spec = hmp_spec();

    // The driver's exact sequence (`run_threaded`),
    // opened up so the fault plan can wrap the factories.
    let (rt, session) = runtime_with_session(&store_dir, &cfg, false);
    let mut factories = threaded_factories(&spec, &cfg, &data, &out, &rt);
    FaultPlan::new()
        .with(FaultSpec {
            filter: "USO".to_string(),
            copy: None,
            site: FaultSite::Process,
            at_buffer: 3,
            kind: FaultKind::Error,
            label: "chaos store fault".to_string(),
        })
        .apply_to_factories(&mut factories);
    let err = run_with_watchdog(spec, factories).expect_err("lethal fault must abort the run");
    assert_eq!(err.error.filter(), Some("USO"), "{err}");
    assert!(
        session.stats().published() > 0,
        "the fault must land after HMP staged at least one chunk"
    );
    session.abandon(); // the driver's failure path

    assert_eq!(
        committed_blob_count(&store_dir),
        0,
        "a failed run leaked staged blobs into objects/"
    );
    let store = ResultStore::open_fs(&store_dir).unwrap();
    assert!(
        store.load_manifest(session.token()).is_err(),
        "a failed run must not have a (complete) manifest"
    );
    assert!(
        !store_dir.join("staging").join(session.token()).exists(),
        "abandon must sweep the run's staging directory"
    );
}

#[test]
fn store_surviving_a_crashed_run_is_safe_to_reuse() {
    // Crash analog: the faulted run never abandons (a dead process can't).
    // Its staged blobs survive under staging/, but `get` never looks there
    // — a later clean run must start fully cold, produce reference-correct
    // results, and commit a store that then serves a warm run byte-for-byte.
    let store_dir = std::env::temp_dir().join(format!("h4d_chaos_scrash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let seed = 251;
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("store_crash", &cfg, seed);

    let (rt, session) = runtime_with_session(&store_dir, &cfg, true);
    let mut factories = threaded_factories(&hmp_spec(), &cfg, &data, &out, &rt);
    FaultPlan::new()
        .with(FaultSpec {
            filter: "HMP".to_string(),
            copy: None,
            site: FaultSite::Process,
            at_buffer: 2,
            kind: FaultKind::Panic,
            label: "chaos crashed run".to_string(),
        })
        .apply_to_factories(&mut factories);
    run_with_watchdog(hmp_spec(), factories).expect_err("fault must abort the run");
    assert!(
        session.stats().published() > 0,
        "the crash must leave staged residue behind"
    );
    drop(session); // no abandon: the residue stays on disk
    assert_eq!(
        committed_blob_count(&store_dir),
        0,
        "staged blobs of a dead run must not be visible as objects"
    );

    // Clean run over the surviving store: fully cold, reference-correct.
    let chunks = pipeline::Workload::new((*cfg).clone()).grid.len() as u64;
    let out_clean = out.parent().unwrap().join("out_clean");
    std::fs::create_dir_all(&out_clean).unwrap();
    let (rt, _) = runtime_with_session(&store_dir, &cfg, true);
    let clean = run_threaded(&hmp_spec(), &cfg, &data, &out_clean, &rt)
        .expect("clean run over a crashed store");
    let s = clean.store.expect("store section");
    assert_eq!(
        (s.hits, s.misses),
        (0, chunks),
        "a dead run's staged chunks must never be served"
    );
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    let reference = raster_scan(&raw.quantize(&cfg.quantizer), &cfg.scan_config());
    let dims = cfg.out_dims();
    for feature in cfg.selection.iter() {
        let merged = merge_uso_outputs(&out_clean, feature, 1, dims)
            .unwrap_or_else(|e| panic!("merging {feature:?}: {e}"));
        for (a, b) in merged.iter().zip(&reference.feature_volume(feature)) {
            assert!(
                (a - b).abs() < 1e-9,
                "{feature:?} diverges after reusing a crashed store"
            );
        }
    }

    // The clean run's commit is intact: a warm run serves every chunk and
    // reproduces the files byte for byte.
    let out_warm = out.parent().unwrap().join("out_warm");
    std::fs::create_dir_all(&out_warm).unwrap();
    let (rt, _) = runtime_with_session(&store_dir, &cfg, true);
    let warm = run_threaded(&hmp_spec(), &cfg, &data, &out_warm, &rt).expect("warm run");
    let s = warm.store.expect("store section");
    assert_eq!((s.hits, s.misses), (chunks, 0), "warm-run counters");
    for name in committed_outputs(&out_clean) {
        let a = std::fs::read(out_clean.join(&name)).unwrap();
        let b = std::fs::read(out_warm.join(&name)).unwrap();
        assert_eq!(a, b, "{name} differs between cold and warm runs");
    }
}

#[test]
fn hic_rejects_out_of_bounds_points() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let dims = cfg.out_dims();
    let feature = haralick::features::Feature::Contrast;
    let outside = Point4::new(dims.x, 0, 0, 0);
    let (spec, factories) = hic_graph(cfg, vec![packet(feature, outside, 1.0)]);
    let err = run_with_watchdog(spec, factories).expect_err("out-of-bounds point must fail");
    assert_eq!(err.error.filter(), Some("HIC"), "{err}");
    assert!(
        err.error.message().contains("outside output extents"),
        "imprecise bounds diagnostic: {err}"
    );
}
