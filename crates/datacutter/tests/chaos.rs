//! Chaos tests: randomized fault schedules over linear pipelines.
//!
//! Each case builds a multi-stage graph with randomized copy counts and
//! scheduling policies, arms a randomized [`FaultPlan`], and asserts the
//! engine's failure contract: the run terminates (watchdog), the injected
//! fault is reported as the root cause with the right kind and filter name,
//! and benign faults (delays, emit-stalls) never change the delivered
//! results.
//!
//! Seeds are fixed for reproducibility; set `H4D_CHAOS_SEED` to replay a
//! single seed (e.g. `H4D_CHAOS_SEED=7 cargo test -p datacutter chaos`).

use datacutter::{
    reserve_loopback_listeners, run_graph, run_node, DataBuffer, EngineConfig, FaultKind,
    FaultPlan, FaultSite, FaultSpec, Filter, FilterContext, FilterError, FilterErrorKind,
    GraphSpec, NodeConfig, PayloadCodec, RunFailure, RunReport, SchedulePolicy, TransportFault,
    TransportFaultKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Factories = HashMap<String, datacutter::engine::FilterFactory>;

struct Source {
    count: u64,
}

impl Filter for Source {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        let (copies, me) = (ctx.num_copies() as u64, ctx.copy_index() as u64);
        for tag in (0..self.count).filter(|t| t % copies == me) {
            ctx.emit(0, DataBuffer::new(tag, 8, tag))?;
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

struct Relay {
    log: Arc<Mutex<Vec<u64>>>,
}

impl Filter for Relay {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        self.log.lock().unwrap().push(buf.tag());
        if ctx.output_count() > 0 {
            ctx.emit(0, buf)?;
        }
        Ok(())
    }
}

struct Case {
    spec: GraphSpec,
    factories: Factories,
    stage_names: Vec<String>,
    /// Per-stage tag logs (stage 1..).
    logs: Vec<Arc<Mutex<Vec<u64>>>>,
    buffers: u64,
}

fn policy_of(rng: &mut StdRng) -> SchedulePolicy {
    match rng.gen_range(0..3) {
        0 => SchedulePolicy::RoundRobin,
        1 => SchedulePolicy::DemandDriven,
        _ => SchedulePolicy::ByTagModulo,
    }
}

fn build_case(rng: &mut StdRng) -> Case {
    let buffers = rng.gen_range(5..80);
    let stages = rng.gen_range(1..4usize);
    let mut spec = GraphSpec::new().filter("stage0", rng.gen_range(1..3usize));
    let mut factories: Factories = HashMap::new();
    factories.insert(
        "stage0".into(),
        Box::new(move |_| Ok(Box::new(Source { count: buffers }))),
    );
    let mut stage_names = vec!["stage0".to_string()];
    let mut logs = Vec::new();
    for i in 1..=stages {
        let name = format!("stage{i}");
        let copies = rng.gen_range(1..4usize);
        let policy = policy_of(rng);
        spec =
            spec.filter(&name, copies)
                .stream(&format!("e{i}"), &stage_names[i - 1], &name, policy);
        let log = Arc::new(Mutex::new(Vec::new()));
        logs.push(log.clone());
        factories.insert(
            name.clone(),
            Box::new(move |_| Ok(Box::new(Relay { log: log.clone() }))),
        );
        stage_names.push(name);
    }
    Case {
        spec,
        factories,
        stage_names,
        logs,
        buffers,
    }
}

fn run_with_watchdog(spec: GraphSpec, mut factories: Factories) -> Result<RunReport, RunFailure> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let r = run_graph(&spec, &mut factories, &EngineConfig::default());
        let _ = tx.send(r);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run_graph deadlocked (watchdog expired)");
    handle.join().expect("driver thread panicked");
    result
}

fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("H4D_CHAOS_SEED") {
        return vec![s.parse().expect("H4D_CHAOS_SEED must be a u64")];
    }
    (0..16).collect()
}

#[test]
fn injected_lethal_faults_are_reported_as_root_cause() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = build_case(&mut rng);
        // Arm one lethal fault at a random non-source stage: the first
        // buffer of any copy (guaranteed to fire — every stage receives
        // every buffer), or its start callback.
        let victim = case.stage_names[rng.gen_range(1..case.stage_names.len())].clone();
        let lethal_panic = rng.gen_bool(0.5);
        let site = if rng.gen_bool(0.3) {
            FaultSite::Start
        } else {
            FaultSite::Process
        };
        let plan = FaultPlan::new().with(FaultSpec {
            filter: victim.clone(),
            copy: None,
            site,
            at_buffer: 1,
            kind: if lethal_panic {
                FaultKind::Panic
            } else {
                FaultKind::Error
            },
            label: format!("chaos fault seed {seed}"),
        });
        let mut factories = case.factories;
        plan.apply_to_factories(&mut factories);
        let err =
            run_with_watchdog(case.spec, factories).expect_err("lethal fault must abort the run");
        let expect_kind = if lethal_panic {
            FilterErrorKind::Panic
        } else {
            FilterErrorKind::App
        };
        assert_eq!(err.error.kind(), expect_kind, "seed {seed}: {err}");
        assert_eq!(
            err.error.filter(),
            Some(victim.as_str()),
            "seed {seed}: root cause names the wrong filter: {err}"
        );
        assert!(
            err.error
                .message()
                .contains(&format!("chaos fault seed {seed}")),
            "seed {seed}: fault label lost: {err}"
        );
        assert!(!err.error.is_cascade(), "seed {seed}: cascade won: {err}");
    }
}

#[test]
fn benign_faults_do_not_change_results() {
    // Delays and emit-stalls are disruptions, not failures: every stage
    // must still see every tag exactly once.
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed));
        let case = build_case(&mut rng);
        let victim = case.stage_names[rng.gen_range(1..case.stage_names.len())].clone();
        let kind = if rng.gen_bool(0.5) {
            FaultKind::Delay(Duration::from_millis(rng.gen_range(1..20)))
        } else {
            FaultKind::EmitStall
        };
        let plan = FaultPlan::new().with(FaultSpec {
            filter: victim,
            copy: Some(0),
            site: FaultSite::Process,
            at_buffer: rng.gen_range(1..4),
            kind,
            label: format!("benign chaos seed {seed}"),
        });
        let mut factories = case.factories;
        plan.apply_to_factories(&mut factories);
        run_with_watchdog(case.spec, factories)
            .unwrap_or_else(|e| panic!("seed {seed}: benign fault killed the run: {e}"));
        for (i, log) in case.logs.iter().enumerate() {
            let mut tags = log.lock().unwrap().clone();
            tags.sort_unstable();
            let expect: Vec<u64> = (0..case.buffers).collect();
            assert_eq!(
                tags,
                expect,
                "seed {seed}: stage {} delivery changed under benign faults",
                i + 1
            );
        }
    }
}

// ---- distributed transport chaos -----------------------------------------
//
// The same graphs split across two cooperating `run_node` partitions over
// loopback TCP (both partitions in this process, on threads — the
// multi-process path is covered by the pipeline's conformance suite).

/// The toy payload codec the distributed cases share: `u64` under tag 1.
fn u64_codec() -> Arc<PayloadCodec> {
    let mut c = PayloadCodec::new();
    c.register::<u64, _, _>(
        1,
        |v| v.to_le_bytes().to_vec(),
        |b| {
            let arr: [u8; 8] = b.try_into().map_err(|_| "u64 wants 8 bytes".to_string())?;
            Ok(u64::from_le_bytes(arr))
        },
    );
    Arc::new(c)
}

/// A 3-stage pipeline ping-ponging across two nodes: sources on node 0,
/// first relay stage on node 1, final relay back on node 0 — both
/// directions of every connection carry data.
fn dist_spec() -> GraphSpec {
    GraphSpec::new()
        .filter_placed("stage0", vec![0, 0])
        .filter_placed("stage1", vec![1, 1])
        .filter_placed("stage2", vec![0])
        .stream("s1", "stage0", "stage1", SchedulePolicy::ByTagModulo)
        .stream("s2", "stage1", "stage2", SchedulePolicy::RoundRobin)
}

fn dist_factories(buffers: u64, logs: &[Arc<Mutex<Vec<u64>>>; 2]) -> Factories {
    let mut f: Factories = HashMap::new();
    f.insert(
        "stage0".into(),
        Box::new(move |_| Ok(Box::new(Source { count: buffers }))),
    );
    let l1 = logs[0].clone();
    f.insert(
        "stage1".into(),
        Box::new(move |_| Ok(Box::new(Relay { log: l1.clone() }))),
    );
    let l2 = logs[1].clone();
    f.insert(
        "stage2".into(),
        Box::new(move |_| Ok(Box::new(Relay { log: l2.clone() }))),
    );
    f
}

/// Runs both partitions of `spec` concurrently under a watchdog, returning
/// each node's result (indexed by node id).
fn run_partitions(
    spec: &GraphSpec,
    factories: impl Fn() -> Factories,
    codec: &Arc<PayloadCodec>,
    faults: [Option<TransportFault>; 2],
) -> Vec<Result<RunReport, RunFailure>> {
    // Pre-bound listeners: the reservation is handed straight to each
    // node, so parallel test processes can never steal the ports.
    let (addrs, listeners) = reserve_loopback_listeners(2).expect("loopback ports");
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for node in 0..2 {
        let spec = spec.clone();
        let mut factories = factories();
        let mut cfg = NodeConfig::new(node, addrs.clone());
        cfg.listener = Some(listeners[node].clone());
        cfg.fault = faults[node];
        let codec = Arc::clone(codec);
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let r = run_node(&spec, &mut factories, codec, &cfg);
            let _ = tx.send((node, r));
        }));
    }
    drop(tx);
    let mut results: Vec<Option<Result<RunReport, RunFailure>>> = vec![None, None];
    for _ in 0..2 {
        let (node, r) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("distributed run deadlocked (watchdog expired)");
        results[node] = Some(r);
    }
    for h in handles {
        h.join().expect("node thread panicked");
    }
    let results: Vec<_> = results.into_iter().map(|r| r.expect("both sent")).collect();
    // A node's report covers its own partition: only the copies placed
    // there, one connection to the one peer, invariants intact.
    for (node, report) in results.iter().enumerate() {
        let Ok(report) = report else { continue };
        for f in &report.filters {
            let decl = spec.filter_decl(&f.name).expect("declared");
            let here = decl.placement.iter().filter(|&&n| n == node).count();
            assert!(
                here > 0 && f.copies == here,
                "node {node} lists {} copies of {:?} but hosts {here}",
                f.copies,
                f.name
            );
        }
        assert_eq!(
            report.transport.as_ref().map(Vec::len),
            Some(1),
            "node {node}"
        );
        report
            .check()
            .unwrap_or_else(|e| panic!("node {node}: {e}"));
    }
    results
}

/// [`run_partitions`] over [`dist_spec`] with the `u64` relays.
fn run_two_nodes(
    buffers: u64,
    logs: &[Arc<Mutex<Vec<u64>>>; 2],
    faults: [Option<TransportFault>; 2],
) -> Vec<Result<RunReport, RunFailure>> {
    let factories = || dist_factories(buffers, logs);
    run_partitions(&dist_spec(), factories, &u64_codec(), faults)
}

#[test]
fn distributed_loopback_delivers_what_a_single_process_does() {
    let buffers = 37;
    let expect: Vec<u64> = (0..buffers).collect();

    // Reference: the same spec in one process (placement ignored).
    let local_logs = [
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    ];
    run_with_watchdog(dist_spec(), dist_factories(buffers, &local_logs))
        .expect("single-process run failed");

    // Two cooperating partitions over loopback TCP.
    let dist_logs = [
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    ];
    let results = run_two_nodes(buffers, &dist_logs, [None, None]);
    for (node, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "node {node} failed: {}", r.as_ref().unwrap_err());
    }

    for (stage, (local, dist)) in local_logs.iter().zip(&dist_logs).enumerate() {
        let mut l = local.lock().unwrap().clone();
        let mut d = dist.lock().unwrap().clone();
        l.sort_unstable();
        d.sort_unstable();
        assert_eq!(l, expect, "single-process stage {} delivery", stage + 1);
        assert_eq!(d, expect, "distributed stage {} delivery", stage + 1);
    }
}

#[test]
fn dropped_connection_is_an_io_root_cause_on_both_nodes() {
    let logs = [
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    ];
    // Node 0's writer hard-closes its connection after two data frames —
    // a peer crash as seen from node 1, an injected local loss on node 0.
    let fault = TransportFault {
        peer: None,
        after_frames: 2,
        kind: TransportFaultKind::Drop,
    };
    let results = run_two_nodes(200, &logs, [Some(fault), None]);
    let err0 = results[0].as_ref().expect_err("node 0 must fail");
    let err1 = results[1].as_ref().expect_err("node 1 must fail");
    assert_eq!(err0.error.kind(), FilterErrorKind::Io, "node 0: {err0}");
    assert_eq!(err1.error.kind(), FilterErrorKind::Io, "node 1: {err1}");
    // Each side's root cause names the dead peer, not a local cascade.
    assert!(
        err0.error.message().contains("node 1"),
        "node 0 root cause does not name the peer: {err0}"
    );
    assert!(
        err1.error.message().contains("node 0"),
        "node 1 root cause does not name the peer: {err1}"
    );
}

#[test]
fn stalled_writer_is_benign_backpressure() {
    let buffers = 25;
    let logs = [
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    ];
    let fault = TransportFault {
        peer: Some(1),
        after_frames: 1,
        kind: TransportFaultKind::Stall(Duration::from_millis(3)),
    };
    let results = run_two_nodes(buffers, &logs, [Some(fault), None]);
    for (node, r) in results.iter().enumerate() {
        assert!(
            r.is_ok(),
            "node {node} failed under a benign stall: {}",
            r.as_ref().unwrap_err()
        );
    }
    let expect: Vec<u64> = (0..buffers).collect();
    for (stage, log) in logs.iter().enumerate() {
        let mut tags = log.lock().unwrap().clone();
        tags.sort_unstable();
        assert_eq!(tags, expect, "stage {} delivery under stall", stage + 1);
    }
}

/// Emits `count` byte buffers of `bytes` each, tagged by ordinal.
struct BlobSource {
    count: u64,
    bytes: usize,
}

impl Filter for BlobSource {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        for tag in 0..self.count {
            let blob = vec![tag as u8; self.bytes];
            ctx.emit(0, DataBuffer::new(blob, self.bytes, tag))?;
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

/// Forwards each buffer after sleeping `delay`: the graph's bottleneck.
struct Throttle {
    delay: Duration,
}

impl Filter for Throttle {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        std::thread::sleep(self.delay);
        ctx.emit(0, buf)
    }
}

#[test]
fn credit_windows_keep_a_shared_connection_live_around_a_bottleneck() {
    // A@0 -> B@1 -> C@0 -> D@1 with C slow: connection direction 0 -> 1
    // carries a route upstream of the bottleneck (A -> B) and one downstream
    // of it (C -> D). A is never the limit, so A -> B frames fill whatever
    // the transport lets them fill. Were that the socket itself — plain
    // bounded queues and TCP backpressure, a reader blocked on B's full
    // queue — C -> D frames would wait behind frames nobody can deliver, C
    // would block in `emit`, and nothing would drain B: a cycle through one
    // socket in an acyclic graph (the volume exceeds loopback socket
    // buffering, so the cycle closes). The per-route window stops A -> B at
    // the sender instead, and the run finishes.
    const BUFFERS: u64 = 256;
    const BYTES: usize = 256 << 10;
    let spec = GraphSpec::new()
        .filter_placed("A", vec![0])
        .filter_placed("B", vec![1])
        .filter_placed("C", vec![0])
        .filter_placed("D", vec![1])
        .stream_with_capacity("ab", "A", "B", SchedulePolicy::RoundRobin, 1)
        .stream_with_capacity("bc", "B", "C", SchedulePolicy::RoundRobin, 1)
        .stream_with_capacity("cd", "C", "D", SchedulePolicy::RoundRobin, 1);
    let mut codec = PayloadCodec::new();
    codec.register::<Vec<u8>, _, _>(2, |v| v.clone(), |b| Ok(b.to_vec()));
    // Tags seen at B and at D.
    let logs = [
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(Mutex::new(Vec::new())),
    ];
    let factories = || {
        let mut f: Factories = HashMap::new();
        let source = || BlobSource {
            count: BUFFERS,
            bytes: BYTES,
        };
        f.insert("A".into(), Box::new(move |_| Ok(Box::new(source()))));
        let delay = Duration::from_millis(1);
        f.insert(
            "C".into(),
            Box::new(move |_| Ok(Box::new(Throttle { delay }))),
        );
        for (name, log) in ["B", "D"].into_iter().zip(&logs) {
            let log = log.clone();
            f.insert(
                name.into(),
                Box::new(move |_| Ok(Box::new(Relay { log: log.clone() }))),
            );
        }
        f
    };
    let results = run_partitions(&spec, factories, &Arc::new(codec), [None, None]);
    for (node, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "node {node} failed: {}", r.as_ref().unwrap_err());
    }
    let expect: Vec<u64> = (0..BUFFERS).collect();
    for (name, log) in ["B", "D"].into_iter().zip(&logs) {
        let mut tags = log.lock().unwrap().clone();
        tags.sort_unstable();
        assert_eq!(
            tags, expect,
            "{name} must receive every buffer exactly once"
        );
    }
    let to_node_1 = results[0]
        .as_ref()
        .unwrap()
        .transport
        .iter()
        .flatten()
        .find(|c| c.peer == 1)
        .expect("node 0 reports its connection to node 1");
    assert!(
        to_node_1.credit_stalls > 0,
        "the A -> B window never engaged: {to_node_1:?}"
    );
}

#[test]
fn every_copy_reports_stats_under_chaos() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let case = build_case(&mut rng);
        let spawned: usize = case.spec.filters.iter().map(|f| f.copies).sum();
        let victim = case.stage_names[rng.gen_range(1..case.stage_names.len())].clone();
        let plan = FaultPlan::new().with(FaultSpec {
            filter: victim,
            copy: None,
            site: FaultSite::Process,
            at_buffer: 1,
            kind: FaultKind::Panic,
            label: format!("stats chaos seed {seed}"),
        });
        let mut factories = case.factories;
        plan.apply_to_factories(&mut factories);
        let err = run_with_watchdog(case.spec, factories).expect_err("fault must abort");
        assert_eq!(
            err.per_copy.len(),
            spawned,
            "seed {seed}: not every spawned copy reported stats"
        );
    }
}
