//! Behavioural tests of the discrete-event simulator, including closed-form
//! checks of pipelining, CPU contention, network costs and scheduling.

use cluster::des::{
    simulate, simulate_with, SimAction, SimBuf, SimFilter, SimFilterFactory, SimOptions, SourceItem,
};
use cluster::presets;
use cluster::spec::{ClusterSpec, NetClass};
use datacutter::{GraphSpec, SchedulePolicy};
use std::collections::HashMap;

/// Source emitting `n` buffers of `bytes` bytes, each costing `cost` to
/// produce. Multiple copies split the tag space.
struct Src {
    n: u64,
    cost: f64,
    bytes: u64,
    copies: usize,
    copy: usize,
    emit: bool,
}

impl SimFilter for Src {
    fn source(&mut self) -> Vec<SourceItem> {
        (0..self.n)
            .filter(|t| (*t as usize) % self.copies == self.copy)
            .map(|tag| SourceItem {
                cost: self.cost,
                emits: if self.emit {
                    vec![(
                        0,
                        SimBuf {
                            tag,
                            bytes: self.bytes,
                        },
                    )]
                } else {
                    vec![]
                },
            })
            .collect()
    }
    fn on_buffer(&mut self, _: usize, _: &SimBuf) -> SimAction {
        unreachable!("source has no inputs")
    }
}

/// Fixed-cost worker; forwards when it has an output port.
struct Work {
    cost: f64,
    forward: bool,
}

impl SimFilter for Work {
    fn on_buffer(&mut self, _: usize, buf: &SimBuf) -> SimAction {
        SimAction {
            cost: self.cost,
            emits: if self.forward {
                vec![(0, *buf)]
            } else {
                vec![]
            },
        }
    }
}

fn src_factory(n: u64, cost: f64, bytes: u64, copies: usize) -> SimFilterFactory<'static> {
    Box::new(move |copy| {
        Box::new(Src {
            n,
            cost,
            bytes,
            copies,
            copy,
            emit: true,
        })
    })
}

/// A source with no output streams (pure timed work).
fn silent_src_factory(n: u64, cost: f64) -> SimFilterFactory<'static> {
    Box::new(move |copy| {
        Box::new(Src {
            n,
            cost,
            bytes: 0,
            copies: 1,
            copy,
            emit: false,
        })
    })
}

fn work_factory(cost: f64, forward: bool) -> SimFilterFactory<'static> {
    Box::new(move |_| Box::new(Work { cost, forward }))
}

/// A two-node cluster with negligible network cost.
fn two_fast_nodes() -> ClusterSpec {
    let mut c = ClusterSpec::new();
    c.add_nodes("T", "t", 2, 1, 1.0, 1e12, 0.0);
    c.set_intra("T", NetClass::switched(1e9, 0.0));
    c
}

#[test]
fn two_stage_pipeline_closed_form() {
    // N buffers, production cost a, consumption cost b, negligible network:
    // makespan = a + max(a, b) * (N - 1) + b.
    let (n, a, b) = (50u64, 0.010, 0.025);
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("sink", vec![1])
        .stream("s", "src", "sink", SchedulePolicy::RoundRobin);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(n, a, 100, 1));
    f.insert("sink".into(), work_factory(b, false));
    let rep = simulate(&spec, &two_fast_nodes(), &mut f);
    let expect = a + a.max(b) * (n - 1) as f64 + b;
    assert!(
        (rep.makespan - expect).abs() < 1e-6,
        "makespan {} vs closed form {}",
        rep.makespan,
        expect
    );
    assert_eq!(rep.per_copy.buffers_into("sink"), n);
}

#[test]
fn node_speed_divides_service_time() {
    let mk = |speed: f64| {
        let mut c = ClusterSpec::new();
        c.add_nodes("T", "t", 1, 1, speed, 1e12, 0.0);
        c.set_intra("T", NetClass::switched(1e9, 0.0));
        let spec = GraphSpec::new().filter_placed("src", vec![0]);
        let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
        f.insert("src".into(), silent_src_factory(10, 1.0));
        simulate(&spec, &c, &mut f).makespan
    };
    let slow = mk(1.0);
    let fast = mk(2.0);
    assert!((slow / fast - 2.0).abs() < 1e-9, "speed scaling broken");
}

#[test]
fn network_transfer_adds_latency_and_bandwidth() {
    // One buffer of 12.5 MB over Fast Ethernet (12.5 MB/s, 100 us):
    // arrival at 1.0001 s after an instantaneous production.
    let mut c = ClusterSpec::new();
    c.add_nodes("T", "t", 2, 1, 1.0, 1e12, 0.0);
    c.set_intra("T", NetClass::switched(100.0, 100.0));
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("sink", vec![1])
        .stream("s", "src", "sink", SchedulePolicy::RoundRobin);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(1, 0.0, 12_500_000, 1));
    f.insert("sink".into(), work_factory(0.0, false));
    let rep = simulate(&spec, &c, &mut f);
    assert!(
        (rep.makespan - 1.0001).abs() < 1e-6,
        "network time wrong: {}",
        rep.makespan
    );
}

#[test]
fn colocated_filters_have_zero_network_cost() {
    let mut c = ClusterSpec::new();
    c.add_nodes("T", "t", 1, 2, 1.0, 1e12, 0.0);
    c.set_intra("T", NetClass::switched(0.001, 1e6)); // appalling network
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("sink", vec![0])
        .stream("s", "src", "sink", SchedulePolicy::RoundRobin);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(10, 0.001, 1 << 20, 1));
    f.insert("sink".into(), work_factory(0.001, false));
    let rep = simulate(&spec, &c, &mut f);
    assert!(
        rep.makespan < 1.0,
        "pointer-copy exchange should ignore the network, got {}",
        rep.makespan
    );
}

#[test]
fn single_cpu_serializes_colocated_copies() {
    // Two workers on one 1-CPU node must take twice as long as on a 2-CPU
    // node (the paper's Overlap trade-off).
    let run = |cpus: usize| {
        let mut c = ClusterSpec::new();
        c.add_nodes("T", "t", 2, cpus, 1.0, 1e12, 0.0);
        c.set_intra("T", NetClass::switched(1e9, 0.0));
        let spec = GraphSpec::new()
            .filter_placed("src", vec![1])
            .filter_placed("w1", vec![0])
            .filter_placed("w2", vec![0])
            .stream("s1", "src", "w1", SchedulePolicy::RoundRobin)
            .stream("s2", "w1", "w2", SchedulePolicy::RoundRobin);
        let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
        f.insert("src".into(), src_factory(40, 0.0, 1, 1));
        f.insert("w1".into(), work_factory(0.01, true));
        f.insert("w2".into(), work_factory(0.01, false));
        simulate(&spec, &c, &mut f).makespan
    };
    let serialized = run(1);
    let parallel = run(2);
    assert!(
        serialized > 1.8 * parallel,
        "CPU multiplexing missing: 1-cpu {serialized} vs 2-cpu {parallel}"
    );
}

#[test]
fn round_robin_splits_evenly_across_copies() {
    let mut c = ClusterSpec::new();
    c.add_nodes("T", "t", 5, 1, 1.0, 1e12, 0.0);
    c.set_intra("T", NetClass::switched(1e9, 0.0));
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("w", vec![1, 2, 3, 4])
        .stream("s", "src", "w", SchedulePolicy::RoundRobin);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(100, 0.0, 1, 1));
    f.insert("w".into(), work_factory(0.001, false));
    let rep = simulate(&spec, &c, &mut f);
    for (copy, n) in rep.per_copy.per_copy_buffers_in("w") {
        assert_eq!(n, 25, "copy {copy} got {n}");
    }
}

#[test]
fn demand_driven_beats_round_robin_on_heterogeneous_consumers() {
    // Two consumers, one 4x faster. RR forces halves; DD loads the fast one.
    let run = |policy: SchedulePolicy| {
        let mut c = ClusterSpec::new();
        c.add_nodes("SLOW", "s", 2, 1, 1.0, 1e12, 0.0);
        c.add_nodes("FAST", "f", 1, 1, 4.0, 1e12, 0.0);
        c.set_intra("SLOW", NetClass::switched(1e9, 0.0));
        c.set_intra("FAST", NetClass::switched(1e9, 0.0));
        c.set_inter("SLOW", "FAST", NetClass::switched(1e9, 0.0));
        let spec = GraphSpec::new()
            .filter_placed("src", vec![0])
            .filter_placed("w", vec![1, 2])
            .stream("s", "src", "w", policy);
        let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
        f.insert("src".into(), src_factory(200, 0.0, 1, 1));
        f.insert("w".into(), work_factory(0.01, false));
        simulate(&spec, &c, &mut f)
    };
    let rr = run(SchedulePolicy::RoundRobin);
    let dd = run(SchedulePolicy::DemandDriven);
    assert!(
        dd.makespan < 0.8 * rr.makespan,
        "demand-driven ({}) should beat round-robin ({})",
        dd.makespan,
        rr.makespan
    );
    // And the fast copy (copy 1, on the FAST node) received more buffers.
    let per = dd.per_copy.per_copy_buffers_in("w");
    assert!(per[&1] > per[&0], "fast copy under-loaded: {per:?}");
}

#[test]
fn tag_modulo_routing() {
    let mut c = ClusterSpec::new();
    c.add_nodes("T", "t", 3, 1, 1.0, 1e12, 0.0);
    c.set_intra("T", NetClass::switched(1e9, 0.0));
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("w", vec![1, 2])
        .stream("s", "src", "w", SchedulePolicy::ByTagModulo);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(10, 0.0, 1, 1));
    f.insert("w".into(), work_factory(0.0, false));
    let rep = simulate(&spec, &c, &mut f);
    let per = rep.per_copy.per_copy_buffers_in("w");
    assert_eq!(per[&0], 5, "even tags");
    assert_eq!(per[&1], 5, "odd tags");
}

#[test]
fn shared_trunk_serializes_intercluster_transfers() {
    // Two producer nodes on PIII each send one 1.25 MB buffer to distinct
    // XEON consumers at t=0. Switched fabric would overlap the transfers;
    // the shared 100 Mbit/s trunk serializes them (~0.1 s then ~0.2 s).
    let c = presets::piii_xeon();
    let piii = c.nodes_in(presets::PIII);
    let xeon = c.nodes_in(presets::XEON);
    let spec = GraphSpec::new()
        .filter_placed("src", vec![piii[0], piii[1]])
        .filter_placed("sink", vec![xeon[0], xeon[1]])
        .stream("s", "src", "sink", SchedulePolicy::RoundRobin);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    // Each source copy emits one buffer (2 copies split 2 tags).
    f.insert("src".into(), src_factory(2, 0.0, 1_250_000, 2));
    f.insert("sink".into(), work_factory(0.0, false));
    let rep = simulate(&spec, &c, &mut f);
    assert!(
        rep.makespan > 0.19,
        "trunk contention missing: makespan {}",
        rep.makespan
    );
}

#[test]
fn conservation_and_busy_accounting() {
    let (n, b_cost) = (30u64, 0.002);
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("sink", vec![1])
        .stream("s", "src", "sink", SchedulePolicy::RoundRobin);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(n, 0.001, 64, 1));
    f.insert("sink".into(), work_factory(b_cost, false));
    let rep = simulate(&spec, &two_fast_nodes(), &mut f);
    let src = &rep.per_copy.copies_of("src")[0];
    let sink = &rep.per_copy.copies_of("sink")[0];
    assert_eq!(src.buffers_out, n);
    assert_eq!(sink.buffers_in, n);
    assert_eq!(src.bytes_out, n * 64);
    assert_eq!(sink.bytes_in, n * 64);
    assert!((sink.busy_s - n as f64 * b_cost).abs() < 1e-9);
    assert!(rep.makespan >= sink.busy_s);
}

#[test]
fn stateful_stitch_behaviour_flushes_on_finish() {
    // A consumer that accumulates 5 inputs into one output, flushing the
    // remainder on finish — the IIC pattern.
    struct Stitch {
        held: u64,
        emitted: u64,
    }
    impl SimFilter for Stitch {
        fn on_buffer(&mut self, _: usize, _: &SimBuf) -> SimAction {
            self.held += 1;
            if self.held == 5 {
                self.held = 0;
                self.emitted += 1;
                SimAction {
                    cost: 0.001,
                    emits: vec![(
                        0,
                        SimBuf {
                            tag: self.emitted,
                            bytes: 5,
                        },
                    )],
                }
            } else {
                SimAction {
                    cost: 0.001,
                    emits: vec![],
                }
            }
        }
        fn on_finish(&mut self) -> SimAction {
            if self.held > 0 {
                SimAction {
                    cost: 0.001,
                    emits: vec![(
                        0,
                        SimBuf {
                            tag: 999,
                            bytes: self.held,
                        },
                    )],
                }
            } else {
                SimAction::default()
            }
        }
    }
    let mut c = ClusterSpec::new();
    c.add_nodes("T", "t", 3, 1, 1.0, 1e12, 0.0);
    c.set_intra("T", NetClass::switched(1e9, 0.0));
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("stitch", vec![1])
        .filter_placed("sink", vec![2])
        .stream("in", "src", "stitch", SchedulePolicy::RoundRobin)
        .stream("out", "stitch", "sink", SchedulePolicy::RoundRobin);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(13, 0.0, 1, 1));
    f.insert(
        "stitch".into(),
        Box::new(|_| {
            Box::new(Stitch {
                held: 0,
                emitted: 0,
            })
        }),
    );
    f.insert("sink".into(), work_factory(0.0, false));
    let rep = simulate(&spec, &c, &mut f);
    // 13 inputs → two full groups of 5 plus a flush of 3.
    assert_eq!(rep.per_copy.buffers_into("sink"), 3);
}

#[test]
fn synchronous_sends_serialize_a_single_producer() {
    // One producer, N large buffers over a slow link: with blocking sends
    // the producer serializes production and transfer (makespan ≈ N × tx);
    // with free sends, production is instant and transfers pipeline on the
    // NIC (same makespan here — the difference shows in producer busy/idle
    // structure and in multi-filter co-location, so compare against a
    // co-located second filter competing for the producer's attention).
    let run = |sync: bool| {
        let mut c = ClusterSpec::new();
        c.add_nodes("T", "t", 2, 1, 1.0, 1e12, 0.0);
        c.set_intra("T", NetClass::switched(100.0, 0.0)); // 12.5 MB/s
        let spec = GraphSpec::new()
            .filter_placed("src", vec![0])
            .filter_placed("sink", vec![1])
            .stream_with_capacity("s", "src", "sink", SchedulePolicy::RoundRobin, 64);
        let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
        // 8 buffers, 0.1 s compute each, 1.25 MB each (0.1 s transfer).
        f.insert("src".into(), src_factory(8, 0.1, 1_250_000, 1));
        f.insert("sink".into(), work_factory(0.0, false));
        simulate_with(
            &spec,
            &c,
            &mut f,
            &SimOptions {
                synchronous_sends: sync,
                ..SimOptions::default()
            },
        )
        .makespan
    };
    let blocking = run(true);
    let free = run(false);
    // Blocking: compute and transfer alternate → ~8 × (0.1 + 0.1) = 1.6 s.
    // Free: compute pipeline overlaps transfers → ~0.1 + 8 × 0.1 = 0.9 s.
    assert!(
        (blocking - 1.6).abs() < 0.05,
        "blocking-send makespan {blocking} (expected ~1.6)"
    );
    assert!(
        (free - 0.9).abs() < 0.05,
        "free-send makespan {free} (expected ~0.9)"
    );
}

#[test]
fn bounded_queues_throttle_the_producer() {
    // A fast producer into a slow consumer with queue capacity 2: the
    // producer must stay at most (capacity + in-service) ahead, so its
    // completion time tracks the consumer instead of racing ahead.
    let mut c = ClusterSpec::new();
    c.add_nodes("T", "t", 2, 1, 1.0, 1e12, 0.0);
    c.set_intra("T", NetClass::switched(1e9, 0.0));
    let spec = GraphSpec::new()
        .filter_placed("src", vec![0])
        .filter_placed("sink", vec![1])
        .stream_with_capacity("s", "src", "sink", SchedulePolicy::RoundRobin, 2);
    let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
    f.insert("src".into(), src_factory(20, 0.001, 1, 1));
    f.insert("sink".into(), work_factory(0.1, false));
    let rep = simulate(&spec, &c, &mut f);
    let src_done = rep.per_copy.copies_of("src")[0].wall_s;
    let sink_done = rep.per_copy.copies_of("sink")[0].wall_s;
    // Sink needs 2 s of service; the throttled source finishes within a
    // few buffers of it rather than at ~0.02 s.
    assert!(sink_done > 1.9, "sink time {sink_done}");
    assert!(
        src_done > sink_done - 0.5,
        "producer raced ahead: src {src_done} vs sink {sink_done}"
    );
}

#[test]
fn more_workers_scale_down_makespan_until_source_bound() {
    let run = |workers: usize| {
        let mut c = ClusterSpec::new();
        c.add_nodes("T", "t", workers + 1, 1, 1.0, 1e12, 0.0);
        c.set_intra("T", NetClass::switched(1e9, 0.0));
        let spec = GraphSpec::new()
            .filter_placed("src", vec![0])
            .filter_placed("w", (1..=workers).collect())
            .stream("s", "src", "w", SchedulePolicy::DemandDriven);
        let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
        f.insert("src".into(), src_factory(64, 0.0001, 1, 1));
        f.insert("w".into(), work_factory(0.05, false));
        simulate(&spec, &c, &mut f).makespan
    };
    let t1 = run(1);
    let t2 = run(2);
    let t4 = run(4);
    let t8 = run(8);
    assert!(t2 < 0.6 * t1, "2 workers: {t2} vs {t1}");
    assert!(t4 < 0.6 * t2, "4 workers: {t4} vs {t2}");
    assert!(t8 < 0.6 * t4, "8 workers: {t8} vs {t4}");
}
