//! `RunReport` against live engine runs: the busy / blocked-send /
//! blocked-recv split of paper Figure 9 must hold its invariants on a
//! balanced graph, and must actually *localize* a bottleneck — a stalled
//! consumer shows up as producer blocked-send, a starved consumer as
//! blocked-recv.

use datacutter::{
    run_graph, DataBuffer, EngineConfig, Filter, FilterContext, FilterError, GraphSpec, RunReport,
    SchedulePolicy,
};
use std::collections::HashMap;
use std::time::Duration;

type Factories = HashMap<String, datacutter::engine::FilterFactory>;

struct Source {
    count: u64,
    delay: Duration,
}

impl Filter for Source {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        for tag in 0..self.count {
            std::thread::sleep(self.delay);
            ctx.emit(0, DataBuffer::new(tag, 64, tag))?;
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

struct Sink {
    delay: Duration,
}

impl Filter for Sink {
    fn process(
        &mut self,
        _: usize,
        _: DataBuffer,
        _: &mut FilterContext,
    ) -> Result<(), FilterError> {
        std::thread::sleep(self.delay);
        Ok(())
    }
}

fn run_report(
    capacity: usize,
    src_delay: Duration,
    sink_delay: Duration,
) -> (GraphSpec, RunReport) {
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("sink", 1)
        .stream_with_capacity("s", "src", "sink", SchedulePolicy::RoundRobin, capacity);
    let mut f: Factories = HashMap::new();
    f.insert(
        "src".to_string(),
        Box::new(move |_| {
            Ok(Box::new(Source {
                count: 30,
                delay: src_delay,
            }))
        }),
    );
    f.insert(
        "sink".to_string(),
        Box::new(move |_| Ok(Box::new(Sink { delay: sink_delay }))),
    );
    let report = run_graph(&spec, &mut f, &EngineConfig::default()).expect("run");
    (spec, report)
}

#[test]
fn balanced_run_satisfies_report_invariants() {
    let (spec, report) = run_report(8, Duration::from_micros(200), Duration::from_micros(200));
    report.check().expect("invariants");
    assert_eq!(report.filters.len(), spec.filters.len());
    assert_eq!(report.streams.len(), 1);
    let s = &report.streams[0];
    assert_eq!(s.buffers, 30, "one delivery per emitted buffer");
    assert_eq!(s.bytes, 30 * 64);
    assert!(s.depth_high_water <= s.capacity);
    assert_eq!(report.per_copy.len(), 2);
    // The engine fills the graph-level sections; these three belong to the
    // outer drivers.
    assert!(report.io.is_none() && report.transport.is_none() && report.store.is_none());
}

#[test]
fn stalled_consumer_shows_producer_blocked_send() {
    // Fast producer, slow consumer, capacity-1 queue: nearly every emit
    // must wait for the sink to drain a slot.
    let (_, report) = run_report(1, Duration::ZERO, Duration::from_millis(3));
    report.check().expect("invariants");
    let src = &report.per_copy.copies_of("src")[0];
    assert!(
        src.blocked_send_s > 0.0,
        "producer must register blocked-send time against a stalled consumer: {src:?}"
    );
    // The wait dominates the producer's compute on this graph.
    assert!(
        src.blocked_send_s > src.busy_s,
        "blocked-send should dominate: {src:?}"
    );
}

#[test]
fn starved_consumer_shows_blocked_recv() {
    // Slow producer, fast consumer: the sink spends its life waiting.
    let (_, report) = run_report(8, Duration::from_millis(3), Duration::ZERO);
    report.check().expect("invariants");
    let sink = &report.per_copy.copies_of("sink")[0];
    assert!(
        sink.blocked_recv_s > 0.0,
        "starved consumer must register blocked-recv time: {sink:?}"
    );
    assert!(
        sink.blocked_recv_s > sink.busy_s,
        "blocked-recv should dominate: {sink:?}"
    );
}

#[test]
fn report_serializes_with_expected_keys() {
    let (_, report) = run_report(4, Duration::ZERO, Duration::ZERO);
    let json = report.to_json_pretty();
    for key in [
        "schema_version",
        "wall_s",
        "spinup_s",
        "steady_s",
        "drain_s",
        "busy_s",
        "blocked_send_s",
        "blocked_recv_s",
        "depth_high_water",
        "policy",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    let back: RunReport = serde_json::from_str(&json).expect("parse back");
    assert_eq!(back, report);
}
