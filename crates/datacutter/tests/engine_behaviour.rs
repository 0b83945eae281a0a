//! Behavioural tests of the threaded filter engine: delivery guarantees,
//! scheduling policies, pipelining, and failure containment.

use datacutter::{
    run_graph, DataBuffer, EngineConfig, Filter, FilterContext, FilterError, GraphSpec,
    SchedulePolicy,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Emits `count` u64 buffers tagged 0..count on output port 0.
struct Source {
    count: u64,
}

impl Filter for Source {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        // Multiple source copies split the tag space so the union is exact.
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

/// Passes buffers through, optionally transforming the payload and sleeping.
struct Worker {
    delay: Duration,
    add: u64,
    /// (copy_index, tag) log of everything this filter processed.
    log: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl Filter for Worker {
    fn process(
        &mut self,
        _port: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let v = *buf.expect::<u64>();
        self.log.lock().unwrap().push((ctx.copy_index(), buf.tag()));
        if ctx.output_count() > 0 {
            ctx.emit(0, DataBuffer::new(v + self.add, 8, buf.tag()))?;
        }
        Ok(())
    }
}

/// Collects payloads.
struct Sink {
    out: Arc<Mutex<Vec<u64>>>,
}

impl Filter for Sink {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        _: &mut FilterContext,
    ) -> Result<(), FilterError> {
        self.out.lock().unwrap().push(*buf.expect::<u64>());
        Ok(())
    }
}

type Factories = HashMap<String, datacutter::engine::FilterFactory>;

fn factories() -> Factories {
    HashMap::new()
}

fn add_source(f: &mut Factories, name: &str, count: u64) {
    f.insert(
        name.to_string(),
        Box::new(move |_| Ok(Box::new(Source { count }))),
    );
}

fn add_worker(
    f: &mut Factories,
    name: &str,
    delay: Duration,
    add: u64,
) -> Arc<Mutex<Vec<(usize, u64)>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let l2 = log.clone();
    f.insert(
        name.to_string(),
        Box::new(move |_| {
            Ok(Box::new(Worker {
                delay,
                add,
                log: l2.clone(),
            }))
        }),
    );
    log
}

fn add_sink(f: &mut Factories, name: &str) -> Arc<Mutex<Vec<u64>>> {
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    f.insert(
        name.to_string(),
        Box::new(move |_| Ok(Box::new(Sink { out: o2.clone() }))),
    );
    out
}

fn run(spec: &GraphSpec, f: &mut Factories) -> datacutter::RunReport {
    run_graph(spec, f, &EngineConfig::default()).expect("graph run failed")
}

#[test]
fn exactly_once_delivery_single_stage() {
    let spec = GraphSpec::new().filter("src", 1).filter("sink", 1).stream(
        "s",
        "src",
        "sink",
        SchedulePolicy::RoundRobin,
    );
    let mut f = factories();
    add_source(&mut f, "src", 500);
    let out = add_sink(&mut f, "sink");
    let report = run(&spec, &mut f);
    let mut got = out.lock().unwrap().clone();
    got.sort_unstable();
    assert_eq!(got, (0..500).collect::<Vec<u64>>());
    assert_eq!(report.per_copy.buffers_into("sink"), 500);
    assert_eq!(report.per_copy.buffers_out_of("src"), 500);
}

#[test]
fn multi_copy_sources_cover_tag_space() {
    let spec = GraphSpec::new().filter("src", 4).filter("sink", 1).stream(
        "s",
        "src",
        "sink",
        SchedulePolicy::RoundRobin,
    );
    let mut f = factories();
    add_source(&mut f, "src", 1000);
    let out = add_sink(&mut f, "sink");
    run(&spec, &mut f);
    let mut got = out.lock().unwrap().clone();
    got.sort_unstable();
    assert_eq!(got, (0..1000).collect::<Vec<u64>>());
}

#[test]
fn round_robin_balances_exactly() {
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("w", 4)
        .filter("sink", 1)
        .stream("a", "src", "w", SchedulePolicy::RoundRobin)
        .stream("b", "w", "sink", SchedulePolicy::RoundRobin);
    let mut f = factories();
    add_source(&mut f, "src", 400);
    add_worker(&mut f, "w", Duration::ZERO, 0);
    add_sink(&mut f, "sink");
    let per = run(&spec, &mut f).per_copy.per_copy_buffers_in("w");
    for (&copy, &n) in &per {
        assert_eq!(n, 100, "copy {copy} received {n}, want exactly 100");
    }
}

#[test]
fn demand_driven_favours_fast_copies() {
    // Copy speeds differ 20x; a shared queue should route most buffers to
    // the fast copy. With round-robin this is impossible (exact halves).
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("w", 2)
        .filter("sink", 1)
        .stream_with_capacity("a", "src", "w", SchedulePolicy::DemandDriven, 1)
        .stream("b", "w", "sink", SchedulePolicy::RoundRobin);
    let mut f = factories();
    add_source(&mut f, "src", 120);
    // Per-copy delays: copy 0 slow, copy 1 fast.
    let log = Arc::new(Mutex::new(Vec::new()));
    let l2 = log.clone();
    f.insert(
        "w".to_string(),
        Box::new(move |copy| {
            Ok(Box::new(Worker {
                delay: if copy == 0 {
                    Duration::from_millis(4)
                } else {
                    Duration::from_micros(200)
                },
                add: 0,
                log: l2.clone(),
            }))
        }),
    );
    add_sink(&mut f, "sink");
    run(&spec, &mut f);
    let log = log.lock().unwrap();
    let fast = log.iter().filter(|(c, _)| *c == 1).count();
    let slow = log.len() - fast;
    assert_eq!(log.len(), 120);
    assert!(
        fast > 3 * slow,
        "demand-driven skew missing: fast={fast} slow={slow}"
    );
}

#[test]
fn tag_modulo_routes_deterministically() {
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("w", 3)
        .filter("sink", 1)
        .stream("a", "src", "w", SchedulePolicy::ByTagModulo)
        .stream("b", "w", "sink", SchedulePolicy::RoundRobin);
    let mut f = factories();
    add_source(&mut f, "src", 99);
    let log = add_worker(&mut f, "w", Duration::ZERO, 0);
    add_sink(&mut f, "sink");
    run(&spec, &mut f);
    for (copy, tag) in log.lock().unwrap().iter() {
        assert_eq!(*copy as u64, tag % 3, "tag {tag} on wrong copy {copy}");
    }
}

#[test]
fn three_stage_pipeline_transforms_values() {
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("w1", 2)
        .filter("w2", 2)
        .filter("sink", 1)
        .stream("a", "src", "w1", SchedulePolicy::DemandDriven)
        .stream("b", "w1", "w2", SchedulePolicy::DemandDriven)
        .stream("c", "w2", "sink", SchedulePolicy::DemandDriven);
    let mut f = factories();
    add_source(&mut f, "src", 200);
    add_worker(&mut f, "w1", Duration::ZERO, 1000);
    add_worker(&mut f, "w2", Duration::ZERO, 100_000);
    let out = add_sink(&mut f, "sink");
    run(&spec, &mut f);
    let mut got = out.lock().unwrap().clone();
    got.sort_unstable();
    let expect: Vec<u64> = (0..200).map(|v| v + 101_000).collect();
    assert_eq!(got, expect);
}

#[test]
fn filter_error_aborts_run_without_deadlock() {
    struct Faulty {
        seen: u64,
    }
    impl Filter for Faulty {
        fn process(
            &mut self,
            _: usize,
            buf: DataBuffer,
            ctx: &mut FilterContext,
        ) -> Result<(), FilterError> {
            self.seen += 1;
            if self.seen == 5 {
                return Err(FilterError::msg("injected fault"));
            }
            ctx.emit(0, buf)
        }
    }
    // Tiny queue capacities so the producer would deadlock if failure did
    // not cascade.
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("bad", 1)
        .filter("sink", 1)
        .stream_with_capacity("a", "src", "bad", SchedulePolicy::RoundRobin, 1)
        .stream_with_capacity("b", "bad", "sink", SchedulePolicy::RoundRobin, 1);
    let mut f = factories();
    add_source(&mut f, "src", 10_000);
    f.insert(
        "bad".to_string(),
        Box::new(|_| Ok(Box::new(Faulty { seen: 0 }))),
    );
    add_sink(&mut f, "sink");
    let err = run_graph(&spec, &mut f, &EngineConfig::default()).unwrap_err();
    assert!(
        err.error.message().contains("injected fault"),
        "root cause not reported: {err}"
    );
    assert_eq!(
        err.error.filter(),
        Some("bad"),
        "root cause must name the filter"
    );
    assert!(
        !err.error.is_cascade(),
        "cascade symptom reported instead of root cause: {err}"
    );
}

#[test]
fn missing_factory_is_reported() {
    let spec = GraphSpec::new().filter("src", 1).filter("sink", 1).stream(
        "s",
        "src",
        "sink",
        SchedulePolicy::RoundRobin,
    );
    let mut f = factories();
    add_source(&mut f, "src", 1);
    let err = run_graph(&spec, &mut f, &EngineConfig::default()).unwrap_err();
    assert!(err.error.message().contains("no factory"));
    assert_eq!(err.error.kind(), datacutter::FilterErrorKind::Engine);
}

#[test]
fn stats_account_bytes_and_buffers() {
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("w", 2)
        .filter("sink", 1)
        .stream("a", "src", "w", SchedulePolicy::RoundRobin)
        .stream("b", "w", "sink", SchedulePolicy::RoundRobin);
    let mut f = factories();
    add_source(&mut f, "src", 64);
    add_worker(&mut f, "w", Duration::ZERO, 0);
    add_sink(&mut f, "sink");
    let report = run(&spec, &mut f);
    let s = &report.per_copy;
    assert_eq!(s.buffers_out_of("src"), 64);
    assert_eq!(s.buffers_into("w"), 64);
    assert_eq!(s.buffers_out_of("w"), 64);
    assert_eq!(s.buffers_into("sink"), 64);
    assert_eq!(s.bytes_out_of("src"), 64 * 8);
    assert!(report.wall_s > 0.0);
    // Per-copy records exist for every copy.
    assert_eq!(s.copies_of("w").len(), 2);
}

#[test]
fn fan_in_from_two_producers() {
    // Two distinct source filters feed different ports of one consumer.
    struct PortSink {
        log: Arc<Mutex<Vec<(usize, u64)>>>,
    }
    impl Filter for PortSink {
        fn process(
            &mut self,
            port: usize,
            buf: DataBuffer,
            _: &mut FilterContext,
        ) -> Result<(), FilterError> {
            self.log.lock().unwrap().push((port, *buf.expect::<u64>()));
            Ok(())
        }
    }
    let spec = GraphSpec::new()
        .filter("src_a", 1)
        .filter("src_b", 1)
        .filter("sink", 1)
        .stream("a", "src_a", "sink", SchedulePolicy::RoundRobin)
        .stream("b", "src_b", "sink", SchedulePolicy::RoundRobin);
    let mut f = factories();
    add_source(&mut f, "src_a", 10);
    add_source(&mut f, "src_b", 20);
    let log = Arc::new(Mutex::new(Vec::new()));
    let l2 = log.clone();
    f.insert(
        "sink".to_string(),
        Box::new(move |_| Ok(Box::new(PortSink { log: l2.clone() }))),
    );
    run(&spec, &mut f);
    let log = log.lock().unwrap();
    assert_eq!(log.iter().filter(|(p, _)| *p == 0).count(), 10);
    assert_eq!(log.iter().filter(|(p, _)| *p == 1).count(), 20);
}
