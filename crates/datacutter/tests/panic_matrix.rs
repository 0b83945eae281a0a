//! The panic-containment matrix: a filter panicking in `start`, `process`
//! or `finish`, over both private-queue (round-robin) and shared
//! demand-driven streams, must always yield
//!
//! * a `Panic`-kind root cause naming the failing filter copy,
//! * one `CopyReport` row per spawned copy (the panicked one
//!   included),
//! * a `run_graph` that returns within a watchdog timeout — no deadlock, no
//!   leaked threads.

use datacutter::{
    run_graph, DataBuffer, EngineConfig, FaultKind, FaultPlan, FaultSite, FaultSpec, Filter,
    FilterContext, FilterError, FilterErrorKind, GraphSpec, RunFailure, RunReport, SchedulePolicy,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

type Factories = HashMap<String, datacutter::engine::FilterFactory>;

struct Source {
    count: u64,
}

impl Filter for Source {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        for tag in 0..self.count {
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

struct Relay;

impl Filter for Relay {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        if ctx.output_count() > 0 {
            ctx.emit(0, buf)?;
        }
        Ok(())
    }
}

/// src(1) -> w(2) -> sink(1): 4 copies total.
const TOTAL_COPIES: usize = 4;

fn graph(policy: SchedulePolicy) -> (GraphSpec, Factories) {
    let spec = GraphSpec::new()
        .filter("src", 1)
        .filter("w", 2)
        .filter("sink", 1)
        .stream("a", "src", "w", policy)
        .stream("b", "w", "sink", SchedulePolicy::RoundRobin);
    let mut f: Factories = HashMap::new();
    f.insert(
        "src".to_string(),
        Box::new(|_| Ok(Box::new(Source { count: 40 }))),
    );
    f.insert("w".to_string(), Box::new(|_| Ok(Box::new(Relay))));
    f.insert("sink".to_string(), Box::new(|_| Ok(Box::new(Relay))));
    (spec, f)
}

/// Runs the graph on a helper thread with a deadline: a hang is a test
/// failure, not a CI timeout.
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

fn assert_contained_panic(site: FaultSite, policy: SchedulePolicy) {
    let (spec, mut factories) = graph(policy);
    let plan = FaultPlan::new().with(FaultSpec {
        filter: "w".into(),
        copy: None,
        site,
        at_buffer: 1,
        kind: FaultKind::Panic,
        label: format!("matrix panic at {site:?}"),
    });
    plan.apply_to_factories(&mut factories);
    let err = run_with_watchdog(spec, factories).expect_err("fault must abort the run");
    assert_eq!(
        err.error.kind(),
        FilterErrorKind::Panic,
        "site {site:?} / {policy:?}: {err}"
    );
    assert_eq!(err.error.filter(), Some("w"), "{err}");
    assert!(err.error.copy().is_some(), "copy index missing: {err}");
    assert!(
        err.error.message().contains("matrix panic"),
        "payload message lost: {err}"
    );
    // Every spawned copy reports stats — the panicked one too.
    assert_eq!(
        err.per_copy.len(),
        TOTAL_COPIES,
        "site {site:?} / {policy:?}: stats incomplete: {:?}",
        err.per_copy
    );
    // No secondary error may claim to be an originating failure.
    for s in &err.secondary {
        assert!(
            s.is_cascade() || s.kind() == FilterErrorKind::Panic,
            "unexpected secondary error: {s}"
        );
    }
}

#[test]
fn panic_in_start_round_robin() {
    assert_contained_panic(FaultSite::Start, SchedulePolicy::RoundRobin);
}

#[test]
fn panic_in_start_demand_driven() {
    assert_contained_panic(FaultSite::Start, SchedulePolicy::DemandDriven);
}

#[test]
fn panic_in_process_round_robin() {
    assert_contained_panic(FaultSite::Process, SchedulePolicy::RoundRobin);
}

#[test]
fn panic_in_process_demand_driven() {
    assert_contained_panic(FaultSite::Process, SchedulePolicy::DemandDriven);
}

#[test]
fn panic_in_finish_round_robin() {
    assert_contained_panic(FaultSite::Finish, SchedulePolicy::RoundRobin);
}

#[test]
fn panic_in_finish_demand_driven() {
    assert_contained_panic(FaultSite::Finish, SchedulePolicy::DemandDriven);
}

#[test]
fn panicked_copy_reports_its_own_stats() {
    // Panic at the 3rd buffer of copy 0: its stats must show the two
    // buffers that were fully processed plus the one that panicked.
    let (spec, mut factories) = graph(SchedulePolicy::RoundRobin);
    let plan = FaultPlan::new().panic_at("w", 0, 3);
    plan.apply_to_factories(&mut factories);
    let err = run_with_watchdog(spec, factories).expect_err("fault must abort the run");
    assert_eq!(err.error.copy(), Some(0), "{err}");
    let faulted = err
        .per_copy
        .iter()
        .find(|c| c.filter == "w" && c.copy == 0)
        .expect("panicked copy missing from stats");
    assert_eq!(faulted.buffers_in, 3, "stats lost on panic: {faulted:?}");
    assert_eq!(faulted.buffers_out, 2);
}

#[test]
fn sinks_observe_run_failure_before_finishing() {
    // The guarantee output filters rely on for crash-clean commits: when a
    // fault upstream ends a sink's input streams early, the run-level
    // failure flag is already raised by the time the sink's finish runs.
    struct FlagProbe {
        failed_at_finish: Arc<AtomicBool>,
    }
    impl Filter for FlagProbe {
        fn process(
            &mut self,
            _: usize,
            _: DataBuffer,
            _: &mut FilterContext,
        ) -> Result<(), FilterError> {
            Ok(())
        }
        fn finish(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
            self.failed_at_finish
                .store(ctx.run_failed(), Ordering::SeqCst);
            Ok(())
        }
    }
    let (spec, mut factories) = graph(SchedulePolicy::RoundRobin);
    let observed = Arc::new(AtomicBool::new(false));
    let o2 = observed.clone();
    factories.insert(
        "sink".to_string(),
        Box::new(move |_| {
            Ok(Box::new(FlagProbe {
                failed_at_finish: o2.clone(),
            }))
        }),
    );
    let plan = FaultPlan::new().panic_at("w", 0, 2);
    plan.apply_to_factories(&mut factories);
    run_with_watchdog(spec, factories).expect_err("fault must abort the run");
    assert!(
        observed.load(Ordering::SeqCst),
        "sink finished without observing the run failure"
    );
}

#[test]
fn clean_runs_never_raise_the_failure_flag() {
    struct FlagProbe {
        failed_at_finish: Arc<AtomicBool>,
    }
    impl Filter for FlagProbe {
        fn process(
            &mut self,
            _: usize,
            _: DataBuffer,
            _: &mut FilterContext,
        ) -> Result<(), FilterError> {
            Ok(())
        }
        fn finish(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
            self.failed_at_finish
                .store(ctx.run_failed(), Ordering::SeqCst);
            Ok(())
        }
    }
    let (spec, mut factories) = graph(SchedulePolicy::RoundRobin);
    let observed = Arc::new(AtomicBool::new(false));
    let o2 = observed.clone();
    factories.insert(
        "sink".to_string(),
        Box::new(move |_| {
            Ok(Box::new(FlagProbe {
                failed_at_finish: o2.clone(),
            }))
        }),
    );
    run_with_watchdog(spec, factories).expect("clean run");
    assert!(!observed.load(Ordering::SeqCst), "spurious failure flag");
}

#[test]
fn error_and_panic_in_different_copies_both_surface() {
    // Copy 0 returns a typed error, copy 1 panics. Whichever is selected as
    // the root, the other must appear in the secondary list — both are
    // originating failures and neither may be silently dropped.
    let (spec, mut factories) = graph(SchedulePolicy::RoundRobin);
    let plan = FaultPlan::new().error_at("w", 0, 1).panic_at("w", 1, 1);
    plan.apply_to_factories(&mut factories);
    let err = run_with_watchdog(spec, factories).expect_err("faults must abort the run");
    let mut kinds: Vec<FilterErrorKind> = vec![err.error.kind()];
    kinds.extend(err.secondary.iter().map(|e| e.kind()));
    assert!(kinds.contains(&FilterErrorKind::App), "{kinds:?}");
    assert!(kinds.contains(&FilterErrorKind::Panic), "{kinds:?}");
    assert!(!err.error.is_cascade(), "cascade selected as root: {err}");
}
