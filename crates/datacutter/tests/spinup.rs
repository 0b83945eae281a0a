//! Fallible spin-up: a factory that returns `Err` or panics must yield a
//! typed `RunFailure` — never a propagated panic out of `run_graph` — with
//!
//! * the root cause's kind preserved (`Io`/`App` from `Err`, `Panic` from a
//!   panicking factory) and stamped with the failing filter copy,
//! * every copy spawned *before* the failure drained, joined, and reported
//!   in the failure's statistics,
//! * a watchdog-bounded return (no deadlock waiting on never-spawned
//!   consumers).

use datacutter::{
    run_graph, DataBuffer, EngineConfig, Filter, FilterContext, FilterError, FilterErrorKind,
    GraphSpec, RunFailure, RunReport, SchedulePolicy,
};
use std::collections::HashMap;
use std::sync::mpsc;
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

/// src(2) -> w(2) -> sink(1). Filters spawn in declaration order, so a
/// factory failing at `w` copy 1 leaves exactly 3 copies running (both
/// `src` copies and `w` copy 0).
fn graph() -> GraphSpec {
    GraphSpec::new()
        .filter("src", 2)
        .filter("w", 2)
        .filter("sink", 1)
        .stream("a", "src", "w", SchedulePolicy::RoundRobin)
        .stream("b", "w", "sink", SchedulePolicy::RoundRobin)
}

fn base_factories() -> Factories {
    let mut f: Factories = HashMap::new();
    f.insert(
        "src".to_string(),
        Box::new(|_| Ok(Box::new(Source { count: 40 }))),
    );
    f.insert("w".to_string(), Box::new(|_| Ok(Box::new(Relay))));
    f.insert("sink".to_string(), Box::new(|_| Ok(Box::new(Relay))));
    f
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

#[test]
fn err_returning_factory_yields_typed_root_cause() {
    let mut f = base_factories();
    f.insert(
        "w".to_string(),
        Box::new(|copy| {
            if copy == 1 {
                Err(FilterError::new(
                    FilterErrorKind::Io,
                    "dataset missing: /no/such/dir",
                ))
            } else {
                Ok(Box::new(Relay))
            }
        }),
    );
    let err = run_with_watchdog(graph(), f).expect_err("factory error must fail the run");
    assert_eq!(err.error.kind(), FilterErrorKind::Io, "{err}");
    assert!(
        !err.error.is_cascade(),
        "factory failure must never be reported as a cascade: {err}"
    );
    assert_eq!(
        (err.error.filter(), err.error.copy()),
        (Some("w"), Some(1)),
        "{err}"
    );
    assert!(err.error.message().contains("dataset missing"), "{err}");
    // The copies spawned before the failure (src x2, w copy 0) all drained
    // and reported their stats.
    assert_eq!(
        err.per_copy.len(),
        3,
        "every spawned copy must be joined and reported: {:?}",
        err.per_copy
    );
}

#[test]
fn panicking_factory_is_contained() {
    let mut f = base_factories();
    f.insert(
        "w".to_string(),
        Box::new(|copy| {
            if copy == 0 {
                panic!("factory exploded while opening copy {copy}");
            }
            Ok(Box::new(Relay))
        }),
    );
    let err = run_with_watchdog(graph(), f).expect_err("factory panic must fail the run");
    assert_eq!(err.error.kind(), FilterErrorKind::Panic, "{err}");
    assert_eq!(
        (err.error.filter(), err.error.copy()),
        (Some("w"), Some(0)),
        "{err}"
    );
    assert!(err.error.message().contains("factory exploded"), "{err}");
    // Only the two src copies were running.
    assert_eq!(err.per_copy.len(), 2, "{:?}", err.per_copy);
}

#[test]
fn factory_error_beats_cascades_from_spawned_copies() {
    // Fail the very last copy to spawn: every producer is already running
    // and will observe DownstreamClosed cascades, yet the typed factory
    // error must win root-cause selection.
    let mut f = base_factories();
    f.insert(
        "sink".to_string(),
        Box::new(|_| Err(FilterError::msg("sink configuration rejected"))),
    );
    let err = run_with_watchdog(graph(), f).expect_err("factory error must fail the run");
    assert_eq!(err.error.kind(), FilterErrorKind::App, "{err}");
    assert_eq!(
        (err.error.filter(), err.error.copy()),
        (Some("sink"), Some(0)),
        "{err}"
    );
    // All four upstream copies (src x2, w x2) joined and reported.
    assert_eq!(err.per_copy.len(), 4, "{:?}", err.per_copy);
}

#[test]
fn first_copy_factory_error_reports_no_stats() {
    let mut f = base_factories();
    f.insert(
        "src".to_string(),
        Box::new(|_| Err(FilterError::new(FilterErrorKind::Io, "cannot open node_00"))),
    );
    let err = run_with_watchdog(graph(), f).expect_err("factory error must fail the run");
    assert_eq!(err.error.kind(), FilterErrorKind::Io, "{err}");
    assert_eq!(
        (err.error.filter(), err.error.copy()),
        (Some("src"), Some(0)),
        "{err}"
    );
    assert!(err.per_copy.is_empty(), "{:?}", err.per_copy);
}
