//! The filter programming interface.
//!
//! A filter implements up to three callbacks:
//!
//! * [`Filter::start`] — called once before any input arrives; **source
//!   filters produce their entire output here** (e.g. RFR reading slices
//!   from disk);
//! * [`Filter::process`] — called once per arriving buffer, with the input
//!   port it arrived on;
//! * [`Filter::finish`] — called after every input stream has ended; used
//!   to flush partially filled output buffers.
//!
//! Filters emit buffers through the [`FilterContext`] handed to each
//! callback; emission blocks when the downstream queue is full, which is
//! what creates pipeline backpressure.
//!
//! Errors escaping a callback are **typed**: every [`FilterError`] carries a
//! [`FilterErrorKind`] plus (once the engine has seen it) the name and copy
//! index of the filter it escaped from, so the engine can tell an
//! application failure from an I/O failure, a contained panic, or the
//! cascade symptom of a consumer dying elsewhere in the graph.

use crate::buffer::DataBuffer;
use crate::metrics::StreamMeter;
use crate::schedule::{Route, SchedulePolicy};
use crossbeam::channel::Sender;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Classifies a [`FilterError`]; drives the engine's root-cause selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterErrorKind {
    /// An application-level failure returned by a filter callback.
    App,
    /// An I/O failure (converted from [`std::io::Error`]).
    Io,
    /// A filter callback panicked; the engine contained the unwind and
    /// converted the payload into this error.
    Panic,
    /// An `emit` failed because the consumer filter terminated — a cascade
    /// *symptom*, never reported as the root cause when any other error
    /// kind is present.
    DownstreamClosed,
    /// An engine-internal failure: invalid graph, missing factory, thread
    /// spawn failure, or a worker dying outside panic containment.
    Engine,
}

impl fmt::Display for FilterErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FilterErrorKind::App => "app",
            FilterErrorKind::Io => "io",
            FilterErrorKind::Panic => "panic",
            FilterErrorKind::DownstreamClosed => "downstream-closed",
            FilterErrorKind::Engine => "engine",
        };
        f.write_str(s)
    }
}

/// An error escaping a filter callback; aborts the whole graph run.
///
/// Construct application errors with [`FilterError::msg`]; the other kinds
/// are produced by the runtime (`From<io::Error>`, the engine's panic
/// containment, `emit`'s downstream tracking). The engine stamps the
/// failing filter's name and copy index onto every error it collects, so
/// `run_graph`'s reported root cause always names its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError {
    kind: FilterErrorKind,
    message: String,
    filter: Option<String>,
    copy: Option<usize>,
}

impl FilterError {
    /// Creates an application-level (`App`-kind) error with a message.
    pub fn msg(m: impl Into<String>) -> Self {
        Self::new(FilterErrorKind::App, m)
    }

    /// Creates an error of an explicit kind.
    pub fn new(kind: FilterErrorKind, m: impl Into<String>) -> Self {
        Self {
            kind,
            message: m.into(),
            filter: None,
            copy: None,
        }
    }

    /// Creates a `Panic`-kind error from a contained panic payload message.
    pub fn panic(m: impl Into<String>) -> Self {
        Self::new(FilterErrorKind::Panic, m)
    }

    /// Creates an `Engine`-kind error.
    pub fn engine(m: impl Into<String>) -> Self {
        Self::new(FilterErrorKind::Engine, m)
    }

    /// Creates a `DownstreamClosed`-kind error naming the dead consumer.
    pub fn downstream_closed(m: impl Into<String>) -> Self {
        Self::new(FilterErrorKind::DownstreamClosed, m)
    }

    /// The error's kind.
    pub fn kind(&self) -> FilterErrorKind {
        self.kind
    }

    /// The bare message (no kind/origin decoration).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Name of the filter the error escaped from, once the engine has
    /// stamped it.
    pub fn filter(&self) -> Option<&str> {
        self.filter.as_deref()
    }

    /// Copy index of the filter copy the error escaped from.
    pub fn copy(&self) -> Option<usize> {
        self.copy
    }

    /// Whether this error is a cascade symptom (a producer noticing that a
    /// consumer died) rather than an originating failure.
    pub fn is_cascade(&self) -> bool {
        self.kind == FilterErrorKind::DownstreamClosed
    }

    /// Stamps the originating filter copy, unless already stamped.
    pub fn with_origin(mut self, filter: &str, copy: usize) -> Self {
        if self.filter.is_none() {
            self.filter = Some(filter.to_string());
            self.copy = Some(copy);
        }
        self
    }
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "filter error [{}]", self.kind)?;
        if let (Some(name), Some(copy)) = (&self.filter, self.copy) {
            write!(f, " in {name}#{copy}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for FilterError {}

impl From<std::io::Error> for FilterError {
    fn from(e: std::io::Error) -> Self {
        Self::new(FilterErrorKind::Io, format!("I/O error: {e}"))
    }
}

/// A filter instance. One value of this trait is created per copy by the
/// application's filter factory; the engine drives its callbacks from the
/// copy's thread.
pub trait Filter: Send {
    /// Called once before any input; sources emit all their data here.
    fn start(&mut self, _ctx: &mut FilterContext) -> Result<(), FilterError> {
        Ok(())
    }

    /// Called for each buffer arriving on input port `port` (the index into
    /// the filter's input streams in graph declaration order).
    fn process(
        &mut self,
        port: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError>;

    /// Called once after all input streams have ended.
    fn finish(&mut self, _ctx: &mut FilterContext) -> Result<(), FilterError> {
        Ok(())
    }
}

/// A message traveling along a stream: the buffer plus the consumer-side
/// input port it belongs to.
#[derive(Debug, Clone)]
pub(crate) struct Msg {
    pub port: usize,
    pub buf: DataBuffer,
}

/// One output port of a running filter copy: the policy plus the sender(s)
/// reaching the consumer copies.
pub(crate) struct OutPort {
    pub policy: SchedulePolicy,
    /// Consumer filter name (for diagnostics in emit errors).
    pub dest_filter: String,
    /// Consumer-side input port index this output feeds.
    pub dest_port: usize,
    /// One sender per consumer copy for private-queue policies; a single
    /// sender for the shared demand-driven queue.
    pub senders: Vec<Sender<Msg>>,
    /// Consumer copy count (for routing; may differ from `senders.len()`
    /// under demand-driven).
    pub consumer_copies: usize,
    /// Producer-local sequence number on this port (drives round-robin).
    pub seq: u64,
    /// Shared meter of the stream this port feeds (delivery counts and
    /// queue-depth high water, see [`StreamMeter`]).
    pub meter: Arc<StreamMeter>,
}

/// Execution context handed to filter callbacks: emission, identity, and
/// byte accounting.
pub struct FilterContext {
    pub(crate) filter_name: String,
    pub(crate) copy_index: usize,
    pub(crate) num_copies: usize,
    pub(crate) outputs: Vec<OutPort>,
    pub(crate) buffers_out: u64,
    pub(crate) bytes_out: u64,
    /// Cumulative time this copy's `emit` calls spent inside channel sends —
    /// predominantly blocking on full downstream queues. Runs inside
    /// callback time, so the engine reports busy net of this.
    pub(crate) blocked_send: Duration,
    /// Run-level failure flag, shared by every copy of the run. A failing
    /// copy raises it *before* dropping its channel endpoints, so by the
    /// time end-of-stream cascades to a downstream filter the flag is
    /// already visible.
    pub(crate) failed: Arc<AtomicBool>,
    /// Cooperative cancellation flag shared with the run's owner (see
    /// [`crate::EngineConfig::cancel`]); `None` on uncancellable runs.
    pub(crate) cancel: Option<Arc<AtomicBool>>,
}

impl FilterContext {
    /// This copy's index among the filter's copies (`0..num_copies`).
    pub fn copy_index(&self) -> usize {
        self.copy_index
    }

    /// Total number of copies of this filter.
    pub fn num_copies(&self) -> usize {
        self.num_copies
    }

    /// Number of output ports of this filter.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The filter's declared name.
    pub fn filter_name(&self) -> &str {
        &self.filter_name
    }

    /// Whether any filter copy of this run has already failed (error or
    /// panic). A failing copy raises the flag before it releases its
    /// channels, so a sink that observes end-of-stream and then reads
    /// `false` here is guaranteed the streams above it all ended cleanly.
    /// Output filters use this in `finish` to withhold commitment (e.g. the
    /// atomic rename of a `.tmp` file) on aborted runs.
    pub fn run_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Whether cooperative cancellation has been requested for this run
    /// (see [`crate::EngineConfig::cancel`]). Always `false` on runs
    /// started without a cancel flag.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst))
    }

    /// Bails with an `App`-kind "run cancelled" error when cancellation has
    /// been requested. The engine checks the flag at callback boundaries;
    /// long-running *source* filters (which do all their work inside one
    /// `start` call) call this between emissions so a cancel lands promptly
    /// even with no input queue to poll.
    pub fn check_cancelled(&self) -> Result<(), FilterError> {
        if self.cancelled() {
            Err(FilterError::msg(crate::engine::CANCEL_MESSAGE))
        } else {
            Ok(())
        }
    }

    /// Emits a buffer on output port `port`, blocking while the target
    /// queue is full. Fails with a [`FilterErrorKind::DownstreamClosed`]
    /// error naming the consumer if the downstream filter has terminated
    /// (e.g. after an error elsewhere in the graph) — producers then unwind
    /// instead of deadlocking.
    pub fn emit(&mut self, port: usize, buf: DataBuffer) -> Result<(), FilterError> {
        let out = self
            .outputs
            .get_mut(port)
            .unwrap_or_else(|| panic!("output port {port} out of range"));
        let size = buf.size_bytes() as u64;
        let route = out.policy.route(out.seq, buf.tag(), out.consumer_copies);
        out.seq += 1;
        let sender = match route {
            Route::One(i) => &out.senders[i],
            Route::Shared => &out.senders[0],
        };
        // The send is timed (backpressure shows up here as blocked-send
        // time) and, on success, metered with the queue depth it produced.
        let t = Instant::now();
        let sent = sender.send(Msg {
            port: out.dest_port,
            buf,
        });
        self.blocked_send += t.elapsed();
        sent.map_err(|_| {
            FilterError::downstream_closed(format!(
                "downstream filter {:?} terminated",
                out.dest_filter
            ))
        })?;
        out.meter.record(size, sender.len());
        self.buffers_out += 1;
        self.bytes_out += size;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    fn ctx_with(
        policy: SchedulePolicy,
        n: usize,
    ) -> (FilterContext, Vec<crossbeam::channel::Receiver<Msg>>) {
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        let queues = if policy.uses_private_queues() { n } else { 1 };
        for _ in 0..queues {
            let (s, r) = bounded(16);
            senders.push(s);
            receivers.push(r);
        }
        let ctx = FilterContext {
            filter_name: "test".into(),
            copy_index: 0,
            num_copies: 1,
            outputs: vec![OutPort {
                policy,
                dest_filter: "consumer".into(),
                dest_port: 0,
                senders,
                consumer_copies: n,
                seq: 0,
                meter: Arc::new(StreamMeter::default()),
            }],
            buffers_out: 0,
            bytes_out: 0,
            blocked_send: Duration::ZERO,
            failed: Arc::new(AtomicBool::new(false)),
            cancel: None,
        };
        (ctx, receivers)
    }

    #[test]
    fn round_robin_emission_cycles_queues() {
        let (mut ctx, rx) = ctx_with(SchedulePolicy::RoundRobin, 3);
        for i in 0..6 {
            ctx.emit(0, DataBuffer::new(i as u32, 4, 0)).unwrap();
        }
        for r in &rx {
            assert_eq!(r.len(), 2, "round robin must balance");
        }
        assert_eq!(ctx.buffers_out, 6);
        assert_eq!(ctx.bytes_out, 24);
        // Metered once per send, depth sampled after it.
        let meter = &ctx.outputs[0].meter;
        assert_eq!((meter.buffers(), meter.bytes()), (6, 24));
        assert_eq!(meter.depth_high_water(), 2);
    }

    #[test]
    fn tag_modulo_routes_by_tag() {
        let (mut ctx, rx) = ctx_with(SchedulePolicy::ByTagModulo, 2);
        for tag in [0u64, 2, 4, 1] {
            ctx.emit(0, DataBuffer::new((), 1, tag)).unwrap();
        }
        assert_eq!(rx[0].len(), 3);
        assert_eq!(rx[1].len(), 1);
    }

    #[test]
    fn emit_to_dead_consumer_errors() {
        let (mut ctx, rx) = ctx_with(SchedulePolicy::RoundRobin, 1);
        drop(rx);
        let e = ctx.emit(0, DataBuffer::new((), 1, 0)).unwrap_err();
        assert_eq!(e.kind(), FilterErrorKind::DownstreamClosed);
        assert!(e.is_cascade());
        assert!(
            e.message().contains("\"consumer\""),
            "destination filter missing from {e}"
        );
    }

    #[test]
    fn error_origin_stamping_is_first_writer_wins() {
        let e = FilterError::msg("boom").with_origin("HMP", 2);
        assert_eq!(e.filter(), Some("HMP"));
        assert_eq!(e.copy(), Some(2));
        let e2 = e.with_origin("USO", 0);
        assert_eq!(e2.filter(), Some("HMP"), "origin must not be overwritten");
    }

    #[test]
    fn display_includes_kind_and_origin() {
        let e = FilterError::panic("index out of bounds").with_origin("HIC", 0);
        let s = e.to_string();
        assert!(s.contains("[panic]"), "{s}");
        assert!(s.contains("HIC#0"), "{s}");
        assert!(s.contains("index out of bounds"), "{s}");
    }

    #[test]
    fn io_errors_convert_with_io_kind() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: FilterError = io.into();
        assert_eq!(e.kind(), FilterErrorKind::Io);
        assert!(e.message().contains("gone"));
    }
}
