//! The threaded execution engine.
//!
//! Every filter copy runs on its own OS thread; streams are the bounded
//! queues of [`crate::chan`], so a full downstream queue blocks the
//! producer — the pipelining/backpressure behaviour of DataCutter's stream
//! layer. A copy with several inputs sweeps them with `try_recv`, starting
//! one input further on per received buffer, and parks in a readiness
//! [`Select`] only when every input is empty.
//!
//! **End-of-stream** is signalled by sender destruction: when every copy of
//! every producer on a stream has finished, the channel disconnects and the
//! consumer observes end-of-input — no explicit EOS tokens are needed, and
//! the mechanism composes correctly with shared (demand-driven) queues.
//!
//! **Failure containment:** a filter returning an error — or *panicking*;
//! every callback runs under [`std::panic::catch_unwind`] — exits its thread
//! and drops its endpoints; upstream producers then fail their next `emit`
//! ([`FilterErrorKind::DownstreamClosed`]) and unwind, downstream consumers
//! see early disconnection and finish. The run drains without deadlock,
//! every spawned copy reports its [`CopyReport`] row (panicked copies
//! included), `run_graph` joins **every** worker thread before returning,
//! and the reported root cause is selected by error *kind*: an originating
//! `App`/`Io`/`Panic` failure always wins over the `DownstreamClosed`
//! cascade symptoms it triggers, and the error names the failing filter
//! copy.

use crate::chan::{bounded, Receiver, Select, Sender, TryRecvError};
use crate::filter::{Filter, FilterContext, FilterError, FilterErrorKind, Msg, OutPort};
use crate::graph::GraphSpec;
use crate::metrics::{
    CopyReport, CopyRows, FilterShape, PhaseReport, RunReport, StreamMeter, StreamStats,
    RUN_REPORT_SCHEMA_VERSION,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-filter constructor: called once per copy with the copy index.
///
/// Spin-up is a fallible phase: a factory that cannot build its filter
/// (missing dataset, bad configuration) returns a typed [`FilterError`]
/// instead of panicking, and `run_graph` converts it into a [`RunFailure`]
/// stamped with the filter name and copy index. A factory that panics
/// anyway is contained by a `catch_unwind` backstop and reported as a
/// `Panic`-kind error; either way the copies already spawned drain and are
/// joined before `run_graph` returns.
///
/// Factories are `Send` so a driver (a test watchdog, for one) can
/// build them on one thread and run the graph on another.
pub type FilterFactory = Box<dyn FnMut(usize) -> Result<Box<dyn Filter>, FilterError> + Send>;

/// Prefix of every thread the engine and the transport spawn
/// (diagnostics): `dc-<filter>-<copy>`, `dc-tx-<peer>`, ….
pub(crate) const THREAD_PREFIX: &str = "dc";

/// A failed run: the selected root cause, the cascade errors it triggered,
/// and the row of every copy that reported before shutdown — on a fully
/// spawned graph that is *every* copy, panicked ones included.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// The root-cause error (kind-selected: originating failures beat
    /// `DownstreamClosed` cascade symptoms).
    pub error: FilterError,
    /// Other errors observed during the drain, in arrival order.
    pub secondary: Vec<FilterError>,
    /// Per-copy rows collected up to the failure (empty when the run
    /// failed before any thread was spawned, e.g. graph validation).
    pub per_copy: CopyRows,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if !self.secondary.is_empty() {
            write!(f, " (+{} secondary)", self.secondary.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for RunFailure {}

impl From<FilterError> for RunFailure {
    fn from(error: FilterError) -> Self {
        Self {
            error,
            secondary: Vec::new(),
            per_copy: CopyRows::default(),
        }
    }
}

/// Which part of the graph runs in this process, and how cross-process
/// streams are bridged. [`run_graph`] uses [`Partition::whole`] — every
/// copy local, nothing bridged — so the single-process path is unchanged;
/// the transport layer builds node-scoped partitions for distributed runs.
pub(crate) struct Partition {
    /// Node id this process executes, or `None` for a whole-graph run (the
    /// threaded engine's classic mode, which ignores placements).
    pub node: Option<usize>,
    /// Senders bridging to consumer copies hosted on other nodes, keyed by
    /// `(stream index, Some(global copy) | None = shared demand-driven
    /// queue)`. They are installed at the remote copies' positions in each
    /// local producer's `OutPort`, so routing, backpressure and
    /// `blocked_send` accounting work transparently.
    pub uplinks: HashMap<(usize, Option<usize>), Sender<Msg>>,
    /// Called exactly once, after channel creation and before any copy can
    /// observe a disconnect, with one injector per stream (`Some` only for
    /// streams that have local consumer queues and at least one remote
    /// producer copy). TCP readers hold these clones and drop them per
    /// route as end-of-stream frames arrive.
    pub handoff: Option<Handoff>,
    /// Run-level failure flag shared with the transport threads: readers
    /// raise it before dropping injectors, writers consult it to choose
    /// between EOS and error propagation at channel disconnect.
    pub failed: Arc<AtomicBool>,
}

impl Partition {
    /// The whole graph in this process; placements ignored.
    pub fn whole() -> Self {
        Self {
            node: None,
            uplinks: HashMap::new(),
            handoff: None,
            failed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Whether `copy` of `fdecl` executes in this process.
    pub fn is_local(&self, fdecl: &crate::graph::FilterDecl, copy: usize) -> bool {
        match self.node {
            None => true,
            Some(n) => fdecl.placement.get(copy).copied() == Some(n),
        }
    }
}

/// Hands the TCP readers one injector per stream (see [`Partition::handoff`]).
pub(crate) type Handoff = Box<dyn FnOnce(Vec<Option<StreamInjector>>) + Send>;

/// Handles a TCP reader needs to feed remotely produced buffers into this
/// process's consumer queues for one stream.
pub(crate) struct StreamInjector {
    /// Consumer-side input port the stream maps to.
    pub port: usize,
    /// Clones of the local consumer-queue senders: `Some(global copy)` for
    /// private queues, `None` for the shared demand-driven queue.
    pub senders: Vec<(Option<usize>, Sender<Msg>)>,
    /// The stream's meter — remote deliveries are metered on the consumer
    /// node like local ones.
    pub meter: Arc<StreamMeter>,
}

/// Executes `spec` with the given filter factories and blocks until every
/// filter has finished **and every worker thread has been joined** — no
/// thread outlives this call, so a failed run cannot keep writing output
/// behind the caller's back. The returned [`RunReport`] carries the graph
/// shape, phases, per-stream meters and per-copy rows; `io`, `transport`
/// and `store` are the outer drivers' to fill.
///
/// # Errors
/// Graph validation failures, a missing factory, or the kind-selected root
/// cause of the first failing filter copy (see [`RunFailure`]).
pub fn run_graph(
    spec: &GraphSpec,
    factories: &mut HashMap<String, FilterFactory>,
) -> Result<RunReport, RunFailure> {
    run_graph_partition(spec, factories, Partition::whole())
}

/// The partition-parameterized core of [`run_graph`]: channels are created
/// only for locally hosted consumer copies, cross-node positions in each
/// producer's sender vector are filled with transport uplinks, and factories
/// are called with **global** copy indices so node mapping, output file
/// naming and routing are identical to the single-process run. The report's
/// `filters` count the locally hosted copies only.
pub(crate) fn run_graph_partition(
    spec: &GraphSpec,
    factories: &mut HashMap<String, FilterFactory>,
    mut partition: Partition,
) -> Result<RunReport, RunFailure> {
    spec.validate()
        .map_err(|e| FilterError::engine(format!("invalid graph: {e}")))?;
    for f in &spec.filters {
        if !factories.contains_key(&f.name) {
            return Err(FilterError::engine(format!("no factory for filter {:?}", f.name)).into());
        }
    }

    // Create the queue(s) of every stream: one per *locally hosted*
    // consumer copy. Remote consumer positions get the transport uplink at
    // the same index, so `emit`'s routing never knows the difference.
    struct StreamChans {
        /// Full routing vector indexed like the consumer's global copies
        /// (single entry for shared queues); empty when no producer copy is
        /// local, since no local `OutPort` will reference it.
        senders: Vec<Sender<Msg>>,
        /// The locally created queue senders, for the injector handoff.
        local_txs: Vec<(Option<usize>, Sender<Msg>)>,
        /// Per global consumer copy; `None` for copies hosted elsewhere.
        receivers: Vec<Option<Receiver<Msg>>>,
    }
    let mut chans: Vec<StreamChans> = Vec::with_capacity(spec.streams.len());
    let meters: Vec<Arc<StreamMeter>> = (0..spec.streams.len())
        .map(|_| Arc::new(StreamMeter::default()))
        .collect();
    for (si, s) in spec.streams.iter().enumerate() {
        let cdecl = spec.filter_decl(&s.to).expect("validated");
        let pdecl = spec.filter_decl(&s.from).expect("validated");
        let has_local_producer = (0..pdecl.copies).any(|c| partition.is_local(pdecl, c));
        let uplink = |dest: Option<usize>| -> Result<Sender<Msg>, FilterError> {
            partition.uplinks.get(&(si, dest)).cloned().ok_or_else(|| {
                FilterError::engine(format!(
                    "stream {:?}: no transport uplink for remote consumer {dest:?}",
                    s.name
                ))
            })
        };
        if s.policy.uses_private_queues() {
            let mut receivers: Vec<Option<Receiver<Msg>>> = vec![None; cdecl.copies];
            let mut local_txs = Vec::new();
            for (copy, receiver) in receivers.iter_mut().enumerate() {
                if partition.is_local(cdecl, copy) {
                    let (tx, rx) = bounded(s.capacity);
                    *receiver = Some(rx);
                    local_txs.push((Some(copy), tx));
                }
            }
            let senders = if has_local_producer {
                (0..cdecl.copies)
                    .map(|copy| match &receivers[copy] {
                        Some(_) => Ok(local_txs
                            .iter()
                            .find(|(k, _)| *k == Some(copy))
                            .expect("local queue was just created")
                            .1
                            .clone()),
                        None => uplink(Some(copy)),
                    })
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                Vec::new()
            };
            chans.push(StreamChans {
                senders,
                local_txs,
                receivers,
            });
        } else {
            // One shared queue all consumer copies pull from: demand-driven.
            // In a distributed run the consumer's copies live on a single
            // node (the transport validates this), so the queue is either
            // entirely local or entirely behind one uplink.
            let local_consumers = (0..cdecl.copies)
                .filter(|&c| partition.is_local(cdecl, c))
                .count();
            if local_consumers == cdecl.copies {
                let (tx, rx) = bounded(s.capacity);
                let senders = if has_local_producer {
                    vec![tx.clone()]
                } else {
                    Vec::new()
                };
                chans.push(StreamChans {
                    senders,
                    local_txs: vec![(None, tx)],
                    receivers: vec![Some(rx); cdecl.copies],
                });
            } else if local_consumers == 0 {
                let senders = if has_local_producer {
                    vec![uplink(None)?]
                } else {
                    Vec::new()
                };
                chans.push(StreamChans {
                    senders,
                    local_txs: Vec::new(),
                    receivers: vec![None; cdecl.copies],
                });
            } else {
                return Err(FilterError::engine(format!(
                    "demand-driven stream {:?} has consumer copies on multiple nodes",
                    s.name
                ))
                .into());
            }
        }
    }

    // Hand the injectors to the transport readers *before* any copy runs:
    // readers must hold their queue clones before local consumers could
    // mistake a missing remote producer for end-of-stream.
    if let Some(handoff) = partition.handoff.take() {
        let injectors: Vec<Option<StreamInjector>> = spec
            .streams
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let pdecl = spec.filter_decl(&s.from).expect("validated");
                let has_remote_producer = (0..pdecl.copies).any(|c| !partition.is_local(pdecl, c));
                if chans[si].local_txs.is_empty() || !has_remote_producer {
                    return None;
                }
                Some(StreamInjector {
                    port: spec.input_port_of(si),
                    senders: chans[si].local_txs.clone(),
                    meter: meters[si].clone(),
                })
            })
            .collect();
        handoff(injectors);
    }
    let failed = Arc::clone(&partition.failed);
    // The uplink originals drop here; producers' OutPorts hold the clones
    // and the transport writers hold the receiving ends.
    partition.uplinks.clear();

    let start = Instant::now();
    let filters: Vec<FilterShape> = spec
        .filters
        .iter()
        .map(|f| FilterShape {
            name: f.name.clone(),
            copies: (0..f.copies).filter(|&c| partition.is_local(f, c)).count(),
        })
        .filter(|f| f.copies > 0)
        .collect();
    // Sized to the *local* copy count so every worker's single completion
    // send is non-blocking even if the drain loop exits early — a graph
    // with more than N copies must never stall against a fixed-size channel.
    let total_copies: usize = filters.iter().map(|f| f.copies).sum();
    let (done_tx, done_rx) = bounded::<(CopyReport, Option<FilterError>)>(total_copies.max(1));
    // Run-level failure flag: raised by the first failing copy before it
    // releases its channels, so sinks can refuse to commit output on runs
    // that are already doomed (see `FilterContext::run_failed`).
    let mut spawned = 0usize;
    let mut handles = Vec::new();
    let mut spawn_error: Option<FilterError> = None;

    'spawn: for fdecl in &spec.filters {
        let input_streams = spec.inputs_of(&fdecl.name);
        let output_streams = spec.outputs_of(&fdecl.name);
        let factory = factories.get_mut(&fdecl.name).expect("checked above");
        for copy in (0..fdecl.copies).filter(|&c| partition.is_local(fdecl, c)) {
            let outputs: Vec<OutPort> = output_streams
                .iter()
                .map(|&si| {
                    let s = &spec.streams[si];
                    OutPort {
                        policy: s.policy,
                        dest_filter: s.to.clone(),
                        dest_port: spec.input_port_of(si),
                        senders: chans[si].senders.clone(),
                        consumer_copies: spec.filter_decl(&s.to).expect("validated").copies,
                        seq: 0,
                        meter: meters[si].clone(),
                    }
                })
                .collect();
            let receivers: Vec<Receiver<Msg>> = input_streams
                .iter()
                .map(|&si| {
                    chans[si].receivers[copy]
                        .clone()
                        .expect("local consumer copy has a local queue")
                })
                .collect();
            let ctx = FilterContext {
                filter_name: fdecl.name.clone(),
                copy_index: copy,
                num_copies: fdecl.copies,
                outputs,
                buffers_out: 0,
                bytes_out: 0,
                blocked_send: Duration::ZERO,
                failed: failed.clone(),
            };
            // Spin-up is fallible: a factory error or panic aborts further
            // spawning with a typed, origin-stamped root cause, while the
            // copies already running drain and are joined below.
            let filter = match catch_unwind(AssertUnwindSafe(|| factory(copy))) {
                Ok(Ok(f)) => f,
                Ok(Err(e)) => {
                    spawn_error = Some(e.with_origin(&fdecl.name, copy));
                    break 'spawn;
                }
                Err(payload) => {
                    spawn_error = Some(
                        FilterError::panic(format!(
                            "panicked in factory: {}",
                            panic_payload_message(payload)
                        ))
                        .with_origin(&fdecl.name, copy),
                    );
                    break 'spawn;
                }
            };
            let tx = done_tx.clone();
            let name = format!("{THREAD_PREFIX}-{}-{copy}", fdecl.name);
            match std::thread::Builder::new().name(name).spawn(move || {
                let result = run_copy(filter, ctx, receivers);
                let _ = tx.send(result);
            }) {
                Ok(handle) => {
                    handles.push(handle);
                    spawned += 1;
                }
                Err(e) => {
                    // Stop spawning; the copies already running must still
                    // drain and be joined before we report the failure.
                    spawn_error = Some(FilterError::engine(format!("thread spawn failed: {e}")));
                    break 'spawn;
                }
            }
        }
    }
    if spawn_error.is_some() {
        // Mark the run failed before releasing the unspawned filters'
        // channel originals: consumers must not mistake the resulting
        // disconnection for a clean end-of-stream.
        failed.store(true, Ordering::SeqCst);
    }
    // Drop the channel originals so disconnection tracking is exact.
    drop(chans);
    drop(done_tx);
    // Spin-up ends once every copy is spawned (or spawning aborted) and the
    // channel originals are released; the run is now in steady state.
    let spinup_done = Instant::now();
    let mut first_done: Option<Instant> = None;

    let mut per_copy = Vec::with_capacity(spawned);
    let mut root_error: Option<FilterError> = None;
    let mut cascade_error: Option<FilterError> = None;
    let mut secondary: Vec<FilterError> = Vec::new();
    let mut engine_error: Option<FilterError> = None;
    for _ in 0..spawned {
        match done_rx.recv() {
            Ok((row, err)) => {
                first_done.get_or_insert_with(Instant::now);
                per_copy.push(row);
                if let Some(e) = err {
                    // Cascade symptoms (a producer noticing its consumer
                    // died) can never shadow — or be faked by — an
                    // originating failure: selection is by kind, not by
                    // message content.
                    let slot = if e.is_cascade() {
                        &mut cascade_error
                    } else {
                        &mut root_error
                    };
                    if slot.is_some() {
                        secondary.push(e);
                    } else {
                        *slot = Some(e);
                    }
                }
            }
            Err(_) => {
                first_done.get_or_insert_with(Instant::now);
                // Every worker sends exactly once even when its filter
                // panics; losing the channel means a thread died outside
                // containment (e.g. a panic in a payload Drop).
                engine_error.get_or_insert_with(|| {
                    FilterError::engine(
                        "worker exited without reporting (died outside containment)",
                    )
                });
                break;
            }
        }
    }
    // Join every spawned thread *before* returning, on success and failure
    // alike: once run_graph returns, no filter code is still running.
    for h in handles {
        let _ = h.join();
    }
    // Phase boundaries are captured before the final `start.elapsed()` so
    // `spinup + steady + drain <= wall` holds exactly in Duration space.
    let finished = Instant::now();
    let first_done = first_done.unwrap_or(spinup_done);
    let phases = PhaseReport {
        spinup_s: spinup_done.duration_since(start).as_secs_f64(),
        steady_s: first_done.duration_since(spinup_done).as_secs_f64(),
        drain_s: finished.duration_since(first_done).as_secs_f64(),
    };
    let wall_s = start.elapsed().as_secs_f64();
    per_copy.sort_by(|a, b| (&a.filter, a.copy).cmp(&(&b.filter, b.copy)));
    let per_copy = CopyRows(per_copy);
    // Root-cause precedence: a typed spin-up failure or an originating
    // in-flight failure (App/Io/Panic) beats an engine failure, which beats
    // the DownstreamClosed cascade symptoms all of them trigger. Whatever is
    // not selected joins the secondary list.
    let (spawn_origin, spawn_other) = match spawn_error {
        Some(e) if !e.is_cascade() && e.kind() != FilterErrorKind::Engine => (Some(e), None),
        other => (None, other),
    };
    let mut candidates: Vec<FilterError> = [
        spawn_origin,
        root_error,
        spawn_other,
        engine_error,
        cascade_error,
    ]
    .into_iter()
    .flatten()
    .collect();
    if candidates.is_empty() {
        let streams = spec
            .streams
            .iter()
            .zip(&meters)
            .map(|(s, m)| {
                let queues = if s.policy.uses_private_queues() {
                    spec.filter_decl(&s.to).expect("validated").copies
                } else {
                    1
                };
                StreamStats {
                    name: s.name.clone(),
                    from: s.from.clone(),
                    to: s.to.clone(),
                    policy: s.policy,
                    capacity: s.capacity,
                    queues,
                    buffers: m.buffers(),
                    bytes: m.bytes(),
                    depth_high_water: m.depth_high_water(),
                }
            })
            .collect();
        return Ok(RunReport {
            schema_version: RUN_REPORT_SCHEMA_VERSION,
            wall_s,
            phases,
            filters,
            streams,
            per_copy,
            io: None,
            transport: None,
            store: None,
        });
    }
    let error = candidates.remove(0);
    candidates.extend(secondary);
    Err(RunFailure {
        error,
        secondary: candidates,
        per_copy,
    })
}

/// Extracts a human-readable message from a panic payload.
fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one filter callback with panic containment: a panic becomes a
/// [`FilterErrorKind::Panic`] error carrying the payload message.
fn contained(site: &str, f: impl FnOnce() -> Result<(), FilterError>) -> Result<(), FilterError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(FilterError::panic(format!(
            "panicked in {site}: {}",
            panic_payload_message(payload)
        ))),
    }
}

/// Drives one filter copy to completion on the current thread.
///
/// Every callback runs under panic containment; after a failure (error or
/// panic) the filter is not called again, but the row accumulated so far
/// is still reported and the thread exits normally, so the engine's drain
/// and join logic never depends on filters being well-behaved.
fn run_copy(
    mut filter: Box<dyn Filter>,
    mut ctx: FilterContext,
    receivers: Vec<Receiver<Msg>>,
) -> (CopyReport, Option<FilterError>) {
    let t0 = Instant::now();
    let mut busy = Duration::ZERO;
    let mut blocked_recv = Duration::ZERO;
    let mut buffers_in = 0u64;
    let mut bytes_in = 0u64;

    let t = Instant::now();
    let mut error = contained("start", || filter.start(&mut ctx)).err();
    busy += t.elapsed();

    // Receive loop over all live input channels. After a failure the loop
    // stops consuming; dropping the receivers below disconnects upstream.
    let mut alive = receivers;
    // Where the next sweep starts: one input further on per received
    // buffer, so a busy input cannot starve the others.
    let mut rot = 0usize;
    while error.is_none() && !alive.is_empty() {
        let n = alive.len();
        let polled = (0..n)
            .map(|k| (rot + k) % n)
            .find_map(|i| match alive[i].try_recv() {
                Err(TryRecvError::Empty) => None,
                r => Some((i, r)),
            });
        match polled {
            Some((_, Ok(m))) => {
                rot = rot.wrapping_add(1);
                buffers_in += 1;
                bytes_in += m.buf.size_bytes() as u64;
                let t = Instant::now();
                let r = contained("process", || filter.process(m.port, m.buf, &mut ctx));
                busy += t.elapsed();
                if let Err(e) = r {
                    error = Some(e);
                }
            }
            Some((i, Err(_))) => {
                alive.swap_remove(i);
            }
            None => {
                // Every input is empty: park until one changes state. Only
                // this wait counts as blocked-recv.
                let mut sel = Select::new();
                for r in &alive {
                    sel.recv(r);
                }
                let t = Instant::now();
                sel.ready();
                blocked_recv += t.elapsed();
            }
        }
    }

    if error.is_none() {
        let t = Instant::now();
        let r = contained("finish", || filter.finish(&mut ctx));
        busy += t.elapsed();
        if let Err(e) = r {
            error = Some(e);
        }
    }

    // `emit` runs inside callbacks, so its blocked-send time is nested in
    // the callback timing; subtracting it makes `busy` pure compute and
    // `busy + blocked_send + blocked_recv <= wall` exact. Everything above
    // is measured in `Duration`; this is the one conversion to seconds.
    let blocked_send = ctx.blocked_send;
    let busy = busy.saturating_sub(blocked_send);
    let row = CopyReport {
        filter: ctx.filter_name.clone(),
        copy: ctx.copy_index,
        buffers_in,
        buffers_out: ctx.buffers_out,
        bytes_in,
        bytes_out: ctx.bytes_out,
        busy_s: busy.as_secs_f64(),
        blocked_send_s: blocked_send.as_secs_f64(),
        blocked_recv_s: blocked_recv.as_secs_f64(),
        wall_s: t0.elapsed().as_secs_f64(),
    };
    let error = error.map(|e| e.with_origin(&ctx.filter_name, ctx.copy_index));
    if error.is_some() {
        // Raise the run-level flag BEFORE the channels drop: any filter
        // that later observes end-of-stream is guaranteed to see it.
        ctx.failed.store(true, Ordering::SeqCst);
    }
    // Dropping ctx here releases the senders → downstream EOS. A panicked
    // filter may hold broken invariants, so its destructor is contained too.
    drop(ctx);
    let _ = catch_unwind(AssertUnwindSafe(move || drop(filter)));
    (row, error)
}
