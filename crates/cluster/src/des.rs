//! The discrete-event simulator: DataCutter filter graphs in virtual time.
//!
//! The simulator executes a [`GraphSpec`] (the same description the threaded
//! engine runs) on a modeled [`ClusterSpec`]. Filters are represented by
//! [`SimFilter`] behaviours that, instead of touching real data, declare for
//! each buffer a **service cost** (seconds at reference speed) and the
//! buffers it emits. The engine models:
//!
//! * **CPU multiplexing** — copies placed on a node share its CPUs; a
//!   single-CPU PIII node running co-located HCC and HPC copies serializes
//!   them, a dual-CPU Xeon runs them concurrently (paper §5.2/§5.3);
//! * **node speed** — service time = cost / speed;
//! * **network transfers** — a buffer crossing nodes occupies the sender
//!   NIC, the receiver NIC and (for shared-medium paths) the inter-cluster
//!   trunk for `latency + bytes/bandwidth`; co-located filters exchange
//!   buffers instantaneously (pointer copy);
//! * **scheduling policies** — round-robin and tag-modulo route exactly as
//!   the threaded engine; **demand-driven** picks, at emission time, the
//!   consumer copy with the smallest backlog (DataCutter's
//!   consumption-rate-driven assignment);
//! * **pipelining** — producers and consumers overlap in virtual time, and
//!   per-copy busy/finish times expose bottleneck filters (paper Figure 9).
//!
//! The simulation is fully deterministic: no randomness, stable tie-breaks.

use crate::spec::ClusterSpec;
use datacutter::graph::GraphSpec;
use datacutter::metrics::{CopyReport, CopyRows};
use datacutter::schedule::{Route, SchedulePolicy};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

/// A simulated buffer: routing tag and wire size only (no payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBuf {
    /// Routing tag (drives tag-modulo streams).
    pub tag: u64,
    /// Wire size in bytes.
    pub bytes: u64,
}

/// The outcome of processing one buffer (or of the final flush): how long
/// the work takes at reference speed, and what is emitted.
#[derive(Debug, Clone, Default)]
pub struct SimAction {
    /// Service cost in seconds at speed 1.0.
    pub cost: f64,
    /// Buffers emitted, as `(output port, buffer)`.
    pub emits: Vec<(usize, SimBuf)>,
}

/// One unit of source work: sources are modeled as a pre-loaded sequence of
/// produce-then-emit steps (e.g. one disk read per slice piece for RFR).
#[derive(Debug, Clone, Default)]
pub struct SourceItem {
    /// Production cost in seconds at speed 1.0.
    pub cost: f64,
    /// Buffers emitted when the step completes.
    pub emits: Vec<(usize, SimBuf)>,
}

/// The simulated behaviour of one filter copy.
pub trait SimFilter {
    /// Work this copy performs before/without any input (sources only).
    fn source(&mut self) -> Vec<SourceItem> {
        Vec::new()
    }

    /// Handles one arriving buffer on input port `port`.
    fn on_buffer(&mut self, port: usize, buf: &SimBuf) -> SimAction;

    /// Final flush after every input stream has ended.
    fn on_finish(&mut self) -> SimAction {
        SimAction::default()
    }
}

/// Per-copy constructor, mirroring the threaded engine's factories.
pub type SimFilterFactory<'a> = Box<dyn FnMut(usize) -> Box<dyn SimFilter> + 'a>;

/// Simulator mechanism toggles — used by the ablation studies to attribute
/// figure outcomes to individual modeled effects. Defaults model the real
/// system; disabling a mechanism idealizes it away.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Filters block until their stream writes drain (single-threaded
    /// filters + synchronous sends). Disabling makes all sends free for
    /// the sender (perfect comm/compute overlap everywhere).
    pub synchronous_sends: bool,
    /// Stream buffers are bounded (producers park on full consumer
    /// queues). Disabling gives infinite buffering — no backpressure.
    pub bounded_queues: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            synchronous_sends: true,
            bounded_queues: true,
        }
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// End-to-end virtual execution time.
    pub makespan: f64,
    /// One row per filter copy, sorted by (filter, copy) — the same rows and
    /// accessors as a measured [`datacutter::RunReport::per_copy`], in
    /// virtual seconds: `busy_s` is time in service, `wall_s` the virtual
    /// time at which the copy completed (after its final flush). The
    /// simulator does not split a copy's waiting into send and receive, so
    /// both `blocked_*_s` stay `0.0`.
    pub per_copy: CopyRows,
    /// Total seconds each network resource (NIC or shared trunk) was
    /// occupied by transfers, keyed by resource id.
    pub net_occupancy: BTreeMap<String, f64>,
    /// Total bytes moved per network resource.
    pub net_bytes: BTreeMap<String, u64>,
}

/// Demand-driven routing decision.
enum DdChoice {
    /// Deliver to this consumer copy now.
    Send(usize),
    /// Every attractive consumer is full; park until this one frees a slot.
    WaitFor(usize),
}

#[derive(Debug)]
enum Work {
    Source(SourceItem),
    /// `(port, buffer, crossed_network)` — remote arrivals additionally
    /// charge the node's per-byte TCP receive CPU cost.
    Input(usize, SimBuf, bool),
    Finish,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival {
        target: usize,
        port: usize,
        buf: SimBuf,
        remote: bool,
    },
    ServiceDone {
        copy: usize,
    },
    /// A blocked sender's transfers completed; re-attempt dispatch.
    Wakeup {
        copy: usize,
    },
}

struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// One queued outbound send: the producer's output index and the buffer.
/// Routing is resolved at drain time so demand-driven decisions see the
/// current queue state.
#[derive(Debug, Clone, Copy)]
struct OutSend {
    out_idx: usize,
    buf: SimBuf,
}

struct Copy_ {
    filter_idx: usize,
    copy_idx: usize,
    node: usize,
    behavior: Box<dyn SimFilter>,
    work: VecDeque<Work>,
    busy: bool,
    queued_for_cpu: bool,
    open_ports: usize,
    /// Buffers emitted toward this copy but not yet delivered; they hold a
    /// queue slot (reserved at send time) and gate the finish barrier.
    in_flight: usize,
    /// Input-queue bound: the minimum capacity over this filter's input
    /// streams (DataCutter streams have fixed buffer pools). Occupancy is
    /// `work.len() + in_flight`; producers block when it reaches the cap —
    /// the backpressure that lets downstream congestion throttle upstream
    /// scheduling.
    queue_cap: usize,
    /// Emitted buffers not yet admitted downstream. A copy cannot start new
    /// work while its outbox is non-empty: filters are single-threaded and
    /// a full stream blocks the writer.
    outbox: VecDeque<OutSend>,
    /// Whether this copy is parked on some consumer's slot-waiter list.
    waiting_for_slot: bool,
    /// Until when this copy is blocked in a synchronous network send.
    blocked_until: f64,
    wakeup_scheduled: bool,
    finish_enqueued: bool,
    /// `on_finish` has run; completion happens once the outbox drains.
    finishing: bool,
    done: bool,
    pending_emits: Vec<(usize, SimBuf)>,
    was_finish: bool,
    /// Producers waiting for one of this copy's queue slots.
    slot_waiters: VecDeque<usize>,
    /// Exponentially weighted average of observed service times (real
    /// seconds on this copy's node) — the engine's running estimate of the
    /// copy's consumption rate, which is what DataCutter's demand-driven
    /// scheduler tracks.
    avg_service: f64,
    /// Round-robin sequence per output index.
    rr_seq: Vec<u64>,
    stats: CopyReport,
}

struct StreamRt {
    policy: SchedulePolicy,
    dest_port: usize,
    consumer_copies: Vec<usize>, // global copy ids
    remaining_producers: usize,
}

struct NodeRt {
    cpus: usize,
    busy: usize,
    speed: f64,
    net_cpu_s_per_byte: f64,
    smp_contention: f64,
    waiting: VecDeque<usize>,
}

struct Engine<'a> {
    copies: Vec<Copy_>,
    streams: Vec<StreamRt>,
    outputs_of: Vec<Vec<usize>>,
    nodes: Vec<NodeRt>,
    net_free: BTreeMap<String, f64>,
    net_occupancy: BTreeMap<String, f64>,
    net_bytes: BTreeMap<String, u64>,
    cluster: &'a ClusterSpec,
    options: SimOptions,
    /// Events produced while handling the current event; flushed to the
    /// heap by the main loop.
    pending: Vec<(f64, EventKind)>,
}

impl Engine<'_> {
    /// Queue occupancy of a consumer copy: queued work plus reserved
    /// in-flight slots.
    fn occupancy(&self, id: usize) -> usize {
        self.copies[id].work.len() + self.copies[id].in_flight
    }

    fn admissible(&self, id: usize) -> bool {
        !self.options.bounded_queues || self.occupancy(id) < self.copies[id].queue_cap
    }

    /// Read-only estimate of how long a transfer would take if started
    /// now, including the current queueing on its resources — used by the
    /// demand-driven scheduler so congested paths look expensive.
    fn transfer_eta(&self, now: f64, from: usize, to: usize, bytes: u64) -> f64 {
        let Some(net) = self.cluster.net_between(from, to) else {
            return 0.0;
        };
        let duration = net.transfer_time(bytes);
        let mut start = now;
        for r in [format!("nic_out:{from}"), format!("nic_in:{to}")] {
            start = start.max(*self.net_free.get(&r).unwrap_or(&0.0));
        }
        if let Some(trunk) = self.cluster.shared_trunk_id(from, to) {
            start = start.max(*self.net_free.get(&trunk).unwrap_or(&0.0));
        }
        (start - now) + duration
    }

    /// Time at which `bytes` sent at `now` from `from` arrive at `to`.
    fn transfer(&mut self, now: f64, from: usize, to: usize, bytes: u64) -> f64 {
        let Some(net) = self.cluster.net_between(from, to) else {
            return now; // co-located: pointer copy
        };
        let duration = net.transfer_time(bytes);
        let mut resources = vec![format!("nic_out:{from}"), format!("nic_in:{to}")];
        if let Some(trunk) = self.cluster.shared_trunk_id(from, to) {
            resources.push(trunk);
        }
        let mut start = now;
        for r in &resources {
            start = start.max(*self.net_free.get(r).unwrap_or(&0.0));
        }
        let end = start + duration;
        for r in resources {
            *self.net_occupancy.entry(r.clone()).or_insert(0.0) += duration;
            *self.net_bytes.entry(r.clone()).or_insert(0) += bytes;
            self.net_free.insert(r, end);
        }
        end
    }

    /// Demand-driven choice — DataCutter's scheduler assigns buffers
    /// "based on the buffer consumption rate of the transparent filter
    /// copies". Among consumers with a free queue slot, pick the one with
    /// the smallest estimated time-to-consume: backlog drained at the
    /// node's speed **plus the delivery time** (zero for a co-located
    /// consumer — pointer copy). Returns `None` when every consumer's
    /// queue is full (the producer then blocks — backpressure).
    fn dd_pick(&self, stream: &StreamRt, from_node: usize, buf: &SimBuf, now: f64) -> DdChoice {
        // A co-located consumer always wins: delivery is a pointer copy, so
        // shipping the buffer anywhere else can only add network cost, and
        // if the local copy's queue is full, that backpressure is exactly
        // the signal that this node's downstream path is saturated —
        // diverting the buffer onto the network would amplify the
        // congestion (and is why co-locating chatty filters pays off —
        // paper §5.2/§5.3).
        for &cid in &stream.consumer_copies {
            if self.copies[cid].node == from_node {
                return if self.admissible(cid) {
                    DdChoice::Send(cid)
                } else {
                    DdChoice::WaitFor(cid)
                };
            }
        }
        let mut best = stream.consumer_copies[0];
        let mut best_eta = f64::INFINITY;
        for &cid in &stream.consumer_copies {
            let c = &self.copies[cid];
            let backlog = c.work.len() + usize::from(c.busy) + c.in_flight;
            // Estimated seconds to drain the backlog at the copy's observed
            // service rate, plus the (congestion-aware) delivery time. A
            // copy that has never completed a service has no rate estimate
            // yet; a queued buffer must still weigh more than an idle copy,
            // so floor the per-item estimate at a tiny epsilon.
            let drain = backlog as f64 * c.avg_service.max(1e-9);
            let delivery = self.transfer_eta(now, from_node, c.node, buf.bytes);
            let eta = drain + delivery;
            if eta < best_eta {
                best_eta = eta;
                best = cid;
            }
        }
        // If the overall best consumer has no free queue slot, *wait for
        // it* instead of shipping the buffer to a strictly worse one —
        // diverting would both delay this buffer and congest the network
        // for everyone else.
        if self.admissible(best) {
            DdChoice::Send(best)
        } else {
            DdChoice::WaitFor(best)
        }
    }

    /// Schedules delivery of `buf` to `target`.
    fn deliver(&mut self, now: f64, from_copy: usize, target: usize, port: usize, buf: SimBuf) {
        self.copies[target].in_flight += 1;
        let from_node = self.copies[from_copy].node;
        let to_node = self.copies[target].node;
        let arrive = self.transfer(now, from_node, to_node, buf.bytes);
        if from_node != to_node && self.options.synchronous_sends {
            // Synchronous stream write: the single-threaded filter copy
            // blocks until its transfer drains.
            let b = self.copies[from_copy].blocked_until.max(arrive);
            self.copies[from_copy].blocked_until = b;
        }
        self.pending.push((
            arrive,
            EventKind::Arrival {
                target,
                port,
                buf,
                remote: from_node != to_node,
            },
        ));
    }

    /// Attempts to push queued sends downstream. Returns whether at least
    /// one send was admitted. Blocks (registers as a slot waiter) on the
    /// first send whose target queue is full. Completes the copy when
    /// the final flush has run and the outbox drains.
    fn drain_outbox(&mut self, id: usize, now: f64) -> bool {
        let mut progressed = false;
        while let Some(&OutSend { out_idx, buf }) = self.copies[id].outbox.front() {
            let fi = self.copies[id].filter_idx;
            let si = self.outputs_of[fi][out_idx];
            let policy = self.streams[si].policy;
            let ncons = self.streams[si].consumer_copies.len();
            let dest_port = self.streams[si].dest_port;
            let from_node = self.copies[id].node;
            let seq = self.copies[id].rr_seq[out_idx];
            let target = match policy.route(seq, buf.tag, ncons) {
                Route::One(i) => {
                    let t = self.streams[si].consumer_copies[i];
                    if !self.admissible(t) {
                        self.park(id, t);
                        return progressed;
                    }
                    t
                }
                Route::Shared => match self.dd_pick(&self.streams[si], from_node, &buf, now) {
                    DdChoice::Send(t) => t,
                    DdChoice::WaitFor(t) => {
                        self.park(id, t);
                        return progressed;
                    }
                },
            };
            // Admitted: commit the send.
            self.copies[id].rr_seq[out_idx] += 1;
            self.copies[id].outbox.pop_front();
            self.copies[id].stats.buffers_out += 1;
            self.copies[id].stats.bytes_out += buf.bytes;
            self.deliver(now, id, target, dest_port, buf);
            progressed = true;
        }
        if self.copies[id].finishing && !self.copies[id].done {
            self.complete(id, now);
        }
        progressed
    }

    /// Parks `id` on the slot-waiter list of `consumer`.
    fn park(&mut self, id: usize, consumer: usize) {
        self.copies[id].waiting_for_slot = true;
        self.copies[consumer].slot_waiters.push_back(id);
    }

    /// Wakes parked producers while `consumer` has free queue slots. A
    /// woken producer may route its buffer to a *different* consumer (the
    /// demand-driven pick re-evaluates), in which case this consumer's
    /// slot is still free and the next waiter must get its chance —
    /// stopping after the first woken producer loses wakeups and
    /// deadlocks the pipeline.
    fn wake_waiters(&mut self, consumer: usize, now: f64) {
        while self.admissible(consumer) {
            let Some(w) = self.copies[consumer].slot_waiters.pop_front() else {
                break;
            };
            if !self.copies[w].waiting_for_slot {
                continue; // stale entry (already woken elsewhere)
            }
            self.copies[w].waiting_for_slot = false;
            self.drain_outbox(w, now);
            if self.copies[w].outbox.is_empty() {
                self.dispatch(w, now);
            }
        }
    }

    /// Marks `id` complete and propagates end-of-stream.
    fn complete(&mut self, id: usize, now: f64) {
        self.copies[id].done = true;
        self.copies[id].stats.wall_s = now;
        let fi = self.copies[id].filter_idx;
        for &si in &self.outputs_of[fi].clone() {
            self.streams[si].remaining_producers -= 1;
            if self.streams[si].remaining_producers == 0 {
                for &cons in &self.streams[si].consumer_copies.clone() {
                    self.copies[cons].open_ports -= 1;
                    self.dispatch(cons, now);
                }
            }
        }
    }

    /// Whether `id` can begin service now; if so, starts it and schedules
    /// its completion. Otherwise schedules a wakeup if the copy is merely
    /// blocked in a send.
    fn dispatch(&mut self, id: usize, now: f64) -> bool {
        if self.try_start(id, now) {
            return true;
        }
        let c = &mut self.copies[id];
        if !c.busy && !c.done && c.outbox.is_empty() && now < c.blocked_until && !c.wakeup_scheduled
        {
            c.wakeup_scheduled = true;
            let at = c.blocked_until;
            self.pending.push((at, EventKind::Wakeup { copy: id }));
        }
        false
    }

    fn try_start(&mut self, id: usize, now: f64) -> bool {
        let c = &mut self.copies[id];
        if c.busy || c.done || c.finishing {
            return false;
        }
        if !c.outbox.is_empty() || c.waiting_for_slot {
            return false; // still pushing previous output downstream
        }
        if now < c.blocked_until {
            return false; // blocked in a synchronous send
        }
        if c.work.is_empty() {
            if c.open_ports == 0 && c.in_flight == 0 && !c.finish_enqueued {
                c.finish_enqueued = true;
                c.work.push_back(Work::Finish);
            } else {
                return false;
            }
        }
        let node = &mut self.nodes[c.node];
        if node.busy >= node.cpus {
            if !c.queued_for_cpu {
                c.queued_for_cpu = true;
                node.waiting.push_back(id);
            }
            return false;
        }
        node.busy += 1;
        c.busy = true;
        c.queued_for_cpu = false;
        let work = c.work.pop_front().expect("checked non-empty");
        let mut input_popped = false;
        let (cost, extra, emits, was_finish) = match work {
            Work::Source(item) => (item.cost, 0.0, item.emits, false),
            Work::Input(port, buf, remote) => {
                input_popped = true;
                c.stats.buffers_in += 1;
                c.stats.bytes_in += buf.bytes;
                // TCP receive processing for buffers that crossed the
                // network (absolute seconds: node-specific constant).
                let recv_cpu = if remote {
                    buf.bytes as f64 * node.net_cpu_s_per_byte
                } else {
                    0.0
                };
                let a = c.behavior.on_buffer(port, &buf);
                (a.cost, recv_cpu, a.emits, false)
            }
            Work::Finish => {
                let a = c.behavior.on_finish();
                (a.cost, 0.0, a.emits, true)
            }
        };
        c.pending_emits = emits;
        c.was_finish = was_finish;
        // SMP memory contention: other busy CPUs on this node slow the
        // memory-bound kernel down (node.busy already counts this job).
        let contention = 1.0 + node.smp_contention * (node.busy - 1) as f64;
        let service = cost / node.speed * contention + extra;
        c.stats.busy_s += service;
        c.avg_service = if c.stats.buffers_in <= 1 && c.avg_service == 0.0 {
            service
        } else {
            0.8 * c.avg_service + 0.2 * service
        };
        self.pending
            .push((now + service, EventKind::ServiceDone { copy: id }));
        if input_popped {
            // A queue slot freed: wake a parked producer.
            self.wake_waiters(id, now);
        }
        true
    }
}

/// Runs the simulation of `spec` on `cluster` with the given behaviours.
///
/// Every filter must carry a placement (one node id per copy); validation
/// failures and missing placements panic — experiment drivers construct
/// these graphs programmatically, so these are programming errors, not
/// runtime conditions.
///
/// ```
/// use cluster::des::{simulate, SimAction, SimBuf, SimFilter, SimFilterFactory, SourceItem};
/// use cluster::presets;
/// use datacutter::{GraphSpec, SchedulePolicy};
/// use std::collections::HashMap;
///
/// struct Producer;
/// impl SimFilter for Producer {
///     fn source(&mut self) -> Vec<SourceItem> {
///         (0..10)
///             .map(|tag| SourceItem {
///                 cost: 0.1,
///                 emits: vec![(0, SimBuf { tag, bytes: 1024 })],
///             })
///             .collect()
///     }
///     fn on_buffer(&mut self, _: usize, _: &SimBuf) -> SimAction { unreachable!() }
/// }
/// struct Consumer;
/// impl SimFilter for Consumer {
///     fn on_buffer(&mut self, _: usize, _: &SimBuf) -> SimAction {
///         SimAction { cost: 0.05, emits: vec![] }
///     }
/// }
///
/// let spec = GraphSpec::new()
///     .filter_placed("producer", vec![0])
///     .filter_placed("consumer", vec![1])
///     .stream("s", "producer", "consumer", SchedulePolicy::RoundRobin);
/// let cluster = presets::uniform(2);
/// let mut f: HashMap<String, SimFilterFactory> = HashMap::new();
/// f.insert("producer".into(), Box::new(|_| Box::new(Producer)));
/// f.insert("consumer".into(), Box::new(|_| Box::new(Consumer)));
/// let report = simulate(&spec, &cluster, &mut f);
/// assert_eq!(report.per_copy.buffers_into("consumer"), 10);
/// assert!(report.makespan >= 1.0); // ten 0.1 s productions
/// ```
pub fn simulate(
    spec: &GraphSpec,
    cluster: &ClusterSpec,
    factories: &mut HashMap<String, SimFilterFactory<'_>>,
) -> SimReport {
    simulate_with(spec, cluster, factories, &SimOptions::default())
}

/// [`simulate`] with explicit mechanism toggles (ablation studies).
pub fn simulate_with(
    spec: &GraphSpec,
    cluster: &ClusterSpec,
    factories: &mut HashMap<String, SimFilterFactory<'_>>,
    options: &SimOptions,
) -> SimReport {
    spec.validate().expect("invalid graph");

    let filter_index: HashMap<&str, usize> = spec
        .filters
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let outputs_of: Vec<Vec<usize>> = spec
        .filters
        .iter()
        .map(|f| spec.outputs_of(&f.name))
        .collect();

    // Per-filter input-queue cap: minimum capacity over its input streams.
    let queue_cap_of: Vec<usize> = spec
        .filters
        .iter()
        .map(|f| {
            spec.inputs_of(&f.name)
                .iter()
                .map(|&si| spec.streams[si].capacity)
                .min()
                .unwrap_or(usize::MAX)
        })
        .collect();

    let mut copies: Vec<Copy_> = Vec::new();
    let mut copy_ids: HashMap<(usize, usize), usize> = HashMap::new();
    for (fi, fdecl) in spec.filters.iter().enumerate() {
        assert!(
            fdecl.placement.len() == fdecl.copies,
            "filter {:?} needs explicit placement for simulation",
            fdecl.name
        );
        let factory = factories
            .get_mut(&fdecl.name)
            .unwrap_or_else(|| panic!("no sim factory for filter {:?}", fdecl.name));
        for ci in 0..fdecl.copies {
            let node = fdecl.placement[ci];
            assert!(node < cluster.len(), "placement node {node} out of range");
            let id = copies.len();
            copy_ids.insert((fi, ci), id);
            copies.push(Copy_ {
                filter_idx: fi,
                copy_idx: ci,
                node,
                behavior: factory(ci),
                work: VecDeque::new(),
                busy: false,
                queued_for_cpu: false,
                open_ports: spec.inputs_of(&fdecl.name).len(),
                in_flight: 0,
                queue_cap: queue_cap_of[fi],
                outbox: VecDeque::new(),
                waiting_for_slot: false,
                blocked_until: 0.0,
                wakeup_scheduled: false,
                finish_enqueued: false,
                finishing: false,
                done: false,
                pending_emits: Vec::new(),
                was_finish: false,
                slot_waiters: VecDeque::new(),
                avg_service: 0.0,
                rr_seq: vec![0; outputs_of[fi].len()],
                stats: CopyReport {
                    filter: fdecl.name.clone(),
                    copy: ci,
                    buffers_in: 0,
                    buffers_out: 0,
                    bytes_in: 0,
                    bytes_out: 0,
                    busy_s: 0.0,
                    blocked_send_s: 0.0,
                    blocked_recv_s: 0.0,
                    wall_s: 0.0,
                },
            });
        }
    }

    let streams: Vec<StreamRt> = spec
        .streams
        .iter()
        .enumerate()
        .map(|(si, s)| {
            let to_fi = filter_index[s.to.as_str()];
            let from_fi = filter_index[s.from.as_str()];
            StreamRt {
                policy: s.policy,
                dest_port: spec.input_port_of(si),
                consumer_copies: (0..spec.filters[to_fi].copies)
                    .map(|c| copy_ids[&(to_fi, c)])
                    .collect(),
                remaining_producers: spec.filters[from_fi].copies,
            }
        })
        .collect();

    let nodes: Vec<NodeRt> = cluster
        .nodes
        .iter()
        .map(|n| NodeRt {
            cpus: n.cpus,
            busy: 0,
            speed: n.speed,
            net_cpu_s_per_byte: n.net_cpu_s_per_byte,
            smp_contention: n.smp_contention,
            waiting: VecDeque::new(),
        })
        .collect();

    let mut eng = Engine {
        copies,
        streams,
        outputs_of,
        nodes,
        net_free: BTreeMap::new(),
        net_occupancy: BTreeMap::new(),
        net_bytes: BTreeMap::new(),
        cluster,
        options: options.clone(),
        pending: Vec::new(),
    };

    // Pre-load source work.
    for id in 0..eng.copies.len() {
        let items = eng.copies[id].behavior.source();
        for it in items {
            eng.copies[id].work.push_back(Work::Source(it));
        }
    }

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let flush = |heap: &mut BinaryHeap<Reverse<Event>>,
                 seq: &mut u64,
                 pending: &mut Vec<(f64, EventKind)>| {
        for (time, kind) in pending.drain(..) {
            *seq += 1;
            heap.push(Reverse(Event {
                time,
                seq: *seq,
                kind,
            }));
        }
    };

    // Kick off every copy that has initial work (sources) or no inputs.
    for id in 0..eng.copies.len() {
        eng.dispatch(id, 0.0);
    }
    flush(&mut heap, &mut seq, &mut eng.pending);

    let mut makespan = 0.0f64;
    while let Some(Reverse(ev)) = heap.pop() {
        let now = ev.time;
        makespan = makespan.max(now);
        match ev.kind {
            EventKind::Arrival {
                target,
                port,
                buf,
                remote,
            } => {
                eng.copies[target].in_flight -= 1;
                eng.copies[target]
                    .work
                    .push_back(Work::Input(port, buf, remote));
                eng.dispatch(target, now);
            }
            EventKind::Wakeup { copy } => {
                eng.copies[copy].wakeup_scheduled = false;
                eng.dispatch(copy, now);
            }
            EventKind::ServiceDone { copy } => {
                // 1. Move the action's emissions into the outbox.
                let emits = std::mem::take(&mut eng.copies[copy].pending_emits);
                let was_finish = eng.copies[copy].was_finish;
                for (out_idx, buf) in emits {
                    eng.copies[copy].outbox.push_back(OutSend { out_idx, buf });
                }
                if was_finish {
                    eng.copies[copy].finishing = true;
                }
                // 2. Release the CPU.
                eng.copies[copy].busy = false;
                eng.nodes[eng.copies[copy].node].busy -= 1;
                // 3. Push output downstream (may park, may complete).
                eng.drain_outbox(copy, now);
                // 4. Hand the freed CPU to waiting copies on this node.
                let node_id = eng.copies[copy].node;
                while let Some(w) = eng.nodes[node_id].waiting.pop_front() {
                    eng.copies[w].queued_for_cpu = false;
                    if eng.copies[w].busy || eng.copies[w].done {
                        continue;
                    }
                    if eng.dispatch(w, now) {
                        break;
                    }
                }
                // 5. Continue this copy's own queue.
                eng.dispatch(copy, now);
            }
        }
        flush(&mut heap, &mut seq, &mut eng.pending);
    }

    // Every copy must have completed; anything else is an engine bug or an
    // ill-formed behaviour (e.g. a stitch filter waiting for pieces that
    // never arrive).
    for c in &eng.copies {
        assert!(
            c.done,
            "simulation stalled: copy {}[{}] never completed ({} queued work items, \
             outbox {}, in-flight {}, waiting_for_slot {})",
            c.stats.filter,
            c.copy_idx,
            c.work.len(),
            c.outbox.len(),
            c.in_flight,
            c.waiting_for_slot,
        );
    }

    let net_occupancy = eng.net_occupancy.clone();
    let net_bytes = eng.net_bytes.clone();
    let mut per_copy: Vec<CopyReport> = eng.copies.into_iter().map(|c| c.stats).collect();
    per_copy.sort_by(|a, b| (&a.filter, a.copy).cmp(&(&b.filter, b.copy)));
    SimReport {
        makespan,
        per_copy: CopyRows(per_copy),
        net_occupancy,
        net_bytes,
    }
}
