//! Run-level observability: per-stream meters, run phases, and the
//! serializable [`RunReport`].
//!
//! Paper Figure 9 plots, per filter, processing time against time spent
//! waiting on streams. The engine measures that split directly — per copy,
//! [`CopyReport::blocked_send_s`] (emit blocked on a full downstream queue)
//! and [`CopyReport::blocked_recv_s`] (waiting for input) — and per stream,
//! delivered buffer/byte counts plus the highest queue depth any send produced.
//! [`RunReport`] aggregates the lot with the graph shape and schedule
//! policies into one JSON-serializable document (`h4d … --report out.json`),
//! the filter-level instrumentation frameworks like Region Templates rely on
//! to diagnose pipeline placement. It is the one value every driver returns;
//! the `cluster` simulator predicts the same [`CopyRows`].

use crate::schedule::SchedulePolicy;
use json::{FromJson, ToJson, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared per-stream meter, updated lock-free by every producer copy.
///
/// `emit` records one delivery per queue write together with the depth
/// that write produced (read under the queue's lock by
/// [`crate::chan::Sender::send`]) — an exact high-water signal that exposes
/// which stream the backpressure lives on without per-buffer timestamps.
#[derive(Debug, Default)]
pub struct StreamMeter {
    buffers: AtomicU64,
    bytes: AtomicU64,
    depth_high_water: AtomicUsize,
}

impl StreamMeter {
    /// Records one delivered buffer of `bytes` bytes; `depth` is the depth
    /// the send produced, as returned by the queue's `send` / `try_send`.
    pub fn record(&self, bytes: u64, depth: usize) {
        self.buffers.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.depth_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Buffers delivered over the stream (per queue write).
    pub fn buffers(&self) -> u64 {
        self.buffers.load(Ordering::Relaxed)
    }

    /// Bytes delivered over the stream (per queue write).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Highest queue depth any send on the stream produced.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water.load(Ordering::Relaxed)
    }
}

/// One filter's shape in the report: its name and copy count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterShape {
    /// Filter name.
    pub name: String,
    /// Number of transparent copies.
    pub copies: usize,
}

/// Per-stream aggregate in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Stream name.
    pub name: String,
    /// Producer filter.
    pub from: String,
    /// Consumer filter.
    pub to: String,
    /// Scheduling policy across the consumer's copies.
    pub policy: SchedulePolicy,
    /// Queue bound, in buffers, per queue.
    pub capacity: usize,
    /// Number of queues realizing the stream (consumer copies for
    /// private-queue policies, one for the shared demand-driven queue).
    pub queues: usize,
    /// Buffers delivered, counted per queue write.
    pub buffers: u64,
    /// Bytes delivered, counted per queue write.
    pub bytes: u64,
    /// Highest queue depth any send produced.
    pub depth_high_water: usize,
}

/// One filter copy's row: buffers and bytes in and out, and the busy /
/// blocked-send / blocked-recv split of its lifetime in seconds, the unit
/// Figure 9 plots. The threaded engine measures each duration disjointly on
/// the copy's own thread, so `busy + blocked_send + blocked_recv <= wall` is
/// exact where measured and holds within [`RunReport::check`]'s `1e-6` once
/// flattened to `f64`. The simulator fills the same row in virtual seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyReport {
    /// Filter name.
    pub filter: String,
    /// Copy index.
    pub copy: usize,
    /// Buffers consumed.
    pub buffers_in: u64,
    /// Buffers emitted.
    pub buffers_out: u64,
    /// Bytes consumed.
    pub bytes_in: u64,
    /// Bytes emitted.
    pub bytes_out: u64,
    /// Seconds computing inside `start`/`process`/`finish`, net of the
    /// blocked-send time accumulated by `emit` calls within them.
    pub busy_s: f64,
    /// Seconds blocked in `emit` on full downstream queues. The simulator
    /// does not split its waiting and leaves this `0.0`.
    pub blocked_send_s: f64,
    /// Seconds waiting for input on the copy's streams. The simulator does
    /// not split its waiting and leaves this `0.0`.
    pub blocked_recv_s: f64,
    /// Thread lifetime in seconds; in the simulator, the virtual time at
    /// which the copy completed (after its final flush).
    pub wall_s: f64,
}

impl CopyReport {
    /// Seconds the copy spent waiting on streams, either direction — the
    /// "waiting" half of paper Figure 9's busy-vs-wait split.
    pub fn blocked_s(&self) -> f64 {
        self.blocked_send_s + self.blocked_recv_s
    }
}

/// The per-copy rows of one run, sorted by (filter, copy), with the
/// per-filter aggregates every consumer reads them through — the same for a
/// measured [`RunReport`], the rows a [`crate::RunFailure`] collected and
/// the simulator's prediction. Serializes as the bare array of rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CopyRows(pub Vec<CopyReport>);

impl std::ops::Deref for CopyRows {
    type Target = [CopyReport];

    fn deref(&self) -> &[CopyReport] {
        &self.0
    }
}

impl CopyRows {
    fn of<'a>(&'a self, filter: &'a str) -> impl Iterator<Item = &'a CopyReport> {
        self.iter().filter(move |c| c.filter == filter)
    }

    /// All copies of `filter`.
    pub fn copies_of(&self, filter: &str) -> Vec<&CopyReport> {
        self.iter().filter(|c| c.filter == filter).collect()
    }

    /// Total busy seconds across the copies of `filter`.
    pub fn busy_of(&self, filter: &str) -> f64 {
        self.of(filter).map(|c| c.busy_s).sum()
    }

    /// Maximum per-copy busy seconds of `filter` — the paper's "processing
    /// time of each filter" under perfect balance.
    pub fn max_busy_of(&self, filter: &str) -> f64 {
        self.of(filter).map(|c| c.busy_s).fold(0.0, f64::max)
    }

    /// Total buffers consumed by the copies of `filter`.
    pub fn buffers_into(&self, filter: &str) -> u64 {
        self.of(filter).map(|c| c.buffers_in).sum()
    }

    /// Total buffers emitted by the copies of `filter`.
    pub fn buffers_out_of(&self, filter: &str) -> u64 {
        self.of(filter).map(|c| c.buffers_out).sum()
    }

    /// Total bytes emitted by the copies of `filter` — the communication
    /// volume leaving that stage.
    pub fn bytes_out_of(&self, filter: &str) -> u64 {
        self.of(filter).map(|c| c.bytes_out).sum()
    }

    /// Buffer counts received per copy of `filter`, by copy index — used to
    /// verify round-robin fairness and observe demand-driven skew.
    pub fn per_copy_buffers_in(&self, filter: &str) -> BTreeMap<usize, u64> {
        self.of(filter).map(|c| (c.copy, c.buffers_in)).collect()
    }

    /// Total seconds the copies of `filter` spent blocked in `emit`.
    pub fn blocked_send_of(&self, filter: &str) -> f64 {
        self.of(filter).map(|c| c.blocked_send_s).sum()
    }

    /// Total seconds the copies of `filter` spent waiting for input.
    pub fn blocked_recv_of(&self, filter: &str) -> f64 {
        self.of(filter).map(|c| c.blocked_recv_s).sum()
    }
}

/// The engine's three run phases in seconds.
///
/// *Spin-up* covers validation, channel creation and factory/thread
/// creation; *steady* runs from the last spawn to the first copy
/// completion; *drain* from the first completion until every worker thread
/// is joined. The three phases partition the run, so their sum never
/// exceeds the run's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseReport {
    /// Spin-up seconds (validation, channels, factories, spawns).
    pub spinup_s: f64,
    /// Steady-state seconds (last spawn to first completion).
    pub steady_s: f64,
    /// Drain seconds (first completion to last join).
    pub drain_s: f64,
}

/// Reader-side I/O plane counters (slice cache + disk reads) as serialized
/// into the run report. Populated by the pipeline layer from the shared
/// `mri::IoStats`; absent when the run did not go through the I/O plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoReport {
    /// Disk reads issued (cached loads + naive subrect reads).
    pub disk_reads: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Slice requests served from the cache.
    pub cache_hits: u64,
    /// Slice requests that went to disk.
    pub cache_misses: u64,
    /// Loads the cache's byte budget refused to retain.
    pub budget_rejects: u64,
    /// Peak bytes retained by the slice cache.
    pub retained_high_water: u64,
}

/// Result-store counters as serialized into the run report: how much of
/// the run was served from the content-addressed store versus recomputed.
/// Populated by the pipeline layer from its shared store stats; absent
/// when the run had no store attached. Every chunk-packet lookup counts
/// exactly one of `hits`/`misses`, so `hits + misses` equals the number
/// of texture lookups the run performed (one per chunk for the combined
/// filter) and CI can assert "warm run: hits == chunk count" directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that recomputed (absent, unreadable or corrupt blob).
    pub misses: u64,
    /// Blobs staged for publication by this run.
    pub published: u64,
    /// Payload bytes served from the store.
    pub bytes_served: u64,
    /// Payload bytes staged for publication.
    pub bytes_published: u64,
    /// Blobs rejected (and evicted) for failing validation; each also
    /// counted as a miss, never served.
    pub corrupt_rejected: u64,
}

/// Per-peer transport counters of one node process in a distributed run:
/// the frames and bytes each direction carried, the credit grants sent, and
/// how often credit windows stalled a route with data ready. The writer puts
/// each frame on the socket whole, so after a clean run `bytes_sent` equals
/// the peer's `bytes_recv`, plus a header per data frame it received, plus
/// the `Credit` and `Eos` frames this side wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionReport {
    /// Peer node id of this connection.
    pub peer: usize,
    /// Whether payload checksums were negotiated on this connection.
    pub checksum: bool,
    /// Data frames sent toward the peer.
    pub frames_sent: u64,
    /// Wire bytes written after the handshake (headers, payloads and
    /// control frames).
    pub bytes_sent: u64,
    /// Data frames received from the peer.
    pub frames_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// `Credit` frames sent to the peer.
    pub credits_sent: u64,
    /// Times the writer went to sleep with data ready on a route whose
    /// credit window was empty — the flow-control analogue of
    /// `blocked_send`.
    pub credit_stalls: u64,
}

/// The serializable run report: graph shape, schedule policies, run phases,
/// per-stream delivery aggregates, and the per-copy busy / blocked-send /
/// blocked-recv breakdown of paper Figure 9. Every driver returns one:
/// [`crate::run_graph`] fills everything up to `per_copy`,
/// [`crate::run_node`] adds `transport`, and the pipeline layer's drivers
/// add `io` and `store`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report format version.
    pub schema_version: u32,
    /// End-to-end wall seconds of the run.
    pub wall_s: f64,
    /// Spin-up / steady / drain split.
    pub phases: PhaseReport,
    /// Declared filters and their copy counts; the report of one node of a
    /// distributed run lists only the copies placed on that node, so
    /// [`RunReport::check`]'s rows-versus-declared invariant holds per
    /// process.
    pub filters: Vec<FilterShape>,
    /// Per-stream aggregates (policy, capacity, deliveries, high water).
    pub streams: Vec<StreamStats>,
    /// Per-copy breakdown, sorted by (filter, copy).
    pub per_copy: CopyRows,
    /// Reader-side I/O plane counters, when the run recorded them.
    /// Additive and optional, so schema version 1 documents stay valid.
    pub io: Option<IoReport>,
    /// Per-peer transport counters, present only for distributed runs.
    pub transport: Option<Vec<ConnectionReport>>,
    /// Result-store counters, present only when a store was attached.
    pub store: Option<StoreReport>,
}

impl ToJson for FilterShape {
    fn to_json(&self) -> Value {
        Value::object([
            ("name", self.name.to_json()),
            ("copies", self.copies.to_json()),
        ])
    }
}

impl FromJson for FilterShape {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            name: o.field("name")?,
            copies: o.field("copies")?,
        })
    }
}

impl ToJson for StreamStats {
    fn to_json(&self) -> Value {
        Value::object([
            ("name", self.name.to_json()),
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("policy", self.policy.to_json()),
            ("capacity", self.capacity.to_json()),
            ("queues", self.queues.to_json()),
            ("buffers", self.buffers.to_json()),
            ("bytes", self.bytes.to_json()),
            ("depth_high_water", self.depth_high_water.to_json()),
        ])
    }
}

impl FromJson for StreamStats {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            name: o.field("name")?,
            from: o.field("from")?,
            to: o.field("to")?,
            policy: o.field("policy")?,
            capacity: o.field("capacity")?,
            queues: o.field("queues")?,
            buffers: o.field("buffers")?,
            bytes: o.field("bytes")?,
            depth_high_water: o.field("depth_high_water")?,
        })
    }
}

impl ToJson for CopyReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("filter", self.filter.to_json()),
            ("copy", self.copy.to_json()),
            ("buffers_in", self.buffers_in.to_json()),
            ("buffers_out", self.buffers_out.to_json()),
            ("bytes_in", self.bytes_in.to_json()),
            ("bytes_out", self.bytes_out.to_json()),
            ("busy_s", self.busy_s.to_json()),
            ("blocked_send_s", self.blocked_send_s.to_json()),
            ("blocked_recv_s", self.blocked_recv_s.to_json()),
            ("wall_s", self.wall_s.to_json()),
        ])
    }
}

impl FromJson for CopyReport {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            filter: o.field("filter")?,
            copy: o.field("copy")?,
            buffers_in: o.field("buffers_in")?,
            buffers_out: o.field("buffers_out")?,
            bytes_in: o.field("bytes_in")?,
            bytes_out: o.field("bytes_out")?,
            busy_s: o.field("busy_s")?,
            blocked_send_s: o.field("blocked_send_s")?,
            blocked_recv_s: o.field("blocked_recv_s")?,
            wall_s: o.field("wall_s")?,
        })
    }
}

impl ToJson for CopyRows {
    fn to_json(&self) -> Value {
        self.0.to_json()
    }
}

impl FromJson for CopyRows {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        Vec::from_json(v).map(Self)
    }
}

impl ToJson for PhaseReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("spinup_s", self.spinup_s.to_json()),
            ("steady_s", self.steady_s.to_json()),
            ("drain_s", self.drain_s.to_json()),
        ])
    }
}

impl FromJson for PhaseReport {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            spinup_s: o.field("spinup_s")?,
            steady_s: o.field("steady_s")?,
            drain_s: o.field("drain_s")?,
        })
    }
}

impl ToJson for IoReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("disk_reads", self.disk_reads.to_json()),
            ("bytes_read", self.bytes_read.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("budget_rejects", self.budget_rejects.to_json()),
            ("retained_high_water", self.retained_high_water.to_json()),
        ])
    }
}

impl FromJson for IoReport {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            disk_reads: o.field("disk_reads")?,
            bytes_read: o.field("bytes_read")?,
            cache_hits: o.field("cache_hits")?,
            cache_misses: o.field("cache_misses")?,
            budget_rejects: o.field("budget_rejects")?,
            retained_high_water: o.field("retained_high_water")?,
        })
    }
}

impl ToJson for StoreReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("published", self.published.to_json()),
            ("bytes_served", self.bytes_served.to_json()),
            ("bytes_published", self.bytes_published.to_json()),
            ("corrupt_rejected", self.corrupt_rejected.to_json()),
        ])
    }
}

impl FromJson for StoreReport {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            hits: o.field("hits")?,
            misses: o.field("misses")?,
            published: o.field("published")?,
            bytes_served: o.field("bytes_served")?,
            bytes_published: o.field("bytes_published")?,
            corrupt_rejected: o.field("corrupt_rejected")?,
        })
    }
}

impl ToJson for ConnectionReport {
    fn to_json(&self) -> Value {
        Value::object([
            ("peer", self.peer.to_json()),
            ("checksum", self.checksum.to_json()),
            ("frames_sent", self.frames_sent.to_json()),
            ("bytes_sent", self.bytes_sent.to_json()),
            ("frames_recv", self.frames_recv.to_json()),
            ("bytes_recv", self.bytes_recv.to_json()),
            ("credits_sent", self.credits_sent.to_json()),
            ("credit_stalls", self.credit_stalls.to_json()),
        ])
    }
}

impl FromJson for ConnectionReport {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            peer: o.field("peer")?,
            checksum: o.field("checksum")?,
            frames_sent: o.field("frames_sent")?,
            bytes_sent: o.field("bytes_sent")?,
            frames_recv: o.field("frames_recv")?,
            bytes_recv: o.field("bytes_recv")?,
            credits_sent: o.field("credits_sent")?,
            credit_stalls: o.field("credit_stalls")?,
        })
    }
}

/// `io`, `transport` and `store` are left out when `None` and read back
/// as `None` when missing.
impl ToJson for RunReport {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("schema_version", self.schema_version.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("phases", self.phases.to_json()),
            ("filters", self.filters.to_json()),
            ("streams", self.streams.to_json()),
            ("per_copy", self.per_copy.to_json()),
        ];
        if let Some(io) = &self.io {
            fields.push(("io", io.to_json()));
        }
        if let Some(transport) = &self.transport {
            fields.push(("transport", transport.to_json()));
        }
        if let Some(store) = &self.store {
            fields.push(("store", store.to_json()));
        }
        Value::object(fields)
    }
}

impl FromJson for RunReport {
    fn from_json(v: &Value) -> Result<Self, json::Error> {
        let o = v.as_object()?;
        Ok(Self {
            schema_version: o.field("schema_version")?,
            wall_s: o.field("wall_s")?,
            phases: o.field("phases")?,
            filters: o.field("filters")?,
            streams: o.field("streams")?,
            per_copy: o.field("per_copy")?,
            io: o.field_or_default("io")?,
            transport: o.field_or_default("transport")?,
            store: o.field_or_default("store")?,
        })
    }
}

/// Current [`RunReport::schema_version`].
pub const RUN_REPORT_SCHEMA_VERSION: u32 = 1;

impl RunReport {
    /// Validates the report's internal invariants; returns the first
    /// violation found. Used by tests and the CI schema check.
    ///
    /// * every declared copy has exactly one per-copy row;
    /// * per copy, `busy + blocked_send + blocked_recv <= wall` and the
    ///   copy's wall fits inside the run's wall;
    /// * per stream, the depth high-water mark never exceeds capacity;
    /// * the three phases partition the run (their sum fits in the wall).
    pub fn check(&self) -> Result<(), String> {
        // Durations are measured disjointly on each thread; the slack
        // absorbs only f64 rounding, not measurement error.
        const EPS: f64 = 1e-6;
        let declared: usize = self.filters.iter().map(|f| f.copies).sum();
        if self.per_copy.len() != declared {
            return Err(format!(
                "{} per-copy rows for {declared} declared copies",
                self.per_copy.len()
            ));
        }
        for c in self.per_copy.iter() {
            let accounted = c.busy_s + c.blocked_s();
            if accounted > c.wall_s + EPS {
                return Err(format!(
                    "{}#{}: busy+blocked {accounted:.6}s exceeds wall {:.6}s",
                    c.filter, c.copy, c.wall_s
                ));
            }
            if c.wall_s > self.wall_s + EPS {
                return Err(format!(
                    "{}#{}: copy wall {:.6}s exceeds run wall {:.6}s",
                    c.filter, c.copy, c.wall_s, self.wall_s
                ));
            }
        }
        for s in &self.streams {
            if s.depth_high_water > s.capacity {
                return Err(format!(
                    "stream {:?}: high water {} exceeds capacity {}",
                    s.name, s.depth_high_water, s.capacity
                ));
            }
        }
        let phase_sum = self.phases.spinup_s + self.phases.steady_s + self.phases.drain_s;
        if phase_sum > self.wall_s + EPS {
            return Err(format!(
                "phase sum {phase_sum:.6}s exceeds wall {:.6}s",
                self.wall_s
            ));
        }
        Ok(())
    }

    /// Pretty-printed JSON form of the report.
    pub fn to_json_pretty(&self) -> String {
        json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_keeps_high_water() {
        let m = StreamMeter::default();
        m.record(10, 1);
        m.record(30, 4);
        m.record(5, 2);
        assert_eq!(m.buffers(), 3);
        assert_eq!(m.bytes(), 45);
        assert_eq!(m.depth_high_water(), 4);
    }

    fn rows() -> CopyRows {
        let copy = |filter: &str, copy: usize, bin: u64, bout: u64| CopyReport {
            filter: filter.into(),
            copy,
            buffers_in: bin,
            buffers_out: bout,
            bytes_in: bin * 10,
            bytes_out: bout * 10,
            busy_s: (bin + bout) as f64 * 1e-3,
            blocked_send_s: bout as f64 * 1e-3,
            blocked_recv_s: bin as f64 * 1e-3,
            wall_s: 0.1,
        };
        CopyRows(vec![
            copy("a", 0, 0, 10),
            copy("b", 0, 6, 3),
            copy("b", 1, 4, 2),
        ])
    }

    #[test]
    fn aggregation() {
        let s = rows();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert_eq!(s.buffers_into("b"), 10);
        assert_eq!(s.buffers_out_of("b"), 5);
        assert_eq!(s.bytes_out_of("a"), 100);
        assert!(close(s.busy_of("b"), 0.015));
        assert!(close(s.max_busy_of("b"), 0.009));
        assert_eq!(s.max_busy_of("ghost"), 0.0);
        assert!(close(s.blocked_send_of("b"), 0.005));
        assert!(close(s.blocked_recv_of("b"), 0.010));
        assert!(close(s[1].blocked_s(), 0.009));
    }

    #[test]
    fn per_copy_breakdown() {
        let s = rows();
        let m = s.per_copy_buffers_in("b");
        assert_eq!(m[&0], 6);
        assert_eq!(m[&1], 4);
    }

    fn report() -> RunReport {
        RunReport {
            schema_version: RUN_REPORT_SCHEMA_VERSION,
            wall_s: 1.0,
            phases: PhaseReport {
                spinup_s: 0.1,
                steady_s: 0.5,
                drain_s: 0.2,
            },
            filters: vec![FilterShape {
                name: "a".into(),
                copies: 1,
            }],
            streams: vec![StreamStats {
                name: "s".into(),
                from: "a".into(),
                to: "b".into(),
                policy: SchedulePolicy::RoundRobin,
                capacity: 4,
                queues: 1,
                buffers: 7,
                bytes: 70,
                depth_high_water: 3,
            }],
            per_copy: CopyRows(vec![CopyReport {
                filter: "a".into(),
                copy: 0,
                buffers_in: 0,
                buffers_out: 7,
                bytes_in: 0,
                bytes_out: 70,
                busy_s: 0.4,
                blocked_send_s: 0.3,
                blocked_recv_s: 0.1,
                wall_s: 0.9,
            }]),
            io: None,
            transport: None,
            store: None,
        }
    }

    #[test]
    fn check_accepts_consistent_report() {
        assert_eq!(report().check(), Ok(()));
    }

    #[test]
    fn check_rejects_overaccounted_copy() {
        let mut r = report();
        r.per_copy.0[0].busy_s = 0.9; // 0.9 + 0.3 + 0.1 > 0.9 wall
        let e = r.check().unwrap_err();
        assert!(e.contains("exceeds wall"), "{e}");
    }

    #[test]
    fn check_rejects_high_water_above_capacity() {
        let mut r = report();
        r.streams[0].depth_high_water = 5;
        let e = r.check().unwrap_err();
        assert!(e.contains("high water"), "{e}");
    }

    #[test]
    fn check_rejects_missing_copy_rows() {
        let mut r = report();
        r.filters[0].copies = 2;
        let e = r.check().unwrap_err();
        assert!(e.contains("per-copy rows"), "{e}");
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let r = report();
        let back: RunReport = json::from_str(&r.to_json_pretty()).unwrap();
        assert_eq!(r, back);
    }
}
