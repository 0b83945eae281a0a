//! Run-level observability: per-stream meters, run phases, and the
//! serializable [`RunReport`].
//!
//! Paper Figure 9 plots, per filter, processing time against time spent
//! waiting on streams. The engine measures that split directly — per copy,
//! [`CopyReport::blocked_send_s`] (emit blocked on a full downstream queue)
//! and [`CopyReport::blocked_recv_s`] (waiting for input) — and per stream,
//! delivered buffer/byte counts plus a sampled queue-depth high-water mark.
//! [`RunReport`] aggregates the lot with the graph shape and schedule
//! policies into one JSON-serializable document (`h4d … --report out.json`),
//! the filter-level instrumentation frameworks like Region Templates rely on
//! to diagnose pipeline placement. It is the one value every driver returns;
//! the `cluster` simulator predicts the same [`CopyRows`].

use crate::schedule::SchedulePolicy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared per-stream meter, updated lock-free by every producer copy.
///
/// `emit` records one delivery per queue write and samples the written
/// queue's depth right after the send — a cheap high-water signal that
/// exposes which stream the backpressure lives on without per-buffer
/// timestamps.
#[derive(Debug, Default)]
pub struct StreamMeter {
    buffers: AtomicU64,
    bytes: AtomicU64,
    depth_high_water: AtomicUsize,
}

impl StreamMeter {
    /// Records one delivered buffer of `bytes` bytes and samples the target
    /// queue's depth observed immediately after the send.
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

    /// Highest queue depth sampled after any send on the stream.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water.load(Ordering::Relaxed)
    }
}

/// One filter's shape in the report: its name and copy count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterShape {
    /// Filter name.
    pub name: String,
    /// Number of transparent copies.
    pub copies: usize,
}

/// Per-stream aggregate in the report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Highest queue depth sampled right after any send.
    pub depth_high_water: usize,
}

/// One filter copy's row: buffers and bytes in and out, and the busy /
/// blocked-send / blocked-recv split of its lifetime in seconds, the unit
/// Figure 9 plots. The threaded engine measures each duration disjointly on
/// the copy's own thread, so `busy + blocked_send + blocked_recv <= wall` is
/// exact where measured and holds within [`RunReport::check`]'s `1e-6` once
/// flattened to `f64`. The simulator fills the same row in virtual seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
/// how well the writer coalesced frames into flushes, how often credit
/// windows stalled a route with data ready, and what compression saved.
/// `frames_sent / flushes` is the measured batching factor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionReport {
    /// Peer node id of this connection.
    pub peer: usize,
    /// Whether payload checksums were negotiated on this connection.
    pub checksum: bool,
    /// Whether payload compression was negotiated on this connection.
    pub compression: bool,
    /// Data frames sent toward the peer.
    pub frames_sent: u64,
    /// Wire bytes written (headers + possibly-compressed payloads + control
    /// frames).
    pub bytes_sent: u64,
    /// Vectored flushes issued; every frame rides exactly one flush.
    pub flushes: u64,
    /// Data frames received from the peer.
    pub frames_recv: u64,
    /// Logical (decompressed) payload bytes received.
    pub bytes_recv: u64,
    /// `Credit` frames sent to the peer.
    pub credits_sent: u64,
    /// Times the writer went to sleep with data ready on a route whose
    /// credit window was empty — the flow-control analogue of
    /// `blocked_send`.
    pub credit_stalls: u64,
    /// Data frames whose payload shipped compressed.
    pub compressed_frames: u64,
    /// Payload bytes saved by compression across those frames.
    pub compression_saved_bytes: u64,
}

/// The serializable run report: graph shape, schedule policies, run phases,
/// per-stream delivery aggregates, and the per-copy busy / blocked-send /
/// blocked-recv breakdown of paper Figure 9. Every driver returns one:
/// [`crate::run_graph`] fills everything up to `per_copy`,
/// [`crate::run_node`] adds `transport`, and the pipeline layer's drivers
/// add `io` and `store`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub io: Option<IoReport>,
    /// Per-peer transport counters, present only for distributed runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub transport: Option<Vec<ConnectionReport>>,
    /// Result-store counters, present only when a store was attached.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub store: Option<StoreReport>,
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
    /// * per stream, the sampled high-water mark never exceeds capacity;
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
        serde_json::to_string_pretty(self).expect("run report serializes")
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
        let back: RunReport = serde_json::from_str(&r.to_json_pretty()).unwrap();
        assert_eq!(r, back);
    }
}
