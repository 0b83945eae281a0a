//! Run-level observability: per-stream meters, run phases, and the
//! serializable [`RunReport`].
//!
//! Paper Figure 9 plots, per filter, processing time against time spent
//! waiting on streams. The engine measures that split directly — per copy,
//! [`crate::stats::FilterCopyStats::blocked_send`] (emit blocked on a full
//! downstream queue) and [`crate::stats::FilterCopyStats::blocked_recv`]
//! (waiting for input) — and per stream, delivered buffer/byte counts plus a
//! sampled queue-depth high-water mark. [`RunReport`] aggregates the lot
//! with the graph shape and schedule policies into one JSON-serializable
//! document (`h4d … --report out.json`), the filter-level instrumentation
//! frameworks like Region Templates rely on to diagnose pipeline placement.

use crate::engine::RunOutcome;
use crate::graph::GraphSpec;
use crate::schedule::SchedulePolicy;
use crate::stats::FilterCopyStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Shared per-stream meter, updated lock-free by every producer copy.
///
/// `emit` records one delivery per queue write (a broadcast to *n* consumer
/// copies counts *n* deliveries) and samples the written queue's depth right
/// after the send — a cheap high-water signal that exposes which stream the
/// backpressure lives on without per-buffer timestamps.
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

/// Timestamps of the engine's three run phases.
///
/// *Spin-up* covers validation, channel creation and factory/thread
/// creation; *steady* runs from the last spawn to the first copy
/// completion; *drain* from the first completion until every worker thread
/// is joined. The three phases partition the run, so their sum never
/// exceeds the run's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunPhases {
    /// Validation, channel creation, factories, thread spawns.
    pub spinup: Duration,
    /// Last spawn to first copy completion.
    pub steady: Duration,
    /// First copy completion to last thread join.
    pub drain: Duration,
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
    /// Buffers delivered, counted per queue write (a broadcast counts once
    /// per consumer copy).
    pub buffers: u64,
    /// Bytes delivered, counted per queue write.
    pub bytes: u64,
    /// Highest queue depth sampled right after any send.
    pub depth_high_water: usize,
}

/// Per-copy row of the report: [`FilterCopyStats`] with durations flattened
/// to seconds, the unit Figure 9 plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CopyReport {
    /// Filter name.
    pub filter: String,
    /// Copy index.
    pub copy: usize,
    /// Buffers consumed.
    pub buffers_in: u64,
    /// Buffers emitted (a broadcast counts once).
    pub buffers_out: u64,
    /// Bytes consumed.
    pub bytes_in: u64,
    /// Bytes emitted.
    pub bytes_out: u64,
    /// Seconds computing inside callbacks, net of blocked sends.
    pub busy_s: f64,
    /// Seconds blocked in `emit` on full downstream queues.
    pub blocked_send_s: f64,
    /// Seconds waiting for input on the copy's streams.
    pub blocked_recv_s: f64,
    /// Thread lifetime in seconds.
    pub wall_s: f64,
}

impl From<&FilterCopyStats> for CopyReport {
    fn from(c: &FilterCopyStats) -> Self {
        Self {
            filter: c.filter.clone(),
            copy: c.copy,
            buffers_in: c.buffers_in,
            buffers_out: c.buffers_out,
            bytes_in: c.bytes_in,
            bytes_out: c.bytes_out,
            busy_s: c.busy.as_secs_f64(),
            blocked_send_s: c.blocked_send.as_secs_f64(),
            blocked_recv_s: c.blocked_recv.as_secs_f64(),
            wall_s: c.wall.as_secs_f64(),
        }
    }
}

/// Run phases flattened to seconds for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Spin-up seconds (validation, channels, factories, spawns).
    pub spinup_s: f64,
    /// Steady-state seconds (last spawn to first completion).
    pub steady_s: f64,
    /// Drain seconds (first completion to last join).
    pub drain_s: f64,
}

impl From<RunPhases> for PhaseReport {
    fn from(p: RunPhases) -> Self {
        Self {
            spinup_s: p.spinup.as_secs_f64(),
            steady_s: p.steady.as_secs_f64(),
            drain_s: p.drain.as_secs_f64(),
        }
    }
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
/// blocked-recv breakdown of paper Figure 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report format version.
    pub schema_version: u32,
    /// End-to-end wall seconds of the run.
    pub wall_s: f64,
    /// Spin-up / steady / drain split.
    pub phases: PhaseReport,
    /// Declared filters and their copy counts.
    pub filters: Vec<FilterShape>,
    /// Per-stream aggregates (policy, capacity, deliveries, high water).
    pub streams: Vec<StreamStats>,
    /// Per-copy breakdown, sorted by (filter, copy).
    pub per_copy: Vec<CopyReport>,
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
    /// Builds a report from a completed run of `spec`.
    pub fn new(spec: &GraphSpec, outcome: &RunOutcome) -> Self {
        Self {
            schema_version: RUN_REPORT_SCHEMA_VERSION,
            wall_s: outcome.stats.wall.as_secs_f64(),
            phases: outcome.phases.into(),
            filters: spec
                .filters
                .iter()
                .map(|f| FilterShape {
                    name: f.name.clone(),
                    copies: f.copies,
                })
                .collect(),
            streams: outcome.streams.clone(),
            per_copy: outcome
                .stats
                .per_copy
                .iter()
                .map(CopyReport::from)
                .collect(),
            io: None,
            transport: (!outcome.transport.is_empty()).then(|| outcome.transport.clone()),
            store: None,
        }
    }

    /// Builds a report for the partition of `spec` that ran on `node` in a
    /// distributed run: declared copy counts are restricted to the copies
    /// placed on that node, so [`RunReport::check`]'s rows-versus-declared
    /// invariant holds per process even though each process only hosts a
    /// slice of the graph.
    pub fn for_node(spec: &GraphSpec, outcome: &RunOutcome, node: usize) -> Self {
        let mut report = Self::new(spec, outcome);
        for (shape, decl) in report.filters.iter_mut().zip(&spec.filters) {
            shape.copies = decl.placement.iter().filter(|&&n| n == node).count();
        }
        report.filters.retain(|f| f.copies > 0);
        report
    }

    /// All per-copy rows of `filter`.
    pub fn copies_of(&self, filter: &str) -> Vec<&CopyReport> {
        self.per_copy
            .iter()
            .filter(|c| c.filter == filter)
            .collect()
    }

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
        for c in &self.per_copy {
            let accounted = c.busy_s + c.blocked_send_s + c.blocked_recv_s;
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
            per_copy: vec![CopyReport {
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
            }],
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
        r.per_copy[0].busy_s = 0.9; // 0.9 + 0.3 + 0.1 > 0.9 wall
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
