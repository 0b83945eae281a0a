//! In-memory spans around the calls into each layer.
//!
//! The harness opens a span before it calls into a layer and closes it when
//! the call returns; spans nest (pass ⊃ chunk ⊃ layer call), are kept in a
//! pre-sized `Vec`, and are written out only after the run. A span's *self
//! time* is its duration minus its children's; a layer's busy time is the
//! sum of the self times of its spans. With tracing off, `begin`/`end` are a
//! predictable branch each.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span names: one per layer entry point the harness calls, plus the two
/// harness-owned levels whose self time is the harness's own overhead.
pub mod name {
    /// One whole pass over the dataset (root span).
    pub const PASS: &str = "bench.pass";
    /// One chunk, read to written.
    pub const CHUNK: &str = "bench.chunk";
    /// `ChunkGrid::new` + `ReusePlan::new`.
    pub const PLAN: &str = "mri.chunks.plan";
    /// `SliceCache::get`.
    pub const CACHE_GET: &str = "mri.cache.get";
    /// `SliceCache::advance`.
    pub const CACHE_ADVANCE: &str = "mri.cache.advance";
    /// `crop_subrect`.
    pub const CROP: &str = "mri.cache.crop";
    /// `RawVolume::paste_plane` (and the chunk buffer it pastes into).
    pub const STITCH: &str = "mri.raw.stitch";
    /// `RawVolume::quantize`.
    pub const QUANTIZE: &str = "haralick.quantize";
    /// `scan_placements_raw`.
    pub const SCAN: &str = "haralick.raster.scan";
    /// `ParameterWriter::push` loop of one (chunk, feature).
    pub const WRITE: &str = "mri.output.write";
    /// `ParameterWriter::create` ×4 and `ParameterWriter::finish` ×4.
    pub const FINISH: &str = "mri.output.finish";
}

/// `parent` of a root span, and `chunk` of a span outside any chunk.
pub const NONE: u32 = u32::MAX;

/// One closed (or still open) interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, one of [`name`].
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Chunk id the work belongs to, or [`NONE`].
    pub chunk: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Not thread-safe: the benchmark is single-threaded.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn on(capacity: usize) -> Self {
        Self {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, chunk: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(self.spans.len() as u32);
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            chunk,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx as usize].end_ns = now;
    }

    /// Drops all spans, keeping the allocation, for the next traced pass.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear() with spans still open");
        self.spans.clear();
    }

    /// Recorded spans, in `begin` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: summed self time in nanoseconds and span count.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if s.parent != NONE {
                self_ns[s.parent as usize] -= s.duration_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            let e = by_name.entry(s.name).or_insert((0u64, 0u64));
            e.0 += ns;
            e.1 += 1;
        }
        by_name
    }

    /// Durations in nanoseconds of every span called `name`, in order.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on(4);
        t.begin(name::PASS, NONE);
        t.begin(name::CHUNK, 3);
        t.begin(name::SCAN, 3);
        t.end();
        t.end();
        t.end();
        // Pin the clock readings so the arithmetic is exact.
        let fixed = [(0, 100), (10, 90), (20, 50)];
        for (s, (a, b)) in t.spans.iter_mut().zip(fixed) {
            (s.start_ns, s.end_ns) = (a, b);
        }
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[0].parent, NONE);
        assert_eq!(t.spans()[2].chunk, 3);
        let by = t.self_time_by_name();
        assert_eq!(by[name::PASS], (20, 1));
        assert_eq!(by[name::CHUNK], (50, 1));
        assert_eq!(by[name::SCAN], (30, 1));
        let total: u64 = by.values().map(|v| v.0).sum();
        assert_eq!(total, 100, "self times sum to the root's duration");
        assert_eq!(t.durations_of(name::SCAN), [30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin(name::PASS, NONE);
        t.end();
        assert!(t.spans().is_empty());
    }
}
