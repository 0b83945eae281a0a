//! Property tests for the overlap-aware slice cache (`mri::cache`) over
//! seeded random chunk geometries.
//!
//! The cache's contract has three parts, each checked against a counting
//! in-memory [`SliceSource`] while replaying the reading filters' exact
//! emission order (chunk grid order, `t` outer, `z` inner, ownership
//! filtered):
//!
//! 1. with an unlimited budget every distinct slice is read from disk
//!    **exactly once**, including when the slices are split across several
//!    storage-node readers, and when two jobs walk one shared cache from
//!    two threads;
//! 2. every piece cropped out of a cached slice is pixel-identical to a
//!    crop of an uncached direct read — the cache changes *when* disk is
//!    touched, never *what* is read;
//! 3. retained bytes never exceed the budget, for any budget.
//!
//! The random cases come from an in-file generator with a fixed base seed,
//! so the suite needs no dev-dependency and a failure names the case seed
//! that reproduces it.

use haralick::roi::RoiShape;
use haralick::volume::Dims4;
use mri::chunks::{Chunk, ChunkGrid};
use mri::store::SliceKey;
use mri::{crop_subrect, IoStats, ReusePlan, SliceCache, SliceSource};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

const CASES: u32 = 24;

/// The Numerical Recipes LCG; the high half of the state is the sample.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 16
    }

    /// A value in `lo..=hi`.
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.next() as usize % (hi - lo + 1)
    }
}

fn case_seed(base: u32, case: u32) -> u32 {
    base.wrapping_add(case.wrapping_mul(0x9e37_79b9))
}

/// Deterministic in-memory slice store that counts every disk read.
struct CountingSource {
    dims: Dims4,
    reads: Mutex<HashMap<SliceKey, usize>>,
    total_reads: AtomicUsize,
}

impl CountingSource {
    fn new(dims: Dims4) -> Self {
        Self {
            dims,
            reads: Mutex::new(HashMap::new()),
            total_reads: AtomicUsize::new(0),
        }
    }

    fn pixel(&self, key: SliceKey, x: usize, y: usize) -> u16 {
        (key.t.wrapping_mul(193) ^ key.z.wrapping_mul(131) ^ y.wrapping_mul(17) ^ x) as u16
    }

    fn max_reads_of_any_key(&self) -> usize {
        self.reads
            .lock()
            .unwrap()
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

impl SliceSource for CountingSource {
    fn slice_dims(&self) -> (usize, usize) {
        (self.dims.x, self.dims.y)
    }

    fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
        *self.reads.lock().unwrap().entry(key).or_insert(0) += 1;
        self.total_reads.fetch_add(1, Ordering::Relaxed);
        let mut v = Vec::with_capacity(self.dims.x * self.dims.y);
        for y in 0..self.dims.y {
            for x in 0..self.dims.x {
                v.push(self.pixel(key, x, y));
            }
        }
        Ok(v)
    }
}

/// Requests every slice in `keys` and asserts that the crop of `chunk`'s
/// input rectangle is pixel-identical to an uncached read of the same
/// rectangle, and that retention stays within `budget`.
fn check_chunk(
    cache: &SliceCache<&CountingSource>,
    src: &CountingSource,
    chunk: &Chunk,
    keys: &[SliceKey],
    budget: usize,
    what: &str,
) {
    let (slice_x, _) = src.slice_dims();
    let r = chunk.input;
    let mut piece = Vec::new();
    for &key in keys {
        let slice = cache.get(key).unwrap();
        crop_subrect(
            &slice, slice_x, r.origin.x, r.origin.y, r.size.x, r.size.y, &mut piece,
        );
        for dy in 0..r.size.y {
            for dx in 0..r.size.x {
                assert_eq!(
                    piece[dy * r.size.x + dx],
                    src.pixel(key, r.origin.x + dx, r.origin.y + dy),
                    "{what}: cached crop diverges at ({dx}, {dy}) of {key:?}"
                );
            }
        }
        assert!(
            cache.retained_bytes() <= budget,
            "{what}: retained {} exceeds budget {budget}",
            cache.retained_bytes()
        );
    }
}

/// Replays one reader's full run over `grid` restricted to `owned`,
/// asserting every cropped piece matches an uncached direct read. Returns
/// the stats the run produced.
fn replay_reader(
    grid: &ChunkGrid,
    src: &CountingSource,
    owned: impl Fn(SliceKey) -> bool,
    budget: usize,
    what: &str,
) -> Arc<IoStats> {
    let plan = ReusePlan::new(grid, owned);
    let stats = Arc::new(IoStats::default());
    let cache = SliceCache::new(src, plan, budget, stats.clone());
    for (seq, chunk) in grid.chunks().enumerate() {
        check_chunk(
            &cache,
            src,
            &chunk,
            cache.plan().keys_for(seq),
            budget,
            what,
        );
        cache.advance(seq);
    }
    stats
}

fn geometry(
    xs: usize,
    ys: usize,
    zs: usize,
    ts: usize,
    roi: (usize, usize, usize, usize),
    extra: (usize, usize, usize, usize),
) -> ChunkGrid {
    let roi = RoiShape::from_lengths(roi.0, roi.1, roi.2, roi.3);
    let chunk = Dims4::new(
        roi.size().x + extra.0,
        roi.size().y + extra.1,
        roi.size().z + extra.2,
        roi.size().t + extra.3,
    );
    ChunkGrid::new(Dims4::new(xs, ys, zs, ts), roi, chunk)
}

/// Unlimited budget: every reader loads each of its distinct slices
/// exactly once, even with the dataset split round-robin across several
/// storage nodes, and all crops stay pixel-identical.
#[test]
fn unlimited_budget_is_exactly_once_across_node_splits() {
    for case in 0..CASES {
        let seed = case_seed(0x4834_4431, case);
        let mut rng = Lcg(seed);
        let (xs, ys) = (rng.in_range(8, 20), rng.in_range(8, 20));
        let (zs, ts) = (rng.in_range(3, 7), rng.in_range(3, 7));
        let roi = (
            rng.in_range(2, 5),
            rng.in_range(2, 5),
            rng.in_range(1, 3),
            rng.in_range(1, 3),
        );
        let extra = (
            rng.in_range(0, 6),
            rng.in_range(0, 6),
            rng.in_range(0, 3),
            rng.in_range(0, 3),
        );
        let nodes = rng.in_range(1, 3);
        let grid = geometry(xs, ys, zs, ts, roi, extra);
        let mut covered = 0;
        for node in 0..nodes {
            let what = format!(
                "case seed {seed:#010x} ({xs}x{ys}x{zs}x{ts}, roi {roi:?}, extra {extra:?}, \
                 node {node} of {nodes})"
            );
            let owned = move |key: SliceKey| (key.t * zs + key.z) % nodes == node;
            let plan = ReusePlan::new(&grid, owned);
            covered += plan.distinct_slices();
            let src = CountingSource::new(grid.data_dims());
            let stats = replay_reader(&grid, &src, owned, usize::MAX, &what);
            assert_eq!(
                src.total_reads.load(Ordering::Relaxed),
                plan.distinct_slices(),
                "{what}: some slice was read more than once"
            );
            assert!(src.max_reads_of_any_key() <= 1, "{what}");
            assert_eq!(
                stats.disk_reads() as usize,
                plan.distinct_slices(),
                "{what}"
            );
            assert_eq!(
                stats.cache_hits() + stats.cache_misses(),
                plan.total_requests() as u64,
                "{what}"
            );
        }
        // The round-robin predicates partition the slices: together the
        // node readers cover every distinct slice exactly once.
        assert_eq!(
            covered,
            ReusePlan::new(&grid, |_| true).distinct_slices(),
            "case seed {seed:#010x}"
        );
    }
}

/// Any budget, including pathologically small ones: retention never
/// exceeds the cap, results stay pixel-identical, and the number of disk
/// reads never exceeds the naive reader's (one per request) nor drops
/// below one per distinct slice.
#[test]
fn bounded_budget_never_exceeds_cap_and_stays_correct() {
    for case in 0..CASES {
        let seed = case_seed(0x4834_4432, case);
        let mut rng = Lcg(seed);
        let (xs, ys) = (rng.in_range(8, 16), rng.in_range(8, 16));
        let (zs, ts) = (rng.in_range(3, 6), rng.in_range(3, 6));
        let (rz, rt) = (rng.in_range(1, 3), rng.in_range(1, 3));
        let (ez, et) = (rng.in_range(0, 3), rng.in_range(0, 3));
        let budget_slices = rng.in_range(0, 6);
        let what = format!(
            "case seed {seed:#010x} ({xs}x{ys}x{zs}x{ts}, roi z/t {rz}/{rt}, extra z/t \
             {ez}/{et}, budget {budget_slices} slices)"
        );
        let grid = geometry(xs, ys, zs, ts, (3, 3, rz, rt), (4, 4, ez, et));
        let src = CountingSource::new(grid.data_dims());
        let budget = budget_slices * xs * ys * 2;
        let plan = ReusePlan::new(&grid, |_| true);
        let stats = replay_reader(&grid, &src, |_| true, budget, &what);
        assert!(stats.retained_high_water() as usize <= budget, "{what}");
        let reads = src.total_reads.load(Ordering::Relaxed);
        assert!(reads >= plan.distinct_slices(), "{what}");
        assert!(reads <= plan.total_requests(), "{what}");
    }
}

/// Two jobs, each with its own attached plan, walk the same grid over one
/// shared cache from two threads. For the first half of the grid they
/// enter every chunk together, so both request the same absent slices at
/// once and one waits on the other's in-flight load; then the fast job
/// runs to the end and detaches before the slow job continues, so the
/// slow job's plan alone keeps its remaining slices alive. Together they
/// read each distinct slice once.
#[test]
fn two_threaded_jobs_on_a_shared_cache_read_each_slice_once_total() {
    let grid = geometry(16, 16, 6, 6, (4, 4, 3, 3), (4, 4, 1, 1));
    let src = CountingSource::new(grid.data_dims());
    let stats = Arc::new(IoStats::default());
    let cache = SliceCache::shared(&src, usize::MAX, stats.clone());
    let distinct = ReusePlan::new(&grid, |_| true).distinct_slices();
    let lockstep = grid.chunks().count() / 2;
    // The first `step` wait also orders both attaches before the first
    // read: a plan attached after the other job finished would re-read
    // everything.
    let step = Barrier::new(2);
    let fast_detached = Barrier::new(2);
    let walk = |fast: bool| {
        let what = if fast { "fast job" } else { "slow job" };
        let h = cache.attach(ReusePlan::new(&grid, |_| true));
        let plan = cache.plan_of(h).unwrap();
        for (seq, chunk) in grid.chunks().enumerate() {
            if seq < lockstep {
                step.wait();
            } else if seq == lockstep && !fast {
                fast_detached.wait();
            }
            check_chunk(&cache, &src, &chunk, plan.keys_for(seq), usize::MAX, what);
            cache.advance_for(h, seq);
        }
        cache.detach(h);
        if fast {
            fast_detached.wait();
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| walk(true));
        s.spawn(|| walk(false));
    });
    assert_eq!(
        src.total_reads.load(Ordering::Relaxed),
        distinct,
        "both jobs together must read each slice exactly once"
    );
    assert!(src.max_reads_of_any_key() <= 1);
    assert_eq!(stats.disk_reads() as usize, distinct);
    assert_eq!(cache.attached_plans(), 0);
    assert_eq!(cache.retained_bytes(), 0, "no jobs -> nothing retained");
}
