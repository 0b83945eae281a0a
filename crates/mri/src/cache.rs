//! Overlap-aware reader-side I/O plane: the lifetime-exact slice cache.
//!
//! The paper's chunked retrieval (§4.4, Eqs. 1–2) makes adjacent chunks
//! overlap by `ROI − 1` voxels per axis, so a reading filter that walks the
//! [`ChunkGrid`] re-reads every halo slice from disk once per chunk that
//! touches it — up to `roi − 1`-fold on the z and t axes. But the grid fixes
//! the chunk emission order completely, which means the *first and last
//! chunk to consume each slice are known before the first byte is read*.
//! This module exploits that:
//!
//! * [`ReusePlan`] replays the reader's exact emission order (chunk grid
//!   order, `t` outer, `z` inner, skipping slices another storage node
//!   owns) and derives per-[`SliceKey`] first/last-use chunk sequence
//!   numbers;
//! * [`SliceCache`] retains each decoded slice from its first read until
//!   its last consuming chunk completes ([`SliceCache::advance`]), so with
//!   a sufficient byte budget every slice is read from disk **exactly
//!   once** per run — and when retention would exceed the budget, the
//!   slice is served without being retained and simply re-read later (the
//!   correct-but-slower fallback);
//! * a per-key *loading* state keeps the exactly-once property when several
//!   consumers (reader copies, or jobs on a shared cache) race for the same
//!   slice: one loads, the others wait for it.
//!
//! Everything is instrumented through a shared [`IoStats`] (lock-free
//! counters), which the pipeline surfaces in its run report.

use crate::chunks::ChunkGrid;
use crate::dicom::{DicomDataset, DicomError};
use crate::store::{DistributedDataset, SliceKey};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Anything the slice cache can decode whole 2D slices from.
///
/// Implemented by the raw [`DistributedDataset`] and the DICOM
/// [`DicomDataset`] (and by references to either, so a filter can build a
/// cache over a dataset it keeps owning).
pub trait SliceSource {
    /// In-plane slice extents `(x, y)`.
    fn slice_dims(&self) -> (usize, usize);

    /// Loads one full slice, row-major, `x`-fastest.
    fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>>;
}

impl<S: SliceSource + ?Sized> SliceSource for &S {
    fn slice_dims(&self) -> (usize, usize) {
        (**self).slice_dims()
    }

    fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
        (**self).load_slice(key)
    }
}

impl<S: SliceSource + ?Sized> SliceSource for Box<S> {
    fn slice_dims(&self) -> (usize, usize) {
        (**self).slice_dims()
    }

    fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
        (**self).load_slice(key)
    }
}

impl SliceSource for DistributedDataset {
    fn slice_dims(&self) -> (usize, usize) {
        let d = self.descriptor().dims;
        (d.x, d.y)
    }

    fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
        self.read_slice(key)
    }
}

impl SliceSource for DicomDataset {
    fn slice_dims(&self) -> (usize, usize) {
        let d = self.descriptor().dims;
        (d.x, d.y)
    }

    fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
        match self.read_slice(key) {
            Ok(s) => Ok(s.pixels),
            Err(DicomError::Io(e)) => Err(e),
            Err(e @ DicomError::Malformed(_)) => {
                Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
        }
    }
}

/// Crops the `w x h` sub-rectangle at `(x0, y0)` out of a full row-major
/// slice of width `slice_x`, appending into `out` (cleared first). Shared by
/// the RFR and DFR filters so both serve chunk pieces from cached slices.
///
/// # Panics
/// If the rectangle does not fit inside the slice.
pub fn crop_subrect(
    slice: &[u16],
    slice_x: usize,
    x0: usize,
    y0: usize,
    w: usize,
    h: usize,
    out: &mut Vec<u16>,
) {
    assert!(
        x0 + w <= slice_x && slice_x != 0 && (y0 + h) * slice_x <= slice.len(),
        "crop {w}x{h} at ({x0}, {y0}) exceeds slice (width {slice_x}, len {})",
        slice.len()
    );
    out.clear();
    out.reserve(w * h);
    for y in y0..y0 + h {
        let start = y * slice_x + x0;
        out.extend_from_slice(&slice[start..start + w]);
    }
}

/// Per-slice first/last use, derived from the deterministic chunk emission
/// order of a [`ChunkGrid`] restricted to the slices one storage node owns.
///
/// Chunk *sequence numbers* are positions in [`ChunkGrid::chunks`] order
/// (identical to [`crate::chunks::Chunk::id`]); within one chunk, keys are
/// listed `t` outer, `z` inner — exactly the order the reading filters
/// request them.
#[derive(Debug, Clone)]
pub struct ReusePlan {
    /// Chunk seq → slice keys this reader loads for that chunk, in order.
    per_chunk: Vec<Vec<SliceKey>>,
    /// Key → (first, last) consuming chunk seq.
    lifetimes: HashMap<SliceKey, (usize, usize)>,
}

impl ReusePlan {
    /// Builds the plan for the keys `owned` selects (a storage-node
    /// predicate; pass `|_| true` for a single-reader run).
    pub fn new(grid: &ChunkGrid, owned: impl Fn(SliceKey) -> bool) -> Self {
        let mut per_chunk = Vec::with_capacity(grid.len());
        let mut lifetimes: HashMap<SliceKey, (usize, usize)> = HashMap::new();
        for (seq, chunk) in grid.chunks().enumerate() {
            let r = chunk.input;
            let mut keys = Vec::new();
            for t in r.origin.t..r.end().t {
                for z in r.origin.z..r.end().z {
                    let key = SliceKey { t, z };
                    if !owned(key) {
                        continue;
                    }
                    keys.push(key);
                    lifetimes
                        .entry(key)
                        .and_modify(|(_, last)| *last = seq)
                        .or_insert((seq, seq));
                }
            }
            per_chunk.push(keys);
        }
        Self {
            per_chunk,
            lifetimes,
        }
    }

    /// Number of chunks in the plan.
    pub fn chunks(&self) -> usize {
        self.per_chunk.len()
    }

    /// Slice keys chunk `seq` consumes, in request order.
    pub fn keys_for(&self, seq: usize) -> &[SliceKey] {
        &self.per_chunk[seq]
    }

    /// First/last consuming chunk seq of `key`, if any chunk uses it.
    pub fn lifetime(&self, key: SliceKey) -> Option<(usize, usize)> {
        self.lifetimes.get(&key).copied()
    }

    /// Number of distinct slices the plan touches.
    pub fn distinct_slices(&self) -> usize {
        self.lifetimes.len()
    }

    /// Total slice *requests* across all chunks (the reads a naive reader
    /// would issue); `total_requests - distinct_slices` is the redundancy
    /// the cache removes.
    pub fn total_requests(&self) -> usize {
        self.per_chunk.iter().map(Vec::len).sum()
    }
}

/// Lock-free counters for the reader-side I/O plane, shared across the
/// reading filter copies of one process.
#[derive(Debug, Default)]
pub struct IoStats {
    disk_reads: AtomicU64,
    bytes_read: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    prefetched: AtomicU64,
    budget_rejects: AtomicU64,
    retained_high_water: AtomicU64,
}

impl IoStats {
    /// Records one disk read of `bytes` bytes.
    pub fn record_disk_read(&self, bytes: u64) {
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a request served from a retained slice.
    pub fn record_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request that had to go to disk (or to a naive read).
    pub fn record_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one slice loaded by the read-ahead thread before demand.
    pub fn record_prefetch(&self) {
        self.prefetched.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a load that could not be retained within the byte budget.
    pub fn record_budget_reject(&self) {
        self.budget_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the retained-bytes high-water mark.
    pub fn record_retained(&self, bytes: u64) {
        self.retained_high_water.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Disk reads issued.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads.load(Ordering::Relaxed)
    }

    /// Bytes read from disk.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Requests served from retained slices.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Requests that went to disk.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Slices loaded by read-ahead before demand.
    pub fn prefetched(&self) -> u64 {
        self.prefetched.load(Ordering::Relaxed)
    }

    /// Loads the byte budget refused to retain.
    pub fn budget_rejects(&self) -> u64 {
        self.budget_rejects.load(Ordering::Relaxed)
    }

    /// Highest number of retained bytes observed.
    pub fn retained_high_water(&self) -> u64 {
        self.retained_high_water.load(Ordering::Relaxed)
    }
}

/// Typed failure of a cache request.
///
/// `mri` cannot name the engine's `FilterError`, so the pipeline maps these:
/// `Io` to an `Io`-kind error and `LoaderPanicked` to a `Panic`-kind error,
/// both naming the failing slice — root-cause selection then points at the
/// loader, not at whichever waiter happened to observe the wreckage.
#[derive(Debug)]
pub enum CacheError {
    /// The disk load of `key` failed.
    Io {
        /// Slice whose load failed.
        key: SliceKey,
        /// The underlying I/O error.
        error: io::Error,
    },
    /// The consumer that claimed the load of `key` panicked before
    /// publishing a result. The key has been reverted to absent, so a retry
    /// is permitted.
    LoaderPanicked {
        /// Slice whose loader died.
        key: SliceKey,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { key, error } => {
                write!(f, "slice load failed for z={} t={}: {error}", key.z, key.t)
            }
            Self::LoaderPanicked { key } => {
                write!(f, "slice loader panicked for z={} t={}", key.z, key.t)
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Identifies one attached [`ReusePlan`] on a (possibly shared) cache.
///
/// Handles are plain ids — cloning one does not attach anything, and using
/// a handle after [`SliceCache::detach`] degrades to no-ops rather than
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanHandle(u64);

/// One cache entry's lifecycle. `Loading` is the exactly-once device:
/// whoever transitions a key `Absent → Loading` is the only party that reads
/// it from disk; everyone else waits on the condvar for the transition out
/// of `Loading`. `Poisoned` records a loader
/// that panicked mid-claim: the first waiter to observe it reverts the key
/// to absent and surfaces a typed [`CacheError::LoaderPanicked`].
enum Entry {
    Loading,
    Present(Arc<Vec<u16>>),
    Poisoned,
}

/// Per-attached-plan progress: which chunk the consumer has fully drained.
struct PlanState {
    plan: Arc<ReusePlan>,
    /// Chunks fully consumed so far (`advance` moves this forward).
    completed: usize,
}

struct CacheState {
    entries: HashMap<SliceKey, Entry>,
    /// Bytes held by `Present` entries.
    retained_bytes: usize,
    /// Attached plans by handle id. A slice is retained while *any*
    /// attached plan still has a future use for it.
    plans: HashMap<u64, PlanState>,
    next_plan: u64,
    /// Raised once by `shutdown`; nothing reads it since the read-ahead API
    /// went (the field waits for the next `benchmark` PR, see ROADMAP).
    shutdown: bool,
}

impl CacheState {
    /// Whether any attached plan still needs `key` at its current progress.
    fn key_live(&self, key: SliceKey) -> bool {
        self.plans.values().any(|p| {
            p.plan
                .lifetime(key)
                .is_some_and(|(_, last)| last >= p.completed)
        })
    }

    /// Evicts every retained slice no attached plan needs anymore.
    fn evict_dead(&mut self) {
        let mut dead: Vec<SliceKey> = Vec::new();
        for (&key, entry) in &self.entries {
            if matches!(entry, Entry::Present(_)) && !self.key_live(key) {
                dead.push(key);
            }
        }
        for key in dead {
            if let Some(Entry::Present(data)) = self.entries.remove(&key) {
                self.retained_bytes -= data.len() * 2;
            }
        }
    }
}

/// Reverts a claimed `Loading` key to `Poisoned` if the claimant unwinds
/// between claiming and publishing — without this, a panicking loader
/// leaves every waiter blocked on the condvar forever (and, pre-PR-8,
/// crashed them with a lock-poison panic instead of the real root cause).
struct LoadClaim<'a> {
    state: &'a Mutex<CacheState>,
    cond: &'a Condvar,
    key: SliceKey,
    armed: bool,
}

impl Drop for LoadClaim<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = lock_recovered(self.state);
        st.entries.insert(self.key, Entry::Poisoned);
        self.cond.notify_all();
    }
}

/// Locks `state`, recovering from mutex poisoning: a panicking loader must
/// surface as a typed error on the waiters, never as a lock panic. The
/// invariants the lock protects are re-established by the poisoning
/// party's own `LoadClaim` guard, so the inner guard is safe to use.
fn lock_recovered(state: &Mutex<CacheState>) -> MutexGuard<'_, CacheState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The lifetime-exact slice cache over a [`SliceSource`].
///
/// Correctness contract: [`SliceCache::get`] always returns the same pixels
/// as `source.load_slice(key)`; the cache changes *when* disk is touched,
/// never *what* is read. With `budget_bytes` at least the plan's peak
/// retention, each distinct slice is loaded exactly once.
///
/// A cache built with [`SliceCache::new`] carries one *primary* plan and
/// behaves exactly like the per-run cache of PR 5. A cache built with
/// [`SliceCache::shared`] starts with no plans: concurrent jobs over the
/// same dataset [`attach`](SliceCache::attach) their own [`ReusePlan`]s and
/// the cache retains each slice until **no attached job** needs it — this
/// is what lets a daemon serve N analyses of one study with each slice
/// read from disk once, total.
pub struct SliceCache<S> {
    source: S,
    /// Retention cap in bytes, shared across all attached plans. Loads
    /// always succeed; only *retention* is refused beyond the cap.
    budget_bytes: usize,
    state: Mutex<CacheState>,
    cond: Condvar,
    stats: Arc<IoStats>,
}

impl<S: SliceSource> SliceCache<S> {
    /// Creates a single-plan cache with a retention budget of
    /// `budget_bytes`, feeding the shared `stats`. The plan is attached as
    /// the primary, which the handle-free methods operate on.
    pub fn new(source: S, plan: ReusePlan, budget_bytes: usize, stats: Arc<IoStats>) -> Self {
        let cache = Self::shared(source, budget_bytes, stats);
        cache.attach(plan);
        cache
    }

    /// Creates a cache with no attached plans, for daemon scope: each job
    /// calls [`attach`](SliceCache::attach) / [`detach`](SliceCache::detach)
    /// around its run.
    pub fn shared(source: S, budget_bytes: usize, stats: Arc<IoStats>) -> Self {
        Self {
            source,
            budget_bytes,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                retained_bytes: 0,
                plans: HashMap::new(),
                next_plan: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            stats,
        }
    }

    /// Attaches a job's reuse plan. From this point until
    /// [`detach`](SliceCache::detach), slices the plan still needs are kept
    /// retained (budget permitting) even if every other job is done with
    /// them.
    pub fn attach(&self, plan: ReusePlan) -> PlanHandle {
        let mut st = lock_recovered(&self.state);
        let id = st.next_plan;
        st.next_plan += 1;
        st.plans.insert(
            id,
            PlanState {
                plan: Arc::new(plan),
                completed: 0,
            },
        );
        PlanHandle(id)
    }

    /// Detaches a job's plan, evicting every slice only that job still held.
    pub fn detach(&self, h: PlanHandle) {
        let mut st = lock_recovered(&self.state);
        if st.plans.remove(&h.0).is_some() {
            st.evict_dead();
            self.cond.notify_all();
        }
    }

    /// Number of plans currently attached (diagnostics; a registry evicts
    /// dataset caches that report zero).
    pub fn attached_plans(&self) -> usize {
        lock_recovered(&self.state).plans.len()
    }

    /// The handle of the primary plan a [`SliceCache::new`]-built cache
    /// carries (always the first attached plan).
    pub fn primary_handle(&self) -> PlanHandle {
        PlanHandle(0)
    }

    /// The primary plan — the one `new` attached. Panics on a
    /// [`shared`](SliceCache::shared) cache with no plan 0; use
    /// [`plan_of`](SliceCache::plan_of) there.
    pub fn plan(&self) -> Arc<ReusePlan> {
        self.plan_of(PlanHandle(0))
            .expect("primary plan is attached for the cache's whole life")
    }

    /// The plan behind `h`, if still attached.
    pub fn plan_of(&self, h: PlanHandle) -> Option<Arc<ReusePlan>> {
        lock_recovered(&self.state)
            .plans
            .get(&h.0)
            .map(|p| Arc::clone(&p.plan))
    }

    /// Bytes currently retained (tests and diagnostics).
    pub fn retained_bytes(&self) -> usize {
        lock_recovered(&self.state).retained_bytes
    }

    /// In-plane slice extents `(x, y)` of the underlying source.
    pub fn slice_dims(&self) -> (usize, usize) {
        self.source.slice_dims()
    }

    /// Returns the full decoded slice, reading from disk at most once while
    /// the slice is retained. Concurrent requests for a slice mid-load wait
    /// for the in-flight read instead of issuing their own — including
    /// requests from *other jobs* on a shared cache.
    pub fn get(&self, key: SliceKey) -> Result<Arc<Vec<u16>>, CacheError> {
        {
            let mut st = lock_recovered(&self.state);
            loop {
                match st.entries.get(&key) {
                    Some(Entry::Present(data)) => {
                        self.stats.record_hit();
                        return Ok(data.clone());
                    }
                    Some(Entry::Loading) => {
                        st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(Entry::Poisoned) => {
                        // First observer reverts the key so later requests
                        // may retry, and reports the loader's death.
                        st.entries.remove(&key);
                        self.cond.notify_all();
                        return Err(CacheError::LoaderPanicked { key });
                    }
                    None => {
                        st.entries.insert(key, Entry::Loading);
                        break;
                    }
                }
            }
        }
        self.stats.record_miss();
        let mut claim = LoadClaim {
            state: &self.state,
            cond: &self.cond,
            key,
            armed: true,
        };
        let loaded = self.source.load_slice(key);
        claim.armed = false;
        self.finish_load(key, loaded)
    }

    /// Completes a claimed load: retains the slice if any attached plan
    /// still needs it and the budget allows, publishes it, and wakes every
    /// waiter. On error the key reverts to absent.
    fn finish_load(
        &self,
        key: SliceKey,
        loaded: io::Result<Vec<u16>>,
    ) -> Result<Arc<Vec<u16>>, CacheError> {
        let mut st = lock_recovered(&self.state);
        let data = match loaded {
            Ok(v) => {
                self.stats.record_disk_read(v.len() as u64 * 2);
                Arc::new(v)
            }
            Err(error) => {
                st.entries.remove(&key);
                self.cond.notify_all();
                return Err(CacheError::Io { key, error });
            }
        };
        let bytes = data.len() * 2;
        let has_future_use = st.key_live(key);
        let fits = st.retained_bytes + bytes <= self.budget_bytes;
        if has_future_use && fits {
            st.entries.insert(key, Entry::Present(data.clone()));
            st.retained_bytes += bytes;
            self.stats.record_retained(st.retained_bytes as u64);
        } else {
            // Serve without retaining; a later chunk re-reads it.
            st.entries.remove(&key);
            if has_future_use {
                self.stats.record_budget_reject();
            }
        }
        self.cond.notify_all();
        Ok(data)
    }

    /// Marks chunk `seq` of the primary plan fully consumed. See
    /// [`advance_for`](SliceCache::advance_for).
    pub fn advance(&self, seq: usize) {
        self.advance_for(PlanHandle(0), seq);
    }

    /// Marks chunk `seq` of plan `h` fully consumed: slices no attached
    /// plan needs anymore are evicted.
    pub fn advance_for(&self, h: PlanHandle, seq: usize) {
        let mut st = lock_recovered(&self.state);
        let Some(plan) = st.plans.get_mut(&h.0) else {
            return;
        };
        plan.completed = plan.completed.max(seq + 1);
        st.evict_dead();
        self.cond.notify_all();
    }

    /// Marks the cache shut down. Retained slices and attached plans are
    /// untouched; [`SliceCacheRegistry::shutdown`] drops the cache next.
    pub fn shutdown(&self) {
        let mut st = lock_recovered(&self.state);
        st.shutdown = true;
        self.cond.notify_all();
    }
}

/// A boxed, thread-safe slice source — what a daemon-scoped cache owns.
pub type SharedSliceSource = Box<dyn SliceSource + Send + Sync>;

/// A daemon-scoped cache shared by every job reading one dataset.
pub type SharedSliceCache = SliceCache<SharedSliceSource>;

/// Daemon-scoped registry: one [`SharedSliceCache`] per dataset root, so
/// concurrent jobs over the same study share retained slices (and the one
/// retention budget), while jobs over different datasets stay independent.
///
/// All caches feed one [`IoStats`], which is how the service's `/status`
/// endpoint exposes the cross-job exactly-once property.
pub struct SliceCacheRegistry {
    budget_bytes: usize,
    stats: Arc<IoStats>,
    caches: Mutex<HashMap<PathBuf, Arc<SharedSliceCache>>>,
}

impl SliceCacheRegistry {
    /// Creates a registry whose caches each get a retention budget of
    /// `budget_bytes` and report into `stats`.
    pub fn new(budget_bytes: usize, stats: Arc<IoStats>) -> Self {
        Self {
            budget_bytes,
            stats,
            caches: Mutex::new(HashMap::new()),
        }
    }

    /// The byte budget handed to each dataset cache.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The shared I/O counters every dataset cache reports into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Returns the shared cache for `root`, opening the dataset via `open`
    /// on first use. The key is the path as given; callers should
    /// canonicalize before calling so `a/b` and `a/./b` share.
    pub fn get_or_open(
        &self,
        root: &Path,
        open: impl FnOnce() -> io::Result<SharedSliceSource>,
    ) -> io::Result<Arc<SharedSliceCache>> {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cache) = caches.get(root) {
            return Ok(Arc::clone(cache));
        }
        let cache = Arc::new(SliceCache::shared(
            open()?,
            self.budget_bytes,
            Arc::clone(&self.stats),
        ));
        caches.insert(root.to_path_buf(), Arc::clone(&cache));
        Ok(cache)
    }

    /// Drops every dataset cache with no attached plans, returning how many
    /// were released. Called by the service between jobs and on drain so an
    /// idle daemon holds no pixel data.
    pub fn release_idle(&self) -> usize {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        let before = caches.len();
        caches.retain(|_, c| c.attached_plans() > 0);
        before - caches.len()
    }

    /// Number of dataset caches currently open.
    pub fn open_caches(&self) -> usize {
        self.caches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Shuts down every open cache and drops them. Part of daemon drain.
    pub fn shutdown(&self) {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        for cache in caches.values() {
            cache.shutdown();
        }
        caches.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::ChunkGrid;
    use haralick::roi::RoiShape;
    use haralick::volume::Dims4;
    use std::sync::atomic::AtomicUsize;

    /// A deterministic in-memory source that counts reads.
    struct CountingSource {
        dims: Dims4,
        total_reads: AtomicUsize,
    }

    impl CountingSource {
        fn new(dims: Dims4) -> Self {
            Self {
                dims,
                total_reads: AtomicUsize::new(0),
            }
        }

        fn pixel(&self, key: SliceKey, x: usize, y: usize) -> u16 {
            (key.t * 31 + key.z * 17 + y * 5 + x) as u16
        }
    }

    impl SliceSource for CountingSource {
        fn slice_dims(&self) -> (usize, usize) {
            (self.dims.x, self.dims.y)
        }

        fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
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

    fn grid() -> ChunkGrid {
        ChunkGrid::new(
            Dims4::new(16, 16, 6, 6),
            RoiShape::from_lengths(4, 4, 3, 3),
            Dims4::new(8, 8, 4, 4),
        )
    }

    #[test]
    fn plan_lifetimes_are_ordered_and_cover_all_requests() {
        let g = grid();
        let plan = ReusePlan::new(&g, |_| true);
        assert_eq!(plan.chunks(), g.len());
        for seq in 0..plan.chunks() {
            for key in plan.keys_for(seq) {
                let (first, last) = plan.lifetime(*key).expect("requested key has a lifetime");
                assert!(first <= seq && seq <= last, "{key:?} used outside lifetime");
            }
        }
        // Overlapping chunks in z/t mean redundancy exists to remove.
        assert!(plan.total_requests() > plan.distinct_slices());
    }

    #[test]
    fn unlimited_budget_reads_each_slice_exactly_once() {
        let g = grid();
        let src = CountingSource::new(g.data_dims());
        let plan = ReusePlan::new(&g, |_| true);
        let distinct = plan.distinct_slices();
        let cache = SliceCache::new(&src, plan, usize::MAX, Arc::new(IoStats::default()));
        for (seq, chunk) in g.chunks().enumerate() {
            let r = chunk.input;
            for t in r.origin.t..r.end().t {
                for z in r.origin.z..r.end().z {
                    let key = SliceKey { t, z };
                    let slice = cache.get(key).unwrap();
                    assert_eq!(slice[1], src.pixel(key, 1, 0));
                }
            }
            cache.advance(seq);
        }
        assert_eq!(src.total_reads.load(Ordering::Relaxed), distinct);
        assert_eq!(cache.retained_bytes(), 0, "everything evicted at the end");
    }

    #[test]
    fn budget_is_never_exceeded_and_results_stay_correct() {
        let g = grid();
        let src = CountingSource::new(g.data_dims());
        let plan = ReusePlan::new(&g, |_| true);
        let slice_bytes = g.data_dims().x * g.data_dims().y * 2;
        let budget = 2 * slice_bytes;
        let stats = Arc::new(IoStats::default());
        let cache = SliceCache::new(&src, plan, budget, stats.clone());
        for (seq, chunk) in g.chunks().enumerate() {
            let r = chunk.input;
            for t in r.origin.t..r.end().t {
                for z in r.origin.z..r.end().z {
                    let key = SliceKey { t, z };
                    let slice = cache.get(key).unwrap();
                    assert_eq!(slice[5], src.pixel(key, 5, 0));
                    assert!(cache.retained_bytes() <= budget);
                }
            }
            cache.advance(seq);
        }
        assert!(stats.retained_high_water() as usize <= budget);
        assert!(stats.budget_rejects() > 0, "tiny budget must have rejected");
    }

    #[test]
    fn io_error_leaves_key_retryable() {
        struct Flaky {
            inner: CountingSource,
            fail_first: Mutex<bool>,
        }
        impl SliceSource for Flaky {
            fn slice_dims(&self) -> (usize, usize) {
                self.inner.slice_dims()
            }
            fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
                let mut f = self.fail_first.lock().unwrap();
                if *f {
                    *f = false;
                    return Err(io::Error::other("injected"));
                }
                self.inner.load_slice(key)
            }
        }
        let g = grid();
        let src = Flaky {
            inner: CountingSource::new(g.data_dims()),
            fail_first: Mutex::new(true),
        };
        let plan = ReusePlan::new(&g, |_| true);
        let cache = SliceCache::new(&src, plan, usize::MAX, Arc::new(IoStats::default()));
        let key = SliceKey { t: 0, z: 0 };
        assert!(cache.get(key).is_err());
        // The failed load must not wedge the entry in `Loading`.
        let slice = cache.get(key).unwrap();
        assert_eq!(slice[0], src.inner.pixel(key, 0, 0));
    }

    #[test]
    fn panicking_loader_surfaces_typed_error_not_lock_panic() {
        use std::sync::atomic::AtomicBool;
        struct Exploding {
            inner: CountingSource,
            bad: SliceKey,
            entered: AtomicBool,
        }
        impl SliceSource for Exploding {
            fn slice_dims(&self) -> (usize, usize) {
                self.inner.slice_dims()
            }
            fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
                if key == self.bad {
                    // Let the waiter observe the Loading claim first.
                    self.entered.store(true, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("loader bug");
                }
                self.inner.load_slice(key)
            }
        }
        let g = grid();
        let key = SliceKey { t: 0, z: 0 };
        let src = Exploding {
            inner: CountingSource::new(g.data_dims()),
            bad: key,
            entered: AtomicBool::new(false),
        };
        let plan = ReusePlan::new(&g, |_| true);
        let cache = SliceCache::new(&src, plan, usize::MAX, Arc::new(IoStats::default()));
        std::thread::scope(|s| {
            let loader = s.spawn(|| {
                // Filter containment in the engine; here its stand-in.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = cache.get(key);
                }));
            });
            while !src.entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // The loader holds the claim and is about to die. The waiter
            // must come back with a typed error, never a lock panic.
            let waiter = s.spawn(|| cache.get(key));
            loader.join().unwrap();
            match waiter.join().expect("waiter must not panic") {
                Err(CacheError::LoaderPanicked { key: k }) => assert_eq!(k, key),
                Err(e) => panic!("unexpected error kind: {e}"),
                Ok(_) => panic!("load of the exploding key cannot succeed"),
            }
        });
        // The cache as a whole survives: other keys still load fine.
        let other = SliceKey { t: 1, z: 1 };
        let slice = cache.get(other).unwrap();
        assert_eq!(slice[0], src.inner.pixel(other, 0, 0));
    }

    #[test]
    fn shared_cache_two_plans_read_each_slice_once_total() {
        let g = grid();
        let src = CountingSource::new(g.data_dims());
        let stats = Arc::new(IoStats::default());
        let cache = SliceCache::shared(&src, usize::MAX, stats.clone());
        let a = cache.attach(ReusePlan::new(&g, |_| true));
        let b = cache.attach(ReusePlan::new(&g, |_| true));
        let distinct = ReusePlan::new(&g, |_| true).distinct_slices();
        // Two "jobs" walk the same grid in lockstep over one shared cache.
        for (seq, chunk) in g.chunks().enumerate() {
            let r = chunk.input;
            for _job in 0..2 {
                for t in r.origin.t..r.end().t {
                    for z in r.origin.z..r.end().z {
                        let key = SliceKey { t, z };
                        let slice = cache.get(key).unwrap();
                        assert_eq!(slice[1], src.pixel(key, 1, 0));
                    }
                }
            }
            cache.advance_for(a, seq);
            cache.advance_for(b, seq);
        }
        assert_eq!(
            src.total_reads.load(Ordering::Relaxed),
            distinct,
            "both jobs together must read each slice exactly once"
        );
        cache.detach(a);
        assert!(
            cache.retained_bytes() == 0 || cache.attached_plans() == 1,
            "detaching one finished job must not strand its slices"
        );
        cache.detach(b);
        assert_eq!(cache.retained_bytes(), 0, "no jobs -> nothing retained");
        assert_eq!(cache.attached_plans(), 0);
    }

    #[test]
    fn slower_job_keeps_slices_alive_past_faster_jobs_lifetime() {
        let g = grid();
        let src = CountingSource::new(g.data_dims());
        let cache = SliceCache::shared(&src, usize::MAX, Arc::new(IoStats::default()));
        let fast = cache.attach(ReusePlan::new(&g, |_| true));
        let slow = cache.attach(ReusePlan::new(&g, |_| true));
        // The fast job consumes everything and detaches.
        for (seq, chunk) in g.chunks().enumerate() {
            let r = chunk.input;
            for t in r.origin.t..r.end().t {
                for z in r.origin.z..r.end().z {
                    cache.get(SliceKey { t, z }).unwrap();
                }
            }
            cache.advance_for(fast, seq);
        }
        cache.detach(fast);
        // The slow job has consumed nothing: every slice it will need is
        // still retained, so its whole run is served without disk I/O.
        let before = src.total_reads.load(Ordering::Relaxed);
        for (seq, chunk) in g.chunks().enumerate() {
            let r = chunk.input;
            for t in r.origin.t..r.end().t {
                for z in r.origin.z..r.end().z {
                    cache.get(SliceKey { t, z }).unwrap();
                }
            }
            cache.advance_for(slow, seq);
        }
        assert_eq!(
            src.total_reads.load(Ordering::Relaxed),
            before,
            "second job must be served entirely from retained slices"
        );
        cache.detach(slow);
        assert_eq!(cache.retained_bytes(), 0);
    }

    #[test]
    fn registry_shares_one_cache_per_root_and_releases_idle() {
        let g = grid();
        let dims = g.data_dims();
        let stats = Arc::new(IoStats::default());
        let reg = SliceCacheRegistry::new(usize::MAX, stats);
        let root = Path::new("/data/study-a");
        let c1 = reg
            .get_or_open(root, || {
                Ok(Box::new(CountingSource::new(dims)) as SharedSliceSource)
            })
            .unwrap();
        let c2 = reg
            .get_or_open(root, || panic!("second open must reuse the first"))
            .unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "same root must share one cache");
        assert_eq!(reg.open_caches(), 1);
        let h = c1.attach(ReusePlan::new(&g, |_| true));
        assert_eq!(reg.release_idle(), 0, "attached cache must survive");
        c1.detach(h);
        assert_eq!(reg.release_idle(), 1, "idle cache must be released");
        assert_eq!(reg.open_caches(), 0);
    }

    #[test]
    fn crop_matches_direct_indexing() {
        let src = CountingSource::new(Dims4::new(9, 7, 1, 1));
        let key = SliceKey { t: 0, z: 0 };
        let slice = src.load_slice(key).unwrap();
        let mut out = Vec::new();
        crop_subrect(&slice, 9, 2, 3, 4, 3, &mut out);
        for y in 0..3 {
            for x in 0..4 {
                assert_eq!(out[y * 4 + x], src.pixel(key, 2 + x, 3 + y));
            }
        }
    }
}
