//! The fused co-occurrence row kernel behind
//! [`crate::raster::ScanEngine::Fused`].
//!
//! Consecutive placements along `x` share all but one voxel plane, so the
//! kernel builds each output row's first window once and then slides
//! (`O(plane · |D|)` per placement), rebuilding statistics from the
//! dirty-cell support bitmap (`O(nnz)`). To keep the pair stream from
//! serializing on read-modify-writes spread over a 256 KiB matrix, it
//! applies the sub-histogram decomposition of GPU GLCM kernels (independent
//! per-thread histograms merged once at the end):
//!
//! * **Fused quantization.** [`RawLutSource`] walks raw `u16` voxels
//!   through a 65,536-entry level lookup table built once per scan from
//!   [`Quantizer::level_of`], so no intermediate quantized volume is ever
//!   materialized — one pass over the data instead of two, bit-identical
//!   levels. Pre-quantized volumes run through [`QuantizedSource`]; the
//!   kernel is monomorphized over the [`LevelSource`] trait.
//!
//! * **Per-lane sub-histograms.** Each voxel pair folds into one of
//!   [`LANES`] independent signed 32-bit delta histograms, indexed by the
//!   unordered pair's upper-triangle cell (`min·Ng + max`, branch-free
//!   `min`/`max`). The inner loops are unrolled [`LANES`]-wide — one lane
//!   per leg — so consecutive pairs hitting the same cell (the common case
//!   on smooth images) never serialize on one memory location, and the
//!   address arithmetic is plain strided indexing a vectorizer can chew
//!   on. Departing-plane pairs accumulate `−1`, arriving-plane pairs `+1`;
//!   the row-start window build is just a delta against the empty matrix.
//!
//! * **One merge per placement.** Touched cells are recorded in a list
//!   (duplicates and all) and deduplicated at merge time against an
//!   epoch-stamp array; each distinct cell's net delta is folded into the
//!   dense [`CoMatrix`], the support bitmap and the total by
//!   `CoMatrix::apply_upper_delta_tracked`. The per-placement statistics
//!   then sweep exactly the non-zero cells in row-major order
//!   (`MatrixStats::refill_from_support`) — the same cells in the same
//!   order as the reference's zero-skip pass, so the kernel is
//!   **bit-identical** to [`crate::raster::raster_scan`].

use crate::coocc::CoMatrix;
use crate::direction::DirectionSet;
use crate::features::{compute_features, MatrixStats};
use crate::quantize::Quantizer;
use crate::raster::ScanConfig;
use crate::sparse::SupportMask;
use crate::volume::{Dims4, LevelVolume, Point4, Region4};

/// Number of independent sub-histogram lanes (and the inner-loop unroll
/// width). Four keeps the hot lane slabs within L2 at `Ng = 256` while
/// giving the common same-cell pair runs four independent accumulators.
pub const LANES: usize = 4;

/// A source of quantized gray levels in x-fastest linear order. The fused
/// kernel is monomorphized over this, so pre-quantized volumes pay no LUT
/// indirection and raw volumes quantize on the fly.
pub(crate) trait LevelSource: Sync {
    /// Volume extents.
    fn dims(&self) -> Dims4;
    /// Number of gray levels `Ng`.
    fn levels(&self) -> u16;
    /// Gray level at linear index `idx`.
    fn level(&self, idx: usize) -> u8;
}

/// Levels read straight out of a pre-quantized volume.
pub(crate) struct QuantizedSource<'a> {
    vol: &'a LevelVolume,
}

impl<'a> QuantizedSource<'a> {
    pub(crate) fn new(vol: &'a LevelVolume) -> Self {
        Self { vol }
    }
}

impl LevelSource for QuantizedSource<'_> {
    #[inline(always)]
    fn dims(&self) -> Dims4 {
        self.vol.dims()
    }

    #[inline(always)]
    fn levels(&self) -> u16 {
        self.vol.levels()
    }

    #[inline(always)]
    fn level(&self, idx: usize) -> u8 {
        self.vol.as_slice()[idx]
    }
}

/// Raw `u16` voxels quantized on the fly through a full-range lookup
/// table built once from [`Quantizer::level_of`] — bit-identical to
/// quantizing the volume up front, without the intermediate volume pass
/// or its allocation.
pub(crate) struct RawLutSource<'a> {
    dims: Dims4,
    levels: u16,
    raw: &'a [u16],
    lut: Box<[u8]>,
}

impl<'a> RawLutSource<'a> {
    /// # Panics
    /// If `raw.len() != dims.len()`.
    pub(crate) fn new(dims: Dims4, raw: &'a [u16], quantizer: &Quantizer) -> Self {
        assert_eq!(raw.len(), dims.len(), "raw buffer does not match dims");
        let lut: Box<[u8]> = (0..=u16::MAX).map(|v| quantizer.level_of(v)).collect();
        Self {
            dims,
            levels: quantizer.levels(),
            raw,
            lut,
        }
    }
}

impl LevelSource for RawLutSource<'_> {
    #[inline(always)]
    fn dims(&self) -> Dims4 {
        self.dims
    }

    #[inline(always)]
    fn levels(&self) -> u16 {
        self.levels
    }

    #[inline(always)]
    fn level(&self, idx: usize) -> u8 {
        self.lut[self.raw[idx] as usize]
    }
}

/// Upper-triangle cell index of the unordered level pair `(a, b)`.
/// `min`/`max` lower to conditional moves, keeping the unrolled inner
/// loops free of data-dependent branches.
#[inline(always)]
fn cell(ng: usize, a: u8, b: u8) -> u32 {
    let lo = a.min(b) as usize;
    let hi = a.max(b) as usize;
    (lo * ng + hi) as u32
}

/// Reusable per-worker scratch of the fused kernel: the tracked dense
/// matrix, the lane sub-histograms, the touched-cell list with its epoch
/// stamps, and the reusable statistics accumulator. One instance serves
/// every row a worker processes — nothing in the per-placement loop
/// allocates.
pub(crate) struct FusedScratch {
    matrix: CoMatrix,
    support: SupportMask,
    stats: MatrixStats,
    /// [`LANES`] concatenated `Ng²` signed delta sub-histograms.
    lanes: Vec<i32>,
    /// Upper-triangle cells touched since the last merge, duplicates kept;
    /// the merge deduplicates against `stamp`.
    touched: Vec<u32>,
    /// Merge epoch that last visited each cell.
    stamp: Vec<u32>,
    epoch: u32,
}

impl FusedScratch {
    /// Scratch for `levels` gray levels.
    pub(crate) fn new(levels: u16) -> Self {
        let cells = levels as usize * levels as usize;
        Self {
            matrix: CoMatrix::zeros(levels),
            support: SupportMask::empty(cells),
            stats: MatrixStats::reusable(),
            lanes: vec![0; LANES * cells],
            touched: Vec::with_capacity(4096),
            stamp: vec![0; cells],
            epoch: 0,
        }
    }

    /// Restores the all-zero matrix/support invariant in `O(nnz)` ahead of
    /// the next row's window build.
    fn reset_window(&mut self) {
        self.matrix.clear_cells_from_support(&self.support);
        self.support.clear_all();
    }

    /// Folds every pending lane delta into the matrix, support bitmap and
    /// total — the once-per-placement merge. Net-zero cells (a pair both
    /// departed and arrived) change no count, so skipping them leaves the
    /// support, and therefore the statistics sweep order, untouched. In
    /// `sparse` mode the mirror cell is never written: the matrix holds
    /// upper-triangle sparse-entry counts (see
    /// [`CoMatrix::apply_upper_delta_unmirrored`]) and the downstream
    /// sweep is [`MatrixStats::refill_from_sparse_support`].
    fn merge(&mut self, sparse: bool) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // A u32 wrap could resurrect stale stamps; restart the epoch
            // space instead.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let ng = self.matrix.levels() as usize;
        let cells = ng * ng;
        for &cell_u in &self.touched {
            let cell = cell_u as usize;
            if self.stamp[cell] == epoch {
                continue;
            }
            self.stamp[cell] = epoch;
            let mut net = 0i64;
            let mut lane = cell;
            for _ in 0..LANES {
                net += i64::from(self.lanes[lane]);
                self.lanes[lane] = 0;
                lane += cells;
            }
            if net != 0 {
                let lo = (cell / ng) as u8;
                let hi = (cell % ng) as u8;
                if sparse {
                    self.matrix
                        .apply_upper_delta_unmirrored(lo, hi, net, &mut self.support);
                } else {
                    self.matrix
                        .apply_upper_delta_tracked(lo, hi, net, &mut self.support);
                }
            }
        }
        self.touched.clear();
    }

    /// Accumulates the pair deltas of the plane `x = plane_x` of window
    /// `win` into the lanes with the given `sign` (`+1` arriving, `-1`
    /// departing). Pair coverage mirrors the `apply_plane` of
    /// [`crate::window::SlidingWindow`] exactly: per-direction
    /// forward/backward passes with pre-clamped loop bounds, in-plane pairs
    /// counted by the forward pass alone, partners addressed by a linear
    /// stride. The y-walk is unrolled [`LANES`]-wide, one independent lane
    /// per leg.
    fn accumulate_plane<S: LevelSource>(
        &mut self,
        src: &S,
        dirs: &DirectionSet,
        win: Region4,
        plane_x: usize,
        sign: i32,
    ) {
        let dims = src.dims();
        let end = win.end();
        let ng = self.matrix.levels() as usize;
        let cells = ng * ng;
        for d in dirs {
            let fwd = (d.dx as i64, d.dy as i64, d.dz as i64, d.dt as i64);
            let bwd = (-fwd.0, -fwd.1, -fwd.2, -fwd.3);
            for (pass, (dx, dy, dz, dt)) in [fwd, bwd].into_iter().enumerate() {
                let qx = plane_x as i64 + dx;
                if (pass == 1 && dx == 0) || qx < win.origin.x as i64 || qx >= end.x as i64 {
                    continue;
                }
                let y_lo = win.origin.y as i64 + (-dy).max(0);
                let y_hi = end.y as i64 - dy.max(0);
                let z_lo = win.origin.z as i64 + (-dz).max(0);
                let z_hi = end.z as i64 - dz.max(0);
                let t_lo = win.origin.t as i64 + (-dt).max(0);
                let t_hi = end.t as i64 - dt.max(0);
                if y_lo >= y_hi || z_lo >= z_hi || t_lo >= t_hi {
                    continue;
                }
                let stride = dx
                    + dy * dims.x as i64
                    + dz * (dims.x * dims.y) as i64
                    + dt * (dims.x * dims.y * dims.z) as i64;
                let step = dims.x;
                for t in t_lo..t_hi {
                    for z in z_lo..z_hi {
                        let mut base =
                            ((t as usize * dims.z + z as usize) * dims.y + y_lo as usize) * dims.x
                                + plane_x;
                        let mut y = y_lo;
                        while y + LANES as i64 <= y_hi {
                            let i1 = base + step;
                            let i2 = base + 2 * step;
                            let i3 = base + 3 * step;
                            let c0 = cell(
                                ng,
                                src.level(base),
                                src.level((base as i64 + stride) as usize),
                            );
                            let c1 =
                                cell(ng, src.level(i1), src.level((i1 as i64 + stride) as usize));
                            let c2 =
                                cell(ng, src.level(i2), src.level((i2 as i64 + stride) as usize));
                            let c3 =
                                cell(ng, src.level(i3), src.level((i3 as i64 + stride) as usize));
                            self.lanes[c0 as usize] += sign;
                            self.lanes[cells + c1 as usize] += sign;
                            self.lanes[2 * cells + c2 as usize] += sign;
                            self.lanes[3 * cells + c3 as usize] += sign;
                            self.touched.extend_from_slice(&[c0, c1, c2, c3]);
                            base += LANES * step;
                            y += LANES as i64;
                        }
                        while y < y_hi {
                            let c0 = cell(
                                ng,
                                src.level(base),
                                src.level((base as i64 + stride) as usize),
                            );
                            self.lanes[c0 as usize] += sign;
                            self.touched.push(c0);
                            base += step;
                            y += 1;
                        }
                    }
                }
            }
        }
    }

    /// Accumulates every pair of the full window `win` into the lanes (all
    /// deltas `+1` against the empty matrix) — the row-start build. The
    /// window is walked one (t, z) plane at a time with the direction loop
    /// *inside* the plane, so a plane's source rows are revisited `|D|`
    /// times while cache-resident. Pair coverage is exactly
    /// [`CoMatrix::accumulate`]'s clamped region, partitioned by (t, z);
    /// the x inner loop is unrolled [`LANES`]-wide into independent lanes.
    fn accumulate_window<S: LevelSource>(&mut self, src: &S, dirs: &DirectionSet, win: Region4) {
        let dims = src.dims();
        let end = win.end();
        let ng = self.matrix.levels() as usize;
        let cells = ng * ng;
        for t in win.origin.t..end.t {
            for z in win.origin.z..end.z {
                for d in dirs {
                    let (dx, dy, dz, dt) = (d.dx as i64, d.dy as i64, d.dz as i64, d.dt as i64);
                    let t_lo = win.origin.t as i64 + (-dt).max(0);
                    let t_hi = end.t as i64 - dt.max(0);
                    let z_lo = win.origin.z as i64 + (-dz).max(0);
                    let z_hi = end.z as i64 - dz.max(0);
                    if (t as i64) < t_lo
                        || t as i64 >= t_hi
                        || (z as i64) < z_lo
                        || z as i64 >= z_hi
                    {
                        continue;
                    }
                    let x_lo = win.origin.x as i64 + (-dx).max(0);
                    let x_hi = end.x as i64 - dx.max(0);
                    let y_lo = win.origin.y as i64 + (-dy).max(0);
                    let y_hi = end.y as i64 - dy.max(0);
                    if x_lo >= x_hi || y_lo >= y_hi {
                        continue;
                    }
                    let stride = dx
                        + dy * dims.x as i64
                        + dz * (dims.x * dims.y) as i64
                        + dt * (dims.x * dims.y * dims.z) as i64;
                    for y in y_lo..y_hi {
                        let row = ((t * dims.z + z) * dims.y + y as usize) * dims.x;
                        let mut x = x_lo;
                        while x + LANES as i64 <= x_hi {
                            let i0 = (row as i64 + x) as usize;
                            let p0 = (i0 as i64 + stride) as usize;
                            let c0 = cell(ng, src.level(i0), src.level(p0));
                            let c1 = cell(ng, src.level(i0 + 1), src.level(p0 + 1));
                            let c2 = cell(ng, src.level(i0 + 2), src.level(p0 + 2));
                            let c3 = cell(ng, src.level(i0 + 3), src.level(p0 + 3));
                            self.lanes[c0 as usize] += 1;
                            self.lanes[cells + c1 as usize] += 1;
                            self.lanes[2 * cells + c2 as usize] += 1;
                            self.lanes[3 * cells + c3 as usize] += 1;
                            self.touched.extend_from_slice(&[c0, c1, c2, c3]);
                            x += LANES as i64;
                        }
                        while x < x_hi {
                            let i0 = (row as i64 + x) as usize;
                            let c0 =
                                cell(ng, src.level(i0), src.level((i0 as i64 + stride) as usize));
                            self.lanes[c0 as usize] += 1;
                            self.touched.push(c0);
                            x += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Computes one output row of `width` placements starting at `row_origin`
/// through the fused kernel, writing `selection.len()` values per
/// placement into `out_row`, bit-identical to the reference scan. Sparse
/// representations run through the unmirrored merge and the sparse-order
/// statistics sweep, bit-identical to the sparse reference.
///
/// # Panics
/// If any window of the row exceeds the volume, or `scratch` was built
/// for a different level count.
pub(crate) fn scan_row_fused<S: LevelSource>(
    src: &S,
    cfg: &ScanConfig,
    row_origin: Point4,
    width: usize,
    out_row: &mut [f64],
    scratch: &mut FusedScratch,
) {
    assert_eq!(
        scratch.matrix.levels(),
        src.levels(),
        "fused scratch level count does not match source"
    );
    let n = cfg.selection.len();
    debug_assert_eq!(out_row.len(), width * n);
    let roi = cfg.roi.size();
    let dims = src.dims();
    // Validate the whole row up front — the same wall the sliding window's
    // per-slide assertion enforces.
    let span = Region4::new(
        row_origin,
        Dims4::new(roi.x + width - 1, roi.y, roi.z, roi.t),
    );
    assert!(
        dims.region().contains_region(&span),
        "fused scan row {span:?} exceeds volume {dims:?}"
    );
    let sparse = cfg.representation.is_sparse();
    scratch.reset_window();
    scratch.accumulate_window(src, &cfg.directions, Region4::new(row_origin, roi));
    scratch.merge(sparse);
    let mut origin = row_origin;
    for x in 0..width {
        if x > 0 {
            let old = Region4::new(origin, roi);
            scratch.accumulate_plane(src, &cfg.directions, old, origin.x, -1);
            origin.x += 1;
            let new = Region4::new(origin, roi);
            scratch.accumulate_plane(src, &cfg.directions, new, origin.x + roi.x - 1, 1);
            scratch.merge(sparse);
        }
        if sparse {
            scratch.stats.refill_from_sparse_support(
                &scratch.matrix,
                &scratch.support,
                &cfg.selection,
            );
        } else {
            scratch
                .stats
                .refill_from_support(&scratch.matrix, &scratch.support, &cfg.selection);
        }
        let values = compute_features(&scratch.stats, &cfg.selection);
        for (slot, feature) in cfg.selection.iter().enumerate() {
            out_row[x * n + slot] = values.get(feature).expect("selected feature computed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::features::FeatureSelection;
    use crate::raster::{Representation, ScanEngine, TSlidePolicy};
    use crate::roi::RoiShape;

    fn volume(dims: Dims4, ng: u16, seed: usize) -> LevelVolume {
        let data: Vec<u8> = dims
            .region()
            .points()
            .map(|p| {
                (((p.x * 7 + p.y * 3 + p.z * 5 + p.t * 11 + seed) * 2654435761) % ng as usize) as u8
            })
            .collect();
        LevelVolume::from_raw(dims, data, ng).unwrap()
    }

    fn check_state(scratch: &FusedScratch, vol: &LevelVolume, win: Region4, dirs: &DirectionSet) {
        let expect = CoMatrix::from_region(vol, win, dirs);
        assert_eq!(&scratch.matrix, &expect, "matrix drifted at {win:?}");
        let fresh = SupportMask::from_matrix(&expect);
        let mut a = Vec::new();
        scratch.support.for_each_set(|i| a.push(i));
        let mut b = Vec::new();
        fresh.for_each_set(|i| b.push(i));
        assert_eq!(a, b, "support drifted at {win:?}");
    }

    #[test]
    fn build_and_slides_match_rebuild() {
        let vol = volume(Dims4::new(12, 9, 4, 4), 8, 1);
        let roi = Dims4::new(5, 4, 2, 2);
        for dirs in [
            DirectionSet::single(Direction::new(1, 1, 1, 1)),
            DirectionSet::paper_4d(1),
            DirectionSet::all_unique_4d(1),
        ] {
            let src = QuantizedSource::new(&vol);
            let mut scratch = FusedScratch::new(vol.levels());
            let mut origin = Point4::new(0, 1, 1, 1);
            scratch.reset_window();
            scratch.accumulate_window(&src, &dirs, Region4::new(origin, roi));
            scratch.merge(false);
            check_state(&scratch, &vol, Region4::new(origin, roi), &dirs);
            for _ in 0..7 {
                let old = Region4::new(origin, roi);
                scratch.accumulate_plane(&src, &dirs, old, origin.x, -1);
                origin.x += 1;
                let new = Region4::new(origin, roi);
                scratch.accumulate_plane(&src, &dirs, new, origin.x + roi.x - 1, 1);
                scratch.merge(false);
                check_state(&scratch, &vol, new, &dirs);
            }
        }
    }

    #[test]
    fn sparse_merge_emits_sparse_entries_directly() {
        // The sparse-mode merge keeps an upper-triangle-only store whose
        // support-ordered cells are exactly the SparseCoMatrix entry list —
        // no densify-then-sparsify sweep — including after x slides.
        use crate::sparse::{SparseCoMatrix, SparseEntry};
        fn emitted(scratch: &FusedScratch) -> (Vec<SparseEntry>, u64) {
            let ng = scratch.matrix.levels() as usize;
            let mut entries = Vec::new();
            scratch.support.for_each_set(|idx| {
                entries.push(SparseEntry {
                    i: (idx / ng) as u8,
                    j: (idx % ng) as u8,
                    count: scratch.matrix.as_slice()[idx],
                });
            });
            (entries, scratch.matrix.total())
        }
        let vol = volume(Dims4::new(9, 6, 3, 6), 8, 6);
        let roi = Dims4::new(5, 4, 2, 2);
        let dirs = DirectionSet::paper_4d(1);
        let src = QuantizedSource::new(&vol);
        let mut scratch = FusedScratch::new(vol.levels());
        let mut origin = Point4::new(0, 1, 0, 1);
        scratch.reset_window();
        scratch.accumulate_window(&src, &dirs, Region4::new(origin, roi));
        scratch.merge(true);
        let check = |scratch: &FusedScratch, origin: Point4| {
            let expect = SparseCoMatrix::from_dense(&CoMatrix::from_region(
                &vol,
                Region4::new(origin, roi),
                &dirs,
            ));
            let (entries, total) = emitted(scratch);
            assert_eq!(entries, expect.entries(), "sparse entries drifted");
            assert_eq!(total, expect.total(), "symmetric total drifted");
        };
        check(&scratch, origin);
        for _ in 0..4 {
            let old = Region4::new(origin, roi);
            scratch.accumulate_plane(&src, &dirs, old, origin.x, -1);
            origin.x += 1;
            let new = Region4::new(origin, roi);
            scratch.accumulate_plane(&src, &dirs, new, origin.x + roi.x - 1, 1);
            scratch.merge(true);
            check(&scratch, origin);
        }
    }

    #[test]
    fn lut_source_matches_quantize() {
        let dims = Dims4::new(9, 7, 3, 2);
        let raw: Vec<u16> = (0..dims.len())
            .map(|i| ((i * 2654435761) % 4001) as u16)
            .collect();
        let q = Quantizer::linear(16, 0, 4000);
        let vol = q.quantize(dims, &raw);
        let src = RawLutSource::new(dims, &raw, &q);
        assert_eq!(src.levels(), vol.levels());
        for idx in 0..dims.len() {
            assert_eq!(src.level(idx), vol.as_slice()[idx], "level {idx} diverged");
        }
    }

    #[test]
    fn fused_row_matches_reference_row() {
        let vol = volume(Dims4::new(12, 8, 3, 3), 8, 3);
        let cfg = ScanConfig {
            roi: RoiShape::from_lengths(4, 3, 2, 2),
            directions: DirectionSet::paper_4d(1),
            selection: FeatureSelection::all(),
            representation: Representation::Full,
            engine: ScanEngine::Fused,
            t_slide: TSlidePolicy::Auto,
        };
        let reference = crate::raster::raster_scan(&vol, &cfg);
        let width = reference.dims().x;
        let n = cfg.selection.len();
        let src = QuantizedSource::new(&vol);
        let mut scratch = FusedScratch::new(vol.levels());
        let mut out = vec![0.0; width * n];
        let row_origin = Point4::new(0, 2, 1, 0);
        scan_row_fused(&src, &cfg, row_origin, width, &mut out, &mut scratch);
        for x in 0..width {
            let p = Point4::new(x, 2, 1, 0);
            assert_eq!(
                &out[x * n..(x + 1) * n],
                reference.values_at(p),
                "fused row diverged at x = {x}"
            );
        }
    }
}
