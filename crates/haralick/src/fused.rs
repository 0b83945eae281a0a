//! The fused co-occurrence sheet kernel behind
//! [`crate::raster::ScanEngine::Fused`].
//!
//! One **sheet** is every placement of one `(z, t)` of the block: `extent.y`
//! output rows of `extent.x` placements. Neighbouring placements share almost
//! all their voxel pairs in both axes, so the kernel slides in both (column
//! histograms, as in Perreault & Hébert's constant-time median filter,
//! applied to co-occurrence pairs):
//!
//! * **Columns.** Directions are oriented so a voxel's partner lies `k = |dx|`
//!   planes to its left. For every voxel plane `P` of the sheet's x-span and
//!   every distinct `k < roi.x`, the column `C_k(P)` is the histogram of the
//!   pairs between plane `P` and plane `P − k` over the current row's
//!   `(y, z, t)` window extent — a short unsorted list of
//!   `(lo << 8 | hi, pairs)`. The window at `x₀` is the sum of `C_k(P)` over
//!   `x₀ + k ≤ P < x₀ + roi.x`.
//!
//! * **Line, fold.** Moving one output row down changes a column by one
//!   voxel line per direction: the line that left the window counts `−1`,
//!   the one that entered `+1` (the sheet's first row enters every line) —
//!   at most `roi.z · roi.t` pairs each, accumulated into one signed delta
//!   array with a touched-cell list. The fold walks the column, then the
//!   touched list, reading each delta and zeroing it, so duplicates fall out
//!   and a count that reaches zero leaves the column.
//!
//! * **Apply.** A row's window matrix starts empty. Walking the planes in
//!   `x` order, the columns of the plane that left the window (`C₀(Q)` and
//!   `C_k(Q + k)` for `Q = P − roi.x`) are subtracted and the freshly
//!   advanced `C_k(P)` added, through
//!   `CoMatrix::apply_upper_delta_tracked` (`_unmirrored` for the sparse
//!   representations), which keep the support bitmap and the total exact.
//!   The matrix and support are therefore equal to the reference's at every
//!   placement, and the statistics sweep exactly the non-zero cells in
//!   row-major order (`MatrixStats::refill_from_support`): the kernel is
//!   **bit-identical** to [`crate::raster::raster_scan`].
//!
//! * **Fused quantization.** [`RawLutSource`] walks raw `u16` voxels
//!   through a 65,536-entry level lookup table built once per scan from
//!   [`Quantizer::level_of`], so no intermediate quantized volume is ever
//!   materialized. Pre-quantized volumes run through [`QuantizedSource`]; the
//!   kernel is monomorphized over the [`LevelSource`] trait.
//!
//! Per placement that is about `2 · roi.z · roi.t · |D|` pair visits plus
//! `O(nnz)` list work, instead of two whole voxel planes per direction.
//! Sheets are the unit of parallel dispatch, so a block with a single
//! `(z, t)` scans on one thread. Counts cannot overflow: `scan_placements`
//! refuses a configuration whose `2 · roi.len() · |D|` exceeds the matrix's
//! `u32` cells (`coocc::max_cell_count`), and the same bound covers a
//! fold's `i32` deltas (`≤ roi.y · roi.z · roi.t · |D|`) and the `u32`
//! column counts.

use crate::coocc::CoMatrix;
use crate::features::{compute_features, FeatureSelection, MatrixStats};
use crate::quantize::Quantizer;
use crate::raster::ScanConfig;
use crate::sparse::SupportMask;
use crate::volume::{Dims4, LevelVolume, Point4, Region4};

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

/// Packed upper-triangle cell `lo << 8 | hi` of the unordered level pair
/// `(a, b)` — the index into the delta array and the key of a column entry.
/// `min`/`max` lower to conditional moves, keeping the line walk free of
/// data-dependent branches.
#[inline(always)]
fn cell(a: u8, b: u8) -> u16 {
    u16::from(a.min(b)) << 8 | u16::from(a.max(b))
}

/// Number of packed cells (`Ng ≤ 256`).
const CELLS: usize = 1 << 16;

/// Along one axis of length `len`, the voxels that have a partner at offset
/// `o` inside the window: `(first, count)`, relative to the window origin.
fn partnered(o: i32, len: usize) -> (usize, usize) {
    let first = o.min(0).unsigned_abs() as usize;
    (first, len.saturating_sub(o.unsigned_abs() as usize))
}

/// One direction, oriented so the partner lies in plane `P − k`, with its
/// clamps and linear stride worked out once per scan.
struct DirPlan {
    /// Linear-index offset from a voxel to its partner.
    stride: isize,
    /// Voxel lines with a partner in the window: first `y` offset and count.
    y: (usize, usize),
    /// Linear offsets of the partnered voxels of one line.
    voxels: Vec<usize>,
}

/// A column histogram: `(packed cell, unordered pairs)`, unsorted, no zeros.
type Column = Vec<(u16, u32)>;

/// Reusable per-worker state of the fused kernel: the tracked dense matrix
/// and statistics accumulator, the direction plans grouped by `k`, the
/// columns of one sheet and the delta array they are advanced through. One
/// instance serves every sheet a worker processes — after the first sheet
/// nothing in the per-placement loop allocates.
pub(crate) struct FusedScratch {
    matrix: CoMatrix,
    support: SupportMask,
    stats: MatrixStats,
    roi: Dims4,
    /// Placements per output row.
    width: usize,
    /// Whether the matrix is the upper-triangle-only sparse store.
    sparse: bool,
    selection: FeatureSelection,
    /// The distinct `k = |dx| < roi.x` with the directions of each.
    groups: Vec<(usize, Vec<DirPlan>)>,
    /// `C_k(P)` at `cols[P · groups.len() + group]`, `P` counted from the
    /// sheet's first plane.
    cols: Vec<Column>,
    /// Pending signed pair counts of the column being advanced, by packed
    /// cell; all zero between folds.
    delta: Vec<i32>,
    /// Cells written since the last fold, duplicates kept.
    touched: Vec<u16>,
}

impl FusedScratch {
    /// Scratch for sheets of `width` placements per row over `src` under
    /// `cfg`. Directions that can pair no two voxels of a window
    /// (a component at least as long as the ROI's extent) are dropped here.
    pub(crate) fn new<S: LevelSource>(src: &S, cfg: &ScanConfig, width: usize) -> Self {
        let (dims, roi) = (src.dims(), cfg.roi.size());
        let slice = dims.x * dims.y;
        let mut groups: Vec<(usize, Vec<DirPlan>)> = Vec::new();
        for d in &cfg.directions {
            let o = if d.dx > 0 { d.negate() } else { *d };
            let k = o.dx.unsigned_abs() as usize;
            let (z, t) = (partnered(o.dz, roi.z), partnered(o.dt, roi.t));
            let plan = DirPlan {
                stride: o.dx as isize
                    + o.dy as isize * dims.x as isize
                    + (o.dt as isize * dims.z as isize + o.dz as isize) * slice as isize,
                y: partnered(o.dy, roi.y),
                voxels: (t.0..t.0 + t.1)
                    .flat_map(|t| (z.0..z.0 + z.1).map(move |z| (t * dims.z + z) * slice))
                    .collect(),
            };
            if k >= roi.x || plan.y.1 == 0 || plan.voxels.is_empty() {
                continue;
            }
            match groups.iter_mut().find(|g| g.0 == k) {
                Some(g) => g.1.push(plan),
                None => groups.push((k, vec![plan])),
            }
        }
        let levels = src.levels();
        Self {
            matrix: CoMatrix::zeros(levels),
            support: SupportMask::empty(levels as usize * levels as usize),
            stats: MatrixStats::reusable(),
            roi,
            width,
            sparse: cfg.representation.is_sparse(),
            selection: cfg.selection,
            cols: vec![Column::new(); (roi.x + width - 1) * groups.len()],
            groups,
            delta: vec![0; CELLS],
            touched: Vec::with_capacity(4096),
        }
    }

    /// Restores the all-zero matrix/support invariant in `O(nnz)` ahead of
    /// the next row.
    fn reset_window(&mut self) {
        self.matrix.clear_cells_from_support(&self.support);
        self.support.clear_all();
    }

    /// Accumulates `by` for every pair of `plan` on the voxel line whose
    /// voxel at the window's first `(z, t)` is `first` into the delta array.
    fn accumulate_line<S: LevelSource>(&mut self, src: &S, plan: &DirPlan, first: usize, by: i32) {
        for &v in &plan.voxels {
            let idx = first + v;
            let c = cell(
                src.level(idx),
                src.level(idx.wrapping_add_signed(plan.stride)),
            );
            self.delta[c as usize] += by;
            self.touched.push(c);
        }
    }

    /// Folds the pending deltas into column `col` and leaves the delta array
    /// zero: entries the column already holds first (a count reaching zero
    /// leaves it), then the touched cells still pending, which are new.
    /// Reading a delta zeroes it, so a cell touched twice is folded once.
    fn fold(&mut self, col: usize) {
        let column = &mut self.cols[col];
        let mut i = 0;
        while i < column.len() {
            let (c, n) = column[i];
            let d = std::mem::take(&mut self.delta[c as usize]);
            debug_assert!(i64::from(n) + i64::from(d) >= 0, "column count negative");
            column[i].1 = n.wrapping_add_signed(d);
            if column[i].1 == 0 {
                column.swap_remove(i);
            } else {
                i += 1;
            }
        }
        for c in self.touched.drain(..) {
            let d = std::mem::take(&mut self.delta[c as usize]);
            debug_assert!(d >= 0, "pair left a column that never held it");
            if d != 0 {
                column.push((c, d as u32));
            }
        }
    }

    /// Adds column `col` to the window matrix, or subtracts it if `leaving`.
    /// In sparse mode the mirror cell is never written: the matrix holds
    /// upper-triangle sparse-entry counts (see
    /// [`CoMatrix::apply_upper_delta_unmirrored`]) and the downstream sweep
    /// is [`MatrixStats::refill_from_sparse_support`].
    fn apply(&mut self, col: usize, leaving: bool) {
        for &(c, n) in &self.cols[col] {
            let net = if leaving { -i64::from(n) } else { i64::from(n) };
            let (lo, hi) = ((c >> 8) as u8, c as u8);
            if self.sparse {
                self.matrix
                    .apply_upper_delta_unmirrored(lo, hi, net, &mut self.support);
            } else {
                self.matrix
                    .apply_upper_delta_tracked(lo, hi, net, &mut self.support);
            }
        }
    }

    /// Walks the sheet whose first window sits at `origin` over `rows`
    /// output rows, calling `emit(self, row, x)` with the matrix, support
    /// and total of placement `(x, row)` in place.
    ///
    /// # Panics
    /// If any window of the sheet exceeds the volume, or the scratch was
    /// built for a different level count.
    fn sweep<S: LevelSource>(
        &mut self,
        src: &S,
        origin: Point4,
        rows: usize,
        mut emit: impl FnMut(&mut Self, usize, usize),
    ) {
        assert_eq!(
            self.matrix.levels(),
            src.levels(),
            "fused scratch level count does not match source"
        );
        let (dims, roi) = (src.dims(), self.roi);
        let planes = roi.x + self.width - 1;
        // Validate the whole sheet up front — the wall every window of it
        // must stay inside.
        let span = Region4::new(origin, Dims4::new(planes, roi.y + rows - 1, roi.z, roi.t));
        assert!(
            dims.region().contains_region(&span),
            "fused scan sheet {span:?} exceeds volume {dims:?}"
        );
        let groups = std::mem::take(&mut self.groups);
        self.cols.iter_mut().for_each(Vec::clear);
        for row in 0..rows {
            self.reset_window();
            for p in 0..planes {
                for (g, (k, plans)) in groups.iter().enumerate() {
                    if p < *k {
                        // The partner plane is left of the sheet's span.
                        continue;
                    }
                    let col = p * groups.len() + g;
                    for plan in plans {
                        let line = |y: usize| {
                            dims.index(Point4::new(
                                origin.x + p,
                                origin.y + row + plan.y.0 + y,
                                origin.z,
                                origin.t,
                            ))
                        };
                        if row == 0 {
                            for y in 0..plan.y.1 {
                                self.accumulate_line(src, plan, line(y), 1);
                            }
                        } else {
                            self.accumulate_line(src, plan, line(0) - dims.x, -1);
                            self.accumulate_line(src, plan, line(plan.y.1 - 1), 1);
                        }
                    }
                    self.fold(col);
                    if p >= roi.x {
                        self.apply((p - roi.x + k) * groups.len() + g, true);
                    }
                    self.apply(col, false);
                }
                if p + 1 >= roi.x {
                    emit(self, row, p + 1 - roi.x);
                }
            }
        }
        self.groups = groups;
    }

    /// Computes one sheet — `rows` output rows of this scratch's width, the
    /// first window at `origin` — writing `selection.len()` values per
    /// placement into `out` (row-major), bit-identical to the reference
    /// scan for every representation.
    ///
    /// # Panics
    /// If any window of the sheet exceeds the volume, or the scratch was
    /// built for a different level count.
    pub(crate) fn scan_sheet<S: LevelSource>(
        &mut self,
        src: &S,
        origin: Point4,
        rows: usize,
        out: &mut [f64],
    ) {
        let (sel, width) = (self.selection, self.width);
        let n = sel.len();
        debug_assert_eq!(out.len(), rows * width * n);
        self.sweep(src, origin, rows, |s, row, x| {
            if s.sparse {
                s.stats
                    .refill_from_sparse_support(&s.matrix, &s.support, &sel);
            } else {
                s.stats.refill_from_support(&s.matrix, &s.support, &sel);
            }
            let values = compute_features(&s.stats, &sel);
            let at = (row * width + x) * n;
            for (slot, feature) in sel.iter().enumerate() {
                out[at + slot] = values.get(feature).expect("selected feature computed");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::{Direction, DirectionSet};
    use crate::raster::{Representation, ScanEngine, TSlidePolicy};
    use crate::roi::RoiShape;
    use crate::sparse::{SparseCoMatrix, SparseEntry};

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

    fn config(roi: Dims4, directions: DirectionSet, representation: Representation) -> ScanConfig {
        ScanConfig {
            roi: RoiShape::new(roi),
            directions,
            selection: FeatureSelection::all(),
            representation,
            engine: ScanEngine::Fused,
            t_slide: TSlidePolicy::Auto,
        }
    }

    /// Distance 1 (one, the paper's, all 40), distance 2, and mixed `|dx|`
    /// with a displacement longer than the ROI.
    fn direction_sets() -> [DirectionSet; 5] {
        let d = Direction::new;
        [
            DirectionSet::single(d(1, 1, 1, 1)),
            DirectionSet::paper_4d(1),
            DirectionSet::all_unique_4d(1),
            DirectionSet::all_unique_4d(2),
            DirectionSet::new([d(2, 0, 0, 0), d(-2, 1, 1, 0), d(3, 0, 0, 1), d(0, 4, 0, 0)]),
        ]
    }

    fn support_cells(mask: &SupportMask) -> Vec<usize> {
        let mut cells = Vec::new();
        mask.for_each_set(|i| cells.push(i));
        cells
    }

    #[test]
    fn matrix_and_support_match_rebuild_at_every_placement() {
        let vol = volume(Dims4::new(12, 9, 4, 4), 8, 1);
        let roi = Dims4::new(5, 4, 2, 2);
        let origin = Point4::new(1, 1, 1, 2);
        for dirs in direction_sets() {
            let src = QuantizedSource::new(&vol);
            let cfg = config(roi, dirs, Representation::Full);
            let mut scratch = FusedScratch::new(&src, &cfg, 7);
            let mut seen = 0;
            scratch.sweep(&src, origin, 5, |s, row, x| {
                let win = Region4::new(Point4::new(origin.x + x, origin.y + row, 1, 2), roi);
                let expect = CoMatrix::from_region(&vol, win, &cfg.directions);
                assert_eq!(&s.matrix, &expect, "matrix drifted at {win:?}");
                assert_eq!(
                    support_cells(&s.support),
                    support_cells(&SupportMask::from_matrix(&expect)),
                    "support drifted at {win:?}"
                );
                seen += 1;
            });
            assert_eq!(seen, 7 * 5);
        }
    }

    #[test]
    fn sparse_store_emits_sparse_entries_directly() {
        // The sparse-mode matrix is an upper-triangle-only store whose
        // support-ordered cells are exactly the SparseCoMatrix entry list —
        // no densify-then-sparsify sweep — at every placement.
        let vol = volume(Dims4::new(9, 8, 3, 6), 8, 6);
        let roi = Dims4::new(5, 4, 2, 2);
        let origin = Point4::new(0, 1, 0, 1);
        for dirs in direction_sets() {
            let src = QuantizedSource::new(&vol);
            let cfg = config(roi, dirs, Representation::Sparse);
            let mut scratch = FusedScratch::new(&src, &cfg, 5);
            scratch.sweep(&src, origin, 4, |s, row, x| {
                let win = Region4::new(Point4::new(x, origin.y + row, 0, 1), roi);
                let expect =
                    SparseCoMatrix::from_dense(&CoMatrix::from_region(&vol, win, &cfg.directions));
                let entries: Vec<SparseEntry> = support_cells(&s.support)
                    .into_iter()
                    .map(|idx| SparseEntry {
                        i: (idx / 8) as u8,
                        j: (idx % 8) as u8,
                        count: s.matrix.as_slice()[idx],
                    })
                    .collect();
                assert_eq!(entries, expect.entries(), "sparse entries drifted");
                assert_eq!(s.matrix.total(), expect.total(), "symmetric total drifted");
            });
        }
    }

    #[test]
    fn columns_equal_their_slab_histograms_after_the_last_row() {
        let vol = volume(Dims4::new(11, 9, 3, 4), 8, 4);
        let roi = Dims4::new(4, 3, 2, 3);
        let origin = Point4::new(1, 0, 1, 0);
        let (width, rows) = (6, 6);
        for dirs in direction_sets() {
            let src = QuantizedSource::new(&vol);
            let cfg = config(roi, dirs, Representation::Full);
            let mut scratch = FusedScratch::new(&src, &cfg, width);
            scratch.sweep(&src, origin, rows, |_, _, _| {});
            for (g, (k, _)) in scratch.groups.iter().enumerate() {
                // Pairs spanning all k + 1 planes of a slab are the column's.
                let of_k = DirectionSet::new(
                    cfg.directions
                        .iter()
                        .copied()
                        .filter(|d| d.dx.unsigned_abs() as usize == *k),
                );
                for p in *k..roi.x + width - 1 {
                    let slab = Region4::new(
                        Point4::new(origin.x + p - k, origin.y + rows - 1, origin.z, origin.t),
                        Dims4::new(k + 1, roi.y, roi.z, roi.t),
                    );
                    let expect = CoMatrix::from_region(&vol, slab, &of_k);
                    let mut column = scratch.cols[p * scratch.groups.len() + g].clone();
                    column.sort_unstable();
                    let mut rebuilt = Vec::new();
                    for (lo, hi) in (0..8).flat_map(|lo| (lo..8).map(move |hi| (lo, hi))) {
                        let pairs = expect.count(lo, hi) / if lo == hi { 2 } else { 1 };
                        if pairs != 0 {
                            rebuilt.push((cell(lo as u8, hi as u8), pairs));
                        }
                    }
                    assert_eq!(column, rebuilt, "column k = {k}, plane {p} drifted");
                }
            }
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
    fn fused_sheet_matches_reference_block() {
        let vol = volume(Dims4::new(12, 8, 3, 3), 8, 3);
        let cfg = config(
            Dims4::new(4, 3, 2, 2),
            DirectionSet::paper_4d(1),
            Representation::Full,
        );
        let reference = crate::raster::raster_scan(&vol, &cfg);
        let (width, rows) = (reference.dims().x, reference.dims().y);
        let n = cfg.selection.len();
        let src = QuantizedSource::new(&vol);
        let mut scratch = FusedScratch::new(&src, &cfg, width);
        let mut out = vec![0.0; rows * width * n];
        scratch.scan_sheet(&src, Point4::new(0, 0, 1, 0), rows, &mut out);
        for (i, got) in out.chunks(n).enumerate() {
            let p = Point4::new(i % width, i / width, 1, 0);
            assert_eq!(got, reference.values_at(p), "fused sheet diverged at {p:?}");
        }
    }
}
