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
//!   array. A row step walks one flat list per `k`, built once per scan:
//!   for every direction's partnered voxels, the leaving and entering
//!   voxel's offsets from the previous row's first line in plane `P` and
//!   the stride to their partners, so no line index is recomputed per
//!   direction. A cell is listed in the touched buffer only when its delta was
//!   zero before the pair (a branch-free length bump), so the list holds
//!   about one entry per distinct cell rather than one per pair. The fold
//!   walks the column, then the touched list, reading each delta and
//!   zeroing it, so a cell listed twice is folded once and a count that
//!   reaches zero leaves the column.
//!
//! * **Apply.** A row's window matrix starts empty. Walking the planes in
//!   `x` order, the freshly advanced columns `C_k(P)` are added into the
//!   (all zero) delta array and the columns of the plane that left the
//!   window (`C₀(Q)` and `C_k(Q + k)` for `Q = P − roi.x`) subtracted,
//!   listing first touches as above. Each listed cell with a non-zero net —
//!   the two sides share most of their cells — then moves once, and its old
//!   and new count move the statistics' integer moments. A scan whose
//!   selection reads no entry list (no entropy, no f12–f14; the paper's
//!   four features) keeps one upper-triangle count per cell and only the
//!   moments the selection reads, summed in locals across the apply
//!   (`features::Moments::shift_each`): no mirror cell and no support
//!   bitmap. Any other selection, and every visit, keeps the tracked
//!   matrix: `CoMatrix::apply_upper_delta_tracked` (`_unmirrored` for the
//!   sparse representations), which keep the support bitmap and the total
//!   exact, and every moment (`features::Moments::shift`). None of these
//!   depends on the order of updates, so the matrix, support and moments
//!   are equal to the reference's at every placement. After a row's last
//!   placement the store is emptied: the tracked one through its support,
//!   the moments-only one by zeroing every cell of the last window's
//!   columns.
//!
//! * **Emit.** Each placement is finalized straight into its slots of the
//!   output sheet (`features::finalize_into`): f1–f8, f10 and f11 from the
//!   moments alone, and only a selection with entropy or f12–f14 (or a
//!   visit) sweeps the support for the entry list, in the reference's
//!   visiting order
//!   (`MatrixStats::collect_entries`). An apply reports whether any cell
//!   moved; a placement after the row's first whose apply moved none has
//!   its left neighbour's matrix, so it copies that neighbour's values
//!   instead. The kernel is **bit-identical** to
//!   [`crate::raster::raster_scan`].
//!
//! Per placement that is about `2 · roi.z · roi.t · |D|` pair visits plus
//! `O(nnz)` list work over the distinct cells touched, instead of two whole
//! voxel planes per direction. Levels are read from a quantized
//! [`LevelVolume`]; raw chunks are quantized once, up front
//! (`scan_placements_raw`). A block's sheets are scanned one after another
//! through one `FusedScratch`. Counts cannot overflow: `scan_placements`
//! refuses a configuration whose `2 · roi.len() · |D|` exceeds the matrix's
//! `u32` cells (`coocc::max_cell_count`), and the same bound covers a
//! fold's and the netted apply's `i32` deltas
//! (`≤ roi.y · roi.z · roi.t · |D|`) and the `u32` column counts.

use crate::coocc::CoMatrix;
use crate::features::{finalize_into, FeatureSelection, MatrixStats};
use crate::raster::ScanConfig;
use crate::sparse::SupportMask;
use crate::volume::{Dims4, LevelVolume, Point4, Region4};

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

/// Adds `by` to cell `c`'s pending delta. `c` is written at the end of the
/// touched list, which only grows if the delta was zero before, so each
/// cell is listed on its first touch — and again only after its delta
/// returned to zero, which the readers' take-and-zero absorbs.
#[inline(always)]
fn touch(delta: &mut [i32; CELLS], touched: &mut [u16], pending: &mut usize, c: u16, by: i32) {
    let old = delta[c as usize];
    delta[c as usize] = old + by;
    touched[*pending] = c;
    *pending += usize::from(old == 0);
}

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

/// One partnered voxel of a row step: the linear offsets, from the previous
/// row's first line in plane `P`, of the voxel whose pair leaves the window
/// and of the one whose pair enters it, and the stride to their partners.
type Step = (usize, usize, isize);

/// The directions sharing one `k = |dx|`: their plans, which the sheet's
/// first row enters line by line, and the flat list a later row steps
/// through once.
struct Group {
    k: usize,
    plans: Vec<DirPlan>,
    step: Vec<Step>,
}

/// A column histogram: `(packed cell, unordered pairs)`, unsorted, no zeros.
type Column = Vec<(u16, u32)>;

/// Where the apply keeps the window matrix.
enum Store {
    /// The matrix with its support bitmap, for a selection that reads the
    /// entry list and for visits: mirrored, or, for the sparse
    /// representations, the upper-triangle store of
    /// [`CoMatrix::apply_upper_delta_unmirrored`].
    Tracked {
        matrix: CoMatrix,
        support: SupportMask,
        sparse: bool,
    },
    /// Moments only: the upper-triangle count of cell `(lo, hi)` at
    /// `lo · Ng + hi` (a diagonal pair adds 2, an off-diagonal pair 1, the
    /// unmirrored store's layout), and the `KEEP_*` bits of the optional
    /// moments the selection reads.
    Counts { counts: Box<[u32]>, keep: u8 },
}

/// Reusable state of the fused kernel: the window matrix's store and its
/// statistics (moments kept by the apply), the direction plans grouped by
/// `k`, the columns of one sheet and the delta array they are advanced and
/// netted through. One instance serves every sheet of a block, in order —
/// after the first sheet nothing in the per-placement loop allocates.
pub(crate) struct FusedScratch {
    store: Store,
    stats: MatrixStats,
    /// `Ng` of the volumes the scratch serves.
    levels: u16,
    roi: Dims4,
    /// Placements per output row.
    width: usize,
    selection: FeatureSelection,
    /// Whether the selection reads the entry list, collected per placement.
    needs_entries: bool,
    /// The distinct `k = |dx| < roi.x` with the directions of each.
    groups: Vec<Group>,
    /// `C_k(P)` at `cols[P · groups.len() + group]`, `P` counted from the
    /// sheet's first plane.
    cols: Vec<Column>,
    /// Pending signed pair counts by packed cell; all zero between folds and
    /// applies.
    delta: Box<[i32; CELLS]>,
    /// Cells first touched since the last fold or apply: `touched[..pending]`.
    touched: Box<[u16]>,
    pending: usize,
}

impl FusedScratch {
    /// Scratch for [`scan_sheet`](Self::scan_sheet) over sheets of `width`
    /// placements per row of `vol` under `cfg`. Unless the selection reads
    /// the entry list it keeps only the moments the selection reads: no
    /// mirrored cell and no support bitmap.
    pub(crate) fn new(vol: &LevelVolume, cfg: &ScanConfig, width: usize) -> Self {
        Self::build(vol, cfg, width, cfg.selection.needs_entries())
    }

    /// Scratch for [`visit_sheet`](Self::visit_sheet), whose every visit
    /// carries the full entry list and all moments, whatever the selection.
    pub(crate) fn visiting(vol: &LevelVolume, cfg: &ScanConfig, width: usize) -> Self {
        Self::build(vol, cfg, width, true)
    }

    /// Directions that can pair no two voxels of a window (a component at
    /// least as long as the ROI's extent) are dropped here.
    fn build(vol: &LevelVolume, cfg: &ScanConfig, width: usize, tracked: bool) -> Self {
        let (dims, roi) = (vol.dims(), cfg.roi.size());
        let slice = dims.x * dims.y;
        let mut groups: Vec<Group> = Vec::new();
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
            // A row step leaves the previous row's first partnered line and
            // enters the new row's last one.
            let (leave, enter) = (plan.y.0 * dims.x, (plan.y.0 + plan.y.1) * dims.x);
            let step = plan
                .voxels
                .iter()
                .map(|&v| (leave + v, enter + v, plan.stride));
            match groups.iter_mut().find(|g| g.k == k) {
                Some(g) => {
                    g.step.extend(step);
                    g.plans.push(plan);
                }
                None => groups.push(Group {
                    k,
                    step: step.collect(),
                    plans: vec![plan],
                }),
            }
        }
        // The pairs one plane's columns hold over a row's window. A fold
        // lists at most its pairs (a row-0 fold enters `y.1` lines per
        // direction, a later one two), and the netted apply at most the
        // entries of one plane's entering and leaving columns: both are at
        // most twice this.
        let plane_pairs: usize = groups
            .iter()
            .flat_map(|g| &g.plans)
            .map(|p| p.y.1 * p.voxels.len())
            .sum();
        let levels = vol.levels();
        let ng = levels as usize;
        let store = if tracked {
            Store::Tracked {
                matrix: CoMatrix::zeros(levels),
                support: SupportMask::empty(ng * ng),
                sparse: cfg.representation.is_sparse(),
            }
        } else {
            Store::Counts {
                counts: vec![0; ng * ng].into_boxed_slice(),
                keep: cfg.selection.kept_moments(),
            }
        };
        let mut stats = MatrixStats::reusable();
        stats.moments.clear(ng);
        Self {
            store,
            stats,
            levels,
            roi,
            width,
            selection: cfg.selection,
            needs_entries: cfg.selection.needs_entries(),
            cols: vec![Column::new(); (roi.x + width - 1) * groups.len()],
            groups,
            delta: vec![0; CELLS]
                .into_boxed_slice()
                .try_into()
                .expect("CELLS entries"),
            touched: vec![0; 2 * plane_pairs].into_boxed_slice(),
            pending: 0,
        }
    }

    /// Restores the all-zero store and moments after a row whose last
    /// window holds the columns of the sheet's last `roi.x` planes: the
    /// tracked store zeroes the cells its support flags, the moments-only
    /// store every cell of those columns (each non-zero cell of the window
    /// is in one of them).
    fn reset_window(&mut self, groups: &[Group]) {
        let ng = self.levels as usize;
        match &mut self.store {
            Store::Tracked {
                matrix, support, ..
            } => {
                matrix.clear_cells_from_support(support);
                support.clear_all();
            }
            Store::Counts { counts, .. } => {
                let (n, last) = (groups.len(), self.width - 1);
                for (g, group) in groups.iter().enumerate() {
                    for p in last + group.k..last + self.roi.x {
                        for &(c, _) in &self.cols[p * n + g] {
                            counts[usize::from(c >> 8) * ng + usize::from(c & 0xff)] = 0;
                        }
                    }
                }
            }
        }
        self.stats.moments.clear(ng);
    }

    /// Enters every pair of `plan` on the voxel line whose voxel at the
    /// window's first `(z, t)` is `first` into the delta array.
    fn enter_line(&mut self, levels: &[u8], plan: &DirPlan, first: usize) {
        let (delta, touched) = (&mut *self.delta, &mut *self.touched);
        let mut pending = self.pending;
        for &v in &plan.voxels {
            let idx = first + v;
            let c = cell(levels[idx], levels[idx.wrapping_add_signed(plan.stride)]);
            touch(delta, touched, &mut pending, c, 1);
        }
        self.pending = pending;
    }

    /// Steps one plane's column of a group down one row: every pair of
    /// `step` leaving with the previous row's first line, whose voxel in
    /// the plane is `base`, counts `−1`, and every pair entering with the
    /// new row's last line `+1`.
    fn step_row(&mut self, levels: &[u8], step: &[Step], base: usize) {
        let (delta, touched) = (&mut *self.delta, &mut *self.touched);
        let mut pending = self.pending;
        for &(leave, enter, stride) in step {
            let (a, b) = (base + leave, base + enter);
            let gone = cell(levels[a], levels[a.wrapping_add_signed(stride)]);
            let new = cell(levels[b], levels[b.wrapping_add_signed(stride)]);
            touch(delta, touched, &mut pending, gone, -1);
            touch(delta, touched, &mut pending, new, 1);
        }
        self.pending = pending;
    }

    /// Folds the pending deltas into column `col` and leaves the delta array
    /// zero: entries the column already holds first (a count reaching zero
    /// leaves it), then the listed cells still pending, which are new.
    /// Reading a delta zeroes it, so a cell listed twice is folded once.
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
        for &c in &self.touched[..self.pending] {
            let d = std::mem::take(&mut self.delta[c as usize]);
            debug_assert!(d >= 0, "pair left a column that never held it");
            if d != 0 {
                column.push((c, d as u32));
            }
        }
        self.pending = 0;
    }

    /// Adds column `col` into the pending deltas, or subtracts it if
    /// `leaving`, listing first touches.
    fn net(&mut self, col: usize, leaving: bool) {
        let (delta, touched) = (&mut *self.delta, &mut *self.touched);
        let mut pending = self.pending;
        for &(c, n) in &self.cols[col] {
            let by = if leaving { -(n as i32) } else { n as i32 };
            touch(delta, touched, &mut pending, c, by);
        }
        self.pending = pending;
    }

    /// Moves every listed cell by its netted delta, once, in the window
    /// matrix and its moments, and leaves the delta array zero. Returns
    /// whether any cell moved.
    fn apply(&mut self) -> bool {
        match self.store {
            Store::Tracked { .. } => self.apply_tracked(),
            Store::Counts { keep, .. } => APPLY_MOMENTS[usize::from(keep)](self),
        }
    }

    /// [`apply`](Self::apply) on the tracked store, through
    /// `CoMatrix::apply_upper_delta_tracked` (`_unmirrored` for the sparse
    /// representations, whose mirror cell is never written), which keep the
    /// support bitmap and the total exact, and [`Moments::shift`]; the
    /// moments are those of the symmetric matrix either way.
    ///
    /// [`Moments::shift`]: crate::features::Moments::shift
    fn apply_tracked(&mut self) -> bool {
        let Store::Tracked {
            matrix,
            support,
            sparse,
        } = &mut self.store
        else {
            unreachable!("apply_tracked on a moments-only store")
        };
        let mut moved = false;
        for &c in &self.touched[..self.pending] {
            let net = std::mem::take(&mut self.delta[c as usize]);
            if net == 0 {
                continue;
            }
            moved = true;
            let (lo, hi) = ((c >> 8) as u8, c as u8);
            let old = matrix.count(lo as usize, hi as usize);
            let new = if *sparse {
                matrix.apply_upper_delta_unmirrored(lo, hi, net.into(), support)
            } else {
                matrix.apply_upper_delta_tracked(lo, hi, net.into(), support)
            };
            self.stats.moments.shift(lo, hi, old, new);
        }
        self.pending = 0;
        moved
    }

    /// [`apply`](Self::apply) on the moments-only store: each moved cell
    /// settles its one upper-triangle count and the moments `KEEP` flags
    /// ([`Moments::shift_each`]).
    ///
    /// [`Moments::shift_each`]: crate::features::Moments::shift_each
    fn apply_moments<const KEEP: u8>(&mut self) -> bool {
        let Store::Counts { counts, .. } = &mut self.store else {
            unreachable!("apply_moments on a tracked store")
        };
        let (ng, delta) = (self.levels as usize, &mut *self.delta);
        let cells = self.touched[..self.pending].iter().filter_map(|&c| {
            let net = std::mem::take(&mut delta[c as usize]);
            if net == 0 {
                return None;
            }
            let (lo, hi) = ((c >> 8) as u8, c as u8);
            let count = &mut counts[usize::from(lo) * ng + usize::from(hi)];
            let old = *count;
            let per_cell = if lo == hi { 2 * net } else { net };
            debug_assert!(
                i64::from(old) + i64::from(per_cell) >= 0,
                "fused merge drove cell ({lo}, {hi}) negative"
            );
            *count = old.wrapping_add_signed(per_cell);
            Some((lo, hi, old, *count))
        });
        let moved = self.stats.moments.shift_each::<KEEP>(cells);
        self.pending = 0;
        moved
    }

    /// Lists the window matrix's non-zero cells into the statistics.
    ///
    /// # Panics
    /// On a moments-only scratch, which keeps no cell list to walk.
    fn collect_entries(&mut self) {
        let Store::Tracked {
            matrix,
            support,
            sparse,
        } = &self.store
        else {
            panic!("a moments-only fused scratch keeps no entry list");
        };
        self.stats.collect_entries(matrix, support, *sparse);
    }

    /// Walks the sheet whose first window sits at `origin` over `rows`
    /// output rows, calling `emit(self, row, x, moved)` with the matrix,
    /// support and moments of placement `(x, row)` in place; `moved` is
    /// whether they differ from placement `(x − 1, row)`'s (always `true`
    /// at `x = 0`).
    ///
    /// # Panics
    /// If any window of the sheet exceeds the volume, or the scratch was
    /// built for a different level count.
    fn sweep(
        &mut self,
        vol: &LevelVolume,
        origin: Point4,
        rows: usize,
        mut emit: impl FnMut(&mut Self, usize, usize, bool),
    ) {
        assert_eq!(
            self.levels,
            vol.levels(),
            "fused scratch level count does not match the volume's level count"
        );
        let (dims, roi, levels) = (vol.dims(), self.roi, vol.as_slice());
        let planes = roi.x + self.width - 1;
        // Validate the whole sheet up front — the wall every window of it
        // must stay inside.
        let span = Region4::new(origin, Dims4::new(planes, roi.y + rows - 1, roi.z, roi.t));
        assert!(
            dims.region().contains_region(&span),
            "fused scan sheet {span:?} exceeds volume {dims:?}"
        );
        let groups = std::mem::take(&mut self.groups);
        let n = groups.len();
        self.cols.iter_mut().for_each(Vec::clear);
        for row in 0..rows {
            // The row's first line in plane 0.
            let line = dims.index(Point4::new(origin.x, origin.y + row, origin.z, origin.t));
            for p in 0..planes {
                for (g, group) in groups.iter().enumerate() {
                    if p < group.k {
                        // The partner plane is left of the sheet's span.
                        continue;
                    }
                    if row == 0 {
                        for plan in &group.plans {
                            for y in plan.y.0..plan.y.0 + plan.y.1 {
                                self.enter_line(levels, plan, line + p + y * dims.x);
                            }
                        }
                    } else {
                        self.step_row(levels, &group.step, line + p - dims.x);
                    }
                    self.fold(p * n + g);
                }
                for (g, group) in groups.iter().enumerate() {
                    if p >= group.k {
                        self.net(p * n + g, false);
                    }
                    if p >= roi.x {
                        self.net((p - roi.x + group.k) * n + g, true);
                    }
                }
                let moved = self.apply();
                if p + 1 >= roi.x {
                    emit(self, row, p + 1 - roi.x, moved || p + 1 == roi.x);
                }
            }
            self.reset_window(&groups);
        }
        self.groups = groups;
    }

    /// Computes one sheet — `rows` output rows of this scratch's width, the
    /// first window at `origin` — writing `selection.len()` values per
    /// placement into `out` (row-major), bit-identical to the reference
    /// scan for every representation. A placement whose window matrix did
    /// not move copies its left neighbour's values instead of finalizing.
    ///
    /// # Panics
    /// If any window of the sheet exceeds the volume, or the scratch was
    /// built for a different level count.
    pub(crate) fn scan_sheet(
        &mut self,
        vol: &LevelVolume,
        origin: Point4,
        rows: usize,
        out: &mut [f64],
    ) {
        let (sel, width) = (self.selection, self.width);
        let n = sel.len();
        debug_assert_eq!(out.len(), rows * width * n);
        self.sweep(vol, origin, rows, |s, row, x, moved| {
            let at = (row * width + x) * n;
            if !moved {
                out.copy_within(at - n..at, at);
                return;
            }
            if s.needs_entries {
                s.collect_entries();
            }
            finalize_into(&s.stats, &sel, &mut out[at..at + n]);
        });
    }

    /// Walks one sheet as [`scan_sheet`](Self::scan_sheet) does, calling
    /// `visit(x, row, stats)` with each placement's statistics, entry list
    /// included. A placement whose window matrix did not move keeps its
    /// left neighbour's entry list, which is its own.
    ///
    /// # Panics
    /// As [`scan_sheet`](Self::scan_sheet).
    pub(crate) fn visit_sheet(
        &mut self,
        vol: &LevelVolume,
        origin: Point4,
        rows: usize,
        mut visit: impl FnMut(usize, usize, &MatrixStats),
    ) {
        self.sweep(vol, origin, rows, |s, row, x, moved| {
            if moved {
                s.collect_entries();
            }
            visit(x, row, &s.stats);
        });
    }
}

/// [`FusedScratch::apply_moments`] for every set of `KEEP_*` bits, indexed
/// by it: a moments-only scratch picks its apply once, and no moment it
/// does not keep costs a branch per cell.
const APPLY_MOMENTS: [fn(&mut FusedScratch) -> bool; 16] = [
    FusedScratch::apply_moments::<0>,
    FusedScratch::apply_moments::<1>,
    FusedScratch::apply_moments::<2>,
    FusedScratch::apply_moments::<3>,
    FusedScratch::apply_moments::<4>,
    FusedScratch::apply_moments::<5>,
    FusedScratch::apply_moments::<6>,
    FusedScratch::apply_moments::<7>,
    FusedScratch::apply_moments::<8>,
    FusedScratch::apply_moments::<9>,
    FusedScratch::apply_moments::<10>,
    FusedScratch::apply_moments::<11>,
    FusedScratch::apply_moments::<12>,
    FusedScratch::apply_moments::<13>,
    FusedScratch::apply_moments::<14>,
    FusedScratch::apply_moments::<15>,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::{Direction, DirectionSet};
    use crate::features::{Feature, Moments, KEEP_DIFF, KEEP_DIST, KEEP_SQ, KEEP_SUM};
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

    /// `Ng = 256` hash noise: nearly every pair of a row-0 fold, and of a
    /// plane's entering and leaving columns, is a cell of its own — the
    /// longest touched list a scratch can be asked for.
    fn noise(dims: Dims4, seed: u64) -> LevelVolume {
        let data: Vec<u8> = (0..dims.len() as u64)
            .map(|i| {
                let mut h = (i + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 31;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (h >> 56) as u8
            })
            .collect();
        LevelVolume::from_raw(dims, data, 256).unwrap()
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

    /// `all()`, which reads the entry list and keeps the tracked store, and
    /// the selections a moments-only store serves: the paper's four, all
    /// ten moment features together and each alone.
    fn selections() -> Vec<FeatureSelection> {
        let moment_features: Vec<Feature> = Feature::ALL
            .into_iter()
            .filter(|&f| !FeatureSelection::of(&[f]).needs_entries())
            .collect();
        let mut selections = vec![
            FeatureSelection::all(),
            FeatureSelection::paper_default(),
            FeatureSelection::of(&moment_features),
        ];
        selections.extend(moment_features.iter().map(|&f| FeatureSelection::of(&[f])));
        selections
    }

    fn support_cells(mask: &SupportMask) -> Vec<usize> {
        let mut cells = Vec::new();
        mask.for_each_set(|i| cells.push(i));
        cells
    }

    /// The tracked store's matrix and support.
    fn tracked(s: &FusedScratch) -> (&CoMatrix, &SupportMask) {
        match &s.store {
            Store::Tracked {
                matrix, support, ..
            } => (matrix, support),
            Store::Counts { .. } => panic!("a scratch for `all()` keeps the tracked store"),
        }
    }

    /// Every fold and apply leaves nothing pending, and every row leaves
    /// the store empty: the moments-only store all-zero, the tracked one
    /// with no count and no support bit.
    fn assert_drained(s: &FusedScratch) {
        assert_eq!(s.pending, 0, "touched list not drained");
        assert!(s.delta.iter().all(|&d| d == 0), "delta array not zero");
        match &s.store {
            Store::Tracked {
                matrix, support, ..
            } => {
                assert!(
                    matrix.as_slice().iter().all(|&c| c == 0) && matrix.total() == 0,
                    "tracked matrix not zero"
                );
                assert!(support_cells(support).is_empty(), "support not clear");
            }
            Store::Counts { counts, .. } => {
                assert!(counts.iter().all(|&c| c == 0), "count store not zero");
            }
        }
    }

    #[test]
    fn matrix_and_support_match_rebuild_at_every_placement() {
        // Under every selection, the moments the apply keeps equal the ones
        // rebuilt from the reference matrix (a moments-only store keeps
        // only those its selection reads, the others stay zero) in both
        // modes. The tracked full-mode matrix and support equal the
        // reference's, and the moments-only store holds its upper triangle
        // (the tracked sparse store is checked below).
        let dims = Dims4::new(12, 9, 4, 4);
        let roi = Dims4::new(5, 4, 2, 2);
        let origin = Point4::new(1, 1, 1, 2);
        let (width, rows) = (7, 5);
        for vol in [volume(dims, 8, 1), noise(dims, 1)] {
            let ng = vol.levels() as usize;
            for dirs in direction_sets() {
                let expected: Vec<CoMatrix> = (0..rows)
                    .flat_map(|row| (0..width).map(move |x| (x, row)))
                    .map(|(x, row)| {
                        let at = Point4::new(origin.x + x, origin.y + row, origin.z, origin.t);
                        CoMatrix::from_region(&vol, Region4::new(at, roi), &dirs)
                    })
                    .collect();
                let moments: Vec<Moments> = expected
                    .iter()
                    .map(|m| MatrixStats::from_dense(m, true).moments)
                    .collect();
                let upper: Vec<Vec<u32>> = expected
                    .iter()
                    .map(|m| {
                        let mut cells = m.as_slice().to_vec();
                        for (idx, c) in cells.iter_mut().enumerate() {
                            if idx / ng > idx % ng {
                                *c = 0;
                            }
                        }
                        cells
                    })
                    .collect();
                for selection in selections() {
                    let keep = if selection.needs_entries() {
                        KEEP_SQ | KEEP_DIST | KEEP_DIFF | KEEP_SUM
                    } else {
                        selection.kept_moments()
                    };
                    for repr in [Representation::Full, Representation::Sparse] {
                        let mut cfg = config(roi, dirs.clone(), repr);
                        cfg.selection = selection;
                        let mut scratch = FusedScratch::new(&vol, &cfg, width);
                        let mut seen = 0;
                        scratch.sweep(&vol, origin, rows, |s, row, x, _| {
                            let at = row * width + x;
                            let case = format!("{selection:?} {repr:?} at ({x}, {row})");
                            assert_eq!(
                                s.stats.moments,
                                moments[at].kept(keep),
                                "{case}: moments drifted"
                            );
                            match &s.store {
                                Store::Tracked {
                                    matrix, support, ..
                                } => {
                                    if repr == Representation::Full {
                                        assert_eq!(matrix, &expected[at], "{case}: matrix drifted");
                                        assert_eq!(
                                            support_cells(support),
                                            support_cells(&SupportMask::from_matrix(&expected[at])),
                                            "{case}: support drifted"
                                        );
                                    }
                                }
                                Store::Counts { counts, .. } => {
                                    assert!(**counts == *upper[at], "{case}: counts drifted");
                                }
                            }
                            seen += 1;
                        });
                        assert_eq!(seen, width * rows);
                        assert_drained(&scratch);
                    }
                }
            }
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
            let cfg = config(roi, dirs, Representation::Sparse);
            let mut scratch = FusedScratch::new(&vol, &cfg, 5);
            scratch.sweep(&vol, origin, 4, |s, row, x, _| {
                let win = Region4::new(Point4::new(x, origin.y + row, 0, 1), roi);
                let expect =
                    SparseCoMatrix::from_dense(&CoMatrix::from_region(&vol, win, &cfg.directions));
                let (matrix, support) = tracked(s);
                let entries: Vec<SparseEntry> = support_cells(support)
                    .into_iter()
                    .map(|idx| SparseEntry {
                        i: (idx / 8) as u8,
                        j: (idx % 8) as u8,
                        count: matrix.as_slice()[idx],
                    })
                    .collect();
                assert_eq!(entries, expect.entries(), "sparse entries drifted");
                assert_eq!(matrix.total(), expect.total(), "symmetric total drifted");
            });
            assert_drained(&scratch);
        }
    }

    #[test]
    fn columns_equal_their_slab_histograms_after_the_last_row() {
        let dims = Dims4::new(11, 9, 3, 4);
        let roi = Dims4::new(4, 3, 2, 3);
        let origin = Point4::new(1, 0, 1, 0);
        let (width, rows) = (6, 6);
        for vol in [volume(dims, 8, 4), noise(dims, 4)] {
            let ng = vol.levels() as usize;
            for dirs in direction_sets() {
                let cfg = config(roi, dirs, Representation::Full);
                let mut scratch = FusedScratch::new(&vol, &cfg, width);
                scratch.sweep(&vol, origin, rows, |_, _, _, _| {});
                assert_drained(&scratch);
                for (g, k) in scratch.groups.iter().map(|group| &group.k).enumerate() {
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
                        for (lo, hi) in (0..ng).flat_map(|lo| (lo..ng).map(move |hi| (lo, hi))) {
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
    }

    #[test]
    fn placements_that_moved_no_cell_copy_their_left_neighbour() {
        // Along x, 8-plane bands of noise alternate with bands whose planes
        // are all alike (levels vary with y, z and t only), so inside such a
        // band a window's entering and leaving pairs cancel and its apply
        // moves nothing; every placement still equals the reference's.
        let dims = Dims4::new(32, 9, 3, 4);
        let data: Vec<u8> = dims
            .region()
            .points()
            .map(|p| {
                let x = if (p.x / 8) % 2 == 0 { p.x } else { p.x / 8 };
                let h = ((x * 31 + p.y * 7 + p.z * 5 + p.t * 11) as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 60) as u8
            })
            .collect();
        let vol = LevelVolume::from_raw(dims, data, 16).unwrap();
        let roi = Dims4::new(4, 3, 2, 2);
        let selections = [FeatureSelection::all(), FeatureSelection::paper_default()];
        for (repr, selection) in [Representation::Full, Representation::Sparse]
            .into_iter()
            .flat_map(|repr| selections.map(|selection| (repr, selection)))
        {
            let mut cfg = config(roi, DirectionSet::all_unique_4d(1), repr);
            cfg.selection = selection;
            let reference = crate::raster::raster_scan(&vol, &cfg);
            let out_dims = reference.dims();
            let (width, rows) = (out_dims.x, out_dims.y);
            let n = cfg.selection.len();
            let mut scratch = FusedScratch::new(&vol, &cfg, width);
            let (mut still, mut placements) = (0, 0);
            scratch.sweep(&vol, Point4::ZERO, rows, |_, _, _, moved| {
                still += usize::from(!moved);
                placements += 1;
            });
            assert!(
                still > 0 && still < placements,
                "{repr:?} {selection:?}: {still} of {placements} placements moved no cell"
            );
            let mut out = vec![0.0; rows * width * n];
            for z in 0..out_dims.z {
                for t in 0..out_dims.t {
                    scratch.scan_sheet(&vol, Point4::new(0, 0, z, t), rows, &mut out);
                    for (i, got) in out.chunks(n).enumerate() {
                        let p = Point4::new(i % width, i / width, z, t);
                        let want = reference.values_at(p);
                        for (slot, (a, b)) in got.iter().zip(want).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{repr:?} {selection:?} slot {slot} at {p:?}"
                            );
                        }
                    }
                }
            }
            assert_drained(&scratch);
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
        let mut scratch = FusedScratch::new(&vol, &cfg, width);
        let mut out = vec![0.0; rows * width * n];
        scratch.scan_sheet(&vol, Point4::new(0, 0, 1, 0), rows, &mut out);
        assert_drained(&scratch);
        for (i, got) in out.chunks(n).enumerate() {
            let p = Point4::new(i % width, i / width, 1, 0);
            assert_eq!(got, reference.values_at(p), "fused sheet diverged at {p:?}");
        }
    }
}
