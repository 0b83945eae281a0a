//! The full (dense) gray-level co-occurrence matrix.
//!
//! For a region `R` of a quantized volume and a displacement set `D`, the
//! co-occurrence matrix `C` counts, for every ordered gray-level pair
//! `(i, j)`, how often a voxel of level `i` and a voxel of level `j` occur
//! separated by some `d ∈ D` with both endpoints inside `R`. Relationships
//! are counted in both the forward and backward direction, so `C` is
//! symmetric and each unordered voxel pair contributes two counts.
//!
//! `C` is always `Ng x Ng` where `Ng` is the number of gray levels — its
//! size is independent of the region, distance and direction (paper §3).
//!
//! Normalizing by the total count yields the second-order joint probability
//! distribution `p(i, j)` from which the Haralick features are computed
//! (see [`crate::features`]).

use crate::direction::DirectionSet;
use crate::features::MatrixStats;
use crate::sparse::SupportMask;
use crate::volume::{Dims4, LevelVolume, Region4};

/// A dense, symmetric `Ng x Ng` co-occurrence count matrix.
///
/// This is the "full matrix storage representation" of paper §4.4.1. See
/// [`crate::sparse::SparseCoMatrix`] for the sparse alternative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoMatrix {
    levels: u16,
    counts: Vec<u32>,
    total: u64,
}

impl CoMatrix {
    /// An empty (all-zero) matrix for `levels` gray levels.
    ///
    /// # Panics
    /// If `levels` is not in `1..=256`.
    pub fn zeros(levels: u16) -> Self {
        assert!((1..=256).contains(&levels), "levels must be in 1..=256");
        Self {
            levels,
            counts: vec![0; levels as usize * levels as usize],
            total: 0,
        }
    }

    /// Computes the co-occurrence matrix of `region` within `vol` over all
    /// displacements in `dirs`.
    ///
    /// Pairs with either endpoint outside `region` are ignored — the region
    /// boundary is a hard wall, exactly as in the paper's ROI processing
    /// (the entire ROI must be contained within the dataset).
    ///
    /// # Panics
    /// If `region` could put more than `u32::MAX` counts in one cell
    /// (`2 · region.len() · |D|`), or is not fully contained in the volume.
    pub fn from_region(vol: &LevelVolume, region: Region4, dirs: &DirectionSet) -> Self {
        assert_counts_fit(region.size, dirs.len());
        let mut m = Self::zeros(vol.levels());
        m.add_region(vol, region, dirs);
        m
    }

    /// Adds the co-occurrence counts of `region` over `dirs` to this matrix.
    /// Useful for accumulating a matrix across several disjoint regions or
    /// direction batches.
    ///
    /// # Panics
    /// If `region` alone could put more than `u32::MAX` counts in one cell
    /// (`2 · region.len() · |D|`), is not fully contained in the volume, or
    /// the level counts differ.
    pub fn accumulate(&mut self, vol: &LevelVolume, region: Region4, dirs: &DirectionSet) {
        assert_counts_fit(region.size, dirs.len());
        self.add_region(vol, region, dirs);
    }

    /// [`accumulate`](Self::accumulate) without the count bound, for callers
    /// that checked it once for every region they pass.
    fn add_region(&mut self, vol: &LevelVolume, region: Region4, dirs: &DirectionSet) {
        self.assert_levels_of(vol);
        let ng = self.levels as usize;
        for_each_pair_row(vol, region, dirs, |a_row, b_row| {
            for (&a, &b) in a_row.iter().zip(b_row) {
                let (a, b) = (a as usize, b as usize);
                // Forward and backward relationship: symmetric.
                self.counts[a * ng + b] += 1;
                self.counts[b * ng + a] += 1;
                self.total += 2;
            }
        });
    }

    fn assert_levels_of(&self, vol: &LevelVolume) {
        assert_eq!(
            self.levels,
            vol.levels(),
            "matrix level count does not match volume"
        );
    }

    /// Reconstructs a matrix from its raw parts — the decode side of a wire
    /// codec. Validates the level count, the shape, that `total` equals the
    /// sum of counts and that the counts are symmetric, so a corrupted frame
    /// cannot smuggle an inconsistent matrix into the feature math.
    pub fn from_parts(levels: u16, counts: Vec<u32>, total: u64) -> Result<Self, PartsError> {
        if !(1..=256).contains(&levels) {
            return Err(PartsError::Levels(levels));
        }
        let ng = levels as usize;
        if counts.len() != ng * ng {
            return Err(PartsError::Length {
                len: counts.len(),
                expected: ng * ng,
            });
        }
        let sum: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        if sum != total {
            return Err(PartsError::Total { total, sum });
        }
        for i in 0..ng {
            for j in (i + 1)..ng {
                let (upper, lower) = (counts[i * ng + j], counts[j * ng + i]);
                if upper != lower {
                    return Err(PartsError::Asymmetric { i, j, upper, lower });
                }
            }
        }
        Ok(Self {
            levels,
            counts,
            total,
        })
    }

    /// Number of gray levels `Ng`.
    pub const fn levels(&self) -> u16 {
        self.levels
    }

    /// Count at `(i, j)`.
    #[inline(always)]
    pub fn count(&self, i: usize, j: usize) -> u32 {
        self.counts[i * self.levels as usize + j]
    }

    /// Sum of all counts (`R` in Haralick's normalization).
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Normalized probability `p(i, j) = C(i, j) / R`; zero for an empty
    /// matrix.
    #[inline]
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            f64::from(self.count(i, j)) / self.total as f64
        }
    }

    /// Raw counts in row-major order.
    pub fn as_slice(&self) -> &[u32] {
        &self.counts
    }

    /// Number of non-zero entries on or above the diagonal — the quantity
    /// the paper reports (symmetric entries stored once): "matrices ... can
    /// have on average as little as 10.7 non-zero entries per matrix".
    pub fn nnz_upper(&self) -> usize {
        let ng = self.levels as usize;
        let mut n = 0;
        for i in 0..ng {
            for j in i..ng {
                if self.counts[i * ng + j] != 0 {
                    n += 1;
                }
            }
        }
        n
    }

    /// Verifies the symmetry invariant; used by tests and debug assertions.
    pub fn is_symmetric(&self) -> bool {
        let ng = self.levels as usize;
        for i in 0..ng {
            for j in (i + 1)..ng {
                if self.counts[i * ng + j] != self.counts[j * ng + i] {
                    return false;
                }
            }
        }
        true
    }

    /// Adds another matrix's counts into this one.
    ///
    /// # Panics
    /// If the level counts differ.
    pub fn merge(&mut self, other: &CoMatrix) {
        assert_eq!(self.levels, other.levels, "level count mismatch in merge");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The matrix whose statistics `stats` are: every entry placed at both
    /// orientations. Accepts the entry list in any of the orders the
    /// statistics constructors and
    /// [`scan_placements_with`](crate::raster::scan_placements_with) keep.
    ///
    /// # Panics
    /// If `stats` has no level count in `1..=256` (an empty reuse target).
    pub fn from_stats(stats: &MatrixStats) -> Self {
        let mut m = Self::zeros(stats.levels() as u16);
        let ng = stats.levels();
        for &(i, j, c) in stats.entries() {
            m.counts[i as usize * ng + j as usize] = c;
            m.counts[j as usize * ng + i as usize] = c;
        }
        m.total = stats.total();
        m
    }

    /// Applies a signed net count delta to the symmetric cell pair
    /// `(lo, hi)` / `(hi, lo)`, keeping `support` and the total exact —
    /// how the fused scan engine applies one column-histogram entry to the
    /// window matrix.
    ///
    /// `net` is the net number of unordered pair observations gained (or
    /// lost, if negative) on the upper-triangle cell: an off-diagonal pair
    /// contributes one count to each orientation, a diagonal pair lands
    /// both orientations on one cell, and either way the total moves by
    /// `2·net` — exactly the state the equivalent sequence of per-pair
    /// increments and decrements would leave, with `support` flagging
    /// precisely the non-zero cells. Returns the cell's new count.
    #[inline]
    pub(crate) fn apply_upper_delta_tracked(
        &mut self,
        lo: u8,
        hi: u8,
        net: i64,
        support: &mut SupportMask,
    ) -> u32 {
        debug_assert!(lo <= hi, "cell must be in the upper triangle");
        let ng = self.levels as usize;
        let ij = lo as usize * ng + hi as usize;
        let per_cell = if lo == hi { 2 * net } else { net };
        let c = i64::from(self.counts[ij]) + per_cell;
        debug_assert!(c >= 0, "fused merge drove cell ({lo}, {hi}) negative");
        let c = c as u32;
        self.counts[ij] = c;
        support.set_if(ij, c != 0);
        support.clear_if(ij, c == 0);
        if lo != hi {
            let ji = hi as usize * ng + lo as usize;
            self.counts[ji] = c;
            support.set_if(ji, c != 0);
            support.clear_if(ji, c == 0);
        }
        self.total = (self.total as i64 + 2 * net) as u64;
        c
    }

    /// [`apply_upper_delta_tracked`](Self::apply_upper_delta_tracked)
    /// without the mirror write: only the upper-triangle cell `(lo, hi)`
    /// and its support bit are updated, so the matrix holds exactly the
    /// counts a [`crate::sparse::SparseCoMatrix`] entry list would (a
    /// diagonal pair contributes 2 to its cell, an off-diagonal pair 1).
    /// The total still moves by `2·net` — the symmetric normalization `R`
    /// is representation-independent. This is the sparse-mode apply of the
    /// fused scan engine: sweeping the support afterwards enumerates the
    /// sparse entries in sorted row-major upper-triangle order without
    /// ever materializing the dense symmetric matrix. Returns the cell's
    /// new count.
    #[inline]
    pub(crate) fn apply_upper_delta_unmirrored(
        &mut self,
        lo: u8,
        hi: u8,
        net: i64,
        support: &mut SupportMask,
    ) -> u32 {
        debug_assert!(lo <= hi, "cell must be in the upper triangle");
        let ng = self.levels as usize;
        let ij = lo as usize * ng + hi as usize;
        let per_cell = if lo == hi { 2 * net } else { net };
        let c = i64::from(self.counts[ij]) + per_cell;
        debug_assert!(c >= 0, "fused merge drove cell ({lo}, {hi}) negative");
        let c = c as u32;
        self.counts[ij] = c;
        support.set_if(ij, c != 0);
        support.clear_if(ij, c == 0);
        self.total = (self.total as i64 + 2 * net) as u64;
        c
    }

    /// Zeroes exactly the cells flagged in `support` (and the total),
    /// restoring the all-zero invariant in `O(nnz)` instead of an `Ng²`
    /// fill. The caller clears the mask afterwards; used by the fused
    /// engine to start every output row from the empty matrix.
    pub(crate) fn clear_cells_from_support(&mut self, support: &SupportMask) {
        support.for_each_set(|idx| self.counts[idx] = 0);
        self.total = 0;
    }

    /// Rebuilds this matrix in place from `region` over `dirs` — the
    /// reusable-buffer counterpart of [`from_region`](Self::from_region),
    /// so the reference scan engine stops allocating one `Ng²` buffer per
    /// placement. Unlike it, the count bound is the caller's:
    /// `scan_placements` checks it once per scan.
    ///
    /// # Panics
    /// If `region` is not fully contained in the volume, or the level
    /// counts differ.
    pub(crate) fn reaccumulate(&mut self, vol: &LevelVolume, region: Region4, dirs: &DirectionSet) {
        self.counts.fill(0);
        self.total = 0;
        self.add_region(vol, region, dirs);
    }

    /// Replaces the matrix contents wholesale; internal constructor used by
    /// sparse→dense conversion.
    ///
    /// # Panics
    /// If `counts` has the wrong length; debug-asserts that `total` equals
    /// the sum of counts.
    pub(crate) fn overwrite(&mut self, counts: Vec<u32>, total: u64) {
        let ng = self.levels as usize;
        assert_eq!(counts.len(), ng * ng, "counts buffer must be Ng x Ng");
        debug_assert_eq!(
            counts.iter().map(|&c| u64::from(c)).sum::<u64>(),
            total,
            "total must equal the sum of counts"
        );
        self.counts = counts;
        self.total = total;
    }

    /// Computes feature-ready statistics, **skipping zero entries** (the
    /// paper's key optimization: "this optimization allowed us to process a
    /// typical MRI dataset in one-fourth the time").
    pub fn stats_checked(&self) -> MatrixStats {
        MatrixStats::from_dense(self, true)
    }

    /// Computes feature-ready statistics evaluating *every* entry including
    /// zeros — the unoptimized baseline against which the zero-skip speedup
    /// is measured.
    pub fn stats_naive(&self) -> MatrixStats {
        MatrixStats::from_dense(self, false)
    }
}

/// Why [`CoMatrix::from_parts`] refused its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartsError {
    /// The level count is outside `1..=256`.
    Levels(u16),
    /// `counts` does not hold `Ng²` cells.
    Length {
        /// Cells given.
        len: usize,
        /// `Ng²`.
        expected: usize,
    },
    /// `total` is not the sum of the counts.
    Total {
        /// The total given.
        total: u64,
        /// The sum of the counts given.
        sum: u64,
    },
    /// `C(i, j) != C(j, i)`; the first such cell in row-major
    /// upper-triangle order.
    Asymmetric {
        /// Row of the upper-triangle cell.
        i: usize,
        /// Column of the upper-triangle cell (`j > i`).
        j: usize,
        /// `C(i, j)`.
        upper: u32,
        /// `C(j, i)`.
        lower: u32,
    },
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Levels(levels) => write!(f, "co-occurrence level count {levels} is not in 1..=256"),
            Self::Length { len, expected } => write!(
                f,
                "co-occurrence counts length {len} does not match Ng^2 = {expected}"
            ),
            Self::Total { total, sum } => write!(
                f,
                "co-occurrence total {total} does not match the sum of counts {sum}"
            ),
            Self::Asymmetric { i, j, upper, lower } => write!(
                f,
                "co-occurrence matrix is not symmetric: C({i}, {j}) = {upper} but C({j}, {i}) = {lower}"
            ),
        }
    }
}

impl std::error::Error for PartsError {}

/// The reference engine's per-placement count for the `Full` and `Sparse`
/// representations: the pairs of one region, each counted once into the
/// upper-triangle cell `(min, max)`, read out as sorted sparse entries.
///
/// Two lanes of `Ng²` cells, interleaved cell by cell, take alternate
/// pairs of every pair row: pair `k` adds exactly 1 to lane `k & 1`. Runs
/// of equal pairs, common in smooth data, then form two independent
/// increment chains instead of one, and no pair carries a diagonal weight.
/// [`drain`](Self::drain) sums the lanes and doubles the diagonal, so it
/// emits the counts of the symmetric matrix's upper triangle.
///
/// All-zero between regions: a count starts from the store the previous
/// drain left behind. The `u32` bound is the caller's
/// ([`assert_counts_fit`]): a lane cell holds at most the region's pairs.
#[derive(Debug)]
pub(crate) struct UpperCounts {
    levels: u16,
    /// Cell `lo · Ng + hi`, as `[lane 0, lane 1]`.
    cells: Vec<[u32; 2]>,
}

impl UpperCounts {
    /// An all-zero store for `levels` gray levels.
    ///
    /// # Panics
    /// If `levels` is not in `1..=256`.
    pub(crate) fn zeros(levels: u16) -> Self {
        assert!((1..=256).contains(&levels), "levels must be in 1..=256");
        Self {
            levels,
            cells: vec![[0; 2]; levels as usize * levels as usize],
        }
    }

    /// Number of gray levels `Ng`.
    pub(crate) const fn levels(&self) -> u16 {
        self.levels
    }

    /// Counts the pairs of `region` over `dirs`.
    ///
    /// # Panics
    /// If `region` is not fully contained in the volume, or the level
    /// counts differ.
    pub(crate) fn count_region(&mut self, vol: &LevelVolume, region: Region4, dirs: &DirectionSet) {
        assert_eq!(
            self.levels,
            vol.levels(),
            "upper-triangle counter level count does not match volume"
        );
        let ng = self.levels as usize;
        let cells = &mut self.cells;
        let cell = |a: u8, b: u8| a.min(b) as usize * ng + a.max(b) as usize;
        for_each_pair_row(vol, region, dirs, |a_row, b_row| {
            let (a_two, a_last) = a_row.as_chunks::<2>();
            let (b_two, b_last) = b_row.as_chunks::<2>();
            for (a, b) in a_two.iter().zip(b_two) {
                cells[cell(a[0], b[0])][0] += 1;
                cells[cell(a[1], b[1])][1] += 1;
            }
            if let ([a], [b]) = (a_last, b_last) {
                cells[cell(*a, *b)][0] += 1;
            }
        });
    }

    /// Calls `f(i, j, C(i, j))` for every non-zero upper-triangle cell of
    /// the symmetric matrix in ascending `(i, j)` — the order of
    /// [`crate::sparse::SparseCoMatrix`]'s entries — and leaves the store
    /// all-zero. Each row's `j >= i` half of both lanes is tested with one
    /// OR-fold; only a non-zero row is walked and zeroed, so a drain costs
    /// `O(Ng)` row tests plus the touched rows.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(u8, u8, u32)) {
        let ng = self.levels as usize;
        for (i, row) in self.cells.chunks_exact_mut(ng).enumerate() {
            let upper = &mut row[i..];
            if upper.iter().fold(0, |acc, &[a, b]| acc | a | b) == 0 {
                continue;
            }
            // Both orientations of a diagonal pair land on its cell.
            let [a, b] = upper[0];
            if a + b != 0 {
                f(i as u8, i as u8, 2 * (a + b));
            }
            for (j, &[a, b]) in (i + 1..).zip(&upper[1..]) {
                if a + b != 0 {
                    f(i as u8, j as u8, a + b);
                }
            }
            upper.fill([0; 2]);
        }
    }
}

/// Calls `f(a_row, b_row)` for every run of voxel pairs that `region` holds
/// over `dirs`: `a_row[k]` and `b_row[k]` are the levels of a voxel and of
/// its partner displaced by `d`, both inside `region`. Runs follow the
/// directions in set order, then `t`, `z`, `y`, each run ascending in `x` —
/// one shared geometry for every per-placement matrix build.
///
/// # Panics
/// If `region` is not fully contained in the volume.
pub(crate) fn for_each_pair_row(
    vol: &LevelVolume,
    region: Region4,
    dirs: &DirectionSet,
    mut f: impl FnMut(&[u8], &[u8]),
) {
    assert!(
        vol.full_region().contains_region(&region),
        "ROI {region:?} exceeds volume {:?}",
        vol.dims()
    );
    let dims = vol.dims();
    let data = vol.as_slice();
    let end = region.end();
    for d in dirs {
        // Iterate only over origins whose displaced partner can be in
        // bounds, clamping the loop ranges instead of testing each voxel.
        let x_lo = region.origin.x as i64 + (-d.dx as i64).max(0);
        let x_hi = end.x as i64 - (d.dx as i64).max(0);
        let y_lo = region.origin.y as i64 + (-d.dy as i64).max(0);
        let y_hi = end.y as i64 - (d.dy as i64).max(0);
        let z_lo = region.origin.z as i64 + (-d.dz as i64).max(0);
        let z_hi = end.z as i64 - (d.dz as i64).max(0);
        let t_lo = region.origin.t as i64 + (-d.dt as i64).max(0);
        let t_hi = end.t as i64 - (d.dt as i64).max(0);
        if x_lo >= x_hi || y_lo >= y_hi || z_lo >= z_hi || t_lo >= t_hi {
            continue;
        }
        // Linear-index stride of the displacement.
        let stride = d.dx as i64
            + d.dy as i64 * dims.x as i64
            + d.dz as i64 * (dims.x * dims.y) as i64
            + d.dt as i64 * (dims.x * dims.y * dims.z) as i64;
        let len = (x_hi - x_lo) as usize;
        for t in t_lo..t_hi {
            for z in z_lo..z_hi {
                for y in y_lo..y_hi {
                    let row = ((t as usize * dims.z + z as usize) * dims.y + y as usize) * dims.x;
                    let a = row + x_lo as usize;
                    let b = (a as i64 + stride) as usize;
                    f(&data[a..a + len], &data[b..b + len]);
                }
            }
        }
    }
}

/// The most one window can put in a single cell: every voxel pair of every
/// direction, in both orientations, on one diagonal cell (a constant
/// region) — `2 · roi_len · directions`. `None` when that does not fit the
/// matrix's `u32` cells, where increments would wrap silently in release
/// builds.
fn max_cell_count(roi_len: usize, directions: usize) -> Option<u32> {
    let pairs = (roi_len as u64).checked_mul(directions as u64)?;
    u32::try_from(pairs.checked_mul(2)?).ok()
}

/// Refuses a window of extent `roi` over `directions` displacements that
/// could overflow a `u32` matrix cell ([`max_cell_count`]) — and with it the
/// fused kernel's `i32` deltas and `u32` column counts, which the same bound
/// covers. Kept out of line: inlined into `scan_placements` it changed the
/// code generated for the reference loop beside it (`rebuild_sparse` +4 % on
/// the benchmark host).
#[inline(never)]
pub(crate) fn assert_counts_fit(roi: Dims4, directions: usize) {
    assert!(
        max_cell_count(roi.len(), directions).is_some(),
        "ROI {roi} with {directions} directions can put more than u32::MAX counts in one co-occurrence cell; shrink the ROI or the direction set"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use crate::sparse::SparseEntry;
    use crate::volume::{Dims4, Point4};

    /// Builds a 4x1x1x1 "image" [0, 1, 1, 2] with Ng = 3.
    fn tiny() -> LevelVolume {
        LevelVolume::from_raw(Dims4::new(4, 1, 1, 1), vec![0, 1, 1, 2], 3).unwrap()
    }

    #[test]
    fn hand_computed_counts_1d() {
        // Pairs at dx = 1: (0,1), (1,1), (1,2). Symmetric counting doubles
        // off-diagonal pairs and double-counts the (1,1) pair too.
        let vol = tiny();
        let dirs = DirectionSet::single(Direction::new(1, 0, 0, 0));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.count(1, 0), 1);
        assert_eq!(m.count(1, 1), 2);
        assert_eq!(m.count(1, 2), 1);
        assert_eq!(m.count(2, 1), 1);
        assert_eq!(m.count(0, 0), 0);
        assert_eq!(m.total(), 6);
        assert!(m.is_symmetric());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn haralick_1973_worked_example() {
        // The 4x4 example image from Haralick et al. 1973, Ng = 4:
        //   0 0 1 1
        //   0 0 1 1
        //   0 2 2 2
        //   2 2 3 3
        // Horizontal (0 deg, d=1) symmetric GLCM has well-known counts.
        let img = vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 2, 2, 2, 2, 2, 3, 3];
        let vol = LevelVolume::from_raw(Dims4::new(4, 4, 1, 1), img, 4).unwrap();
        let dirs = DirectionSet::single(Direction::new(1, 0, 0, 0));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        let expect = [[4, 2, 1, 0], [2, 4, 0, 0], [1, 0, 6, 1], [0, 0, 1, 2]];
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.count(i, j), expect[i][j], "mismatch at ({i},{j})");
            }
        }
        assert_eq!(m.total(), 24);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn vertical_direction_haralick_example() {
        // Same image, 90 deg (d = (0,1)): the classic #P_90 matrix.
        let img = vec![0, 0, 1, 1, 0, 0, 1, 1, 0, 2, 2, 2, 2, 2, 3, 3];
        let vol = LevelVolume::from_raw(Dims4::new(4, 4, 1, 1), img, 4).unwrap();
        let dirs = DirectionSet::single(Direction::new(0, 1, 0, 0));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        let expect = [[6, 0, 2, 0], [0, 4, 2, 0], [2, 2, 2, 2], [0, 0, 2, 0]];
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.count(i, j), expect[i][j], "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn opposite_directions_yield_identical_matrices() {
        let vol = checkerboard();
        let f = DirectionSet::new([Direction::new(1, -1, 0, 0)]);
        let b = DirectionSet::new([Direction::new(-1, 1, 0, 0)]);
        let mf = CoMatrix::from_region(&vol, vol.full_region(), &f);
        let mb = CoMatrix::from_region(&vol, vol.full_region(), &b);
        assert_eq!(mf, mb);
    }

    fn checkerboard() -> LevelVolume {
        let dims = Dims4::new(6, 6, 2, 2);
        let data: Vec<u8> = dims
            .region()
            .points()
            .map(|p| ((p.x + p.y + p.z + p.t) % 2) as u8)
            .collect();
        LevelVolume::from_raw(dims, data, 2).unwrap()
    }

    #[test]
    fn checkerboard_has_no_equal_neighbours_on_odd_directions() {
        // Along any displacement of odd component-sum, a checkerboard only
        // pairs differing levels.
        let vol = checkerboard();
        let dirs = DirectionSet::single(Direction::new(1, 0, 0, 0));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        assert_eq!(m.count(0, 0), 0);
        assert_eq!(m.count(1, 1), 0);
        assert!(m.count(0, 1) > 0);
    }

    #[test]
    fn temporal_direction_counts() {
        // 1x1x1 spatial, 4 time steps: levels 0,0,1,1 along t.
        let vol = LevelVolume::from_raw(Dims4::new(1, 1, 1, 4), vec![0, 0, 1, 1], 2).unwrap();
        let dirs = DirectionSet::single(Direction::new(0, 0, 0, 1));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        assert_eq!(m.count(0, 0), 2);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.count(1, 1), 2);
        assert_eq!(m.total(), 6);
    }

    #[test]
    fn region_boundary_is_respected() {
        // Counting within a sub-region must not see pairs crossing its edge.
        let dims = Dims4::new(8, 1, 1, 1);
        let vol = LevelVolume::from_raw(dims, vec![0, 0, 0, 0, 1, 1, 1, 1], 2).unwrap();
        let left = Region4::new(Point4::ZERO, Dims4::new(4, 1, 1, 1));
        let dirs = DirectionSet::single(Direction::new(1, 0, 0, 0));
        let m = CoMatrix::from_region(&vol, left, &dirs);
        assert_eq!(m.count(0, 0), 6, "3 pairs, doubled");
        assert_eq!(m.count(0, 1), 0, "pair crossing the region edge leaked in");
    }

    #[test]
    fn distance_scaling() {
        // [0,1,0,1,0,1] at distance 2 pairs only equal levels.
        let vol = LevelVolume::from_raw(Dims4::new(6, 1, 1, 1), vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let d2 = DirectionSet::single(Direction::new(1, 0, 0, 0).scaled(2));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &d2);
        assert_eq!(m.count(0, 1), 0);
        assert_eq!(m.count(0, 0), 4);
        assert_eq!(m.count(1, 1), 4);
    }

    #[test]
    fn accumulate_over_direction_batches_equals_single_set() {
        let vol = checkerboard();
        let all = DirectionSet::all_unique_4d(1);
        let whole = CoMatrix::from_region(&vol, vol.full_region(), &all);
        let mut batched = CoMatrix::zeros(vol.levels());
        for d in &all {
            batched.accumulate(&vol, vol.full_region(), &DirectionSet::single(*d));
        }
        assert_eq!(whole, batched);
    }

    #[test]
    fn merge_sums_counts() {
        let vol = tiny();
        let dirs = DirectionSet::single(Direction::new(1, 0, 0, 0));
        let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
        let mut doubled = m.clone();
        doubled.merge(&m);
        assert_eq!(doubled.total(), 2 * m.total());
        assert_eq!(doubled.count(1, 1), 2 * m.count(1, 1));
    }

    #[test]
    fn matrix_size_is_fixed_by_levels() {
        // "the size of the co-occurrence matrix is fixed by the total number
        // of gray levels and is independent of distance and direction".
        let vol = checkerboard();
        let m1 = CoMatrix::from_region(
            &vol,
            vol.full_region(),
            &DirectionSet::single(Direction::new(1, 0, 0, 0)),
        );
        let m2 = CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::all_unique_4d(2));
        assert_eq!(m1.as_slice().len(), m2.as_slice().len());
    }

    /// A `dims` volume over `ng` levels: a smooth ramp (long runs of equal
    /// pairs), or uniform noise from a counter hash of `seed`.
    fn ramp_or_noise(dims: Dims4, ng: u16, noise: bool, seed: u64) -> LevelVolume {
        let data: Vec<u8> = dims
            .region()
            .points()
            .enumerate()
            .map(|(k, p)| {
                let v = if noise {
                    let mut h = (k as u64 + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    h ^= h >> 31;
                    h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 40
                } else {
                    ((p.x + p.y + 2 * p.z + 3 * p.t) / 3) as u64
                };
                (v % u64::from(ng)) as u8
            })
            .collect();
        LevelVolume::from_raw(dims, data, ng).unwrap()
    }

    /// Drains `counts` into sparse entries, checks the store was left
    /// all-zero, and returns the entries with the total they stand for.
    fn drain_checked(counts: &mut UpperCounts, case: &str) -> (Vec<SparseEntry>, u64) {
        let mut entries = Vec::new();
        counts.drain(|i, j, count| entries.push(SparseEntry { i, j, count }));
        assert!(
            counts.cells.iter().all(|&c| c == [0; 2]),
            "{case}: drain left a count"
        );
        let total = entries
            .iter()
            .map(|e| u64::from(e.count) * if e.i == e.j { 1 } else { 2 })
            .sum();
        (entries, total)
    }

    #[test]
    fn upper_count_then_drain_equals_dense_then_sparse() {
        use crate::sparse::SparseCoMatrix;
        let dims = Dims4::new(7, 6, 3, 3);
        let regions = [
            // Touches every face of the volume.
            dims.region(),
            // Low faces only, high faces only, none.
            Region4::new(Point4::ZERO, Dims4::new(4, 3, 2, 2)),
            Region4::new(Point4::new(3, 3, 1, 1), Dims4::new(4, 3, 2, 2)),
            Region4::new(Point4::new(2, 1, 1, 1), Dims4::new(3, 4, 1, 1)),
            // x-extent 2: one-pair rows under dx = ±1.
            Region4::new(Point4::new(4, 1, 0, 1), Dims4::new(2, 4, 3, 2)),
        ];
        for ng in [1, 2, 32, 256] {
            // One store per level count, reused: each drain must leave the
            // all-zero store the next count starts from.
            let mut counts = UpperCounts::zeros(ng);
            for (seed, noise) in [(0, false), (1, true), (2, true)] {
                let vol = ramp_or_noise(dims, ng, noise, seed);
                for dirs in [
                    DirectionSet::single(Direction::new(1, -1, 0, 1)),
                    DirectionSet::all_unique_4d(1),
                ] {
                    for region in regions {
                        let case = format!("Ng {ng} noise {noise} |D| {} {region:?}", dirs.len());
                        let expected =
                            SparseCoMatrix::from_dense(&CoMatrix::from_region(&vol, region, &dirs));
                        counts.count_region(&vol, region, &dirs);
                        let (entries, total) = drain_checked(&mut counts, &case);
                        assert_eq!(entries, expected.entries(), "{case}");
                        assert_eq!(total, expected.total(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_constant_region_drains_two_counts_per_pair_onto_the_diagonal() {
        let dims = Dims4::new(7, 6, 3, 3);
        let dirs = DirectionSet::all_unique_4d(1);
        for ng in [1, 2, 32, 256] {
            let level = (ng - 1) as u8;
            let vol = LevelVolume::from_raw(dims, vec![level; dims.len()], ng).unwrap();
            let mut counts = UpperCounts::zeros(ng);
            for region in [
                dims.region(),
                Region4::new(Point4::new(2, 1, 1, 1), Dims4::new(3, 4, 1, 1)),
            ] {
                let mut pairs = 0;
                for_each_pair_row(&vol, region, &dirs, |a, _| pairs += a.len() as u32);
                counts.count_region(&vol, region, &dirs);
                let (entries, _) = drain_checked(&mut counts, &format!("Ng {ng} {region:?}"));
                assert_eq!(
                    entries,
                    [SparseEntry {
                        i: level,
                        j: level,
                        count: 2 * pairs
                    }]
                );
            }
        }
    }

    #[test]
    fn from_parts_refuses_every_broken_invariant() {
        // C(1,1) = 3, C(1,2) = C(2,1) = 3, C(0,0) = 2.
        let mut counts = vec![0u32; 16];
        (counts[0], counts[5], counts[6], counts[9]) = (2, 3, 3, 3);
        let m = CoMatrix::from_parts(4, counts.clone(), 11).unwrap();
        assert!(m.is_symmetric());
        assert_eq!(
            CoMatrix::from_parts(0, vec![], 0),
            Err(PartsError::Levels(0))
        );
        assert_eq!(
            CoMatrix::from_parts(257, vec![0; 257 * 257], 0),
            Err(PartsError::Levels(257))
        );
        assert_eq!(
            CoMatrix::from_parts(4, vec![0; 15], 0),
            Err(PartsError::Length {
                len: 15,
                expected: 16
            })
        );
        assert_eq!(
            CoMatrix::from_parts(4, counts.clone(), 12),
            Err(PartsError::Total { total: 12, sum: 11 })
        );
        // The total still matches, but only the lower cell of (1, 2) is set.
        (counts[6], counts[9]) = (0, 6);
        let err = CoMatrix::from_parts(4, counts, 11).unwrap_err();
        assert_eq!(
            err,
            PartsError::Asymmetric {
                i: 1,
                j: 2,
                upper: 0,
                lower: 6
            }
        );
        assert!(
            err.to_string().contains("C(1, 2) = 0 but C(2, 1) = 6"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds volume")]
    fn oversized_region_panics() {
        let vol = tiny();
        let big = Region4::new(Point4::ZERO, Dims4::new(5, 1, 1, 1));
        let _ = CoMatrix::from_region(&vol, big, &DirectionSet::all_unique_2d(1));
    }

    #[test]
    #[should_panic(
        expected = "ROI 256x256x32x32 with 40 directions can put more than u32::MAX counts"
    )]
    fn region_that_could_overflow_a_cell_is_refused() {
        // 2 · 2²⁶ · 40 > u32::MAX: refused before the region is compared
        // with the volume, instead of wrapping a cell in a release build.
        let region = Region4::new(Point4::ZERO, Dims4::new(256, 256, 32, 32));
        let _ = CoMatrix::from_region(&tiny(), region, &DirectionSet::all_unique_4d(1));
    }

    #[test]
    fn max_cell_count_stops_at_u32_max() {
        // 2 · len · |D| is even, so the boundary is u32::MAX ∓ 1.
        let half = 1usize << 31;
        assert_eq!(max_cell_count(half - 1, 1), Some(u32::MAX - 1));
        assert_eq!(max_cell_count(half, 1), None, "u32::MAX + 1");
        assert_eq!(max_cell_count(10 * 10 * 3 * 3, 40), Some(72_000));
        // A ROI spanning the paper's whole 256x256x32x32 volume, 40 directions.
        assert_eq!(max_cell_count(256 * 256 * 32 * 32, 40), None);
        assert_eq!(max_cell_count(usize::MAX, usize::MAX), None, "u64 overflow");
        assert_eq!(max_cell_count(0, 40), Some(0));
    }
}
