//! Sparse co-occurrence matrix representation (paper §4.4.1).
//!
//! Requantized MRI co-occurrence matrices are typically ~99% zeros (the
//! paper measured an average of 10.7 non-zero entries out of 1024 for
//! `Ng = 32`). The sparse form stores only the non-zero, non-duplicated
//! (upper-triangle) entries together with their positions:
//!
//! * Haralick parameters can be calculated **directly from the sparse form**
//!   without converting back to a dense array and without testing entries
//!   for zero (see [`crate::features::MatrixStats::from_sparse`]);
//! * when the texture-analysis operations are split between co-occurrence
//!   (HCC) and parameter (HPC) filters, transmitting matrices in sparse form
//!   **greatly reduces the network traffic** between them.

use crate::coocc::CoMatrix;
use serde::{Deserialize, Serialize};

/// One non-zero upper-triangle entry: gray-level pair `(i, j)` with
/// `i <= j`, and its count. The symmetric `(j, i)` entry is implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseEntry {
    /// Row gray level (`i <= j`).
    pub i: u8,
    /// Column gray level.
    pub j: u8,
    /// Co-occurrence count `C(i, j)` (equal to `C(j, i)`).
    pub count: u32,
}

/// A sparse, symmetric co-occurrence matrix: only non-zero upper-triangle
/// entries are stored, with positional information.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseCoMatrix {
    levels: u16,
    total: u64,
    entries: Vec<SparseEntry>,
}

impl SparseCoMatrix {
    /// Converts a dense matrix to sparse form. Entries are emitted in
    /// row-major upper-triangle order.
    ///
    /// # Panics
    /// If the dense matrix is not symmetric (which would indicate a
    /// corrupted accumulation).
    pub fn from_dense(m: &CoMatrix) -> Self {
        debug_assert!(m.is_symmetric(), "co-occurrence matrix must be symmetric");
        let ng = m.levels() as usize;
        let mut entries = Vec::new();
        for i in 0..ng {
            for j in i..ng {
                let c = m.count(i, j);
                if c != 0 {
                    entries.push(SparseEntry {
                        i: i as u8,
                        j: j as u8,
                        count: c,
                    });
                }
            }
        }
        Self {
            levels: m.levels(),
            total: m.total(),
            entries,
        }
    }

    /// Reconstructs a sparse matrix from its raw parts — the decode side of
    /// a wire codec. Validates the upper-triangle invariants (`i <= j`, both
    /// below `levels`, counts non-zero) and that `total` matches the
    /// symmetric sum, so a corrupted frame cannot produce a matrix the
    /// feature math would silently mis-handle.
    pub fn from_parts(levels: u16, total: u64, entries: Vec<SparseEntry>) -> Result<Self, String> {
        let mut sum = 0u64;
        for e in &entries {
            if e.i > e.j || u16::from(e.j) >= levels {
                return Err(format!(
                    "sparse entry ({}, {}) violates upper-triangle bounds for Ng = {levels}",
                    e.i, e.j
                ));
            }
            if e.count == 0 {
                return Err(format!("sparse entry ({}, {}) has a zero count", e.i, e.j));
            }
            // Off-diagonal entries imply their symmetric twin.
            sum += u64::from(e.count) * if e.i == e.j { 1 } else { 2 };
        }
        if sum != total {
            return Err(format!(
                "sparse total {total} does not match the symmetric entry sum {sum}"
            ));
        }
        Ok(Self {
            levels,
            total,
            entries,
        })
    }

    /// Reconstructs the dense matrix (used only by tests and by consumers
    /// that explicitly need dense form — feature computation does not).
    pub fn to_dense(&self) -> CoMatrix {
        let mut m = CoMatrix::zeros(self.levels);
        let ng = self.levels as usize;
        // Rebuild through the public accumulation-free path: counts placed
        // symmetrically, total restored.
        let mut counts = vec![0u32; ng * ng];
        for e in &self.entries {
            counts[e.i as usize * ng + e.j as usize] = e.count;
            counts[e.j as usize * ng + e.i as usize] = e.count;
        }
        m.overwrite(counts, self.total);
        m
    }

    /// Number of gray levels `Ng`.
    pub const fn levels(&self) -> u16 {
        self.levels
    }

    /// Total count `R` (including implied symmetric duplicates).
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// The stored non-zero upper-triangle entries.
    pub fn entries(&self) -> &[SparseEntry] {
        &self.entries
    }

    /// Number of stored entries — the paper's sparsity metric.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of the `Ng (Ng + 1)/2` unique positions that are non-zero.
    pub fn fill_ratio(&self) -> f64 {
        let unique = self.levels as usize * (self.levels as usize + 1) / 2;
        self.entries.len() as f64 / unique as f64
    }

    /// Serialized size in bytes when transmitted between filters: a small
    /// header (levels + total + entry count) plus 6 bytes per entry
    /// (two position bytes and a 4-byte count).
    ///
    /// This is the quantity that drives the HCC→HPC communication-volume
    /// reduction in the split-filter implementation.
    pub fn wire_size(&self) -> usize {
        Self::wire_size_for(self.entries.len())
    }

    /// Wire size for a hypothetical entry count (used by the cost models).
    pub const fn wire_size_for(nnz: usize) -> usize {
        2 + 8 + 4 + nnz * 6
    }

    /// Wire size of the equivalent dense matrix: header plus 4 bytes per
    /// `Ng²` count.
    pub const fn dense_wire_size(levels: u16) -> usize {
        2 + 8 + (levels as usize) * (levels as usize) * 4
    }
}

/// A bitmap over the `Ng²` dense matrix cells recording which are non-zero
/// (the matrix *support*).
///
/// The fused scan engine keeps this exact at every sliding-window step (a
/// count moving to or from zero sets or clears one bit), so the per-window
/// statistics — which must visit exactly the non-zero cells, in row-major
/// order, to reproduce the zero-skip sweep bit-for-bit — can be recomputed in
/// `O(nnz)` instead of `O(Ng²)` per placement.
#[derive(Debug, Clone)]
pub(crate) struct SupportMask {
    words: Vec<u64>,
}

impl SupportMask {
    /// The support of a dense matrix — what the engine's incremental
    /// bookkeeping is checked against.
    #[cfg(test)]
    pub(crate) fn from_matrix(m: &CoMatrix) -> Self {
        let counts = m.as_slice();
        let mut words = vec![0u64; counts.len().div_ceil(64)];
        for (idx, &c) in counts.iter().enumerate() {
            if c != 0 {
                words[idx / 64] |= 1 << (idx % 64);
            }
        }
        Self { words }
    }

    /// An all-clear mask covering `cells` dense matrix cells. Paired with
    /// [`clear_all`](Self::clear_all) this lets the fused scan engine keep
    /// one mask allocation alive across every row a worker processes.
    pub(crate) fn empty(cells: usize) -> Self {
        Self {
            words: vec![0u64; cells.div_ceil(64)],
        }
    }

    /// Clears every bit, keeping the allocation.
    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Flags cell `idx` as non-zero if `cond`, branchlessly: count
    /// transitions in the sliding-window hot loop are frequent enough to
    /// defeat the branch predictor, so the condition is folded into the OR
    /// mask instead.
    #[inline]
    pub(crate) fn set_if(&mut self, idx: usize, cond: bool) {
        self.words[idx / 64] |= u64::from(cond) << (idx % 64);
    }

    /// Flags cell `idx` as zero if `cond`, branchlessly.
    #[inline]
    pub(crate) fn clear_if(&mut self, idx: usize, cond: bool) {
        self.words[idx / 64] &= !(u64::from(cond) << (idx % 64));
    }

    /// Calls `f` for every set cell index in ascending (row-major) order.
    #[inline]
    pub(crate) fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                f(w * 64 + b);
                bits &= bits - 1;
            }
        }
    }
}

/// Accumulates a co-occurrence matrix **directly in sparse storage**, never
/// materializing the dense `Ng x Ng` array.
///
/// Every pair increment must locate its entry by binary search over the
/// sorted entry list (and occasionally shift on insert), so accumulation is
/// slower than the dense array's O(1) increments — this is exactly the
/// "overhead introduced due to storing and accessing \[the\] co-occurrence
/// matrix in sparse representation" that makes the sparse HMP variant
/// *lose* in paper Figure 7(a), even though the same sparse form *wins*
/// when matrices must cross the network (Figure 7(b)).
#[derive(Debug, Clone)]
pub struct SparseAccumulator {
    levels: u16,
    total: u64,
    /// Sorted by `(i, j)` with `i <= j`.
    entries: Vec<SparseEntry>,
    /// Index of the most recently touched entry: smooth image data produces
    /// long runs of identical gray-level pairs, so this one-entry memo
    /// short-circuits most binary searches.
    last_hit: usize,
}

impl SparseAccumulator {
    /// An empty accumulator for `levels` gray levels.
    ///
    /// # Panics
    /// If `levels` is not in `1..=256`.
    pub fn new(levels: u16) -> Self {
        assert!((1..=256).contains(&levels), "levels must be in 1..=256");
        Self {
            levels,
            total: 0,
            entries: Vec::new(),
            last_hit: usize::MAX,
        }
    }

    /// Records one symmetric voxel-pair observation of gray levels `a`, `b`
    /// (order-insensitive; counts the forward and backward relationship,
    /// i.e. adds 2 to the matrix total like the dense accumulator).
    #[inline]
    pub fn record(&mut self, a: u8, b: u8) {
        let (i, j) = if a <= b { (a, b) } else { (b, a) };
        // Matches the dense convention: the stored upper-triangle count is
        // C(i, j); a diagonal pair contributes 2 there (both orderings land
        // on the same cell), an off-diagonal pair contributes 1.
        let inc = if i == j { 2 } else { 1 };
        let key = (i, j);
        self.total += 2;
        if let Some(e) = self.entries.get_mut(self.last_hit) {
            if (e.i, e.j) == key {
                e.count += inc;
                return;
            }
        }
        match self.entries.binary_search_by(|e| (e.i, e.j).cmp(&key)) {
            Ok(pos) => {
                self.entries[pos].count += inc;
                self.last_hit = pos;
            }
            Err(pos) => {
                self.entries.insert(pos, SparseEntry { i, j, count: inc });
                self.last_hit = pos;
            }
        }
    }

    /// Accumulates all pairs of `region` over `dirs` — the sparse-storage
    /// counterpart of [`CoMatrix::from_region`].
    ///
    /// # Panics
    /// If `region` is not fully contained in the volume.
    pub fn from_region(
        vol: &crate::volume::LevelVolume,
        region: crate::volume::Region4,
        dirs: &crate::direction::DirectionSet,
    ) -> SparseCoMatrix {
        let mut acc = Self::new(vol.levels());
        acc.reaccumulate_region(vol, region, dirs);
        acc.finish()
    }

    /// Rebuilds this accumulator in place from `region` over `dirs` — the
    /// reusable-buffer counterpart of [`from_region`](Self::from_region)
    /// (mirroring [`CoMatrix::reaccumulate`]), replaying the exact same
    /// [`record`](Self::record) sequence so the resulting entry list is
    /// identical. Lets the scan engines keep one entry-list allocation
    /// alive across every placement instead of reallocating per window.
    ///
    /// # Panics
    /// If `region` is not fully contained in the volume, or the level
    /// counts differ.
    pub fn reaccumulate_region(
        &mut self,
        vol: &crate::volume::LevelVolume,
        region: crate::volume::Region4,
        dirs: &crate::direction::DirectionSet,
    ) {
        assert!(
            vol.full_region().contains_region(&region),
            "ROI {region:?} exceeds volume {:?}",
            vol.dims()
        );
        assert_eq!(
            self.levels,
            vol.levels(),
            "accumulator level count does not match volume"
        );
        self.total = 0;
        self.entries.clear();
        self.last_hit = usize::MAX;
        let acc = self;
        let end = region.end();
        // Identical loop structure to the dense accumulator (clamped ranges,
        // linear-index stride): any measured cost difference is purely the
        // sparse storage scheme, not loop overhead.
        for d in dirs {
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
            let dims = vol.dims();
            let data = vol.as_slice();
            let stride = d.dx as i64
                + d.dy as i64 * dims.x as i64
                + d.dz as i64 * (dims.x * dims.y) as i64
                + d.dt as i64 * (dims.x * dims.y * dims.z) as i64;
            for t in t_lo..t_hi {
                for z in z_lo..z_hi {
                    for y in y_lo..y_hi {
                        let row =
                            ((t as usize * dims.z + z as usize) * dims.y + y as usize) * dims.x;
                        for x in x_lo..x_hi {
                            let a = data[row + x as usize];
                            let b = data[(row as i64 + x + stride) as usize];
                            acc.record(a, b);
                        }
                    }
                }
            }
        }
    }

    /// Consumes the accumulator into the immutable sparse matrix.
    pub fn finish(self) -> SparseCoMatrix {
        SparseCoMatrix {
            levels: self.levels,
            total: self.total,
            entries: self.entries,
        }
    }

    /// Counts recorded so far (both directions).
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Number of gray levels `Ng`.
    pub const fn levels(&self) -> u16 {
        self.levels
    }

    /// The non-zero upper-triangle entries accumulated so far, sorted by
    /// `(i, j)` — the same order [`SparseCoMatrix::entries`] would hold
    /// after [`finish`](Self::finish). Lets feature statistics be computed
    /// straight off the accumulator without consuming it (see
    /// [`crate::features::MatrixStats::refill_from_sparse_entries`]).
    pub fn entries(&self) -> &[SparseEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::DirectionSet;
    use crate::features::{compute_features, Feature, FeatureSelection};
    use crate::volume::{Dims4, LevelVolume};

    fn sample_matrix() -> CoMatrix {
        let img: Vec<u8> = (0..256).map(|i| ((i * 31 + i / 16) % 32) as u8).collect();
        let vol = LevelVolume::from_raw(Dims4::new(16, 16, 1, 1), img, 32).unwrap();
        CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::all_unique_2d(1))
    }

    #[test]
    fn dense_sparse_roundtrip() {
        let m = sample_matrix();
        let s = SparseCoMatrix::from_dense(&m);
        let back = s.to_dense();
        assert_eq!(m, back);
    }

    #[test]
    fn sparse_stores_upper_triangle_only() {
        let m = sample_matrix();
        let s = SparseCoMatrix::from_dense(&m);
        for e in s.entries() {
            assert!(e.i <= e.j, "entry below the diagonal: {e:?}");
            assert!(e.count > 0, "zero entry stored");
        }
        assert_eq!(s.nnz(), m.nnz_upper());
    }

    #[test]
    fn features_identical_from_dense_and_sparse() {
        let m = sample_matrix();
        let s = SparseCoMatrix::from_dense(&m);
        let sel = FeatureSelection::all();
        let a = compute_features(&m.stats_checked(), &sel);
        let b = compute_features(&crate::features::MatrixStats::from_sparse(&s), &sel);
        for f in Feature::ALL {
            let (x, y) = (a.get(f).unwrap(), b.get(f).unwrap());
            assert!((x - y).abs() < 1e-10, "{f:?}: dense {x} vs sparse {y}");
        }
    }

    #[test]
    fn wire_size_favours_sparse_on_sparse_matrices() {
        // A single ROI-sized sample: 10x10x3x3 window on smooth data.
        let dims = Dims4::new(10, 10, 3, 3);
        let data: Vec<u8> = dims
            .region()
            .points()
            .map(|p| ((p.x + p.y + p.z + p.t) / 4 % 32) as u8)
            .collect();
        let vol = LevelVolume::from_raw(dims, data, 32).unwrap();
        let m = CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::all_unique_4d(1));
        let s = SparseCoMatrix::from_dense(&m);
        assert!(
            s.wire_size() < SparseCoMatrix::dense_wire_size(32) / 4,
            "sparse wire size {} not far below dense {}",
            s.wire_size(),
            SparseCoMatrix::dense_wire_size(32)
        );
    }

    #[test]
    fn empty_matrix_sparse_form() {
        let m = CoMatrix::zeros(32);
        let s = SparseCoMatrix::from_dense(&m);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.total(), 0);
        assert_eq!(s.to_dense(), m);
    }

    #[test]
    fn sparse_accumulation_equals_dense_then_convert() {
        let img: Vec<u8> = (0..256).map(|i| ((i * 13 + i / 7) % 16) as u8).collect();
        let vol = LevelVolume::from_raw(Dims4::new(16, 4, 2, 2), img, 16).unwrap();
        for dirs in [
            DirectionSet::all_unique_2d(1),
            DirectionSet::paper_4d(1),
            DirectionSet::all_unique_4d(1),
        ] {
            let dense = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
            let via_dense = SparseCoMatrix::from_dense(&dense);
            let direct = SparseAccumulator::from_region(&vol, vol.full_region(), &dirs);
            assert_eq!(via_dense, direct, "sparse accumulation diverged");
        }
    }

    #[test]
    fn accumulator_symmetric_and_diagonal_counting() {
        let mut acc = SparseAccumulator::new(4);
        acc.record(1, 2);
        acc.record(2, 1);
        acc.record(3, 3);
        let m = acc.finish();
        assert_eq!(m.total(), 6);
        let e: Vec<_> = m.entries().to_vec();
        assert_eq!(e.len(), 2);
        assert_eq!((e[0].i, e[0].j, e[0].count), (1, 2, 2));
        assert_eq!((e[1].i, e[1].j, e[1].count), (3, 3, 2));
        // Round-trips through dense identically.
        let back = SparseCoMatrix::from_dense(&m.to_dense());
        assert_eq!(back.entries(), m.entries());
    }

    #[test]
    fn support_mask_tracks_nonzero_cells_in_order() {
        let m = sample_matrix();
        let mut mask = SupportMask::from_matrix(&m);
        let expected: Vec<usize> = m
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = Vec::new();
        mask.for_each_set(|i| seen.push(i));
        assert_eq!(seen, expected, "set bits must sweep row-major ascending");

        // Clearing and re-setting a bit keeps the sweep consistent.
        let first = expected[0];
        mask.clear_if(first, true);
        let mut seen = Vec::new();
        mask.for_each_set(|i| seen.push(i));
        assert_eq!(seen, expected[1..].to_vec());
        mask.set_if(first, true);
        let mut seen = Vec::new();
        mask.for_each_set(|i| seen.push(i));
        assert_eq!(seen, expected);
    }

    #[test]
    fn fill_ratio_matches_nnz() {
        let m = sample_matrix();
        let s = SparseCoMatrix::from_dense(&m);
        let unique = 32 * 33 / 2;
        assert!((s.fill_ratio() - s.nnz() as f64 / unique as f64).abs() < 1e-15);
    }
}
