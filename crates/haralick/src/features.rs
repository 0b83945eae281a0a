//! The fourteen Haralick texture features.
//!
//! Given the normalized co-occurrence distribution `p(i, j)` (symmetric, so
//! the marginals satisfy `px = py`), Haralick (1973) defines fourteen
//! statistical parameters. This module computes any selected subset from
//! either the full ([`crate::coocc::CoMatrix`]) or sparse
//! ([`crate::sparse::SparseCoMatrix`]) representation via an intermediate
//! [`MatrixStats`] accumulator.
//!
//! # Exact integer moments
//!
//! [`MatrixStats`] keeps integer aggregates of the count matrix — `R`,
//! `Σ C²`, `Σ i·C`, `Σ i²·C`, `Σ i·j·C`, `Σ |i−j|·C` and the integer
//! `p_{x−y}` / `p_{x+y}` histograms — and [`compute_features`] finalizes
//! f1–f4, f6, f7 and f10 from them in `O(1)` (one division of exact integer
//! quantities each, formed in `i64` when `R·max(Ng−1, 1) < 2^30` and in
//! `i128` otherwise) and f5, f8 and f11 by walking the non-zero histogram
//! bins. Integer sums do not depend on the order cells are added in, so
//! every construction of the same matrix — dense, sparse, rebuilt per
//! placement or slid by the fused kernel — yields the same bits for these
//! ten features. Only entropy (f9) and f12–f14 read the per-cell entry list.
//!
//! # Conventions
//!
//! * Gray levels are 0-based (`0..Ng`), so sum-histogram indices run
//!   `0..=2(Ng-1)` rather than Haralick's 1-based `2..=2Ng`. This shifts
//!   `Sum Average` by a constant 2 relative to 1-based formulations; all
//!   other features are index-shift invariant.
//! * `Sum Variance` (f7) is computed about the sum average, i.e.
//!   `Σ (k - f6)² p_{x+y}(k)`. (Haralick's original text writes `f8` in
//!   place of `f6`, widely considered a typo; virtually all modern
//!   implementations use the sum average.)
//! * All logarithms are natural. `0·log 0` is taken as 0.
//! * Degenerate cases (constant region ⇒ zero variance) return 0 for
//!   correlation-type features instead of NaN.
//!
//! # Zero-skip optimization
//!
//! The paper observes that typical requantized MRI co-occurrence matrices
//! are ~99% zeros and that testing entries for zero before adding them to
//! the running sums "allowed us to process a typical MRI dataset in
//! one-fourth the time". [`MatrixStats::from_dense`] implements both the
//! naive (evaluate every entry) and checked (skip zeros) passes so the
//! speedup can be measured; `cluster::calibrate` times both, and the
//! repository's benchmark reports the checked pass per window
//! (`haralick.features.ns_per_window_full`).

use crate::coocc::{CoMatrix, UpperCounts};
use crate::linalg::symmetric_eigenvalues;
use crate::sparse::{SparseCoMatrix, SparseEntry, SupportMask};

/// The fourteen Haralick features, in their original numbering f1–f14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Feature {
    /// f1 — angular second moment (energy), `Σ p(i,j)²`.
    AngularSecondMoment,
    /// f2 — contrast, `Σ_n n² p_{x-y}(n)`.
    Contrast,
    /// f3 — correlation, `(Σ ij·p(i,j) − μx·μy) / (σx·σy)`.
    Correlation,
    /// f4 — sum of squares: variance, `Σ (i − μ)² p(i,j)`.
    SumOfSquares,
    /// f5 — inverse difference moment (homogeneity), `Σ p(i,j)/(1+(i−j)²)`.
    InverseDifferenceMoment,
    /// f6 — sum average, `Σ k·p_{x+y}(k)`.
    SumAverage,
    /// f7 — sum variance, `Σ (k − f6)² p_{x+y}(k)`.
    SumVariance,
    /// f8 — sum entropy, `−Σ p_{x+y}(k) log p_{x+y}(k)`.
    SumEntropy,
    /// f9 — entropy, `−Σ p(i,j) log p(i,j)`.
    Entropy,
    /// f10 — difference variance, the variance of `p_{x-y}`.
    DifferenceVariance,
    /// f11 — difference entropy, `−Σ p_{x-y}(k) log p_{x-y}(k)`.
    DifferenceEntropy,
    /// f12 — information measure of correlation 1, `(HXY − HXY1)/max(HX,HY)`.
    InfoMeasureCorrelation1,
    /// f13 — information measure of correlation 2, `sqrt(1 − e^{−2(HXY2 − HXY)})`.
    InfoMeasureCorrelation2,
    /// f14 — maximal correlation coefficient, `sqrt(λ₂(Q))`.
    MaximalCorrelationCoefficient,
}

impl Feature {
    /// All fourteen features in f1..f14 order.
    pub const ALL: [Feature; 14] = [
        Feature::AngularSecondMoment,
        Feature::Contrast,
        Feature::Correlation,
        Feature::SumOfSquares,
        Feature::InverseDifferenceMoment,
        Feature::SumAverage,
        Feature::SumVariance,
        Feature::SumEntropy,
        Feature::Entropy,
        Feature::DifferenceVariance,
        Feature::DifferenceEntropy,
        Feature::InfoMeasureCorrelation1,
        Feature::InfoMeasureCorrelation2,
        Feature::MaximalCorrelationCoefficient,
    ];

    /// Position in the f1..f14 numbering (0-based): the variants are
    /// declared in that order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short conventional name (as used in output file naming).
    pub fn short_name(self) -> &'static str {
        match self {
            Feature::AngularSecondMoment => "asm",
            Feature::Contrast => "contrast",
            Feature::Correlation => "correlation",
            Feature::SumOfSquares => "sum_of_squares",
            Feature::InverseDifferenceMoment => "idm",
            Feature::SumAverage => "sum_average",
            Feature::SumVariance => "sum_variance",
            Feature::SumEntropy => "sum_entropy",
            Feature::Entropy => "entropy",
            Feature::DifferenceVariance => "difference_variance",
            Feature::DifferenceEntropy => "difference_entropy",
            Feature::InfoMeasureCorrelation1 => "imc1",
            Feature::InfoMeasureCorrelation2 => "imc2",
            Feature::MaximalCorrelationCoefficient => "mcc",
        }
    }
}

/// A subset of the fourteen features to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSelection {
    mask: u16,
}

impl FeatureSelection {
    /// The empty selection.
    pub const fn empty() -> Self {
        Self { mask: 0 }
    }

    /// All fourteen features.
    pub const fn all() -> Self {
        Self {
            mask: (1 << 14) - 1,
        }
    }

    /// The four features used in the paper's experiments — "four of the most
    /// computation-expensive parameters": Angular Second Moment, Correlation,
    /// Sum of Squares, and Inverse Difference Moment.
    pub fn paper_default() -> Self {
        Self::of(&[
            Feature::AngularSecondMoment,
            Feature::Correlation,
            Feature::SumOfSquares,
            Feature::InverseDifferenceMoment,
        ])
    }

    /// Builds a selection from an explicit list.
    pub fn of(features: &[Feature]) -> Self {
        let mut s = Self::empty();
        for &f in features {
            s.mask |= 1 << f.index();
        }
        s
    }

    /// Adds a feature.
    pub fn with(mut self, f: Feature) -> Self {
        self.mask |= 1 << f.index();
        self
    }

    /// Whether `f` is selected.
    pub fn contains(&self, f: Feature) -> bool {
        self.mask & (1 << f.index()) != 0
    }

    /// Number of selected features.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether no features are selected.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Iterates over the selected features in f1..f14 order.
    pub fn iter(&self) -> impl Iterator<Item = Feature> + '_ {
        // Walks the set bits, lowest first: the finalization runs this once
        // per placement.
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            let f = Feature::ALL.get(mask.trailing_zeros() as usize)?;
            mask &= mask.wrapping_sub(1);
            Some(*f)
        })
    }

    /// Whether a selected feature reads the per-cell entry list rather than
    /// [`Moments`]: entropy (f9), the information measures of correlation
    /// (f12, f13) and the maximal correlation coefficient (f14).
    pub(crate) fn needs_entries(&self) -> bool {
        [
            Feature::Entropy,
            Feature::InfoMeasureCorrelation1,
            Feature::InfoMeasureCorrelation2,
            Feature::MaximalCorrelationCoefficient,
        ]
        .into_iter()
        .any(|f| self.contains(f))
    }

    /// The optional [`Moments`] a selected feature reads, as `KEEP_*` bits:
    /// `Σ C²` for f1, `Σ |i−j|·C` for f10, `p_{x−y}` for f5 and f11 and
    /// `p_{x+y}` for f8. `R`, `Σ i·C`, `Σ i²·C` and `Σ i·j·C` are always kept.
    pub(crate) fn kept_moments(&self) -> u8 {
        let mut keep = 0;
        if self.contains(Feature::AngularSecondMoment) {
            keep |= KEEP_SQ;
        }
        if self.contains(Feature::DifferenceVariance) {
            keep |= KEEP_DIST;
        }
        if self.contains(Feature::InverseDifferenceMoment)
            || self.contains(Feature::DifferenceEntropy)
        {
            keep |= KEEP_DIFF;
        }
        if self.contains(Feature::SumEntropy) {
            keep |= KEEP_SUM;
        }
        keep
    }
}

/// [`Moments::shift_each`] keeps `Σ C²`.
pub(crate) const KEEP_SQ: u8 = 1;
/// [`Moments::shift_each`] keeps `Σ |i−j|·C`.
pub(crate) const KEEP_DIST: u8 = 2;
/// [`Moments::shift_each`] keeps the `p_{x−y}` histogram.
pub(crate) const KEEP_DIFF: u8 = 4;
/// [`Moments::shift_each`] keeps the `p_{x+y}` histogram.
pub(crate) const KEEP_SUM: u8 = 8;

/// Computed values for a selection of features. Unselected slots are `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [Option<f64>; 14],
}

impl FeatureVector {
    /// An all-empty vector.
    pub fn empty() -> Self {
        Self { values: [None; 14] }
    }

    /// The value of `f`, if it was computed.
    pub fn get(&self, f: Feature) -> Option<f64> {
        self.values[f.index()]
    }

    /// Sets the value of `f`.
    pub fn set(&mut self, f: Feature, v: f64) {
        self.values[f.index()] = Some(v);
    }

    /// Iterates over `(feature, value)` pairs that were computed.
    pub fn iter(&self) -> impl Iterator<Item = (Feature, f64)> + '_ {
        Feature::ALL
            .into_iter()
            .filter_map(|f| self.values[f.index()].map(|v| (f, v)))
    }

    /// Dense values in f1..f14 order for the given selection, in selection
    /// iteration order. Panics if a selected feature was not computed.
    pub fn dense(&self, sel: &FeatureSelection) -> Vec<f64> {
        sel.iter()
            .map(|f| self.get(f).expect("selected feature missing from vector"))
            .collect()
    }
}

/// Exact integer aggregates of the ordered symmetric count matrix `C` (an
/// off-diagonal cell counted in both orientations), from which
/// [`finalize_into`] finalizes f1–f8, f10 and f11 without visiting a cell.
///
/// Widths: `Ng ≤ 256` and `u32` cells bound `R < 2^48`, `Σ i·C < 2^55`,
/// `Σ |i−j|·C < 2^56`, `Σ i·j·C < 2^62` and `Σ i²·C < 2^63`, so these fit
/// `u64` even while a moved cell's new term is added before its old one is
/// taken away (a term is below `2^50`); every histogram bin (at most `R`)
/// fits `u64`; `Σ C² < 2^80` needs `u128`; and every product the
/// finalization forms (`R²`, `R·Σ i²·C`, `(Σ i·C)²`, `(Σ |i−j|·C)²`) stays
/// below `2^113`, inside `i128`. Every moment is at most `R·(Ng−1)²`, so
/// when `R·max(Ng−1, 1) < 2^30` — every window of the paper's geometry —
/// those products stay below `2^62` and are formed in `i64` instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Moments {
    /// `R = Σ C`.
    r: u64,
    /// `Σ C²`.
    sq: u128,
    /// `Σ i·C`, equal to `Σ j·C` by symmetry.
    i: u64,
    /// `Σ i²·C`.
    ii: u64,
    /// `Σ i·j·C`.
    ij: u64,
    /// `Σ |i − j|·C`.
    dist: u64,
    /// `R·p_{x−y}(k)`, `k = |i − j| ∈ 0..Ng`.
    diff: Histogram,
    /// `R·p_{x+y}(k)`, `k = i + j ∈ 0..=2(Ng−1)`.
    sum: Histogram,
}

impl Moments {
    /// The moments of the empty `ng`-level matrix.
    fn zeros(ng: usize) -> Self {
        Self {
            r: 0,
            sq: 0,
            i: 0,
            ii: 0,
            ij: 0,
            dist: 0,
            diff: Histogram::zeros(ng),
            sum: Histogram::zeros((2 * ng).saturating_sub(1)),
        }
    }

    /// Resets to the moments of the empty `ng`-level matrix, keeping the
    /// buffers when `ng` is unchanged.
    pub(crate) fn clear(&mut self, ng: usize) {
        if self.diff.bins.len() != ng {
            *self = Self::zeros(ng);
            return;
        }
        (self.r, self.sq, self.i, self.ii, self.ij, self.dist) = (0, 0, 0, 0, 0, 0);
        self.diff.clear();
        self.sum.clear();
    }

    /// Adds the ordered cell `(i, j)` holding `c`: the dense rebuild's step,
    /// one orientation at a time.
    #[inline]
    fn add_cell(&mut self, i: usize, j: usize, c: u32) {
        let (i, j, c) = (i as u64, j as u64, u64::from(c));
        self.r += c;
        self.sq += u128::from(c * c);
        self.i += i * c;
        self.ii += i * i * c;
        self.ij += i * j * c;
        self.dist += i.abs_diff(j) * c;
        self.diff.settle(i.abs_diff(j) as usize, c, 0);
        self.sum.settle((i + j) as usize, c, 0);
    }

    /// Moves the upper-triangle cell `(lo, hi)` from count `old` to `new`,
    /// and its mirror `(hi, lo)` with it when off the diagonal: the step of
    /// the fused kernel's apply and of the sparse rebuilds. Every sum gains
    /// the new term before it loses the old one, so no intermediate is
    /// negative.
    #[inline]
    pub(crate) fn shift(&mut self, lo: u8, hi: u8, old: u32, new: u32) {
        debug_assert!(lo <= hi, "cell must be in the upper triangle");
        let (lo, hi) = (u64::from(lo), u64::from(hi));
        let (old, new) = (u64::from(old), u64::from(new));
        // Weights summed over the orientations the cell stands for.
        let (n, wi, wii) = if lo == hi {
            (1, lo, lo * lo)
        } else {
            (2, lo + hi, lo * lo + hi * hi)
        };
        let step = |s: &mut u64, w: u64| *s = *s + w * new - w * old;
        step(&mut self.r, n);
        step(&mut self.i, wi);
        step(&mut self.ii, wii);
        step(&mut self.ij, n * lo * hi);
        step(&mut self.dist, n * (hi - lo));
        let (add, sub) = (n * new, n * old);
        let n = u128::from(n);
        self.sq = self.sq + n * u128::from(new * new) - n * u128::from(old * old);
        self.diff.settle((hi - lo) as usize, add, sub);
        self.sum.settle((lo + hi) as usize, add, sub);
    }

    /// [`shift`](Self::shift) for every `(lo, hi, old, new)` of `cells`,
    /// keeping `R`, `Σ i·C`, `Σ i²·C` and `Σ i·j·C` and, of the rest, only
    /// the moments `KEEP` flags (`KEEP_*`); the others are left as they
    /// were. The sums are held in locals across the loop and moved by each
    /// cell's signed change: after every cell they are the moments of a
    /// matrix with no negative count, so they stay inside the widths argued
    /// on the type (`i64`, `i128` for `Σ C²`). Returns whether `cells`
    /// yielded any cell. The fused kernel's moments-only apply.
    #[inline(always)]
    pub(crate) fn shift_each<const KEEP: u8>(
        &mut self,
        cells: impl Iterator<Item = (u8, u8, u32, u32)>,
    ) -> bool {
        let [mut r, mut si, mut sii, mut sij, mut dist] =
            [self.r, self.i, self.ii, self.ij, self.dist].map(|s| s as i64);
        let mut sq = self.sq as i128;
        let mut moved = false;
        for (lo, hi, old, new) in cells {
            debug_assert!(lo <= hi, "cell must be in the upper triangle");
            moved = true;
            let (l, h) = (i64::from(lo), i64::from(hi));
            let d = i64::from(new) - i64::from(old);
            // Weights summed over the orientations the cell stands for.
            let (n, wi, wii) = if lo == hi {
                (1, l, l * l)
            } else {
                (2, l + h, l * l + h * h)
            };
            r += n * d;
            si += wi * d;
            sii += wii * d;
            sij += n * l * h * d;
            if KEEP & KEEP_SQ != 0 {
                // n · (new² − old²)
                sq += i128::from(n * d) * i128::from(i64::from(new) + i64::from(old));
            }
            if KEEP & KEEP_DIST != 0 {
                dist += n * (h - l) * d;
            }
            let (add, sub) = (n as u64 * u64::from(new), n as u64 * u64::from(old));
            if KEEP & KEEP_DIFF != 0 {
                self.diff.settle((hi - lo) as usize, add, sub);
            }
            if KEEP & KEEP_SUM != 0 {
                self.sum.settle(usize::from(lo) + usize::from(hi), add, sub);
            }
        }
        debug_assert!(r.min(si).min(sii).min(sij).min(dist) >= 0 && sq >= 0);
        [self.r, self.i, self.ii, self.ij, self.dist] = [r, si, sii, sij, dist].map(|s| s as u64);
        self.sq = sq as u128;
        moved
    }

    /// These moments with every one `KEEP` does not flag zeroed: what a
    /// moments-only apply that started from the empty matrix holds.
    #[cfg(test)]
    pub(crate) fn kept(&self, keep: u8) -> Self {
        let mut kept = self.clone();
        let ng = kept.diff.bins.len();
        if keep & KEEP_SQ == 0 {
            kept.sq = 0;
        }
        if keep & KEEP_DIST == 0 {
            kept.dist = 0;
        }
        if keep & KEEP_DIFF == 0 {
            kept.diff = Histogram::zeros(ng);
        }
        if keep & KEEP_SUM == 0 {
            kept.sum = Histogram::zeros((2 * ng).saturating_sub(1));
        }
        kept
    }
}

/// An integer histogram and the mask of its non-zero bins.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Histogram {
    bins: Vec<u64>,
    set: SupportMask,
}

impl Histogram {
    fn zeros(len: usize) -> Self {
        Self {
            bins: vec![0; len],
            set: SupportMask::empty(len),
        }
    }

    /// Zeroes the flagged bins, the only non-zero ones.
    fn clear(&mut self) {
        let Self { bins, set } = self;
        set.for_each_set(|k| bins[k] = 0);
        set.clear_all();
    }

    /// Moves bin `k` by `+add − sub` and its mask bit to "bin non-zero",
    /// branch-free.
    #[inline(always)]
    fn settle(&mut self, k: usize, add: u64, sub: u64) {
        let b = self.bins[k] + add - sub;
        self.bins[k] = b;
        self.set.set_if(k, b != 0);
        self.set.clear_if(k, b == 0);
    }

    /// Calls `f(k, bin)` for every non-zero bin, in ascending `k`.
    fn for_each(&self, mut f: impl FnMut(usize, u64)) {
        self.set.for_each_set(|k| f(k, self.bins[k]));
    }

    /// `−Σ p ln p` with `p = bin / r` over the non-zero bins, in ascending
    /// order.
    fn entropy(&self, r: f64) -> f64 {
        let mut h = 0.0;
        self.for_each(|_, b| h -= plogp(b as f64 / r));
        h
    }
}

/// Feature-ready statistics of a co-occurrence matrix: its exact integer
/// `Moments`, which finalize f1–f8, f10 and f11, and its non-zero cells,
/// which entropy (f9) and f12–f14 read.
///
/// The constructors rebuild both from a matrix. The fused scan engine
/// instead keeps the moments exact as its window slides and collects the
/// entry list only when a selected feature reads it; when none does, it
/// keeps only the moments the selection reads
/// (`FeatureSelection::kept_moments`), so for the paper's four features a
/// placement's statistics touch no cell and no unread moment.
#[derive(Debug, Clone)]
pub struct MatrixStats {
    pub(crate) moments: Moments,
    /// Non-zero ordered cells `(i, j, C(i, j))`, both orientations, in the
    /// order the constructor visited them.
    entries: Vec<(u8, u8, u32)>,
}

impl MatrixStats {
    /// Accumulates statistics from a dense matrix.
    ///
    /// With `zero_skip = true`, zero entries are skipped at the top of the
    /// loop (the paper's optimization). With `zero_skip = false`, every entry
    /// is pushed through the full arithmetic — the unoptimized baseline.
    pub fn from_dense(m: &CoMatrix, zero_skip: bool) -> Self {
        let mut s = Self::reusable();
        s.refill_from_dense(m, zero_skip);
        s
    }

    /// Reusable-buffer counterpart of [`from_dense`](Self::from_dense):
    /// resets this accumulator in place and replays the identical pass, so
    /// scan scratch structs can compute per-placement statistics without
    /// touching the allocator.
    pub(crate) fn refill_from_dense(&mut self, m: &CoMatrix, zero_skip: bool) {
        let ng = m.levels() as usize;
        self.reset(ng);
        for i in 0..ng {
            for j in 0..ng {
                let c = m.count(i, j);
                if zero_skip && c == 0 {
                    continue;
                }
                self.moments.add_cell(i, j, c);
                if c != 0 {
                    self.entries.push((i as u8, j as u8, c));
                }
            }
        }
    }

    /// Accumulates statistics directly from the sparse representation — no
    /// conversion back to a dense array is needed (paper §4.4.1: "the matrix
    /// can be processed directly from the sparse form").
    pub fn from_sparse(m: &SparseCoMatrix) -> Self {
        let mut s = Self::reusable();
        s.refill_from_sparse_entries(m.levels(), m.entries());
        s
    }

    /// [`from_sparse`](Self::from_sparse) in place over a raw sorted
    /// upper-triangle entry list — lets the scan engines compute sparse
    /// statistics straight off a [`crate::sparse::SparseAccumulator`]
    /// without first freezing it into a `SparseCoMatrix`.
    pub(crate) fn refill_from_sparse_entries(&mut self, levels: u16, entries: &[SparseEntry]) {
        self.reset(levels as usize);
        for e in entries {
            self.push_upper(e.i, e.j, e.count);
        }
    }

    /// Sparse-representation statistics of the region counted into `m`:
    /// the entries `from_sparse` would visit, in the same order, drained
    /// through [`UpperCounts::drain`] so `m` is all-zero for the next
    /// placement.
    pub(crate) fn refill_draining_upper(&mut self, m: &mut UpperCounts) {
        self.reset(m.levels() as usize);
        m.drain(|i, j, c| self.push_upper(i, j, c));
    }

    /// [`refill_draining_upper`](Self::refill_draining_upper) with the
    /// entries sorted row-major: the statistics, and the entry order, of
    /// the mirrored matrix's zero-skip pass.
    pub(crate) fn refill_draining_upper_row_major(&mut self, m: &mut UpperCounts) {
        self.refill_draining_upper(m);
        self.entries.sort_unstable();
    }

    /// Records the upper-triangle cell `(i, j)` holding `c` and, off the
    /// diagonal, its mirror: sorted sparse-entry order.
    fn push_upper(&mut self, i: u8, j: u8, c: u32) {
        self.moments.shift(i, j, 0, c);
        self.entries.push((i, j, c));
        if i != j {
            self.entries.push((j, i, c));
        }
    }

    /// Replaces the entry list with the cells flagged in `support` — `m`'s
    /// exact non-zero cells, as the fused scan engine keeps them — in the
    /// order the matching rebuild visits them: ascending over a mirrored
    /// matrix (the dense zero-skip order), or, when `upper_only` (the
    /// sparse store of [`CoMatrix::apply_upper_delta_unmirrored`]),
    /// ascending with each off-diagonal entry mirrored at once (sorted
    /// sparse-entry order). The moments are the caller's to keep.
    pub(crate) fn collect_entries(
        &mut self,
        m: &CoMatrix,
        support: &SupportMask,
        upper_only: bool,
    ) {
        let ng = m.levels() as usize;
        let counts = m.as_slice();
        self.entries.clear();
        // Track the current row instead of dividing each cell index by `ng`;
        // `for_each_set` visits indices in ascending order.
        let (mut row, mut row_end) = (0usize, ng);
        support.for_each_set(|idx| {
            while idx >= row_end {
                row += 1;
                row_end += ng;
            }
            let (i, j, c) = (row as u8, (idx + ng - row_end) as u8, counts[idx]);
            debug_assert!(c != 0, "support mask flags a zero cell");
            self.entries.push((i, j, c));
            if upper_only && i != j {
                debug_assert!(i < j, "sparse support flags a lower-triangle cell");
                self.entries.push((j, i, c));
            }
        });
    }

    /// An empty accumulator intended purely as a reuse target for the
    /// `refill_from_*` methods, which size every buffer on each call.
    pub(crate) fn reusable() -> Self {
        Self {
            moments: Moments::zeros(0),
            entries: Vec::new(),
        }
    }

    /// Restores the statistics of the empty `ng`-level matrix in place.
    fn reset(&mut self, ng: usize) {
        self.moments.clear(ng);
        self.entries.clear();
    }

    /// Number of gray levels.
    pub fn levels(&self) -> usize {
        self.moments.diff.bins.len()
    }

    /// Total count `R` of the underlying matrix.
    pub fn total(&self) -> u64 {
        self.moments.r
    }

    /// The non-zero ordered cells `(i, j, C(i, j))`, both orientations.
    pub(crate) fn entries(&self) -> &[(u8, u8, u32)] {
        &self.entries
    }
}

/// `p · ln p`, taking `0 · ln 0` as 0.
fn plogp(p: f64) -> f64 {
    if p > 0.0 {
        p * p.ln()
    } else {
        0.0
    }
}

/// `−Σ p ln p` over the entry list of a matrix of total `r`, in list order.
fn entropy(entries: &[(u8, u8, u32)], r: f64) -> f64 {
    -entries
        .iter()
        .map(|&(_, _, c)| plogp(f64::from(c) / r))
        .sum::<f64>()
}

/// Finalizes the selected Haralick features from accumulated statistics.
///
/// A thin wrapper over the finalization the scan engines run straight into
/// their output rows: see [`MatrixStats`] for what each feature reads. An
/// empty matrix (zero total count) yields 0 for every selected feature.
pub fn compute_features(stats: &MatrixStats, sel: &FeatureSelection) -> FeatureVector {
    let mut values = [0.0; 14];
    let values = &mut values[..sel.len()];
    finalize_into(stats, sel, values);
    let mut out = FeatureVector::empty();
    for (f, &v) in sel.iter().zip(values.iter()) {
        out.set(f, v);
    }
    out
}

/// Writes the selected features of `stats` into `out`, in selection order.
///
/// f1–f4, f6, f7 and f10 are one division each of exact integers formed
/// from the [`Moments`] — in `i64` when [`fits_i64`] holds, in `i128`
/// otherwise, with the same bits either way; f5, f8 and f11 walk the
/// non-zero `p_{x−y}` / `p_{x+y}` bins in ascending order; entropy (f9) and
/// f12–f14 walk the entry list (f14 also diagonalizes an `s x s` matrix on
/// the occupied levels). An empty matrix yields 0 for every selected
/// feature.
pub(crate) fn finalize_into(stats: &MatrixStats, sel: &FeatureSelection, out: &mut [f64]) {
    debug_assert_eq!(out.len(), sel.len(), "one output slot per selected feature");
    if stats.moments.r == 0 {
        out.fill(0.0);
    } else if fits_i64(stats.moments.r, stats.levels()) {
        finalize::<i64>(stats, sel, out);
    } else {
        finalize::<i128>(stats, sel, out);
    }
}

/// Whether the finalization of a matrix of total `r` over `ng` levels can
/// form every product in `i64`. Every moment is at most `R·(Ng−1)²`, so
/// when `R·max(Ng−1, 1) < 2^30` each product (`R²`, `R·Σ i²·C`,
/// `(Σ i·C)²`, `2R·(Σ i²·C + Σ i·j·C)`, …) and `Σ C²` stay below `2^62`.
/// The `max(…, 1)` keeps `R²` inside the bound at `Ng = 1`.
fn fits_i64(r: u64, ng: usize) -> bool {
    r.saturating_mul(ng.saturating_sub(1).max(1) as u64) < 1 << 30
}

/// A signed width the moment features are finalized in. Both
/// instantiations hold every quantity exactly (see [`fits_i64`]) and
/// convert to `f64` rounding to nearest, ties to even, so they give the
/// same bits.
trait Exact:
    Copy
    + PartialEq
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
{
    fn of(v: u64) -> Self;
    fn of_sq(v: u128) -> Self;
    fn to_f64(self) -> f64;
}

macro_rules! exact {
    ($($t:ty),*) => {$(
        impl Exact for $t {
            #[inline(always)]
            fn of(v: u64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn of_sq(v: u128) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    )*};
}

exact!(i64, i128);

/// [`finalize_into`] for a non-empty matrix, forming the moment products
/// in `W`.
fn finalize<W: Exact>(stats: &MatrixStats, sel: &FeatureSelection, out: &mut [f64]) {
    let m = &stats.moments;
    let [r, si, sii, sij, sd] = [m.r, m.i, m.ii, m.ij, m.dist].map(W::of);
    let (two, four) = (W::of(2), W::of(4));
    let (rf, r2) = (r.to_f64(), (r * r).to_f64());
    // R²·σ², the marginal variance (px = py by symmetry), and
    // R·Σ (i − j)² p(i,j).
    let var = r * sii - si * si;
    let contrast = two * (sii - sij);
    // The paper's selection reads no entry: skip the call.
    let [imc1, imc2, mcc] = if sel.needs_entries() {
        entry_measures(stats, sel, rf)
    } else {
        [0.0; 3]
    };
    for (slot, f) in sel.iter().enumerate() {
        out[slot] = match f {
            Feature::AngularSecondMoment => W::of_sq(m.sq).to_f64() / r2,
            Feature::Contrast => contrast.to_f64() / rf,
            // σ² = 0 exactly when one level is occupied: degenerate.
            Feature::Correlation if var == W::of(0) => 0.0,
            Feature::Correlation => (r * sij - si * si).to_f64() / var.to_f64(),
            Feature::SumOfSquares => var.to_f64() / r2,
            Feature::InverseDifferenceMoment => {
                let mut idm = 0.0;
                m.diff.for_each(|k, b| idm += b as f64 / (1 + k * k) as f64);
                idm / rf
            }
            Feature::SumAverage => (two * si).to_f64() / rf,
            Feature::SumVariance => (two * r * (sii + sij) - four * si * si).to_f64() / r2,
            Feature::SumEntropy => m.sum.entropy(rf),
            Feature::Entropy => entropy(&stats.entries, rf),
            Feature::DifferenceVariance => (r * contrast - sd * sd).to_f64() / r2,
            Feature::DifferenceEntropy => m.diff.entropy(rf),
            Feature::InfoMeasureCorrelation1 => imc1,
            Feature::InfoMeasureCorrelation2 => imc2,
            Feature::MaximalCorrelationCoefficient => mcc,
        };
    }
}

/// f12, f13 and f14 of a matrix of total `rf` from its entry list, each
/// only if selected (0 otherwise).
fn entry_measures(stats: &MatrixStats, sel: &FeatureSelection, rf: f64) -> [f64; 3] {
    let mut measures = [0.0; 3];
    let needs_info = sel.contains(Feature::InfoMeasureCorrelation1)
        || sel.contains(Feature::InfoMeasureCorrelation2);
    if !needs_info && !sel.contains(Feature::MaximalCorrelationCoefficient) {
        return measures;
    }
    // Marginal `px` (= `py` by symmetry): the row sums are integers below
    // 2^53, so summing them in `f64` is exact in any order.
    let mut px = vec![0.0; stats.levels()];
    for &(i, _, c) in &stats.entries {
        px[i as usize] += f64::from(c);
    }
    px.iter_mut().for_each(|p| *p /= rf);
    if needs_info {
        let hxy = entropy(&stats.entries, rf);
        let hx = -px.iter().map(|&p| plogp(p)).sum::<f64>();
        // HXY1 = -Σ p(i,j) log(px(i) py(j)): only non-zero p contribute.
        let mut hxy1 = 0.0;
        for &(i, j, c) in &stats.entries {
            hxy1 -= f64::from(c) / rf * (px[i as usize] * px[j as usize]).ln();
        }
        // HXY2 = -Σ px(i) py(j) log(px(i) py(j)) over the support.
        let mut hxy2 = 0.0;
        for &pi in px.iter().filter(|&&p| p > 0.0) {
            for &pj in px.iter().filter(|&&p| p > 0.0) {
                hxy2 -= plogp(pi * pj);
            }
        }
        // max(HX, HY) = HX since HX = HY by symmetry.
        measures[0] = if hx > 1e-12 { (hxy - hxy1) / hx } else { 0.0 };
        measures[1] = (1.0 - (-2.0 * (hxy2 - hxy)).exp()).max(0.0).sqrt();
    }
    if sel.contains(Feature::MaximalCorrelationCoefficient) {
        measures[2] = mcc(&stats.entries, &px, rf);
    }
    measures
}

/// Maximal correlation coefficient: `sqrt` of the second largest eigenvalue
/// of `Q(i,j) = Σ_k p(i,k) p(j,k)/(px(i) py(k))`.
///
/// For the symmetric distribution, `Q` is similar to `A²` with
/// `A(i,j) = p(i,j)/sqrt(px(i) px(j))`, so the eigenvalues of `Q` are the
/// squares of those of symmetric `A`; the largest is exactly 1.
fn mcc(entries: &[(u8, u8, u32)], px: &[f64], r: f64) -> f64 {
    // Restrict to the support (levels with px > 0) for a well-posed A.
    let support: Vec<usize> = (0..px.len()).filter(|&i| px[i] > 0.0).collect();
    let s = support.len();
    if s < 2 {
        return 0.0;
    }
    let mut pos = vec![usize::MAX; px.len()];
    for (k, &i) in support.iter().enumerate() {
        pos[i] = k;
    }
    let mut a = vec![0.0f64; s * s];
    for &(i, j, c) in entries {
        let (i, j) = (i as usize, j as usize);
        a[pos[i] * s + pos[j]] = f64::from(c) / r / (px[i] * px[j]).sqrt();
    }
    let mut lam2: Vec<f64> = symmetric_eigenvalues(&mut a, s)
        .into_iter()
        .map(|l| l * l)
        .collect();
    lam2.sort_by(|x, y| y.total_cmp(x));
    // lam2[0] is the trivial unit eigenvalue; clamp numerical noise.
    lam2[1].clamp(0.0, 1.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::{Direction, DirectionSet};
    use crate::volume::{Dims4, LevelVolume};

    fn matrix_of(img: Vec<u8>, w: usize, h: usize, ng: u16, d: Direction) -> CoMatrix {
        let vol = LevelVolume::from_raw(Dims4::new(w, h, 1, 1), img, ng).unwrap();
        CoMatrix::from_region(&vol, vol.full_region(), &DirectionSet::single(d))
    }

    /// Uniform 2-level checkerboard pairs only (0,1): a maximally
    /// "contrasty" distribution with known feature values.
    fn checker_stats() -> MatrixStats {
        let img: Vec<u8> = (0..16).map(|i| ((i % 4 + i / 4) % 2) as u8).collect();
        matrix_of(img, 4, 4, 2, Direction::new(1, 0, 0, 0)).stats_checked()
    }

    #[test]
    fn checkerboard_known_values() {
        let s = checker_stats();
        let f = compute_features(&s, &FeatureSelection::all());
        // p(0,1) = p(1,0) = 1/2, p(0,0) = p(1,1) = 0.
        assert!((f.get(Feature::AngularSecondMoment).unwrap() - 0.5).abs() < 1e-12);
        assert!((f.get(Feature::Contrast).unwrap() - 1.0).abs() < 1e-12);
        // μ = 1/2, σ² = 1/4, Σij p = 0 ⇒ corr = (0 - 1/4)/(1/4) = -1.
        assert!((f.get(Feature::Correlation).unwrap() + 1.0).abs() < 1e-12);
        assert!((f.get(Feature::SumOfSquares).unwrap() - 0.25).abs() < 1e-12);
        // IDM = (1/2)/(1+1) * 2 = 1/2.
        assert!((f.get(Feature::InverseDifferenceMoment).unwrap() - 0.5).abs() < 1e-12);
        // p_sum: all mass at k=1 ⇒ SA = 1, SV = 0, SE = 0.
        assert!((f.get(Feature::SumAverage).unwrap() - 1.0).abs() < 1e-12);
        assert!(f.get(Feature::SumVariance).unwrap().abs() < 1e-12);
        assert!(f.get(Feature::SumEntropy).unwrap().abs() < 1e-12);
        // Entropy = -2 * (1/2 ln 1/2) = ln 2.
        assert!((f.get(Feature::Entropy).unwrap() - (2f64).ln()).abs() < 1e-12);
        // p_diff: all mass at k=1 ⇒ DV = 0, DE = 0.
        assert!(f.get(Feature::DifferenceVariance).unwrap().abs() < 1e-12);
        assert!(f.get(Feature::DifferenceEntropy).unwrap().abs() < 1e-12);
        // Perfectly (anti-)dependent levels: MCC = 1.
        assert!((f.get(Feature::MaximalCorrelationCoefficient).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_image_degenerate_features() {
        let m = matrix_of(vec![3; 25], 5, 5, 8, Direction::new(1, 0, 0, 0));
        let f = compute_features(&m.stats_checked(), &FeatureSelection::all());
        assert!((f.get(Feature::AngularSecondMoment).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(f.get(Feature::Contrast).unwrap(), 0.0);
        assert_eq!(
            f.get(Feature::Correlation).unwrap(),
            0.0,
            "degenerate σ → 0"
        );
        assert_eq!(f.get(Feature::Entropy).unwrap(), 0.0);
        assert!((f.get(Feature::InverseDifferenceMoment).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(f.get(Feature::MaximalCorrelationCoefficient).unwrap(), 0.0);
    }

    #[test]
    fn independent_levels_have_near_zero_imc() {
        // A 1024-sample image whose successive pixels are effectively
        // independent (LCG high bits): IMC1 ≈ 0, IMC2 ≈ 0, MCC small.
        let mut state = 12345u32;
        let img: Vec<u8> = (0..1024)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 24) % 4) as u8
            })
            .collect();
        let m = matrix_of(img, 32, 32, 4, Direction::new(1, 0, 0, 0));
        let f = compute_features(&m.stats_checked(), &FeatureSelection::all());
        assert!(f.get(Feature::InfoMeasureCorrelation1).unwrap().abs() < 0.1);
        assert!(f.get(Feature::InfoMeasureCorrelation2).unwrap() < 0.5);
    }

    #[test]
    fn naive_and_checked_passes_agree() {
        let img: Vec<u8> = (0..64).map(|i| ((i * 31 + 7) % 8) as u8).collect();
        let m = matrix_of(img, 8, 8, 8, Direction::new(1, 1, 0, 0));
        let a = compute_features(&m.stats_checked(), &FeatureSelection::all());
        let b = compute_features(&m.stats_naive(), &FeatureSelection::all());
        for feat in Feature::ALL {
            let (x, y) = (a.get(feat).unwrap(), b.get(feat).unwrap());
            assert!(
                (x - y).abs() < 1e-10,
                "{feat:?} differs between checked ({x}) and naive ({y})"
            );
        }
    }

    /// What the fused kernel holds for `m`: the moments moved cell by cell
    /// through `apply_upper_delta_*` — each upper-triangle cell, in reverse
    /// order, overshot by 3 pairs and taken back, so bins also fall and the
    /// zero cells pass through non-zero — and the entry list collected
    /// from the support only when `sel` reads it.
    fn slid(m: &CoMatrix, upper_only: bool, sel: &FeatureSelection) -> MatrixStats {
        let ng = m.levels() as usize;
        let mut slide = CoMatrix::zeros(m.levels());
        let mut support = SupportMask::empty(ng * ng);
        let mut stats = MatrixStats::reusable();
        stats.moments.clear(ng);
        for (i, j) in (0..ng).flat_map(|i| (i..ng).map(move |j| (i, j))).rev() {
            let pairs = i64::from(m.count(i, j)) / if i == j { 2 } else { 1 };
            let (lo, hi) = (i as u8, j as u8);
            for net in [pairs + 3, -3] {
                let old = slide.count(i, j);
                let new = if upper_only {
                    slide.apply_upper_delta_unmirrored(lo, hi, net, &mut support)
                } else {
                    slide.apply_upper_delta_tracked(lo, hi, net, &mut support)
                };
                stats.moments.shift(lo, hi, old, new);
            }
        }
        assert_eq!(slide.total(), m.total(), "the slide must restore R");
        if sel.needs_entries() {
            stats.collect_entries(&slide, &support, upper_only);
        }
        stats
    }

    fn sweep_matrix() -> CoMatrix {
        let img: Vec<u8> = (0..64).map(|i| ((i * 31 + 7) % 8) as u8).collect();
        matrix_of(img, 8, 8, 8, Direction::new(1, 1, 0, 0))
    }

    /// Each single-feature selection and the paper's default set.
    fn subsets() -> Vec<FeatureSelection> {
        let mut selections: Vec<FeatureSelection> = Feature::ALL
            .iter()
            .map(|&f| FeatureSelection::of(&[f]))
            .collect();
        selections.push(FeatureSelection::paper_default());
        selections
    }

    fn assert_bits(got: &FeatureVector, want: &FeatureVector, sel: &FeatureSelection, what: &str) {
        for feat in sel.iter() {
            let (x, y) = (got.get(feat).unwrap(), want.get(feat).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {feat:?} is {x}, not {y}");
        }
    }

    #[test]
    fn support_sweep_is_bit_identical_to_checked_pass() {
        // Moments from the slide, entries from the support sweep: every
        // feature to the bit of the dense zero-skip rebuild.
        let m = sweep_matrix();
        let all = FeatureSelection::all();
        let checked = m.stats_checked();
        let stats = slid(&m, false, &all);
        assert_eq!(stats.moments, checked.moments, "slid moments drifted");
        assert_bits(
            &compute_features(&stats, &all),
            &compute_features(&checked, &all),
            &all,
            "dense slide",
        );
    }

    #[test]
    fn selection_gated_support_sweep_matches_on_every_subset() {
        // A selection that reads no entry skips the sweep: its features
        // come from the moments alone, to the bit of the full rebuild.
        let m = sweep_matrix();
        let full = compute_features(&m.stats_checked(), &FeatureSelection::all());
        for sel in subsets() {
            let stats = slid(&m, false, &sel);
            assert_eq!(stats.entries.is_empty(), !sel.needs_entries());
            assert_bits(&compute_features(&stats, &sel), &full, &sel, "gated sweep");
        }
    }

    #[test]
    fn probabilities_are_normalized() {
        // Both histograms and the entry list each hold all R counts.
        let img: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
        let m = matrix_of(img, 10, 10, 5, Direction::new(0, 1, 0, 0));
        let s = m.stats_checked();
        let r = m.total();
        assert_eq!(s.moments.r, r);
        for h in [&s.moments.diff, &s.moments.sum] {
            assert_eq!(h.bins.iter().sum::<u64>(), r);
        }
        assert_eq!(s.entries.iter().map(|e| u64::from(e.2)).sum::<u64>(), r);
    }

    #[test]
    fn entropy_bounds() {
        // Entropy of an Ng² distribution is at most ln(Ng²).
        let img: Vec<u8> = (0..400).map(|i| ((i * 17 + i / 3) % 16) as u8).collect();
        let m = matrix_of(img, 20, 20, 16, Direction::new(1, 0, 0, 0));
        let f = compute_features(
            &m.stats_checked(),
            &FeatureSelection::of(&[Feature::Entropy]),
        );
        let e = f.get(Feature::Entropy).unwrap();
        assert!(
            e >= 0.0 && e <= (256f64).ln() + 1e-9,
            "entropy {e} out of bounds"
        );
    }

    #[test]
    fn selection_controls_what_is_computed() {
        let s = checker_stats();
        let sel = FeatureSelection::of(&[Feature::Contrast, Feature::Entropy]);
        let f = compute_features(&s, &sel);
        assert!(f.get(Feature::Contrast).is_some());
        assert!(f.get(Feature::Entropy).is_some());
        assert!(f.get(Feature::Correlation).is_none());
        assert_eq!(f.iter().count(), 2);
        assert_eq!(f.dense(&sel).len(), 2);
    }

    #[test]
    fn paper_default_selection() {
        let sel = FeatureSelection::paper_default();
        assert_eq!(sel.len(), 4);
        assert!(sel.contains(Feature::AngularSecondMoment));
        assert!(sel.contains(Feature::Correlation));
        assert!(sel.contains(Feature::SumOfSquares));
        assert!(sel.contains(Feature::InverseDifferenceMoment));
        assert!(!sel.contains(Feature::Entropy));
    }

    #[test]
    fn empty_matrix_yields_zeros() {
        let m = CoMatrix::zeros(8);
        let f = compute_features(&m.stats_checked(), &FeatureSelection::all());
        for feat in Feature::ALL {
            assert_eq!(f.get(feat), Some(0.0), "{feat:?} non-zero on empty matrix");
        }
    }

    #[test]
    fn perfectly_correlated_diagonal_distribution() {
        // Stripes of width 1 along y: horizontal pairs always equal levels.
        let img: Vec<u8> = (0..64).map(|i| ((i / 8) % 4) as u8).collect();
        let m = matrix_of(img, 8, 8, 4, Direction::new(1, 0, 0, 0));
        let f = compute_features(&m.stats_checked(), &FeatureSelection::all());
        assert!((f.get(Feature::Correlation).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(f.get(Feature::Contrast).unwrap(), 0.0);
        assert!((f.get(Feature::InverseDifferenceMoment).unwrap() - 1.0).abs() < 1e-12);
        assert!((f.get(Feature::MaximalCorrelationCoefficient).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feature_short_names_unique() {
        let names: std::collections::HashSet<&str> =
            Feature::ALL.iter().map(|f| f.short_name()).collect();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn sparse_entries_refill_matches_frozen_sparse_matrix() {
        let img: Vec<u8> = (0..64).map(|i| ((i * 13 + 5) % 8) as u8).collect();
        let m = matrix_of(img, 8, 8, 8, Direction::new(1, 0, 0, 0));
        let s = SparseCoMatrix::from_dense(&m);
        let mut from_entries = MatrixStats::reusable();
        from_entries.refill_from_sparse_entries(s.levels(), s.entries());
        let a = compute_features(&MatrixStats::from_sparse(&s), &FeatureSelection::all());
        let b = compute_features(&from_entries, &FeatureSelection::all());
        for feat in Feature::ALL {
            assert_eq!(
                a.get(feat).unwrap().to_bits(),
                b.get(feat).unwrap().to_bits(),
                "{feat:?} not bit-identical"
            );
        }
    }

    #[test]
    fn sparse_support_sweep_matches_sparse_reference_on_every_subset() {
        // The upper-triangle-only store (the sparse-fused working state):
        // moments from the slide, entries swept in sorted sparse order.
        let m = sweep_matrix();
        let reference = MatrixStats::from_sparse(&SparseCoMatrix::from_dense(&m));
        let full = compute_features(&reference, &FeatureSelection::all());
        for sel in subsets().into_iter().chain([FeatureSelection::all()]) {
            let stats = slid(&m, true, &sel);
            assert_eq!(stats.moments, reference.moments, "slid moments drifted");
            assert_bits(&compute_features(&stats, &sel), &full, &sel, "sparse sweep");
        }
    }

    #[test]
    fn feature_index_is_its_position_in_all() {
        for (i, f) in Feature::ALL.into_iter().enumerate() {
            assert_eq!(f.index(), i, "{f:?}");
        }
    }

    /// All fourteen features of `m`, each required to be finite.
    fn finite_features(m: &CoMatrix) -> FeatureVector {
        let f = compute_features(&m.stats_checked(), &FeatureSelection::all());
        for (feat, v) in f.iter() {
            assert!(v.is_finite(), "{feat:?} = {v}");
        }
        f
    }

    #[test]
    fn saturated_256_level_matrix_does_not_overflow_the_moments() {
        // Every cell at u32::MAX: the widest sums `Moments` can be asked
        // for. The levels are independent and uniform over 0..256.
        let c = u64::from(u32::MAX);
        let m = CoMatrix::from_parts(256, vec![u32::MAX; 1 << 16], c << 16).unwrap();
        let f = finite_features(&m);
        assert_eq!(f.get(Feature::Correlation), Some(0.0), "independent levels");
        assert_eq!(f.get(Feature::AngularSecondMoment), Some(1.0 / 65536.0));
        let var = f.get(Feature::SumOfSquares).unwrap();
        assert!(
            (var - (65536.0 - 1.0) / 12.0).abs() < 1e-9,
            "uniform variance {var}"
        );
        let entropy = f.get(Feature::Entropy).unwrap();
        assert!(
            (entropy - 65536f64.ln()).abs() < 1e-9,
            "uniform entropy {entropy}"
        );
    }

    /// All fourteen features of `stats` finalized in width `W`.
    fn finalized<W: Exact>(stats: &MatrixStats) -> [f64; 14] {
        let mut out = [0.0; 14];
        finalize::<W>(stats, &FeatureSelection::all(), &mut out);
        out
    }

    /// The symmetric `ng`-level matrix holding `c` in the diagonal cell
    /// `(ng − 1, ng − 1)`, and, if `spread`, also `c` in `(0, ng − 1)` and
    /// its mirror: the largest moments a total can carry.
    fn corner_matrix(ng: u16, c: u32, spread: bool) -> CoMatrix {
        let n = ng as usize;
        let mut counts = vec![0u32; n * n];
        counts[n * n - 1] = c;
        let mut total = u64::from(c);
        if spread && n > 1 {
            (counts[n - 1], counts[(n - 1) * n]) = (c, c);
            total += 2 * u64::from(c);
        }
        CoMatrix::from_parts(ng, counts, total).unwrap()
    }

    #[test]
    fn i64_finalization_is_exact_below_the_width_bound() {
        // Matrices at R·max(Ng−1, 1) just below and just above 2^30, twice
        // it and far above it, plus seeded random ones around the bound.
        // Below it the i64 and i128 instantiations agree to the bit; above
        // it the i128 one is taken. In a debug build a guard looser than
        // about 2^30.5 overflows the i64 products of a matrix above it and
        // panics.
        let mut matrices = Vec::new();
        for ng in [1u16, 2, 256] {
            let m = u64::from(ng - 1).max(1);
            let below = ((1 << 30) - 1) / m;
            assert!(fits_i64(below, ng as usize), "Ng {ng}: R {below} is below");
            assert!(
                !fits_i64(below + 1, ng as usize),
                "Ng {ng}: R {below} + 1 is not"
            );
            for (spread, r_per_c) in [(false, 1), (true, 3)] {
                let c = below / r_per_c;
                for c in [c, c + 1, 2 * c, u64::from(u32::MAX)] {
                    matrices.push(corner_matrix(ng, c as u32, spread));
                }
            }
        }
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for ng in [2u16, 3, 8, 32] {
            let n = ng as usize;
            // Mean cell so that R·(Ng−1) lands around the bound.
            let mean = ((1u64 << 30) / u64::from(ng - 1) / (n * n) as u64).max(1);
            for _ in 0..8 {
                let mut counts = vec![0u32; n * n];
                for i in 0..n {
                    for j in i..n {
                        let c = (next() % (2 * mean)) as u32;
                        (counts[i * n + j], counts[j * n + i]) = (c, c);
                    }
                }
                let total = counts.iter().map(|&c| u64::from(c)).sum();
                matrices.push(CoMatrix::from_parts(ng, counts, total).unwrap());
            }
        }
        let (mut narrow, mut wide_only) = (0, 0);
        for m in &matrices {
            let stats = m.stats_checked();
            let mut got = [0.0; 14];
            finalize_into(&stats, &FeatureSelection::all(), &mut got);
            let wide = finalized::<i128>(&stats);
            let what = format!("Ng {} R {}", m.levels(), m.total());
            if fits_i64(m.total(), m.levels() as usize) {
                narrow += 1;
                let in_i64 = finalized::<i64>(&stats);
                assert_eq!(in_i64.map(f64::to_bits), wide.map(f64::to_bits), "{what}");
            } else {
                wide_only += 1;
            }
            assert_eq!(got.map(f64::to_bits), wide.map(f64::to_bits), "{what}");
        }
        assert!(
            narrow >= 12 && wide_only >= 12,
            "{narrow} below, {wide_only} above"
        );
        assert!(!fits_i64(u64::MAX, 256), "the guard must not wrap");
    }

    #[test]
    fn single_cell_256_level_matrix_is_degenerate_not_undefined() {
        let mut counts = vec![0u32; 1 << 16];
        counts[200 * 256 + 200] = u32::MAX;
        let m = CoMatrix::from_parts(256, counts, u64::from(u32::MAX)).unwrap();
        let f = finite_features(&m);
        assert_eq!(f.get(Feature::Correlation), Some(0.0), "zero variance");
        assert_eq!(f.get(Feature::AngularSecondMoment), Some(1.0));
        assert_eq!(f.get(Feature::SumAverage), Some(400.0));
        assert_eq!(f.get(Feature::SumOfSquares), Some(0.0));
    }
}
