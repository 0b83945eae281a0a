//! The fourteen Haralick texture features.
//!
//! Given the normalized co-occurrence distribution `p(i, j)` (symmetric, so
//! the marginals satisfy `px = py`), Haralick (1973) defines fourteen
//! statistical parameters. This module computes any selected subset from
//! either the full ([`crate::coocc::CoMatrix`]) or sparse
//! ([`crate::sparse::SparseCoMatrix`]) representation via an intermediate
//! [`MatrixStats`] accumulator.
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
//! speedup can be measured; see `crates/bench/benches/features.rs`.

use crate::coocc::CoMatrix;
use crate::linalg::symmetric_eigenvalues;
use crate::sparse::{SparseCoMatrix, SparseEntry, SupportMask};
use serde::{Deserialize, Serialize};

/// The fourteen Haralick features, in their original numbering f1–f14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

    /// Position in the f1..f14 numbering (0-based).
    pub fn index(self) -> usize {
        Feature::ALL
            .iter()
            .position(|&f| f == self)
            .expect("all features are in ALL")
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
        Feature::ALL.into_iter().filter(|f| self.contains(*f))
    }
}

/// Computed values for a selection of features. Unselected slots are `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Aggregated single-pass statistics of a co-occurrence distribution,
/// sufficient to finalize any Haralick feature.
///
/// Building this accumulator is the expensive per-matrix step; the feature
/// finalization in [`compute_features`] touches only `O(Ng)` histograms
/// (except f14, which diagonalizes an `s x s` matrix on the support).
#[derive(Debug, Clone)]
pub struct MatrixStats {
    ng: usize,
    /// Total count `R`; zero means an empty matrix (all features 0).
    total: u64,
    /// Which features these statistics can finalize. The full constructors
    /// accumulate everything; the selection-aware support sweep skips the
    /// accumulators (entropy logs, entry list, sum/difference histograms)
    /// that no selected feature reads.
    computed: FeatureSelection,
    asm: f64,
    entropy: f64,
    idm: f64,
    /// `Σ i·j·p(i,j)`.
    corr_sum: f64,
    /// Marginal `px(i)` (= `py` by symmetry).
    px: Vec<f64>,
    /// `p_{x+y}(k)`, `k = i + j ∈ 0..=2(Ng-1)`.
    p_sum: Vec<f64>,
    /// `p_{x-y}(k)`, `k = |i - j| ∈ 0..Ng`.
    p_diff: Vec<f64>,
    /// Non-zero ordered entries `(i, j, p)`; both `(i,j)` and `(j,i)` appear.
    entries: Vec<(u8, u8, f64)>,
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
    /// touching the allocator. Bit-identical to a fresh construction.
    pub(crate) fn refill_from_dense(&mut self, m: &CoMatrix, zero_skip: bool) {
        let ng = m.levels() as usize;
        self.reset_for(ng, m.total(), FeatureSelection::all(), &StatNeeds::ALL);
        if m.total() == 0 {
            return;
        }
        let inv_total = 1.0 / m.total() as f64;
        for i in 0..ng {
            for j in 0..ng {
                let c = m.count(i, j);
                if zero_skip && c == 0 {
                    continue;
                }
                let p = f64::from(c) * inv_total;
                self.push(i, j, p);
            }
        }
    }

    /// Accumulates statistics directly from the sparse representation — no
    /// conversion back to a dense array is needed (paper §4.4.1: "the matrix
    /// can be processed directly from the sparse form").
    pub fn from_sparse(m: &SparseCoMatrix) -> Self {
        let mut s = Self::reusable();
        s.refill_from_sparse(m);
        s
    }

    /// Reusable-buffer counterpart of [`from_sparse`](Self::from_sparse);
    /// bit-identical to a fresh construction.
    pub(crate) fn refill_from_sparse(&mut self, m: &SparseCoMatrix) {
        self.refill_from_sparse_entries(m.levels(), m.total(), m.entries());
    }

    /// [`refill_from_sparse`](Self::refill_from_sparse) over a raw sorted
    /// upper-triangle entry list — lets the scan engines compute sparse
    /// statistics straight off a [`crate::sparse::SparseAccumulator`]
    /// without first freezing it into a `SparseCoMatrix`. Bit-identical:
    /// the pass only ever reads `levels`, `total` and the entry slice.
    pub(crate) fn refill_from_sparse_entries(
        &mut self,
        levels: u16,
        total: u64,
        entries: &[SparseEntry],
    ) {
        let ng = levels as usize;
        self.reset_for(ng, total, FeatureSelection::all(), &StatNeeds::ALL);
        if total == 0 {
            return;
        }
        let inv_total = 1.0 / total as f64;
        for e in entries {
            let p = f64::from(e.count) * inv_total;
            let (i, j) = (e.i as usize, e.j as usize);
            self.push(i, j, p);
            if i != j {
                // The stored entry covers only the upper triangle; mirror it.
                self.push(j, i, p);
            }
        }
    }

    /// Constructor form of
    /// [`refill_from_dense_sparse_order`](Self::refill_from_dense_sparse_order).
    pub(crate) fn from_dense_sparse_order(m: &CoMatrix) -> Self {
        let mut s = Self::reusable();
        s.refill_from_dense_sparse_order(m);
        s
    }

    /// Accumulates sparse-representation statistics directly from a dense
    /// matrix: the exact arithmetic of
    /// `from_sparse(&SparseCoMatrix::from_dense(m))` — upper-triangle
    /// row-major entry order, each off-diagonal push immediately mirrored —
    /// without materializing the intermediate entry list.
    /// [`SparseCoMatrix::from_dense`] enumerates cells `(i, j)` with
    /// `j >= i` in row-major order, skipping zeros, and
    /// [`refill_from_sparse`](Self::refill_from_sparse) replays exactly
    /// that sequence, so sweeping the dense matrix in the same order is
    /// bit-identical.
    pub(crate) fn refill_from_dense_sparse_order(&mut self, m: &CoMatrix) {
        debug_assert!(m.is_symmetric(), "co-occurrence matrix must be symmetric");
        let ng = m.levels() as usize;
        self.reset_for(ng, m.total(), FeatureSelection::all(), &StatNeeds::ALL);
        if m.total() == 0 {
            return;
        }
        let inv_total = 1.0 / m.total() as f64;
        for i in 0..ng {
            for j in i..ng {
                let c = m.count(i, j);
                if c == 0 {
                    continue;
                }
                let p = f64::from(c) * inv_total;
                self.push(i, j, p);
                if i != j {
                    self.push(j, i, p);
                }
            }
        }
    }

    /// Accumulates sparse-representation statistics by visiting exactly the
    /// cells flagged in `support` — which the fused engine's sparse mode
    /// keeps as the matrix's **upper-triangle-only** support (see
    /// [`CoMatrix::apply_upper_delta_unmirrored`]) — in ascending order,
    /// with each off-diagonal push immediately mirrored and only the
    /// accumulators the features in `sel` read.
    ///
    /// The ascending sweep over an upper-triangle support enumerates the
    /// non-zero cells in sorted `(i, j)` order — the order
    /// [`SparseCoMatrix::from_dense`] emits entries — and the stored counts
    /// are exactly the sparse entry counts, so every feature in `sel` is
    /// bit-identical to the sparse-representation reference (the gating
    /// argument of [`refill_from_support`](Self::refill_from_support)
    /// applies unchanged). The result can only finalize features in `sel`.
    pub(crate) fn refill_from_sparse_support(
        &mut self,
        m: &CoMatrix,
        support: &SupportMask,
        sel: &FeatureSelection,
    ) {
        let ng = m.levels() as usize;
        let needs = StatNeeds::of(sel);
        self.reset_for(ng, m.total(), *sel, &needs);
        if m.total() == 0 {
            return;
        }
        let inv_total = 1.0 / m.total() as f64;
        let counts = m.as_slice();
        let mut row = 0usize;
        let mut row_end = ng;
        support.for_each_set(|idx| {
            let c = counts[idx];
            debug_assert!(c != 0, "support mask flags a zero cell");
            while idx >= row_end {
                row += 1;
                row_end += ng;
            }
            let col = idx - (row_end - ng);
            debug_assert!(col >= row, "sparse support flags a lower-triangle cell");
            let p = f64::from(c) * inv_total;
            self.push_selected(row, col, p, &needs);
            if col != row {
                self.push_selected(col, row, p, &needs);
            }
        });
    }

    /// Accumulates statistics by visiting exactly the cells flagged in
    /// `support` (the matrix's non-zero cells), in row-major order, and only
    /// the accumulators the features in `sel` read.
    ///
    /// Because [`from_dense`](Self::from_dense) with `zero_skip = true` also
    /// touches exactly the non-zero cells in row-major order — and pushing a
    /// zero probability is an exact IEEE no-op on every accumulator, so the
    /// naive pass agrees too — this produces **bit-identical** values for
    /// every feature in `sel` while doing only `O(nnz)` work, with the
    /// per-cell logarithms, entry-list pushes and histogram updates elided
    /// whenever `sel` does not need them. The fused scan engine keeps
    /// `support` exact across window slides and calls this once per
    /// placement through a per-worker scratch: the accumulator is reset in
    /// place (every value is rewritten from zero, so the result is
    /// bit-identical to a fresh construction) and no buffer is reallocated.
    /// The result can only finalize features in `sel`.
    pub(crate) fn refill_from_support(
        &mut self,
        m: &CoMatrix,
        support: &SupportMask,
        sel: &FeatureSelection,
    ) {
        let ng = m.levels() as usize;
        let needs = StatNeeds::of(sel);
        self.reset_for(ng, m.total(), *sel, &needs);
        if m.total() == 0 {
            return;
        }
        let inv_total = 1.0 / m.total() as f64;
        let counts = m.as_slice();
        // Track the current row instead of dividing each cell index by `ng`;
        // `for_each_set` visits indices in ascending order.
        let mut row = 0usize;
        let mut row_end = ng;
        support.for_each_set(|idx| {
            let c = counts[idx];
            debug_assert!(c != 0, "support mask flags a zero cell");
            while idx >= row_end {
                row += 1;
                row_end += ng;
            }
            self.push_selected(row, idx - (row_end - ng), f64::from(c) * inv_total, &needs);
        });
    }

    /// An empty accumulator intended purely as a reuse target for the
    /// `refill_from_*` methods, which size every buffer on each call.
    pub(crate) fn reusable() -> Self {
        Self {
            ng: 0,
            total: 0,
            computed: FeatureSelection::empty(),
            asm: 0.0,
            entropy: 0.0,
            idm: 0.0,
            corr_sum: 0.0,
            px: Vec::new(),
            p_sum: Vec::new(),
            p_diff: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Restores the state a fresh zeroed accumulator would have, keeping
    /// every buffer allocation. Histograms a selection does not read are
    /// left empty, exactly as the allocating constructor leaves them.
    fn reset_for(&mut self, ng: usize, total: u64, computed: FeatureSelection, needs: &StatNeeds) {
        self.ng = ng;
        self.total = total;
        self.computed = computed;
        self.asm = 0.0;
        self.entropy = 0.0;
        self.idm = 0.0;
        self.corr_sum = 0.0;
        self.px.clear();
        self.px.resize(ng, 0.0);
        self.p_sum.clear();
        if needs.p_sum {
            self.p_sum.resize(2 * ng.saturating_sub(1) + 1, 0.0);
        }
        self.p_diff.clear();
        if needs.p_diff {
            self.p_diff.resize(ng, 0.0);
        }
        self.entries.clear();
    }

    /// Accumulates one ordered entry. Zero probabilities are arithmetic
    /// no-ops but still exercise every operation (this is what makes the
    /// naive dense pass slow).
    #[inline]
    fn push(&mut self, i: usize, j: usize, p: f64) {
        self.push_selected(i, j, p, &StatNeeds::ALL);
    }

    /// [`push`](Self::push) with the unread accumulators gated off. The
    /// gated operations never contribute to a selected feature, so skipping
    /// them leaves every selected feature bit-identical.
    #[inline]
    fn push_selected(&mut self, i: usize, j: usize, p: f64, needs: &StatNeeds) {
        self.asm += p * p;
        if needs.idm {
            self.idm += p / (1.0 + (i as f64 - j as f64) * (i as f64 - j as f64));
        }
        self.corr_sum += (i as f64) * (j as f64) * p;
        if p > 0.0 {
            if needs.entropy {
                self.entropy -= p * p.ln();
            }
            if needs.entries {
                self.entries.push((i as u8, j as u8, p));
            }
        }
        self.px[i] += p;
        if needs.p_sum {
            self.p_sum[i + j] += p;
        }
        if needs.p_diff {
            self.p_diff[i.abs_diff(j)] += p;
        }
    }

    /// Number of gray levels.
    pub fn levels(&self) -> usize {
        self.ng
    }

    /// Total count `R` of the underlying matrix.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Which [`MatrixStats`] accumulators a feature selection actually reads.
/// `px` (and the cheap `asm`/`corr_sum` scalars) are always maintained; the
/// expensive per-cell work — the entropy logarithm, the entry list, the IDM
/// division and the sum/difference histograms — is gated.
struct StatNeeds {
    entropy: bool,
    entries: bool,
    idm: bool,
    p_sum: bool,
    p_diff: bool,
}

impl StatNeeds {
    const ALL: StatNeeds = StatNeeds {
        entropy: true,
        entries: true,
        idm: true,
        p_sum: true,
        p_diff: true,
    };

    fn of(sel: &FeatureSelection) -> Self {
        let info = sel.contains(Feature::InfoMeasureCorrelation1)
            || sel.contains(Feature::InfoMeasureCorrelation2);
        Self {
            entropy: sel.contains(Feature::Entropy) || info,
            entries: info || sel.contains(Feature::MaximalCorrelationCoefficient),
            idm: sel.contains(Feature::InverseDifferenceMoment),
            p_sum: sel.contains(Feature::SumAverage)
                || sel.contains(Feature::SumVariance)
                || sel.contains(Feature::SumEntropy),
            p_diff: sel.contains(Feature::Contrast)
                || sel.contains(Feature::DifferenceVariance)
                || sel.contains(Feature::DifferenceEntropy),
        }
    }
}

fn entropy_of(hist: &[f64]) -> f64 {
    -hist
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>()
}

fn mean_of(hist: &[f64]) -> f64 {
    hist.iter().enumerate().map(|(k, &p)| k as f64 * p).sum()
}

fn variance_of(hist: &[f64]) -> f64 {
    let mu = mean_of(hist);
    hist.iter()
        .enumerate()
        .map(|(k, &p)| (k as f64 - mu) * (k as f64 - mu) * p)
        .sum()
}

/// Finalizes the selected Haralick features from accumulated statistics.
///
/// An empty matrix (zero total count) yields 0 for every selected feature.
pub fn compute_features(stats: &MatrixStats, sel: &FeatureSelection) -> FeatureVector {
    debug_assert!(
        sel.mask & !stats.computed.mask == 0,
        "statistics were accumulated for a narrower selection than requested"
    );
    let mut out = FeatureVector::empty();
    if sel.is_empty() {
        return out;
    }
    if stats.total == 0 {
        for f in sel.iter() {
            out.set(f, 0.0);
        }
        return out;
    }

    // Marginal moments (px = py by symmetry).
    let mu = mean_of(&stats.px);
    let var = variance_of(&stats.px);
    let sigma = var.sqrt();

    if sel.contains(Feature::AngularSecondMoment) {
        out.set(Feature::AngularSecondMoment, stats.asm);
    }
    if sel.contains(Feature::Contrast) {
        let contrast: f64 = stats
            .p_diff
            .iter()
            .enumerate()
            .map(|(n, &p)| (n * n) as f64 * p)
            .sum();
        out.set(Feature::Contrast, contrast);
    }
    if sel.contains(Feature::Correlation) {
        let corr = if sigma > 1e-12 {
            (stats.corr_sum - mu * mu) / (sigma * sigma)
        } else {
            0.0 // constant region: correlation is degenerate
        };
        out.set(Feature::Correlation, corr);
    }
    if sel.contains(Feature::SumOfSquares) {
        // Σ (i - μ)² p(i,j) = Σ_i (i - μ)² px(i) = marginal variance.
        out.set(Feature::SumOfSquares, var);
    }
    if sel.contains(Feature::InverseDifferenceMoment) {
        out.set(Feature::InverseDifferenceMoment, stats.idm);
    }
    if sel.contains(Feature::SumAverage) {
        out.set(Feature::SumAverage, mean_of(&stats.p_sum));
    }
    if sel.contains(Feature::SumVariance) {
        out.set(Feature::SumVariance, variance_of(&stats.p_sum));
    }
    if sel.contains(Feature::SumEntropy) {
        out.set(Feature::SumEntropy, entropy_of(&stats.p_sum));
    }
    if sel.contains(Feature::Entropy) {
        out.set(Feature::Entropy, stats.entropy);
    }
    if sel.contains(Feature::DifferenceVariance) {
        out.set(Feature::DifferenceVariance, variance_of(&stats.p_diff));
    }
    if sel.contains(Feature::DifferenceEntropy) {
        out.set(Feature::DifferenceEntropy, entropy_of(&stats.p_diff));
    }

    let needs_info = sel.contains(Feature::InfoMeasureCorrelation1)
        || sel.contains(Feature::InfoMeasureCorrelation2);
    if needs_info {
        let hxy = stats.entropy;
        let hx = entropy_of(&stats.px);
        // HXY1 = -Σ p(i,j) log(px(i) py(j)): only non-zero p contribute.
        let mut hxy1 = 0.0;
        for &(i, j, p) in &stats.entries {
            let q = stats.px[i as usize] * stats.px[j as usize];
            if q > 0.0 {
                hxy1 -= p * q.ln();
            }
        }
        // HXY2 = -Σ px(i) py(j) log(px(i) py(j)) over the support.
        let mut hxy2 = 0.0;
        for &pi in stats.px.iter().filter(|&&p| p > 0.0) {
            for &pj in stats.px.iter().filter(|&&p| p > 0.0) {
                let q = pi * pj;
                hxy2 -= q * q.ln();
            }
        }
        if sel.contains(Feature::InfoMeasureCorrelation1) {
            let denom = hx; // max(HX, HY) = HX since HX = HY by symmetry
            let v = if denom > 1e-12 {
                (hxy - hxy1) / denom
            } else {
                0.0
            };
            out.set(Feature::InfoMeasureCorrelation1, v);
        }
        if sel.contains(Feature::InfoMeasureCorrelation2) {
            let v = (1.0 - (-2.0 * (hxy2 - hxy)).exp()).max(0.0).sqrt();
            out.set(Feature::InfoMeasureCorrelation2, v);
        }
    }

    if sel.contains(Feature::MaximalCorrelationCoefficient) {
        out.set(Feature::MaximalCorrelationCoefficient, mcc(stats));
    }

    out
}

/// Maximal correlation coefficient: `sqrt` of the second largest eigenvalue
/// of `Q(i,j) = Σ_k p(i,k) p(j,k)/(px(i) py(k))`.
///
/// For the symmetric distribution, `Q` is similar to `A²` with
/// `A(i,j) = p(i,j)/sqrt(px(i) px(j))`, so the eigenvalues of `Q` are the
/// squares of those of symmetric `A`; the largest is exactly 1.
fn mcc(stats: &MatrixStats) -> f64 {
    // Restrict to the support (levels with px > 0) for a well-posed A.
    let support: Vec<usize> = (0..stats.ng).filter(|&i| stats.px[i] > 0.0).collect();
    let s = support.len();
    if s < 2 {
        return 0.0;
    }
    let mut pos = vec![usize::MAX; stats.ng];
    for (k, &i) in support.iter().enumerate() {
        pos[i] = k;
    }
    let mut a = vec![0.0f64; s * s];
    for &(i, j, p) in &stats.entries {
        let (ri, rj) = (pos[i as usize], pos[j as usize]);
        a[ri * s + rj] = p / (stats.px[i as usize] * stats.px[j as usize]).sqrt();
    }
    let mut lam2: Vec<f64> = symmetric_eigenvalues(&mut a, s)
        .into_iter()
        .map(|l| l * l)
        .collect();
    lam2.sort_by(|x, y| y.partial_cmp(x).unwrap());
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

    #[test]
    fn support_sweep_is_bit_identical_to_checked_pass() {
        let img: Vec<u8> = (0..64).map(|i| ((i * 31 + 7) % 8) as u8).collect();
        let m = matrix_of(img, 8, 8, 8, Direction::new(1, 1, 0, 0));
        let mask = SupportMask::from_matrix(&m);
        let a = compute_features(&m.stats_checked(), &FeatureSelection::all());
        let mut stats = MatrixStats::reusable();
        stats.refill_from_support(&m, &mask, &FeatureSelection::all());
        let b = compute_features(&stats, &FeatureSelection::all());
        for feat in Feature::ALL {
            let (x, y) = (a.get(feat).unwrap(), b.get(feat).unwrap());
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{feat:?} not bit-identical: {x} vs {y}"
            );
        }
    }

    #[test]
    fn selection_gated_support_sweep_matches_on_every_subset() {
        // Each single-feature selection (and the paper's default set) must
        // finalize to the exact bits of the full-sweep pass, even though the
        // gated sweep skips every accumulator the selection does not read.
        let img: Vec<u8> = (0..64).map(|i| ((i * 31 + 7) % 8) as u8).collect();
        let m = matrix_of(img, 8, 8, 8, Direction::new(1, 1, 0, 0));
        let mask = SupportMask::from_matrix(&m);
        let full = compute_features(&m.stats_checked(), &FeatureSelection::all());
        let mut selections: Vec<FeatureSelection> = Feature::ALL
            .iter()
            .map(|&f| FeatureSelection::of(&[f]))
            .collect();
        selections.push(FeatureSelection::paper_default());
        for sel in selections {
            let mut stats = MatrixStats::reusable();
            stats.refill_from_support(&m, &mask, &sel);
            let got = compute_features(&stats, &sel);
            for feat in sel.iter() {
                assert_eq!(
                    got.get(feat).unwrap().to_bits(),
                    full.get(feat).unwrap().to_bits(),
                    "{feat:?} diverges under a gated accumulation"
                );
            }
        }
    }

    #[test]
    fn probabilities_are_normalized() {
        let img: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
        let m = matrix_of(img, 10, 10, 5, Direction::new(0, 1, 0, 0));
        let s = m.stats_checked();
        let px_sum: f64 = s.px.iter().sum();
        let psum_sum: f64 = s.p_sum.iter().sum();
        let pdiff_sum: f64 = s.p_diff.iter().sum();
        assert!((px_sum - 1.0).abs() < 1e-12);
        assert!((psum_sum - 1.0).abs() < 1e-12);
        assert!((pdiff_sum - 1.0).abs() < 1e-12);
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
    fn dense_sparse_order_sweep_matches_sparse_roundtrip_bitwise() {
        // The direct dense→sparse-order sweep must reproduce the exact bits
        // of the densify-then-sparsify round trip it replaces.
        let img: Vec<u8> = (0..64).map(|i| ((i * 31 + 7) % 8) as u8).collect();
        let m = matrix_of(img, 8, 8, 8, Direction::new(1, 1, 0, 0));
        let via_sparse = MatrixStats::from_sparse(&SparseCoMatrix::from_dense(&m));
        let direct = MatrixStats::from_dense_sparse_order(&m);
        let a = compute_features(&via_sparse, &FeatureSelection::all());
        let b = compute_features(&direct, &FeatureSelection::all());
        for feat in Feature::ALL {
            assert_eq!(
                a.get(feat).unwrap().to_bits(),
                b.get(feat).unwrap().to_bits(),
                "{feat:?} not bit-identical"
            );
        }
    }

    #[test]
    fn sparse_entries_refill_matches_frozen_sparse_matrix() {
        let img: Vec<u8> = (0..64).map(|i| ((i * 13 + 5) % 8) as u8).collect();
        let m = matrix_of(img, 8, 8, 8, Direction::new(1, 0, 0, 0));
        let s = SparseCoMatrix::from_dense(&m);
        let mut from_entries = MatrixStats::reusable();
        from_entries.refill_from_sparse_entries(s.levels(), s.total(), s.entries());
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
        // Build an upper-triangle-only count matrix (the sparse-fused
        // working state) plus its support, and check the gated sweep
        // against the sparse reference for each single-feature selection.
        let img: Vec<u8> = (0..64).map(|i| ((i * 31 + 7) % 8) as u8).collect();
        let m = matrix_of(img, 8, 8, 8, Direction::new(1, 1, 0, 0));
        let s = SparseCoMatrix::from_dense(&m);
        let ng = m.levels() as usize;
        let mut upper = CoMatrix::zeros(m.levels());
        let mut counts = vec![0u32; ng * ng];
        for e in s.entries() {
            counts[e.i as usize * ng + e.j as usize] = e.count;
        }
        let total = counts.iter().map(|&c| u64::from(c)).sum();
        upper.overwrite(counts, total);
        let mask = SupportMask::from_matrix(&upper);
        let full = compute_features(&MatrixStats::from_sparse(&s), &FeatureSelection::all());
        let mut selections: Vec<FeatureSelection> = Feature::ALL
            .iter()
            .map(|&f| FeatureSelection::of(&[f]))
            .collect();
        selections.push(FeatureSelection::paper_default());
        selections.push(FeatureSelection::all());
        for sel in selections {
            let mut stats = MatrixStats::reusable();
            stats.refill_from_sparse_support(&sweep_input(&upper, s.total()), &mask, &sel);
            let got = compute_features(&stats, &sel);
            for feat in sel.iter() {
                assert_eq!(
                    got.get(feat).unwrap().to_bits(),
                    full.get(feat).unwrap().to_bits(),
                    "{feat:?} diverges in the sparse support sweep"
                );
            }
        }
    }

    /// Rebuilds `upper` with the symmetric total `r` attached — the state
    /// the unmirrored fused merge leaves (upper-triangle counts, full `R`).
    fn sweep_input(upper: &CoMatrix, r: u64) -> CoMatrix {
        let mut m = CoMatrix::zeros(upper.levels());
        let mut s = SupportMask::from_matrix(upper);
        let ng = upper.levels() as usize;
        for i in 0..ng {
            for j in i..ng {
                let c = upper.count(i, j);
                if c != 0 {
                    let net = if i == j {
                        i64::from(c) / 2
                    } else {
                        i64::from(c)
                    };
                    m.apply_upper_delta_unmirrored(i as u8, j as u8, net, &mut s);
                }
            }
        }
        assert_eq!(m.total(), r, "unmirrored merges must restore R exactly");
        m
    }
}
