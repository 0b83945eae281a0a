//! Raster scanning: sliding the ROI window over a volume and emitting one
//! feature vector per placement (paper §3, Figures 1–2).
//!
//! All scans run through [`scan`] / [`scan_placements`] /
//! [`scan_placements_raw`] on one of two [`ScanEngine`]s:
//!
//! * `Reference` — the sequential per-placement rebuild, a direct
//!   transcription of the paper's Figure 2 pseudo-code and the permanent
//!   oracle ([`raster_scan`] forces it; every test compares against it);
//! * `Fused` (default) — the sheet kernel of [`crate::fused`]: per-plane
//!   column histograms advanced by one voxel line per output row, so the
//!   window slides along `x` and `y`, and raw voxels are optionally
//!   quantized on the fly ([`scan_placements_raw`]). The `(z, t)` sheets of
//!   a block are dispatched over the ambient `rayon` pool, so the thread
//!   count is the pool's (`RAYON_NUM_THREADS=1` is sequential) and a
//!   single-sheet block scans on one thread.
//!
//! Both engines produce bit-identical [`FeatureMaps`] for all four
//! [`Representation`]s; the distributed implementation in the `pipeline`
//! crate routes its per-chunk work through [`scan_placements`].

use crate::coocc::{max_cell_count, CoMatrix};
use crate::direction::DirectionSet;
use crate::features::{compute_features, FeatureSelection, MatrixStats};
use crate::fused::{FusedScratch, LevelSource, QuantizedSource, RawLutSource};
use crate::quantize::Quantizer;
use crate::roi::RoiShape;
use crate::sparse::SparseAccumulator;
use crate::volume::{Dims4, LevelVolume, Point4};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Which co-occurrence storage representation the scan uses (paper §4.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Representation {
    /// Dense `Ng x Ng` array, evaluating every entry (no optimization).
    FullNaive,
    /// Dense array with the zero-skip optimization (the paper's ~4x win).
    Full,
    /// Sparse entry list; the matrix is accumulated densely, converted to
    /// sparse form (as the split HCC filter does before transmission), and
    /// features are computed directly from the sparse entries.
    Sparse,
    /// Sparse entry list; the matrix is **accumulated in sparse storage**
    /// (binary-search increments, no dense array ever exists) — the
    /// all-sparse single-filter variant whose storage overhead loses in
    /// paper Figure 7(a).
    SparseAccum,
}

impl Representation {
    /// Whether this is one of the sparse-entry-list representations.
    pub const fn is_sparse(self) -> bool {
        matches!(self, Representation::Sparse | Representation::SparseAccum)
    }

    /// Computes feature-ready statistics from a freshly built dense matrix
    /// according to the representation policy.
    pub fn stats_of(self, m: &CoMatrix) -> MatrixStats {
        match self {
            Representation::FullNaive => m.stats_naive(),
            Representation::Full => m.stats_checked(),
            // Sparse statistics sweep the dense matrix in sparse entry
            // order directly — bit-identical to densify-then-sparsify
            // without materializing the intermediate entry list.
            Representation::Sparse | Representation::SparseAccum => {
                MatrixStats::from_dense_sparse_order(m)
            }
        }
    }
}

/// Which execution path the scan uses (see [`scan`]). Both produce
/// bit-identical output for every [`Representation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ScanEngine {
    /// Sequential, per-placement matrix rebuild (paper Figure 2) — the
    /// readable definition and the oracle.
    Reference,
    /// The fused sheet kernel of [`crate::fused`], one `(z, t)` sheet per
    /// `rayon` task: the window slides along `x` and `y` over per-plane
    /// column histograms, each advanced by one voxel line per output row,
    /// and the statistics sweep only the non-zero cells. Sparse
    /// representations are accumulated natively.
    #[default]
    Fused,
}

/// Retained only so existing [`ScanConfig`] struct literals keep compiling:
/// the fused kernel's t-axis slide this used to select was removed (it
/// moved end-to-end time by under 3 %), and the one remaining value has
/// **no effect**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TSlidePolicy {
    /// The only value; ignored.
    #[default]
    Auto,
}

/// Configuration of a raster scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanConfig {
    /// The scanning window shape.
    pub roi: RoiShape,
    /// Displacements accumulated into each window's co-occurrence matrix.
    pub directions: DirectionSet,
    /// Which Haralick features to emit.
    pub selection: FeatureSelection,
    /// Co-occurrence storage policy.
    pub representation: Representation,
    /// Execution path used by [`scan`] / [`scan_placements`].
    #[serde(default)]
    pub engine: ScanEngine,
    /// Ignored (see [`TSlidePolicy`]).
    #[serde(default)]
    pub t_slide: TSlidePolicy,
}

impl ScanConfig {
    /// The paper's experimental configuration: 10x10x3x3 ROI, all 40 unique
    /// 4D directions at distance 1, the four expensive features, full
    /// representation with zero-skip, default (fused) engine.
    pub fn paper_default() -> Self {
        Self {
            roi: RoiShape::paper_default(),
            directions: DirectionSet::all_unique_4d(1),
            selection: FeatureSelection::paper_default(),
            representation: Representation::Full,
            engine: ScanEngine::default(),
            t_slide: TSlidePolicy::default(),
        }
    }
}

/// Dense per-feature output maps of a raster scan.
///
/// Values are stored interleaved — `selection.len()` consecutive `f64`s per
/// output voxel in x-fastest voxel order — which keeps the parallel fill
/// allocation-free and cache-friendly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMaps {
    dims: Dims4,
    selection: FeatureSelection,
    data: Vec<f64>,
}

impl FeatureMaps {
    /// An all-zero map set.
    pub fn zeros(dims: Dims4, selection: FeatureSelection) -> Self {
        Self {
            dims,
            selection,
            data: vec![0.0; dims.len() * selection.len()],
        }
    }

    /// Output extents (dataset dims − ROI + 1).
    pub const fn dims(&self) -> Dims4 {
        self.dims
    }

    /// The features stored per voxel.
    pub const fn selection(&self) -> &FeatureSelection {
        &self.selection
    }

    /// Value of `feature` at output voxel `p`.
    ///
    /// # Panics
    /// If `feature` is not in the selection or `p` is out of bounds.
    pub fn get(&self, p: Point4, feature: crate::features::Feature) -> f64 {
        let slot = self
            .selection
            .iter()
            .position(|f| f == feature)
            .expect("feature not in selection");
        self.data[self.dims.index(p) * self.selection.len() + slot]
    }

    /// All selected feature values at output voxel `p`, in selection order.
    pub fn values_at(&self, p: Point4) -> &[f64] {
        let n = self.selection.len();
        let base = self.dims.index(p) * n;
        &self.data[base..base + n]
    }

    /// Writes the feature values for output voxel `p` (selection order).
    pub fn set_values(&mut self, p: Point4, values: &[f64]) {
        let n = self.selection.len();
        assert_eq!(values.len(), n, "value count does not match selection");
        let base = self.dims.index(p) * n;
        self.data[base..base + n].copy_from_slice(values);
    }

    /// Extracts a single feature as a flat volume in x-fastest order —
    /// the "4D dataset for each Haralick parameter computed" of paper §4.
    pub fn feature_volume(&self, feature: crate::features::Feature) -> Vec<f64> {
        let slot = self
            .selection
            .iter()
            .position(|f| f == feature)
            .expect("feature not in selection");
        let n = self.selection.len();
        self.data.iter().skip(slot).step_by(n).copied().collect()
    }

    /// Min and max of one feature's map (used for output normalization by
    /// the image writer). Returns `(0, 0)` for empty maps.
    ///
    /// Iterates the interleaved data with a stride directly — no
    /// feature-volume copy is allocated (this runs once per feature per
    /// output write in the `USO`/`JIW` filters).
    pub fn min_max(&self, feature: crate::features::Feature) -> (f64, f64) {
        let slot = self
            .selection
            .iter()
            .position(|f| f == feature)
            .expect("feature not in selection");
        let n = self.selection.len();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in self.data.iter().skip(slot).step_by(n) {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Raw interleaved data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Combines two map sets element-wise (e.g. follow-up minus baseline
    /// for progression monitoring). Geometry and selection must match.
    ///
    /// # Panics
    /// If dims or selections differ.
    pub fn zip_map(&self, other: &FeatureMaps, f: impl Fn(f64, f64) -> f64) -> FeatureMaps {
        assert_eq!(self.dims, other.dims, "dims mismatch in zip_map");
        assert_eq!(
            self.selection, other.selection,
            "selection mismatch in zip_map"
        );
        FeatureMaps {
            dims: self.dims,
            selection: self.selection,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `other − self` per voxel per feature: the progression delta map.
    pub fn delta(&self, other: &FeatureMaps) -> FeatureMaps {
        self.zip_map(other, |a, b| b - a)
    }

    /// Maximum absolute difference to another map set with identical
    /// geometry and selection (testing helper).
    pub fn max_abs_diff(&self, other: &FeatureMaps) -> f64 {
        assert_eq!(self.dims, other.dims);
        assert_eq!(self.selection, other.selection);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Reusable scratch of the reference engine: the dense matrix a placement
/// accumulates into and the statistics accumulator, both recycled across
/// every placement so the hot loop never allocates.
struct ScanScratch {
    matrix: CoMatrix,
    /// Sparse-storage accumulator recycled by the `SparseAccum` rebuild
    /// path (entry list capacity survives across placements).
    sparse_acc: SparseAccumulator,
    stats: MatrixStats,
}

impl ScanScratch {
    /// Scratch for `levels` gray levels.
    fn new(levels: u16) -> Self {
        Self {
            matrix: CoMatrix::zeros(levels),
            sparse_acc: SparseAccumulator::new(levels),
            stats: MatrixStats::reusable(),
        }
    }
}

/// Computes the feature values for the single window at `origin` into
/// `out` (selection order), reusing `scratch` — the allocation-free
/// per-ROI unit of work of the reference engine.
fn scan_one_into(
    vol: &LevelVolume,
    cfg: &ScanConfig,
    origin: Point4,
    scratch: &mut ScanScratch,
    out: &mut [f64],
) {
    match cfg.representation {
        Representation::SparseAccum => {
            let ScanScratch {
                stats, sparse_acc, ..
            } = scratch;
            sparse_acc.reaccumulate_region(vol, cfg.roi.region_at(origin), &cfg.directions);
            stats.refill_from_sparse_entries(
                sparse_acc.levels(),
                sparse_acc.total(),
                sparse_acc.entries(),
            );
        }
        Representation::Sparse => {
            scratch
                .matrix
                .reaccumulate(vol, cfg.roi.region_at(origin), &cfg.directions);
            scratch
                .stats
                .refill_from_dense_sparse_order(&scratch.matrix);
        }
        Representation::Full => {
            scratch
                .matrix
                .reaccumulate(vol, cfg.roi.region_at(origin), &cfg.directions);
            scratch.stats.refill_from_dense(&scratch.matrix, true);
        }
        Representation::FullNaive => {
            scratch
                .matrix
                .reaccumulate(vol, cfg.roi.region_at(origin), &cfg.directions);
            scratch.stats.refill_from_dense(&scratch.matrix, false);
        }
    }
    let values = compute_features(&scratch.stats, &cfg.selection);
    for (slot, feature) in cfg.selection.iter().enumerate() {
        out[slot] = values.get(feature).expect("selected feature computed");
    }
}

/// Computes the feature values for the single window at `origin` (selection
/// order). This is the per-ROI unit of work shared by all drivers and by the
/// pipeline filters.
pub fn scan_one(vol: &LevelVolume, cfg: &ScanConfig, origin: Point4) -> Vec<f64> {
    let mut scratch = ScanScratch::new(vol.levels());
    let mut out = vec![0.0; cfg.selection.len()];
    scan_one_into(vol, cfg, origin, &mut scratch, &mut out);
    out
}

/// Scans the whole volume with the engine configured in `cfg`
/// ([`ScanConfig::engine`]) — the default entry point. Both engines
/// produce bit-identical output.
pub fn scan(vol: &LevelVolume, cfg: &ScanConfig) -> FeatureMaps {
    scan_placements(vol, cfg, Point4::ZERO, cfg.roi.output_dims(vol.dims()))
}

/// Scans the `extent`-shaped block of window placements whose window
/// origins start at `base` (placement `p` uses the window at `base + p`),
/// with the engine configured in `cfg`.
///
/// This is the shared driver behind [`scan`] and the pipeline's per-chunk
/// texture filters, which analyze a sub-block of placements inside a
/// stitched chunk volume.
///
/// # Panics
/// If any requested window exceeds the volume, or a window could put more
/// than `u32::MAX` counts in one matrix cell (`2 · roi.len() · |D|`).
pub fn scan_placements(
    vol: &LevelVolume,
    cfg: &ScanConfig,
    base: Point4,
    extent: Dims4,
) -> FeatureMaps {
    assert_counts_fit(cfg);
    match cfg.engine {
        ScanEngine::Reference => {
            let mut maps = FeatureMaps::zeros(extent, cfg.selection);
            let mut scratch = ScanScratch::new(vol.levels());
            let mut values = vec![0.0; cfg.selection.len()];
            for p in extent.region().points() {
                let origin = Point4::new(base.x + p.x, base.y + p.y, base.z + p.z, base.t + p.t);
                scan_one_into(vol, cfg, origin, &mut scratch, &mut values);
                maps.set_values(p, &values);
            }
            maps
        }
        ScanEngine::Fused => run_fused(&QuantizedSource::new(vol), cfg, base, extent),
    }
}

/// Scans the `extent`-shaped block of placements based at `base` directly
/// from **raw `u16` voxels**. The fused engine quantizes on the fly (one
/// pass over the data, no intermediate [`LevelVolume`]); the reference
/// engine quantizes up front and delegates to [`scan_placements`]. Output
/// is bit-identical to quantizing first in either case.
///
/// # Panics
/// If `raw.len() != dims.len()`, any requested window exceeds the volume,
/// or a window could put more than `u32::MAX` counts in one matrix cell.
pub fn scan_placements_raw(
    dims: Dims4,
    raw: &[u16],
    quantizer: &Quantizer,
    cfg: &ScanConfig,
    base: Point4,
    extent: Dims4,
) -> FeatureMaps {
    match cfg.engine {
        ScanEngine::Reference => scan_placements(&quantizer.quantize(dims, raw), cfg, base, extent),
        ScanEngine::Fused => {
            assert_counts_fit(cfg);
            run_fused(&RawLutSource::new(dims, raw, quantizer), cfg, base, extent)
        }
    }
}

/// Refuses a configuration under which one window could overflow a `u32`
/// matrix cell — and with it the fused kernel's `i32` deltas and `u32`
/// column counts, which the same bound covers. Kept out of line: inlined
/// into [`scan_placements`] it changed the code generated for the reference
/// loop beside it (`rebuild_sparse` +4 % on the benchmark host).
#[inline(never)]
fn assert_counts_fit(cfg: &ScanConfig) {
    assert!(
        max_cell_count(cfg.roi.len(), cfg.directions.len()).is_some(),
        "ROI {} with {} directions can put more than u32::MAX counts in one co-occurrence cell",
        cfg.roi.size(),
        cfg.directions.len()
    );
}

/// Runs the fused sheet kernel over every `(z, t)` sheet of the block, one
/// sheet per `rayon` task with one [`FusedScratch`] per worker.
fn run_fused<S: LevelSource>(
    src: &S,
    cfg: &ScanConfig,
    base: Point4,
    extent: Dims4,
) -> FeatureMaps {
    let mut maps = FeatureMaps::zeros(extent, cfg.selection);
    let n = cfg.selection.len();
    if n == 0 || extent.is_empty() {
        return maps;
    }
    maps.data
        .par_chunks_mut(extent.x * extent.y * n)
        .enumerate()
        .for_each_init(
            || FusedScratch::new(src, cfg, extent.x),
            |scratch, (r, out_sheet)| {
                // Sheet r = z + extent.z · t.
                let origin =
                    Point4::new(base.x, base.y, base.z + r % extent.z, base.t + r / extent.z);
                scratch.scan_sheet(src, origin, extent.y, out_sheet);
            },
        );
    maps
}

/// Sequential raster scan over the whole volume — the reference
/// implementation (paper Figure 2). Forces [`ScanEngine::Reference`]
/// regardless of the configured engine; the fused engine is verified
/// against this output.
pub fn raster_scan(vol: &LevelVolume, cfg: &ScanConfig) -> FeatureMaps {
    let cfg = ScanConfig {
        engine: ScanEngine::Reference,
        ..cfg.clone()
    };
    scan(vol, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Feature;

    fn gradient_volume(dims: Dims4, ng: u16) -> LevelVolume {
        let data: Vec<u8> = dims
            .region()
            .points()
            .map(|p| ((p.x + 2 * p.y + 3 * p.z + 5 * p.t) % ng as usize) as u8)
            .collect();
        LevelVolume::from_raw(dims, data, ng).unwrap()
    }

    fn small_cfg() -> ScanConfig {
        ScanConfig {
            roi: RoiShape::from_lengths(4, 4, 2, 2),
            directions: DirectionSet::all_unique_4d(1),
            selection: FeatureSelection::paper_default(),
            representation: Representation::Full,
            engine: ScanEngine::default(),
            t_slide: TSlidePolicy::default(),
        }
    }

    #[test]
    fn output_geometry() {
        let vol = gradient_volume(Dims4::new(8, 7, 3, 4), 8);
        let maps = raster_scan(&vol, &small_cfg());
        assert_eq!(maps.dims(), Dims4::new(5, 4, 2, 3));
        assert_eq!(maps.as_slice().len(), 5 * 4 * 2 * 3 * 4);
    }

    #[test]
    fn representations_agree() {
        let vol = gradient_volume(Dims4::new(8, 8, 3, 3), 16);
        let mut cfg = small_cfg();
        cfg.selection = FeatureSelection::all();
        cfg.representation = Representation::Full;
        let full = raster_scan(&vol, &cfg);
        cfg.representation = Representation::Sparse;
        let sparse = raster_scan(&vol, &cfg);
        cfg.representation = Representation::FullNaive;
        let naive = raster_scan(&vol, &cfg);
        cfg.representation = Representation::SparseAccum;
        let sparse_accum = raster_scan(&vol, &cfg);
        assert!(full.max_abs_diff(&sparse) < 1e-10);
        assert!(full.max_abs_diff(&naive) < 1e-10);
        assert!(full.max_abs_diff(&sparse_accum) < 1e-10);
    }

    #[test]
    fn scan_one_matches_map_entry() {
        let vol = gradient_volume(Dims4::new(8, 8, 3, 3), 8);
        let cfg = small_cfg();
        let maps = raster_scan(&vol, &cfg);
        let p = Point4::new(2, 3, 1, 1);
        assert_eq!(maps.values_at(p), scan_one(&vol, &cfg, p).as_slice());
    }

    #[test]
    fn feature_volume_extraction() {
        let vol = gradient_volume(Dims4::new(6, 6, 2, 2), 4);
        let cfg = small_cfg();
        let maps = raster_scan(&vol, &cfg);
        let v = maps.feature_volume(Feature::Correlation);
        assert_eq!(v.len(), maps.dims().len());
        let p = Point4::new(1, 1, 0, 0);
        assert_eq!(v[maps.dims().index(p)], maps.get(p, Feature::Correlation));
    }

    #[test]
    fn homogeneous_volume_yields_uniform_maps() {
        let dims = Dims4::new(7, 7, 3, 3);
        let vol = LevelVolume::from_raw(dims, vec![5; dims.len()], 8).unwrap();
        let maps = raster_scan(&vol, &small_cfg());
        let asm = maps.feature_volume(Feature::AngularSecondMoment);
        assert!(asm.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn min_max_bounds_values() {
        let vol = gradient_volume(Dims4::new(8, 8, 3, 3), 8);
        let maps = raster_scan(&vol, &small_cfg());
        let (lo, hi) = maps.min_max(Feature::SumOfSquares);
        for v in maps.feature_volume(Feature::SumOfSquares) {
            assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn zip_map_and_delta() {
        let vol = gradient_volume(Dims4::new(7, 7, 3, 3), 8);
        let cfg = small_cfg();
        let a = raster_scan(&vol, &cfg);
        let doubled = a.zip_map(&a, |x, y| x + y);
        let back = doubled.zip_map(&a, |d, x| d - x);
        assert!(a.max_abs_diff(&back) < 1e-12);
        let d = a.delta(&doubled);
        assert!(d.max_abs_diff(&a) < 1e-12, "delta(a, 2a) must equal a");
    }

    #[test]
    fn roi_larger_than_volume_yields_empty_maps() {
        let vol = gradient_volume(Dims4::new(3, 3, 1, 1), 4);
        let maps = raster_scan(&vol, &small_cfg());
        assert!(maps.dims().is_empty());
        assert!(maps.as_slice().is_empty());
        assert!(scan(&vol, &small_cfg()).dims().is_empty());
    }

    #[test]
    fn fused_matches_reference_bitwise_for_every_representation() {
        let vol = gradient_volume(Dims4::new(9, 8, 3, 3), 8);
        let mut cfg = small_cfg();
        cfg.selection = FeatureSelection::all();
        for repr in [
            Representation::FullNaive,
            Representation::Full,
            Representation::Sparse,
            Representation::SparseAccum,
        ] {
            cfg.representation = repr;
            let reference = raster_scan(&vol, &cfg);
            let maps = scan(&vol, &cfg);
            assert_eq!(maps.dims(), reference.dims());
            assert_eq!(
                maps.max_abs_diff(&reference),
                0.0,
                "fused {repr:?} diverged from the reference scan"
            );
        }
    }

    #[test]
    fn raw_scan_matches_quantize_then_scan() {
        let dims = Dims4::new(9, 8, 3, 3);
        let raw: Vec<u16> = dims
            .region()
            .points()
            .map(|p| ((p.x * 613 + p.y * 271 + p.z * 131 + p.t * 89) % 4001) as u16)
            .collect();
        let q = Quantizer::linear(16, 0, 4000);
        let vol = q.quantize(dims, &raw);
        let mut cfg = small_cfg();
        cfg.selection = FeatureSelection::all();
        let extent = cfg.roi.output_dims(dims);
        for engine in [ScanEngine::Fused, ScanEngine::Reference] {
            cfg.engine = engine;
            let from_raw = scan_placements_raw(dims, &raw, &q, &cfg, Point4::ZERO, extent);
            let from_vol = scan_placements(&vol, &cfg, Point4::ZERO, extent);
            assert_eq!(
                from_raw.max_abs_diff(&from_vol),
                0.0,
                "raw-path {engine:?} diverged from quantize-then-scan"
            );
        }
    }

    #[test]
    fn scan_placements_matches_reference_sub_block() {
        let vol = gradient_volume(Dims4::new(10, 9, 4, 4), 8);
        let cfg = small_cfg();
        let full = raster_scan(&vol, &cfg);
        let base = Point4::new(2, 1, 1, 0);
        let extent = Dims4::new(4, 3, 2, 2);
        let block = scan_placements(&vol, &cfg, base, extent);
        assert_eq!(block.dims(), extent);
        for p in extent.region().points() {
            let q = Point4::new(base.x + p.x, base.y + p.y, base.z + p.z, base.t + p.t);
            assert_eq!(
                block.values_at(p),
                full.values_at(q),
                "sub-block placement {p:?} diverged"
            );
        }
    }

    #[test]
    fn both_engines_refuse_a_cell_count_overflow() {
        // A ROI spanning the paper's whole volume with all 40 directions:
        // 2 · 2²⁶ · 40 > u32::MAX. Refused before any geometry is looked at.
        let vol = gradient_volume(Dims4::new(2, 2, 1, 1), 4);
        let mut cfg = small_cfg();
        cfg.roi = RoiShape::from_lengths(256, 256, 32, 32);
        for engine in [ScanEngine::Reference, ScanEngine::Fused] {
            cfg.engine = engine;
            let refused = std::panic::catch_unwind(|| {
                scan_placements(&vol, &cfg, Point4::ZERO, Dims4::new(0, 0, 0, 0))
            })
            .expect_err("overflowing configuration was accepted");
            let message = refused.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.contains("256x256x32x32") && message.contains("40 directions"),
                "{engine:?}: {message}"
            );
        }
        cfg.roi = RoiShape::from_lengths(256, 256, 32, 16);
        assert!(scan(&vol, &cfg).dims().is_empty(), "2 · 2²⁵ · 40 fits");
    }
}
