//! Raster scanning: sliding the ROI window over a volume and emitting one
//! feature vector per placement (paper §3, Figures 1–2).
//!
//! All scans run through [`scan`] / [`scan_placements`] /
//! [`scan_placements_raw`], which finalize features into maps, or
//! [`scan_placements_with`], which visits each placement's statistics, on
//! one of two [`ScanEngine`]s:
//!
//! * `Reference` — the sequential per-placement rebuild, a direct
//!   transcription of the paper's Figure 2 pseudo-code and the permanent
//!   oracle ([`raster_scan`] forces it; every test compares against it);
//! * `Fused` (default) — the sheet kernel of [`crate::fused`]: per-plane
//!   column histograms advanced by one voxel line per output row, so the
//!   window slides along `x` and `y`. The `(z, t)` sheets of a block are
//!   scanned in order on the calling thread; parallelism comes from running
//!   several texture filter copies (paper §4), not from threads inside one
//!   call.
//!
//! Both engines produce bit-identical [`FeatureMaps`] for all four
//! [`Representation`]s. The distributed implementation in the `pipeline`
//! crate scans each chunk once: its HMP filter through
//! [`scan_placements_raw`], and its HCC filter through
//! [`scan_placements_with`], which packs every visited window's matrix
//! for the HPC filter.

use crate::coocc::{assert_counts_fit, CoMatrix, UpperCounts};
use crate::direction::DirectionSet;
use crate::features::{finalize_into, FeatureSelection, MatrixStats};
use crate::fused::FusedScratch;
use crate::quantize::Quantizer;
use crate::roi::RoiShape;
use crate::sparse::SparseAccumulator;
use crate::volume::{Dims4, LevelVolume, Point4};

/// Which co-occurrence storage representation the scan uses (paper §4.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// Dense `Ng x Ng` array, evaluating every entry (no optimization).
    FullNaive,
    /// Dense array with the zero-skip optimization (the paper's ~4x win).
    /// The reference engine counts and drains as for `Sparse`, then sorts
    /// the entries row-major over the mirrored matrix: the zero-skip pass's
    /// statistics in its order, without an `Ng²` fill or sweep.
    Full,
    /// Sparse entry list; the matrix is accumulated in a dense array,
    /// converted to sparse form (as the split HCC filter does before
    /// transmission), and features are computed directly from the sparse
    /// entries. The reference engine adds 1 per pair into one of two
    /// interleaved upper-triangle lanes, then drains only the non-zero rows
    /// into the entry order, summing the lanes and doubling the diagonal:
    /// `O(Ng)` row tests plus the touched rows per placement, with no `Ng²`
    /// fill or sweep.
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
}

/// Which execution path the scan uses (see [`scan`]). Both produce
/// bit-identical output for every [`Representation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanEngine {
    /// Sequential, per-placement matrix rebuild (paper Figure 2) — the
    /// readable definition and the oracle.
    Reference,
    /// The fused sheet kernel of [`crate::fused`], one `(z, t)` sheet after
    /// another: the window slides along `x` and `y` over per-plane
    /// column histograms, each advanced by one voxel line per output row,
    /// and the applied cells keep the statistics' integer moments exact.
    /// Sparse representations are accumulated natively.
    #[default]
    Fused,
}

/// Retained only so existing [`ScanConfig`] struct literals keep compiling:
/// the fused kernel's t-axis slide this used to select was removed (it
/// moved end-to-end time by under 3 %), and the one remaining value has
/// **no effect**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TSlidePolicy {
    /// The only value; ignored.
    #[default]
    Auto,
}

/// Configuration of a raster scan.
#[derive(Debug, Clone, PartialEq)]
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
    pub engine: ScanEngine,
    /// Ignored (see [`TSlidePolicy`]).
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
/// output voxel in x-fastest voxel order — so each `(z, t)` sheet is one
/// contiguous run the kernel fills without allocating.
#[derive(Debug, Clone, PartialEq)]
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

/// Reusable scratch of the reference engine: the stores a placement counts
/// into and the statistics accumulator, all recycled across every placement
/// so the hot loop never allocates.
struct ScanScratch {
    /// The `Full` and `Sparse` arms' two-lane upper-triangle count,
    /// all-zero between placements: the drain that reads it out zeroes
    /// every row it touched.
    upper: UpperCounts,
    /// The `FullNaive` arm's dense symmetric matrix, zero-filled before
    /// each count.
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
            upper: UpperCounts::zeros(levels),
            matrix: CoMatrix::zeros(levels),
            sparse_acc: SparseAccumulator::new(levels),
            stats: MatrixStats::reusable(),
        }
    }
}

/// Rebuilds `scratch.stats`, entry list included, for the single window at
/// `origin` through `cfg.representation`'s storage — the allocation-free
/// per-ROI unit of work of the reference engine, which
/// [`scan_one_into`] finalizes and [`scan_placements_with`] visits.
fn rebuild_stats(vol: &LevelVolume, cfg: &ScanConfig, origin: Point4, scratch: &mut ScanScratch) {
    match cfg.representation {
        Representation::SparseAccum => {
            let ScanScratch {
                stats, sparse_acc, ..
            } = scratch;
            sparse_acc.reaccumulate_region(vol, cfg.roi.region_at(origin), &cfg.directions);
            stats.refill_from_sparse_entries(sparse_acc.levels(), sparse_acc.entries());
        }
        Representation::Sparse => {
            scratch
                .upper
                .count_region(vol, cfg.roi.region_at(origin), &cfg.directions);
            scratch.stats.refill_draining_upper(&mut scratch.upper);
        }
        Representation::Full => {
            scratch
                .upper
                .count_region(vol, cfg.roi.region_at(origin), &cfg.directions);
            scratch
                .stats
                .refill_draining_upper_row_major(&mut scratch.upper);
        }
        Representation::FullNaive => {
            scratch
                .matrix
                .reaccumulate(vol, cfg.roi.region_at(origin), &cfg.directions);
            scratch.stats.refill_from_dense(&scratch.matrix, false);
        }
    }
}

/// Computes the feature values for the single window at `origin` into
/// `out` (selection order), reusing `scratch`.
fn scan_one_into(
    vol: &LevelVolume,
    cfg: &ScanConfig,
    origin: Point4,
    scratch: &mut ScanScratch,
    out: &mut [f64],
) {
    rebuild_stats(vol, cfg, origin, scratch);
    finalize_into(&scratch.stats, &cfg.selection, out);
}

/// Computes the feature values for the single window at `origin` (selection
/// order) under the reference engine's rebuild, from fresh scratch — a
/// one-window check, as the benchmark's output verifier uses it. The scans
/// run the same unit of work on scratch they recycle.
///
/// # Panics
/// If the window exceeds the volume, or could put more than `u32::MAX`
/// counts in one matrix cell (`2 · roi.len() · |D|`).
pub fn scan_one(vol: &LevelVolume, cfg: &ScanConfig, origin: Point4) -> Vec<f64> {
    assert_counts_fit(cfg.roi.size(), cfg.directions.len());
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
    assert_counts_fit(cfg.roi.size(), cfg.directions.len());
    match cfg.engine {
        ScanEngine::Reference => {
            let mut maps = FeatureMaps::zeros(extent, cfg.selection);
            let n = cfg.selection.len();
            if n == 0 {
                return maps;
            }
            let mut scratch = ScanScratch::new(vol.levels());
            // `points` runs x fastest, the order of the maps' slots.
            for (p, out) in extent.region().points().zip(maps.data.chunks_exact_mut(n)) {
                let origin = Point4::new(base.x + p.x, base.y + p.y, base.z + p.z, base.t + p.t);
                scan_one_into(vol, cfg, origin, &mut scratch, out);
            }
            maps
        }
        ScanEngine::Fused => run_fused(vol, cfg, base, extent),
    }
}

/// Visits the `extent`-shaped block of placements based at `base` with the
/// engine configured in `cfg`, calling `visit(p, stats)` with the
/// statistics of the window at `base + p`: `x` fastest, then `y`, `z` and
/// `t`. Every `stats` carries its full entry list, so it converts back to
/// the window's matrix ([`CoMatrix::from_stats`],
/// [`SparseCoMatrix::from_stats`](crate::sparse::SparseCoMatrix::from_stats))
/// in either engine; `cfg.selection` is not read.
///
/// [`scan_placements`] finalizes each placement into feature maps; this is
/// the entry for consumers of the matrices themselves, such as the split
/// pipeline's matrix stage. Under `Fused` both drive one sheet slide.
///
/// # Panics
/// As [`scan_placements`].
pub fn scan_placements_with(
    vol: &LevelVolume,
    cfg: &ScanConfig,
    base: Point4,
    extent: Dims4,
    mut visit: impl FnMut(Point4, &MatrixStats),
) {
    assert_counts_fit(cfg.roi.size(), cfg.directions.len());
    match cfg.engine {
        ScanEngine::Reference => {
            // `FullNaive` stands for a finalization without the zero-skip,
            // which a visit's consumer pays where it finalizes. Its
            // statistics are the zero-skip arm's, so a visit rebuilds them
            // through that arm.
            let mut cfg = cfg.clone();
            if cfg.representation == Representation::FullNaive {
                cfg.representation = Representation::Full;
            }
            let mut scratch = ScanScratch::new(vol.levels());
            for p in extent.region().points() {
                let origin = Point4::new(base.x + p.x, base.y + p.y, base.z + p.z, base.t + p.t);
                rebuild_stats(vol, &cfg, origin, &mut scratch);
                visit(p, &scratch.stats);
            }
        }
        ScanEngine::Fused => {
            if extent.is_empty() {
                return;
            }
            let mut scratch = FusedScratch::visiting(vol, cfg, extent.x);
            for t in 0..extent.t {
                for z in 0..extent.z {
                    let origin = Point4::new(base.x, base.y, base.z + z, base.t + t);
                    scratch.visit_sheet(vol, origin, extent.y, |x, y, stats| {
                        visit(Point4::new(x, y, z, t), stats)
                    });
                }
            }
        }
    }
}

/// Scans the `extent`-shaped block of placements based at `base` from
/// **raw `u16` voxels**: quantizes them once, then [`scan_placements`].
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
    scan_placements(&quantizer.quantize(dims, raw), cfg, base, extent)
}

/// Runs the fused sheet kernel over every `(z, t)` sheet of the block, in
/// order on the calling thread, with one [`FusedScratch`] for them all.
fn run_fused(vol: &LevelVolume, cfg: &ScanConfig, base: Point4, extent: Dims4) -> FeatureMaps {
    let mut maps = FeatureMaps::zeros(extent, cfg.selection);
    let n = cfg.selection.len();
    if n == 0 || extent.is_empty() {
        return maps;
    }
    let mut scratch = FusedScratch::new(vol, cfg, extent.x);
    for (r, out_sheet) in maps.data.chunks_mut(extent.x * extent.y * n).enumerate() {
        // Sheet r = z + extent.z · t.
        let origin = Point4::new(base.x, base.y, base.z + r % extent.z, base.t + r / extent.z);
        scratch.scan_sheet(vol, origin, extent.y, out_sheet);
    }
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
        // The moment features come from order-free integers: bit for bit.
        // Entropy and f12–f14 sum over the entry list in each
        // representation's own order.
        let vol = gradient_volume(Dims4::new(8, 8, 3, 3), 16);
        let mut cfg = small_cfg();
        cfg.selection = FeatureSelection::all();
        cfg.representation = Representation::Full;
        let full = raster_scan(&vol, &cfg);
        for repr in [
            Representation::FullNaive,
            Representation::Sparse,
            Representation::SparseAccum,
        ] {
            cfg.representation = repr;
            let other = raster_scan(&vol, &cfg);
            assert!(full.max_abs_diff(&other) < 1e-10, "{repr:?}");
            let moment_features = Feature::ALL
                .into_iter()
                .filter(|&f| !FeatureSelection::of(&[f]).needs_entries());
            for f in moment_features {
                for p in full.dims().region().points() {
                    let (a, b) = (full.get(p, f), other.get(p, f));
                    assert_eq!(a.to_bits(), b.to_bits(), "{repr:?} {f:?} at {p:?}");
                }
            }
        }
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
    #[should_panic(expected = "can put more than u32::MAX counts in one co-occurrence cell")]
    fn scan_one_refuses_a_window_that_could_overflow_a_cell() {
        // The reference engine's per-placement rebuilds do not bound their
        // counts; the single-window entry point checks once, as
        // `scan_placements` does.
        let vol = gradient_volume(Dims4::new(8, 8, 3, 3), 8);
        let cfg = ScanConfig {
            roi: RoiShape::from_lengths(256, 256, 32, 32),
            representation: Representation::SparseAccum,
            ..small_cfg()
        };
        let _ = scan_one(&vol, &cfg, Point4::ZERO);
    }

    #[test]
    fn reference_sparse_scan_leaves_no_count_behind() {
        // Along x, 6-voxel bands of noise alternate with constant bands, so a
        // window with a large support is followed, a few placements later, by
        // a one-cell window. A cell the reused matrix failed to zero would
        // show in the constant window; `scan_one` starts from a fresh one.
        let dims = Dims4::new(24, 6, 3, 3);
        let data: Vec<u8> = dims
            .region()
            .points()
            .enumerate()
            .map(|(k, p)| {
                if (p.x / 6) % 2 == 0 {
                    ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as u8
                } else {
                    7
                }
            })
            .collect();
        let vol = LevelVolume::from_raw(dims, data, 32).unwrap();
        let cfg = ScanConfig {
            selection: FeatureSelection::all(),
            representation: Representation::Sparse,
            ..small_cfg()
        };
        let maps = raster_scan(&vol, &cfg);
        let asm = maps.feature_volume(Feature::AngularSecondMoment);
        assert!(asm.contains(&1.0), "no one-cell window was scanned");
        for p in maps.dims().region().points() {
            let alone = scan_one(&vol, &cfg, p);
            for (slot, (a, b)) in maps.values_at(p).iter().zip(&alone).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "slot {slot} at {p:?}");
            }
        }
    }

    #[test]
    fn one_fused_scratch_serves_every_sheet_in_order() {
        // Along z and t, 2-sheet bands of noise alternate with constant
        // bands, so in sheet order (z fastest, then t) a sheet of windows
        // with a large support is followed by a sheet of one-cell windows.
        // Columns or support bits the scratch carried over from the previous
        // sheet would show in the constant sheet.
        let dims = Dims4::new(8, 6, 6, 6);
        let data: Vec<u8> = dims
            .region()
            .points()
            .enumerate()
            .map(|(k, p)| {
                if (p.z / 2 + p.t / 2) % 2 == 0 {
                    ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as u8
                } else {
                    7
                }
            })
            .collect();
        let vol = LevelVolume::from_raw(dims, data, 32).unwrap();
        for repr in [Representation::Full, Representation::Sparse] {
            let cfg = ScanConfig {
                selection: FeatureSelection::all(),
                representation: repr,
                engine: ScanEngine::Fused,
                ..small_cfg()
            };
            let reference = raster_scan(&vol, &cfg);
            let maps = scan(&vol, &cfg);
            let asm = maps.feature_volume(Feature::AngularSecondMoment);
            assert!(asm.contains(&1.0), "no one-cell window was scanned");
            for p in maps.dims().region().points() {
                let pairs = maps.values_at(p).iter().zip(reference.values_at(p));
                for (slot, (a, b)) in pairs.enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{repr:?} slot {slot} at {p:?}");
                }
            }
        }
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
    fn visited_statistics_finalize_to_the_scanned_values() {
        // One scan, two consumers: the statistics `scan_placements_with`
        // visits, x fastest, finalize to the bits `scan_placements` writes,
        // and convert back to the rebuilt matrix, under both engines.
        let vol = gradient_volume(Dims4::new(10, 9, 4, 4), 8);
        let (base, extent) = (Point4::new(1, 2, 0, 1), Dims4::new(5, 3, 2, 2));
        for engine in [ScanEngine::Reference, ScanEngine::Fused] {
            for representation in [
                Representation::FullNaive,
                Representation::Full,
                Representation::Sparse,
                Representation::SparseAccum,
            ] {
                let cfg = ScanConfig {
                    selection: FeatureSelection::all(),
                    representation,
                    engine,
                    ..small_cfg()
                };
                let maps = scan_placements(&vol, &cfg, base, extent);
                let mut visited = 0;
                scan_placements_with(&vol, &cfg, base, extent, |p, stats| {
                    assert_eq!(p, extent.point_of(visited), "{engine:?} visiting order");
                    visited += 1;
                    let origin =
                        Point4::new(base.x + p.x, base.y + p.y, base.z + p.z, base.t + p.t);
                    let rebuilt =
                        CoMatrix::from_region(&vol, cfg.roi.region_at(origin), &cfg.directions);
                    assert_eq!(
                        CoMatrix::from_stats(stats),
                        rebuilt,
                        "{engine:?} {representation:?} at {p:?}"
                    );
                    let values = crate::features::compute_features(stats, &cfg.selection);
                    for (slot, f) in cfg.selection.iter().enumerate() {
                        let (a, b) = (values.get(f).unwrap(), maps.values_at(p)[slot]);
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{engine:?} {representation:?} {f:?} at {p:?}"
                        );
                    }
                });
                assert_eq!(visited, extent.len());
            }
        }
    }

    #[test]
    fn visits_under_a_moments_only_selection_carry_every_entry_and_moment() {
        // A visit ignores the selection: under `Fused` the paper's four
        // features, which `scan_placements` serves from moments alone, still
        // visit statistics with the full entry list and every moment. Each
        // converts back to the rebuilt matrix and finalizes all fourteen
        // features to the bits of the `Reference` visit, over a block of
        // three rows and four sheets.
        let vol = gradient_volume(Dims4::new(10, 9, 4, 4), 8);
        let (base, extent) = (Point4::new(1, 2, 0, 1), Dims4::new(5, 3, 2, 2));
        let all = FeatureSelection::all();
        for representation in [Representation::Full, Representation::Sparse] {
            let cfg = ScanConfig {
                selection: FeatureSelection::paper_default(),
                representation,
                engine: ScanEngine::Fused,
                ..small_cfg()
            };
            let reference = ScanConfig {
                engine: ScanEngine::Reference,
                ..cfg.clone()
            };
            let mut want = Vec::new();
            scan_placements_with(&vol, &reference, base, extent, |_, stats| {
                want.push(crate::features::compute_features(stats, &all));
            });
            let mut visited = 0;
            scan_placements_with(&vol, &cfg, base, extent, |p, stats| {
                let origin = Point4::new(base.x + p.x, base.y + p.y, base.z + p.z, base.t + p.t);
                let rebuilt =
                    CoMatrix::from_region(&vol, cfg.roi.region_at(origin), &cfg.directions);
                assert_eq!(
                    CoMatrix::from_stats(stats),
                    rebuilt,
                    "{representation:?} at {p:?}"
                );
                let values = crate::features::compute_features(stats, &all);
                for (f, v) in values.iter() {
                    let w = want[visited].get(f).unwrap();
                    assert_eq!(
                        v.to_bits(),
                        w.to_bits(),
                        "{representation:?} {f:?} at {p:?}"
                    );
                }
                visited += 1;
            });
            assert_eq!(visited, extent.len());
        }
    }

    #[test]
    fn visiting_a_block_past_the_volume_edge_is_refused() {
        let vol = gradient_volume(Dims4::new(8, 8, 3, 3), 8);
        let extent = small_cfg().roi.output_dims(vol.dims());
        for engine in [ScanEngine::Reference, ScanEngine::Fused] {
            let cfg = ScanConfig {
                engine,
                ..small_cfg()
            };
            let past = Point4::new(1, 0, 0, 0);
            let refused = std::panic::catch_unwind(|| {
                scan_placements_with(&vol, &cfg, past, extent, |_, _| {});
            });
            assert!(refused.is_err(), "{engine:?} visited windows past the edge");
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
            let none = Dims4::new(0, 0, 0, 0);
            let scans: [&dyn Fn(); 2] = [
                &|| drop(scan_placements(&vol, &cfg, Point4::ZERO, none)),
                &|| scan_placements_with(&vol, &cfg, Point4::ZERO, none, |_, _| {}),
            ];
            for scan in scans {
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(scan))
                    .expect_err("overflowing configuration was accepted");
                let message = refused.downcast_ref::<String>().expect("formatted panic");
                assert!(
                    message.contains("256x256x32x32") && message.contains("40 directions"),
                    "{engine:?}: {message}"
                );
            }
        }
        cfg.roi = RoiShape::from_lengths(256, 256, 32, 16);
        assert!(scan(&vol, &cfg).dims().is_empty(), "2 · 2²⁵ · 40 fits");
    }
}
