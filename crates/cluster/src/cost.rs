//! The cost model driving the discrete-event simulator.
//!
//! Every constant is a *measured* per-unit cost of the real Rust kernels
//! (see [`crate::calibrate`]); the simulator multiplies them by workload
//! quantities (ROI voxels, matrix entries, bytes) and divides by the node's
//! relative speed. Costs are expressed in seconds on a speed-1.0 (PIII
//! reference) node; the calibration module rescales the measurements taken
//! on this machine accordingly.

use haralick::raster::{Representation, ScanEngine};
use haralick::sparse::SparseCoMatrix;

/// Measured per-unit costs (seconds, at reference speed 1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Dense co-occurrence accumulation per (ROI voxel × direction).
    pub coocc_s_per_voxel_dir: f64,
    /// Sparse-storage co-occurrence accumulation per (ROI voxel ×
    /// direction): each increment binary-searches the entry list, so this
    /// is measurably larger than the dense constant — the overhead behind
    /// paper Figure 7(a).
    pub coocc_sparse_s_per_voxel_dir: f64,
    /// Zero-skip dense feature pass, per `Ng²` entry scanned (the scan
    /// checks every entry but only processes non-zeros; with ~1% fill the
    /// check dominates, which is exactly the paper's regime).
    pub feat_full_s_per_entry: f64,
    /// Naive dense feature pass, per `Ng²` entry (every entry processed).
    pub feat_naive_s_per_entry: f64,
    /// Sparse feature pass, per stored (non-zero upper-triangle) entry.
    pub feat_sparse_s_per_entry: f64,
    /// Fixed per-matrix feature-finalization overhead (marginal histograms,
    /// the selected parameters themselves).
    pub feat_base_s: f64,
    /// Dense → sparse conversion, per `Ng²` entry scanned.
    pub sparse_convert_s_per_entry: f64,
    /// One placement through the fused scan, whole kernel
    /// (`scan_placements` under `ScanEngine::Fused`, one `(z, t)` sheet so
    /// one core), measured at the calibration configuration: the paper ROI,
    /// one direction, the four paper features, `Ng = 32`.
    pub fused_s_per_placement: f64,
    /// Stitch (IIC) copy/reorganize cost per byte.
    pub stitch_s_per_byte: f64,
    /// Output formatting/write cost per byte (buffered writes; the seek and
    /// streaming costs of the disk itself come from the node spec).
    pub write_s_per_byte: f64,
    /// Measured mean non-zero entries per co-occurrence matrix on the
    /// calibration workload (the paper's "10.7 of 1024").
    pub mean_nnz: f64,
}

impl CostModel {
    /// Cost of building co-occurrence matrices for `rois` windows of
    /// `roi_voxels` voxels over `ndirs` directions, with the accumulation
    /// strategy implied by the representation.
    pub fn coocc_cost(
        &self,
        rois: usize,
        roi_voxels: usize,
        ndirs: usize,
        repr: Representation,
    ) -> f64 {
        let per = match repr {
            Representation::SparseAccum => self.coocc_sparse_s_per_voxel_dir,
            _ => self.coocc_s_per_voxel_dir,
        };
        per * rois as f64 * roi_voxels as f64 * ndirs as f64
    }

    /// Cost of converting `matrices` dense matrices to sparse form.
    pub fn sparse_convert_cost(&self, matrices: usize, ng: u16) -> f64 {
        self.sparse_convert_s_per_entry * matrices as f64 * (ng as f64) * (ng as f64)
    }

    /// Cost of computing the Haralick parameters for `matrices` matrices
    /// under the given representation.
    pub fn features_cost(&self, matrices: usize, ng: u16, repr: Representation) -> f64 {
        let per_matrix = match repr {
            Representation::Full => {
                self.feat_full_s_per_entry * (ng as f64) * (ng as f64) + self.feat_base_s
            }
            Representation::FullNaive => {
                self.feat_naive_s_per_entry * (ng as f64) * (ng as f64) + self.feat_base_s
            }
            Representation::Sparse | Representation::SparseAccum => {
                self.feat_sparse_s_per_entry * self.mean_nnz + self.feat_base_s
            }
        };
        per_matrix * matrices as f64
    }

    /// HCC filter service cost: build the matrices and, under the sparse
    /// wire representation, convert them for transmission. (With
    /// `SparseAccum` the matrices are already sparse — no conversion.)
    pub fn hcc_cost(
        &self,
        rois: usize,
        roi_voxels: usize,
        ndirs: usize,
        ng: u16,
        repr: Representation,
    ) -> f64 {
        let mut c = self.coocc_cost(rois, roi_voxels, ndirs, repr);
        if matches!(repr, Representation::Sparse) {
            c += self.sparse_convert_cost(rois, ng);
        }
        c
    }

    /// HMP filter service cost: matrices and parameters in one filter.
    /// With `SparseAccum` (the all-sparse single-filter variant) the
    /// slower sparse-storage accumulation is not bought back by any
    /// communication saving — the paper's Figure 7(a) finding.
    pub fn hmp_cost(
        &self,
        rois: usize,
        roi_voxels: usize,
        ndirs: usize,
        ng: u16,
        repr: Representation,
    ) -> f64 {
        self.hcc_cost(rois, roi_voxels, ndirs, ng, repr) + self.features_cost(rois, ng, repr)
    }

    /// Full texture (matrices + parameters) service cost of one chunk under
    /// a scan engine — one core either way, like the paper's PIII nodes.
    /// `Reference` is the classic HMP rebuild cost. `Fused` is the measured
    /// per-placement price and nothing else: it holds at the calibrated
    /// window (the same one `mean_nnz` and `feat_base_s` are fitted at,
    /// `AppConfig::paper`), not for another ROI, direction set or `Ng`, and
    /// is the same under every representation.
    pub fn texture_cost(
        &self,
        engine: ScanEngine,
        rois: usize,
        roi_voxels: usize,
        ndirs: usize,
        ng: u16,
        repr: Representation,
    ) -> f64 {
        match engine {
            ScanEngine::Reference => self.hmp_cost(rois, roi_voxels, ndirs, ng, repr),
            ScanEngine::Fused => self.fused_s_per_placement * rois as f64,
        }
    }

    /// IIC stitch cost for reorganizing `bytes` of image data.
    pub fn stitch_cost(&self, bytes: u64) -> f64 {
        self.stitch_s_per_byte * bytes as f64
    }

    /// Output-side formatting cost for `bytes`.
    pub fn write_cost(&self, bytes: u64) -> f64 {
        self.write_s_per_byte * bytes as f64
    }

    /// Wire size of one co-occurrence matrix under the representation (the
    /// sparse size uses the measured mean fill).
    pub fn matrix_wire_bytes(&self, ng: u16, repr: Representation) -> u64 {
        match repr {
            Representation::Sparse | Representation::SparseAccum => {
                SparseCoMatrix::wire_size_for(self.mean_nnz.ceil() as usize) as u64
            }
            _ => SparseCoMatrix::dense_wire_size(ng) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel {
            coocc_s_per_voxel_dir: 1e-9,
            coocc_sparse_s_per_voxel_dir: 3e-9,
            feat_full_s_per_entry: 1e-9,
            feat_naive_s_per_entry: 4e-9,
            feat_sparse_s_per_entry: 10e-9,
            feat_base_s: 1e-6,
            sparse_convert_s_per_entry: 0.5e-9,
            fused_s_per_placement: 0.5e-6,
            stitch_s_per_byte: 0.2e-9,
            write_s_per_byte: 0.3e-9,
            mean_nnz: 10.0,
        }
    }

    #[test]
    fn coocc_scales_linearly() {
        let m = model();
        let one = m.coocc_cost(1, 900, 40, Representation::Full);
        assert!((m.coocc_cost(10, 900, 40, Representation::Full) - 10.0 * one).abs() < 1e-12);
        assert!((m.coocc_cost(1, 1800, 40, Representation::Full) - 2.0 * one).abs() < 1e-12);
        assert!(
            m.coocc_cost(1, 900, 40, Representation::SparseAccum) > one,
            "sparse accumulation must cost more than dense"
        );
    }

    #[test]
    fn reference_texture_cost_is_the_hmp_cost() {
        let m = model();
        for repr in [Representation::Full, Representation::SparseAccum] {
            assert_eq!(
                m.texture_cost(ScanEngine::Reference, 550, 900, 1, 32, repr),
                m.hmp_cost(550, 900, 1, 32, repr)
            );
        }
    }

    #[test]
    fn fused_texture_cost_is_linear_in_rois_and_ignores_the_representation() {
        let m = model();
        let fused = |rois, repr| m.texture_cost(ScanEngine::Fused, rois, 900, 1, 32, repr);
        let one = fused(1, Representation::Full);
        assert_eq!(one, m.fused_s_per_placement);
        assert_eq!(fused(550, Representation::Full), 550.0 * one);
        for repr in [Representation::Sparse, Representation::SparseAccum] {
            assert_eq!(fused(550, repr), fused(550, Representation::Full));
        }
    }

    #[test]
    fn naive_features_cost_more_than_checked() {
        let m = model();
        let full = m.features_cost(100, 32, Representation::Full);
        let naive = m.features_cost(100, 32, Representation::FullNaive);
        assert!(naive > 2.0 * full, "naive {naive} vs checked {full}");
    }

    #[test]
    fn sparse_features_cheap_when_sparse() {
        let m = model();
        let sparse = m.features_cost(1, 32, Representation::Sparse);
        let full = m.features_cost(1, 32, Representation::Full);
        // 10 entries vs 1024 scanned: sparse pass wins on compute.
        assert!(sparse < full);
    }

    #[test]
    fn hmp_sparse_accum_slower_than_hmp_full() {
        // Figure 7(a): the all-sparse single-filter variant pays the
        // sparse-storage accumulation overhead with no communication to
        // save, so it must cost more than the dense variant.
        let m = model();
        let full = m.hmp_cost(10, 900, 40, 32, Representation::Full);
        let sparse = m.hmp_cost(10, 900, 40, 32, Representation::SparseAccum);
        assert!(
            sparse > full,
            "HMP sparse ({sparse}) must exceed HMP full ({full})"
        );
    }

    #[test]
    fn wire_sizes() {
        let m = model();
        let dense = m.matrix_wire_bytes(32, Representation::Full);
        let sparse = m.matrix_wire_bytes(32, Representation::Sparse);
        assert!(dense > 4000, "32x32 u32 counts");
        assert!(sparse < 100, "ten 6-byte entries plus header");
    }
}
