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
    /// Incremental sliding-window update, per (departing/arriving plane
    /// voxel × direction) — the beyond-the-paper optimization of
    /// `haralick::window`. One window slide touches `2 · W/W_x · |D|`
    /// plane voxels instead of re-accumulating all `W · |D|`.
    pub coocc_slide_s_per_voxel_dir: f64,
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
    /// Dirty-cell statistics maintenance, per matrix cell a column apply
    /// writes (the fused engine settles the count and the support bitmap
    /// entry by entry; a placement applies the column entries of the plane
    /// that left and of the one that entered).
    pub stats_dirty_s_per_cell: f64,
    /// Fused-kernel pair accumulation, per pair visit
    /// ([`TextureWork::fused_pair_visits`]) — the sheet kernel of
    /// `haralick::fused`. Each visit is one delta store plus a
    /// touched-cell push; the fold into the column histogram is amortized
    /// into it.
    pub coocc_fused_s_per_voxel_dir: f64,
    /// Fused-kernel pair accumulation under a **sparse** representation,
    /// per pair visit. The line walk and the fold are identical to the
    /// dense fused constant; the difference is the unmirrored apply and
    /// the sparse-order support sweep, so this sits close to the dense
    /// fused constant and far under the sparse-storage binary-search
    /// accumulation the reference engine pays.
    pub coocc_fused_sparse_s_per_voxel_dir: f64,
    /// Stitch (IIC) copy/reorganize cost per byte.
    pub stitch_s_per_byte: f64,
    /// Output formatting/write cost per byte (buffered writes; the seek and
    /// streaming costs of the disk itself come from the node spec).
    pub write_s_per_byte: f64,
    /// Measured mean non-zero entries per co-occurrence matrix on the
    /// calibration workload (the paper's "10.7 of 1024").
    pub mean_nnz: f64,
}

/// Per-chunk texture workload quantities, bundled for
/// [`CostModel::texture_cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureWork {
    /// Window placements (owned ROIs) in the chunk.
    pub rois: usize,
    /// Voxels per ROI window.
    pub roi_voxels: usize,
    /// Window extent along `x`.
    pub roi_x: usize,
    /// Window extent along `y`.
    pub roi_y: usize,
    /// Placements per output row.
    pub row_len: usize,
    /// Output rows per `(z, t)` sheet of the chunk's placement block.
    pub sheet_rows: usize,
    /// Co-occurrence displacement directions.
    pub ndirs: usize,
    /// Gray levels `Ng`.
    pub ng: u16,
    /// Co-occurrence representation.
    pub repr: Representation,
}

impl TextureWork {
    /// Voxel pairs the fused sheet kernel visits over the chunk. Every
    /// plane of a sheet's x-span (`roi_x + row_len − 1` of them) enters all
    /// `roi_y` voxel lines on the sheet's first output row and swaps one
    /// line out and one in on every later row; a line is `roi_z · roi_t`
    /// voxels, each paired once per direction.
    pub fn fused_pair_visits(&self) -> f64 {
        let line = (self.roi_voxels / (self.roi_x * self.roi_y).max(1)) as f64;
        let planes = (self.roi_x + self.row_len).saturating_sub(1) as f64;
        let sheet_rows = self.sheet_rows.max(1);
        let sheets = self.rois.div_ceil(self.row_len.max(1) * sheet_rows) as f64;
        let lines = (self.roi_y + 2 * (sheet_rows - 1)) as f64;
        sheets * planes * lines * line * self.ndirs as f64
    }
}

impl CostModel {
    /// Cost of producing `rois` matrices with the incremental sliding
    /// window: one full rebuild per output row plus one two-plane update
    /// per remaining placement. `roi_x` is the window's x extent and
    /// `row_len` the placements per output row.
    pub fn coocc_incremental_cost(
        &self,
        rois: usize,
        roi_voxels: usize,
        roi_x: usize,
        row_len: usize,
        ndirs: usize,
    ) -> f64 {
        let rows = rois.div_ceil(row_len.max(1));
        let rebuilds = rows as f64 * self.coocc_s_per_voxel_dir * roi_voxels as f64 * ndirs as f64;
        let plane = (roi_voxels / roi_x.max(1)) as f64;
        let slides = (rois.saturating_sub(rows)) as f64
            * self.coocc_slide_s_per_voxel_dir
            * 2.0
            * plane
            * ndirs as f64;
        rebuilds + slides
    }

    /// Cost of producing the chunk's matrices with the fused sheet kernel:
    /// the fused per-pair constant (the sparse-aware one under a sparse
    /// representation) on every pair visit of
    /// [`TextureWork::fused_pair_visits`].
    pub fn coocc_fused_cost(&self, w: &TextureWork) -> f64 {
        let per = if w.repr.is_sparse() {
            self.coocc_fused_sparse_s_per_voxel_dir
        } else {
            self.coocc_fused_s_per_voxel_dir
        };
        per * w.fused_pair_visits()
    }

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

    /// Cost of the fused kernel's feature passes for `w.rois` placements,
    /// the same under every representation: each placement settles the
    /// matrix and the support bitmap over the column entries it applies —
    /// the plane that left and the one that entered, neither holding more
    /// distinct cells than the window (`mean_nnz`) nor than the plane has
    /// pairs — then sweeps the support-ordered non-zero cells (`mean_nnz`
    /// sparse-style pushes plus the per-matrix base). No `Ng²` sweep exists
    /// on this path.
    pub fn features_fused_cost(&self, w: &TextureWork) -> f64 {
        let plane_pairs = (w.roi_voxels / w.roi_x.max(1) * w.ndirs) as f64;
        let applied = 2.0 * self.mean_nnz.min(plane_pairs);
        w.rois as f64
            * (self.stats_dirty_s_per_cell * applied
                + self.feat_sparse_s_per_entry * self.mean_nnz
                + self.feat_base_s)
    }

    /// Full texture (matrices + parameters) service cost of one chunk under
    /// a scan engine: the classic HMP rebuild cost for `Reference`, the
    /// fused kernel's pair-visit and dirty-cell feature costs for `Fused` —
    /// one core either way, like the paper's PIII nodes.
    pub fn texture_cost(&self, engine: ScanEngine, w: &TextureWork) -> f64 {
        match engine {
            ScanEngine::Reference => self.hmp_cost(w.rois, w.roi_voxels, w.ndirs, w.ng, w.repr),
            ScanEngine::Fused => self.coocc_fused_cost(w) + self.features_fused_cost(w),
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
            coocc_slide_s_per_voxel_dir: 2e-9,
            feat_full_s_per_entry: 1e-9,
            feat_naive_s_per_entry: 4e-9,
            feat_sparse_s_per_entry: 10e-9,
            feat_base_s: 1e-6,
            sparse_convert_s_per_entry: 0.5e-9,
            stats_dirty_s_per_cell: 1e-9,
            coocc_fused_s_per_voxel_dir: 1e-9,
            coocc_fused_sparse_s_per_voxel_dir: 1.2e-9,
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
    fn incremental_coocc_beats_full_rebuild_on_wide_windows() {
        let m = model();
        // 10x10x3x3 window, rows of 55 placements.
        let full = m.coocc_cost(550, 900, 1, Representation::Full);
        let incr = m.coocc_incremental_cost(550, 900, 10, 55, 1);
        assert!(
            incr < full / 2.0,
            "incremental {incr} should be well under full {full}"
        );
    }

    fn paper_work(repr: Representation) -> TextureWork {
        TextureWork {
            rois: 550,
            roi_voxels: 900,
            roi_x: 10,
            roi_y: 10,
            row_len: 55,
            sheet_rows: 10,
            ndirs: 1,
            ng: 32,
            repr,
        }
    }

    #[test]
    fn fused_texture_cost_beats_rebuild_and_reference_is_the_hmp_cost() {
        let m = model();
        let w = paper_work(Representation::Full);
        let rebuild = m.texture_cost(ScanEngine::Reference, &w);
        let fused = m.texture_cost(ScanEngine::Fused, &w);
        assert!(
            fused < rebuild,
            "fused {fused} should undercut rebuild {rebuild}"
        );
        assert!(
            (rebuild - m.hmp_cost(550, 900, 1, 32, Representation::Full)).abs() < 1e-15,
            "the reference engine must equal the classic HMP cost"
        );
        // Sparse representations run the fused kernel natively: priced
        // below the sparse-storage rebuild.
        let ws = paper_work(Representation::SparseAccum);
        let sparse_fused = m.texture_cost(ScanEngine::Fused, &ws);
        let sparse_rebuild = m.texture_cost(ScanEngine::Reference, &ws);
        assert!(
            sparse_fused < sparse_rebuild,
            "sparse fused {sparse_fused} should undercut the rebuild {sparse_rebuild}"
        );
    }

    #[test]
    fn fused_pair_visits_follow_the_sheet_kernel() {
        // One sheet of 10 rows x 55 placements: 64 planes, 10 lines on the
        // first row and 2 on each of the other 9, 9 voxels per line.
        let w = paper_work(Representation::Full);
        assert_eq!(w.fused_pair_visits(), 64.0 * (10.0 + 18.0) * 9.0);
        // A second sheet and 40 directions scale it linearly.
        let two = TextureWork {
            rois: 1100,
            ndirs: 40,
            ..w
        };
        assert_eq!(two.fused_pair_visits(), 80.0 * w.fused_pair_visits());
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
