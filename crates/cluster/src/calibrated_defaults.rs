//! Committed calibration snapshot.
//!
//! [`default_model`] returns the cost model measured by
//! [`crate::calibrate::calibrate`] on the reproduction machine and committed
//! here so that the discrete-event experiments are deterministic across runs
//! and machines. Re-measure with the `claims` binary and update if the
//! kernels change materially. All values are seconds at PIII reference
//! speed (host measurements × `PIII_SLOWDOWN`).

use crate::cost::CostModel;

/// The committed calibrated cost model.
///
/// Snapshot provenance: `calibrate(seed = 42, samples = 400)` on the
/// reproduction host (see `cargo run -p bench --bin claims` to re-measure).
pub fn default_model() -> CostModel {
    CostModel {
        coocc_s_per_voxel_dir: 3.4e-8,
        coocc_sparse_s_per_voxel_dir: 8.0e-8,
        coocc_slide_s_per_voxel_dir: 8.4e-8,
        feat_full_s_per_entry: 2.0e-8,
        feat_naive_s_per_entry: 5.3e-8,
        feat_sparse_s_per_entry: 3.9e-7,
        feat_base_s: 2.1e-6,
        sparse_convert_s_per_entry: 1.0e-8,
        stats_dirty_s_per_cell: 3.0e-8,
        coocc_fused_s_per_voxel_dir: 4.2e-8,
        coocc_fused_sparse_s_per_voxel_dir: 4.6e-8,
        stitch_s_per_byte: 1.3e-9,
        write_s_per_byte: 2.6e-9,
        mean_nnz: 12.4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_within_order_of_magnitude_of_live_measurement() {
        // Guards against the committed snapshot rotting as kernels evolve.
        // Calibration noise on shared CI boxes is large, so the tolerance is
        // deliberately loose (one order of magnitude).
        let live = crate::calibrate::calibrate(42, 60).model;
        let snap = default_model();
        // Debug builds run the kernels unoptimized (10-30x slower), so the
        // tolerance widens there; release tests enforce the tight bound.
        let factor: f64 = if cfg!(debug_assertions) { 100.0 } else { 8.0 };
        let close = |a: f64, b: f64| a / b < factor && b / a < factor;
        assert!(
            close(live.coocc_s_per_voxel_dir, snap.coocc_s_per_voxel_dir),
            "coocc drifted: live {} vs snapshot {}",
            live.coocc_s_per_voxel_dir,
            snap.coocc_s_per_voxel_dir
        );
        assert!(
            close(live.feat_full_s_per_entry, snap.feat_full_s_per_entry),
            "feat_full drifted: live {} vs snapshot {}",
            live.feat_full_s_per_entry,
            snap.feat_full_s_per_entry
        );
    }

    #[test]
    fn snapshot_orderings_hold() {
        // The qualitative relations every experiment depends on.
        let m = default_model();
        assert!(m.feat_naive_s_per_entry > m.feat_full_s_per_entry);
        assert!(m.mean_nnz < 100.0);
        // The dirty-cell bookkeeping must be cheap enough that applying
        // columns wins on the paper window (at most 2·plane·|D| entries per
        // placement vs an Ng² zero-skip sweep).
        assert!(m.stats_dirty_s_per_cell * 180.0 < m.feat_full_s_per_entry * 1024.0);
        // The fused per-pair-visit constant (delta store, touched push,
        // amortized fold) must undercut the per-pair slide constant of
        // `SlidingWindow` (five read-modify-writes per pair).
        assert!(m.coocc_fused_s_per_voxel_dir < m.coocc_slide_s_per_voxel_dir);
        // The sparse-fused apply pays at most a small bookkeeping premium
        // over the dense path and stays well under the sparse rebuild.
        assert!(m.coocc_fused_sparse_s_per_voxel_dir >= m.coocc_fused_s_per_voxel_dir);
        assert!(m.coocc_fused_sparse_s_per_voxel_dir < m.coocc_sparse_s_per_voxel_dir);
    }
}
