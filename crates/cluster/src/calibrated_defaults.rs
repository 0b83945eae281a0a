//! Committed calibration snapshot.
//!
//! [`default_model`] returns the cost model measured by
//! [`crate::calibrate::calibrate`] on the reproduction machine and committed
//! here so that the discrete-event experiments are deterministic across runs
//! and machines. Re-measure with the `claims` binary, which prints every
//! field in the form of the literal below, and update if the kernels change
//! materially. All values are seconds at PIII reference speed (host
//! measurements × `PIII_SLOWDOWN`).

use crate::cost::CostModel;

/// The committed calibrated cost model.
///
/// Snapshot provenance: `calibrate(seed = 42, samples = 400)` on the
/// reproduction host. `fused_s_per_placement` was re-measured for the kernel
/// of commit `fb29c9f` (`crates/haralick` as of PR 23) with rustc 1.95.0 on
/// a 2-core Intel Xeon 2.10 GHz VM (Linux 6.18), `rand` / `rayon` replaced
/// by the registry-free stand-ins of ROADMAP's verify recipe: seven `claims`
/// runs printed 3.8e-6 to 4.9e-6, this is their median. The other ten
/// values predate it and are left alone, so every `Reference`-engine figure
/// is unchanged.
pub fn default_model() -> CostModel {
    CostModel {
        coocc_s_per_voxel_dir: 3.4e-8,
        coocc_sparse_s_per_voxel_dir: 8.0e-8,
        feat_full_s_per_entry: 2.0e-8,
        feat_naive_s_per_entry: 5.3e-8,
        feat_sparse_s_per_entry: 3.9e-7,
        feat_base_s: 2.1e-6,
        sparse_convert_s_per_entry: 1.0e-8,
        fused_s_per_placement: 4.5e-6,
        stitch_s_per_byte: 1.3e-9,
        write_s_per_byte: 2.6e-9,
        mean_nnz: 12.4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haralick::raster::Representation;

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
        // The fused price has no law to edit when the kernel changes: this
        // bound is what says the committed number needs re-measuring.
        assert!(
            close(live.fused_s_per_placement, snap.fused_s_per_placement),
            "fused drifted: live {} vs snapshot {}",
            live.fused_s_per_placement,
            snap.fused_s_per_placement
        );
    }

    #[test]
    fn snapshot_orderings_hold() {
        // The qualitative relations every experiment depends on.
        let m = default_model();
        assert!(m.feat_naive_s_per_entry > m.feat_full_s_per_entry);
        assert!(m.mean_nnz < 100.0);
        // One fused placement, everything included, must undercut one
        // rebuilt-and-swept placement: the ordering `fig_incremental` plots.
        assert!(m.fused_s_per_placement < m.hmp_cost(1, 900, 1, 32, Representation::Full));
    }
}
