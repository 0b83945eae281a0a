//! Calibration: fitting the [`CostModel`] constants by running the real
//! Haralick kernels on this machine.
//!
//! The simulator's credibility rests on its service times being *measured*,
//! not invented. Calibration generates a synthetic DCE-MRI sample, then
//! times, over a few hundred paper-configuration ROIs:
//!
//! * co-occurrence matrix construction (per voxel × direction),
//! * the zero-skip and naive dense feature passes (per `Ng²` entry),
//! * the sparse feature pass (per stored entry) and the dense→sparse
//!   conversion,
//! * one sheet of placements through the fused scan, whole kernel (per
//!   placement),
//! * bulk buffer copying (the IIC stitch, per byte),
//!
//! and records the observed mean matrix sparsity.
//!
//! All measured costs are then multiplied by [`PIII_SLOWDOWN`] to express
//! them at the paper's reference machine speed (a ~1 GHz Pentium III is far
//! slower than this host). The committed snapshot in
//! [`crate::calibrated_defaults`] keeps tests and figure harnesses
//! deterministic; the `claims` binary re-measures live.

use crate::cost::CostModel;
use haralick::coocc::CoMatrix;
use haralick::direction::DirectionSet;
use haralick::features::{compute_features, FeatureSelection, MatrixStats};
use haralick::raster::{scan_placements, Representation, ScanConfig, ScanEngine, TSlidePolicy};
use haralick::roi::RoiShape;
use haralick::sparse::{SparseAccumulator, SparseCoMatrix};
use haralick::volume::{Dims4, Point4, Region4};
use mri::synth::{generate, SynthConfig};
use std::time::Instant;

/// Factor converting this host's measured kernel times to the PIII
/// reference node. A ~1 GHz Pentium III delivers roughly 1/10 of a modern
/// core's throughput on this scalar integer/float mix (≈4x clock × ≈2.5x
/// IPC/memory). This factor also sets the modeled compute-to-network cost
/// ratio, since the 2004 network speeds are fixed.
pub const PIII_SLOWDOWN: f64 = 10.0;

/// Full calibration result: the fitted model plus raw measurement details.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The fitted cost model (at PIII reference speed).
    pub model: CostModel,
    /// ROIs sampled.
    pub samples: usize,
    /// Host-time seconds per dense co-occurrence matrix (paper ROI/dirs).
    pub host_coocc_per_roi: f64,
    /// Host-time seconds per sparse-accumulated matrix (paper ROI/dirs).
    pub host_coocc_sparse_per_roi: f64,
    /// Host-time seconds per matrix for the checked dense feature pass.
    pub host_feat_full_per_matrix: f64,
    /// Host-time seconds per matrix for the naive dense feature pass.
    pub host_feat_naive_per_matrix: f64,
    /// Host-time seconds per matrix for the sparse feature pass.
    pub host_feat_sparse_per_matrix: f64,
    /// Observed zero-skip speedup (naive / checked) — the paper reports ~4x.
    pub zero_skip_speedup: f64,
}

/// Seconds of one call of `pass`: the fastest of seven timed calls after an
/// untimed warm-up. Each pass takes a few milliseconds at most, and tests
/// calibrate while other tests share the cores, so a single timing
/// measures whichever preemption or cold cache it met, not the pass.
fn fastest(mut pass: impl FnMut()) -> f64 {
    pass();
    (0..7)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs the calibration. `samples` ROIs are measured (a few hundred gives
/// stable constants in well under a second of host time).
pub fn calibrate(seed: u64, samples: usize) -> Calibration {
    let cfg = SynthConfig::test_scale(seed);
    let raw = generate(&cfg);
    let vol = raw.quantize_min_max(32);
    let ng = 32u16;
    let roi = RoiShape::paper_default();
    // The experiment configuration: one displacement per matrix (§3).
    let dirs = DirectionSet::single(haralick::direction::Direction::new(1, 1, 1, 1));
    let sel = FeatureSelection::paper_default();

    let out = roi.output_dims(vol.dims());
    let origins: Vec<_> = out.region().points().collect();
    let stride = (origins.len() / samples).max(1);
    let picks: Vec<_> = origins
        .iter()
        .step_by(stride)
        .take(samples)
        .copied()
        .collect();
    let n = picks.len();
    let roi_voxels = roi.len();
    let ndirs = dirs.len();

    // --- co-occurrence construction ---
    let build = |o| CoMatrix::from_region(&vol, Region4::new(o, roi.size()), &dirs);
    let matrices: Vec<CoMatrix> = picks.iter().map(|&o| build(o)).collect();
    let host_coocc_per_roi = fastest(|| {
        for &o in &picks {
            std::hint::black_box(build(o));
        }
    }) / n as f64;

    // --- fused scan ---
    // The kernel itself, as HMP runs it: one whole (z, t) sheet of
    // placements through `scan_placements`, charged per placement. A
    // `scan_placements` call runs on the calling thread, so this is one
    // core's time, as a texture copy spends it.
    let host_fused_per_placement = {
        let extent = Dims4::new(out.x, out.y, 1, 1);
        let cfg = ScanConfig {
            roi,
            directions: dirs.clone(),
            selection: sel,
            representation: Representation::Full,
            engine: ScanEngine::Fused,
            t_slide: TSlidePolicy::Auto,
        };
        fastest(|| {
            std::hint::black_box(scan_placements(&vol, &cfg, Point4::ZERO, extent));
        }) / extent.len() as f64
    };

    // --- sparse-storage accumulation (binary-search increments) ---
    let host_coocc_sparse_per_roi = fastest(|| {
        for &o in &picks {
            std::hint::black_box(SparseAccumulator::from_region(
                &vol,
                Region4::new(o, roi.size()),
                &dirs,
            ));
        }
    }) / n as f64;

    // --- sparsity ---
    let sparse: Vec<SparseCoMatrix> = matrices.iter().map(SparseCoMatrix::from_dense).collect();
    let mean_nnz = sparse.iter().map(|s| s.nnz() as f64).sum::<f64>() / n as f64;

    // --- dense → sparse conversion ---
    let convert_per_matrix = fastest(|| {
        for m in &matrices {
            std::hint::black_box(SparseCoMatrix::from_dense(m));
        }
    }) / n as f64;

    // --- feature passes ---
    let host_feat_full_per_matrix = fastest(|| {
        for m in &matrices {
            std::hint::black_box(compute_features(&m.stats_checked(), &sel));
        }
    }) / n as f64;
    let host_feat_naive_per_matrix = fastest(|| {
        for m in &matrices {
            std::hint::black_box(compute_features(&m.stats_naive(), &sel));
        }
    }) / n as f64;
    let host_feat_sparse_per_matrix = fastest(|| {
        for s in &sparse {
            std::hint::black_box(compute_features(&MatrixStats::from_sparse(s), &sel));
        }
    }) / n as f64;

    // --- bulk copy (stitch) ---
    let src = vec![0u8; 8 << 20];
    let mut dst = vec![0u8; 8 << 20];
    let stitch_per_byte = fastest(|| {
        dst.copy_from_slice(&src);
        std::hint::black_box(&mut dst);
    }) / src.len() as f64;

    let entries = f64::from(ng) * f64::from(ng);
    // Split the per-matrix feature costs into a per-entry slope and a fixed
    // finalize base. The base is approximated by the sparse pass with its
    // per-entry share removed at the observed nnz.
    let feat_base_s = (host_feat_sparse_per_matrix * 0.3).max(1e-9) * PIII_SLOWDOWN;
    let model = CostModel {
        coocc_s_per_voxel_dir: host_coocc_per_roi / (roi_voxels as f64 * ndirs as f64)
            * PIII_SLOWDOWN,
        coocc_sparse_s_per_voxel_dir: host_coocc_sparse_per_roi
            / (roi_voxels as f64 * ndirs as f64)
            * PIII_SLOWDOWN,
        feat_full_s_per_entry: (host_feat_full_per_matrix / entries) * PIII_SLOWDOWN,
        feat_naive_s_per_entry: (host_feat_naive_per_matrix / entries) * PIII_SLOWDOWN,
        feat_sparse_s_per_entry: (host_feat_sparse_per_matrix * 0.7 / mean_nnz.max(1.0))
            * PIII_SLOWDOWN,
        feat_base_s,
        sparse_convert_s_per_entry: (convert_per_matrix / entries) * PIII_SLOWDOWN,
        fused_s_per_placement: host_fused_per_placement * PIII_SLOWDOWN,
        stitch_s_per_byte: stitch_per_byte * PIII_SLOWDOWN,
        write_s_per_byte: stitch_per_byte * 2.0 * PIII_SLOWDOWN,
        mean_nnz,
    };
    Calibration {
        model,
        samples: n,
        host_coocc_per_roi,
        host_coocc_sparse_per_roi,
        host_feat_full_per_matrix,
        host_feat_naive_per_matrix,
        host_feat_sparse_per_matrix,
        zero_skip_speedup: host_feat_naive_per_matrix / host_feat_full_per_matrix.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_positive_constants() {
        let c = calibrate(3, 40);
        let m = &c.model;
        for (name, v) in [
            ("coocc", m.coocc_s_per_voxel_dir),
            ("coocc_sparse", m.coocc_sparse_s_per_voxel_dir),
            ("full", m.feat_full_s_per_entry),
            ("naive", m.feat_naive_s_per_entry),
            ("sparse", m.feat_sparse_s_per_entry),
            ("base", m.feat_base_s),
            ("convert", m.sparse_convert_s_per_entry),
            ("fused", m.fused_s_per_placement),
            ("stitch", m.stitch_s_per_byte),
            ("write", m.write_s_per_byte),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
        assert!(m.mean_nnz > 1.0 && m.mean_nnz < 528.0);
        assert!(c.samples > 0);
    }

    #[test]
    fn zero_skip_pays_off_on_sparse_workload() {
        let c = calibrate(9, 60);
        // Debug builds measure unoptimized kernels where bounds checks
        // dominate both passes; only require a direction there.
        let floor = if cfg!(debug_assertions) { 1.02 } else { 1.3 };
        assert!(
            c.zero_skip_speedup > floor,
            "zero-skip speedup only {:.2}x on a sparse workload",
            c.zero_skip_speedup
        );
    }

    #[test]
    fn sparse_accumulation_measurably_slower() {
        let c = calibrate(5, 60);
        assert!(
            c.host_coocc_sparse_per_roi > c.host_coocc_per_roi,
            "sparse accumulation ({}) should cost more than dense ({})",
            c.host_coocc_sparse_per_roi,
            c.host_coocc_per_roi
        );
    }

    #[test]
    fn sparsity_in_papers_regime() {
        let c = calibrate(11, 60);
        assert!(
            c.model.mean_nnz < 60.0,
            "mean nnz {:.1} far above the paper's ~10.7",
            c.model.mean_nnz
        );
    }
}
