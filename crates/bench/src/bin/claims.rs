//! Reproduces the paper's in-text measured claims (§4.4.1, §5.1–5.2):
//!
//! * co-occurrence matrices on a typical requantized MRI workload have on
//!   the order of ~10 non-zero entries of 1024 (~1% fill);
//! * the zero-skip optimization processes the dataset in a fraction of the
//!   naive time (paper: "one-fourth the time");
//! * the HCC (co-occurrence) stage is ~4–5x more expensive than the HPC
//!   (parameter) stage, justifying the paper's 4:1 node split;
//! * sparse transmission shrinks HCC→HPC traffic by orders of magnitude.
//!
//! Also prints the freshly measured calibration constants so the committed
//! snapshot in `cluster::calibrated_defaults` can be audited or refreshed.
//!
//! Run with `cargo run --release -p bench --bin claims`.

use cluster::calibrate::{calibrate, PIII_SLOWDOWN};
use cluster::cost::CostModel;
use haralick::raster::Representation;
use haralick::sparse::SparseCoMatrix;

fn main() {
    let samples = 400;
    println!("== calibration: real kernels, {samples} paper-config ROIs ==");
    let c = calibrate(42, samples);
    let m = &c.model;
    println!("(all model constants at PIII reference speed = host x {PIII_SLOWDOWN})");
    // Every field, in the order and form of the `default_model()` literal in
    // `cluster::calibrated_defaults`; the pattern stops compiling when
    // `CostModel` gains a field this does not print.
    let &CostModel {
        coocc_s_per_voxel_dir,
        coocc_sparse_s_per_voxel_dir,
        feat_full_s_per_entry,
        feat_naive_s_per_entry,
        feat_sparse_s_per_entry,
        feat_base_s,
        sparse_convert_s_per_entry,
        fused_s_per_placement,
        stitch_s_per_byte,
        write_s_per_byte,
        mean_nnz,
    } = m;
    for (name, v) in [
        ("coocc_s_per_voxel_dir", coocc_s_per_voxel_dir),
        ("coocc_sparse_s_per_voxel_dir", coocc_sparse_s_per_voxel_dir),
        ("feat_full_s_per_entry", feat_full_s_per_entry),
        ("feat_naive_s_per_entry", feat_naive_s_per_entry),
        ("feat_sparse_s_per_entry", feat_sparse_s_per_entry),
        ("feat_base_s", feat_base_s),
        ("sparse_convert_s_per_entry", sparse_convert_s_per_entry),
        ("fused_s_per_placement", fused_s_per_placement),
        ("stitch_s_per_byte", stitch_s_per_byte),
        ("write_s_per_byte", write_s_per_byte),
    ] {
        println!("{name}: {v:.1e},");
    }
    println!("mean_nnz: {mean_nnz:.1},");
    println!();

    println!("== paper claim: sparsity ==");
    let fill = m.mean_nnz / (32.0 * 33.0 / 2.0);
    println!(
        "mean non-zero entries per 32x32 matrix: {:.1} of 528 unique ({:.2}% fill; paper: 10.7, ~1%)",
        m.mean_nnz,
        fill * 100.0
    );
    println!();

    println!("== paper claim: zero-skip optimization ==");
    println!(
        "naive / checked dense feature pass: {:.2}x (paper: ~4x end-to-end)",
        c.zero_skip_speedup
    );
    println!();

    println!("== paper claim: HCC vs HPC cost ratio ==");
    let roi_voxels = 10 * 10 * 3 * 3;
    let ndirs = 1; // one displacement per matrix (paper §3)
    let hcc_full = m.hcc_cost(1, roi_voxels, ndirs, 32, Representation::Full);
    let hpc_full = m.features_cost(1, 32, Representation::Full);
    let hcc_sparse = m.hcc_cost(1, roi_voxels, ndirs, 32, Representation::Sparse);
    let hpc_sparse = m.features_cost(1, 32, Representation::Sparse);
    println!(
        "full representation:   HCC/HPC = {:.1} (paper: ~4-5)",
        hcc_full / hpc_full
    );
    println!(
        "sparse representation: HCC/HPC = {:.1}",
        hcc_sparse / hpc_sparse
    );
    println!();

    println!("== paper claim: HMP full vs sparse (Fig 7a direction) ==");
    let hmp_full = m.hmp_cost(1, roi_voxels, ndirs, 32, Representation::Full);
    let hmp_sparse = m.hmp_cost(1, roi_voxels, ndirs, 32, Representation::SparseAccum);
    println!(
        "per-ROI HMP cost: full {:.1} us, sparse-storage {:.1} us ({:+.0}% — paper: sparse worse)",
        hmp_full * 1e6,
        hmp_sparse * 1e6,
        (hmp_sparse / hmp_full - 1.0) * 100.0
    );
    println!();

    println!("== paper claim: sparse transmission volume ==");
    let dense_bytes = SparseCoMatrix::dense_wire_size(32);
    let sparse_bytes = SparseCoMatrix::wire_size_for(m.mean_nnz.ceil() as usize);
    println!(
        "per-matrix wire size: dense {dense_bytes} B, sparse {sparse_bytes} B ({:.0}x reduction)",
        dense_bytes as f64 / sparse_bytes as f64
    );
}
