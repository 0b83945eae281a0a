//! The reproduction's headline guarantees as tests: every qualitative
//! result the paper states must hold when the experiments run on the
//! committed calibration snapshot. If a change to the kernels, cost model
//! or simulator flips one of these orderings, this suite fails.
//!
//! (Release mode recommended; each experiment is a paper-scale simulation
//! but completes in well under a second.)

use haralick4d::cluster::calibrated_defaults::default_model;
use haralick4d::datacutter::SchedulePolicy;
use haralick4d::haralick::raster::Representation;
use haralick4d::pipeline::experiments::{
    fig_chunksize, fig_iic, run_fig11, run_hmp_piii, run_split_piii, NODE_COUNTS,
};

#[test]
fn fig7a_full_beats_sparse_in_the_hmp_implementation() {
    let model = default_model();
    for &n in &NODE_COUNTS {
        let full = run_hmp_piii(&model, Representation::Full, n).makespan;
        let sparse = run_hmp_piii(&model, Representation::SparseAccum, n).makespan;
        assert!(
            full < sparse,
            "at {n} nodes: HMP full ({full:.0}s) must beat HMP sparse ({sparse:.0}s)"
        );
    }
}

#[test]
fn fig7a_hmp_scales_with_nodes() {
    let model = default_model();
    let t1 = run_hmp_piii(&model, Representation::Full, 1).makespan;
    let t16 = run_hmp_piii(&model, Representation::Full, 16).makespan;
    let speedup = t1 / t16;
    assert!(speedup > 10.0, "HMP speedup at 16 nodes only {speedup:.1}x");
}

#[test]
fn fig7b_sparse_beats_full_in_the_split_implementation() {
    let model = default_model();
    for &n in &NODE_COUNTS {
        let full = run_split_piii(&model, Representation::Full, n, false).makespan;
        let sparse = run_split_piii(&model, Representation::Sparse, n, false).makespan;
        assert!(
            sparse < full,
            "at {n} nodes: split sparse ({sparse:.0}s) must beat split full ({full:.0}s)"
        );
    }
    // And the gap is driven by communication: it widens with node count.
    let gap4 = run_split_piii(&model, Representation::Full, 4, false).makespan
        / run_split_piii(&model, Representation::Sparse, 4, false).makespan;
    assert!(gap4 > 3.0, "communication-bound gap too small: {gap4:.1}x");
}

#[test]
fn fig8_overlap_beats_no_overlap_and_hmp() {
    let model = default_model();
    for &n in &[2usize, 4, 8, 16] {
        let overlap = run_split_piii(&model, Representation::Sparse, n, true).makespan;
        let no_overlap = run_split_piii(&model, Representation::Sparse, n, false).makespan;
        let hmp = run_hmp_piii(&model, Representation::Full, n).makespan;
        assert!(
            overlap < no_overlap,
            "at {n} nodes: Overlap ({overlap:.0}s) must beat No-Overlap ({no_overlap:.0}s)"
        );
        assert!(
            overlap < hmp,
            "at {n} nodes: Overlap ({overlap:.0}s) must beat HMP ({hmp:.0}s)"
        );
    }
}

#[test]
fn fig8_one_node_split_beats_one_node_hmp() {
    // "in the one-node case, the split HCC and HPC filter implementation
    // performs better than the HMP filter implementation" — pipelining.
    let model = default_model();
    let split = run_split_piii(&model, Representation::Sparse, 1, false).makespan;
    let hmp = run_hmp_piii(&model, Representation::Full, 1).makespan;
    assert!(split < hmp, "one-node split {split:.0}s vs HMP {hmp:.0}s");
}

#[test]
fn fig9_filter_profile_trends() {
    let model = default_model();
    let r4 = run_split_piii(&model, Representation::Sparse, 4, false);
    let r16 = run_split_piii(&model, Representation::Sparse, 16, false);
    // HCC busy falls with more nodes.
    assert!(r16.per_copy.max_busy_of("HCC") < 0.5 * r4.per_copy.max_busy_of("HCC"));
    // RFR/IIC/USO are per-copy constant: the same service work regardless
    // of texture node count.
    for f in ["RFR", "IIC", "USO"] {
        let (a, b) = (r4.per_copy.max_busy_of(f), r16.per_copy.max_busy_of(f));
        assert!(
            (a - b).abs() < 0.05 * a.max(b),
            "{f} busy should be flat: {a:.1} vs {b:.1}"
        );
    }
    // Read and write are small relative to the texture computation at
    // moderate scale.
    assert!(r4.per_copy.max_busy_of("RFR") < 0.2 * r4.per_copy.max_busy_of("HCC"));
    assert!(r4.per_copy.max_busy_of("USO") < 0.2 * r4.per_copy.max_busy_of("HCC"));
}

#[test]
fn fig10_split_beats_hmp_in_the_heterogeneous_environment() {
    let model = default_model();
    let s = haralick4d::pipeline::experiments::fig10(&model);
    let hmp = s.get("HMP Implementation", 23).expect("HMP point");
    let split = s.get("HCC+HPC", 18).expect("split point");
    assert!(
        split < hmp,
        "split ({split:.0}s) must beat HMP ({hmp:.0}s) on PIII+XEON"
    );
}

#[test]
fn fig11_demand_driven_beats_round_robin_with_the_right_skew() {
    let model = default_model();
    let rr = run_fig11(&model, SchedulePolicy::RoundRobin);
    let dd = run_fig11(&model, SchedulePolicy::DemandDriven);
    assert!(
        dd.report.makespan < rr.report.makespan,
        "DD ({:.0}s) must beat RR ({:.0}s)",
        dd.report.makespan,
        rr.report.makespan
    );
    // Round robin splits evenly; demand driven favours OPTERON.
    assert!((rr.xeon_buffers as i64 - rr.opteron_buffers as i64).abs() <= 1);
    assert!(
        dd.opteron_buffers > dd.xeon_buffers + 20,
        "OPTERON skew missing: {} vs {}",
        dd.opteron_buffers,
        dd.xeon_buffers
    );
}

#[test]
fn iic_replication_scales_per_copy_busy_time_linearly() {
    let model = default_model();
    let s = fig_iic(&model);
    let b1 = s.get("IIC busy (max copy)", 1).unwrap();
    let b4 = s.get("IIC busy (max copy)", 4).unwrap();
    assert!(
        (b1 / b4 - 4.0).abs() < 0.5,
        "4 IIC copies should quarter the per-copy busy time: {b1:.2} -> {b4:.2}"
    );
}

#[test]
fn chunk_size_curve_is_u_shaped_with_minimum_at_the_papers_choice() {
    let model = default_model();
    let s = fig_chunksize(&model);
    let t = |edge| s.get("Execution time", edge).unwrap();
    assert!(t(16) > t(32), "tiny chunks must pay overlap volume");
    assert!(t(64) < t(32), "the paper's 64 must beat 32");
    assert!(
        t(64) < t(128),
        "oversize chunks must pay distribution granularity"
    );
    // And retrieval volume decreases monotonically with chunk size.
    let v = |edge| s.get("Retrieval volume (Mvoxels)", edge).unwrap();
    assert!(v(16) > v(32) && v(32) > v(64) && v(64) > v(128));
}
