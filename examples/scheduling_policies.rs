//! Scheduling-policy playground on the heterogeneous XEON + OPTERON
//! testbed: round-robin vs demand-driven delivery of chunk buffers to the
//! HCC filter copies (the paper's Figure 11 scenario), with the per-cluster
//! buffer counts that explain the outcome.
//!
//! ```sh
//! cargo run --release --example scheduling_policies
//! ```

use haralick4d::cluster::calibrated_defaults::default_model;
use haralick4d::datacutter::SchedulePolicy;
use haralick4d::pipeline::experiments::run_fig11;

fn main() {
    let model = default_model();
    println!("XEON (4 HCC copies) + OPTERON (4 HCC copies, faster memory system)\n");
    for (name, policy) in [
        ("round robin", SchedulePolicy::RoundRobin),
        ("demand driven", SchedulePolicy::DemandDriven),
    ] {
        let run = run_fig11(&model, policy);
        let total = run.xeon_buffers + run.opteron_buffers;
        println!("{name:>14}: {:8.1} virtual seconds", run.report.makespan);
        println!(
            "{:>14}  XEON {:>4} chunks ({:4.1}%), OPTERON {:>4} chunks ({:4.1}%)",
            "",
            run.xeon_buffers,
            100.0 * run.xeon_buffers as f64 / total as f64,
            run.opteron_buffers,
            100.0 * run.opteron_buffers as f64 / total as f64,
        );
        // Where the co-occurrence time was actually spent.
        let mut xeon_busy = 0.0;
        let mut opt_busy = 0.0;
        for c in run.report.per_copy.copies_of("HCC") {
            if c.copy < 4 {
                xeon_busy += c.busy_s;
            } else {
                opt_busy += c.busy_s;
            }
        }
        println!(
            "{:>14}  HCC busy: XEON {xeon_busy:.1}s, OPTERON {opt_busy:.1}s\n",
            ""
        );
    }
    println!(
        "demand-driven routes more chunks to the faster OPTERON consumers, which\n\
         also keeps more HCC->HPC traffic local to the OPTERON cluster (paper §5.3)."
    );
}
