//! Cluster-scale what-if study on the calibrated simulator: how does the
//! paper-scale analysis (256x256x32x32) scale with texture nodes on the
//! modeled 24-node PIII cluster, for both implementations?
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use haralick4d::cluster::calibrated_defaults::default_model;
use haralick4d::haralick::raster::Representation;
use haralick4d::pipeline::experiments::{run_hmp_piii, run_split_piii, NODE_COUNTS};

fn main() {
    let model = default_model();
    println!("paper-scale dataset on the modeled PIII cluster (virtual seconds)\n");
    println!(
        "{:>6}  {:>12}  {:>14}  {:>10}  {:>10}",
        "nodes", "HMP (full)", "split (sparse)", "speedup", "efficiency"
    );
    let mut base = None;
    for &n in &NODE_COUNTS {
        let hmp = run_hmp_piii(&model, Representation::Full, n).makespan;
        let split = run_split_piii(&model, Representation::Sparse, n, true).makespan;
        let best = hmp.min(split);
        let base_t = *base.get_or_insert(best);
        println!(
            "{n:>6}  {hmp:>12.1}  {split:>14.1}  {:>9.2}x  {:>9.1}%",
            base_t / best,
            100.0 * base_t / best / n as f64
        );
    }

    // Per-filter breakdown at 16 nodes: where does the time go?
    println!("\nper-filter busy time at 16 texture nodes (split, sparse):");
    let rep = run_split_piii(&model, Representation::Sparse, 16, true);
    for f in ["RFR", "IIC", "HCC", "HPC", "USO"] {
        let busy = rep.per_copy.max_busy_of(f);
        println!("  {f:<4} max-copy busy = {busy:>8.1}s");
    }
    println!("  end-to-end          = {:>8.1}s", rep.makespan);
}
