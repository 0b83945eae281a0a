//! Exports `BENCH_run_report.json`: a measured [`datacutter::RunReport`]
//! from a live threaded run of the RFR→IIC→HMP→USO graph over a synthetic
//! distributed dataset — the busy / blocked-send / blocked-recv split per
//! filter copy that paper Figure 9 plots, taken from real channel waits
//! instead of the analytic cost model the `fig9` binary uses.
//!
//! ```sh
//! cargo run --release -p bench --bin report_json
//! ```

use datacutter::{EngineConfig, RunReport, SchedulePolicy};
use haralick::raster::Representation;
use mri::store::write_distributed;
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::graphs::{Copies, HmpGraph};
use pipeline::run::{run_threaded, IoRuntime};
use std::sync::Arc;

fn main() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let base = std::env::temp_dir().join(format!("h4d_report_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("data");
    let out = base.join("out");
    std::fs::create_dir_all(&out).unwrap_or_else(|e| panic!("mkdir {}: {e}", out.display()));

    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(7)
    });
    write_distributed(&raw, &data, "report", cfg.storage_nodes).expect("write dataset");

    let spec = HmpGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(2),
        hmp: Copies::Count(2),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build();

    let (rt, engine) = (IoRuntime::new(), EngineConfig::default());
    let outcome = run_threaded(&spec, &cfg, &data, &out, &rt, &engine)
        .unwrap_or_else(|e| panic!("threaded run failed: {e}"));
    let report = RunReport::new(&spec, &outcome);
    if let Err(msg) = report.check() {
        panic!("run report failed its invariant check: {msg}");
    }

    println!("per-filter wall split (seconds, summed over copies):");
    println!(
        "{:>6} {:>10} {:>14} {:>14}",
        "filter", "busy", "blocked_send", "blocked_recv"
    );
    for f in &spec.filters {
        let copies = report.copies_of(&f.name);
        let busy: f64 = copies.iter().map(|c| c.busy_s).sum();
        let bs: f64 = copies.iter().map(|c| c.blocked_send_s).sum();
        let br: f64 = copies.iter().map(|c| c.blocked_recv_s).sum();
        println!("{:>6} {busy:>10.4} {bs:>14.4} {br:>14.4}", f.name);
    }

    let path = "BENCH_run_report.json";
    std::fs::write(path, report.to_json_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");

    let _ = std::fs::remove_dir_all(&base);
}
