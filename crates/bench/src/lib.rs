//! Figure harness support: table/CSV rendering of experiment series.
//!
//! The `fig*` binaries in `src/bin/` regenerate every figure of the paper's
//! evaluation section; measured kernel and I/O rates come from `benchmark/`.

pub mod plot;

use pipeline::experiments::Series;
use std::io::Write;
use std::path::Path;

/// Prints a series as an aligned table, one row per x value and one column
/// per series label — mirroring the paper's figure axes.
pub fn print_table(title: &str, x_name: &str, s: &Series) {
    println!("== {title} ==");
    let labels = s.labels();
    print!("{x_name:>14}");
    for l in &labels {
        print!("  {l:>22}");
    }
    println!();
    for x in s.xs() {
        print!("{x:>14}");
        for l in &labels {
            match s.get(l, x) {
                Some(v) => print!("  {v:>22.2}"),
                None => print!("  {:>22}", "-"),
            }
        }
        println!();
    }
    println!();
}

/// Writes the series as CSV (`x,series,seconds`) under `results/` in the
/// working directory.
pub fn write_csv(name: &str, s: &Series) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
    writeln!(f, "x,series,seconds")?;
    for p in &s.points {
        writeln!(f, "{},{},{}", p.x, p.series, p.seconds)?;
    }
    Ok(())
}

/// Writes both the CSV and an SVG rendering of a figure's series.
pub fn write_outputs(name: &str, s: &Series, title: &str, x_label: &str, y_label: &str) {
    write_csv(name, s).unwrap_or_else(|e| panic!("write results/{name}.csv: {e}"));
    plot::write_svg(
        name,
        s,
        &plot::PlotConfig {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            log_y: false,
        },
    )
    .unwrap_or_else(|e| panic!("write results/{name}.svg: {e}"));
}

/// The cost model every figure binary uses: the committed calibration
/// snapshot (deterministic across machines). Run the `claims` binary to
/// re-measure live values.
pub fn model() -> cluster::CostModel {
    cluster::calibrated_defaults::default_model()
}
