//! `h4d-benchmark`: the repository's end-to-end, layer-by-layer benchmark.
//! See `benchmark/README.md` for workloads, metrics and how to read the
//! output.
//!
//! ```text
//! h4d-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! h4d-benchmark --all            [--seed <n>] [--seconds <s>]
//! h4d-benchmark --check-repeat   [--seed <n>] [--seconds <s>] [--runs <r>]
//! h4d-benchmark --print-benchmark-json
//! ```

mod child;
mod dataset;
mod metrics;
mod pass;
mod probes;
mod provenance;
mod stats;
mod trace;
mod verify;
mod workloads;

use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

/// `setup_s` is the fastest of the set-ups of one run — like `wall_s`, an
/// estimate for a quiet host, because the median followed the host's speed
/// regime (0.10 s in one ten-run series, 0.13 s in the next, same code). There
/// are at least `MIN_SETUPS`, repeated while fewer than `SETUP_BUDGET` seconds
/// have gone into them (so that a 15 ms set-up gets enough tries to meet a
/// quiet moment), at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_millis(1500);

/// Parsed command line: `--key value` pairs and bare `--flag`s.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse() -> Result<Self, String> {
        const FLAGS: [&str; 3] = ["--all", "--check-repeat", "--print-benchmark-json"];
        let mut map = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(key) = it.next() {
            if !key.starts_with("--") {
                return Err(format!("unexpected argument {key:?}"));
            }
            let value = if FLAGS.contains(&key.as_str()) {
                String::new()
            } else {
                it.next().ok_or(format!("{key} needs a value"))?
            };
            map.insert(key, value);
        }
        Ok(Self(map))
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} {v:?} is not a number")),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        workloads::by_name(name).ok_or(format!(
            "unknown workload {name:?}; known: {}",
            workloads::ALL.map(|w| w.name).join(", ")
        ))
    }
}

/// Directory of this executable: inside the cargo target directory, hence
/// inside the checkout and ignored by git. Scratch data and results live
/// below it.
fn exe_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| io::Error::other("executable has no parent directory"))
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One run of one workload, as the contract defines it.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    checksum: String,
    values: Values,
}

fn run_workload(w: &Workload, seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let base = exe_dir()?;
    let scratch = Scratch(base.join("h4d-bench-scratch").join(format!(
        "{}-{}",
        w.name,
        std::process::id()
    )));
    let (data, out) = (scratch.0.join("data"), scratch.0.join("out"));
    let results = base.join("h4d-bench-results");
    let seed_s = seed.to_string();

    // Set-up, several times over: the fastest is the metric.
    let mut setups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let setup_started = std::time::Instant::now();
    for n in 0..MAX_SETUPS {
        if n >= MIN_SETUPS && setup_started.elapsed() >= SETUP_BUDGET {
            break;
        }
        let _ = std::fs::remove_dir_all(&scratch.0);
        std::fs::create_dir_all(&out)?;
        let report = child::run_child(
            &[
                "--phase",
                "generate",
                "--workload",
                w.name,
                "--seed",
                &seed_s,
            ],
            &[("--data", &data)],
        )?;
        for (k, v) in report {
            let v: f64 = v.parse().map_err(io::Error::other)?;
            setups.entry(k).or_default().push(v);
        }
    }
    let setup_count = setups.values().next().map_or(0, Vec::len);
    let mut values: Values = setups
        .into_iter()
        .map(|(k, v)| (k, v.into_iter().fold(f64::INFINITY, f64::min)))
        .collect();
    values.insert("setup_s.n".to_string(), setup_count as f64);

    let report = child::run_child(
        &[
            "--phase",
            "run",
            "--workload",
            w.name,
            "--seed",
            &seed_s,
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ],
        &[("--data", &data), ("--out", &out), ("--results", &results)],
    )?;
    let mut checksum = String::new();
    for (k, v) in report {
        if k == "checksum" {
            checksum = v;
        } else {
            values.insert(k, v.parse().map_err(io::Error::other)?);
        }
    }
    let count = |k: &str| values.get(k).copied().unwrap_or(0.0) as u64;
    Ok(Outcome {
        correct: count("correct") == 1,
        attempted: count("attempted").max(1),
        failed: count("failed"),
        checksum,
        values,
    })
}

/// Prints the metrics of one run by name, with unit, sample counts and bound.
fn print_tables(w: &Workload, seed: u64, traced: bool, o: &Outcome) {
    let v = |k: &str| o.values.get(k).copied().unwrap_or(0.0);
    println!(
        "## {}  seed {seed}  dims {}  checksum {}  correct {}  chunks failed {}/{}",
        w.name, w.dims, o.checksum, o.correct, o.failed, o.attempted
    );
    println!(
        "{} passes in the measured window: median {:.6} s, min {:.6} s, max {:.6} s; {} set-ups",
        v("pass_s.n"),
        v("pass_s.median"),
        v("pass_s.min"),
        v("pass_s.max"),
        v("setup_s.n"),
    );
    println!(
        "{:<22} {:>16} {:<6}  {:<6} {:>5}",
        "end-to-end", "value", "unit", "better", "bound"
    );
    for m in &END_TO_END {
        println!(
            "{:<22} {:>16.6} {:<6}  {:<6} {:>4.0}%",
            m.name,
            v(m.name),
            m.unit,
            m.better,
            m.bound * 100.0
        );
    }
    if !traced {
        return;
    }
    let traced_wall = v("traced_wall_s");
    println!(
        "{:<40} {:>18} {:<6} {:>9}",
        "per-layer (traced passes)", "value", "unit", "% of wall"
    );
    for (name, unit, _) in &PER_LAYER {
        let share = if *unit == "s" && !name.starts_with("mri.synth") {
            format!("{:>8.2}%", 100.0 * v(name) / traced_wall)
        } else {
            String::new()
        };
        println!("{name:<40} {:>18.6} {unit:<6} {share}", v(name));
    }
    println!(
        "chunk_ms_ptail is p{:.1} of {} scanned chunks; probes ran on {} windows; {} placements or chunks recomputed independently",
        v("haralick.raster.chunk_ms_ptail.percentile"),
        v("haralick.raster.chunk_ms.n"),
        v("probe_windows"),
        v("recomputed"),
    );
}

/// `--workload`: one run, ending in the contract's result line.
fn single(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let seed = args.number("--seed", 7u64)?;
    let seconds = args.number("--seconds", RUN_SECONDS as f64)?;
    let traced = match args.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let o = run_workload(w, seed, seconds, traced).map_err(|e| e.to_string())?;
    print_tables(w, seed, traced, &o);
    let scratch = exe_dir().map_err(|e| e.to_string())?;
    let runs = |k: &str| o.values.get(k).copied().unwrap_or(0.0) as u64;
    println!(
        "provenance {}",
        provenance::provenance_json(
            seed,
            &scratch,
            &[("passes", runs("pass_s.n")), ("setups", runs("setup_s.n"))]
        )
    );
    println!(
        "{}",
        metrics::result_line(o.correct, o.attempted, o.failed, traced, &o.values)
    );
    Ok(ExitCode::SUCCESS)
}

/// `--all`: every workload, untraced then traced, plus `report.json`.
fn all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed", 7u64)?;
    let seconds = args.number("--seconds", RUN_SECONDS as f64)?;
    let base = exe_dir().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut json = format!(
        "{{\"provenance\": {}, \"run_seconds\": {seconds}, \"workloads\": {{",
        provenance::provenance_json(seed, &base, &[("runs_per_workload", 2)])
    );
    for (i, w) in workloads::ALL.iter().enumerate() {
        let plain = run_workload(w, seed, seconds, false).map_err(|e| e.to_string())?;
        let traced = run_workload(w, seed, seconds, true).map_err(|e| e.to_string())?;
        // One view: end-to-end numbers from the untraced run, layers from
        // the traced one.
        let mut merged = traced.values.clone();
        for m in &END_TO_END {
            merged.insert(m.name.to_string(), plain.values[m.name]);
        }
        for k in [
            "pass_s.n",
            "pass_s.median",
            "pass_s.min",
            "pass_s.max",
            "setup_s.n",
        ] {
            merged.insert(k.to_string(), plain.values[k]);
        }
        let view = Outcome {
            correct: plain.correct && traced.correct && plain.checksum == traced.checksum,
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            checksum: plain.checksum.clone(),
            values: merged,
        };
        print_tables(w, seed, true, &view);
        println!();
        ok &= view.correct;
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{}\": {{\"checksum\": \"{}\", \"passes\": {}, \"setups\": {}, \"untraced\": {}, \"traced\": {}}}",
            w.name,
            view.checksum,
            plain.values["pass_s.n"],
            plain.values["setup_s.n"],
            metrics::result_line(
                plain.correct,
                plain.attempted,
                plain.failed,
                false,
                &plain.values
            ),
            metrics::result_line(
                traced.correct,
                traced.attempted,
                traced.failed,
                true,
                &traced.values
            ),
        ));
    }
    json.push_str("}}\n");
    let results = base.join("h4d-bench-results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let path = results.join("report.json");
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!("report and traces: {}", results.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--check-repeat`: two sets of the same code, back to back. Fails unless
/// every end-to-end metric of set B is within its bound of set A on every
/// workload, checksums are identical and no chunk failed. On failure raise
/// `--runs`, never a bound.
fn check_repeat(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed", 7u64)?;
    let seconds = args.number("--seconds", RUN_SECONDS as f64)?;
    let runs = args.number("--runs", 1usize)?.max(1);
    let mut sets: Vec<BTreeMap<&str, (Values, String, u64)>> = Vec::new();
    for set in ["A", "B"] {
        let mut by_workload = BTreeMap::new();
        for w in &workloads::ALL {
            let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            let (mut checksum, mut failed) = (String::new(), 0);
            for run in 0..runs {
                let o = run_workload(w, seed, seconds, false).map_err(|e| e.to_string())?;
                eprintln!(
                    "set {set} {} run {run}: wall_s {:.4} checksum {}",
                    w.name, o.values["wall_s"], o.checksum
                );
                failed += o.failed + u64::from(!o.correct);
                if run > 0 && checksum != o.checksum {
                    failed += 1;
                }
                checksum = o.checksum;
                for m in &END_TO_END {
                    samples.entry(m.name).or_default().push(o.values[m.name]);
                }
            }
            let medians: Values = samples
                .into_iter()
                .map(|(k, v)| (k.to_string(), stats::median(&v)))
                .collect();
            by_workload.insert(w.name, (medians, checksum, failed));
        }
        sets.push(by_workload);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set A", "set B", "worse", "bound"
    );
    for w in &workloads::ALL {
        let (a, sum_a, failed_a) = &sets[0][w.name];
        let (b, sum_b, failed_b) = &sets[1][w.name];
        for m in &END_TO_END {
            let (va, vb) = (a[m.name], b[m.name]);
            let worse = if m.better == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let pass = worse <= m.bound;
            ok &= pass;
            println!(
                "{:<16} {:<20} {va:>14.6} {vb:>14.6} {:>7.2}% {:>5.0}% {}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if pass { "" } else { "REGRESSION" }
            );
        }
        if sum_a != sum_b || failed_a + failed_b != 0 {
            ok = false;
            println!(
                "{:<16} checksum {sum_a} vs {sum_b}, failed {failed_a} + {failed_b}  MISMATCH",
                w.name
            );
        }
    }
    println!(
        "{}",
        if ok {
            "repeat check passed"
        } else {
            "repeat check FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--phase`: the child side.
fn phase(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let seed = args.number("--seed", 7u64)?;
    let path = |k: &str| {
        args.get(k)
            .map(PathBuf::from)
            .ok_or(format!("{k} is required"))
    };
    let data = path("--data")?;
    let done = match args.get("--phase") {
        Some("generate") => child::generate_phase(w, seed, &data),
        Some(p @ ("run" | "verify")) => {
            let (out, results) = (path("--out")?, path("--results").unwrap_or_default());
            let dirs = child::Dirs {
                data: &data,
                out: &out,
                results: &results,
            };
            if p == "run" {
                let seconds = args.number("--seconds", RUN_SECONDS as f64)?;
                child::run_phase(w, seed, seconds, args.get("--trace") == Some("1"), &dirs)
            } else {
                child::verify_phase(w, seed, &dirs, &path("--digests")?)
            }
        }
        other => return Err(format!("unknown phase {other:?}")),
    };
    done.map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let args = Args::parse()?;
        if args.has("--print-benchmark-json") {
            print!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        } else if args.has("--phase") {
            phase(&args)
        } else if args.has("--all") {
            all(&args)
        } else if args.has("--check-repeat") {
            check_repeat(&args)
        } else {
            single(&args)
        }
    };
    match run() {
        Ok(code) => {
            let _ = io::stdout().flush();
            code
        }
        Err(e) => {
            eprintln!("h4d-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
