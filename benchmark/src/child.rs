//! The three phases that run as child processes of the harness, so that
//! each measured run starts from a fresh address space and the memory of
//! dataset generation and of output verification stays out of the measured
//! process's peak RSS.
//!
//! A child reports to its parent in `key value` lines on standard output;
//! findings for a human go to standard error.

use crate::dataset::write_slices;
use crate::metrics::json_escape;
use crate::pass::{run_pass, PassStats};
use crate::probes;
use crate::provenance::provenance_json;
use crate::stats::{median, tail};
use crate::trace::{name, Tracer, NONE};
use crate::verify;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Where the phases find the dataset, the outputs and the results directory.
pub struct Dirs<'a> {
    /// Dataset root (slice files).
    pub data: &'a Path,
    /// Output directory of the texture passes.
    pub out: &'a Path,
    /// Where `trace.json` is left for the user.
    pub results: &'a Path,
}

fn report(key: &str, value: impl std::fmt::Display) {
    println!("{key} {value}");
}

/// Runs a phase of this executable in a child process and parses its
/// `key value` report; the child's standard error passes through.
pub fn run_child(args: &[&str], paths: &[(&str, &Path)]) -> io::Result<Vec<(String, String)>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(args);
    for (flag, path) in paths {
        cmd.arg(flag).arg(path);
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "child {args:?} ended with {}",
            out.status
        )));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

/// `generate`: `mri::synth::generate` + slice files, timed together.
pub fn generate_phase(w: &Workload, seed: u64, data: &Path) -> io::Result<()> {
    let started = Instant::now();
    let vol = mri::synth::generate(&w.synth(seed));
    let generate_s = started.elapsed().as_secs_f64();
    write_slices(&vol, data)?;
    report("setup_s", started.elapsed().as_secs_f64());
    report("mri.synth.generate_s", generate_s);
    report("mri.synth.voxels", vol.dims().len());
    Ok(())
}

/// `verify`: reads the warm-up pass's outputs back (see [`verify`]).
/// Prints `failed_chunk <id>` per bad chunk and `recomputed <n>`.
pub fn verify_phase(w: &Workload, seed: u64, dirs: &Dirs, digests: &Path) -> io::Result<()> {
    let chunk_digests: Vec<u64> = fs::read_to_string(digests)?
        .lines()
        .map(|l| u64::from_str_radix(l, 16).map_err(io::Error::other))
        .collect::<io::Result<_>>()?;
    let verdict = verify::verify_outputs(w, dirs.data, dirs.out, &chunk_digests, seed)?;
    for p in &verdict.problems {
        eprintln!("verify {}: {p}", w.name);
    }
    for c in &verdict.failed_chunks {
        report("failed_chunk", c);
    }
    report("recomputed", verdict.recomputed);
    report("problems", verdict.problems.len());
    Ok(())
}

fn clear_outputs(out: &Path) -> io::Result<()> {
    for entry in fs::read_dir(out)? {
        fs::remove_file(entry?.path())?;
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// The run's estimate of one pass on a quiet host: every chunk at the fastest
/// it was seen in any pass, plus the fastest remainder (open, plan, create,
/// finish) of any pass.
///
/// The host this runs on is shared: for seconds at a time everything runs up
/// to 1.6x slower, so neither the median nor the minimum of whole passes
/// repeats from run to run (README, "Steadiness"). A chunk is 3-300 ms of
/// work, short enough to fall inside a quiet moment in at least one of the
/// run's ten-odd passes, and the work of chunk `c` is identical in every pass.
fn quiet_wall(passes: &[PassStats]) -> f64 {
    let min = |it: &mut dyn Iterator<Item = f64>| it.fold(f64::INFINITY, f64::min);
    let chunks = passes[0].chunk_wall_s.len();
    let chunk_sum: f64 = (0..chunks)
        .map(|c| min(&mut passes.iter().map(|p| p.chunk_wall_s[c])))
        .sum();
    let rest = min(&mut passes
        .iter()
        .map(|p| p.wall_s - p.chunk_wall_s.iter().sum::<f64>()));
    chunk_sum + rest
}

fn walls(passes: &[PassStats]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_s).collect()
}

/// Spans one traced pass records: per chunk the chunk span, the buffer, the
/// advance, the scan or quantize and up to four writes; three per slice
/// request; plus pass, plan, create and finish.
fn span_capacity(w: &Workload) -> usize {
    let grid = w.grid();
    let requests: usize = grid.chunks().map(|c| c.input.size.z * c.input.size.t).sum();
    4 + grid.len() * 8 + requests * 3
}

fn write_trace_json(
    path: &Path,
    w: &Workload,
    tracer: &Tracer,
    tail_percentile: f64,
    provenance: &str,
) -> io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut s = String::with_capacity(tracer.spans().len() * 40 + 1024);
    write!(
        s,
        "{{\"workload\": \"{}\", \"provenance\": {provenance}, \"time_unit\": \"ns since the pass's tracer started\", \
         \"chunk_ms_ptail_percentile\": {tail_percentile}, \
         \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"chunk_id\"], \"spans\": [",
        w.name,
    )
    .expect("write to String");
    let idx = |v: u32| if v == NONE { -1 } else { i64::from(v) };
    for (i, sp) in tracer.spans().iter().enumerate() {
        let n = names.iter().position(|n| *n == sp.name).unwrap_or_else(|| {
            names.push(sp.name);
            names.len() - 1
        });
        let sep = if i == 0 { "" } else { "," };
        write!(
            s,
            "{sep}\n[{n},{},{},{},{}]",
            sp.start_ns,
            sp.end_ns,
            idx(sp.parent),
            idx(sp.chunk)
        )
        .expect("write to String");
    }
    s.push_str("\n], \"names\": [");
    for (i, n) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}\"{}\"", json_escape(n)).expect("write to String");
    }
    s.push_str("]}\n");
    fs::write(path, s)
}

/// Chunk failures and findings, accumulated over the phases of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Has the warm-up pass's outputs verified in a separate process (so the
/// read-back volumes stay out of this process's peak RSS). Returns how many
/// placements or chunks were recomputed independently.
fn verify_warm_up(
    w: &Workload,
    seed: u64,
    dirs: &Dirs,
    warm: &PassStats,
    tally: &mut Tally,
) -> io::Result<u64> {
    let digests = dirs.out.with_file_name("digests.txt");
    let lines: String = warm
        .chunk_digests
        .iter()
        .map(|d| format!("{d:x}\n"))
        .collect();
    fs::write(&digests, lines)?;
    let report = run_child(
        &[
            "--phase",
            "verify",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ],
        &[
            ("--data", dirs.data),
            ("--out", dirs.out),
            ("--digests", &digests),
        ],
    )?;
    let mut recomputed = 0;
    for (key, value) in &report {
        match key.as_str() {
            "failed_chunk" => tally.failed += 1,
            "recomputed" => recomputed = value.parse().unwrap_or(0),
            "problems" if value != "0" => tally
                .problems
                .push(format!("{value} verification findings (see above)")),
            _ => {}
        }
    }
    if recomputed == 0 {
        tally
            .problems
            .push("the verify phase recomputed nothing".to_string());
    }
    Ok(recomputed)
}

/// What the traced passes of a run accumulate.
struct TracedPasses {
    tracer: Tracer,
    passes: Vec<PassStats>,
    /// Layer name → busy seconds, one sample per traced pass.
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Σ self times ÷ pass wall-clock, one per traced pass.
    sum_ratios: Vec<f64>,
    /// Duration of every scan span of every traced pass, ms.
    scan_ms: Vec<f64>,
}

impl TracedPasses {
    /// Folds in the pass the tracer has just recorded.
    fn record(&mut self, pass: PassStats) {
        let by_layer = self.tracer.self_time_by_name();
        let total_ns: u64 = by_layer.values().map(|v| v.0).sum();
        self.sum_ratios.push(total_ns as f64 * 1e-9 / pass.wall_s);
        for (layer, (ns, _)) in by_layer {
            self.layers.entry(layer).or_default().push(ns as f64 * 1e-9);
        }
        self.scan_ms.extend(
            self.tracer
                .durations_of(name::SCAN)
                .iter()
                .map(|&ns| ns as f64 * 1e-6),
        );
        self.passes.push(pass);
    }
}

/// The per-layer report of a traced run; returns its findings.
fn report_layers(
    w: &Workload,
    seed: u64,
    dirs: &Dirs,
    warm: &PassStats,
    untraced: &[PassStats],
    t: &TracedPasses,
) -> io::Result<Vec<String>> {
    let mut problems = Vec::new();
    let layer = |k: &str| t.layers.get(k).map_or(0.0, |v| median(v));
    let per = |total_s: f64, n: u64| {
        if n == 0 {
            0.0
        } else {
            total_s * 1e9 / n as f64
        }
    };
    let scan_cfg = w.scan_config();

    let scan = layer(name::SCAN);
    let scan_placements = if scan_cfg.is_some() {
        warm.placements
    } else {
        0
    };
    report("haralick.raster.scan_busy_s", scan);
    report("haralick.raster.placements", scan_placements);
    report(
        "haralick.raster.ns_per_placement",
        per(scan, scan_placements),
    );
    let (p50, (pct, ptail)) = if t.scan_ms.is_empty() {
        (0.0, (100.0, 0.0))
    } else {
        (median(&t.scan_ms), tail(&t.scan_ms))
    };
    report("haralick.raster.chunk_ms_p50", p50);
    report("haralick.raster.chunk_ms_ptail", ptail);
    report("haralick.raster.chunk_ms_ptail.percentile", pct);
    report("haralick.raster.chunk_ms.n", t.scan_ms.len());

    let quantize = layer(name::QUANTIZE);
    report("haralick.quantize.busy_s", quantize);
    report("haralick.quantize.voxels", warm.quantized_voxels);
    report(
        "haralick.quantize.ns_per_voxel",
        per(quantize, warm.quantized_voxels),
    );

    report(
        "mri.cache.get_busy_s",
        layer(name::CACHE_GET) + layer(name::CACHE_ADVANCE),
    );
    report("mri.cache.crop_busy_s", layer(name::CROP));
    report("mri.cache.slice_requests", warm.slice_requests);
    report("mri.cache.disk_reads", warm.disk_reads);
    report("mri.cache.bytes_read", warm.bytes_read);
    report(
        "mri.cache.hit_ratio",
        warm.cache_hits as f64 / warm.slice_requests as f64,
    );
    report(
        "mri.cache.read_amplification",
        warm.bytes_read as f64 / w.dataset_bytes() as f64,
    );
    report("mri.cache.budget_rejects", warm.budget_rejects);
    report(
        "mri.cache.retained_high_water_bytes",
        warm.retained_high_water,
    );

    report("mri.raw.stitch_busy_s", layer(name::STITCH));
    report("mri.raw.stitched_bytes", warm.stitched_voxels * 2);
    report("mri.chunks.plan_busy_s", layer(name::PLAN));
    report("mri.chunks.chunks", warm.chunk_digests.len());
    report("mri.chunks.input_voxels", warm.stitched_voxels);
    report(
        "mri.chunks.halo_ratio",
        warm.stitched_voxels as f64 / w.dims.len() as f64,
    );

    let write = layer(name::WRITE);
    let output_bytes: u64 = scan_cfg.as_ref().map_or(0, |cfg| {
        let headers: usize = cfg
            .selection
            .iter()
            .map(|f| 4 + 4 + f.short_name().len() + 32)
            .sum();
        warm.records * 24 + headers as u64
    });
    report("mri.output.write_busy_s", write);
    report("mri.output.finish_busy_s", layer(name::FINISH));
    report("mri.output.records", warm.records);
    report("mri.output.bytes", output_bytes);
    report("mri.output.ns_per_record", per(write, warm.records));

    let sum_ratio = median(&t.sum_ratios);
    report(
        "bench.harness_self_s",
        layer(name::PASS) + layer(name::CHUNK),
    );
    report("bench.layer_sum_ratio", sum_ratio);
    report(
        "bench.trace_overhead_ratio",
        quiet_wall(&t.passes) / quiet_wall(untraced) - 1.0,
    );
    report("traced_wall_s", median(&walls(&t.passes)));
    if !(0.98..=1.02).contains(&sum_ratio) {
        problems.push(format!(
            "layer self times sum to {sum_ratio:.4} of the traced wall-clock, outside [0.98, 1.02]"
        ));
    }

    let p = probes::run(w, dirs.data, seed)?.unwrap_or_default();
    if p.nnz_mean != p.entries_mean {
        problems.push(format!(
            "CoMatrix::nnz_upper mean {} != SparseCoMatrix::nnz mean {}",
            p.nnz_mean, p.entries_mean
        ));
    }
    let model_ns = p.build_ns
        + if scan_cfg.is_some_and(|c| c.representation.is_sparse()) {
            p.convert_ns + p.features_sparse_ns
        } else {
            p.features_full_ns
        };
    report("haralick.coocc.build_ns_per_window", p.build_ns);
    report("haralick.coocc.window_nnz_mean", p.nnz_mean);
    report("haralick.coocc.window_fill_ratio", p.fill_ratio);
    report("haralick.sparse.convert_ns_per_window", p.convert_ns);
    report("haralick.sparse.entries_mean", p.entries_mean);
    report("haralick.features.ns_per_window_full", p.features_full_ns);
    report(
        "haralick.features.ns_per_window_sparse",
        p.features_sparse_ns,
    );
    report(
        "bench.probe_model_ratio",
        if scan > 0.0 {
            model_ns * 1e-9 * scan_placements as f64 / scan
        } else {
            0.0
        },
    );
    report("probe_windows", p.windows);

    fs::create_dir_all(dirs.results)?;
    let provenance = provenance_json(
        seed,
        dirs.data,
        &[
            ("untraced_passes", untraced.len() as u64),
            ("traced_passes", t.passes.len() as u64),
        ],
    );
    write_trace_json(
        &dirs.results.join(format!("{}.trace.json", w.name)),
        w,
        &t.tracer,
        pct,
        &provenance,
    )?;
    Ok(problems)
}

/// `run`: oracle, verified warm-up pass, then passes for `seconds` (every
/// other one traced when `traced`), then the report.
pub fn run_phase(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    dirs: &Dirs,
) -> io::Result<()> {
    let chunks = w.grid().len() as u64;
    let mut tally = Tally::default();

    // --- correctness gate, before any timing --------------------------------
    if let Err(e) = verify::oracle() {
        eprintln!("{e}");
        report("correct", 0);
        report("attempted", chunks);
        report("failed", chunks);
        return Ok(());
    }
    let warm = run_pass(w, dirs.data, dirs.out, &mut Tracer::off())?;
    tally.attempted += chunks;
    tally.failed += warm.failed_chunks.len() as u64;
    tally
        .problems
        .extend(verify::check_counts(w, &warm, dirs.out));
    let recomputed = verify_warm_up(w, seed, dirs, &warm, &mut tally)?;
    clear_outputs(dirs.out)?;

    // --- measurement ---------------------------------------------------------
    // Every pass must redo the warm-up pass's work exactly.
    let mut check = |label: String, s: &PassStats| {
        tally.attempted += chunks;
        tally.failed += s.failed_chunks.len() as u64;
        if !s.same_work_as(&warm) {
            let differing = s
                .chunk_digests
                .iter()
                .zip(&warm.chunk_digests)
                .filter(|(a, b)| a != b)
                .count();
            tally.failed += differing as u64;
            tally.problems.push(format!(
                "{label} differs from the verified warm-up pass ({differing} chunk digests; checksum {:016x} vs {:016x})",
                s.checksum(),
                warm.checksum()
            ));
        }
    };
    let mut untraced: Vec<PassStats> = Vec::new();
    let mut traced_passes = traced.then(|| TracedPasses {
        tracer: Tracer::on(span_capacity(w)),
        passes: Vec::new(),
        layers: BTreeMap::new(),
        sum_ratios: Vec::new(),
        scan_ms: Vec::new(),
    });
    let limit = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    loop {
        let s = run_pass(w, dirs.data, dirs.out, &mut Tracer::off())?;
        check(format!("pass {}", untraced.len()), &s);
        untraced.push(s);
        clear_outputs(dirs.out)?;
        if let Some(t) = &mut traced_passes {
            t.tracer.clear();
            let s = run_pass(w, dirs.data, dirs.out, &mut t.tracer)?;
            check(format!("traced pass {}", t.passes.len()), &s);
            t.record(s);
            clear_outputs(dirs.out)?;
        }
        if started.elapsed() >= limit {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;

    // --- end-to-end ----------------------------------------------------------
    let wall = quiet_wall(&untraced);
    let pass_walls = walls(&untraced);
    report("wall_s", wall);
    report("pass_s.n", pass_walls.len());
    report("pass_s.median", median(&pass_walls));
    report(
        "pass_s.min",
        pass_walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report("pass_s.max", pass_walls.iter().copied().fold(0.0, f64::max));
    report("placements_per_s", warm.placements as f64 / wall);
    report(
        "stitched_mib_per_s",
        (warm.stitched_voxels * 2) as f64 / f64::from(1 << 20) / wall,
    );
    report("peak_rss_mib", peak_rss);
    report("checksum", format_args!("{:016x}", warm.checksum()));
    report("recomputed", recomputed);

    if let Some(t) = &traced_passes {
        tally
            .problems
            .extend(report_layers(w, seed, dirs, &warm, &untraced, t)?);
    }

    for p in &tally.problems {
        eprintln!("{}: {p}", w.name);
    }
    report(
        "correct",
        u8::from(tally.problems.is_empty() && tally.failed == 0),
    );
    report("attempted", tally.attempted);
    report("failed", tally.failed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_wall_takes_each_part_at_its_fastest() {
        let pass = |wall_s: f64, chunk_wall_s: Vec<f64>| PassStats {
            wall_s,
            chunk_wall_s,
            ..PassStats::default()
        };
        // Pass 0 was disturbed during chunk 1, pass 1 during chunk 0 and in
        // the remainder (wall - chunks: 0.5 vs 1.0).
        let passes = [pass(10.5, vec![2.0, 8.0]), pass(11.0, vec![6.0, 4.0])];
        assert_eq!(quiet_wall(&passes), 2.0 + 4.0 + 0.5);
    }
}
