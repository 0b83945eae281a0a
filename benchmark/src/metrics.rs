//! The metric tables — the single source for names, units, directions and
//! regression bounds — and the JSON the benchmark prints from them.
//! `BENCHMARK.json` at the repository root is `benchmark_json()` verbatim
//! (a unit test holds the two together).

use crate::workloads;
use std::collections::BTreeMap;
use std::fmt::Write;

/// How long one run measures, in seconds (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 16;

/// An end-to-end metric: what a user of the pipeline sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// End-to-end metrics, reported by untraced runs for every workload.
///
/// The three wall-clock metrics carry the widest bound the contract allows.
/// On the 2-vCPU shared VM this was written on, single-thread speed swings
/// by up to 1.6x for seconds at a time, and the quartile spread of ten
/// 16-second runs was 7-17 % of the median (README, "Steadiness"); a bound
/// near that spread would reject unchanged code. Tighten them on a quiet
/// host.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "placements_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "stitched_mib_per_s",
        unit: "MiB/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit, better)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str, &str); 41] = [
    ("haralick.raster.scan_busy_s", "s", "lower"),
    ("haralick.raster.placements", "count", "higher"),
    ("haralick.raster.ns_per_placement", "ns", "lower"),
    ("haralick.raster.chunk_ms_p50", "ms", "lower"),
    ("haralick.raster.chunk_ms_ptail", "ms", "lower"),
    ("haralick.coocc.build_ns_per_window", "ns", "lower"),
    ("haralick.coocc.window_nnz_mean", "count", "lower"),
    ("haralick.coocc.window_fill_ratio", "ratio", "lower"),
    ("haralick.sparse.convert_ns_per_window", "ns", "lower"),
    ("haralick.sparse.entries_mean", "count", "lower"),
    ("haralick.features.ns_per_window_full", "ns", "lower"),
    ("haralick.features.ns_per_window_sparse", "ns", "lower"),
    ("haralick.quantize.busy_s", "s", "lower"),
    ("haralick.quantize.voxels", "count", "higher"),
    ("haralick.quantize.ns_per_voxel", "ns", "lower"),
    ("mri.cache.get_busy_s", "s", "lower"),
    ("mri.cache.crop_busy_s", "s", "lower"),
    ("mri.cache.slice_requests", "count", "lower"),
    ("mri.cache.disk_reads", "count", "lower"),
    ("mri.cache.bytes_read", "bytes", "lower"),
    ("mri.cache.hit_ratio", "ratio", "higher"),
    ("mri.cache.read_amplification", "ratio", "lower"),
    ("mri.cache.budget_rejects", "count", "lower"),
    ("mri.cache.retained_high_water_bytes", "bytes", "lower"),
    ("mri.raw.stitch_busy_s", "s", "lower"),
    ("mri.raw.stitched_bytes", "bytes", "lower"),
    ("mri.chunks.plan_busy_s", "s", "lower"),
    ("mri.chunks.chunks", "count", "lower"),
    ("mri.chunks.input_voxels", "count", "lower"),
    ("mri.chunks.halo_ratio", "ratio", "lower"),
    ("mri.output.write_busy_s", "s", "lower"),
    ("mri.output.finish_busy_s", "s", "lower"),
    ("mri.output.records", "count", "higher"),
    ("mri.output.bytes", "bytes", "lower"),
    ("mri.output.ns_per_record", "ns", "lower"),
    ("mri.synth.generate_s", "s", "lower"),
    ("mri.synth.voxels", "count", "higher"),
    ("bench.probe_model_ratio", "ratio", "lower"),
    ("bench.harness_self_s", "s", "lower"),
    ("bench.layer_sum_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Escapes `s` as the inside of a JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out
}

/// A finite number as JSON, with every digit `f64` round-trips through.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("write to String");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in workloads::ALL.iter().enumerate() {
        let sep = if i + 1 < workloads::ALL.len() {
            ","
        } else {
            ""
        };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name,
            json_escape(w.why)
        )
        .expect("write to String");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        )
        .expect("write to String");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        )
        .expect("write to String");
    }
    s.push_str("  ]\n}\n");
    s
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every end-to-end metric (untraced run) or
/// every per-layer metric (traced run).
pub fn result_line(correct: bool, attempted: u64, failed: u64, traced: bool, v: &Values) -> String {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = v
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(workloads::ALL.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| name_ok(n)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        assert!(workloads::ALL
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(benchmark_json().len() < 64 << 10);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v: Values = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 1.25))
            .collect();
        let line = result_line(true, 10, 0, false, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.ends_with("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
