//! `h4d` — command-line front end for the 4D Haralick analysis system.
//!
//! ```text
//! h4d generate <dataset_dir> [--dims X,Y,Z,T] [--nodes N] [--seed S]
//!              [--format raw|dicom]
//! h4d info     <dataset_dir>
//! h4d analyze  <dataset_dir> <out_dir> [--variant hmp|split|visual]
//!              [--repr full|naive|sparse|sparse-accum]
//!              [--texture N (default: one per core)]
//!              [--engine reference|fused]
//!              [--report run.json] [--canonical true]
//!              [--io-cache-bytes B] [--result-store DIR]
//! h4d graph    <out.json> [--variant hmp|split|visual] [--texture N (default 8)]
//! h4d simulate [--nodes N] [--repr ...] [--variant hmp|split]
//! h4d run-graph <graph.json> <dataset_dir> <out_dir> [--repr ...]
//!              [--engine ...] [--report run.json] [--canonical true]
//!              [--io-cache-bytes B] [--result-store DIR]
//! h4d node     <graph.json> <dataset_dir> <out_dir> --node K
//!              --peers addr0,addr1,... [--repr ...] [--engine ...]
//!              [--report run.json] [--canonical true]
//!              [--io-cache-bytes B] [--result-store DIR]
//!              [--checksum true]
//! h4d launch   <graph.json> <dataset_dir> <out_dir> --nodes N [--repr ...]
//!              [--engine ...] [--report-base run] [--canonical true]
//!              [--io-cache-bytes B] [--result-store DIR]
//!              [--checksum true]
//! ```
//!
//! A flag the subcommand does not read is a usage error (exit 2), reported
//! before anything is opened.
//!
//! The `graph` subcommand serializes the filter network to JSON — the
//! equivalent of DataCutter's XML network description — which documents the
//! exact topology each run uses.
//!
//! `node` runs one process of a multi-process deployment: it listens on
//! its own entry of `--peers` (index `--node`) and dials the others, so
//! every process must receive the identical graph and peer list. `launch`
//! is the single-machine orchestrator: it picks N free loopback ports and
//! spawns one `h4d node` child per placement node. A node that
//! loses its reserved port to another process exits with code 7, and
//! `launch` responds by killing the remaining children and retrying the
//! whole launch with fresh ports (bounded attempts), so concurrent
//! launches on one machine no longer race.
//!
//! `--result-store DIR` attaches the content-addressed result store
//! (`pipeline::store`): chunks whose input data and configuration match a
//! previous committed run are served from the store instead of recomputed,
//! and the run's hit/miss/publish counters land in the `--report` JSON
//! under `"store"`.

use datacutter::NodeConfig;
use haralick::volume::Dims4;
use mri::store::{write_distributed, DistributedDataset};
use mri::synth::{generate, SynthConfig};
use pipeline::config::{parse_engine, parse_repr, AppConfig};
use pipeline::experiments::{run_hmp_piii, run_split_piii};
use pipeline::graphs::standard_graph;
use pipeline::run::{run_node_threaded, run_threaded, IoRuntime};
use pipeline::store::{ResultStore, StoreSession};
use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         h4d generate <dataset_dir> [--dims X,Y,Z,T] [--nodes N] [--seed S] [--format raw|dicom]\n  \
         h4d info <dataset_dir>\n  \
         h4d analyze <dataset_dir> <out_dir> [--variant hmp|split|visual] \
         [--repr full|naive|sparse|sparse-accum] [--texture N (default: one per core)] \
         [--engine reference|fused] \
         [--report run.json] [--canonical true] [--io-cache-bytes B] \
         [--result-store DIR]\n  \
         h4d graph <out.json> [--variant hmp|split|visual] [--texture N (default 8)]\n  \
         h4d simulate [--nodes N] [--repr ...] [--variant hmp|split]\n  \
         h4d run-graph <graph.json> <dataset_dir> <out_dir> [--repr full|naive|sparse|sparse-accum] \
         [--engine ...] [--report run.json] [--canonical true] \
         [--io-cache-bytes B] \
         [--result-store DIR]\n  \
         h4d node <graph.json> <dataset_dir> <out_dir> --node K --peers addr0,addr1,... \
         [--repr ...] [--engine ...] [--report run.json] [--canonical true] \
         [--io-cache-bytes B] [--result-store DIR] \
         [--checksum true]\n  \
         h4d launch <graph.json> <dataset_dir> <out_dir> --nodes N [--repr ...] [--engine ...] \
         [--report-base run] [--canonical true] [--io-cache-bytes B] \
         [--result-store DIR] [--checksum true]"
    );
    exit(2);
}

/// Exit code `h4d node` uses for a transport bind failure, so `launch` can
/// distinguish "lost the port race" (retryable with fresh ports) from a
/// genuine pipeline failure.
const EXIT_BIND_FAILED: i32 = 7;

/// How many times `launch` re-reserves ports and respawns the whole node
/// set after a child loses its port to another process.
const LAUNCH_ATTEMPTS: usize = 3;

/// The flags `analyze` and `run-graph` read to configure and host a run:
/// [`run_config`]'s, [`run_hosting`]'s and `--report`.
const RUN_KEYS: &[&str] = &[
    "repr",
    "engine",
    "canonical",
    "io-cache-bytes",
    "result-store",
    "report",
];

/// The flags `launch` forwards to every `h4d node` child, all of which
/// `node` reads (besides its own `--node`, `--peers` and `--report`).
const NODE_KEYS: &[&str] = &[
    "repr",
    "engine",
    "canonical",
    "io-cache-bytes",
    "result-store",
    "checksum",
];

/// Minimal flag parser: `--key value` pairs after the positional arguments.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `args` for subcommand `cmd`, which reads exactly the flags
    /// `keys` names: any other flag is a usage error, so a misspelt one
    /// never silently runs with the default.
    fn parse(cmd: &str, args: &[String], keys: &[&str]) -> Self {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !keys.contains(&key) {
                    eprintln!("unknown flag --{key} for {cmd}");
                    usage();
                }
                let Some(v) = it.next() else {
                    eprintln!("flag --{key} needs a value");
                    usage();
                };
                out.push((key.to_string(), v.clone()));
            } else {
                eprintln!("unexpected argument {a:?}");
                usage();
            }
        }
        Self(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn value<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: {v:?}");
                usage()
            })
        })
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.value(key).unwrap_or(default)
    }
}

/// `--dims X,Y,Z,T`: exactly four extents, each a `usize`, whose 2-byte
/// voxels' size is one too; otherwise usage, before any volume is allocated.
fn parse_dims(s: &str) -> Dims4 {
    let parts: Result<Vec<usize>, _> = s.split(',').map(str::parse).collect();
    let Ok(&[x, y, z, t]) = parts.as_deref() else {
        eprintln!("--dims wants X,Y,Z,T (e.g. 64,64,8,8), not {s:?}");
        usage()
    };
    let bytes = [y, z, t, 2].into_iter().try_fold(x, usize::checked_mul);
    if bytes.is_none() {
        eprintln!("--dims {s}: the volume's size overflows");
        exit(2);
    }
    Dims4::new(x, y, z, t)
}

/// A flag value through one of `pipeline::config`'s parsers, or usage.
fn parsed<T>(parse: fn(&str) -> Result<T, String>, s: &str) -> T {
    parse(s).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

/// What a run over `desc` computes, under the flags `analyze`, `run-graph`
/// and `node` share: `--repr` and `--engine`.
fn run_config(desc: &mri::store::DatasetDescriptor, flags: &Flags) -> AppConfig {
    let repr = parsed(parse_repr, flags.get("repr").unwrap_or("full"));
    let engine = flags.get("engine").map(|e| parsed(parse_engine, e));
    AppConfig::for_run(desc, repr, engine).unwrap_or_else(|e| {
        eprintln!("{e}; generate at least a window-sized dataset");
        exit(1);
    })
}

/// How that run is hosted, under the flags the same three subcommands
/// share: `--io-cache-bytes`, `--canonical` and `--result-store` (a store
/// session of this run's own; the driver commits or abandons it and reports
/// its counters).
fn run_hosting(cfg: &AppConfig, flags: &Flags) -> IoRuntime {
    let defaults = IoRuntime::new();
    IoRuntime {
        cache_bytes: flags.parse_or("io-cache-bytes", defaults.cache_bytes),
        canonical_output: flags.parse_or("canonical", false),
        store: flags
            .get("result-store")
            .and_then(|dir| ResultStore::open_fs_or_warn(Path::new(dir)))
            .map(|store| Arc::new(StoreSession::new(&store, cfg))),
        ..defaults
    }
}

/// Runs `spec` in this process for `analyze` / `run-graph`, hosted as the
/// flags say, and writes the `--report`; a pipeline failure exits 1.
fn run_local(
    spec: &datacutter::GraphSpec,
    cfg: &Arc<AppConfig>,
    dir: &str,
    out: &str,
    flags: &Flags,
) -> datacutter::RunReport {
    std::fs::create_dir_all(out).ok();
    let rt = run_hosting(cfg, flags);
    let report = run_threaded(spec, cfg, Path::new(dir), Path::new(out), &rt).unwrap_or_else(|e| {
        eprintln!("pipeline failed: {e}");
        exit(1);
    });
    if let Some(rp) = flags.get("report") {
        write_report(rp, &report);
    }
    report
}

/// Writes the Figure-9-style busy-vs-wait run report as JSON to `path`.
fn write_report(path: &str, report: &datacutter::RunReport) {
    if let Err(msg) = report.check() {
        eprintln!("warning: run report {path} failed its invariant check: {msg}");
    }
    std::fs::write(path, report.to_json_pretty()).unwrap_or_else(|e| {
        eprintln!("write {path}: {e}");
        exit(1);
    });
    println!("run report written to {path}");
}

/// Loads and validates a JSON graph description.
fn load_graph(json: &str) -> datacutter::GraphSpec {
    let text = std::fs::read_to_string(json).unwrap_or_else(|e| {
        eprintln!("read {json}: {e}");
        exit(1);
    });
    let spec: datacutter::GraphSpec = json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("parse {json}: {e}");
        exit(1);
    });
    if let Err(e) = spec.validate() {
        eprintln!("invalid graph: {e}");
        exit(1);
    }
    spec
}

/// Reads the dataset descriptor the geometry comes from, through the one
/// layout reader; either store format works (use DFR in the graph for
/// DICOM datasets).
fn load_descriptor(dir: &str) -> mri::store::DatasetDescriptor {
    let (desc, _) = mri::store::read_layout(Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("open dataset {dir}: {e}");
        exit(1);
    });
    desc
}

fn build_graph(variant: &str, storage_nodes: usize, texture: usize) -> datacutter::GraphSpec {
    standard_graph(variant, storage_nodes, texture).unwrap_or_else(|| {
        eprintln!("unknown variant {variant:?}");
        usage();
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "generate" => {
            let Some(dir) = args.get(1) else { usage() };
            let flags = Flags::parse(cmd, &args[2..], &["dims", "nodes", "seed", "format"]);
            let dims = flags
                .get("dims")
                .map(parse_dims)
                .unwrap_or(Dims4::new(64, 64, 8, 8));
            let nodes: usize = flags.parse_or("nodes", 4);
            if nodes == 0 {
                eprintln!("--nodes must be at least 1");
                exit(2);
            }
            let seed: u64 = flags.parse_or("seed", 42);
            let raw = generate(&SynthConfig {
                dims,
                ..SynthConfig::test_scale(seed)
            });
            let desc = match flags.get("format").unwrap_or("raw") {
                "raw" => {
                    write_distributed(&raw, &PathBuf::from(dir), "h4d", nodes).unwrap_or_else(|e| {
                        eprintln!("generate failed: {e}");
                        exit(1);
                    })
                }
                "dicom" => {
                    mri::dicom::write_distributed_dicom(&raw, &PathBuf::from(dir), "h4d", nodes)
                        .unwrap_or_else(|e| {
                            eprintln!("generate failed: {e}");
                            exit(1);
                        })
                }
                other => {
                    eprintln!("unknown format {other:?}");
                    usage();
                }
            };
            println!(
                "wrote {} ({} slices over {} storage nodes, {} MB) to {dir}",
                desc.name,
                desc.dims.z * desc.dims.t,
                desc.num_nodes,
                desc.byte_len() / (1 << 20)
            );
        }
        "info" => {
            let Some(dir) = args.get(1) else { usage() };
            Flags::parse(cmd, &args[2..], &[]);
            let ds = DistributedDataset::open(&PathBuf::from(dir)).unwrap_or_else(|e| {
                eprintln!("open failed: {e}");
                exit(1);
            });
            let d = ds.descriptor();
            println!("dataset  : {}", d.name);
            println!("dims     : {}", d.dims);
            println!("bytes    : {}", d.byte_len());
            println!("nodes    : {}", d.num_nodes);
            for n in 0..d.num_nodes {
                println!("  node_{n:02}: {} slices", ds.slices_on_node(n).len());
            }
        }
        "analyze" => {
            let (Some(dir), Some(out)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let keys = [RUN_KEYS, &["variant", "texture"]].concat();
            let flags = Flags::parse(cmd, &args[3..], &keys);
            let variant = flags.get("variant").unwrap_or("hmp").to_string();
            // One texture copy per core: a copy's kernel runs on one thread.
            let texture = flags.value("texture").unwrap_or_else(|| {
                std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
            });
            let ds = DistributedDataset::open(&PathBuf::from(dir)).unwrap_or_else(|e| {
                eprintln!("open failed: {e}");
                exit(1);
            });
            let desc = ds.descriptor();
            let cfg = Arc::new(run_config(desc, &flags));
            let spec = build_graph(&variant, desc.num_nodes, texture.get());
            let t = std::time::Instant::now();
            let report = run_local(&spec, &cfg, dir, out, &flags);
            println!(
                "analyzed {} in {:.2?} ({variant}, {:?})",
                desc.dims,
                t.elapsed(),
                cfg.representation
            );
            for f in ["RFR", "IIC", "HMP", "HCC", "HPC", "USO", "HIC", "JIW"] {
                let copies = report.per_copy.copies_of(f);
                if !copies.is_empty() {
                    println!(
                        "  {f:<4} x{:<2} busy {:>9.3}s buffers {:>6}",
                        copies.len(),
                        report.per_copy.max_busy_of(f),
                        report.per_copy.buffers_into(f)
                    );
                }
            }
            println!("output under {out}");
        }
        "graph" => {
            let Some(out) = args.get(1) else { usage() };
            let flags = Flags::parse(cmd, &args[2..], &["variant", "texture"]);
            let variant = flags.get("variant").unwrap_or("split").to_string();
            let texture = flags.parse_or("texture", NonZeroUsize::new(8).expect("8 is not zero"));
            let spec = build_graph(&variant, 4, texture.get());
            spec.validate().expect("generated graph must be valid");
            std::fs::write(out, json::to_string(&spec)).unwrap_or_else(|e| {
                eprintln!("write failed: {e}");
                exit(1);
            });
            println!(
                "wrote {variant} graph ({} filters, {} streams) to {out}",
                spec.filters.len(),
                spec.streams.len()
            );
        }
        "run-graph" => {
            // Execute a user-authored JSON filter network — the JSON
            // equivalent of DataCutter's XML network description.
            let (Some(json), Some(dir), Some(out)) = (args.get(1), args.get(2), args.get(3)) else {
                usage()
            };
            let flags = Flags::parse(cmd, &args[4..], RUN_KEYS);
            let spec = load_graph(json);
            let cfg = Arc::new(run_config(&load_descriptor(dir), &flags));
            let t = std::time::Instant::now();
            run_local(&spec, &cfg, dir, out, &flags);
            println!(
                "ran {} filters / {} streams in {:.2?}; output under {out}",
                spec.filters.len(),
                spec.streams.len(),
                t.elapsed()
            );
        }
        "node" => {
            // One process of a multi-process run: the graph must carry a
            // full placement, and every peer must get the identical graph
            // JSON and --peers list.
            let (Some(json), Some(dir), Some(out)) = (args.get(1), args.get(2), args.get(3)) else {
                usage()
            };
            let keys = [NODE_KEYS, &["node", "peers", "report"]].concat();
            let flags = Flags::parse(cmd, &args[4..], &keys);
            let Some(node) = flags.value::<usize>("node") else {
                eprintln!("node needs --node K");
                usage();
            };
            let Some(peers) = flags.get("peers") else {
                eprintln!("node needs --peers addr0,addr1,...");
                usage();
            };
            let addrs: Vec<SocketAddr> = peers
                .split(',')
                .map(|a| {
                    a.parse().unwrap_or_else(|_| {
                        eprintln!("bad peer address {a:?}");
                        usage()
                    })
                })
                .collect();
            let spec = load_graph(json);
            let cfg = Arc::new(run_config(&load_descriptor(dir), &flags));
            std::fs::create_dir_all(out).ok();
            // Each connection stamps payload checksums only when both
            // endpoints request them.
            let mut node_cfg = NodeConfig::new(node, addrs);
            node_cfg.checksum = flags.parse_or("checksum", false);
            let t = std::time::Instant::now();
            let report = run_node_threaded(
                &spec,
                &cfg,
                &PathBuf::from(dir),
                &PathBuf::from(out),
                &node_cfg,
                &run_hosting(&cfg, &flags),
            )
            .unwrap_or_else(|e| {
                eprintln!("node {node} failed: {e}");
                // A lost port race is retryable from the orchestrator (it
                // re-reserves fresh ports); everything else is not.
                if e.error.message().contains("could not listen on") {
                    exit(EXIT_BIND_FAILED);
                }
                exit(1);
            });
            if let Some(rp) = flags.get("report") {
                write_report(rp, &report);
            }
            println!(
                "node {node}/{} ran its share of {} filters in {:.2?}; output under {out}",
                node_cfg.addrs.len(),
                spec.filters.len(),
                t.elapsed()
            );
        }
        "launch" => {
            // Single-machine orchestrator: N cooperating `h4d node`
            // processes over loopback TCP.
            let (Some(json), Some(dir), Some(out)) = (args.get(1), args.get(2), args.get(3)) else {
                usage()
            };
            let keys = [NODE_KEYS, &["nodes", "report-base"]].concat();
            let flags = Flags::parse(cmd, &args[4..], &keys);
            let nodes: usize = flags.parse_or("nodes", 2);
            if nodes == 0 {
                eprintln!("--nodes must be at least 1");
                exit(2);
            }
            let exe = std::env::current_exe().unwrap_or_else(|e| {
                eprintln!("cannot locate own executable: {e}");
                exit(1);
            });
            let t = std::time::Instant::now();
            // The port reservation is inherently racy against other
            // processes on the machine: `free_loopback_addrs` releases the
            // probe sockets before the children rebind them. A child that
            // loses its port exits with EXIT_BIND_FAILED; kill the rest and
            // retry the whole set with fresh ports.
            for attempt in 1..=LAUNCH_ATTEMPTS {
                let addrs = datacutter::free_loopback_addrs(nodes).unwrap_or_else(|e| {
                    eprintln!("could not reserve loopback ports: {e}");
                    exit(1);
                });
                let peers = addrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let mut children = Vec::new();
                for node in 0..nodes {
                    let mut cmd = std::process::Command::new(&exe);
                    cmd.arg("node")
                        .arg(json)
                        .arg(dir)
                        .arg(out)
                        .arg("--node")
                        .arg(node.to_string())
                        .arg("--peers")
                        .arg(&peers);
                    for &key in NODE_KEYS {
                        if let Some(v) = flags.get(key) {
                            cmd.arg(format!("--{key}")).arg(v);
                        }
                    }
                    if let Some(base) = flags.get("report-base") {
                        cmd.arg("--report").arg(format!("{base}.node{node}.json"));
                    }
                    let child = cmd.spawn().unwrap_or_else(|e| {
                        eprintln!("spawn node {node}: {e}");
                        exit(1);
                    });
                    children.push((node, child));
                }
                // Poll rather than wait in submission order: a node that
                // lost its port exits immediately while its peers sit in
                // their connect loops, so on a bind failure the remaining
                // children are killed instead of awaited.
                let mut failed = false;
                let mut bind_lost = false;
                let mut pending = children;
                while !pending.is_empty() && !bind_lost {
                    let mut still = Vec::new();
                    for (node, mut child) in pending {
                        match child.try_wait() {
                            Ok(None) => still.push((node, child)),
                            Ok(Some(status)) if status.success() => {}
                            Ok(Some(status)) => {
                                if status.code() == Some(EXIT_BIND_FAILED) {
                                    eprintln!(
                                        "node {node} lost its port; retrying with fresh ports"
                                    );
                                    bind_lost = true;
                                } else {
                                    eprintln!("node {node} exited with {status}");
                                }
                                failed = true;
                            }
                            Err(e) => {
                                eprintln!("wait for node {node}: {e}");
                                failed = true;
                            }
                        }
                    }
                    if bind_lost {
                        for (_, child) in &mut still {
                            let _ = child.kill();
                        }
                        for (_, mut child) in still {
                            let _ = child.wait();
                        }
                        break;
                    }
                    pending = still;
                    if !pending.is_empty() {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                }
                if bind_lost && attempt < LAUNCH_ATTEMPTS {
                    continue;
                }
                if failed {
                    eprintln!("multi-process run failed");
                    exit(1);
                }
                println!(
                    "ran {nodes} cooperating processes in {:.2?}; output under {out}",
                    t.elapsed()
                );
                break;
            }
        }
        "simulate" => {
            let flags = Flags::parse(cmd, &args[1..], &["nodes", "repr", "variant"]);
            let nodes: usize = flags.parse_or("nodes", 16);
            let repr = parsed(parse_repr, flags.get("repr").unwrap_or("sparse"));
            let variant = flags.get("variant").unwrap_or("split").to_string();
            let model = cluster::calibrated_defaults::default_model();
            let rep = match variant.as_str() {
                "hmp" => run_hmp_piii(&model, repr, nodes),
                "split" => run_split_piii(&model, repr, nodes, true),
                other => {
                    eprintln!("unknown variant {other:?}");
                    usage();
                }
            };
            println!("simulated paper-scale {variant} ({repr:?}) on {nodes} PIII texture nodes:");
            println!("  execution time: {:.1} virtual seconds", rep.makespan);
            for f in ["RFR", "IIC", "HCC", "HPC", "HMP", "USO"] {
                if !rep.per_copy.copies_of(f).is_empty() {
                    let busy = rep.per_copy.max_busy_of(f);
                    println!("  {f:<4} max-copy busy {busy:>8.1}s");
                }
            }
        }
        _ => usage(),
    }
}
