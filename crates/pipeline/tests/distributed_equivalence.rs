//! Differential conformance: distributed ≡ in-process, over real OS
//! processes.
//!
//! Drives the `h4d` binary (`env!("CARGO_BIN_EXE_h4d")`): one in-process
//! `run-graph` reference, then the same placed graph as 2 and 3
//! cooperating `h4d node` processes over loopback TCP via `h4d launch`.
//! Canonical output mode pins the `.h4dp` write order, so the files must
//! be **byte-identical** across all runs — any surviving difference is a
//! transport defect (lost, altered, duplicated or misrouted buffers). The
//! multi-process runs cover both wire modes: plain frames, and frames with
//! payload checksums plus compression negotiated on (`--checksum true
//! --compress true`), which must not change a single output byte. Per-node
//! run reports must parse, pass their own invariant check, and satisfy
//! `busy + blocked_send + blocked_recv <= wall` for every copy.
//!
//! Every child process runs under a watchdog; a wedged distributed run
//! fails the test instead of hanging CI.

use datacutter::{ConnectionReport, GraphSpec, RunReport, SchedulePolicy};
use pipeline::graphs::{Copies, HmpGraph};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(300);

fn h4d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_h4d"))
}

/// Waits for `child` with a deadline, killing it on expiry.
fn wait_with_watchdog(mut child: Child, what: &str) {
    let deadline = Instant::now() + WATCHDOG;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                assert!(status.success(), "{what} exited with {status}");
                return;
            }
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{what} exceeded the {WATCHDOG:?} watchdog");
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("waiting for {what}: {e}"),
        }
    }
}

fn run(cmd: &mut Command, what: &str) {
    let child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {what}: {e}"));
    wait_with_watchdog(child, what);
}

/// A placed HMP graph legal for `nodes` processes: readers split over the
/// two storage nodes, texture copies together (demand-driven), stitch and
/// output on the last node.
fn placed_graph(nodes: usize) -> GraphSpec {
    let last = nodes - 1;
    HmpGraph {
        rfr: Copies::Placed(vec![0, 1 % nodes]),
        iic: Copies::Placed(vec![last]),
        hmp: Copies::Placed(vec![1 % nodes, 1 % nodes]),
        uso: Copies::Placed(vec![last]),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

fn write_graph(dir: &Path, nodes: usize) -> PathBuf {
    let spec = placed_graph(nodes);
    spec.validate().expect("placed graph must be valid");
    let path = dir.join(format!("graph{nodes}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
    path
}

fn committed_outputs(out: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(out)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".h4dp"))
        .collect();
    names.sort();
    names
}

fn assert_byte_identical(reference: &Path, candidate: &Path, label: &str) {
    let names = committed_outputs(reference);
    assert!(
        !names.is_empty(),
        "reference run committed no parameter files"
    );
    assert_eq!(
        names,
        committed_outputs(candidate),
        "{label}: file sets differ"
    );
    for name in names {
        let a = std::fs::read(reference.join(&name)).unwrap();
        let b = std::fs::read(candidate.join(&name)).unwrap();
        assert_eq!(a, b, "{label}: {name} is not byte-identical");
    }
}

/// Parses one per-node report, re-checks its internal invariants, and
/// verifies the per-copy time accounting holds on that node.
fn check_node_report(path: &Path, node: usize) -> RunReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("node {node} report {}: {e}", path.display()));
    let report: RunReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("node {node} report does not parse: {e}"));
    report
        .check()
        .unwrap_or_else(|e| panic!("node {node} report fails invariants: {e}"));
    const EPS: f64 = 1e-6;
    for c in report.per_copy.iter() {
        assert!(
            c.busy_s + c.blocked_send_s + c.blocked_recv_s <= c.wall_s + EPS,
            "node {node} {}#{}: busy {} + blocked_send {} + blocked_recv {} > wall {}",
            c.filter,
            c.copy,
            c.busy_s,
            c.blocked_send_s,
            c.blocked_recv_s,
            c.wall_s
        );
    }
    report
}

/// Verifies a node report's per-connection transport section: one entry
/// per peer, negotiated features as expected, sane frame/flush accounting.
/// Returns the connections so the caller can aggregate across nodes.
fn check_transport(report: &RunReport, node: usize, nodes: usize, features: bool) -> u64 {
    let conns = report
        .transport
        .as_ref()
        .unwrap_or_else(|| panic!("node {node} report has no transport section"));
    let mut peers: Vec<usize> = conns.iter().map(|c| c.peer).collect();
    peers.sort_unstable();
    let expected: Vec<usize> = (0..nodes).filter(|&p| p != node).collect();
    assert_eq!(peers, expected, "node {node} transport peers");
    let mut frames = 0;
    for c in conns {
        let ConnectionReport {
            peer,
            checksum,
            compression,
            frames_sent,
            flushes,
            credits_sent,
            ..
        } = *c;
        assert_eq!(
            (checksum, compression),
            (features, features),
            "node {node}->{peer}: negotiated features"
        );
        // Every flush ships at least one frame (data, credit, or EOS), so
        // a flush-per-frame regression shows up as flushes outrunning the
        // frames this connection sent (slack covers EOS/error frames).
        assert!(
            flushes <= frames_sent + credits_sent + 8,
            "node {node}->{peer}: {flushes} flushes for {frames_sent} data + \
             {credits_sent} credit frames (writer is not batching)"
        );
        frames += frames_sent;
    }
    frames
}

#[test]
fn multi_process_runs_are_byte_identical_to_in_process() {
    let base = std::env::temp_dir().join(format!("h4d_dist_equiv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let data = base.join("data");

    // A dataset small enough for the paper-shape config the CLI derives
    // (10×10×3×3 ROI) to run quickly, split over two storage nodes.
    run(
        h4d().arg("generate").arg(&data).args([
            "--dims",
            "20,20,6,6",
            "--nodes",
            "2",
            "--seed",
            "7",
        ]),
        "h4d generate",
    );

    // Reference: the 2-node-placed graph in one process (placement is
    // ignored by the in-process engine).
    let graph2 = write_graph(&base, 2);
    let out_ref = base.join("out_ref");
    run(
        h4d()
            .arg("run-graph")
            .arg(&graph2)
            .arg(&data)
            .arg(&out_ref)
            .args(["--canonical", "true"]),
        "h4d run-graph (reference)",
    );

    // The same graph as two cooperating OS processes.
    let out2 = base.join("out2");
    let rep2 = base.join("rep2");
    run(
        h4d()
            .arg("launch")
            .arg(&graph2)
            .arg(&data)
            .arg(&out2)
            .args(["--nodes", "2", "--canonical", "true"])
            .arg("--report-base")
            .arg(&rep2),
        "h4d launch --nodes 2",
    );
    assert_byte_identical(&out_ref, &out2, "2-process run");

    // The same two processes with the v2 wire features negotiated on:
    // per-frame payload checksums plus compression must be invisible in
    // the committed output.
    let out2c = base.join("out2c");
    let rep2c = base.join("rep2c");
    run(
        h4d()
            .arg("launch")
            .arg(&graph2)
            .arg(&data)
            .arg(&out2c)
            .args(["--nodes", "2", "--canonical", "true"])
            .args(["--checksum", "true", "--compress", "true"])
            .arg("--report-base")
            .arg(&rep2c),
        "h4d launch --nodes 2 --checksum --compress",
    );
    assert_byte_identical(&out_ref, &out2c, "2-process checksum+compress run");

    // And as three processes (stitch/output on its own node), also with
    // checksums and compression on.
    let graph3 = write_graph(&base, 3);
    let out3 = base.join("out3");
    let rep3 = base.join("rep3");
    run(
        h4d()
            .arg("launch")
            .arg(&graph3)
            .arg(&data)
            .arg(&out3)
            .args(["--nodes", "3", "--canonical", "true"])
            .args(["--checksum", "true", "--compress", "true"])
            .arg("--report-base")
            .arg(&rep3),
        "h4d launch --nodes 3",
    );
    assert_byte_identical(&out_ref, &out3, "3-process checksum+compress run");

    // Per-node reports: parse, pass invariants, and cover exactly the
    // copies placed on each node.
    let spec2 = placed_graph(2);
    let mut copies_seen = 0;
    let mut plain_frames = 0;
    for node in 0..2 {
        let report = check_node_report(&base.join(format!("rep2.node{node}.json")), node);
        plain_frames += check_transport(&report, node, 2, false);
        for shape in &report.filters {
            let decl = spec2.filter_decl(&shape.name).expect("filter exists");
            let placed_here = decl.placement.iter().filter(|&&n| n == node).count();
            assert_eq!(
                shape.copies, placed_here,
                "node {node} report miscounts {} copies",
                shape.name
            );
            copies_seen += shape.copies;
        }
    }
    let total: usize = spec2.filters.iter().map(|f| f.copies).sum();
    assert_eq!(
        copies_seen, total,
        "per-node reports do not cover every placed copy exactly once"
    );
    assert!(plain_frames > 0, "2-process run moved no data frames");

    let mut v2_frames = 0;
    for node in 0..2 {
        let report = check_node_report(&base.join(format!("rep2c.node{node}.json")), node);
        v2_frames += check_transport(&report, node, 2, true);
    }
    assert!(v2_frames > 0, "checksum+compress run moved no data frames");

    for node in 0..3 {
        let report = check_node_report(&base.join(format!("rep3.node{node}.json")), node);
        check_transport(&report, node, 3, true);
    }
}
