//! The `h4d` binary's flag parsing, driven as a process
//! (`env!("CARGO_BIN_EXE_h4d")`): a bad value is a usage error (exit 2)
//! before anything is read or written, and so is a flag the subcommand
//! does not read.

use std::process::Command;

fn h4d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_h4d"))
}

#[test]
fn zero_texture_copies_is_a_usage_error() {
    let base = std::env::temp_dir().join(format!("h4d_cli_texture0_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    for variant in ["hmp", "split", "visual"] {
        let graph = base.join(format!("{variant}.json"));
        let status = h4d()
            .arg("graph")
            .arg(&graph)
            .args(["--variant", variant, "--texture", "0"])
            .status()
            .expect("spawn h4d graph");
        assert_eq!(status.code(), Some(2), "graph --variant {variant}");
        assert!(!graph.exists(), "graph --variant {variant} wrote {graph:?}");

        // `analyze` parses its flags before it opens the dataset, so a
        // missing one (which would exit 1) is never reached.
        let out = base.join(format!("out_{variant}"));
        let status = h4d()
            .arg("analyze")
            .arg(base.join("no_such_dataset"))
            .arg(&out)
            .args(["--variant", variant, "--texture", "0"])
            .status()
            .expect("spawn h4d analyze");
        assert_eq!(status.code(), Some(2), "analyze --variant {variant}");
        assert!(!out.exists(), "analyze --variant {variant} created {out:?}");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_a_usage_error() {
    let base = std::env::temp_dir().join(format!("h4d_cli_unknown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let (graph, ds) = (
        base.join("no_such_graph.json"),
        base.join("no_such_dataset"),
    );
    // A misspelt flag, a flag of a subcommand `analyze` does not have, and
    // `--compress`, which `node` and `launch` no longer read: each is
    // refused before the (missing) graph or dataset is opened.
    let cases: [(&str, &[&str], &str); 4] = [
        ("analyze", &[], "--texure"),
        ("analyze", &[], "--workers"),
        (
            "node",
            &["--node", "0", "--peers", "127.0.0.1:1"],
            "--compress",
        ),
        ("launch", &["--nodes", "2"], "--compress"),
    ];
    for (i, (cmd, required, flag)) in cases.into_iter().enumerate() {
        let out = base.join(format!("out_{i}"));
        let mut h = h4d();
        h.arg(cmd);
        if cmd != "analyze" {
            h.arg(&graph);
        }
        let output = h
            .arg(&ds)
            .arg(&out)
            .args(required)
            .args([flag, "true"])
            .output()
            .unwrap_or_else(|e| panic!("spawn h4d {cmd}: {e}"));
        assert_eq!(output.status.code(), Some(2), "{cmd} {flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {cmd}")),
            "{cmd} {flag}: {stderr}"
        );
        assert!(!out.exists(), "{cmd} {flag} created {out:?}");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn zero_storage_nodes_is_a_usage_error() {
    let base = std::env::temp_dir().join(format!("h4d_cli_nodes0_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // Refused before the study is generated, for either format.
    for format in ["raw", "dicom"] {
        let dir = base.join(format);
        let status = h4d()
            .arg("generate")
            .arg(&dir)
            .args(["--nodes", "0", "--format", format])
            .status()
            .expect("spawn h4d generate");
        assert_eq!(status.code(), Some(2), "generate --format {format}");
        assert!(!dir.exists(), "generate --format {format} created {dir:?}");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn malformed_dims_are_a_usage_error() {
    let base = std::env::temp_dir().join(format!("h4d_cli_dims_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // A component that is not a number, a negative one, and extents whose
    // bytes (2^63 voxels of 2 bytes) overflow a usize: each is refused
    // before the study is generated.
    for (i, dims) in ["16,x,16,2,2", "16,16,-2,2,2", "4294967296,2147483648,1,1"]
        .into_iter()
        .enumerate()
    {
        let dir = base.join(format!("ds_{i}"));
        let output = h4d()
            .arg("generate")
            .arg(&dir)
            .args(["--dims", dims])
            .output()
            .expect("spawn h4d generate");
        assert_eq!(output.status.code(), Some(2), "generate --dims {dims}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--dims"),
            "generate --dims {dims}: {stderr}"
        );
        assert!(!dir.exists(), "generate --dims {dims} created {dir:?}");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn run_graph_accepts_the_graph_h4d_graph_wrote() {
    let base = std::env::temp_dir().join(format!("h4d_cli_graph_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let (graph, ds, out) = (base.join("g.json"), base.join("ds"), base.join("out"));
    let status = h4d()
        .arg("generate")
        .arg(&ds)
        .args(["--dims", "24,24,4,4", "--nodes", "4", "--seed", "3"])
        .status()
        .expect("spawn h4d generate");
    assert!(status.success(), "generate");
    let status = h4d()
        .arg("graph")
        .arg(&graph)
        .args(["--variant", "hmp", "--texture", "2"])
        .status()
        .expect("spawn h4d graph");
    assert!(status.success(), "graph");
    let output = h4d()
        .arg("run-graph")
        .arg(&graph)
        .arg(&ds)
        .arg(&out)
        .output()
        .expect("spawn h4d run-graph");
    assert!(
        output.status.success(),
        "run-graph refused the graph h4d wrote: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let written = std::fs::read_dir(&out).unwrap().count();
    assert!(written > 0, "run-graph wrote nothing under {out:?}");

    // `analyze` over the same dataset prints each filter's busy time in
    // seconds with three decimals, whatever its magnitude.
    let output = h4d()
        .arg("analyze")
        .arg(&ds)
        .arg(base.join("out_analyze"))
        .args(["--texture", "2"])
        .output()
        .expect("spawn h4d analyze");
    assert!(output.status.success(), "analyze");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let busy: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split(" busy ").nth(1)?.split_whitespace().next())
        .collect();
    assert!(!busy.is_empty(), "analyze printed no busy line: {stdout}");
    for b in busy {
        let decimals = b.strip_suffix('s').and_then(|secs| secs.split_once('.'));
        assert_eq!(decimals.map(|(_, frac)| frac.len()), Some(3), "busy {b:?}");
    }
    std::fs::remove_dir_all(&base).ok();
}
