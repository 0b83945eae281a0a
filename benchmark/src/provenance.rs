//! Where a number came from: commit, compiler, host, scratch file system,
//! seed, and which crates are stand-ins. A field that cannot be determined
//! is JSON `null`, never a placeholder string.

use crate::metrics::json_escape;
use std::fs;
use std::path::Path;
use std::process::Command;

/// Crates satisfied by `benchmark/shims/` instead of the registry.
pub const SHIMMED: [&str; 5] = ["serde", "serde_derive", "serde_json", "rayon", "rand"];

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// File-system type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
}

fn json_opt(v: Option<String>) -> String {
    v.map_or("null".to_string(), |s| format!("\"{}\"", json_escape(&s)))
}

/// The provenance object. `git_sha` is `null` outside a git checkout (the
/// benchmark driver's checkouts are not repositories). `runs` names the
/// sample counts behind the numbers it accompanies, e.g. `("passes", 17)`.
pub fn provenance_json(seed: u64, scratch: &Path, runs: &[(&str, u64)]) -> String {
    let sha = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = sha
        .as_ref()
        .map(|_| command_line("git", &["status", "--porcelain", "--untracked-files=no"]).is_some());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let shims: Vec<String> = SHIMMED.iter().map(|s| format!("\"{s}\"")).collect();
    let runs: String = runs
        .iter()
        .map(|(k, n)| format!(", \"{}\": {n}", json_escape(k)))
        .collect();
    format!(
        "{{\"git_sha\": {}, \"git_dirty\": {}, \"rustc\": {}, \"cpu_model\": {}, \"nproc\": {nproc}, \
         \"scratch_fs\": {}, \"seed\": {seed}, \"threads\": 1, \"shimmed_crates\": [{}]{runs}}}",
        json_opt(sha),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        json_opt(command_line("rustc", &["-V"])),
        json_opt(cpu_model()),
        json_opt(fs_type(scratch)),
        shims.join(", "),
    )
}
