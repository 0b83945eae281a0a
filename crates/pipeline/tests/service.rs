//! Integration tests for the persistent analysis daemon: concurrent jobs
//! over one dataset must be byte-identical to a one-shot run while the
//! daemon-scoped cache reads each slice from disk exactly once in total;
//! cancellation must commit nothing; drain must finish what it admitted.
//!
//! Every test but the last drives the daemon through the real HTTP
//! management API via [`MgmtClient`] — the same path CI's curl/jq checks use.

use datacutter::EngineConfig;
use haralick::raster::Representation;
use mri::store::write_distributed;
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::filters::UsoFilter;
use pipeline::graphs::standard_graph;
use pipeline::run::{run_threaded, IoRuntime, SliceCaching};
use pipeline::service::{
    AnalysisService, JobManager, JobSpec, JobState, MgmtClient, ServiceConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generous terminal-state deadline: the jobs are tiny, but debug-profile
/// texture compute on a loaded CI machine is not fast.
const JOB_DEADLINE: Duration = Duration::from_secs(300);

/// Fresh working directory plus a small distributed dataset of `dims`
/// extents over 2 storage nodes; returns `(dataset root, base dir)`.
fn setup(tag: &str, dims: haralick::volume::Dims4, seed: u64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("h4d_svc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let data = base.join("data");
    let raw = generate(&SynthConfig {
        dims,
        ..SynthConfig::test_scale(seed)
    });
    write_distributed(&raw, &data, "svc", 2).unwrap();
    (data, base)
}

fn start_daemon(workers: usize) -> (AnalysisService, MgmtClient) {
    let service = AnalysisService::start(
        "127.0.0.1:0".parse().unwrap(),
        ServiceConfig {
            workers,
            queue_limit: 8,
            io_cache_bytes: 256 << 20,
            result_store: None,
        },
    )
    .expect("daemon starts on an ephemeral port");
    let client = MgmtClient::new(service.addr());
    (service, client)
}

fn job_spec(data: &Path, out: &Path) -> JobSpec {
    JobSpec {
        dataset: data.to_path_buf(),
        out_dir: out.to_path_buf(),
        variant: "hmp".into(),
        repr: "full".into(),
        texture: 3,
        // Byte-stable output regardless of arrival order, so daemon runs
        // and the in-process reference compare equal.
        canonical: true,
        engine: None,
    }
}

/// Every committed `.h4dp` under `out`, keyed by file name (the daemon's
/// config path uses texture-copy count 3, all writing through one USO).
fn committed_outputs(cfg: &AppConfig, out: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for feature in cfg.selection.iter() {
        let name = UsoFilter::file_name(feature, 0);
        let bytes =
            std::fs::read(out.join(&name)).unwrap_or_else(|e| panic!("missing output {name}: {e}"));
        files.push((name, bytes));
    }
    files
}

/// Names of `.h4dp` / `.h4dp.tmp` residue under `out` (empty for a clean
/// cancelled job; the directory itself may or may not exist yet).
fn output_residue(out: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(out) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".h4dp") || n.ends_with(".h4dp.tmp"))
        .collect()
}

#[test]
fn concurrent_jobs_match_one_shot_and_share_disk_reads() {
    let dims = haralick::volume::Dims4::new(32, 32, 4, 4);
    let (data, base) = setup("equiv", dims, 310);

    // The one-shot reference: the same config path the daemon's executor
    // uses (`AppConfig::for_dataset` beneath `for_run`, + `standard_graph`),
    // per-run cache.
    let cfg = AppConfig::for_dataset(dims, 2, Representation::Full).expect("dataset fits");
    let cfg = Arc::new(cfg);
    let spec = standard_graph("hmp", 2, 3).expect("hmp variant");
    let reference = base.join("reference");
    std::fs::create_dir_all(&reference).unwrap();
    let rt = IoRuntime {
        canonical_output: true,
        ..IoRuntime::new()
    };
    run_threaded(
        &spec,
        &cfg,
        &data,
        &reference,
        &rt,
        &EngineConfig::default(),
    )
    .expect("reference run");
    let expected = committed_outputs(&cfg, &reference);

    let (service, client) = start_daemon(2);
    let out_a = base.join("job_a");
    let out_b = base.join("job_b");
    let a = client.submit(&job_spec(&data, &out_a)).expect("submit a");
    let b = client.submit(&job_spec(&data, &out_b)).expect("submit b");

    let sa = client
        .wait_terminal(a, JOB_DEADLINE)
        .expect("job a finishes");
    let sb = client
        .wait_terminal(b, JOB_DEADLINE)
        .expect("job b finishes");
    assert_eq!(sa.state, JobState::Completed, "job a: {:?}", sa.error);
    assert_eq!(sb.state, JobState::Completed, "job b: {:?}", sb.error);

    // Byte-identical to the one-shot run, both jobs.
    assert_eq!(
        committed_outputs(&cfg, &out_a),
        expected,
        "concurrent daemon job A diverges from the one-shot run"
    );
    assert_eq!(
        committed_outputs(&cfg, &out_b),
        expected,
        "concurrent daemon job B diverges from the one-shot run"
    );

    // The tentpole property: one daemon-scoped cache serves both jobs, so
    // across BOTH jobs each of the z*t slices hit disk exactly once.
    let status = client.status().expect("daemon status");
    let slices = (dims.z * dims.t) as u64;
    assert_eq!(
        status.io.disk_reads, slices,
        "two concurrent jobs over one dataset must read each slice once, total"
    );
    assert_eq!(status.completed, 2);

    // Reports survive completion, schema-versioned.
    let report = client.report(a).expect("job a report");
    assert!(report.schema_version >= 1);
    assert!(sa.has_report && sb.has_report);

    client.shutdown().expect("shutdown");
    service.join();
}

#[test]
fn cancel_mid_run_commits_nothing() {
    // Large enough (and on the slow sequential engine) that cancellation
    // lands while the job is computing.
    let dims = haralick::volume::Dims4::new(48, 48, 6, 6);
    let (data, base) = setup("cancel", dims, 311);
    let (service, client) = start_daemon(1);
    let out = base.join("out");
    let mut spec = job_spec(&data, &out);
    spec.engine = Some("reference".into());
    let id = client.submit(&spec).expect("submit");

    // Catch the job actually running before cancelling it.
    let deadline = Instant::now() + JOB_DEADLINE;
    loop {
        let status = client.job(id).expect("status");
        if status.state == JobState::Running {
            break;
        }
        assert!(
            !status.state.is_terminal(),
            "job finished before it could be cancelled; grow the dataset"
        );
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(2));
    }
    client.cancel(id).expect("cancel");

    let status = client.wait_terminal(id, JOB_DEADLINE).expect("terminal");
    assert_eq!(
        status.state,
        JobState::Cancelled,
        "cancel mid-run must end Cancelled, not {:?} ({:?})",
        status.state,
        status.error
    );
    // Nothing committed, nothing left behind: no `.h4dp` (the sink withheld
    // its atomic renames) and no `.h4dp.tmp` (the manager swept them).
    assert_eq!(
        output_residue(&out),
        Vec::<String>::new(),
        "a cancelled job must leave no committed or partial outputs"
    );
    assert!(!status.has_report, "a cancelled job has no run report");

    let service_status = client.status().expect("status");
    assert_eq!(service_status.cancelled, 1);
    client.shutdown().expect("shutdown");
    service.join();
}

#[test]
fn drain_finishes_in_flight_jobs_then_refuses_admission() {
    let dims = haralick::volume::Dims4::new(32, 32, 4, 4);
    let (data, base) = setup("drain", dims, 312);
    // One worker, two jobs: at drain time one is running and one is still
    // queued — drain must finish BOTH (admitted means finished).
    let (service, client) = start_daemon(1);
    let out_a = base.join("a");
    let out_b = base.join("b");
    let a = client.submit(&job_spec(&data, &out_a)).expect("submit a");
    let b = client.submit(&job_spec(&data, &out_b)).expect("submit b");

    client.drain().expect("drain blocks until idle");

    for (id, out) in [(a, &out_a), (b, &out_b)] {
        let status = client.job(id).expect("status after drain");
        assert_eq!(
            status.state,
            JobState::Completed,
            "drain must finish admitted job {id}: {:?}",
            status.error
        );
        assert!(
            !output_residue(out).is_empty(),
            "drained job {id} committed no output"
        );
        assert!(
            !output_residue(out).iter().any(|n| n.ends_with(".tmp")),
            "drain left partial outputs for job {id}"
        );
    }

    // Admission is closed for good.
    let refused = client.submit(&job_spec(&data, &base.join("late")));
    assert!(refused.is_err(), "post-drain submissions must be refused");
    let status = client.status().expect("status");
    assert!(status.draining);
    assert_eq!(status.completed, 2);

    client.shutdown().expect("shutdown");
    service.join();
}

#[test]
fn zero_budget_daemon_reads_with_the_cache_off() {
    let dims = haralick::volume::Dims4::new(32, 32, 4, 4);
    let (data, base) = setup("nocache", dims, 313);

    // The one-shot `--io-cache-bytes 0` run of the same job.
    let cfg = AppConfig::for_dataset(dims, 2, Representation::Full).expect("dataset fits");
    let spec = standard_graph("hmp", 2, 3).expect("hmp variant");
    let rt = IoRuntime {
        caching: SliceCaching::Off,
        ..IoRuntime::new()
    };
    let out = base.join("one_shot");
    let one_shot = run_threaded(
        &spec,
        &Arc::new(cfg),
        &data,
        &out,
        &rt,
        &EngineConfig::default(),
    )
    .expect("one-shot run")
    .io
    .expect("io section");

    // Straight on the manager: its counters need no JSON to read.
    let manager = JobManager::start(ServiceConfig {
        io_cache_bytes: 0,
        ..ServiceConfig::default()
    });
    let id = manager
        .submit(job_spec(&data, &base.join("job")))
        .expect("admitted");
    manager.drain();
    let job = manager.status(id).expect("job known");
    assert_eq!(job.state, JobState::Completed, "{:?}", job.error);
    // One job ran, so the daemon-wide counters are that job's: its report's
    // `io` section is read off the same `IoStats`.
    let status = manager.service_status();
    assert_eq!(status.open_caches, 0, "no shared cache was opened");
    assert_eq!(status.io.cache_hits, 0);
    assert_eq!(status.io.budget_rejects, 0, "a zero-budget registry ran");
    assert_eq!(status.io.bytes_read, one_shot.bytes_read);
    assert_eq!(status.io.disk_reads, one_shot.disk_reads);
    manager.shutdown();
}
