//! Differential tests for the content-addressed result store: a warm-store
//! run and an incremental run after an in-place edit must produce `.h4dp`
//! outputs **byte-identical** to a from-scratch run, with hit/miss counters
//! exactly matching the chunk-grid geometry — and a config change must miss
//! rather than serve stale results. The warm path is exercised on both scan
//! engines, with the reader-side slice cache both on and off.

use datacutter::EngineConfig;
use haralick::raster::{Representation, ScanEngine};
use haralick::volume::Point4;
use mri::store::{write_distributed, DistributedDataset, SliceKey};
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::filters::UsoFilter;
use pipeline::graphs::standard_graph;
use pipeline::run::{run_threaded, IoRuntime, SliceCaching};
use pipeline::store::{ResultStore, StoreSession};
use pipeline::Workload;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh working directory plus a distributed dataset matching `cfg`;
/// returns `(base, base/data)`.
fn setup(tag: &str, cfg: &AppConfig, seed: u64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("h4d_rstore_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    let data = base.join("data");
    write_distributed(&raw, &data, "rstore", cfg.storage_nodes).unwrap();
    (base, data)
}

/// How `h4d analyze --canonical true --result-store <store>` hosts a run:
/// canonical output (so `.h4dp` bytes are arrival-order independent and
/// comparable) and a session of the run's own on the store at `store`.
fn hosting(cfg: &AppConfig, store: &Path, caching: SliceCaching) -> IoRuntime {
    let store = ResultStore::open_fs(store).expect("store directory opens");
    IoRuntime {
        caching,
        canonical_output: true,
        store: Some(Arc::new(StoreSession::new(&store, cfg))),
        ..IoRuntime::new()
    }
}

/// Runs `variant` through the real threaded pipeline under [`hosting`] and
/// returns the `(hits, misses, published)` its report carries, so every
/// counter asserted in this file also checks that the driver's report has
/// the `store` (and `io`) section of the session it was given.
fn run(
    variant: &str,
    cfg: &Arc<AppConfig>,
    store: &Path,
    data: &Path,
    out: &Path,
) -> (u64, u64, u64) {
    run_caching(variant, cfg, store, SliceCaching::default(), data, out)
}

/// [`run`] under an explicit reader caching mode.
fn run_caching(
    variant: &str,
    cfg: &Arc<AppConfig>,
    store: &Path,
    caching: SliceCaching,
    data: &Path,
    out: &Path,
) -> (u64, u64, u64) {
    let spec = standard_graph(variant, cfg.storage_nodes, 3).expect("graph variant exists");
    std::fs::create_dir_all(out).unwrap();
    let rt = hosting(cfg, store, caching);
    let report = run_threaded(&spec, cfg, data, out, &rt, &EngineConfig::default())
        .unwrap_or_else(|e| panic!("pipeline run into {out:?}: {e}"));
    assert!(report.io.expect("io section").disk_reads > 0);
    let store = report.store.expect("store section");
    (store.hits, store.misses, store.published)
}

/// Every committed `.h4dp` under `out`, keyed by file name. The standard
/// graphs write through a single USO copy; asserting non-emptiness guards
/// against comparing two empty directories.
fn outputs(cfg: &AppConfig, out: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for feature in cfg.selection.iter() {
        let name = UsoFilter::file_name(feature, 0);
        let bytes =
            std::fs::read(out.join(&name)).unwrap_or_else(|e| panic!("missing output {name}: {e}"));
        files.push((name, bytes));
    }
    assert!(!files.is_empty(), "no outputs under {out:?}");
    files
}

/// Rewrites exactly one voxel of the on-disk dataset in place (the
/// "radiologist re-exports one slice" event), returning the edited point.
fn edit_one_voxel(data: &Path, p: Point4) -> Point4 {
    let ds = DistributedDataset::open(data).unwrap();
    let desc = ds.descriptor().clone();
    let key = SliceKey { t: p.t, z: p.z };
    let node = desc.node_of(key);
    let path = data.join(format!("node_{node:02}")).join(key.file_name());
    let mut bytes = std::fs::read(&path).unwrap();
    let off = (p.y * desc.dims.x + p.x) * 2;
    let v = u16::from_le_bytes([bytes[off], bytes[off + 1]]);
    // Stay inside the quantizer's [0, 4000] range but move far enough to
    // land in a different gray level.
    let edited = (v + 1500) % 4000;
    assert_ne!(edited, v);
    bytes[off..off + 2].copy_from_slice(&edited.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    p
}

/// Chunk ids whose *input* (overlap-extended) region contains `p` — the set
/// the store must recompute after `p` changes. Everything else must hit.
fn chunks_touching(cfg: &AppConfig, p: Point4) -> (usize, usize) {
    let w = Workload::new(cfg.clone());
    let touched = w.grid.chunks().filter(|c| c.input.contains(p)).count();
    (touched, w.grid.len())
}

#[test]
fn cold_warm_incremental_runs_are_byte_identical() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (base, data) = setup("diff", &cfg, 401);
    let store = base.join("store");
    let chunks = Workload::new((*cfg).clone()).grid.len() as u64;

    // Cold: nothing to serve, every chunk computes and publishes.
    let (h0, m0, p0) = run("hmp", &cfg, &store, &data, &base.join("cold"));
    assert_eq!((h0, m0, p0), (0, chunks, chunks), "cold-run counters");

    // Warm: every chunk served, nothing recomputed — and the `.h4dp` bytes
    // are identical to the from-scratch run's.
    let (h1, m1, p1) = run("hmp", &cfg, &store, &data, &base.join("warm"));
    assert_eq!((h1, m1, p1), (chunks, 0, 0), "warm-run counters");
    assert_eq!(
        outputs(&cfg, &base.join("cold")),
        outputs(&cfg, &base.join("warm")),
        "warm-store run diverges from the from-scratch run"
    );

    // Edit one voxel in place. Exactly the chunks whose input region covers
    // it recompute; the rest are served.
    let p = edit_one_voxel(&data, Point4::new(5, 7, 1, 1));
    let (touched, total) = chunks_touching(&cfg, p);
    assert!(
        touched > 0 && touched < total,
        "edit point must invalidate a strict subset of chunks, got {touched}/{total}"
    );
    let (h2, m2, _) = run("hmp", &cfg, &store, &data, &base.join("incremental"));
    assert_eq!(
        m2 as usize, touched,
        "only overlap-touched chunks recompute"
    );
    assert_eq!(h2 as usize, total - touched, "everything else is served");

    // The differential law: the incremental run equals a from-scratch run
    // over the edited dataset, byte for byte.
    let scratch_store = base.join("store_scratch");
    let (h3, m3, _) = run("hmp", &cfg, &scratch_store, &data, &base.join("scratch"));
    assert_eq!((h3, m3), (0, chunks), "scratch store starts cold");
    assert_eq!(
        outputs(&cfg, &base.join("incremental")),
        outputs(&cfg, &base.join("scratch")),
        "incremental recompute diverges from a from-scratch run on the edited data"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn config_changes_miss_instead_of_serving_stale() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (base, data) = setup("cfg", &cfg, 402);
    let store = base.join("store");
    let chunks = Workload::new((*cfg).clone()).grid.len() as u64;
    let (_, m0, _) = run("hmp", &cfg, &store, &data, &base.join("populate"));
    assert_eq!(m0, chunks);

    // Quantization change: different gray-level count must not reuse maps
    // computed at 32 levels.
    let mut levels = (*cfg).clone();
    levels.levels = 16;
    levels.quantizer = haralick::quantize::Quantizer::linear(16, 0, 4000);
    // ROI change: different window geometry, different outputs entirely.
    let mut roi = (*cfg).clone();
    roi.roi = haralick::roi::RoiShape::from_lengths(4, 4, 2, 2);

    for (tag, variant) in [("levels", levels), ("roi", roi)] {
        let variant = Arc::new(variant);
        let expect = Workload::new((*variant).clone()).grid.len() as u64;
        let out = base.join(format!("out_{tag}"));
        let (h, m, _) = run("hmp", &variant, &store, &data, &out);
        assert_eq!(h, 0, "{tag}: a config change must never serve stale blobs");
        assert_eq!(m, expect, "{tag}: every chunk recomputes under the new key");
    }

    // Engine change: both engines are byte-identical by hard invariant, so
    // the engine is value-neutral and a warm store stays warm.
    let mut engine = (*cfg).clone();
    engine.engine = ScanEngine::Reference;
    assert_ne!(engine.engine, cfg.engine);
    let out = base.join("out_engine");
    let (h, m, _) = run("hmp", &Arc::new(engine), &store, &data, &out);
    assert_eq!(
        (h, m),
        (chunks, 0),
        "switching engines must not fault the store"
    );

    // The changed-config run is itself correct: byte-identical to the same
    // config against a fresh, empty store.
    let mut fresh = (*cfg).clone();
    fresh.levels = 16;
    fresh.quantizer = haralick::quantize::Quantizer::linear(16, 0, 4000);
    let fresh = Arc::new(fresh);
    let fresh_store = base.join("store_fresh");
    let fresh_out = base.join("out_levels_fresh");
    run("hmp", &fresh, &fresh_store, &data, &fresh_out);
    assert_eq!(
        outputs(&fresh, &base.join("out_levels")),
        outputs(&fresh, &fresh_out),
        "a shared store must not perturb a changed-config run"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn warm_store_round_trips_on_both_engines_and_cache_modes() {
    // Smaller extents: this matrix covers 2 engines x 2 cache modes, each a
    // cold + warm pipeline pair.
    let tiers = [ScanEngine::Reference, ScanEngine::Fused];
    for (i, engine) in tiers.into_iter().enumerate() {
        for (j, cache_bytes) in [64 << 20, 0usize].into_iter().enumerate() {
            let caching = SliceCaching::per_copy(cache_bytes);
            let mut cfg = AppConfig::test_scale(Representation::Full);
            cfg.dims = haralick::volume::Dims4::new(32, 32, 4, 4);
            cfg.chunk_dims = haralick::volume::Dims4::new(16, 16, 2, 2);
            cfg.engine = engine;
            let cfg = Arc::new(cfg);
            let (base, data) = setup(&format!("tier{i}c{j}"), &cfg, 410 + i as u64);
            let store = base.join("store");
            let chunks = Workload::new((*cfg).clone()).grid.len() as u64;

            let cold = base.join("cold");
            let (h0, m0, _) = run_caching("hmp", &cfg, &store, caching.clone(), &data, &cold);
            assert_eq!(
                (h0, m0),
                (0, chunks),
                "{engine:?} cache={cache_bytes}: cold counters"
            );
            let warm = base.join("warm");
            let (h1, m1, _) = run_caching("hmp", &cfg, &store, caching, &data, &warm);
            assert_eq!(
                (h1, m1),
                (chunks, 0),
                "{engine:?} cache={cache_bytes}: warm counters"
            );
            assert_eq!(
                outputs(&cfg, &cold),
                outputs(&cfg, &warm),
                "{engine:?} cache={cache_bytes}: warm run not byte-identical"
            );
            let _ = std::fs::remove_dir_all(&base);
        }
    }
}

#[test]
fn a_runs_session_is_committed_on_success_and_abandoned_on_failure() {
    let mut cfg = AppConfig::test_scale(Representation::Full);
    cfg.dims = haralick::volume::Dims4::new(32, 32, 4, 4);
    cfg.chunk_dims = haralick::volume::Dims4::new(16, 16, 2, 2);
    let cfg = Arc::new(cfg);
    let (base, data) = setup("session", &cfg, 404);
    let store = base.join("store");
    let chunks = Workload::new((*cfg).clone()).grid.len() as u64;
    let spec = standard_graph("hmp", cfg.storage_nodes, 3).expect("hmp variant");
    let engine = EngineConfig::default();

    // No session in the runtime: an `io` section, no `store` section.
    let out = base.join("plain");
    let report = run_threaded(&spec, &cfg, &data, &out, &IoRuntime::new(), &engine).unwrap();
    assert!(report.io.is_some() && report.store.is_none());

    // USO cannot create a directory under a regular file: the run fails
    // after HMP staged results, and the driver abandons its session.
    std::fs::write(base.join("blocker"), b"not a directory").unwrap();
    let rt = hosting(&cfg, &store, SliceCaching::default());
    run_threaded(&spec, &cfg, &data, &base.join("blocker/out"), &rt, &engine)
        .expect_err("USO cannot write");
    let staged = rt.store.expect("session").stats().published();
    assert!(staged > 0, "the failed run staged nothing");

    // So the next run starts cold; the driver commits it, and the run after
    // that is served every chunk.
    let cold = run("hmp", &cfg, &store, &data, &base.join("cold"));
    assert_eq!(
        cold,
        (0, chunks, chunks),
        "a failed run's blobs were served"
    );
    let warm = run("hmp", &cfg, &store, &data, &base.join("warm"));
    assert_eq!(warm, (chunks, 0, 0), "a successful run was not committed");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn split_graph_matrix_stage_round_trips() {
    // The split pipeline stores co-occurrence *matrix packets* (HCC stage)
    // instead of finished parameter maps — one blob per packet, so the
    // counters are per-packet, not per-chunk. The warm run must serve every
    // packet the cold run published and still be byte-identical.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Sparse));
    let (base, data) = setup("split", &cfg, 403);
    let store = base.join("store");
    let chunks = Workload::new((*cfg).clone()).grid.len() as u64;

    let (h0, m0, p0) = run("split", &cfg, &store, &data, &base.join("cold"));
    assert_eq!(h0, 0, "cold split run cannot hit");
    assert_eq!(m0, p0, "every missed packet is published");
    assert!(
        m0 >= chunks,
        "packet-granular counters: at least one packet per chunk ({m0} < {chunks})"
    );

    let (h1, m1, _) = run("split", &cfg, &store, &data, &base.join("warm"));
    assert_eq!((h1, m1), (m0, 0), "warm split run serves every packet");
    assert_eq!(
        outputs(&cfg, &base.join("cold")),
        outputs(&cfg, &base.join("warm")),
        "warm split run not byte-identical to the from-scratch run"
    );

    // Incremental after a one-voxel edit: strictly partial reuse, and the
    // result still equals a from-scratch run on the edited data.
    let p = edit_one_voxel(&data, Point4::new(40, 12, 5, 2));
    let (touched, total) = chunks_touching(&cfg, p);
    assert!(touched > 0 && touched < total);
    let (h2, m2, _) = run("split", &cfg, &store, &data, &base.join("incremental"));
    assert!(h2 > 0, "untouched chunks' packets must be served");
    assert!(m2 > 0, "touched chunks' packets must recompute");
    assert_eq!(h2 + m2, m0, "every packet is either served or recomputed");

    let scratch_store = base.join("store_scratch");
    run("split", &cfg, &scratch_store, &data, &base.join("scratch"));
    assert_eq!(
        outputs(&cfg, &base.join("incremental")),
        outputs(&cfg, &base.join("scratch")),
        "incremental split run diverges from a from-scratch run on the edited data"
    );
    let _ = std::fs::remove_dir_all(&base);
}
