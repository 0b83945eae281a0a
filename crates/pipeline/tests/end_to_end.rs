//! End-to-end correctness: the real threaded pipelines must produce, voxel
//! for voxel, the same Haralick parameter maps as the sequential reference
//! implementation — for every graph variant and representation.

use datacutter::{EngineConfig, GraphSpec, RunFailure, RunReport, SchedulePolicy};
use haralick::raster::{raster_scan, Representation, ScanEngine};
use haralick::volume::Point4;
use mri::output::read_pgm;
use mri::store::write_distributed;
use mri::synth::{generate, SynthConfig};
use pipeline::config::AppConfig;
use pipeline::graphs::{Copies, HmpGraph, SplitGraph, VisualGraph};
use pipeline::run::{merge_uso_outputs, run_threaded, IoRuntime};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Runs `spec` with private I/O counters and default engine options.
fn run(
    spec: &GraphSpec,
    cfg: &Arc<AppConfig>,
    data: &Path,
    out: &Path,
) -> Result<RunReport, RunFailure> {
    let (rt, engine) = (IoRuntime::new(), EngineConfig::default());
    run_threaded(spec, cfg, data, out, &rt, &engine)
}

/// Creates a fresh working directory, a small distributed dataset matching
/// `cfg`, and returns `(dataset root, output dir)`.
fn setup(tag: &str, cfg: &AppConfig, seed: u64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("h4d_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("data");
    let out = base.join("out");
    std::fs::create_dir_all(&out).unwrap();
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    write_distributed(&raw, &data, "e2e", cfg.storage_nodes).unwrap();
    (data, out)
}

/// The sequential reference: quantize the whole volume, raster scan.
fn reference(cfg: &AppConfig, seed: u64) -> haralick::raster::FeatureMaps {
    let raw = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    let vol = raw.quantize(&cfg.quantizer);
    raster_scan(&vol, &cfg.scan_config())
}

/// Asserts the merged USO output equals the reference for every feature.
fn assert_matches_reference(
    cfg: &AppConfig,
    out: &std::path::Path,
    uso_copies: usize,
    reference: &haralick::raster::FeatureMaps,
) {
    let dims = cfg.out_dims();
    for feature in cfg.selection.iter() {
        let merged = merge_uso_outputs(out, feature, uso_copies, dims)
            .unwrap_or_else(|e| panic!("merging {feature:?}: {e}"));
        let expect = reference.feature_volume(feature);
        let mut worst = 0.0f64;
        for (a, b) in merged.iter().zip(&expect) {
            worst = worst.max((a - b).abs());
        }
        assert!(
            worst < 1e-9,
            "{feature:?} diverges from sequential reference by {worst}"
        );
    }
}

fn hmp_spec(hmp: usize) -> datacutter::GraphSpec {
    HmpGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(2),
        hmp: Copies::Count(hmp),
        uso: Copies::Count(1),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

fn split_spec(hcc: usize, hpc: usize, uso: usize) -> datacutter::GraphSpec {
    SplitGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hcc: Copies::Count(hcc),
        hpc: Copies::Count(hpc),
        uso: Copies::Count(uso),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

#[test]
fn hmp_pipeline_matches_sequential_reference() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("hmp_full", &cfg, 101);
    let report = run(&hmp_spec(3), &cfg, &data, &out).expect("pipeline run");
    assert_matches_reference(&cfg, &out, 1, &reference(&cfg, 101));
    // Flow sanity: every chunk passed through exactly once.
    let w = pipeline::Workload::new((*cfg).clone());
    assert_eq!(report.per_copy.buffers_into("HMP"), w.grid.len() as u64);
}

#[test]
fn split_pipeline_sparse_matches_reference() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Sparse));
    let (data, out) = setup("split_sparse", &cfg, 102);
    run(&split_spec(3, 2, 2), &cfg, &data, &out).expect("pipeline run");
    assert_matches_reference(&cfg, &out, 2, &reference(&cfg, 102));
}

#[test]
fn split_pipeline_full_matches_reference() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("split_full", &cfg, 103);
    run(&split_spec(2, 1, 1), &cfg, &data, &out).expect("pipeline run");
    assert_matches_reference(&cfg, &out, 1, &reference(&cfg, 103));
}

#[test]
fn hmp_sparse_accum_matches_reference() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::SparseAccum));
    let (data, out) = setup("hmp_sacc", &cfg, 104);
    run(&hmp_spec(2), &cfg, &data, &out).expect("pipeline run");
    assert_matches_reference(&cfg, &out, 1, &reference(&cfg, 104));
}

#[test]
fn representations_agree_end_to_end() {
    // The same dataset through full and sparse split pipelines must agree.
    let cfg_a = Arc::new(AppConfig::test_scale(Representation::Full));
    let cfg_b = Arc::new(AppConfig::test_scale(Representation::Sparse));
    let (data_a, out_a) = setup("agree_a", &cfg_a, 105);
    let (data_b, out_b) = setup("agree_b", &cfg_b, 105);
    run(&split_spec(2, 1, 1), &cfg_a, &data_a, &out_a).unwrap();
    run(&split_spec(2, 1, 1), &cfg_b, &data_b, &out_b).unwrap();
    let dims = cfg_a.out_dims();
    for feature in cfg_a.selection.iter() {
        let a = merge_uso_outputs(&out_a, feature, 1, dims).unwrap();
        let b = merge_uso_outputs(&out_b, feature, 1, dims).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{feature:?}: {x} vs {y}");
        }
    }
}

#[test]
fn visual_pipeline_writes_image_series() {
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let (data, out) = setup("visual", &cfg, 106);
    let spec = VisualGraph {
        rfr: Copies::Count(2),
        iic: Copies::Count(1),
        hmp: Copies::Count(2),
        hic: Copies::Count(1),
        jiw: Copies::Count(1),
    }
    .build();
    run(&spec, &cfg, &data, &out).expect("pipeline run");
    let dims = cfg.out_dims();
    let reference = reference(&cfg, 106);
    for feature in cfg.selection.iter() {
        let dir = out.join(feature.short_name());
        // One image per (z, t) slice of the output volume.
        let mut count = 0;
        for t in 0..dims.t {
            for z in 0..dims.z {
                let path = dir.join(format!("slice_t{t:04}_z{z:04}.pgm"));
                let (w, h, pixels) =
                    read_pgm(&path).unwrap_or_else(|e| panic!("missing image {path:?}: {e}"));
                assert_eq!((w, h), (dims.x, dims.y));
                assert_eq!(pixels.len(), dims.x * dims.y);
                count += 1;
            }
        }
        assert_eq!(count, dims.z * dims.t);
        // Spot-check normalization: the global max voxel must be white.
        let (lo, hi) = reference.min_max(feature);
        if hi > lo {
            let mut any_white = false;
            for t in 0..dims.t {
                for z in 0..dims.z {
                    let path = dir.join(format!("slice_t{t:04}_z{z:04}.pgm"));
                    let (_, _, pixels) = read_pgm(&path).unwrap();
                    if pixels.contains(&255) {
                        any_white = true;
                    }
                }
            }
            assert!(
                any_white,
                "{feature:?}: no white pixel despite non-degenerate range"
            );
        }
    }
}

#[test]
fn uso_outputs_partition_across_copies() {
    // With 2 USO copies the work must be split between them (round-robin
    // over parameter packets), every copy writing at least one file, and
    // the merged coverage must still be exact (merge_uso_outputs fails on
    // duplicates or gaps).
    let cfg = Arc::new(AppConfig::test_scale(Representation::Sparse));
    let (data, out) = setup("uso_split", &cfg, 107);
    run(&split_spec(2, 2, 2), &cfg, &data, &out).expect("pipeline run");
    for copy in 0..2 {
        let wrote_any = cfg.selection.iter().any(|feature| {
            out.join(pipeline::filters::UsoFilter::file_name(feature, copy))
                .exists()
        });
        assert!(wrote_any, "USO copy {copy} wrote no files at all");
    }
    assert_matches_reference(&cfg, &out, 2, &reference(&cfg, 107));
}

#[test]
fn fused_engine_pipeline_matches_reference() {
    // `test_scale` already selects `Fused`; pin it explicitly so the test
    // keeps meaning even if that default moves.
    let mut base = AppConfig::test_scale(Representation::Full);
    base.engine = ScanEngine::Fused;
    let cfg = Arc::new(base);
    let (data, out) = setup("fused", &cfg, 110);
    run(&hmp_spec(2), &cfg, &data, &out).expect("pipeline run");
    // `reference` scans with the engine-forcing `raster_scan` (sequential
    // rebuild), so this compares the engines end to end.
    assert_matches_reference(&cfg, &out, 1, &reference(&cfg, 110));
}

#[test]
fn rebuild_engine_pipeline_matches_reference() {
    // The paper-semantics engine (`Reference`, per-placement rebuild)
    // through the same pipeline.
    let mut base = AppConfig::test_scale(Representation::Full);
    base.engine = ScanEngine::Reference;
    let cfg = Arc::new(base);
    let (data, out) = setup("rebuild", &cfg, 111);
    run(&hmp_spec(2), &cfg, &data, &out).expect("pipeline run");
    assert_matches_reference(&cfg, &out, 1, &reference(&cfg, 111));
}

#[test]
fn dicom_reader_is_a_dropin_replacement() {
    // Same study stored twice: raw slices and DICOM slices. Swapping RFR
    // for DFR in the graph must leave the results bit-identical — the
    // paper's §4.3 incremental-development claim.
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let seed = 109;
    let base = std::env::temp_dir().join(format!("h4d_e2e_dicom_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let raw_dir = base.join("raw");
    let dcm_dir = base.join("dcm");
    let out_raw = base.join("out_raw");
    let out_dcm = base.join("out_dcm");
    std::fs::create_dir_all(&out_raw).unwrap();
    std::fs::create_dir_all(&out_dcm).unwrap();
    let vol = generate(&SynthConfig {
        dims: cfg.dims,
        ..SynthConfig::test_scale(seed)
    });
    write_distributed(&vol, &raw_dir, "raw", cfg.storage_nodes).unwrap();
    mri::dicom::write_distributed_dicom(&vol, &dcm_dir, "dcm", cfg.storage_nodes).unwrap();

    let spec = hmp_spec(2);
    run(&spec, &cfg, &raw_dir, &out_raw).expect("raw pipeline");
    let dicom_spec = pipeline::graphs::with_dicom_reader(spec);
    run(&dicom_spec, &cfg, &dcm_dir, &out_dcm).expect("DICOM pipeline");

    let dims = cfg.out_dims();
    for feature in cfg.selection.iter() {
        let a = merge_uso_outputs(&out_raw, feature, 1, dims).unwrap();
        let b = merge_uso_outputs(&out_dcm, feature, 1, dims).unwrap();
        assert_eq!(a, b, "{feature:?}: DICOM path diverges from raw path");
    }
}

#[test]
fn e2e_feature_values_are_plausible() {
    // Sanity on actual values at one voxel: ASM in (0, 1], correlation in
    // [-1, 1], sum of squares >= 0, IDM in (0, 1].
    let cfg = Arc::new(AppConfig::test_scale(Representation::Full));
    let seed = 108;
    let maps = reference(&cfg, seed);
    let p = Point4::new(3, 3, 1, 1);
    use haralick::features::Feature::*;
    let asm = maps.get(p, AngularSecondMoment);
    let corr = maps.get(p, Correlation);
    let ss = maps.get(p, SumOfSquares);
    let idm = maps.get(p, InverseDifferenceMoment);
    assert!(asm > 0.0 && asm <= 1.0, "ASM {asm}");
    assert!((-1.0..=1.0).contains(&corr), "correlation {corr}");
    assert!(ss >= 0.0, "sum of squares {ss}");
    assert!(idm > 0.0 && idm <= 1.0, "IDM {idm}");
}
