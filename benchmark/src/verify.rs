//! The correctness gate.
//!
//! (a) [`oracle`]: closed-form feature values that do not come from this
//!     codebase, checked through every engine/representation the workloads
//!     use, before anything is timed.
//! (b) [`verify_outputs`]: the warm-up pass's files are read back through
//!     `mri::output::read_parameter_file`; every chunk's digest is rebuilt
//!     from the read-back values, and seeded placements are recomputed from
//!     the slice files with `scan_one` under the reference engine and
//!     compared bit for bit. For the retrieval workload, seeded chunks are
//!     re-read, re-cropped and re-quantized voxel by voxel without the cache.
//! (c) [`check_counts`]: work counters equal their geometric predictions.

use crate::dataset::SliceFiles;
use crate::pass::{output_path, owned_point, PassStats, WordFnv};
use crate::stats::pick;
use crate::workloads::{Stage, Workload};
use haralick::direction::{Direction, DirectionSet};
use haralick::features::{Feature, FeatureSelection};
use haralick::quantize::Quantizer;
use haralick::raster::{
    scan_one, scan_placements_raw, Representation, ScanConfig, ScanEngine, TSlidePolicy,
};
use haralick::roi::RoiShape;
use haralick::volume::{Dims4, Point4};
use mri::chunks::Chunk;
use mri::output::read_parameter_file;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::Path;

/// Seeded placements recomputed per texture workload.
pub const SAMPLED_PLACEMENTS: usize = 256;
/// Seeded chunks recomputed for the retrieval workload.
pub const SAMPLED_CHUNKS: usize = 16;

/// Closed-form oracle. Volumes have two gray levels (raw 0/1 through
/// `Quantizer::linear(2, 0, 1)`), the paper's 10x10x3x3 ROI, and features
/// derived by hand from Haralick's definitions (natural logarithm):
///
/// * constant volume, any direction: one cell `p(1,1) = 1`, so ASM = 1,
///   contrast = 0, entropy = 0, variance = 0, IDM = 1;
/// * 4D checkerboard `(x+y+z+t) mod 2`, direction (1,0,0,0): every pair
///   joins unlike levels, `p(0,1) = p(1,0) = 1/2`, so ASM = 1/2,
///   contrast = 1, entropy = ln 2, μ = 1/2, σ² = 1/4,
///   correlation = (0 − 1/4)/(1/4) = −1, IDM = 1/2;
/// * checkerboard, direction (1,1,1,1): parity is kept, and the 9x9x2x2 box
///   of pair origins has an even side, so `p(0,0) = p(1,1) = 1/2`: ASM = 1/2,
///   contrast = 0, entropy = ln 2, σ² = 1/4, correlation = (1/2 − 1/4)/(1/4)
///   = +1, IDM = 1.
pub fn oracle() -> Result<(), String> {
    const F: [Feature; 6] = [
        Feature::AngularSecondMoment,
        Feature::Contrast,
        Feature::Correlation,
        Feature::SumOfSquares,
        Feature::InverseDifferenceMoment,
        Feature::Entropy,
    ];
    let ln2 = std::f64::consts::LN_2;
    let dims = Dims4::new(12, 12, 4, 4);
    let constant = vec![1u16; dims.len()];
    let checker: Vec<u16> = dims
        .region()
        .points()
        .map(|p| ((p.x + p.y + p.z + p.t) % 2) as u16)
        .collect();
    /// `expected` is in `F` order; `None` marks a degenerate value (the
    /// correlation of a constant region) that the definitions leave open.
    struct Case<'a> {
        label: &'a str,
        raw: &'a [u16],
        direction: Direction,
        expected: [Option<f64>; 6],
    }
    let cases = [
        Case {
            label: "constant",
            raw: &constant,
            direction: Direction::new(1, 1, 1, 1),
            expected: [Some(1.0), Some(0.0), None, Some(0.0), Some(1.0), Some(0.0)],
        },
        Case {
            label: "checkerboard (1,0,0,0)",
            raw: &checker,
            direction: Direction::new(1, 0, 0, 0),
            expected: [
                Some(0.5),
                Some(1.0),
                Some(-1.0),
                Some(0.25),
                Some(0.5),
                Some(ln2),
            ],
        },
        Case {
            label: "checkerboard (1,1,1,1)",
            raw: &checker,
            direction: Direction::new(1, 1, 1, 1),
            expected: [
                Some(0.5),
                Some(0.0),
                Some(1.0),
                Some(0.25),
                Some(1.0),
                Some(ln2),
            ],
        },
    ];
    let paths = [
        (ScanEngine::Reference, Representation::Full),
        (ScanEngine::Fused, Representation::Full),
        (ScanEngine::Reference, Representation::Sparse),
    ];
    let quantizer = Quantizer::linear(2, 0, 1);
    let roi = RoiShape::paper_default();
    let selection = FeatureSelection::of(&F);
    for Case {
        label,
        raw,
        direction,
        expected,
    } in cases
    {
        for (engine, representation) in paths {
            let cfg = ScanConfig {
                roi,
                directions: DirectionSet::single(direction),
                selection,
                representation,
                engine,
                t_slide: TSlidePolicy::Auto,
            };
            let extent = roi.output_dims(dims);
            let maps = scan_placements_raw(dims, raw, &quantizer, &cfg, Point4::ZERO, extent);
            for p in extent.region().points() {
                for (feature, want) in F.iter().zip(expected) {
                    let Some(want) = want else { continue };
                    let got = maps.get(p, *feature);
                    if (got - want).abs() > 1e-12 {
                        return Err(format!(
                            "oracle: {label}, {engine:?}/{representation:?}, {feature:?} at {p:?}: got {got}, hand-derived {want}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// What [`verify_outputs`] found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Chunk ids whose outputs are wrong, missing or unverifiable.
    pub failed_chunks: BTreeSet<usize>,
    /// Human-readable reasons, one per finding.
    pub problems: Vec<String>,
    /// Placements (texture) or chunks (retrieval) recomputed independently.
    pub recomputed: usize,
}

impl Verdict {
    fn fail(&mut self, chunk: Option<usize>, why: String) {
        if let Some(c) = chunk {
            self.failed_chunks.insert(c);
        }
        self.problems.push(why);
    }

    /// Whether everything checked out.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Verifies the outputs of the pass that produced `chunk_digests`.
pub fn verify_outputs(
    w: &Workload,
    data_dir: &Path,
    out_dir: &Path,
    chunk_digests: &[u64],
    seed: u64,
) -> std::io::Result<Verdict> {
    let mut verdict = Verdict::default();
    let source = SliceFiles::open(data_dir, w.dims)?;
    let grid = w.grid();
    let chunks: Vec<Chunk> = grid.chunks().collect();
    if chunk_digests.len() != chunks.len() {
        verdict.fail(
            None,
            format!(
                "pass produced {} chunk digests for {} chunks",
                chunk_digests.len(),
                chunks.len()
            ),
        );
        return Ok(verdict);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CA11);
    let quantizer = w.quantizer();

    let Some(cfg) = w.scan_config() else {
        // Retrieval: rebuild seeded chunks' quantized levels voxel by voxel.
        for _ in 0..SAMPLED_CHUNKS {
            let chunk = chunks[pick(&mut rng, chunks.len())];
            let raw = source.read_region_direct(chunk.input.origin, chunk.input.size)?;
            let levels: Vec<u8> = raw
                .as_slice()
                .iter()
                .map(|&v| quantizer.level_of(v))
                .collect();
            let mut h = WordFnv::new();
            h.fold_bytes(&levels);
            if h.finish() != chunk_digests[chunk.id] {
                verdict.fail(
                    Some(chunk.id),
                    format!(
                        "chunk {}: quantized levels differ from a direct re-read",
                        chunk.id
                    ),
                );
            }
            verdict.recomputed += 1;
        }
        return Ok(verdict);
    };

    // Texture: read every output back.
    let out_dims = grid.out_dims();
    let mut volumes: Vec<Vec<f64>> = Vec::new();
    for feature in cfg.selection.iter() {
        let path = output_path(out_dir, feature.short_name());
        let data = read_parameter_file(&path)?;
        if data.name != feature.short_name() || data.dims != out_dims || !data.complete {
            verdict.fail(
                None,
                format!(
                    "{}: name {:?}, dims {}, complete {} (expected {:?}, {out_dims}, true)",
                    path.display(),
                    data.name,
                    data.dims,
                    data.complete,
                    feature.short_name()
                ),
            );
        }
        volumes.push(data.values);
    }
    if !verdict.ok() {
        verdict.failed_chunks.extend(chunks.iter().map(|c| c.id));
        return Ok(verdict);
    }

    // Every chunk's digest, rebuilt from what is on disk.
    for chunk in &chunks {
        let mut h = WordFnv::new();
        for k in 0..chunk.rois() {
            let idx = out_dims.index(owned_point(chunk, k));
            for v in &volumes {
                h.fold(v[idx].to_bits());
            }
        }
        if h.finish() != chunk_digests[chunk.id] {
            verdict.fail(
                Some(chunk.id),
                format!(
                    "chunk {}: values read back differ from values computed",
                    chunk.id
                ),
            );
        }
    }

    // Seeded placements, recomputed from the slice files by the oracle tier.
    let reference = ScanConfig {
        engine: ScanEngine::Reference,
        ..cfg.clone()
    };
    for _ in 0..SAMPLED_PLACEMENTS {
        let p = out_dims.point_of(pick(&mut rng, out_dims.len()));
        let window = source
            .read_region_direct(p, cfg.roi.size())?
            .quantize(&quantizer);
        let want = scan_one(&window, &reference, Point4::ZERO);
        let idx = out_dims.index(p);
        for ((feature, v), want) in cfg.selection.iter().zip(&volumes).zip(want) {
            if v[idx].to_bits() != want.to_bits() {
                let owner = chunks
                    .iter()
                    .find(|c| c.owned_output.contains(p))
                    .map(|c| c.id);
                verdict.fail(
                    owner,
                    format!(
                        "{feature:?} at {p:?}: file holds {}, reference recomputes {want}",
                        v[idx]
                    ),
                );
            }
        }
        verdict.recomputed += 1;
    }
    Ok(verdict)
}

/// (c): counters against geometry. Returns the mismatches.
pub fn check_counts(w: &Workload, s: &PassStats, out_dir: &Path) -> Vec<String> {
    let grid = w.grid();
    let mut bad = Vec::new();
    let placements = grid.out_dims().len() as u64;
    let requests: u64 = grid
        .chunks()
        .map(|c| (c.input.size.z * c.input.size.t) as u64)
        .sum();
    let slice_bytes = (w.dims.x * w.dims.y * 2) as u64;
    // (what, counted, predicted)
    let mut expect: Vec<(&str, u64, u64)> = vec![
        ("chunks", s.chunk_digests.len() as u64, grid.len() as u64),
        ("placements", s.placements, placements),
        ("slice_requests", s.slice_requests, requests),
        (
            "distinct_slices",
            s.distinct_slices,
            (w.dims.z * w.dims.t) as u64,
        ),
        (
            "hits + disk_reads",
            s.cache_hits + s.disk_reads,
            s.slice_requests,
        ),
        ("bytes_read", s.bytes_read, s.disk_reads * slice_bytes),
        (
            "stitched_voxels",
            s.stitched_voxels,
            grid.retrieval_volume_by_chunk() as u64,
        ),
    ];
    if w.dataset_bytes() <= w.cache_budget as u64 {
        // The whole dataset fits the budget: each slice is read exactly once.
        expect.push(("disk_reads", s.disk_reads, s.distinct_slices));
        expect.push(("budget_rejects", s.budget_rejects, 0));
    } else if s.retained_high_water > w.cache_budget as u64 {
        bad.push(format!(
            "retained {} bytes over the {} byte budget",
            s.retained_high_water, w.cache_budget
        ));
    }
    match (w.stage, w.scan_config()) {
        (Stage::Texture { .. }, Some(cfg)) => {
            let mut bytes = 0;
            for feature in cfg.selection.iter() {
                let name = feature.short_name();
                let header = 4 + 4 + name.len() as u64 + 4 * 8;
                match std::fs::metadata(output_path(out_dir, name)) {
                    Ok(m) => bytes += m.len().saturating_sub(header),
                    Err(e) => bad.push(format!("output {name}: {e}")),
                }
            }
            expect.push((
                "records",
                s.records,
                placements * cfg.selection.len() as u64,
            ));
            expect.push(("quantized_voxels", s.quantized_voxels, 0));
            expect.push(("output record bytes", bytes, s.records * 24));
        }
        _ => {
            expect.push(("records", s.records, 0));
            expect.push(("quantized_voxels", s.quantized_voxels, s.stitched_voxels));
        }
    }
    for (what, got, want) in expect {
        if got != want {
            bad.push(format!("{what}: counted {got}, geometry predicts {want}"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_holds() {
        super::oracle().unwrap();
    }
}
