//! Micro-probes of the kernel's building blocks on real windows.
//!
//! The scan is one opaque call, so its inner cost split comes from timing
//! the public building blocks it is made of — `CoMatrix::from_region`,
//! `SparseCoMatrix::from_dense`, `MatrixStats::from_dense`/`from_sparse` +
//! `compute_features` — on seeded windows of the workload's own dataset.
//! The public constructors allocate and compute every statistic, where the
//! scan recycles scratch and narrows to the selection, so
//! `build + convert + features` is an upper-bound model of one rebuilt
//! placement, not a replay of it.

use crate::dataset::SliceFiles;
use crate::stats::pick;
use crate::workloads::Workload;
use haralick::coocc::CoMatrix;
use haralick::features::{compute_features, MatrixStats};
use haralick::sparse::SparseCoMatrix;
use haralick::volume::{Point4, Region4};
use mri::chunks::Chunk;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Chunks windows are drawn from, and windows per chunk (2 048 in all).
const CHUNKS: usize = 16;
const WINDOWS_PER_CHUNK: usize = 128;

/// Mean per-window costs and matrix shapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Windows measured.
    pub windows: u64,
    /// `CoMatrix::from_region`, ns per window.
    pub build_ns: f64,
    /// Mean non-zero upper-triangle cells per window.
    pub nnz_mean: f64,
    /// Mean `SparseCoMatrix::fill_ratio`.
    pub fill_ratio: f64,
    /// `SparseCoMatrix::from_dense`, ns per window.
    pub convert_ns: f64,
    /// Mean sparse entries per window.
    pub entries_mean: f64,
    /// `MatrixStats::from_dense(zero_skip)` + `compute_features`, ns per window.
    pub features_full_ns: f64,
    /// `MatrixStats::from_sparse` + `compute_features`, ns per window.
    pub features_sparse_ns: f64,
}

/// Runs the probes for a texture workload; `None` for the retrieval one.
pub fn run(w: &Workload, data_dir: &Path, seed: u64) -> std::io::Result<Option<Probes>> {
    let Some(cfg) = w.scan_config() else {
        return Ok(None);
    };
    let source = SliceFiles::open(data_dir, w.dims)?;
    let quantizer = w.quantizer();
    let chunks: Vec<Chunk> = w.grid().chunks().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_77ED);
    let mut p = Probes::default();
    let (mut build, mut convert, mut full, mut sparse) = (0u128, 0u128, 0u128, 0u128);
    for _ in 0..CHUNKS {
        let chunk = chunks[pick(&mut rng, chunks.len())];
        let vol = source
            .read_region_direct(chunk.input.origin, chunk.input.size)?
            .quantize(&quantizer);
        let owned = chunk.owned_output.size;
        let regions: Vec<Region4> = (0..WINDOWS_PER_CHUNK)
            .map(|_| {
                let l = owned.point_of(pick(&mut rng, owned.len()));
                let o = chunk.owned_output.origin;
                let i = chunk.input.origin;
                let at = Point4::new(
                    o.x - i.x + l.x,
                    o.y - i.y + l.y,
                    o.z - i.z + l.z,
                    o.t - i.t + l.t,
                );
                cfg.roi.region_at(at)
            })
            .collect();

        let t = Instant::now();
        let dense: Vec<CoMatrix> = regions
            .iter()
            .map(|&r| CoMatrix::from_region(&vol, r, &cfg.directions))
            .collect();
        build += t.elapsed().as_nanos();

        let t = Instant::now();
        let sparse_ms: Vec<SparseCoMatrix> = dense.iter().map(SparseCoMatrix::from_dense).collect();
        convert += t.elapsed().as_nanos();

        let t = Instant::now();
        for m in &dense {
            black_box(compute_features(
                &MatrixStats::from_dense(m, true),
                &cfg.selection,
            ));
        }
        full += t.elapsed().as_nanos();

        let t = Instant::now();
        for m in &sparse_ms {
            black_box(compute_features(
                &MatrixStats::from_sparse(m),
                &cfg.selection,
            ));
        }
        sparse += t.elapsed().as_nanos();

        for (d, s) in dense.iter().zip(&sparse_ms) {
            p.nnz_mean += d.nnz_upper() as f64;
            p.entries_mean += s.nnz() as f64;
            p.fill_ratio += s.fill_ratio();
        }
        p.windows += regions.len() as u64;
    }
    let n = p.windows as f64;
    p.build_ns = build as f64 / n;
    p.convert_ns = convert as f64 / n;
    p.features_full_ns = full as f64 / n;
    p.features_sparse_ns = sparse as f64 / n;
    p.nnz_mean /= n;
    p.entries_mean /= n;
    p.fill_ratio /= n;
    Ok(Some(p))
}
