//! One pass over a disk-resident dataset: the paper's per-chunk dataflow
//! driven through the layers' public functions only.
//!
//! This is the sequence `pipeline::filters` runs, minus the filter-stream
//! middleware (which cannot link without a registry): `pump_chunks` (RFR)
//! walks `ChunkGrid`/`ReusePlan` and serves `SliceCache::get` +
//! `crop_subrect`; `IicFilter` pastes the pieces with
//! `RawVolume::paste_plane`; `analyze_chunk` (HMP) calls
//! `scan_placements_raw`; `UsoFilter` feeds `ParameterWriter::push` and
//! `finish`. One thread, no read-ahead, closed loop.

use crate::dataset::SliceFiles;
use crate::trace::{name, Tracer, NONE};
use crate::workloads::{Stage, Workload};
use haralick::raster::scan_placements_raw;
use haralick::volume::Point4;
use mri::cache::{crop_subrect, IoStats, ReusePlan, SliceCache};
use mri::chunks::Chunk;
use mri::digest::{FNV_OFFSET, FNV_PRIME};
use mri::output::ParameterWriter;
use mri::raw::RawVolume;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a folded over 64-bit words instead of bytes: one multiply per `f64`
/// keeps the checksum below 1 % of a pass where byte-wise FNV costs 6 %.
#[derive(Debug, Clone, Copy)]
pub struct WordFnv(u64);

impl WordFnv {
    /// Starts at the FNV offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Folds one word.
    #[inline]
    pub fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    /// Folds the bit patterns of `values`, in order.
    pub fn fold_f64s(&mut self, values: &[f64]) {
        for v in values {
            self.fold(v.to_bits());
        }
    }

    /// Folds `bytes` eight at a time (little-endian), then the tail singly.
    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.fold(u64::from(b));
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds per-chunk digests, in chunk order, into the pass checksum.
pub fn checksum_of(chunk_digests: &[u64]) -> u64 {
    let mut h = WordFnv::new();
    for &d in chunk_digests {
        h.fold(d);
    }
    h.finish()
}

/// Global ROI origin of linear index `k` in a chunk's owned-output block
/// (x-fastest), the order `FeatureMaps` stores placements in.
pub fn owned_point(chunk: &Chunk, k: usize) -> Point4 {
    let o = chunk.owned_output.origin;
    let l = chunk.owned_output.size.point_of(k);
    Point4::new(o.x + l.x, o.y + l.y, o.z + l.z, o.t + l.t)
}

/// Output file of the feature called `short_name` under `out_dir`.
pub fn output_path(out_dir: &Path, short_name: &str) -> PathBuf {
    out_dir.join(format!("{short_name}_0.h4dp"))
}

/// Counts and the checksum of one pass. Every field except `wall_s` must be
/// identical between passes over the same dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassStats {
    /// Dataset open to last output renamed, seconds.
    pub wall_s: f64,
    /// Wall-clock of each chunk, read to written, in chunk order, seconds.
    pub chunk_wall_s: Vec<f64>,
    /// Per-chunk digest: feature bits in placement order (texture) or
    /// quantized levels (retrieval), `0` for a chunk that failed.
    pub chunk_digests: Vec<u64>,
    /// Chunks whose read, scan or write returned an error.
    pub failed_chunks: Vec<usize>,
    /// ROI placements analysed (texture) or delivered quantized (retrieval).
    pub placements: u64,
    /// `(x, y, z, t, value)` records pushed to the parameter writers.
    pub records: u64,
    /// Voxels pasted into chunk buffers.
    pub stitched_voxels: u64,
    /// Voxels through `RawVolume::quantize` (retrieval only; the fused scan
    /// quantizes inside the kernel).
    pub quantized_voxels: u64,
    /// `SliceCache::get` calls.
    pub slice_requests: u64,
    /// Slices in the reuse plan.
    pub distinct_slices: u64,
    /// `IoStats` at the end of the pass.
    pub disk_reads: u64,
    /// `IoStats::bytes_read`.
    pub bytes_read: u64,
    /// `IoStats::cache_hits`.
    pub cache_hits: u64,
    /// `IoStats::budget_rejects`.
    pub budget_rejects: u64,
    /// `IoStats::retained_high_water`.
    pub retained_high_water: u64,
}

impl PassStats {
    /// The pass checksum.
    pub fn checksum(&self) -> u64 {
        checksum_of(&self.chunk_digests)
    }

    /// Whether `other` did exactly the same work with the same results.
    pub fn same_work_as(&self, other: &PassStats) -> bool {
        let strip = |s: &PassStats| PassStats {
            wall_s: 0.0,
            chunk_wall_s: Vec::new(),
            ..s.clone()
        };
        strip(self) == strip(other)
    }
}

fn span<T>(tracer: &mut Tracer, name: &'static str, chunk: u32, f: impl FnOnce() -> T) -> T {
    tracer.begin(name, chunk);
    let v = f();
    tracer.end();
    v
}

/// Runs one pass of `w` over the dataset at `data_dir`, writing texture
/// outputs under `out_dir`. A failing chunk is recorded and skipped; only a
/// failure outside any chunk (opening the dataset, creating or finishing an
/// output) aborts the pass.
pub fn run_pass(
    w: &Workload,
    data_dir: &Path,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<PassStats> {
    let started = Instant::now();
    tracer.begin(name::PASS, NONE);

    let source = SliceFiles::open(data_dir, w.dims)?;
    let (grid, plan) = span(tracer, name::PLAN, NONE, || {
        let grid = w.grid();
        let plan = ReusePlan::new(&grid, |_| true);
        (grid, plan)
    });
    let io_stats = Arc::new(IoStats::default());
    let cache = SliceCache::new(source, plan, w.cache_budget, Arc::clone(&io_stats));
    let plan = cache.plan();
    let (slice_x, _) = cache.slice_dims();
    let quantizer = w.quantizer();
    let scan_cfg = w.scan_config();

    let mut writers: Vec<ParameterWriter> = Vec::new();
    if let Some(cfg) = &scan_cfg {
        tracer.begin(name::FINISH, NONE);
        for feature in cfg.selection.iter() {
            let path = output_path(out_dir, feature.short_name());
            writers.push(ParameterWriter::create(
                &path,
                feature.short_name(),
                grid.out_dims(),
            )?);
        }
        tracer.end();
    }

    let mut stats = PassStats {
        wall_s: 0.0,
        chunk_wall_s: Vec::with_capacity(grid.len()),
        chunk_digests: Vec::with_capacity(grid.len()),
        failed_chunks: Vec::new(),
        placements: 0,
        records: 0,
        stitched_voxels: 0,
        quantized_voxels: 0,
        slice_requests: 0,
        distinct_slices: plan.distinct_slices() as u64,
        disk_reads: 0,
        bytes_read: 0,
        cache_hits: 0,
        budget_rejects: 0,
        retained_high_water: 0,
    };
    // The crop buffer is recycled across pieces, as the pipeline's buffer
    // pool does.
    let mut piece: Vec<u16> = Vec::new();

    for (seq, chunk) in grid.chunks().enumerate() {
        let id = chunk.id as u32;
        let chunk_started = Instant::now();
        tracer.begin(name::CHUNK, id);
        let r = chunk.input;
        let mut digest = WordFnv::new();
        let outcome = (|| -> io::Result<()> {
            // --- RFR + IIC: read, crop, stitch -----------------------------
            let mut raw = span(tracer, name::STITCH, id, || RawVolume::zeros(r.size));
            for &key in plan.keys_for(seq) {
                stats.slice_requests += 1;
                let slice = span(tracer, name::CACHE_GET, id, || cache.get(key))
                    .map_err(|e| io::Error::other(e.to_string()))?;
                span(tracer, name::CROP, id, || {
                    crop_subrect(
                        &slice, slice_x, r.origin.x, r.origin.y, r.size.x, r.size.y, &mut piece,
                    );
                });
                let at = Point4::new(0, 0, key.z - r.origin.z, key.t - r.origin.t);
                span(tracer, name::STITCH, id, || {
                    raw.paste_plane(r.size.x, r.size.y, &piece, at);
                });
                stats.stitched_voxels += piece.len() as u64;
            }
            span(tracer, name::CACHE_ADVANCE, id, || cache.advance(seq));

            match (&w.stage, &scan_cfg) {
                // --- HMP + USO: scan, write --------------------------------
                (Stage::Texture { .. }, Some(cfg)) => {
                    let owned = chunk.owned_output;
                    let base = Point4::new(
                        owned.origin.x - r.origin.x,
                        owned.origin.y - r.origin.y,
                        owned.origin.z - r.origin.z,
                        owned.origin.t - r.origin.t,
                    );
                    let maps = span(tracer, name::SCAN, id, || {
                        scan_placements_raw(
                            raw.dims(),
                            raw.as_slice(),
                            &quantizer,
                            cfg,
                            base,
                            owned.size,
                        )
                    });
                    let values = maps.as_slice();
                    digest.fold_f64s(values);
                    let n = chunk.rois();
                    let per = cfg.selection.len();
                    let points: Vec<Point4> = (0..n).map(|k| owned_point(&chunk, k)).collect();
                    for (slot, writer) in writers.iter_mut().enumerate() {
                        span(tracer, name::WRITE, id, || -> io::Result<()> {
                            for (k, &p) in points.iter().enumerate() {
                                writer.push(p, values[k * per + slot])?;
                            }
                            Ok(())
                        })?;
                        stats.records += n as u64;
                    }
                    stats.placements += n as u64;
                }
                // --- quantize only -----------------------------------------
                _ => {
                    let levels = span(tracer, name::QUANTIZE, id, || raw.quantize(&quantizer));
                    digest.fold_bytes(levels.as_slice());
                    stats.quantized_voxels += levels.as_slice().len() as u64;
                    stats.placements += chunk.rois() as u64;
                }
            }
            Ok(())
        })();
        tracer.end();
        stats
            .chunk_wall_s
            .push(chunk_started.elapsed().as_secs_f64());
        match outcome {
            Ok(()) => stats.chunk_digests.push(digest.finish()),
            Err(e) => {
                eprintln!("chunk {} failed: {e}", chunk.id);
                stats.failed_chunks.push(chunk.id);
                stats.chunk_digests.push(0);
            }
        }
    }

    tracer.begin(name::FINISH, NONE);
    for writer in writers {
        writer.finish()?;
    }
    tracer.end();

    tracer.end();
    stats.wall_s = started.elapsed().as_secs_f64();
    stats.disk_reads = io_stats.disk_reads();
    stats.bytes_read = io_stats.bytes_read();
    stats.cache_hits = io_stats.cache_hits();
    stats.budget_rejects = io_stats.budget_rejects();
    stats.retained_high_water = io_stats.retained_high_water();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_fnv_is_order_sensitive_and_handles_tails() {
        let mut a = WordFnv::new();
        a.fold_f64s(&[1.0, 2.0]);
        let mut b = WordFnv::new();
        b.fold_f64s(&[2.0, 1.0]);
        assert_ne!(a.finish(), b.finish());

        // 9 bytes = one word + a one-byte tail.
        let mut c = WordFnv::new();
        c.fold_bytes(&[1, 0, 0, 0, 0, 0, 0, 0, 7]);
        let mut d = WordFnv::new();
        d.fold(1);
        d.fold(7);
        assert_eq!(c.finish(), d.finish());
        assert_eq!(WordFnv::new().finish(), FNV_OFFSET);
    }
}
