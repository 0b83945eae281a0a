//! The analytic flow model of one application run.
//!
//! Given an [`AppConfig`], the workload enumerates exactly what the real
//! pipeline produces — pieces, chunks, matrix packets, parameter packets,
//! with their counts and wire sizes — without touching voxel data. The
//! simulator's behaviours consume these quantities; tests verify the model
//! against the threaded engine's actual buffer statistics.

use crate::config::AppConfig;
use crate::payload::{ChunkData, MatrixPacket, ParamPacket, Piece};
use cluster::cost::CostModel;
use haralick::raster::Representation;
use mri::cache::ReusePlan;
use mri::chunks::{Chunk, ChunkGrid};
use mri::store::SliceKey;

/// Flow-model quantities derived from an application configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The configuration.
    pub cfg: AppConfig,
    /// The chunk partition.
    pub grid: ChunkGrid,
}

impl Workload {
    /// Builds the model.
    pub fn new(cfg: AppConfig) -> Self {
        let grid = ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
        Self { cfg, grid }
    }

    /// The chunk with sequential id `id`.
    pub fn chunk_by_id(&self, id: usize) -> Chunk {
        self.grid.chunk_at(self.grid.counts().point_of(id))
    }

    /// Storage node of a slice under the round-robin distribution law.
    pub fn node_of(&self, key: SliceKey) -> usize {
        key.ordinal(self.cfg.dims) % self.cfg.storage_nodes
    }

    /// `(chunk id, piece wire bytes)` for every piece storage node `node`
    /// contributes, in the reader's emission order ([`ReusePlan`]'s) — the
    /// RFR source schedule.
    pub fn pieces_for_node(&self, node: usize) -> Vec<(usize, u64)> {
        let plan = ReusePlan::new(&self.grid, |key| self.node_of(key) == node);
        let mut out = Vec::with_capacity(plan.total_requests());
        for (seq, chunk) in self.grid.chunks().enumerate() {
            let piece = (chunk.id, self.piece_bytes(&chunk));
            out.extend(std::iter::repeat_n(piece, plan.keys_for(seq).len()));
        }
        out
    }

    /// Number of pieces a chunk is assembled from.
    pub fn pieces_of(&self, chunk: &Chunk) -> usize {
        chunk.input.size.z * chunk.input.size.t
    }

    /// Wire size of one piece of `chunk`.
    pub fn piece_bytes(&self, chunk: &Chunk) -> u64 {
        (chunk.input.size.x * chunk.input.size.y * 2 + Piece::HEADER_BYTES) as u64
    }

    /// Wire size of an assembled chunk.
    pub fn chunk_bytes(&self, chunk: &Chunk) -> u64 {
        (chunk.input.len() * 2 + ChunkData::HEADER_BYTES) as u64
    }

    /// Matrix-packet sizes `(matrix count, wire bytes)` for one chunk under
    /// the given cost model (the sparse wire size uses the calibrated mean
    /// fill).
    pub fn matrix_packets(&self, chunk: &Chunk, model: &CostModel) -> Vec<(usize, u64)> {
        let n = chunk.rois();
        let per = n.div_ceil(self.cfg.packet_split.max(1)).max(1);
        let wire = model.matrix_wire_bytes(self.cfg.levels, self.cfg.representation);
        let header = MatrixPacket::HEADER_BYTES as u64;
        let mut out = Vec::new();
        let mut first = 0;
        while first < n {
            let count = per.min(n - first);
            out.push((count, count as u64 * wire + header));
            first += count;
        }
        out
    }

    /// Wire size of a parameter packet carrying `count` values: the
    /// encoded length the threaded engine meters.
    pub fn param_packet_bytes(&self, count: usize) -> u64 {
        ParamPacket::wire_len(count) as u64
    }

    /// Number of matrices a packet of `bytes` carries (inverse of
    /// [`Workload::matrix_packets`] sizing; used by the HPC behaviour).
    pub fn matrices_in_packet(&self, bytes: u64, model: &CostModel) -> usize {
        let wire = model.matrix_wire_bytes(self.cfg.levels, self.cfg.representation);
        ((bytes - MatrixPacket::HEADER_BYTES as u64) / wire) as usize
    }

    /// Total number of ROIs (output voxels) in the run.
    pub fn total_rois(&self) -> usize {
        self.cfg.out_dims().len()
    }

    /// Voxels of one ROI.
    pub fn roi_voxels(&self) -> usize {
        self.cfg.roi.len()
    }

    /// Number of displacement directions.
    pub fn ndirs(&self) -> usize {
        self.cfg.directions.len()
    }

    /// The representation in force.
    pub fn repr(&self) -> Representation {
        self.cfg.representation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Workload {
        Workload::new(AppConfig::test_scale(Representation::Sparse))
    }

    #[test]
    fn pieces_partition_across_storage_nodes() {
        let w = wl();
        let per_node: Vec<Vec<(usize, u64)>> = (0..w.cfg.storage_nodes)
            .map(|n| w.pieces_for_node(n))
            .collect();
        let total: usize = per_node.iter().map(Vec::len).sum();
        let expected: usize = w.grid.chunks().map(|c| w.pieces_of(&c)).sum();
        assert_eq!(total, expected, "pieces lost or duplicated across nodes");
    }

    #[test]
    fn chunk_roundtrip_by_id() {
        let w = wl();
        for c in w.grid.chunks() {
            assert_eq!(w.chunk_by_id(c.id), c);
        }
    }

    #[test]
    fn matrix_packets_cover_all_rois() {
        let w = wl();
        let model = cluster::calibrated_defaults::default_model();
        for c in w.grid.chunks() {
            let packets = w.matrix_packets(&c, &model);
            let covered: usize = packets.iter().map(|(n, _)| n).sum();
            assert_eq!(covered, c.rois());
            assert!(packets.len() <= w.cfg.packet_split);
            for (n, bytes) in packets {
                assert_eq!(w.matrices_in_packet(bytes, &model), n);
            }
        }
    }

    #[test]
    fn totals_match_grid() {
        let w = wl();
        let sum: usize = w.grid.chunks().map(|c| c.rois()).sum();
        assert_eq!(sum, w.total_rois());
    }
}
