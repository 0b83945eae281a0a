//! Typed buffer payloads exchanged between the application filters.
//!
//! Each payload knows its **wire size** — the bytes that would cross the
//! network between non-co-located filters. The threaded engine uses this
//! for byte accounting; the flow model uses the same formulas so the
//! simulator and the real pipeline agree on communication volume.

use haralick::coocc::CoMatrix;
use haralick::features::Feature;
use haralick::sparse::SparseCoMatrix;
use haralick::volume::{Dims4, Point4};
use mri::chunks::Chunk;
use mri::raw::RawVolume;
use mri::store::SliceKey;

/// One RFR→IIC piece: the part of a chunk's input region that lives in one
/// 2D slice on one storage node.
#[derive(Debug, Clone, PartialEq)]
pub struct Piece {
    /// The chunk this piece belongs to (the buffer tag is `chunk.id`).
    pub chunk: Chunk,
    /// Which slice the data came from.
    pub slice: SliceKey,
    /// Raw `u16` intensities of the chunk-input sub-rectangle of the slice,
    /// row-major, `chunk.input.size.x` wide and `chunk.input.size.y` high.
    pub data: Vec<u16>,
}

impl Piece {
    /// Bytes of the positional header a piece carries on the wire.
    pub const HEADER_BYTES: usize = 32;

    /// Wire size: raw pixels plus a small positional header.
    pub fn wire_size(&self) -> usize {
        self.data.len() * 2 + Self::HEADER_BYTES
    }
}

/// One assembled IIC→TEXTURE chunk: the full input region, still raw.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkData {
    /// Chunk geometry.
    pub chunk: Chunk,
    /// Raw intensities over `chunk.input` (origin-relative).
    pub raw: RawVolume,
}

impl ChunkData {
    /// Bytes of the geometry header an assembled chunk carries on the wire.
    pub const HEADER_BYTES: usize = 48;

    /// Wire size: raw voxels plus a header.
    pub fn wire_size(&self) -> usize {
        self.raw.byte_len() + Self::HEADER_BYTES
    }
}

/// Co-occurrence matrices in their transmission representation.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixBatch {
    /// Dense matrices (full representation on the wire).
    Dense(Vec<CoMatrix>),
    /// Sparse matrices.
    Sparse(Vec<SparseCoMatrix>),
}

impl MatrixBatch {
    /// Number of matrices in the batch.
    pub fn len(&self) -> usize {
        match self {
            MatrixBatch::Dense(v) => v.len(),
            MatrixBatch::Sparse(v) => v.len(),
        }
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire size of all matrices.
    pub fn wire_size(&self, levels: u16) -> usize {
        match self {
            MatrixBatch::Dense(v) => v.len() * SparseCoMatrix::dense_wire_size(levels),
            MatrixBatch::Sparse(v) => v.iter().map(SparseCoMatrix::wire_size).sum(),
        }
    }
}

/// One HCC→HPC packet: a run of co-occurrence matrices for consecutive ROI
/// origins of one chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPacket {
    /// The producing chunk.
    pub chunk: Chunk,
    /// Linear index (x-fastest within `chunk.owned_output`) of the first
    /// matrix's ROI origin.
    pub first: usize,
    /// The matrices, in linear owned-output order starting at `first`.
    pub batch: MatrixBatch,
}

impl MatrixPacket {
    /// Bytes of the chunk-and-index header a matrix packet carries on the
    /// wire.
    pub const HEADER_BYTES: usize = 48;

    /// Global ROI origin of the `k`-th matrix in this packet.
    pub fn origin_of(&self, k: usize) -> Point4 {
        linear_point(&self.chunk, self.first + k)
    }

    /// Wire size.
    pub fn wire_size(&self, levels: u16) -> usize {
        self.batch.wire_size(levels) + Self::HEADER_BYTES
    }
}

/// Global ROI origin for a linear index into a chunk's owned-output block.
pub fn linear_point(chunk: &Chunk, linear: usize) -> Point4 {
    let local = chunk.owned_output.size.point_of(linear);
    Point4::new(
        chunk.owned_output.origin.x + local.x,
        chunk.owned_output.origin.y + local.y,
        chunk.owned_output.origin.z + local.z,
        chunk.owned_output.origin.t + local.t,
    )
}

/// One TEXTURE→OUTPUT packet: values of a single Haralick parameter at
/// explicit output positions.
///
/// `points` is shared (`Arc`): the HPC filter fans one chunk's positions out
/// into one packet per feature, and sharing the positions vector replaces
/// thirteen per-feature clones with reference-count bumps.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamPacket {
    /// Which parameter.
    pub feature: Feature,
    /// Global output positions (shared across the per-feature packets of
    /// one chunk).
    pub points: std::sync::Arc<Vec<Point4>>,
    /// Values aligned with `points`.
    pub values: Vec<f64>,
}

impl ParamPacket {
    /// Bytes of the feature-and-count header a parameter packet carries on
    /// the wire.
    pub const HEADER_BYTES: usize = 16;

    /// Wire size at `value_bytes` per (value + positional info).
    pub fn wire_size(&self, value_bytes: usize) -> usize {
        self.values.len() * value_bytes + Self::HEADER_BYTES
    }
}

/// One HIC→JIW message: a completely assembled output volume for one
/// parameter, with its min/max for normalization (paper §4.3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVolume {
    /// Which parameter.
    pub feature: Feature,
    /// Output extents.
    pub dims: Dims4,
    /// Dense values in x-fastest order.
    pub values: Vec<f64>,
    /// Global minimum (for normalization).
    pub min: f64,
    /// Global maximum.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use haralick::volume::Region4;

    fn chunk() -> Chunk {
        Chunk {
            grid_pos: Point4::new(1, 0, 0, 0),
            id: 1,
            owned_output: Region4::new(Point4::new(5, 0, 0, 0), Dims4::new(3, 2, 2, 1)),
            input: Region4::new(Point4::new(5, 0, 0, 0), Dims4::new(8, 7, 3, 2)),
        }
    }

    #[test]
    fn linear_point_walks_owned_output_in_x_fastest_order() {
        let c = chunk();
        assert_eq!(linear_point(&c, 0), Point4::new(5, 0, 0, 0));
        assert_eq!(linear_point(&c, 1), Point4::new(6, 0, 0, 0));
        assert_eq!(linear_point(&c, 3), Point4::new(5, 1, 0, 0));
        assert_eq!(linear_point(&c, 6), Point4::new(5, 0, 1, 0));
    }

    #[test]
    fn packet_origin_offsets_by_first() {
        let p = MatrixPacket {
            chunk: chunk(),
            first: 4,
            batch: MatrixBatch::Sparse(vec![]),
        };
        assert_eq!(p.origin_of(0), Point4::new(6, 1, 0, 0));
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let dense = MatrixBatch::Dense(vec![CoMatrix::zeros(32); 3]);
        assert_eq!(dense.wire_size(32), 3 * SparseCoMatrix::dense_wire_size(32));
        let piece = Piece {
            chunk: chunk(),
            slice: SliceKey { t: 0, z: 0 },
            data: vec![0; 56],
        };
        assert_eq!(piece.wire_size(), 144);
    }
}
