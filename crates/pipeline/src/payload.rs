//! Typed buffer payloads exchanged between the application filters.
//!
//! Each payload knows its **wire size** — the bytes that would cross the
//! network between non-co-located filters. The threaded engine uses this
//! for byte accounting; the flow model uses the same formulas so the
//! simulator and the real pipeline agree on communication volume.
//!
//! The packets the texture filters emit are addressed by region, not by
//! element: a [`MatrixPacket`] or a [`ParamPacket`] names its chunk and the
//! linear index `first` of its first item in the chunk's owned-output
//! block, and the chunk plan implies every other position. So a parameter
//! packet crosses the wire as a 185-byte head plus 8 B per value, and its
//! [`ParamPacket::wire_size`] is that encoded length exactly; the other
//! payloads' `HEADER_BYTES` are estimates of their heads.

use haralick::coocc::CoMatrix;
use haralick::features::Feature;
use haralick::sparse::SparseCoMatrix;
use haralick::volume::{Dims4, Point4, Region4};
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

    /// Wire size.
    pub fn wire_size(&self, levels: u16) -> usize {
        self.batch.wire_size(levels) + Self::HEADER_BYTES
    }
}

/// One TEXTURE→OUTPUT packet: values of a single Haralick parameter for a
/// run of consecutive ROIs of one chunk.
///
/// Like a [`MatrixPacket`], it carries no positions: the chunk plan fixes
/// them. The values run over `chunk.owned_output` in x-fastest order from
/// linear index `first`, and [`ParamPacket::points`] recovers each value's
/// output position. On the wire a packet is its head plus 8 B per value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamPacket {
    /// The producing chunk.
    pub chunk: Chunk,
    /// Which parameter.
    pub feature: Feature,
    /// Linear index (x-fastest within `chunk.owned_output`) of the first
    /// value's ROI origin.
    pub first: usize,
    /// The values, in linear owned-output order starting at `first`.
    pub values: Vec<f64>,
}

impl ParamPacket {
    /// Bytes of the head a parameter packet carries on the wire: the chunk
    /// (168), `first` (8), the feature (1) and the value count (8).
    pub const HEADER_BYTES: usize = 185;

    /// Encoded length of a packet of `count` values. The threaded engine
    /// meters packets with it ([`ParamPacket::wire_size`]) and the
    /// simulator prices them with it (`Workload::param_packet_bytes`).
    pub const fn wire_len(count: usize) -> usize {
        Self::HEADER_BYTES + 8 * count
    }

    /// Wire size: exactly the encoded length.
    pub fn wire_size(&self) -> usize {
        Self::wire_len(self.values.len())
    }

    /// Global ROI origin of each value, in value order: `chunk.owned_output`
    /// walked x-fastest from linear index `first`.
    pub fn points(&self) -> impl Iterator<Item = Point4> {
        let Region4 { origin: o, size: s } = self.chunk.owned_output;
        let n = self.values.len();
        // `point_of` divides by the extents; a non-empty run inside its
        // block has none that is zero.
        let mut at = if n == 0 {
            Point4::ZERO
        } else {
            s.point_of(self.first)
        };
        (0..n).map(move |_| {
            let p = Point4::new(o.x + at.x, o.y + at.y, o.z + at.z, o.t + at.t);
            at.x += 1;
            if at.x == s.x {
                at.x = 0;
                at.y += 1;
                if at.y == s.y {
                    at.y = 0;
                    at.z += 1;
                    if at.z == s.z {
                        at.z = 0;
                        at.t += 1;
                    }
                }
            }
            p
        })
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

    fn chunk() -> Chunk {
        Chunk {
            grid_pos: Point4::new(1, 0, 0, 0),
            id: 1,
            owned_output: Region4::new(Point4::new(5, 0, 0, 0), Dims4::new(3, 2, 2, 1)),
            input: Region4::new(Point4::new(5, 0, 0, 0), Dims4::new(8, 7, 3, 2)),
        }
    }

    fn packet(first: usize, len: usize) -> ParamPacket {
        ParamPacket {
            chunk: chunk(),
            feature: Feature::Entropy,
            first,
            values: vec![0.0; len],
        }
    }

    #[test]
    fn points_walk_owned_output_in_x_fastest_order() {
        let c = chunk();
        let points: Vec<Point4> = packet(0, c.rois()).points().collect();
        assert_eq!(points, c.owned_output.points().collect::<Vec<_>>());
        assert_eq!(points[0], Point4::new(5, 0, 0, 0));
        assert_eq!(points[1], Point4::new(6, 0, 0, 0));
        assert_eq!(points[3], Point4::new(5, 1, 0, 0));
        assert_eq!(points[6], Point4::new(5, 0, 1, 0));
    }

    #[test]
    fn packet_origin_offsets_by_first() {
        let p = packet(4, 3);
        let points: Vec<Point4> = p.points().collect();
        assert_eq!(
            points,
            [
                Point4::new(6, 1, 0, 0),
                Point4::new(7, 1, 0, 0),
                Point4::new(5, 0, 1, 0)
            ]
        );
        assert_eq!(packet(12, 0).points().count(), 0);
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
        assert_eq!(packet(0, 5).wire_size(), ParamPacket::HEADER_BYTES + 40);
    }
}
