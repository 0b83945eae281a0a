//! The pipeline's payload decoders return a typed error, and never panic,
//! on any bytes a peer could send: byte soup under every payload tag, every
//! strict prefix of a valid encoding, and one-byte corruptions of valid
//! encodings. A packet they do accept addresses only positions inside its
//! chunk's owned-output block.
//!
//! Every input goes through [`PayloadCodec::decode`] on the registry the
//! transport uses ([`payload_codec`]). The inputs come from an in-file
//! generator with fixed seeds, so the suite needs no dev-dependency, starts
//! no thread, and a failure names the case that reproduces it.

use datacutter::{DataBuffer, PayloadCodec};
use haralick::coocc::CoMatrix;
use haralick::features::Feature;
use haralick::sparse::SparseCoMatrix;
use haralick::volume::{Dims4, Point4, Region4};
use mri::chunks::Chunk;
use mri::raw::RawVolume;
use mri::store::SliceKey;
use pipeline::codecs::payload_codec;
use pipeline::payload::{ChunkData, FeatureVolume, MatrixBatch, MatrixPacket, ParamPacket, Piece};

const CASES: u32 = 2_000;

/// The Numerical Recipes LCG; the high half of the state is the sample.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 16
    }

    /// A byte that is zero three times in four, so soup spells small
    /// lengths and extents and reaches past a payload's head.
    fn byte(&mut self) -> u8 {
        let r = self.next();
        if r.is_multiple_of(4) {
            (r >> 2) as u8
        } else {
            0
        }
    }
}

fn chunk() -> Chunk {
    Chunk {
        grid_pos: Point4::new(1, 0, 1, 0),
        id: 5,
        owned_output: Region4::new(Point4::new(3, 0, 2, 0), Dims4::new(2, 2, 1, 2)),
        input: Region4::new(Point4::new(3, 0, 2, 0), Dims4::new(4, 4, 2, 3)),
    }
}

/// One valid encoding per payload type (two for matrix packets): the wire
/// tag and the bytes.
fn valid_encodings(codec: &PayloadCodec) -> Vec<(u16, Vec<u8>)> {
    let c = chunk();
    let dense = CoMatrix::from_parts(2, vec![2, 1, 1, 0], 4).unwrap();
    let sparse = SparseCoMatrix::from_dense(&dense);
    let buffers = [
        DataBuffer::new(
            Piece {
                chunk: c,
                slice: SliceKey { t: 1, z: 2 },
                data: vec![7, 0, 65535, 3],
            },
            0,
            0,
        ),
        DataBuffer::new(
            ChunkData {
                chunk: c,
                raw: RawVolume::new(Dims4::new(2, 2, 1, 1), vec![1, 2, 3, 4]),
            },
            0,
            0,
        ),
        DataBuffer::new(
            MatrixPacket {
                chunk: c,
                first: 1,
                batch: MatrixBatch::Dense(vec![dense.clone(); 2]),
            },
            0,
            0,
        ),
        DataBuffer::new(
            MatrixPacket {
                chunk: c,
                first: 6,
                batch: MatrixBatch::Sparse(vec![sparse; 2]),
            },
            0,
            0,
        ),
        DataBuffer::new(
            ParamPacket {
                chunk: c,
                feature: Feature::Correlation,
                first: 2,
                values: vec![0.5, -1.0, f64::NAN],
            },
            0,
            0,
        ),
        DataBuffer::new(
            FeatureVolume {
                feature: Feature::Contrast,
                dims: Dims4::new(2, 1, 1, 1),
                values: vec![0.0, 1.0],
                min: 0.0,
                max: 1.0,
            },
            0,
            0,
        ),
    ];
    buffers
        .iter()
        .map(|b| codec.encode(b).expect("registered payload"))
        .collect()
}

/// Decodes `bytes` as payload `ptype`. A typed error passes; an accepted
/// packet must address only its chunk's owned-output block.
fn decode(codec: &PayloadCodec, ptype: u16, bytes: &[u8], case: &str) -> bool {
    let Ok(buf) = codec.decode(ptype, bytes, 0, 0) else {
        return false;
    };
    if let Some(p) = buf.downcast::<ParamPacket>() {
        let owned = p.chunk.owned_output;
        assert_eq!(p.points().count(), p.values.len(), "{case}");
        assert!(p.points().all(|at| owned.contains(at)), "{case}");
    }
    if let Some(p) = buf.downcast::<MatrixPacket>() {
        assert!(p.first + p.batch.len() <= p.chunk.rois(), "{case}");
    }
    true
}

#[test]
fn every_strict_prefix_is_an_error_and_the_whole_decodes() {
    let codec = payload_codec();
    for (ptype, bytes) in valid_encodings(&codec) {
        assert!(decode(&codec, ptype, &bytes, "whole"), "tag {ptype}");
        for n in 0..bytes.len() {
            let case = format!("tag {ptype}, prefix of {n} bytes");
            assert!(!decode(&codec, ptype, &bytes[..n], &case), "{case}");
        }
    }
}

#[test]
fn byte_soup_never_panics() {
    let codec = payload_codec();
    let valid = valid_encodings(&codec);
    let mut rng = Lcg(0x5041_594c);
    for case in 0..CASES {
        // Every other case keeps a prefix of a valid encoding, so the soup
        // lands in a payload's body as well as in its head.
        let (ptype, ref bytes) = valid[case as usize % valid.len()];
        let keep = if case % 2 == 0 {
            0
        } else {
            rng.next() as usize % bytes.len()
        };
        let mut soup = bytes[..keep].to_vec();
        let len = rng.next() as usize % 320;
        soup.extend((0..len).map(|_| rng.byte()));
        decode(
            &codec,
            ptype,
            &soup,
            &format!("soup case {case}, tag {ptype}"),
        );
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    let codec = payload_codec();
    let valid = valid_encodings(&codec);
    let mut rng = Lcg(0x464c_4950);
    for case in 0..CASES {
        let (ptype, ref bytes) = valid[case as usize % valid.len()];
        let mut corrupt = bytes.clone();
        let at = rng.next() as usize % corrupt.len();
        let flip = (rng.next() % 255 + 1) as u8;
        corrupt[at] ^= flip;
        let what = format!("case {case}, tag {ptype}: byte {at} ^= {flip:#04x}");
        decode(&codec, ptype, &corrupt, &what);
    }
}
