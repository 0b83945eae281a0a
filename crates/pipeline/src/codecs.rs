//! Wire codecs for the application payloads.
//!
//! [`payload_codec`] builds the [`PayloadCodec`] registry every node of a
//! distributed run shares: one numeric type tag per payload struct of
//! [`crate::payload`], with manual little-endian encoding in the same
//! discipline as the `.h4dp` parameter files — fixed-width integers,
//! bit-exact `f64` values, no serializer dependency. Decoders validate
//! every length and invariant (via `CoMatrix::from_parts` /
//! `SparseCoMatrix::from_parts` for matrices) and return descriptive
//! errors, never panic, so a corrupt or mismatched peer surfaces as a
//! typed transport failure.

use crate::payload::{ChunkData, FeatureVolume, MatrixBatch, MatrixPacket, ParamPacket, Piece};
use datacutter::PayloadCodec;
use haralick::coocc::CoMatrix;
use haralick::features::Feature;
use haralick::sparse::{SparseCoMatrix, SparseEntry};
use haralick::volume::{Dims4, Point4, Region4};
use mri::chunks::Chunk;
use mri::raw::RawVolume;
use mri::store::SliceKey;

/// Wire type tag of [`Piece`].
pub const TAG_PIECE: u16 = 1;
/// Wire type tag of [`ChunkData`].
pub const TAG_CHUNK_DATA: u16 = 2;
/// Wire type tag of [`MatrixPacket`].
pub const TAG_MATRIX_PACKET: u16 = 3;
/// Wire type tag of [`ParamPacket`].
pub const TAG_PARAM_PACKET: u16 = 4;
/// Wire type tag of [`FeatureVolume`].
pub const TAG_FEATURE_VOLUME: u16 = 5;

// ---- encode helpers -------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    // Bit pattern, not a decimal rendering: NaN/inf and every LSB of the
    // mantissa survive the trip, keeping distributed output byte-identical.
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point4) {
    put_usize(out, p.x);
    put_usize(out, p.y);
    put_usize(out, p.z);
    put_usize(out, p.t);
}

fn put_dims(out: &mut Vec<u8>, d: Dims4) {
    put_usize(out, d.x);
    put_usize(out, d.y);
    put_usize(out, d.z);
    put_usize(out, d.t);
}

fn put_region(out: &mut Vec<u8>, r: Region4) {
    put_point(out, r.origin);
    put_dims(out, r.size);
}

fn put_chunk(out: &mut Vec<u8>, c: &Chunk) {
    put_point(out, c.grid_pos);
    put_usize(out, c.id);
    put_region(out, c.owned_output);
    put_region(out, c.input);
}

// ---- decode helpers -------------------------------------------------------

/// A bounds-checked little-endian read cursor; every failure is a
/// descriptive `Err(String)`.
struct Cur<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, off: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                format!(
                    "truncated payload: {what} wants {n} bytes at offset {}, {} available",
                    self.off,
                    self.bytes.len() - self.off
                )
            })?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn usize_(&mut self, what: &str) -> Result<usize, String> {
        usize::try_from(self.u64(what)?).map_err(|_| format!("{what} does not fit in usize"))
    }

    /// A length that will be used to allocate: additionally bounded by the
    /// bytes actually remaining (at `min_elem_bytes` per element), so a
    /// corrupt count cannot force a huge allocation before the per-element
    /// reads would fail anyway.
    fn count(&mut self, what: &str, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.usize_(what)?;
        let remaining = self.bytes.len() - self.off;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|need| need > remaining)
        {
            return Err(format!(
                "implausible {what} {n}: only {remaining} payload bytes remain"
            ));
        }
        Ok(n)
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn point(&mut self, what: &str) -> Result<Point4, String> {
        Ok(Point4::new(
            self.usize_(what)?,
            self.usize_(what)?,
            self.usize_(what)?,
            self.usize_(what)?,
        ))
    }

    fn dims(&mut self, what: &str) -> Result<Dims4, String> {
        Ok(Dims4::new(
            self.usize_(what)?,
            self.usize_(what)?,
            self.usize_(what)?,
            self.usize_(what)?,
        ))
    }

    fn region(&mut self, what: &str) -> Result<Region4, String> {
        Ok(Region4::new(self.point(what)?, self.dims(what)?))
    }

    fn chunk(&mut self) -> Result<Chunk, String> {
        Ok(Chunk {
            grid_pos: self.point("chunk grid_pos")?,
            id: self.usize_("chunk id")?,
            owned_output: self.region("chunk owned_output")?,
            input: self.region("chunk input")?,
        })
    }

    fn done(&self) -> Result<(), String> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.off
            ))
        }
    }
}

/// Voxel count of `d` with overflow checking (wire-supplied dims must not
/// be able to wrap a multiplication into a bogus small expectation).
fn checked_len(d: Dims4) -> Result<usize, String> {
    d.x.checked_mul(d.y)
        .and_then(|v| v.checked_mul(d.z))
        .and_then(|v| v.checked_mul(d.t))
        .ok_or_else(|| "dims product overflows".to_string())
}

fn decode_feature(idx: u8) -> Result<Feature, String> {
    Feature::ALL.get(idx as usize).copied().ok_or_else(|| {
        format!(
            "feature index {idx} out of range (0..{})",
            Feature::ALL.len()
        )
    })
}

// ---- per-type codecs ------------------------------------------------------

fn encode_piece(p: &Piece) -> Vec<u8> {
    let mut out = Vec::with_capacity(p.data.len() * 2 + 96);
    put_chunk(&mut out, &p.chunk);
    put_usize(&mut out, p.slice.t);
    put_usize(&mut out, p.slice.z);
    put_usize(&mut out, p.data.len());
    for &v in &p.data {
        put_u16(&mut out, v);
    }
    out
}

fn decode_piece(bytes: &[u8]) -> Result<Piece, String> {
    let mut cur = Cur::new(bytes);
    let chunk = cur.chunk()?;
    let slice = SliceKey {
        t: cur.usize_("slice t")?,
        z: cur.usize_("slice z")?,
    };
    let n = cur.count("piece pixel count", 2)?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(cur.u16("piece pixel")?);
    }
    cur.done()?;
    Ok(Piece { chunk, slice, data })
}

fn encode_chunk_data(c: &ChunkData) -> Vec<u8> {
    let raw = c.raw.to_le_bytes();
    let mut out = Vec::with_capacity(raw.len() + 128);
    put_chunk(&mut out, &c.chunk);
    put_dims(&mut out, c.raw.dims());
    put_usize(&mut out, raw.len());
    out.extend_from_slice(&raw);
    out
}

fn decode_chunk_data(bytes: &[u8]) -> Result<ChunkData, String> {
    let mut cur = Cur::new(bytes);
    let chunk = cur.chunk()?;
    let dims = cur.dims("raw dims")?;
    let len = cur.count("raw byte length", 1)?;
    let expect = checked_len(dims)?
        .checked_mul(2)
        .ok_or_else(|| "dims byte size overflows".to_string())?;
    if len != expect {
        return Err(format!(
            "raw byte length {len} does not match dims ({expect} expected)"
        ));
    }
    let raw_bytes = cur.take(len, "raw voxels")?;
    cur.done()?;
    // from_le_bytes asserts length; the check above makes it unreachable.
    Ok(ChunkData {
        chunk,
        raw: RawVolume::from_le_bytes(dims, raw_bytes),
    })
}

// Also reused by the result store (`crate::store`), which frames matrix
// packets and parameter packets inside its checksummed blobs.
pub(crate) fn encode_matrix_packet(p: &MatrixPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_chunk(&mut out, &p.chunk);
    put_usize(&mut out, p.first);
    match &p.batch {
        MatrixBatch::Dense(ms) => {
            out.push(0);
            put_usize(&mut out, ms.len());
            for m in ms {
                put_u16(&mut out, m.levels());
                put_u64(&mut out, m.total());
                put_usize(&mut out, m.as_slice().len());
                for &c in m.as_slice() {
                    put_u32(&mut out, c);
                }
            }
        }
        MatrixBatch::Sparse(ms) => {
            out.push(1);
            put_usize(&mut out, ms.len());
            for m in ms {
                put_u16(&mut out, m.levels());
                put_u64(&mut out, m.total());
                put_usize(&mut out, m.entries().len());
                for e in m.entries() {
                    out.push(e.i);
                    out.push(e.j);
                    put_u32(&mut out, e.count);
                }
            }
        }
    }
    out
}

pub(crate) fn decode_matrix_packet(bytes: &[u8]) -> Result<MatrixPacket, String> {
    let mut cur = Cur::new(bytes);
    let chunk = cur.chunk()?;
    let first = cur.usize_("packet first index")?;
    let kind = cur.take(1, "batch kind")?[0];
    let count = cur.count("matrix count", 10)?;
    let batch = match kind {
        0 => {
            let mut ms = Vec::with_capacity(count);
            for _ in 0..count {
                let levels = cur.u16("dense levels")?;
                let total = cur.u64("dense total")?;
                let n = cur.count("dense count length", 4)?;
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    counts.push(cur.u32("dense count")?);
                }
                ms.push(CoMatrix::from_parts(levels, counts, total).map_err(|e| e.to_string())?);
            }
            MatrixBatch::Dense(ms)
        }
        1 => {
            let mut ms = Vec::with_capacity(count);
            for _ in 0..count {
                let levels = cur.u16("sparse levels")?;
                let total = cur.u64("sparse total")?;
                let n = cur.count("sparse entry count", 6)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let ij = cur.take(2, "sparse entry")?;
                    entries.push(SparseEntry {
                        i: ij[0],
                        j: ij[1],
                        count: cur.u32("sparse entry count value")?,
                    });
                }
                ms.push(SparseCoMatrix::from_parts(levels, total, entries)?);
            }
            MatrixBatch::Sparse(ms)
        }
        k => return Err(format!("unknown matrix batch kind {k}")),
    };
    cur.done()?;
    Ok(MatrixPacket {
        chunk,
        first,
        batch,
    })
}

pub(crate) fn encode_param_packet(p: &ParamPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(p.points.len() * 40 + 16);
    out.push(p.feature.index() as u8);
    put_usize(&mut out, p.points.len());
    for &pt in p.points.iter() {
        put_point(&mut out, pt);
    }
    put_usize(&mut out, p.values.len());
    for &v in &p.values {
        put_f64(&mut out, v);
    }
    out
}

pub(crate) fn decode_param_packet(bytes: &[u8]) -> Result<ParamPacket, String> {
    let mut cur = Cur::new(bytes);
    let feature = decode_feature(cur.take(1, "feature index")?[0])?;
    let np = cur.count("point count", 32)?;
    let mut points = Vec::with_capacity(np);
    for _ in 0..np {
        points.push(cur.point("param point")?);
    }
    let nv = cur.count("value count", 8)?;
    if nv != np {
        return Err(format!("{nv} values for {np} points"));
    }
    let mut values = Vec::with_capacity(nv);
    for _ in 0..nv {
        values.push(cur.f64("param value")?);
    }
    cur.done()?;
    Ok(ParamPacket {
        feature,
        points: std::sync::Arc::new(points),
        values,
    })
}

fn encode_feature_volume(v: &FeatureVolume) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.values.len() * 8 + 64);
    out.push(v.feature.index() as u8);
    put_dims(&mut out, v.dims);
    put_usize(&mut out, v.values.len());
    for &x in &v.values {
        put_f64(&mut out, x);
    }
    put_f64(&mut out, v.min);
    put_f64(&mut out, v.max);
    out
}

fn decode_feature_volume(bytes: &[u8]) -> Result<FeatureVolume, String> {
    let mut cur = Cur::new(bytes);
    let feature = decode_feature(cur.take(1, "feature index")?[0])?;
    let dims = cur.dims("volume dims")?;
    let n = cur.count("volume value count", 8)?;
    if n != checked_len(dims)? {
        return Err(format!("{n} values do not fill dims"));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(cur.f64("volume value")?);
    }
    let min = cur.f64("volume min")?;
    let max = cur.f64("volume max")?;
    cur.done()?;
    Ok(FeatureVolume {
        feature,
        dims,
        values,
        min,
        max,
    })
}

/// The shared payload registry of the Haralick pipeline: every buffer type
/// that can cross a node boundary, under its stable wire tag.
pub fn payload_codec() -> PayloadCodec {
    let mut c = PayloadCodec::new();
    c.register::<Piece, _, _>(TAG_PIECE, encode_piece, decode_piece);
    c.register::<ChunkData, _, _>(TAG_CHUNK_DATA, encode_chunk_data, decode_chunk_data);
    c.register::<MatrixPacket, _, _>(
        TAG_MATRIX_PACKET,
        encode_matrix_packet,
        decode_matrix_packet,
    );
    c.register::<ParamPacket, _, _>(TAG_PARAM_PACKET, encode_param_packet, decode_param_packet);
    c.register::<FeatureVolume, _, _>(
        TAG_FEATURE_VOLUME,
        encode_feature_volume,
        decode_feature_volume,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use haralick::coocc::CoMatrix;
    use haralick::volume::Region4;

    fn chunk() -> Chunk {
        Chunk {
            grid_pos: Point4::new(1, 2, 0, 0),
            id: 9,
            owned_output: Region4::new(Point4::new(4, 8, 0, 0), Dims4::new(4, 4, 2, 1)),
            input: Region4::new(Point4::new(4, 8, 0, 0), Dims4::new(6, 6, 3, 2)),
        }
    }

    #[test]
    fn piece_roundtrips() {
        let p = Piece {
            chunk: chunk(),
            slice: SliceKey { t: 1, z: 2 },
            data: vec![0, 1, 65535, 42],
        };
        assert_eq!(decode_piece(&encode_piece(&p)).unwrap(), p);
    }

    #[test]
    fn chunk_data_roundtrips_and_validates_length() {
        let dims = Dims4::new(3, 2, 2, 1);
        let c = ChunkData {
            chunk: chunk(),
            raw: RawVolume::new(dims, (0..12).collect()),
        };
        let bytes = encode_chunk_data(&c);
        assert_eq!(decode_chunk_data(&bytes).unwrap(), c);
        // Corrupt the declared dims: typed error, no panic from RawVolume.
        let mut bad = bytes.clone();
        bad[168] = 99; // first dims byte (after the 168-byte chunk header)
        assert!(decode_chunk_data(&bad).is_err());
    }

    #[test]
    fn matrix_packets_roundtrip_dense_and_sparse() {
        // Build a valid (symmetric) matrix through the public constructor
        // path: C(0,0) = 2, C(1,1) = 3, C(1,2) = C(2,1) = 3.
        let mut counts = vec![0u32; 16];
        counts[5] = 3;
        counts[6] = 3;
        counts[9] = 3;
        counts[0] = 2;
        let dense = CoMatrix::from_parts(4, counts, 11).unwrap();
        let sparse = SparseCoMatrix::from_dense(&dense);
        for batch in [
            MatrixBatch::Dense(vec![dense.clone(), dense.clone()]),
            MatrixBatch::Sparse(vec![sparse.clone()]),
        ] {
            let p = MatrixPacket {
                chunk: chunk(),
                first: 7,
                batch,
            };
            assert_eq!(decode_matrix_packet(&encode_matrix_packet(&p)).unwrap(), p);
        }
        // An asymmetric dense matrix with a consistent total: moving C(1,2)'s
        // count onto C(2,1) must be refused, not decoded.
        let mut bytes = encode_matrix_packet(&MatrixPacket {
            chunk: chunk(),
            first: 0,
            batch: MatrixBatch::Dense(vec![dense]),
        });
        // Counts start after chunk (168) + first (8) + kind (1) + count (8)
        // + levels (2) + total (8) + length (8).
        let counts_off = 168 + 8 + 1 + 8 + 2 + 8 + 8;
        bytes[counts_off + 4 * 6] = 0;
        bytes[counts_off + 4 * 9] = 6;
        let err = decode_matrix_packet(&bytes).unwrap_err();
        assert!(
            err.contains("not symmetric") && err.contains("C(1, 2)"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_matrix_totals_are_rejected() {
        let m = CoMatrix::from_parts(2, vec![1, 0, 0, 1], 2).unwrap();
        let p = MatrixPacket {
            chunk: chunk(),
            first: 0,
            batch: MatrixBatch::Dense(vec![m]),
        };
        let mut bytes = encode_matrix_packet(&p);
        // The dense total sits right after chunk (168) + first (8) + kind
        // (1) + count (8) + levels (2).
        let total_off = 168 + 8 + 1 + 8 + 2;
        bytes[total_off] = 77;
        let err = decode_matrix_packet(&bytes).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn param_packet_roundtrips_bit_exact() {
        let p = ParamPacket {
            feature: Feature::Entropy,
            points: std::sync::Arc::new(vec![Point4::new(0, 1, 2, 3), Point4::new(9, 9, 9, 9)]),
            values: vec![0.1 + 0.2, f64::MIN_POSITIVE],
        };
        let back = decode_param_packet(&encode_param_packet(&p)).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.values[0].to_bits(), p.values[0].to_bits());
    }

    #[test]
    fn feature_volume_roundtrips() {
        let v = FeatureVolume {
            feature: Feature::ALL[13],
            dims: Dims4::new(2, 2, 1, 1),
            values: vec![1.0, -2.5, 3.25, 0.0],
            min: -2.5,
            max: 3.25,
        };
        assert_eq!(
            decode_feature_volume(&encode_feature_volume(&v)).unwrap(),
            v
        );
    }

    #[test]
    fn full_registry_dispatches_by_type() {
        let codec = payload_codec();
        assert_eq!(codec.len(), 5);
        let buf = datacutter::DataBuffer::new(
            Piece {
                chunk: chunk(),
                slice: SliceKey { t: 0, z: 0 },
                data: vec![7; 8],
            },
            48,
            9,
        );
        let (ptype, bytes) = codec.encode(&buf).unwrap();
        assert_eq!(ptype, TAG_PIECE);
        let back = codec.decode(ptype, &bytes, 48, 9).unwrap();
        assert_eq!(back.downcast::<Piece>().unwrap().data, vec![7; 8]);
        assert_eq!(back.size_bytes(), 48);
        assert_eq!(back.tag(), 9);
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let p = ParamPacket {
            feature: Feature::ALL[0],
            points: std::sync::Arc::new(vec![Point4::new(1, 1, 1, 1)]),
            values: vec![2.0],
        };
        let bytes = encode_param_packet(&p);
        for cut in 0..bytes.len() {
            assert!(decode_param_packet(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }
}
