//! FNV-1a content digesting for raw volumes and dataset regions.
//!
//! The result store (pipeline PR 9, ROADMAP item 2) keys each chunk's
//! feature output by the content of the chunk's *input* region — the
//! owned-output block plus its `ROI − 1` overlap halo. That content
//! reaches the texture filters through the slice cache (RFR reads slices,
//! IIC assembles the overlap region), so digesting the assembled
//! [`crate::raw::RawVolume`] rides the existing read path and costs no
//! extra disk I/O. [`Fnv1a64`] is the shared hasher: 64-bit FNV-1a, the
//! same function the transport layer uses for frame checksums, chosen for
//! its trivial incremental form rather than cryptographic strength (the
//! store is a cache, not a trust boundary — a colliding blob yields a
//! wrong-but-detectable result only if the payload also decodes, and the
//! blob framing carries its own checksum).

use crate::raw::RawVolume;
use crate::store::DistributedDataset;
use haralick::volume::Region4;
use std::io;

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// All multi-byte writes fold in little-endian byte order, matching the
/// `.h4dp`/wire discipline, so a digest recipe documented as a byte
/// sequence is reproducible from any language.
#[derive(Debug, Clone)]
pub struct Fnv1a64 {
    state: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// Starts a digest at the offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Resumes a digest from a previously [`Fnv1a64::finish`]ed state, so a
    /// shared prefix (e.g. a config fingerprint) is folded once and reused
    /// across many per-chunk digests.
    pub fn resume(state: u64) -> Self {
        Self { state }
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Folds a `u16` (little-endian).
    pub fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64`, so 32- and 64-bit builds agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a `u16` slice element-wise (little-endian), without
    /// materializing a byte copy of the data.
    pub fn write_u16s(&mut self, vs: &[u16]) {
        for &v in vs {
            self.write_u16(v);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot digest of a byte slice.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// Digest of a raw volume's extents and voxel content — the content half
/// of a chunk's store key when `vol` is the assembled input (overlap)
/// region the slice cache delivered.
pub fn volume_digest(vol: &RawVolume) -> u64 {
    let mut h = Fnv1a64::new();
    let d = vol.dims();
    h.write_usize(d.x);
    h.write_usize(d.y);
    h.write_usize(d.z);
    h.write_usize(d.t);
    h.write_u16s(vol.as_slice());
    h.finish()
}

/// Digest of one region of a disk-resident dataset, read through the
/// store's subregion path. Offline tooling (and the incremental follow-up
/// example) uses this to predict which chunks a dataset edit invalidates
/// without running the pipeline: a chunk recomputes iff the digest of its
/// input region changed.
///
/// # Errors
/// The region is out of bounds or a slice read fails.
pub fn region_digest(ds: &DistributedDataset, region: Region4) -> io::Result<u64> {
    Ok(volume_digest(&ds.read_region(region)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use haralick::volume::Dims4;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Standard 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_writes_equal_one_shot() {
        let mut h = Fnv1a64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
        let mut h16 = Fnv1a64::new();
        h16.write_u16s(&[0x6f66, 0x626f, 0x7261]);
        assert_eq!(h16.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn volume_digest_depends_on_shape_and_content() {
        let a = RawVolume::new(Dims4::new(2, 2, 1, 1), vec![1, 2, 3, 4]);
        let same = RawVolume::new(Dims4::new(2, 2, 1, 1), vec![1, 2, 3, 4]);
        assert_eq!(volume_digest(&a), volume_digest(&same));
        // Same bytes, different geometry: distinct digests.
        let reshaped = RawVolume::new(Dims4::new(4, 1, 1, 1), vec![1, 2, 3, 4]);
        assert_ne!(volume_digest(&a), volume_digest(&reshaped));
        // Any single-voxel change flips the digest.
        let edited = RawVolume::new(Dims4::new(2, 2, 1, 1), vec![1, 2, 3, 5]);
        assert_ne!(volume_digest(&a), volume_digest(&edited));
    }
}
