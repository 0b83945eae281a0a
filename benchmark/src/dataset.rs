//! Disk-resident datasets without JSON.
//!
//! `mri::store::write_distributed` and `DistributedDataset::open` need a
//! working `serde_json`, which the registry-free build does not have. This
//! module writes the same slice files — `node_00/slice_tTTTT_zZZZZ.raw`,
//! little-endian `u16`, one file per 2D slice — and serves them back through
//! the crate's own [`SliceSource`] trait, so everything above the file read
//! (`SliceCache`, `crop_subrect`, stitching) is the real code.

use haralick::volume::{Dims4, Point4};
use mri::cache::SliceSource;
use mri::raw::RawVolume;
use mri::store::SliceKey;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// The single storage node every benchmark dataset lives on.
fn node_dir(root: &Path) -> PathBuf {
    root.join("node_00")
}

/// Writes `vol` under `root` in `mri::store`'s slice-file layout.
pub fn write_slices(vol: &RawVolume, root: &Path) -> io::Result<()> {
    let dir = node_dir(root);
    fs::create_dir_all(&dir)?;
    let d = vol.dims();
    let mut bytes = Vec::with_capacity(d.x * d.y * 2);
    for t in 0..d.t {
        for z in 0..d.z {
            bytes.clear();
            for &px in vol.slice_2d(z, t) {
                bytes.extend_from_slice(&px.to_le_bytes());
            }
            let mut w = BufWriter::new(File::create(dir.join(SliceKey { t, z }.file_name()))?);
            w.write_all(&bytes)?;
            w.flush()?;
        }
    }
    Ok(())
}

/// Reads whole slices back from a directory written by [`write_slices`].
pub struct SliceFiles {
    dir: PathBuf,
    dims: Dims4,
}

impl SliceFiles {
    /// Opens the dataset at `root`, checking that every slice file exists
    /// with the right length.
    pub fn open(root: &Path, dims: Dims4) -> io::Result<Self> {
        let dir = node_dir(root);
        let want = (dims.x * dims.y * 2) as u64;
        for t in 0..dims.t {
            for z in 0..dims.z {
                let path = dir.join(SliceKey { t, z }.file_name());
                let len = fs::metadata(&path)?.len();
                if len != want {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{} holds {len} bytes, expected {want}", path.display()),
                    ));
                }
            }
        }
        Ok(Self { dir, dims })
    }

    /// Reads a 4D region straight from the slice files with its own cropping
    /// arithmetic — no cache, no `crop_subrect`, no `paste_plane` — so the
    /// verifier and the probes do not depend on the path being measured.
    pub fn read_region_direct(&self, origin: Point4, size: Dims4) -> io::Result<RawVolume> {
        let mut data = Vec::with_capacity(size.len());
        for t in origin.t..origin.t + size.t {
            for z in origin.z..origin.z + size.z {
                let slice = self.load_slice(SliceKey { t, z })?;
                for y in origin.y..origin.y + size.y {
                    let start = y * self.dims.x + origin.x;
                    data.extend_from_slice(&slice[start..start + size.x]);
                }
            }
        }
        Ok(RawVolume::new(size, data))
    }
}

impl SliceSource for SliceFiles {
    fn slice_dims(&self) -> (usize, usize) {
        (self.dims.x, self.dims.y)
    }

    fn load_slice(&self, key: SliceKey) -> io::Result<Vec<u16>> {
        let mut bytes = vec![0u8; self.dims.x * self.dims.y * 2];
        File::open(self.dir.join(key.file_name()))?.read_exact(&mut bytes)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect())
    }
}
