//! Output-side data formats (paper §4.3.3).
//!
//! Two sinks exist in the paper's pipeline:
//!
//! * **UnstitchedOutput (USO)** — Haralick parameter values written to disk
//!   *with positional information*, one file per parameter, for downstream
//!   computer-aided-diagnosis post-processing. [`ParameterWriter`] /
//!   [`read_parameter_file`] implement that record format.
//! * **JPGImageWriter (JIW)** — parameter maps normalized to `[0, 1]` by the
//!   global min/max (zero → black, one → white) and written as a series of
//!   2D gray-scale images. We substitute lossless PGM (and optionally BMP)
//!   for JPEG to avoid external codec dependencies; the normalize-and-write
//!   path is identical.

use haralick::volume::{Dims4, Point4};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Normalizes values to `0..=255` gray using the given min/max: `lo` maps to
/// black, `hi` to white, a degenerate range to black.
pub fn normalize_to_gray(values: &[f64], lo: f64, hi: f64) -> Vec<u8> {
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                0
            } else {
                (((v - lo) / span).clamp(0.0, 1.0) * 255.0).round() as u8
            }
        })
        .collect()
}

/// Writes an 8-bit binary PGM (`P5`) image.
pub fn write_pgm(path: &Path, width: usize, height: usize, gray: &[u8]) -> io::Result<()> {
    assert_eq!(
        gray.len(),
        width * height,
        "pixel buffer does not match size"
    );
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P5\n{width} {height}\n255\n")?;
    w.write_all(gray)?;
    w.flush()
}

/// Reads an 8-bit binary PGM (`P5`) image; returns `(width, height, pixels)`.
pub fn read_pgm(path: &Path) -> io::Result<(usize, usize, Vec<u8>)> {
    let mut bytes = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    // Parse "P5 <w> <h> <max>\n" allowing arbitrary whitespace.
    let mut pos = 0usize;
    let mut token = || -> io::Result<String> {
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(bad("truncated PGM header"));
        }
        Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
    };
    if token()? != "P5" {
        return Err(bad("not a binary PGM"));
    }
    let width: usize = token()?.parse().map_err(|_| bad("bad width"))?;
    let height: usize = token()?.parse().map_err(|_| bad("bad height"))?;
    let maxv: usize = token()?.parse().map_err(|_| bad("bad maxval"))?;
    if maxv != 255 {
        return Err(bad("only 8-bit PGM supported"));
    }
    let data_start = pos + 1; // single whitespace after maxval
    let need = width * height;
    if bytes.len() < data_start + need {
        return Err(bad("truncated PGM data"));
    }
    Ok((width, height, bytes[data_start..data_start + need].to_vec()))
}

/// Writes an 8-bit gray-scale BMP (palette) image — an alternative output
/// format some downstream viewers prefer.
pub fn write_bmp_gray(path: &Path, width: usize, height: usize, gray: &[u8]) -> io::Result<()> {
    assert_eq!(
        gray.len(),
        width * height,
        "pixel buffer does not match size"
    );
    let row_stride = (width + 3) & !3; // rows padded to 4 bytes
    let palette_size = 256 * 4;
    let data_offset = 14 + 40 + palette_size;
    let file_size = data_offset + row_stride * height;
    let mut w = BufWriter::new(File::create(path)?);
    // BITMAPFILEHEADER
    w.write_all(b"BM")?;
    w.write_all(&(file_size as u32).to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&(data_offset as u32).to_le_bytes())?;
    // BITMAPINFOHEADER
    w.write_all(&40u32.to_le_bytes())?;
    w.write_all(&(width as i32).to_le_bytes())?;
    w.write_all(&(height as i32).to_le_bytes())?;
    w.write_all(&1u16.to_le_bytes())?; // planes
    w.write_all(&8u16.to_le_bytes())?; // bpp
    w.write_all(&0u32.to_le_bytes())?; // no compression
    w.write_all(&((row_stride * height) as u32).to_le_bytes())?;
    w.write_all(&2835u32.to_le_bytes())?; // 72 dpi
    w.write_all(&2835u32.to_le_bytes())?;
    w.write_all(&256u32.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    // Gray palette.
    for i in 0..=255u8 {
        w.write_all(&[i, i, i, 0])?;
    }
    // Pixel rows, bottom-up, padded.
    let pad = vec![0u8; row_stride - width];
    for y in (0..height).rev() {
        w.write_all(&gray[y * width..(y + 1) * width])?;
        w.write_all(&pad)?;
    }
    w.flush()
}

const PARAM_MAGIC: &[u8; 4] = b"H4DP";

/// Streaming writer for a Haralick parameter output file: a header (magic,
/// parameter name, output extents) followed by `(x, y, z, t, value)` records
/// in arbitrary arrival order — exactly what the USO filter receives from
/// the texture filters.
///
/// Output is **crash-clean**: all writing goes to `<path>.tmp`, and the file
/// only appears under its final name when [`ParameterWriter::finish`]
/// atomically renames it. A run that dies mid-write — filter error, panic,
/// process kill — leaves at worst a `.tmp` file behind, never a truncated
/// file under the real name that downstream tooling could mistake for a
/// complete result.
pub struct ParameterWriter {
    w: BufWriter<File>,
    dims: Dims4,
    records: u64,
    tmp: PathBuf,
    path: PathBuf,
}

impl ParameterWriter {
    /// Creates `<path>.tmp` and writes the header. The final `path` is not
    /// touched until [`ParameterWriter::finish`].
    pub fn create(path: &Path, name: &str, dims: Dims4) -> io::Result<Self> {
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(PARAM_MAGIC)?;
        let name_bytes = name.as_bytes();
        w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        w.write_all(name_bytes)?;
        for d in [dims.x, dims.y, dims.z, dims.t] {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        Ok(Self {
            w,
            dims,
            records: 0,
            tmp,
            path: path.to_path_buf(),
        })
    }

    /// The final path the file will be renamed to by
    /// [`ParameterWriter::finish`].
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The temporary path being written until `finish`.
    pub fn tmp_path(&self) -> &Path {
        &self.tmp
    }

    /// Appends one positional record.
    pub fn push(&mut self, p: Point4, value: f64) -> io::Result<()> {
        debug_assert!(self.dims.contains(p), "record position out of range");
        for c in [p.x, p.y, p.z, p.t] {
            self.w.write_all(&(c as u32).to_le_bytes())?;
        }
        self.w.write_all(&value.to_le_bytes())?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes, closes the temporary file and atomically renames it to the
    /// final path. Dropping the writer without calling `finish` leaves only
    /// the `.tmp` file on disk.
    pub fn finish(self) -> io::Result<()> {
        let f = self.w.into_inner()?;
        f.sync_all()?;
        drop(f);
        fs::rename(&self.tmp, &self.path)
    }
}

/// Reads a parameter file back: returns the parameter name, output extents,
/// and a dense value volume. Positions never written hold `f64::NAN`;
/// `complete` reports whether every position was covered exactly once.
pub struct ParameterData {
    /// Parameter name from the header.
    pub name: String,
    /// Output extents.
    pub dims: Dims4,
    /// Dense values in x-fastest order (`NaN` where no record arrived).
    pub values: Vec<f64>,
    /// Whether every position received exactly one record.
    pub complete: bool,
}

/// `read_exact` with end-of-file mapped to a typed `InvalidData` error
/// naming the structure that was cut short.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::InvalidData, format!("truncated {what}"))
        } else {
            e
        }
    })
}

/// Parses a file produced by [`ParameterWriter`].
///
/// The fixed record size makes truncation detectable from the file length
/// alone: a file whose payload is not a whole number of records was cut off
/// mid-record and is rejected with a typed `InvalidData` error rather than
/// silently returned shorter-but-"valid". Truncation at a record boundary
/// is indistinguishable from a partial run and surfaces as `complete ==
/// false`, exactly like any other coverage gap.
pub fn read_parameter_file(path: &Path) -> io::Result<ParameterData> {
    const REC: u64 = (4 * 4 + 8) as u64;
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut magic = [0u8; 4];
    read_exact_or(&mut r, &mut magic, "header")?;
    if &magic != PARAM_MAGIC {
        return Err(bad("bad magic".into()));
    }
    let mut len4 = [0u8; 4];
    read_exact_or(&mut r, &mut len4, "header")?;
    let name_len = u32::from_le_bytes(len4) as usize;
    if name_len > 4096 {
        return Err(bad("unreasonable name length".into()));
    }
    let mut name_bytes = vec![0u8; name_len];
    read_exact_or(&mut r, &mut name_bytes, "header")?;
    let name = String::from_utf8(name_bytes).map_err(|_| bad("name not UTF-8".into()))?;
    let mut d = [0usize; 4];
    for v in &mut d {
        let mut b = [0u8; 8];
        read_exact_or(&mut r, &mut b, "header")?;
        *v = u64::from_le_bytes(b) as usize;
    }
    // Cross-check the header extents before allocating a dense volume from
    // them: a corrupt header must fail typed, not abort on allocation.
    let total = d.iter().try_fold(1u64, |acc, &v| acc.checked_mul(v as u64));
    match total {
        Some(n) if n <= (1 << 31) => {}
        _ => {
            return Err(bad(format!(
                "unreasonable output extents {}x{}x{}x{} in header",
                d[0], d[1], d[2], d[3]
            )))
        }
    }
    let dims = Dims4::new(d[0], d[1], d[2], d[3]);
    // The payload after the header must be a whole number of records.
    let header_len = 4 + 4 + name_len as u64 + 4 * 8;
    let payload = file_len.saturating_sub(header_len);
    if payload % REC != 0 {
        return Err(bad(format!(
            "file size {file_len} leaves a truncated trailing record ({} stray bytes)",
            payload % REC
        )));
    }
    let expected_records = payload / REC;
    let mut values = vec![f64::NAN; dims.len()];
    let mut seen = vec![false; dims.len()];
    let mut complete = true;
    let mut rec = [0u8; REC as usize];
    for _ in 0..expected_records {
        read_exact_or(&mut r, &mut rec, "trailing record")?;
        let c = |i: usize| u32::from_le_bytes(rec[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
        let p = Point4::new(c(0), c(1), c(2), c(3));
        if !dims.contains(p) {
            return Err(bad("record position out of range".into()));
        }
        let v = f64::from_le_bytes(rec[16..24].try_into().unwrap());
        let idx = dims.index(p);
        if seen[idx] {
            complete = false; // duplicate delivery
        }
        seen[idx] = true;
        values[idx] = v;
    }
    if seen.iter().any(|&s| !s) {
        complete = false;
    }
    Ok(ParameterData {
        name,
        dims,
        values,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("h4d_out_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(tag)
    }

    #[test]
    fn normalize_maps_extremes() {
        let g = normalize_to_gray(&[1.0, 2.0, 3.0], 1.0, 3.0);
        assert_eq!(g, vec![0, 128, 255]);
    }

    #[test]
    fn normalize_degenerate_range_is_black() {
        let g = normalize_to_gray(&[5.0, 5.0], 5.0, 5.0);
        assert_eq!(g, vec![0, 0]);
    }

    #[test]
    fn normalize_clamps_outliers() {
        let g = normalize_to_gray(&[-10.0, 100.0], 0.0, 1.0);
        assert_eq!(g, vec![0, 255]);
    }

    #[test]
    fn pgm_roundtrip() {
        let p = tmp("roundtrip.pgm");
        let pixels: Vec<u8> = (0..12).map(|i| (i * 20) as u8).collect();
        write_pgm(&p, 4, 3, &pixels).unwrap();
        let (w, h, back) = read_pgm(&p).unwrap();
        assert_eq!((w, h), (4, 3));
        assert_eq!(back, pixels);
    }

    #[test]
    fn pgm_rejects_garbage() {
        let p = tmp("garbage.pgm");
        fs::write(&p, b"not a pgm at all").unwrap();
        assert!(read_pgm(&p).is_err());
    }

    #[test]
    fn bmp_has_valid_header_and_size() {
        let p = tmp("img.bmp");
        let pixels: Vec<u8> = vec![7; 5 * 3];
        write_bmp_gray(&p, 5, 3, &pixels).unwrap();
        let bytes = fs::read(&p).unwrap();
        assert_eq!(&bytes[..2], b"BM");
        let declared = u32::from_le_bytes(bytes[2..6].try_into().unwrap()) as usize;
        assert_eq!(declared, bytes.len(), "BMP size field mismatch");
        // 8 rows of stride 8 after a 14+40+1024 header.
        assert_eq!(bytes.len(), 14 + 40 + 1024 + 8 * 3);
    }

    #[test]
    fn parameter_file_roundtrip_in_scrambled_order() {
        let p = tmp("param.h4dp");
        let dims = Dims4::new(3, 2, 2, 1);
        let mut w = ParameterWriter::create(&p, "contrast", dims).unwrap();
        // Push in reverse order: arrival order must not matter.
        let pts: Vec<Point4> = dims.region().points().collect();
        for (i, &pt) in pts.iter().enumerate().rev() {
            w.push(pt, i as f64 * 0.5).unwrap();
        }
        assert_eq!(w.records(), dims.len() as u64);
        w.finish().unwrap();
        let data = read_parameter_file(&p).unwrap();
        assert_eq!(data.name, "contrast");
        assert_eq!(data.dims, dims);
        assert!(data.complete);
        for (i, &pt) in pts.iter().enumerate() {
            assert_eq!(data.values[dims.index(pt)], i as f64 * 0.5);
        }
    }

    #[test]
    fn parameter_writer_is_invisible_until_finish() {
        let p = tmp("atomic.h4dp");
        let dims = Dims4::new(2, 1, 1, 1);
        let mut w = ParameterWriter::create(&p, "contrast", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        assert!(
            !p.exists(),
            "final path must not exist before finish (only {})",
            w.tmp_path().display()
        );
        assert!(w.tmp_path().exists());
        w.push(Point4::new(1, 0, 0, 0), 2.0).unwrap();
        let tmp_path = w.tmp_path().to_path_buf();
        w.finish().unwrap();
        assert!(p.exists(), "finish must land the file under its final name");
        assert!(!tmp_path.exists(), "finish must consume the .tmp file");
        assert!(read_parameter_file(&p).unwrap().complete);
    }

    #[test]
    fn abandoned_parameter_writer_leaves_only_tmp() {
        let p = tmp("abandoned.h4dp");
        let dims = Dims4::new(2, 1, 1, 1);
        let mut w = ParameterWriter::create(&p, "asm", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        let tmp_path = w.tmp_path().to_path_buf();
        // A crash mid-run drops the writer without finish.
        drop(w);
        assert!(
            !p.exists(),
            "no partial file may appear under the final name"
        );
        assert!(tmp_path.exists(), "the .tmp residue identifies the crash");
    }

    #[test]
    fn parameter_file_detects_missing_records() {
        let p = tmp("partial.h4dp");
        let dims = Dims4::new(2, 2, 1, 1);
        let mut w = ParameterWriter::create(&p, "asm", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        w.finish().unwrap();
        let data = read_parameter_file(&p).unwrap();
        assert!(!data.complete);
        assert!(data.values[dims.index(Point4::new(1, 0, 0, 0))].is_nan());
    }

    #[test]
    fn parameter_file_rejects_truncated_trailing_record() {
        let p = tmp("trunc_mid.h4dp");
        let dims = Dims4::new(2, 1, 1, 1);
        let mut w = ParameterWriter::create(&p, "asm", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        w.push(Point4::new(1, 0, 0, 0), 2.0).unwrap();
        w.finish().unwrap();
        // Cut the file mid-record: 10 bytes into the second record.
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() - 14]).unwrap();
        let e = read_parameter_file(&p).err().expect("must be rejected");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("truncated"), "{e}");
    }

    #[test]
    fn parameter_file_truncated_at_record_boundary_reads_incomplete() {
        let p = tmp("trunc_boundary.h4dp");
        let dims = Dims4::new(2, 1, 1, 1);
        let mut w = ParameterWriter::create(&p, "asm", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        w.push(Point4::new(1, 0, 0, 0), 2.0).unwrap();
        w.finish().unwrap();
        // Losing a whole record is indistinguishable from a partial run:
        // parses, but reports the coverage gap.
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() - 24]).unwrap();
        let data = read_parameter_file(&p).unwrap();
        assert!(!data.complete);
        assert!(data.values[dims.index(Point4::new(1, 0, 0, 0))].is_nan());
    }

    #[test]
    fn parameter_file_rejects_truncated_header() {
        let p = tmp("trunc_header.h4dp");
        let dims = Dims4::new(2, 1, 1, 1);
        let mut w = ParameterWriter::create(&p, "asm", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        w.finish().unwrap();
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..10]).unwrap();
        let e = read_parameter_file(&p).err().expect("must be rejected");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("truncated header"), "{e}");
    }

    #[test]
    fn parameter_file_rejects_absurd_header_extents() {
        let p = tmp("absurd_dims.h4dp");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"H4DP");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"asm");
        for _ in 0..4 {
            bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        }
        fs::write(&p, &bytes).unwrap();
        let e = read_parameter_file(&p).err().expect("must be rejected");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("unreasonable output extents"), "{e}");
    }

    #[test]
    fn parameter_file_detects_duplicates() {
        let p = tmp("dup.h4dp");
        let dims = Dims4::new(1, 1, 1, 1);
        let mut w = ParameterWriter::create(&p, "idm", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        w.push(Point4::ZERO, 2.0).unwrap();
        w.finish().unwrap();
        let data = read_parameter_file(&p).unwrap();
        assert!(!data.complete);
    }
}
