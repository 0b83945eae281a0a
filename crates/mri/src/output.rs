//! Output-side data formats (paper §4.3.3).
//!
//! Two sinks exist in the paper's pipeline:
//!
//! * **UnstitchedOutput (USO)** — Haralick parameter values written to disk
//!   *with positional information*, one file per parameter, for downstream
//!   computer-aided-diagnosis post-processing. [`ParameterWriter`] /
//!   [`read_parameter_file`] implement that record format. The writer
//!   syncs its file in the background while records still arrive, so the
//!   commit at the end of a run syncs only the tail.
//! * **JPGImageWriter (JIW)** — parameter maps normalized to `[0, 1]` by the
//!   global min/max (zero → black, one → white) and written as a series of
//!   2D gray-scale images. We substitute lossless PGM (and optionally BMP)
//!   for JPEG to avoid external codec dependencies; the normalize-and-write
//!   path is identical.

use haralick::volume::{Dims4, Point4};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};

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

/// The `InvalidInput` error an image writer returns before creating its
/// file.
fn invalid_image(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Checks that `gray` holds exactly `width × height` pixels.
fn check_pixels(width: usize, height: usize, gray: &[u8]) -> io::Result<()> {
    if width.checked_mul(height) != Some(gray.len()) {
        return Err(invalid_image(format!(
            "pixel buffer of {} bytes does not match a {width}x{height} image",
            gray.len()
        )));
    }
    Ok(())
}

/// Writes an 8-bit binary PGM (`P5`) image.
///
/// # Errors
/// `InvalidInput`, before the file is created, if `gray` is not
/// `width × height` pixels.
pub fn write_pgm(path: &Path, width: usize, height: usize, gray: &[u8]) -> io::Result<()> {
    check_pixels(width, height, gray)?;
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
    let end = width
        .checked_mul(height)
        .and_then(|need| data_start.checked_add(need))
        .ok_or_else(|| bad("PGM dimensions overflow"))?;
    if bytes.len() < end {
        return Err(bad("truncated PGM data"));
    }
    Ok((width, height, bytes[data_start..end].to_vec()))
}

/// Writes an 8-bit gray-scale BMP (palette) image — an alternative output
/// format some downstream viewers prefer.
///
/// # Errors
/// `InvalidInput`, before the file is created, if the width or height does
/// not fit the header's `i32`, the file size its `u32`, or `gray` is not
/// `width × height` pixels.
pub fn write_bmp_gray(path: &Path, width: usize, height: usize, gray: &[u8]) -> io::Result<()> {
    let (Ok(width_field), Ok(height_field)) = (i32::try_from(width), i32::try_from(height)) else {
        return Err(invalid_image(format!(
            "a {width}x{height} image does not fit a BMP header's i32 extents"
        )));
    };
    let row_stride = (width + 3) & !3; // rows padded to 4 bytes
    let palette_size = 256 * 4;
    let data_offset = 14 + 40 + palette_size;
    let file_size = row_stride
        .checked_mul(height)
        .and_then(|data| data.checked_add(data_offset))
        .and_then(|size| u32::try_from(size).ok());
    let Some(file_size) = file_size else {
        return Err(invalid_image(format!(
            "a {width}x{height} BMP exceeds the header's u32 file size"
        )));
    };
    check_pixels(width, height, gray)?;
    let mut w = BufWriter::new(File::create(path)?);
    // BITMAPFILEHEADER
    w.write_all(b"BM")?;
    w.write_all(&file_size.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&(data_offset as u32).to_le_bytes())?;
    // BITMAPINFOHEADER
    w.write_all(&40u32.to_le_bytes())?;
    w.write_all(&width_field.to_le_bytes())?;
    w.write_all(&height_field.to_le_bytes())?;
    w.write_all(&1u16.to_le_bytes())?; // planes
    w.write_all(&8u16.to_le_bytes())?; // bpp
    w.write_all(&0u32.to_le_bytes())?; // no compression
    w.write_all(&(file_size - data_offset as u32).to_le_bytes())?;
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

/// Bytes of one positional record: `x, y, z, t` as `u32`, then the `f64`.
const PARAM_RECORD: usize = 4 * 4 + 8;

/// The parameter writer's buffer: an output file's millions of 24-byte
/// records reach the file in 64 KiB writes.
const PARAM_BUFFER: usize = 64 << 10;

/// Records between two points at which [`ParameterWriter::push`] starts a
/// background sync: 3 MiB of records.
const RECORDS_PER_SYNC: u64 = 1 << 17;

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
///
/// Durability overlaps the scan: every `RECORDS_PER_SYNC` records (3 MiB),
/// `push` hands `sync_data` on a duplicate handle to a short-lived thread,
/// unless the previous one is still running — at most one sync is in
/// flight, and `push` never waits for one. So `finish` syncs only what
/// arrived since the last sync, and while each sync ends within the next
/// cadence a writer holds at most about two cadences (6 MiB) unsynced in
/// the page cache, plus its 64 KiB buffer.
pub struct ParameterWriter {
    w: BufWriter<File>,
    dims: Dims4,
    records: u64,
    /// The background sync started last, until it is joined.
    sync: Option<JoinHandle<io::Result<()>>>,
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
        let mut w = BufWriter::with_capacity(PARAM_BUFFER, File::create(&tmp)?);
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
            sync: None,
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

    /// Appends one positional record, and every `RECORDS_PER_SYNC` records
    /// starts a background sync of what the file holds so far.
    ///
    /// # Errors
    /// `InvalidInput` if `p` lies outside the output extents — a record
    /// [`read_parameter_file`] would reject — in which case nothing is
    /// written or counted. Otherwise a write error, or the error of an
    /// earlier background sync that this call found finished; the record
    /// has then been written.
    pub fn push(&mut self, p: Point4, value: f64) -> io::Result<()> {
        let mut rec = [0u8; PARAM_RECORD];
        for (at, c) in [p.x, p.y, p.z, p.t].into_iter().enumerate() {
            rec[4 * at..4 * at + 4].copy_from_slice(&(c as u32).to_le_bytes());
        }
        rec[16..].copy_from_slice(&value.to_le_bytes());
        // The check reads `p` through `black_box` so that it does not share
        // the record's loads: the record then stays one 16-byte vector
        // store, which the copy into the buffer below can forward from.
        // Sharing them turns it into four 4-byte stores, and the copy's
        // 16-byte load stalls on them (~5 ns per record).
        if !self.dims.contains(*std::hint::black_box(&p)) {
            return Err(out_of_range(p, self.dims));
        }
        self.w.write_all(&rec)?;
        self.records += 1;
        // The cadence check comes after the copy, away from the record's
        // stores, and the sync point itself is out of line.
        if self.records.is_multiple_of(RECORDS_PER_SYNC) {
            self.sync_point()?;
        }
        Ok(())
    }

    /// Starts `sync_data` on a duplicate handle in a short-lived thread,
    /// unless the previous sync is still running. A finished one is joined
    /// first and its error returned. A duplicate or a thread that cannot be
    /// had skips this point: `finish` syncs the whole file anyway.
    #[cold]
    #[inline(never)]
    fn sync_point(&mut self) -> io::Result<()> {
        if self.sync.as_ref().is_some_and(|s| !s.is_finished()) {
            return Ok(());
        }
        if let Some(done) = self.sync.take() {
            join_sync(done)?;
        }
        let Ok(file) = self.w.get_ref().try_clone() else {
            return Ok(());
        };
        self.sync = thread::Builder::new()
            .name("h4dp-sync".into())
            .spawn(move || file.sync_data())
            .ok();
        Ok(())
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Joins the background sync, writes out the buffer, syncs the file's
    /// tail, closes it and atomically renames it to the final path — in that
    /// order, so the file takes its final name only once all of it is durable.
    ///
    /// A background sync's error is returned and nothing is renamed: the
    /// duplicate handle shares the file description, so an error that sync
    /// consumed would not be reported again by the final `sync_all`.
    ///
    /// Dropping the writer without calling `finish` leaves only the `.tmp`
    /// file on disk; a sync still running then ends on its own.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(sync) = self.sync.take() {
            join_sync(sync)?;
        }
        let f = self.w.into_inner()?;
        f.sync_all()?;
        drop(f);
        fs::rename(&self.tmp, &self.path)
    }
}

/// Joins a background sync: its own error, or its panic as an error.
fn join_sync(sync: JoinHandle<io::Result<()>>) -> io::Result<()> {
    sync.join()
        .unwrap_or_else(|_| Err(io::Error::other("background parameter-file sync panicked")))
}

/// The error [`ParameterWriter::push`] returns for a point outside `dims`;
/// kept out of line so the record path stays a few register moves.
#[cold]
fn out_of_range(p: Point4, dims: Dims4) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("record position {p:?} outside output extents {dims:?}"),
    )
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
    const REC: u64 = PARAM_RECORD as u64;
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
    fn pgm_reader_rejects_overflowing_dimensions() {
        // 2^32 · 2^32 wraps a usize to 0: the header must fail typed, not
        // read back as an empty 2^32 × 2^32 image.
        let p = tmp("overflow.pgm");
        fs::write(&p, b"P5 4294967296 4294967296 255\n").unwrap();
        let e = read_pgm(&p).expect_err("must be rejected");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("overflow"), "{e}");
    }

    /// Asserts `result` is the `InvalidInput` error naming `what`, and that
    /// the writer left no file at `p`.
    fn assert_refused(result: io::Result<()>, p: &Path, what: &str) {
        let e = result.expect_err("must be refused");
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains(what), "{e}");
        assert!(!p.exists(), "a refused image must write nothing");
    }

    #[test]
    fn pgm_writer_refuses_wrong_pixel_count() {
        let p = tmp("short.pgm");
        assert_refused(write_pgm(&p, 4, 4, &[1, 2, 3]), &p, "pixel buffer");
    }

    #[test]
    fn bmp_writer_refuses_wrong_pixel_count() {
        let p = tmp("short.bmp");
        assert_refused(write_bmp_gray(&p, 4, 4, &[1, 2, 3]), &p, "pixel buffer");
    }

    #[test]
    fn bmp_writer_refuses_file_size_past_u32() {
        // 65 536 rows of 65 536 bytes: 4 GiB of pixels, past the size field.
        let p = tmp("huge.bmp");
        assert_refused(
            write_bmp_gray(&p, 1 << 16, 1 << 16, &[]),
            &p,
            "u32 file size",
        );
    }

    #[test]
    fn bmp_writer_refuses_width_past_i32() {
        // One 2^31-byte row fits the u32 file size but not the i32 width.
        let p = tmp("wide.bmp");
        assert_refused(write_bmp_gray(&p, 1 << 31, 1, &[]), &p, "i32 extents");
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
    fn parameter_file_bytes_span_several_buffers() {
        // 3 000 records are 72 000 bytes, more than one writer buffer.
        let p = tmp("bytes.h4dp");
        let dims = Dims4::new(10, 10, 6, 5);
        let records: Vec<(Point4, f64)> = dims
            .region()
            .points()
            .enumerate()
            .map(|(i, pt)| (pt, i as f64 / 7.0 - 100.0))
            .collect();
        let mut w = ParameterWriter::create(&p, "idm", dims).unwrap();
        for &(pt, value) in &records {
            w.push(pt, value).unwrap();
        }
        assert_eq!(w.records(), 3_000);
        w.finish().unwrap();
        let expect = expected_file("idm", dims, &records);
        assert!(expect.len() > PARAM_BUFFER);
        assert_eq!(fs::read(&p).unwrap(), expect);
    }

    /// The bytes a writer produces for `name` over `dims` given `records`.
    fn expected_file(name: &str, dims: Dims4, records: &[(Point4, f64)]) -> Vec<u8> {
        let mut expect = Vec::new();
        expect.extend_from_slice(b"H4DP");
        expect.extend_from_slice(&(name.len() as u32).to_le_bytes());
        expect.extend_from_slice(name.as_bytes());
        for d in [dims.x, dims.y, dims.z, dims.t] {
            expect.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &(pt, value) in records {
            for c in [pt.x, pt.y, pt.z, pt.t] {
                expect.extend_from_slice(&(c as u32).to_le_bytes());
            }
            expect.extend_from_slice(&value.to_le_bytes());
        }
        expect
    }

    #[test]
    fn background_syncs_leave_the_bytes_unchanged() {
        // Three sync points and a tail: 393 221 records, 9.4 MB.
        let p = tmp("synced.h4dp");
        let dims = Dims4::new(64, 64, 10, 10);
        let n = 3 * RECORDS_PER_SYNC as usize + 5;
        let records: Vec<(Point4, f64)> = dims
            .region()
            .points()
            .take(n)
            .enumerate()
            .map(|(i, pt)| (pt, i as f64 * 0.25 - 3.0))
            .collect();
        let mut w = ParameterWriter::create(&p, "contrast", dims).unwrap();
        for (i, &(pt, value)) in records.iter().enumerate() {
            assert_eq!(w.sync.is_some(), i as u64 >= RECORDS_PER_SYNC, "at {i}");
            w.push(pt, value).unwrap();
        }
        assert_eq!(w.records(), n as u64);
        w.finish().unwrap();
        assert_eq!(
            fs::read(&p).unwrap(),
            expected_file("contrast", dims, &records)
        );
    }

    #[test]
    fn writer_dropped_during_a_sync_leaves_only_tmp() {
        let p = tmp("dropped_syncing.h4dp");
        let dims = Dims4::new(2, 1, 1, 1);
        let mut w = ParameterWriter::create(&p, "asm", dims).unwrap();
        w.push(Point4::ZERO, 1.0).unwrap();
        let tmp_path = w.tmp_path().to_path_buf();
        // A sync held in flight until the writer is gone.
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let (done, synced) = std::sync::mpsc::channel();
        let file = w.w.get_ref().try_clone().unwrap();
        w.sync = Some(thread::spawn(move || {
            wait.recv().unwrap();
            let r = file.sync_data();
            done.send(r.is_ok()).unwrap();
            r
        }));
        drop(w);
        go.send(()).unwrap();
        assert!(synced.recv().unwrap(), "the orphaned sync must still run");
        assert!(!p.exists(), "no file may appear under the final name");
        assert!(tmp_path.exists(), "the .tmp residue identifies the crash");
    }

    #[test]
    fn finish_returns_a_background_sync_failure_and_renames_nothing() {
        let p = tmp("sync_failed.h4dp");
        let dims = Dims4::new(1, 1, 1, 1);
        for (failing, what) in [
            (
                thread::spawn(|| Err(io::Error::other("disk gone"))),
                "disk gone",
            ),
            (
                thread::spawn(|| -> io::Result<()> { panic!("sync thread died") }),
                "panicked",
            ),
        ] {
            let mut w = ParameterWriter::create(&p, "idm", dims).unwrap();
            w.push(Point4::ZERO, 1.0).unwrap();
            let tmp_path = w.tmp_path().to_path_buf();
            w.sync = Some(failing);
            let e = w.finish().expect_err("the sync's failure must surface");
            assert!(e.to_string().contains(what), "{e}");
            assert!(!p.exists(), "a failed sync must not commit the file");
            assert!(tmp_path.exists());
        }
    }

    #[test]
    fn a_failed_sync_fails_the_push_at_the_next_sync_point() {
        let p = tmp("sync_failed_push.h4dp");
        let dims = Dims4::new(64, 64, 8, 4); // 2^17 positions
        let mut w = ParameterWriter::create(&p, "idm", dims).unwrap();
        let failed = thread::spawn(|| Err(io::Error::other("disk gone")));
        while !failed.is_finished() {
            thread::yield_now();
        }
        w.sync = Some(failed);
        let mut points = dims.region().points();
        for pt in points.by_ref().take(RECORDS_PER_SYNC as usize - 1) {
            w.push(pt, 1.0).unwrap();
        }
        let e = w.push(points.next().unwrap(), 1.0).unwrap_err();
        assert!(e.to_string().contains("disk gone"), "{e}");
        assert_eq!(w.records(), RECORDS_PER_SYNC, "the record was written");
    }

    #[test]
    fn out_of_range_push_is_refused_and_writes_nothing() {
        // A coordinate past the extents — or one a `u32` cast would have
        // truncated into range — is refused before any byte is written.
        let p = tmp("refused.h4dp");
        let dims = Dims4::new(2, 2, 1, 1);
        let mut w = ParameterWriter::create(&p, "asm", dims).unwrap();
        for (i, pt) in dims.region().points().enumerate().take(2) {
            w.push(pt, i as f64).unwrap();
        }
        for bad in [Point4::new(2, 0, 0, 0), Point4::new(0, 0, 0, 1 << 32)] {
            let err = w.push(bad, 9.0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("outside output extents"), "{err}");
            assert_eq!(w.records(), 2, "a refused record was counted");
        }
        for (i, pt) in dims.region().points().enumerate().skip(2) {
            w.push(pt, i as f64).unwrap();
        }
        w.finish().unwrap();
        let data = read_parameter_file(&p).unwrap();
        assert!(data.complete, "in-range records must read back complete");
        assert_eq!(data.values, [0.0, 1.0, 2.0, 3.0]);
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
