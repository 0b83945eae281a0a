//! The DICOM slice reader returns a typed error, and never panics, on any
//! file: every strict prefix of a written slice, byte soup, and one-byte
//! corruptions of a written slice. A file it does accept holds exactly
//! rows × cols pixels.
//!
//! The inputs come from an in-file generator with fixed seeds and fixed
//! sizes, so the suite needs no dev-dependency and a failure names the
//! case that reproduces it. Each property rewrites a file of its own in
//! the temporary directory and reads it through [`mri::dicom::read_slice`].

use mri::dicom::{read_slice, write_slice, DicomError, DicomSlice};
use mri::store::SliceKey;
use std::path::{Path, PathBuf};

const CASES: u32 = 2_000;

/// The Numerical Recipes LCG; the high half of the state is the sample.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 16
    }

    /// A byte biased toward what the element loop dispatches on (tag
    /// halves, VR letters, short lengths, `IS` digits), so soup reaches
    /// past the first element.
    fn byte(&mut self) -> u8 {
        const ALPHABET: &[u8] = b"\x00\x02\x10\x11\x13\x20\x28\x60\xe0\x7f\xff\
                                  USISOWOBCSUIULSQUN0123456789 \x04\x08";
        let r = self.next();
        if r.is_multiple_of(4) {
            r as u8
        } else {
            ALPHABET[r as usize % ALPHABET.len()]
        }
    }
}

fn scratch(name: &str) -> PathBuf {
    let pid = std::process::id();
    std::env::temp_dir().join(format!("h4d_dicom_no_panic_{pid}_{name}.dcm"))
}

/// The bytes of a written 4×4 slice, and its pixels.
fn written_slice(path: &Path) -> (Vec<u8>, Vec<u16>) {
    let pixels: Vec<u16> = (0..16).map(|i| i * 4099).collect();
    write_slice(path, SliceKey { t: 2, z: 1 }, 4, 4, &pixels).unwrap();
    (std::fs::read(path).unwrap(), pixels)
}

/// Writes `bytes` to `path` and reads them back as a slice. The old file is
/// unlinked rather than truncated: a filesystem may write back a truncated
/// and rewritten file on close, which costs a disk write per case.
fn read_bytes(path: &Path, bytes: &[u8]) -> Result<DicomSlice, DicomError> {
    let _ = std::fs::remove_file(path);
    std::fs::write(path, bytes).unwrap();
    read_slice(path)
}

/// A typed error, or a slice whose pixel count matches its geometry.
fn assert_typed(result: Result<DicomSlice, DicomError>, case: &str) {
    if let Ok(s) = result {
        let (rows, cols) = (usize::from(s.rows), usize::from(s.cols));
        assert_eq!(s.pixels.len(), rows * cols, "{case}: {rows}x{cols}");
    }
}

#[test]
fn every_strict_prefix_is_an_error_and_the_whole_reads_back() {
    let path = scratch("prefix");
    let (bytes, pixels) = written_slice(&path);
    let whole = read_bytes(&path, &bytes).expect("the written slice reads back");
    assert_eq!((whole.rows, whole.cols, whole.z, whole.t), (4, 4, 1, 2));
    assert_eq!(whole.pixels, pixels);
    // Pixel Data is the last element, so no strict prefix holds a slice.
    for n in 0..bytes.len() {
        match read_bytes(&path, &bytes[..n]) {
            Err(DicomError::Malformed(_)) => {}
            other => panic!("prefix of {n} bytes gave {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn byte_soup_never_panics() {
    let path = scratch("soup");
    // The 128-byte preamble and the magic: three files in four open with
    // them, so the element loop sees the soup; the fourth is soup throughout.
    let mut header = vec![0u8; 128];
    header.extend_from_slice(b"DICM");
    let mut rng = Lcg(0x4449_434d);
    for case in 0..CASES {
        let mut soup = if case % 4 == 0 {
            Vec::new()
        } else {
            header.clone()
        };
        let len = rng.next() as usize % 256;
        soup.extend((0..len).map(|_| rng.byte()));
        assert_typed(read_bytes(&path, &soup), &format!("soup case {case}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn single_byte_corruption_never_panics() {
    let path = scratch("corrupt");
    let (bytes, _) = written_slice(&path);
    let mut rng = Lcg(0x4443_4d31);
    for case in 0..CASES {
        let mut corrupt = bytes.clone();
        let at = rng.next() as usize % corrupt.len();
        let flip = (rng.next() % 255 + 1) as u8;
        corrupt[at] ^= flip;
        let result = read_bytes(&path, &corrupt);
        assert_typed(result, &format!("case {case}: byte {at} ^= {flip:#04x}"));
    }
    std::fs::remove_file(&path).ok();
}
