//! Property tests for the transport wire format and payload registry.
//!
//! The distributed conformance suite depends on two invariants proved
//! here over generated inputs: every frame survives an encode/decode trip
//! bit-exact (so a multi-process run delivers precisely the bytes the
//! producer emitted), and no truncation or single-byte corruption of a
//! frame stream can panic the decoder — corrupt peers must surface as
//! typed [`WireError`]s the node loop can turn into a root cause.
//!
//! The generated inputs come from an in-file generator with a fixed base
//! seed per property, so the suite needs no dev-dependency and a failing
//! case prints the seed that reproduces it.

use datacutter::transport::wire::{
    encode_frame, encode_frame_cfg, lz_compress, lz_decompress, read_frame, spec_digest,
    write_frame, Frame, WireConfig, WireError, MAX_CREDIT_GRANT, MAX_PAYLOAD_LEN, WIRE_VERSION,
};
use datacutter::{DataBuffer, PayloadCodec};

const CASES: u32 = 256;

/// The Numerical Recipes LCG; the high half of the state is the sample.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 16
    }

    fn u16(&mut self) -> u16 {
        self.next() as u16
    }

    fn u32(&mut self) -> u32 {
        self.next() << 16 | self.next()
    }

    fn u64(&mut self) -> u64 {
        u64::from(self.u32()) << 32 | u64::from(self.u32())
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A value in `lo..=hi`.
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.u64() % (hi - lo + 1) as u64) as usize
    }

    /// `lo..=hi` arbitrary bytes.
    fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        (0..self.in_range(lo, hi))
            .map(|_| self.next() as u8)
            .collect()
    }
}

/// Names the failing case when a property panics inside it.
struct CaseSeed(u32);

impl Drop for CaseSeed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case seed {:#010x}", self.0);
        }
    }
}

/// Runs `property` on `CASES` generators seeded from `base_seed`.
fn for_each_case(base_seed: u32, property: impl Fn(&mut Lcg)) {
    for case in 0..CASES {
        let seed = base_seed.wrapping_add(case.wrapping_mul(0x9e37_79b9));
        let _named_on_panic = CaseSeed(seed);
        property(&mut Lcg(seed));
    }
}

fn arb_frame(rng: &mut Lcg) -> Frame {
    match rng.in_range(0, 4) {
        0 => {
            // Any `u16`, with the handful of versions around the v1/v2
            // boundary drawn often enough to be seen.
            let version = if rng.in_range(0, 3) == 0 {
                rng.in_range(0, 3) as u16
            } else {
                rng.u16()
            };
            let (node, digest, features) = (rng.u32(), rng.u64(), rng.u32());
            Frame::Hello {
                version,
                node,
                digest,
                // The features word is on the wire only for v2+
                // hellos; a v1 hello always decodes to features 0.
                features: if version >= 2 { features } else { 0 },
            }
        }
        1 => Frame::Data {
            stream: rng.u32(),
            dest: rng.u32(),
            tag: rng.u64(),
            size: rng.u64(),
            ptype: rng.u16(),
            payload: rng.bytes(0, 511),
        },
        2 => Frame::Eos {
            stream: rng.u32(),
            dest: rng.u32(),
        },
        3 => Frame::Error {
            origin: rng.u32(),
            // Printable ASCII, `[ -~]{0,200}`.
            message: (0..rng.in_range(0, 200))
                .map(|_| rng.in_range(0x20, 0x7e) as u8 as char)
                .collect(),
        },
        _ => Frame::Credit {
            stream: rng.u32(),
            dest: rng.u32(),
            credits: rng.in_range(1, MAX_CREDIT_GRANT as usize) as u32,
        },
    }
}

/// All four checksum × compression combinations.
fn arb_wire_config(rng: &mut Lcg) -> WireConfig {
    WireConfig {
        checksum: rng.bool(),
        compress: rng.bool(),
    }
}

/// Payloads with long runs and repeated blocks — the shape the LZ pass
/// actually compresses — alongside plain arbitrary bytes.
fn arb_compressible(rng: &mut Lcg) -> Vec<u8> {
    match rng.in_range(0, 2) {
        0 => rng.bytes(0, 511),
        1 => vec![rng.next() as u8; rng.in_range(1, 2047)],
        _ => {
            let block = rng.bytes(1, 31);
            let reps = rng.in_range(1, 63);
            block
                .iter()
                .copied()
                .cycle()
                .take(block.len() * reps)
                .collect()
        }
    }
}

/// Every frame round-trips bit-exact and consumes exactly its own
/// bytes (no silent over- or under-read that would desync the stream).
#[test]
fn frames_roundtrip_bit_exact() {
    for_each_case(0x5749_0001, |rng| {
        let frame = arb_frame(rng);
        let bytes = encode_frame(&frame);
        let mut cur = std::io::Cursor::new(&bytes);
        let back = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(&back, &frame);
        assert_eq!(cur.position() as usize, bytes.len());
    });
}

/// A batched sequence of frames reads back in order, then yields a
/// clean `Ok(None)` at the boundary — the shape of a healthy
/// connection teardown.
#[test]
fn frame_sequences_roundtrip_in_order() {
    for_each_case(0x5749_0002, |rng| {
        let frames: Vec<Frame> = (0..rng.in_range(0, 7)).map(|_| arb_frame(rng)).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            write_frame(&mut bytes, f).unwrap();
        }
        let mut cur = std::io::Cursor::new(&bytes);
        for f in &frames {
            let back = read_frame(&mut cur).unwrap().unwrap();
            assert_eq!(&back, f);
        }
        assert!(read_frame(&mut cur).unwrap().is_none());
    });
}

/// EOF inside a frame is always the typed `Truncated` error — never a
/// panic, never a bogus frame — for every possible cut point.
#[test]
fn every_truncation_is_typed() {
    for_each_case(0x5749_0003, |rng| {
        let bytes = encode_frame(&arb_frame(rng));
        for cut in 1..bytes.len() {
            let mut cur = std::io::Cursor::new(&bytes[..cut]);
            match read_frame(&mut cur) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    });
}

/// Flipping any single byte never panics the decoder: the result is a
/// frame (corruption landed in a value field) or a typed error, and
/// corrupting the magic word is always detected as such.
#[test]
fn single_byte_corruption_never_panics() {
    for_each_case(0x5749_0004, |rng| {
        let frame = arb_frame(rng);
        let mut bytes = encode_frame(&frame);
        let pos = rng.in_range(0, bytes.len() - 1);
        bytes[pos] ^= rng.in_range(1, 255) as u8;
        let mut cur = std::io::Cursor::new(&bytes);
        let res = read_frame(&mut cur);
        if pos < 4 {
            assert!(
                matches!(res, Err(WireError::BadMagic(_))),
                "corrupt magic at byte {pos} gave {res:?}"
            );
        } else {
            // Any outcome but a panic is acceptable; a decoded frame must
            // differ from the original (the flip has to land somewhere).
            if let Ok(Some(back)) = res {
                assert_ne!(back, frame);
            }
        }
    });
}

/// Arbitrary byte soup fed to the reader is rejected or consumed
/// without panicking (desync recovery is the caller's job; typed
/// errors are the decoder's).
#[test]
fn arbitrary_bytes_never_panic() {
    for_each_case(0x5749_0005, |rng| {
        let bytes = rng.bytes(0, 255);
        let mut cur = std::io::Cursor::new(&bytes);
        let _ = read_frame(&mut cur);
    });
}

/// The handshake digest is deterministic and sensitive to both the
/// spec bytes and the node count.
#[test]
fn spec_digest_separates_inputs() {
    for_each_case(0x5749_0006, |rng| {
        let (a, b) = (rng.bytes(0, 63), rng.bytes(0, 63));
        let (n, m) = (rng.in_range(1, 15), rng.in_range(1, 15));
        assert_eq!(spec_digest(&a, n), spec_digest(&a, n));
        if a != b {
            assert_ne!(spec_digest(&a, n), spec_digest(&b, n));
        }
        if n != m {
            assert_ne!(spec_digest(&a, n), spec_digest(&a, m));
        }
    });
}

/// The payload registry round-trips buffers bit-exact, preserving the
/// producer-declared size and routing tag.
#[test]
fn payload_registry_roundtrips() {
    for_each_case(0x5749_0007, |rng| {
        let payload = rng.bytes(0, 255);
        let (size, tag) = (rng.u64() as usize, rng.u64());
        let mut codec = PayloadCodec::new();
        codec.register::<Vec<u8>, _, _>(7, |v| v.clone(), |b| Ok(b.to_vec()));
        let buf = DataBuffer::new(payload.clone(), size, tag);
        let (ptype, bytes) = codec.encode(&buf).unwrap();
        assert_eq!(ptype, 7);
        let back = codec.decode(ptype, &bytes, size, tag).unwrap();
        assert_eq!(back.downcast::<Vec<u8>>().unwrap(), &payload);
        assert_eq!(back.size_bytes(), size);
        assert_eq!(back.tag(), tag);
    });
}

/// A decoder's validation error surfaces as `BadPayload`, never a
/// panic, for arbitrary input bytes.
#[test]
fn payload_decoder_errors_are_typed() {
    for_each_case(0x5749_0008, |rng| {
        let bytes = rng.bytes(0, 31);
        let mut codec = PayloadCodec::new();
        codec.register::<u64, _, _>(
            3,
            |v| v.to_le_bytes().to_vec(),
            |b| {
                let arr: [u8; 8] = b.try_into().map_err(|_| "u64 wants 8 bytes".to_string())?;
                Ok(u64::from_le_bytes(arr))
            },
        );
        match codec.decode(3, &bytes, 8, 0) {
            Ok(_) => assert_eq!(bytes.len(), 8),
            Err(WireError::BadPayload(_)) => assert_ne!(bytes.len(), 8),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    });
}

/// Data frames round-trip bit-exact under every checksum × compression
/// combination — the decoder recovers the logical payload regardless of
/// what the wire carried — and still consume exactly their own bytes.
#[test]
fn data_roundtrips_bit_exact_under_every_wire_config() {
    for_each_case(0x5749_0009, |rng| {
        let payload = arb_compressible(rng);
        let cfg = arb_wire_config(rng);
        let frame = Frame::Data {
            stream: rng.u32(),
            dest: rng.u32(),
            tag: rng.u64(),
            size: rng.u64(),
            ptype: rng.u16(),
            payload,
        };
        let bytes = encode_frame_cfg(&frame, &cfg);
        let mut cur = std::io::Cursor::new(&bytes);
        let back = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(&back, &frame);
        assert_eq!(cur.position() as usize, bytes.len());
    });
}

/// With checksums on, flipping ANY payload byte on the wire is caught
/// as the typed `ChecksumMismatch` — never a panic, never silently
/// delivered data.
#[test]
fn checksum_detects_any_payload_corruption() {
    for_each_case(0x5749_000a, |rng| {
        let payload = rng.bytes(1, 255);
        let cfg = WireConfig {
            checksum: true,
            compress: false,
        };
        let frame = Frame::Data {
            stream: 1,
            dest: 2,
            tag: 3,
            size: payload.len() as u64,
            ptype: 4,
            payload: payload.clone(),
        };
        let mut bytes = encode_frame_cfg(&frame, &cfg);
        // Compression is off, so the wire body is exactly the payload, at
        // the very end of the frame.
        let body_start = bytes.len() - payload.len();
        let at = body_start + rng.in_range(0, payload.len() - 1);
        bytes[at] ^= rng.in_range(1, 255) as u8;
        let mut cur = std::io::Cursor::new(&bytes);
        match read_frame(&mut cur) {
            Err(WireError::ChecksumMismatch { expected, computed }) => {
                assert_ne!(expected, computed);
            }
            other => panic!("corrupt payload byte gave {other:?}"),
        }
    });
}

/// The LZ pass itself round-trips bit-exact for compressible and
/// incompressible inputs alike.
#[test]
fn lz_roundtrips_bit_exact() {
    for_each_case(0x5749_000b, |rng| {
        let input = arb_compressible(rng);
        let packed = lz_compress(&input);
        let back = lz_decompress(&packed, input.len()).unwrap();
        assert_eq!(back, input);
    });
}

/// Corrupting any byte of a compressed block yields a typed error or a
/// wrong-but-bounded output — never a panic or an out-of-bounds copy.
#[test]
fn lz_decoder_never_panics_on_corruption() {
    for_each_case(0x5749_000c, |rng| {
        let input = arb_compressible(rng);
        let mut packed = lz_compress(&input);
        if packed.is_empty() {
            return;
        }
        let at = rng.in_range(0, packed.len() - 1);
        packed[at] ^= rng.in_range(1, 255) as u8;
        if let Ok(out) = lz_decompress(&packed, input.len()) {
            assert_eq!(out.len(), input.len());
        }
    });
}

/// Credit frames round-trip across the full legal grant range.
#[test]
fn credit_frames_roundtrip() {
    for_each_case(0x5749_000d, |rng| {
        let frame = Frame::Credit {
            stream: rng.u32(),
            dest: rng.u32(),
            credits: rng.in_range(1, MAX_CREDIT_GRANT as usize) as u32,
        };
        let bytes = encode_frame(&frame);
        let mut cur = std::io::Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), frame);
    });
}

/// Out-of-range grants (zero, above the cap) are rejected on read with
/// the typed `BadCredit`, whatever the route key.
#[test]
fn out_of_range_credits_rejected() {
    for_each_case(0x5749_000e, |rng| {
        let (stream, dest) = (rng.u32(), rng.u32());
        let excess = if rng.bool() {
            0
        } else {
            rng.in_range(MAX_CREDIT_GRANT as usize + 1, u32::MAX as usize) as u32
        };
        let mut bytes = encode_frame(&Frame::Credit {
            stream,
            dest,
            credits: 1,
        });
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&excess.to_le_bytes());
        let mut cur = std::io::Cursor::new(&bytes);
        assert!(matches!(
            read_frame(&mut cur),
            Err(WireError::BadCredit(c)) if c == excess
        ));
    });
}

/// The declared-length bound rejects a hostile payload length before
/// allocating (deterministic, not property-based: the interesting input
/// is exactly the bound).
#[test]
fn oversized_lengths_rejected_before_allocation() {
    let mut bytes = encode_frame(&Frame::Data {
        stream: 0,
        dest: 0,
        tag: 0,
        size: 0,
        ptype: 0,
        payload: Vec::new(),
    });
    let plen_off = bytes.len() - 4;
    bytes[plen_off..].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
    let mut cur = std::io::Cursor::new(&bytes);
    assert!(matches!(
        read_frame(&mut cur),
        Err(WireError::Oversized {
            field: "payload",
            ..
        })
    ));
}

/// A version-1 `Hello` has no features word: it is four bytes shorter on
/// the wire than a version-2 one and always decodes with `features == 0`.
/// The node layer turns the version difference into a typed handshake
/// rejection; this pins the wire-level shape that makes that detection
/// possible against a genuine v1 peer.
#[test]
fn v1_hello_has_no_features_word_and_is_distinguishable() {
    let v2 = encode_frame(&Frame::Hello {
        version: WIRE_VERSION,
        node: 3,
        digest: 99,
        features: 0b11,
    });
    let v1 = encode_frame(&Frame::Hello {
        version: 1,
        node: 3,
        digest: 99,
        features: 0,
    });
    assert_eq!(v2.len(), v1.len() + 4);
    let mut cur = std::io::Cursor::new(&v1);
    match read_frame(&mut cur).unwrap().unwrap() {
        Frame::Hello {
            version, features, ..
        } => {
            assert_eq!(version, 1);
            assert_eq!(features, 0);
            assert_ne!(version, WIRE_VERSION);
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    assert_eq!(cur.position() as usize, v1.len());
}
