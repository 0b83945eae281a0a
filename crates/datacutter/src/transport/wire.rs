//! Length-prefixed wire framing for cross-process streams.
//!
//! Every frame starts with a fixed magic word (desync and corruption are
//! caught at the next frame boundary, not silently absorbed) followed by a
//! one-byte frame kind. All integers are little-endian fixed-width — the
//! same manual encoding discipline as the `.h4dp` parameter files, so the
//! format is readable with a hex dump and has no serializer dependency.
//!
//! Frame layout (protocol version 2):
//!
//! ```text
//! Hello : magic u32 | 0x01 | version u16 | node u32 | digest u64
//!                           | features u32            (version >= 2 only)
//! Data  : magic u32 | 0x02 | stream u32 | dest u32 | tag u64 | size u64
//!                           | ptype u16 | flags u8
//!                           | crc u32                 (flags bit 1 only)
//!                           | plen u32 | payload [plen]
//! Eos   : magic u32 | 0x03 | stream u32 | dest u32
//! Error : magic u32 | 0x04 | origin u32 | mlen u32 | message [mlen]
//! Credit: magic u32 | 0x05 | stream u32 | dest u32 | credits u32
//! ```
//!
//! `dest` is the global index of the consumer copy the buffer is routed to,
//! or [`SHARED_QUEUE`] for demand-driven streams (one shared queue, no
//! per-copy routing). `size` preserves the producer-declared
//! [`crate::DataBuffer::size_bytes`] so byte accounting is bit-identical on
//! both sides of the bridge; `ptype` names the payload codec
//! (see [`super::PayloadCodec`]).
//!
//! **Version-2 data path.** The `flags` byte makes each `Data` frame
//! self-describing: bit 1 ([`FLAG_CHECKSUM`]) means `crc` carries the
//! FNV-1a-32 digest of the payload bytes, verified on receipt. Bit 0 is
//! reserved: older builds set it on compressed payloads, which this build
//! never negotiates, so like every other unknown bit it is refused.
//! Whether a writer stamps checksums is
//! negotiated in the handshake: `Hello` carries a `features` bitmask
//! ([`FEATURE_CHECKSUM`]) and each side enables only the intersection, so
//! an older build that also advertises feature bit 1 (compression) settles
//! on checksums alone. `Credit` frames implement
//! per-route flow control: the receiver grants the sender permission for
//! `credits` more `Data` frames on one `(stream, dest)` route (see
//! [`super::node`]); a grant that lifts the window to [`MAX_CREDIT_GRANT`]
//! marks the route unthrottled.
//!
//! Decoding is hardened like `read_parameter_file`: truncation, bad magic,
//! unknown kinds or flags, absurd lengths and checksum mismatches all yield
//! a typed [`WireError`], never a panic.

use std::fmt;
use std::io::{IoSlice, Read, Write};

/// Magic word opening every frame (`"H4DW"` as a big-endian u32).
pub const WIRE_MAGIC: u32 = 0x4834_4457;

/// Wire protocol version carried in the handshake. Version 2 added the
/// `Data` flags byte (checksums), the `features` word in
/// `Hello`, and the `Credit` frame; mixed-version meshes are rejected at
/// handshake time.
pub const WIRE_VERSION: u16 = 2;

/// `Hello` feature bit: the sender can verify per-frame payload checksums.
pub const FEATURE_CHECKSUM: u32 = 1 << 0;

/// `Data` flag bit: the frame carries an FNV-1a-32 payload checksum.
pub const FLAG_CHECKSUM: u8 = 1 << 1;

/// `dest` value meaning "the shared demand-driven queue" rather than a
/// specific consumer copy.
pub const SHARED_QUEUE: u32 = u32::MAX;

/// Upper bound on an encoded payload (guards allocation on corrupt input).
pub const MAX_PAYLOAD_LEN: u32 = 256 * 1024 * 1024;

/// Upper bound on an error-frame message (guards allocation on corrupt
/// input).
pub const MAX_MESSAGE_LEN: u32 = 1024 * 1024;

/// Upper bound on one `Credit` grant, and the sticky "unthrottled" window:
/// a route whose window reaches this value stops counting credits (the
/// receiver granted it when abandoning the route, see [`super::node`]).
pub const MAX_CREDIT_GRANT: u32 = 1 << 20;

/// Per-connection frame options negotiated in the handshake: the
/// intersection of what this node was configured to send and what the
/// peer's `Hello` advertised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireConfig {
    /// Stamp outgoing `Data` frames with an FNV-1a-32 payload checksum.
    pub checksum: bool,
}

impl WireConfig {
    /// The `Hello` feature bits this configuration advertises.
    pub fn features(self) -> u32 {
        if self.checksum {
            FEATURE_CHECKSUM
        } else {
            0
        }
    }

    /// The configuration actually usable against a peer that advertised
    /// `peer_features`: the bitwise intersection.
    pub fn negotiate(self, peer_features: u32) -> Self {
        Self {
            checksum: self.checksum && peer_features & FEATURE_CHECKSUM != 0,
        }
    }
}

/// A decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: protocol version, sender's node id, a digest
    /// of the graph spec + node count (so two processes running different
    /// graphs fail fast instead of misrouting buffers), and the feature
    /// bits the sender supports.
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u16,
        /// Sending node id.
        node: u32,
        /// Graph-spec digest (see [`super::spec_digest`]).
        digest: u64,
        /// Supported feature bits; on the wire only for `version >= 2`
        /// (decoded as `0` from a version-1 hello).
        features: u32,
    },
    /// One routed data buffer. The payload here is always the verified
    /// bytes — checksums live only on the wire.
    Data {
        /// Stream index in the graph spec.
        stream: u32,
        /// Global consumer copy index, or [`SHARED_QUEUE`].
        dest: u32,
        /// The buffer's routing tag.
        tag: u64,
        /// The producer-declared wire size (`DataBuffer::size_bytes`).
        size: u64,
        /// Payload codec tag (see [`super::PayloadCodec`]).
        ptype: u16,
        /// Encoded payload bytes.
        payload: Vec<u8>,
    },
    /// End of stream for one (stream, dest) route: every producer copy of
    /// the stream on the sending node has finished cleanly.
    Eos {
        /// Stream index in the graph spec.
        stream: u32,
        /// Global consumer copy index, or [`SHARED_QUEUE`].
        dest: u32,
    },
    /// The sending node's run failed; open routes on this connection must
    /// not be treated as cleanly ended.
    Error {
        /// Node id where the failure originated (propagated unchanged when
        /// a node aborts because of a failure elsewhere).
        origin: u32,
        /// Human-readable failure description.
        message: String,
    },
    /// Flow control: the receiver of a route grants the sender permission
    /// for `credits` more `Data` frames on it.
    Credit {
        /// Stream index in the graph spec.
        stream: u32,
        /// Global consumer copy index, or [`SHARED_QUEUE`].
        dest: u32,
        /// Additional frames permitted; `1..=`[`MAX_CREDIT_GRANT`].
        credits: u32,
    },
}

/// Typed decode/IO failure of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// An underlying socket/stream error.
    Io(std::io::Error),
    /// The stream ended in the middle of a frame.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A frame did not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// An unknown frame kind byte.
    BadKind(u8),
    /// A `Data` frame carried flag bits this build does not understand.
    BadFlags(u8),
    /// A declared length exceeds its sanity bound.
    Oversized {
        /// Which length field was oversized.
        field: &'static str,
        /// The declared length.
        len: u32,
        /// The maximum accepted.
        max: u32,
    },
    /// An error-frame message was not valid UTF-8.
    BadUtf8,
    /// The payload codec rejected the frame (unknown type tag or a payload
    /// that fails its type's validation).
    BadPayload(String),
    /// No codec is registered for a payload type tag.
    UnknownPayloadType(u16),
    /// The connection handshake failed (version or digest mismatch, or an
    /// unexpected first frame).
    BadHandshake(String),
    /// A `Data` frame's payload bytes do not match its checksum.
    ChecksumMismatch {
        /// The checksum carried by the frame.
        expected: u32,
        /// The checksum computed over the received payload.
        computed: u32,
    },
    /// A `Credit` frame granted zero or more than [`MAX_CREDIT_GRANT`].
    BadCredit(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            WireError::BadMagic(m) => {
                write!(f, "bad frame magic {m:#010x} (expected {WIRE_MAGIC:#010x})")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::BadFlags(b) => write!(f, "unknown data-frame flags {b:#04x}"),
            WireError::Oversized { field, len, max } => {
                write!(f, "{field} length {len} exceeds the {max}-byte bound")
            }
            WireError::BadUtf8 => write!(f, "error-frame message is not valid UTF-8"),
            WireError::BadPayload(m) => write!(f, "payload rejected: {m}"),
            WireError::UnknownPayloadType(t) => {
                write!(f, "no payload codec registered for type tag {t}")
            }
            WireError::BadHandshake(m) => write!(f, "handshake failed: {m}"),
            WireError::ChecksumMismatch { expected, computed } => write!(
                f,
                "payload checksum mismatch: frame says {expected:#010x}, \
                 received bytes hash to {computed:#010x}"
            ),
            WireError::BadCredit(c) => write!(f, "credit grant {c} outside 1..={MAX_CREDIT_GRANT}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

const KIND_HELLO: u8 = 0x01;
const KIND_DATA: u8 = 0x02;
const KIND_EOS: u8 = 0x03;
const KIND_ERROR: u8 = 0x04;
const KIND_CREDIT: u8 = 0x05;

/// FNV-1a 32-bit digest — the per-frame payload checksum. Not
/// cryptographic; catches bit rot and desync on links that leave one host.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context }
        } else {
            WireError::Io(e)
        }
    })
}

macro_rules! read_int {
    ($fn_name:ident, $ty:ty) => {
        fn $fn_name(r: &mut impl Read, context: &'static str) -> Result<$ty, WireError> {
            let mut b = [0u8; std::mem::size_of::<$ty>()];
            read_exact_or(r, &mut b, context)?;
            Ok(<$ty>::from_le_bytes(b))
        }
    };
}

read_int!(read_u16, u16);
read_int!(read_u32, u32);
read_int!(read_u64, u64);

fn read_u8(r: &mut impl Read, context: &'static str) -> Result<u8, WireError> {
    let mut b = [0u8; 1];
    read_exact_or(r, &mut b, context)?;
    Ok(b[0])
}

/// Writes one frame under `cfg` (checksums apply to `Data` frames only) and
/// returns its length on the wire. The header is encoded into a small
/// buffer; a `Data` payload or an `Error` message is borrowed in place. Both
/// go out through `write_vectored`, advanced past whatever `w` accepted
/// until every byte is written, so a socket takes one write per frame unless
/// it accepts only a part.
///
/// # Errors
/// [`WireError::Oversized`] or [`WireError::BadCredit`] before any byte is
/// written; [`WireError::Io`] from `w`, with `WriteZero` when `w` accepts
/// nothing.
pub fn write_frame_cfg(
    w: &mut impl Write,
    frame: &Frame,
    cfg: &WireConfig,
) -> Result<usize, WireError> {
    let mut head = Vec::with_capacity(40);
    head.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    let body: &[u8] = match frame {
        Frame::Hello {
            version,
            node,
            digest,
            features,
        } => {
            head.push(KIND_HELLO);
            head.extend_from_slice(&version.to_le_bytes());
            head.extend_from_slice(&node.to_le_bytes());
            head.extend_from_slice(&digest.to_le_bytes());
            // The features word exists only in version-2 hellos; encoding
            // a version-1 frame (tests, mixed-version probes) omits it.
            if *version >= 2 {
                head.extend_from_slice(&features.to_le_bytes());
            }
            &[]
        }
        Frame::Data {
            stream,
            dest,
            tag,
            size,
            ptype,
            payload,
        } => {
            let len = u32::try_from(payload.len())
                .ok()
                .filter(|&l| l <= MAX_PAYLOAD_LEN)
                .ok_or(WireError::Oversized {
                    field: "payload",
                    len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
                    max: MAX_PAYLOAD_LEN,
                })?;
            head.push(KIND_DATA);
            head.extend_from_slice(&stream.to_le_bytes());
            head.extend_from_slice(&dest.to_le_bytes());
            head.extend_from_slice(&tag.to_le_bytes());
            head.extend_from_slice(&size.to_le_bytes());
            head.extend_from_slice(&ptype.to_le_bytes());
            if cfg.checksum {
                head.push(FLAG_CHECKSUM);
                head.extend_from_slice(&fnv1a32(payload).to_le_bytes());
            } else {
                head.push(0);
            }
            head.extend_from_slice(&len.to_le_bytes());
            payload
        }
        Frame::Eos { stream, dest } => {
            head.push(KIND_EOS);
            head.extend_from_slice(&stream.to_le_bytes());
            head.extend_from_slice(&dest.to_le_bytes());
            &[]
        }
        Frame::Error { origin, message } => {
            let bytes = message.as_bytes();
            let len = u32::try_from(bytes.len())
                .ok()
                .filter(|&l| l <= MAX_MESSAGE_LEN)
                .ok_or(WireError::Oversized {
                    field: "message",
                    len: u32::MAX,
                    max: MAX_MESSAGE_LEN,
                })?;
            head.push(KIND_ERROR);
            head.extend_from_slice(&origin.to_le_bytes());
            head.extend_from_slice(&len.to_le_bytes());
            bytes
        }
        Frame::Credit {
            stream,
            dest,
            credits,
        } => {
            if *credits == 0 || *credits > MAX_CREDIT_GRANT {
                return Err(WireError::BadCredit(*credits));
            }
            head.push(KIND_CREDIT);
            head.extend_from_slice(&stream.to_le_bytes());
            head.extend_from_slice(&dest.to_le_bytes());
            head.extend_from_slice(&credits.to_le_bytes());
            &[]
        }
    };
    let mut slices = [IoSlice::new(&head), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(head.len() + body.len())
}

/// Writes one frame with checksums off (the
/// pre-negotiation default; handshake frames always go this way) and
/// returns its length on the wire.
///
/// # Errors
/// As [`write_frame_cfg`].
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    write_frame_cfg(w, frame, &WireConfig::default())
}

/// Reads one frame. Returns `Ok(None)` on a clean end of stream (EOF
/// exactly at a frame boundary); EOF anywhere inside a frame is a
/// [`WireError::Truncated`]. `Data` frames are self-describing — the flags
/// byte says whether to verify a checksum — so no negotiated state is
/// needed to decode.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    // The first magic byte doubles as the EOF probe: zero bytes here is a
    // clean close, anything less than four afterwards is truncation.
    let mut first = [0u8; 1];
    match r.read(&mut first) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(WireError::Io(e)),
    }
    let mut rest = [0u8; 3];
    read_exact_or(r, &mut rest, "frame magic")?;
    let magic = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]);
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let kind = read_u8(r, "frame kind")?;
    match kind {
        KIND_HELLO => {
            let version = read_u16(r, "hello version")?;
            let node = read_u32(r, "hello node")?;
            let digest = read_u64(r, "hello digest")?;
            let features = if version >= 2 {
                read_u32(r, "hello features")?
            } else {
                0
            };
            Ok(Some(Frame::Hello {
                version,
                node,
                digest,
                features,
            }))
        }
        KIND_DATA => {
            let stream = read_u32(r, "data stream")?;
            let dest = read_u32(r, "data dest")?;
            let tag = read_u64(r, "data tag")?;
            let size = read_u64(r, "data size")?;
            let ptype = read_u16(r, "data ptype")?;
            let flags = read_u8(r, "data flags")?;
            if flags & !FLAG_CHECKSUM != 0 {
                return Err(WireError::BadFlags(flags));
            }
            let crc = if flags & FLAG_CHECKSUM != 0 {
                Some(read_u32(r, "data checksum")?)
            } else {
                None
            };
            let len = read_u32(r, "data payload length")?;
            if len > MAX_PAYLOAD_LEN {
                return Err(WireError::Oversized {
                    field: "payload",
                    len,
                    max: MAX_PAYLOAD_LEN,
                });
            }
            let mut payload = vec![0u8; len as usize];
            read_exact_or(r, &mut payload, "data payload")?;
            if let Some(expected) = crc {
                let computed = fnv1a32(&payload);
                if computed != expected {
                    return Err(WireError::ChecksumMismatch { expected, computed });
                }
            }
            Ok(Some(Frame::Data {
                stream,
                dest,
                tag,
                size,
                ptype,
                payload,
            }))
        }
        KIND_EOS => Ok(Some(Frame::Eos {
            stream: read_u32(r, "eos stream")?,
            dest: read_u32(r, "eos dest")?,
        })),
        KIND_ERROR => {
            let origin = read_u32(r, "error origin")?;
            let len = read_u32(r, "error message length")?;
            if len > MAX_MESSAGE_LEN {
                return Err(WireError::Oversized {
                    field: "message",
                    len,
                    max: MAX_MESSAGE_LEN,
                });
            }
            let mut bytes = vec![0u8; len as usize];
            read_exact_or(r, &mut bytes, "error message")?;
            let message = String::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
            Ok(Some(Frame::Error { origin, message }))
        }
        KIND_CREDIT => {
            let stream = read_u32(r, "credit stream")?;
            let dest = read_u32(r, "credit dest")?;
            let credits = read_u32(r, "credit grant")?;
            if credits == 0 || credits > MAX_CREDIT_GRANT {
                return Err(WireError::BadCredit(credits));
            }
            Ok(Some(Frame::Credit {
                stream,
                dest,
                credits,
            }))
        }
        k => Err(WireError::BadKind(k)),
    }
}

/// Encodes a frame to a standalone byte vector with default options
/// (tests, benchmarks, handshake).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, frame).expect("Vec<u8> writes cannot fail below the length bounds");
    out
}

/// Encodes a frame to a standalone byte vector under `cfg`.
pub fn encode_frame_cfg(frame: &Frame, cfg: &WireConfig) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame_cfg(&mut out, frame, cfg)
        .expect("Vec<u8> writes cannot fail below the length bounds");
    out
}

/// FNV-1a digest of the graph spec's JSON plus the node count — carried in
/// the handshake so differently configured processes refuse to pair up.
pub fn spec_digest(spec_json: &[u8], nodes: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &b in spec_json {
        eat(b);
    }
    for &b in &(nodes as u64).to_le_bytes() {
        eat(b);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_ON: WireConfig = WireConfig { checksum: true };

    fn roundtrip_cfg(f: Frame, cfg: &WireConfig) {
        let bytes = encode_frame_cfg(&f, cfg);
        let mut cur = std::io::Cursor::new(&bytes);
        let back = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(f, back);
        assert_eq!(cur.position() as usize, bytes.len(), "no trailing bytes");
    }

    fn roundtrip(f: Frame) {
        roundtrip_cfg(f, &WireConfig::default());
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        roundtrip(Frame::Hello {
            version: WIRE_VERSION,
            node: 3,
            digest: 0xdead_beef_cafe_f00d,
            features: FEATURE_CHECKSUM,
        });
        roundtrip(Frame::Data {
            stream: 2,
            dest: SHARED_QUEUE,
            tag: 77,
            size: 4096,
            ptype: 5,
            payload: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Frame::Eos { stream: 0, dest: 1 });
        roundtrip(Frame::Error {
            origin: 1,
            message: "filter error [io] in RFR#0: boom".into(),
        });
        roundtrip(Frame::Credit {
            stream: 3,
            dest: 0,
            credits: 16,
        });
    }

    #[test]
    fn data_roundtrips_under_every_option_combination() {
        let payloads: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![9; 5],
            vec![0xab; 4096],
            (0..2048u32).flat_map(|i| i.to_le_bytes()).collect(),
        ];
        for checksum in [false, true] {
            let cfg = WireConfig { checksum };
            for p in &payloads {
                roundtrip_cfg(
                    Frame::Data {
                        stream: 1,
                        dest: 2,
                        tag: 42,
                        size: p.len() as u64,
                        ptype: 7,
                        payload: p.clone(),
                    },
                    &cfg,
                );
            }
        }
    }

    /// A writer that takes 1..=7 bytes per call, cycling, across as many of
    /// the offered slices as that spans; `None` takes nothing ever.
    struct Trickle {
        out: Vec<u8>,
        next: Option<usize>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let Some(step) = self.next else {
                return Ok(0);
            };
            self.next = Some(step % 7 + 1);
            let mut left = step;
            for b in bufs {
                let take = left.min(b.len());
                self.out.extend_from_slice(&b[..take]);
                left -= take;
            }
            Ok(step - left)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_put_every_frame_byte_on_the_wire_once() {
        let frames = [
            Frame::Data {
                stream: 1,
                dest: SHARED_QUEUE,
                tag: 42,
                size: 300,
                ptype: 7,
                payload: (0..300u32).map(|i| i as u8).collect(),
            },
            Frame::Data {
                stream: 0,
                dest: 3,
                tag: 1,
                size: 0,
                ptype: 2,
                payload: Vec::new(),
            },
            Frame::Credit {
                stream: 2,
                dest: 1,
                credits: 9,
            },
            Frame::Eos { stream: 4, dest: 0 },
            Frame::Error {
                origin: 1,
                message: "filter error [io] in RFR#0: boom".into(),
            },
        ];
        for cfg in [WireConfig::default(), ALL_ON] {
            for frame in &frames {
                let mut w = Trickle {
                    out: Vec::new(),
                    next: Some(1),
                };
                let written = write_frame_cfg(&mut w, frame, &cfg);
                let want = encode_frame_cfg(frame, &cfg);
                assert!(
                    matches!(written, Ok(n) if n == want.len()),
                    "{frame:?}: {written:?}"
                );
                assert_eq!(w.out, want, "{frame:?} under {cfg:?}");
            }
        }
        let mut stuck = Trickle {
            out: Vec::new(),
            next: None,
        };
        let got = write_frame(&mut stuck, &Frame::Eos { stream: 0, dest: 0 });
        assert!(
            matches!(&got, Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WriteZero),
            "{got:?}"
        );
    }

    #[test]
    fn version_1_hello_has_no_features_word_and_decodes_to_zero() {
        let v1 = encode_frame(&Frame::Hello {
            version: 1,
            node: 4,
            digest: 9,
            features: 0,
        });
        let v2 = encode_frame(&Frame::Hello {
            version: 2,
            node: 4,
            digest: 9,
            features: FEATURE_CHECKSUM,
        });
        assert_eq!(v2.len(), v1.len() + 4);
        let mut cur = std::io::Cursor::new(&v1);
        match read_frame(&mut cur).unwrap().unwrap() {
            Frame::Hello {
                version, features, ..
            } => {
                assert_eq!(version, 1);
                assert_eq!(features, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cur = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let frame = Frame::Data {
            stream: 1,
            dest: 0,
            tag: 9,
            size: 100,
            ptype: 1,
            payload: vec![7; 32],
        };
        for cfg in [WireConfig::default(), ALL_ON] {
            let bytes = encode_frame_cfg(&frame, &cfg);
            for cut in 1..bytes.len() {
                let mut cur = std::io::Cursor::new(&bytes[..cut]);
                match read_frame(&mut cur) {
                    Err(WireError::Truncated { .. }) => {}
                    other => panic!("prefix of {cut} bytes gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn corrupt_magic_detected() {
        let mut bytes = encode_frame(&Frame::Eos { stream: 4, dest: 2 });
        bytes[0] ^= 0xff;
        let mut cur = std::io::Cursor::new(&bytes);
        assert!(matches!(read_frame(&mut cur), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn unknown_kind_detected() {
        let mut bytes = encode_frame(&Frame::Eos { stream: 4, dest: 2 });
        bytes[4] = 0x7f;
        let mut cur = std::io::Cursor::new(&bytes);
        assert!(matches!(
            read_frame(&mut cur),
            Err(WireError::BadKind(0x7f))
        ));
    }

    #[test]
    fn unknown_data_flags_detected() {
        let frame = encode_frame(&Frame::Data {
            stream: 0,
            dest: 0,
            tag: 0,
            size: 0,
            ptype: 0,
            payload: Vec::new(),
        });
        // flags byte sits right after magic|kind|stream|dest|tag|size|ptype.
        let flags_off = 4 + 1 + 4 + 4 + 8 + 8 + 2;
        // Bit 0 (an older build's compressed payload) is refused like any
        // other bit this build does not assign.
        for flags in [0x80u8, 0x01] {
            let mut bytes = frame.clone();
            bytes[flags_off] = flags;
            let mut cur = std::io::Cursor::new(&bytes);
            assert!(
                matches!(read_frame(&mut cur), Err(WireError::BadFlags(f)) if f == flags),
                "flags {flags:#04x}"
            );
        }
    }

    #[test]
    fn oversized_payload_length_rejected_before_allocating() {
        let mut bytes = encode_frame(&Frame::Data {
            stream: 0,
            dest: 0,
            tag: 0,
            size: 0,
            ptype: 0,
            payload: Vec::new(),
        });
        let plen_off = bytes.len() - 4;
        bytes[plen_off..].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = std::io::Cursor::new(&bytes);
        assert!(matches!(
            read_frame(&mut cur),
            Err(WireError::Oversized {
                field: "payload",
                ..
            })
        ));
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let bytes = encode_frame_cfg(
            &Frame::Data {
                stream: 1,
                dest: 1,
                tag: 5,
                size: 16,
                ptype: 2,
                payload: (0..16).collect(),
            },
            &ALL_ON,
        );
        let payload_start = bytes.len() - 16;
        for pos in payload_start..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            let mut cur = std::io::Cursor::new(&corrupt);
            assert!(
                matches!(
                    read_frame(&mut cur),
                    Err(WireError::ChecksumMismatch { .. })
                ),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn credit_bounds_enforced_on_write_and_read() {
        for bad in [0u32, MAX_CREDIT_GRANT + 1, u32::MAX] {
            let mut sink = Vec::new();
            assert!(matches!(
                write_frame(
                    &mut sink,
                    &Frame::Credit {
                        stream: 0,
                        dest: 0,
                        credits: bad
                    }
                ),
                Err(WireError::BadCredit(_))
            ));
            // Hand-craft the same frame on the wire.
            let mut bytes = encode_frame(&Frame::Credit {
                stream: 0,
                dest: 0,
                credits: 1,
            });
            let off = bytes.len() - 4;
            bytes[off..].copy_from_slice(&bad.to_le_bytes());
            let mut cur = std::io::Cursor::new(&bytes);
            assert!(matches!(read_frame(&mut cur), Err(WireError::BadCredit(_))));
        }
    }

    #[test]
    fn negotiation_is_the_feature_intersection() {
        let want = ALL_ON;
        assert_eq!(want.negotiate(FEATURE_CHECKSUM), want);
        // An older build also advertised bit 1 (compression): it drops out
        // of the intersection and checksums alone remain.
        assert_eq!(want.negotiate(0b11), want);
        assert_eq!(want.negotiate(0b10), WireConfig::default());
        assert_eq!(want.negotiate(0), WireConfig::default());
        assert_eq!(
            WireConfig::default().negotiate(FEATURE_CHECKSUM).features(),
            0
        );
    }

    #[test]
    fn digest_separates_specs_and_node_counts() {
        let a = spec_digest(b"{\"filters\":[]}", 2);
        let b = spec_digest(b"{\"filters\":[]}", 3);
        let c = spec_digest(b"{\"filters\":[1]}", 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
