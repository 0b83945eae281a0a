//! Multi-process TCP stream transport.
//!
//! Splits a placed filter graph across cooperating OS processes: each
//! process runs [`run_node`] with the same spec, a node id, and the full
//! address list, and every cross-node stream is bridged over TCP with a
//! length-prefixed frame protocol — same-node streams keep the engine's
//! zero-copy `Arc` path. Built on `std::net` only.
//!
//! * [`wire`] — the frame codec: `Hello` / `Data` / `Eos` / `Error` /
//!   `Credit` frames, typed decode errors, optional per-frame payload
//!   checksums (negotiated in the handshake), and the spec digest both
//!   ends must agree on.
//! * [`codec`] — the [`PayloadCodec`] registry translating opaque
//!   [`crate::DataBuffer`] payloads to and from bytes.
//! * [`node`] — mesh handshake with feature negotiation, per-peer
//!   writer/reader/injector threads (one vectored write per frame,
//!   per-route credit flow control), fault injection for chaos tests,
//!   and the distributed root-cause merge.

pub mod codec;
pub mod node;
pub mod wire;

pub use codec::PayloadCodec;
pub use node::{
    free_loopback_addrs, reserve_loopback_listeners, run_node, NodeConfig, TransportFault,
    TransportFaultKind,
};
pub use wire::{
    spec_digest, Frame, WireConfig, WireError, FEATURE_CHECKSUM, MAX_CREDIT_GRANT, MAX_PAYLOAD_LEN,
    SHARED_QUEUE, WIRE_VERSION,
};
