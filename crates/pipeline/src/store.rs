//! The content-addressed result store (ROADMAP item 2).
//!
//! Repeated analyses over a disk-resident dataset — parameter sweeps,
//! follow-up monitoring — recompute mostly-unchanged chunks from scratch.
//! This module makes per-chunk texture output reusable: each chunk's
//! result is keyed by an FNV-1a digest of everything that determines its
//! bytes, so a warm run serves unchanged chunks from the store and an
//! edited dataset recomputes exactly the chunks whose input (overlap)
//! region touches the edit.
//!
//! # Key recipe
//!
//! A chunk key folds, in order (all little-endian, see [`mri::digest`]):
//!
//! 1. [`STORE_SCHEMA_VERSION`] — bump to invalidate every blob;
//! 2. the [`StoreStage`] tag (`b'P'` parameter packets from HMP, `b'M'`
//!    matrix packets from HCC) — the two payload formats never collide;
//! 3. the config fingerprint: the JSON encoding of (levels, quantizer,
//!    ROI, directions, selection, representation, packet_split).
//!    The scan engine (both are byte-identical by hard invariant) and the
//!    storage-node count are deliberately excluded — they cannot change a
//!    chunk's bytes, so they must not fault the cache — and how a run is
//!    hosted (caching, canonical output, transport, the store path itself)
//!    is not in [`AppConfig`] to begin with;
//! 4. the chunk geometry: id, grid position, owned-output and input
//!    regions (this pins the ROI/chunk grid — a geometry change changes
//!    every key);
//! 5. the raw `u16` content of the chunk's input region, exactly as the
//!    slice cache assembled it;
//! 6. the packet index within the chunk (always 0 for the params stage;
//!    the matrix stage stores one blob per `packet_split` packet so
//!    streaming granularity and memory bounds survive a store hit).
//!
//! # Layout (local-FS backend)
//!
//! ```text
//! <root>/objects/ab/cd/<16-hex-digest>   committed blobs, sharded by the
//!                                        first four hex digits
//! <root>/staging/<run-token>/<16-hex>    blobs a running session staged
//! <root>/manifests/<run-token>.json      per-run manifest, written only
//!                                        on successful commit
//! ```
//!
//! Publication is two-phase: filters *stage* blobs during the run, and the
//! driver *commits* (rename into `objects/` + manifest) only after the
//! engine reports success — a fault-injected or cancelled run commits
//! nothing, and `get` never looks at `staging/`. Every blob carries a
//! self-describing header (magic, version, digest echo, payload length,
//! payload checksum); any mismatch is counted, the blob is evicted, and
//! the chunk recomputes — corruption is never served.

use crate::config::AppConfig;
use crate::payload::{MatrixPacket, ParamPacket};
use datacutter::StoreReport;
use mri::chunks::Chunk;
use mri::digest::Fnv1a64;
use mri::raw::RawVolume;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version of the key recipe, blob framing and manifest schema. Bumping it
/// changes every digest, so stores written by older code are simply never
/// hit (and their blobs can be garbage-collected by path age).
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// Magic prefix of every committed blob.
const BLOB_MAGIC: [u8; 4] = *b"H4DS";

/// Which texture filter produced a blob — the two payload encodings are
/// incompatible, so the stage is folded into the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum StoreStage {
    /// Per-chunk parameter packets (the HMP combined filter).
    Params,
    /// Per-packet co-occurrence matrices (the HCC split filter).
    Matrices,
}

impl StoreStage {
    fn tag(self) -> u8 {
        match self {
            StoreStage::Params => b'P',
            StoreStage::Matrices => b'M',
        }
    }
}

/// A fully resolved store key: the digest plus the provenance recorded in
/// the run manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkKey {
    /// The FNV-1a digest addressing the blob.
    pub digest: u64,
    /// Producing chunk id.
    pub chunk: usize,
    /// Packet index within the chunk (0 for the params stage).
    pub index: usize,
    /// Producing stage.
    pub stage: StoreStage,
}

/// Digest of the configuration fields that determine a chunk's output
/// bytes. Serialized field order is fixed by the tuple, so the fingerprint
/// is deterministic across runs and processes.
pub fn config_digest(cfg: &AppConfig) -> u64 {
    let fields = (
        &cfg.levels,
        &cfg.quantizer,
        &cfg.roi,
        &cfg.directions,
        &cfg.selection,
        &cfg.representation,
        &cfg.packet_split,
    );
    let json = serde_json::to_string(&fields).expect("config fields serialize");
    let mut h = Fnv1a64::new();
    h.write(json.as_bytes());
    h.finish()
}

/// The per-run key builder: schema version, stage and config fingerprint
/// folded once, then reused for every chunk.
#[derive(Debug, Clone, Copy)]
pub struct KeyRecipe {
    base: u64,
    stage: StoreStage,
}

impl KeyRecipe {
    /// Builds the recipe for one (config, stage) pair.
    pub fn new(cfg: &AppConfig, stage: StoreStage) -> Self {
        let mut h = Fnv1a64::new();
        h.write_u32(STORE_SCHEMA_VERSION);
        h.write_u8(stage.tag());
        h.write_u64(config_digest(cfg));
        Self {
            base: h.finish(),
            stage,
        }
    }

    /// Digest of the chunk's geometry and raw input-region content on top
    /// of the recipe base. Computed once per chunk; per-packet keys fold
    /// the packet index on top with [`KeyRecipe::key`].
    pub fn content_digest(&self, chunk: &Chunk, raw: &RawVolume) -> u64 {
        let mut h = Fnv1a64::resume(self.base);
        h.write_usize(chunk.id);
        for p in [
            chunk.grid_pos,
            chunk.owned_output.origin,
            chunk.input.origin,
        ] {
            h.write_usize(p.x);
            h.write_usize(p.y);
            h.write_usize(p.z);
            h.write_usize(p.t);
        }
        for d in [chunk.owned_output.size, chunk.input.size, raw.dims()] {
            h.write_usize(d.x);
            h.write_usize(d.y);
            h.write_usize(d.z);
            h.write_usize(d.t);
        }
        h.write_u16s(raw.as_slice());
        h.finish()
    }

    /// The store key of packet `index` of a chunk whose content digest is
    /// `content` (from [`KeyRecipe::content_digest`]).
    pub fn key(&self, chunk: &Chunk, content: u64, index: usize) -> ChunkKey {
        let mut h = Fnv1a64::resume(content);
        h.write_usize(index);
        ChunkKey {
            digest: h.finish(),
            chunk: chunk.id,
            index,
            stage: self.stage,
        }
    }
}

// ---------------------------------------------------------------------------
// Blob framing
// ---------------------------------------------------------------------------

/// Frames `payload` as a self-describing blob: magic, schema version,
/// digest echo, payload length, payload FNV-1a checksum, payload.
pub fn encode_blob(digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(&BLOB_MAGIC);
    out.extend_from_slice(&STORE_SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&mri::digest::fnv1a_64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a blob read back under `digest` and returns its payload.
/// Every framing violation — wrong magic or version, digest echo mismatch
/// (a mis-sharded or renamed blob), truncation, checksum mismatch — is a
/// descriptive error; the caller treats any of them as "corrupt, recompute".
pub fn decode_blob(digest: u64, bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < 32 {
        return Err(format!("blob truncated to {} header bytes", bytes.len()));
    }
    if bytes[0..4] != BLOB_MAGIC {
        return Err("bad blob magic".to_string());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != STORE_SCHEMA_VERSION {
        return Err(format!(
            "blob schema {version} does not match {STORE_SCHEMA_VERSION}"
        ));
    }
    let echo = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if echo != digest {
        return Err(format!("blob digest echo {echo:016x} is not {digest:016x}"));
    }
    let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let expect = bytes.len() as u64 - 32;
    if len != expect {
        return Err(format!(
            "blob declares {len} payload bytes, {expect} present"
        ));
    }
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let payload = &bytes[32..];
    let actual = mri::digest::fnv1a_64(payload);
    if checksum != actual {
        return Err(format!(
            "blob checksum {checksum:016x} does not match payload {actual:016x}"
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------

/// Encodes a chunk's per-feature parameter packets, in emission order,
/// reusing the hardened wire codec per packet.
fn encode_params(packets: &[ParamPacket]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(packets.len() as u32).to_le_bytes());
    for p in packets {
        let b = crate::codecs::encode_param_packet(p);
        out.extend_from_slice(&(b.len() as u64).to_le_bytes());
        out.extend_from_slice(&b);
    }
    out
}

fn decode_params(bytes: &[u8]) -> Result<Vec<ParamPacket>, String> {
    let take = |off: &mut usize, n: usize| -> Result<&[u8], String> {
        let end = off
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| "truncated params payload".to_string())?;
        let s = &bytes[*off..end];
        *off = end;
        Ok(s)
    };
    let mut off = 0usize;
    let count = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4 bytes")) as usize;
    if count > 64 {
        return Err(format!("implausible packet count {count}"));
    }
    let mut packets = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u64::from_le_bytes(take(&mut off, 8)?.try_into().expect("8 bytes"));
        let len = usize::try_from(len).map_err(|_| "packet length overflow".to_string())?;
        packets.push(crate::codecs::decode_param_packet(take(&mut off, len)?)?);
    }
    if off != bytes.len() {
        return Err(format!("{} trailing payload bytes", bytes.len() - off));
    }
    Ok(packets)
}

// ---------------------------------------------------------------------------
// Local-FS backend
// ---------------------------------------------------------------------------

/// The local-filesystem backend: sharded `objects/ab/cd/<digest>` blobs,
/// per-token staging directories, per-run manifests. `get` sees only
/// committed blobs; `stage` accumulates a run's publications under its
/// token, invisible until `commit` publishes them atomically together with
/// the run manifest.
#[derive(Debug, Clone)]
pub struct FsBackend {
    root: PathBuf,
}

impl FsBackend {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: &Path) -> io::Result<Self> {
        for sub in ["objects", "staging", "manifests"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    fn hex(digest: u64) -> String {
        format!("{digest:016x}")
    }

    /// Committed path of a digest: `objects/ab/cd/<16-hex>`.
    fn object_path(&self, digest: u64) -> PathBuf {
        let hex = Self::hex(digest);
        self.root
            .join("objects")
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(hex)
    }

    fn staging_dir(&self, token: &str) -> PathBuf {
        self.root.join("staging").join(token)
    }

    fn manifest_path(&self, token: &str) -> PathBuf {
        self.root.join("manifests").join(format!("{token}.json"))
    }

    /// Reads a committed blob; `Ok(None)` when absent.
    pub fn get(&self, digest: u64) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.object_path(digest)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Stages a blob under a run token, invisible to [`FsBackend::get`]
    /// until committed.
    pub fn stage(&self, token: &str, digest: u64, blob: &[u8]) -> io::Result<()> {
        let dir = self.staging_dir(token);
        fs::create_dir_all(&dir)?;
        fs::write(dir.join(Self::hex(digest)), blob)
    }

    /// Publishes every blob staged under `token` and writes the run
    /// manifest, atomically per blob and per manifest.
    pub fn commit(&self, token: &str, manifest: &Manifest) -> io::Result<()> {
        let dir = self.staging_dir(token);
        match fs::read_dir(&dir) {
            Ok(entries) => {
                for entry in entries {
                    let entry = entry?;
                    let name = entry.file_name();
                    let Some(hex) = name.to_str().filter(|n| n.len() == 16) else {
                        continue;
                    };
                    let target = self
                        .root
                        .join("objects")
                        .join(&hex[0..2])
                        .join(&hex[2..4])
                        .join(hex);
                    if let Some(parent) = target.parent() {
                        fs::create_dir_all(parent)?;
                    }
                    // Rename is atomic within the store's filesystem; a
                    // concurrent committer of the same digest wrote the
                    // identical content-addressed bytes, so last-wins is
                    // harmless.
                    fs::rename(entry.path(), target)?;
                }
                let _ = fs::remove_dir(&dir);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let path = self.manifest_path(token);
        let tmp = path.with_extension("json.tmp");
        let json =
            serde_json::to_string_pretty(manifest).map_err(|e| io::Error::other(e.to_string()))?;
        fs::write(&tmp, json)?;
        fs::rename(&tmp, &path)
    }

    /// Discards everything staged under `token` (idempotent).
    pub fn abandon(&self, token: &str) -> io::Result<()> {
        match fs::remove_dir_all(self.staging_dir(token)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Evicts a committed blob (used when it fails validation; idempotent).
    pub fn remove(&self, digest: u64) -> io::Result<()> {
        match fs::remove_file(self.object_path(digest)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Loads and validates the manifest of a committed run. Partial,
    /// truncated or incomplete manifests are `InvalidData` errors, never
    /// returned as usable manifests.
    pub fn load_manifest(&self, token: &str) -> io::Result<Manifest> {
        let text = fs::read_to_string(self.manifest_path(token))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        manifest
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(manifest)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One resolved chunk key in a run manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Chunk id.
    pub chunk: usize,
    /// Packet index within the chunk.
    pub index: usize,
    /// Producing stage.
    pub stage: StoreStage,
    /// Blob digest, as 16 hex digits.
    pub digest: String,
}

/// The per-run manifest: every chunk key the run resolved (served or
/// published), written only when the run committed. `complete` is written
/// last-field-true by a successful commit; a manifest missing it (or a
/// partial JSON document) is rejected at load, so results surviving from a
/// failed or interrupted run can never masquerade as a full run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Store schema version the run used.
    pub schema_version: u32,
    /// Config fingerprint of the run, as 16 hex digits.
    pub config: String,
    /// Resolved keys, sorted by (chunk, stage, index).
    pub chunks: Vec<ManifestEntry>,
    /// True only for a successfully committed run.
    #[serde(default)]
    pub complete: bool,
}

impl Manifest {
    /// Rejects partial or cross-version manifests.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != STORE_SCHEMA_VERSION {
            return Err(format!(
                "manifest schema {} does not match {STORE_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if !self.complete {
            return Err("partial manifest: run did not commit".to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Store + per-run session
// ---------------------------------------------------------------------------

/// Store-plane counters, shared by every session of one [`ResultStore`]
/// (per-run for the one-shot CLI, daemon-scoped under `h4d serve`, the
/// same scoping as the I/O-plane counters).
#[derive(Debug, Default)]
pub struct StoreStats {
    hits: AtomicU64,
    misses: AtomicU64,
    published: AtomicU64,
    bytes_served: AtomicU64,
    bytes_published: AtomicU64,
    corrupt_rejected: AtomicU64,
}

impl StoreStats {
    /// Chunk-packet lookups served from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that recomputed (absent, unreadable or corrupt blob).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Blobs staged for publication.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Payload bytes served from the store.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served.load(Ordering::Relaxed)
    }

    /// Payload bytes staged for publication.
    pub fn bytes_published(&self) -> u64 {
        self.bytes_published.load(Ordering::Relaxed)
    }

    /// Blobs rejected (and evicted) for failing validation; each also
    /// counts as a miss.
    pub fn corrupt_rejected(&self) -> u64 {
        self.corrupt_rejected.load(Ordering::Relaxed)
    }

    /// Serializable report fragment for [`datacutter::RunReport`].
    pub fn report(&self) -> StoreReport {
        StoreReport {
            hits: self.hits(),
            misses: self.misses(),
            published: self.published(),
            bytes_served: self.bytes_served(),
            bytes_published: self.bytes_published(),
            corrupt_rejected: self.corrupt_rejected(),
        }
    }
}

/// A handle on one result store: the backend plus its shared counters.
#[derive(Clone)]
pub struct ResultStore {
    backend: FsBackend,
    stats: Arc<StoreStats>,
}

impl ResultStore {
    /// Opens a local-FS store rooted at `dir` (created if needed).
    pub fn open_fs(dir: &Path) -> io::Result<Self> {
        Ok(Self {
            backend: FsBackend::open(dir)?,
            stats: Arc::new(StoreStats::default()),
        })
    }

    /// [`ResultStore::open_fs`] for a caller that can run without: the store
    /// is a cache, not a correctness dependency, so an unusable one degrades
    /// to recompute-everything with a warning on stderr instead of failing
    /// the run (`h4d --result-store`) or the daemon's start.
    pub fn open_fs_or_warn(dir: &Path) -> Option<Self> {
        Self::open_fs(dir)
            .map_err(|e| {
                let at = dir.display();
                eprintln!("warning: result store at {at} unavailable, recomputing everything: {e}");
            })
            .ok()
    }

    /// The store's counters.
    pub fn stats(&self) -> &Arc<StoreStats> {
        &self.stats
    }

    /// Loads (and validates) the manifest of a committed run token.
    pub fn load_manifest(&self, token: &str) -> io::Result<Manifest> {
        self.backend.load_manifest(token)
    }
}

/// Distinguishes concurrent sessions of one process in run tokens.
static SESSION_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One run's view of a [`ResultStore`]: lookups against committed blobs,
/// publications staged under the session's token, and the manifest entries
/// accumulated for commit. The driver calls [`StoreSession::commit`] after
/// the engine reports success and [`StoreSession::abandon`] after a
/// failure, so a failed run contributes nothing to the store.
pub struct StoreSession {
    store: ResultStore,
    token: String,
    config: String,
    entries: Mutex<Vec<ManifestEntry>>,
}

impl StoreSession {
    /// Opens a session for one run of `cfg` against `store`.
    pub fn new(store: &ResultStore, cfg: &AppConfig) -> Self {
        let token = format!(
            "run-{:08x}-{:04x}",
            std::process::id(),
            SESSION_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        // A recycled pid could otherwise inherit a crashed run's staged
        // blobs and commit them as its own.
        let _ = store.backend.abandon(&token);
        Self {
            store: store.clone(),
            token,
            config: format!("{:016x}", config_digest(cfg)),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The session's run token (names its staging area and manifest).
    pub fn token(&self) -> &str {
        &self.token
    }

    /// The store's counters.
    pub fn stats(&self) -> &Arc<StoreStats> {
        &self.store.stats
    }

    fn record(&self, key: &ChunkKey) {
        self.entries
            .lock()
            .expect("store session entries poisoned")
            .push(ManifestEntry {
                chunk: key.chunk,
                index: key.index,
                stage: key.stage,
                digest: format!("{:016x}", key.digest),
            });
    }

    /// Exactly one of {hit, miss} is counted per lookup; a corrupt blob
    /// additionally counts `corrupt_rejected` and is evicted so the fresh
    /// recompute can replace it.
    fn lookup_with<T>(
        &self,
        key: &ChunkKey,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Option<T> {
        let stats = &self.store.stats;
        let bytes = match self.store.backend.get(key.digest) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => {
                stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                eprintln!(
                    "warning: result store read of {:016x} failed: {e}",
                    key.digest
                );
                stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_blob(key.digest, &bytes).and_then(|payload| {
            let n = payload.len();
            decode(payload).map(|t| (n, t))
        }) {
            Ok((n, t)) => {
                stats.hits.fetch_add(1, Ordering::Relaxed);
                stats.bytes_served.fetch_add(n as u64, Ordering::Relaxed);
                self.record(key);
                Some(t)
            }
            Err(_) => {
                stats.corrupt_rejected.fetch_add(1, Ordering::Relaxed);
                stats.misses.fetch_add(1, Ordering::Relaxed);
                let _ = self.store.backend.remove(key.digest);
                None
            }
        }
    }

    fn publish_payload(&self, key: &ChunkKey, payload: &[u8]) {
        let blob = encode_blob(key.digest, payload);
        match self.store.backend.stage(&self.token, key.digest, &blob) {
            Ok(()) => {
                let stats = &self.store.stats;
                stats.published.fetch_add(1, Ordering::Relaxed);
                stats
                    .bytes_published
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.record(key);
            }
            // Publication is an optimization for future runs; failing to
            // stage must not fail the analysis that produced the result.
            Err(e) => eprintln!(
                "warning: result store could not stage {:016x}: {e}",
                key.digest
            ),
        }
    }

    /// Looks up a chunk's parameter packets (HMP stage).
    pub fn lookup_params(&self, key: &ChunkKey) -> Option<Vec<ParamPacket>> {
        self.lookup_with(key, decode_params)
    }

    /// Stages a chunk's parameter packets for publication on commit.
    pub fn publish_params(&self, key: &ChunkKey, packets: &[ParamPacket]) {
        self.publish_payload(key, &encode_params(packets));
    }

    /// Looks up one matrix packet (HCC stage).
    pub fn lookup_matrices(&self, key: &ChunkKey) -> Option<MatrixPacket> {
        self.lookup_with(key, |payload| crate::codecs::decode_matrix_packet(payload))
    }

    /// Stages one matrix packet for publication on commit.
    pub fn publish_matrices(&self, key: &ChunkKey, packet: &MatrixPacket) {
        self.publish_payload(key, &crate::codecs::encode_matrix_packet(packet));
    }

    /// Publishes the session's staged blobs and writes its manifest; the
    /// driver calls this only after the engine reported success.
    ///
    /// # Errors
    /// A staged blob could not be published or the manifest write failed
    /// (the analysis output itself is unaffected — the store is a cache).
    pub fn commit(&self) -> io::Result<()> {
        let mut chunks = self
            .entries
            .lock()
            .expect("store session entries poisoned")
            .clone();
        chunks.sort_by(|a, b| {
            (a.chunk, a.stage.tag(), a.index).cmp(&(b.chunk, b.stage.tag(), b.index))
        });
        let manifest = Manifest {
            schema_version: STORE_SCHEMA_VERSION,
            config: self.config.clone(),
            chunks,
            complete: true,
        };
        self.store.backend.commit(&self.token, &manifest)
    }

    /// Discards the session's staged blobs (failed or cancelled run).
    pub fn abandon(&self) {
        if let Err(e) = self.store.backend.abandon(&self.token) {
            eprintln!("warning: result store abandon failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haralick::raster::Representation;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "h4d_store_{tag}_{}_{:x}",
            std::process::id(),
            SESSION_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn test_cfg() -> AppConfig {
        AppConfig::test_scale(Representation::Full)
    }

    fn sample_chunk(cfg: &AppConfig) -> (Chunk, RawVolume) {
        let grid = mri::chunks::ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
        let chunk = grid.chunks().next().expect("grid has chunks");
        let n = chunk.input.size.len();
        let raw = RawVolume::new(chunk.input.size, (0..n).map(|v| (v % 997) as u16).collect());
        (chunk, raw)
    }

    #[test]
    fn blob_roundtrips_and_rejects_every_corruption() {
        let payload = b"forty-two bytes of payload for the store".to_vec();
        let blob = encode_blob(42, &payload);
        assert_eq!(decode_blob(42, &blob).unwrap(), &payload[..]);
        // Wrong digest (mis-sharded blob).
        assert!(decode_blob(43, &blob).is_err());
        // Every truncation.
        for cut in 0..blob.len() {
            assert!(decode_blob(42, &blob[..cut]).is_err(), "cut={cut}");
        }
        // Every single-byte flip.
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            assert!(decode_blob(42, &bad).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn config_digest_is_sensitive_to_each_recipe_field() {
        let base = test_cfg();
        let d0 = config_digest(&base);
        let mut levels = base.clone();
        levels.levels = 16;
        assert_ne!(config_digest(&levels), d0);
        let mut roi = base.clone();
        roi.roi = haralick::roi::RoiShape::from_lengths(5, 5, 2, 2);
        assert_ne!(config_digest(&roi), d0);
        // The two fields that cannot change a chunk's bytes leave the
        // digest alone.
        let mut neutral = base.clone();
        neutral.engine = haralick::raster::ScanEngine::Reference;
        assert_ne!(neutral.engine, base.engine);
        neutral.storage_nodes += 1;
        assert_eq!(config_digest(&neutral), d0);
    }

    #[test]
    fn keys_are_content_and_index_sensitive() {
        let cfg = test_cfg();
        let recipe = KeyRecipe::new(&cfg, StoreStage::Params);
        let (chunk, raw) = sample_chunk(&cfg);
        let content = recipe.content_digest(&chunk, &raw);
        assert_eq!(recipe.content_digest(&chunk, &raw), content);
        let k0 = recipe.key(&chunk, content, 0);
        let k1 = recipe.key(&chunk, content, 1);
        assert_ne!(k0.digest, k1.digest);
        // One voxel flips the content digest.
        let mut data = raw.as_slice().to_vec();
        data[7] ^= 1;
        let edited = RawVolume::new(raw.dims(), data);
        assert_ne!(recipe.content_digest(&chunk, &edited), content);
        // The other stage never collides.
        let matrices = KeyRecipe::new(&cfg, StoreStage::Matrices);
        assert_ne!(matrices.content_digest(&chunk, &raw), content);
    }

    #[test]
    fn staged_blobs_are_invisible_until_commit() {
        let root = temp_root("stagecommit");
        let store = ResultStore::open_fs(&root).unwrap();
        let cfg = test_cfg();
        let session = StoreSession::new(&store, &cfg);
        let key = ChunkKey {
            digest: 0xabcd,
            chunk: 0,
            index: 0,
            stage: StoreStage::Params,
        };
        session.publish_payload(&key, b"payload");
        // Not yet visible: staged only.
        assert!(store.backend.get(key.digest).unwrap().is_none());
        assert_eq!(store.stats().published(), 1);
        session.commit().unwrap();
        let blob = store.backend.get(key.digest).unwrap().expect("committed");
        assert_eq!(decode_blob(key.digest, &blob).unwrap(), b"payload");
        let manifest = store.load_manifest(session.token()).unwrap();
        assert!(manifest.complete);
        assert_eq!(manifest.chunks.len(), 1);
        assert_eq!(manifest.chunks[0].digest, format!("{:016x}", key.digest));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn abandoned_sessions_leave_no_committed_state() {
        let root = temp_root("abandon");
        let store = ResultStore::open_fs(&root).unwrap();
        let cfg = test_cfg();
        let session = StoreSession::new(&store, &cfg);
        let key = ChunkKey {
            digest: 0x1234,
            chunk: 3,
            index: 0,
            stage: StoreStage::Params,
        };
        session.publish_payload(&key, b"doomed");
        session.abandon();
        assert!(store.backend.get(key.digest).unwrap().is_none());
        assert!(store.load_manifest(session.token()).is_err());
        // The staging area is gone too.
        assert!(!root.join("staging").join(session.token()).exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_manifests_are_rejected() {
        let root = temp_root("partial");
        let store = ResultStore::open_fs(&root).unwrap();
        // `complete: false` — the shape a crashed committer would leave if
        // it wrote the manifest before finishing (ours writes it last, but
        // the loader must not trust that).
        fs::write(
            root.join("manifests").join("crashed.json"),
            r#"{"schema_version":1,"config":"00","chunks":[],"complete":false}"#,
        )
        .unwrap();
        let err = store.load_manifest("crashed").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("partial"), "{err}");
        // Truncated JSON: also InvalidData, not a panic.
        fs::write(
            root.join("manifests").join("torn.json"),
            r#"{"schema_version":1,"config":"00","chunks":[{"chunk":0,"#,
        )
        .unwrap();
        assert_eq!(
            store.load_manifest("torn").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Missing entirely: NotFound.
        assert_eq!(
            store.load_manifest("absent").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_committed_blobs_are_evicted_and_miss() {
        let root = temp_root("corrupt");
        let store = ResultStore::open_fs(&root).unwrap();
        let cfg = test_cfg();
        let session = StoreSession::new(&store, &cfg);
        let key = ChunkKey {
            digest: 0xfeed,
            chunk: 1,
            index: 0,
            stage: StoreStage::Params,
        };
        session.publish_payload(&key, &encode_params(&[]));
        session.commit().unwrap();
        let fresh = StoreSession::new(&store, &cfg);
        assert!(fresh.lookup_params(&key).is_some());
        // Flip a payload byte on disk.
        let backend = FsBackend::open(&root).unwrap();
        let path = backend.object_path(key.digest);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(fresh.lookup_params(&key).is_none());
        assert_eq!(store.stats().corrupt_rejected(), 1);
        // Evicted: the next lookup is a clean miss, not another reject.
        assert!(!path.exists());
        assert!(fresh.lookup_params(&key).is_none());
        assert_eq!(store.stats().corrupt_rejected(), 1);
        assert_eq!(store.stats().hits(), 1);
        assert_eq!(store.stats().misses(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn params_payload_roundtrips() {
        use haralick::features::Feature;
        use haralick::volume::Point4;
        let packets = vec![
            ParamPacket {
                feature: Feature::Entropy,
                points: Arc::new(vec![Point4::new(0, 1, 2, 3)]),
                values: vec![0.1 + 0.2],
            },
            ParamPacket {
                feature: Feature::ALL[0],
                points: Arc::new(vec![Point4::new(4, 4, 4, 4)]),
                values: vec![f64::MIN_POSITIVE],
            },
        ];
        let bytes = encode_params(&packets);
        let back = decode_params(&bytes).unwrap();
        assert_eq!(back, packets);
        for cut in 0..bytes.len() {
            assert!(decode_params(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }
}
