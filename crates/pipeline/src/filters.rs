//! The real filter implementations (threaded engine).
//!
//! Port conventions (fixed by the graph builders in [`crate::graphs`]):
//! every filter has at most one input kind and emits on output port 0,
//! except HPC/HMP which emit parameter packets on port 0 and the output
//! filters which are sinks.

use crate::config::AppConfig;
use crate::payload::{ChunkData, FeatureVolume, MatrixBatch, MatrixPacket, ParamPacket, Piece};
use crate::run::IoRuntime;
use crate::store::{ChunkKey, KeyRecipe, StoreSession, StoreStage};
use datacutter::{DataBuffer, Filter, FilterContext, FilterError, FilterErrorKind};
use haralick::coocc::CoMatrix;
use haralick::features::{compute_features, FeatureSelection, MatrixStats};
use haralick::raster::{scan_placements_with, Representation};
use haralick::sparse::SparseCoMatrix;
use haralick::volume::Point4;
use mri::cache::{crop_subrect, CacheError, IoStats, ReusePlan, SliceCache, SliceSource};
use mri::chunks::{Chunk, ChunkGrid};
use mri::dicom::{DicomDataset, DicomError};
use mri::output::{normalize_to_gray, write_pgm, ParameterWriter};
use mri::raw::RawVolume;
use mri::store::{DatasetDescriptor, DistributedDataset, SliceKey};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Maps a typed cache failure onto the engine's error taxonomy: loader I/O
/// failures keep their `Io` kind, and a panicked loader surfaces on the
/// waiting filter as a `Panic`-kind error naming the slice — never as a
/// poisoned-lock panic in a copy that did nothing wrong.
fn cache_error(e: CacheError) -> FilterError {
    let kind = match &e {
        CacheError::Io { .. } => FilterErrorKind::Io,
        CacheError::LoaderPanicked { .. } => FilterErrorKind::Panic,
    };
    FilterError::new(kind, e.to_string())
}

/// The cached reading loop: walks the chunk grid in emission order through
/// `cache`'s plan, cropping each chunk's sub-rectangle out of the slice or
/// row band the cache serves.
/// `emit` receives `(chunk, key, data)` for every piece the plan owns, in
/// the exact order the naive path produces.
fn pump_chunks<S: SliceSource>(
    cache: &SliceCache<S>,
    grid: &ChunkGrid,
    mut emit: impl FnMut(Chunk, SliceKey, Vec<u16>) -> Result<(), FilterError>,
) -> Result<(), FilterError> {
    let (plan, (slice_x, _)) = (cache.plan(), cache.slice_dims());
    for (seq, chunk) in grid.chunks().enumerate() {
        let r = chunk.input;
        for &key in plan.keys_for(seq) {
            let slice = cache.get(key).map_err(cache_error)?;
            let mut data = Vec::with_capacity(r.size.x * r.size.y);
            crop_subrect(
                &slice, slice_x, r.origin.x, r.origin.y, r.size.x, r.size.y, &mut data,
            );
            emit(chunk, key, data)?;
        }
        cache.advance(seq);
    }
    Ok(())
}

/// A disk-resident dataset format the reader filter can serve pieces from.
///
/// This is the seam behind the incremental-development claim of paper §4.3
/// ("the filter developed to read in raw DCE-MRI data may be easily
/// replaced by a filter which reads DICOM format images"): the formats
/// differ only in how a dataset is opened and how one piece is read with
/// the cache off; everything else is the one [`ReaderFilter`]. Whole-slice
/// loads for the cached paths come from the [`SliceSource`] supertrait.
pub trait PieceSource: SliceSource + Sized + Send + Sync + 'static {
    /// The filter's name in graphs and error messages.
    const LABEL: &'static str;

    /// Opens the dataset rooted at `root`.
    fn open(root: &Path) -> io::Result<Self>;

    /// The dataset descriptor (extents, storage-node count).
    fn descriptor(&self) -> &DatasetDescriptor;

    /// The storage node holding slice `key`, if the dataset has it.
    fn node_of(&self, key: SliceKey) -> Option<usize>;

    /// Cache-off read of the `w x h` piece at `(x0, y0)` of slice `key`:
    /// the pixels and the number of bytes read from disk to produce them.
    fn read_piece(
        &self,
        key: SliceKey,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
    ) -> io::Result<(Vec<u16>, u64)>;
}

/// Raw slices: a piece is read as a sub-rectangle, so only its own bytes
/// leave the disk.
impl PieceSource for DistributedDataset {
    const LABEL: &'static str = "RFR";

    fn open(root: &Path) -> io::Result<Self> {
        DistributedDataset::open(root)
    }

    fn descriptor(&self) -> &DatasetDescriptor {
        DistributedDataset::descriptor(self)
    }

    fn node_of(&self, key: SliceKey) -> Option<usize> {
        DistributedDataset::node_of(self, key)
    }

    fn read_piece(
        &self,
        key: SliceKey,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
    ) -> io::Result<(Vec<u16>, u64)> {
        let data = self.read_subrect(key, x0, y0, w, h)?;
        let bytes = data.len() as u64 * 2;
        Ok((data, bytes))
    }
}

/// DICOM files: a slice decodes whole, the piece is cropped out of it.
/// Errors map as [`SliceSource::load_slice`] maps them for this dataset.
impl PieceSource for DicomDataset {
    const LABEL: &'static str = "DFR";

    fn open(root: &Path) -> io::Result<Self> {
        DicomDataset::open(root).map_err(|e| match e {
            DicomError::Io(e) => e,
            e @ DicomError::Malformed(_) => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
        })
    }

    fn descriptor(&self) -> &DatasetDescriptor {
        DicomDataset::descriptor(self)
    }

    fn node_of(&self, key: SliceKey) -> Option<usize> {
        DicomDataset::node_of(self, key)
    }

    fn read_piece(
        &self,
        key: SliceKey,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
    ) -> io::Result<(Vec<u16>, u64)> {
        let slice = self.load_slice(key)?;
        let mut data = Vec::new();
        crop_subrect(&slice, self.slice_dims().0, x0, y0, w, h, &mut data);
        Ok((data, slice.len() as u64 * 2))
    }
}

/// The reader filter: reads the local portions of every chunk's input
/// region from this storage node and ships them to the stitch filters as
/// [`Piece`] buffers — byte-identical whatever the dataset format `D`, so
/// nothing downstream changes.
///
/// Copy `i` serves storage node `i`; the dataset must be distributed over
/// exactly as many nodes as there are reader copies.
pub struct ReaderFilter<D: PieceSource> {
    cfg: Arc<AppConfig>,
    dataset: D,
    node: usize,
    io: Arc<IoStats>,
    cache_bytes: usize,
}

/// RAWFileReader: the reader over raw distributed slices.
pub type RfrFilter = ReaderFilter<DistributedDataset>;

/// DCMFileReader: the drop-in DICOM replacement for [`RfrFilter`].
pub type DfrFilter = ReaderFilter<DicomDataset>;

impl<D: PieceSource> ReaderFilter<D> {
    /// Opens the dataset for copy `node`, recording into `rt`'s I/O
    /// counters and caching up to `rt.cache_bytes`.
    ///
    /// # Errors
    /// `Io`-kind when the dataset cannot be opened, `App`-kind when its
    /// storage-node count disagrees with `cfg`; both name `root`.
    pub fn open(
        cfg: Arc<AppConfig>,
        root: &Path,
        node: usize,
        rt: &IoRuntime,
    ) -> Result<Self, FilterError> {
        let failed = |kind, cause: String| {
            let (label, at) = (D::LABEL, root.display());
            let message = format!("{label} could not open the dataset at {at}: {cause}");
            FilterError::new(kind, message)
        };
        let dataset = D::open(root).map_err(|e| failed(FilterErrorKind::Io, e.to_string()))?;
        let nodes = dataset.descriptor().num_nodes;
        if nodes != cfg.storage_nodes {
            return Err(failed(
                FilterErrorKind::App,
                format!(
                    "dataset has {nodes} storage nodes, config expects {}",
                    cfg.storage_nodes
                ),
            ));
        }
        Ok(Self {
            cfg,
            dataset,
            node,
            io: Arc::clone(&rt.io),
            cache_bytes: rt.cache_bytes,
        })
    }
}

impl<D: PieceSource> Filter for ReaderFilter<D> {
    fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        let grid = ChunkGrid::new(self.cfg.dims, self.cfg.roi, self.cfg.chunk_dims);
        let (dataset, node) = (&self.dataset, self.node);
        // The emission order of every read path: chunks in grid order, a
        // chunk's slices `t` outer / `z` inner, this node's slices only.
        let plan = ReusePlan::new(&grid, |key| dataset.node_of(key) == Some(node));
        let mut emit = |chunk: Chunk, key: SliceKey, data: Vec<u16>| {
            let piece = Piece {
                chunk,
                slice: key,
                data,
            };
            let size = piece.wire_size();
            ctx.emit(0, DataBuffer::new(piece, size, chunk.id as u64))
        };
        if self.cache_bytes > 0 {
            // A private plan-exact cache around this copy's dataset.
            let cache = SliceCache::new(dataset, plan, self.cache_bytes, Arc::clone(&self.io));
            return pump_chunks(&cache, &grid, emit);
        }
        // Cache off: one disk read per piece, nothing retained.
        for (seq, chunk) in grid.chunks().enumerate() {
            let r = chunk.input;
            for &key in plan.keys_for(seq) {
                let (data, bytes) =
                    dataset.read_piece(key, r.origin.x, r.origin.y, r.size.x, r.size.y)?;
                self.io.record_miss();
                self.io.record_disk_read(bytes);
                emit(chunk, key, data)?;
            }
        }
        Ok(())
    }

    fn process(
        &mut self,
        _: usize,
        _: DataBuffer,
        _: &mut FilterContext,
    ) -> Result<(), FilterError> {
        Err(FilterError::msg(format!("{} has no inputs", D::LABEL)))
    }
}

/// InputImageConstructor (input stitch): reassembles complete chunk input
/// regions from the per-slice pieces and forwards them to the texture
/// filters. Pieces of one chunk are routed to one IIC copy by the
/// tag-modulo stream (the chunk id is the tag).
pub struct IicFilter {
    /// chunk id → (assembly buffer, which of its `z · t` slices arrived,
    /// how many are still missing).
    pending: HashMap<usize, (ChunkData, Vec<bool>, usize)>,
}

impl IicFilter {
    /// Creates an empty stitcher.
    pub fn new() -> Self {
        Self {
            pending: HashMap::new(),
        }
    }
}

impl Default for IicFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl Filter for IicFilter {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        // Take the piece by value: on the tag-modulo stream exactly one IIC
        // copy holds each piece, so this moves (no pixel copy).
        let piece: Piece = buf.into_payload()?;
        let (chunk, key) = (piece.chunk, piece.slice);
        let size = chunk.input.size;
        // Pieces may come from a peer process: one that does not fit its
        // chunk, or arrives twice, is refused rather than pasted.
        let refuse = |what: String| {
            let (id, (t, z)) = (chunk.id, (key.t, key.z));
            let message =
                format!("IIC refused the piece of slice (t {t}, z {z}) for chunk {id}: {what}");
            Err(FilterError::new(FilterErrorKind::App, message))
        };
        let (Some(z), Some(t)) = (
            key.z
                .checked_sub(chunk.input.origin.z)
                .filter(|&z| z < size.z),
            key.t
                .checked_sub(chunk.input.origin.t)
                .filter(|&t| t < size.t),
        ) else {
            return refuse(format!(
                "the slice lies outside the input {:?}",
                chunk.input
            ));
        };
        if piece.data.len() != size.x * size.y {
            let (len, want) = (piece.data.len(), size.x * size.y);
            return refuse(format!("{len} voxels, want {want}"));
        }
        let entry = self.pending.entry(chunk.id).or_insert_with(|| {
            let slices = size.z * size.t;
            let raw = RawVolume::new(size, vec![0u16; size.len()]);
            (ChunkData { chunk, raw }, vec![false; slices], slices)
        });
        let (data, received, missing) = entry;
        if data.chunk != chunk {
            return refuse(format!(
                "its chunk differs from the first piece's {:?}",
                data.chunk
            ));
        }
        if std::mem::replace(&mut received[t * size.z + z], true) {
            return refuse("the slice was already received".to_string());
        }
        let at = Point4::new(0, 0, z, t);
        data.raw.paste_plane(size.x, size.y, &piece.data, at);
        *missing -= 1;
        if *missing == 0 {
            let (data, _, _) = self.pending.remove(&chunk.id).expect("entry exists");
            let size = data.wire_size();
            ctx.emit(0, DataBuffer::new(data, size, chunk.id as u64))?;
        }
        Ok(())
    }

    fn finish(&mut self, _: &mut FilterContext) -> Result<(), FilterError> {
        if !self.pending.is_empty() {
            return Err(FilterError::msg(format!(
                "IIC finished with {} incomplete chunks (missing pieces)",
                self.pending.len()
            )));
        }
        Ok(())
    }
}

/// The placement base of a chunk's scan: its owned-output block's origin
/// in chunk-local coordinates.
fn owned_base(chunk: &Chunk) -> Point4 {
    let (owned, input) = (chunk.owned_output.origin, chunk.input.origin);
    Point4::new(
        owned.x - input.x,
        owned.y - input.y,
        owned.z - input.z,
        owned.t - input.t,
    )
}

/// Computes feature values for every owned ROI of a chunk and groups them
/// into one `ParamPacket` per feature. Shared by HMP (directly) and used in
/// tests as the per-chunk reference.
///
/// The per-chunk raster scan is routed through [`haralick::raster`] via its
/// raw-voxel entry point: `cfg.engine` selects the paper's per-placement
/// rebuild (`Reference`) or the fused sheet kernel (`Fused`), and
/// both produce bit-identical values. The chunk's raw `u16` voxels are
/// quantized once, up front, and under `Fused` sparse representations run
/// natively (the kernel emits sparse-entry state from its unmirrored apply,
/// with no densify-then-sparsify round trip).
pub fn analyze_chunk(cfg: &AppConfig, data: &ChunkData) -> Result<Vec<ParamPacket>, FilterError> {
    let chunk = &data.chunk;
    let maps = haralick::raster::scan_placements_raw(
        data.raw.dims(),
        data.raw.as_slice(),
        &cfg.quantizer,
        &cfg.scan_config(),
        owned_base(chunk),
        chunk.owned_output.size,
    );
    let n = chunk.rois();
    let sel = cfg.selection;
    // The feature maps enumerate the owned ROIs x-fastest, the order a
    // packet's values run in, so placement `k` occupies
    // `values[k * sel.len()..]`.
    let values = maps.as_slice();
    Ok(sel
        .iter()
        .enumerate()
        .map(|(slot, feature)| ParamPacket {
            chunk: *chunk,
            feature,
            first: 0,
            values: (0..n).map(|k| values[k * sel.len() + slot]).collect(),
        })
        .collect())
}

/// HaralickMatrixProducer: the combined variant — co-occurrence matrices
/// and Haralick parameters in one filter (paper Figure 5).
pub struct HmpFilter {
    cfg: Arc<AppConfig>,
    store: Option<(KeyRecipe, Arc<StoreSession>)>,
}

impl HmpFilter {
    /// Creates the filter. With a result-store `session`, chunks whose
    /// input region and config match a committed blob are served instead of
    /// computed, and fresh results are staged for publication.
    pub fn new(cfg: Arc<AppConfig>, session: Option<Arc<StoreSession>>) -> Self {
        let store = session.map(|s| (KeyRecipe::new(&cfg, StoreStage::Params), s));
        Self { cfg, store }
    }
}

impl Filter for HmpFilter {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        let tag = buf.tag();
        // Demand-driven streams deliver each chunk to one copy, so this
        // moves the chunk out of the buffer instead of borrowing it.
        let data: ChunkData = buf.into_payload()?;
        // All of a chunk's parameter packets live in one blob under packet
        // index 0: they are produced together and always emitted together.
        let packets = match &self.store {
            Some((recipe, session)) => {
                let content = recipe.content_digest(&data.chunk, &data.raw);
                let key = recipe.key(&data.chunk, content, 0);
                match session.lookup_params(&key) {
                    Some(packets) => packets,
                    None => {
                        let packets = analyze_chunk(&self.cfg, &data)?;
                        session.publish_params(&key, &packets);
                        packets
                    }
                }
            }
            None => analyze_chunk(&self.cfg, &data)?,
        };
        drop(data);
        for packet in packets {
            let size = packet.wire_size();
            ctx.emit(0, DataBuffer::new(packet, size, tag))?;
        }
        Ok(())
    }
}

/// HaralickCoMatrixCalculator: the matrix half of the split variant (paper
/// Figure 4). Emits a matrix packet each time `1/packet_split` of a chunk's
/// ROIs have been processed.
pub struct HccFilter {
    cfg: Arc<AppConfig>,
    store: Option<(KeyRecipe, Arc<StoreSession>)>,
}

impl HccFilter {
    /// Creates the filter. With a result-store `session`, matrix output is
    /// stored at packet granularity — one blob per `packet_split` packet,
    /// keyed by the packet's first ROI index — so a store hit preserves the
    /// split variant's streaming memory bounds instead of materializing a
    /// whole chunk's matrices.
    pub fn new(cfg: Arc<AppConfig>, session: Option<Arc<StoreSession>>) -> Self {
        let store = session.map(|s| (KeyRecipe::new(&cfg, StoreStage::Matrices), s));
        Self { cfg, store }
    }
}

impl Filter for HccFilter {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        let tag = buf.tag();
        let data: ChunkData = buf.into_payload()?;
        let cfg = &self.cfg;
        let chunk = data.chunk;
        let n = chunk.rois();
        let per_packet = n.div_ceil(cfg.packet_split.max(1)).max(1);
        let packets = n.div_ceil(per_packet);
        let mut emit = |packet: MatrixPacket| {
            let size = packet.wire_size(cfg.levels);
            ctx.emit(0, DataBuffer::new(packet, size, tag))
        };
        // One store key per matrix packet, folding the packet's first ROI
        // index on top of the chunk's content digest, which covers the raw
        // input region. Every key is looked up before the scan: stored
        // packets stream out while they hit, and if all hit the chunk is
        // not scanned. Otherwise the scan covers the whole chunk once, and
        // only the packets whose keys missed are published.
        let store = self.store.as_ref().map(|(recipe, session)| {
            let content = recipe.content_digest(&chunk, &data.raw);
            let keys: Vec<ChunkKey> = (0..packets)
                .map(|j| recipe.key(&chunk, content, j * per_packet))
                .collect();
            (keys, session)
        });
        let (mut served, mut missed) = (0, vec![false; packets]);
        if let Some((keys, session)) = &store {
            for key in keys {
                let Some(packet) = session.lookup_matrices(key) else {
                    break;
                };
                emit(packet)?;
                served += 1;
            }
            if served == packets {
                return Ok(());
            }
            for (j, key) in keys.iter().enumerate().skip(served) {
                missed[j] = j == served || session.lookup_matrices(key).is_none();
            }
        }
        let vol = data.raw.quantize(&cfg.quantizer);
        // The raw chunk is only needed for quantization; free it before
        // the scan.
        drop(data);
        // The scan visits the owned ROIs x-fastest, the order a packet's
        // items run in: after `k` visits, ROIs `0..k` are packed.
        let sparse = cfg.representation.is_sparse();
        let batch = |len: usize| {
            if sparse {
                MatrixBatch::Sparse(Vec::with_capacity(len))
            } else {
                MatrixBatch::Dense(Vec::with_capacity(len))
            }
        };
        // Packets already served from the store cover the first `skip`
        // ROIs.
        let skip = served * per_packet;
        let (mut k, mut pending, mut failed) = (0, batch(per_packet), None);
        let (base, extent) = (owned_base(&chunk), chunk.owned_output.size);
        scan_placements_with(&vol, &cfg.scan_config(), base, extent, |_, stats| {
            k += 1;
            if k <= skip || failed.is_some() {
                return;
            }
            let len = match &mut pending {
                MatrixBatch::Dense(v) => {
                    v.push(CoMatrix::from_stats(stats));
                    v.len()
                }
                MatrixBatch::Sparse(v) => {
                    v.push(SparseCoMatrix::from_stats(stats));
                    v.len()
                }
            };
            if len < per_packet && k < n {
                return;
            }
            let first = k - len;
            let j = first / per_packet;
            let packet = MatrixPacket {
                chunk,
                first,
                batch: std::mem::replace(&mut pending, batch(per_packet.min(n - k))),
            };
            if let Some((keys, session)) = store.as_ref().filter(|_| missed[j]) {
                session.publish_matrices(&keys[j], &packet);
            }
            if let Err(e) = emit(packet) {
                failed = Some(e);
            }
        });
        failed.map_or(Ok(()), Err)
    }
}

/// HaralickParameterCalculator: the parameter half of the split variant.
pub struct HpcFilter {
    cfg: Arc<AppConfig>,
}

impl HpcFilter {
    /// Creates the filter.
    pub fn new(cfg: Arc<AppConfig>) -> Self {
        Self { cfg }
    }
}

impl Filter for HpcFilter {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        let packet = buf.payload::<MatrixPacket>()?;
        let cfg = &self.cfg;
        let sel: FeatureSelection = cfg.selection;
        let n = packet.batch.len();
        let mut per_feature: Vec<Vec<f64>> = vec![Vec::with_capacity(n); sel.len()];
        let mut push = |stats: &MatrixStats| {
            let fv = compute_features(stats, &sel);
            for (slot, f) in sel.iter().enumerate() {
                per_feature[slot].push(fv.get(f).expect("selected feature computed"));
            }
        };
        match &packet.batch {
            MatrixBatch::Dense(ms) => {
                let zero_skip = cfg.representation != Representation::FullNaive;
                for m in ms {
                    push(&MatrixStats::from_dense(m, zero_skip));
                }
            }
            MatrixBatch::Sparse(ms) => {
                for s in ms {
                    push(&MatrixStats::from_sparse(s));
                }
            }
        }
        // Each parameter packet covers the matrix packet's run of ROIs.
        for (slot, feature) in sel.iter().enumerate() {
            let out = ParamPacket {
                chunk: packet.chunk,
                feature,
                first: packet.first,
                values: std::mem::take(&mut per_feature[slot]),
            };
            let size = out.wire_size();
            ctx.emit(0, DataBuffer::new(out, size, buf.tag()))?;
        }
        Ok(())
    }
}

/// UnstitchedOutput: writes parameter values with positional information to
/// disk, one file per (parameter, copy) pair. The positions come from each
/// packet's chunk ([`ParamPacket::points`]).
pub struct UsoFilter {
    cfg: Arc<AppConfig>,
    dir: PathBuf,
    copy: usize,
    canonical: bool,
    writers: HashMap<haralick::features::Feature, ParameterWriter>,
    /// Canonical mode only ([`IoRuntime::canonical_output`]): values are
    /// buffered here and written sorted by output position at finish, so
    /// the file bytes do not depend on packet arrival order — the property
    /// the distributed conformance suite compares across process counts.
    pending: HashMap<haralick::features::Feature, Vec<(Point4, f64)>>,
    /// Arrival-order mode: the next few positions of the packet being
    /// written (see [`UsoFilter::STAGE`]).
    staged: Vec<Point4>,
}

impl UsoFilter {
    /// Creates the filter writing into `dir` (created on demand), in
    /// arrival order or — `canonical` — sorted by output position.
    pub fn new(cfg: Arc<AppConfig>, dir: PathBuf, copy: usize, canonical: bool) -> Self {
        Self {
            cfg,
            dir,
            copy,
            canonical,
            writers: HashMap::new(),
            pending: HashMap::new(),
            staged: Vec::with_capacity(Self::STAGE),
        }
    }

    /// Positions derived per write, staged in memory. `ParameterWriter::push`
    /// reads its point back through memory, and a point fresh from
    /// registers stalls that read (about 6 ns a record); one staged a few
    /// hundred records earlier does not.
    const STAGE: usize = 256;

    /// The file a given (feature, copy) pair is written to, relative to the
    /// output directory.
    pub fn file_name(feature: haralick::features::Feature, copy: usize) -> String {
        format!("{}_{copy}.h4dp", feature.short_name())
    }
}

impl Filter for UsoFilter {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        _: &mut FilterContext,
    ) -> Result<(), FilterError> {
        let packet = buf.payload::<ParamPacket>()?;
        if self.canonical {
            self.pending
                .entry(packet.feature)
                .or_default()
                .extend(packet.points().zip(packet.values.iter().copied()));
            return Ok(());
        }
        if !self.writers.contains_key(&packet.feature) {
            std::fs::create_dir_all(&self.dir)?;
            let path = self.dir.join(Self::file_name(packet.feature, self.copy));
            let w =
                ParameterWriter::create(&path, packet.feature.short_name(), self.cfg.out_dims())?;
            self.writers.insert(packet.feature, w);
        }
        let w = self
            .writers
            .get_mut(&packet.feature)
            .expect("just inserted");
        let mut points = packet.points();
        for values in packet.values.chunks(Self::STAGE) {
            self.staged.clear();
            self.staged.extend(points.by_ref().take(values.len()));
            for (&p, &v) in self.staged.iter().zip(values) {
                w.push(p, v)?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
        if ctx.run_failed() {
            // The run is aborting: a fault elsewhere ended our input streams
            // early, so the data buffered in the writers is (potentially)
            // partial. Abandon the `.tmp` files instead of committing them —
            // a renamed file would masquerade as a complete result. The real
            // root cause is reported by the failing copy, not us.
            self.writers.clear();
            self.pending.clear();
            return Ok(());
        }
        // Canonical mode: sort each feature's buffered values by output
        // position, then write in one deterministic pass.
        let out_dims = self.cfg.out_dims();
        for (feature, mut vals) in std::mem::take(&mut self.pending) {
            vals.sort_by_key(|&(p, _)| out_dims.index(p));
            std::fs::create_dir_all(&self.dir)?;
            let path = self.dir.join(Self::file_name(feature, self.copy));
            let mut w = ParameterWriter::create(&path, feature.short_name(), out_dims)?;
            for &(p, v) in &vals {
                w.push(p, v)?;
            }
            self.writers.insert(feature, w);
        }
        for (_, w) in self.writers.drain() {
            w.finish()?;
        }
        Ok(())
    }
}

/// HaralickImageConstructor (output stitch): assembles the parameter
/// packets into complete per-parameter 4D volumes and forwards each, with
/// its min/max, once fully assembled.
///
/// Memory note: by design (paper §4.3.3) this filter holds one dense `f64`
/// map per parameter for the whole output — at paper scale that is ~440 MB
/// per parameter on the stitch node. Use the USO path for outputs that
/// must stream.
pub struct HicFilter {
    cfg: Arc<AppConfig>,
    maps: HashMap<haralick::features::Feature, Vec<f64>>,
    filled: HashMap<haralick::features::Feature, usize>,
}

impl HicFilter {
    /// Creates an empty output stitcher.
    pub fn new(cfg: Arc<AppConfig>) -> Self {
        Self {
            cfg,
            maps: HashMap::new(),
            filled: HashMap::new(),
        }
    }
}

impl Filter for HicFilter {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        ctx: &mut FilterContext,
    ) -> Result<(), FilterError> {
        let packet = buf.payload::<ParamPacket>()?;
        let dims = self.cfg.out_dims();
        let map = self
            .maps
            .entry(packet.feature)
            .or_insert_with(|| vec![f64::NAN; dims.len()]);
        for (p, &v) in packet.points().zip(&packet.values) {
            if !dims.contains(p) {
                return Err(FilterError::msg(format!(
                    "{} packet references point {p:?} outside output extents {dims:?}",
                    packet.feature.short_name()
                )));
            }
            let idx = dims.index(p);
            // A cell written twice would silently inflate the completion
            // count below and corrupt the assembled map — fail loudly,
            // naming the colliding feature and position.
            if !map[idx].is_nan() {
                return Err(FilterError::msg(format!(
                    "duplicate value for feature {} at point {p:?}: output cell already written",
                    packet.feature.short_name()
                )));
            }
            map[idx] = v;
        }
        let filled = self.filled.entry(packet.feature).or_insert(0);
        *filled += packet.values.len();
        if *filled == dims.len() {
            let values = self.maps.remove(&packet.feature).expect("map exists");
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in &values {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let vol = FeatureVolume {
                feature: packet.feature,
                dims,
                values,
                min: lo,
                max: hi,
            };
            let size = vol.dims.len() * 8 + 64;
            ctx.emit(0, DataBuffer::new(vol, size, 0))?;
        }
        Ok(())
    }

    fn finish(&mut self, _: &mut FilterContext) -> Result<(), FilterError> {
        if !self.maps.is_empty() {
            return Err(FilterError::msg(format!(
                "HIC finished with {} incompletely assembled parameters",
                self.maps.len()
            )));
        }
        Ok(())
    }
}

/// JPGImageWriter (PGM substitution): normalizes each assembled parameter
/// volume by its min/max (zero → black, one → white) and writes it as a
/// series of 2D gray-scale images, one per (z, t) slice.
pub struct JiwFilter {
    dir: PathBuf,
}

impl JiwFilter {
    /// Creates the filter writing under `dir/<feature>/`.
    pub fn new(dir: PathBuf) -> Self {
        Self { dir }
    }
}

impl Filter for JiwFilter {
    fn process(
        &mut self,
        _: usize,
        buf: DataBuffer,
        _: &mut FilterContext,
    ) -> Result<(), FilterError> {
        let vol = buf.payload::<FeatureVolume>()?;
        let d = vol.dims;
        let dir = self.dir.join(vol.feature.short_name());
        std::fs::create_dir_all(&dir)?;
        for t in 0..d.t {
            for z in 0..d.z {
                let start = d.index(Point4::new(0, 0, z, t));
                let plane = &vol.values[start..start + d.x * d.y];
                let gray = normalize_to_gray(plane, vol.min, vol.max);
                let path = dir.join(format!("slice_t{t:04}_z{z:04}.pgm"));
                write_pgm(&path, d.x, d.y, &gray)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacutter::{run_graph, FilterFactory, GraphSpec, RunFailure, SchedulePolicy};
    use haralick::raster::{Representation, ScanEngine};
    use haralick::volume::{Dims4, Region4};
    use haralick::RoiShape;
    use std::sync::Mutex;

    /// Emits its payloads on port 0, each tagged with the given tag.
    struct Source<T>(Vec<(T, u64)>);

    impl<T: std::any::Any + Send + Sync> Filter for Source<T> {
        fn start(&mut self, ctx: &mut FilterContext) -> Result<(), FilterError> {
            for (payload, tag) in self.0.drain(..) {
                ctx.emit(0, DataBuffer::new(payload, 0, tag))?;
            }
            Ok(())
        }

        fn process(
            &mut self,
            _: usize,
            _: DataBuffer,
            _: &mut FilterContext,
        ) -> Result<(), FilterError> {
            unreachable!("a source has no inputs")
        }
    }

    /// Collects the payloads it receives.
    struct Sink<T>(Arc<Mutex<Vec<T>>>);

    impl<T: std::any::Any + Send + Sync + Clone> Filter for Sink<T> {
        fn process(
            &mut self,
            _: usize,
            buf: DataBuffer,
            _: &mut FilterContext,
        ) -> Result<(), FilterError> {
            self.0.lock().unwrap().push(buf.into_payload()?);
            Ok(())
        }
    }

    /// Runs `inputs` through one copy of `stage` and returns what it emitted.
    fn through<I, O>(inputs: Vec<(I, u64)>, stage: Box<dyn Filter>) -> Result<Vec<O>, RunFailure>
    where
        I: std::any::Any + Send + Sync,
        O: std::any::Any + Send + Sync + Clone,
    {
        let spec = GraphSpec::new()
            .filter("src", 1)
            .filter("stage", 1)
            .filter("sink", 1)
            .stream("in", "src", "stage", SchedulePolicy::RoundRobin)
            .stream("out", "stage", "sink", SchedulePolicy::RoundRobin);
        let got = Arc::new(Mutex::new(Vec::new()));
        let (mut source, mut stage) = (Some(Source(inputs)), Some(stage));
        let sink = Arc::clone(&got);
        let mut factories: HashMap<String, FilterFactory> = HashMap::new();
        factories.insert(
            "src".into(),
            Box::new(move |_| Ok(Box::new(source.take().unwrap()))),
        );
        factories.insert("stage".into(), Box::new(move |_| Ok(stage.take().unwrap())));
        factories.insert(
            "sink".into(),
            Box::new(move |_| Ok(Box::new(Sink::<O>(Arc::clone(&sink))))),
        );
        run_graph(&spec, &mut factories)?;
        let got = std::mem::take(&mut *got.lock().unwrap());
        Ok(got)
    }

    /// A small analysis of 2 x 2 x 2 x 2 chunks of 6 x 5 x 2 x 2 ROIs each.
    fn small_cfg(representation: Representation, engine: ScanEngine) -> AppConfig {
        AppConfig {
            dims: Dims4::new(15, 12, 5, 5),
            roi: RoiShape::from_lengths(4, 3, 2, 2),
            chunk_dims: Dims4::new(9, 7, 3, 3),
            engine,
            ..AppConfig::test_scale(representation)
        }
    }

    /// The last chunk of `cfg`'s grid (non-zero input origin) and its raw
    /// input voxels.
    fn last_chunk(cfg: &AppConfig) -> ChunkData {
        let grid = ChunkGrid::new(cfg.dims, cfg.roi, cfg.chunk_dims);
        let chunk = grid.chunks().last().expect("a chunk");
        let voxels = (0..chunk.input.size.len() as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as u16)
            .collect();
        ChunkData {
            chunk,
            raw: RawVolume::new(chunk.input.size, voxels),
        }
    }

    /// The pieces RFR would send for `data`, `t` outer / `z` inner.
    fn pieces(data: &ChunkData) -> Vec<(Piece, u64)> {
        let (chunk, size) = (data.chunk, data.chunk.input.size);
        let plane = size.x * size.y;
        let mut out = Vec::new();
        for t in 0..size.t {
            for z in 0..size.z {
                let at = (t * size.z + z) * plane;
                let slice = SliceKey {
                    t: chunk.input.origin.t + t,
                    z: chunk.input.origin.z + z,
                };
                let data = data.raw.as_slice()[at..at + plane].to_vec();
                out.push((Piece { chunk, slice, data }, chunk.id as u64));
            }
        }
        out
    }

    fn stitch(pieces: Vec<(Piece, u64)>) -> Result<Vec<ChunkData>, RunFailure> {
        through(pieces, Box::new(IicFilter::new()))
    }

    /// Asserts the run failed with an `App`-kind IIC error naming the chunk
    /// and saying `why`.
    fn assert_refused(run: Result<Vec<ChunkData>, RunFailure>, chunk: &Chunk, why: &str) {
        let failure = run.expect_err("IIC accepted a bad piece");
        let (kind, message) = (failure.error.kind(), failure.error.message());
        assert_eq!(kind, FilterErrorKind::App, "{message}");
        assert!(
            message.contains(&format!("chunk {}", chunk.id)),
            "{message}"
        );
        assert!(message.contains(why), "{message}");
    }

    #[test]
    fn iic_stitches_pieces_in_any_order() {
        let data = last_chunk(&small_cfg(Representation::Full, ScanEngine::Fused));
        let mut shuffled = pieces(&data);
        shuffled.reverse();
        assert_eq!(stitch(shuffled).expect("stitched"), vec![data]);
    }

    #[test]
    fn iic_refuses_a_slice_it_already_received() {
        // A second copy of the first slice in place of the last one would
        // complete the count with the last plane still zero.
        let data = last_chunk(&small_cfg(Representation::Full, ScanEngine::Fused));
        let mut sent = pieces(&data);
        let first = sent[0].clone();
        *sent.last_mut().unwrap() = first;
        assert_refused(stitch(sent), &data.chunk, "already received");
    }

    #[test]
    fn iic_refuses_a_piece_outside_the_chunk_input() {
        let data = last_chunk(&small_cfg(Representation::Full, ScanEngine::Fused));
        let input = data.chunk.input;
        assert!(input.origin.z > 0 && input.origin.t > 0);
        let past = (input.origin.t, input.origin.z + input.size.z);
        let before = (input.origin.t - 1, input.origin.z);
        for (t, z) in [past, before] {
            let mut sent = pieces(&data);
            sent[0].0.slice = SliceKey { t, z };
            assert_refused(stitch(sent), &data.chunk, "outside the input");
        }
    }

    #[test]
    fn iic_refuses_a_piece_of_the_wrong_length() {
        let data = last_chunk(&small_cfg(Representation::Full, ScanEngine::Fused));
        let mut sent = pieces(&data);
        sent[1].0.data.pop();
        assert_refused(stitch(sent), &data.chunk, "voxels, want");
    }

    #[test]
    fn hcc_packets_equal_a_rebuild_of_every_window() {
        // The matrices HCC sends equal the per-window rebuild, densely or
        // through `SparseCoMatrix::from_dense`, whatever the engine.
        for engine in [ScanEngine::Reference, ScanEngine::Fused] {
            for representation in [
                Representation::FullNaive,
                Representation::Full,
                Representation::Sparse,
                Representation::SparseAccum,
            ] {
                let cfg = Arc::new(small_cfg(representation, engine));
                let data = last_chunk(&cfg);
                let (chunk, vol) = (data.chunk, data.raw.quantize(&cfg.quantizer));
                let hcc = Box::new(HccFilter::new(Arc::clone(&cfg), None));
                let mut packets: Vec<MatrixPacket> =
                    through(vec![(data, chunk.id as u64)], hcc).expect("HCC run");
                packets.sort_by_key(|p| p.first);
                assert_eq!(
                    packets.len(),
                    cfg.packet_split,
                    "{engine:?} {representation:?}"
                );
                let mut k = 0;
                for packet in &packets {
                    assert_eq!(packet.first, k, "{engine:?} {representation:?}");
                    let origins = chunk.owned_output.points().skip(k);
                    for (i, global) in origins.take(packet.batch.len()).enumerate() {
                        let local = Point4::new(
                            global.x - chunk.input.origin.x,
                            global.y - chunk.input.origin.y,
                            global.z - chunk.input.origin.z,
                            global.t - chunk.input.origin.t,
                        );
                        let region = Region4::new(local, cfg.roi.size());
                        let expect = CoMatrix::from_region(&vol, region, &cfg.directions);
                        let what = format!("{engine:?} {representation:?} at {global:?}");
                        match &packet.batch {
                            MatrixBatch::Dense(ms) => assert_eq!(ms[i], expect, "{what}"),
                            MatrixBatch::Sparse(ms) => {
                                assert_eq!(ms[i], SparseCoMatrix::from_dense(&expect), "{what}")
                            }
                        }
                        assert_eq!(
                            matches!(packet.batch, MatrixBatch::Sparse(_)),
                            representation.is_sparse(),
                            "{what}"
                        );
                    }
                    k += packet.batch.len();
                }
                assert_eq!(k, chunk.rois(), "{engine:?} {representation:?}");
            }
        }
    }
}
