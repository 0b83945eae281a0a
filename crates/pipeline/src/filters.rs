//! The real filter implementations (threaded engine).
//!
//! Port conventions (fixed by the graph builders in [`crate::graphs`]):
//! every filter has at most one input kind and emits on output port 0,
//! except HPC/HMP which emit parameter packets on port 0 and the output
//! filters which are sinks.

use crate::config::AppConfig;
use crate::payload::{
    linear_point, ChunkData, FeatureVolume, MatrixBatch, MatrixPacket, ParamPacket, Piece,
};
use crate::run::{IoRuntime, SliceCaching};
use crate::store::{KeyRecipe, StoreSession, StoreStage};
use datacutter::{DataBuffer, Filter, FilterContext, FilterError, FilterErrorKind};
use haralick::coocc::CoMatrix;
use haralick::features::{compute_features, FeatureSelection, MatrixStats};
use haralick::raster::{Representation, ScanEngine};
use haralick::sparse::{SparseAccumulator, SparseCoMatrix};
use haralick::volume::{LevelVolume, Point4, Region4};
use haralick::window::MatrixCursor;
use mri::cache::{
    crop_subrect, CacheError, IoStats, PlanHandle, ReusePlan, SharedSliceSource, SliceCache,
    SliceSource,
};
use mri::chunks::ChunkGrid;
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

/// The reading loop shared by the per-copy and daemon-scoped cache paths:
/// walks the chunk grid in emission order through plan `handle` of `cache`,
/// cropping each chunk's sub-rectangle out of the cached full slices.
/// `emit` receives `(chunk, key, data)` for every piece the plan owns, in
/// the exact order the naive path produces.
///
/// The plan is detached on every exit path (success and error alike):
/// detaching releases the slices only this walk still held, which is what
/// makes an early error safe on a cache other jobs are still using —
/// shutting the whole cache down would kill them too.
fn pump_chunks<S: SliceSource>(
    cache: &SliceCache<S>,
    handle: PlanHandle,
    grid: &ChunkGrid,
    mut emit: impl FnMut(mri::chunks::Chunk, SliceKey, Vec<u16>) -> Result<(), FilterError>,
) -> Result<(), FilterError> {
    let Some(plan) = cache.plan_of(handle) else {
        return Err(FilterError::engine(
            "slice reuse plan detached before reading began",
        ));
    };
    let (slice_x, _) = cache.slice_dims();
    let result = (|| -> Result<(), FilterError> {
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
            cache.advance_for(handle, seq);
        }
        Ok(())
    })();
    cache.detach(handle);
    result
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
    root: PathBuf,
    node: usize,
    io: Arc<IoStats>,
    caching: SliceCaching,
}

/// RAWFileReader: the reader over raw distributed slices.
pub type RfrFilter = ReaderFilter<DistributedDataset>;

/// DCMFileReader: the drop-in DICOM replacement for [`RfrFilter`].
pub type DfrFilter = ReaderFilter<DicomDataset>;

impl<D: PieceSource> ReaderFilter<D> {
    /// Opens the dataset for copy `node`, recording into `rt`'s I/O
    /// counters and reading the way `rt.caching` says.
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
            root: root.to_path_buf(),
            node,
            io: Arc::clone(&rt.io),
            caching: rt.caching.clone(),
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
        let mut emit = |chunk: mri::chunks::Chunk, key: SliceKey, data: Vec<u16>| {
            let piece = Piece {
                chunk,
                slice: key,
                data,
            };
            let size = piece.wire_size();
            ctx.emit(0, DataBuffer::new(piece, size, chunk.id as u64))
        };
        match &self.caching {
            // One disk read per piece, nothing retained.
            SliceCaching::Off => {
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
            // A private lifetime-exact cache around this copy's dataset.
            SliceCaching::PerCopy(budget) => {
                let cache = SliceCache::new(dataset, plan, *budget, Arc::clone(&self.io));
                pump_chunks(&cache, cache.primary_handle(), &grid, emit)
            }
            // The dataset's daemon-scoped cache (opened on first use), which
            // this walk's plan attaches to: concurrent jobs over the dataset
            // read each slice from disk exactly once, total.
            SliceCaching::Shared(registry) => {
                let open = || D::open(&self.root).map(|d| Box::new(d) as SharedSliceSource);
                let cache = registry.get_or_open(&self.root, open).map_err(|e| {
                    let root = self.root.display();
                    let message = format!("could not open the shared slice cache for {root}: {e}");
                    FilterError::new(FilterErrorKind::Io, message)
                })?;
                pump_chunks(&*cache, cache.attach(plan), &grid, emit)
            }
        }
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
    /// chunk id → (assembly buffer, received pieces, expected pieces).
    pending: HashMap<usize, (ChunkData, usize, usize)>,
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
        let chunk = piece.chunk;
        let entry = self.pending.entry(chunk.id).or_insert_with(|| {
            let expected = chunk.input.size.z * chunk.input.size.t;
            let store = vec![0u16; chunk.input.size.len()];
            (
                ChunkData {
                    chunk,
                    raw: RawVolume::new(chunk.input.size, store),
                },
                0,
                expected,
            )
        });
        let at = Point4::new(
            0,
            0,
            piece.slice.z - chunk.input.origin.z,
            piece.slice.t - chunk.input.origin.t,
        );
        entry
            .0
            .raw
            .paste_plane(chunk.input.size.x, chunk.input.size.y, &piece.data, at);
        entry.1 += 1;
        if entry.1 == entry.2 {
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

/// Builds the co-occurrence matrix for one ROI of a quantized chunk,
/// returning it in the configured transmission representation.
fn matrix_for(
    vol: &LevelVolume,
    cfg: &AppConfig,
    local_origin: Point4,
) -> Result<MatrixEither, FilterError> {
    let region = Region4::new(local_origin, cfg.roi.size());
    Ok(match cfg.representation {
        Representation::SparseAccum => {
            MatrixEither::Sparse(SparseAccumulator::from_region(vol, region, &cfg.directions))
        }
        Representation::Sparse => {
            let m = CoMatrix::from_region(vol, region, &cfg.directions);
            MatrixEither::Sparse(SparseCoMatrix::from_dense(&m))
        }
        _ => MatrixEither::Dense(CoMatrix::from_region(vol, region, &cfg.directions)),
    })
}

enum MatrixEither {
    Dense(CoMatrix),
    Sparse(SparseCoMatrix),
}

/// Computes feature values for every owned ROI of a chunk and groups them
/// into one `ParamPacket` per feature. Shared by HMP (directly) and used in
/// tests as the per-chunk reference.
///
/// The per-chunk raster scan is routed through [`haralick::raster`] via its
/// raw-voxel entry point: `cfg.engine` selects the paper's per-placement
/// rebuild (`Reference`) or the fused sheet kernel (`Fused`), and
/// both produce bit-identical values. Under `Fused`, quantization folds
/// into the window walk — the chunk's raw `u16` voxels are binned on the
/// fly and no intermediate quantized volume is materialized — and sparse
/// representations run natively (the kernel emits sparse-entry state from
/// its unmirrored apply, with no densify-then-sparsify round trip).
pub fn analyze_chunk(cfg: &AppConfig, data: &ChunkData) -> Result<Vec<ParamPacket>, FilterError> {
    let chunk = &data.chunk;
    let owned = chunk.owned_output;
    // The owned-output block's placement base in chunk-local coordinates.
    let base = Point4::new(
        owned.origin.x - chunk.input.origin.x,
        owned.origin.y - chunk.input.origin.y,
        owned.origin.z - chunk.input.origin.z,
        owned.origin.t - chunk.input.origin.t,
    );
    let maps = haralick::raster::scan_placements_raw(
        data.raw.dims(),
        data.raw.as_slice(),
        &cfg.quantizer,
        &cfg.scan_config(),
        base,
        owned.size,
    );
    let n = chunk.rois();
    let sel = cfg.selection;
    // `linear_point` and the feature-map layout both enumerate the owned
    // ROIs x-fastest, so placement `k` occupies `values[k * sel.len()..]`.
    let values = maps.as_slice();
    // One shared positions vector for all per-feature packets: cloning the
    // Arc is a refcount bump, not a copy of the points.
    let points: Arc<Vec<Point4>> = Arc::new((0..n).map(|k| linear_point(chunk, k)).collect());
    Ok(sel
        .iter()
        .enumerate()
        .map(|(slot, feature)| ParamPacket {
            feature,
            points: Arc::clone(&points),
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
            let size = packet.wire_size(self.cfg.param_value_bytes);
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
        // The content digest covers the raw input region, so it must be
        // folded before the raw buffer is dropped.
        let store = self
            .store
            .as_ref()
            .map(|(recipe, session)| (*recipe, session, recipe.content_digest(&chunk, &data.raw)));
        let vol = data.raw.quantize(&cfg.quantizer);
        // The raw chunk is only needed for quantization; free it before
        // the per-ROI scan.
        drop(data);
        let n = chunk.rois();
        let per_packet = n.div_ceil(cfg.packet_split.max(1)).max(1);
        // Under the fused engine, maintain the dense matrix with the
        // sliding window across the chunk's raster order (`linear_point`
        // advances +x within a row, so almost every placement slides). The
        // `Sparse` wire form rides the cursor too: its dense state converts
        // per emitted matrix instead of rebuilding each window.
        // `SparseAccum` keeps its per-ROI accumulation semantics — its
        // whole point is never materializing the dense matrix.
        let mut cursor = (cfg.engine == ScanEngine::Fused
            && cfg.representation != Representation::SparseAccum)
            .then(|| MatrixCursor::new(&vol, &cfg.directions, cfg.roi.size()));
        // Exactly one of the two batch vectors is used per representation;
        // reserve the packet's matrix count up front instead of growing
        // from empty.
        let sparse_repr = matches!(
            cfg.representation,
            Representation::Sparse | Representation::SparseAccum
        );
        let mut first = 0usize;
        while first < n {
            let count = per_packet.min(n - first);
            // One store key per matrix packet, folding the packet's first
            // ROI index on top of the chunk's content digest. A served
            // packet skips its ROIs entirely; the cursor reseeds itself at
            // the next computed placement (`matrix_at` rebuilds on any
            // non-`+x` jump), so hits and misses can interleave freely.
            let key = store
                .as_ref()
                .map(|(recipe, session, content)| (recipe.key(&chunk, *content, first), session));
            if let Some((key, session)) = &key {
                if let Some(packet) = session.lookup_matrices(key) {
                    let size = packet.wire_size(cfg.levels);
                    ctx.emit(0, DataBuffer::new(packet, size, tag))?;
                    first += count;
                    continue;
                }
            }
            let mut dense = Vec::with_capacity(if sparse_repr { 0 } else { count });
            let mut sparse = Vec::with_capacity(if sparse_repr { count } else { 0 });
            for k in first..first + count {
                let global = linear_point(&chunk, k);
                let local = Point4::new(
                    global.x - chunk.input.origin.x,
                    global.y - chunk.input.origin.y,
                    global.z - chunk.input.origin.z,
                    global.t - chunk.input.origin.t,
                );
                match &mut cursor {
                    Some(cursor) => {
                        let m = cursor.matrix_at(local);
                        if cfg.representation == Representation::Sparse {
                            sparse.push(SparseCoMatrix::from_dense(m));
                        } else {
                            dense.push(m.clone());
                        }
                    }
                    None => match matrix_for(&vol, cfg, local)? {
                        MatrixEither::Dense(m) => dense.push(m),
                        MatrixEither::Sparse(s) => sparse.push(s),
                    },
                }
            }
            let batch = if sparse.is_empty() {
                MatrixBatch::Dense(dense)
            } else {
                MatrixBatch::Sparse(sparse)
            };
            let packet = MatrixPacket {
                chunk,
                first,
                batch,
            };
            if let Some((key, session)) = &key {
                session.publish_matrices(key, &packet);
            }
            let size = packet.wire_size(cfg.levels);
            ctx.emit(0, DataBuffer::new(packet, size, tag))?;
            first += count;
        }
        Ok(())
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
        let mut points = Vec::with_capacity(n);
        let mut per_feature: Vec<Vec<f64>> = vec![Vec::with_capacity(n); sel.len()];
        let mut push = |k: usize, stats: &MatrixStats, points: &mut Vec<Point4>| {
            let fv = compute_features(stats, &sel);
            points.push(packet.origin_of(k));
            for (slot, f) in sel.iter().enumerate() {
                per_feature[slot].push(fv.get(f).expect("selected feature computed"));
            }
        };
        match &packet.batch {
            MatrixBatch::Dense(ms) => {
                for (k, m) in ms.iter().enumerate() {
                    push(k, &cfg.representation.stats_of(m), &mut points);
                }
            }
            MatrixBatch::Sparse(ms) => {
                for (k, s) in ms.iter().enumerate() {
                    push(k, &MatrixStats::from_sparse(s), &mut points);
                }
            }
        }
        // Share one positions vector across the per-feature packets: each
        // `Arc::clone` is a refcount bump where a `Vec` clone used to be.
        let points = Arc::new(points);
        for (slot, feature) in sel.iter().enumerate() {
            let out = ParamPacket {
                feature,
                points: Arc::clone(&points),
                values: std::mem::take(&mut per_feature[slot]),
            };
            let size = out.wire_size(cfg.param_value_bytes);
            ctx.emit(0, DataBuffer::new(out, size, buf.tag()))?;
        }
        Ok(())
    }
}

/// UnstitchedOutput: writes parameter values with positional information to
/// disk, one file per (parameter, copy) pair.
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
        }
    }

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
            self.pending.entry(packet.feature).or_default().extend(
                packet
                    .points
                    .iter()
                    .copied()
                    .zip(packet.values.iter().copied()),
            );
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
        for (p, v) in packet.points.iter().zip(&packet.values) {
            w.push(*p, *v)?;
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
        for (p, v) in packet.points.iter().zip(&packet.values) {
            if !dims.contains(*p) {
                return Err(FilterError::msg(format!(
                    "{} packet references point {p:?} outside output extents {dims:?}",
                    packet.feature.short_name()
                )));
            }
            let idx = dims.index(*p);
            // A cell written twice would silently inflate the completion
            // count below and corrupt the assembled map — fail loudly,
            // naming the colliding feature and position.
            if !map[idx].is_nan() {
                return Err(FilterError::msg(format!(
                    "duplicate value for feature {} at point {p:?}: output cell already written",
                    packet.feature.short_name()
                )));
            }
            map[idx] = *v;
        }
        let filled = self.filled.entry(packet.feature).or_insert(0);
        *filled += packet.points.len();
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
