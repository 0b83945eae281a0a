//! End-to-end application configuration.

use haralick::direction::{Direction, DirectionSet};
use haralick::features::FeatureSelection;
use haralick::quantize::Quantizer;
use haralick::raster::{Representation, ScanConfig, ScanEngine, TSlidePolicy};
use haralick::roi::RoiShape;
use haralick::volume::Dims4;
use mri::store::DatasetDescriptor;

/// Everything needed to run one 4D Haralick analysis, in either engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AppConfig {
    /// Dataset extents.
    pub dims: Dims4,
    /// Number of gray levels `Ng` after requantization.
    pub levels: u16,
    /// The quantizer applied to raw intensities (fixed so every filter copy
    /// quantizes identically without a global pass).
    pub quantizer: Quantizer,
    /// ROI window shape.
    pub roi: RoiShape,
    /// Co-occurrence displacement set.
    pub directions: DirectionSet,
    /// Haralick features to compute.
    pub selection: FeatureSelection,
    /// Co-occurrence representation (paper §4.4.1 variants).
    pub representation: Representation,
    /// IIC-to-TEXTURE chunk extents, halo included (paper: `64x64x8x8`).
    pub chunk_dims: Dims4,
    /// Number of storage (I/O) nodes the dataset is distributed over.
    pub storage_nodes: usize,
    /// A matrix packet is emitted each time this fraction of a chunk's ROIs
    /// has been processed by an HCC filter (paper: 1/4).
    pub packet_split: usize,
    /// Bytes per parameter value on the output path (value + positional
    /// information, amortized).
    pub param_value_bytes: usize,
    /// Scan engine used by the texture filters (see
    /// [`haralick::raster::ScanEngine`]). `Reference` is the paper's
    /// single-core per-placement rebuild; `Fused` (the library default) is
    /// the beyond-the-paper sliding sub-histogram kernel. Outputs are
    /// byte-identical.
    pub engine: ScanEngine,
    /// Make USO output byte-order-deterministic: each copy buffers its
    /// parameter values and writes them sorted by output position at
    /// finish, instead of in arrival order. Costs memory proportional to
    /// the copy's share of the output; used by the distributed conformance
    /// tests, where in-process and multi-process runs must produce
    /// byte-identical `.h4dp` files despite different arrival orders.
    pub canonical_output: bool,
    /// Byte budget of the reader-side slice cache (per reading-filter
    /// copy). The cache retains each decoded slice until its last consuming
    /// chunk, so with a sufficient budget every slice is read from disk
    /// exactly once; when retention would exceed the budget the slice is
    /// re-read later instead. `0` disables the cache entirely and restores
    /// the naive per-request subrect reads.
    pub io_cache_bytes: usize,
    /// Distributed runs: stamp cross-node data frames with a payload
    /// checksum. Effective per connection only when the peer advertises it
    /// too (the handshake negotiates the feature intersection).
    pub transport_checksum: bool,
    /// Distributed runs: compress cross-node payloads when it wins.
    /// Negotiated like `transport_checksum`.
    pub transport_compress: bool,
    /// Root directory of the content-addressed result store (see
    /// [`crate::store`]). When set, the texture filters consult the store
    /// before computing a chunk and publish fresh results after; `None`
    /// (the default) recomputes everything. The path is a *value-neutral*
    /// knob: it is excluded from the store's config fingerprint, so moving
    /// a store directory does not invalidate its contents.
    pub result_store: Option<std::path::PathBuf>,
}

/// Parses a representation name as the `h4d --repr` flag and a daemon
/// `JobSpec` spell it.
pub fn parse_repr(s: &str) -> Result<Representation, String> {
    Ok(match s {
        "full" => Representation::Full,
        "naive" => Representation::FullNaive,
        "sparse" => Representation::Sparse,
        "sparse-accum" => Representation::SparseAccum,
        other => return Err(format!("unknown representation {other:?}")),
    })
}

/// Parses a scan-engine name as the `h4d --engine` flag and a daemon
/// `JobSpec` spell it.
pub fn parse_engine(s: &str) -> Result<ScanEngine, String> {
    Ok(match s {
        "reference" => ScanEngine::Reference,
        "fused" => ScanEngine::Fused,
        other => return Err(format!("unknown engine {other:?}")),
    })
}

/// What a caller may choose for one run on top of the dataset's geometry:
/// the `h4d analyze` / `run-graph` / `node` flags and the fields of a daemon
/// `JobSpec`. `None` keeps the configuration default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// `--repr`.
    pub representation: Representation,
    /// `--engine`.
    pub engine: Option<ScanEngine>,
    /// `--canonical`.
    pub canonical_output: bool,
    /// `--io-cache-bytes`.
    pub io_cache_bytes: Option<usize>,
    /// `--checksum` (multi-process runs).
    pub transport_checksum: bool,
    /// `--compress` (multi-process runs).
    pub transport_compress: bool,
}

impl AppConfig {
    /// The paper's experimental configuration (§5.1) at full dataset scale:
    /// 256×256×32×32 u16 voxels, `Ng = 32`, 10×10×3×3 ROI, the four
    /// expensive features, 64×64×8×8 chunks, 4 storage nodes,
    /// quarter-chunk matrix packets.
    ///
    /// Each co-occurrence matrix is computed for **one displacement** — "a
    /// specific distance between pixels and a specific direction" (paper
    /// §3); we use the unit space-time hyper-diagonal `(1, 1, 1, 1)`, which
    /// probes all four dimensions at once. This also reproduces the
    /// paper's measured regime: matrix sparsity near 10.7/1024, an
    /// HCC:HPC processing ratio near 4, and per-chunk compute light enough
    /// that the network effects of §5.2–5.3 matter.
    pub fn paper(representation: Representation) -> Self {
        Self {
            dims: Dims4::new(256, 256, 32, 32),
            levels: 32,
            // The synthetic study's intensity range (see mri::synth); a
            // fixed linear quantizer keeps every filter copy consistent.
            quantizer: Quantizer::linear(32, 0, 4000),
            roi: RoiShape::paper_default(),
            directions: DirectionSet::single(Direction::new(1, 1, 1, 1)),
            selection: FeatureSelection::paper_default(),
            representation,
            chunk_dims: Dims4::new(64, 64, 8, 8),
            storage_nodes: 4,
            packet_split: 4,
            param_value_bytes: 8,
            // Pin the paper's per-placement rebuild semantics so the cost
            // model and every simulated figure stay on the measured regime.
            engine: ScanEngine::Reference,
            canonical_output: false,
            // 64 MiB holds the retained set of every geometry in the
            // experiments (the paper-scale run peaks well below:
            // ~chunk_z*chunk_t slices of 256x256 u16 = 8 MiB).
            io_cache_bytes: 64 << 20,
            transport_checksum: false,
            transport_compress: false,
            result_store: None,
        }
    }

    /// A reduced configuration for tests and examples: 64×64×8×8 dataset,
    /// 6×6×2×2 ROI, 32×32×4×4 chunks, 2 storage nodes.
    pub fn test_scale(representation: Representation) -> Self {
        Self {
            dims: Dims4::new(64, 64, 8, 8),
            roi: RoiShape::from_lengths(6, 6, 2, 2),
            chunk_dims: Dims4::new(32, 32, 4, 4),
            storage_nodes: 2,
            engine: ScanEngine::Fused,
            ..Self::paper(representation)
        }
    }

    /// The paper configuration adapted to a concrete dataset: extents and
    /// storage-node count from the dataset descriptor, chunks scaled down
    /// for small datasets so at least a few flow through the pipeline, and
    /// the library-default scan engine (`Fused`) — a real run has no
    /// simulated figure to stay comparable with.
    ///
    /// # Errors
    /// The dataset is smaller than the analysis window.
    pub fn for_dataset(
        dims: Dims4,
        storage_nodes: usize,
        representation: Representation,
    ) -> Result<Self, String> {
        let mut cfg = Self::paper(representation);
        if !cfg.roi.fits_in(dims) {
            return Err(format!(
                "dataset {dims} is smaller than the {} analysis window",
                cfg.roi.size()
            ));
        }
        cfg.dims = dims;
        cfg.storage_nodes = storage_nodes;
        cfg.engine = ScanEngine::default();
        if dims.x < 128 {
            cfg.chunk_dims = Dims4::new(
                (dims.x / 2).max(cfg.roi.size().x),
                (dims.y / 2).max(cfg.roi.size().y),
                (dims.z / 2).max(cfg.roi.size().z),
                (dims.t / 2).max(cfg.roi.size().t),
            );
        }
        Ok(cfg)
    }

    /// The configuration of one run over the dataset described by `desc`:
    /// [`AppConfig::for_dataset`] plus the caller's `opts`. Every `h4d`
    /// subcommand that runs a graph and every daemon job assembles its
    /// configuration here and nowhere else, so a daemon job and a one-shot
    /// `h4d analyze` of the same dataset are byte-identical.
    ///
    /// # Errors
    /// The dataset is smaller than the analysis window.
    pub fn for_run(desc: &DatasetDescriptor, opts: &RunOptions) -> Result<Self, String> {
        let mut cfg = Self::for_dataset(desc.dims, desc.num_nodes, opts.representation)?;
        cfg.engine = opts.engine.unwrap_or(cfg.engine);
        cfg.canonical_output = opts.canonical_output;
        cfg.io_cache_bytes = opts.io_cache_bytes.unwrap_or(cfg.io_cache_bytes);
        cfg.transport_checksum = opts.transport_checksum;
        cfg.transport_compress = opts.transport_compress;
        Ok(cfg)
    }

    /// The scan configuration equivalent to this application config —
    /// feeding the sequential reference implementation.
    pub fn scan_config(&self) -> ScanConfig {
        ScanConfig {
            roi: self.roi,
            directions: self.directions.clone(),
            selection: self.selection,
            representation: self.representation,
            engine: self.engine,
            t_slide: TSlidePolicy::Auto,
        }
    }

    /// Output feature-map extents.
    pub fn out_dims(&self) -> Dims4 {
        self.roi.output_dims(self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_5_1() {
        let c = AppConfig::paper(Representation::Full);
        assert_eq!(c.dims, Dims4::new(256, 256, 32, 32));
        assert_eq!(c.levels, 32);
        assert_eq!(c.roi.size(), Dims4::new(10, 10, 3, 3));
        assert_eq!(c.chunk_dims, Dims4::new(64, 64, 8, 8));
        assert_eq!(c.storage_nodes, 4);
        assert_eq!(c.selection.len(), 4);
        assert_eq!(c.out_dims(), Dims4::new(247, 247, 30, 30));
    }

    #[test]
    fn test_scale_is_consistent() {
        let c = AppConfig::test_scale(Representation::Sparse);
        assert!(c.roi.fits_in(c.chunk_dims));
        assert!(c.roi.fits_in(c.dims));
        assert_eq!(c.scan_config().representation, Representation::Sparse);
        assert_eq!(c.scan_config().engine, ScanEngine::Fused);
    }

    #[test]
    fn paper_config_pins_the_rebuild_engine() {
        let c = AppConfig::paper(Representation::Full);
        assert_eq!(c.engine, ScanEngine::Reference);
    }

    #[test]
    fn runs_over_a_dataset_default_to_the_fused_engine() {
        let dims = Dims4::new(56, 56, 6, 6);
        let cfg = AppConfig::for_dataset(dims, 3, Representation::Full).unwrap();
        assert_eq!(cfg.engine, ScanEngine::Fused);

        let desc = DatasetDescriptor {
            name: "ds".into(),
            dims,
            pixel_bytes: 2,
            num_nodes: 3,
        };
        let mut opts = RunOptions {
            representation: Representation::Full,
            engine: None,
            canonical_output: false,
            io_cache_bytes: None,
            transport_checksum: false,
            transport_compress: false,
        };
        assert_eq!(
            AppConfig::for_run(&desc, &opts).unwrap().engine,
            ScanEngine::Fused
        );
        opts.engine = Some(ScanEngine::Reference);
        assert_eq!(
            AppConfig::for_run(&desc, &opts).unwrap().engine,
            ScanEngine::Reference
        );
    }
}
