//! End-to-end application configuration.

use haralick::direction::{Direction, DirectionSet};
use haralick::features::FeatureSelection;
use haralick::quantize::Quantizer;
use haralick::raster::{Representation, ScanConfig, ScanEngine, TSlidePolicy};
use haralick::roi::RoiShape;
use haralick::volume::Dims4;
use mri::store::DatasetDescriptor;

/// What one 4D Haralick analysis computes: every field determines output
/// values or the simulated flow (paper §5.1). How a run is hosted — slice
/// caching, canonical output order, the result store — is
/// [`crate::run::IoRuntime`]'s, and the transport toggles are
/// [`datacutter::NodeConfig`]'s.
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
    /// the beyond-the-paper sliding column-histogram kernel. Outputs are
    /// byte-identical.
    pub engine: ScanEngine,
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
    /// [`AppConfig::for_dataset`] plus the caller's `--repr` and `--engine`
    /// (`None` keeps the default). Every `h4d` subcommand that runs a graph
    /// and every daemon job assembles its configuration here and nowhere
    /// else, so a daemon job and a one-shot `h4d analyze` of the same
    /// dataset are byte-identical.
    ///
    /// # Errors
    /// The dataset is smaller than the analysis window.
    pub fn for_run(
        desc: &DatasetDescriptor,
        representation: Representation,
        engine: Option<ScanEngine>,
    ) -> Result<Self, String> {
        let mut cfg = Self::for_dataset(desc.dims, desc.num_nodes, representation)?;
        cfg.engine = engine.unwrap_or(cfg.engine);
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
        let engine_of = |engine| {
            AppConfig::for_run(&desc, Representation::Full, engine)
                .unwrap()
                .engine
        };
        assert_eq!(engine_of(None), ScanEngine::Fused);
        assert_eq!(
            engine_of(Some(ScanEngine::Reference)),
            ScanEngine::Reference
        );
    }
}
