//! The four workloads. Sizes are constants: only the seed varies between
//! runs, and it changes voxel values, never geometry.
//!
//! The three texture datasets are cut down from the issue's (256x256x12x12,
//! 80x80x10x10, 256x256x8x8) so that one pass takes about a second on a
//! 2.1 GHz core: the benchmark contract measures a fixed number of seconds
//! per run, and the run-to-run spread only came under a third of the bound
//! once a run held ten or more passes. Every parameter the layers see — ROI,
//! `Ng`, directions, engines, 256x256 slices, the 64x64x8x8 chunk grid, the
//! cache budgets — is the issue's.

use haralick::direction::{Direction, DirectionSet};
use haralick::features::FeatureSelection;
use haralick::quantize::Quantizer;
use haralick::raster::{Representation, ScanConfig, ScanEngine, TSlidePolicy};
use haralick::roi::RoiShape;
use haralick::volume::Dims4;
use mri::chunks::ChunkGrid;
use mri::synth::SynthConfig;

/// What a pass does with each stitched chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `scan_placements_raw` + four `.h4dp` outputs (the HMP → USO path).
    Texture {
        /// Gray levels `Ng`.
        levels: u16,
        /// All 40 unique 4D directions instead of the single (1,1,1,1).
        all_directions: bool,
        /// Scan tier.
        engine: ScanEngine,
        /// Co-occurrence representation.
        representation: Representation,
    },
    /// `RawVolume::quantize` only: no texture, no output.
    Retrieve {
        /// Gray levels `Ng`.
        levels: u16,
    },
}

/// One workload: fixed geometry and configuration, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason, also in `BENCHMARK.json`.
    pub why: &'static str,
    /// Dataset extents.
    pub dims: Dims4,
    /// What happens to each chunk.
    pub stage: Stage,
    /// `SliceCache` retention budget in bytes.
    pub cache_budget: usize,
}

/// Every workload uses the paper's 64x64x8x8 chunks, clipped to the dataset.
const CHUNK: Dims4 = Dims4::new(64, 64, 8, 8);

/// All workloads, in the order `--all` runs them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "paper_hmp",
        why: "paper 5.1 analysis (Ng=32, one direction, Fused, 4 outputs): the only workload where kernel, output and read all show, so a kernel win hidden behind output is visible",
        dims: Dims4::new(256, 256, 6, 6),
        stage: Stage::Texture {
            levels: 32,
            all_directions: false,
            engine: ScanEngine::Fused,
            representation: Representation::Full,
        },
        cache_budget: 64 << 20,
    },
    Workload {
        name: "dense_40dir",
        why: "Ng=256 with all 40 directions, Fused: kernel-bound (>95% in the scan), so an I/O or writer change must show no movement here",
        dims: Dims4::new(36, 36, 10, 10),
        stage: Stage::Texture {
            levels: 256,
            all_directions: true,
            engine: ScanEngine::Fused,
            representation: Representation::Full,
        },
        cache_budget: 64 << 20,
    },
    Workload {
        name: "rebuild_sparse",
        why: "paper 5.1 parameters on Reference+Sparse (per-placement rebuild, the oracle): the shared coocc/sparse/features code used the other way, and the plain single-threaded baseline",
        dims: Dims4::new(256, 256, 5, 4),
        stage: Stage::Texture {
            levels: 32,
            all_directions: false,
            engine: ScanEngine::Reference,
            representation: Representation::Sparse,
        },
        cache_budget: 64 << 20,
    },
    Workload {
        name: "io_retrieve",
        why: "paper-scale 256x256x32x32 read, crop, stitch, quantize with a 4 MiB cache (half a chunk block): no kernel, so only cache and read-path changes may move it",
        dims: Dims4::new(256, 256, 32, 32),
        stage: Stage::Retrieve { levels: 32 },
        cache_budget: 4 << 20,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The chunk grid: paper ROI, paper chunk size clipped to the dataset.
    pub fn grid(&self) -> ChunkGrid {
        let d = self.dims;
        let chunk = Dims4::new(
            CHUNK.x.min(d.x),
            CHUNK.y.min(d.y),
            CHUNK.z.min(d.z),
            CHUNK.t.min(d.t),
        );
        ChunkGrid::new(d, RoiShape::paper_default(), chunk)
    }

    /// `Quantizer::linear(Ng, 0, 4000)` for every workload.
    pub fn quantizer(&self) -> Quantizer {
        let levels = match self.stage {
            Stage::Texture { levels, .. } | Stage::Retrieve { levels } => levels,
        };
        Quantizer::linear(levels, 0, 4000)
    }

    /// The scan configuration, or `None` for the retrieval workload.
    pub fn scan_config(&self) -> Option<ScanConfig> {
        let Stage::Texture {
            all_directions,
            engine,
            representation,
            ..
        } = self.stage
        else {
            return None;
        };
        Some(ScanConfig {
            roi: RoiShape::paper_default(),
            directions: if all_directions {
                DirectionSet::all_unique_4d(1)
            } else {
                DirectionSet::single(Direction::new(1, 1, 1, 1))
            },
            selection: FeatureSelection::paper_default(),
            representation,
            engine,
            t_slide: TSlidePolicy::Auto,
        })
    }

    /// Synthetic study parameters: the paper-scale tissue model with two
    /// lesions at this workload's extents.
    pub fn synth(&self, seed: u64) -> SynthConfig {
        SynthConfig {
            dims: self.dims,
            lesions: 2,
            ..SynthConfig::paper_scale(seed)
        }
    }

    /// Dataset size on disk in bytes (2 bytes per voxel).
    pub fn dataset_bytes(&self) -> u64 {
        self.dims.len() as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_the_issue() {
        let chunks: Vec<usize> = ALL.iter().map(|w| w.grid().len()).collect();
        assert_eq!(chunks, [25, 4, 25, 625]);
        let placements: Vec<usize> = ALL.iter().map(|w| w.grid().out_dims().len()).collect();
        assert_eq!(placements, [976_144, 46_656, 366_054, 54_908_100]);
        assert_eq!(by_name("io_retrieve").unwrap().dataset_bytes(), 128 << 20);
        assert!(by_name("nope").is_none());
    }
}
