//! 4-dimensional Haralick texture analysis.
//!
//! This crate implements the core algorithm of Woods, Clymer, Saltz and Kurc,
//! *"A Parallel Implementation of 4-Dimensional Haralick Texture Analysis for
//! Disk-resident Image Datasets"* (SC 2004): gray-level co-occurrence
//! matrices over 4D (x, y, z, t) regions of interest, and the fourteen
//! statistical texture features defined by Haralick (1973).
//!
//! # Overview
//!
//! Texture analysis quantifies the dependencies between neighbouring voxels.
//! For a quantized image with `Ng` gray levels, a **co-occurrence matrix** is
//! the joint histogram of the gray levels of voxel pairs separated by a given
//! displacement (distance and direction). From this second-order joint
//! probability distribution, up to fourteen statistical parameters (angular
//! second moment, contrast, correlation, entropy, ...) are derived.
//!
//! To analyse a whole image, a fixed-size **region of interest (ROI)** window
//! is *raster scanned* across the dataset: every placement of the window
//! yields one co-occurrence matrix and one value per selected feature,
//! producing a dense 4D feature map per feature.
//!
//! # Quick start
//!
//! ```
//! use haralick::{
//!     quantize::Quantizer,
//!     coocc::CoMatrix,
//!     direction::DirectionSet,
//!     features::{FeatureSelection, Feature, compute_features},
//!     volume::{Dims4, LevelVolume},
//! };
//!
//! // A tiny 8x8 single-slice, single-timestep "volume" with 4 gray levels.
//! let dims = Dims4::new(8, 8, 1, 1);
//! let data: Vec<u8> = (0..dims.len()).map(|i| (i % 4) as u8).collect();
//! let vol = LevelVolume::from_raw(dims, data, 4).unwrap();
//!
//! // Co-occurrence over the full volume, all unique 2D directions, distance 1.
//! let dirs = DirectionSet::all_unique_2d(1);
//! let m = CoMatrix::from_region(&vol, vol.full_region(), &dirs);
//!
//! let sel = FeatureSelection::paper_default();
//! let f = compute_features(&m.stats_checked(), &sel);
//! assert!(f.get(Feature::AngularSecondMoment).unwrap() > 0.0);
//! ```
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`volume`] | 4D dimension/point/region arithmetic and the quantized [`volume::LevelVolume`] |
//! | [`quantize`] | gray-level requantization of raw `u16` data |
//! | [`direction`] | 4D displacement vectors; enumeration of the `(3^d - 1)/2` unique directions |
//! | [`coocc`] | the full (dense) co-occurrence matrix |
//! | [`sparse`] | the sparse co-occurrence representation (paper §4.4.1) |
//! | [`features`] | the fourteen Haralick features, computed from full or sparse matrices |
//! | [`linalg`] | small dense symmetric eigensolver used by feature 14 |
//! | [`roi`] | ROI shape and output-geometry helpers |
//! | [`raster`] | the raster scan producing feature maps, or visiting each placement's statistics ([`raster::scan_placements_with`], for stages that emit matrices): [`raster::ScanEngine::Reference`] (the oracle, [`raster::raster_scan`]) and [`raster::ScanEngine::Fused`] (the production kernel) |
//! | [`fused`] | the fused sheet kernel: per-plane column histograms slid along x and y, one flat pair list per output row step, finalized straight into the output sheet or visited placement by placement |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coocc;
pub mod direction;
pub mod features;
pub mod fused;
pub mod linalg;
pub mod quantize;
pub mod raster;
pub mod roi;
pub mod sparse;
pub mod volume;

pub use coocc::CoMatrix;
pub use direction::{Direction, DirectionSet};
pub use features::{compute_features, Feature, FeatureSelection, FeatureVector};
pub use quantize::Quantizer;
pub use raster::{
    scan, scan_placements, scan_placements_raw, FeatureMaps, Representation, ScanConfig, ScanEngine,
};
pub use roi::RoiShape;
pub use sparse::{SparseAccumulator, SparseCoMatrix};
pub use volume::{Dims4, LevelVolume, Point4, Region4};
