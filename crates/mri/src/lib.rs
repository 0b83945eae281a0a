//! Disk-resident 4D image dataset substrate.
//!
//! The paper's target workload is a DCE-MRI study: a series of 3D MRI
//! volumes (stacks of 2D image slices) acquired over many time steps,
//! too large to fit in one machine's memory, stored as one file per 2D
//! slice and distributed **round-robin across storage nodes** (paper §4.2).
//!
//! This crate provides everything below the texture-analysis algorithm:
//!
//! * [`raw::RawVolume`] — an in-memory 4D `u16` intensity volume;
//! * [`synth`] — a deterministic synthetic DCE-MRI generator (tissue
//!   background, enhancing tumors with contrast-uptake kinetics, noise)
//!   substituting for the paper's clinical dataset;
//! * [`store`] — the distributed slice store: round-robin placement,
//!   per-node index files, dataset descriptors, subregion reads;
//! * [`chunks`] — chunked-retrieval geometry: IIC-to-TEXTURE chunks with
//!   the `ROI − 1` overlap of paper Eqs. 1–2, and the by-ROI vs by-chunk
//!   retrieval-volume accounting;
//! * [`output`] — output-side formats: normalized PGM/BMP image series
//!   (the JIW filter's job) and positional parameter files (USO);
//! * [`study`] — longitudinal (follow-up) study management: dated visits,
//!   each a distributed dataset, with synthetic lesion ground truth;
//! * [`dicom`] — a DICOM subset (Explicit VR Little Endian) so studies can
//!   be stored and read as standards-shaped `.dcm` slices (the paper's
//!   "easily replaced by a filter which reads DICOM format images");
//! * [`cache`] — the overlap-aware I/O plane: a lifetime-exact slice cache
//!   driven by the chunk grid's deterministic emission order, with
//!   byte-budget fallback and shared I/O counters;
//! * [`digest`] — FNV-1a content digesting of volumes and dataset regions,
//!   the content half of the result store's chunk keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chunks;
pub mod dicom;
pub mod digest;
pub mod output;
pub mod raw;
pub mod store;
pub mod study;
pub mod synth;

pub use cache::{
    crop_subrect, CacheError, IoStats, PlanHandle, ReusePlan, SharedSliceCache, SharedSliceSource,
    SliceCache, SliceCacheRegistry, SliceSource,
};
pub use chunks::{Chunk, ChunkGrid};
pub use dicom::{DicomDataset, DicomSlice};
pub use digest::Fnv1a64;
pub use raw::RawVolume;
pub use store::{DatasetDescriptor, DistributedDataset, SliceKey};
pub use study::{Study, Visit};
pub use synth::{generate, generate_followup, generate_with_truth, SynthConfig};
