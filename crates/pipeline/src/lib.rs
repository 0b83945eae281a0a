//! The parallel 4D Haralick texture analysis application (paper §4).
//!
//! This crate assembles the substrates into the paper's system:
//!
//! * [`config`] — the end-to-end application configuration (dataset, ROI,
//!   directions, gray levels, chunk sizes, representation);
//! * [`payload`] — the typed buffers flowing between filters;
//! * [`codecs`] — the wire codecs those buffers use when a stream crosses
//!   a process boundary (the [`datacutter::transport`] payload registry);
//! * [`filters`] — the real filter implementations for the threaded engine:
//!   **RFR** / **DFR** (the one reader filter over raw or DICOM slices),
//!   **IIC** (input stitch), **HMP** (combined texture analysis), **HCC**
//!   (co-occurrence), **HPC** (parameters), **USO** (unstitched output),
//!   **HIC** (output stitch), **JIW** (image writer);
//! * [`graphs`] — graph builders for the paper's two implementations (the
//!   HMP variant and the split HCC + HPC variant) and their placements;
//! * [`workload`] — the analytic flow model: how many pieces, chunks,
//!   matrices and bytes the configuration produces (drives the simulator
//!   and the retrieval-volume accounting);
//! * [`simfilters`] — the simulator behaviours of each filter, with service
//!   costs from the calibrated [`cluster::CostModel`];
//! * [`experiments`] — one driver per figure of the paper's evaluation;
//! * [`service`] — the persistent analysis daemon: a bounded job manager
//!   over a daemon-scoped slice-cache registry, an HTTP/JSON management
//!   API, and a typed client;
//! * [`store`] — the content-addressed result store: chunk feature output
//!   keyed by input-region content + config fingerprint, in a sharded
//!   local-FS layout ([`store::FsBackend`]), giving warm reruns and
//!   incremental follow-up recompute.
//!
//! The threaded engine runs the *real* filters on real data (tests verify
//! end-to-end equality with the sequential reference); the simulator runs
//! the *same graphs* at paper scale on modeled clusters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codecs;
pub mod config;
pub mod experiments;
pub mod filters;
pub mod graphs;
pub mod payload;
pub mod run;
pub mod service;
pub mod simfilters;
pub mod store;
pub mod workload;

pub use codecs::payload_codec;
pub use config::AppConfig;
pub use run::{
    merge_uso_outputs, run_node_threaded, run_threaded, threaded_factories, IoRuntime, SliceCaching,
};
pub use service::{
    AnalysisService, JobManager, JobSpec, JobState, JobStatus, MgmtClient, ServiceConfig,
    ServiceStatus, SubmitError,
};
pub use store::{
    config_digest, FsBackend, KeyRecipe, Manifest, ResultStore, StoreSession, StoreStage,
    STORE_SCHEMA_VERSION,
};
pub use workload::Workload;
