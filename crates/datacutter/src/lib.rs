//! Filter-stream middleware — a reproduction of the DataCutter programming
//! model (Beynon, Kurc, Catalyurek, Chang, Sussman, Saltz; paper §4.1).
//!
//! A data-intensive application is expressed as a set of **filters**
//! connected by **streams**: unidirectional pipes that deliver data from
//! producer to consumer filters in user-defined **data buffers**. Filters
//! placed on the same node exchange buffers by pointer copy; remote filters
//! exchange them over the network. Consumer and producer filters run
//! concurrently and process buffers in a pipelined fashion.
//!
//! Filters may be **replicated**:
//!
//! * *transparent copies* — the runtime decides which copy receives each
//!   buffer, either **round-robin** (each copy gets roughly the same number
//!   of buffers) or **demand-driven** (buffers go to the copy that consumes
//!   fastest);
//! * *explicit copies* — the application controls routing, here via a
//!   deterministic tag-modulo rule (used for the IIC stitch filters, where
//!   pieces of the same chunk must meet at the same copy).
//!
//! Two execution backends share this crate's graph description:
//!
//! * the **threaded engine** in [`engine`] — every filter copy is a thread,
//!   streams are bounded channels, real data flows (used for correctness,
//!   examples and single-machine runs);
//! * the **discrete-event simulator** in the `cluster` crate — the same
//!   graphs executed in virtual time on modeled clusters (used for the
//!   paper's multi-node experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod engine;
pub mod fault;
pub mod filter;
pub mod graph;
pub mod metrics;
pub mod schedule;
pub mod transport;

pub use buffer::DataBuffer;
pub use engine::{run_graph, EngineConfig, FilterFactory, RunFailure, CANCEL_MESSAGE};
pub use fault::{FaultKind, FaultPlan, FaultSite, FaultSpec};
pub use filter::{Filter, FilterContext, FilterError, FilterErrorKind};
pub use graph::{FilterDecl, GraphSpec, StreamDecl};
pub use metrics::{
    ConnectionReport, CopyReport, CopyRows, FilterShape, IoReport, PhaseReport, RunReport,
    StoreReport, StreamMeter, StreamStats,
};
pub use schedule::SchedulePolicy;
pub use transport::{
    free_loopback_addrs, reserve_loopback_listeners, run_node, NodeConfig, PayloadCodec,
    TransportFault, TransportFaultKind, WireConfig, WireError,
};
