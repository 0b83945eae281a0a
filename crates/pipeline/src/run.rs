//! Drivers for running the application on the threaded engine.
//!
//! [`threaded_factories`] builds the real filter constructors for whatever
//! filters a graph declares; [`run_threaded`] executes the graph in this
//! process and [`run_node_threaded`] executes this process's share of a
//! multi-process run. The output lands on disk: parameter files from USO
//! copies, image series from JIW.

use crate::config::AppConfig;
use crate::filters::{
    HccFilter, HicFilter, HmpFilter, HpcFilter, IicFilter, JiwFilter, PieceSource, ReaderFilter,
    UsoFilter,
};
use crate::store::StoreSession;
use datacutter::engine::FilterFactory;
use datacutter::{
    run_graph, run_node, EngineConfig, FilterError, GraphSpec, IoReport, NodeConfig, RunFailure,
    RunReport,
};
use haralick::features::Feature;
use haralick::volume::Dims4;
use mri::cache::{IoStats, SliceCacheRegistry};
use mri::dicom::DicomDataset;
use mri::output::{read_parameter_file, ParameterData};
use mri::store::DistributedDataset;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How a run's reader filters keep decoded slices around.
#[derive(Clone)]
pub enum SliceCaching {
    /// No cache: one sub-rectangle disk read per piece, nothing retained
    /// (`--io-cache-bytes 0`).
    Off,
    /// A private [`mri::cache::SliceCache`] per reader copy retaining at
    /// most this many bytes: within the budget every slice is read from disk
    /// exactly once, beyond it a slice is re-read later instead.
    PerCopy(usize),
    /// One daemon-scoped cache per dataset from this registry (which holds
    /// the budget), so concurrent jobs over a dataset read each slice from
    /// disk exactly once, total.
    Shared(Arc<SliceCacheRegistry>),
}

impl SliceCaching {
    /// The mode a per-copy byte budget spells: `0` is [`SliceCaching::Off`].
    pub fn per_copy(budget_bytes: usize) -> Self {
        match budget_bytes {
            0 => Self::Off,
            n => Self::PerCopy(n),
        }
    }
}

impl Default for SliceCaching {
    fn default() -> Self {
        // 64 MiB holds the retained set of every geometry in the
        // experiments (the paper-scale run peaks well below:
        // ~chunk_z*chunk_t slices of 256x256 u16 = 8 MiB).
        Self::PerCopy(64 << 20)
    }
}

/// How one run is hosted — what about a run cannot change an output value.
/// Create one per run and pass it to the drivers; the report they return
/// carries its counters.
#[derive(Clone, Default)]
pub struct IoRuntime {
    /// Reader-side I/O counters shared by all reading-filter copies.
    pub io: Arc<IoStats>,
    /// The reader filters' caching mode (default: per-copy, 64 MiB).
    pub caching: SliceCaching,
    /// Make USO output byte-order-deterministic: each copy buffers its
    /// parameter values and writes them sorted by output position at
    /// finish, instead of in arrival order. Costs memory proportional to
    /// the copy's share of the output; in-process and multi-process runs
    /// then produce byte-identical `.h4dp` files.
    pub canonical_output: bool,
    /// This run's result-store session (see [`crate::store`]) — the one way
    /// a run gets a store. The texture filters consult it before computing
    /// a chunk and stage fresh results; the drivers commit or abandon it
    /// when the run finishes. `None` (the default) recomputes every chunk.
    pub store: Option<Arc<StoreSession>>,
}

impl IoRuntime {
    /// Fresh counters, default caching, arrival-order output, no store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the run: commits the store session when the engine reported
    /// success and abandons it otherwise — staged blobs become visible only
    /// then, so a failed run contributes nothing to the store, and neither
    /// outcome can fail the run (the analysis output is already on disk) —
    /// and attaches this runtime's I/O and store counters to the report.
    fn finish(&self, result: Result<RunReport, RunFailure>) -> Result<RunReport, RunFailure> {
        if let Some(session) = &self.store {
            if result.is_err() {
                session.abandon();
            } else if let Err(e) = session.commit() {
                eprintln!("warning: result store commit failed: {e}");
            }
        }
        result.map(|mut report| {
            report.io = Some(io_report(&self.io));
            report.store = self.store.as_ref().map(|s| s.stats().report());
            report
        })
    }
}

/// I/O counters as the report fragment a run report and the daemon's
/// `/status` both carry.
pub(crate) fn io_report(io: &IoStats) -> IoReport {
    IoReport {
        disk_reads: io.disk_reads(),
        bytes_read: io.bytes_read(),
        cache_hits: io.cache_hits(),
        cache_misses: io.cache_misses(),
        budget_rejects: io.budget_rejects(),
        retained_high_water: io.retained_high_water(),
    }
}

/// The factory of a reader filter over dataset format `D`: copy `i` opens
/// the dataset for storage node `i`.
fn reader_factory<D: PieceSource>(
    cfg: Arc<AppConfig>,
    root: PathBuf,
    rt: IoRuntime,
) -> FilterFactory {
    Box::new(move |copy| {
        let filter = ReaderFilter::<D>::open(cfg.clone(), &root, copy, &rt)?;
        Ok(Box::new(filter))
    })
}

/// Builds real-filter factories for every filter named in `spec`.
///
/// `dataset_root` must hold a distributed dataset matching `cfg`
/// (see [`mri::store::write_distributed`]); `out_dir` receives USO
/// parameter files and JIW image series. The reading filters record
/// cache/disk activity into `rt.io` and read the way `rt.caching` says; the
/// texture filters consult `rt.store` when a session is attached.
///
/// Spin-up is fallible: a reader that cannot open its dataset returns a
/// typed [`FilterError`] (`Io`-kind, naming the filter and the dataset
/// path), and a filter kind this application does not provide yields an
/// `Engine`-kind error from its factory — the engine turns either into a
/// [`RunFailure`] instead of panicking.
pub fn threaded_factories(
    spec: &GraphSpec,
    cfg: &Arc<AppConfig>,
    dataset_root: &Path,
    out_dir: &Path,
    rt: &IoRuntime,
) -> HashMap<String, FilterFactory> {
    let mut out: HashMap<String, FilterFactory> = HashMap::new();
    for f in &spec.filters {
        let cfg = cfg.clone();
        let root: PathBuf = dataset_root.to_path_buf();
        let dir: PathBuf = out_dir.to_path_buf();
        let rt = rt.clone();
        let factory: FilterFactory = match f.name.as_str() {
            "RFR" => reader_factory::<DistributedDataset>(cfg, root, rt),
            "DFR" => reader_factory::<DicomDataset>(cfg, root, rt),
            "IIC" => Box::new(move |_| Ok(Box::new(IicFilter::new()))),
            "HMP" => Box::new(move |_| Ok(Box::new(HmpFilter::new(cfg.clone(), rt.store.clone())))),
            "HCC" => Box::new(move |_| Ok(Box::new(HccFilter::new(cfg.clone(), rt.store.clone())))),
            "HPC" => Box::new(move |_| Ok(Box::new(HpcFilter::new(cfg.clone())))),
            "USO" => Box::new(move |copy| {
                let (cfg, dir) = (cfg.clone(), dir.clone());
                Ok(Box::new(UsoFilter::new(
                    cfg,
                    dir,
                    copy,
                    rt.canonical_output,
                )))
            }),
            "HIC" => Box::new(move |_| Ok(Box::new(HicFilter::new(cfg.clone())))),
            "JIW" => Box::new(move |_| Ok(Box::new(JiwFilter::new(dir.clone())))),
            other => {
                let name = other.to_string();
                Box::new(move |_| {
                    Err(FilterError::engine(format!(
                        "no threaded filter implementation for {name:?}"
                    )))
                })
            }
        };
        out.insert(f.name.clone(), factory);
    }
    out
}

/// Runs `spec` in this process on the threaded engine with the real
/// filters and returns the run's [`RunReport`]: graph shape, phases,
/// per-stream meters and per-copy rows from the engine, plus `io` (always)
/// and `store` (exactly when the run had a store session) from `rt`.
/// `engine` carries an embedding service's cooperative cancellation flag and
/// per-job thread-name prefix; pass `&EngineConfig::default()` otherwise.
///
/// On failure the returned [`RunFailure`] carries the root-cause
/// [`datacutter::FilterError`] — typed by kind and naming the failing
/// filter copy — plus the row of every copy that ran.
///
/// A store session in `rt` is committed after a successful run and abandoned
/// after a failure.
pub fn run_threaded(
    spec: &GraphSpec,
    cfg: &Arc<AppConfig>,
    dataset_root: &Path,
    out_dir: &Path,
    rt: &IoRuntime,
    engine: &EngineConfig,
) -> Result<RunReport, RunFailure> {
    let mut factories = threaded_factories(spec, cfg, dataset_root, out_dir, rt);
    rt.finish(run_graph(spec, &mut factories, engine))
}

/// Runs this process's share of a placed `spec` as one node of a
/// multi-process run (see [`datacutter::transport`]).
///
/// Same contract as [`run_threaded`], restricted to the filter copies
/// placed on `node_cfg.node`: cross-node streams are bridged over TCP using
/// the application's [`crate::codecs::payload_codec`], same-node streams
/// keep the engine's zero-copy path. Every peer process must call this with
/// an identical `spec` and address list. The returned report covers only the
/// local copies and adds one `transport` entry per peer connection.
///
/// Each node process brings its own store session (its own token and
/// staging area) against the shared store directory, committing only the
/// blobs its local texture copies produced.
pub fn run_node_threaded(
    spec: &GraphSpec,
    cfg: &Arc<AppConfig>,
    dataset_root: &Path,
    out_dir: &Path,
    node_cfg: &NodeConfig,
    rt: &IoRuntime,
) -> Result<RunReport, RunFailure> {
    let mut factories = threaded_factories(spec, cfg, dataset_root, out_dir, rt);
    rt.finish(run_node(
        spec,
        &mut factories,
        Arc::new(crate::codecs::payload_codec()),
        node_cfg,
    ))
}

/// Reads and merges the USO output files of all `copies` for one feature
/// into a single dense map. Fails if any position is missing or duplicated
/// across the files.
///
/// `NaN` is the "not written" sentinel of the parameter-file format, so a
/// feature value that were itself `NaN` would read back as a coverage gap;
/// the fourteen Haralick features are guarded against producing `NaN`
/// (degenerate cases return 0), so this cannot occur with this crate's
/// filters.
pub fn merge_uso_outputs(
    out_dir: &Path,
    feature: Feature,
    copies: usize,
    dims: Dims4,
) -> std::io::Result<Vec<f64>> {
    let mut values = vec![f64::NAN; dims.len()];
    let mut seen = vec![false; dims.len()];
    let mut files = 0;
    for copy in 0..copies {
        let path = out_dir.join(UsoFilter::file_name(feature, copy));
        if !path.exists() {
            // A copy that received no packets for this feature writes no
            // file (round-robin can route a whole feature to one copy).
            continue;
        }
        files += 1;
        let ParameterData {
            dims: fdims,
            values: vs,
            ..
        } = read_parameter_file(&path)?;
        if fdims != dims {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("output dims {fdims} do not match expected {dims}"),
            ));
        }
        for (i, v) in vs.into_iter().enumerate() {
            if !v.is_nan() {
                if seen[i] {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("position {i} written by more than one USO copy"),
                    ));
                }
                seen[i] = true;
                values[i] = v;
            }
        }
    }
    if files == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no USO output files for {feature:?}"),
        ));
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("position {missing} missing from all USO outputs"),
        ));
    }
    Ok(values)
}
