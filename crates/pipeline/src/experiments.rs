//! Per-figure experiment drivers (paper §5).
//!
//! Every driver assembles the paper's exact filter layout on the modeled
//! clusters, runs the discrete-event simulation at full dataset scale, and
//! returns labeled series ready for the `fig*` harness binaries. Absolute
//! times are simulator seconds on the modeled 2004 hardware; the shapes
//! (who wins, by what factor, where bottlenecks sit) are the reproduction
//! targets.

use crate::config::AppConfig;
use crate::graphs::{split_counts, Copies, HmpGraph, SplitGraph};
use crate::simfilters::sim_factories;
use crate::workload::Workload;
use cluster::cost::CostModel;
use cluster::des::{simulate_with, SimOptions, SimReport};
use cluster::presets;
use cluster::spec::{ClusterSpec, NetClass};
use datacutter::graph::GraphSpec;
use datacutter::SchedulePolicy;
use haralick::raster::{Representation, ScanEngine};
use std::sync::Arc;

/// One measured point of an experiment series.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Series label (e.g. `"HMP Full"`).
    pub series: String,
    /// X value (number of texture-filter nodes, IIC copies, chunk edge…).
    pub x: usize,
    /// Execution time in simulated seconds.
    pub seconds: f64,
}

/// A complete experiment result: its points plus free-form notes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// All measured points.
    pub points: Vec<Point>,
}

impl Series {
    fn push(&mut self, series: &str, x: usize, seconds: f64) {
        self.points.push(Point {
            series: series.to_string(),
            x,
            seconds,
        });
    }

    /// The seconds value of `(series, x)`, if present.
    pub fn get(&self, series: &str, x: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.series == series && p.x == x)
            .map(|p| p.seconds)
    }

    /// Distinct series labels in insertion order.
    pub fn labels(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.series) {
                out.push(p.series.clone());
            }
        }
        out
    }

    /// Distinct x values in ascending order.
    pub fn xs(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.points.iter().map(|p| p.x).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Node-count axis used by Figures 7 and 8.
pub const NODE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The PIII service layout shared by the homogeneous experiments: the
/// dataset lives on 4 I/O nodes (0–3), the stitch runs on node 4, the
/// output sink on node 5, and texture filters occupy nodes 6…
pub struct PiiiLayout {
    /// The modeled cluster.
    pub cluster: ClusterSpec,
    /// RFR placement (storage nodes).
    pub rfr: Vec<usize>,
    /// IIC placement.
    pub iic: Vec<usize>,
    /// USO placement.
    pub uso: Vec<usize>,
    /// First node id available for texture filters.
    pub texture_base: usize,
}

impl PiiiLayout {
    /// The paper's layout on the 24-node PIII cluster.
    pub fn paper() -> Self {
        Self {
            cluster: presets::piii(),
            rfr: vec![0, 1, 2, 3],
            iic: vec![4],
            uso: vec![5],
            texture_base: 6,
        }
    }

    /// The texture nodes at `offsets` past the first one.
    fn texture(&self, offsets: std::ops::Range<usize>) -> Vec<usize> {
        offsets.map(|i| self.texture_base + i).collect()
    }

    /// `n` texture nodes as dedicated `(HCC, HPC)` placements, 4:1.
    fn split(&self, n: usize) -> (Vec<usize>, Vec<usize>) {
        let (n_hcc, n_hpc) = split_counts(n);
        (self.texture(0..n_hcc), self.texture(n_hcc..n_hcc + n_hpc))
    }
}

/// The placed HMP graph: every filter on the listed nodes, chunks
/// demand-driven.
fn hmp_spec(rfr: &[usize], iic: &[usize], hmp: Vec<usize>, uso: &[usize]) -> GraphSpec {
    HmpGraph {
        rfr: Copies::Placed(rfr.to_vec()),
        iic: Copies::Placed(iic.to_vec()),
        hmp: Copies::Placed(hmp),
        uso: Copies::Placed(uso.to_vec()),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build()
}

/// The placed split graph, still a builder so Figure 11 can set its chunk
/// policy: every filter on the listed nodes, both texture streams
/// demand-driven.
fn split_graph(
    rfr: &[usize],
    iic: &[usize],
    hcc: &[usize],
    hpc: &[usize],
    uso: &[usize],
) -> SplitGraph {
    SplitGraph {
        rfr: Copies::Placed(rfr.to_vec()),
        iic: Copies::Placed(iic.to_vec()),
        hcc: Copies::Placed(hcc.to_vec()),
        hpc: Copies::Placed(hpc.to_vec()),
        uso: Copies::Placed(uso.to_vec()),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
}

/// Simulates the run `cfg` describes through `spec` on `cluster`.
fn run_with(
    spec: &GraphSpec,
    cluster: &ClusterSpec,
    cfg: AppConfig,
    model: &CostModel,
    options: &SimOptions,
) -> SimReport {
    let w = Arc::new(Workload::new(cfg));
    let mut factories = sim_factories(spec, cluster, &w, &Arc::new(model.clone()));
    simulate_with(spec, cluster, &mut factories, options)
}

fn run(spec: &GraphSpec, cluster: &ClusterSpec, cfg: AppConfig, model: &CostModel) -> SimReport {
    run_with(spec, cluster, cfg, model, &SimOptions::default())
}

/// Runs the HMP implementation with `n` transparent HMP copies on the PIII
/// cluster (Figure 7a points).
pub fn run_hmp_piii(model: &CostModel, repr: Representation, n: usize) -> SimReport {
    run_hmp_piii_cfg(model, AppConfig::paper(repr), n)
}

fn run_hmp_piii_cfg(model: &CostModel, cfg: AppConfig, n: usize) -> SimReport {
    let l = PiiiLayout::paper();
    let spec = hmp_spec(&l.rfr, &l.iic, l.texture(0..n), &l.uso);
    run(&spec, &l.cluster, cfg, model)
}

/// Runs the split implementation with `n` texture nodes on the PIII cluster
/// (Figure 7b points). `overlap` co-locates one HCC and one HPC copy on
/// every texture node instead of dedicating nodes (Figure 8's "All
/// Overlap").
pub fn run_split_piii(
    model: &CostModel,
    repr: Representation,
    n: usize,
    overlap: bool,
) -> SimReport {
    run_split_piii_with(model, repr, n, overlap, &SimOptions::default())
}

/// [`run_split_piii`] with explicit simulator mechanism toggles.
pub fn run_split_piii_with(
    model: &CostModel,
    repr: Representation,
    n: usize,
    overlap: bool,
    options: &SimOptions,
) -> SimReport {
    let l = PiiiLayout::paper();
    // One node: both filters share it (paper's one-node configuration).
    let (hcc, hpc) = if overlap || n == 1 {
        (l.texture(0..n), l.texture(0..n))
    } else {
        l.split(n)
    };
    let spec = split_graph(&l.rfr, &l.iic, &hcc, &hpc, &l.uso).build();
    run_with(&spec, &l.cluster, AppConfig::paper(repr), model, options)
}

/// Figure 7(a): HMP implementation, full vs sparse representation,
/// 1–16 HMP nodes. Full accumulates densely; "sparse" stores the matrix
/// sparsely throughout (`SparseAccum`).
pub fn fig7a(model: &CostModel) -> Series {
    let mut s = Series::default();
    for &n in &NODE_COUNTS {
        s.push(
            "HMP Full",
            n,
            run_hmp_piii(model, Representation::Full, n).makespan,
        );
        s.push(
            "HMP Sparse",
            n,
            run_hmp_piii(model, Representation::SparseAccum, n).makespan,
        );
    }
    s
}

/// Figure 7(b): split HCC + HPC implementation, full vs sparse transmission,
/// 1–16 texture nodes at the 4:1 split.
pub fn fig7b(model: &CostModel) -> Series {
    let mut s = Series::default();
    for &n in &NODE_COUNTS {
        s.push(
            "HCC+HPC Full",
            n,
            run_split_piii(model, Representation::Full, n, false).makespan,
        );
        s.push(
            "HCC+HPC Sparse",
            n,
            run_split_piii(model, Representation::Sparse, n, false).makespan,
        );
    }
    s
}

/// Figure 8: co-location study — split with dedicated nodes ("No Overlap"),
/// split with HCC and HPC on every node ("All Overlap"), and HMP, across
/// 1–16 texture nodes. As in the paper, HMP uses the full representation
/// and the split variants the sparse one.
pub fn fig8(model: &CostModel) -> Series {
    let mut s = Series::default();
    for &n in &NODE_COUNTS {
        s.push(
            "HCC+HPC No Overlap",
            n,
            run_split_piii(model, Representation::Sparse, n, false).makespan,
        );
        s.push(
            "HCC+HPC All Overlap",
            n,
            run_split_piii(model, Representation::Sparse, n, true).makespan,
        );
        s.push(
            "HMP",
            n,
            run_hmp_piii(model, Representation::Full, n).makespan,
        );
    }
    s
}

/// Figure 9: per-filter processing (busy) time of the split implementation
/// on dedicated nodes, by texture node count. Returns one series per
/// filter. The x axis extends past the paper's 16 nodes to expose the IIC
/// bottleneck trend (RFR/USO stay negligible, HCC/HPC shrink with nodes,
/// IIC stays constant).
pub fn fig9(model: &CostModel) -> Series {
    let mut s = Series::default();
    for &n in &[2usize, 4, 8, 16] {
        let rep = run_split_piii(model, Representation::Sparse, n, false);
        for filter in ["RFR", "IIC", "HCC", "HPC", "USO"] {
            s.push(filter, n, rep.per_copy.max_busy_of(filter));
        }
    }
    s
}

/// The Figure 10 layouts on a PIII+XEON-shaped cluster, as `(HMP, split)`
/// graphs. 4 RFR, 4 IIC and 2 USO run on the PIII cluster; texture filters
/// span 13 PIII nodes and all 5 XEON nodes. The HMP variant places one copy
/// per *processor* (13 + 10 = 23); the split variant co-locates one HCC and
/// one HPC copy per *node* (18 + 18).
fn fig10_specs(cluster: &ClusterSpec) -> (GraphSpec, GraphSpec) {
    let piii = cluster.nodes_in(presets::PIII);
    let xeon = cluster.nodes_in(presets::XEON);
    let (rfr, iic, uso) = (&piii[0..4], &piii[4..8], &piii[8..10]);
    let texture_piii = &piii[10..23];
    let per_node = [texture_piii, &xeon[..]].concat();
    // XEON nodes are dual-processor: two HMP copies each.
    let per_processor = texture_piii
        .iter()
        .copied()
        .chain(xeon.iter().flat_map(|&x| [x, x]))
        .collect();
    (
        hmp_spec(rfr, iic, per_processor, uso),
        split_graph(rfr, iic, &per_node, &per_node, uso).build(),
    )
}

/// Makespans of the Figure 10 pair on `cluster`. HMP uses the full
/// representation, split the sparse one (each variant's §5.2 best).
fn fig10_pair(model: &CostModel, cluster: &ClusterSpec) -> (f64, f64) {
    let (hmp, split) = fig10_specs(cluster);
    let full = AppConfig::paper(Representation::Full);
    let sparse = AppConfig::paper(Representation::Sparse);
    (
        run(&hmp, cluster, full, model).makespan,
        run(&split, cluster, sparse, model).makespan,
    )
}

/// Figure 10: heterogeneous PIII + XEON comparison of the HMP (23 copies)
/// and split (18 nodes) implementations.
pub fn fig10(model: &CostModel) -> Series {
    let (hmp, split) = fig10_pair(model, &presets::piii_xeon());
    let mut s = Series::default();
    s.push("HMP Implementation", 23, hmp);
    s.push("HCC+HPC", 18, split);
    s
}

/// The report behind one Figure 11 run, exposing per-copy skew.
pub struct Fig11Run {
    /// The simulation report.
    pub report: SimReport,
    /// Buffers received by the XEON-resident HCC copies.
    pub xeon_buffers: u64,
    /// Buffers received by the OPTERON-resident HCC copies.
    pub opteron_buffers: u64,
}

/// Runs the Figure 11 layout with the given IIC→HCC scheduling policy:
/// 4 RFR, 1 IIC, 2 HPC and 1 USO on OPTERON; 4 HCC on XEON and 4 on
/// OPTERON, at most one filter per processor. Sparse matrices on the wire
/// (the split implementation's §5.2 best variant; with dense matrices the
/// HPC receive NICs saturate and mask the scheduling effect entirely).
pub fn run_fig11(model: &CostModel, policy: SchedulePolicy) -> Fig11Run {
    let cluster = presets::xeon_opteron();
    let xeon = cluster.nodes_in(presets::XEON);
    let opt = cluster.nodes_in(presets::OPTERON);
    // OPTERON service filters: RFR on nodes 0-3 (first CPU), IIC on node 4,
    // HPC on nodes 4 and 5, USO on node 5; HCC uses the second CPUs of
    // nodes 0-3. XEON hosts 4 HCC copies.
    let hcc = [&xeon[0..4], &opt[0..4]].concat();
    let mut graph = split_graph(&opt[0..4], &[opt[4]], &hcc, &[opt[4], opt[5]], &[opt[5]]);
    graph.texture_policy = policy;
    let sparse = AppConfig::paper(Representation::Sparse);
    let report = run(&graph.build(), &cluster, sparse, model);
    let mut xeon_buffers = 0;
    let mut opteron_buffers = 0;
    for c in report.per_copy.copies_of("HCC") {
        if cluster.nodes[hcc[c.copy]].cluster == presets::XEON {
            xeon_buffers += c.buffers_in;
        } else {
            opteron_buffers += c.buffers_in;
        }
    }
    Fig11Run {
        report,
        xeon_buffers,
        opteron_buffers,
    }
}

/// Figure 11: round-robin vs demand-driven scheduling of chunk buffers to
/// the HCC copies on the XEON + OPTERON testbed.
pub fn fig11(model: &CostModel) -> Series {
    let mut s = Series::default();
    s.push(
        "Round Robin",
        0,
        run_fig11(model, SchedulePolicy::RoundRobin).report.makespan,
    );
    s.push(
        "Demand Driven",
        1,
        run_fig11(model, SchedulePolicy::DemandDriven)
            .report
            .makespan,
    );
    s
}

/// §5.2 closing experiment: explicit IIC copies 1–8 with the 16-node split
/// layout; returns per-x the maximum per-copy IIC busy time ("processing
/// time of each IIC filter decreases almost linearly") and the makespan.
pub fn fig_iic(model: &CostModel) -> Series {
    let l = PiiiLayout::paper();
    let (hcc, hpc) = l.split(12);
    let mut s = Series::default();
    for &n_iic in &[1usize, 2, 4, 6] {
        // IIC copies occupy node 4 and (for n > 1) nodes 19–23 — the
        // 24-node cluster's headroom above the 12 texture nodes.
        let iic = [l.iic.clone(), l.texture(13..12 + n_iic)].concat();
        let spec = split_graph(&l.rfr, &iic, &hcc, &hpc, &l.uso).build();
        let sparse = AppConfig::paper(Representation::Sparse);
        let rep = run(&spec, &l.cluster, sparse, model);
        s.push(
            "IIC busy (max copy)",
            n_iic,
            rep.per_copy.max_busy_of("IIC"),
        );
        s.push("Execution time", n_iic, rep.makespan);
    }
    s
}

/// §5.1 chunk-size discussion: sweep the in-plane IIC-to-TEXTURE chunk
/// edge at the 16-node split layout. Small chunks blow up overlap volume;
/// large chunks starve the texture filters (coarse distribution).
pub fn fig_chunksize(model: &CostModel) -> Series {
    let l = PiiiLayout::paper();
    let (hcc, hpc) = l.split(16);
    let spec = split_graph(&l.rfr, &l.iic, &hcc, &hpc, &l.uso).build();
    let mut s = Series::default();
    for &edge in &[16usize, 32, 64, 128] {
        let mut cfg = AppConfig::paper(Representation::Sparse);
        cfg.chunk_dims = haralick::volume::Dims4::new(edge, edge, 8, 8);
        let retrieval = Workload::new(cfg.clone()).grid.retrieval_volume_by_chunk();
        let rep = run(&spec, &l.cluster, cfg, model);
        s.push("Execution time", edge, rep.makespan);
        s.push("Retrieval volume (Mvoxels)", edge, retrieval as f64 / 1e6);
    }
    s
}

/// Beyond-the-paper optimization study: the HMP implementation with the
/// paper's per-placement rebuild engine versus the fused sliding-window
/// engine with dirty-cell statistics (`haralick::raster::ScanEngine`),
/// across the Figure 7(a) node axis. The window is 10 voxels wide, so the
/// update path does a small fraction of the accumulation work per
/// placement.
pub fn fig_incremental(model: &CostModel) -> Series {
    let mut s = Series::default();
    for &n in &NODE_COUNTS {
        s.push(
            "HMP Full",
            n,
            run_hmp_piii(model, Representation::Full, n).makespan,
        );
        // Same layout on the fused scan engine.
        let mut cfg = AppConfig::paper(Representation::Full);
        cfg.engine = ScanEngine::Fused;
        s.push(
            "HMP Incremental",
            n,
            run_hmp_piii_cfg(model, cfg, n).makespan,
        );
    }
    s
}

/// Mechanism ablation: the 16-node Overlap configuration of Figure 8 with
/// individual simulator mechanisms idealized away — attributing the
/// co-location result to its causes (synchronous sends and bounded stream
/// buffers).
pub fn ablate_mechanisms(model: &CostModel) -> Series {
    let mut s = Series::default();
    let cases: [(&str, SimOptions); 3] = [
        ("full model", SimOptions::default()),
        (
            "free sends",
            SimOptions {
                synchronous_sends: false,
                ..SimOptions::default()
            },
        ),
        (
            "unbounded buffers",
            SimOptions {
                bounded_queues: false,
                ..SimOptions::default()
            },
        ),
    ];
    for (i, (name, opt)) in cases.iter().enumerate() {
        s.push(
            name,
            i,
            run_split_piii_with(model, Representation::Sparse, 16, true, opt).makespan,
        );
    }
    s
}

/// Beyond-the-paper scaling study: the split (co-located, sparse)
/// implementation on an idealized homogeneous Fast Ethernet cluster with
/// 2–64 texture nodes — exposing where the single IIC's NIC finally bounds
/// scalability (the limit §5.2 predicts at larger scale).
pub fn scaling_limits(model: &CostModel) -> Series {
    let mut s = Series::default();
    for &n in &[2usize, 4, 8, 16, 32, 64] {
        // The paper's service layout (nodes 0-5) on a uniform cluster.
        let l = PiiiLayout {
            cluster: presets::uniform(n + 6),
            ..PiiiLayout::paper()
        };
        let nodes = l.texture(0..n);
        let spec = split_graph(&l.rfr, &l.iic, &nodes, &nodes, &l.uso).build();
        let sparse = AppConfig::paper(Representation::Sparse);
        let rep = run(&spec, &l.cluster, sparse, model);
        s.push("Execution time", n, rep.makespan);
        s.push("HCC busy (max copy)", n, rep.per_copy.max_busy_of("HCC"));
    }
    s
}

/// §5.3's closing future work: "a more extensive investigation of the
/// impact of architecture parameters on the choice of implementation."
/// Sweeps the inter-cluster bandwidth of the PIII+XEON testbed and reruns
/// the Figure 10 comparison at each point; the x axis is the bandwidth in
/// Mbit/s. At generous bandwidths the HMP's better CPU utilization wins;
/// as the path narrows, the split's locality and comm/compute overlap
/// take over — exactly the trade-off the paper describes qualitatively.
pub fn architecture_sweep(model: &CostModel) -> Series {
    let mut s = Series::default();
    for &mbit in &[10usize, 50, 100, 400, 1000] {
        let mut cluster = presets::piii_xeon();
        cluster.set_inter(
            presets::PIII,
            presets::XEON,
            NetClass::shared(mbit as f64, 150.0),
        );
        let (hmp, split) = fig10_pair(model, &cluster);
        s.push("HMP Implementation", mbit, hmp);
        s.push("HCC+HPC", mbit, split);
    }
    s
}

/// Buffer-size study (§5.3: "larger buffers might achieve better
/// performance results"): sweeps the stream queue depth of the Figure 10
/// split configuration.
pub fn buffer_depth_sweep(model: &CostModel) -> Series {
    let cluster = presets::piii_xeon();
    let (_, mut spec) = fig10_specs(&cluster);
    let mut s = Series::default();
    for &cap in &[1usize, 2, 4, 8, 16] {
        for stream in &mut spec.streams {
            stream.capacity = cap;
        }
        let sparse = AppConfig::paper(Representation::Sparse);
        let rep = run(&spec, &cluster, sparse, model);
        s.push("Execution time", cap, rep.makespan);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accessors() {
        let mut s = Series::default();
        s.push("a", 1, 10.0);
        s.push("b", 1, 20.0);
        s.push("a", 2, 5.0);
        assert_eq!(s.get("a", 2), Some(5.0));
        assert_eq!(s.get("c", 1), None);
        assert_eq!(s.labels(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.xs(), vec![1, 2]);
    }
}
