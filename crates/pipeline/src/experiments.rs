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
use cluster::des::{simulate, simulate_with, SimOptions, SimReport};
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
}

fn run(
    spec: &GraphSpec,
    cluster: &ClusterSpec,
    w: &Arc<Workload>,
    model: &Arc<CostModel>,
) -> SimReport {
    let mut factories = sim_factories(spec, cluster, w, model);
    simulate(spec, cluster, &mut factories)
}

fn run_with(
    spec: &GraphSpec,
    cluster: &ClusterSpec,
    w: &Arc<Workload>,
    model: &Arc<CostModel>,
    options: &SimOptions,
) -> SimReport {
    let mut factories = sim_factories(spec, cluster, w, model);
    simulate_with(spec, cluster, &mut factories, options)
}

/// Runs the HMP implementation with `n` transparent HMP copies on the PIII
/// cluster (Figure 7a points).
pub fn run_hmp_piii(model: &CostModel, repr: Representation, n: usize) -> SimReport {
    let layout = PiiiLayout::paper();
    let w = Arc::new(Workload::new(AppConfig::paper(repr)));
    let model = Arc::new(model.clone());
    let hmp: Vec<usize> = (0..n).map(|i| layout.texture_base + i).collect();
    let spec = HmpGraph {
        rfr: Copies::Placed(layout.rfr.clone()),
        iic: Copies::Placed(layout.iic.clone()),
        hmp: Copies::Placed(hmp),
        uso: Copies::Placed(layout.uso.clone()),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    run(&spec, &layout.cluster, &w, &model)
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
    let layout = PiiiLayout::paper();
    let w = Arc::new(Workload::new(AppConfig::paper(repr)));
    let model = Arc::new(model.clone());
    let (hcc, hpc) = if overlap {
        let nodes: Vec<usize> = (0..n).map(|i| layout.texture_base + i).collect();
        (nodes.clone(), nodes)
    } else if n == 1 {
        // One node: both filters share it (paper's one-node configuration).
        (vec![layout.texture_base], vec![layout.texture_base])
    } else {
        let (n_hcc, n_hpc) = split_counts(n);
        let hcc: Vec<usize> = (0..n_hcc).map(|i| layout.texture_base + i).collect();
        let hpc: Vec<usize> = (0..n_hpc)
            .map(|i| layout.texture_base + n_hcc + i)
            .collect();
        (hcc, hpc)
    };
    let spec = SplitGraph {
        rfr: Copies::Placed(layout.rfr.clone()),
        iic: Copies::Placed(layout.iic.clone()),
        hcc: Copies::Placed(hcc),
        hpc: Copies::Placed(hpc),
        uso: Copies::Placed(layout.uso.clone()),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    run_with(&spec, &layout.cluster, &w, &model, options)
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

/// Figure 10: heterogeneous PIII + XEON comparison. 4 RFR, 4 IIC and 2 USO
/// run on the PIII cluster; texture filters span 13 PIII nodes and all
/// 5 XEON nodes. The HMP variant places one copy per *processor*
/// (13 + 10 = 23); the split variant co-locates one HCC and one HPC copy
/// per *node* (18 + 18). HMP uses the full representation, split the
/// sparse one (each variant's §5.2 best).
pub fn fig10(model: &CostModel) -> Series {
    let cluster = presets::piii_xeon();
    let piii = cluster.nodes_in(presets::PIII);
    let xeon = cluster.nodes_in(presets::XEON);
    let model_arc = Arc::new(model.clone());

    let rfr = piii[0..4].to_vec();
    let iic = piii[4..8].to_vec();
    let uso = piii[8..10].to_vec();
    let texture_piii = &piii[10..23]; // 13 nodes
    let mut s = Series::default();

    // HMP: one copy per processor.
    let mut hmp_nodes: Vec<usize> = texture_piii.to_vec();
    for &x in &xeon {
        hmp_nodes.push(x);
        hmp_nodes.push(x); // dual processors
    }
    let w_full = Arc::new(Workload::new(AppConfig::paper(Representation::Full)));
    let spec = HmpGraph {
        rfr: Copies::Placed(rfr.clone()),
        iic: Copies::Placed(iic.clone()),
        hmp: Copies::Placed(hmp_nodes),
        uso: Copies::Placed(uso.clone()),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    s.push(
        "HMP Implementation",
        23,
        run(&spec, &cluster, &w_full, &model_arc).makespan,
    );

    // Split: HCC and HPC co-located on each of the 18 texture nodes.
    let mut texture_nodes: Vec<usize> = texture_piii.to_vec();
    texture_nodes.extend_from_slice(&xeon);
    let w_sparse = Arc::new(Workload::new(AppConfig::paper(Representation::Sparse)));
    let spec = SplitGraph {
        rfr: Copies::Placed(rfr),
        iic: Copies::Placed(iic),
        hcc: Copies::Placed(texture_nodes.clone()),
        hpc: Copies::Placed(texture_nodes),
        uso: Copies::Placed(uso),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    s.push(
        "HCC+HPC",
        18,
        run(&spec, &cluster, &w_sparse, &model_arc).makespan,
    );
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
    let w = Arc::new(Workload::new(AppConfig::paper(Representation::Sparse)));
    let model_arc = Arc::new(model.clone());
    // OPTERON service filters: RFR on nodes 0-3 (first CPU), IIC on node 4,
    // HPC on nodes 4 and 5, USO on node 5; HCC uses the second CPUs of
    // nodes 0-3. XEON hosts 4 HCC copies.
    let hcc: Vec<usize> = xeon[0..4].iter().chain(opt[0..4].iter()).copied().collect();
    let spec = SplitGraph {
        rfr: Copies::Placed(opt[0..4].to_vec()),
        iic: Copies::Placed(vec![opt[4]]),
        hcc: Copies::Placed(hcc.clone()),
        hpc: Copies::Placed(vec![opt[4], opt[5]]),
        uso: Copies::Placed(vec![opt[5]]),
        texture_policy: policy,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let report = run(&spec, &cluster, &w, &model_arc);
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
    let layout = PiiiLayout::paper();
    let w = Arc::new(Workload::new(AppConfig::paper(Representation::Sparse)));
    let model_arc = Arc::new(model.clone());
    let mut s = Series::default();
    for &n_iic in &[1usize, 2, 4, 6] {
        // IIC copies occupy node 4 and (for n > 1) nodes 18..23 — the
        // 24-node cluster's headroom above the 12 texture nodes.
        let (n_hcc, n_hpc) = split_counts(12);
        let hcc: Vec<usize> = (0..n_hcc).map(|i| layout.texture_base + i).collect();
        let hpc: Vec<usize> = (0..n_hpc)
            .map(|i| layout.texture_base + n_hcc + i)
            .collect();
        let mut iic = vec![4usize];
        for k in 1..n_iic {
            iic.push(layout.texture_base + 12 + k);
        }
        let spec = SplitGraph {
            rfr: Copies::Placed(layout.rfr.clone()),
            iic: Copies::Placed(iic),
            hcc: Copies::Placed(hcc),
            hpc: Copies::Placed(hpc),
            uso: Copies::Placed(layout.uso.clone()),
            texture_policy: SchedulePolicy::DemandDriven,
            matrix_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        let rep = run(&spec, &layout.cluster, &w, &model_arc);
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
    let layout = PiiiLayout::paper();
    let model_arc = Arc::new(model.clone());
    let mut s = Series::default();
    for &edge in &[16usize, 32, 64, 128] {
        let mut cfg = AppConfig::paper(Representation::Sparse);
        cfg.chunk_dims = haralick::volume::Dims4::new(edge, edge, 8, 8);
        let w = Arc::new(Workload::new(cfg));
        let (n_hcc, n_hpc) = split_counts(16);
        let hcc: Vec<usize> = (0..n_hcc).map(|i| layout.texture_base + i).collect();
        let hpc: Vec<usize> = (0..n_hpc)
            .map(|i| layout.texture_base + n_hcc + i)
            .collect();
        let spec = SplitGraph {
            rfr: Copies::Placed(layout.rfr.clone()),
            iic: Copies::Placed(layout.iic.clone()),
            hcc: Copies::Placed(hcc),
            hpc: Copies::Placed(hpc),
            uso: Copies::Placed(layout.uso.clone()),
            texture_policy: SchedulePolicy::DemandDriven,
            matrix_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        let rep = run(&spec, &layout.cluster, &w.clone(), &model_arc);
        s.push("Execution time", edge, rep.makespan);
        s.push(
            "Retrieval volume (Mvoxels)",
            edge,
            w.grid.retrieval_volume_by_chunk() as f64 / 1e6,
        );
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
        let layout = PiiiLayout::paper();
        let mut cfg = AppConfig::paper(Representation::Full);
        cfg.engine = ScanEngine::Fused;
        let w = Arc::new(Workload::new(cfg));
        let model_arc = Arc::new(model.clone());
        let hmp: Vec<usize> = (0..n).map(|i| layout.texture_base + i).collect();
        let spec = HmpGraph {
            rfr: Copies::Placed(layout.rfr.clone()),
            iic: Copies::Placed(layout.iic.clone()),
            hmp: Copies::Placed(hmp),
            uso: Copies::Placed(layout.uso.clone()),
            texture_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        s.push(
            "HMP Incremental",
            n,
            run(&spec, &layout.cluster, &w, &model_arc).makespan,
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
        let cluster = presets::uniform(n + 6);
        let w = Arc::new(Workload::new(AppConfig::paper(Representation::Sparse)));
        let model_arc = Arc::new(model.clone());
        let nodes: Vec<usize> = (6..6 + n).collect();
        let spec = SplitGraph {
            rfr: Copies::Placed(vec![0, 1, 2, 3]),
            iic: Copies::Placed(vec![4]),
            hcc: Copies::Placed(nodes.clone()),
            hpc: Copies::Placed(nodes),
            uso: Copies::Placed(vec![5]),
            texture_policy: SchedulePolicy::DemandDriven,
            matrix_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        let rep = run(&spec, &cluster, &w, &model_arc);
        s.push("Execution time", n, rep.makespan);
        s.push("HCC busy (max copy)", n, rep.per_copy.max_busy_of("HCC"));
    }
    s
}

/// The Figure 10 layouts (HMP per processor vs co-located split) as a
/// reusable pair, on an arbitrary PIII+XEON-shaped cluster.
fn fig10_pair(model: &CostModel, cluster: &ClusterSpec) -> (f64, f64) {
    let piii = cluster.nodes_in(presets::PIII);
    let xeon = cluster.nodes_in(presets::XEON);
    let model_arc = Arc::new(model.clone());
    let rfr = piii[0..4].to_vec();
    let iic = piii[4..8].to_vec();
    let uso = piii[8..10].to_vec();
    let texture_piii = &piii[10..23];

    let mut hmp_nodes: Vec<usize> = texture_piii.to_vec();
    for &x in &xeon {
        hmp_nodes.push(x);
        hmp_nodes.push(x);
    }
    let w_full = Arc::new(Workload::new(AppConfig::paper(Representation::Full)));
    let hmp_spec = HmpGraph {
        rfr: Copies::Placed(rfr.clone()),
        iic: Copies::Placed(iic.clone()),
        hmp: Copies::Placed(hmp_nodes),
        uso: Copies::Placed(uso.clone()),
        texture_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let hmp = run(&hmp_spec, cluster, &w_full, &model_arc).makespan;

    let mut texture_nodes: Vec<usize> = texture_piii.to_vec();
    texture_nodes.extend_from_slice(&xeon);
    let w_sparse = Arc::new(Workload::new(AppConfig::paper(Representation::Sparse)));
    let split_spec = SplitGraph {
        rfr: Copies::Placed(rfr),
        iic: Copies::Placed(iic),
        hcc: Copies::Placed(texture_nodes.clone()),
        hpc: Copies::Placed(texture_nodes),
        uso: Copies::Placed(uso),
        texture_policy: SchedulePolicy::DemandDriven,
        matrix_policy: SchedulePolicy::DemandDriven,
    }
    .build();
    let split = run(&split_spec, cluster, &w_sparse, &model_arc).makespan;
    (hmp, split)
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
    let piii = cluster.nodes_in(presets::PIII);
    let xeon = cluster.nodes_in(presets::XEON);
    let model_arc = Arc::new(model.clone());
    let mut s = Series::default();
    for &cap in &[1usize, 2, 4, 8, 16] {
        let mut texture: Vec<usize> = piii[10..23].to_vec();
        texture.extend_from_slice(&xeon);
        let w = Arc::new(Workload::new(AppConfig::paper(Representation::Sparse)));
        let mut spec = SplitGraph {
            rfr: Copies::Placed(piii[0..4].to_vec()),
            iic: Copies::Placed(piii[4..8].to_vec()),
            hcc: Copies::Placed(texture.clone()),
            hpc: Copies::Placed(texture),
            uso: Copies::Placed(piii[8..10].to_vec()),
            texture_policy: SchedulePolicy::DemandDriven,
            matrix_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        for stream in &mut spec.streams {
            stream.capacity = cap;
        }
        let rep = run(&spec, &cluster, &w, &model_arc);
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
