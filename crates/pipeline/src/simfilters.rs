//! Simulator behaviours of the application filters.
//!
//! Each behaviour mirrors its real counterpart in [`crate::filters`] at the
//! buffer-flow level: same buffers, same counts, same wire sizes (all from
//! the shared [`Workload`] model), with service costs from the calibrated
//! [`CostModel`] instead of real computation.

use crate::payload::Piece;
use crate::workload::Workload;
use cluster::cost::CostModel;
use cluster::des::{SimAction, SimBuf, SimFilter, SimFilterFactory, SourceItem};
use cluster::spec::ClusterSpec;
use datacutter::graph::GraphSpec;
use std::collections::HashMap;
use std::sync::Arc;

/// RFR behaviour: one source item per local piece; production cost is the
/// disk seek plus streaming time of the underlying slice sub-rectangle.
pub struct RfrSim {
    items: Vec<SourceItem>,
}

impl RfrSim {
    /// Builds the source schedule for storage node `node`.
    pub fn new(w: &Workload, node: usize, disk_seek: f64, disk_bandwidth: f64) -> Self {
        let items = w
            .pieces_for_node(node)
            .into_iter()
            .map(|(chunk_id, bytes)| {
                // The piece header does not hit the disk.
                let raw_bytes = bytes - Piece::HEADER_BYTES as u64;
                SourceItem {
                    cost: disk_seek + raw_bytes as f64 / disk_bandwidth,
                    emits: vec![(
                        0,
                        SimBuf {
                            tag: chunk_id as u64,
                            bytes,
                        },
                    )],
                }
            })
            .collect();
        Self { items }
    }
}

impl SimFilter for RfrSim {
    fn source(&mut self) -> Vec<SourceItem> {
        std::mem::take(&mut self.items)
    }

    fn on_buffer(&mut self, _: usize, _: &SimBuf) -> SimAction {
        unreachable!("RFR has no inputs")
    }
}

/// IIC behaviour: accumulates pieces per chunk; emits the assembled chunk
/// when the last piece lands. Service cost per piece is the stitch
/// (copy/reorganize) cost of its bytes.
pub struct IicSim {
    w: Arc<Workload>,
    model: Arc<CostModel>,
    received: HashMap<u64, usize>,
}

impl IicSim {
    /// Creates the behaviour.
    pub fn new(w: Arc<Workload>, model: Arc<CostModel>) -> Self {
        Self {
            w,
            model,
            received: HashMap::new(),
        }
    }
}

impl SimFilter for IicSim {
    fn on_buffer(&mut self, _: usize, buf: &SimBuf) -> SimAction {
        let chunk = self.w.chunk_by_id(buf.tag as usize);
        let expected = self.w.pieces_of(&chunk);
        let got = self.received.entry(buf.tag).or_insert(0);
        *got += 1;
        let cost = self.model.stitch_cost(buf.bytes);
        if *got == expected {
            self.received.remove(&buf.tag);
            SimAction {
                cost,
                emits: vec![(
                    0,
                    SimBuf {
                        tag: buf.tag,
                        bytes: self.w.chunk_bytes(&chunk),
                    },
                )],
            }
        } else {
            SimAction {
                cost,
                emits: vec![],
            }
        }
    }
}

/// HMP behaviour: whole texture analysis per chunk; emits one parameter
/// packet per selected feature.
pub struct HmpSim {
    w: Arc<Workload>,
    model: Arc<CostModel>,
}

impl HmpSim {
    /// Creates the behaviour.
    pub fn new(w: Arc<Workload>, model: Arc<CostModel>) -> Self {
        Self { w, model }
    }
}

/// One parameter packet of `count` values per selected feature.
fn param_packets(w: &Workload, tag: u64, count: usize) -> Vec<(usize, SimBuf)> {
    let bytes = w.param_packet_bytes(count);
    vec![(0, SimBuf { tag, bytes }); w.cfg.selection.len()]
}

impl SimFilter for HmpSim {
    fn on_buffer(&mut self, _: usize, buf: &SimBuf) -> SimAction {
        let chunk = self.w.chunk_by_id(buf.tag as usize);
        let rois = chunk.rois();
        let cost = self.model.texture_cost(
            self.w.cfg.engine,
            rois,
            self.w.roi_voxels(),
            self.w.ndirs(),
            self.w.cfg.levels,
            self.w.repr(),
        );
        SimAction {
            cost,
            emits: param_packets(&self.w, buf.tag, rois),
        }
    }
}

/// HCC behaviour: co-occurrence matrices per chunk, emitted as
/// `packet_split` matrix packets.
pub struct HccSim {
    w: Arc<Workload>,
    model: Arc<CostModel>,
}

impl HccSim {
    /// Creates the behaviour.
    pub fn new(w: Arc<Workload>, model: Arc<CostModel>) -> Self {
        Self { w, model }
    }
}

impl SimFilter for HccSim {
    fn on_buffer(&mut self, _: usize, buf: &SimBuf) -> SimAction {
        let chunk = self.w.chunk_by_id(buf.tag as usize);
        // The paper's per-placement rebuild under either engine: no figure
        // or CLI path simulates the split variant on the fused kernel.
        let cost = self.model.hcc_cost(
            chunk.rois(),
            self.w.roi_voxels(),
            self.w.ndirs(),
            self.w.cfg.levels,
            self.w.repr(),
        );
        let emits = self
            .w
            .matrix_packets(&chunk, &self.model)
            .into_iter()
            .map(|(_, bytes)| {
                (
                    0,
                    SimBuf {
                        tag: buf.tag,
                        bytes,
                    },
                )
            })
            .collect();
        SimAction { cost, emits }
    }
}

/// HPC behaviour: Haralick parameters for each matrix packet; emits one
/// parameter packet per feature.
pub struct HpcSim {
    w: Arc<Workload>,
    model: Arc<CostModel>,
}

impl HpcSim {
    /// Creates the behaviour.
    pub fn new(w: Arc<Workload>, model: Arc<CostModel>) -> Self {
        Self { w, model }
    }
}

impl SimFilter for HpcSim {
    fn on_buffer(&mut self, _: usize, buf: &SimBuf) -> SimAction {
        let n = self.w.matrices_in_packet(buf.bytes, &self.model);
        let cost = self
            .model
            .features_cost(n, self.w.cfg.levels, self.w.repr());
        SimAction {
            cost,
            emits: param_packets(&self.w, buf.tag, n),
        }
    }
}

/// USO behaviour: formats and writes each parameter packet to local disk.
pub struct UsoSim {
    model: Arc<CostModel>,
    disk_bandwidth: f64,
}

impl UsoSim {
    /// Creates the behaviour for a node with the given disk.
    pub fn new(model: Arc<CostModel>, disk_bandwidth: f64) -> Self {
        Self {
            model,
            disk_bandwidth,
        }
    }
}

impl SimFilter for UsoSim {
    fn on_buffer(&mut self, _: usize, buf: &SimBuf) -> SimAction {
        SimAction {
            cost: self.model.write_cost(buf.bytes) + buf.bytes as f64 / self.disk_bandwidth,
            emits: vec![],
        }
    }
}

/// Builds the simulator factories for every filter present in `spec`,
/// resolving per-copy disk parameters from the placement and cluster.
///
/// # Panics
/// If a filter in the spec lacks placement (required to resolve disks).
pub fn sim_factories<'a>(
    spec: &GraphSpec,
    cluster: &ClusterSpec,
    w: &Arc<Workload>,
    model: &Arc<CostModel>,
) -> HashMap<String, SimFilterFactory<'a>> {
    let mut out: HashMap<String, SimFilterFactory> = HashMap::new();
    for f in &spec.filters {
        let placement = f.placement.clone();
        assert!(
            placement.len() == f.copies,
            "simulation requires placement for filter {:?}",
            f.name
        );
        let disks: Vec<(f64, f64)> = placement
            .iter()
            .map(|&n| (cluster.nodes[n].disk_seek, cluster.nodes[n].disk_bandwidth))
            .collect();
        let w = w.clone();
        let model = model.clone();
        let factory: SimFilterFactory = match f.name.as_str() {
            "RFR" => Box::new(move |copy| {
                let (seek, bw) = disks[copy];
                Box::new(RfrSim::new(&w, copy, seek, bw))
            }),
            "IIC" => Box::new(move |_| Box::new(IicSim::new(w.clone(), model.clone()))),
            "HMP" => Box::new(move |_| Box::new(HmpSim::new(w.clone(), model.clone()))),
            "HCC" => Box::new(move |_| Box::new(HccSim::new(w.clone(), model.clone()))),
            "HPC" => Box::new(move |_| Box::new(HpcSim::new(w.clone(), model.clone()))),
            "USO" => Box::new(move |copy| {
                let (_, bw) = disks[copy];
                Box::new(UsoSim::new(model.clone(), bw))
            }),
            other => panic!("no simulator behaviour for filter {other:?}"),
        };
        out.insert(f.name.clone(), factory);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use haralick::raster::{Representation, ScanEngine};

    #[test]
    fn rfr_schedule_covers_all_pieces_once() {
        let w = Workload::new(AppConfig::test_scale(Representation::Sparse));
        let mut total = 0usize;
        for node in 0..w.cfg.storage_nodes {
            let mut sim = RfrSim::new(&w, node, 8e-3, 50e6);
            let items = sim.source();
            assert!(items.iter().all(|i| i.cost > 0.0));
            total += items.len();
        }
        let expected: usize = w.grid.chunks().map(|c| w.pieces_of(&c)).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn iic_emits_exactly_when_complete() {
        let w = Arc::new(Workload::new(AppConfig::test_scale(Representation::Sparse)));
        let model = Arc::new(cluster::calibrated_defaults::default_model());
        let mut iic = IicSim::new(w.clone(), model);
        let chunk = w.chunk_by_id(0);
        let expected = w.pieces_of(&chunk);
        let buf = SimBuf {
            tag: 0,
            bytes: w.piece_bytes(&chunk),
        };
        for k in 0..expected {
            let a = iic.on_buffer(0, &buf);
            assert!(a.cost > 0.0);
            if k + 1 == expected {
                assert_eq!(a.emits.len(), 1, "chunk must emit on last piece");
                assert_eq!(a.emits[0].1.bytes, w.chunk_bytes(&chunk));
            } else {
                assert!(a.emits.is_empty(), "premature chunk emission");
            }
        }
    }

    #[test]
    fn hcc_packets_match_workload_model() {
        let w = Arc::new(Workload::new(AppConfig::test_scale(Representation::Full)));
        let model = Arc::new(cluster::calibrated_defaults::default_model());
        let mut hcc = HccSim::new(w.clone(), model.clone());
        let chunk = w.chunk_by_id(0);
        let a = hcc.on_buffer(0, &chunk_buf(&w, 0));
        assert_eq!(a.emits.len(), w.matrix_packets(&chunk, &model).len());
        assert!(a.cost > 0.0);
    }

    /// The chunk buffer IIC would hand a texture filter for chunk `id`.
    fn chunk_buf(w: &Workload, id: usize) -> SimBuf {
        SimBuf {
            tag: id as u64,
            bytes: w.chunk_bytes(&w.chunk_by_id(id)),
        }
    }

    fn workload_on(engine: ScanEngine) -> Arc<Workload> {
        let mut cfg = AppConfig::test_scale(Representation::Full);
        cfg.engine = engine;
        Arc::new(Workload::new(cfg))
    }

    #[test]
    fn fused_hmp_charges_the_measured_price_per_placement() {
        let w = workload_on(ScanEngine::Fused);
        let model = Arc::new(cluster::calibrated_defaults::default_model());
        let mut hmp = HmpSim::new(w.clone(), model.clone());
        // An interior chunk and the last one, which the volume edge clips.
        let last = w.grid.chunks().count() - 1;
        assert!(w.chunk_by_id(last).rois() < w.chunk_by_id(0).rois());
        for id in [0, last] {
            let a = hmp.on_buffer(0, &chunk_buf(&w, id));
            assert_eq!(
                a.cost,
                w.chunk_by_id(id).rois() as f64 * model.fused_s_per_placement
            );
        }
    }

    #[test]
    fn hcc_charges_the_rebuild_under_both_engines() {
        let model = Arc::new(cluster::calibrated_defaults::default_model());
        for engine in [ScanEngine::Reference, ScanEngine::Fused] {
            let w = workload_on(engine);
            let mut hcc = HccSim::new(w.clone(), model.clone());
            let a = hcc.on_buffer(0, &chunk_buf(&w, 0));
            let rois = w.chunk_by_id(0).rois();
            assert_eq!(
                a.cost,
                model.hcc_cost(rois, w.roi_voxels(), w.ndirs(), w.cfg.levels, w.repr())
            );
        }
    }

    #[test]
    fn sparse_hcc_emits_far_fewer_bytes_than_full() {
        let model = Arc::new(cluster::calibrated_defaults::default_model());
        let bytes_of = |repr| {
            let w = Arc::new(Workload::new(AppConfig::test_scale(repr)));
            let mut hcc = HccSim::new(w.clone(), model.clone());
            let a = hcc.on_buffer(0, &chunk_buf(&w, 0));
            a.emits.iter().map(|(_, b)| b.bytes).sum::<u64>()
        };
        let full = bytes_of(Representation::Full);
        let sparse = bytes_of(Representation::Sparse);
        assert!(
            full > 10 * sparse,
            "sparse transmission should slash traffic: full {full} vs sparse {sparse}"
        );
    }
}
