//! Graph builders for the paper's two implementations.
//!
//! * **HMP variant** (paper Figure 5): `RFR → IIC → HMP → USO`;
//! * **split variant** (paper Figure 4): `RFR → IIC → HCC → HPC → USO`;
//! * **visual variant**: `RFR → IIC → HMP → HIC → JIW` (the image-output
//!   path of §4.3.3).
//!
//! Copy counts and (for simulation) placements are given per filter via
//! [`Copies`]. Stream policies follow the paper: chunk pieces reach their
//! stitch copy by tag-modulo (explicit copies), chunks and matrix packets
//! are demand-driven by default (configurable for the Figure 11
//! experiment), and parameter packets round-robin over the output filters.

use datacutter::{GraphSpec, SchedulePolicy};

/// Copy count, optionally with explicit node placement (required by the
/// simulator, ignored by the threaded engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Copies {
    /// `n` unplaced copies.
    Count(usize),
    /// One copy per listed node id.
    Placed(Vec<usize>),
}

impl Copies {
    /// Number of copies.
    pub fn len(&self) -> usize {
        match self {
            Copies::Count(n) => *n,
            Copies::Placed(v) => v.len(),
        }
    }

    /// True when no copies are declared.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn add_to(&self, spec: GraphSpec, name: &str) -> GraphSpec {
        match self {
            Copies::Count(n) => spec.filter(name, *n),
            Copies::Placed(nodes) => spec.filter_placed(name, nodes.clone()),
        }
    }
}

/// Builder for the combined (HMP) implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmpGraph {
    /// RAWFileReader copies (one per storage node).
    pub rfr: Copies,
    /// InputImageConstructor copies (explicit, tag-modulo routed).
    pub iic: Copies,
    /// HaralickMatrixProducer copies (transparent).
    pub hmp: Copies,
    /// UnstitchedOutput copies.
    pub uso: Copies,
    /// Scheduling of IIC→HMP chunk buffers.
    pub texture_policy: SchedulePolicy,
}

impl HmpGraph {
    /// Builds the graph spec.
    pub fn build(&self) -> GraphSpec {
        let mut g = GraphSpec::new();
        g = self.rfr.add_to(g, "RFR");
        g = self.iic.add_to(g, "IIC");
        g = self.hmp.add_to(g, "HMP");
        g = self.uso.add_to(g, "USO");
        g.stream("pieces", "RFR", "IIC", SchedulePolicy::ByTagModulo)
            .stream("chunks", "IIC", "HMP", self.texture_policy)
            .stream("params", "HMP", "USO", SchedulePolicy::RoundRobin)
    }
}

/// Builder for the split (HCC + HPC) implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitGraph {
    /// RAWFileReader copies.
    pub rfr: Copies,
    /// InputImageConstructor copies.
    pub iic: Copies,
    /// HaralickCoMatrixCalculator copies.
    pub hcc: Copies,
    /// HaralickParameterCalculator copies.
    pub hpc: Copies,
    /// UnstitchedOutput copies.
    pub uso: Copies,
    /// Scheduling of IIC→HCC chunk buffers.
    pub texture_policy: SchedulePolicy,
    /// Scheduling of HCC→HPC matrix packets (Figure 11 compares round-robin
    /// and demand-driven here).
    pub matrix_policy: SchedulePolicy,
}

impl SplitGraph {
    /// Builds the graph spec.
    pub fn build(&self) -> GraphSpec {
        let mut g = GraphSpec::new();
        g = self.rfr.add_to(g, "RFR");
        g = self.iic.add_to(g, "IIC");
        g = self.hcc.add_to(g, "HCC");
        g = self.hpc.add_to(g, "HPC");
        g = self.uso.add_to(g, "USO");
        g.stream("pieces", "RFR", "IIC", SchedulePolicy::ByTagModulo)
            .stream("chunks", "IIC", "HCC", self.texture_policy)
            .stream("matrices", "HCC", "HPC", self.matrix_policy)
            .stream("params", "HPC", "USO", SchedulePolicy::RoundRobin)
    }
}

/// Builder for the image-output pipeline: HMP feeding the output stitch
/// and image writer instead of the raw parameter sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisualGraph {
    /// RAWFileReader copies.
    pub rfr: Copies,
    /// InputImageConstructor copies.
    pub iic: Copies,
    /// HaralickMatrixProducer copies.
    pub hmp: Copies,
    /// HaralickImageConstructor copies (normally 1 — it assembles global
    /// volumes).
    pub hic: Copies,
    /// JPGImageWriter copies.
    pub jiw: Copies,
}

impl VisualGraph {
    /// Builds the graph spec.
    pub fn build(&self) -> GraphSpec {
        let mut g = GraphSpec::new();
        g = self.rfr.add_to(g, "RFR");
        g = self.iic.add_to(g, "IIC");
        g = self.hmp.add_to(g, "HMP");
        g = self.hic.add_to(g, "HIC");
        g = self.jiw.add_to(g, "JIW");
        g.stream("pieces", "RFR", "IIC", SchedulePolicy::ByTagModulo)
            .stream("chunks", "IIC", "HMP", SchedulePolicy::DemandDriven)
            .stream("params", "HMP", "HIC", SchedulePolicy::RoundRobin)
            .stream_with_capacity("volumes", "HIC", "JIW", SchedulePolicy::RoundRobin, 16)
    }
}

/// The 4:1 HCC-to-HPC node split of §5.2: `n` texture nodes become
/// `(hcc, hpc)` counts ("a 4-to-1 ratio was maintained ... when possible";
/// 16 → 13 + 3 as in the paper). For `n = 1`, both run co-located on the
/// one node. The one law both the simulated figures and
/// [`standard_graph`]'s split variant divide their texture copies by.
pub fn split_counts(n: usize) -> (usize, usize) {
    if n <= 1 {
        return (1, 1);
    }
    let hpc = (n as f64 / 5.0).round().max(1.0) as usize;
    (n - hpc, hpc)
}

/// Builds one of the three standard variants by name — `"hmp"` (combined
/// texture filter), `"split"` (HCC + HPC), or `"visual"` (HIC + JIW) —
/// with `texture` worker copies ([`split_counts`] divides them between HCC
/// and HPC). Returns
/// `None` for an unknown variant. Shared by the `h4d` CLI and the analysis
/// service so both build the identical network for a given request.
pub fn standard_graph(variant: &str, storage_nodes: usize, texture: usize) -> Option<GraphSpec> {
    Some(match variant {
        "hmp" => HmpGraph {
            rfr: Copies::Count(storage_nodes),
            iic: Copies::Count(1),
            hmp: Copies::Count(texture),
            uso: Copies::Count(1),
            texture_policy: SchedulePolicy::DemandDriven,
        }
        .build(),
        "split" => {
            let (hcc, hpc) = split_counts(texture);
            SplitGraph {
                rfr: Copies::Count(storage_nodes),
                iic: Copies::Count(1),
                hcc: Copies::Count(hcc),
                hpc: Copies::Count(hpc),
                uso: Copies::Count(1),
                texture_policy: SchedulePolicy::DemandDriven,
                matrix_policy: SchedulePolicy::DemandDriven,
            }
            .build()
        }
        "visual" => VisualGraph {
            rfr: Copies::Count(storage_nodes),
            iic: Copies::Count(1),
            hmp: Copies::Count(texture),
            hic: Copies::Count(1),
            jiw: Copies::Count(1),
        }
        .build(),
        _ => return None,
    })
}

/// Swaps the raw reader for the DICOM reader in any built graph: renames
/// the `RFR` filter (and its stream endpoint) to `DFR`. Nothing else in the
/// network changes — the paper's incremental-development property.
pub fn with_dicom_reader(mut spec: GraphSpec) -> GraphSpec {
    for f in &mut spec.filters {
        if f.name == "RFR" {
            f.name = "DFR".to_string();
        }
    }
    for s in &mut spec.streams {
        if s.from == "RFR" {
            s.from = "DFR".to_string();
        }
        if s.to == "RFR" {
            s.to = "DFR".to_string();
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmp_graph_validates() {
        let g = HmpGraph {
            rfr: Copies::Count(4),
            iic: Copies::Count(1),
            hmp: Copies::Count(8),
            uso: Copies::Count(1),
            texture_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        g.validate().expect("valid HMP graph");
        assert_eq!(g.filters.len(), 4);
        assert_eq!(g.streams.len(), 3);
    }

    #[test]
    fn split_graph_validates_with_placement() {
        let g = SplitGraph {
            rfr: Copies::Placed(vec![0, 1, 2, 3]),
            iic: Copies::Placed(vec![4]),
            hcc: Copies::Placed(vec![6, 7, 8, 9]),
            hpc: Copies::Placed(vec![10]),
            uso: Copies::Placed(vec![5]),
            texture_policy: SchedulePolicy::DemandDriven,
            matrix_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        g.validate().expect("valid split graph");
        assert_eq!(g.filter_decl("HCC").unwrap().placement, vec![6, 7, 8, 9]);
    }

    #[test]
    fn four_to_one_split_matches_paper() {
        assert_eq!(split_counts(16), (13, 3));
        assert_eq!(split_counts(1), (1, 1));
        assert_eq!(split_counts(2), (1, 1));
        assert_eq!(split_counts(8), (6, 2));
        for n in 2..=24 {
            let (hcc, hpc) = split_counts(n);
            assert_eq!(hcc + hpc, n);
            assert!(hcc >= 1 && hpc >= 1);
        }
    }

    #[test]
    fn standard_split_graph_divides_texture_copies_by_split_counts() {
        for n in 1..=16 {
            let g = standard_graph("split", 4, n).expect("split variant");
            let copies = |name| g.filter_decl(name).expect("declared").copies;
            assert_eq!((copies("HCC"), copies("HPC")), split_counts(n), "n={n}");
        }
    }

    #[test]
    fn dicom_reader_swap_preserves_topology() {
        let g = HmpGraph {
            rfr: Copies::Count(2),
            iic: Copies::Count(1),
            hmp: Copies::Count(2),
            uso: Copies::Count(1),
            texture_policy: SchedulePolicy::DemandDriven,
        }
        .build();
        let d = with_dicom_reader(g.clone());
        d.validate().expect("swapped graph stays valid");
        assert!(d.filter_decl("DFR").is_some());
        assert!(d.filter_decl("RFR").is_none());
        assert_eq!(d.streams.len(), g.streams.len());
        assert_eq!(d.streams[0].from, "DFR");
    }

    #[test]
    fn visual_graph_validates() {
        let g = VisualGraph {
            rfr: Copies::Count(2),
            iic: Copies::Count(1),
            hmp: Copies::Count(2),
            hic: Copies::Count(1),
            jiw: Copies::Count(1),
        }
        .build();
        g.validate().expect("valid visual graph");
        assert_eq!(g.inputs_of("JIW").len(), 1);
    }
}
