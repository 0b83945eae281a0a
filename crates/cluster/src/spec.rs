//! Cluster description: nodes, CPUs, speeds, and the network between them.

use std::collections::HashMap;

/// One compute/storage node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node name, e.g. `"piii-07"`.
    pub name: String,
    /// Cluster the node belongs to (drives network selection).
    pub cluster: String,
    /// Number of CPUs (filter copies on the node share them).
    pub cpus: usize,
    /// Relative CPU speed; service time = cost / speed. The PIII nodes are
    /// the 1.0 reference.
    pub speed: f64,
    /// Local disk streaming bandwidth, bytes/second.
    pub disk_bandwidth: f64,
    /// Local disk seek + request overhead, seconds.
    pub disk_seek: f64,
    /// CPU cost of receiving one byte over TCP on this node, seconds.
    /// Era-appropriate protocol processing was far from free: a ~1 GHz
    /// PIII spends real cycles per byte, which is what turns high-volume
    /// stitch filters into CPU bottlenecks (paper Figure 9).
    pub net_cpu_s_per_byte: f64,
    /// SMP memory contention: fractional slowdown per *additional* busy
    /// CPU on this node. The 2004 dual Xeon shared one front-side bus, so
    /// two memory-bound jobs each ran ~1.45x slower (factor ≈ 0.45); the
    /// Opteron's per-socket memory controllers scale almost linearly
    /// (≈ 0.05). Single-CPU nodes are unaffected.
    pub smp_contention: f64,
}

/// A network class: latency plus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetClass {
    /// One-way latency per transfer, seconds.
    pub latency: f64,
    /// Bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Whether all transfers on this class share one medium (a single
    /// contended trunk, like the paper's shared 100 Mbit/s inter-cluster
    /// path) rather than a switched fabric.
    pub shared_medium: bool,
}

impl NetClass {
    /// A switched network from Mbit/s and latency in microseconds.
    pub fn switched(mbit_per_s: f64, latency_us: f64) -> Self {
        Self {
            latency: latency_us * 1e-6,
            bandwidth: mbit_per_s * 1e6 / 8.0,
            shared_medium: false,
        }
    }

    /// A shared-medium network from Mbit/s and latency in microseconds.
    pub fn shared(mbit_per_s: f64, latency_us: f64) -> Self {
        Self {
            shared_medium: true,
            ..Self::switched(mbit_per_s, latency_us)
        }
    }

    /// Time to move `bytes` over this class, ignoring contention.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// The full cluster model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// All nodes; node ids are indices into this vector.
    pub nodes: Vec<NodeSpec>,
    /// Intra-cluster network per cluster name.
    pub intra: HashMap<String, NetClass>,
    /// Inter-cluster network per unordered cluster-name pair (stored with
    /// the two names sorted and joined by `"|"`).
    pub inter: HashMap<String, NetClass>,
}

impl ClusterSpec {
    /// Builds an empty spec.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            intra: HashMap::new(),
            inter: HashMap::new(),
        }
    }

    fn pair_key(a: &str, b: &str) -> String {
        if a <= b {
            format!("{a}|{b}")
        } else {
            format!("{b}|{a}")
        }
    }

    /// Adds `count` identical nodes named `{prefix}-NN` in `cluster`.
    /// Returns the ids of the new nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn add_nodes(
        &mut self,
        cluster: &str,
        prefix: &str,
        count: usize,
        cpus: usize,
        speed: f64,
        disk_bandwidth: f64,
        disk_seek: f64,
    ) -> Vec<usize> {
        self.add_nodes_net(
            cluster,
            prefix,
            count,
            cpus,
            speed,
            disk_bandwidth,
            disk_seek,
            0.0,
        )
    }

    /// [`ClusterSpec::add_nodes`] with an explicit per-byte TCP receive CPU
    /// cost.
    #[allow(clippy::too_many_arguments)]
    pub fn add_nodes_net(
        &mut self,
        cluster: &str,
        prefix: &str,
        count: usize,
        cpus: usize,
        speed: f64,
        disk_bandwidth: f64,
        disk_seek: f64,
        net_cpu_s_per_byte: f64,
    ) -> Vec<usize> {
        let start = self.nodes.len();
        for i in 0..count {
            self.nodes.push(NodeSpec {
                name: format!("{prefix}-{i:02}"),
                cluster: cluster.to_string(),
                cpus,
                speed,
                disk_bandwidth,
                disk_seek,
                net_cpu_s_per_byte,
                smp_contention: 0.0,
            });
        }
        (start..start + count).collect()
    }

    /// Declares the intra-cluster network of `cluster`.
    pub fn set_intra(&mut self, cluster: &str, net: NetClass) {
        self.intra.insert(cluster.to_string(), net);
    }

    /// Declares the network between two clusters.
    pub fn set_inter(&mut self, a: &str, b: &str, net: NetClass) {
        self.inter.insert(Self::pair_key(a, b), net);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the spec has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all nodes in `cluster`, in id order.
    pub fn nodes_in(&self, cluster: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.cluster == cluster)
            .map(|(i, _)| i)
            .collect()
    }

    /// The network class between two nodes; `None` when they are the same
    /// node (co-located filters exchange buffers by pointer copy — no
    /// network is involved).
    ///
    /// # Panics
    /// If the required intra/inter class was never declared.
    pub fn net_between(&self, a: usize, b: usize) -> Option<NetClass> {
        if a == b {
            return None;
        }
        let (ca, cb) = (&self.nodes[a].cluster, &self.nodes[b].cluster);
        if ca == cb {
            Some(
                *self
                    .intra
                    .get(ca)
                    .unwrap_or_else(|| panic!("no intra-cluster network for {ca:?}")),
            )
        } else {
            Some(
                *self
                    .inter
                    .get(&Self::pair_key(ca, cb))
                    .unwrap_or_else(|| panic!("no inter-cluster network for {ca:?}<->{cb:?}")),
            )
        }
    }

    /// A stable contention-resource id for the path between two distinct
    /// nodes: shared-medium classes collapse to one resource per cluster
    /// pair, switched classes get one resource per directed NIC pair
    /// endpoint (modeled by the caller via sender/receiver NIC ids).
    pub fn shared_trunk_id(&self, a: usize, b: usize) -> Option<String> {
        let net = self.net_between(a, b)?;
        if !net.shared_medium {
            return None;
        }
        let (ca, cb) = (&self.nodes[a].cluster, &self.nodes[b].cluster);
        Some(format!("trunk:{}", Self::pair_key(ca, cb)))
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterSpec {
        let mut c = ClusterSpec::new();
        c.add_nodes("alpha", "a", 3, 1, 1.0, 50e6, 8e-3);
        c.add_nodes("beta", "b", 2, 2, 2.0, 50e6, 8e-3);
        c.set_intra("alpha", NetClass::switched(100.0, 100.0));
        c.set_intra("beta", NetClass::switched(1000.0, 50.0));
        c.set_inter("alpha", "beta", NetClass::shared(100.0, 150.0));
        c
    }

    #[test]
    fn node_ids_and_clusters() {
        let c = sample();
        assert_eq!(c.len(), 5);
        assert_eq!(c.nodes_in("alpha"), vec![0, 1, 2]);
        assert_eq!(c.nodes_in("beta"), vec![3, 4]);
        assert_eq!(c.nodes[3].cpus, 2);
    }

    #[test]
    fn same_node_has_no_network() {
        let c = sample();
        assert!(c.net_between(1, 1).is_none());
    }

    #[test]
    fn intra_and_inter_selection() {
        let c = sample();
        let intra = c.net_between(0, 2).unwrap();
        assert!(!intra.shared_medium);
        assert!((intra.bandwidth - 100.0e6 / 8.0).abs() < 1.0);
        let inter = c.net_between(0, 4).unwrap();
        assert!(inter.shared_medium);
        // Symmetric.
        assert_eq!(c.net_between(4, 0).unwrap(), inter);
    }

    #[test]
    fn transfer_time_formula() {
        let n = NetClass::switched(100.0, 100.0);
        let t = n.transfer_time(12_500_000); // 12.5 MB over 12.5 MB/s
        assert!((t - 1.0001).abs() < 1e-9);
    }

    #[test]
    fn trunk_ids_only_for_shared_media() {
        let c = sample();
        assert!(c.shared_trunk_id(0, 1).is_none(), "switched has no trunk");
        let t1 = c.shared_trunk_id(0, 3).unwrap();
        let t2 = c.shared_trunk_id(4, 2).unwrap();
        assert_eq!(t1, t2, "one trunk per cluster pair, direction-free");
    }
}
