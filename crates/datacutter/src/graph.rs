//! Filter-graph description.
//!
//! A graph declares the application's filters (with their copy counts and
//! node placements) and the streams connecting them. DataCutter expressed
//! this as an XML document; we use a typed builder that serializes to JSON.
//!
//! Port numbering: a filter's *input ports* are its incoming streams in
//! declaration order, and its *output ports* its outgoing streams in
//! declaration order. [`crate::filter::Filter::process`] receives the input
//! port index; [`crate::filter::FilterContext::emit`] takes the output port
//! index.

use crate::schedule::SchedulePolicy;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// A filter declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterDecl {
    /// Unique filter name (e.g. `"HCC"`).
    pub name: String,
    /// Number of copies to instantiate.
    pub copies: usize,
    /// Node placement of each copy (`placement[i]` is copy `i`'s node id).
    /// May be empty for the threaded engine, which ignores placement; the
    /// cluster simulator requires one entry per copy.
    pub placement: Vec<usize>,
}

/// A stream declaration connecting two filters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamDecl {
    /// Unique stream name (e.g. `"coocc"`).
    pub name: String,
    /// Producer filter name.
    pub from: String,
    /// Consumer filter name.
    pub to: String,
    /// Buffer scheduling policy across the consumer's copies.
    pub policy: SchedulePolicy,
    /// Queue bound, in buffers, per queue (backpressure depth).
    pub capacity: usize,
}

/// Errors detected by [`GraphSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two filters share a name.
    DuplicateFilter(String),
    /// Two streams share a name.
    DuplicateStream(String),
    /// A stream references an unknown filter.
    UnknownFilter {
        /// The stream.
        stream: String,
        /// The missing filter name.
        filter: String,
    },
    /// A filter has zero copies.
    ZeroCopies(String),
    /// A stream has zero capacity.
    ZeroCapacity(String),
    /// A stream connects a filter to itself.
    SelfLoop(String),
    /// The stream graph contains a cycle.
    Cycle,
    /// A placement list has the wrong length.
    BadPlacement(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateFilter(n) => write!(f, "duplicate filter name {n:?}"),
            GraphError::DuplicateStream(n) => write!(f, "duplicate stream name {n:?}"),
            GraphError::UnknownFilter { stream, filter } => {
                write!(f, "stream {stream:?} references unknown filter {filter:?}")
            }
            GraphError::ZeroCopies(n) => write!(f, "filter {n:?} declared with zero copies"),
            GraphError::ZeroCapacity(n) => write!(f, "stream {n:?} declared with zero capacity"),
            GraphError::SelfLoop(n) => write!(f, "stream {n:?} connects a filter to itself"),
            GraphError::Cycle => write!(f, "stream graph contains a cycle"),
            GraphError::BadPlacement(n) => {
                write!(f, "filter {n:?} placement length does not match copies")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The complete filter-graph description.
///
/// ```
/// use datacutter::{GraphSpec, SchedulePolicy};
///
/// let spec = GraphSpec::new()
///     .filter("reader", 4)
///     .filter("worker", 8)
///     .filter("sink", 1)
///     .stream("data", "reader", "worker", SchedulePolicy::DemandDriven)
///     .stream("out", "worker", "sink", SchedulePolicy::RoundRobin);
/// let topo_order = spec.validate().expect("acyclic and well-formed");
/// assert_eq!(topo_order.len(), 3);
/// assert_eq!(spec.inputs_of("worker").len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Declared filters.
    pub filters: Vec<FilterDecl>,
    /// Declared streams.
    pub streams: Vec<StreamDecl>,
}

impl GraphSpec {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an unplaced filter with `copies` transparent copies.
    pub fn filter(mut self, name: &str, copies: usize) -> Self {
        self.filters.push(FilterDecl {
            name: name.to_string(),
            copies,
            placement: Vec::new(),
        });
        self
    }

    /// Adds a filter with explicit per-copy node placement (the copy count
    /// is the placement length).
    pub fn filter_placed(mut self, name: &str, placement: Vec<usize>) -> Self {
        self.filters.push(FilterDecl {
            name: name.to_string(),
            copies: placement.len(),
            placement,
        });
        self
    }

    /// Adds a stream with the default queue capacity of 4 buffers.
    pub fn stream(self, name: &str, from: &str, to: &str, policy: SchedulePolicy) -> Self {
        self.stream_with_capacity(name, from, to, policy, 4)
    }

    /// Adds a stream with an explicit queue capacity.
    pub fn stream_with_capacity(
        mut self,
        name: &str,
        from: &str,
        to: &str,
        policy: SchedulePolicy,
        capacity: usize,
    ) -> Self {
        self.streams.push(StreamDecl {
            name: name.to_string(),
            from: from.to_string(),
            to: to.to_string(),
            policy,
            capacity,
        });
        self
    }

    /// Index of the filter named `name`.
    pub fn filter_index(&self, name: &str) -> Option<usize> {
        self.filters.iter().position(|f| f.name == name)
    }

    /// The declaration of the filter named `name`.
    pub fn filter_decl(&self, name: &str) -> Option<&FilterDecl> {
        self.filters.iter().find(|f| f.name == name)
    }

    /// Stream indices entering `filter`, in declaration order — these are
    /// the filter's input ports.
    pub fn inputs_of(&self, filter: &str) -> Vec<usize> {
        self.streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.to == filter)
            .map(|(i, _)| i)
            .collect()
    }

    /// The input port stream `si` occupies on its consumer: its position
    /// among [`GraphSpec::inputs_of`] that filter.
    pub fn input_port_of(&self, si: usize) -> usize {
        let to = &self.streams[si].to;
        self.streams[..si].iter().filter(|s| &s.to == to).count()
    }

    /// Stream indices leaving `filter`, in declaration order — these are
    /// the filter's output ports.
    pub fn outputs_of(&self, filter: &str) -> Vec<usize> {
        self.streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.from == filter)
            .map(|(i, _)| i)
            .collect()
    }

    /// Validates the graph; returns filter indices in a topological order.
    pub fn validate(&self) -> Result<Vec<usize>, GraphError> {
        let mut names = HashSet::new();
        for f in &self.filters {
            if !names.insert(f.name.as_str()) {
                return Err(GraphError::DuplicateFilter(f.name.clone()));
            }
            if f.copies == 0 {
                return Err(GraphError::ZeroCopies(f.name.clone()));
            }
            if !f.placement.is_empty() && f.placement.len() != f.copies {
                return Err(GraphError::BadPlacement(f.name.clone()));
            }
        }
        let mut snames = HashSet::new();
        for s in &self.streams {
            if !snames.insert(s.name.as_str()) {
                return Err(GraphError::DuplicateStream(s.name.clone()));
            }
            for endpoint in [&s.from, &s.to] {
                if !names.contains(endpoint.as_str()) {
                    return Err(GraphError::UnknownFilter {
                        stream: s.name.clone(),
                        filter: endpoint.clone(),
                    });
                }
            }
            if s.capacity == 0 {
                return Err(GraphError::ZeroCapacity(s.name.clone()));
            }
            if s.from == s.to {
                return Err(GraphError::SelfLoop(s.name.clone()));
            }
        }
        // Kahn's algorithm for cycle detection + topological order.
        let idx: HashMap<&str, usize> = self
            .filters
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        let mut indeg = vec![0usize; self.filters.len()];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.filters.len()];
        for s in &self.streams {
            let (a, b) = (idx[s.from.as_str()], idx[s.to.as_str()]);
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut queue: VecDeque<usize> =
            (0..self.filters.len()).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(self.filters.len());
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &j in &adj[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        if order.len() != self.filters.len() {
            return Err(GraphError::Cycle);
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> GraphSpec {
        GraphSpec::new()
            .filter("src", 2)
            .filter("mid", 3)
            .filter("sink", 1)
            .stream("a", "src", "mid", SchedulePolicy::DemandDriven)
            .stream("b", "mid", "sink", SchedulePolicy::RoundRobin)
    }

    #[test]
    fn valid_pipeline_topo_order() {
        let g = pipeline();
        let order = g.validate().unwrap();
        let pos = |n: &str| order.iter().position(|&i| g.filters[i].name == n).unwrap();
        assert!(pos("src") < pos("mid"));
        assert!(pos("mid") < pos("sink"));
    }

    #[test]
    fn ports_follow_declaration_order() {
        let g = GraphSpec::new()
            .filter("a", 1)
            .filter("b", 1)
            .filter("c", 1)
            .stream("s1", "a", "c", SchedulePolicy::RoundRobin)
            .stream("s2", "b", "c", SchedulePolicy::RoundRobin);
        assert_eq!(g.inputs_of("c"), vec![0, 1]);
        assert_eq!((g.input_port_of(0), g.input_port_of(1)), (0, 1));
        assert_eq!(g.outputs_of("a"), vec![0]);
        assert!(g.inputs_of("a").is_empty());
    }

    #[test]
    fn cycle_detected() {
        let g = GraphSpec::new()
            .filter("a", 1)
            .filter("b", 1)
            .stream("f", "a", "b", SchedulePolicy::RoundRobin)
            .stream("r", "b", "a", SchedulePolicy::RoundRobin);
        assert_eq!(g.validate(), Err(GraphError::Cycle));
    }

    #[test]
    fn self_loop_detected() {
        let g = GraphSpec::new()
            .filter("a", 1)
            .stream("l", "a", "a", SchedulePolicy::RoundRobin);
        assert!(matches!(g.validate(), Err(GraphError::SelfLoop(_))));
    }

    #[test]
    fn unknown_endpoint_detected() {
        let g =
            GraphSpec::new()
                .filter("a", 1)
                .stream("s", "a", "ghost", SchedulePolicy::RoundRobin);
        assert!(matches!(
            g.validate(),
            Err(GraphError::UnknownFilter { .. })
        ));
    }

    #[test]
    fn duplicate_names_detected() {
        let g = GraphSpec::new().filter("a", 1).filter("a", 1);
        assert!(matches!(g.validate(), Err(GraphError::DuplicateFilter(_))));
        let g2 = pipeline().stream("a", "src", "sink", SchedulePolicy::RoundRobin);
        assert!(matches!(g2.validate(), Err(GraphError::DuplicateStream(_))));
    }

    #[test]
    fn zero_copies_and_capacity_detected() {
        let g = GraphSpec::new().filter("a", 0);
        assert!(matches!(g.validate(), Err(GraphError::ZeroCopies(_))));
        let g2 = GraphSpec::new()
            .filter("a", 1)
            .filter("b", 1)
            .stream_with_capacity("s", "a", "b", SchedulePolicy::RoundRobin, 0);
        assert!(matches!(g2.validate(), Err(GraphError::ZeroCapacity(_))));
    }

    #[test]
    fn placement_length_checked() {
        let mut g = GraphSpec::new().filter_placed("a", vec![0, 1]);
        assert_eq!(g.filters[0].copies, 2);
        g.filters[0].copies = 3;
        assert!(matches!(g.validate(), Err(GraphError::BadPlacement(_))));
    }

    #[test]
    fn json_roundtrip() {
        let g = pipeline();
        let s = serde_json::to_string(&g).unwrap();
        let back: GraphSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(g, back);
        // A policy name this crate does not route is refused by name.
        let retired = "Broadcast";
        let s = s.replacen("RoundRobin", retired, 1);
        let e = serde_json::from_str::<GraphSpec>(&s).unwrap_err();
        assert!(e.to_string().contains("unknown variant"), "{e}");
        assert!(e.to_string().contains(retired), "{e}");
    }
}
