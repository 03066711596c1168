//! Undirected multigraph with edge-list storage.
//!
//! The paper treats connections as undirected ("for the sake of the
//! model we will consider this undirected", Section III) and notes the
//! directed refinement has only a small impact on degree distributions.
//! Edges are stored as an arbitrary-order list of endpoint pairs;
//! parallel edges and self-loops are representable (growth processes
//! can produce them) and both endpoints of a self-loop count toward its
//! node's degree, per the usual convention.

use crate::NodeId;
use palu_stats::histogram::DegreeHistogram;

/// An undirected multigraph over nodes `0..n_nodes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    n_nodes: NodeId,
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Create a graph with `n_nodes` isolated nodes.
    pub fn with_nodes(n_nodes: NodeId) -> Self {
        Graph {
            n_nodes,
            edges: Vec::new(),
        }
    }

    /// Create with node count and pre-reserved edge capacity.
    pub fn with_capacity(n_nodes: NodeId, edges: usize) -> Self {
        Graph {
            n_nodes,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Reserve room for exactly `additional` more edges.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.edges.reserve_exact(additional);
    }

    /// Number of nodes (including isolated ones).
    pub fn n_nodes(&self) -> NodeId {
        self.n_nodes
    }

    /// Number of edges (counting multiplicities).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.n_nodes;
        self.n_nodes += 1;
        id
    }

    /// Append `k` new isolated nodes, returning the id of the first.
    pub fn add_nodes(&mut self, k: NodeId) -> NodeId {
        let first = self.n_nodes;
        self.n_nodes += k;
        first
    }

    /// Add an undirected edge. Both endpoints must already exist.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u < self.n_nodes && v < self.n_nodes,
            "edge ({u},{v}) references a node beyond {}",
            self.n_nodes
        );
        self.edges.push((u, v));
    }

    /// The edge list, in insertion order.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Per-node degrees (self-loops count twice).
    pub fn degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.n_nodes as usize];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg
    }

    /// Degree of one node (O(|E|); use [`Graph::degrees`] for bulk).
    pub fn degree(&self, node: NodeId) -> u64 {
        self.edges
            .iter()
            .map(|&(u, v)| (u == node) as u64 + (v == node) as u64)
            .sum()
    }

    /// Degree histogram over *visible* nodes (degree ≥ 1). Isolated
    /// nodes "cannot be seen by examining traffic between nodes"
    /// (Section V), so they are excluded by default; the census reports
    /// them separately.
    pub fn degree_histogram(&self) -> DegreeHistogram {
        DegreeHistogram::from_degrees(self.degrees().into_iter().filter(|&d| d > 0))
    }

    /// Degree histogram including degree-0 entries for isolated nodes.
    pub fn degree_histogram_with_isolated(&self) -> DegreeHistogram {
        DegreeHistogram::from_degrees(self.degrees())
    }

    /// Number of isolated (degree-0) nodes.
    pub fn isolated_count(&self) -> u64 {
        self.degrees().iter().filter(|&&d| d == 0).count() as u64
    }

    /// The node with the highest degree and that degree — the paper's
    /// supernode. `None` for an edgeless graph.
    pub fn supernode(&self) -> Option<(NodeId, u64)> {
        let degs = self.degrees();
        degs.iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .filter(|&(_, d)| *d > 0)
            .map(|(i, &d)| (i as NodeId, d))
    }

    /// Build a compact adjacency structure for traversals.
    pub fn adjacency(&self) -> Adjacency {
        let n = self.n_nodes as usize;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![0 as NodeId; self.edges.len() * 2];
        let mut next = offsets.clone();
        for &(u, v) in &self.edges {
            neighbors[next[u as usize]] = v;
            next[u as usize] += 1;
            neighbors[next[v as usize]] = u;
            next[v as usize] += 1;
        }
        Adjacency { offsets, neighbors }
    }

    /// Relabel this graph's nodes into a new graph via `offset`:
    /// used when composing subnetworks (core ⊕ leaves ⊕ stars) into a
    /// single underlying network.
    pub fn append_into(&self, target: &mut Graph) -> NodeId {
        let offset = target.add_nodes(self.n_nodes);
        for &(u, v) in &self.edges {
            target.add_edge(u + offset, v + offset);
        }
        offset
    }
}

/// CSR-style adjacency built by [`Graph::adjacency`].
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
}

impl Adjacency {
    /// Neighbors of `node` (with multiplicity; self-loops appear
    /// twice).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[node as usize]..self.offsets[node as usize + 1]]
    }

    /// Degree of `node` (length of its neighbor slice).
    pub fn degree(&self, node: NodeId) -> usize {
        self.offsets[node as usize + 1] - self.offsets[node as usize]
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Graph {
        // 0 - 1 - 2 - 3, plus isolated node 4.
        let mut g = Graph::with_nodes(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn basic_counts() {
        let g = path_graph();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1, 0]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.isolated_count(), 1);
    }

    #[test]
    fn add_nodes_returns_first_id() {
        let mut g = Graph::with_nodes(2);
        let first = g.add_nodes(3);
        assert_eq!(first, 2);
        assert_eq!(g.n_nodes(), 5);
        let single = g.add_node();
        assert_eq!(single, 5);
    }

    #[test]
    #[should_panic(expected = "references a node beyond")]
    fn add_edge_validates_endpoints() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 2);
    }

    #[test]
    fn self_loop_counts_twice() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(0, 0);
        assert_eq!(g.degrees(), vec![2]);
    }

    #[test]
    fn parallel_edges_accumulate_degree() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.degrees(), vec![2, 2]);
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn histograms_exclude_or_include_isolated() {
        let g = path_graph();
        let visible = g.degree_histogram();
        assert_eq!(visible.total(), 4);
        assert_eq!(visible.count(1), 2);
        assert_eq!(visible.count(2), 2);
        let all = g.degree_histogram_with_isolated();
        assert_eq!(all.total(), 5);
        assert_eq!(all.count(0), 1);
    }

    #[test]
    fn supernode_detection() {
        let mut g = Graph::with_nodes(5);
        for v in 1..5 {
            g.add_edge(0, v);
        }
        assert_eq!(g.supernode(), Some((0, 4)));
        assert_eq!(Graph::with_nodes(3).supernode(), None);
    }

    #[test]
    fn adjacency_mirrors_edges() {
        let g = path_graph();
        let adj = g.adjacency();
        assert_eq!(adj.n_nodes(), 5);
        assert_eq!(adj.degree(0), 1);
        assert_eq!(adj.degree(1), 2);
        assert_eq!(adj.degree(4), 0);
        let mut n1: Vec<_> = adj.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2]);
        assert_eq!(adj.neighbors(4), &[] as &[NodeId]);
    }

    #[test]
    fn adjacency_self_loop_appears_twice() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(0, 0);
        let adj = g.adjacency();
        assert_eq!(adj.neighbors(0), &[0, 0]);
    }

    #[test]
    fn append_into_offsets_ids() {
        let mut target = Graph::with_nodes(3);
        target.add_edge(0, 1);
        let sub = path_graph();
        let offset = sub.append_into(&mut target);
        assert_eq!(offset, 3);
        assert_eq!(target.n_nodes(), 8);
        assert_eq!(target.n_edges(), 4);
        // Sub-graph's edge (0,1) became (3,4).
        assert!(target.edges().contains(&(3, 4)));
        // Original edge intact.
        assert!(target.edges().contains(&(0, 1)));
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::default();
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.degrees(), Vec::<u64>::new());
        assert_eq!(g.supernode(), None);
        assert!(g.degree_histogram().is_empty());
        let adj = g.adjacency();
        assert_eq!(adj.n_nodes(), 0);
    }
}
