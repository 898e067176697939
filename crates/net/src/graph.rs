//! The knowledge graph: who knows whom.
//!
//! In the paper's geography dimension, each entity knows a few others — its
//! *neighbors*. [`Graph`] is the undirected graph of that relation over
//! [`ProcessId`]s. It is a mutable structure: churn adds and removes nodes
//! while queries are in flight, which is precisely the difficulty the
//! one-time query has to survive.
//!
//! Identities are handed out by a monotone counter and never reused (the
//! paper's infinite-arrival model), so the raw id space of a run is dense
//! and the adjacency lists sit in a table indexed by
//! [`ProcessId::as_raw`] (DESIGN.md §9): `neighbors`, `contains` and
//! `degree` are one bounds-checked index — every actor callback reads a
//! neighbor list, the simulator's hottest path — and `has_edge`,
//! `add_edge` and `remove_edge` are one binary search over a sorted,
//! degree-sized slice. A slot is vacant before its node joins and after
//! it leaves; the table grows to the largest identity ever added, so a
//! graph over identities far from zero pays for the gap.
//!
//! The present nodes are also kept as one sorted list, so iteration is in
//! identity order — a requirement for reproducible simulation (DESIGN.md
//! §7) — costs O(nodes) however many identities have come and gone, and
//! [`Graph::members`] hands the membership out as a slice. A join under
//! the monotone counter appends to that list; a departure is a binary
//! search and a shift. The edge count is cached so `edge_count` is O(1).

use std::collections::BTreeSet;
use std::fmt;

use dds_core::process::ProcessId;

/// An undirected graph over process identities.
///
/// Two graphs are equal when they have the same nodes and edges, however
/// many vacant slots either table holds.
///
/// # Examples
///
/// ```
/// use dds_core::process::ProcessId;
/// use dds_net::graph::Graph;
///
/// let mut g = Graph::new();
/// let (a, b) = (ProcessId::from_raw(0), ProcessId::from_raw(1));
/// g.add_node(a);
/// g.add_node(b);
/// g.add_edge(a, b);
/// assert_eq!(g.degree(a), Some(1));
/// assert!(g.has_edge(a, b));
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    /// `adj[raw]` is the neighbor list, sorted by identity, of the node
    /// whose raw identity is `raw`; `None` while no such node is present.
    adj: Vec<Option<Vec<ProcessId>>>,
    /// The present nodes in identity order.
    members: Vec<ProcessId>,
    /// Cached number of undirected edges.
    edges: usize,
}

#[inline]
fn idx(node: ProcessId) -> usize {
    node.as_raw() as usize
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    #[inline]
    fn list_mut(&mut self, node: ProcessId) -> Option<&mut Vec<ProcessId>> {
        self.adj.get_mut(idx(node))?.as_mut()
    }

    /// Adds a node with no neighbors. Idempotent.
    pub fn add_node(&mut self, node: ProcessId) {
        let i = idx(node);
        if i >= self.adj.len() {
            self.adj.resize_with(i + 1, || None);
        }
        if self.adj[i].is_some() {
            return;
        }
        self.adj[i] = Some(Vec::new());
        // Identities grow along a run, so a joiner almost always goes last.
        if self.members.last().is_some_and(|&last| last > node) {
            let at = self
                .members
                .binary_search(&node)
                .expect_err("slot was vacant");
            self.members.insert(at, node);
        } else {
            self.members.push(node);
        }
    }

    /// Removes a node and every edge incident to it.
    ///
    /// Returns the former neighbors in identity order (useful for repair
    /// rules). Returns an empty list when the node was absent.
    pub fn remove_node(&mut self, node: ProcessId) -> Vec<ProcessId> {
        let Some(neighbors) = self.adj.get_mut(idx(node)).and_then(Option::take) else {
            return Vec::new();
        };
        for &n in &neighbors {
            let list = self.list_mut(n).expect("edges are symmetric");
            let i = list.binary_search(&node).expect("edges are symmetric");
            list.remove(i);
        }
        let at = self
            .members
            .binary_search(&node)
            .expect("present nodes are listed");
        self.members.remove(at);
        self.edges -= neighbors.len();
        neighbors
    }

    /// Adds the undirected edge `{a, b}`. Returns `true` when the edge was
    /// absent before.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is absent or if `a == b` (self-loops make
    /// no sense for a knowledge relation).
    pub fn add_edge(&mut self, a: ProcessId, b: ProcessId) -> bool {
        assert_ne!(a, b, "self-loop in knowledge graph");
        assert!(self.contains(a), "edge endpoint {a} absent");
        assert!(self.contains(b), "edge endpoint {b} absent");
        let list_a = self.list_mut(a).expect("checked above");
        let Err(i) = list_a.binary_search(&b) else {
            return false;
        };
        list_a.insert(i, b);
        let list_b = self.list_mut(b).expect("checked above");
        let j = list_b.binary_search(&a).expect_err("edges are symmetric");
        list_b.insert(j, a);
        self.edges += 1;
        true
    }

    /// Removes the undirected edge `{a, b}` if present.
    pub fn remove_edge(&mut self, a: ProcessId, b: ProcessId) {
        let Some(list_a) = self.list_mut(a) else {
            return;
        };
        let Ok(i) = list_a.binary_search(&b) else {
            return;
        };
        list_a.remove(i);
        let list_b = self.list_mut(b).expect("edges are symmetric");
        let j = list_b.binary_search(&a).expect("edges are symmetric");
        list_b.remove(j);
        self.edges -= 1;
    }

    /// `true` when the node is present.
    #[inline]
    pub fn contains(&self, node: ProcessId) -> bool {
        self.neighbors(node).is_some()
    }

    /// `true` when the edge `{a, b}` is present.
    pub fn has_edge(&self, a: ProcessId, b: ProcessId) -> bool {
        self.neighbors(a)
            .is_some_and(|list| list.binary_search(&b).is_ok())
    }

    /// The neighbors of a node in identity order, or `None` when the node
    /// is absent.
    #[inline]
    pub fn neighbors(&self, node: ProcessId) -> Option<&[ProcessId]> {
        self.adj.get(idx(node))?.as_deref()
    }

    /// The degree of a node, or `None` when the node is absent.
    pub fn degree(&self, node: ProcessId) -> Option<usize> {
        self.neighbors(node).map(<[ProcessId]>::len)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.members.len()
    }

    /// Number of undirected edges (cached, O(1)).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// `true` when the graph has no node.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The nodes in identity order, as a slice.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// Iterates over the nodes in identity order.
    pub fn nodes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.members.iter().copied()
    }

    /// Iterates over the edges as `(low, high)` pairs in identity order.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.members.iter().flat_map(move |&a| {
            let nbrs = self.neighbors(a).expect("listed nodes are present");
            nbrs.iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// The subgraph induced by `keep` (nodes outside `keep` and their edges
    /// are dropped).
    pub fn induced(&self, keep: &BTreeSet<ProcessId>) -> Graph {
        let mut g = Graph::new();
        for &n in keep {
            if self.contains(n) {
                g.add_node(n);
            }
        }
        for (a, b) in self.edges() {
            if keep.contains(&a) && keep.contains(&b) {
                g.add_edge(a, b);
            }
        }
        g
    }
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            adj: self.adj.clone(),
            members: self.members.clone(),
            edges: self.edges,
        }
    }

    /// Overwrites `self` with `source`, keeping the table and every
    /// neighbor list present on both sides in place — what lets a reset
    /// world take its initial graph back without reallocating it.
    fn clone_from(&mut self, source: &Self) {
        self.adj.clone_from(&source.adj);
        self.members.clone_from(&source.members);
        self.edges = source.edges;
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.edges == other.edges
            && self.members == other.members
            && self
                .members
                .iter()
                .all(|&n| self.neighbors(n) == other.neighbors(n))
    }
}

impl Eq for Graph {}

impl FromIterator<(ProcessId, ProcessId)> for Graph {
    /// Builds a graph from an edge list, creating endpoints as needed.
    fn from_iter<T: IntoIterator<Item = (ProcessId, ProcessId)>>(iter: T) -> Self {
        let mut g = Graph::new();
        for (a, b) in iter {
            g.add_node(a);
            g.add_node(b);
            g.add_edge(a, b);
        }
        g
    }
}

impl Extend<(ProcessId, ProcessId)> for Graph {
    fn extend<T: IntoIterator<Item = (ProcessId, ProcessId)>>(&mut self, iter: T) {
        for (a, b) in iter {
            self.add_node(a);
            self.add_node(b);
            self.add_edge(a, b);
        }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph with {} nodes, {} edges",
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn triangle() -> Graph {
        [(pid(0), pid(1)), (pid(1), pid(2)), (pid(0), pid(2))]
            .into_iter()
            .collect()
    }

    #[test]
    fn build_and_count() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(pid(0)), Some(2));
        assert_eq!(g.degree(pid(9)), None);
    }

    #[test]
    fn add_node_is_idempotent() {
        let mut g = Graph::new();
        g.add_node(pid(0));
        g.add_node(pid(0));
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn edges_are_undirected() {
        let g = triangle();
        assert!(g.has_edge(pid(0), pid(1)));
        assert!(g.has_edge(pid(1), pid(0)));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b) in edges {
            assert!(a < b, "edges iterate as (low, high)");
        }
    }

    #[test]
    fn remove_node_returns_neighbors_and_cleans_edges() {
        let mut g = triangle();
        let nbrs = g.remove_node(pid(1));
        assert_eq!(nbrs, vec![pid(0), pid(2)]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(pid(0), pid(1)));
        // Removing an absent node is a no-op.
        assert!(g.remove_node(pid(42)).is_empty());
    }

    #[test]
    fn remove_edge() {
        let mut g = triangle();
        g.remove_edge(pid(0), pid(1));
        assert!(!g.has_edge(pid(0), pid(1)));
        assert_eq!(g.edge_count(), 2);
        // Idempotent.
        g.remove_edge(pid(0), pid(1));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = Graph::new();
        g.add_node(pid(0));
        g.add_edge(pid(0), pid(0));
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn edge_to_missing_node_rejected() {
        let mut g = Graph::new();
        g.add_node(pid(0));
        g.add_edge(pid(0), pid(1));
    }

    #[test]
    fn induced_subgraph() {
        let g = triangle();
        let keep = BTreeSet::from([pid(0), pid(1)]);
        let sub = g.induced(&keep);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(pid(0), pid(1)));
    }

    #[test]
    fn extend_with_edges() {
        let mut g = Graph::new();
        g.extend([(pid(5), pid(6))]);
        assert!(g.has_edge(pid(5), pid(6)));
    }

    #[test]
    fn equality_ignores_vacant_slots() {
        // Same nodes and edges, but one table once held p9.
        let mut g = triangle();
        g.add_node(pid(9));
        g.add_edge(pid(9), pid(0));
        g.remove_node(pid(9));
        assert_eq!(g, triangle());
        assert_eq!(g.clone(), triangle());
        g.remove_edge(pid(0), pid(1));
        assert_ne!(g, triangle());
    }

    #[test]
    fn nodes_stay_in_identity_order_whatever_the_insertion_order() {
        let mut g = Graph::new();
        for n in [5, 1, 3, 1, 0] {
            g.add_node(pid(n));
        }
        assert_eq!(g.members(), [pid(0), pid(1), pid(3), pid(5)]);
        g.remove_node(pid(3));
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![pid(0), pid(1), pid(5)]);
        assert!(!g.contains(pid(3)) && !g.contains(pid(4)) && !g.contains(pid(600)));
    }

    #[test]
    fn clone_from_overwrites_in_place() {
        let mut g = triangle();
        g.remove_node(pid(0));
        g.add_node(pid(7));
        g.clone_from(&triangle());
        assert_eq!(g, triangle());
        assert!(!g.contains(pid(7)));
        assert!(!g.add_edge(pid(0), pid(1)), "the copied edge is there");
    }

    #[test]
    fn display_summarizes() {
        assert_eq!(triangle().to_string(), "graph with 3 nodes, 3 edges");
    }
}
