//! Dynamic maintenance of the knowledge graph under churn.
//!
//! When an entity joins a dynamic system it learns a few neighbors — how it
//! picks them is the [`AttachRule`]. When an entity leaves, its neighbors
//! lose an edge and the overlay may need repair — the [`RepairRule`].
//! Together they determine whether the geography-dimension guarantees
//! (connectivity, bounded diameter) actually *hold* along a run, which is
//! what separates the solvable dynamic classes from the unsolvable ones.

use std::fmt;

use dds_core::process::ProcessId;
use dds_core::rng::Rng;

use crate::graph::Graph;

/// How a joining process selects its initial neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachRule {
    /// Connect to `k` members chosen uniformly at random (or all members if
    /// fewer than `k` are present).
    RandomK(usize),
    /// Connect to the most recently joined member only, growing a line —
    /// the adversarial rule that makes the diameter unbounded (class C4).
    Chain,
    /// Connect to every current member (maintains complete knowledge).
    All,
}

impl AttachRule {
    /// Applies the rule: inserts `joiner` into `graph` and wires its initial
    /// edges. Returns the chosen neighbors in identity order.
    ///
    /// The first process to join any overlay necessarily gets no neighbors.
    pub fn attach(&self, graph: &mut Graph, joiner: ProcessId, rng: &mut Rng) -> Vec<ProcessId> {
        let members = graph.members();
        let chosen: Vec<ProcessId> = match self {
            AttachRule::RandomK(k) => {
                // Partial Fisher–Yates over the member list without
                // copying it: O(k²), not O(members). Step `i` swaps
                // positions `i` and `j ≥ i` and never looks below `i`
                // again, so only what landed on `j` is remembered.
                let take = (*k).min(members.len());
                let mut moved: Vec<(usize, ProcessId)> = Vec::with_capacity(take);
                let mut picks = Vec::with_capacity(take);
                for i in 0..take {
                    let j = i + rng.index(members.len() - i);
                    let at = |pos: usize| {
                        let latest = moved.iter().rev().find(|&&(p, _)| p == pos);
                        latest.map_or(members[pos], |&(_, node)| node)
                    };
                    let (at_i, at_j) = (at(i), at(j));
                    picks.push(at_j);
                    moved.push((j, at_i));
                }
                picks.sort_unstable();
                picks
            }
            // "Most recently joined" = largest identity, since the
            // identity source is monotone.
            AttachRule::Chain => members.last().copied().into_iter().collect(),
            AttachRule::All => members.to_vec(),
        };
        graph.add_node(joiner);
        for &n in &chosen {
            graph.add_edge(joiner, n);
        }
        chosen
    }
}

impl fmt::Display for AttachRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachRule::RandomK(k) => write!(f, "attach to {k} random members"),
            AttachRule::Chain => write!(f, "attach to newest member (chain)"),
            AttachRule::All => write!(f, "attach to all members"),
        }
    }
}

/// How the overlay reacts when a member departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairRule {
    /// Do nothing: the neighbors simply lose an edge. Connectivity may
    /// break — this is what the partitionable class C7 looks like in
    /// practice.
    None,
    /// Bridge the hole: the departed member's neighbors are pairwise
    /// connected in a cycle, preserving connectivity through the gap.
    BridgeNeighbors,
}

/// What a departure did to the overlay (see [`RepairRule::detach`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Detached {
    /// The leaver's former neighbors, in identity order.
    pub neighbors: Vec<ProcessId>,
    /// The edges the repair created, as `(low, high)` pairs in identity
    /// order.
    pub bridges: Vec<(ProcessId, ProcessId)>,
}

impl RepairRule {
    /// Applies the rule: removes `leaver` from `graph` and optionally
    /// repairs around the hole.
    pub fn detach(&self, graph: &mut Graph, leaver: ProcessId) -> Detached {
        let neighbors = graph.remove_node(leaver);
        let mut bridges = Vec::new();
        if let RepairRule::BridgeNeighbors = self {
            let ring = &neighbors;
            if ring.len() >= 2 {
                for i in 0..ring.len() {
                    let a = ring[i];
                    let b = ring[(i + 1) % ring.len()];
                    if graph.add_edge(a, b) {
                        bridges.push((a.min(b), a.max(b)));
                    }
                }
                bridges.sort_unstable();
            }
        }
        Detached { neighbors, bridges }
    }
}

impl fmt::Display for RepairRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairRule::None => write!(f, "no repair"),
            RepairRule::BridgeNeighbors => write!(f, "bridge neighbors on departure"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::is_connected;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    #[test]
    fn first_joiner_has_no_neighbors() {
        let mut g = Graph::new();
        let mut rng = Rng::seeded(0);
        let chosen = AttachRule::RandomK(3).attach(&mut g, pid(0), &mut rng);
        assert!(chosen.is_empty());
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn random_k_attaches_min_of_k_and_members() {
        let mut g = Graph::new();
        let mut rng = Rng::seeded(1);
        for i in 0..5 {
            AttachRule::RandomK(2).attach(&mut g, pid(i), &mut rng);
        }
        // Sixth joiner gets exactly 2 neighbors.
        let chosen = AttachRule::RandomK(2).attach(&mut g, pid(5), &mut rng);
        assert_eq!(chosen.len(), 2);
        // Second joiner got 1 (only 1 member existed).
        assert!(g.degree(pid(5)) >= Some(2));
    }

    #[test]
    fn random_k_keeps_overlay_connected() {
        let mut g = Graph::new();
        let mut rng = Rng::seeded(2);
        for i in 0..50 {
            AttachRule::RandomK(3).attach(&mut g, pid(i), &mut rng);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn chain_builds_a_line() {
        let mut g = Graph::new();
        let mut rng = Rng::seeded(3);
        for i in 0..10 {
            AttachRule::Chain.attach(&mut g, pid(i), &mut rng);
        }
        // A line: two endpoints of degree 1, the rest degree 2.
        let degrees: Vec<usize> = g.nodes().map(|n| g.degree(n).unwrap()).collect();
        assert_eq!(degrees.iter().filter(|&&d| d == 1).count(), 2);
        assert_eq!(degrees.iter().filter(|&&d| d == 2).count(), 8);
        assert_eq!(crate::algo::diameter(&g), Some(9));
    }

    #[test]
    fn attach_all_maintains_complete_graph() {
        let mut g = Graph::new();
        let mut rng = Rng::seeded(4);
        for i in 0..6 {
            AttachRule::All.attach(&mut g, pid(i), &mut rng);
        }
        assert_eq!(g.edge_count(), 15);
        assert_eq!(crate::algo::diameter(&g), Some(1));
    }

    #[test]
    fn no_repair_can_disconnect() {
        // Star around p0: removing the hub shatters the graph.
        let mut g = Graph::new();
        g.add_node(pid(0));
        for i in 1..5 {
            g.add_node(pid(i));
            g.add_edge(pid(0), pid(i));
        }
        RepairRule::None.detach(&mut g, pid(0));
        assert!(!is_connected(&g));
    }

    #[test]
    fn bridging_preserves_connectivity() {
        let mut g = Graph::new();
        g.add_node(pid(0));
        for i in 1..5 {
            g.add_node(pid(i));
            g.add_edge(pid(0), pid(i));
        }
        let detached = RepairRule::BridgeNeighbors.detach(&mut g, pid(0));
        assert_eq!(detached.neighbors.len(), 4);
        // A star has no edge among its leaves: the whole ring is new.
        assert_eq!(detached.bridges.len(), 4);
        assert!(detached.bridges.windows(2).all(|w| w[0] < w[1]));
        assert!(is_connected(&g));
    }

    #[test]
    fn bridging_a_leaf_is_harmless() {
        let mut g = crate::generate::path(3);
        RepairRule::BridgeNeighbors.detach(&mut g, pid(2));
        assert!(is_connected(&g));
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn detach_absent_node_is_noop() {
        let mut g = crate::generate::ring(4);
        let detached = RepairRule::BridgeNeighbors.detach(&mut g, pid(99));
        assert_eq!(detached, Detached::default());
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn display_texts() {
        assert!(AttachRule::RandomK(3).to_string().contains("3"));
        assert!(RepairRule::BridgeNeighbors.to_string().contains("bridge"));
    }
}
