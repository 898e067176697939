//! Property-based tests for the knowledge-graph substrate: structural
//! invariants that must hold on every graph, checked on random
//! Erdős–Rényi instances and random mutation sequences.

use std::collections::BTreeSet;

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_net::algo::{
    articulation_points, bfs_distances, components, diameter, diameter_double_sweep, is_connected,
    shortest_path,
};
use dds_net::dynamic::{AttachRule, RepairRule};
use dds_net::generate;
use dds_net::graph::Graph;
use proptest::prelude::*;

fn pid(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

/// A random ER graph described by (n, edge probability numerator, seed).
fn er_strategy() -> impl Strategy<Value = Graph> {
    (2usize..24, 0u64..100, 0u64..10_000).prop_map(|(n, p, seed)| {
        let mut rng = Rng::seeded(seed);
        generate::erdos_renyi(n, p as f64 / 100.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BFS distance is symmetric on undirected graphs.
    #[test]
    fn bfs_is_symmetric(g in er_strategy()) {
        let nodes: Vec<ProcessId> = g.nodes().collect();
        for &u in nodes.iter().take(4) {
            let du = bfs_distances(&g, u);
            for (&v, &d) in du.iter().take(6) {
                let dv = bfs_distances(&g, v);
                prop_assert_eq!(dv.get(&u), Some(&d), "d({}, {}) asymmetric", u, v);
            }
        }
    }

    /// Components partition the node set, and each is internally connected.
    #[test]
    fn components_partition_nodes(g in er_strategy()) {
        let comps = components(&g);
        let mut seen = BTreeSet::new();
        for comp in &comps {
            for &n in comp {
                prop_assert!(seen.insert(n), "{n} in two components");
            }
            let sub = g.induced(comp);
            prop_assert!(is_connected(&sub));
        }
        prop_assert_eq!(seen.len(), g.node_count());
    }

    /// The double-sweep heuristic never exceeds the exact diameter and is
    /// at least half of it.
    #[test]
    fn double_sweep_bounds_diameter(g in er_strategy()) {
        if let Some(exact) = diameter(&g) {
            let sweep = diameter_double_sweep(&g).expect("connected");
            prop_assert!(sweep <= exact);
            prop_assert!(2 * sweep >= exact, "sweep {sweep} < half of {exact}");
        }
    }

    /// Shortest paths have consistent length with BFS and valid edges.
    #[test]
    fn shortest_paths_are_paths(g in er_strategy()) {
        let nodes: Vec<ProcessId> = g.nodes().collect();
        if nodes.len() < 2 { return Ok(()); }
        let (u, v) = (nodes[0], nodes[nodes.len() - 1]);
        match shortest_path(&g, u, v) {
            Some(path) => {
                prop_assert_eq!(path.first(), Some(&u));
                prop_assert_eq!(path.last(), Some(&v));
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]), "non-edge in path");
                }
                let d = bfs_distances(&g, u);
                prop_assert_eq!(path.len() - 1, d[&v], "not shortest");
            }
            None => {
                prop_assert!(!bfs_distances(&g, u).contains_key(&v));
            }
        }
    }

    /// Random-k attachment into a connected graph preserves connectivity.
    #[test]
    fn random_k_attach_preserves_connectivity(
        n in 3usize..16, k in 1usize..4, joins in 1usize..20, seed in 0u64..10_000
    ) {
        let mut g = generate::ring(n);
        let mut rng = Rng::seeded(seed);
        for j in 0..joins {
            AttachRule::RandomK(k).attach(&mut g, pid((n + j) as u64), &mut rng);
        }
        prop_assert!(is_connected(&g));
        prop_assert_eq!(g.node_count(), n + joins);
    }

    /// Bridged departures from a connected graph keep it connected.
    #[test]
    fn bridged_departures_preserve_connectivity(
        n in 4usize..16, leaves in 1usize..3, seed in 0u64..10_000
    ) {
        let mut g = generate::ring(n);
        let mut rng = Rng::seeded(seed);
        for _ in 0..leaves.min(n - 2) {
            let nodes: Vec<ProcessId> = g.nodes().collect();
            let &victim = rng.choose(&nodes).expect("nonempty");
            RepairRule::BridgeNeighbors.detach(&mut g, victim);
        }
        prop_assert!(is_connected(&g), "bridging lost connectivity");
    }

    /// Edge count equals the handshake sum of degrees.
    #[test]
    fn handshake_lemma(g in er_strategy()) {
        let degree_sum: usize = g.nodes().map(|n| g.degree(n).unwrap()).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// Articulation points characterize disconnection-by-removal exactly
    /// (on connected graphs): removing a cut vertex disconnects, removing
    /// any other vertex does not.
    #[test]
    fn articulation_points_are_exact(g in er_strategy()) {
        if !is_connected(&g) || g.node_count() < 3 {
            return Ok(());
        }
        let cut = articulation_points(&g);
        for node in g.nodes() {
            let mut h = g.clone();
            h.remove_node(node);
            prop_assert_eq!(
                !is_connected(&h),
                cut.contains(&node),
                "articulation mismatch at {}", node
            );
        }
    }
}
