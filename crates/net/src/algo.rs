//! Graph algorithms used by the protocols and the experiment harness:
//! breadth-first distances, connectivity, components, diameter and
//! eccentricity. Everything here treats the graph as a snapshot.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dds_core::process::ProcessId;

use crate::graph::Graph;

/// Breadth-first distances (in hops) from `source` to every reachable node.
///
/// Returns an empty map when `source` is not in the graph; otherwise the map
/// contains `source` with distance 0.
pub fn bfs_distances(graph: &Graph, source: ProcessId) -> BTreeMap<ProcessId, usize> {
    let mut dist = BTreeMap::new();
    if !graph.contains(source) {
        return dist;
    }
    dist.insert(source, 0);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        let Some(nbrs) = graph.neighbors(u) else {
            continue;
        };
        for &v in nbrs {
            if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The connected component containing `source` (empty when absent).
pub fn component_of(graph: &Graph, source: ProcessId) -> BTreeSet<ProcessId> {
    bfs_distances(graph, source).into_keys().collect()
}

/// All connected components, each sorted, ordered by their smallest member.
pub fn components(graph: &Graph) -> Vec<BTreeSet<ProcessId>> {
    let mut seen: BTreeSet<ProcessId> = BTreeSet::new();
    let mut comps = Vec::new();
    for node in graph.nodes() {
        if seen.contains(&node) {
            continue;
        }
        let comp = component_of(graph, node);
        seen.extend(comp.iter().copied());
        comps.push(comp);
    }
    comps
}

/// `true` when the graph is connected (the empty graph counts as
/// connected).
pub fn is_connected(graph: &Graph) -> bool {
    match graph.nodes().next() {
        None => true,
        Some(first) => component_of(graph, first).len() == graph.node_count(),
    }
}

/// The eccentricity of a node: its greatest BFS distance to any node of its
/// component. `None` when the node is absent.
pub fn eccentricity(graph: &Graph, node: ProcessId) -> Option<usize> {
    if !graph.contains(node) {
        return None;
    }
    Some(bfs_distances(graph, node).into_values().max().unwrap_or(0))
}

/// The exact diameter: the greatest eccentricity over all nodes.
///
/// Returns `None` for an empty or disconnected graph (infinite diameter).
/// Cost is `O(V · (V + E))`; fine for experiment-sized graphs.
pub fn diameter(graph: &Graph) -> Option<usize> {
    if graph.is_empty() || !is_connected(graph) {
        return None;
    }
    graph
        .nodes()
        .map(|n| eccentricity(graph, n).expect("node present"))
        .max()
}

/// A cheap lower bound on the diameter via the double-sweep heuristic:
/// BFS from an arbitrary node, then BFS from the farthest node found. Exact
/// on trees; a lower bound in general. `None` on empty/disconnected graphs.
pub fn diameter_double_sweep(graph: &Graph) -> Option<usize> {
    let first = graph.nodes().next()?;
    if !is_connected(graph) {
        return None;
    }
    let d1 = bfs_distances(graph, first);
    let (&far, _) = d1.iter().max_by_key(|(_, &d)| d)?;
    let d2 = bfs_distances(graph, far);
    d2.into_values().max()
}

/// Shortest path from `from` to `to` as a node sequence (inclusive), or
/// `None` when unreachable.
pub fn shortest_path(graph: &Graph, from: ProcessId, to: ProcessId) -> Option<Vec<ProcessId>> {
    if !graph.contains(from) || !graph.contains(to) {
        return None;
    }
    let mut prev: BTreeMap<ProcessId, ProcessId> = BTreeMap::new();
    let mut seen = BTreeSet::from([from]);
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        if u == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        let Some(nbrs) = graph.neighbors(u) else {
            continue;
        };
        for &v in nbrs {
            if seen.insert(v) {
                prev.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    /// 0 - 1 - 2 - 3 (a path), plus isolated 9.
    fn path_plus_isolated() -> Graph {
        let mut g: Graph = [(pid(0), pid(1)), (pid(1), pid(2)), (pid(2), pid(3))]
            .into_iter()
            .collect();
        g.add_node(pid(9));
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_plus_isolated();
        let d = bfs_distances(&g, pid(0));
        assert_eq!(d[&pid(0)], 0);
        assert_eq!(d[&pid(3)], 3);
        assert!(!d.contains_key(&pid(9)));
        assert!(bfs_distances(&g, pid(42)).is_empty());
    }

    #[test]
    fn components_found() {
        let g = path_plus_isolated();
        let comps = components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 4);
        assert_eq!(comps[1], BTreeSet::from([pid(9)]));
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new()));
        assert_eq!(diameter(&Graph::new()), None);
    }

    #[test]
    fn single_node_diameter_zero() {
        let mut g = Graph::new();
        g.add_node(pid(0));
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(0));
        assert_eq!(eccentricity(&g, pid(0)), Some(0));
    }

    #[test]
    fn path_diameter() {
        let g: Graph = [(pid(0), pid(1)), (pid(1), pid(2)), (pid(2), pid(3))]
            .into_iter()
            .collect();
        assert_eq!(diameter(&g), Some(3));
        // Double sweep is exact on trees.
        assert_eq!(diameter_double_sweep(&g), Some(3));
    }

    #[test]
    fn disconnected_diameter_is_none() {
        let g = path_plus_isolated();
        assert_eq!(diameter(&g), None);
        assert_eq!(diameter_double_sweep(&g), None);
    }

    #[test]
    fn double_sweep_lower_bounds_exact() {
        // Cycle of 6: diameter 3.
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_node(pid(i));
        }
        for i in 0..6 {
            g.add_edge(pid(i), pid((i + 1) % 6));
        }
        let exact = diameter(&g).unwrap();
        let sweep = diameter_double_sweep(&g).unwrap();
        assert_eq!(exact, 3);
        assert!(sweep <= exact);
        assert!(sweep >= 2);
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = path_plus_isolated();
        let p = shortest_path(&g, pid(0), pid(3)).unwrap();
        assert_eq!(p, vec![pid(0), pid(1), pid(2), pid(3)]);
        assert_eq!(shortest_path(&g, pid(0), pid(9)), None);
        assert_eq!(shortest_path(&g, pid(0), pid(0)), Some(vec![pid(0)]));
        assert_eq!(shortest_path(&g, pid(0), pid(77)), None);
    }

    #[test]
    fn eccentricity_of_absent_node() {
        assert_eq!(eccentricity(&Graph::new(), pid(0)), None);
    }
}

/// Articulation points (cut vertices): nodes whose removal disconnects
/// their component. These are exactly the processes whose *departure*
/// partitions the stable part when the overlay has no repair rule — the
/// structural face of the connectivity dimension.
///
/// Iterative Tarjan low-link computation, `O(V + E)`.
pub fn articulation_points(graph: &Graph) -> BTreeSet<ProcessId> {
    use std::collections::BTreeMap;

    let mut disc: BTreeMap<ProcessId, usize> = BTreeMap::new();
    let mut low: BTreeMap<ProcessId, usize> = BTreeMap::new();
    let mut cut: BTreeSet<ProcessId> = BTreeSet::new();
    let mut counter = 0usize;

    for root in graph.nodes() {
        if disc.contains_key(&root) {
            continue;
        }
        // Iterative DFS frame: (node, parent, neighbor iterator index,
        // number of DFS children when node == root).
        let mut stack: Vec<(ProcessId, Option<ProcessId>, usize)> = vec![(root, None, 0)];
        let mut root_children = 0usize;
        disc.insert(root, counter);
        low.insert(root, counter);
        counter += 1;
        while let Some(&mut (u, parent, ref mut idx)) = stack.last_mut() {
            let nbrs: Vec<ProcessId> = graph.neighbors(u).expect("node on stack exists").to_vec();
            if *idx < nbrs.len() {
                let v = nbrs[*idx];
                *idx += 1;
                if Some(v) == parent {
                    continue;
                }
                match disc.get(&v) {
                    Some(&dv) => {
                        let lu = low[&u].min(dv);
                        low.insert(u, lu);
                    }
                    None => {
                        disc.insert(v, counter);
                        low.insert(v, counter);
                        counter += 1;
                        if u == root {
                            root_children += 1;
                        }
                        stack.push((v, Some(u), 0));
                    }
                }
            } else {
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    let lp = low[&p].min(low[&u]);
                    low.insert(p, lp);
                    if p != root && low[&u] >= disc[&p] {
                        cut.insert(p);
                    }
                }
            }
        }
        if root_children >= 2 {
            cut.insert(root);
        }
    }
    cut
}

#[cfg(test)]
mod articulation_tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    #[test]
    fn path_interior_nodes_are_cut_vertices() {
        let g = crate::generate::path(5);
        let cut = articulation_points(&g);
        assert_eq!(
            cut,
            BTreeSet::from([pid(1), pid(2), pid(3)]),
            "every interior node of a path is an articulation point"
        );
    }

    #[test]
    fn cycles_have_no_cut_vertices() {
        assert!(articulation_points(&crate::generate::ring(8)).is_empty());
        assert!(articulation_points(&crate::generate::complete(6)).is_empty());
        assert!(articulation_points(&crate::generate::torus(3, 4)).is_empty());
    }

    #[test]
    fn star_hub_is_the_only_cut_vertex() {
        let mut g = Graph::new();
        g.add_node(pid(0));
        for i in 1..6 {
            g.add_node(pid(i));
            g.add_edge(pid(0), pid(i));
        }
        assert_eq!(articulation_points(&g), BTreeSet::from([pid(0)]));
    }

    #[test]
    fn two_triangles_sharing_a_node() {
        // 0-1-2-0 and 2-3-4-2: node 2 is the bridge.
        let g: Graph = [
            (pid(0), pid(1)),
            (pid(1), pid(2)),
            (pid(0), pid(2)),
            (pid(2), pid(3)),
            (pid(3), pid(4)),
            (pid(2), pid(4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(articulation_points(&g), BTreeSet::from([pid(2)]));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        assert!(articulation_points(&Graph::new()).is_empty());
        let mut g = Graph::new();
        g.add_node(pid(0));
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn removal_of_cut_vertex_disconnects() {
        let g = crate::generate::path(6);
        for node in articulation_points(&g) {
            let mut h = g.clone();
            h.remove_node(node);
            assert!(!is_connected(&h), "removing {node} should disconnect");
        }
    }

    #[test]
    fn removal_of_non_cut_vertex_keeps_connectivity() {
        let g = crate::generate::torus(3, 3);
        let cut = articulation_points(&g);
        for node in g.nodes() {
            if !cut.contains(&node) {
                let mut h = g.clone();
                h.remove_node(node);
                assert!(is_connected(&h), "removing non-cut {node} disconnected");
            }
        }
    }
}
