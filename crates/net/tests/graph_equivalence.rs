//! Differential test: the identity-indexed [`Graph`] against a
//! `BTreeMap` reference model.
//!
//! `Graph` keeps its adjacency lists in a table indexed by raw identity
//! plus a sorted node list; the reference below is the ordered-map
//! representation it replaced, kept here as the oracle. Random mutation
//! sequences — node and edge insertions and removals, attach and detach
//! under every rule — must leave both with the same observable graph:
//! nodes, edges, neighbor lists, degrees, counts, induced subgraphs, and
//! `==` against a graph rebuilt from scratch (whose table holds none of
//! the vacant slots the mutated one has accumulated).

use std::collections::{BTreeMap, BTreeSet};

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_net::dynamic::{AttachRule, RepairRule};
use dds_net::graph::Graph;
use proptest::prelude::*;

fn pid(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

/// The ordered-map graph: sorted adjacency sets under sorted keys.
#[derive(Default)]
struct RefGraph {
    adj: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
}

impl RefGraph {
    fn add_node(&mut self, n: ProcessId) {
        self.adj.entry(n).or_default();
    }

    fn remove_node(&mut self, n: ProcessId) -> Vec<ProcessId> {
        let nbrs = self.adj.remove(&n).unwrap_or_default();
        for m in &nbrs {
            self.adj.get_mut(m).expect("symmetric").remove(&n);
        }
        nbrs.into_iter().collect()
    }

    /// `false` when the edge was already there.
    fn add_edge(&mut self, a: ProcessId, b: ProcessId) -> bool {
        self.adj.get_mut(&b).expect("endpoint present").insert(a);
        self.adj.get_mut(&a).expect("endpoint present").insert(b)
    }

    fn remove_edge(&mut self, a: ProcessId, b: ProcessId) {
        if let Some(set) = self.adj.get_mut(&a) {
            set.remove(&b);
        }
        if let Some(set) = self.adj.get_mut(&b) {
            set.remove(&a);
        }
    }

    fn edges(&self) -> Vec<(ProcessId, ProcessId)> {
        let pairs = self
            .adj
            .iter()
            .flat_map(|(&a, nbrs)| nbrs.iter().map(move |&b| (a, b)));
        pairs.filter(|(a, b)| a < b).collect()
    }

    /// The attach rules as they were written over a copied member list:
    /// `RandomK` shuffles the first `k` positions of the copy in place.
    fn attach(&mut self, rule: AttachRule, joiner: ProcessId, rng: &mut Rng) -> Vec<ProcessId> {
        let members: Vec<ProcessId> = self.adj.keys().copied().collect();
        self.add_node(joiner);
        let mut chosen = match rule {
            AttachRule::RandomK(k) => {
                let mut pool = members;
                let take = k.min(pool.len());
                for i in 0..take {
                    let j = i + rng.index(pool.len() - i);
                    pool.swap(i, j);
                }
                pool.truncate(take);
                pool
            }
            AttachRule::Chain => members.iter().copied().max().into_iter().collect(),
            AttachRule::All => members,
        };
        for &n in &chosen {
            self.add_edge(joiner, n);
        }
        chosen.sort_unstable();
        chosen
    }

    /// Departure with the bridges found the way the kernel used to find
    /// them: every neighbor pair connected afterwards but not before.
    fn detach(
        &mut self,
        rule: RepairRule,
        leaver: ProcessId,
    ) -> (Vec<ProcessId>, Vec<(ProcessId, ProcessId)>) {
        let before = self.edges();
        let nbrs = self.remove_node(leaver);
        if rule == RepairRule::BridgeNeighbors && nbrs.len() >= 2 {
            for i in 0..nbrs.len() {
                let (a, b) = (nbrs[i], nbrs[(i + 1) % nbrs.len()]);
                self.add_edge(a, b);
            }
        }
        let mut bridges = Vec::new();
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let pair = (nbrs[i], nbrs[j]);
                if self.adj[&pair.0].contains(&pair.1) && !before.contains(&pair) {
                    bridges.push(pair);
                }
            }
        }
        (nbrs, bridges)
    }
}

/// One mutation. Identities are drawn from a small range so operations
/// collide: re-adding present nodes, removing absent ones, touching
/// edges with a missing endpoint.
#[derive(Debug, Clone, Copy)]
enum Op {
    AddNode(u64),
    RemoveNode(u64),
    AddEdge(u64, u64),
    RemoveEdge(u64, u64),
    Attach(AttachRule, u64),
    Detach(RepairRule, u64),
}

const IDS: u64 = 24;

fn op_strategy() -> impl Strategy<Value = Op> {
    let attach_rule = prop_oneof![
        (0usize..5).prop_map(AttachRule::RandomK),
        Just(AttachRule::Chain),
        Just(AttachRule::All),
    ];
    let repair_rule = prop_oneof![Just(RepairRule::None), Just(RepairRule::BridgeNeighbors)];
    prop_oneof![
        (0..IDS).prop_map(Op::AddNode),
        (0..IDS).prop_map(Op::AddNode),
        (0..IDS).prop_map(Op::RemoveNode),
        (0..IDS, 0..IDS).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (0..IDS, 0..IDS).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (0..IDS, 0..IDS).prop_map(|(a, b)| Op::RemoveEdge(a, b)),
        (attach_rule, 0..IDS).prop_map(|(r, n)| Op::Attach(r, n)),
        (repair_rule, 0..IDS).prop_map(|(r, n)| Op::Detach(r, n)),
    ]
}

/// Everything observable about `g` equals the model.
fn check_same(g: &Graph, model: &RefGraph) -> Result<(), TestCaseError> {
    let nodes: Vec<ProcessId> = model.adj.keys().copied().collect();
    prop_assert_eq!(g.nodes().collect::<Vec<_>>(), nodes.clone());
    prop_assert_eq!(g.members(), &nodes[..]);
    prop_assert_eq!(g.node_count(), nodes.len());
    prop_assert_eq!(g.is_empty(), nodes.is_empty());
    let edges = model.edges();
    prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges.clone());
    prop_assert_eq!(g.edge_count(), edges.len());
    for raw in 0..IDS + 2 {
        let n = pid(raw);
        let want: Option<Vec<ProcessId>> = model.adj.get(&n).map(|s| s.iter().copied().collect());
        prop_assert_eq!(g.contains(n), want.is_some());
        prop_assert_eq!(g.neighbors(n).map(<[ProcessId]>::to_vec), want.clone());
        prop_assert_eq!(g.degree(n), want.as_ref().map(Vec::len));
        for other in 0..IDS + 2 {
            let has = want.as_ref().is_some_and(|w| w.contains(&pid(other)));
            prop_assert_eq!(g.has_edge(n, pid(other)), has);
        }
    }
    Ok(())
}

/// The model's graph built from nothing: no vacant slot beyond what its
/// own nodes need.
fn rebuilt(model: &RefGraph) -> Graph {
    let mut g = Graph::new();
    for &n in model.adj.keys() {
        g.add_node(n);
    }
    for (a, b) in model.edges() {
        g.add_edge(a, b);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Table and map agree after every step of any mutation sequence.
    #[test]
    fn table_and_map_agree(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 0u64..1_000_000,
    ) {
        let mut g = Graph::new();
        let mut model = RefGraph::default();
        // One stream per side, same seed: attach must draw identically.
        let (mut rng, mut model_rng) = (Rng::seeded(seed), Rng::seeded(seed));
        for &op in &ops {
            match op {
                Op::AddNode(n) => {
                    g.add_node(pid(n));
                    model.add_node(pid(n));
                }
                Op::RemoveNode(n) => {
                    prop_assert_eq!(g.remove_node(pid(n)), model.remove_node(pid(n)));
                }
                Op::AddEdge(a, b) => {
                    let (a, b) = (pid(a), pid(b));
                    // Outside this the call panics by contract (pinned by
                    // graph.rs unit tests).
                    if a != b && g.contains(a) && g.contains(b) {
                        prop_assert_eq!(g.add_edge(a, b), model.add_edge(a, b));
                    }
                }
                Op::RemoveEdge(a, b) => {
                    g.remove_edge(pid(a), pid(b));
                    model.remove_edge(pid(a), pid(b));
                }
                Op::Attach(rule, n) => {
                    // A present joiner may pick itself: a self-loop panic
                    // on both sides, not a difference worth a case.
                    if !g.contains(pid(n)) {
                        let got = rule.attach(&mut g, pid(n), &mut rng);
                        prop_assert_eq!(got, model.attach(rule, pid(n), &mut model_rng));
                    }
                }
                Op::Detach(rule, n) => {
                    let got = rule.detach(&mut g, pid(n));
                    let (neighbors, bridges) = model.detach(rule, pid(n));
                    prop_assert_eq!(got.neighbors, neighbors);
                    prop_assert_eq!(got.bridges, bridges);
                }
            }
            check_same(&g, &model)?;
        }
        prop_assert_eq!(rng.index(1 << 30), model_rng.index(1 << 30), "attach drew a different number of values");

        // Equality sees nodes and edges only: `g` has been through
        // removals (vacant slots, possibly trailing), `fresh` has not.
        let fresh = rebuilt(&model);
        prop_assert_eq!(&g, &fresh);
        prop_assert_eq!(&g.clone(), &fresh);
        let mut overwritten = g.clone();
        overwritten.add_node(pid(IDS + 40));
        prop_assert_ne!(&overwritten, &fresh);
        overwritten.clone_from(&fresh);
        prop_assert_eq!(&overwritten, &g);
        overwritten.add_node(pid(IDS + 40));
        overwritten.remove_node(pid(IDS + 40));
        prop_assert_eq!(&overwritten, &fresh, "trailing vacant slots must not show");

        // Induced subgraphs: keep every other identity, present or not.
        let keep: BTreeSet<ProcessId> = (0..IDS + 2).step_by(2).map(pid).collect();
        let sub = g.induced(&keep);
        let mut sub_model = RefGraph::default();
        for &n in model.adj.keys().filter(|n| keep.contains(n)) {
            sub_model.add_node(n);
        }
        for (a, b) in model.edges() {
            if keep.contains(&a) && keep.contains(&b) {
                sub_model.add_edge(a, b);
            }
        }
        check_same(&sub, &sub_model)?;
    }
}

/// `RandomK` over the borrowed member list picks exactly what the
/// copy-and-shuffle version picked, seed for seed, and leaves the stream
/// at the same position.
#[test]
fn random_k_picks_what_the_copying_version_picked() {
    for seed in 0..1_000u64 {
        let (mut rng, mut model_rng) = (Rng::seeded(seed), Rng::seeded(seed));
        let mut g = Graph::new();
        let mut model = RefGraph::default();
        // Grow an overlay with gaps in the id space (every third identity
        // leaves again) so positions and identities differ.
        for n in 0..40u64 {
            let k = 1 + (seed as usize + n as usize) % 5;
            let got = AttachRule::RandomK(k).attach(&mut g, pid(n), &mut rng);
            let want = model.attach(AttachRule::RandomK(k), pid(n), &mut model_rng);
            assert_eq!(got, want, "seed {seed}, joiner {n}, k {k}");
            if n % 3 == 2 {
                g.remove_node(pid(n - 1));
                model.remove_node(pid(n - 1));
            }
        }
        assert_eq!(g, rebuilt(&model), "seed {seed}");
        assert_eq!(
            rng.index(1 << 30),
            model_rng.index(1 << 30),
            "seed {seed}: streams diverged"
        );
    }
}
