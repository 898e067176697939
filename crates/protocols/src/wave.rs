//! The wave (flood/echo) family of one-time-query protocols.
//!
//! The paper's positive results rest on one protocol shape: the initiator
//! floods a *probe* with a TTL equal to the (known) diameter bound; each
//! process adopts the first probe's sender as its parent, forwards the
//! probe, collects *echoes* from its children, and echoes the merged
//! contributions up. Three members of the family differ only in how they
//! cope with churn:
//!
//! - **FloodEcho** — per-node timeouts derived from the synchrony bound:
//!   if a child neither echoes nor departs in time, the parent gives up on
//!   it. Terminates in every class; achieves interval validity exactly in
//!   the solvable classes (E2, E8).
//! - **SingleTree** (the Bawa et al. baseline) — no timeouts; a parent
//!   drops a child from its wait-set only when the kernel reports the
//!   neighbor's departure. Terminates under pure churn but silently loses
//!   whole subtrees — the "price of validity" baseline (E4).
//! - **MultiTree(k)** — k independent single-tree waves with randomized
//!   forwarding order; the initiator unions the contributor sets. Each
//!   extra tree recovers some of the coverage churn destroys (E4, and the
//!   redundancy ablation).
//!
//! Echo payloads carry the explicit contributors with their values
//! ([`Contributions`], sorted by identity) rather than a folded
//! accumulator, so unioning across trees never double-counts.

use std::collections::BTreeMap;

use dds_core::process::ProcessId;
use dds_core::spec::aggregate::{Aggregate, AggregateKind};
use dds_core::time::{Time, TimeDelta};
use dds_sim::actor::{Actor, Context};
use dds_sim::event::TimerId;

/// Messages of the wave family.
#[derive(Debug, Clone, PartialEq)]
pub enum WaveMsg {
    /// Injected at the initiator to start the query.
    Start {
        /// TTL for every tree (the protocol's diameter guess).
        ttl: u32,
    },
    /// The query wave.
    Probe {
        /// Which tree this probe belongs to.
        tree: u32,
        /// The querying process (carried for observability).
        origin: ProcessId,
        /// Remaining hops.
        ttl: u32,
    },
    /// A (partial) result flowing back toward the initiator.
    Echo {
        /// Which tree this echo belongs to.
        tree: u32,
        /// Contributors and their values, merged over the subtree.
        contributions: Contributions,
    },
}

/// Contributors and their values, one entry per identity, sorted by
/// identity in one allocation: the payload an echo carries and what the
/// initiator unions across trees. A process reached along two paths, or
/// by two trees, is counted once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Contributions(Vec<(ProcessId, f64)>);

impl Contributions {
    /// A single contributor.
    pub fn single(pid: ProcessId, value: f64) -> Self {
        Contributions(vec![(pid, value)])
    }

    /// Number of contributors.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nobody contributed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The contributors, in identity order.
    pub fn keys(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.0.iter().map(|&(p, _)| p)
    }

    /// The contributed values, in identity order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().map(|&(_, v)| v)
    }

    /// Adds every contributor of `other`. On an identity both hold,
    /// `other`'s value wins (the rule of `BTreeMap::extend`).
    ///
    /// One linear merge, in place: `other`'s entries are appended as
    /// scratch, the union is written from the back, and the slots freed by
    /// shared identities — a gap just past the untouched prefix — are
    /// closed with one move.
    pub fn union(&mut self, other: &Contributions) {
        let v = &mut self.0;
        let (mut i, mut j) = (v.len(), other.0.len());
        v.extend_from_slice(&other.0);
        let mut k = v.len();
        // Invariant: k = i + j + (shared identities merged so far), so the
        // write slot k - 1 never holds an unread entry of `self` (< i).
        while j > 0 {
            k -= 1;
            let theirs = other.0[j - 1];
            if i > 0 && v[i - 1].0 > theirs.0 {
                v[k] = v[i - 1];
                i -= 1;
            } else {
                if i > 0 && v[i - 1].0 == theirs.0 {
                    i -= 1;
                }
                v[k] = theirs;
                j -= 1;
            }
        }
        v.drain(i..k);
    }
}

/// Churn-handling variant of the wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveVariant {
    /// Timeouts from the synchrony bound; always terminates.
    FloodEcho,
    /// No timeouts; relies on departure notifications only.
    SingleTree,
}

/// Static configuration of a [`WaveActor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveConfig {
    /// The aggregate the initiator reports.
    pub aggregate: AggregateKind,
    /// Churn-handling variant.
    pub variant: WaveVariant,
    /// Number of independent trees (1 for plain flood/echo).
    pub trees: u32,
    /// The per-hop delay bound `delta` used to size timeouts
    /// (ignored by [`WaveVariant::SingleTree`]).
    pub delta: TimeDelta,
}

impl WaveConfig {
    /// A plain flood/echo configuration.
    pub fn flood_echo(aggregate: AggregateKind, delta: TimeDelta) -> Self {
        WaveConfig {
            aggregate,
            variant: WaveVariant::FloodEcho,
            trees: 1,
            delta,
        }
    }

    /// The Bawa-style single-tree baseline.
    pub fn single_tree(aggregate: AggregateKind) -> Self {
        WaveConfig {
            aggregate,
            variant: WaveVariant::SingleTree,
            trees: 1,
            delta: TimeDelta::TICK,
        }
    }

    /// `k` independent single-tree waves.
    pub fn multi_tree(aggregate: AggregateKind, k: u32) -> Self {
        WaveConfig {
            aggregate,
            variant: WaveVariant::SingleTree,
            trees: k.max(1),
            delta: TimeDelta::TICK,
        }
    }
}

/// Per-tree state at one process.
#[derive(Debug, Clone)]
struct TreeState {
    parent: Option<ProcessId>,
    /// TTL this node received (its remaining hop budget).
    ttl: u32,
    /// Children yet to echo, in no particular order: the shuffled probe
    /// targets, plus bridge peers probed later. Only ever searched.
    pending: Vec<ProcessId>,
    contributions: Contributions,
    replied: bool,
    timer: Option<TimerId>,
}

/// The completed result held by the initiator once every tree finished.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveResult {
    /// When the last tree completed.
    pub finished_at: Time,
    /// Union of contributors with their values.
    pub contributions: Contributions,
    /// The aggregate value over the union.
    pub value: f64,
}

/// Per-generation accumulation at the initiator (one generation per
/// `Start`, so the same actor can serve repeated queries over one evolving
/// system — the continuous-query extension).
#[derive(Debug, Default)]
struct Generation {
    completed_trees: u32,
    merged: Contributions,
}

/// One process of a wave-family query.
#[derive(Debug)]
pub struct WaveActor {
    config: WaveConfig,
    trees: BTreeMap<u32, TreeState>,
    timer_tree: BTreeMap<TimerId, u32>,
    is_initiator: bool,
    generations: u32,
    open_generations: BTreeMap<u32, Generation>,
    results: Vec<WaveResult>,
}

impl WaveActor {
    /// Creates a process with the given configuration.
    pub fn new(config: WaveConfig) -> Self {
        WaveActor {
            config,
            trees: BTreeMap::new(),
            timer_tree: BTreeMap::new(),
            is_initiator: false,
            generations: 0,
            open_generations: BTreeMap::new(),
            results: Vec::new(),
        }
    }

    /// The latest query result, once the initiator completed every tree of
    /// some generation.
    pub fn result(&self) -> Option<&WaveResult> {
        self.results.last()
    }

    /// Every completed query result, in completion order (one per `Start`
    /// received, for the continuous-query harness).
    pub fn results(&self) -> &[WaveResult] {
        &self.results
    }

    /// Probe-subtree timeout for a node whose probes carry `ttl` remaining
    /// hops: the wave may travel `ttl` more hops down and the echoes the
    /// same distance back, each hop at most `delta`.
    fn subtree_timeout(&self, ttl: u32) -> TimeDelta {
        self.config.delta.saturating_mul(2 * (u64::from(ttl) + 1))
    }

    fn begin_tree(
        &mut self,
        ctx: &mut Context<'_, WaveMsg>,
        tree: u32,
        parent: Option<ProcessId>,
        ttl: u32,
    ) {
        let contributions = Contributions::single(ctx.pid(), ctx.value());
        let mut targets: Vec<ProcessId> = ctx
            .neighbors()
            .iter()
            .copied()
            .filter(|n| Some(*n) != parent)
            .collect();
        ctx.rng().shuffle(&mut targets);
        if ttl > 0 {
            for &t in &targets {
                ctx.send(
                    t,
                    WaveMsg::Probe {
                        tree,
                        origin: ctx.pid(),
                        ttl: ttl - 1,
                    },
                );
            }
        } else {
            targets.clear();
        }
        let mut state = TreeState {
            parent,
            ttl,
            pending: targets,
            contributions,
            replied: false,
            timer: None,
        };
        if !state.pending.is_empty() && self.config.variant == WaveVariant::FloodEcho {
            let timer = ctx.set_timer(self.subtree_timeout(ttl));
            state.timer = Some(timer);
            self.timer_tree.insert(timer, tree);
        }
        let done = state.pending.is_empty();
        self.trees.insert(tree, state);
        if done {
            self.finish_tree(ctx, tree);
        }
    }

    fn finish_tree(&mut self, ctx: &mut Context<'_, WaveMsg>, tree: u32) {
        let Some(state) = self.trees.get_mut(&tree) else {
            return;
        };
        if state.replied {
            return;
        }
        state.replied = true;
        state.pending.clear();
        match state.parent {
            Some(parent) => {
                ctx.send(
                    parent,
                    WaveMsg::Echo {
                        tree,
                        contributions: state.contributions.clone(),
                    },
                );
            }
            None if self.is_initiator => {
                let generation = tree / self.config.trees;
                let slot = self.open_generations.entry(generation).or_default();
                slot.merged.union(&state.contributions);
                slot.completed_trees += 1;
                if slot.completed_trees >= self.config.trees {
                    let slot = self
                        .open_generations
                        .remove(&generation)
                        .expect("just updated");
                    let agg = self.config.aggregate;
                    let acc = slot
                        .merged
                        .values()
                        .fold(agg.identity(), |acc, v| agg.combine(acc, agg.lift(v)));
                    self.results.push(WaveResult {
                        finished_at: ctx.now(),
                        contributions: slot.merged,
                        value: agg.finish(acc),
                    });
                }
            }
            None => {}
        }
    }
}

/// Removes `p` from the pending children, reporting whether it was there.
fn take(pending: &mut Vec<ProcessId>, p: ProcessId) -> bool {
    match pending.iter().position(|&q| q == p) {
        Some(i) => {
            pending.swap_remove(i);
            true
        }
        None => false,
    }
}

impl Actor<WaveMsg> for WaveActor {
    fn on_message(&mut self, ctx: &mut Context<'_, WaveMsg>, from: ProcessId, msg: WaveMsg) {
        match msg {
            WaveMsg::Start { ttl } => {
                self.is_initiator = true;
                let base = self.generations * self.config.trees;
                self.generations += 1;
                for tree in base..base + self.config.trees {
                    self.begin_tree(ctx, tree, None, ttl);
                }
            }
            WaveMsg::Probe { tree, ttl, .. } => {
                if let Some(state) = self.trees.get(&tree) {
                    // Already in this tree: immediately release the sender,
                    // echoing everything gathered so far. Echo payloads are
                    // keyed by identity, so duplicates collapse at every
                    // union — and a subtree whose original echo died with a
                    // departed parent is recovered when a repair edge
                    // re-probes it.
                    ctx.send(
                        from,
                        WaveMsg::Echo {
                            tree,
                            contributions: state.contributions.clone(),
                        },
                    );
                } else {
                    self.begin_tree(ctx, tree, Some(from), ttl);
                }
            }
            WaveMsg::Echo {
                tree,
                contributions,
            } => {
                let finish = {
                    let Some(state) = self.trees.get_mut(&tree) else {
                        return;
                    };
                    if !take(&mut state.pending, from) {
                        return; // late echo after timeout: already answered
                    }
                    state.contributions.union(&contributions);
                    state.pending.is_empty() && !state.replied
                };
                if finish {
                    self.finish_tree(ctx, tree);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WaveMsg>, timer: TimerId) {
        if let Some(tree) = self.timer_tree.remove(&timer) {
            // Give up on whatever children have not echoed.
            self.finish_tree(ctx, tree);
        }
    }

    fn on_neighbor_bridge(
        &mut self,
        ctx: &mut Context<'_, WaveMsg>,
        peer: ProcessId,
        replaced: ProcessId,
    ) {
        // Repair-aware probing (FloodEcho only): a bridge edge routing
        // around a departed *pending child* is probed with the remaining
        // budget, so the wave rides the overlay's repair and keeps interval
        // validity in the solvable dynamic classes. Edges from plain joins
        // are ignored on purpose: a process that joined after the query
        // started is never in the required set, and awaiting it would only
        // delay the echo cascade into the timeout.
        if self.config.variant != WaveVariant::FloodEcho {
            return;
        }
        let open: Vec<(u32, u32)> = self
            .trees
            .iter()
            .filter(|(_, s)| {
                !s.replied
                    && s.ttl > 0
                    && s.pending.contains(&replaced)
                    && !s.pending.contains(&peer)
            })
            .map(|(&t, s)| (t, s.ttl))
            .collect();
        for (tree, ttl) in open {
            ctx.send(
                peer,
                WaveMsg::Probe {
                    tree,
                    origin: ctx.pid(),
                    ttl: ttl - 1,
                },
            );
            self.trees
                .get_mut(&tree)
                .expect("just listed")
                .pending
                .push(peer);
        }
    }

    fn on_neighbor_down(&mut self, ctx: &mut Context<'_, WaveMsg>, peer: ProcessId) {
        let trees: Vec<u32> = self.trees.keys().copied().collect();
        for tree in trees {
            let finish = {
                let state = self.trees.get_mut(&tree).expect("iterating own keys");
                take(&mut state.pending, peer) && state.pending.is_empty() && !state.replied
            };
            if finish {
                self.finish_tree(ctx, tree);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::time::Time;
    use dds_net::generate;
    use dds_sim::delay::DelayModel;
    use dds_sim::driver::{ChurnAction, Scripted};
    use dds_sim::world::{World, WorldBuilder};

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn build(graph: dds_net::Graph, config: WaveConfig, seed: u64) -> World<WaveMsg> {
        WorldBuilder::new(seed)
            .initial_graph(graph)
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .values(|p, _| p.as_raw() as f64)
            .spawn(move |_| Box::new(WaveActor::new(config)))
            .build()
    }

    fn run_query(world: &mut World<WaveMsg>, ttl: u32) -> Option<WaveResult> {
        world.inject(Time::from_ticks(1), pid(0), WaveMsg::Start { ttl });
        world.run_until(Time::from_ticks(500));
        world
            .actor::<WaveActor>(pid(0))
            .and_then(|a| a.result().cloned())
    }

    #[test]
    fn static_ring_counts_everyone() {
        let config = WaveConfig::flood_echo(AggregateKind::Count, TimeDelta::TICK);
        let mut world = build(generate::ring(8), config, 1);
        let result = run_query(&mut world, 4).expect("query completes");
        assert_eq!(result.value, 8.0);
        assert_eq!(result.contributions.len(), 8);
    }

    #[test]
    fn static_sum_is_exact() {
        let config = WaveConfig::flood_echo(AggregateKind::Sum, TimeDelta::TICK);
        let mut world = build(generate::torus(3, 3), config, 2);
        let result = run_query(&mut world, 4).expect("query completes");
        assert_eq!(result.value, (0..9).sum::<u64>() as f64);
    }

    #[test]
    fn insufficient_ttl_misses_far_nodes() {
        let config = WaveConfig::flood_echo(AggregateKind::Count, TimeDelta::TICK);
        let mut world = build(generate::path(6), config, 3);
        // TTL 2 from p0 reaches only p0, p1, p2.
        let result = run_query(&mut world, 2).expect("query completes");
        assert_eq!(result.value, 3.0);
    }

    #[test]
    fn isolated_initiator_reports_itself() {
        let mut g = dds_net::Graph::new();
        g.add_node(pid(0));
        let config = WaveConfig::flood_echo(AggregateKind::Count, TimeDelta::TICK);
        let mut world = build(g, config, 4);
        let result = run_query(&mut world, 3).expect("query completes");
        assert_eq!(result.value, 1.0);
    }

    #[test]
    fn ttl_zero_reports_initiator_only() {
        let config = WaveConfig::flood_echo(AggregateKind::Count, TimeDelta::TICK);
        let mut world = build(generate::ring(5), config, 5);
        let result = run_query(&mut world, 0).expect("query completes");
        assert_eq!(result.value, 1.0);
    }

    #[test]
    fn flood_echo_terminates_despite_mid_query_crash() {
        let config = WaveConfig::flood_echo(AggregateKind::Count, TimeDelta::TICK);
        let mut world: World<WaveMsg> = WorldBuilder::new(6)
            .initial_graph(generate::path(5))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .driver(Scripted::new(vec![(
                Time::from_ticks(3),
                ChurnAction::Crash(pid(2)),
            )]))
            .spawn(move |_| Box::new(WaveActor::new(config)))
            .build();
        let result = run_query(&mut world, 4).expect("must terminate");
        // p2 crashed mid-wave; p3, p4 are unreachable afterwards (no repair
        // beyond bridging — path 1-3 bridge reconnects, but the probe may
        // already have passed). The key assertion is termination with at
        // least the near side counted.
        assert!(result.value >= 2.0);
    }

    #[test]
    fn single_tree_loses_subtree_on_crash() {
        let config = WaveConfig::single_tree(AggregateKind::Count);
        // Use no-repair policy so the crash genuinely severs the path.
        let mut world: World<WaveMsg> = WorldBuilder::new(7)
            .initial_graph(generate::path(6))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .policy(dds_sim::world::TopologyPolicy {
                attach: dds_net::dynamic::AttachRule::RandomK(2),
                repair: dds_net::dynamic::RepairRule::None,
            })
            .driver(Scripted::new(vec![(
                Time::from_ticks(4),
                ChurnAction::Crash(pid(2)),
            )]))
            .spawn(move |_| Box::new(WaveActor::new(config)))
            .build();
        let result = run_query(&mut world, 6).expect("terminates via departure pruning");
        assert!(
            result.value < 6.0,
            "crash at t=4 severs the tail: got {}",
            result.value
        );
    }

    #[test]
    fn multi_tree_unions_contributors_without_double_counting() {
        let config = WaveConfig::multi_tree(AggregateKind::Sum, 4);
        let mut world = build(generate::torus(3, 3), config, 8);
        let result = run_query(&mut world, 5).expect("query completes");
        // Sum over union must equal the plain sum: duplicates collapse.
        assert_eq!(result.value, (0..9).sum::<u64>() as f64);
        assert_eq!(result.contributions.len(), 9);
    }

    #[test]
    fn result_is_none_before_completion() {
        let config = WaveConfig::flood_echo(AggregateKind::Count, TimeDelta::TICK);
        let world = build(generate::ring(4), config, 9);
        assert!(world
            .actor::<WaveActor>(pid(0))
            .expect("actor exists")
            .result()
            .is_none());
    }

    #[test]
    fn deterministic_across_reruns() {
        let config = WaveConfig::flood_echo(AggregateKind::Average, TimeDelta::TICK);
        let run = || {
            let mut world = build(generate::torus(4, 4), config, 10);
            run_query(&mut world, 6).map(|r| (r.finished_at, r.value))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn average_aggregate_matches_reference() {
        let config = WaveConfig::flood_echo(AggregateKind::Average, TimeDelta::TICK);
        let mut world = build(generate::ring(10), config, 11);
        let result = run_query(&mut world, 5).expect("query completes");
        let expect = (0..10).sum::<u64>() as f64 / 10.0;
        assert!((result.value - expect).abs() < 1e-12);
    }
}
