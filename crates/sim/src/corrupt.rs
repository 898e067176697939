//! The transient-corruption adversary of the self-stabilization model.
//!
//! Self-stabilization (Dijkstra 1974) asks a protocol to recover a legal
//! configuration from an *arbitrary* starting state — the abstraction of
//! transient faults: bit flips, resets, and misdelivered state that leave
//! processes running but wrong. [`CorruptionAdversary`] is the executable
//! form of that fault model: a [`ChurnDriver`] that, at chosen instants
//! (scripted or periodic), injects [`Burst`]s of damage —
//!
//! - **actor-state flips** ([`ChurnAction::CorruptRandom`] /
//!   [`ChurnAction::CorruptActor`]): the victim's
//!   [`crate::actor::Actor::corrupt`] hook overwrites its volatile state
//!   with values drawn from the run RNG;
//! - **queue scrambles** ([`ChurnAction::ScrambleQueue`]): every pending
//!   message payload is rewritten through the world's registered
//!   corruption hook, in canonical `(time, seq)` order so the damage
//!   does not depend on where the queue stores an event;
//! - **adjacency perturbation**: random knowledge edges are cut at the
//!   burst instant and restored at the adversary's next wakeup, so local
//!   membership views observe a transient topology fault.
//!
//! All randomness comes from the run RNG passed to `on_tick`, so one seed
//! fully determines the damage and runs stay byte-reproducible at any
//! `DDS_THREADS` setting. The adversary forks and fingerprints
//! (tag 6), so it composes with churn via [`crate::driver::Compose`] and
//! survives snapshot-forking exploration.

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};
use dds_net::graph::Graph;

use crate::driver::{ChurnAction, ChurnDriver, DriverIntent};
use crate::snapshot::StableHasher;

/// One corruption burst: how much damage one adversary wakeup injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Burst {
    /// Number of distinct random members whose local state is flipped.
    pub actors: usize,
    /// Whether every pending message payload is scrambled.
    pub scramble_queue: bool,
    /// Number of random knowledge edges cut now and restored at the
    /// adversary's next wakeup (a transient adjacency fault).
    pub edge_cuts: usize,
}

impl Burst {
    /// A burst that flips `actors` random members and nothing else.
    pub fn actors(actors: usize) -> Self {
        Burst {
            actors,
            ..Burst::default()
        }
    }

    /// Adds a queue scramble to the burst.
    pub fn with_scramble(mut self) -> Self {
        self.scramble_queue = true;
        self
    }

    /// Adds `n` transient edge cuts to the burst.
    pub fn with_edge_cuts(mut self, n: usize) -> Self {
        self.edge_cuts = n;
        self
    }
}

/// The transient-corruption adversary (see the module docs).
///
/// Built in one of two modes — or both at once, since a scripted prefix
/// composes with a periodic tail:
///
/// - [`CorruptionAdversary::scripted`]: explicit `(instant, burst)` pairs,
///   the deterministic workhorse of tests and check targets;
/// - [`CorruptionAdversary::periodic`]: the same burst every `period`,
///   starting at `start` — the sweep mode of the `stab1` experiment.
#[derive(Debug, Clone, Default)]
pub struct CorruptionAdversary {
    script: Vec<(Time, Burst)>,
    cursor: usize,
    /// `(next instant, period, burst)` of the periodic mode, if any.
    periodic: Option<(Time, TimeDelta, Burst)>,
    /// Edges cut by the previous burst, restored at the next wakeup.
    pending_restore: Vec<(ProcessId, ProcessId)>,
}

impl CorruptionAdversary {
    /// Creates a scripted adversary from `(instant, burst)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the script is not sorted by time.
    pub fn scripted(script: Vec<(Time, Burst)>) -> Self {
        assert!(
            script.windows(2).all(|w| w[0].0 <= w[1].0),
            "corruption script must be sorted by time"
        );
        CorruptionAdversary {
            script,
            ..CorruptionAdversary::default()
        }
    }

    /// Creates a periodic adversary injecting `burst` every `period`
    /// starting at `start`.
    pub fn periodic(start: Time, period: TimeDelta, burst: Burst) -> Self {
        CorruptionAdversary {
            periodic: Some((start, period, burst)),
            ..CorruptionAdversary::default()
        }
    }

    fn emit(
        burst: Burst,
        graph: &Graph,
        rng: &mut Rng,
        out: &mut Vec<ChurnAction>,
        restore: &mut Vec<(ProcessId, ProcessId)>,
    ) {
        for _ in 0..burst.actors {
            out.push(ChurnAction::CorruptRandom);
        }
        if burst.scramble_queue {
            out.push(ChurnAction::ScrambleQueue);
        }
        if burst.edge_cuts > 0 {
            // Materialize the edge list once; `edges()` iterates the
            // adjacency map in deterministic (sorted) order.
            let edges: Vec<(ProcessId, ProcessId)> = graph.edges().collect();
            for _ in 0..burst.edge_cuts {
                if edges.is_empty() {
                    break;
                }
                let (a, b) = edges[rng.index(edges.len())];
                out.push(ChurnAction::CutEdge(a, b));
                restore.push((a, b));
            }
        }
    }
}

impl ChurnDriver for CorruptionAdversary {
    fn intent(&self) -> DriverIntent {
        // Corruption neither adds nor removes members.
        DriverIntent {
            arrivals_finite: true,
            concurrency_finite: true,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        let scripted = self.script.first().map(|(t, _)| *t);
        let periodic = self.periodic.map(|(t, _, _)| t);
        match (scripted, periodic) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_tick(
        &mut self,
        now: Time,
        graph: &Graph,
        rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>) {
        let mut actions = Vec::new();
        // Heal the previous burst's transient edge cuts first, so a view
        // protocol sees the fault window close before fresh damage lands.
        for (a, b) in self.pending_restore.drain(..) {
            actions.push(ChurnAction::RestoreEdge(a, b));
        }
        let mut restore = Vec::new();
        while self.cursor < self.script.len() && self.script[self.cursor].0 <= now {
            Self::emit(
                self.script[self.cursor].1,
                graph,
                rng,
                &mut actions,
                &mut restore,
            );
            self.cursor += 1;
        }
        if let Some((next, period, burst)) = self.periodic {
            if next <= now {
                Self::emit(burst, graph, rng, &mut actions, &mut restore);
                self.periodic = Some((next + period, period, burst));
            }
        }
        self.pending_restore = restore;
        let scripted_next = self.script.get(self.cursor).map(|(t, _)| *t);
        let periodic_next = self.periodic.map(|(t, _, _)| t);
        let mut next = match (scripted_next, periodic_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // If edges are pending restoration, wake up one tick later even
        // with nothing else scheduled — transient cuts must heal.
        if !self.pending_restore.is_empty() {
            let heal = now + TimeDelta::ticks(1);
            next = Some(next.map_or(heal, |n| n.min(heal)));
        }
        (actions, next)
    }

    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u8(6);
        h.write_usize(self.cursor);
        h.write_usize(self.script.len());
        match self.periodic {
            Some((next, period, burst)) => {
                h.write_bool(true);
                h.write_u64(next.as_ticks());
                h.write_u64(period.as_ticks());
                h.write_usize(burst.actors);
                h.write_bool(burst.scramble_queue);
                h.write_usize(burst.edge_cuts);
            }
            None => h.write_bool(false),
        }
        h.write_usize(self.pending_restore.len());
        for (a, b) in &self.pending_restore {
            h.write_u64(a.as_raw());
            h.write_u64(b.as_raw());
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_net::generate;

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    #[test]
    fn scripted_bursts_fire_in_order() {
        let mut d = CorruptionAdversary::scripted(vec![
            (t(5), Burst::actors(2)),
            (t(9), Burst::actors(1).with_scramble()),
        ]);
        assert_eq!(d.initial_wakeup(), Some(t(5)));
        let g = generate::ring(4);
        let mut rng = Rng::seeded(7);
        let (a1, n1) = d.on_tick(t(5), &g, &mut rng);
        assert_eq!(
            a1,
            vec![ChurnAction::CorruptRandom, ChurnAction::CorruptRandom]
        );
        assert_eq!(n1, Some(t(9)));
        let (a2, n2) = d.on_tick(t(9), &g, &mut rng);
        assert_eq!(
            a2,
            vec![ChurnAction::CorruptRandom, ChurnAction::ScrambleQueue]
        );
        assert_eq!(n2, None);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn scripted_rejects_unsorted() {
        CorruptionAdversary::scripted(vec![(t(9), Burst::actors(1)), (t(5), Burst::actors(1))]);
    }

    #[test]
    fn periodic_mode_reschedules() {
        let burst = Burst::actors(1);
        let mut d = CorruptionAdversary::periodic(t(10), TimeDelta::ticks(10), burst);
        assert_eq!(d.initial_wakeup(), Some(t(10)));
        let g = generate::ring(4);
        let mut rng = Rng::seeded(0);
        let (a, next) = d.on_tick(t(10), &g, &mut rng);
        assert_eq!(a, vec![ChurnAction::CorruptRandom]);
        assert_eq!(next, Some(t(20)));
    }

    #[test]
    fn edge_cuts_heal_at_next_wakeup() {
        let mut d = CorruptionAdversary::scripted(vec![(t(3), Burst::default().with_edge_cuts(1))]);
        let g = generate::ring(4);
        let mut rng = Rng::seeded(1);
        let (a1, n1) = d.on_tick(t(3), &g, &mut rng);
        assert_eq!(a1.len(), 1);
        let ChurnAction::CutEdge(x, y) = a1[0] else {
            panic!("expected a cut, got {a1:?}");
        };
        // The script is exhausted, but the cut edge forces a heal wakeup.
        assert_eq!(n1, Some(t(4)));
        let (a2, n2) = d.on_tick(t(4), &g, &mut rng);
        assert_eq!(a2, vec![ChurnAction::RestoreEdge(x, y)]);
        assert_eq!(n2, None);
    }

    #[test]
    fn zero_burst_draws_nothing_from_rng() {
        // The RNG is only touched when a burst actually needs randomness:
        // a no-op spec must leave the RNG stream byte-identical.
        let mut d = CorruptionAdversary::scripted(vec![(t(2), Burst::default())]);
        let g = generate::ring(4);
        let mut rng = Rng::seeded(42);
        let before = rng.state_words();
        let (actions, next) = d.on_tick(t(2), &g, &mut rng);
        assert!(actions.is_empty());
        assert_eq!(next, None);
        assert_eq!(rng.state_words(), before);
    }

    #[test]
    fn fork_is_deep_and_fingerprint_tracks_cursor() {
        let mut d =
            CorruptionAdversary::scripted(vec![(t(1), Burst::actors(1)), (t(2), Burst::actors(1))]);
        let g = generate::ring(3);
        let mut rng = Rng::seeded(3);
        let mut h0 = StableHasher::default();
        assert!(d.fingerprint(&mut h0));
        d.on_tick(t(1), &g, &mut rng);
        let mut h1 = StableHasher::default();
        assert!(d.fingerprint(&mut h1));
        assert_ne!(h0.finish(), h1.finish(), "cursor advance must show");
        let fork = d.fork().expect("adversary forks");
        let mut h2 = StableHasher::default();
        assert!(fork.fingerprint(&mut h2));
        assert_eq!(h1.finish(), h2.finish(), "fork carries mutable state");
    }

    #[test]
    fn composes_with_churn_wakeups() {
        use crate::driver::Compose;
        let churn = crate::driver::Scripted::new(vec![(t(4), ChurnAction::Join)]);
        let adv = CorruptionAdversary::scripted(vec![(t(2), Burst::actors(1))]);
        let mut d = Compose::new(churn, adv);
        assert_eq!(d.initial_wakeup(), Some(t(2)));
        let g = generate::ring(3);
        let mut rng = Rng::seeded(5);
        let (a, next) = d.on_tick(t(2), &g, &mut rng);
        assert_eq!(a, vec![ChurnAction::CorruptRandom]);
        assert_eq!(next, Some(t(4)));
    }
}
