//! Churn drivers: one per arrival model, plus the adversaries.
//!
//! A [`ChurnDriver`] is the source of membership change in a simulated run.
//! The kernel wakes it up at the instants it requests; it answers with
//! [`ChurnAction`]s (joins, leaves, crashes, edge splices) that the kernel
//! applies to the world. Each driver realizes one arrival model of
//! [`dds_core::arrival::ArrivalModel`]:
//!
//! - [`NoChurn`] — the static model `M^n`;
//! - [`BalancedChurn`] — infinite arrival with bounded concurrency
//!   (`M^∞_b`): the membership size is preserved, a fraction is replaced
//!   every window;
//! - [`Growth`] — unbounded concurrency (`M^∞`): the membership grows
//!   geometrically;
//! - [`PathStretch`] — the **constructive impossibility adversary** for the
//!   unbounded-diameter class: it keeps splicing fresh processes into the
//!   path between the initiator and a stable witness, so the witness's
//!   distance grows without bound while it stays present throughout —
//!   defeating any TTL/timeout a wave protocol commits to;
//! - [`Scripted`] — an explicit event list, for tests.

use std::fmt;

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};
use dds_net::algo::shortest_path;
use dds_net::graph::Graph;

use crate::snapshot::StableHasher;

/// One membership change requested by a driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnAction {
    /// A fresh process joins; the kernel wires it per the scenario's attach
    /// rule.
    Join,
    /// A uniformly random member leaves gracefully.
    LeaveRandom,
    /// The given member leaves gracefully (ignored if absent).
    Leave(ProcessId),
    /// A uniformly random member crashes.
    CrashRandom,
    /// The given member crashes (ignored if absent).
    Crash(ProcessId),
    /// A fresh process splices into the edge `{a, b}`: it joins with edges
    /// to both endpoints and the direct edge is removed — the stretching
    /// move of the unbounded-diameter adversary. Ignored if the edge no
    /// longer exists.
    InsertBetween(ProcessId, ProcessId),
    /// The knowledge edge `{a, b}` is severed (both endpoints get a
    /// neighbor-down notification). Ignored if absent.
    CutEdge(ProcessId, ProcessId),
    /// The knowledge edge `{a, b}` is (re)established (both endpoints get a
    /// neighbor-up notification). Ignored unless both endpoints are
    /// present, or if the edge already exists.
    RestoreEdge(ProcessId, ProcessId),
    /// The given member's local state is overwritten with arbitrary values
    /// drawn from the run RNG — the transient-fault model of
    /// self-stabilization. The process keeps running (unlike a crash).
    /// Ignored if the process is absent or its actor does not implement
    /// [`crate::actor::Actor::corrupt`].
    CorruptActor(ProcessId),
    /// A uniformly random member's state is corrupted (same semantics as
    /// [`ChurnAction::CorruptActor`]).
    CorruptRandom,
    /// Every pending message payload in the event queue is scrambled via
    /// the world's registered corruption hook
    /// (`WorldBuilder::corrupt_msg`), in canonical `(time, seq)` order so
    /// the result does not depend on where the queue stores an event. A
    /// no-op when no hook is registered.
    ScrambleQueue,
}

/// Declared intent of a driver, used to fill the `*_finite` flags of
/// [`dds_core::arrival::RunArrivalStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverIntent {
    /// The driver would generate only finitely many arrivals in an infinite
    /// run.
    pub arrivals_finite: bool,
    /// The driver keeps concurrency bounded.
    pub concurrency_finite: bool,
}

/// The source of membership change in a run.
pub trait ChurnDriver {
    /// The driver's declared intent.
    fn intent(&self) -> DriverIntent;

    /// The first instant at which the driver wants to act; `None` for a
    /// churn-free run.
    fn initial_wakeup(&self) -> Option<Time>;

    /// Called at each requested instant with a view of the current
    /// knowledge graph. Returns the actions to apply now and the next
    /// wakeup (or `None` to stop).
    fn on_tick(
        &mut self,
        now: Time,
        graph: &Graph,
        rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>);

    /// Deep-copies this driver for a forked world snapshot, or `None`
    /// when forking is unsupported (the default). Mirrors
    /// [`crate::actor::Actor::fork`]: the copy must carry all mutable
    /// scheduling state (cursors, wakeup bookkeeping).
    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        None
    }

    /// Absorbs the driver's mutable state into a world fingerprint,
    /// returning `true` when supported. Mirrors
    /// [`crate::actor::Actor::fingerprint`].
    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        let _ = h;
        false
    }
}

impl fmt::Debug for dyn ChurnDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChurnDriver(intent: {:?})", self.intent())
    }
}

/// The static model: no membership change, ever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoChurn;

impl ChurnDriver for NoChurn {
    fn intent(&self) -> DriverIntent {
        DriverIntent {
            arrivals_finite: true,
            concurrency_finite: true,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        None
    }

    fn on_tick(&mut self, _: Time, _: &Graph, _: &mut Rng) -> (Vec<ChurnAction>, Option<Time>) {
        (Vec::new(), None)
    }

    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        Some(Box::new(NoChurn))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u8(0); // stateless: a fixed tag distinguishes it from nothing
        true
    }
}

/// Balanced replacement churn (`M^∞_b`): every window, a
/// [`ChurnSpec`]-determined fraction of the membership leaves and as many
/// fresh processes join, keeping concurrency at its initial bound.
#[derive(Debug, Clone)]
pub struct BalancedChurn {
    spec: ChurnSpec,
    /// Fraction of departures that are crashes rather than graceful leaves.
    crash_fraction: f64,
    /// Processes churn never removes (e.g. the query initiator, whose
    /// presence defines the query interval).
    protected: std::collections::BTreeSet<ProcessId>,
}

impl BalancedChurn {
    /// Creates a driver from a churn specification; departures are graceful
    /// leaves.
    pub fn new(spec: ChurnSpec) -> Self {
        BalancedChurn {
            spec,
            crash_fraction: 0.0,
            protected: std::collections::BTreeSet::new(),
        }
    }

    /// Makes the given fraction of departures crashes instead of leaves.
    pub fn with_crash_fraction(mut self, fraction: f64) -> Self {
        self.crash_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Exempts a process from departures (the one-time-query
    /// specification is relative to an initiator that stays). May be
    /// called repeatedly to protect several processes.
    pub fn with_protected(mut self, pid: ProcessId) -> Self {
        self.protected.insert(pid);
        self
    }
}

impl ChurnDriver for BalancedChurn {
    fn intent(&self) -> DriverIntent {
        DriverIntent {
            arrivals_finite: self.spec.is_none(),
            concurrency_finite: true,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        if self.spec.is_none() {
            None
        } else {
            Some(Time::ZERO + self.spec.window())
        }
    }

    fn on_tick(
        &mut self,
        now: Time,
        graph: &Graph,
        rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>) {
        let membership = graph.node_count();
        // Probabilistic rounding keeps the long-run rate exact even when
        // rate * membership is fractional.
        let exact = self.spec.churn_rate() * membership as f64;
        let mut k = exact.floor() as usize;
        if rng.chance(exact.fract()) {
            k += 1;
        }
        // Pick k distinct victims (excluding the protected process) so a
        // duplicate pick cannot unbalance joins against leaves.
        let mut victims: Vec<ProcessId> = graph
            .nodes()
            .filter(|p| !self.protected.contains(p))
            .collect();
        let take = k.min(victims.len());
        for i in 0..take {
            let j = i + rng.index(victims.len() - i);
            victims.swap(i, j);
        }
        victims.truncate(take);
        let mut actions = Vec::with_capacity(2 * take);
        for victim in victims {
            if rng.chance(self.crash_fraction) {
                actions.push(ChurnAction::Crash(victim));
            } else {
                actions.push(ChurnAction::Leave(victim));
            }
            actions.push(ChurnAction::Join);
        }
        (actions, Some(now + self.spec.window()))
    }

    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u8(2); // all state is immutable run configuration
        true
    }
}

/// Geometric growth (`M^∞`, unbounded concurrency): every window the
/// membership grows by the given factor.
#[derive(Debug, Clone, Copy)]
pub struct Growth {
    /// Multiplicative growth per window (e.g. `0.5` adds 50% per window).
    pub growth_per_window: f64,
    /// The window length.
    pub window: TimeDelta,
    /// Simulation-resource cap on the membership: joins stop once reached.
    /// The *model* is unbounded growth; the cap only bounds the finite
    /// prefix a simulation can afford. Use `usize::MAX` for no cap.
    pub cap: usize,
}

impl ChurnDriver for Growth {
    fn intent(&self) -> DriverIntent {
        DriverIntent {
            arrivals_finite: false,
            concurrency_finite: false,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        Some(Time::ZERO + self.window)
    }

    fn on_tick(
        &mut self,
        now: Time,
        graph: &Graph,
        rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>) {
        let membership = graph.node_count();
        let exact = self.growth_per_window * membership as f64;
        let mut k = exact.floor() as usize;
        if rng.chance(exact.fract()) {
            k += 1;
        }
        k = k.min(self.cap.saturating_sub(membership));
        (vec![ChurnAction::Join; k], Some(now + self.window))
    }

    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        Some(Box::new(*self))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u8(3); // all state is immutable run configuration
        true
    }
}

/// The unbounded-diameter adversary: splices one fresh process per window
/// into the first edge of the path from `initiator` to `witness`, pushing
/// the witness one hop farther each time while both stay present — the
/// executable form of the C4 impossibility argument (experiment E5).
#[derive(Debug, Clone)]
pub struct PathStretch {
    /// The querying process whose wave must be outrun.
    pub initiator: ProcessId,
    /// The stable process the query is required to include.
    pub witness: ProcessId,
    /// How often a splice happens.
    pub window: TimeDelta,
}

impl ChurnDriver for PathStretch {
    fn intent(&self) -> DriverIntent {
        DriverIntent {
            arrivals_finite: false,
            // Concurrency grows by one per window: finite at any instant,
            // unbounded across the run — the M^∞_n regime.
            concurrency_finite: false,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        Some(Time::ZERO + self.window)
    }

    fn on_tick(
        &mut self,
        now: Time,
        graph: &Graph,
        _rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>) {
        let next = Some(now + self.window);
        match shortest_path(graph, self.initiator, self.witness) {
            Some(path) if path.len() >= 2 => {
                (vec![ChurnAction::InsertBetween(path[0], path[1])], next)
            }
            _ => (Vec::new(), next),
        }
    }

    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u8(4); // all state is immutable run configuration
        true
    }
}

/// Runs two drivers side by side — e.g. replacement churn *and* a
/// partition adversary in one run.
///
/// Each child keeps its own wakeup schedule: on a composite tick only the
/// children whose requested instant has arrived are ticked (a child is
/// never ticked early), and the composite's next wakeup is the earlier of
/// the children's. Actions apply in `(a, b)` order within one instant.
pub struct Compose {
    a: Box<dyn ChurnDriver>,
    b: Box<dyn ChurnDriver>,
    next_a: Option<Time>,
    next_b: Option<Time>,
}

impl Compose {
    /// Composes `a` and `b` (same-instant actions apply `a` first).
    pub fn new(a: impl ChurnDriver + 'static, b: impl ChurnDriver + 'static) -> Self {
        let (a, b) = (Box::new(a), Box::new(b));
        let (next_a, next_b) = (a.initial_wakeup(), b.initial_wakeup());
        Compose {
            a,
            b,
            next_a,
            next_b,
        }
    }
}

fn earlier(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

impl ChurnDriver for Compose {
    fn intent(&self) -> DriverIntent {
        let (a, b) = (self.a.intent(), self.b.intent());
        DriverIntent {
            arrivals_finite: a.arrivals_finite && b.arrivals_finite,
            concurrency_finite: a.concurrency_finite && b.concurrency_finite,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        earlier(self.next_a, self.next_b)
    }

    fn on_tick(
        &mut self,
        now: Time,
        graph: &Graph,
        rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>) {
        let mut actions = Vec::new();
        if self.next_a.is_some_and(|t| t <= now) {
            let (acts, next) = self.a.on_tick(now, graph, rng);
            actions.extend(acts);
            self.next_a = next;
        }
        if self.next_b.is_some_and(|t| t <= now) {
            let (acts, next) = self.b.on_tick(now, graph, rng);
            actions.extend(acts);
            self.next_b = next;
        }
        (actions, earlier(self.next_a, self.next_b))
    }

    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        let a = self.a.fork()?;
        let b = self.b.fork()?;
        Some(Box::new(Compose {
            a,
            b,
            next_a: self.next_a,
            next_b: self.next_b,
        }))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u8(5);
        for next in [self.next_a, self.next_b] {
            match next {
                Some(t) => {
                    h.write_bool(true);
                    h.write_u64(t.as_ticks());
                }
                None => h.write_bool(false),
            }
        }
        self.a.fingerprint(h) && self.b.fingerprint(h)
    }
}

/// A scripted driver: an explicit list of `(time, action)` pairs, applied
/// in order. The workhorse of deterministic tests.
#[derive(Debug, Clone, Default)]
pub struct Scripted {
    script: Vec<(Time, ChurnAction)>,
    cursor: usize,
}

impl Scripted {
    /// Creates a driver from a script.
    ///
    /// # Panics
    ///
    /// Panics if the script is not sorted by time.
    pub fn new(script: Vec<(Time, ChurnAction)>) -> Self {
        assert!(
            script.windows(2).all(|w| w[0].0 <= w[1].0),
            "script must be sorted by time"
        );
        Scripted { script, cursor: 0 }
    }
}

impl ChurnDriver for Scripted {
    fn intent(&self) -> DriverIntent {
        DriverIntent {
            arrivals_finite: true,
            concurrency_finite: true,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        self.script.first().map(|(t, _)| *t)
    }

    fn on_tick(
        &mut self,
        now: Time,
        _graph: &Graph,
        _rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>) {
        let mut actions = Vec::new();
        while self.cursor < self.script.len() && self.script[self.cursor].0 <= now {
            actions.push(self.script[self.cursor].1.clone());
            self.cursor += 1;
        }
        let next = self.script.get(self.cursor).map(|(t, _)| *t);
        (actions, next)
    }

    fn fork(&self) -> Option<Box<dyn ChurnDriver>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        // The script itself is run configuration (identical across forks
        // of one root); the cursor is the only mutable state.
        h.write_u8(1);
        h.write_usize(self.cursor);
        h.write_usize(self.script.len());
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
    fn no_churn_never_wakes() {
        let d = NoChurn;
        assert_eq!(d.initial_wakeup(), None);
        assert!(d.intent().arrivals_finite);
    }

    #[test]
    fn balanced_churn_pairs_joins_and_leaves() {
        let spec = ChurnSpec::rate(0.25, TimeDelta::ticks(10)).unwrap();
        let mut d = BalancedChurn::new(spec);
        assert_eq!(d.initial_wakeup(), Some(t(10)));
        let g = generate::ring(8); // 8 members, 25% => exactly 2
        let mut rng = Rng::seeded(0);
        let (actions, next) = d.on_tick(t(10), &g, &mut rng);
        assert_eq!(next, Some(t(20)));
        assert_eq!(actions.len(), 4);
        let joins = actions.iter().filter(|a| **a == ChurnAction::Join).count();
        let leaves = actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Leave(_)))
            .count();
        assert_eq!(joins, 2);
        assert_eq!(leaves, 2);
        // Victims are distinct.
        let mut victims: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                ChurnAction::Leave(p) => Some(*p),
                _ => None,
            })
            .collect();
        victims.dedup();
        assert_eq!(victims.len(), 2);
    }

    #[test]
    fn protected_process_is_never_a_victim() {
        let spec = ChurnSpec::rate(1.0, TimeDelta::ticks(5)).unwrap();
        let mut d = BalancedChurn::new(spec).with_protected(ProcessId::from_raw(0));
        let g = generate::ring(6);
        let mut rng = Rng::seeded(9);
        for tick in 1..20u64 {
            let (actions, _) = d.on_tick(t(tick * 5), &g, &mut rng);
            for a in &actions {
                if let ChurnAction::Leave(p) | ChurnAction::Crash(p) = a {
                    assert_ne!(*p, ProcessId::from_raw(0));
                }
            }
        }
    }

    #[test]
    fn balanced_churn_crash_fraction_one_crashes() {
        let spec = ChurnSpec::rate(0.5, TimeDelta::ticks(5)).unwrap();
        let mut d = BalancedChurn::new(spec).with_crash_fraction(1.0);
        let g = generate::ring(4);
        let mut rng = Rng::seeded(1);
        let (actions, _) = d.on_tick(t(5), &g, &mut rng);
        assert!(actions.iter().any(|a| matches!(a, ChurnAction::Crash(_))));
        assert!(!actions.iter().any(|a| matches!(a, ChurnAction::Leave(_))));
    }

    #[test]
    fn zero_rate_balanced_churn_is_static() {
        let d = BalancedChurn::new(ChurnSpec::none());
        assert_eq!(d.initial_wakeup(), None);
        assert!(d.intent().arrivals_finite);
    }

    #[test]
    fn growth_adds_members() {
        let mut d = Growth {
            growth_per_window: 1.0,
            window: TimeDelta::ticks(4),
            cap: usize::MAX,
        };
        assert!(!d.intent().concurrency_finite);
        let g = generate::ring(5);
        let mut rng = Rng::seeded(2);
        let (actions, next) = d.on_tick(t(4), &g, &mut rng);
        assert_eq!(actions.len(), 5); // doubles
        assert!(actions.iter().all(|a| *a == ChurnAction::Join));
        assert_eq!(next, Some(t(8)));
    }

    #[test]
    fn path_stretch_splices_first_edge() {
        let d_init = ProcessId::from_raw(0);
        let d_wit = ProcessId::from_raw(3);
        let mut d = PathStretch {
            initiator: d_init,
            witness: d_wit,
            window: TimeDelta::ticks(2),
        };
        let g = generate::path(4);
        let mut rng = Rng::seeded(3);
        let (actions, next) = d.on_tick(t(2), &g, &mut rng);
        assert_eq!(
            actions,
            vec![ChurnAction::InsertBetween(
                ProcessId::from_raw(0),
                ProcessId::from_raw(1)
            )]
        );
        assert_eq!(next, Some(t(4)));
    }

    #[test]
    fn path_stretch_without_path_is_idle() {
        let mut d = PathStretch {
            initiator: ProcessId::from_raw(0),
            witness: ProcessId::from_raw(99),
            window: TimeDelta::ticks(2),
        };
        let g = generate::path(2);
        let mut rng = Rng::seeded(4);
        let (actions, next) = d.on_tick(t(2), &g, &mut rng);
        assert!(actions.is_empty());
        assert!(next.is_some(), "keeps trying");
    }

    #[test]
    fn scripted_driver_replays_in_order() {
        let mut d = Scripted::new(vec![
            (t(1), ChurnAction::Join),
            (t(1), ChurnAction::Join),
            (t(5), ChurnAction::LeaveRandom),
        ]);
        assert_eq!(d.initial_wakeup(), Some(t(1)));
        let g = Graph::new();
        let mut rng = Rng::seeded(5);
        let (a1, n1) = d.on_tick(t(1), &g, &mut rng);
        assert_eq!(a1.len(), 2);
        assert_eq!(n1, Some(t(5)));
        let (a2, n2) = d.on_tick(t(5), &g, &mut rng);
        assert_eq!(a2, vec![ChurnAction::LeaveRandom]);
        assert_eq!(n2, None);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn scripted_rejects_unsorted() {
        Scripted::new(vec![(t(5), ChurnAction::Join), (t(1), ChurnAction::Join)]);
    }

    #[test]
    fn compose_ticks_each_child_only_when_due() {
        let a = Scripted::new(vec![(t(2), ChurnAction::Join)]);
        let b = Scripted::new(vec![
            (t(2), ChurnAction::LeaveRandom),
            (t(7), ChurnAction::Join),
        ]);
        let mut d = Compose::new(a, b);
        assert_eq!(d.initial_wakeup(), Some(t(2)));
        let g = Graph::new();
        let mut rng = Rng::seeded(6);
        // Both due at t=2: actions merge a-then-b.
        let (acts, next) = d.on_tick(t(2), &g, &mut rng);
        assert_eq!(acts, vec![ChurnAction::Join, ChurnAction::LeaveRandom]);
        assert_eq!(next, Some(t(7)));
        // Only b is due at t=7; a (exhausted) must not be re-ticked.
        let (acts, next) = d.on_tick(t(7), &g, &mut rng);
        assert_eq!(acts, vec![ChurnAction::Join]);
        assert_eq!(next, None);
    }

    #[test]
    fn compose_intent_is_conjunction() {
        let finite = Scripted::new(vec![(t(1), ChurnAction::Join)]);
        let unbounded = Growth {
            growth_per_window: 0.5,
            window: TimeDelta::ticks(4),
            cap: usize::MAX,
        };
        let d = Compose::new(finite, unbounded);
        let i = d.intent();
        assert!(!i.arrivals_finite);
        assert!(!i.concurrency_finite);
    }
}
