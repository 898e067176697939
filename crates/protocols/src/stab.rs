//! Self-stabilizing protocols: token circulation and neighborhood views
//! that recover a legal configuration from *arbitrary* corrupted state.
//!
//! Self-stabilization (Dijkstra 1974) is the classic answer to transient
//! faults in long-lived systems — exactly the regime a dynamic distributed
//! system lives in, where "the system" outlives any particular
//! configuration of its processes. This module makes the paper's dynamic
//! vocabulary meet that tradition:
//!
//! - [`DijkstraRing`] — the K-state token-circulation protocol on a ring,
//!   message-passing form: each process periodically announces its value
//!   to its ring successor; the *bottom* process increments (mod K) when
//!   its predecessor agrees with it, every other process copies its
//!   predecessor when they disagree. Legality ([`token_legal`]) is
//!   "exactly one privilege"; from any corrupted configuration with
//!   `K ≥ n` the ring re-converges to a single circulating token.
//! - [`ViewActor`] — a purge-based self-stabilizing membership view: the
//!   probe-every-`period` / evict-after-`purge_after` discipline makes the
//!   local view itself stabilizing. Phantom members injected by state
//!   corruption go silent and are purged; real neighbors dropped by
//!   corruption are re-added by their next probe. Legality
//!   ([`views_legal`]) is "every local view equals the kernel
//!   neighborhood".
//!
//! Both actors implement the full exploration surface — `fork`,
//! `fingerprint`, and the [`Actor::corrupt`] hook the transient-corruption
//! adversary ([`CorruptionAdversary`]) drives — and both carry a mutant
//! twin for the convergence checker: a copy-rule skew for the ring
//! ([`DijkstraRing::with_skew_mutation`]) and eviction disabled for the
//! view ([`ViewActor::without_eviction`]). [`StabScenario`] packages a
//! measured run: corrupt at a chosen instant, then count ticks until the
//! system is legal *and stays legal* through the deadline.

use std::collections::BTreeMap;

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_sim::actor::{Actor, Context};
use dds_sim::corrupt::{Burst, CorruptionAdversary};
use dds_sim::delay::DelayModel;
use dds_sim::driver::{BalancedChurn, ChurnDriver, Compose};
use dds_sim::event::TimerId;
use dds_sim::metrics::Metrics;
use dds_sim::snapshot::{FingerprintMsg, StableHasher};
use dds_sim::world::{World, WorldBuilder};

/// The K-state protocol's only message: "my value is `v`", sent to the
/// ring successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenMsg(pub u64);

impl FingerprintMsg for TokenMsg {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u64(self.0);
    }
}

/// The view protocol's only message: "I am here".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeMsg;

impl FingerprintMsg for ProbeMsg {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u8(0);
    }
}

/// Message-corruption hook for token worlds: a scrambled announcement is
/// an arbitrary value (receivers clamp into the K-state space, modelling a
/// register that physically holds only K states).
pub fn scramble_token(msg: &mut TokenMsg, rng: &mut Rng) {
    msg.0 = rng.below(1 << 16);
}

/// One process of Dijkstra's K-state token-circulation protocol.
///
/// The ring is fixed wiring (successor identity, bottom flag, K) baked in
/// at spawn; `value`, the cached predecessor value, and the move counter
/// are the volatile state the corruption adversary may overwrite.
#[derive(Debug, Clone)]
pub struct DijkstraRing {
    k: u64,
    bottom: bool,
    succ: ProcessId,
    period: TimeDelta,
    value: u64,
    pred_value: Option<u64>,
    tick: Option<TimerId>,
    moves: u64,
    /// The convergence-checker mutant: non-bottom processes copy
    /// `pred + 1 (mod K)` instead of `pred`, so a mover stays privileged
    /// forever and the ring never reaches a single token.
    skew: bool,
}

impl DijkstraRing {
    /// Creates one ring process: `k` states, whether it is the bottom
    /// (privilege-regenerating) process, its ring successor, and the
    /// announcement period.
    ///
    /// # Panics
    ///
    /// Panics unless `k >= 2` (the protocol needs at least two states;
    /// stabilization from arbitrary state needs `k >= n`).
    pub fn new(k: u64, bottom: bool, succ: ProcessId, period: TimeDelta) -> Self {
        assert!(k >= 2, "the K-state protocol needs k >= 2");
        DijkstraRing {
            k,
            bottom,
            succ,
            period,
            value: 0,
            pred_value: None,
            tick: None,
            moves: 0,
            skew: false,
        }
    }

    /// Enables the copy-rule skew mutant (see the `skew` field).
    pub fn with_skew_mutation(mut self) -> Self {
        self.skew = true;
        self
    }

    /// Starts this process in an explicit (possibly illegal) state —
    /// deterministic corruption for exhaustively explorable check targets.
    pub fn with_state(mut self, value: u64, pred_value: Option<u64>) -> Self {
        self.value = value % self.k;
        self.pred_value = pred_value.map(|v| v % self.k);
        self
    }

    /// The current K-state value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Privileged moves made so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Whether this process holds a privilege *as it sees it* (based on
    /// its possibly stale cached predecessor value). The ground-truth
    /// legality predicate is [`token_legal`], over true values.
    pub fn privileged(&self) -> bool {
        match self.pred_value {
            None => false,
            Some(p) => {
                if self.bottom {
                    p == self.value
                } else {
                    p != self.value
                }
            }
        }
    }

    fn step(&mut self, ctx: &mut Context<'_, TokenMsg>) {
        if let Some(p) = self.pred_value {
            if self.bottom && p == self.value {
                self.value = (self.value + 1) % self.k;
                self.moves += 1;
            } else if !self.bottom && p != self.value {
                self.value = if self.skew { (p + 1) % self.k } else { p };
                self.moves += 1;
            }
        }
        ctx.send(self.succ, TokenMsg(self.value));
        self.tick = Some(ctx.set_timer(self.period));
    }
}

impl Actor<TokenMsg> for DijkstraRing {
    fn on_start(&mut self, ctx: &mut Context<'_, TokenMsg>) {
        self.step(ctx);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, TokenMsg>, _from: ProcessId, msg: TokenMsg) {
        // Clamp into the K-state space: a scrambled payload is still one
        // of the register's K physical states.
        self.pred_value = Some(msg.0 % self.k);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TokenMsg>, timer: TimerId) {
        if Some(timer) == self.tick {
            self.step(ctx);
        }
    }

    fn fork(&self) -> Option<Box<dyn Actor<TokenMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u64(self.k);
        h.write_bool(self.bottom);
        h.write_u64(self.succ.as_raw());
        h.write_u64(self.period.as_ticks());
        h.write_u64(self.value);
        match self.pred_value {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                h.write_u64(v);
            }
        }
        match self.tick {
            None => h.write_u8(0),
            Some(t) => {
                h.write_u8(1);
                h.write_u64(t.as_raw());
            }
        }
        h.write_u64(self.moves);
        h.write_bool(self.skew);
        true
    }

    fn corrupt(&mut self, rng: &mut Rng) -> bool {
        // Volatile state only: value and the cached predecessor value.
        // The periodic timer is the protocol's clock source — like the
        // program counter, it is outside the transient-fault model.
        self.value = rng.below(self.k);
        self.pred_value = Some(rng.below(self.k));
        true
    }
}

/// Number of privileges in the ring, computed over **true** values in
/// ring (identity) order: the bottom (index 0) is privileged when its
/// value equals its predecessor's (the last process), every other when
/// its value differs from its predecessor's. Processes missing from the
/// world count as a privilege so an incomplete ring is never legal.
pub fn token_privileges(world: &World<TokenMsg>, ring: &[ProcessId]) -> usize {
    let n = ring.len();
    if n == 0 {
        return 0;
    }
    let values: Vec<Option<u64>> = ring
        .iter()
        .map(|&p| world.actor::<DijkstraRing>(p).map(DijkstraRing::value))
        .collect();
    let mut privileges = 0;
    for i in 0..n {
        let (Some(v), Some(prev)) = (values[i], values[(i + n - 1) % n]) else {
            privileges += 1;
            continue;
        };
        let privileged = if i == 0 { v == prev } else { v != prev };
        if privileged {
            privileges += 1;
        }
    }
    privileges
}

/// The K-state legality predicate: exactly one privilege in the ring.
/// `Err` names how many there are.
pub fn token_legal(world: &World<TokenMsg>, ring: &[ProcessId]) -> Result<(), String> {
    match token_privileges(world, ring) {
        1 => Ok(()),
        n => Err(format!("{n} privileges in the ring")),
    }
}

/// Phantom identities injected by view corruption live far above any real
/// identity the kernel allocates, so a phantom is never accidentally a
/// live neighbor (which would make the injected damage a silent no-op).
const PHANTOM_BASE: u64 = 1 << 32;

/// A purge-based self-stabilizing neighborhood view.
///
/// Probes every `period`; evicts entries silent for more than
/// `purge_after`. Kernel neighbor notifications keep the view exact under
/// churn; the probe/purge discipline is what recovers it from *state
/// corruption* — phantom entries go silent and are purged, dropped real
/// neighbors are re-added by their next probe.
#[derive(Debug, Clone)]
pub struct ViewActor {
    period: TimeDelta,
    purge_after: TimeDelta,
    /// The convergence-checker mutant when `false`: stale entries are
    /// never evicted, so corruption-injected phantoms persist forever.
    evict: bool,
    last_heard: BTreeMap<ProcessId, Time>,
    tick: Option<TimerId>,
    purges: u64,
}

impl ViewActor {
    /// Creates a view maintainer probing every `period` and evicting
    /// after `purge_after` of silence.
    ///
    /// # Panics
    ///
    /// Panics unless `purge_after > period` (a live neighbor must survive
    /// the gap between its probes).
    pub fn new(period: TimeDelta, purge_after: TimeDelta) -> Self {
        assert!(
            purge_after > period,
            "purge threshold must exceed the probe period"
        );
        ViewActor {
            period,
            purge_after,
            evict: true,
            last_heard: BTreeMap::new(),
            tick: None,
            purges: 0,
        }
    }

    /// Disables eviction — the non-stabilizing mutant.
    pub fn without_eviction(mut self) -> Self {
        self.evict = false;
        self
    }

    /// Starts with a phantom entry already in the view — deterministic
    /// corruption for exhaustively explorable check targets.
    pub fn with_phantom(mut self, pid: ProcessId) -> Self {
        self.last_heard.insert(pid, Time::ZERO);
        self
    }

    /// The current view: every identity this process believes to be a
    /// neighbor.
    pub fn view(&self) -> Vec<ProcessId> {
        self.last_heard.keys().copied().collect()
    }

    /// Stale entries evicted so far.
    pub fn purges(&self) -> u64 {
        self.purges
    }

    fn beat(&mut self, ctx: &mut Context<'_, ProbeMsg>) {
        ctx.broadcast(ProbeMsg);
        if self.evict {
            let now = ctx.now();
            let threshold = self.purge_after;
            let before = self.last_heard.len();
            self.last_heard
                .retain(|_, heard| now.saturating_since(*heard) <= threshold);
            self.purges += (before - self.last_heard.len()) as u64;
        }
        self.tick = Some(ctx.set_timer(self.period));
    }
}

impl Actor<ProbeMsg> for ViewActor {
    fn on_start(&mut self, ctx: &mut Context<'_, ProbeMsg>) {
        let now = ctx.now();
        for &n in ctx.neighbors() {
            self.last_heard.insert(n, now);
        }
        self.beat(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProbeMsg>, from: ProcessId, _: ProbeMsg) {
        self.last_heard.insert(from, ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProbeMsg>, timer: TimerId) {
        if Some(timer) == self.tick {
            self.beat(ctx);
        }
    }

    fn on_neighbor_up(&mut self, ctx: &mut Context<'_, ProbeMsg>, peer: ProcessId) {
        self.last_heard.insert(peer, ctx.now());
    }

    fn on_neighbor_down(&mut self, _ctx: &mut Context<'_, ProbeMsg>, peer: ProcessId) {
        self.last_heard.remove(&peer);
    }

    fn fork(&self) -> Option<Box<dyn Actor<ProbeMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u64(self.period.as_ticks());
        h.write_u64(self.purge_after.as_ticks());
        h.write_bool(self.evict);
        h.write_usize(self.last_heard.len());
        for (p, t) in &self.last_heard {
            h.write_u64(p.as_raw());
            h.write_u64(t.as_ticks());
        }
        match self.tick {
            None => h.write_u8(0),
            Some(t) => {
                h.write_u8(1);
                h.write_u64(t.as_raw());
            }
        }
        h.write_u64(self.purges);
        true
    }

    fn corrupt(&mut self, rng: &mut Rng) -> bool {
        // One or two phantom members, backdated to the origin so a purging
        // view eventually notices their silence; then possibly drop one
        // real entry (the next probe restores it). Draw order is fixed, so
        // one seed fully determines the damage.
        let phantoms = 1 + rng.below(2);
        for _ in 0..phantoms {
            let phantom = ProcessId::from_raw(PHANTOM_BASE + rng.below(1 << 10));
            self.last_heard.insert(phantom, Time::ZERO);
        }
        if !self.last_heard.is_empty() && rng.chance(0.5) {
            let victim = self
                .last_heard
                .keys()
                .nth(rng.index(self.last_heard.len()))
                .copied();
            if let Some(v) = victim {
                self.last_heard.remove(&v);
            }
        }
        true
    }
}

/// The view legality predicate: every member's view equals its kernel
/// neighborhood, exactly. `Err` names the first member, in identity
/// order, whose view is missing or differs.
pub fn views_legal(world: &World<ProbeMsg>) -> Result<(), String> {
    for &p in world.members() {
        let Some(actor) = world.actor::<ViewActor>(p) else {
            return Err(format!("process {p} has no view actor"));
        };
        let kernel = world.graph().neighbors(p).unwrap_or(&[]);
        let view = actor.view();
        if view != kernel {
            return Err(format!(
                "process {p}: view {view:?} != neighborhood {kernel:?}"
            ));
        }
    }
    Ok(())
}

/// Runs `world` tick by tick from `from` to `deadline` and returns how
/// many ticks after `from` the closed legal suffix begins: the earliest
/// sampled instant from which `legal` holds at **every** later sample
/// through the deadline ("eventually legal and stays legal", at tick
/// granularity). `None` when no such suffix exists.
pub fn measure_stabilization<M: Clone + 'static>(
    world: &mut World<M>,
    from: Time,
    deadline: Time,
    legal: impl Fn(&World<M>) -> bool,
) -> Option<u64> {
    let mut suffix_start = None;
    let mut t = from;
    while t < deadline {
        t += TimeDelta::TICK;
        world.run_until(t);
        if legal(world) {
            suffix_start.get_or_insert(t);
        } else {
            suffix_start = None;
        }
    }
    suffix_start.map(|s| s.saturating_since(from).as_ticks())
}

/// Which self-stabilizing protocol a [`StabScenario`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabProtocol {
    /// [`DijkstraRing`] on an `n`-ring with `K = n + 1`, judged by
    /// [`token_legal`]. Fixed membership (the ring is the protocol's
    /// wiring); corruption may still cut ring edges transiently.
    TokenRing,
    /// [`ViewActor`] on an `n`-ring, judged by [`views_legal`]. Composes
    /// with balanced replacement churn via `churn_rate`.
    View,
}

/// A fully specified stabilization measurement: build the world, inject
/// one corruption burst at `corrupt_at`, then count ticks to the closed
/// legal suffix (see [`measure_stabilization`]).
#[derive(Debug, Clone, Copy)]
pub struct StabScenario {
    /// Protocol under test.
    pub protocol: StabProtocol,
    /// Ring size.
    pub n: usize,
    /// Determinism seed.
    pub seed: u64,
    /// The corruption burst injected at `corrupt_at`.
    pub burst: Burst,
    /// Burst instant (ticks); the system has stabilized from its initial
    /// configuration well before a default of 20.
    pub corrupt_at: u64,
    /// Measurement horizon (ticks).
    pub deadline: u64,
    /// Balanced replacement churn rate composed with the adversary
    /// (`View` only; the token ring's wiring is fixed).
    pub churn_rate: f64,
    /// Runs the protocol's non-stabilizing mutant twin instead.
    pub mutant: bool,
}

impl StabScenario {
    /// A baseline scenario: the given protocol on an `n`-ring, a
    /// two-actor burst at tick 20, no churn, 500-tick horizon.
    pub fn new(protocol: StabProtocol, n: usize, seed: u64) -> Self {
        StabScenario {
            protocol,
            n,
            seed,
            burst: Burst::actors(2),
            corrupt_at: 20,
            deadline: 520,
            churn_rate: 0.0,
            mutant: false,
        }
    }

    /// Runs the scenario once.
    pub fn run(&self) -> StabOutcome {
        match self.protocol {
            StabProtocol::TokenRing => self.run_token(),
            StabProtocol::View => self.run_view(),
        }
    }

    fn adversary(&self) -> CorruptionAdversary {
        CorruptionAdversary::scripted(vec![(Time::from_ticks(self.corrupt_at), self.burst)])
    }

    fn run_token(&self) -> StabOutcome {
        let n = self.n;
        let k = n as u64 + 1;
        let period = TimeDelta::ticks(2);
        let mutant = self.mutant;
        let mut world: World<TokenMsg> = WorldBuilder::new(self.seed)
            .initial_graph(generate::ring(n))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .driver(self.adversary())
            .corrupt_msg(scramble_token)
            .spawn(move |pid| {
                let raw = pid.as_raw();
                let succ = ProcessId::from_raw((raw + 1) % n as u64);
                let actor = DijkstraRing::new(k, raw == 0, succ, period);
                Box::new(if mutant {
                    actor.with_skew_mutation()
                } else {
                    actor
                })
            })
            .build();
        let ring: Vec<ProcessId> = (0..n as u64).map(ProcessId::from_raw).collect();
        let from = Time::from_ticks(self.corrupt_at);
        world.run_until(from);
        let ticks = measure_stabilization(&mut world, from, Time::from_ticks(self.deadline), |w| {
            token_legal(w, &ring).is_ok()
        });
        StabOutcome {
            ticks_to_legal: ticks,
            metrics: *world.metrics(),
        }
    }

    fn run_view(&self) -> StabOutcome {
        let period = TimeDelta::ticks(2);
        let purge_after = TimeDelta::ticks(6);
        let mutant = self.mutant;
        let driver: Box<dyn ChurnDriver> = if self.churn_rate > 0.0 {
            let spec = ChurnSpec::rate(self.churn_rate, TimeDelta::ticks(16))
                .expect("stab scenario churn rate must be valid");
            Box::new(Compose::new(BalancedChurn::new(spec), self.adversary()))
        } else {
            Box::new(self.adversary())
        };
        let mut world: World<ProbeMsg> = WorldBuilder::new(self.seed)
            .initial_graph(generate::ring(self.n))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .boxed_driver(driver)
            .spawn(move |_| {
                let actor = ViewActor::new(period, purge_after);
                Box::new(if mutant {
                    actor.without_eviction()
                } else {
                    actor
                })
            })
            .build();
        let from = Time::from_ticks(self.corrupt_at);
        world.run_until(from);
        let ticks = measure_stabilization(&mut world, from, Time::from_ticks(self.deadline), |w| {
            views_legal(w).is_ok()
        });
        StabOutcome {
            ticks_to_legal: ticks,
            metrics: *world.metrics(),
        }
    }
}

/// What one stabilization run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabOutcome {
    /// Ticks from the burst instant to the start of the legal suffix that
    /// holds through the deadline; `None` when the system never (re)joined
    /// a closed legal configuration — the mutants' signature.
    pub ticks_to_legal: Option<u64>,
    /// The run's kernel counters: `corruptions` counts actor flips and
    /// scrambled payloads, `sends` the messages of the whole run.
    pub metrics: Metrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    #[test]
    fn clean_ring_is_legal_from_the_start() {
        let s = StabScenario::new(StabProtocol::TokenRing, 6, 1);
        let mut clean = s;
        clean.burst = Burst::default();
        let out = clean.run();
        assert_eq!(out.metrics.corruptions, 0);
        assert_eq!(out.ticks_to_legal, Some(1), "all-zero values are legal");
    }

    #[test]
    fn token_ring_recovers_from_state_corruption() {
        for seed in 0..5 {
            let mut s = StabScenario::new(StabProtocol::TokenRing, 6, seed);
            s.burst = Burst::actors(3);
            let out = s.run();
            assert!(out.metrics.corruptions >= 3, "burst landed: {out:?}");
            let ticks = out.ticks_to_legal.expect("K-state ring must stabilize");
            assert!(ticks < 500, "within the horizon: {ticks}");
        }
    }

    #[test]
    fn token_ring_recovers_from_queue_scramble_and_edge_cuts() {
        let mut s = StabScenario::new(StabProtocol::TokenRing, 6, 7);
        s.burst = Burst::actors(2).with_scramble().with_edge_cuts(2);
        let out = s.run();
        assert!(out.ticks_to_legal.is_some(), "got {out:?}");
    }

    #[test]
    fn token_skew_mutant_never_stabilizes() {
        for seed in 0..3 {
            let mut s = StabScenario::new(StabProtocol::TokenRing, 6, seed);
            s.burst = Burst::actors(3);
            s.mutant = true;
            let out = s.run();
            assert_eq!(out.ticks_to_legal, None, "seed {seed}: {out:?}");
        }
    }

    #[test]
    fn view_recovers_from_phantom_injection() {
        for seed in 0..5 {
            let mut s = StabScenario::new(StabProtocol::View, 8, seed);
            s.burst = Burst::actors(3);
            let out = s.run();
            assert!(out.metrics.corruptions >= 3);
            let ticks = out.ticks_to_legal.expect("purging views must stabilize");
            // Phantoms are evicted within one purge threshold plus a probe
            // round; dropped real entries return with the next probe.
            assert!(ticks <= 20, "purge discipline is fast: {ticks}");
        }
    }

    #[test]
    fn view_mutant_keeps_phantoms_forever() {
        let mut s = StabScenario::new(StabProtocol::View, 8, 2);
        s.burst = Burst::actors(2);
        s.mutant = true;
        let out = s.run();
        assert_eq!(out.ticks_to_legal, None, "got {out:?}");
    }

    #[test]
    fn view_stabilizes_under_churn() {
        let mut s = StabScenario::new(StabProtocol::View, 8, 3);
        s.burst = Burst::actors(2);
        s.churn_rate = 0.1;
        let out = s.run();
        assert!(out.ticks_to_legal.is_some(), "got {out:?}");
    }

    #[test]
    fn stab_runs_are_deterministic() {
        let mut s = StabScenario::new(StabProtocol::TokenRing, 6, 11);
        s.burst = Burst::actors(2).with_scramble();
        assert_eq!(s.run(), s.run());
        let mut v = StabScenario::new(StabProtocol::View, 8, 11);
        v.burst = Burst::actors(2);
        v.churn_rate = 0.05;
        assert_eq!(v.run(), v.run());
    }

    #[test]
    fn deterministic_corrupt_start_states_converge() {
        // The check-target form: no adversary, the corruption is baked
        // into the spawn closure, so exploration sees one deterministic
        // illegal start.
        let n = 4u64;
        let k = n + 1;
        let mut world: World<TokenMsg> = WorldBuilder::new(0)
            .initial_graph(generate::ring(n as usize))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .spawn(move |p| {
                let raw = p.as_raw();
                let succ = pid((raw + 1) % n);
                Box::new(
                    DijkstraRing::new(k, raw == 0, succ, TimeDelta::ticks(2))
                        .with_state(raw % k, Some((raw + 2) % k)),
                )
            })
            .build();
        let ring: Vec<ProcessId> = (0..n).map(pid).collect();
        let ticks = measure_stabilization(&mut world, Time::ZERO, Time::from_ticks(300), |w| {
            token_legal(w, &ring).is_ok()
        });
        assert!(ticks.is_some());
        let mover = world.actor::<DijkstraRing>(pid(0)).unwrap();
        assert!(mover.moves() > 0, "the bottom regenerated the token");
    }

    #[test]
    fn phantom_start_state_is_purged() {
        let mut world: World<ProbeMsg> = WorldBuilder::new(0)
            .initial_graph(generate::ring(4))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .spawn(|p| {
                let actor = ViewActor::new(TimeDelta::ticks(2), TimeDelta::ticks(6));
                Box::new(if p == pid(1) {
                    actor.with_phantom(pid(99))
                } else {
                    actor
                })
            })
            .build();
        assert!(views_legal(&world).is_err() || world.members().is_empty());
        let ticks = measure_stabilization(&mut world, Time::ZERO, Time::from_ticks(100), |w| {
            views_legal(w).is_ok()
        });
        assert!(ticks.is_some(), "phantom must be purged");
        let a = world.actor::<ViewActor>(pid(1)).unwrap();
        assert!(a.purges() >= 1);
        assert!(!a.view().contains(&pid(99)));
    }

    #[test]
    fn kernel_departure_updates_the_view_without_a_purge() {
        // Ring 0-1-2-3-4-0; p1 leaves at t=10 and bridging connects 0-2.
        // The kernel's notifications drop p1 and adopt p2 at once: no
        // timeout has to expire.
        use dds_sim::driver::{ChurnAction, Scripted};
        let mut world: World<ProbeMsg> = WorldBuilder::new(2)
            .initial_graph(generate::ring(5))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .driver(Scripted::new(vec![(
                Time::from_ticks(10),
                ChurnAction::Leave(pid(1)),
            )]))
            .spawn(|_| Box::new(ViewActor::new(TimeDelta::ticks(2), TimeDelta::ticks(7))))
            .build();
        world.run_until(Time::from_ticks(11));
        let a = world.actor::<ViewActor>(pid(0)).unwrap();
        assert!(!a.view().contains(&pid(1)), "departure removes p1");
        assert!(a.view().contains(&pid(2)), "bridge edge 0-2 adopted");
        assert_eq!(a.purges(), 0);
    }

    #[test]
    fn privileges_counts_missing_processes_as_illegal() {
        let world: World<TokenMsg> = WorldBuilder::new(0)
            .initial_graph(generate::ring(3))
            .spawn(|p| {
                Box::new(DijkstraRing::new(
                    4,
                    p.as_raw() == 0,
                    pid((p.as_raw() + 1) % 3),
                    TimeDelta::ticks(2),
                ))
            })
            .build();
        let ghost = [pid(0), pid(1), pid(7)];
        assert!(token_legal(&world, &ghost).is_err());
    }

    /// The illegality the checker's stab subjects report as a
    /// violation's details: two privileges on a corrupted ring.
    #[test]
    fn token_legal_names_the_privilege_count() {
        let world: World<TokenMsg> = WorldBuilder::new(0)
            .initial_graph(generate::ring(3))
            .spawn(|p| {
                let raw = p.as_raw();
                Box::new(
                    DijkstraRing::new(4, raw == 0, pid((raw + 1) % 3), TimeDelta::ticks(2))
                        .with_state([0, 2, 1][raw as usize], None),
                )
            })
            .build();
        let ring: Vec<ProcessId> = (0..3).map(pid).collect();
        assert_eq!(
            token_legal(&world, &ring),
            Err("2 privileges in the ring".to_string())
        );
    }

    /// A phantom neighbor in one view is named with both sides of the
    /// mismatch; an unseeded ring is legal from the start.
    #[test]
    fn views_legal_names_the_phantom_view() {
        let build = |phantom: bool| -> World<ProbeMsg> {
            WorldBuilder::new(0)
                .initial_graph(generate::ring(3))
                .spawn(move |p| {
                    let actor = ViewActor::new(TimeDelta::ticks(2), TimeDelta::ticks(6));
                    Box::new(if phantom && p == pid(1) {
                        actor.with_phantom(pid(99))
                    } else {
                        actor
                    })
                })
                .build()
        };
        assert_eq!(views_legal(&build(false)), Ok(()));
        assert_eq!(
            views_legal(&build(true)),
            Err(
                "process p1: view [ProcessId(0), ProcessId(2), ProcessId(99)] \
                 != neighborhood [ProcessId(0), ProcessId(2)]"
                    .to_string()
            )
        );
    }
}
