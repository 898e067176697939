//! The actor runtime: how protocol code runs inside the simulated world.
//!
//! A protocol process is an [`Actor`]: a state machine driven by callbacks
//! (`on_start`, `on_message`, `on_timer`, neighbor notifications). Inside a
//! callback the actor interacts with the world only through its
//! [`Context`] — sending messages, setting timers, leaving — which buffers
//! the effects; the kernel applies them after the callback returns. That
//! buffering is what keeps the kernel borrow-safe and the dispatch order
//! deterministic.

use std::any::Any;

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};

use crate::event::TimerId;
use crate::snapshot::StableHasher;

/// A protocol process.
///
/// Implementations must also be `Any` (automatic for `'static` types) so
/// the harness can inspect actor state after a run via
/// [`crate::world::World::actor`].
pub trait Actor<M>: Any {
    /// Called once, right after the process joins the system.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer set through [`Context::set_timer`] expires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// Called when a new neighbor appears in the knowledge graph.
    fn on_neighbor_up(&mut self, ctx: &mut Context<'_, M>, peer: ProcessId) {
        let _ = (ctx, peer);
    }

    /// Called when a new neighbor appears *because the repair rule bridged
    /// around a departure*: `peer` is the new neighbor, `replaced` the
    /// departed process the edge routes around. Delivered before the
    /// corresponding [`Actor::on_neighbor_down`] for `replaced`, so a
    /// protocol waiting on `replaced` can redirect to `peer` first.
    ///
    /// The default delegates to [`Actor::on_neighbor_up`] — protocols that
    /// do not care about the distinction see every new edge uniformly.
    fn on_neighbor_bridge(
        &mut self,
        ctx: &mut Context<'_, M>,
        peer: ProcessId,
        replaced: ProcessId,
    ) {
        let _ = replaced;
        self.on_neighbor_up(ctx, peer);
    }

    /// Called when a neighbor departs (leave or crash — indistinguishable
    /// to the survivor, as in the paper's model).
    fn on_neighbor_down(&mut self, ctx: &mut Context<'_, M>, peer: ProcessId) {
        let _ = (ctx, peer);
    }

    /// Deep-copies this actor for a forked world snapshot, or `None` when
    /// the actor does not support forking (the default).
    ///
    /// Opting in (usually `Some(Box::new(self.clone()))`) lets the
    /// explorer fork a world at a choice point instead of replaying the
    /// decision prefix from scratch. The copy must be *complete*: any
    /// state shared with the original would leak schedule decisions
    /// between exploration branches.
    ///
    /// A world and its forks share an actor until one of them dispatches
    /// to it, and only then is it copied, so whether an actor forks must
    /// depend on its type and configuration, never on its momentary
    /// state: the kernel asks each actor once, and an actor that answered
    /// `Some` and later answers `None` panics the dispatch that needed
    /// the copy.
    fn fork(&self) -> Option<Box<dyn Actor<M>>> {
        None
    }

    /// Absorbs this actor's state into a world fingerprint, returning
    /// `true` when supported. The default (`false`) disables state
    /// deduplication for worlds containing this actor — forking still
    /// works, duplicate states are just re-explored.
    ///
    /// Implementations must hash every field that can influence future
    /// behavior; omitting one can identify divergent states and silently
    /// prune reachable schedules.
    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        let _ = h;
        false
    }

    /// Overwrites this actor's state with arbitrary (adversarially random)
    /// values drawn from `rng`, returning `true` when supported. The
    /// default (`false`) leaves the actor untouched — the transient-
    /// corruption adversary ([`crate::corrupt::CorruptionAdversary`]) then
    /// skips it and the kernel records no corruption event.
    ///
    /// This is the self-stabilization fault model: every reachable *and
    /// unreachable* local state is a legal post-corruption configuration,
    /// so implementations should randomize each mutable field from `rng`
    /// (drawing in a fixed field order keeps runs byte-reproducible).
    /// Immutable wiring (identities, configuration constants) should be
    /// left alone — corruption hits volatile state, not code.
    fn corrupt(&mut self, rng: &mut Rng) -> bool {
        let _ = rng;
        false
    }
}

/// A buffered effect produced by an actor callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Effect<M> {
    Send { to: ProcessId, msg: M },
    SetTimer { id: TimerId, delay: TimeDelta },
    Leave,
}

/// The actor's window onto the world during one callback.
///
/// The effect buffer is borrowed from the kernel and reused across
/// callbacks, so a steady-state run allocates nothing per dispatched
/// event.
#[derive(Debug)]
pub struct Context<'a, M> {
    pid: ProcessId,
    now: Time,
    value: f64,
    neighbors: &'a [ProcessId],
    rng: &'a mut Rng,
    next_timer: &'a mut u64,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(
        pid: ProcessId,
        now: Time,
        value: f64,
        neighbors: &'a [ProcessId],
        rng: &'a mut Rng,
        next_timer: &'a mut u64,
        effects: &'a mut Vec<Effect<M>>,
    ) -> Self {
        Context {
            pid,
            now,
            value,
            neighbors,
            rng,
            next_timer,
            effects,
        }
    }

    /// This process's identity.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The local value this process contributes to aggregations.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The current neighbors in the knowledge graph (a snapshot taken when
    /// the callback began). This is *all* a process may know about the
    /// membership under neighborhood knowledge.
    pub fn neighbors(&self) -> &[ProcessId] {
        self.neighbors
    }

    /// Deterministic per-run randomness for protocol decisions.
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Picks a uniformly random current neighbor (one RNG draw), or `None`
    /// when isolated. Use this instead of `rng().choose(neighbors())` — the
    /// disjoint field borrows are legal here but not through the two
    /// accessor calls, which forced callers to copy the neighbor slice.
    pub fn choose_neighbor(&mut self) -> Option<ProcessId> {
        self.rng.choose(self.neighbors).copied()
    }

    /// Sends `msg` to `to`. Delivery time is sampled from the scenario's
    /// delay model; the message is silently dropped if `to` departs first.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends a clone of `msg` to every current neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for &n in self.neighbors {
            self.effects.push(Effect::Send {
                to: n,
                msg: msg.clone(),
            });
        }
    }

    /// Sets a one-shot timer; [`Actor::on_timer`] fires after `delay`
    /// (rounded up to at least one tick).
    pub fn set_timer(&mut self, delay: TimeDelta) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer {
            id,
            delay: TimeDelta::ticks(delay.as_ticks().max(1)),
        });
        id
    }

    /// Leaves the system gracefully at the end of this callback.
    pub fn leave(&mut self) {
        self.effects.push(Effect::Leave);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_effects_in_order() {
        let mut rng = Rng::seeded(0);
        let mut next_timer = 0;
        let mut effects = Vec::new();
        let neighbors = [ProcessId::from_raw(1), ProcessId::from_raw(2)];
        let mut ctx: Context<'_, &str> = Context::new(
            ProcessId::from_raw(0),
            Time::from_ticks(5),
            3.5,
            &neighbors,
            &mut rng,
            &mut next_timer,
            &mut effects,
        );
        assert_eq!(ctx.pid(), ProcessId::from_raw(0));
        assert_eq!(ctx.now(), Time::from_ticks(5));
        assert_eq!(ctx.value(), 3.5);
        assert_eq!(ctx.neighbors().len(), 2);

        ctx.send(ProcessId::from_raw(1), "hello");
        let id = ctx.set_timer(TimeDelta::ticks(4));
        ctx.leave();
        assert_eq!(id, TimerId(0));
        assert_eq!(ctx.effects.len(), 3);
        assert!(matches!(ctx.effects[0], Effect::Send { .. }));
        assert!(matches!(
            ctx.effects[1],
            Effect::SetTimer {
                id: TimerId(0),
                delay
            } if delay == TimeDelta::ticks(4)
        ));
        assert!(matches!(ctx.effects[2], Effect::Leave));
    }

    #[test]
    fn broadcast_sends_to_each_neighbor() {
        let mut rng = Rng::seeded(0);
        let mut next_timer = 0;
        let mut effects = Vec::new();
        let neighbors = [ProcessId::from_raw(1), ProcessId::from_raw(2)];
        let mut ctx: Context<'_, u8> = Context::new(
            ProcessId::from_raw(0),
            Time::ZERO,
            0.0,
            &neighbors,
            &mut rng,
            &mut next_timer,
            &mut effects,
        );
        ctx.broadcast(9);
        assert_eq!(ctx.effects.len(), 2);
    }

    #[test]
    fn zero_delay_timer_rounds_up() {
        let mut rng = Rng::seeded(0);
        let mut next_timer = 7;
        let mut effects = Vec::new();
        let mut ctx: Context<'_, u8> = Context::new(
            ProcessId::from_raw(0),
            Time::ZERO,
            0.0,
            &[],
            &mut rng,
            &mut next_timer,
            &mut effects,
        );
        let id = ctx.set_timer(TimeDelta::ZERO);
        assert_eq!(id, TimerId(7));
        assert!(matches!(
            ctx.effects[0],
            Effect::SetTimer { delay, .. } if delay == TimeDelta::TICK
        ));
        assert_eq!(next_timer, 8);
    }
}
