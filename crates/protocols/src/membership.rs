//! Heartbeat-based local membership: how a process maintains its
//! neighborhood view.
//!
//! Under neighborhood knowledge, "the system" as seen from one process is
//! its local view, and keeping that view current is itself a protocol. The
//! [`HeartbeatActor`] beats every `period`, suspects a neighbor after
//! `suspect_after` silent ticks, and rehabilitates it on the next beat.
//!
//! The view is exactly the failure-detector-style abstraction the paper
//! alludes to when noting that in a dynamic system a process "possibly will
//! never be able to know the whole system": everything a process can act
//! on is here.

use std::collections::BTreeMap;

use dds_core::process::ProcessId;
use dds_core::time::{Time, TimeDelta};
use dds_sim::actor::{Actor, Context};
use dds_sim::event::TimerId;

/// Messages of the heartbeat protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatMsg {
    /// "I am alive."
    Beat,
}

/// One process's view of a neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborStatus {
    /// Recently heard from.
    Alive,
    /// Silent past the suspicion threshold.
    Suspected,
}

/// A heartbeat-maintained neighborhood view.
#[derive(Debug)]
pub struct HeartbeatActor {
    period: TimeDelta,
    suspect_after: TimeDelta,
    last_heard: BTreeMap<ProcessId, Time>,
    status: BTreeMap<ProcessId, NeighborStatus>,
    tick: Option<TimerId>,
    /// Count of (neighbor, transition-to-suspected) events, for accuracy
    /// metrics.
    suspicions_raised: u64,
}

impl HeartbeatActor {
    /// Creates a detector beating every `period` and suspecting after
    /// `suspect_after` of silence.
    ///
    /// # Panics
    ///
    /// Panics unless `suspect_after > period` (otherwise every neighbor is
    /// immediately suspected).
    pub fn new(period: TimeDelta, suspect_after: TimeDelta) -> Self {
        assert!(
            suspect_after > period,
            "suspicion threshold must exceed the beat period"
        );
        HeartbeatActor {
            period,
            suspect_after,
            last_heard: BTreeMap::new(),
            status: BTreeMap::new(),
            tick: None,
            suspicions_raised: 0,
        }
    }

    /// The current view: neighbors and their status.
    pub fn view(&self) -> &BTreeMap<ProcessId, NeighborStatus> {
        &self.status
    }

    /// Neighbors currently considered alive.
    pub fn alive(&self) -> Vec<ProcessId> {
        self.status
            .iter()
            .filter(|(_, s)| **s == NeighborStatus::Alive)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Total suspicion transitions raised so far.
    pub fn suspicions_raised(&self) -> u64 {
        self.suspicions_raised
    }

    fn beat(&mut self, ctx: &mut Context<'_, HeartbeatMsg>) {
        ctx.broadcast(HeartbeatMsg::Beat);
        // Re-evaluate the view.
        let now = ctx.now();
        for (&peer, status) in self.status.iter_mut() {
            let heard = self.last_heard.get(&peer).copied().unwrap_or(Time::ZERO);
            let silent = now.saturating_since(heard);
            if silent > self.suspect_after && *status == NeighborStatus::Alive {
                *status = NeighborStatus::Suspected;
                self.suspicions_raised += 1;
            }
        }
        self.tick = Some(ctx.set_timer(self.period));
    }
}

impl Actor<HeartbeatMsg> for HeartbeatActor {
    fn on_start(&mut self, ctx: &mut Context<'_, HeartbeatMsg>) {
        for &n in ctx.neighbors() {
            self.status.insert(n, NeighborStatus::Alive);
            self.last_heard.insert(n, ctx.now());
        }
        self.beat(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, HeartbeatMsg>,
        from: ProcessId,
        _: HeartbeatMsg,
    ) {
        self.last_heard.insert(from, ctx.now());
        let prev = self.status.insert(from, NeighborStatus::Alive);
        if prev.is_none() {
            // A beat can precede the neighbor-up notification; both paths
            // insert the peer.
        }
    }

    fn on_neighbor_up(&mut self, ctx: &mut Context<'_, HeartbeatMsg>, peer: ProcessId) {
        self.status.entry(peer).or_insert(NeighborStatus::Alive);
        self.last_heard.entry(peer).or_insert(ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, HeartbeatMsg>, timer: TimerId) {
        if Some(timer) == self.tick {
            self.beat(ctx);
        }
    }

    fn on_neighbor_down(&mut self, _ctx: &mut Context<'_, HeartbeatMsg>, peer: ProcessId) {
        // Kernel-confirmed departure: remove outright (stronger information
        // than a timeout-based suspicion).
        self.status.remove(&peer);
        self.last_heard.remove(&peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_net::generate;
    use dds_sim::delay::DelayModel;
    use dds_sim::driver::{ChurnAction, Scripted};
    use dds_sim::world::{World, WorldBuilder};

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn hb() -> HeartbeatActor {
        HeartbeatActor::new(TimeDelta::ticks(2), TimeDelta::ticks(7))
    }

    fn world_with(driver: Scripted, seed: u64) -> World<HeartbeatMsg> {
        WorldBuilder::new(seed)
            .initial_graph(generate::ring(5))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .driver(driver)
            .spawn(|_| Box::new(hb()))
            .build()
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn constructor_validates_threshold() {
        HeartbeatActor::new(TimeDelta::ticks(5), TimeDelta::ticks(5));
    }

    #[test]
    fn stable_ring_stays_alive() {
        let mut w = world_with(Scripted::new(vec![]), 1);
        w.run_until(Time::from_ticks(60));
        for p in 0..5 {
            let a: &HeartbeatActor = w.actor(pid(p)).unwrap();
            assert_eq!(a.alive().len(), 2, "p{p} sees both ring neighbors");
            assert_eq!(a.suspicions_raised(), 0);
        }
    }

    #[test]
    fn kernel_departure_removes_neighbor_immediately() {
        let mut w = world_with(
            Scripted::new(vec![(Time::from_ticks(10), ChurnAction::Leave(pid(1)))]),
            2,
        );
        w.run_until(Time::from_ticks(40));
        let a: &HeartbeatActor = w.actor(pid(0)).unwrap();
        assert!(!a.view().contains_key(&pid(1)));
    }

    #[test]
    fn view_tracks_bridged_edges_after_departure() {
        // Ring 0-1-2-3-4-0; p1 leaves; bridging connects 0-2.
        let mut w = world_with(
            Scripted::new(vec![(Time::from_ticks(10), ChurnAction::Leave(pid(1)))]),
            3,
        );
        w.run_until(Time::from_ticks(40));
        let a: &HeartbeatActor = w.actor(pid(0)).unwrap();
        assert!(a.view().contains_key(&pid(2)), "bridge edge 0-2 adopted");
    }

    #[test]
    fn heartbeats_keep_flowing() {
        let mut w = world_with(Scripted::new(vec![]), 5);
        w.run_until(Time::from_ticks(20));
        let early = w.metrics().sends;
        w.run_until(Time::from_ticks(60));
        assert!(
            w.metrics().sends >= 2 * early,
            "beats must continue: {} then {}",
            early,
            w.metrics().sends
        );
    }

    #[test]
    fn heavy_loss_raises_false_suspicions() {
        use dds_sim::delay::LossModel;
        let mut w: World<HeartbeatMsg> = dds_sim::world::WorldBuilder::new(6)
            .initial_graph(generate::ring(8))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .loss(LossModel::Bernoulli(0.4))
            .spawn(|_| {
                Box::new(HeartbeatActor::new(
                    TimeDelta::ticks(2),
                    TimeDelta::ticks(5),
                ))
            })
            .build();
        w.run_until(Time::from_ticks(300));
        let total: u64 = w
            .members()
            .iter()
            .map(|&p| w.actor::<HeartbeatActor>(p).unwrap().suspicions_raised())
            .sum();
        assert!(total > 0, "40% loss must eventually look like a failure");
    }

    #[test]
    fn view_is_local_not_global() {
        let mut w = world_with(Scripted::new(vec![]), 4);
        w.run_until(Time::from_ticks(30));
        let a: &HeartbeatActor = w.actor(pid(0)).unwrap();
        // p0 knows its ring neighbors p1, p4 — and nothing of p2, p3.
        assert!(!a.view().contains_key(&pid(2)));
        assert!(!a.view().contains_key(&pid(3)));
    }
}
