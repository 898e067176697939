//! The partition adversary: cutting the knowledge graph along a line.
//!
//! The connectivity parameter of the geography dimension
//! ([`dds_core::knowledge::Connectivity`]) distinguishes systems whose
//! stable part always stays connected from those where it may be
//! partitioned — transiently ([`Connectivity::EventuallyConnected`]) or
//! forever ([`Connectivity::Arbitrary`]). [`PartitionDriver`] realizes
//! both: at `cut_at` it severs every edge between the lower and upper
//! halves of the *initial* membership (by identity), and — when
//! configured — heals the cut at `heal_at` by restoring the severed edges.
//!
//! While the partition is active the driver **patrols**: it wakes every
//! tick and severs any crossing edge that has appeared since — a process
//! that joins mid-partition (under a composed churn driver, see
//! [`crate::driver::Compose`]) attaches by topology policy, which knows
//! nothing of the cut and would otherwise bridge the halves. Patrol edges
//! are added to the severed list, so healing restores them too. A
//! permanent partition therefore keeps one wake-up pending forever: drive
//! such worlds with [`crate::world::World::run_until`], not
//! `run_to_quiescence`.
//!
//! [`Connectivity`]: dds_core::knowledge::Connectivity
//! [`Connectivity::EventuallyConnected`]: dds_core::knowledge::Connectivity::EventuallyConnected
//! [`Connectivity::Arbitrary`]: dds_core::knowledge::Connectivity::Arbitrary

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};
use dds_net::graph::Graph;

use crate::driver::{ChurnAction, ChurnDriver, DriverIntent};

/// Severs the graph into identity halves at `cut_at`; optionally heals at
/// `heal_at`.
#[derive(Debug, Clone)]
pub struct PartitionDriver {
    /// When the cut happens.
    pub cut_at: Time,
    /// When (if ever) the severed edges are restored.
    pub heal_at: Option<Time>,
    /// The identity below which a process belongs to the lower side.
    pub split_at: ProcessId,
    severed: Vec<(ProcessId, ProcessId)>,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    BeforeCut,
    /// Cut applied; patrolling every tick until healed (or forever).
    Active,
    Done,
}

impl PartitionDriver {
    /// A permanent partition ([`Connectivity::Arbitrary`]): processes with
    /// identity below `split_at` lose every edge to the rest, forever.
    ///
    /// [`Connectivity::Arbitrary`]: dds_core::knowledge::Connectivity::Arbitrary
    pub fn permanent(cut_at: Time, split_at: ProcessId) -> Self {
        PartitionDriver {
            cut_at,
            heal_at: None,
            split_at,
            severed: Vec::new(),
            phase: Phase::BeforeCut,
        }
    }

    /// A transient partition ([`Connectivity::EventuallyConnected`]): the
    /// cut heals at `heal_at`.
    ///
    /// # Panics
    ///
    /// Panics unless `heal_at > cut_at`.
    ///
    /// [`Connectivity::EventuallyConnected`]: dds_core::knowledge::Connectivity::EventuallyConnected
    pub fn transient(cut_at: Time, heal_at: Time, split_at: ProcessId) -> Self {
        assert!(heal_at > cut_at, "healing must follow the cut");
        PartitionDriver {
            heal_at: Some(heal_at),
            ..PartitionDriver::permanent(cut_at, split_at)
        }
    }

    fn crossing_edges(&self, graph: &Graph) -> Vec<(ProcessId, ProcessId)> {
        graph
            .edges()
            .filter(|&(a, b)| (a < self.split_at) != (b < self.split_at))
            .collect()
    }
}

impl ChurnDriver for PartitionDriver {
    fn intent(&self) -> DriverIntent {
        DriverIntent {
            arrivals_finite: true,
            concurrency_finite: true,
        }
    }

    fn initial_wakeup(&self) -> Option<Time> {
        Some(self.cut_at)
    }

    fn on_tick(
        &mut self,
        now: Time,
        graph: &Graph,
        _rng: &mut Rng,
    ) -> (Vec<ChurnAction>, Option<Time>) {
        let patrol = Some(now + TimeDelta::TICK);
        match self.phase {
            Phase::BeforeCut => {
                self.severed = self.crossing_edges(graph);
                let actions = self
                    .severed
                    .iter()
                    .map(|&(a, b)| ChurnAction::CutEdge(a, b))
                    .collect();
                self.phase = Phase::Active;
                (actions, patrol)
            }
            Phase::Active => {
                if self.heal_at.is_some_and(|heal| now >= heal) {
                    let actions = self
                        .severed
                        .drain(..)
                        .map(|(a, b)| ChurnAction::RestoreEdge(a, b))
                        .collect();
                    self.phase = Phase::Done;
                    return (actions, None);
                }
                // Patrol: a joiner (or a splice) wired across the cut by a
                // composed driver's churn must not bridge the partition —
                // sever any crossing edge that appeared since the cut.
                let fresh = self.crossing_edges(graph);
                let actions = fresh
                    .iter()
                    .map(|&(a, b)| ChurnAction::CutEdge(a, b))
                    .collect();
                self.severed.extend(fresh);
                (actions, patrol)
            }
            Phase::Done => (Vec::new(), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Context};
    use crate::world::WorldBuilder;
    use dds_net::algo::is_connected;
    use dds_net::generate;

    struct Idle;
    impl Actor<()> for Idle {
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
    }

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    #[test]
    fn permanent_cut_disconnects_halves() {
        let mut world = WorldBuilder::new(1)
            .initial_graph(generate::torus(4, 4))
            .driver(PartitionDriver::permanent(t(5), pid(8)))
            .spawn(|_| Box::new(Idle))
            .build();
        assert!(is_connected(world.graph()));
        world.run_until(t(10));
        assert!(!is_connected(world.graph()), "cut must partition the torus");
        // No edge crosses the split.
        for (a, b) in world.graph().edges() {
            assert_eq!(a < pid(8), b < pid(8), "edge {a}-{b} crosses the cut");
        }
        world.run_until(t(100));
        assert!(!is_connected(world.graph()), "permanent means permanent");
    }

    #[test]
    fn transient_cut_heals() {
        let mut world = WorldBuilder::new(2)
            .initial_graph(generate::torus(4, 4))
            .driver(PartitionDriver::transient(t(5), t(20), pid(8)))
            .spawn(|_| Box::new(Idle))
            .build();
        world.run_until(t(10));
        assert!(!is_connected(world.graph()));
        let edges_cut = world.graph().edge_count();
        world.run_until(t(25));
        assert!(is_connected(world.graph()), "healed at t=20");
        assert!(world.graph().edge_count() > edges_cut);
    }

    #[test]
    fn joiner_during_partition_cannot_bridge_the_cut() {
        use crate::driver::{ChurnAction, Compose, Scripted};

        // Regression: the cut used to be computed from initial membership
        // only, so a process joining after `cut_at` (wired by the attach
        // policy, which knows nothing of the partition) could reconnect the
        // halves. The patrol must sever such edges by the next tick.
        let mut world = WorldBuilder::new(4)
            .initial_graph(generate::ring(6))
            .driver(Compose::new(
                PartitionDriver::transient(t(5), t(30), pid(3)),
                Scripted::new(vec![(t(10), ChurnAction::Join)]),
            ))
            .spawn(|_| Box::new(Idle))
            .build();
        world.run_until(t(8));
        assert!(!is_connected(world.graph()));
        world.run_until(t(15));
        assert_eq!(world.graph().node_count(), 7, "joiner admitted");
        for (a, b) in world.graph().edges() {
            assert_eq!(a < pid(3), b < pid(3), "edge {a}-{b} bridges the partition");
        }
        world.run_until(t(35));
        assert!(
            is_connected(world.graph()),
            "heal restores severed edges, including the joiner's"
        );
    }

    #[test]
    #[should_panic(expected = "healing must follow")]
    fn heal_before_cut_rejected() {
        PartitionDriver::transient(t(10), t(5), pid(4));
    }

    #[test]
    fn neighbor_notifications_fire_on_cut_and_heal() {
        use std::collections::BTreeSet;

        #[derive(Default)]
        struct ViewTracker {
            downs: BTreeSet<ProcessId>,
            ups: BTreeSet<ProcessId>,
        }
        impl Actor<()> for ViewTracker {
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
            fn on_neighbor_down(&mut self, _: &mut Context<'_, ()>, peer: ProcessId) {
                self.downs.insert(peer);
            }
            fn on_neighbor_up(&mut self, _: &mut Context<'_, ()>, peer: ProcessId) {
                self.ups.insert(peer);
            }
        }

        let mut world = WorldBuilder::new(3)
            .initial_graph(generate::ring(6))
            .driver(PartitionDriver::transient(t(5), t(10), pid(3)))
            .spawn(|_| Box::new(ViewTracker::default()))
            .build();
        world.run_until(t(30));
        // Ring 0-1-2-3-4-5-0; edges crossing the {0,1,2} | {3,4,5} split:
        // 2-3 and 5-0. Process 0 must have seen 5 go down and come back.
        let tracker: &ViewTracker = world.actor(pid(0)).unwrap();
        assert!(tracker.downs.contains(&pid(5)));
        assert!(tracker.ups.contains(&pid(5)));
    }
}
