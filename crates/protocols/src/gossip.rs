//! Push-sum gossip aggregation — the baseline that trades validity for
//! robustness.
//!
//! Where the wave family computes an exact aggregate over an explicit
//! contributor set (and breaks when churn outruns it), push-sum (Kempe,
//! Dobra & Gehrke) diffuses *mass*: every process holds a `(sum, weight)`
//! pair — initially `(value, 1)` — and repeatedly ships half of it to a
//! random neighbor. Sums and weights are conserved among the present
//! processes, so `sum/weight` converges to the **average** of the values
//! in circulation. Under churn a leaver takes its share of mass along,
//! which keeps the ratio an (approximately fair) average of the survivors:
//! the estimate degrades *gracefully* instead of collapsing — the
//! crossover experiment E4 quantifies exactly that trade.
//!
//! Alongside the ratio, shares diffuse the running minimum, maximum and the
//! set of identities mixed in, so the initiator can answer every
//! [`AggregateKind`]: average from the ratio, min/max from the extrema,
//! count from the identity set, and sum as `average × count` (the coarsest
//! of the five — counting is where gossip pays for having no explicit
//! membership).

use std::collections::BTreeSet;
use std::rc::Rc;

use dds_core::process::ProcessId;
use dds_core::spec::aggregate::AggregateKind;
use dds_core::time::{Time, TimeDelta};
use dds_sim::actor::{Actor, Context};
use dds_sim::event::TimerId;
use dds_sim::slots::DenseSet;

/// Messages of the push-sum protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMsg {
    /// Injected at the initiator: begin estimating, freeze after `rounds`
    /// local rounds.
    Start {
        /// Number of gossip rounds before the initiator freezes its
        /// estimate.
        rounds: u32,
    },
    /// Half of a process's mass.
    Share {
        /// Sum component.
        sum: f64,
        /// Weight component.
        weight: f64,
        /// Running minimum of values mixed in.
        min: f64,
        /// Running maximum of values mixed in.
        max: f64,
        /// Identities whose initial value is (partially) mixed into `sum`.
        /// A dense bit set (ids are dense, see [`DenseSet`]) shared via
        /// `Rc`, not cloned: a world is single-threaded and a round ships
        /// the same immutable set in every share, so the fan-out costs a
        /// refcount bump instead of a set copy per send.
        origins: Rc<DenseSet>,
    },
}

/// The frozen estimate at the initiator.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipResult {
    /// When the estimate was frozen.
    pub finished_at: Time,
    /// The answer for the configured aggregate.
    pub estimate: f64,
    /// The raw average estimate (`sum / weight`).
    pub average: f64,
    /// Identities whose mass reached the initiator.
    pub contributors: BTreeSet<ProcessId>,
}

/// One process of the push-sum protocol.
#[derive(Debug)]
pub struct GossipActor {
    period: TimeDelta,
    aggregate: AggregateKind,
    sum: f64,
    weight: f64,
    min: f64,
    max: f64,
    /// Copy-on-write: shared with in-flight shares until new mass arrives,
    /// then `Rc::make_mut` forks a private copy to extend.
    origins: Rc<DenseSet>,
    rounds_left: Option<u32>,
    result: Option<GossipResult>,
    tick: Option<TimerId>,
}

impl GossipActor {
    /// Creates a process that gossips every `period` ticks (use twice the
    /// delay bound so a round-trip fits in a round) and answers for the
    /// given aggregate.
    pub fn new(period: TimeDelta, aggregate: AggregateKind) -> Self {
        GossipActor {
            period,
            aggregate,
            sum: 0.0,
            weight: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            origins: Rc::new(DenseSet::new()),
            rounds_left: None,
            result: None,
            tick: None,
        }
    }

    /// The frozen estimate, once the initiator finished its rounds.
    pub fn result(&self) -> Option<&GossipResult> {
        self.result.as_ref()
    }

    fn answer(&self) -> (f64, f64) {
        let average = if self.weight > 0.0 {
            self.sum / self.weight
        } else {
            f64::NAN
        };
        let count = self.origins.len() as f64;
        let estimate = match self.aggregate {
            AggregateKind::Average => average,
            AggregateKind::Min => self.min,
            AggregateKind::Max => self.max,
            AggregateKind::Count => count,
            AggregateKind::Sum => average * count,
        };
        (estimate, average)
    }

    fn do_round(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        if self.result.is_some() {
            return; // frozen
        }
        if let Some(target) = ctx.choose_neighbor() {
            self.sum /= 2.0;
            self.weight /= 2.0;
            ctx.send(
                target,
                GossipMsg::Share {
                    sum: self.sum,
                    weight: self.weight,
                    min: self.min,
                    max: self.max,
                    origins: Rc::clone(&self.origins),
                },
            );
        }
        if let Some(r) = self.rounds_left.as_mut() {
            *r = r.saturating_sub(1);
            if *r == 0 {
                let (estimate, average) = self.answer();
                self.result = Some(GossipResult {
                    finished_at: ctx.now(),
                    estimate,
                    average,
                    contributors: self.origins.iter().collect(),
                });
                return;
            }
        }
        self.tick = Some(ctx.set_timer(self.period));
    }
}

impl Actor<GossipMsg> for GossipActor {
    fn on_start(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        self.sum = ctx.value();
        self.weight = 1.0;
        self.min = ctx.value();
        self.max = ctx.value();
        Rc::make_mut(&mut self.origins).insert(ctx.pid());
        self.tick = Some(ctx.set_timer(self.period));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, GossipMsg>, _from: ProcessId, msg: GossipMsg) {
        match msg {
            GossipMsg::Start { rounds } => {
                self.rounds_left = Some(rounds.max(1));
                let _ = ctx;
            }
            GossipMsg::Share {
                sum,
                weight,
                min,
                max,
                origins,
            } => {
                if self.result.is_some() {
                    // Frozen: bounce the mass back into circulation so it
                    // is not silently destroyed.
                    if let Some(t) = ctx.choose_neighbor() {
                        ctx.send(
                            t,
                            GossipMsg::Share {
                                sum,
                                weight,
                                min,
                                max,
                                origins,
                            },
                        );
                    }
                    return;
                }
                self.sum += sum;
                self.weight += weight;
                self.min = self.min.min(min);
                self.max = self.max.max(max);
                // Fork-and-extend only when the share carries identities we
                // have not mixed yet; otherwise leave the shared set alone.
                if !origins.is_subset(&self.origins) {
                    Rc::make_mut(&mut self.origins).union_with(&origins);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMsg>, timer: TimerId) {
        if Some(timer) == self.tick {
            self.do_round(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::time::Time;
    use dds_net::generate;
    use dds_sim::delay::DelayModel;
    use dds_sim::world::{World, WorldBuilder};

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn gossip_world(n: usize, seed: u64, aggregate: AggregateKind) -> World<GossipMsg> {
        WorldBuilder::new(seed)
            .initial_graph(generate::complete(n))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .values(|p, _| p.as_raw() as f64)
            .spawn(move |_| Box::new(GossipActor::new(TimeDelta::ticks(2), aggregate)))
            .build()
    }

    fn run(world: &mut World<GossipMsg>, rounds: u32) -> Option<GossipResult> {
        world.inject(Time::from_ticks(1), pid(0), GossipMsg::Start { rounds });
        world.run_until(Time::from_ticks(4 * u64::from(rounds) + 50));
        world
            .actor::<GossipActor>(pid(0))
            .and_then(|a| a.result().cloned())
    }

    #[test]
    fn average_converges_on_static_graph() {
        let n = 8;
        let mut world = gossip_world(n, 1, AggregateKind::Average);
        let result = run(&mut world, 60).expect("initiator freezes");
        let truth = (0..n as u64).sum::<u64>() as f64 / n as f64;
        let err = (result.estimate - truth).abs() / truth;
        assert!(
            err < 0.05,
            "estimate {} vs {truth} (err {err})",
            result.estimate
        );
    }

    #[test]
    fn sum_estimate_is_average_times_count() {
        let n = 8;
        let mut world = gossip_world(n, 2, AggregateKind::Sum);
        let result = run(&mut world, 60).expect("initiator freezes");
        let truth = (0..n as u64).sum::<u64>() as f64;
        let err = (result.estimate - truth).abs() / truth;
        assert!(err < 0.1, "estimate {} vs {truth}", result.estimate);
    }

    #[test]
    fn min_max_diffuse_exactly() {
        let mut world = gossip_world(9, 3, AggregateKind::Max);
        let result = run(&mut world, 40).expect("freezes");
        assert_eq!(result.estimate, 8.0, "max is exact once mixed");
        let mut world = gossip_world(9, 4, AggregateKind::Min);
        let result = run(&mut world, 40).expect("freezes");
        assert_eq!(result.estimate, 0.0);
    }

    #[test]
    fn contributors_cover_everyone_eventually() {
        let n = 6;
        let mut world = gossip_world(n, 5, AggregateKind::Count);
        let result = run(&mut world, 60).expect("initiator freezes");
        assert_eq!(result.contributors.len(), n);
        assert_eq!(result.estimate, n as f64);
    }

    #[test]
    fn no_result_without_start() {
        let mut world = gossip_world(4, 6, AggregateKind::Average);
        world.run_until(Time::from_ticks(100));
        assert!(world
            .actor::<GossipActor>(pid(0))
            .unwrap()
            .result()
            .is_none());
    }

    #[test]
    fn few_rounds_give_rough_estimate() {
        let mut world = gossip_world(8, 7, AggregateKind::Average);
        let result = run(&mut world, 2).expect("terminates even when rough");
        assert!(result.estimate.is_finite());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&mut gossip_world(8, 8, AggregateKind::Average), 40).map(|r| r.estimate);
        let b = run(&mut gossip_world(8, 8, AggregateKind::Average), 40).map(|r| r.estimate);
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_initiator_estimates_its_own_value() {
        let mut g = dds_net::Graph::new();
        g.add_node(pid(0));
        let mut world: World<GossipMsg> = WorldBuilder::new(9)
            .initial_graph(g)
            .values(|_, _| 7.0)
            .spawn(|_| {
                Box::new(GossipActor::new(
                    TimeDelta::ticks(2),
                    AggregateKind::Average,
                ))
            })
            .build();
        let result = run(&mut world, 10).expect("terminates alone");
        assert_eq!(result.estimate, 7.0);
    }

    #[test]
    fn weight_stays_positive_so_average_is_finite() {
        // Every process keeps half its weight each round, so the ratio at
        // the initiator is always defined.
        let mut world = gossip_world(5, 10, AggregateKind::Average);
        let result = run(&mut world, 100).expect("freezes");
        assert!(result.average.is_finite());
    }
}
