//! End-to-end stress: a long run combining churn, a transient partition,
//! and repeated queries, with kernel-level accounting invariants checked
//! at the end.
//!
//! This is the "everything at once" test: if any layer (kernel, topology
//! maintenance, churn drivers, wave protocol, trace recording) violates
//! its contract under sustained pressure, the invariants here catch it.

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_protocols::continuous::ContinuousScenario;
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};
use dds_sim::actor::{Actor, Context};
use dds_sim::delay::{DelayModel, LossModel};
use dds_sim::driver::BalancedChurn;
use dds_sim::world::{World, WorldBuilder};

/// Relays every message to a random neighbor — a traffic generator that
/// keeps the network saturated for the accounting checks.
struct Relay;

impl Actor<u8> for Relay {
    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        let n = ctx.neighbors().to_vec();
        if let Some(&t) = ctx.rng().choose(&n) {
            ctx.send(t, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u8>, _: ProcessId, m: u8) {
        let n = ctx.neighbors().to_vec();
        if let Some(&t) = ctx.rng().choose(&n) {
            ctx.send(t, m);
        }
    }
}

#[test]
fn kernel_accounting_balances_under_pressure() {
    let spec = ChurnSpec::rate(0.15, TimeDelta::ticks(8)).expect("valid");
    let mut world: World<u8> = WorldBuilder::new(42)
        .initial_graph(generate::torus(5, 5))
        .delay(DelayModel::Uniform {
            min: TimeDelta::TICK,
            max: TimeDelta::ticks(3),
        })
        .loss(LossModel::Bernoulli(0.05))
        .driver(BalancedChurn::new(spec).with_crash_fraction(0.5))
        .spawn(|_| Box::new(Relay))
        .build();
    world.run_until(Time::from_ticks(2_000));
    // Drain in-flight messages: no new sends happen once churn stops
    // feeding fresh relays … relays keep relaying, so cut at the deadline
    // and account for in-flight messages explicitly.
    let m = *world.metrics();
    // Every send was either delivered or dropped, up to messages still in
    // flight at the cut-off (bounded by the max delay of 3 ticks: at most
    // a few per live process).
    let accounted = m.delivers + m.drops;
    assert!(
        accounted <= m.sends,
        "over-accounted: {accounted} > {} sends",
        m.sends
    );
    assert!(
        m.sends - accounted <= 200,
        "too many unaccounted messages: {} of {}",
        m.sends - accounted,
        m.sends
    );
    // Churn bookkeeping: every join beyond the initial 25 pairs a
    // departure (balanced driver), within one window's slack.
    let joins_after_start = m.joins - 25;
    let departures = m.leaves + m.crashes;
    assert!(
        joins_after_start.abs_diff(departures) <= 8,
        "balanced churn drifted: {joins_after_start} joins vs {departures} departures"
    );
    // The trace agrees with the metrics.
    let summary = world.trace().churn_summary();
    assert_eq!(summary.joins as u64, joins_after_start);
    assert_eq!(summary.leaves as u64, m.leaves);
    assert_eq!(summary.crashes as u64, m.crashes);
    // Membership never exceeded initial + one window of slack.
    assert!(m.max_membership <= 25 + 8, "peak {}", m.max_membership);
    // Presence map agrees with the live graph.
    let from_trace = world.trace().presence().members_at(world.now());
    assert_eq!(from_trace, world.members());
}

#[test]
fn monitoring_survives_churn_plus_partition() {
    // Queries run while the system churns AND suffers a transient
    // partition; queries issued during the cut fail, queries before and
    // after succeed — and the run never wedges.
    let mut base = QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
    base.driver = DriverSpec::Partition {
        cut_at: 200,
        heal_at: Some(400),
    };
    base.deadline = Time::from_ticks(100_000);
    let run = ContinuousScenario::new(base, TimeDelta::ticks(50), 12).run();
    assert_eq!(run.termination_rate(), 1.0, "{run}");
    let verdicts: Vec<bool> = run
        .per_query
        .iter()
        .map(|g| g.report.level.is_interval_valid())
        .collect();
    // Queries fully before the cut (issued at 1, 51, 101, 151) succeed.
    assert!(verdicts[..3].iter().all(|&v| v), "{verdicts:?}");
    // Queries issued inside [200, 400) fail: the far side is unreachable.
    assert!(verdicts[4..8].iter().all(|&v| !v), "{verdicts:?}");
    // Queries after the heal succeed again: the damage is not permanent.
    assert!(verdicts[9..].iter().all(|&v| v), "{verdicts:?}");
}

#[test]
fn long_deterministic_run_is_reproducible() {
    let run = |seed: u64| {
        let spec = ChurnSpec::rate(0.2, TimeDelta::ticks(5)).expect("valid");
        let mut world: World<u8> = WorldBuilder::new(seed)
            .initial_graph(generate::torus(4, 4))
            .delay(DelayModel::Exponential { mean_ticks: 2.0 })
            .loss(LossModel::Bernoulli(0.1))
            .driver(BalancedChurn::new(spec))
            .spawn(|_| Box::new(Relay))
            .build();
        world.run_until(Time::from_ticks(1_500));
        // The counters witness the message traffic, the trace the
        // membership history and the instant of the last observed event.
        (*world.metrics(), world.trace().clone())
    };
    assert_eq!(run(7), run(7), "same seed, same everything");
    assert_ne!(run(7), run(8), "different seed, different run");
}
