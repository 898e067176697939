//! Integration: the constructive impossibility arguments (experiment E5).
//!
//! "Unsolvable" is demonstrated, not just declared: for *every* TTL the
//! wave protocol might commit to, the path-stretch adversary produces a run
//! in which a process present throughout the query is missed — while the
//! same TTL is perfectly sufficient on the static graph the run started
//! from.

use dds_core::spec::one_time_query::ValidityLevel;
use dds_core::time::Time;
use dds_net::generate;
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};

/// The adversary defeats every TTL: the witness (p3, present from start to
/// finish) is missed no matter how far the wave is allowed to travel.
#[test]
fn path_stretch_defeats_every_ttl() {
    for ttl in [2u32, 4, 8, 16, 32] {
        let mut scenario = QueryScenario::new(generate::path(4), ProtocolKind::FloodEcho { ttl });
        scenario.driver = DriverSpec::PathStretch { window: 1 };
        scenario.deadline = Time::from_ticks(60 + 20 * u64::from(ttl));
        let witness = scenario.witness();
        let run = scenario.run();
        assert!(
            run.outcome.timed_out || run.report.missed.contains(&witness),
            "ttl={ttl}: the adversary failed to hide the witness ({run})"
        );
        assert_ne!(
            run.report.level,
            ValidityLevel::IntervalValid,
            "ttl={ttl}: must not be interval-valid"
        );
    }
}

/// Control: without the adversary, TTL = diameter is exactly enough on the
/// same topology family.
#[test]
fn same_ttls_suffice_on_static_lines() {
    for ttl in [2u32, 4, 8, 16, 32] {
        let scenario = QueryScenario::new(
            generate::path(ttl as usize + 1),
            ProtocolKind::FloodEcho { ttl },
        );
        let run = scenario.run();
        assert_eq!(
            run.report.level,
            ValidityLevel::IntervalValid,
            "ttl={ttl} on a static line of diameter {ttl} must succeed ({run})"
        );
        assert_eq!(run.outcome.value, f64::from(ttl) + 1.0);
    }
}

/// One hop short fails even statically: the TTL bound is tight, so the
/// adversary's job is only to push the witness one hop beyond it.
#[test]
fn one_hop_short_is_already_too_little() {
    for ttl in [2u32, 4, 8] {
        let scenario = QueryScenario::new(
            generate::path(ttl as usize + 2),
            ProtocolKind::FloodEcho { ttl },
        );
        let run = scenario.run();
        assert_eq!(run.report.level, ValidityLevel::WeaklyValid);
        assert_eq!(run.report.missed.len(), 1, "exactly the far endpoint");
    }
}

/// The adversary's stretching is visible in the topology itself: after `k`
/// splices the initiator–witness distance grew by `k`.
#[test]
fn stretching_grows_the_distance() {
    use dds_core::process::ProcessId;
    use dds_core::time::TimeDelta;
    use dds_net::algo::shortest_path;
    use dds_sim::actor::{Actor, Context};
    use dds_sim::driver::PathStretch;
    use dds_sim::world::WorldBuilder;

    struct Idle;
    impl Actor<()> for Idle {
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
    }

    let init = ProcessId::from_raw(0);
    let witness = ProcessId::from_raw(3);
    let mut world = WorldBuilder::new(1)
        .initial_graph(generate::path(4))
        .driver(PathStretch {
            initiator: init,
            witness,
            window: TimeDelta::ticks(2),
        })
        .spawn(|_| Box::new(Idle))
        .build();
    let d0 = shortest_path(world.graph(), init, witness).unwrap().len() - 1;
    world.run_until(Time::from_ticks(20)); // 10 splices
    let d1 = shortest_path(world.graph(), init, witness).unwrap().len() - 1;
    assert_eq!(d0, 3);
    assert_eq!(d1, 13, "each splice adds one hop");
    // The witness never left.
    let presence = world.trace().presence();
    assert!(presence.of(witness).unwrap().departed.is_none());
}
