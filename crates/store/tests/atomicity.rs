//! End-to-end properties of the storage service: atomicity below the
//! sustainable churn bound, explicit liveness loss above it, and
//! deterministic replay.

use dds_core::churn::ChurnSpec;
use dds_core::spec::register::check_atomic;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_store::msg::StoreMsg;
use dds_store::{StoreActor, StoreScenario};

fn quiet_scenario(seed: u64) -> StoreScenario {
    StoreScenario::new(generate::complete(10), seed)
}

fn churned_scenario(seed: u64, rate: f64) -> StoreScenario {
    let mut s = StoreScenario::new(generate::complete(12), seed);
    s.churn = ChurnSpec::rate(rate, TimeDelta::ticks(40)).unwrap();
    s.deadline = Time::from_ticks(900);
    s.ops_per_client = 10;
    s
}

#[test]
fn quiet_system_completes_everything_atomically() {
    for seed in 0..6 {
        let s = quiet_scenario(seed);
        let report = s.run();
        assert_eq!(
            report.completed,
            (s.clients * s.ops_per_client) as u64,
            "seed {seed}: every op must complete without churn"
        );
        assert_eq!(report.aborted, 0, "seed {seed}");
        assert_eq!(
            report.max_epoch, 1,
            "seed {seed}: no reconfiguration needed"
        );
        assert!(
            check_atomic(&report.history).unwrap().is_linearizable(),
            "seed {seed}: history must be atomic"
        );
    }
}

#[test]
fn below_bound_churn_stays_atomic() {
    for seed in 0..8 {
        let s = churned_scenario(seed, 0.04);
        assert!(!s.above_bound(), "0.04/40t must be below the bound");
        let report = s.run();
        assert!(
            report.completed > 0,
            "seed {seed}: some operations must complete"
        );
        assert!(
            check_atomic(&report.history).unwrap().is_linearizable(),
            "seed {seed}: below the bound every history must be atomic \
             (completed={}, aborted={}, epochs={})",
            report.completed,
            report.aborted,
            report.max_epoch
        );
    }
}

#[test]
fn reconfiguration_engine_reacts_to_churn() {
    let mut reconfigured = 0;
    for seed in 0..8 {
        let report = churned_scenario(seed, 0.04).run();
        if report.max_epoch > 1 {
            reconfigured += 1;
            assert!(
                report.migrations > 0,
                "seed {seed}: adoption must migrate state"
            );
        }
    }
    assert!(
        reconfigured >= 4,
        "churn at this rate must trigger reconfigurations in most runs ({reconfigured}/8)"
    );
}

#[test]
fn above_bound_churn_aborts_instead_of_hanging() {
    let mut aborted_runs = 0;
    for seed in 0..6 {
        let mut s = churned_scenario(seed, 0.8);
        s.deadline = Time::from_ticks(700);
        assert!(s.above_bound(), "0.8/40t must exceed the bound");
        // run() terminating at all is the liveness-loss contract: bounded
        // retries, then abort — never a hang.
        let report = s.run();
        if report.aborted > 0 {
            aborted_runs += 1;
        }
        // Safety survives arbitrary churn even when liveness does not.
        assert!(
            check_atomic(&report.history).unwrap().is_linearizable(),
            "seed {seed}: completed ops must stay atomic above the bound"
        );
    }
    assert!(
        aborted_runs >= 4,
        "above the bound most runs must report liveness loss ({aborted_runs}/6)"
    );
}

#[test]
fn injected_reconfiguration_migrates_and_stays_atomic() {
    let s = StoreScenario::new(generate::complete(14), 42);
    let mut world = s.build();
    let replicas = s.replicas();
    // Decommission the whole original configuration mid-run.
    let incoming: Vec<_> = s
        .graph
        .nodes()
        .filter(|p| !replicas.contains(p) && !s.client_pids().contains(p))
        .collect();
    assert!(incoming.len() >= s.replica_count);
    world.inject(
        Time::from_ticks(80),
        replicas[0],
        StoreMsg::Reconfigure {
            members: incoming[..s.replica_count].to_vec(),
        },
    );
    world.run_until(s.deadline);
    let report = s.report(&mut world);
    assert!(
        report.max_epoch >= 2,
        "epoch must advance past the injection"
    );
    assert!(report.migrations > 0);
    assert_eq!(report.aborted, 0, "hand-off must not lose liveness");
    assert!(check_atomic(&report.history).unwrap().is_linearizable());
    // The incoming replicas must actually hold the state now.
    let world_ref = &world;
    let serving = incoming[..s.replica_count]
        .iter()
        .filter(|&&p| {
            world_ref
                .actor::<StoreActor>(p)
                .is_some_and(|a| a.epoch() >= 2)
        })
        .count();
    assert!(
        serving >= 3,
        "new members must have adopted the epoch ({serving})"
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = churned_scenario(7, 0.08).run();
    let b = churned_scenario(7, 0.08).run();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.aborted, b.aborted);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.max_epoch, b.max_epoch);
    assert_eq!(a.epoch_transitions, b.epoch_transitions);
    assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
    assert_eq!(a.history.records(), b.history.records());
}
