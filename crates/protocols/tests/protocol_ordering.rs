//! Integration: the qualitative protocol comparisons (experiment E4) hold
//! as orderings, across seeds.
//!
//! We never assert absolute numbers — substrate timing differs from any
//! real deployment — only the *shape*: who wins, and in which direction
//! the knobs move the result.

use dds_core::spec::aggregate::AggregateKind;
use dds_core::time::Time;
use dds_net::generate;
use dds_protocols::harness::{success_rate, SweepRow};
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};

const SEEDS: std::ops::Range<u64> = 0..20;

fn run(protocol: ProtocolKind, rate: f64) -> SweepRow {
    let mut s = QueryScenario::new(generate::torus(5, 5), protocol);
    s.aggregate = AggregateKind::Average;
    s.deadline = Time::from_ticks(3_000);
    if rate > 0.0 {
        s.driver = DriverSpec::Balanced {
            rate,
            window: 10,
            crash_fraction: 0.3,
        };
    }
    success_rate(&s, SEEDS)
}

#[test]
fn all_protocols_exact_without_churn() {
    for protocol in [
        ProtocolKind::FloodEcho { ttl: 8 },
        ProtocolKind::SingleTree { ttl: 8 },
        ProtocolKind::MultiTree { ttl: 8, k: 4 },
    ] {
        let row = run(protocol, 0.0);
        assert_eq!(
            row.validity_rate(),
            1.0,
            "{protocol} must be exact statically"
        );
        assert!(row.mean_relative_error < 1e-9);
    }
}

#[test]
fn flood_echo_beats_single_tree_under_churn() {
    let flood = run(ProtocolKind::FloodEcho { ttl: 8 }, 0.2);
    let single = run(ProtocolKind::SingleTree { ttl: 8 }, 0.2);
    assert!(
        flood.validity_rate() > single.validity_rate(),
        "repair-aware wave must beat the fragile tree: {flood} vs {single}"
    );
}

#[test]
fn more_trees_recover_coverage() {
    let k1 = run(ProtocolKind::MultiTree { ttl: 8, k: 1 }, 0.2);
    let k8 = run(ProtocolKind::MultiTree { ttl: 8, k: 8 }, 0.2);
    assert!(
        k8.validity_rate() >= k1.validity_rate(),
        "redundancy must not hurt coverage: k=8 {k8} vs k=1 {k1}"
    );
    assert!(
        k8.mean_messages > k1.mean_messages * 3.0,
        "redundancy costs messages"
    );
}

#[test]
fn gossip_always_terminates_and_degrades_gracefully() {
    let calm = run(ProtocolKind::Gossip { rounds: 80 }, 0.0);
    let storm = run(ProtocolKind::Gossip { rounds: 80 }, 0.4);
    assert_eq!(calm.termination_rate(), 1.0);
    assert_eq!(storm.termination_rate(), 1.0);
    assert!(
        calm.mean_relative_error < 0.05,
        "calm gossip converges: {calm}"
    );
    // Under churn the error grows but stays bounded (mass leaks, it does
    // not explode).
    assert!(
        storm.mean_relative_error > calm.mean_relative_error,
        "churn must cost accuracy: {storm} vs {calm}"
    );
    assert!(
        storm.mean_relative_error < 0.5,
        "degradation is graceful for the average estimator: {storm}"
    );
}

#[test]
fn single_tree_error_grows_with_churn() {
    let low = run(ProtocolKind::SingleTree { ttl: 8 }, 0.05);
    let high = run(ProtocolKind::SingleTree { ttl: 8 }, 0.4);
    assert!(
        high.validity_rate() <= low.validity_rate(),
        "more churn, less validity: {high} vs {low}"
    );
}
