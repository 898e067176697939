//! Integration: the empirical solvability landscape matches the paper's
//! analytical table (experiment E8).
//!
//! For each named class C1–C7, the analytical verdict of
//! `dds_core::solvability::one_time_query` must agree with what the wave
//! protocol actually achieves in a simulated instance of the class:
//! near-perfect interval validity in the solvable classes, clear failure in
//! the unsolvable ones.

use dds_bench::landscape_probe;
use dds_core::class::SystemClass;
use dds_core::solvability::one_time_query;
use dds_protocols::harness::success_rate;

const SEEDS: std::ops::Range<u64> = 0..15;

fn validity_of(name: &str) -> f64 {
    let scenario = landscape_probe(name).expect("probe exists for every named class");
    success_rate(&scenario, SEEDS).validity_rate()
}

#[test]
fn solvable_classes_achieve_interval_validity() {
    for (name, class) in SystemClass::named_landscape() {
        if one_time_query(&class).is_solvable() {
            let v = validity_of(name);
            assert!(
                v >= 0.9,
                "{name} is solvable but the wave only reached {:.0}% validity",
                v * 100.0
            );
        }
    }
}

#[test]
fn unsolvable_classes_defeat_the_wave() {
    for (name, class) in SystemClass::named_landscape() {
        if !one_time_query(&class).is_solvable() {
            let v = validity_of(name);
            assert!(
                v <= 0.3,
                "{name} is unsolvable but the wave reached {:.0}% validity — \
                 the adversary is too weak",
                v * 100.0
            );
        }
    }
}

#[test]
fn every_probe_terminates() {
    // Termination is the one guarantee the timeout-driven wave never gives
    // up, even in the unsolvable classes: it answers, just not validly.
    for (name, _) in SystemClass::named_landscape() {
        let scenario = landscape_probe(name).expect("probe exists");
        let row = success_rate(&scenario, SEEDS);
        assert_eq!(
            row.termination_rate(),
            1.0,
            "{name}: flood-echo must always terminate"
        );
    }
}

#[test]
fn landscape_probes_are_deterministic() {
    for (name, _) in SystemClass::named_landscape() {
        let a = validity_of(name);
        let b = validity_of(name);
        assert_eq!(a, b, "{name}: same seeds must reproduce the same rate");
    }
}
