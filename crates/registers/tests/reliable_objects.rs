//! Integration: the reliable-object bounds are *tight* (experiments E6/E7).
//!
//! `t+1` responsive-crash registers tolerate exactly `t` crashes; `2t+1`
//! nonresponsive-crash registers tolerate exactly `t`; consensus survives
//! any number of responsive object crashes up to `t` and is killed by a
//! single nonresponsive one.

use std::collections::BTreeMap;

use dds_core::spec::consensus::check_consensus;
use dds_core::spec::register::{check_atomic, RegOp};
use dds_registers::base::ObjectState;
use dds_registers::consensus::run_consensus;
use dds_registers::harness::{run_schedule, CrashEvent};
use dds_registers::Construction;

fn scripts() -> Vec<Vec<RegOp>> {
    vec![
        vec![RegOp::Write(1), RegOp::Write(2)],
        vec![RegOp::Read; 3],
        vec![RegOp::Read; 3],
    ]
}

fn crash_first(n: usize, state: ObjectState) -> Vec<CrashEvent> {
    (0..n)
        .map(|index| CrashEvent {
            step: 1 + index as u64,
            index,
            state,
        })
        .collect()
}

#[test]
fn responsive_bound_is_tight_up_to_t() {
    for t in 1..=4usize {
        for crashed in 0..=t {
            for seed in 0..10 {
                let out = run_schedule(
                    Construction::ResponsiveAll { write_back: true },
                    t,
                    &scripts(),
                    &crash_first(crashed, ObjectState::CrashedResponsive),
                    seed,
                );
                assert!(
                    out.stuck_clients.is_empty(),
                    "t={t}, {crashed} responsive crashes must not block"
                );
                assert!(
                    check_atomic(&out.history).unwrap().is_linearizable(),
                    "t={t}, crashed={crashed}, seed={seed}:\n{}",
                    out.history
                );
            }
        }
    }
}

#[test]
fn responsive_bound_fails_past_t() {
    // Crash ALL t+1 base registers: reads can only return ⊥, so a read
    // after a completed write returns the initial value — not atomic.
    let t = 1;
    let mut violated = false;
    for seed in 0..50 {
        let out = run_schedule(
            Construction::ResponsiveAll { write_back: true },
            t,
            &scripts(),
            &crash_first(t + 1, ObjectState::CrashedResponsive),
            seed,
        );
        if !check_atomic(&out.history).unwrap().is_linearizable() {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "crashing every base register must break atomicity"
    );
}

#[test]
fn majority_bound_is_tight_up_to_t() {
    for t in 1..=3usize {
        for crashed in 0..=t {
            for seed in 0..10 {
                let out = run_schedule(
                    Construction::MajorityQuorum { write_back: true },
                    t,
                    &scripts(),
                    &crash_first(crashed, ObjectState::CrashedNonresponsive),
                    seed,
                );
                assert!(
                    out.stuck_clients.is_empty(),
                    "t={t}, {crashed} nonresponsive crashes must not block"
                );
                assert!(
                    check_atomic(&out.history).unwrap().is_linearizable(),
                    "t={t}, crashed={crashed}, seed={seed}:\n{}",
                    out.history
                );
            }
        }
    }
}

#[test]
fn majority_blocks_past_t() {
    let t = 2;
    let out = run_schedule(
        Construction::MajorityQuorum { write_back: true },
        t,
        &scripts(),
        &crash_first(t + 1, ObjectState::CrashedNonresponsive),
        0,
    );
    assert!(
        !out.stuck_clients.is_empty(),
        "t+1 nonresponsive crashes must block some operation"
    );
}

#[test]
fn consensus_tolerates_any_t_responsive_crashes() {
    for t in 1..=4usize {
        let crashes: BTreeMap<usize, ObjectState> = (0..t)
            .map(|i| (i, ObjectState::CrashedResponsive))
            .collect();
        for seed in 0..10 {
            let (run, blocked, _) = run_consensus(t, &[1, 2, 3, 4], &crashes, seed);
            assert!(blocked.is_empty());
            assert!(
                check_consensus(&run).is_correct(),
                "t={t}, seed={seed}: {:?}",
                run.decisions
            );
        }
    }
}

#[test]
fn consensus_dies_on_any_single_nonresponsive_crash() {
    // Whichever single object the adversary silences, termination fails
    // for every interleaving we try — the executable impossibility.
    for t in 1..=3usize {
        for victim in 0..=t {
            let crashes: BTreeMap<usize, ObjectState> =
                [(victim, ObjectState::CrashedNonresponsive)].into();
            for seed in 0..5 {
                let (run, blocked, _) = run_consensus(t, &[9, 8, 7], &crashes, seed);
                assert!(
                    !blocked.is_empty(),
                    "t={t}, victim={victim}, seed={seed}: somebody must block"
                );
                assert!(!check_consensus(&run).termination);
            }
        }
    }
}
