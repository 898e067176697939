//! The fork engine's work counters are part of its contract.
//!
//! `runs`, `states_explored`, `dedup_hits` and `forks` are pure functions
//! of the explored tree, and every optimisation of the engine promises to
//! leave the tree alone: same DFS order, same prunes, same verdicts. The
//! benchmark pins them in `benchmark/pins/check-explore.txt` and fails a
//! run that drifts; this test reads the same file so a drift fails
//! `cargo test` first. The large flood sweep's line is spelled out as
//! well, because DESIGN.md and the README quote it.

use dds_check::mutants::{flood_exhaustive_large, suite};
use dds_check::{explore, Budget, Explored};

/// Budget that exhausts the large flood sweep (the benchmark's).
const FLOOD_BUDGET: Budget = Budget {
    max_runs: 100_000,
    max_depth: 48,
    max_preemptions: 2,
};

fn line(name: &str, e: &Explored) -> String {
    format!(
        "{name} {} {} {} {} {}",
        e.runs,
        e.states_explored,
        e.dedup_hits,
        e.forks,
        u8::from(e.counterexample.is_some())
    )
}

#[test]
fn exploration_counters_match_the_benchmark_pins() {
    let pins: Vec<&str> = include_str!("../benchmark/pins/check-explore.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(pins[0], "flood-merge/large 14673 2233 11867 14700 0");

    let mut sweep = flood_exhaustive_large()();
    let explored = explore(sweep.as_mut(), FLOOD_BUDGET);
    assert!(explored.exhausted, "the budget exhausts the sweep");
    let mut got = vec![line(sweep.name(), &explored)];
    for subject in suite() {
        let mut target = (subject.build)();
        let explored = explore(target.as_mut(), Budget::default());
        got.push(line(target.name(), &explored));
    }
    assert_eq!(got, pins, "name runs states dedup forks violation");
}
