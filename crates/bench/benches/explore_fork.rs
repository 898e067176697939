//! `explore_fork` — the snapshot-forking explorer against replay-DFS at
//! matched budgets.
//!
//! Two workloads: the CI suite's small flood sweep (3 processes, both
//! engines exhaust in a few hundred runs — measures per-run fixed costs)
//! and a run-capped slice of the large flood sweep (6 processes — long
//! runs, where replay's re-executed prefixes and the fork engine's
//! dedup pruning dominate). The full exhaustion comparison lives in the
//! `check1` experiment (`run_experiments check1`); the capped slice here
//! keeps criterion iterations in the milliseconds.
//!
//! The `explore_session` group prices what the fork engine pays per
//! state, one primitive at a time, on a live session of the large flood
//! sweep (short queue, 6 actors) and of `store-fencing/correct` (ready
//! sets of ~150 events, 8 actors): a snapshot, a fingerprint with every
//! cache warm, the fork → dispatch → fingerprint round one explored state
//! costs, and a descent to the terminal fast-forwarded against the same
//! descent taken one choice point at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_check::mutants::{flood_exhaustive, flood_exhaustive_large, suite};
use dds_check::{explore_fork, explore_replay, Budget, ExploreSession, SessionState, Target};
use std::hint::black_box;

type BuildFn = fn() -> Box<dyn Target>;

/// A session of `target` stopped at its `skip`-th choice point.
fn session_at_choice(target: &mut dyn Target, skip: usize) -> Box<dyn ExploreSession> {
    let mut session = target.session().expect("the target supports sessions");
    for _ in 0..skip {
        assert_eq!(session.advance(&mut Vec::new()), SessionState::Choice);
        session.choose(0);
    }
    assert_eq!(session.advance(&mut Vec::new()), SessionState::Choice);
    session
}

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_session");
    let fencing = suite()
        .into_iter()
        .map(|s| (s.build)())
        .find(|t| t.name() == "store-fencing/correct")
        .expect("the suite has the fencing subject");
    for (label, mut target) in [
        ("flood-large", flood_exhaustive_large()()),
        ("store-fencing", fencing),
    ] {
        let at = session_at_choice(target.as_mut(), 12);
        group.bench_function(BenchmarkId::new("fork", label), |b| {
            b.iter(|| black_box(at.fork().is_some()))
        });
        group.bench_function(BenchmarkId::new("fingerprint-warm", label), |b| {
            b.iter(|| black_box(at.fingerprint()))
        });
        group.bench_function(BenchmarkId::new("fork-step-fingerprint", label), |b| {
            b.iter(|| {
                let mut child = at.fork().expect("forks");
                child.choose(1);
                black_box(child.fingerprint())
            })
        });
        group.bench_function(BenchmarkId::new("descent-fast-forward", label), |b| {
            b.iter(|| {
                let mut child = at.fork().expect("forks");
                child.finish();
                black_box(child.violation().is_some())
            })
        });
        group.bench_function(BenchmarkId::new("descent-step-by-step", label), |b| {
            b.iter(|| {
                let mut child = at.fork().expect("forks");
                let mut forced = Vec::new();
                child.choose(0);
                while child.advance(&mut forced) == SessionState::Choice {
                    child.choose(0);
                    forced.clear();
                }
                black_box(child.violation().is_some())
            })
        });
    }
    group.finish();
}

fn bench_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_fork");
    let cases: [(&str, BuildFn); 2] = [
        ("flood-small", flood_exhaustive()),
        ("flood-large", flood_exhaustive_large()),
    ];
    for (label, build) in cases {
        let budget = Budget {
            max_runs: 2_000,
            max_depth: 48,
            max_preemptions: 2,
        };
        group.bench_with_input(BenchmarkId::new("fork", label), &budget, |b, &budget| {
            b.iter(|| {
                let out = explore_fork(build().as_mut(), black_box(budget))
                    .expect("flood targets support sessions");
                black_box(out.runs)
            })
        });
        group.bench_with_input(BenchmarkId::new("replay", label), &budget, |b, &budget| {
            b.iter(|| {
                let out = explore_replay(build().as_mut(), black_box(budget));
                black_box(out.runs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_explore, bench_session);
criterion_main!(benches);
