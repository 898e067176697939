//! The one-time-query prologue of the `sim-otq-churn` benchmark, as a test.
//!
//! The benchmark pins one digest per prologue run in
//! `benchmark/pins/sim-otq-churn.txt` — 12 scenario seeds through eight
//! cells (wave and push-sum on small-world graphs of 64 and 256 under 5 %
//! and 15 % balanced churn) — and fails a run whose digests drift. A
//! digest covers the outcome, the verdict and every kernel counter, so
//! any change to the order the kernel, the graph or the churn driver do
//! things in shows. This test rebuilds the same cells from the same
//! constants (`benchmark/src/sim.rs`: `otq_cells`, `otq_digest`,
//! `otq_prologue`) and reads the same file, so such a drift fails
//! `cargo test` first.
//!
//! The benchmark's digest hashes the contributor *count*, and it runs
//! only flood/echo and push-sum. `wave_answers_are_pinned` covers the
//! rest of the wave family — the single-tree baseline, three unioned
//! trees, and the continuous (repeated-query) harness — and hashes every
//! contributor identity, so an answer that swaps one contributor for
//! another fails it too.

use std::collections::BTreeSet;

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};
use dds_net::algo::{diameter, is_connected};
use dds_net::generate::{torus, watts_strogatz};
use dds_protocols::continuous::ContinuousScenario;
use dds_protocols::harness::{QueryRun, SweepArena};
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};
use dds_sim::snapshot::StableHasher;

const PIN_SEED: u64 = 0x0D15_EA5E;
const PIN_RUNS: u64 = 12;

fn cells() -> Vec<(QueryScenario, SweepArena)> {
    let mut rng = Rng::seeded(PIN_SEED);
    let mut cells = Vec::new();
    for n in [64, 256] {
        let graph = loop {
            let g = watts_strogatz(n, 3, 0.2, &mut rng);
            if is_connected(&g) {
                break g;
            }
        };
        let ttl = diameter(&graph).expect("connected") as u32;
        for protocol in [
            ProtocolKind::FloodEcho { ttl },
            ProtocolKind::Gossip { rounds: 30 },
        ] {
            for rate in [0.05, 0.15] {
                let mut scenario = QueryScenario::new(graph.clone(), protocol);
                scenario.deadline = Time::from_ticks(500);
                scenario.driver = DriverSpec::Balanced {
                    rate,
                    window: 10,
                    crash_fraction: 0.3,
                };
                cells.push((scenario, SweepArena::default()));
            }
        }
    }
    cells
}

fn digest(r: &QueryRun) -> u64 {
    let mut h = StableHasher::new();
    for v in [
        r.outcome.value.to_bits(),
        r.outcome.contributors.len() as u64,
        u64::from(r.outcome.timed_out),
        u64::from(r.report.level.is_interval_valid()),
        r.report.missed.len() as u64,
        r.report.phantom.len() as u64,
        r.report.required as u64,
        r.report.allowed as u64,
        r.finished.map_or(u64::MAX, |t| t.as_ticks()),
    ] {
        h.write_u64(v);
    }
    h.write_bytes(r.metrics.to_json().as_bytes());
    h.finish()
}

#[test]
fn prologue_digests_match_the_benchmark_pins() {
    let pins: Vec<&str> = include_str!("../../../benchmark/pins/sim-otq-churn.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(pins.len(), 96, "12 runs through 8 cells");

    let mut cells = cells();
    let mut got = Vec::new();
    for run in 0..PIN_RUNS {
        for (cell, (scenario, arena)) in cells.iter_mut().enumerate() {
            scenario.seed = PIN_SEED + run;
            got.push(format!(
                "{cell} {run} {:016x}",
                digest(&scenario.run_in(arena))
            ));
        }
    }
    assert_eq!(got, pins, "cell run digest");
}

/// Folds one answer into `h`: every contributor in identity order, the
/// value's bits and the tick the answer is judged at.
fn hash_answer(h: &mut StableHasher, contributors: &BTreeSet<ProcessId>, value: f64, tick: u64) {
    h.write_u64(contributors.len() as u64);
    for p in contributors {
        h.write_u64(p.as_raw());
    }
    h.write_u64(value.to_bits());
    h.write_u64(tick);
}

#[test]
fn wave_answers_are_pinned() {
    let mut got = Vec::new();
    // The 64-node pin graph under 15 % churn, 12 seeds per variant.
    let (template, _) = cells().swap_remove(1);
    let ProtocolKind::FloodEcho { ttl } = template.protocol else {
        unreachable!("cell 1 is the wave at 15 % churn")
    };
    for protocol in [
        ProtocolKind::SingleTree { ttl },
        ProtocolKind::MultiTree { ttl, k: 3 },
    ] {
        let mut scenario = template.clone();
        scenario.protocol = protocol;
        let mut arena = SweepArena::default();
        let mut h = StableHasher::new();
        for run in 0..PIN_RUNS {
            scenario.seed = PIN_SEED + run;
            let r = scenario.run_in(&mut arena);
            let tick = r.finished.map_or(u64::MAX, |t| t.as_ticks());
            hash_answer(&mut h, &r.outcome.contributors, r.outcome.value, tick);
        }
        got.push(format!("{protocol} {:016x}", h.finish()));
    }

    // E9's shape: repeated flood/echo queries on a 4×4 torus at 20 %
    // crash churn.
    let mut base = QueryScenario::new(torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
    base.deadline = Time::from_ticks(100_000);
    base.driver = DriverSpec::Balanced {
        rate: 0.2,
        window: 10,
        crash_fraction: 1.0,
    };
    let run = ContinuousScenario::new(base, TimeDelta::ticks(40), 30).run();
    let mut h = StableHasher::new();
    for g in &run.per_query {
        let o = &g.outcome;
        hash_answer(&mut h, &o.contributors, o.value, o.window.end().as_ticks());
    }
    got.push(format!("continuous {:016x}", h.finish()));

    assert_eq!(
        got,
        [
            "single-tree(ttl=6) 46d5c533c2d0a722",
            "multi-tree(ttl=6, k=3) 050d0e485fc75431",
            "continuous 20cfce7c96518074",
        ],
        "wave answer digests"
    );
}
