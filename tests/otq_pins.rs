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

use dds::core::rng::Rng;
use dds::core::time::Time;
use dds::net::algo::{diameter, is_connected};
use dds::net::generate::watts_strogatz;
use dds::protocols::harness::{QueryRun, SweepArena};
use dds::protocols::{DriverSpec, ProtocolKind, QueryScenario};
use dds::sim::snapshot::StableHasher;

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
    let pins: Vec<&str> = include_str!("../benchmark/pins/sim-otq-churn.txt")
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
