//! Dynamic storage: a read/write register service that survives churn.
//!
//! Runs the `dds-store` timed-quorum service on a 12-node complete graph
//! at increasing churn rates, then replays one churned run in detail,
//! printing every epoch transition the reconfiguration engine committed
//! and the p99 operation latency.
//!
//! The qualitative claim on display is the paper's liveness frontier:
//! below the sustainable churn bound (quorum refresh outpaces
//! replacement) every operation completes and every history is atomic;
//! above it the engine aborts operations explicitly instead of hanging.
//!
//! Run with: `cargo run --release --example dynamic_storage`

use dds_core::churn::ChurnSpec;
use dds_core::spec::register::check_atomic;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_store::StoreScenario;

fn scenario(rate: f64, seed: u64) -> StoreScenario {
    let mut s = StoreScenario::new(generate::complete(12), seed);
    s.deadline = Time::from_ticks(900);
    s.ops_per_client = 10;
    if rate > 0.0 {
        s.churn = ChurnSpec::rate(rate, TimeDelta::ticks(40)).expect("valid churn spec");
    }
    s
}

fn main() {
    const SEEDS: u64 = 10;
    let rates = [0.0, 0.02, 0.05, 0.1, 0.3, 0.8];

    println!("timed-quorum storage, 12-node complete graph, {SEEDS} seeds per rate\n");
    println!(
        "{:<10} {:>6} {:>10} {:>8} {:>7} {:>8} {:>12}",
        "churn", "bound", "completed", "aborted", "epochs", "p99(t)", "atomic runs"
    );
    for rate in rates {
        let mut completed = 0u64;
        let mut aborted = 0u64;
        let mut max_epoch = 0u64;
        let mut atomic = 0u64;
        let mut above = false;
        let mut latency = dds_obs::Histogram::new();
        for seed in 0..SEEDS {
            let report = scenario(rate, seed).run();
            completed += report.completed;
            aborted += report.aborted;
            max_epoch = max_epoch.max(report.max_epoch);
            above = report.above_bound;
            if check_atomic(&report.history).is_ok_and(|l| l.is_linearizable()) {
                atomic += 1;
            }
            latency.merge(&report.latency);
        }
        println!(
            "{:<10} {:>6} {:>10} {:>8} {:>7} {:>8} {:>9}/{:<2}",
            format!("{:.0}%/40t", rate * 100.0),
            if above { "above" } else { "below" },
            completed,
            aborted,
            max_epoch,
            latency.percentile(99.0),
            atomic,
            SEEDS,
        );
    }

    // One churned run in detail: watch the reconfiguration engine walk
    // the configuration through epochs as replicas leave and join.
    let report = scenario(0.05, 7).run();
    println!("\none run at 5%/40t churn (seed 7): epoch transitions");
    for (at, epoch) in &report.epoch_transitions {
        println!("  t={:>4}  adopted epoch {epoch}", at.as_ticks());
    }
    println!(
        "\n{} ops completed, {} aborted, {} reconfigurations, {} migrations",
        report.completed, report.aborted, report.reconfigs, report.migrations
    );
    println!(
        "op latency: p50 {} ticks, p99 {} ticks; history atomic: {}",
        report.latency.percentile(50.0),
        report.latency.percentile(99.0),
        check_atomic(&report.history).is_ok_and(|l| l.is_linearizable()),
    );
}
