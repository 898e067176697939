//! Storage soak: the `dds-store` service swept across churn rates.
//!
//! Usage: `run_store [--json <file>] [--dump-dir <dir>] [--seeds N]
//! [--threads N]`.
//!
//! Runs a grid of churn rates × seeds through [`dds_store::StoreScenario`]
//! (cells in parallel via the deterministic sweep pool, folded in input
//! order), judges every history with the Wing–Gong atomicity checker, and
//! prints a per-rate table. Two gates make this the CI storage job:
//!
//! - a **below-bound** cell with a non-linearizable history, or
//! - an **above-bound** rate whose runs never report a liveness abort
//!   (operations must abort, not hang or silently vanish),
//!
//! exit with code 4. With `--json <file>` a summary document is written;
//! it contains no wall-clock fields, so reruns at any `DDS_THREADS` are
//! byte-identical (CI diffs a 1-thread against an 8-thread run).
//! Throughput (ops/sec, wall-clock) goes to stderr only. With
//! `--dump-dir <dir>` every gate-violating cell is replayed with a
//! flight-recorder sink and its recent event history dumped as JSONL.

use std::path::PathBuf;
use std::time::Instant;

use dds_core::churn::ChurnSpec;
use dds_core::spec::register::check_atomic;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_obs::{FlightRecorder, Histogram, Sink};
use dds_sim::parallel::parallel_map;
use dds_store::StoreScenario;

const RATES: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.3, 0.8];

fn scenario(rate: f64, seed: u64) -> StoreScenario {
    let mut s = StoreScenario::new(generate::complete(12), seed);
    s.deadline = Time::from_ticks(900);
    s.ops_per_client = 10;
    if rate > 0.0 {
        s.churn = ChurnSpec::rate(rate, TimeDelta::ticks(40)).expect("valid churn spec");
    }
    s
}

/// Per-cell outcome (everything deterministic; no wall-clock).
struct Cell {
    rate_idx: usize,
    seed: u64,
    completed: u64,
    aborted: u64,
    retries: u64,
    max_epoch: u64,
    reconfigs: u64,
    latency: Histogram,
    quorum: Histogram,
    atomic: bool,
    above_bound: bool,
}

fn run_cell(rate_idx: usize, seed: u64) -> Cell {
    let s = scenario(RATES[rate_idx], seed);
    let report = s.run();
    Cell {
        rate_idx,
        seed,
        completed: report.completed,
        aborted: report.aborted,
        retries: report.retries,
        max_epoch: report.max_epoch,
        reconfigs: report.reconfigs,
        atomic: check_atomic(&report.history).is_ok_and(|l| l.is_linearizable()),
        above_bound: report.above_bound,
        latency: report.latency,
        quorum: report.quorum,
    }
}

struct RateRow {
    rate: f64,
    above_bound: bool,
    completed: u64,
    aborted: u64,
    retries: u64,
    max_epoch: u64,
    reconfigs: u64,
    atomic_runs: u64,
    runs: u64,
    latency: Histogram,
    quorum: Histogram,
}

fn main() {
    let mut json: Option<PathBuf> = None;
    let mut dump_dir: Option<PathBuf> = None;
    let mut seeds = 12u64;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let need = |i: &mut usize| -> String {
            *i += 1;
            raw.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{} needs an argument", raw[*i - 1]);
                std::process::exit(2);
            })
        };
        match raw[i].as_str() {
            "--json" => json = Some(PathBuf::from(need(&mut i))),
            "--dump-dir" => dump_dir = Some(PathBuf::from(need(&mut i))),
            "--seeds" => {
                seeds = need(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("--seeds needs a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(dir) = &dump_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            std::process::exit(1);
        }
    }

    let grid: Vec<(usize, u64)> = (0..RATES.len())
        .flat_map(|r| (0..seeds).map(move |s| (r, s)))
        .collect();
    let start = Instant::now();
    let cells = parallel_map(grid, |(r, s)| run_cell(r, s));
    let wall = start.elapsed();

    // Fold per rate, in input order (determinism across thread counts).
    let mut rows: Vec<RateRow> = RATES
        .iter()
        .map(|&rate| RateRow {
            rate,
            above_bound: false,
            completed: 0,
            aborted: 0,
            retries: 0,
            max_epoch: 0,
            reconfigs: 0,
            atomic_runs: 0,
            runs: 0,
            latency: Histogram::new(),
            quorum: Histogram::new(),
        })
        .collect();
    let mut violations: Vec<(usize, u64, String)> = Vec::new();
    for cell in &cells {
        let row = &mut rows[cell.rate_idx];
        row.above_bound = cell.above_bound;
        row.completed += cell.completed;
        row.aborted += cell.aborted;
        row.retries += cell.retries;
        row.max_epoch = row.max_epoch.max(cell.max_epoch);
        row.reconfigs += cell.reconfigs;
        row.runs += 1;
        if cell.atomic {
            row.atomic_runs += 1;
        } else if !cell.above_bound {
            violations.push((
                cell.rate_idx,
                cell.seed,
                "below-bound history is not linearizable".into(),
            ));
        }
        row.latency.merge(&cell.latency);
        row.quorum.merge(&cell.quorum);
    }
    for (idx, row) in rows.iter().enumerate() {
        if row.above_bound && row.aborted == 0 {
            violations.push((
                idx,
                u64::MAX,
                "above-bound rate reported no liveness aborts".into(),
            ));
        }
    }

    println!(
        "{:<10} {:>6} {:>10} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8} {:>12}",
        "churn",
        "bound",
        "completed",
        "aborted",
        "retries",
        "epochs",
        "reconfigs",
        "p50(t)",
        "p99(t)",
        "atomic runs"
    );
    for row in &rows {
        println!(
            "{:<10} {:>6} {:>10} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}/{:<2}",
            format!("{:.0}%/40t", row.rate * 100.0),
            if row.above_bound { "above" } else { "below" },
            row.completed,
            row.aborted,
            row.retries,
            row.max_epoch,
            row.reconfigs,
            row.latency.percentile(0.5),
            row.latency.percentile(0.99),
            row.atomic_runs,
            row.runs,
        );
    }
    let total_ops: u64 = rows.iter().map(|r| r.completed + r.aborted).sum();
    eprintln!(
        "soak: {} cells, {} ops in {:.1} ms ({:.0} ops/sec wall-clock)",
        cells.len(),
        total_ops,
        wall.as_secs_f64() * 1e3,
        total_ops as f64 / wall.as_secs_f64().max(1e-9),
    );
    for (idx, seed, reason) in &violations {
        eprintln!("VIOLATION rate={} seed={seed}: {reason}", RATES[*idx]);
    }

    if let Some(dir) = &dump_dir {
        for (idx, seed, reason) in &violations {
            if *seed == u64::MAX {
                continue; // rate-level gate, no single cell to replay
            }
            let s = scenario(RATES[*idx], *seed);
            let path = dir.join(format!(
                "store_r{}_s{seed}.jsonl",
                (RATES[*idx] * 100.0) as u64
            ));
            let mut world = s.build();
            world.set_sink(FlightRecorder::new(512).with_dump_path(&path));
            world.run_until(s.deadline);
            let at = world.now();
            if let Some(sink) = world.take_sink() {
                if let Ok(mut fr) = sink.into_any().downcast::<FlightRecorder>() {
                    fr.fail(reason, at);
                    eprintln!("wrote {}", path.display());
                }
            }
        }
    }

    if let Some(path) = &json {
        match std::fs::write(path, render_json(&rows, seeds, violations.is_empty())) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }
    if !violations.is_empty() {
        std::process::exit(4);
    }
}

/// Summary JSON in the `BENCH_sweeps.json` style: hand-rolled, numeric
/// fields only, and — deliberately — no wall-clock fields, so the
/// document is byte-identical across reruns and thread counts.
fn render_json(rows: &[RateRow], seeds: u64, ok: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"seeds_per_rate\": {seeds}, \"ok\": {ok},\n  \"rates\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"churn_rate\": {}, \"above_bound\": {}, \"completed\": {}, \
\"aborted\": {}, \"retries\": {}, \"max_epoch\": {}, \"reconfigs\": {}, \
\"p50_latency\": {}, \"p99_latency\": {}, \"p50_quorum\": {}, \"p99_quorum\": {}, \
\"atomic_runs\": {}, \"runs\": {}}}{}\n",
            r.rate,
            r.above_bound,
            r.completed,
            r.aborted,
            r.retries,
            r.max_epoch,
            r.reconfigs,
            r.latency.percentile(0.5),
            r.latency.percentile(0.99),
            r.quorum.percentile(0.5),
            r.quorum.percentile(0.99),
            r.atomic_runs,
            r.runs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
