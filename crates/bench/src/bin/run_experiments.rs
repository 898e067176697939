//! Prints the experiment tables recorded in EXPERIMENTS.md.
//!
//! Usage: `run_experiments [--json] [--trace-dir <dir>] [e1 e2 … a2 | all]`
//! (default: all). Any other `--flag` exits 2.
//!
//! With `--json`, `BENCH_sweeps.json` in the current directory is
//! overwritten with one line per experiment run ([`dds_bench::ledger`]):
//! total simulated runs, the pooled p50/p99 of every observation
//! histogram the experiment filled (delivery latency, event-queue depth,
//! critical path plus its summed transit/queueing/processing ticks,
//! stabilization time) and the merged kernel counters. No field depends
//! on the clock or the thread count; the checked-in file is the full run
//! and `tests/experiment_pins.rs` holds it byte for byte. Wall time per
//! experiment goes to stderr, for information only.
//!
//! With `--trace-dir <dir>`, every sweep run's kernel trace is rendered as
//! JSONL into `<dir>/<id>.jsonl` (one `{"t":"run",…}` header per run, in
//! seed order), and any flight-recorder dumps produced by spec-violating
//! runs are written to `<dir>/<id>_flight_<n>.jsonl` (at most
//! [`MAX_FLIGHT_DUMPS`] per experiment).

use std::path::PathBuf;
use std::time::Instant;

use dds_bench::{ledger, registry, TABLES_FOOTER};
use dds_protocols::obs as capture;

/// Cap on flight-dump files written per experiment; anything beyond it is
/// reported on stderr rather than silently discarded.
const MAX_FLIGHT_DUMPS: usize = 8;

fn main() {
    let mut json = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--trace-dir" => match raw.next() {
                Some(dir) => trace_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--trace-dir needs a directory argument");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}; usage: run_experiments [--json] [--trace-dir <dir>] [ids…]");
                std::process::exit(2);
            }
            id => args.push(id.to_lowercase()),
        }
    }
    if let Some(dir) = &trace_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            std::process::exit(1);
        }
    }
    let want_all = args.is_empty() || args.iter().any(|a| a == "all");
    let mut experiments = Vec::new();
    for (id, build) in registry() {
        if !want_all && !args.iter().any(|a| a == id) {
            continue;
        }
        if trace_dir.is_some() {
            capture::begin_capture();
        }
        let start = Instant::now();
        let e = build();
        eprintln!("{id}: {:.1} ms", start.elapsed().as_secs_f64() * 1e3);
        if let Some(dir) = &trace_dir {
            write_captured(dir, id, capture::end_capture());
        }
        print!("{}", e.report());
        experiments.push(e);
    }
    if experiments.is_empty() {
        eprintln!("unknown experiment ids; known: e1..e10, a1..a4, all");
        std::process::exit(2);
    }
    print!("{TABLES_FOOTER}");
    if json {
        let path = std::path::Path::new("BENCH_sweeps.json");
        match std::fs::write(path, ledger(&experiments)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Writes one experiment's captured traces and flight dumps under `dir`.
fn write_captured(dir: &std::path::Path, id: &str, captured: capture::Captured) {
    if !captured.traces.is_empty() {
        let mut out = String::new();
        for (i, trace) in captured.traces.iter().enumerate() {
            out.push_str(&format!("{{\"t\":\"run\",\"index\":{i}}}\n"));
            out.push_str(trace);
        }
        let path = dir.join(format!("{id}.jsonl"));
        if let Err(err) = std::fs::write(&path, out) {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    let dumps = captured.flight_dumps.len();
    for (n, dump) in captured
        .flight_dumps
        .iter()
        .take(MAX_FLIGHT_DUMPS)
        .enumerate()
    {
        let path = dir.join(format!("{id}_flight_{n}.jsonl"));
        if let Err(err) = std::fs::write(&path, dump) {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    if dumps > MAX_FLIGHT_DUMPS {
        eprintln!("{id}: {dumps} flight dumps captured, wrote the first {MAX_FLIGHT_DUMPS}");
    }
}
