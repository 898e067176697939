//! Prints the experiment tables recorded in EXPERIMENTS.md.
//!
//! Usage: `run_experiments [--json] [--trace-dir <dir>]
//! [--baseline <file>] [e1 e2 … a2 | all]` (default: all).
//!
//! With `--json`, per-experiment records are additionally written to
//! `BENCH_sweeps.json` in the current directory: elapsed milliseconds,
//! total simulated runs and runs-per-second throughput, merged kernel
//! counters, the pooled p50/p99 delivery-latency and event-queue-depth
//! percentiles, and the critical-path decomposition (pooled p50/p99 total
//! plus summed transit/queueing/processing ticks from the kernel's
//! happened-before annotations), the pooled stabilization-time
//! percentiles (`p50_stabilization`/`p99_stabilization`, nonzero only for
//! the `stab1` record), plus the thread count the sweep pool used
//! (`DDS_THREADS`). Everything except the wall-clock fields is
//! byte-identical across thread counts.
//!
//! With `--baseline <file>`, each experiment's `runs_per_sec` is compared
//! against the record of the same id in a previously written
//! `BENCH_sweeps.json`; a drop of more than [`REGRESSION_TOLERANCE`]
//! fails the process with exit code 3 (the CI perf gate).
//!
//! With `--trace-dir <dir>`, every sweep run's kernel trace is rendered as
//! JSONL into `<dir>/<id>.jsonl` (one `{"t":"run",…}` header per run, in
//! seed order), and any flight-recorder dumps produced by spec-violating
//! runs are written to `<dir>/<id>_flight_<n>.jsonl` (at most
//! [`MAX_FLIGHT_DUMPS`] per experiment).

use std::path::PathBuf;
use std::time::Instant;

use dds_bench::registry;
use dds_protocols::obs as capture;
use dds_sim::metrics::Metrics;

/// Cap on flight-dump files written per experiment; anything beyond it is
/// reported on stderr rather than silently discarded.
const MAX_FLIGHT_DUMPS: usize = 8;

/// Maximum tolerated fractional drop in `runs_per_sec` against a
/// `--baseline` file before the gate fails (0.30 = 30% slower).
const REGRESSION_TOLERANCE: f64 = 0.30;

/// Experiments whose baseline finished faster than this are not gated:
/// at sub-millisecond wall times the throughput figure is timer noise
/// (the micro experiments swing ±40% between identical runs).
const MIN_GATED_WALL_MS: f64 = 5.0;

/// Per-experiment record for `BENCH_sweeps.json`.
struct Record {
    id: &'static str,
    wall_ms: f64,
    runs: u64,
    metrics: Metrics,
    p50_delivery_latency: u64,
    p99_delivery_latency: u64,
    p50_queue_depth: u64,
    p99_queue_depth: u64,
    p50_critical_path: u64,
    p99_critical_path: u64,
    crit_transit: u64,
    crit_queueing: u64,
    crit_processing: u64,
    p50_stabilization: u64,
    p99_stabilization: u64,
}

impl Record {
    fn runs_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.runs as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

fn main() {
    let mut json = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--json" => json = true,
            "--trace-dir" => {
                i += 1;
                match raw.get(i) {
                    Some(dir) => trace_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--trace-dir needs a directory argument");
                        std::process::exit(2);
                    }
                }
            }
            "--baseline" => {
                i += 1;
                match raw.get(i) {
                    Some(file) => baseline = Some(PathBuf::from(file)),
                    None => {
                        eprintln!("--baseline needs a file argument");
                        std::process::exit(2);
                    }
                }
            }
            other => args.push(other.to_lowercase()),
        }
        i += 1;
    }
    if let Some(dir) = &trace_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            std::process::exit(1);
        }
    }
    let want_all = args.is_empty() || args.iter().any(|a| a == "all");
    let mut records: Vec<Record> = Vec::new();
    for (id, build) in registry() {
        if !want_all && !args.iter().any(|a| a == id) {
            continue;
        }
        if trace_dir.is_some() {
            capture::begin_capture();
        }
        let start = Instant::now();
        let e = build();
        let wall = start.elapsed();
        if let Some(dir) = &trace_dir {
            write_captured(dir, id, capture::end_capture());
        }
        println!("== {} — {}\n", e.id, e.title);
        println!("{}", e.table);
        records.push(Record {
            id,
            wall_ms: wall.as_secs_f64() * 1e3,
            runs: e.total_runs(),
            metrics: e.merged_metrics(),
            p50_delivery_latency: e.latency.percentile(50.0),
            p99_delivery_latency: e.latency.percentile(99.0),
            p50_queue_depth: e.queue_depth.percentile(50.0),
            p99_queue_depth: e.queue_depth.percentile(99.0),
            p50_critical_path: e.critical.percentile(50.0),
            p99_critical_path: e.critical.percentile(99.0),
            crit_transit: e.crit_transit,
            crit_queueing: e.crit_queueing,
            crit_processing: e.crit_processing,
            p50_stabilization: e.stabilization.percentile(50.0),
            p99_stabilization: e.stabilization.percentile(99.0),
        });
    }
    if records.is_empty() {
        eprintln!("unknown experiment ids; known: e1..e10, a1..a4, all");
        std::process::exit(2);
    }
    println!("(seeds fixed; rerunning reproduces these tables bit-for-bit)");
    if json {
        let path = std::path::Path::new("BENCH_sweeps.json");
        // Merge rather than overwrite: records of ids this run did not
        // produce (other experiment subsets, the networked `net1` row
        // from `run_net`) are preserved so the baseline gate keeps
        // seeing them.
        let lines: Vec<(String, String)> = records
            .iter()
            .map(|r| (r.id.to_string(), render_record(r)))
            .collect();
        match dds_bench::sweeps::upsert_sweeps(path, &lines, true) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(file) = baseline {
        check_baseline(&file, &records);
    }
}

/// Compares each record's throughput against the baseline file (a
/// previously written `BENCH_sweeps.json`); exits 3 on any regression
/// beyond [`REGRESSION_TOLERANCE`]. Experiments absent from the baseline
/// (or with zero/unmeasured throughput there) are skipped with a note.
fn check_baseline(file: &std::path::Path, records: &[Record]) {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("cannot read baseline {}: {err}", file.display());
            std::process::exit(2);
        }
    };
    let base = parse_baseline(&text);
    let mut failed = false;
    for r in records {
        let now = r.runs_per_sec();
        let Some(&(_, was, wall_ms)) = base.iter().find(|(id, ..)| id == r.id) else {
            eprintln!("baseline: {} not present, skipping", r.id);
            continue;
        };
        if was <= 0.0 {
            eprintln!("baseline: {} has no throughput recorded, skipping", r.id);
            continue;
        }
        if wall_ms < MIN_GATED_WALL_MS {
            eprintln!(
                "baseline: {} too fast to gate ({wall_ms:.3} ms), skipping",
                r.id
            );
            continue;
        }
        let ratio = now / was;
        let verdict = if ratio < 1.0 - REGRESSION_TOLERANCE {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "baseline: {} {:.1} -> {:.1} runs/sec ({:+.1}%) {}",
            r.id,
            was,
            now,
            (ratio - 1.0) * 100.0,
            verdict
        );
    }
    if failed {
        eprintln!(
            "throughput regressed by more than {:.0}% on at least one experiment",
            REGRESSION_TOLERANCE * 100.0
        );
        std::process::exit(3);
    }
}

/// Extracts `(id, runs_per_sec, wall_ms)` triples from a
/// `BENCH_sweeps.json` document. Hand-rolled like the writer: each
/// experiment line carries its key pairs in a known order.
fn parse_baseline(text: &str) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(id) = extract_str(line, "\"id\": \"") else {
            continue;
        };
        let Some(rps) = extract_num(line, "\"runs_per_sec\": ") else {
            continue;
        };
        let wall_ms = extract_num(line, "\"wall_ms\": ").unwrap_or(0.0);
        out.push((id, rps, wall_ms));
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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
    for (n, dump) in captured.flight_dumps.iter().take(MAX_FLIGHT_DUMPS).enumerate() {
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

/// Renders one record as its single-line JSON object (no serializer
/// dependency; every field is numeric or a known-safe id).
fn render_record(r: &Record) -> String {
    format!(
        "{{\"id\": \"{}\", \"wall_ms\": {:.3}, \"runs\": {}, \"runs_per_sec\": {:.1}, \
\"p50_delivery_latency\": {}, \"p99_delivery_latency\": {}, \
\"p50_queue_depth\": {}, \"p99_queue_depth\": {}, \
\"p50_critical_path\": {}, \"p99_critical_path\": {}, \
\"crit_transit\": {}, \"crit_queueing\": {}, \"crit_processing\": {}, \
\"p50_stabilization\": {}, \"p99_stabilization\": {}, \"metrics\": {}}}",
        r.id,
        r.wall_ms,
        r.runs,
        r.runs_per_sec(),
        r.p50_delivery_latency,
        r.p99_delivery_latency,
        r.p50_queue_depth,
        r.p99_queue_depth,
        r.p50_critical_path,
        r.p99_critical_path,
        r.crit_transit,
        r.crit_queueing,
        r.crit_processing,
        r.p50_stabilization,
        r.p99_stabilization,
        r.metrics.to_json(),
    )
}
