//! Causal-DAG statistics over the JSONL artifacts this repository emits.
//!
//! Usage: `run_trace <dir-or-file>...`.
//!
//! Feeds every `*.jsonl` file under the given directories (or the files
//! themselves) through [`dds_obs::CausalDag::from_jsonl_runs`] — traces
//! from `run_experiments --trace-dir`, flight dumps and causal-chain
//! dumps from `run_check --dump-dir`, anything with `"id"`/`"cause"`
//! fields — and prints one deterministic stats line per file: event
//! count, DAG depth and width, max fan-out, and the critical path
//! decomposed into transit/queueing/processing ticks. Multi-run trace
//! exports are split at their `{"t":"run",…}` headers (event ids restart
//! per run) and reported as the aggregate: summed events, per-run maxima
//! for the shape stats, and the single longest per-run critical path.
//! Files and directory entries are processed in sorted order and the
//! output carries no wall-clock fields, so reruns are byte-identical.
//! Files without a single identified event report `events=0` rather than
//! failing: headers and unannotated lines are skipped by the parser.
//!
//! Exit 2 is bad arguments or an unreadable path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dds_obs::{CausalDag, CriticalPath};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: run_trace <dir-or-file>...");
        std::process::exit(2);
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in &args {
        let path = PathBuf::from(arg);
        if path.is_dir() {
            let entries = match std::fs::read_dir(&path) {
                Ok(entries) => entries,
                Err(err) => {
                    eprintln!("cannot read {}: {err}", path.display());
                    std::process::exit(2);
                }
            };
            let mut found: Vec<PathBuf> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
                .collect();
            found.sort();
            files.extend(found);
        } else if path.is_file() {
            files.push(path);
        } else {
            eprintln!("no such file or directory: {}", path.display());
            std::process::exit(2);
        }
    }
    if files.is_empty() {
        eprintln!("no .jsonl files found");
        std::process::exit(2);
    }

    let mut total_events = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("cannot read {}: {err}", file.display());
                std::process::exit(2);
            }
        };
        let dags = CausalDag::from_jsonl_runs(&text);
        let events: usize = dags.iter().map(CausalDag::len).sum();
        total_events += events;
        if let [dag] = dags.as_slice() {
            println!("{}: {}", display_name(file), dag.summary());
        } else {
            // A multi-run export: shape stats as per-run maxima, and the
            // longest per-run critical path (earliest run wins ties, so
            // the line stays deterministic).
            let mut critical = CriticalPath::default();
            for dag in &dags {
                let cp = dag.critical_path();
                if cp.total > critical.total {
                    critical = cp;
                }
            }
            println!(
                "{}: runs={} events={events} depth={} width={} max_fan_out={} critical[{critical}]",
                display_name(file),
                dags.len(),
                dags.iter().map(CausalDag::depth).max().unwrap_or(0),
                dags.iter().map(CausalDag::width).max().unwrap_or(0),
                dags.iter().map(CausalDag::max_fan_out).max().unwrap_or(0),
            );
        }
        // Per-process causal fan-out (summed across runs), most active
        // first (ties by pid): which processes' events drive runs forward.
        let mut fan_total: BTreeMap<dds_core::process::ProcessId, u64> = BTreeMap::new();
        for dag in &dags {
            for (pid, n) in dag.fan_out() {
                *fan_total.entry(pid).or_insert(0) += n;
            }
        }
        let mut fan: Vec<(u64, dds_core::process::ProcessId)> =
            fan_total.into_iter().map(|(pid, n)| (n, pid)).collect();
        fan.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        if !fan.is_empty() {
            let line: Vec<String> = fan
                .iter()
                .take(8)
                .map(|(n, pid)| format!("p{}={n}", pid.as_raw()))
                .collect();
            println!("  fan-out: {}", line.join(" "));
        }
    }
    println!("{} files, {} causal events", files.len(), total_events);
}

/// The file name alone: stats lines stay identical wherever the artifact
/// directory lives (CI scratch dirs are not deterministic, file names are).
fn display_name(path: &Path) -> std::borrow::Cow<'_, str> {
    path.file_name()
        .map_or_else(|| path.to_string_lossy(), |name| name.to_string_lossy())
}
