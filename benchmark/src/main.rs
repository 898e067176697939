//! The repo benchmark: five workloads measured end to end and layer by
//! layer, from outside the crates they exercise. See `README.md` beside
//! this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! dds-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON result last
//! dds-benchmark run   [--seed N] [--smoke]    every workload, spans off, end-to-end metrics
//! dds-benchmark trace [--seed N] [--smoke]    every workload, spans on, per-layer metrics
//! dds-benchmark aa    [--seed N]              two sets of ten runs: spreads and agreement
//! dds-benchmark manifest | pins               regenerate BENCHMARK.json / pins/
//! ```
//!
//! A workload always runs in a process of its own: `run`, `trace` and
//! `aa` start this binary once per run, exactly as the driver does, so
//! their numbers are the driver's and no state (peak RSS, CPU pinning,
//! warmed caches) passes from one workload to the next.

mod api;
mod check;
mod cluster;
mod net;
mod pins;
mod probes;
mod procfs;
mod report;
mod sim;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use trace::Tracer;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Everything a workload needs to run once.
pub struct Ctx {
    pub seed: u64,
    /// How long the run measures.
    pub window: Duration,
    pub trace: bool,
    /// Where the `svc_seed` / `svc_replica` release binaries are.
    pub bin_dir: PathBuf,
    pub tracer: Tracer,
}

/// The repo this benchmark was built in (the parent of its package).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repo root")
}

/// Builds the shipped service binaries into the target directory this
/// binary runs from; returns that directory and the build time.
fn build_service() -> Result<(PathBuf, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let target_dir = bin_dir.parent().ok_or("no target directory")?;
    let t = Instant::now();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dds-svc",
        ])
        .args(["--bin", "svc_seed", "--bin", "svc_replica"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build of svc_seed/svc_replica failed: {status}"
        ));
    }
    for bin in ["svc_seed", "svc_replica"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!("{} was not built", bin_dir.join(bin).display()));
        }
    }
    Ok((bin_dir, t.elapsed().as_secs_f64()))
}

/// Runs one workload once. A traced run also runs the probes of the
/// layers the workload drives and writes the spans to
/// `.bench_run/trace-<workload>.jsonl`.
fn run_workload(
    name: &str,
    seed: u64,
    window: Duration,
    trace: bool,
    bin_dir: &Path,
) -> Result<Outcome, String> {
    // A traced run allocates the span buffer up front; the workload
    // switches recording on for its traced half.
    let mut ctx = Ctx {
        seed,
        window,
        trace,
        bin_dir: bin_dir.to_path_buf(),
        tracer: Tracer::new(trace),
    };
    ctx.tracer.on = false;
    let mut out = match name {
        "net-steady" => net::run_steady(&mut ctx),
        "net-paced-kill" => net::run_paced_kill(&mut ctx),
        "sim-otq-churn" => sim::run_otq_churn(&mut ctx),
        "sim-store-churn" => sim::run_store_churn(&mut ctx),
        "check-explore" => check::run_explore(&mut ctx),
        other => Err(format!("unknown workload {other}")),
    }?;
    if trace {
        ctx.tracer.on = true;
        probes::run_for(name, &mut out.layers, &mut ctx.tracer);
        let dir = Path::new(cluster::RUN_ROOT);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!("trace-{name}.jsonl"));
        std::fs::write(&file, ctx.tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", file.display()))?;
        out.info
            .push(format!("spans written to {}", file.display()));
        for (span, a) in ctx.tracer.aggs() {
            out.info.push(format!(
                "span {span}: {} calls, {:.3} ms total, {:.3} ms self",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            ));
        }
    }
    Ok(out)
}

/// Prints every metric of the run by name with its unit and bound.
fn print_table(name: &str, o: &Outcome, traced: bool) {
    println!(
        "workload {name}: attempted {} failed {} correct {}",
        o.attempted,
        o.failed,
        o.correct()
    );
    for line in o.faults.iter() {
        println!("  FAULT {line}");
    }
    for line in o.info.iter() {
        println!("  {line}");
    }
    if traced {
        for m in PER_LAYER {
            println!("  {:44} {:>18.4} {}", m.name, o.layers.get(m.name), m.unit);
        }
    } else {
        for (m, v) in END_TO_END.iter().zip(o.e2e.values()) {
            println!(
                "  {:18} {v:>16.4} {:6} ({} is better, bound {:.0}%)",
                m.name,
                m.unit,
                m.better,
                m.bound * 100.0
            );
        }
    }
}

/// Records the environment the numbers were taken in.
fn print_environment(build_s: f64) {
    let (load, cpus) = procfs::load_and_cpus();
    let noisy = load > cpus as f64;
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    println!(
        "environment: cpus {cpus}, loadavg {load:.2}, noisy: {noisy}, build_s {build_s:.3}, \
         DDS_THREADS={} DDS_QUEUE={} DDS_EXPLORE={}",
        var("DDS_THREADS"),
        var("DDS_QUEUE"),
        var("DDS_EXPLORE")
    );
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

/// Runs per set of `aa`: what the acceptance procedure takes.
const AA_RUNS: u64 = 10;
/// How long `--smoke` lets each workload measure, in seconds.
const SMOKE_SECONDS: f64 = 2.0;

fn parse_flags(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

/// `"name": {"value": <number>` of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One run as the driver makes it: this binary in a process of its own.
/// Returns what it printed; its last line is the result. A run whose
/// output check failed (exit 4) still returns its output.
fn run_as_driver(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !matches!(out.status.code(), Some(0 | 4)) {
        return Err(format!(
            "{name} seed {seed} printed no result ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim_end()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Whether the result line ending `stdout` reports a correct run.
fn is_correct(stdout: &str) -> bool {
    stdout
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"correct\": true"))
}

/// Runs every workload once, each in its own process, and prints what it
/// printed; `Ok(false)` when any output check failed.
fn run_all(a: &Args, traced: bool) -> Result<bool, String> {
    let seconds = if a.smoke { SMOKE_SECONDS } else { a.seconds };
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let stdout = run_as_driver(name, a.seed, seconds, traced)?;
        print!("{stdout}");
        ok &= is_correct(&stdout);
    }
    Ok(ok)
}

/// The driver's acceptance procedure: two sets of [`AA_RUNS`] runs per
/// workload, each run with another seed. Per metric it prints both
/// medians, the wider of the two spreads (interquartile range over
/// median) and how much worse the second median is, against the bound.
fn run_aa(a: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        // sets[set][metric][run]
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for set in &mut sets {
            for run in 0..AA_RUNS {
                let stdout = run_as_driver(name, a.seed + run, a.seconds, false)?;
                let line = stdout.lines().last().unwrap_or_default();
                let values: Vec<f64> = END_TO_END
                    .iter()
                    .filter_map(|m| metric_value(line, m.name))
                    .collect();
                if values.len() != END_TO_END.len() {
                    return Err(format!("{name}: malformed result line {line}"));
                }
                let correct = is_correct(&stdout);
                println!(
                    "  {name} seed {}: correct {correct}, {values:?}",
                    a.seed + run
                );
                ok &= correct;
                for (m, v) in set.iter_mut().zip(values) {
                    m.push(v);
                }
            }
        }
        println!("workload {name}: two sets of {AA_RUNS} runs");
        for (i, m) in END_TO_END.iter().enumerate() {
            let first = stats::median(&mut sets[0][i].clone());
            let second = stats::median(&mut sets[1][i].clone());
            let worse = if m.better == "lower" {
                second / first - 1.0
            } else {
                first / second - 1.0
            };
            let spread = stats::iqr_share(&sets[0][i]).max(stats::iqr_share(&sets[1][i]));
            // The spread of setup_s is not gated, only its median.
            let within = worse <= m.bound && (spread <= m.bound || m.name == "setup_s");
            ok &= within;
            println!(
                "  {:18} {first:>14.4} -> {second:>14.4} {:+7.2}% worse, spread {:6.2}%, bound {:.0}%{}",
                m.name,
                worse * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  OUTSIDE" }
            );
        }
    }
    Ok(ok)
}

/// Re-executes this binary once with address-space randomisation off
/// (see [`sys::disable_aslr`]); carries on as is where that is refused.
fn fix_address_space() {
    use std::os::unix::process::CommandExt as _;
    const MARK: &str = "DDS_BENCH_FIXED_LAYOUT";
    if std::env::var_os(MARK).is_some() || !sys::disable_aslr() {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        // `exec` only returns on failure; then this process just continues.
        let _ = Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(MARK, "1")
            .exec();
    }
}

fn real_main() -> Result<bool, String> {
    fix_address_space();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match raw.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), &raw[1..]),
        _ => ("one".to_string(), &raw[..]),
    };
    match cmd.as_str() {
        "manifest" => {
            print!("{}", report::manifest_json());
            return Ok(true);
        }
        "pins" => {
            sim::write_pins()?;
            check::write_pins()?;
            return Ok(true);
        }
        _ => {}
    }
    let a = parse_flags(flags)?;
    match cmd.as_str() {
        "one" => {
            let name = a.workload.as_deref().ok_or("--workload is required")?;
            // One sweep thread, default queue and explorer: the sim and
            // check workloads measure the code, not the scheduler.
            std::env::set_var("DDS_THREADS", "1");
            std::env::remove_var("DDS_QUEUE");
            std::env::remove_var("DDS_EXPLORE");
            let (bin_dir, build_s) = build_service()?;
            print_environment(build_s);
            let window = Duration::from_secs_f64(a.seconds);
            let o = run_workload(name, a.seed, window, a.trace, &bin_dir)?;
            print_table(name, &o, a.trace);
            // The result line comes last.
            println!("{}", report::result_json(&o, a.trace));
            Ok(o.correct())
        }
        "run" => run_all(&a, false),
        "trace" => run_all(&a, true),
        "aa" => run_aa(&a),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dds-benchmark: an output check failed");
            ExitCode::from(4)
        }
        Err(e) => {
            eprintln!("dds-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
