//! Budgeted schedule exploration over the dds-check validation suite.
//!
//! Usage: `run_check [--json <file>] [--dump-dir <dir>] [--telemetry <file>]`.
//!
//! Runs every correct/mutant pair in [`dds_check::mutants::suite`] through
//! the bounded explorer at the default [`Budget`] — the snapshot-forking
//! engine with its DFS frontier sharded across `DDS_THREADS` workers
//! ([`dds_check::explore_parallel`]), whole-run replay for the register
//! schedules, which have no world to fork — falling back to the fuzzer for
//! mutants the explorer misses. The fallback is the one the suite's own
//! tests grant (fuzzer seed 1, 300 attempts, depth 64), so a conviction is
//! a property of the code, not of a flag. A correct target that yields a
//! counterexample, or a mutant that escapes both passes, is a suite
//! failure: the process exits 4 (the CI checking gate). Exit 2 is bad
//! arguments.
//!
//! With `--json <file>` a summary document in the `BENCH_sweeps.json`
//! style is written there; every field is deterministic, so reruns — at
//! any `DDS_THREADS` — are byte-identical (CI `cmp`s two of them).
//! Wall time, throughput (`states/sec`) and progress lines go to stderr
//! only, for the same reason. With `--dump-dir <dir>`
//! every counterexample is replayed once more and its event history
//! dumped as `<dir>/<target>.jsonl` flight-recorder JSONL, with the
//! witness's minimal happened-before chain next to it as
//! `<dir>/<target>_chain.jsonl`. With `--telemetry <file>` the explorer's
//! periodic progress samples (integer fields only — deterministic at any
//! thread count) are appended there as JSONL.

use std::path::PathBuf;
use std::time::Instant;

use dds_check::mutants::suite;
use dds_check::{explore_parallel, fuzz, Budget, Counterexample, ProgressSample};

/// The fuzzer seed and attempts a mutant the explorer missed gets: what
/// the tests of `mutants::suite()` grant.
const FUZZ_SEED: u64 = 1;
const FUZZ_ATTEMPTS: usize = 300;

struct Row {
    name: String,
    expect_violation: bool,
    violation_found: bool,
    explore_runs: usize,
    states_explored: usize,
    dedup_hits: usize,
    forks: usize,
    fuzz_runs: usize,
    exhausted: bool,
    counterexample: Option<Counterexample>,
    progress: Vec<ProgressSample>,
}

impl Row {
    fn ok(&self) -> bool {
        self.violation_found == self.expect_violation
    }
}

fn main() {
    let mut json: Option<PathBuf> = None;
    let mut dump_dir: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> = None;
    let budget = Budget::default();
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
            "--telemetry" => telemetry = Some(PathBuf::from(need(&mut i))),
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

    let start = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    for subject in suite() {
        let target_start = Instant::now();
        let explored = explore_parallel(subject.build, budget);
        let target_secs = target_start.elapsed().as_secs_f64();
        // The instance used for fallback fuzzing and counterexample dumps;
        // exploration itself builds its own copies per frontier shard.
        let mut target = (subject.build)();
        let mut row = Row {
            name: target.name().to_string(),
            expect_violation: subject.expect_violation,
            violation_found: explored.counterexample.is_some(),
            explore_runs: explored.runs,
            states_explored: explored.states_explored,
            dedup_hits: explored.dedup_hits,
            forks: explored.forks,
            fuzz_runs: 0,
            exhausted: explored.exhausted,
            counterexample: explored.counterexample,
            progress: explored.progress,
        };
        // Wall-clock-derived, so stderr only: stdout and the JSON document
        // stay byte-identical across thread counts and machine speeds.
        if row.states_explored > 0 && target_secs > 0.0 {
            eprintln!(
                "{:28} {:>9.0} states/sec",
                row.name,
                row.states_explored as f64 / target_secs
            );
        }
        for s in &row.progress {
            eprintln!(
                "{:28} progress: {} runs, frontier depth {}, {} states, dedup ratio {:.2}",
                row.name,
                s.runs,
                s.frontier_depth,
                s.states_explored,
                s.dedup_ratio()
            );
        }
        // Mutants the bounded explorer misses get the deep random pass.
        if subject.expect_violation && row.counterexample.is_none() {
            let out = fuzz(
                target.as_mut(),
                FUZZ_SEED,
                FUZZ_ATTEMPTS,
                2 * budget.max_depth,
            );
            row.fuzz_runs = out.runs;
            row.violation_found = out.counterexample.is_some();
            row.counterexample = out.counterexample;
        }
        if let (Some(dir), Some(ce)) = (&dump_dir, &row.counterexample) {
            let stem = row.name.replace('/', "_");
            let file = dir.join(format!("{stem}.jsonl"));
            target.dump_counterexample(&ce.plan, &file, &ce.violation.reason);
            eprintln!("wrote {}", file.display());
            let chain = dir.join(format!("{stem}_chain.jsonl"));
            target.dump_causal_chain(&ce.plan, &chain, &ce.violation.reason);
            if chain.exists() {
                eprintln!("wrote {}", chain.display());
            }
        }
        report(&row);
        rows.push(row);
    }

    let all_ok = rows.iter().all(Row::ok);
    let total_secs = start.elapsed().as_secs_f64();
    let states: usize = rows.iter().map(|r| r.states_explored).sum();
    eprintln!(
        "checked {} targets in {:.1} ms ({:.0} states/sec): {}",
        rows.len(),
        total_secs * 1e3,
        states as f64 / total_secs.max(1e-9),
        if all_ok {
            "all verdicts as expected"
        } else {
            "VERDICT MISMATCH"
        }
    );
    if let Some(path) = &telemetry {
        match std::fs::write(path, render_telemetry(&rows)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &json {
        match std::fs::write(path, render_json(&rows, budget, all_ok)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    }
    if !all_ok {
        std::process::exit(4);
    }
}

fn report(row: &Row) {
    let verdict = match (row.expect_violation, row.violation_found) {
        (true, true) => "caught",
        (false, false) => "clean",
        (true, false) => "ESCAPED MUTANT",
        (false, true) => "FALSE ALARM",
    };
    print!(
        "{:28} explore {:4} runs, {:5} states, {:4} dedup, {:4} forks{} ",
        row.name,
        row.explore_runs,
        row.states_explored,
        row.dedup_hits,
        row.forks,
        if row.fuzz_runs > 0 {
            format!(" + fuzz {:4}", row.fuzz_runs)
        } else {
            String::new()
        }
    );
    match &row.counterexample {
        Some(ce) => println!(
            "{verdict}: {} (plan {:?}, {} preemption{})",
            ce.violation.reason,
            ce.plan,
            ce.preemptions,
            if ce.preemptions == 1 { "" } else { "s" }
        ),
        None => println!(
            "{verdict}{}",
            if row.exhausted { " (exhausted)" } else { "" }
        ),
    }
}

/// The explorer's periodic progress samples as JSONL, one line per
/// sample. Integer fields only and no wall clock: the file is a pure
/// function of the explored trees, byte-identical at any `DDS_THREADS`.
fn render_telemetry(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        for s in &r.progress {
            out.push_str(&format!(
                "{{\"t\":\"progress\",\"target\":\"{}\",\"runs\":{},\"states_explored\":{},\
\"dedup_hits\":{},\"forks\":{},\"frontier_depth\":{}}}\n",
                r.name, s.runs, s.states_explored, s.dedup_hits, s.forks, s.frontier_depth
            ));
        }
        out.push_str(&format!(
            "{{\"t\":\"explored\",\"target\":\"{}\",\"runs\":{},\"states_explored\":{},\
\"dedup_hits\":{},\"forks\":{},\"exhausted\":{}}}\n",
            r.name, r.explore_runs, r.states_explored, r.dedup_hits, r.forks, r.exhausted
        ));
    }
    out
}

/// Summary JSON in the `BENCH_sweeps.json` style: hand-rolled, numeric or
/// known-safe strings only, and no wall-clock field.
fn render_json(rows: &[Row], budget: Budget, all_ok: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"max_runs\": {}, \"max_depth\": {}, \"max_preemptions\": {}, \"ok\": {},\n  \"targets\": [\n",
        budget.max_runs, budget.max_depth, budget.max_preemptions, all_ok
    ));
    for (i, r) in rows.iter().enumerate() {
        let (plan_len, preemptions) = match &r.counterexample {
            Some(ce) => (ce.plan.len() as i64, ce.preemptions as i64),
            None => (-1, -1),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"expect_violation\": {}, \"violation_found\": {}, \
\"ok\": {}, \"explore_runs\": {}, \"states_explored\": {}, \"dedup_hits\": {}, \
\"forks\": {}, \"fuzz_runs\": {}, \"exhausted\": {}, \
\"plan_len\": {}, \"preemptions\": {}}}{}\n",
            r.name,
            r.expect_violation,
            r.violation_found,
            r.ok(),
            r.explore_runs,
            r.states_explored,
            r.dedup_hits,
            r.forks,
            r.fuzz_runs,
            r.exhausted,
            plan_len,
            preemptions,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
