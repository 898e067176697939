//! Every experiment is pinned, and parallelism changes wall-clock only.
//!
//! One pass over `registry()` at `DDS_THREADS=8` must reproduce, byte for
//! byte, what `run_experiments` printed and wrote at `DDS_THREADS=1`: the
//! tables (`tests/data/experiments.txt`, its stdout) and the result-shape
//! ledger (`BENCH_sweeps.json`, its `--json` output). To regenerate both
//! after an intended change:
//!
//! ```text
//! DDS_THREADS=1 cargo run --release -p dds-bench --bin run_experiments -- --json \
//!     > crates/bench/tests/data/experiments.txt
//! ```
//!
//! The experiments whose structure the ledger only summarises (E2 with
//! its trace capture, E8, S1, SCD1, STAB1) are then rerun at
//! `DDS_THREADS=1` and compared field by field, and the paper-level shapes
//! of SCD1 and STAB1 are asserted on their own so a regenerated pin
//! cannot flip them silently. E2's flight dumps are pinned by index, line
//! count and digest in `tests/data/flight_dumps_e2.txt`, header and
//! `latency` fields included.
//!
//! One test covers every setting because `DDS_THREADS` is process-global
//! state: separate `#[test]`s would race with the harness's own threads.

use dds_bench::{ledger, registry, Experiment, TABLES_FOOTER};
use dds_protocols::obs;
use dds_sim::snapshot::StableHasher;

#[test]
fn experiments_match_their_pins_at_any_thread_count() {
    std::env::set_var("DDS_THREADS", "8");
    let mut par = Vec::new();
    let mut cap_par = None;
    for (id, build) in registry() {
        if id == "e2" {
            obs::begin_capture();
            par.push(build());
            cap_par = Some(obs::end_capture());
        } else {
            par.push(build());
        }
    }
    let tables: String = par.iter().map(Experiment::report).collect::<String>() + TABLES_FOOTER;
    assert_same(
        "tests/data/experiments.txt",
        &tables,
        include_str!("data/experiments.txt"),
    );
    assert_same(
        "BENCH_sweeps.json",
        &ledger(&par),
        include_str!("../../../BENCH_sweeps.json"),
    );

    std::env::set_var("DDS_THREADS", "1");
    let by_id = |id: &str| {
        let build = registry()
            .into_iter()
            .find(|(name, _)| *name == id)
            .map(|(_, build)| build)
            .expect("registered");
        let seq = build();
        let at8 = par
            .iter()
            .find(|e| e.id.eq_ignore_ascii_case(id))
            .expect("ran");
        assert_thread_invariant(&seq, at8);
        seq
    };
    obs::begin_capture();
    by_id("e2");
    let cap_seq = obs::end_capture();
    for id in ["e8", "s1"] {
        by_id(id);
    }
    let scd1 = by_id("scd1");
    let stab1 = by_id("stab1");
    std::env::remove_var("DDS_THREADS");

    // JSONL traces and flight dumps are deposited in seed order on the
    // calling thread, so `--trace-dir` output must be byte-identical too.
    assert!(
        !cap_seq.traces.is_empty(),
        "E2 capture scope collected no traces"
    );
    assert!(
        !cap_seq.flight_dumps.is_empty(),
        "E2 capture scope collected no flight dumps"
    );
    assert_eq!(
        Some(&cap_seq),
        cap_par.as_ref(),
        "E2 JSONL traces / flight dumps changed with thread count"
    );
    assert_same(
        "tests/data/flight_dumps_e2.txt",
        &dump_digests(&cap_seq.flight_dumps),
        include_str!("data/flight_dumps_e2.txt"),
    );
    // The captured traces carry the kernel's causal annotations, so the
    // identity above also pins the id/cause assignment: event ids are a
    // pure function of the run, never of the observer or the thread count.
    assert!(
        cap_seq.traces.iter().any(|t| t.contains("\"cause\":")),
        "E2 traces carry no causal annotations — byte-identity is vacuous"
    );

    // SCD1's landscape replay: C1 (static, synchronous, connected) always
    // sustains set-constrained delivery; C7 (the never-healed partition)
    // never converges.
    let row = |prefix: &str| {
        scd1.table
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("{prefix}row present"))
            .to_string()
    };
    let c1 = row("C1 ");
    assert!(c1.contains("100%"), "static cell must sustain SCD: {c1}");
    let c7 = row("C7 ");
    assert!(
        c7.trim_start_matches("C7").trim_start().starts_with("0%"),
        "severed partition must not sustain SCD: {c7}"
    );

    // STAB1: every correct cell stabilizes on every seed (100%, closure
    // through the horizon), both mutant controls never do (0%), and the
    // stabilization columns are actually populated — recovery from a
    // multi-actor burst takes at least one tick, and corruption was
    // really injected.
    for (label, row) in &stab1.rows {
        if label.contains("MUTANT") {
            assert_eq!(
                row.interval_valid, 0,
                "{label}: a mutant cell must never stabilize"
            );
            assert_eq!(row.p50_stabilization, 0, "{label}");
        } else {
            assert_eq!(
                row.interval_valid, row.runs,
                "{label}: every correct run must stabilize and hold"
            );
            assert!(
                row.p99_stabilization >= row.p50_stabilization && row.p50_stabilization >= 1,
                "{label}: stabilization percentiles must be populated, got p50={} p99={}",
                row.p50_stabilization,
                row.p99_stabilization
            );
        }
        assert!(
            row.metrics.corruptions > 0,
            "{label}: the adversary must have injected corruption"
        );
    }
    // Damage monotonicity on the token ring: a three-actor burst cannot
    // recover faster (median) than a single-actor burst.
    let p50 = |label: &str| stab1.rows[label].p50_stabilization;
    assert!(
        p50("token b=1") <= p50("token b=3"),
        "median recovery must not shrink as the burst grows: b=1 {} vs b=3 {}",
        p50("token b=1"),
        p50("token b=3")
    );
}

/// Everything an experiment computed, compared between two thread counts:
/// pooled histograms in full (they fold in the same order as rows), and
/// rows and metrics via `Debug` so NaN cells (a sweep with no terminated
/// run has NaN mean error) compare as text instead of failing NaN != NaN.
fn assert_thread_invariant(seq: &Experiment, par: &Experiment) {
    let id = seq.id;
    assert_eq!(seq.table, par.table, "{id} table changed with thread count");
    assert_eq!(
        format!("{:?}", seq.rows),
        format!("{:?}", par.rows),
        "{id} rows changed with thread count"
    );
    for (name, a, b) in [
        ("latency", &seq.latency, &par.latency),
        ("queue-depth", &seq.queue_depth, &par.queue_depth),
        ("critical-path", &seq.critical, &par.critical),
        ("stabilization", &seq.stabilization, &par.stabilization),
    ] {
        assert!(a == b, "{id} {name} histogram changed with thread count");
    }
    assert_eq!(
        (seq.crit_transit, seq.crit_queueing, seq.crit_processing),
        (par.crit_transit, par.crit_queueing, par.crit_processing),
        "{id} critical-path decomposition changed with thread count"
    );
    assert_eq!(
        (seq.extra_runs, seq.extra_metrics),
        (par.extra_runs, par.extra_metrics),
        "{id} per-run metrics changed with thread count"
    );
}

/// One `index lines digest` line per flight dump, in capture order.
fn dump_digests(dumps: &[String]) -> String {
    let mut out = String::new();
    for (i, dump) in dumps.iter().enumerate() {
        let mut h = StableHasher::new();
        h.write_bytes(dump.as_bytes());
        out.push_str(&format!(
            "{i} {} {:016x}\n",
            dump.lines().count(),
            h.finish()
        ));
    }
    out
}

/// `assert_eq!` on whole documents, reporting the first differing line.
fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{what} differs from this run at line {}:\n  pinned: {:?}\n  run:    {:?}\n\
         (regenerate with DDS_THREADS=1 run_experiments --json if the change is intended)",
        line + 1,
        want.lines().nth(line),
        got.lines().nth(line)
    );
}
