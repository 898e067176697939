//! End-to-end test for `run_check`: the whole validation suite passes
//! within the default CI budget, and its JSON summary — which embeds
//! every counterexample's shape and carries no wall-clock field — is
//! byte-identical across thread counts, i.e. counterexamples replay
//! deterministically. So is the `--telemetry` progress JSONL.

use std::path::Path;
use std::process::Command;

fn run_check(threads: &str, json: &Path, telemetry: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_check"))
        .args(["--json", json.to_str().unwrap()])
        .args(["--telemetry", telemetry.to_str().unwrap()])
        .env("DDS_THREADS", threads)
        .output()
        .expect("run_check must start")
}

#[test]
fn suite_verdicts_replay_byte_identically_across_thread_counts() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let a = dir.join(format!("dds_check_t1_{pid}.json"));
    let b = dir.join(format!("dds_check_t8_{pid}.json"));
    let ta = dir.join(format!("dds_check_t1_{pid}.telemetry.jsonl"));
    let tb = dir.join(format!("dds_check_t8_{pid}.telemetry.jsonl"));
    let out1 = run_check("1", &a, &ta);
    let out8 = run_check("8", &b, &tb);
    assert_eq!(
        out1.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out1.stderr)
    );
    assert_eq!(out8.status.code(), Some(0));
    let j1 = std::fs::read_to_string(&a).expect("summary written");
    let j8 = std::fs::read_to_string(&b).expect("summary written");
    let tel1 = std::fs::read_to_string(&ta).expect("telemetry written");
    let tel8 = std::fs::read_to_string(&tb).expect("telemetry written");
    for f in [&a, &b, &ta, &tb] {
        std::fs::remove_file(f).ok();
    }
    assert_eq!(j1, j8, "summaries must be byte-identical");
    assert!(j1.contains("\"ok\": true"), "suite must be green: {j1}");
    // Every mutant caught, every correct target clean.
    assert!(!j1.contains("\"ok\": false"));
    // The progress telemetry is integer-only too.
    assert_eq!(
        tel1, tel8,
        "progress telemetry must be thread-count invariant"
    );
    assert!(
        tel1.lines().any(|l| l.contains("\"t\":\"explored\"")),
        "telemetry must carry one explored line per target"
    );
    // stdout (per-target lines) is deterministic too.
    assert_eq!(
        String::from_utf8_lossy(&out1.stdout),
        String::from_utf8_lossy(&out8.stdout)
    );
}

/// Unknown flags exit 2. `run_check` takes no budget or fuzzer flags (no
/// `--seed`): the suite's verdicts are a property of the code.
#[test]
fn bad_arguments_exit_2() {
    for args in [&["--frobnicate"][..], &["--seed", "1"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_check"))
            .args(args)
            .output()
            .expect("run_check must start");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
