//! End-to-end test for `run_check`: the whole validation suite passes
//! within the default CI budget, and the walk it reports is the pinned
//! one. Every subject's runs, states, dedup hits and forks, and whether
//! the explorer (not the fallback fuzzer) found the violation, must equal
//! its line in `benchmark/pins/check-explore.txt` — the file
//! `crates/check/tests/explore_pins.rs` and the benchmark's
//! `check-explore` workload hold the same exploration to. The
//! counterexample files `--dump-dir` writes (one flight dump per caught
//! mutant, plus a causal-chain file for each simulator-world subject) are
//! pinned by name, line count and digest in `data/check_dumps.txt`, and
//! stdout — one verdict line per subject, with each counterexample's
//! reason, witness plan and preemptions — is pinned whole in
//! `data/check_summary.txt` (wall-clock figures go to stderr).

use std::process::Command;

use dds_sim::snapshot::StableHasher;

/// The value of `"key": <value>` in one hand-rolled JSON object line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len();
    line[start..]
        .split([',', '}'])
        .next()
        .unwrap()
        .trim_matches('"')
}

#[test]
fn suite_reports_the_pinned_exploration() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let json = dir.join(format!("dds_check_{pid}.json"));
    let telemetry = dir.join(format!("dds_check_{pid}.telemetry.jsonl"));
    let dumps = dir.join(format!("dds_check_{pid}_dumps"));
    std::fs::remove_dir_all(&dumps).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_run_check"))
        .args(["--json", json.to_str().unwrap()])
        .args(["--telemetry", telemetry.to_str().unwrap()])
        .args(["--dump-dir", dumps.to_str().unwrap()])
        .output()
        .expect("run_check must start");
    let summary = std::fs::read_to_string(&json).expect("summary written");
    let tel = std::fs::read_to_string(&telemetry).expect("telemetry written");
    let dumped = dump_digests(&dumps);
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&telemetry).ok();
    std::fs::remove_dir_all(&dumps).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        summary.contains("\"ok\": true"),
        "suite must be green: {summary}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("data/check_summary.txt"),
        "run_check stdout: every verdict, reason and witness plan"
    );

    // The first pin is the large flood sweep, which only the benchmark
    // explores; the rest are the suite's subjects, in suite order.
    let pins: Vec<&str> = include_str!("../../../benchmark/pins/check-explore.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert!(pins[0].starts_with("flood-merge/large "));
    let got: Vec<String> = summary
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"name\""))
        .map(|l| {
            let by_explorer = field(l, "violation_found") == "true" && field(l, "fuzz_runs") == "0";
            format!(
                "{} {} {} {} {} {}",
                field(l, "name"),
                field(l, "explore_runs"),
                field(l, "states_explored"),
                field(l, "dedup_hits"),
                field(l, "forks"),
                u8::from(by_explorer)
            )
        })
        .collect();
    assert_eq!(got, pins[1..], "name runs states dedup forks violation");

    let explored: Vec<&str> = tel
        .lines()
        .filter_map(|l| l.strip_prefix("{\"t\":\"explored\",\"target\":\""))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let subjects: Vec<&str> = pins[1..]
        .iter()
        .map(|p| p.split(' ').next().unwrap())
        .collect();
    assert_eq!(
        explored, subjects,
        "telemetry must carry one explored line per subject"
    );

    assert_eq!(
        dumped,
        include_str!("data/check_dumps.txt"),
        "file lines digest of every --dump-dir file"
    );
}

/// One `name lines digest` line per file in `dir`, sorted by name.
fn dump_digests(dir: &std::path::Path) -> String {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("dump dir written")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    let mut out = String::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let mut h = StableHasher::new();
        h.write_bytes(text.as_bytes());
        out.push_str(&format!(
            "{} {} {:016x}\n",
            path.file_name().unwrap().to_string_lossy(),
            text.lines().count(),
            h.finish()
        ));
    }
    out
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
