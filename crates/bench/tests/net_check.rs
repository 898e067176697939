//! `run_net --check-file` on a recorded op log: 300 rows of a paced run of
//! four clients against three replicas, two of which were briefly stalled
//! so that eight operations aborted, four of them writes. The whole log is
//! checked in one pass; a read rewritten to an overwritten value must be
//! named, and a log where two writes carry one value must be refused.

use std::path::{Path, PathBuf};
use std::process::Command;

const LOG: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/net_ops.jsonl");

/// Runs `run_net --check-file` and returns its exit code and stdout.
fn check_file(path: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_run_net"))
        .arg("--check-file")
        .arg(path)
        .output()
        .expect("run_net starts");
    let code = out.status.code().expect("run_net exits with a code");
    (code, String::from_utf8(out.stdout).expect("utf-8 verdict"))
}

/// The raw text of one field of a log row.
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let rest = &row[row.find(key).expect(key) + key.len()..];
    &rest[..rest.find([',', '}']).expect("field ends")]
}

fn rows() -> Vec<String> {
    let text = std::fs::read_to_string(LOG).expect("recorded log");
    text.lines().map(String::from).collect()
}

fn write_log(name: &str, rows: &[String]) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, rows.join("\n") + "\n").expect("temp log");
    path
}

#[test]
fn recorded_log_is_checked_whole() {
    let rows = rows();
    assert!(rows
        .iter()
        .any(|r| r.contains("\"op\": \"w\"") && r.contains("\"aborted\": true")));
    let (code, out) = check_file(Path::new(LOG));
    assert_eq!(code, 0, "{out}");
    let expected = format!("{{\"linearizable\": true, \"records\": {}}}", rows.len());
    assert_eq!(out.trim(), expected);
}

#[test]
fn stale_read_is_named() {
    let mut rows = rows();
    let first_write = rows
        .iter()
        .find(|r| r.contains("\"response\": \"ack\""))
        .expect("a completed write");
    let old = field(first_write, "\"value\": ").to_string();
    // The last read that returned a written value now returns the first
    // write's, overwritten long before.
    let k = rows
        .iter()
        .rposition(|r| {
            r.contains("\"op\": \"r\"")
                && !r.contains("\"aborted\": true")
                && !r.contains("\"bot\"")
        })
        .expect("a read of a written value");
    let read = rows[k].clone();
    let got = field(&read, "\"response\": ");
    rows[k] = read.replace(
        &format!("\"response\": {got}"),
        &format!("\"response\": {old}"),
    );
    let (code, out) = check_file(&write_log("net_ops_stale.jsonl", &rows));
    assert_eq!(code, 4, "{out}");
    let named = format!(
        "\"violation\": {{\"pid\": {}, \"op\": \"r\", \"invoked_us\": {}, \"value\": {old}}}",
        field(&read, "\"pid\": "),
        field(&read, "\"invoked_us\": ")
    );
    assert!(out.contains(&named), "{out} does not name {named}");
}

#[test]
fn duplicate_write_values_are_refused() {
    let mut rows = rows();
    let mut writes = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.contains("\"op\": \"w\""));
    let (_, first) = writes.next().expect("a write");
    let value = field(first, "\"value\": ").to_string();
    let (k, second) = writes.next().expect("a second write");
    let row = second.replace(field(second, "\"value\": "), &value);
    rows[k] = row;
    let (code, out) = check_file(&write_log("net_ops_duplicate.jsonl", &rows));
    assert_eq!(
        code, 1,
        "a log with a repeated write value has no verdict: {out}"
    );
    assert!(out.is_empty(), "{out}");
}
