//! End-to-end test for `run_trace`: causal-DAG stats over JSONL
//! artifacts are deterministic and match the known shape of a synthetic
//! trace.

use std::process::Command;

const TRACE: &str = "\
{\"t\":\"flight-dump\",\"reason\":\"x\",\"at\":9,\"events\":3,\"recorded\":3}\n\
{\"t\":\"send\",\"from\":0,\"to\":1,\"at\":0,\"id\":1,\"cause\":0}\n\
{\"t\":\"deliver\",\"from\":0,\"to\":1,\"at\":4,\"id\":2,\"cause\":1}\n\
{\"t\":\"timer\",\"pid\":1,\"at\":6,\"id\":3,\"cause\":2}\n\
{\"t\":\"join\",\"pid\":7,\"at\":0}\n";

/// A two-run trace export: ids restart at 1 in run 1, so the stats must
/// come from per-run DAGs — merged naively, run 1's delivery would
/// resolve its cause into run 0 and the decomposition would stop
/// telescoping.
const SWEEP: &str = "\
{\"t\":\"run\",\"index\":0}\n\
{\"t\":\"send\",\"from\":0,\"to\":1,\"at\":0,\"id\":1,\"cause\":0}\n\
{\"t\":\"deliver\",\"from\":0,\"to\":1,\"at\":3,\"id\":2,\"cause\":1}\n\
{\"t\":\"run\",\"index\":1}\n\
{\"t\":\"send\",\"from\":0,\"to\":1,\"at\":5,\"id\":1,\"cause\":0}\n\
{\"t\":\"deliver\",\"from\":0,\"to\":1,\"at\":12,\"id\":2,\"cause\":1}\n";

#[test]
fn stats_are_deterministic_and_complete() {
    let dir = std::env::temp_dir().join(format!("dds_run_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("relay.jsonl"), TRACE).expect("trace written");
    std::fs::write(dir.join("sweep.jsonl"), SWEEP).expect("trace written");
    std::fs::write(dir.join("not-a-trace.txt"), "ignored").expect("file written");
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_run_trace"))
            .arg(&dir)
            .output()
            .expect("run_trace must start")
    };
    let out1 = run();
    let out2 = run();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out1.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out1.stderr)
    );
    let text = String::from_utf8_lossy(&out1.stdout);
    // send@0 → deliver@4 → timer@6: 3 events, 2 hops of depth, 4 ticks of
    // transit plus 2 of queueing on the critical path.
    assert!(text.contains("relay.jsonl: events=3"), "stats line: {text}");
    assert!(
        text.contains("transit=4 queueing=2"),
        "decomposition: {text}"
    );
    assert!(text.contains("fan-out:"), "per-process fan-out: {text}");
    // The two-run export splits at its run headers: the critical path is
    // the longest per-run chain (7 ticks of flight in run 1), never a
    // fabricated cross-run edge.
    assert!(
        text.contains("sweep.jsonl: runs=2 events=4"),
        "multi-run stats: {text}"
    );
    assert!(
        text.contains("critical[total=7 transit=7 queueing=0 processing=0 hops=1]"),
        "per-run critical path: {text}"
    );
    assert!(text.contains("2 files, 7 causal events"), "footer: {text}");
    assert_eq!(out1.stdout, out2.stdout, "reruns must be byte-identical");
}

#[test]
fn missing_path_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_trace"))
        .arg("/nonexistent/dds-trace-dir")
        .output()
        .expect("run_trace must start");
    assert_eq!(out.status.code(), Some(2));
}
