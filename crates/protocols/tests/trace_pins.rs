//! The message-level JSONL export, pinned byte for byte.
//!
//! `QueryRun::trace_jsonl` (and with it every file `run_experiments
//! --trace-dir` writes) is one line per kernel join, leave, crash, send,
//! deliver, drop and corruption, each with its causal id and cause. The
//! digests below were computed from the export at the commit that still
//! rendered it from `World::trace()`; the sink-rendered path that
//! replaced it must reproduce the same bytes. The second scenario runs
//! under balanced churn with lossy links so leave, crash and drop lines
//! occur.

use dds_net::generate;
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};
use dds_sim::delay::LossModel;
use dds_sim::snapshot::StableHasher;

/// Line count and digest of the scenario's export, plus the line kinds
/// the caller wants witnessed.
fn export(mut scenario: QueryScenario, kinds: &[&str]) -> (usize, u64) {
    scenario.capture_trace = true;
    let run = scenario.run();
    let jsonl = run.trace_jsonl.expect("capture_trace renders the trace");
    for kind in kinds {
        let tag = format!("{{\"t\":\"{kind}\",");
        assert!(
            jsonl.lines().any(|l| l.starts_with(&tag)),
            "no {kind} line in the export"
        );
    }
    let mut h = StableHasher::new();
    h.write_bytes(jsonl.as_bytes());
    (jsonl.lines().count(), h.finish())
}

#[test]
fn flood_echo_on_a_static_ring() {
    let mut scenario = QueryScenario::new(generate::ring(8), ProtocolKind::FloodEcho { ttl: 8 });
    scenario.seed = 7;
    assert_eq!(
        export(scenario, &["join", "send", "deliver"]),
        (45, 0xf468df4a3ec0e362),
        "(lines, digest) of the ring(8) flood/echo trace"
    );
}

#[test]
fn wave_on_a_churning_lossy_torus() {
    let mut scenario =
        QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
    scenario.seed = 11;
    scenario.driver = DriverSpec::Balanced {
        rate: 0.2,
        window: 6,
        crash_fraction: 0.4,
    };
    scenario.loss = LossModel::Bernoulli(0.1);
    assert_eq!(
        export(
            scenario,
            &["join", "leave", "crash", "send", "deliver", "drop"]
        ),
        (314, 0x9ab7c6d09739af85),
        "(lines, digest) of the churned torus(4,4) wave trace"
    );
}
