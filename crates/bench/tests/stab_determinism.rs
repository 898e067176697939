//! Determinism regression for the self-stabilization experiment: the
//! `stab1` tables, rows and pooled recovery-time histogram must be
//! byte-identical at any thread count, and the headline shape must hold
//! (every correct cell stabilizes on every seed, the mutant controls never
//! do).

use dds_bench::stab1_selfstab;

/// One test covers both settings because `DDS_THREADS` is process-global
/// state (see `determinism.rs` for the rationale).
#[test]
fn stab1_is_identical_across_threads() {
    std::env::set_var("DDS_THREADS", "1");
    let seq = stab1_selfstab();
    std::env::set_var("DDS_THREADS", "8");
    let par = stab1_selfstab();
    std::env::remove_var("DDS_THREADS");
    assert_eq!(seq.table, par.table, "STAB1 table changed with thread count");
    assert_eq!(
        format!("{:?}", seq.rows),
        format!("{:?}", par.rows),
        "STAB1 rows changed with thread count"
    );
    assert_eq!(
        seq.stabilization, par.stabilization,
        "STAB1 recovery-time histogram changed with thread count"
    );
    // Shape pins: every correct cell stabilizes on every seed (100%,
    // closure through the horizon), both mutant controls never do (0%),
    // and the stabilization columns are actually populated — recovery
    // from a multi-actor burst takes at least one tick, and corruption
    // was really injected.
    for (label, row) in &seq.rows {
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
                row.p99_stabilization >= row.p50_stabilization
                    && row.p50_stabilization >= 1,
                "{label}: stabilization percentiles must be populated, got \
                 p50={} p99={}",
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
    let p50 = |label: &str| seq.rows[label].p50_stabilization;
    assert!(
        p50("token b=1") <= p50("token b=3"),
        "median recovery must not shrink as the burst grows: b=1 {} vs b=3 {}",
        p50("token b=1"),
        p50("token b=3")
    );
}
