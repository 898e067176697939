//! Determinism regression for the SCD-broadcast experiment: the `scd1`
//! tables and rows must be byte-identical at any thread count, and the
//! landscape replay must keep its headline shape (the static cell sustains
//! SCD-broadcast, the severed-partition cell never does).

use dds_bench::scd1_broadcast;

/// One test covers both settings because `DDS_THREADS` is process-global
/// state (see `determinism.rs` for the rationale).
#[test]
fn scd1_is_identical_across_threads() {
    std::env::set_var("DDS_THREADS", "1");
    let seq = scd1_broadcast();
    std::env::set_var("DDS_THREADS", "8");
    let par = scd1_broadcast();
    std::env::remove_var("DDS_THREADS");
    assert_eq!(seq.table, par.table, "SCD1 table changed with thread count");
    assert_eq!(
        format!("{:?}", seq.rows),
        format!("{:?}", par.rows),
        "SCD1 rows changed with thread count"
    );
    assert_eq!(
        seq.latency, par.latency,
        "SCD1 latency histogram changed with thread count"
    );
    assert_eq!(
        seq.critical, par.critical,
        "SCD1 critical-path histogram changed with thread count"
    );
    // Loose shape pins on the landscape replay: C1 (static, synchronous,
    // connected) always sustains set-constrained delivery; C7 (the
    // never-healed partition) never converges.
    let c1 = seq
        .table
        .lines()
        .find(|l| l.starts_with("C1 "))
        .expect("C1 row present");
    assert!(c1.contains("100%"), "static cell must sustain SCD: {c1}");
    let c7 = seq
        .table
        .lines()
        .find(|l| l.starts_with("C7 "))
        .expect("C7 row present");
    assert!(
        c7.trim_start_matches("C7").trim_start().starts_with("0%"),
        "severed partition must not sustain SCD: {c7}"
    );
}
