//! Linearizability obligations of the register ladder, pinned on
//! hand-written histories.
//!
//! The seeded sweeps in `transformations.rs` show the constructions hold
//! their specs *statistically*; these tests pin the checker itself on
//! hand-crafted histories — one per obligation the ladder climbs
//! (safe→regular→atomic, SWMR→MWMR) — including histories the checker
//! must reject. If the checker ever goes soft, these fail before any
//! exploration does.

use dds_core::process::ProcessId;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{
    check_atomic, check_atomic_unique, check_regular_single_writer, RegOp, RegResp, RegisterHistory,
};
use dds_core::time::Time;
use dds_registers::harness::run_scripts;
use dds_registers::transformations::{
    AtomicFromRegular, MwmrFromAtomic, RegularFromSafeBinary, SwmrFromSw1r,
};

fn rec(
    p: u64,
    op: RegOp,
    invoked: u64,
    responded: u64,
    response: RegResp,
) -> OpRecord<RegOp, RegResp> {
    OpRecord {
        process: ProcessId::from_raw(p),
        op,
        invoked: Time::from_ticks(invoked),
        responded: Some(Time::from_ticks(responded)),
        response: Some(response),
    }
}

fn history(records: Vec<OpRecord<RegOp, RegResp>>) -> RegisterHistory {
    let mut h = RegisterHistory::new();
    for r in records {
        h.push(r);
    }
    h
}

fn write(p: u64, v: u64, invoked: u64, responded: u64) -> OpRecord<RegOp, RegResp> {
    rec(p, RegOp::Write(v), invoked, responded, RegResp::Ack)
}

fn read(p: u64, v: u64, invoked: u64, responded: u64) -> OpRecord<RegOp, RegResp> {
    rec(p, RegOp::Read, invoked, responded, RegResp::Value(Some(v)))
}

/// `check_atomic`'s verdict, after asserting that the whole-history check
/// reaches the same one: every history judged for atomicity here writes
/// distinct values.
fn linearizable(h: &RegisterHistory) -> bool {
    let verdict = check_atomic(h).unwrap().is_linearizable();
    assert_eq!(
        check_atomic_unique(h).unwrap().is_linearizable(),
        verdict,
        "the two checkers disagree on {h}"
    );
    verdict
}

// --- the checker itself, on hand-written histories ---

#[test]
fn sequential_history_is_linearizable() {
    let h = history(vec![
        write(0, 1, 1, 2),
        read(1, 1, 3, 4),
        write(0, 2, 5, 6),
        read(1, 2, 7, 8),
    ]);
    assert!(linearizable(&h));
    assert!(check_regular_single_writer(&h).unwrap());
}

#[test]
fn read_overlapping_a_write_may_return_old_or_new() {
    for v in [1, 2] {
        let h = history(vec![
            write(0, 1, 1, 2),
            write(0, 2, 4, 8),
            read(1, v, 5, 6), // concurrent with the second write
        ]);
        assert!(
            linearizable(&h),
            "value {v} must be allowed during the overlap"
        );
    }
}

/// The canonical regular-but-not-atomic witness: two sequential reads,
/// both concurrent with one write, where the *first* read sees the new
/// value and the *second* sees the old one. The checker must reject it —
/// this is exactly what the `regular → atomic` rung exists to prevent.
#[test]
fn new_old_inversion_is_rejected() {
    let h = history(vec![
        write(0, 1, 1, 2),
        write(0, 2, 3, 20),
        read(1, 2, 4, 5),
        read(2, 1, 6, 7),
    ]);
    assert!(
        check_regular_single_writer(&h).unwrap(),
        "regular: each read sees old or new"
    );
    assert!(!linearizable(&h), "new/old inversion must not linearize");
}

#[test]
fn read_of_never_written_value_is_rejected() {
    let h = history(vec![write(0, 1, 1, 2), read(1, 7, 3, 4)]);
    assert!(!linearizable(&h));
    assert!(!check_regular_single_writer(&h).unwrap());
}

/// MWMR obligation: real-time order across *different* writers binds. A
/// read that follows two non-overlapping writes must return the second.
#[test]
fn mwmr_stale_read_after_two_writers_is_rejected() {
    let good = history(vec![write(0, 1, 1, 2), write(1, 2, 3, 4), read(2, 2, 5, 6)]);
    assert!(linearizable(&good));

    let stale = history(vec![write(0, 1, 1, 2), write(1, 2, 3, 4), read(2, 1, 5, 6)]);
    assert!(
        !linearizable(&stale),
        "a read after both writes must see the last one"
    );
}

/// A pending (never-responding) write may or may not have taken effect:
/// the checker must accept both completions.
#[test]
fn pending_write_may_or_may_not_take_effect() {
    for v in [1, 2] {
        let mut h = history(vec![write(0, 1, 1, 2)]);
        h.push(OpRecord {
            process: ProcessId::from_raw(0),
            op: RegOp::Write(2),
            invoked: Time::from_ticks(3),
            responded: None,
            response: None,
        });
        h.push(read(1, v, 5, 6));
        assert!(
            linearizable(&h),
            "pending write: read of {v} is explainable"
        );
    }
}

// --- each construction, on one fixed hand-written workload ---

#[test]
fn regular_from_safe_meets_its_rung() {
    let mut reg = RegularFromSafeBinary::new(2, true);
    let h = run_scripts(
        &mut reg,
        &[
            vec![RegOp::Write(1), RegOp::Write(0), RegOp::Write(1)],
            vec![RegOp::Read; 3],
            vec![RegOp::Read; 3],
        ],
        42,
    );
    assert!(check_regular_single_writer(&h).unwrap());
}

#[test]
fn atomic_from_regular_meets_its_rung() {
    // The regular→atomic rung is 1W1R: client 0 writes, client 1 reads.
    let mut reg = AtomicFromRegular::new(8, true);
    let h = run_scripts(
        &mut reg,
        &[vec![RegOp::Write(3), RegOp::Write(5)], vec![RegOp::Read; 4]],
        42,
    );
    assert!(linearizable(&h));
}

#[test]
fn swmr_from_sw1r_meets_its_rung() {
    let mut reg = SwmrFromSw1r::new(2, 8, true);
    let h = run_scripts(
        &mut reg,
        &[
            vec![RegOp::Write(3), RegOp::Write(5)],
            vec![RegOp::Read; 3],
            vec![RegOp::Read; 3],
        ],
        42,
    );
    assert!(linearizable(&h));
}

#[test]
fn mwmr_from_atomic_meets_its_rung() {
    let mut reg = MwmrFromAtomic::new(2, 3, 8);
    let h = run_scripts(
        &mut reg,
        &[
            vec![RegOp::Write(3), RegOp::Write(5)],
            vec![RegOp::Write(4), RegOp::Read],
            vec![RegOp::Read; 3],
        ],
        42,
    );
    assert!(linearizable(&h));
}
