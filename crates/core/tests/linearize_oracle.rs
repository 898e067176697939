//! Brute-force oracle for the register search under both of its precedence
//! orders. Each random history of up to seven operations is decided by
//! trying every subset of its pending writes and every order of the chosen
//! records; `check_atomic` (real time) and `check_sequentially_consistent`
//! (program order) must reach the same verdict, and every witness they
//! return must itself be a legal order.

use dds_core::process::ProcessId;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{
    check_atomic, check_sequentially_consistent, Linearizability, RegOp, RegResp, RegisterHistory,
};
use dds_core::time::Time;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The most operations a generated history holds.
const MAX_OPS: usize = 7;

/// One operation of a process's script: write or read, idle ticks before
/// it, its duration in ticks, and a pick for its value.
type Step = (bool, u64, u64, u8);

/// Up to three processes of up to three operations each; the last operation
/// of a process is left pending when its flag is set.
fn scripts() -> impl Strategy<Value = Vec<(Vec<Step>, bool)>> {
    let step = (any::<bool>(), 0u64..3, 0u64..3, 0u8..8);
    proptest::collection::vec(
        (
            proptest::collection::vec(step, 1..4),
            (0u8..3).prop_map(|x| x == 0),
        ),
        1..4,
    )
}

/// Builds the history, cut at [`MAX_OPS`] operations. All processes start
/// at tick 0, so operations of different processes often touch. Writes
/// carry 1 or 2, so values repeat; a read returns ⊥, 1, 2 or the phantom 3
/// that no write carries.
fn build(scripts: &[(Vec<Step>, bool)]) -> RegisterHistory {
    let mut records = Vec::new();
    for (p, (steps, pending_last)) in scripts.iter().enumerate() {
        let mut t = 0u64;
        for (k, &(write, gap, dur, pick)) in steps.iter().enumerate() {
            if records.len() == MAX_OPS {
                break;
            }
            let invoked = t + gap;
            t = invoked + dur;
            let pending = *pending_last && k + 1 == steps.len();
            let (op, response) = if write {
                (RegOp::Write(1 + u64::from(pick % 2)), RegResp::Ack)
            } else {
                let got = match pick {
                    0 | 1 => None,
                    7 => Some(3),
                    _ => Some(1 + u64::from(pick % 2)),
                };
                (RegOp::Read, RegResp::Value(got))
            };
            records.push(OpRecord {
                process: ProcessId::from_raw(p as u64),
                op,
                invoked: Time::from_ticks(invoked),
                responded: (!pending).then_some(Time::from_ticks(t)),
                response: (!pending).then_some(response),
            });
        }
    }
    RegisterHistory::sorted(records)
}

/// The two precedence relations, written out independently of the checker.
#[derive(Clone, Copy, Debug)]
enum Order {
    RealTime,
    Program,
}

/// `true` when record `j` must come before record `i` under `order`.
fn must_precede(h: &RegisterHistory, order: Order, j: usize, i: usize) -> bool {
    let (a, b) = (&h.records()[j], &h.records()[i]);
    match order {
        Order::RealTime => a.responded.is_some_and(|r| r < b.invoked),
        Order::Program => a.process == b.process && (a.invoked, j) < (b.invoked, i),
    }
}

/// `true` when `seq` is a legal sequential order of `h` under `order`: it
/// places each record at most once, every completed record, and no pending
/// read; everything that must precede a placed record is placed before it;
/// and each read returns the value of the write placed last before it.
fn legal(h: &RegisterHistory, order: Order, seq: &[usize]) -> bool {
    let records = h.records();
    let mut placed = vec![false; records.len()];
    let mut value = None;
    for &i in seq {
        if placed[i] || (0..records.len()).any(|j| must_precede(h, order, j, i) && !placed[j]) {
            return false;
        }
        placed[i] = true;
        match (records[i].op, records[i].response) {
            (RegOp::Write(v), _) => value = Some(v),
            (RegOp::Read, Some(RegResp::Value(got))) if got == value => {}
            _ => return false,
        }
    }
    records
        .iter()
        .zip(placed)
        .all(|(r, placed)| placed || !r.is_complete())
}

/// `true` when some order of `items[k..]` after `items[..k]` passes `test`.
fn any_order(items: &mut [usize], k: usize, test: &mut impl FnMut(&[usize]) -> bool) -> bool {
    if k == items.len() {
        return test(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        if any_order(items, k + 1, test) {
            return true;
        }
        items.swap(k, i);
    }
    false
}

/// The verdict by enumeration: some subset of the pending writes, added to
/// the completed records, has a legal order.
fn brute_force(h: &RegisterHistory, order: Order) -> bool {
    let records = h.records();
    let complete: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].is_complete())
        .collect();
    let pending_writes: Vec<usize> = (0..records.len())
        .filter(|&i| !records[i].is_complete() && matches!(records[i].op, RegOp::Write(_)))
        .collect();
    (0..1u32 << pending_writes.len()).any(|subset| {
        let mut chosen = complete.clone();
        chosen.extend(
            (0..pending_writes.len())
                .filter(|b| subset & 1 << b != 0)
                .map(|b| pending_writes[b]),
        );
        any_order(&mut chosen, 0, &mut |seq| legal(h, order, seq))
    })
}

#[test]
fn search_agrees_with_enumeration_under_both_orders() {
    const CASES: usize = 3_000;
    let strategy = scripts();
    let mut rng = TestRng::deterministic("linearize_oracle::agrees_with_enumeration");
    // Per order, [not legal, legal] counts.
    let mut verdicts = [[0usize; 2]; 2];
    let (mut sc_only, mut pending_placed, mut full) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let h = build(&strategy.new_value(&mut rng));
        full += usize::from(h.len() == MAX_OPS);
        let atomic = check_atomic(&h).expect("generated histories are checkable");
        let sc = check_sequentially_consistent(&h).expect("generated histories are checkable");
        for (k, (order, got)) in [(Order::RealTime, &atomic), (Order::Program, &sc)]
            .into_iter()
            .enumerate()
        {
            let expected = brute_force(&h, order);
            assert_eq!(
                got.is_linearizable(),
                expected,
                "case {case}, {order:?}: the search says {got}, enumeration says {expected}, on {h}"
            );
            if let Linearizability::Linearizable { witness } = got {
                assert!(
                    legal(&h, order, witness),
                    "case {case}, {order:?}: witness {witness:?} is not legal for {h}"
                );
                pending_placed +=
                    usize::from(witness.iter().any(|&i| !h.records()[i].is_complete()));
            }
            verdicts[k][usize::from(expected)] += 1;
        }
        sc_only += usize::from(sc.is_linearizable() && !atomic.is_linearizable());
    }
    // Both verdicts under both orders, the gap between the two conditions,
    // pending writes that take effect and full-size histories must all be
    // common, or the agreement above says little.
    for (order, count) in ["real time", "program order"].iter().zip(verdicts) {
        assert!(
            count.iter().all(|&c| c >= CASES / 10),
            "{order}: {count:?} (not legal, legal)"
        );
    }
    for (name, count) in [
        ("sequentially consistent only", sc_only),
        ("pending write placed", pending_placed),
        ("seven operations", full),
    ] {
        assert!(count >= CASES / 50, "{name}: {count} of {CASES}");
    }
}
