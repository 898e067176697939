//! Differential test of the whole-history atomicity check
//! (`check_atomic_unique`) against the Wing–Gong search (`check_atomic`),
//! its oracle, on random small register histories with distinct write
//! values.

use dds_core::process::ProcessId;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{
    check_atomic, check_atomic_unique, RegOp, RegResp, RegisterHistory, RegisterRecord,
};
use dds_core::time::Time;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// One operation of a process's script: write or read, idle ticks before
/// it, its duration in ticks, and which value a read returns.
type Step = (bool, u64, u64, usize);

/// Up to four processes of up to five operations each; the last operation
/// of a process is left pending when its flag is set.
fn scripts() -> impl Strategy<Value = Vec<(Vec<Step>, bool)>> {
    let step = (any::<bool>(), 0u64..3, 0u64..4, 0usize..64);
    proptest::collection::vec(
        (
            proptest::collection::vec(step, 1..6),
            (0u8..4).prop_map(|x| x == 0),
        ),
        1..5,
    )
}

/// What one history exercises, for the coverage tally.
#[derive(Default)]
struct Features {
    writers: usize,
    tie: bool,
    pending_write: bool,
    bottom_read: bool,
    later_write_read: bool,
}

/// Builds the history: all processes start at tick 0, so responses and
/// invocations of different processes often share a tick. Writes carry
/// 1, 2, … in script order. A read's pick below 32 returns one of the two
/// latest-invoked writes invoked by its response (the plausible answers),
/// 63 a value no one writes, and any other pick ⊥ or any written value,
/// possibly of a write invoked after the read.
fn build(scripts: &[(Vec<Step>, bool)]) -> (RegisterHistory, Features) {
    let mut f = Features::default();
    // Every operation with its pick: reads are answered once every write
    // is placed.
    let mut ops: Vec<(RegisterRecord, usize)> = Vec::new();
    let mut writes: Vec<(u64, u64)> = Vec::new(); // (invoked, value)
    for (p, (steps, pending_last)) in scripts.iter().enumerate() {
        let mut t = 0u64;
        for (k, &(write, gap, dur, pick)) in steps.iter().enumerate() {
            let invoked = t + gap;
            t = invoked + dur;
            let pending = *pending_last && k + 1 == steps.len();
            let op = if write {
                writes.push((invoked, writes.len() as u64 + 1));
                f.pending_write |= pending;
                RegOp::Write(writes.len() as u64)
            } else {
                RegOp::Read
            };
            let record = OpRecord {
                process: ProcessId::from_raw(p as u64),
                op,
                invoked: Time::from_ticks(invoked),
                responded: (!pending).then_some(Time::from_ticks(t)),
                response: (!pending).then_some(RegResp::Ack),
            };
            ops.push((record, pick));
        }
        f.writers += usize::from(steps.iter().any(|s| s.0));
    }
    writes.sort_unstable();
    let mut h = RegisterHistory::new();
    for (mut r, pick) in ops {
        if let (RegOp::Read, Some(responded)) = (r.op, r.responded) {
            let by = responded.as_ticks();
            let plausible = writes.partition_point(|&(inv, _)| inv <= by);
            let got = match pick {
                63 => Some(1_000),
                0..32 => plausible.checked_sub(1 + pick % 2).map(|k| writes[k].1),
                _ => match pick % (writes.len() + 1) {
                    0 => None,
                    k => Some(k as u64),
                },
            };
            f.bottom_read |= got.is_none();
            r.response = Some(RegResp::Value(got));
        }
        h.push(r);
    }
    let records = h.records();
    for r in records {
        f.tie |= records
            .iter()
            .any(|o| o.process != r.process && o.responded == Some(r.invoked));
        if let (RegOp::Read, Some(RegResp::Value(Some(v)))) = (r.op, r.response) {
            f.later_write_read |= records
                .iter()
                .any(|w| w.op == RegOp::Write(v) && w.invoked > r.invoked);
        }
    }
    (h, f)
}

#[test]
fn whole_history_check_agrees_with_the_search() {
    const CASES: usize = 20_000;
    let strategy = scripts();
    let mut rng = TestRng::deterministic("atomic_unique::agrees_with_the_search");
    // [feature][verdict] counts: several writers, a tick-level tie, a
    // pending write, a ⊥ read, a read of a write invoked after it.
    let mut seen = [[0usize; 2]; 5];
    let mut linearizable = 0usize;
    for case in 0..CASES {
        let (h, f) = build(&strategy.new_value(&mut rng));
        let oracle = check_atomic(&h).expect("the search checks every generated history");
        let fast = check_atomic_unique(&h).expect("generated writes carry distinct values");
        assert_eq!(
            fast.is_linearizable(),
            oracle.is_linearizable(),
            "case {case}: whole-history check says {fast:?}, the search says {oracle}, on {h}"
        );
        let v = usize::from(oracle.is_linearizable());
        linearizable += v;
        let flags = [
            f.writers > 1,
            f.tie,
            f.pending_write,
            f.bottom_read,
            f.later_write_read,
        ];
        for (count, on) in seen.iter_mut().zip(flags) {
            count[v] += usize::from(on);
        }
    }
    // Both verdicts must be common, and each feature must show up under
    // both, or the agreement above says little.
    assert!(
        (CASES / 5..CASES * 4 / 5).contains(&linearizable),
        "{linearizable} of {CASES} linearizable"
    );
    for (name, count) in ["writers", "tie", "pending", "bottom", "later"]
        .iter()
        .zip(seen)
    {
        assert!(
            count.iter().all(|&c| c >= CASES / 50),
            "{name}: {count:?} (not linearizable, linearizable)"
        );
    }
}
