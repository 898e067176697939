//! Differential property test for the host's timer wheel.
//!
//! `TimerWheel` answers from an occupancy bitmap and skips work when the
//! clock has not advanced; the model below is a sorted list that does
//! neither. After every operation both must agree on the tokens an
//! `expire` fires (as a set), on `len` and on `next_deadline`.
//!
//! Schedules land in the past, in the current millisecond, within the
//! lap, about one lap out and several laps out; clock readings repeat the
//! current millisecond, go backwards, and jump by a little, by about a
//! lap and by several laps.

use dds_store::protocol::TimerToken;
use dds_svc::wheel::TimerWheel;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Files a timer `delta` ms from the last clock reading (negative:
    /// already past).
    Schedule(i64),
    /// Expires at `delta` ms from the last clock reading (negative: a
    /// non-monotone reading).
    Expire(i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-3000i64..0).prop_map(Op::Schedule),
        Just(Op::Schedule(0)),
        (1i64..300).prop_map(Op::Schedule),
        (1i64..300).prop_map(Op::Schedule),
        (1000i64..3000).prop_map(Op::Schedule),
        (3000i64..20_000).prop_map(Op::Schedule),
        (-50i64..0).prop_map(Op::Expire),
        Just(Op::Expire(0)),
        (1i64..5).prop_map(Op::Expire),
        (5i64..400).prop_map(Op::Expire),
        (1000i64..3000).prop_map(Op::Expire),
        (3000i64..9000).prop_map(Op::Expire),
    ]
}

/// The reference: pending `(deadline, token)` pairs kept sorted by
/// deadline, with the wheel's contract spelled out directly.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64)>,
    /// The latest clock reading any expire saw.
    watermark: u64,
}

impl Model {
    fn schedule(&mut self, deadline: u64, token: u64) {
        // A deadline in the past is due now: it fires on the next expire
        // and is reported as the earliest deadline until then.
        let deadline = deadline.max(self.watermark);
        let at = self.pending.partition_point(|&(d, _)| d <= deadline);
        self.pending.insert(at, (deadline, token));
    }

    fn expire(&mut self, now: u64) -> Vec<u64> {
        let due = self.pending.partition_point(|&(d, _)| d <= now);
        self.watermark = self.watermark.max(now);
        self.pending.drain(..due).map(|(_, t)| t).collect()
    }

    fn next_deadline(&self) -> Option<u64> {
        self.pending.first().map(|&(d, _)| d)
    }
}

fn offset(base: u64, delta: i64) -> u64 {
    base.saturating_add_signed(delta)
}

proptest! {
    #[test]
    fn wheel_matches_a_sorted_list_model(
        start in 0u64..100_000,
        ops in proptest::collection::vec(op(), 0..300),
    ) {
        let mut wheel = TimerWheel::new();
        let mut model = Model::default();
        let mut fired = Vec::new();
        // Start the clock anywhere, so the lap boundary falls anywhere.
        let mut now = start;
        wheel.expire(now, &mut fired);
        model.expire(now);
        for (token, op) in (0u64..).zip(ops) {
            match op {
                Op::Schedule(delta) => {
                    let deadline = offset(now, delta);
                    wheel.schedule(deadline, TimerToken(token));
                    model.schedule(deadline, token);
                }
                Op::Expire(delta) => {
                    now = offset(now, delta);
                    fired.clear();
                    wheel.expire(now, &mut fired);
                    let mut got: Vec<u64> = fired.iter().map(|t| t.as_raw()).collect();
                    got.sort_unstable();
                    let mut want = model.expire(now);
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "fired at {} after {:?}", now, op);
                }
            }
            prop_assert_eq!(wheel.len(), model.pending.len(), "len after {:?}", op);
            prop_assert_eq!(wheel.is_empty(), model.pending.is_empty());
            prop_assert_eq!(
                wheel.next_deadline(),
                model.next_deadline(),
                "next deadline after {:?} at {}",
                op,
                now
            );
        }
    }
}
