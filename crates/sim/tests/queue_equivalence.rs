//! Property test: the calendar queue is observationally a list sorted by
//! `(time, seq)`.
//!
//! That order is the whole determinism argument for the queue: whatever
//! the ring and the overflow heap do internally, every operation must
//! answer exactly as the sorted list below does. Random operation
//! sequences exercise same-tick FIFO ties, far-future schedules that land
//! in the overflow heap, interleaved schedule/pop traffic that slides the
//! ring window, the exploration primitives (`ready_set`, `pop_nth`), the
//! corruption primitive (`scramble_payloads`) and draining. A queue
//! cloned mid-stream (a fork's queue: the ring's slab is copied compacted,
//! after pops have freed and schedules reused its slots) must go on
//! answering as the list does, and so must the original.

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};
use dds_sim::event::{Event, EventQueue, ReadyKind, ReadySummary};
use proptest::prelude::*;

/// One step of a queue workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule an event `delta` ticks from the current virtual time.
    Schedule {
        delta: u64,
    },
    Pop,
    PopNth(usize),
    ReadySet,
    Scramble,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Deltas cross the ring boundary (128) in both directions: 0..=20
    // models kernel traffic, the larger bands force overflow migration,
    // including ties deep in the far future. Repeated arms weight the
    // union (the vendored prop_oneof! has no weight syntax).
    prop_oneof![
        (0u64..21).prop_map(|delta| Op::Schedule { delta }),
        (0u64..21).prop_map(|delta| Op::Schedule { delta }),
        (120u64..141).prop_map(|delta| Op::Schedule { delta }),
        (300u64..2001).prop_map(|delta| Op::Schedule { delta }),
        Just(Op::Pop),
        Just(Op::Pop),
        (0usize..4).prop_map(Op::PopNth),
        Just(Op::ReadySet),
        Just(Op::Scramble),
    ]
}

/// The reference: pending `(time, seq, destination, payload)` entries,
/// kept sorted by `(time, seq)`.
#[derive(Default, Clone)]
struct Model {
    pending: Vec<(Time, u64, u64, u32)>,
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, at: Time, to: u64, msg: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self
            .pending
            .partition_point(|&(t, s, ..)| (t, s) < (at, seq));
        self.pending.insert(slot, (at, seq, to, msg));
    }

    /// Number of entries at the earliest instant.
    fn ready_width(&self) -> usize {
        let Some(&(front, ..)) = self.pending.first() else {
            return 0;
        };
        self.pending.iter().take_while(|e| e.0 == front).count()
    }

    fn pop_nth(&mut self, n: usize) -> Option<(Time, u32)> {
        if n >= self.ready_width() {
            return None;
        }
        let (at, _, _, msg) = self.pending.remove(n);
        Some((at, msg))
    }

    fn ready_set(&self) -> Option<(Time, Vec<ReadySummary>)> {
        let &(front, ..) = self.pending.first()?;
        let ready = self.pending[..self.ready_width()]
            .iter()
            .map(|&(_, seq, to, _)| ReadySummary {
                seq,
                kind: ReadyKind::Deliver {
                    from: PID,
                    to: ProcessId::from_raw(to),
                },
            })
            .collect();
        Some((front, ready))
    }

    /// Every pending entry is a delivery, so every payload is rewritten.
    fn scramble(&mut self, rng: &mut Rng) -> usize {
        for entry in &mut self.pending {
            scramble(&mut entry.3, rng);
        }
        self.pending.len()
    }
}

const PID: ProcessId = ProcessId::from_raw(0);

fn scramble(msg: &mut u32, rng: &mut Rng) {
    *msg = rng.below(1 << 20) as u32;
}

fn payload(popped: Option<(Time, Event<u32>)>) -> Option<(Time, u32)> {
    popped.map(|(at, event)| match event {
        Event::Deliver { msg, .. } => (at, msg),
        other => panic!("only Deliver events were scheduled, got {other:?}"),
    })
}

/// A queue, the model it is held to, and what both have seen so far.
#[derive(Clone)]
struct Pair {
    queue: EventQueue<u32>,
    model: Model,
    now: Time,
    rng: Rng,
    model_rng: Rng,
    popped: Vec<(Time, u32)>,
}

impl Pair {
    fn new(queue: EventQueue<u32>) -> Self {
        Pair {
            queue,
            model: Model::default(),
            now: Time::ZERO,
            rng: Rng::seeded(5),
            model_rng: Rng::seeded(5),
            popped: Vec::new(),
        }
    }

    /// Applies `op` (the `i`-th of the workload) to the queue and to the
    /// model, comparing every answer.
    fn apply(&mut self, i: usize, op: Op) -> Result<(), TestCaseError> {
        let Pair {
            queue,
            model,
            now,
            rng,
            model_rng,
            popped,
        } = self;
        // Inspecting the front (even a refused `pop_nth`) slides the ring
        // window there, and the kernel only schedules at or after the
        // instant it last looked at: the clock follows.
        if matches!(op, Op::PopNth(_) | Op::ReadySet) {
            *now = (*now).max(queue.peek_time().unwrap_or(*now));
        }
        match op {
            Op::Schedule { delta } => {
                let at = *now + TimeDelta::ticks(delta);
                let (to, msg) = (i as u64 % 5, i as u32);
                queue.schedule(
                    at,
                    Event::Deliver {
                        from: PID,
                        to: ProcessId::from_raw(to),
                        sent: *now,
                        cause: 0,
                        msg,
                    },
                );
                model.schedule(at, to, msg);
            }
            Op::Pop | Op::PopNth(_) => {
                let (got, want) = match op {
                    Op::PopNth(n) => (payload(queue.pop_nth(n)), model.pop_nth(n)),
                    _ => (payload(queue.pop()), model.pop_nth(0)),
                };
                prop_assert_eq!(got, want, "op {}: {:?}", i, op);
                if let Some((at, msg)) = got {
                    *now = at; // the kernel's clock follows pops
                    popped.push((at, msg));
                }
            }
            Op::ReadySet => {
                let mut ready = Vec::new();
                let at = queue.ready_set(&mut ready);
                let want = model.ready_set();
                prop_assert_eq!(at, want.as_ref().map(|w| w.0), "op {}: ready instant", i);
                prop_assert_eq!(
                    &ready,
                    &want.map(|w| w.1).unwrap_or_default(),
                    "op {}: ready set",
                    i
                );
            }
            Op::Scramble => {
                let rewritten = queue.scramble_payloads(rng, scramble);
                prop_assert_eq!(rewritten, model.scramble(model_rng), "op {}: scrambled", i);
                prop_assert_eq!(
                    rng.state_words(),
                    model_rng.state_words(),
                    "op {}: rng draws",
                    i
                );
            }
        }
        prop_assert_eq!(queue.len(), model.pending.len(), "op {}: len", i);
        prop_assert_eq!(
            queue.peek_time(),
            model.pending.first().map(|e| e.0),
            "op {}: peek",
            i
        );
        prop_assert_eq!(queue.next_seq(), model.next_seq, "op {}: next seq", i);
        Ok(())
    }

    /// Drains whatever is left so the tail order is compared too.
    /// Returns the whole popped `(time, payload)` sequence.
    fn drain(mut self) -> Result<Vec<(Time, u32)>, TestCaseError> {
        loop {
            let got = payload(self.queue.pop());
            prop_assert_eq!(got, self.model.pop_nth(0), "drain");
            match got {
                Some(entry) => self.popped.push(entry),
                None => return Ok(self.popped),
            }
        }
    }
}

/// Applies `ops` to `queue` and to a fresh [`Model`], comparing every
/// answer, then drains both. Returns the popped `(time, payload)`
/// sequence.
fn check(queue: EventQueue<u32>, ops: &[Op]) -> Result<Vec<(Time, u32)>, TestCaseError> {
    let mut pair = Pair::new(queue);
    for (i, &op) in ops.iter().enumerate() {
        pair.apply(i, op)?;
    }
    pair.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The calendar answers every operation as the sorted list does.
    #[test]
    fn calendar_matches_the_sorted_list_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let popped = check(EventQueue::calendar(), &ops)?;
        for pair in popped.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "pop order went backwards");
        }
    }

    /// A queue cloned mid-stream and the queue it was cloned from both
    /// go on as the sorted list does, each under its own later traffic:
    /// the copy's compacted slab and the original's slab with reused
    /// slots answer `pop_nth`, `ready_set` and `scramble_payloads` alike.
    #[test]
    fn cloned_calendar_and_its_original_both_match_the_model(
        before in proptest::collection::vec(op_strategy(), 1..150),
        after_original in proptest::collection::vec(op_strategy(), 1..100),
        after_copy in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let mut original = Pair::new(EventQueue::calendar());
        for (i, &op) in before.iter().enumerate() {
            original.apply(i, op)?;
        }
        let mut copy = original.clone();
        for (i, &op) in after_original.iter().enumerate() {
            original.apply(before.len() + i, op)?;
        }
        for (i, &op) in after_copy.iter().enumerate() {
            copy.apply(before.len() + i, op)?;
        }
        // A copy of the copy, taken after its slots were reused in turn.
        copy.clone().drain()?;
        copy.drain()?;
        original.drain()?;
    }

    /// A cleared queue replays like a fresh one (the `World::reset` path).
    #[test]
    fn cleared_calendar_replays_like_fresh(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut reused: EventQueue<u32> = EventQueue::calendar();
        for i in 0..50u64 {
            reused.schedule(Time::from_ticks(i * 7 % 300), Event::ChurnTick);
        }
        reused.pop();
        reused.clear();
        check(reused, &ops)?;
    }
}
