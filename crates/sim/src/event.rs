//! The event queue: a deterministic priority queue of scheduled events.
//!
//! Determinism requires total order: events at equal instants are ordered
//! by their scheduling sequence number, so a run never depends on hash
//! ordering or allocation addresses (DESIGN.md §7).
//!
//! [`EventQueue`] is a two-tier calendar queue. A ring of [`RING_SIZE`]
//! per-tick FIFO buckets covers the near future — the dominant traffic,
//! since delays and timer periods are a handful of ticks — giving O(1)
//! schedule and pop. The buckets are linked lists through one slab of
//! entries, so copying the ring (a fork) is one allocation. Events beyond
//! the ring land in an overflow binary heap and migrate into buckets as
//! the ring slides forward.
//!
//! The contract is the `(time, seq)` order a plain sorted list would
//! produce; the `queue_equivalence` property test checks every operation
//! against exactly that model.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::Time;

use crate::snapshot::StableHasher;

/// Identifier of a pending timer, unique within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// The raw counter value — stable within a run, so actors can absorb
    /// stored timer ids into state fingerprints.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// An event awaiting dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message arriving at `to`.
    Deliver {
        /// Original sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// When the message was handed to the network — lets the kernel
        /// report in-flight latency to observability sinks at delivery.
        sent: Time,
        /// Causal annotation: the id of the send event that put this
        /// message in flight (`0` = injected by the environment). Purely
        /// observational — excluded from fingerprints, never branches
        /// dispatch.
        cause: u64,
        /// Payload.
        msg: M,
    },
    /// A timer set by `pid` expiring.
    Timer {
        /// The process that set the timer.
        pid: ProcessId,
        /// Which timer.
        timer: TimerId,
        /// Causal annotation: the id of the event whose callback set the
        /// timer (`0` = set outside any dispatch). Observational only.
        cause: u64,
    },
    /// A churn-driver wake-up.
    ChurnTick,
}

impl<M> Event<M> {
    /// The payload-free summary of this event a ready set reports.
    fn ready_kind(&self) -> ReadyKind {
        match self {
            Event::Deliver { from, to, .. } => ReadyKind::Deliver {
                from: *from,
                to: *to,
            },
            Event::Timer { pid, .. } => ReadyKind::Timer { pid: *pid },
            Event::ChurnTick => ReadyKind::ChurnTick,
        }
    }
}

/// Payload-free classification of a ready event, enough for a schedule
/// explorer to reason about commutativity (which process the dispatch
/// will touch) without seeing the message itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyKind {
    /// A message delivery.
    Deliver {
        /// Original sender.
        from: ProcessId,
        /// Destination (the actor the dispatch mutates).
        to: ProcessId,
    },
    /// A timer expiry at `pid`.
    Timer {
        /// The timer's owner (the actor the dispatch mutates).
        pid: ProcessId,
    },
    /// A churn-driver wake-up (may mutate membership and topology).
    ChurnTick,
}

impl ReadyKind {
    /// The process the dispatch will run at, when the event is local to
    /// one process (`None` for [`ReadyKind::ChurnTick`], which may touch
    /// anything).
    pub fn target(&self) -> Option<ProcessId> {
        match self {
            ReadyKind::Deliver { to, .. } => Some(*to),
            ReadyKind::Timer { pid } => Some(*pid),
            ReadyKind::ChurnTick => None,
        }
    }
}

/// One entry of the ready set: an event dispatchable at the earliest
/// pending instant. `seq` is the queue's tie-breaking sequence number —
/// stable across replays of the same prefix, which is what lets schedule
/// explorers identify "the same event" across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadySummary {
    /// Scheduling sequence number (the default dispatch order).
    pub seq: u64,
    /// What dispatching the event will do.
    pub kind: ReadyKind,
}

impl<M> Event<M> {
    /// Absorbs this event into a fingerprint hasher: a discriminant, the
    /// routing fields, and the payload via `msg_fp`. The `cause`
    /// annotation is deliberately excluded: it never influences dispatch,
    /// so states differing only in causal bookkeeping stay mergeable
    /// under exploration dedup.
    fn fingerprint(&self, h: &mut StableHasher, msg_fp: fn(&M, &mut StableHasher)) {
        match self {
            Event::Deliver {
                from,
                to,
                sent,
                msg,
                ..
            } => {
                h.write_u8(0);
                h.write_u64(from.as_raw());
                h.write_u64(to.as_raw());
                h.write_u64(sent.as_ticks());
                msg_fp(msg, h);
            }
            Event::Timer { pid, timer, .. } => {
                h.write_u8(1);
                h.write_u64(pid.as_raw());
                h.write_u64(timer.0);
            }
            Event::ChurnTick => h.write_u8(2),
        }
    }
}

/// An event with its dispatch instant and tie-breaking sequence number.
#[derive(Debug, Clone)]
struct Scheduled<M> {
    at: Time,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Number of per-tick buckets in the calendar ring. Delays, timer periods
/// and churn windows in every experiment are well under this; only
/// deliberately far-future schedules (long deadlines, generous timeouts)
/// touch the overflow heap.
const RING_SIZE: u64 = 128;
// One bit of `Calendar::occupied` per bucket.
const _: () = assert!(RING_SIZE == u128::BITS as u64);

/// "No slot": ends a list, marks an empty one. Also out of range for
/// `slab.get`, so a walk along `next` links stops on it by itself.
const NIL: u32 = u32::MAX;

/// One slab slot: a ring event threaded into its tick's FIFO list, or a
/// free slot (`event` is `None`) threaded into the free list.
#[derive(Clone)]
struct Node<M> {
    seq: u64,
    next: u32,
    event: Option<Event<M>>,
}

/// A per-tick FIFO list through the slab.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// The calendar storage: a sliding window of per-tick FIFO buckets plus
/// an overflow heap for events beyond the window. The ring's events live
/// in one slab, each bucket a linked list through it, so a copy of the
/// ring is one allocation whatever the number of occupied ticks.
///
/// Invariants:
/// * `cursor` never decreases; every event in bucket `t % RING_SIZE` has
///   tick `t` with `cursor <= t < cursor + RING_SIZE`.
/// * the overflow heap only holds events with tick `>= cursor + RING_SIZE`;
///   whenever `cursor` advances, newly covered events migrate into their
///   buckets (in `(time, seq)` order, so bucket FIFO order equals seq
///   order — migrated events were necessarily scheduled before any event
///   scheduled directly into the same bucket).
/// * every slab slot is on exactly one list: its bucket's when it holds
///   an event, the free list when it does not.
struct Calendar<M> {
    slab: Vec<Node<M>>,
    /// Head of the free-slot list.
    free: u32,
    buckets: [Bucket; RING_SIZE as usize],
    /// Bit `b` is set exactly when bucket `b` holds an event, so finding
    /// the earliest occupied tick is a rotate and a bit scan, not a walk
    /// along the ring.
    occupied: u128,
    /// The earliest tick the ring can currently hold.
    cursor: u64,
    /// Events held in the ring (the rest are in `overflow`).
    ring_len: usize,
    overflow: BinaryHeap<Scheduled<M>>,
}

impl<M: Clone> Clone for Calendar<M> {
    /// Copies the pending events only, in the order they will pop, into
    /// a slab without free slots: one allocation and one pass, whatever
    /// the ring has seen before.
    fn clone(&self) -> Self {
        let mut copy = Calendar {
            // Room for the slots this queue needed: the copy's next few
            // schedules should not be what regrows it.
            slab: Vec::with_capacity(self.slab.len()),
            occupied: self.occupied,
            cursor: self.cursor,
            ring_len: self.ring_len,
            overflow: self.overflow.clone(),
            ..Calendar::new()
        };
        for (_, b) in self.window() {
            let head = copy.slab.len() as u32;
            for node in self.bucket(b) {
                let next = copy.slab.len() as u32 + 1;
                copy.slab.push(Node {
                    next,
                    ..node.clone()
                });
            }
            let tail = copy.slab.len() as u32 - 1;
            copy.slab[tail as usize].next = NIL;
            copy.buckets[b] = Bucket { head, tail };
        }
        copy
    }
}

impl<M> Calendar<M> {
    fn new() -> Self {
        Calendar {
            slab: Vec::new(),
            free: NIL,
            buckets: [EMPTY; RING_SIZE as usize],
            occupied: 0,
            cursor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn bucket_index(tick: u64) -> usize {
        (tick % RING_SIZE) as usize
    }

    /// The events of bucket `b`, in FIFO (= seq) order.
    fn bucket(&self, b: usize) -> impl Iterator<Item = &Node<M>> + '_ {
        std::iter::successors(self.slab.get(self.buckets[b].head as usize), |node| {
            self.slab.get(node.next as usize)
        })
    }

    /// Appends an event to bucket `b`, in a free slot if there is one.
    #[inline]
    fn push_back(&mut self, b: usize, seq: u64, event: Event<M>) {
        let node = Node {
            seq,
            next: NIL,
            event: Some(event),
        };
        let slot = match self.slab.get_mut(self.free as usize) {
            Some(reused) => {
                let slot = self.free;
                self.free = reused.next;
                *reused = node;
                slot
            }
            None => {
                assert!(self.slab.len() < NIL as usize, "calendar ring is full");
                self.slab.push(node);
                (self.slab.len() - 1) as u32
            }
        };
        let bucket = &mut self.buckets[b];
        match self.slab.get_mut(bucket.tail as usize) {
            Some(last) => last.next = slot,
            None => {
                bucket.head = slot;
                self.occupied |= 1 << b;
            }
        }
        bucket.tail = slot;
        self.ring_len += 1;
    }

    /// Unlinks `slot` from bucket `b`, where it follows `prev` (`NIL`:
    /// it is the head), and frees it.
    #[inline]
    fn unlink(&mut self, b: usize, prev: u32, slot: u32) -> Event<M> {
        let node = &mut self.slab[slot as usize];
        let event = node.event.take().expect("listed slots hold an event");
        let next = node.next;
        node.next = self.free;
        self.free = slot;
        let bucket = &mut self.buckets[b];
        match self.slab.get_mut(prev as usize) {
            Some(before) => before.next = next,
            None => bucket.head = next,
        }
        if next == NIL {
            bucket.tail = prev;
            if prev == NIL {
                self.occupied &= !(1 << b);
            }
        }
        self.ring_len -= 1;
        event
    }

    fn schedule(&mut self, at: Time, seq: u64, event: Event<M>) {
        // The kernel never schedules into the past (`World::inject`
        // asserts it); clamping keeps the bucket mapping safe regardless.
        let tick = at.as_ticks().max(self.cursor);
        if tick < self.cursor + RING_SIZE {
            self.push_back(Self::bucket_index(tick), seq, event);
        } else {
            self.overflow.push(Scheduled { at, seq, event });
        }
    }

    /// Slides the window start to `tick` and pulls every overflow event the
    /// wider window now covers into its bucket. Once per tick, not per
    /// event: kept out of line so that `pop` stays small enough to inline.
    #[inline(never)]
    fn advance_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.cursor);
        self.cursor = tick;
        let end = self.cursor + RING_SIZE;
        while self.overflow.peek().is_some_and(|s| s.at.as_ticks() < end) {
            let s = self.overflow.pop().expect("peeked");
            self.push_back(Self::bucket_index(s.at.as_ticks()), s.seq, s.event);
        }
    }

    /// The occupied buckets as `(tick, bucket index)`, earliest tick
    /// first.
    fn window(&self) -> impl Iterator<Item = (u64, usize)> {
        let cursor = self.cursor;
        // Bit `k`: the bucket `k` ticks past the cursor.
        let mut ahead = self
            .occupied
            .rotate_right(Self::bucket_index(cursor) as u32);
        std::iter::from_fn(move || {
            if ahead == 0 {
                return None;
            }
            let tick = cursor + u64::from(ahead.trailing_zeros());
            ahead &= ahead - 1;
            Some((tick, Self::bucket_index(tick)))
        })
    }

    /// The tick of the earliest pending event (the overflow heap cannot
    /// beat a ring event by invariant).
    fn next_tick(&self) -> Option<u64> {
        // Usually more is pending at the instant being drained.
        if self.buckets[Self::bucket_index(self.cursor)].head != NIL {
            return Some(self.cursor);
        }
        match self.window().next() {
            Some((tick, _)) => Some(tick),
            None => self.overflow.peek().map(|s| s.at.as_ticks()),
        }
    }

    /// Advances the window so the earliest pending events sit in their
    /// bucket, returning their tick. `None` when the queue is empty.
    fn settle_front(&mut self) -> Option<u64> {
        // With the ring empty this is the earliest overflow tick, and
        // sliding the window there files its events.
        let tick = self.next_tick()?;
        if tick > self.cursor {
            self.advance_to(tick);
        }
        Some(tick)
    }

    /// Removes the `n`-th event (seq order) of the earliest instant,
    /// after showing it — instant, seq, event — to `seen` where it lies:
    /// the event then moves once, from its slot to the caller.
    #[inline]
    fn pop_nth(
        &mut self,
        n: usize,
        seen: impl FnOnce(Time, u64, &Event<M>),
    ) -> Option<(Time, Event<M>)> {
        let at = Time::from_ticks(self.settle_front()?);
        let b = Self::bucket_index(at.as_ticks());
        let (mut prev, mut slot) = (NIL, self.buckets[b].head);
        for _ in 0..n {
            prev = slot;
            slot = self.slab.get(slot as usize)?.next;
        }
        let node = self.slab.get(slot as usize)?;
        seen(
            at,
            node.seq,
            node.event.as_ref().expect("listed slots hold an event"),
        );
        Some((at, self.unlink(b, prev, slot)))
    }

    /// Fills `out` with summaries of every event at the earliest instant,
    /// in seq order (bucket FIFO order equals seq order by invariant).
    fn ready_set(&mut self, out: &mut Vec<ReadySummary>) -> Option<Time> {
        out.clear();
        let tick = self.settle_front()?;
        out.extend(self.bucket(Self::bucket_index(tick)).map(|node| {
            ReadySummary {
                seq: node.seq,
                kind: node
                    .event
                    .as_ref()
                    .expect("listed slots hold an event")
                    .ready_kind(),
            }
        }));
        Some(Time::from_ticks(tick))
    }

    fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Visits every pending event as `(at, seq, event)`: the ring in
    /// `(time, seq)` order, then the overflow heap in no particular one.
    /// Ring entries store only their seq — the dispatch tick is implied by
    /// bucket position.
    fn for_each(&self, f: &mut dyn FnMut(Time, u64, &Event<M>)) {
        for (tick, b) in self.window() {
            for node in self.bucket(b) {
                let event = node.event.as_ref().expect("listed slots hold an event");
                f(Time::from_ticks(tick), node.seq, event);
            }
        }
        for s in &self.overflow {
            f(s.at, s.seq, &s.event);
        }
    }

    /// Hands every pending event to `f` for rewriting, in `(time, seq)`
    /// order: the ring as it lies, then the overflow heap sorted (every
    /// event there is later than the whole ring, and `f` cannot touch
    /// what the heap orders by).
    fn for_each_mut(&mut self, f: &mut dyn FnMut(&mut Event<M>)) {
        for (_, b) in self.window() {
            let mut slot = self.buckets[b].head;
            while let Some(node) = self.slab.get_mut(slot as usize) {
                f(node.event.as_mut().expect("listed slots hold an event"));
                slot = node.next;
            }
        }
        let mut far = std::mem::take(&mut self.overflow).into_vec();
        far.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
        for s in &mut far {
            f(&mut s.event);
        }
        self.overflow = far.into();
    }

    fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        self.buckets = [EMPTY; RING_SIZE as usize];
        self.occupied = 0;
        self.cursor = 0;
        self.ring_len = 0;
        self.overflow.clear();
    }
}

/// The digest one pending event contributes to a queue fingerprint:
/// instant, seq, routing fields and payload, in a hasher of its own.
fn event_digest<M>(at: Time, seq: u64, event: &Event<M>, msg_fp: fn(&M, &mut StableHasher)) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(at.as_ticks());
    h.write_u64(seq);
    event.fingerprint(&mut h, msg_fp);
    h.finish()
}

/// The running state of an incrementally maintained queue fingerprint.
struct Tracked<M> {
    /// The payload hook the sum was computed with.
    msg_fp: fn(&M, &mut StableHasher),
    /// Wrapping sum of [`event_digest`] over the pending events.
    sum: u64,
    /// Schedules and pops folded in since the last fingerprint.
    since: usize,
}

impl<M> Tracked<M> {
    /// The state after one more event was scheduled (`add`) or popped,
    /// `others` being the events the queue holds besides it: `None` once
    /// upkeep has outrun a rescan. Out of line, so that the check for a
    /// tracked sum is all that `schedule` and `pop` inline.
    #[inline(never)]
    fn fold(
        mut self,
        others: usize,
        add: bool,
        at: Time,
        seq: u64,
        event: &Event<M>,
    ) -> Option<Self> {
        self.since += 1;
        if self.since > others {
            return None;
        }
        let d = event_digest(at, seq, event, self.msg_fp);
        self.sum = if add {
            self.sum.wrapping_add(d)
        } else {
            self.sum.wrapping_sub(d)
        };
        Some(self)
    }
}

// Not derived: `M` itself need not be `Copy`.
impl<M> Clone for Tracked<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Tracked<M> {}

/// The deterministic event queue.
#[derive(Clone)]
pub struct EventQueue<M> {
    calendar: Calendar<M>,
    next_seq: u64,
    /// `Some` from the first [`EventQueue::fingerprint`] call on: the
    /// digest sum is then kept current on every schedule and pop, so the
    /// next fingerprint costs what changed instead of what is pending.
    /// Upkeep that has outrun a rescan (more updates than pending events
    /// since the last fingerprint — a queue nobody is fingerprinting any
    /// more) drops back to `None`.
    tracked: Cell<Option<Tracked<M>>>,
}

impl<M> fmt::Debug for EventQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            calendar: Calendar::new(),
            next_seq: 0,
            tracked: Cell::new(None),
        }
    }

    /// [`EventQueue::new`] under the name of the data structure.
    pub fn calendar() -> Self {
        Self::new()
    }

    /// Folds one scheduled (`add`) or popped event into the tracked
    /// digest sum, if one is being kept; `others` counts the events the
    /// queue holds besides this one. (The check is all an untracked queue
    /// pays.)
    #[inline]
    fn track(
        tracked: &Cell<Option<Tracked<M>>>,
        others: usize,
        add: bool,
        at: Time,
        seq: u64,
        event: &Event<M>,
    ) {
        if let Some(t) = tracked.get() {
            tracked.set(t.fold(others, add, at, seq, event));
        }
    }

    /// Schedules `event` for dispatch at `at`.
    pub fn schedule(&mut self, at: Time, event: Event<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The instant a walk would report: an event scheduled behind the
        // window is filed under the window's first tick.
        let filed = at.max(Time::from_ticks(self.calendar.cursor));
        Self::track(&self.tracked, self.len(), true, filed, seq, &event);
        self.calendar.schedule(at, seq, event);
    }

    /// Removes and returns the earliest event (FIFO among equal instants).
    pub fn pop(&mut self) -> Option<(Time, Event<M>)> {
        self.pop_nth(0)
    }

    /// Removes and returns the `n`-th event (seq order) among those
    /// pending at the earliest instant — the controlled-nondeterminism
    /// variant of [`EventQueue::pop`]. `pop_nth(0)` is exactly `pop`;
    /// `None` if the queue is empty or `n` is out of the ready set.
    pub fn pop_nth(&mut self, n: usize) -> Option<(Time, Event<M>)> {
        let (tracked, others) = (&self.tracked, self.calendar.len().saturating_sub(1));
        self.calendar.pop_nth(n, |at, seq, event| {
            Self::track(tracked, others, false, at, seq, event)
        })
    }

    /// Fills `out` with a summary of every event pending at the earliest
    /// instant, in seq order (the order [`EventQueue::pop`] would drain
    /// them), returning that instant. Clears `out` and returns `None` on
    /// an empty queue.
    pub fn ready_set(&mut self, out: &mut Vec<ReadySummary>) -> Option<Time> {
        self.calendar.ready_set(out)
    }

    /// The instant of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.calendar.next_tick().map(Time::from_ticks)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// `true` when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next scheduled event will receive.
    ///
    /// Part of a world's deterministic closure: two states with equal
    /// pending events but different counters hand out different seqs to
    /// future events, changing default tie order under exploration.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The digest sum of every pending event, from scratch.
    fn scan(&self, msg_fp: fn(&M, &mut StableHasher)) -> u64 {
        let mut sum = 0u64;
        self.calendar.for_each(&mut |at, seq, event| {
            sum = sum.wrapping_add(event_digest(at, seq, event, msg_fp));
        });
        sum
    }

    /// Absorbs every pending event into `h`, commutatively.
    ///
    /// Each event is hashed into a fresh hasher — instant, seq, routing
    /// fields, payload (via `msg_fp`) — and the per-event digests are
    /// combined with wrapping addition, so the result is independent of
    /// the internal iteration order (ring vs. overflow placement). Seqs
    /// *are* hashed: they break same-instant ties, so two queues holding
    /// equal events under different seqs are not interchangeable. The
    /// combined digest, the queue length, and the next-seq counter are
    /// then written to `h`.
    ///
    /// The first call walks the queue; from then on the sum is kept
    /// current by [`EventQueue::schedule`] and the pops (a sum commutes,
    /// so adding and subtracting single digests reproduces the walk's
    /// value exactly), and clones inherit it.
    pub fn fingerprint(&self, h: &mut StableHasher, msg_fp: fn(&M, &mut StableHasher)) {
        let sum = match self.tracked.get() {
            // Two addresses for one hook only cost a rescan.
            Some(t) if t.msg_fp as usize == msg_fp as usize => {
                debug_assert_eq!(t.sum, self.scan(msg_fp), "tracked queue digest drifted");
                t.sum
            }
            _ => self.scan(msg_fp),
        };
        self.tracked.set(Some(Tracked {
            msg_fp,
            sum,
            since: 0,
        }));
        h.write_u64(sum);
        h.write_usize(self.len());
        h.write_u64(self.next_seq);
    }

    /// Stops keeping the digest sum current: the caller knows no
    /// fingerprint is coming (a later one walks the queue again).
    pub(crate) fn forget_fingerprint(&mut self) {
        self.tracked.set(None);
    }

    /// Rewrites every pending [`Event::Deliver`] payload through `f`,
    /// visiting events in canonical `(time, seq)` order so RNG-consuming
    /// damage does not depend on where an event is stored (ring or
    /// overflow) — the adversary's
    /// [`crate::driver::ChurnAction::ScrambleQueue`] primitive. Instants,
    /// seqs, routing fields and the seq counter are untouched: only
    /// payload bytes change, so the dispatch schedule is preserved and
    /// corruption perturbs protocol state alone. Returns the number of
    /// payloads rewritten.
    pub fn scramble_payloads(&mut self, rng: &mut Rng, f: fn(&mut M, &mut Rng)) -> usize {
        // Payloads change under the tracked sum: rescan at the next
        // fingerprint.
        self.tracked.set(None);
        let mut scrambled = 0;
        self.calendar.for_each_mut(&mut |event| {
            if let Event::Deliver { msg, .. } = event {
                f(msg, rng);
                scrambled += 1;
            }
        });
        scrambled
    }

    /// Drops every pending event and rewinds the clock window and sequence
    /// counter to a fresh-queue state, **keeping** every allocation (ring
    /// buckets, heap storage) for the next run — the cross-seed reuse path
    /// of [`crate::world::World::reset`].
    pub fn clear(&mut self) {
        self.next_seq = 0;
        self.tracked.set(None);
        self.calendar.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn deliver(to: u64, msg: u32) -> Event<u32> {
        Event::Deliver {
            from: ProcessId::from_raw(0),
            to: ProcessId::from_raw(to),
            sent: t(3),
            cause: 0,
            msg,
        }
    }

    fn msg(e: Event<u32>) -> u32 {
        match e {
            Event::Deliver { msg, .. } => msg,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(t(5), Event::ChurnTick);
        q.schedule(t(2), Event::ChurnTick);
        q.schedule(t(9), Event::ChurnTick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(at, _)| at.as_ticks())
            .collect();
        assert_eq!(times, vec![2, 5, 9]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(t(3), deliver(0, i));
        }
        let msgs: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| msg(e))
            .collect();
        assert_eq!(msgs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(t(7), Event::ChurnTick);
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(t(4), Event::ChurnTick);
        q.schedule(t(1), Event::ChurnTick);
        assert_eq!(q.pop().unwrap().0, t(1));
        q.schedule(t(2), Event::ChurnTick);
        assert_eq!(q.pop().unwrap().0, t(2));
        assert_eq!(q.pop().unwrap().0, t(4));
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_overflow_and_come_back() {
        let mut q: EventQueue<u8> = EventQueue::new();
        // Far beyond the ring: must overflow, then migrate back in order.
        q.schedule(t(5 * RING_SIZE), Event::ChurnTick);
        q.schedule(t(1), Event::ChurnTick);
        q.schedule(t(5 * RING_SIZE), Event::ChurnTick);
        q.schedule(t(RING_SIZE + 3), Event::ChurnTick);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().0, t(1));
        assert_eq!(q.peek_time(), Some(t(RING_SIZE + 3)));
        assert_eq!(q.pop().unwrap().0, t(RING_SIZE + 3));
        assert_eq!(q.pop().unwrap().0, t(5 * RING_SIZE));
        assert_eq!(q.pop().unwrap().0, t(5 * RING_SIZE));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_ties_keep_fifo_order_after_migration() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let far = t(3 * RING_SIZE + 7);
        for i in 0..20u32 {
            q.schedule(far, deliver(0, i));
        }
        let msgs: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| msg(e))
            .collect();
        assert_eq!(msgs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets_state_but_queue_stays_usable() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(t(3), Event::ChurnTick);
        q.schedule(t(900), Event::ChurnTick);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // A cleared queue accepts near-past times again (fresh run).
        q.schedule(t(1), Event::ChurnTick);
        assert_eq!(q.pop().unwrap().0, t(1));
    }

    #[test]
    fn ready_set_lists_the_earliest_cohort_in_seq_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut ready = Vec::new();
        assert_eq!(q.ready_set(&mut ready), None);
        q.schedule(t(5), Event::ChurnTick);
        q.schedule(t(3), deliver(7, 0));
        q.schedule(
            t(3),
            Event::Timer {
                pid: ProcessId::from_raw(2),
                timer: TimerId(9),
                cause: 0,
            },
        );
        assert_eq!(q.ready_set(&mut ready), Some(t(3)));
        assert_eq!(
            ready,
            vec![
                ReadySummary {
                    seq: 1,
                    kind: ReadyKind::Deliver {
                        from: ProcessId::from_raw(0),
                        to: ProcessId::from_raw(7),
                    },
                },
                ReadySummary {
                    seq: 2,
                    kind: ReadyKind::Timer {
                        pid: ProcessId::from_raw(2)
                    }
                },
            ]
        );
        // Inspection does not disturb the queue.
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().0, t(3));
    }

    #[test]
    fn pop_nth_reorders_only_within_the_instant() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..3u32 {
            q.schedule(t(3), deliver(i as u64, i));
        }
        q.schedule(t(8), deliver(9, 9));
        // Out of range: the ready set has 3 entries.
        assert!(q.pop_nth(3).is_none());
        assert_eq!(q.len(), 4, "failed pop_nth must not lose events");
        let (at, e) = q.pop_nth(1).unwrap();
        assert_eq!((at, msg(e)), (t(3), 1));
        let (_, e) = q.pop_nth(1).unwrap();
        assert_eq!(msg(e), 2);
        let (_, e) = q.pop_nth(0).unwrap();
        assert_eq!(msg(e), 0);
        let (at, e) = q.pop().unwrap();
        assert_eq!((at, msg(e)), (t(8), 9));
    }

    fn fp_u32(m: &u32, h: &mut StableHasher) {
        h.write_u32(*m);
    }

    fn digest(q: &EventQueue<u32>) -> u64 {
        let mut h = StableHasher::new();
        q.fingerprint(&mut h, fp_u32);
        h.finish()
    }

    #[test]
    fn fingerprint_ignores_storage_placement_but_not_content() {
        let fill = |q: &mut EventQueue<u32>| {
            q.schedule(t(100), deliver(1, 10));
            q.schedule(t(RING_SIZE + 50), deliver(2, 20));
            q.schedule(
                t(100),
                Event::Timer {
                    pid: ProcessId::from_raw(5),
                    timer: TimerId(4),
                    cause: 0,
                },
            );
        };
        // `a` holds the far event in the overflow heap; inspecting `b`
        // slides its window to tick 100, which migrates it into the ring.
        let (mut a, mut b) = (EventQueue::new(), EventQueue::new());
        fill(&mut a);
        fill(&mut b);
        b.ready_set(&mut Vec::new());
        assert_eq!(digest(&a), digest(&b));

        let before = digest(&a);
        a.pop();
        assert_ne!(digest(&a), before);
    }

    #[test]
    fn fingerprint_distinguishes_seq_assignment() {
        // Same pending events, scheduled in a different order: the seqs
        // differ, so future same-instant tie-breaking differs, so the
        // digests must differ.
        let mut a: EventQueue<u32> = EventQueue::new();
        a.schedule(t(3), deliver(1, 10));
        a.schedule(t(3), deliver(2, 20));
        let mut b: EventQueue<u32> = EventQueue::new();
        b.schedule(t(3), deliver(2, 20));
        b.schedule(t(3), deliver(1, 10));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn cloned_queue_pops_identically() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..6u32 {
            q.schedule(t(u64::from(i % 3)), deliver(u64::from(i), i));
        }
        q.schedule(t(4 * RING_SIZE), deliver(9, 99));
        q.pop();
        let mut fork = q.clone();
        assert_eq!(digest(&q), digest(&fork));
        loop {
            let (a, b) = (q.pop(), fork.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn scramble_visits_in_time_seq_order_and_preserves_schedule() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(t(2 * RING_SIZE), deliver(2, 20)); // overflow
        q.schedule(t(3), deliver(1, 10));
        q.schedule(
            t(3),
            Event::Timer {
                pid: ProcessId::from_raw(5),
                timer: TimerId(4),
                cause: 0,
            },
        );
        q.schedule(t(3), deliver(3, 30));
        let scramble = |m: &mut u32, rng: &mut Rng| *m = rng.below(1000) as u32;
        // The draws the three Deliver payloads must receive, in
        // `(time, seq)` order; the timer is skipped.
        let mut expect_rng = Rng::seeded(11);
        let expect: Vec<u32> = (0..3).map(|_| expect_rng.below(1000) as u32).collect();
        let mut rng = Rng::seeded(11);
        assert_eq!(q.scramble_payloads(&mut rng, scramble), 3);
        assert_eq!(rng.state_words(), expect_rng.state_words());
        // The dispatch schedule (times, tie order, seq counter) is intact.
        assert_eq!(q.next_seq(), 4);
        assert_eq!(q.len(), 4);
        let popped: Vec<(Time, Option<u32>)> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| match e {
                Event::Deliver { msg, .. } => (at, Some(msg)),
                _ => (at, None),
            })
            .collect();
        assert_eq!(
            popped,
            vec![
                (t(3), Some(expect[0])),
                (t(3), None),
                (t(3), Some(expect[1])),
                (t(2 * RING_SIZE), Some(expect[2])),
            ]
        );
    }

    #[test]
    fn ready_kind_targets() {
        assert_eq!(
            ReadyKind::Deliver {
                from: ProcessId::from_raw(1),
                to: ProcessId::from_raw(2)
            }
            .target(),
            Some(ProcessId::from_raw(2))
        );
        assert_eq!(
            ReadyKind::Timer {
                pid: ProcessId::from_raw(4)
            }
            .target(),
            Some(ProcessId::from_raw(4))
        );
        assert_eq!(ReadyKind::ChurnTick.target(), None);
    }
}
