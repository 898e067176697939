//! A timer wheel with one slot per millisecond and an occupancy bitmap.
//!
//! Same idiom as the simulator's calendar event queue: a timer is filed
//! in the slot its deadline falls into, modulo the wheel size, and one
//! bit per slot says whether the slot holds anything. The two calls the
//! event loop makes every tick then cost what is due, not what is
//! pending:
//!
//! - [`TimerWheel::expire`] visits only the occupied slots between the
//!   previous call's time and `now`, and returns at once when the
//!   millisecond has not advanced, unless a deadline at or before it
//!   was filed since;
//! - [`TimerWheel::next_deadline`] walks the occupied slots from the
//!   expiry watermark and stops at the first one holding an entry of
//!   the current lap.
//!
//! Slot `Vec`s keep their capacity across laps, so the steady state
//! allocates nothing.
//!
//! Tokens are the sans-io core's [`TimerToken`]s; the wheel never
//! cancels — the core ignores stale tokens, matching the simulator's
//! one-shot kernel timers. A loader's wheel therefore holds one stale
//! operation timeout per recent operation, tens of thousands of entries
//! at saturation, which is why neither call may look at every entry.

use dds_store::protocol::TimerToken;

/// Number of slots, one per millisecond (the host's clock resolution);
/// one lap covers ~1 s, past the operation and probe timeouts. Longer
/// timers simply survive extra laps.
const SLOTS: usize = 1024;
/// Words of the occupancy bitmap, 64 slots each.
const WORDS: usize = SLOTS / 64;
const _: () = assert!(SLOTS.is_multiple_of(64));

/// A fixed-size timer wheel of `(deadline_ms, token)` entries.
///
/// Invariants:
/// * every pending deadline is at or after `drained_ms`;
/// * an entry with deadline `d` sits in slot `d % SLOTS`;
/// * bit `s` of `occupied` is set exactly when slot `s` is non-empty.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<(u64, TimerToken)>>,
    /// Bit `s % 64` of word `s / 64` is set exactly when slot `s` holds
    /// an entry.
    occupied: [u64; WORDS],
    /// The time up to which slots have been drained.
    drained_ms: u64,
    /// Whether a deadline at `drained_ms` was filed since the last
    /// expiry: the only entries that can be due without the clock
    /// advancing.
    due_at_drained: bool,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel starting at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            drained_ms: 0,
            due_at_drained: false,
            len: 0,
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_of(ms: u64) -> usize {
        (ms % SLOTS as u64) as usize
    }

    /// The smallest offset `k >= from`, below one lap, for which slot
    /// `(start + k) % SLOTS` is occupied. A scan of at most `WORDS + 1`
    /// bitmap words, whatever the number of pending timers.
    fn next_occupied(&self, start: usize, from: usize) -> Option<usize> {
        // Positions run over `start..start + SLOTS`, slot `p % SLOTS`.
        let end = start + SLOTS;
        let mut p = start + from;
        while p < end {
            let ahead = self.occupied[Self::slot_of(p as u64) / 64] >> (p % 64);
            if ahead != 0 {
                let hit = p + ahead.trailing_zeros() as usize;
                // Past `end` the word has wrapped around to `start`.
                return (hit < end).then(|| hit - start);
            }
            p = (p | 63) + 1;
        }
        None
    }

    /// Files `token` to fire once `deadline_ms` is reached. A deadline
    /// already in the past fires on the next [`TimerWheel::expire`].
    pub fn schedule(&mut self, deadline_ms: u64, token: TimerToken) {
        // A deadline at or before the watermark is due now: file it at
        // the watermark and flag it, so the next expire visits that slot
        // even if the clock has not moved.
        let deadline_ms = if deadline_ms <= self.drained_ms {
            self.due_at_drained = true;
            self.drained_ms
        } else {
            deadline_ms
        };
        let s = Self::slot_of(deadline_ms);
        self.slots[s].push((deadline_ms, token));
        self.occupied[s / 64] |= 1 << (s % 64);
        self.len += 1;
    }

    /// Pops every timer with `deadline <= now_ms` into `out` (appended;
    /// not cleared), advancing the wheel's watermark to `now_ms`.
    pub fn expire(&mut self, now_ms: u64, out: &mut Vec<TimerToken>) {
        // The watermark's slot was drained by the last call unless a
        // deadline was filed at the watermark since.
        let first = if self.due_at_drained {
            self.drained_ms
        } else {
            self.drained_ms + 1
        };
        if now_ms < first {
            return; // same millisecond, or a non-monotone clock reading
        }
        self.due_at_drained = false;
        // Offsets `0..=span` from `first` hold the deadlines up to
        // `now_ms`; a span of a lap or more visits every slot once.
        let start = Self::slot_of(first);
        let span = (now_ms - first).min(SLOTS as u64 - 1) as usize;
        let mut from = 0;
        while let Some(k) = self.next_occupied(start, from).filter(|&k| k <= span) {
            let s = (start + k) % SLOTS;
            let slot = &mut self.slots[s];
            let before = slot.len();
            slot.retain(|&(deadline, token)| {
                let due = deadline <= now_ms;
                if due {
                    out.push(token);
                }
                !due
            });
            self.len -= before - slot.len();
            if slot.is_empty() {
                self.occupied[s / 64] &= !(1 << (s % 64));
            }
            from = k + 1;
        }
        self.drained_ms = now_ms;
    }

    /// Earliest pending deadline, or `None` when empty.
    ///
    /// Walks the occupied slots from the watermark and stops at the
    /// first entry of the current lap, so it usually reads one slot.
    /// Only when every pending timer is a lap or more out does it read
    /// them all.
    pub fn next_deadline(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let start = Self::slot_of(self.drained_ms);
        let mut later = u64::MAX;
        let mut from = 0;
        while let Some(k) = self.next_occupied(start, from) {
            // Every entry here is due at `lap` or whole laps after it,
            // and every entry of a later slot after `lap`.
            let lap = self.drained_ms + k as u64;
            for &(deadline, _) in &self.slots[(start + k) % SLOTS] {
                if deadline == lap {
                    return Some(lap);
                }
                later = later.min(deadline);
            }
            from = k + 1;
        }
        Some(later)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(n: u64) -> TimerToken {
        TimerToken(n)
    }

    #[test]
    fn fires_in_deadline_windows() {
        let mut w = TimerWheel::new();
        w.schedule(10, tok(1));
        w.schedule(50, tok(2));
        w.schedule(5000, tok(3)); // multiple laps out
        assert_eq!(w.next_deadline(), Some(10));
        let mut fired = Vec::new();
        w.expire(9, &mut fired);
        assert!(fired.is_empty());
        w.expire(30, &mut fired);
        assert_eq!(fired, vec![tok(1)]);
        fired.clear();
        w.expire(4999, &mut fired);
        assert_eq!(fired, vec![tok(2)]);
        assert_eq!(w.next_deadline(), Some(5000));
        fired.clear();
        w.expire(5003, &mut fired);
        assert_eq!(fired, vec![tok(3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_slot_different_laps_do_not_cross_fire() {
        let mut w = TimerWheel::new();
        let lap = SLOTS as u64;
        w.schedule(8, tok(1));
        w.schedule(8 + lap, tok(2)); // same slot, one lap later
        let mut fired = Vec::new();
        w.expire(100, &mut fired);
        assert_eq!(fired, vec![tok(1)]);
        fired.clear();
        w.expire(8 + lap, &mut fired);
        assert_eq!(fired, vec![tok(2)]);
    }

    #[test]
    fn past_deadlines_fire_immediately_and_len_tracks() {
        let mut w = TimerWheel::new();
        let mut fired = Vec::new();
        w.expire(1000, &mut fired); // advance watermark with empty wheel
        w.schedule(3, tok(7)); // already past: clamped to watermark
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline(), Some(1000));
        w.expire(1000, &mut fired);
        assert_eq!(fired, vec![tok(7)]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn next_deadline_looks_past_a_full_lap_only_when_it_must() {
        let mut w = TimerWheel::new();
        let lap = SLOTS as u64;
        w.schedule(3 * lap + 5, tok(1));
        w.schedule(lap + 9, tok(2));
        // Both more than a lap out: the full scan finds the nearer one.
        assert_eq!(w.next_deadline(), Some(lap + 9));
        // A current-lap entry in a later slot than both wins.
        w.schedule(lap - 1, tok(3));
        assert_eq!(w.next_deadline(), Some(lap - 1));
    }
}
