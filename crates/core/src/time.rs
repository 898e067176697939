//! Virtual time.
//!
//! Simulated runs evolve over a discrete virtual time line. [`Time`] is an
//! absolute instant and [`TimeDelta`] a duration; both are integer-valued
//! (ticks) so that event ordering is exact and runs are bit-reproducible.
//! The unit of a tick is scenario-defined (experiments use "one tick = one
//! message-delay quantum").

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An absolute instant of virtual time, in ticks since the start of the run.
///
/// # Examples
///
/// ```
/// use dds_core::time::{Time, TimeDelta};
///
/// let t = Time::ZERO + TimeDelta::ticks(5);
/// assert_eq!(t.as_ticks(), 5);
/// assert!(t > Time::ZERO);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The origin of the virtual time line.
    pub const ZERO: Time = Time(0);

    /// Builds an instant from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// The tick count of this instant.
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`TimeDelta::ZERO`] when `earlier` is in the future, mirroring
    /// `std::time::Instant::saturating_duration_since`.
    pub const fn saturating_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

/// A span of virtual time, in ticks.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TimeDelta(u64);

impl TimeDelta {
    /// The empty duration.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// One tick.
    pub const TICK: TimeDelta = TimeDelta(1);

    /// Builds a duration from a tick count.
    pub const fn ticks(ticks: u64) -> Self {
        TimeDelta(ticks)
    }

    /// The tick count of this duration.
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// Saturating multiplication by a scalar (used to scale timeouts with
    /// TTL without overflow panics in adversarial sweeps).
    pub const fn saturating_mul(self, k: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(k))
    }

    /// `true` when the duration is zero ticks.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;

    #[inline]
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0.checked_add(rhs.0).expect("virtual time overflow"))
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;

    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = TimeDelta;

    /// # Panics
    ///
    /// Panics when `rhs` is later than `self`; use
    /// [`Time::saturating_since`] when that can happen.
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracting a later instant"),
        )
    }
}

/// A half-open interval `[start, end)` of virtual time.
///
/// Used for process presence intervals and query intervals. The empty
/// interval (`start == end`) contains no instant.
///
/// # Examples
///
/// ```
/// use dds_core::time::{Interval, Time};
///
/// let i = Interval::new(Time::from_ticks(2), Time::from_ticks(5));
/// assert!(i.contains(Time::from_ticks(2)));
/// assert!(!i.contains(Time::from_ticks(5)));
/// assert!(i.covers(&Interval::new(Time::from_ticks(3), Time::from_ticks(4))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    start: Time,
    end: Time,
}

impl Interval {
    /// Builds `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: Time, end: Time) -> Self {
        assert!(end >= start, "interval end before start");
        Interval { start, end }
    }

    /// The inclusive lower bound.
    pub const fn start(&self) -> Time {
        self.start
    }

    /// The exclusive upper bound.
    pub const fn end(&self) -> Time {
        self.end
    }

    /// `true` when the interval contains no instant.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The duration of the interval.
    pub fn len(&self) -> TimeDelta {
        self.end - self.start
    }

    /// `true` when `t` lies in `[start, end)`.
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// `true` when `self` fully contains `other` (⊇ as sets of instants).
    pub fn covers(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// `true` when the two intervals share at least one instant.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start.as_ticks(), self.end.as_ticks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = Time::from_ticks(10);
        assert_eq!((t + TimeDelta::ticks(5)).as_ticks(), 15);
        assert_eq!(t - Time::from_ticks(4), TimeDelta::ticks(6));
        let mut u = t;
        u += TimeDelta::TICK;
        assert_eq!(u.as_ticks(), 11);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = Time::from_ticks(3);
        let late = Time::from_ticks(9);
        assert_eq!(late.saturating_since(early), TimeDelta::ticks(6));
        assert_eq!(early.saturating_since(late), TimeDelta::ZERO);
    }

    #[test]
    #[should_panic(expected = "subtracting a later instant")]
    fn sub_panics_on_negative() {
        let _ = Time::from_ticks(1) - Time::from_ticks(2);
    }

    #[test]
    fn interval_membership() {
        let i = Interval::new(Time::from_ticks(2), Time::from_ticks(5));
        assert!(!i.contains(Time::from_ticks(1)));
        assert!(i.contains(Time::from_ticks(2)));
        assert!(i.contains(Time::from_ticks(4)));
        assert!(!i.contains(Time::from_ticks(5)));
        assert_eq!(i.len(), TimeDelta::ticks(3));
    }

    #[test]
    fn empty_interval_contains_nothing() {
        let i = Interval::new(Time::from_ticks(3), Time::from_ticks(3));
        assert!(i.is_empty());
        assert!(!i.contains(Time::from_ticks(3)));
    }

    #[test]
    fn covers_and_overlaps() {
        let big = Interval::new(Time::from_ticks(0), Time::from_ticks(10));
        let small = Interval::new(Time::from_ticks(3), Time::from_ticks(6));
        let disjoint = Interval::new(Time::from_ticks(10), Time::from_ticks(12));
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.overlaps(&small));
        assert!(!big.overlaps(&disjoint));
        // An interval covers itself.
        assert!(big.covers(&big));
    }

    #[test]
    fn delta_saturating_mul() {
        assert_eq!(TimeDelta::ticks(3).saturating_mul(4), TimeDelta::ticks(12));
        assert_eq!(
            TimeDelta::ticks(u64::MAX).saturating_mul(2),
            TimeDelta::ticks(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "interval end before start")]
    fn interval_rejects_reversed_bounds() {
        let _ = Interval::new(Time::from_ticks(5), Time::from_ticks(2));
    }
}
