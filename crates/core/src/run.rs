//! Runs and traces.
//!
//! A *run* of a dynamic system is characterised along the arrival
//! dimension: which entities are present when. A [`Trace`] is that
//! membership history — joins, leaves, crashes, in-place corruptions —
//! plus the instant up to which the run was observed. Specifications
//! ([`crate::spec`]) judge outcomes against it. Message traffic is not
//! recorded here: the kernel counts it in its metrics and streams it,
//! event by event, to whatever observability sink is installed.
//!
//! Because identities are never reused ([`crate::process::IdSource`]), each
//! process has exactly one *presence interval*; [`PresenceMap`] indexes them
//! and answers the membership questions the one-time-query validity
//! predicate needs: who was present throughout an interval, who was present
//! at some point of it.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::arrival::RunArrivalStats;
use crate::churn::ChurnSummary;
use crate::process::ProcessId;
use crate::time::{Interval, Time};

/// One membership event of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A fresh entity entered the system.
    Join {
        /// The entity.
        pid: ProcessId,
        /// When it joined.
        at: Time,
    },
    /// An entity left gracefully.
    Leave {
        /// The entity.
        pid: ProcessId,
        /// When it left.
        at: Time,
    },
    /// An entity crashed (left without notice).
    Crash {
        /// The entity.
        pid: ProcessId,
        /// When it crashed.
        at: Time,
    },
    /// A process's local state was transiently corrupted in place (the
    /// self-stabilization fault model: the process keeps running from an
    /// arbitrary state, unlike a crash).
    Corrupt {
        /// The corrupted entity.
        pid: ProcessId,
        /// Corruption instant.
        at: Time,
    },
}

impl TraceEvent {
    /// The instant at which the event occurred.
    pub const fn at(&self) -> Time {
        match self {
            TraceEvent::Join { at, .. }
            | TraceEvent::Leave { at, .. }
            | TraceEvent::Crash { at, .. }
            | TraceEvent::Corrupt { at, .. } => *at,
        }
    }
}

/// The causal annotation of one kernel event: a stable per-run event id
/// and the id of the event that caused it.
///
/// Ids are assigned by the generating kernel in dispatch order, so a
/// cause id is always smaller than the id it caused. Id `0` is reserved
/// for the environment (external injections, churn-driver actions), which
/// is also the meaning of a defaulted annotation: no id, caused by the
/// environment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Causality {
    /// Stable per-run event id (`0` = unassigned).
    pub id: u64,
    /// Id of the causing event (`0` = the environment).
    pub cause: u64,
}

/// The membership history of one run.
///
/// Events are appended in nondecreasing time order; [`Trace::push`] enforces
/// the ordering so checkers can rely on it. The *horizon* — the instant up
/// to which the run was observed, which closes the presence interval of
/// every process still present — also moves on message traffic, which the
/// generating kernel reports through [`Trace::advance`] without recording
/// an event.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// The latest instant pushed or advanced to.
    horizon: Time,
    /// Declared intent of the generating churn driver (finite simulations
    /// only witness prefixes; see [`RunArrivalStats`]).
    arrivals_intended_finite: bool,
    concurrency_intended_finite: bool,
}

impl Trace {
    /// Creates an empty trace whose generator promises finitely many
    /// arrivals and finite concurrency (the common case for tests).
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            horizon: Time::ZERO,
            arrivals_intended_finite: true,
            concurrency_intended_finite: true,
        }
    }

    /// Empties the trace, rewinds the horizon and restores the default
    /// (finite) intent, keeping the event storage for reuse across runs.
    pub fn clear(&mut self) {
        self.events.clear();
        self.horizon = Time::ZERO;
        self.arrivals_intended_finite = true;
        self.concurrency_intended_finite = true;
    }

    /// Declares the intent of the generating driver, used by
    /// [`Trace::arrival_stats`] to fill the `*_finite` flags.
    pub fn set_intent(&mut self, arrivals_finite: bool, concurrency_finite: bool) {
        self.arrivals_intended_finite = arrivals_finite;
        self.concurrency_intended_finite = concurrency_finite;
    }

    /// Moves the horizon to `at` without recording an event: something
    /// observable that is not a membership change (a send, a delivery, a
    /// drop) happened then.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the horizon.
    #[inline]
    pub fn advance(&mut self, at: Time) {
        assert!(at >= self.horizon, "trace time must not go backwards");
        self.horizon = at;
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics if the event is earlier than the horizon.
    pub fn push(&mut self, ev: TraceEvent) {
        self.advance(ev.at());
        self.events.push(ev);
    }

    /// The recorded events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The latest instant the trace was pushed or advanced to, or
    /// [`Time::ZERO`] for a fresh trace.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Builds the presence index for membership queries.
    pub fn presence(&self) -> PresenceMap {
        PresenceMap::from_trace(self)
    }

    /// Membership statistics for checking conformance to an
    /// [`crate::arrival::ArrivalModel`].
    pub fn arrival_stats(&self) -> RunArrivalStats {
        let presence = self.presence();
        let joins_after_start = self
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Join { at, .. } if *at > Time::ZERO))
            .count();
        RunArrivalStats {
            total_arrivals: presence.total_arrivals(),
            joins_after_start,
            max_concurrency: presence.max_concurrency(),
            total_arrivals_finite: self.arrivals_intended_finite,
            max_concurrency_finite: self.concurrency_intended_finite,
        }
    }

    /// Aggregate churn measurements over the whole trace.
    pub fn churn_summary(&self) -> ChurnSummary {
        let mut joins = 0usize;
        let mut leaves = 0usize;
        let mut crashes = 0usize;
        let mut membership = 0usize;
        let mut min_membership = usize::MAX;
        let mut max_membership = 0usize;
        let mut saw_membership_event = false;
        for ev in &self.events {
            match ev {
                TraceEvent::Join { at, .. } => {
                    if *at > Time::ZERO {
                        joins += 1;
                    }
                    membership += 1;
                    saw_membership_event = true;
                }
                TraceEvent::Leave { .. } => {
                    leaves += 1;
                    membership = membership.saturating_sub(1);
                    saw_membership_event = true;
                }
                TraceEvent::Crash { .. } => {
                    crashes += 1;
                    membership = membership.saturating_sub(1);
                    saw_membership_event = true;
                }
                TraceEvent::Corrupt { .. } => continue,
            }
            min_membership = min_membership.min(membership);
            max_membership = max_membership.max(membership);
        }
        ChurnSummary {
            joins,
            leaves,
            crashes,
            min_membership: if saw_membership_event {
                min_membership
            } else {
                0
            },
            max_membership,
            observed_ticks: self.horizon().as_ticks(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        for ev in iter {
            self.push(ev);
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace of {} events up to {}", self.len(), self.horizon())
    }
}

/// Presence intervals of every process that ever joined.
///
/// A process present at the end of the trace has an interval open at the
/// trace horizon: its `end` is `horizon + 1` so it *covers* the horizon.
///
/// The intervals sit in a vector sorted by identity. Identities are
/// handed out in increasing order, so building the map is one push per
/// join (a join out of identity order is a binary search and an
/// insertion); a departure and [`PresenceMap::of`] are binary searches,
/// and every query returns its processes in identity order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PresenceMap {
    intervals: Vec<(ProcessId, PresenceInterval)>,
    horizon: Time,
}

/// The presence of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PresenceInterval {
    /// Join instant.
    pub joined: Time,
    /// Departure instant, if the process departed within the trace.
    pub departed: Option<Time>,
    /// Whether the departure (if any) was a crash.
    pub crashed: bool,
}

impl PresenceInterval {
    /// The half-open presence interval, closed off at `horizon + 1` for
    /// still-present processes.
    pub fn as_interval(&self, horizon: Time) -> Interval {
        let end = self
            .departed
            .unwrap_or(horizon + crate::time::TimeDelta::TICK);
        Interval::new(self.joined, end.max(self.joined))
    }
}

impl PresenceMap {
    /// Builds the index from a trace.
    ///
    /// # Panics
    ///
    /// Panics when an identity joins twice, or when a process that has
    /// not joined leaves or crashes.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut intervals: Vec<(ProcessId, PresenceInterval)> = Vec::new();
        for ev in trace.events() {
            match *ev {
                TraceEvent::Join { pid, at } => {
                    // Identities are handed out in increasing order, so a
                    // join is nearly always a push.
                    let i = match intervals.last() {
                        Some(&(last, _)) if last >= pid => intervals
                            .binary_search_by_key(&pid, |&(p, _)| p)
                            .err()
                            .unwrap_or_else(|| panic!("identity {pid} reused in trace")),
                        _ => intervals.len(),
                    };
                    let fresh = PresenceInterval {
                        joined: at,
                        departed: None,
                        crashed: false,
                    };
                    intervals.insert(i, (pid, fresh));
                }
                TraceEvent::Leave { pid, at } => depart(&mut intervals, pid, at, false),
                TraceEvent::Crash { pid, at } => depart(&mut intervals, pid, at, true),
                TraceEvent::Corrupt { .. } => {}
            }
        }
        PresenceMap {
            intervals,
            horizon: trace.horizon(),
        }
    }

    /// Total number of processes that ever joined.
    pub fn total_arrivals(&self) -> usize {
        self.intervals.len()
    }

    /// The presence record of one process, if it ever joined.
    pub fn of(&self, pid: ProcessId) -> Option<&PresenceInterval> {
        self.intervals
            .binary_search_by_key(&pid, |&(p, _)| p)
            .ok()
            .map(|i| &self.intervals[i].1)
    }

    /// Every process that ever joined with its presence interval (closed
    /// at `horizon + 1` when still present), in identity order.
    pub fn intervals(&self) -> impl Iterator<Item = (ProcessId, Interval)> + '_ {
        self.intervals
            .iter()
            .map(|(pid, p)| (*pid, p.as_interval(self.horizon)))
    }

    /// The processes whose presence interval satisfies `keep`.
    fn select(&self, keep: impl Fn(&Interval) -> bool) -> Vec<ProcessId> {
        self.intervals()
            .filter(|(_, iv)| keep(iv))
            .map(|(pid, _)| pid)
            .collect()
    }

    /// Processes present at instant `t`.
    pub fn members_at(&self, t: Time) -> Vec<ProcessId> {
        self.select(|iv| iv.contains(t))
    }

    /// Processes whose presence covers the whole of `window` — the set the
    /// interval-validity predicate requires a query to include.
    pub fn present_throughout(&self, window: &Interval) -> Vec<ProcessId> {
        self.select(|iv| iv.covers(window))
    }

    /// Processes present at *some* instant of `window` — the largest set the
    /// interval-validity predicate allows a query to draw from.
    pub fn present_sometime(&self, window: &Interval) -> Vec<ProcessId> {
        self.select(|iv| iv.overlaps(window))
    }

    /// Maximum number of simultaneously-present processes over the trace.
    ///
    /// Computed by sweeping join/departure endpoints.
    pub fn max_concurrency(&self) -> usize {
        let mut deltas: Vec<(Time, i64)> = Vec::with_capacity(self.intervals.len() * 2);
        for (_, iv) in self.intervals() {
            deltas.push((iv.start(), 1));
            deltas.push((iv.end(), -1));
        }
        // Departures at an instant free the slot before arrivals at the same
        // instant take it (half-open intervals).
        deltas.sort_by_key(|&(t, d)| (t, d));
        let mut cur = 0i64;
        let mut max = 0i64;
        for (_, d) in deltas {
            cur += d;
            max = max.max(cur);
        }
        max.max(0) as usize
    }

    /// The trace horizon used to close open presence intervals.
    pub const fn horizon(&self) -> Time {
        self.horizon
    }
}

/// Closes the presence of `pid` at `at`, by a crash or a leave.
///
/// # Panics
///
/// Panics when `pid` has not joined.
fn depart(intervals: &mut [(ProcessId, PresenceInterval)], pid: ProcessId, at: Time, crash: bool) {
    let Ok(i) = intervals.binary_search_by_key(&pid, |&(p, _)| p) else {
        let kind = if crash { "crash" } else { "leave" };
        panic!("{kind} of unknown process {pid}");
    };
    let slot = &mut intervals[i].1;
    slot.departed = Some(at);
    slot.crashed |= crash;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::new();
        tr.push(TraceEvent::Join {
            pid: pid(0),
            at: t(0),
        });
        tr.push(TraceEvent::Join {
            pid: pid(1),
            at: t(0),
        });
        tr.push(TraceEvent::Join {
            pid: pid(2),
            at: t(3),
        });
        tr.push(TraceEvent::Leave {
            pid: pid(1),
            at: t(5),
        });
        tr.push(TraceEvent::Join {
            pid: pid(3),
            at: t(6),
        });
        tr.push(TraceEvent::Crash {
            pid: pid(2),
            at: t(8),
        });
        // Message traffic moves the horizon only.
        tr.advance(t(9));
        tr.advance(t(10));
        tr
    }

    #[test]
    fn push_enforces_time_order() {
        let mut tr = Trace::new();
        tr.push(TraceEvent::Join {
            pid: pid(0),
            at: t(5),
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.push(TraceEvent::Join {
                pid: pid(1),
                at: t(4),
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn advance_moves_the_horizon_only_and_enforces_time_order() {
        let mut tr = sample_trace();
        assert_eq!(tr.len(), 6);
        assert_eq!(tr.horizon(), t(10));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.push(TraceEvent::Join {
                pid: pid(9),
                at: t(9),
            });
        }));
        assert!(result.is_err(), "a push behind an advance is out of order");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tr.advance(t(9))));
        assert!(result.is_err());
        tr.clear();
        assert_eq!(tr.horizon(), Time::ZERO);
        tr.advance(t(1));
    }

    #[test]
    fn presence_intervals() {
        let tr = sample_trace();
        let pm = tr.presence();
        assert_eq!(pm.total_arrivals(), 4);
        let p1 = pm.of(pid(1)).unwrap();
        assert_eq!(p1.departed, Some(t(5)));
        assert!(!p1.crashed);
        let p2 = pm.of(pid(2)).unwrap();
        assert!(p2.crashed);
        // p0 still present: interval covers the horizon.
        let p0 = pm.of(pid(0)).unwrap();
        assert!(p0.as_interval(pm.horizon()).contains(pm.horizon()));
    }

    #[test]
    fn members_at_various_instants() {
        let pm = sample_trace().presence();
        assert_eq!(pm.members_at(t(0)), vec![pid(0), pid(1)]);
        assert_eq!(pm.members_at(t(4)), vec![pid(0), pid(1), pid(2)]);
        // At t=5, p1 has left (half-open interval).
        assert_eq!(pm.members_at(t(5)), vec![pid(0), pid(2)]);
        assert_eq!(pm.members_at(t(9)), vec![pid(0), pid(3)]);
    }

    #[test]
    fn present_throughout_and_sometime() {
        let pm = sample_trace().presence();
        let window = Interval::new(t(3), t(7));
        // Throughout [3,7): p0 (always) and p2 (joined 3, crashed 8).
        assert_eq!(pm.present_throughout(&window), vec![pid(0), pid(2)]);
        // Sometime in [3,7): everyone (p1 until 5, p3 from 6).
        assert_eq!(
            pm.present_sometime(&window),
            vec![pid(0), pid(1), pid(2), pid(3)]
        );
    }

    #[test]
    #[should_panic(expected = "reused in trace")]
    fn rejoining_identity_panics() {
        let mut tr = sample_trace();
        tr.push(TraceEvent::Join {
            pid: pid(1),
            at: t(10),
        });
        tr.presence();
    }

    #[test]
    #[should_panic(expected = "crash of unknown process")]
    fn departure_before_join_panics() {
        let mut tr = Trace::new();
        tr.push(TraceEvent::Crash {
            pid: pid(4),
            at: t(0),
        });
        tr.push(TraceEvent::Join {
            pid: pid(4),
            at: t(0),
        });
        tr.presence();
    }

    #[test]
    fn max_concurrency_counts_overlap() {
        let pm = sample_trace().presence();
        // Peak: p0, p1, p2 simultaneously in [3,5).
        assert_eq!(pm.max_concurrency(), 3);
    }

    #[test]
    fn max_concurrency_with_replacement_is_tight() {
        // p0 leaves at t=2 and p1 joins at t=2: never 2 simultaneously.
        let mut tr = Trace::new();
        tr.push(TraceEvent::Join {
            pid: pid(0),
            at: t(0),
        });
        tr.push(TraceEvent::Leave {
            pid: pid(0),
            at: t(2),
        });
        tr.push(TraceEvent::Join {
            pid: pid(1),
            at: t(2),
        });
        assert_eq!(tr.presence().max_concurrency(), 1);
    }

    #[test]
    fn arrival_stats_reflect_trace() {
        let tr = sample_trace();
        let stats = tr.arrival_stats();
        assert_eq!(stats.total_arrivals, 4);
        assert_eq!(stats.joins_after_start, 2);
        assert_eq!(stats.max_concurrency, 3);
        assert!(stats.total_arrivals_finite);
    }

    #[test]
    fn churn_summary_counts_events() {
        let s = sample_trace().churn_summary();
        assert_eq!(s.joins, 2); // joins after t=0
        assert_eq!(s.leaves, 1);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.max_membership, 3);
        assert_eq!(s.observed_ticks, 10);
    }

    #[test]
    fn empty_trace_defaults() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.horizon(), Time::ZERO);
        assert_eq!(tr.presence().total_arrivals(), 0);
        assert_eq!(tr.presence().max_concurrency(), 0);
    }

    #[test]
    fn extend_appends_in_order() {
        let mut tr = Trace::new();
        tr.extend([
            TraceEvent::Join {
                pid: pid(0),
                at: t(0),
            },
            TraceEvent::Leave {
                pid: pid(0),
                at: t(1),
            },
        ]);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn open_presence_covers_query_window_at_horizon() {
        let mut tr = Trace::new();
        tr.push(TraceEvent::Join {
            pid: pid(0),
            at: t(0),
        });
        tr.push(TraceEvent::Join {
            pid: pid(1),
            at: t(2),
        });
        let pm = tr.presence();
        let window = Interval::new(t(0), t(2));
        assert_eq!(pm.present_throughout(&window), vec![pid(0)]);
        // Window reaching the horizon still includes still-present processes.
        let window = Interval::new(t(2), t(2) + TimeDelta::TICK);
        assert_eq!(pm.present_throughout(&window), vec![pid(0), pid(1)]);
    }
}
