//! Specification of the **one-time query** (OTQ), the paper's canonical
//! problem.
//!
//! A process `q` issues, once, a query for an aggregate over the values held
//! by the processes *currently in the system*. "Currently" is where all the
//! subtlety lives: membership changes while the query is in flight. The
//! specification (after Bawa et al., which the paper follows) fixes the
//! query interval `I = [t_b, t_e)` — from issuance to response — and asks
//! for:
//!
//! - **Termination**: the query returns at `q`.
//! - **Interval validity**: the returned aggregate reflects the value of
//!   *every* process present throughout `I`, and *only* values of processes
//!   present at some instant of `I`.
//!
//! The checker ([`check_outcome`]) classifies an outcome into a
//! [`ValidityLevel`] given the run's [`PresenceMap`]: interval-valid,
//! weakly valid (sound but incomplete), or invalid (reported a value from a
//! process never present during `I`). Non-termination is represented by
//! [`QueryOutcome::timed_out`].

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::process::ProcessId;
use crate::run::PresenceMap;
use crate::spec::aggregate::AggregateKind;
use crate::time::{Interval, TimeDelta};

/// What a protocol reports when a one-time query finishes (or is abandoned).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// The querying process.
    pub initiator: ProcessId,
    /// The query interval `[issue, response)`.
    pub window: Interval,
    /// The aggregate that was computed.
    pub aggregate: AggregateKind,
    /// The processes whose values were folded into the answer.
    pub contributors: BTreeSet<ProcessId>,
    /// The numeric answer.
    pub value: f64,
    /// `true` when the protocol never produced an answer and the run was cut
    /// off (termination violation).
    pub timed_out: bool,
}

impl QueryOutcome {
    /// Builds a terminated outcome.
    pub fn answered(
        initiator: ProcessId,
        window: Interval,
        aggregate: AggregateKind,
        contributors: BTreeSet<ProcessId>,
        value: f64,
    ) -> Self {
        QueryOutcome {
            initiator,
            window,
            aggregate,
            contributors,
            value,
            timed_out: false,
        }
    }

    /// Builds a non-terminated outcome (the query never returned).
    pub fn timed_out(initiator: ProcessId, window: Interval, aggregate: AggregateKind) -> Self {
        QueryOutcome {
            initiator,
            window,
            aggregate,
            contributors: BTreeSet::new(),
            value: f64::NAN,
            timed_out: true,
        }
    }
}

impl fmt::Display for QueryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.timed_out {
            write!(
                f,
                "query by {} over {}: did not terminate",
                self.initiator, self.window
            )
        } else {
            write!(
                f,
                "query by {} over {}: {} = {} from {} contributors",
                self.initiator,
                self.window,
                self.aggregate,
                self.value,
                self.contributors.len()
            )
        }
    }
}

/// Validity classification of a query outcome, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ValidityLevel {
    /// Terminated; includes everyone present throughout the window and
    /// nobody absent from it: the full specification.
    IntervalValid,
    /// Terminated; every contributor was present at some instant of the
    /// window, but some process present throughout was missed.
    WeaklyValid,
    /// Terminated, but some contributor was never present during the window
    /// (e.g. a stale value from a long-departed process).
    Invalid,
    /// The query never terminated.
    NotTerminated,
}

impl ValidityLevel {
    /// `true` for outcomes that satisfy the full specification.
    pub const fn is_interval_valid(&self) -> bool {
        matches!(self, ValidityLevel::IntervalValid)
    }

    /// `true` for outcomes that are at least sound (no phantom
    /// contributors) and terminated.
    pub const fn is_sound(&self) -> bool {
        matches!(
            self,
            ValidityLevel::IntervalValid | ValidityLevel::WeaklyValid
        )
    }
}

impl fmt::Display for ValidityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValidityLevel::IntervalValid => "interval-valid",
            ValidityLevel::WeaklyValid => "weakly valid",
            ValidityLevel::Invalid => "invalid",
            ValidityLevel::NotTerminated => "not terminated",
        };
        f.write_str(s)
    }
}

/// Full report of a validity check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidityReport {
    /// The classification.
    pub level: ValidityLevel,
    /// Processes present throughout the window but missing from the answer.
    pub missed: BTreeSet<ProcessId>,
    /// Contributors never present during the window.
    pub phantom: BTreeSet<ProcessId>,
    /// Size of the required set (present throughout).
    pub required: usize,
    /// Size of the allowed set (present sometime).
    pub allowed: usize,
    /// **Snapshot validity** (Bawa et al.): there is an instant of the
    /// window at which the contributor set contains *every* member, and no
    /// contributor is a phantom. Strictly stronger than interval validity
    /// (the membership at any instant contains everyone present
    /// throughout).
    pub snapshot_valid: bool,
}

impl ValidityReport {
    /// Fraction of the required processes that were actually included, in
    /// `[0, 1]`; `1.0` when nothing was required.
    pub fn coverage(&self) -> f64 {
        if self.required == 0 {
            1.0
        } else {
            (self.required - self.missed.len()) as f64 / self.required as f64
        }
    }
}

impl fmt::Display for ValidityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (coverage {:.0}%, {} missed, {} phantom)",
            self.level,
            self.coverage() * 100.0,
            self.missed.len(),
            self.phantom.len()
        )
    }
}

/// Checks a query outcome against the presence information of its run.
///
/// One merge pass walks the presence intervals and the contributor set,
/// both in identity order: it counts the required set (present
/// throughout the window) and the allowed set (present at some instant of
/// it), and collects `missed`, `phantom` and the presence intervals of
/// the non-contributors present in the window. Snapshot validity is then
/// a sweep over those intervals sorted by start: it holds when they leave
/// some instant of the window uncovered (an empty window is probed at its
/// start). The whole check is O(n + c + k log k) for `n` processes that
/// ever joined, `c` contributors and `k` non-contributors in the window.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use dds_core::process::ProcessId;
/// use dds_core::run::{Trace, TraceEvent};
/// use dds_core::spec::aggregate::AggregateKind;
/// use dds_core::spec::one_time_query::{check_outcome, QueryOutcome, ValidityLevel};
/// use dds_core::time::{Interval, Time};
///
/// let mut trace = Trace::new();
/// let p = ProcessId::from_raw(0);
/// trace.push(TraceEvent::Join { pid: p, at: Time::ZERO });
/// let window = Interval::new(Time::ZERO, Time::from_ticks(1));
/// let outcome = QueryOutcome::answered(
///     p, window, AggregateKind::Count, BTreeSet::from([p]), 1.0,
/// );
/// let report = check_outcome(&outcome, &trace.presence());
/// assert_eq!(report.level, ValidityLevel::IntervalValid);
/// ```
pub fn check_outcome(outcome: &QueryOutcome, presence: &PresenceMap) -> ValidityReport {
    let window = outcome.window;
    // The instants snapshot validity may pick: the window's own, or the
    // start of an empty window.
    let probed = if window.is_empty() {
        Interval::new(window.start(), window.start() + TimeDelta::TICK)
    } else {
        window
    };
    // A query that never answered contributed nothing.
    let nobody = BTreeSet::new();
    let contributors = if outcome.timed_out {
        &nobody
    } else {
        &outcome.contributors
    };
    let mut unmatched = contributors.iter().copied().peekable();
    let (mut required, mut allowed) = (0, 0);
    let (mut missed, mut phantom) = (BTreeSet::new(), BTreeSet::new());
    // The presence of every non-contributor present at a probed instant.
    let mut others: Vec<Interval> = Vec::new();
    for (pid, iv) in presence.intervals() {
        // Contributors ordered before `pid` never joined.
        while let Some(never) = unmatched.next_if(|&c| c < pid) {
            phantom.insert(never);
        }
        let contributed = unmatched.next_if_eq(&pid).is_some();
        if iv.covers(&window) {
            required += 1;
            if !contributed {
                missed.insert(pid);
            }
        }
        if iv.overlaps(&window) {
            allowed += 1;
        } else if contributed {
            phantom.insert(pid);
        }
        if !contributed && iv.overlaps(&probed) {
            others.push(iv);
        }
    }
    phantom.extend(unmatched);

    let level = if outcome.timed_out {
        ValidityLevel::NotTerminated
    } else if !phantom.is_empty() {
        ValidityLevel::Invalid
    } else if !missed.is_empty() {
        ValidityLevel::WeaklyValid
    } else {
        ValidityLevel::IntervalValid
    };
    let snapshot_valid =
        !outcome.timed_out && phantom.is_empty() && has_quiet_instant(probed, &mut others);

    ValidityReport {
        level,
        missed,
        phantom,
        required,
        allowed,
        snapshot_valid,
    }
}

/// `true` when the presence intervals of the non-contributors, `others`,
/// leave some instant of `probed` uncovered: an instant whose whole
/// membership contributed.
///
/// Sorted by start, the intervals are one pass: `reach` is the first
/// instant not yet known to be covered, and an interval starting after it
/// leaves it uncovered for good.
fn has_quiet_instant(probed: Interval, others: &mut [Interval]) -> bool {
    others.sort_unstable_by_key(|iv| iv.start());
    let mut reach = probed.start();
    for iv in others.iter() {
        if iv.start() > reach {
            break;
        }
        reach = reach.max(iv.end());
    }
    reach < probed.end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Trace, TraceEvent};
    use crate::time::Time;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    /// p0 present throughout, p1 leaves mid-window, p2 joins mid-window,
    /// p3 departed before the window.
    fn trace() -> Trace {
        let mut tr = Trace::new();
        tr.push(TraceEvent::Join {
            pid: pid(3),
            at: t(0),
        });
        tr.push(TraceEvent::Join {
            pid: pid(0),
            at: t(0),
        });
        tr.push(TraceEvent::Join {
            pid: pid(1),
            at: t(0),
        });
        tr.push(TraceEvent::Leave {
            pid: pid(3),
            at: t(2),
        });
        tr.push(TraceEvent::Leave {
            pid: pid(1),
            at: t(6),
        });
        tr.push(TraceEvent::Join {
            pid: pid(2),
            at: t(7),
        });
        tr.push(TraceEvent::Join {
            pid: pid(9),
            at: t(20),
        });
        tr
    }

    fn window() -> Interval {
        Interval::new(t(4), t(10))
    }

    fn outcome(contributors: &[u64]) -> QueryOutcome {
        QueryOutcome::answered(
            pid(0),
            window(),
            AggregateKind::Count,
            contributors.iter().map(|&n| pid(n)).collect(),
            contributors.len() as f64,
        )
    }

    #[test]
    fn interval_valid_when_exactly_required() {
        let report = check_outcome(&outcome(&[0]), &trace().presence());
        assert_eq!(report.level, ValidityLevel::IntervalValid);
        assert_eq!(report.coverage(), 1.0);
        assert!(report.level.is_interval_valid());
    }

    #[test]
    fn still_valid_with_allowed_extras() {
        // p1 and p2 overlap the window, so including them is allowed.
        let report = check_outcome(&outcome(&[0, 1, 2]), &trace().presence());
        assert_eq!(report.level, ValidityLevel::IntervalValid);
        assert!(report.phantom.is_empty());
    }

    #[test]
    fn weakly_valid_when_required_missed() {
        // Window is [4,10); required set is {p0}; report only p1.
        let report = check_outcome(&outcome(&[1]), &trace().presence());
        assert_eq!(report.level, ValidityLevel::WeaklyValid);
        assert_eq!(report.missed.len(), 1);
        assert!(report.missed.contains(&pid(0)));
        assert!(report.level.is_sound());
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn invalid_when_phantom_contributor() {
        // p3 left at t=2, before the window opens at t=4.
        let report = check_outcome(&outcome(&[0, 3]), &trace().presence());
        assert_eq!(report.level, ValidityLevel::Invalid);
        assert!(report.phantom.contains(&pid(3)));
        assert!(!report.level.is_sound());
    }

    #[test]
    fn future_process_is_phantom() {
        // p9 joins at t=20, after the window closes.
        let report = check_outcome(&outcome(&[0, 9]), &trace().presence());
        assert_eq!(report.level, ValidityLevel::Invalid);
        assert!(report.phantom.contains(&pid(9)));
    }

    #[test]
    fn timeout_is_not_terminated() {
        let out = QueryOutcome::timed_out(pid(0), window(), AggregateKind::Sum);
        let report = check_outcome(&out, &trace().presence());
        assert_eq!(report.level, ValidityLevel::NotTerminated);
        assert_eq!(report.missed.len(), 1);
    }

    #[test]
    fn snapshot_validity_implies_interval_validity() {
        // Reporting everyone sometime-present is snapshot-valid (any
        // instant works) and interval-valid.
        let all = outcome(&[0, 1, 2]);
        let report = check_outcome(&all, &trace().presence());
        assert!(report.snapshot_valid);
        assert_eq!(report.level, ValidityLevel::IntervalValid);
        // A weakly valid outcome is never snapshot-valid: {p1} covers the
        // membership at no instant of [4, 10) ({p0,p1}, {p0}, {p0,p2}).
        let weak = outcome(&[1]);
        let report = check_outcome(&weak, &trace().presence());
        assert_eq!(report.level, ValidityLevel::WeaklyValid);
        assert!(!report.snapshot_valid);
    }

    #[test]
    fn snapshot_validity_found_at_interior_instant() {
        // {p0} does not cover the membership at the window start ({p0,p1})
        // but does at t = 6, after p1 left and before p2 joined.
        let report = check_outcome(&outcome(&[0]), &trace().presence());
        assert_eq!(report.level, ValidityLevel::IntervalValid);
        assert!(report.snapshot_valid, "t=6 is a quiet instant");
    }

    #[test]
    fn phantom_kills_snapshot_validity() {
        // p3 departed before the window: phantom, so never snapshot-valid
        // even though the contributor set covers the t=6 membership.
        let report = check_outcome(&outcome(&[0, 3]), &trace().presence());
        assert_eq!(report.level, ValidityLevel::Invalid);
        assert!(!report.snapshot_valid);
    }

    #[test]
    fn validity_levels_are_ordered() {
        assert!(ValidityLevel::IntervalValid < ValidityLevel::WeaklyValid);
        assert!(ValidityLevel::WeaklyValid < ValidityLevel::Invalid);
        assert!(ValidityLevel::Invalid < ValidityLevel::NotTerminated);
    }

    #[test]
    fn report_display_mentions_level_and_coverage() {
        let report = check_outcome(&outcome(&[0]), &trace().presence());
        let s = report.to_string();
        assert!(s.contains("interval-valid"));
        assert!(s.contains("100%"));
    }

    #[test]
    fn outcome_display() {
        assert!(outcome(&[0]).to_string().contains("count"));
        let timed = QueryOutcome::timed_out(pid(0), window(), AggregateKind::Sum);
        assert!(timed.to_string().contains("did not terminate"));
    }
}
