//! Property-based tests for the core model: interval algebra, presence
//! maps over random churn traces, and validity-checker invariants.

use std::collections::BTreeSet;

use dds_core::process::ProcessId;
use dds_core::run::{Trace, TraceEvent};
use dds_core::spec::aggregate::AggregateKind;
use dds_core::spec::one_time_query::{check_outcome, QueryOutcome, ValidityLevel};
use dds_core::time::{Interval, Time, TimeDelta};
use proptest::prelude::*;

fn pid(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

fn t(n: u64) -> Time {
    Time::from_ticks(n)
}

/// A random membership script: each process gets a join time and an
/// optional later departure (leave or crash).
fn membership_strategy() -> impl Strategy<Value = Vec<(u64, Option<u64>, bool)>> {
    proptest::collection::vec(
        (0u64..50, proptest::option::of(1u64..50), any::<bool>()),
        1..20,
    )
}

fn build_trace(script: &[(u64, Option<u64>, bool)]) -> Trace {
    // Convert the script to time-sorted events.
    let mut events: Vec<TraceEvent> = Vec::new();
    for (i, &(join, depart, crash)) in script.iter().enumerate() {
        let id = pid(i as u64);
        events.push(TraceEvent::Join {
            pid: id,
            at: t(join),
        });
        if let Some(d) = depart {
            let at = t(join + d);
            if crash {
                events.push(TraceEvent::Crash { pid: id, at });
            } else {
                events.push(TraceEvent::Leave { pid: id, at });
            }
        }
    }
    events.sort_by_key(|e| e.at());
    let mut trace = Trace::new();
    trace.extend(events);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interval cover implies overlap (on non-empty intervals); overlap is
    /// symmetric.
    #[test]
    fn interval_algebra(a in 0u64..100, b in 0u64..100, c in 0u64..100, d in 0u64..100) {
        let i1 = Interval::new(t(a.min(b)), t(a.max(b)));
        let i2 = Interval::new(t(c.min(d)), t(c.max(d)));
        prop_assert_eq!(i1.overlaps(&i2), i2.overlaps(&i1));
        if i1.covers(&i2) && !i2.is_empty() {
            prop_assert!(i1.overlaps(&i2), "cover of non-empty must overlap");
        }
        for probe in [a, b, c, d] {
            if i1.contains(t(probe)) {
                prop_assert!(!i1.is_empty());
            }
        }
    }

    /// present_throughout ⊆ present_sometime, and membership at any single
    /// instant of the window sits between them.
    #[test]
    fn presence_set_inclusions(
        script in membership_strategy(), lo in 0u64..60, len in 1u64..30
    ) {
        let trace = build_trace(&script);
        let presence = trace.presence();
        let window = Interval::new(t(lo), t(lo + len));
        let throughout: BTreeSet<_> =
            presence.present_throughout(&window).into_iter().collect();
        let sometime: BTreeSet<_> =
            presence.present_sometime(&window).into_iter().collect();
        prop_assert!(throughout.is_subset(&sometime));
        for probe in [lo, lo + len / 2, lo + len - 1] {
            let at: BTreeSet<_> = presence.members_at(t(probe)).into_iter().collect();
            prop_assert!(throughout.is_subset(&at), "throughout ⊄ members_at({probe})");
            prop_assert!(at.is_subset(&sometime), "members_at({probe}) ⊄ sometime");
        }
    }

    /// Max concurrency dominates the membership at every instant and is
    /// attained somewhere.
    #[test]
    fn max_concurrency_is_tight(script in membership_strategy()) {
        let trace = build_trace(&script);
        let presence = trace.presence();
        let horizon = trace.horizon().as_ticks();
        let max = presence.max_concurrency();
        let mut attained = 0usize;
        for instant in 0..=horizon {
            let m = presence.members_at(t(instant)).len();
            prop_assert!(m <= max, "membership {m} at {instant} exceeds max {max}");
            attained = attained.max(m);
        }
        prop_assert_eq!(attained, max, "max concurrency never attained");
    }

    /// Reporting exactly the required set is always interval-valid;
    /// reporting a process that never overlapped the window never is.
    #[test]
    fn checker_is_consistent(
        script in membership_strategy(), lo in 0u64..60, len in 1u64..30
    ) {
        let trace = build_trace(&script);
        let presence = trace.presence();
        let window = Interval::new(t(lo), t(lo + len));
        let required: BTreeSet<_> =
            presence.present_throughout(&window).into_iter().collect();
        let initiator = pid(0);

        let exact = QueryOutcome::answered(
            initiator,
            window,
            AggregateKind::Count,
            required.clone(),
            required.len() as f64,
        );
        let report = check_outcome(&exact, &presence);
        prop_assert_eq!(report.level, ValidityLevel::IntervalValid);
        prop_assert_eq!(report.coverage(), 1.0);

        // A phantom contributor (never joined at all) always invalidates.
        let mut with_phantom = required.clone();
        with_phantom.insert(pid(9_999));
        let bogus = QueryOutcome::answered(
            initiator,
            window,
            AggregateKind::Count,
            with_phantom,
            0.0,
        );
        prop_assert_eq!(check_outcome(&bogus, &presence).level, ValidityLevel::Invalid);
    }

    /// Dropping one required contributor demotes the verdict to weakly
    /// valid, never to invalid.
    #[test]
    fn missing_required_is_weak(
        script in membership_strategy(), lo in 0u64..60, len in 1u64..30
    ) {
        let trace = build_trace(&script);
        let presence = trace.presence();
        let window = Interval::new(t(lo), t(lo + len));
        let mut required: BTreeSet<_> =
            presence.present_throughout(&window).into_iter().collect();
        if required.is_empty() {
            return Ok(());
        }
        let dropped = *required.iter().next().expect("nonempty");
        required.remove(&dropped);
        let partial = QueryOutcome::answered(
            pid(0),
            window,
            AggregateKind::Count,
            required,
            0.0,
        );
        let report = check_outcome(&partial, &presence);
        prop_assert_eq!(report.level, ValidityLevel::WeaklyValid);
        prop_assert!(report.missed.contains(&dropped));
    }

    /// Churn summaries balance: total arrivals = current + departed.
    #[test]
    fn churn_summary_balances(script in membership_strategy()) {
        let trace = build_trace(&script);
        let presence = trace.presence();
        let summary = trace.churn_summary();
        let now_present = presence.members_at(trace.horizon()).len();
        prop_assert_eq!(
            presence.total_arrivals(),
            now_present + summary.departures()
        );
    }

    /// The PRNG's `below` is uniform enough: every residue class of a
    /// small modulus is hit.
    #[test]
    fn rng_below_hits_all_classes(seed in 0u64..1_000, modulus in 2u64..8) {
        let mut rng = dds_core::rng::Rng::seeded(seed);
        let mut seen = BTreeSet::new();
        for _ in 0..64 * modulus {
            seen.insert(rng.below(modulus));
        }
        prop_assert_eq!(seen.len() as u64, modulus);
    }

    /// Snapshot validity implies interval validity (never the converse).
    #[test]
    fn snapshot_implies_interval(
        script in membership_strategy(), lo in 0u64..60, len in 1u64..30, take in 0usize..20
    ) {
        let trace = build_trace(&script);
        let presence = trace.presence();
        let window = Interval::new(t(lo), t(lo + len));
        // Candidate contributor sets: prefixes of the allowed set.
        let allowed: Vec<ProcessId> = presence.present_sometime(&window);
        let contributors: BTreeSet<ProcessId> =
            allowed.iter().copied().take(take.min(allowed.len())).collect();
        let outcome = QueryOutcome::answered(
            pid(0),
            window,
            AggregateKind::Count,
            contributors,
            0.0,
        );
        let report = check_outcome(&outcome, &presence);
        if report.snapshot_valid {
            prop_assert_eq!(report.level, ValidityLevel::IntervalValid);
        }
    }

    /// Interval arithmetic: len is end − start and saturating_since agrees.
    #[test]
    fn interval_lengths(a in 0u64..1_000, len in 0u64..1_000) {
        let i = Interval::new(t(a), t(a + len));
        prop_assert_eq!(i.len(), TimeDelta::ticks(len));
        prop_assert_eq!(i.end().saturating_since(i.start()), TimeDelta::ticks(len));
        prop_assert_eq!(i.is_empty(), len == 0);
    }
}
