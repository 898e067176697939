//! Property-based tests for the core model: interval algebra, presence
//! maps over random churn traces, and validity-checker invariants, with
//! the presence map and the validity checker held to brute-force
//! references.

use std::collections::{BTreeMap, BTreeSet};

use dds_core::process::ProcessId;
use dds_core::run::{PresenceInterval, PresenceMap, Trace, TraceEvent};
use dds_core::spec::aggregate::AggregateKind;
use dds_core::spec::one_time_query::{check_outcome, QueryOutcome, ValidityLevel, ValidityReport};
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

/// A membership script over shuffled identities: per process an identity
/// key, a join instant and an optional departure (`0` ticks after the
/// join included) that is a crash or a leave. Identities are the ranks
/// of the keys, so joins arrive out of identity order.
fn shuffled_script() -> impl Strategy<Value = Vec<(u64, u64, Option<u64>, bool)>> {
    proptest::collection::vec(
        (
            0u64..1_000,
            0u64..40,
            proptest::option::of(0u64..30),
            any::<bool>(),
        ),
        0..24,
    )
}

/// The trace of a shuffled script, observed `tail` ticks past its last
/// event.
fn build_shuffled_trace(script: &[(u64, u64, Option<u64>, bool)], tail: u64) -> Trace {
    let mut order: Vec<usize> = (0..script.len()).collect();
    order.sort_by_key(|&i| (script[i].0, i));
    let mut events: Vec<TraceEvent> = Vec::new();
    for (rank, &i) in order.iter().enumerate() {
        let (_, join, depart, crash) = script[i];
        let id = pid(rank as u64);
        events.push(TraceEvent::Join {
            pid: id,
            at: t(join),
        });
        if let Some(d) = depart {
            let at = t(join + d);
            events.push(if crash {
                TraceEvent::Crash { pid: id, at }
            } else {
                TraceEvent::Leave { pid: id, at }
            });
        }
    }
    // Stable: a zero-length presence keeps its join before its departure.
    events.sort_by_key(|e| e.at());
    let mut trace = Trace::new();
    trace.extend(events);
    let horizon = trace.horizon();
    trace.advance(horizon + TimeDelta::ticks(tail));
    trace
}

/// The presence records rebuilt in a `BTreeMap`, the way the map was
/// kept before it became a sorted vector.
fn reference_presence(trace: &Trace) -> BTreeMap<ProcessId, PresenceInterval> {
    let mut intervals = BTreeMap::new();
    for ev in trace.events() {
        match *ev {
            TraceEvent::Join { pid, at } => {
                let fresh = PresenceInterval {
                    joined: at,
                    departed: None,
                    crashed: false,
                };
                assert!(intervals.insert(pid, fresh).is_none());
            }
            TraceEvent::Leave { pid, at } => {
                intervals.get_mut(&pid).expect("joined").departed = Some(at);
            }
            TraceEvent::Crash { pid, at } => {
                let slot = intervals.get_mut(&pid).expect("joined");
                slot.departed = Some(at);
                slot.crashed = true;
            }
            TraceEvent::Corrupt { .. } => {}
        }
    }
    intervals
}

/// `check_outcome` as it was written over sets: `BTreeSet` differences
/// for `missed` and `phantom`, and snapshot validity by probing the whole
/// membership ([`PresenceMap::members_at`]) at the window start and at
/// every presence endpoint of an allowed process inside the window.
fn reference_check(outcome: &QueryOutcome, presence: &PresenceMap) -> ValidityReport {
    let required: BTreeSet<ProcessId> = presence
        .present_throughout(&outcome.window)
        .into_iter()
        .collect();
    let allowed: BTreeSet<ProcessId> = presence
        .present_sometime(&outcome.window)
        .into_iter()
        .collect();
    if outcome.timed_out {
        return ValidityReport {
            level: ValidityLevel::NotTerminated,
            missed: required.clone(),
            phantom: BTreeSet::new(),
            required: required.len(),
            allowed: allowed.len(),
            snapshot_valid: false,
        };
    }
    let missed: BTreeSet<ProcessId> = required
        .difference(&outcome.contributors)
        .copied()
        .collect();
    let phantom: BTreeSet<ProcessId> = outcome.contributors.difference(&allowed).copied().collect();
    let level = if !phantom.is_empty() {
        ValidityLevel::Invalid
    } else if !missed.is_empty() {
        ValidityLevel::WeaklyValid
    } else {
        ValidityLevel::IntervalValid
    };
    let snapshot_valid = phantom.is_empty() && {
        let mut candidates: BTreeSet<Time> = BTreeSet::new();
        candidates.insert(outcome.window.start());
        for p in &allowed {
            let iv = presence
                .of(*p)
                .expect("allowed processes exist")
                .as_interval(presence.horizon());
            for at in [iv.start(), iv.end()] {
                if outcome.window.contains(at) {
                    candidates.insert(at);
                }
            }
        }
        candidates.into_iter().any(|at| {
            presence
                .members_at(at)
                .iter()
                .all(|m| outcome.contributors.contains(m))
        })
    };
    ValidityReport {
        level,
        missed,
        phantom,
        required: required.len(),
        allowed: allowed.len(),
        snapshot_valid,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every presence query answers what a `BTreeMap` rebuild of the same
    /// trace answers, on traces whose joins arrive out of identity order,
    /// with crashes, leaves and zero-length presences.
    #[test]
    fn presence_map_matches_a_btreemap_rebuild(
        script in shuffled_script(), tail in 0u64..4, lo in 0u64..80, len in 0u64..30
    ) {
        let trace = build_shuffled_trace(&script, tail);
        let presence = trace.presence();
        let reference = reference_presence(&trace);
        let horizon = trace.horizon();
        let closed = |p: &PresenceInterval| p.as_interval(horizon);
        let select = |keep: &dyn Fn(&PresenceInterval) -> bool| -> Vec<ProcessId> {
            reference.iter().filter(|(_, p)| keep(p)).map(|(id, _)| *id).collect()
        };
        prop_assert_eq!(presence.total_arrivals(), reference.len());
        for raw in 0..script.len() as u64 + 2 {
            prop_assert_eq!(presence.of(pid(raw)), reference.get(&pid(raw)));
        }
        let intervals: Vec<_> = presence.intervals().collect();
        let want: Vec<_> = reference.iter().map(|(id, p)| (*id, closed(p))).collect();
        prop_assert_eq!(intervals, want);
        let mut max = 0;
        for at in 0..=horizon.as_ticks() + 2 {
            let members = presence.members_at(t(at));
            prop_assert_eq!(&members, &select(&|p| closed(p).contains(t(at))));
            max = max.max(members.len());
        }
        prop_assert_eq!(presence.max_concurrency(), max);
        let window = Interval::new(t(lo), t(lo + len));
        prop_assert_eq!(
            presence.present_throughout(&window),
            select(&|p| closed(p).covers(&window))
        );
        prop_assert_eq!(
            presence.present_sometime(&window),
            select(&|p| closed(p).overlaps(&window))
        );
    }

    /// `check_outcome` returns the reference's whole report: answered and
    /// timed-out outcomes (with and without contributors), empty and
    /// non-empty windows, contributor sets
    /// drawn from the allowed set, from everyone who ever joined, or with
    /// identities that never joined.
    #[test]
    fn check_outcome_matches_the_set_reference(
        script in shuffled_script(),
        tail in 0u64..4,
        span in (0u64..80, 0u64..30, 0u8..6),
        pick in (0u8..3, 0u8..3, any::<u64>(), any::<u64>()),
        timed_out in 0u8..6,
    ) {
        let trace = build_shuffled_trace(&script, tail);
        let presence = trace.presence();
        // Half the windows open at a join, where a sweep's boundary
        // cases sit, and a third are empty.
        let (lo, len, shape) = span;
        let lo = match script.get(lo as usize % script.len().max(1)) {
            Some(&(_, join, _, _)) if shape % 2 == 0 => join,
            _ => lo,
        };
        let len = if shape < 2 { 0 } else { len };
        let window = Interval::new(t(lo), t(lo + len));
        let (mode, density, mask, more) = pick;
        let pool: Vec<ProcessId> = match mode {
            // Drawn from the allowed set only: no phantom.
            0 => presence.present_sometime(&window),
            // Anyone who ever joined: phantoms that left before the window
            // or joined after it.
            1 => presence.intervals().map(|(id, _)| id).collect(),
            // Plus identities that never joined.
            _ => (0..script.len() as u64 + 3).map(pid).collect(),
        };
        // Each of the pool is kept with probability 1/4, 1/2 or 3/4.
        let keep = match density {
            0 => mask & more,
            1 => mask,
            _ => mask | more,
        };
        let contributors: BTreeSet<ProcessId> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| keep >> (i % 64) & 1 == 1)
            .map(|(_, id)| *id)
            .collect();
        let initiator = pid(0);
        let outcome = match timed_out {
            0 => QueryOutcome::timed_out(initiator, window, AggregateKind::Count),
            _ => {
                let value = contributors.len() as f64;
                QueryOutcome {
                    // A timed-out outcome that still names contributors.
                    timed_out: timed_out == 1,
                    ..QueryOutcome::answered(initiator, window, AggregateKind::Count, contributors, value)
                }
            }
        };
        prop_assert_eq!(check_outcome(&outcome, &presence), reference_check(&outcome, &presence));
    }
}
