//! Property test: `RunReport`'s identity-indexed send counters against a
//! `BTreeMap` fold of the same observation stream.
//!
//! The report counts sends in a table indexed by raw identity; the map
//! below is the representation it replaced. Any stream must give the
//! same per-process counts and the same `message_complexity()` histogram
//! (which covers the processes that sent at all, not every table slot).

use std::collections::BTreeMap;

use dds_core::process::ProcessId;
use dds_core::run::Causality;
use dds_core::time::Time;
use dds_obs::{Histogram, ObsEvent, RunReport, Sink};
use proptest::prelude::*;

fn pid(n: u64) -> ProcessId {
    ProcessId::from_raw(n)
}

/// Mostly sends from a dense range, some from far up the id space, and
/// other observations that must not count.
fn event() -> impl Strategy<Value = ObsEvent> {
    let at = Time::from_ticks(3);
    prop_oneof![
        (0u64..12, 0u64..12).prop_map(move |(f, t)| ObsEvent::Send {
            from: pid(f),
            to: pid(t),
            at
        }),
        (0u64..12, 0u64..12).prop_map(move |(f, t)| ObsEvent::Send {
            from: pid(f),
            to: pid(t),
            at
        }),
        (200u64..260, 0u64..12).prop_map(move |(f, t)| ObsEvent::Send {
            from: pid(f),
            to: pid(t),
            at
        }),
        (0u64..12, 0u64..12).prop_map(move |(f, t)| ObsEvent::Drop {
            from: pid(f),
            to: pid(t),
            at
        }),
        (0u64..300).prop_map(move |p| ObsEvent::Join { pid: pid(p), at }),
        (0u64..12).prop_map(move |p| ObsEvent::TimerFire { pid: pid(p), at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_counters_equal_a_map_fold(events in proptest::collection::vec(event(), 0..300)) {
        let mut report = RunReport::default();
        let mut fold: BTreeMap<ProcessId, u64> = BTreeMap::new();
        for ev in &events {
            report.record(ev, Causality::default());
            if let ObsEvent::Send { from, .. } = ev {
                *fold.entry(*from).or_insert(0) += 1;
            }
        }
        for raw in 0..320 {
            prop_assert_eq!(report.sends_of(pid(raw)), fold.get(&pid(raw)).copied().unwrap_or(0));
        }
        let mut want = Histogram::new();
        for &sends in fold.values() {
            want.record(sends);
        }
        prop_assert!(report.message_complexity() == want, "histograms differ");
        prop_assert_eq!(report.events, events.len() as u64);
    }
}
