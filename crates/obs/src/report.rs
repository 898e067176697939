//! Per-run aggregation of kernel observations.

use std::collections::BTreeMap;

use dds_core::process::ProcessId;
use dds_core::run::Causality;
use dds_core::time::Time;

use crate::histogram::Histogram;
use crate::sink::{ObsEvent, Sink};

/// Cap on the membership timeline so adversarial churn cannot make the
/// report unbounded; past the cap only the counter keeps moving.
const MEMBERSHIP_SAMPLES: usize = 1024;

/// Aggregated observations of one run.
///
/// A `RunReport` is itself a [`Sink`], so it can be installed directly or
/// composed inside [`crate::sink::ObserverSink`]. Everything it stores is
/// bounded: two fixed-size histograms, a capped membership timeline, and
/// one counter per identity up to the largest that ever sent a message.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// In-flight time of every delivered message, in ticks.
    pub delivery_latency: Histogram,
    /// Event-queue depth sampled at every dispatched event.
    pub queue_depth: Histogram,
    /// `(instant, membership size)` samples, one per membership change,
    /// truncated at a fixed cap (see [`RunReport::membership_truncated`]).
    pub membership: Vec<(Time, usize)>,
    /// `true` when the membership timeline hit its cap and stopped
    /// sampling (the histograms and counters keep going).
    pub membership_truncated: bool,
    /// Durations of closed spans, bucketed per span name.
    pub span_durations: BTreeMap<&'static str, Histogram>,
    /// Total observations consumed.
    pub events: u64,
    current_members: usize,
    /// Messages sent per process, indexed by raw identity (identities are
    /// dense within a run, see DESIGN.md §9): a send is one indexed
    /// increment on the kernel's dispatch path.
    sends: Vec<u64>,
    open_spans: BTreeMap<(&'static str, ProcessId), Time>,
}

impl RunReport {
    /// Current membership according to the join/leave/crash observations.
    pub fn current_membership(&self) -> usize {
        self.current_members
    }

    /// Largest membership on the (possibly truncated) timeline.
    pub fn peak_membership(&self) -> usize {
        self.membership.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    /// Messages `pid` sent — its share of the run's message complexity.
    pub fn sends_of(&self, pid: ProcessId) -> u64 {
        self.sends.get(pid.as_raw() as usize).copied().unwrap_or(0)
    }

    /// Histogram of per-process send counts over the processes that sent
    /// at all — the distribution of message complexity across processes
    /// (computed on demand).
    pub fn message_complexity(&self) -> Histogram {
        let mut h = Histogram::new();
        for &sends in self.sends.iter().filter(|&&n| n > 0) {
            h.record(sends);
        }
        h
    }

    fn membership_changed(&mut self, at: Time, delta: i64) {
        self.current_members = (self.current_members as i64 + delta).max(0) as usize;
        if self.membership.len() < MEMBERSHIP_SAMPLES {
            self.membership.push((at, self.current_members));
        } else {
            self.membership_truncated = true;
        }
    }

    /// One-line human summary of the headline percentiles.
    pub fn summary(&self) -> String {
        format!(
            "latency[{}] depth[{}] peak membership {} over {} events",
            self.delivery_latency,
            self.queue_depth,
            self.peak_membership(),
            self.events
        )
    }
}

impl Sink for RunReport {
    fn record(&mut self, ev: &ObsEvent, _causal: Causality) {
        self.events += 1;
        match *ev {
            ObsEvent::Step { queue_depth, .. } => {
                self.queue_depth.record(queue_depth as u64);
            }
            ObsEvent::Join { at, .. } => self.membership_changed(at, 1),
            ObsEvent::Leave { at, .. } | ObsEvent::Crash { at, .. } => {
                self.membership_changed(at, -1)
            }
            ObsEvent::Send { from, .. } => {
                let i = from.as_raw() as usize;
                if i >= self.sends.len() {
                    self.sends.resize(i + 1, 0);
                }
                self.sends[i] += 1;
            }
            ObsEvent::Deliver { latency, .. } => {
                self.delivery_latency.record(latency.as_ticks());
            }
            ObsEvent::Drop { .. } | ObsEvent::Corrupt { .. } | ObsEvent::TimerFire { .. } => {}
            ObsEvent::SpanStart { name, pid, at } => {
                self.open_spans.insert((name, pid), at);
            }
            ObsEvent::SpanEnd { name, pid, at } => {
                if let Some(start) = self.open_spans.remove(&(name, pid)) {
                    self.span_durations
                        .entry(name)
                        .or_default()
                        .record(at.saturating_since(start).as_ticks());
                }
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::time::TimeDelta;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    #[test]
    fn report_tracks_latency_depth_and_membership() {
        let mut r = RunReport::default();
        r.record(&ObsEvent::Join { pid: pid(0), at: t(0) }, Causality::default());
        r.record(&ObsEvent::Join { pid: pid(1), at: t(0) }, Causality::default());
        r.record(&ObsEvent::Step { at: t(1), queue_depth: 4 }, Causality::default());
        r.record(&ObsEvent::Send { from: pid(0), to: pid(1), at: t(1) }, Causality::default());
        r.record(&ObsEvent::Deliver {
            from: pid(0),
            to: pid(1),
            at: t(3),
            latency: TimeDelta::ticks(2),
        }, Causality::default());
        r.record(&ObsEvent::Crash { pid: pid(1), at: t(4) }, Causality::default());
        assert_eq!(r.delivery_latency.count(), 1);
        assert_eq!(r.delivery_latency.max(), 2);
        assert_eq!(r.queue_depth.max(), 4);
        assert_eq!(r.peak_membership(), 2);
        assert_eq!(r.current_membership(), 1);
        assert_eq!((r.sends_of(pid(0)), r.sends_of(pid(1)), r.sends_of(pid(77))), (1, 0, 0));
        assert_eq!(r.events, 6);
        assert!(r.summary().contains("peak membership 2"));
    }

    #[test]
    fn spans_measure_durations_per_name() {
        let mut r = RunReport::default();
        r.record(&ObsEvent::SpanStart { name: "query", pid: pid(0), at: t(1) }, Causality::default());
        r.record(&ObsEvent::SpanEnd { name: "query", pid: pid(0), at: t(8) }, Causality::default());
        // Unmatched end is ignored.
        r.record(&ObsEvent::SpanEnd { name: "query", pid: pid(0), at: t(9) }, Causality::default());
        assert_eq!(r.span_durations["query"].count(), 1);
        assert_eq!(r.span_durations["query"].max(), 7);
    }

    #[test]
    fn membership_timeline_is_bounded() {
        let mut r = RunReport::default();
        for i in 0..(MEMBERSHIP_SAMPLES as u64 + 10) {
            r.record(&ObsEvent::Join { pid: pid(i), at: t(i) }, Causality::default());
        }
        assert_eq!(r.membership.len(), MEMBERSHIP_SAMPLES);
        assert!(r.membership_truncated);
        // The live counter keeps moving past the cap.
        assert_eq!(r.current_membership(), MEMBERSHIP_SAMPLES + 10);
    }

    #[test]
    fn message_complexity_distribution() {
        let mut r = RunReport::default();
        for _ in 0..3 {
            r.record(&ObsEvent::Send { from: pid(0), to: pid(1), at: t(0) }, Causality::default());
        }
        r.record(&ObsEvent::Send { from: pid(1), to: pid(0), at: t(0) }, Causality::default());
        let h = r.message_complexity();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 3);
        assert_eq!(h.min(), 1);
    }
}
