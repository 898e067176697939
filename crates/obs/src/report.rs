//! Per-run aggregation of kernel observations.

use dds_core::run::Causality;

use crate::histogram::Histogram;
use crate::sink::{ObsEvent, Sink};

/// Aggregated observations of one run.
///
/// A `RunReport` is itself a [`Sink`], so it can be installed directly or
/// composed inside [`crate::sink::ObserverSink`]. Everything it stores is
/// bounded: two fixed-size histograms and an event counter.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// In-flight time of every delivered message, in ticks.
    pub delivery_latency: Histogram,
    /// Event-queue depth sampled at every dispatched event.
    pub queue_depth: Histogram,
    /// Total observations consumed.
    pub events: u64,
}

impl Sink for RunReport {
    fn record(&mut self, ev: &ObsEvent, _causal: Causality) {
        self.events += 1;
        match *ev {
            ObsEvent::Step { queue_depth, .. } => self.queue_depth.record(queue_depth as u64),
            ObsEvent::Deliver { latency, .. } => {
                self.delivery_latency.record(latency.as_ticks());
            }
            _ => {}
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::process::ProcessId;
    use dds_core::time::{Time, TimeDelta};

    #[test]
    fn report_tracks_latency_and_depth() {
        let (p, q, at) = (ProcessId::from_raw(0), ProcessId::from_raw(1), Time::ZERO);
        let mut r = RunReport::default();
        for ev in [
            ObsEvent::Join { pid: p, at },
            ObsEvent::Step { at, queue_depth: 4 },
            ObsEvent::Send { from: p, to: q, at },
            ObsEvent::Deliver {
                from: p,
                to: q,
                at,
                latency: TimeDelta::ticks(2),
            },
        ] {
            r.record(&ev, Causality::default());
        }
        assert_eq!(r.delivery_latency.count(), 1);
        assert_eq!(r.delivery_latency.max(), 2);
        assert_eq!(r.queue_depth.max(), 4);
        assert_eq!(r.events, 4);
    }
}
