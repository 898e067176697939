//! The sink interface between the kernel and the observability layer.
//!
//! The kernel (`dds-sim`'s `World`) optionally owns one boxed [`Sink`] and
//! feeds it one [`ObsEvent`] per observable kernel action. With no sink
//! installed the dispatch loop pays a single branch per event and performs
//! no allocation — the default configuration is zero-cost (pinned by the
//! `noop_alloc` regression test in `dds-sim`).

use std::any::Any;

use dds_core::process::ProcessId;
use dds_core::run::Causality;
use dds_core::time::{Time, TimeDelta};

/// One observation emitted by the kernel's dispatch loop.
///
/// All fields are plain integers/ids: observations are `Copy`, carry no
/// message payloads, and serialize to byte-stable JSONL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// One event was popped from the queue; `queue_depth` is the number of
    /// events still pending at that instant.
    Step {
        /// Dispatch instant.
        at: Time,
        /// Queue length right after the pop.
        queue_depth: usize,
    },
    /// A process entered the system.
    Join {
        /// The entity.
        pid: ProcessId,
        /// When.
        at: Time,
    },
    /// A process left gracefully.
    Leave {
        /// The entity.
        pid: ProcessId,
        /// When.
        at: Time,
    },
    /// A process crashed.
    Crash {
        /// The entity.
        pid: ProcessId,
        /// When.
        at: Time,
    },
    /// A message was handed to the network.
    Send {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Send instant.
        at: Time,
    },
    /// A message reached a live destination.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Delivery instant.
        at: Time,
        /// Time spent in flight (delivery minus send instant).
        latency: TimeDelta,
    },
    /// A message was dropped (loss, or destination departed first).
    Drop {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Drop instant.
        at: Time,
    },
    /// A process's state was transiently corrupted in place by the
    /// corruption adversary (the process keeps running from an arbitrary
    /// state — the self-stabilization fault model).
    Corrupt {
        /// The corrupted entity.
        pid: ProcessId,
        /// When.
        at: Time,
    },
    /// A timer fired at a live owner.
    TimerFire {
        /// Timer owner.
        pid: ProcessId,
        /// When.
        at: Time,
    },
    /// A named span (protocol round/phase) opened. Spans are emitted by
    /// harnesses via `World::observe`, not by the kernel itself.
    SpanStart {
        /// Static span label, e.g. a protocol or phase name.
        name: &'static str,
        /// The process the span is attributed to.
        pid: ProcessId,
        /// Open instant.
        at: Time,
    },
    /// A named span closed.
    SpanEnd {
        /// Static span label matching the corresponding start.
        name: &'static str,
        /// The process the span is attributed to.
        pid: ProcessId,
        /// Close instant.
        at: Time,
    },
}

impl ObsEvent {
    /// The instant of the observation.
    pub const fn at(&self) -> Time {
        match self {
            ObsEvent::Step { at, .. }
            | ObsEvent::Join { at, .. }
            | ObsEvent::Leave { at, .. }
            | ObsEvent::Crash { at, .. }
            | ObsEvent::Send { at, .. }
            | ObsEvent::Deliver { at, .. }
            | ObsEvent::Drop { at, .. }
            | ObsEvent::Corrupt { at, .. }
            | ObsEvent::TimerFire { at, .. }
            | ObsEvent::SpanStart { at, .. }
            | ObsEvent::SpanEnd { at, .. } => *at,
        }
    }

    /// Short kind tag used by the JSONL exporter.
    pub const fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Step { .. } => "step",
            ObsEvent::Join { .. } => "join",
            ObsEvent::Leave { .. } => "leave",
            ObsEvent::Crash { .. } => "crash",
            ObsEvent::Send { .. } => "send",
            ObsEvent::Deliver { .. } => "deliver",
            ObsEvent::Drop { .. } => "drop",
            ObsEvent::Corrupt { .. } => "corrupt",
            ObsEvent::TimerFire { .. } => "timer",
            ObsEvent::SpanStart { .. } => "span-start",
            ObsEvent::SpanEnd { .. } => "span-end",
        }
    }
}

/// A consumer of kernel observations.
///
/// Implementations must be cheap per call: `record` sits on the kernel's
/// dispatch hot path. `Any` is required so harnesses can recover a
/// concrete sink (and its accumulated state) from the `Box<dyn Sink>` the
/// world hands back.
pub trait Sink: Any {
    /// Consumes one observation together with its causal annotation
    /// (event id and cause id, [`Causality::default`] for unidentified
    /// observations such as `Step` noise).
    fn record(&mut self, ev: &ObsEvent, causal: Causality);

    /// Called by the kernel when a run fails abnormally (today: an actor
    /// panicked inside a callback); an observer renders its flight dump
    /// here. Default: ignore.
    fn fail(&mut self, reason: &str, at: Time) {
        let _ = (reason, at);
    }

    /// Upcast for downcasting back to the concrete sink type.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The harness's standard composite: a [`crate::report::RunReport`]
/// folding the run's histograms online, and the run's
/// [`crate::causal::CausalLog`], which every other reading (flight dump,
/// trace, critical path, DAG) is taken from.
#[derive(Debug, Clone, Default)]
pub struct ObserverSink {
    /// Aggregated run statistics.
    pub report: crate::report::RunReport,
    /// The run's log of observations.
    pub causal: crate::causal::CausalLog,
}

impl Sink for ObserverSink {
    fn record(&mut self, ev: &ObsEvent, causal: Causality) {
        self.report.record(ev, causal);
        self.causal.record(ev, causal);
    }

    /// Renders the log's last [`crate::causal::CausalLog::FLIGHT_TAIL`]
    /// records to stderr.
    fn fail(&mut self, reason: &str, at: Time) {
        eprint!(
            "{}",
            self.causal
                .flight_jsonl(reason, at, crate::causal::CausalLog::FLIGHT_TAIL)
        );
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_instants() {
        let p = ProcessId::from_raw(1);
        let t = Time::from_ticks(9);
        let ev = ObsEvent::Deliver {
            from: p,
            to: p,
            at: t,
            latency: TimeDelta::ticks(2),
        };
        assert_eq!(ev.kind(), "deliver");
        assert_eq!(ev.at(), t);
        assert_eq!(
            ObsEvent::Step {
                at: t,
                queue_depth: 3
            }
            .kind(),
            "step"
        );
    }

    #[test]
    fn observer_sink_feeds_all_parts() {
        let mut obs = ObserverSink::default();
        let p = ProcessId::from_raw(0);
        obs.record(
            &ObsEvent::Join {
                pid: p,
                at: Time::ZERO,
            },
            Causality { id: 1, cause: 0 },
        );
        obs.record(
            &ObsEvent::Step {
                at: Time::ZERO,
                queue_depth: 1,
            },
            Causality::default(),
        );
        assert_eq!(obs.report.events, 2);
        // The log skips step noise but keeps the join.
        assert_eq!(obs.causal.len(), 1);
        assert_eq!(obs.causal.dag().nodes()[0].id, 1);
    }
}
