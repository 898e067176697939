//! JSONL renderers for observations and the message-level trace.
//!
//! Every field is an integer or a static identifier, so the output is
//! byte-identical for identical runs — the property the cross-thread-count
//! determinism tests pin. No serializer dependency: the vendored `serde`
//! stand-in has no backend (DESIGN.md §12), so records are rendered by
//! hand.

use std::fmt::Write as _;

use dds_core::run::Causality;

use crate::sink::ObsEvent;

/// Appends the `,"id":N,"cause":N}` tail shared by every rendered line,
/// making each JSONL artifact causality-complete and parseable by
/// [`crate::causal::CausalDag::from_jsonl`].
fn causal_suffix(causal: Causality, out: &mut String) {
    let _ = writeln!(out, ",\"id\":{},\"cause\":{}}}", causal.id, causal.cause);
}

/// Renders one record of a run's message-level trace, appended to
/// `out`: kernel joins, leaves, crashes, sends, deliveries, drops and
/// corruptions get a JSON line with their causal annotation; dispatch
/// steps, timer fires and harness spans render nothing.
///
/// The kernel keeps no record of message traffic of its own (its
/// `Trace` is the membership history), so a run's log, read through
/// [`crate::causal::CausalLog::trace_jsonl`], is where those lines come
/// from.
pub fn trace_line(ev: &ObsEvent, causal: Causality, out: &mut String) {
    match *ev {
        ObsEvent::Join { .. }
        | ObsEvent::Leave { .. }
        | ObsEvent::Crash { .. }
        | ObsEvent::Send { .. }
        | ObsEvent::Drop { .. }
        | ObsEvent::Corrupt { .. } => obs_event_line(ev, causal, out),
        // A trace line says when a message arrived, not how long it
        // flew: the send it names as its cause carries that instant.
        ObsEvent::Deliver { from, to, at, .. } => {
            let _ = write!(
                out,
                "{{\"t\":\"deliver\",\"from\":{},\"to\":{},\"at\":{}",
                from.as_raw(),
                to.as_raw(),
                at.as_ticks()
            );
            causal_suffix(causal, out);
        }
        ObsEvent::Step { .. }
        | ObsEvent::TimerFire { .. }
        | ObsEvent::SpanStart { .. }
        | ObsEvent::SpanEnd { .. } => {}
    }
}

/// Renders one [`ObsEvent`] with its causal annotation as a JSON line
/// (with trailing newline) appended to `out`. Span names are static
/// identifiers chosen by harnesses and are emitted verbatim.
pub fn obs_event_line(ev: &ObsEvent, causal: Causality, out: &mut String) {
    let _ = match *ev {
        ObsEvent::Step { at, queue_depth } => write!(
            out,
            "{{\"t\":\"step\",\"at\":{},\"depth\":{}",
            at.as_ticks(),
            queue_depth
        ),
        ObsEvent::Join { pid, at } => write!(
            out,
            "{{\"t\":\"join\",\"pid\":{},\"at\":{}",
            pid.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::Leave { pid, at } => write!(
            out,
            "{{\"t\":\"leave\",\"pid\":{},\"at\":{}",
            pid.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::Crash { pid, at } => write!(
            out,
            "{{\"t\":\"crash\",\"pid\":{},\"at\":{}",
            pid.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::Send { from, to, at } => write!(
            out,
            "{{\"t\":\"send\",\"from\":{},\"to\":{},\"at\":{}",
            from.as_raw(),
            to.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::Deliver {
            from,
            to,
            at,
            latency,
        } => write!(
            out,
            "{{\"t\":\"deliver\",\"from\":{},\"to\":{},\"at\":{},\"latency\":{}",
            from.as_raw(),
            to.as_raw(),
            at.as_ticks(),
            latency.as_ticks()
        ),
        ObsEvent::Drop { from, to, at } => write!(
            out,
            "{{\"t\":\"drop\",\"from\":{},\"to\":{},\"at\":{}",
            from.as_raw(),
            to.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::Corrupt { pid, at } => write!(
            out,
            "{{\"t\":\"corrupt\",\"pid\":{},\"at\":{}",
            pid.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::TimerFire { pid, at } => write!(
            out,
            "{{\"t\":\"timer\",\"pid\":{},\"at\":{}",
            pid.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::SpanStart { name, pid, at } => write!(
            out,
            "{{\"t\":\"span-start\",\"name\":\"{}\",\"pid\":{},\"at\":{}",
            name,
            pid.as_raw(),
            at.as_ticks()
        ),
        ObsEvent::SpanEnd { name, pid, at } => write!(
            out,
            "{{\"t\":\"span-end\",\"name\":\"{}\",\"pid\":{},\"at\":{}",
            name,
            pid.as_raw(),
            at.as_ticks()
        ),
    };
    causal_suffix(causal, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalLog;
    use crate::sink::Sink;
    use dds_core::process::ProcessId;
    use dds_core::time::{Time, TimeDelta};

    #[test]
    fn trace_log_renders_kernel_events_only() {
        let p = ProcessId::from_raw(0);
        let mut log = CausalLog::default();
        log.record(
            &ObsEvent::Join {
                pid: p,
                at: Time::ZERO,
            },
            Causality { id: 1, cause: 0 },
        );
        log.record(
            &ObsEvent::Step {
                at: Time::from_ticks(2),
                queue_depth: 1,
            },
            Causality::default(),
        );
        log.record(
            &ObsEvent::SpanStart {
                name: "query",
                pid: p,
                at: Time::from_ticks(2),
            },
            Causality { id: 3, cause: 0 },
        );
        log.record(
            &ObsEvent::Send {
                from: p,
                to: p,
                at: Time::from_ticks(2),
            },
            Causality { id: 4, cause: 0 },
        );
        log.record(
            &ObsEvent::TimerFire {
                pid: p,
                at: Time::from_ticks(3),
            },
            Causality { id: 5, cause: 1 },
        );
        log.record(
            &ObsEvent::Deliver {
                from: p,
                to: p,
                at: Time::from_ticks(3),
                latency: TimeDelta::ticks(1),
            },
            Causality { id: 6, cause: 4 },
        );
        let s = log.trace_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"t\":\"join\",\"pid\":0,\"at\":0,\"id\":1,\"cause\":0}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":\"send\",\"from\":0,\"to\":0,\"at\":2,\"id\":4,\"cause\":0}"
        );
        assert_eq!(
            lines[2],
            "{\"t\":\"deliver\",\"from\":0,\"to\":0,\"at\":3,\"id\":6,\"cause\":4}"
        );
    }

    #[test]
    fn obs_lines_carry_latency_depth_and_causality() {
        let p = ProcessId::from_raw(4);
        let mut out = String::new();
        obs_event_line(
            &ObsEvent::Deliver {
                from: p,
                to: p,
                at: Time::from_ticks(7),
                latency: TimeDelta::ticks(2),
            },
            Causality { id: 9, cause: 3 },
            &mut out,
        );
        obs_event_line(
            &ObsEvent::Step {
                at: Time::from_ticks(7),
                queue_depth: 9,
            },
            Causality::default(),
            &mut out,
        );
        obs_event_line(
            &ObsEvent::SpanStart {
                name: "query",
                pid: p,
                at: Time::from_ticks(1),
            },
            Causality::default(),
            &mut out,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"t\":\"deliver\",\"from\":4,\"to\":4,\"at\":7,\"latency\":2,\"id\":9,\"cause\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":\"step\",\"at\":7,\"depth\":9,\"id\":0,\"cause\":0}"
        );
        assert_eq!(
            lines[2],
            "{\"t\":\"span-start\",\"name\":\"query\",\"pid\":4,\"at\":1,\"id\":0,\"cause\":0}"
        );
    }
}
