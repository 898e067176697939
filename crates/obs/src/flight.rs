//! The flight recorder: a bounded ring buffer of recent kernel events.
//!
//! Like an aircraft's black box, the recorder keeps only the last `N`
//! observations; when something goes wrong — a specification predicate
//! fails, or an actor panics inside a callback — the ring is dumped as
//! JSONL so the failure's immediate history survives even though full
//! tracing was off.

use std::collections::VecDeque;
use std::path::PathBuf;

use dds_core::run::Causality;
use dds_core::time::Time;

use crate::export::obs_event_line;
use crate::sink::{ObsEvent, Sink};

/// Default ring capacity used by the harness.
pub const DEFAULT_CAPACITY: usize = 256;

/// Bound on retained rendered dumps, so a run that fails repeatedly cannot
/// grow without limit.
const MAX_RETAINED_DUMPS: usize = 4;

/// A fixed-capacity ring of the most recent kernel events.
///
/// `Step` observations (one per dispatched event, carrying only queue
/// depth) are skipped so the ring holds the *semantic* recent history:
/// joins, departures, sends, deliveries, drops, timers and spans.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<(Causality, ObsEvent)>,
    capacity: usize,
    /// Total events offered to the ring (including those since evicted).
    pub recorded: u64,
    /// Rendered dumps produced by [`FlightRecorder::fail`], most recent
    /// last, at most a small fixed number retained.
    pub dumps: Vec<String>,
    dump_path: Option<PathBuf>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
            dumps: Vec::new(),
            dump_path: None,
        }
    }

    /// Sets a file path that [`FlightRecorder::fail`] writes its dump to
    /// (in addition to retaining it in [`FlightRecorder::dumps`]). Without
    /// a path, failure dumps go to stderr.
    pub fn with_dump_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.dump_path = Some(path.into());
        self
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter().map(|(_, ev)| ev)
    }

    /// The held events with their causal annotations, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &(Causality, ObsEvent)> {
        self.ring.iter()
    }

    /// Renders the current ring as a JSONL dump: a header line with the
    /// reason and instant, then one line per held event, oldest first.
    pub fn dump_jsonl(&self, reason: &str, at: Time) -> String {
        let mut out = String::with_capacity(64 + self.ring.len() * 48);
        out.push_str(&format!(
            "{{\"t\":\"flight-dump\",\"reason\":\"{}\",\"at\":{},\"events\":{},\"recorded\":{}}}\n",
            reason.replace('\\', "\\\\").replace('"', "\\\""),
            at.as_ticks(),
            self.ring.len(),
            self.recorded
        ));
        for (causal, ev) in &self.ring {
            obs_event_line(ev, *causal, &mut out);
        }
        out
    }
}

impl Sink for FlightRecorder {
    fn record(&mut self, ev: &ObsEvent, causal: Causality) {
        if matches!(ev, ObsEvent::Step { .. }) {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((causal, *ev));
        self.recorded += 1;
    }

    /// Abnormal termination: render the ring, retain the dump, and write
    /// it to the configured path (or stderr when none is set).
    fn fail(&mut self, reason: &str, at: Time) {
        let dump = self.dump_jsonl(reason, at);
        match &self.dump_path {
            Some(path) => {
                if let Err(err) = std::fs::write(path, &dump) {
                    eprintln!("flight recorder: cannot write {}: {err}", path.display());
                    eprint!("{dump}");
                }
            }
            None => eprint!("{dump}"),
        }
        if self.dumps.len() < MAX_RETAINED_DUMPS {
            self.dumps.push(dump);
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

    fn join(n: u64) -> ObsEvent {
        ObsEvent::Join {
            pid: ProcessId::from_raw(n),
            at: Time::from_ticks(n),
        }
    }

    #[test]
    fn ring_keeps_only_the_last_n() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..10 {
            fr.record(
                &join(i),
                Causality {
                    id: i + 1,
                    cause: 0,
                },
            );
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.recorded, 10);
        let ats: Vec<u64> = fr.events().map(|e| e.at().as_ticks()).collect();
        assert_eq!(ats, vec![7, 8, 9]);
    }

    #[test]
    fn step_events_are_skipped() {
        let mut fr = FlightRecorder::new(4);
        fr.record(
            &ObsEvent::Step {
                at: Time::ZERO,
                queue_depth: 5,
            },
            Causality::default(),
        );
        assert!(fr.is_empty());
        assert_eq!(fr.recorded, 0);
    }

    #[test]
    fn dump_has_header_and_one_line_per_event() {
        let mut fr = FlightRecorder::new(8);
        fr.record(&join(1), Causality { id: 1, cause: 0 });
        fr.record(&join(2), Causality { id: 2, cause: 1 });
        let dump = fr.dump_jsonl("spec \"failure\"", Time::from_ticks(5));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"t\":\"flight-dump\""));
        assert!(
            lines[0].contains("\\\"failure\\\""),
            "reason is escaped: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"t\":\"join\""));
    }

    #[test]
    fn fail_writes_to_the_configured_path() {
        let path =
            std::env::temp_dir().join(format!("dds-flight-test-{}.jsonl", std::process::id()));
        let mut fr = FlightRecorder::new(8).with_dump_path(&path);
        fr.record(&join(3), Causality::default());
        fr.fail("unit test", Time::from_ticks(3));
        let written = std::fs::read_to_string(&path).expect("dump file written");
        assert!(written.contains("\"reason\":\"unit test\""));
        assert!(written.contains("\"t\":\"join\""));
        assert_eq!(fr.dumps.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
