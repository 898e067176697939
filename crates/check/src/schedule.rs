//! The scripted schedule policy and its choice-point log.

use std::cell::RefCell;
use std::rc::Rc;

use dds_core::process::ProcessId;
use dds_core::time::Time;
use dds_sim::event::{ReadySummary, SchedulePolicy};

/// One ready event at a choice point, reduced to what exploration needs:
/// its identity (`seq`) and the actor it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The kernel's tie-breaking sequence number — stable across replays
    /// of the same decision prefix, so it identifies the event.
    pub seq: u64,
    /// The process the event dispatches to (`None` for churn ticks, which
    /// touch the whole world).
    pub target: Option<ProcessId>,
}

impl ReadyEvent {
    /// Commutativity approximation: two events are independent when they
    /// dispatch to *distinct* actors. Actor states are disjoint and a
    /// queued event cannot be disabled by delivering to a different
    /// process, so swapping them reaches the same state — provided the
    /// callbacks don't race through shared world state (the mutation
    /// `epoch` guards membership/topology; callbacks drawing from the
    /// shared rng are outside the approximation, so partial-order
    /// reduction is opt-in per target).
    pub fn independent(&self, other: &ReadyEvent) -> bool {
        match (self.target, other.target) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

/// One entry of a run's schedule log.
///
/// `width > 1` entries are genuine choice points (the policy was asked to
/// pick); `width == 1` entries are forced steps, logged so explorers can
/// wake sleeping events that a forced step conflicts with.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    /// Dispatch instant.
    pub at: Time,
    /// World mutation epoch at the decision.
    pub epoch: u64,
    /// Size of the ready set (1 for forced steps).
    pub width: usize,
    /// Index dispatched (always 0 for forced steps).
    pub chosen: usize,
    /// The ready set in seq order. Empty when the target only reports
    /// widths (register schedules), which disables the reduction.
    pub ready: Vec<ReadyEvent>,
}

impl ChoicePoint {
    /// The event that was dispatched, when the ready set is known.
    pub fn executed(&self) -> Option<ReadyEvent> {
        self.ready.get(self.chosen).copied()
    }
}

/// Shared log the policy writes and the explorer reads back after a run.
pub type ChoiceLog = Rc<RefCell<Vec<ChoicePoint>>>;

/// A [`SchedulePolicy`] that replays an explicit decision vector.
///
/// `plan[k]` is the index to dispatch at the `k`-th choice point (where
/// the ready set holds more than one event); out-of-range entries are
/// clamped, missing entries mean "pick index 0", i.e. the empty plan
/// reproduces the default `(time, seq)` order. Every consulted choice
/// point — and every forced single-event step — is appended to the log.
pub struct ScriptPolicy {
    plan: Vec<usize>,
    cursor: usize,
    log: ChoiceLog,
}

impl ScriptPolicy {
    /// Creates a policy replaying `plan`, logging into `log`.
    pub fn new(plan: Vec<usize>, log: ChoiceLog) -> Self {
        ScriptPolicy {
            plan,
            cursor: 0,
            log,
        }
    }
}

impl From<&ReadySummary> for ReadyEvent {
    fn from(r: &ReadySummary) -> Self {
        ReadyEvent {
            seq: r.seq,
            target: r.kind.target(),
        }
    }
}

fn summarize(ready: &[ReadySummary]) -> Vec<ReadyEvent> {
    ready.iter().map(ReadyEvent::from).collect()
}

impl SchedulePolicy for ScriptPolicy {
    fn choose(&mut self, now: Time, epoch: u64, ready: &[ReadySummary]) -> usize {
        let choice = self
            .plan
            .get(self.cursor)
            .copied()
            .unwrap_or(0)
            .min(ready.len() - 1);
        self.cursor += 1;
        self.log.borrow_mut().push(ChoicePoint {
            at: now,
            epoch,
            width: ready.len(),
            chosen: choice,
            ready: summarize(ready),
        });
        choice
    }

    fn observe(&mut self, now: Time, epoch: u64, only: &ReadySummary) {
        self.log.borrow_mut().push(ChoicePoint {
            at: now,
            epoch,
            width: 1,
            chosen: 0,
            ready: summarize(std::slice::from_ref(only)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim::event::ReadyKind;

    fn summary(seq: u64, pid: u64) -> ReadySummary {
        ReadySummary {
            seq,
            kind: ReadyKind::Timer {
                pid: ProcessId::from_raw(pid),
            },
        }
    }

    #[test]
    fn plan_entries_clamp_and_default_to_zero() {
        let log: ChoiceLog = Rc::new(RefCell::new(Vec::new()));
        let mut p = ScriptPolicy::new(vec![1, 99], Rc::clone(&log));
        let ready = [summary(10, 0), summary(11, 1)];
        assert_eq!(p.choose(Time::from_ticks(1), 0, &ready), 1);
        assert_eq!(p.choose(Time::from_ticks(1), 0, &ready), 1, "99 clamps");
        assert_eq!(p.choose(Time::from_ticks(2), 0, &ready), 0, "plan exhausted");
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].width, 2);
        assert_eq!(log[0].ready[1].target, Some(ProcessId::from_raw(1)));
    }

    #[test]
    fn forced_steps_are_logged_with_width_one() {
        let log: ChoiceLog = Rc::new(RefCell::new(Vec::new()));
        let mut p = ScriptPolicy::new(vec![], Rc::clone(&log));
        p.observe(Time::from_ticks(3), 7, &summary(42, 5));
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].width, 1);
        assert_eq!(log[0].epoch, 7);
        assert_eq!(log[0].executed().unwrap().seq, 42);
    }

    #[test]
    fn independence_is_distinct_targets() {
        let a = ReadyEvent {
            seq: 1,
            target: Some(ProcessId::from_raw(0)),
        };
        let b = ReadyEvent {
            seq: 2,
            target: Some(ProcessId::from_raw(1)),
        };
        let churn = ReadyEvent { seq: 3, target: None };
        assert!(a.independent(&b));
        assert!(!a.independent(&a));
        assert!(!a.independent(&churn), "churn conflicts with everything");
    }
}
