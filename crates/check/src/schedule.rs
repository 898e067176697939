//! The schedule log: ready events and the choice points a run records.

use dds_core::process::ProcessId;
use dds_core::time::Time;
use dds_sim::event::ReadySummary;

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
/// `width > 1` entries are genuine choice points (the plan was asked to
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

impl From<&ReadySummary> for ReadyEvent {
    fn from(r: &ReadySummary) -> Self {
        ReadyEvent {
            seq: r.seq,
            target: r.kind.target(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
