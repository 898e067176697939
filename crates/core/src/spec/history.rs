//! Operation histories of shared objects.
//!
//! The reliable-object constructions of `dds-registers` are judged against
//! history-based specifications: a [`History`] records, for each high-level
//! operation, who invoked it, when, and what it returned. Correctness
//! conditions (atomicity/linearizability, regularity, consensus properties)
//! are predicates over histories, implemented in the sibling modules
//! [`crate::spec::register`] and [`crate::spec::consensus`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::process::ProcessId;
use crate::time::Time;

/// One high-level operation in a history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRecord<Op, Resp> {
    /// The invoking process.
    pub process: ProcessId,
    /// The operation.
    pub op: Op,
    /// Invocation instant.
    pub invoked: Time,
    /// Response instant; `None` for an operation still pending when the run
    /// was cut off.
    pub responded: Option<Time>,
    /// The returned value, when the operation responded.
    pub response: Option<Resp>,
}

impl<Op, Resp> OpRecord<Op, Resp> {
    /// `true` when the operation completed.
    pub const fn is_complete(&self) -> bool {
        self.responded.is_some()
    }

    /// `true` when `self` finished before `other` began (real-time
    /// precedence, the order a linearization must respect).
    pub fn precedes(&self, other: &OpRecord<Op, Resp>) -> bool {
        match self.responded {
            Some(r) => r < other.invoked,
            None => false,
        }
    }
}

/// A recorded history of high-level operations on one shared object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct History<Op, Resp> {
    records: Vec<OpRecord<Op, Resp>>,
}

impl<Op, Resp> Default for History<Op, Resp> {
    fn default() -> Self {
        History {
            records: Vec::new(),
        }
    }
}

impl<Op, Resp> History<Op, Resp> {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if the record responded before it was invoked.
    pub fn push(&mut self, record: OpRecord<Op, Resp>) {
        if let Some(r) = record.responded {
            assert!(r >= record.invoked, "response precedes invocation");
        }
        self.records.push(record);
    }

    /// The recorded operations, in recording order.
    pub fn records(&self) -> &[OpRecord<Op, Resp>] {
        &self.records
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no operation was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `true` when every operation completed.
    pub fn is_complete(&self) -> bool {
        self.records.iter().all(OpRecord::is_complete)
    }

    /// The records of one process, in recording order.
    pub fn by_process(&self, pid: ProcessId) -> Vec<&OpRecord<Op, Resp>> {
        self.records.iter().filter(|r| r.process == pid).collect()
    }

    /// Checks *well-formedness*: each process's operations are sequential
    /// (a process invokes its next operation only after the previous one
    /// responded).
    pub fn is_well_formed(&self) -> bool {
        use std::collections::BTreeMap;
        let mut per_proc: BTreeMap<ProcessId, Vec<&OpRecord<Op, Resp>>> = BTreeMap::new();
        for r in &self.records {
            per_proc.entry(r.process).or_default().push(r);
        }
        for ops in per_proc.values() {
            let mut sorted: Vec<_> = ops.clone();
            sorted.sort_by_key(|r| r.invoked);
            for w in sorted.windows(2) {
                match w[0].responded {
                    Some(resp) if resp <= w[1].invoked => {}
                    // A pending op must be the process's last.
                    _ => return false,
                }
            }
        }
        true
    }
}

impl<Op: fmt::Debug, Resp: fmt::Debug> fmt::Display for History<Op, Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "history of {} operations:", self.records.len())?;
        for r in &self.records {
            match (&r.responded, &r.response) {
                (Some(t), Some(resp)) => writeln!(
                    f,
                    "  {} {:?} @[{}..{}] -> {:?}",
                    r.process,
                    r.op,
                    r.invoked.as_ticks(),
                    t.as_ticks(),
                    resp
                )?,
                _ => writeln!(
                    f,
                    "  {} {:?} @[{}..] pending",
                    r.process,
                    r.op,
                    r.invoked.as_ticks()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn rec(p: u64, inv: u64, resp: Option<u64>) -> OpRecord<&'static str, u8> {
        OpRecord {
            process: pid(p),
            op: "op",
            invoked: t(inv),
            responded: resp.map(t),
            response: resp.map(|_| 0),
        }
    }

    #[test]
    fn precedence_requires_disjoint_intervals() {
        let a = rec(0, 0, Some(2));
        let b = rec(1, 3, Some(5));
        let c = rec(2, 1, Some(4)); // overlaps a
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!a.precedes(&c));
        assert!(!c.precedes(&a));
    }

    #[test]
    fn pending_precedes_nothing() {
        let pending = rec(0, 0, None);
        let later = rec(1, 10, Some(11));
        assert!(!pending.precedes(&later));
        assert!(!pending.is_complete());
    }

    #[test]
    fn well_formedness_accepts_sequential_processes() {
        let mut h = History::new();
        h.push(rec(0, 0, Some(2)));
        h.push(rec(1, 1, Some(3))); // concurrent with p0's op: fine
        h.push(rec(0, 2, Some(4)));
        assert!(h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_overlap_within_a_process() {
        let mut h = History::new();
        h.push(rec(0, 0, Some(5)));
        h.push(rec(0, 3, Some(8))); // invoked before previous responded
        assert!(!h.is_well_formed());
    }

    #[test]
    fn pending_must_be_last_per_process() {
        let mut h = History::new();
        h.push(rec(0, 0, None));
        h.push(rec(0, 3, Some(8)));
        assert!(!h.is_well_formed());
        let mut h = History::new();
        h.push(rec(0, 0, Some(1)));
        h.push(rec(0, 3, None));
        assert!(h.is_well_formed());
        assert!(!h.is_complete());
    }

    #[test]
    #[should_panic(expected = "response precedes invocation")]
    fn push_rejects_time_travel() {
        let mut h = History::new();
        h.push(OpRecord {
            process: pid(0),
            op: "op",
            invoked: t(5),
            responded: Some(t(3)),
            response: Some(0u8),
        });
    }

    #[test]
    fn by_process_filters() {
        let mut h = History::new();
        h.push(rec(0, 0, Some(1)));
        h.push(rec(1, 0, Some(1)));
        h.push(rec(0, 2, Some(3)));
        assert_eq!(h.by_process(pid(0)).len(), 2);
        assert_eq!(h.by_process(pid(1)).len(), 1);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn display_marks_pending() {
        let mut h = History::new();
        h.push(rec(0, 0, None));
        assert!(h.to_string().contains("pending"));
    }
}
