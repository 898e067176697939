//! Register specifications: atomicity, sequential consistency, regularity.
//!
//! A *register* stores a value, read and written by processes. The
//! self-implementations in `dds-registers` must provide an **atomic**
//! register: every history must be *linearizable* — explainable by a legal
//! sequential order (each read returns the latest write) that respects
//! real time. **Sequential consistency** asks for the same with each
//! process's program order in place of real time.
//!
//! - [`check_atomic`] and [`check_sequentially_consistent`] run one
//!   Wing–Gong style search under those two precedence orders, memoised on
//!   (placed set, register value). It takes any history of up to 128
//!   operations (its bitmask width) and returns a witness order.
//! - [`check_atomic_unique`] takes histories whose writes carry distinct
//!   values, so every read names its write, and decides atomicity in
//!   O(n log n) with no size cap (Gibbons–Korach). It checks whole
//!   networked logs of millions of operations; [`check_atomic`] is its
//!   differential oracle.
//!
//! The weaker **regular** condition (meaningful for a single writer) lets a
//! read concurrent with writes return either the previous value or any
//! concurrently-written one; [`check_regular_single_writer`] validates it
//! directly, read by read.

use std::collections::{HashMap, HashSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::spec::history::{History, OpRecord};
use crate::time::Time;

/// Operations on a register holding `u64` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegOp {
    /// Read the current value.
    Read,
    /// Write a value.
    Write(u64),
}

/// Responses of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegResp {
    /// Value returned by a read; `None` encodes the initial value `⊥`.
    Value(Option<u64>),
    /// Acknowledgement of a write.
    Ack,
}

/// A register history.
pub type RegisterHistory = History<RegOp, RegResp>;

/// A record in a register history.
pub type RegisterRecord = OpRecord<RegOp, RegResp>;

/// Outcome of [`check_atomic`] or [`check_sequentially_consistent`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Linearizability {
    /// A legal sequential order respecting the checked precedence exists;
    /// the indices order the records of the history into it.
    Linearizable {
        /// Indices into `history.records()` in witness order.
        witness: Vec<usize>,
    },
    /// No such order exists.
    NotLinearizable,
}

impl Linearizability {
    /// `true` when a witness order exists: the history is linearizable
    /// under the checked precedence.
    pub const fn is_linearizable(&self) -> bool {
        matches!(self, Linearizability::Linearizable { .. })
    }
}

impl fmt::Display for Linearizability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Linearizability::Linearizable { witness } => {
                write!(f, "linearizable ({} ops)", witness.len())
            }
            Linearizability::NotLinearizable => write!(f, "NOT linearizable"),
        }
    }
}

/// Error from the register checkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckError {
    /// The history has more operations than the checker supports (128).
    TooLarge(usize),
    /// The history interleaves operations of a single process.
    MalformedHistory,
    /// An operation completed without a recorded response value.
    MissingResponse(usize),
    /// The write at this index carries a value an earlier write already
    /// carried ([`check_atomic_unique`] needs every read to name its write).
    DuplicateWrite(usize),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::TooLarge(n) => {
                write!(
                    f,
                    "history of {n} operations exceeds the 128-op checker limit"
                )
            }
            CheckError::MalformedHistory => {
                write!(f, "history interleaves operations of a single process")
            }
            CheckError::MissingResponse(i) => {
                write!(f, "operation {i} completed without a response value")
            }
            CheckError::DuplicateWrite(i) => {
                write!(f, "operation {i} writes a value an earlier write carried")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks atomicity (linearizability) of a register history: a legal
/// sequential order in which an operation that responded before another
/// was invoked comes first. It is [`check_sequentially_consistent`]'s
/// search under real time: depth first, candidates in record order,
/// memoised on (placed set, register value).
///
/// Pending operations (no response) are allowed: a pending **write** may or
/// may not take effect, a pending **read** is ignored (it returned nothing
/// observable). Completed operations must all be explained.
///
/// # Errors
///
/// Returns [`CheckError`] when the history is malformed, larger than 128
/// operations, or has completed operations without response values.
pub fn check_atomic(history: &RegisterHistory) -> Result<Linearizability, CheckError> {
    checkable(history)?;
    let records = history.records();
    let preceded_by = preceded_by(records.len(), |j, i| records[j].precedes(&records[i]));
    Ok(linearize(records, &preceded_by))
}

/// Checks **sequential consistency** of a register history: linearizability
/// with each process's program order in place of real time, so a read may
/// return a value already overwritten in real time as long as no process
/// observes values out of order. The gap to [`check_atomic`] is what the
/// SCD-derived register in `dds-protocols` exploits (local reads, globally
/// ordered writes). Pending operations are treated as there.
///
/// # Errors
///
/// Returns [`CheckError`] when the history is malformed, larger than 128
/// operations, or has completed operations without response values.
pub fn check_sequentially_consistent(
    history: &RegisterHistory,
) -> Result<Linearizability, CheckError> {
    checkable(history)?;
    let records = history.records();
    // Well-formedness makes a process's operations disjoint, so invocation
    // order is its program order.
    let preceded_by = preceded_by(records.len(), |j, i| {
        let (rj, ri) = (&records[j], &records[i]);
        rj.process == ri.process && (rj.invoked, j) < (ri.invoked, i)
    });
    Ok(linearize(records, &preceded_by))
}

/// What the search needs of a history: at most 128 operations (the width
/// of its placed-set mask), well-formed, every response recorded.
fn checkable(history: &RegisterHistory) -> Result<(), CheckError> {
    if history.len() > 128 {
        return Err(CheckError::TooLarge(history.len()));
    }
    if !history.is_well_formed() {
        return Err(CheckError::MalformedHistory);
    }
    responses(history.records())
}

/// Rejects a completed operation without a response value.
fn responses(records: &[RegisterRecord]) -> Result<(), CheckError> {
    match records
        .iter()
        .position(|r| r.is_complete() && r.response.is_none())
    {
        Some(i) => Err(CheckError::MissingResponse(i)),
        None => Ok(()),
    }
}

/// A precedence relation as masks: bit `j` of entry `i` is set when record
/// `j` must be placed before record `i`.
fn preceded_by(n: usize, precedes: impl Fn(usize, usize) -> bool) -> Vec<u128> {
    (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && precedes(j, i))
                .fold(0, |mask, j| mask | 1 << j)
        })
        .collect()
}

/// The register search: depth first over (placed set, register value),
/// memoised on that pair (Lowe's linearized-set/spec-state key), trying
/// records in index order. A record is a candidate once everything
/// `preceded_by` names is placed: a completed read when it returns the
/// current value, a write (completed or pending) always, a pending read
/// never. Success is every completed record placed; well-formedness makes
/// a pending op its process's last, so under either order nothing waits on
/// one left out.
fn linearize(records: &[RegisterRecord], preceded_by: &[u128]) -> Linearizability {
    struct Search<'a> {
        records: &'a [RegisterRecord],
        preceded_by: &'a [u128],
        complete: u128,
        memo: HashSet<(u128, Option<u64>)>,
        witness: Vec<usize>,
    }

    fn dfs(s: &mut Search<'_>, done: u128, value: Option<u64>) -> bool {
        if s.complete & !done == 0 {
            return true;
        }
        if !s.memo.insert((done, value)) {
            return false;
        }
        for (i, r) in s.records.iter().enumerate() {
            let bit = 1u128 << i;
            if done & bit != 0 || s.preceded_by[i] & !done != 0 {
                continue;
            }
            let next = match (r.op, r.response) {
                (RegOp::Write(v), _) => Some(v),
                (RegOp::Read, Some(RegResp::Value(v))) if v == value => value,
                _ => continue,
            };
            s.witness.push(i);
            if dfs(s, done | bit, next) {
                return true;
            }
            s.witness.pop();
        }
        false
    }

    let complete = (0..records.len())
        .filter(|&i| records[i].is_complete())
        .fold(0, |mask, i| mask | 1 << i);
    let mut search = Search {
        records,
        preceded_by,
        complete,
        memo: HashSet::new(),
        witness: Vec::with_capacity(records.len()),
    };
    if !dfs(&mut search, 0, None) {
        return Linearizability::NotLinearizable;
    }
    let witness = search.witness;
    Linearizability::Linearizable { witness }
}

/// Outcome of [`check_atomic_unique`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atomicity {
    /// Some linearization exists (none is built).
    Linearizable,
    /// No linearization exists.
    NotLinearizable {
        /// Index into `history.records()` of a record that takes part in
        /// the conflict: a read of a value never written or answered before
        /// its write was invoked, or the read whose invocation closes the
        /// zone of an overlapping cluster — for a stale read, that read.
        record: usize,
    },
}

impl Atomicity {
    /// `true` when the history is linearizable.
    pub const fn is_linearizable(&self) -> bool {
        matches!(self, Atomicity::Linearizable)
    }
}

/// Checks atomicity (linearizability) of a register history whose writes
/// carry distinct values, in O(n log n) and with no size cap (Gibbons and
/// Korach, *Testing Shared Memories*, SIAM J. Comput. 1997).
///
/// Distinct values map every read to the one write it returned, so the
/// history splits into *clusters*: a write with the completed reads of its
/// value; reads of `⊥` form a cluster with a virtual write at −∞. A pending
/// write takes part only when some read returns its value, and then
/// responds at +∞; pending reads are ignored. A cluster's latest invocation
/// `s` and earliest response `f` give its *zone*: forward `[f, s]` when
/// `f < s` (the cluster must stretch across it), backward `[s, f]`
/// otherwise. The history is linearizable iff
///
/// - no read responds before its write is invoked,
/// - no two forward zones overlap (touching endpoints do not: an operation
///   responding at `t` and one invoked at `t` are concurrent), and
/// - no backward zone lies strictly inside a forward zone.
///
/// A read of a value no write carries is not linearizable. The verdict is
/// [`check_atomic`]'s on every history that search accepts, without the
/// witness. Well-formedness is not required: a pending write is an interval
/// open to +∞ whoever issued it, which is how an aborted write that may
/// still land is modelled.
///
/// # Errors
///
/// [`CheckError::DuplicateWrite`] when two writes carry the same value,
/// [`CheckError::MissingResponse`] when a completed operation has no
/// response value.
pub fn check_atomic_unique(history: &RegisterHistory) -> Result<Atomicity, CheckError> {
    /// A write and the reads of its value. Times live on an axis with both
    /// infinities (`i128::MIN` is the `⊥` write, `i128::MAX` the response
    /// of a pending write).
    struct Cluster {
        /// Invocation of the write.
        written: i128,
        /// Latest invocation in the cluster, and the record invoked then.
        s: i128,
        closer: usize,
        /// Earliest response in the cluster.
        f: i128,
        /// A completed write, or a write some read returned.
        effective: bool,
    }
    let at = |t: Time| i128::from(t.as_ticks());
    let violation = |record| Ok(Atomicity::NotLinearizable { record });

    let records = history.records();
    responses(records)?;
    // Cluster 0 is ⊥'s; the others follow the writes in record order.
    let bottom = Cluster {
        written: i128::MIN,
        s: i128::MIN,
        closer: usize::MAX,
        f: i128::MIN,
        effective: false,
    };
    let mut clusters = vec![bottom];
    let mut by_value: HashMap<u64, usize> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if let RegOp::Write(v) = r.op {
            if by_value.insert(v, clusters.len()).is_some() {
                return Err(CheckError::DuplicateWrite(i));
            }
            clusters.push(Cluster {
                written: at(r.invoked),
                s: at(r.invoked),
                closer: i,
                f: r.responded.map_or(i128::MAX, at),
                effective: r.is_complete(),
            });
        }
    }
    for (i, r) in records.iter().enumerate() {
        let (RegOp::Read, Some(responded)) = (r.op, r.responded) else {
            continue;
        };
        let k = match r.response {
            Some(RegResp::Value(None)) => 0,
            Some(RegResp::Value(Some(v))) => match by_value.get(&v) {
                Some(&k) => k,
                None => return violation(i),
            },
            _ => return violation(i),
        };
        let c = &mut clusters[k];
        if at(responded) < c.written {
            return violation(i);
        }
        if at(r.invoked) > c.s {
            c.s = at(r.invoked);
            c.closer = i;
        }
        c.f = c.f.min(at(responded));
        c.effective = true;
    }

    let mut forward: Vec<(i128, i128, usize)> = Vec::new(); // (f, s, closer)
    let mut backward: Vec<(i128, i128)> = Vec::new(); // (s, f)
    for c in clusters.iter().filter(|c| c.effective) {
        if c.f < c.s {
            forward.push((c.f, c.s, c.closer));
        } else {
            backward.push((c.s, c.f));
        }
    }
    forward.sort_unstable();
    // Sorted by opening, the zones seen so far are disjoint until one
    // opens before its predecessor (the latest-closing so far) closes.
    for pair in forward.windows(2) {
        let ((_, s1, closer1), (f2, s2, closer2)) = (pair[0], pair[1]);
        if f2 < s1 {
            return violation(if s2 > s1 { closer2 } else { closer1 });
        }
    }
    // Only the last forward zone opening before a backward zone can
    // enclose it: every earlier one closes before that one opens.
    for (s, f) in backward {
        let k = forward.partition_point(|&(open, _, _)| open < s);
        if let Some(&(_, close, closer)) = k.checked_sub(1).map(|k| &forward[k]) {
            if f < close {
                return violation(closer);
            }
        }
    }
    Ok(Atomicity::Linearizable)
}

/// Checks **regularity** for a single-writer history: every read returns
/// either the value of the last write that precedes it or the value of a
/// write concurrent with it (the initial value `None` counts as "last
/// write" when no write precedes).
///
/// # Errors
///
/// Returns [`CheckError::MalformedHistory`] if the history is not
/// well-formed or has multiple writers.
pub fn check_regular_single_writer(history: &RegisterHistory) -> Result<bool, CheckError> {
    if !history.is_well_formed() {
        return Err(CheckError::MalformedHistory);
    }
    let writers: HashSet<_> = history
        .records()
        .iter()
        .filter(|r| matches!(r.op, RegOp::Write(_)))
        .map(|r| r.process)
        .collect();
    if writers.len() > 1 {
        return Err(CheckError::MalformedHistory);
    }

    for read in history.records() {
        let (RegOp::Read, Some(RegResp::Value(got))) = (&read.op, &read.response) else {
            continue;
        };
        // Admissible values: last preceding write, or any overlapping write.
        let mut admissible: Vec<Option<u64>> = Vec::new();
        let mut last_preceding: Option<(&RegisterRecord, u64)> = None;
        for w in history.records() {
            let RegOp::Write(v) = w.op else { continue };
            if w.precedes(read) {
                let better = match last_preceding {
                    None => true,
                    Some((prev, _)) => prev.invoked < w.invoked,
                };
                if better {
                    last_preceding = Some((w, v));
                }
            } else if !read.precedes(w) {
                admissible.push(Some(v)); // concurrent write
            }
        }
        admissible.push(last_preceding.map(|(_, v)| v));
        if !admissible.contains(got) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessId;
    use crate::time::Time;

    fn rec(p: u64, op: RegOp, inv: u64, resp: u64, response: RegResp) -> RegisterRecord {
        OpRecord {
            process: ProcessId::from_raw(p),
            op,
            invoked: Time::from_ticks(inv),
            responded: Some(Time::from_ticks(resp)),
            response: Some(response),
        }
    }

    fn write(p: u64, v: u64, inv: u64, resp: u64) -> RegisterRecord {
        rec(p, RegOp::Write(v), inv, resp, RegResp::Ack)
    }

    fn read(p: u64, got: Option<u64>, inv: u64, resp: u64) -> RegisterRecord {
        rec(p, RegOp::Read, inv, resp, RegResp::Value(got))
    }

    fn pending_write(p: u64, v: u64, inv: u64) -> RegisterRecord {
        OpRecord {
            process: ProcessId::from_raw(p),
            op: RegOp::Write(v),
            invoked: Time::from_ticks(inv),
            responded: None,
            response: None,
        }
    }

    /// [`check_atomic`]'s verdict, after asserting that the whole-history
    /// check reaches the same one (every fixture here writes distinct
    /// values).
    fn atomic(h: &RegisterHistory) -> Linearizability {
        let verdict = check_atomic(h).unwrap();
        assert_eq!(
            check_atomic_unique(h).unwrap().is_linearizable(),
            verdict.is_linearizable(),
            "the two checkers disagree on {h}"
        );
        verdict
    }

    fn culprit(h: &RegisterHistory) -> Option<usize> {
        match check_atomic_unique(h).unwrap() {
            Atomicity::Linearizable => None,
            Atomicity::NotLinearizable { record } => Some(record),
        }
    }

    #[test]
    fn whole_history_check_names_the_conflicting_read() {
        // Stale read: its invocation closes the forward zone of write(1).
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 3));
        h.push(read(1, Some(1), 4, 5));
        assert_eq!(culprit(&h), Some(2));
        // New/old inversion: two forward zones overlap; the later-closing
        // one is the stale read's.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 20));
        h.push(read(1, Some(2), 3, 5));
        h.push(read(1, Some(1), 6, 8));
        assert_eq!(culprit(&h), Some(3));
        // Two readers disagree on the order of two writes: both zones are
        // forward, and the stale read closes the one reaching further.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 3));
        h.push(read(1, Some(2), 4, 5));
        h.push(read(2, Some(1), 6, 7));
        assert_eq!(culprit(&h), Some(3));
        // A read answered before its write was invoked, a phantom value.
        let mut h = RegisterHistory::new();
        h.push(read(1, Some(1), 0, 1));
        h.push(write(0, 1, 2, 3));
        assert_eq!(culprit(&h), Some(0));
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, Some(9), 2, 3));
        assert_eq!(culprit(&h), Some(1));
        // A stale ⊥ read closes ⊥'s zone, opened by the write at −∞.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, None, 2, 3));
        assert_eq!(culprit(&h), Some(1));
    }

    #[test]
    fn whole_history_check_takes_touching_zones_and_unread_pending_writes() {
        // write(1)'s zone [1, 4] and write(2)'s zone [4, 6] touch at 4: the
        // read invoked at 4 and the write responding at 4 are concurrent.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(2, 2, 2, 4));
        h.push(read(1, Some(1), 4, 5));
        h.push(read(1, Some(2), 6, 7));
        assert!(atomic(&h).is_linearizable());
        // An unread pending write is dropped; a read one responds at +∞.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(pending_write(2, 2, 2));
        h.push(read(1, Some(1), 5, 6));
        assert!(atomic(&h).is_linearizable());
        h.push(read(1, Some(2), 7, 8));
        assert!(atomic(&h).is_linearizable());
        h.push(read(1, Some(1), 9, 10));
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
    }

    #[test]
    fn whole_history_check_needs_distinct_write_values() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, Some(1), 2, 3));
        h.push(pending_write(0, 1, 4));
        assert_eq!(check_atomic_unique(&h), Err(CheckError::DuplicateWrite(2)));
        let mut h = RegisterHistory::new();
        h.push(OpRecord {
            response: None,
            ..read(1, None, 0, 1)
        });
        assert_eq!(check_atomic_unique(&h), Err(CheckError::MissingResponse(0)));
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, Some(1), 2, 3));
        h.push(write(0, 2, 4, 5));
        h.push(read(1, Some(2), 6, 7));
        assert!(atomic(&h).is_linearizable());
    }

    #[test]
    fn read_of_initial_value() {
        let mut h = RegisterHistory::new();
        h.push(read(1, None, 0, 1));
        h.push(write(0, 7, 2, 3));
        assert!(atomic(&h).is_linearizable());
    }

    #[test]
    fn stale_read_is_not_linearizable() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 3));
        h.push(read(1, Some(1), 4, 5)); // write(2) already finished
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
    }

    #[test]
    fn concurrent_read_may_return_either_value() {
        // write(2) overlaps the read, so both 1 and 2 are legal.
        for got in [1u64, 2u64] {
            let mut h = RegisterHistory::new();
            h.push(write(0, 1, 0, 1));
            h.push(write(0, 2, 2, 6));
            h.push(read(1, Some(got), 3, 5));
            assert!(
                atomic(&h).is_linearizable(),
                "read of {got} should be linearizable"
            );
        }
    }

    #[test]
    fn new_old_inversion_is_not_linearizable() {
        // Two sequential reads, both concurrent with write(2): the first
        // returns the new value, the second the old one. Regular but not
        // atomic — the classic distinction.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 20));
        h.push(read(1, Some(2), 3, 5));
        h.push(read(1, Some(1), 6, 8));
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
        assert!(check_regular_single_writer(&h).unwrap());
    }

    #[test]
    fn phantom_value_is_neither_atomic_nor_regular() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, Some(9), 2, 3));
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
        assert!(!check_regular_single_writer(&h).unwrap());
    }

    #[test]
    fn pending_write_may_or_may_not_take_effect() {
        // Pending write(5): a later read may return 5 …
        let mut h = RegisterHistory::new();
        h.push(OpRecord {
            process: ProcessId::from_raw(0),
            op: RegOp::Write(5),
            invoked: Time::from_ticks(0),
            responded: None,
            response: None,
        });
        h.push(read(1, Some(5), 1, 2));
        assert!(atomic(&h).is_linearizable());
        // … or the initial value.
        let mut h2 = RegisterHistory::new();
        h2.push(OpRecord {
            process: ProcessId::from_raw(0),
            op: RegOp::Write(5),
            invoked: Time::from_ticks(0),
            responded: None,
            response: None,
        });
        h2.push(read(1, None, 1, 2));
        assert!(atomic(&h2).is_linearizable());
    }

    #[test]
    fn witness_is_a_permutation_of_completed_ops() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, Some(1), 2, 3));
        match atomic(&h) {
            Linearizability::Linearizable { witness } => {
                let mut sorted = witness.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1]);
            }
            other => panic!("expected linearizable, got {other}"),
        }
    }

    #[test]
    fn sequential_history_is_sequentially_consistent() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, Some(1), 2, 3));
        h.push(write(0, 2, 4, 5));
        h.push(read(1, Some(2), 6, 7));
        match check_sequentially_consistent(&h).unwrap() {
            Linearizability::Linearizable { witness } => {
                let mut sorted = witness.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2, 3]);
            }
            other => panic!("expected SC, got {other}"),
        }
    }

    #[test]
    fn real_time_stale_read_is_sc_but_not_atomic() {
        // The write completed strictly before the read was invoked, yet
        // the read returns the initial value: a real-time violation that
        // atomicity rejects — but SC ignores real time across processes
        // and legally orders the read before the write.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, None, 2, 3));
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
        assert!(check_sequentially_consistent(&h).unwrap().is_linearizable());
    }

    #[test]
    fn cross_writer_stale_read_is_sc_but_not_atomic() {
        // Writes by *different* processes completed in sequence; a reader
        // then sees the first one. Atomicity forbids it (the second write
        // already finished); SC reorders the independent writers.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(1, 2, 2, 3));
        h.push(read(2, Some(1), 4, 5));
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
        assert!(check_sequentially_consistent(&h).unwrap().is_linearizable());
    }

    #[test]
    fn same_process_new_old_inversion_is_not_sc() {
        // One reader observes the new value then the old one: program
        // order pins the reads AND the single writer's writes, so no total
        // order explains it — SC rejects, exactly like atomicity.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 20));
        h.push(read(1, Some(2), 3, 5));
        h.push(read(1, Some(1), 6, 8));
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
        assert_eq!(
            check_sequentially_consistent(&h).unwrap(),
            Linearizability::NotLinearizable
        );
    }

    #[test]
    fn cross_reader_inversions_are_sc() {
        // Two *different* readers disagree on the order of two writes:
        // forbidden by atomicity, allowed by SC only when each reader's
        // own sequence is explainable. Here reader 1 sees (2) and reader
        // 2 sees (1) — order w1, r2, w2, r1.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 3));
        h.push(read(1, Some(2), 4, 5));
        h.push(read(2, Some(1), 6, 7));
        assert_eq!(atomic(&h), Linearizability::NotLinearizable);
        assert!(check_sequentially_consistent(&h).unwrap().is_linearizable());
    }

    #[test]
    fn phantom_value_is_not_sc() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(read(1, Some(9), 2, 3));
        assert_eq!(
            check_sequentially_consistent(&h).unwrap(),
            Linearizability::NotLinearizable
        );
    }

    #[test]
    fn program_order_of_writes_is_respected_by_sc() {
        // p0 writes 1 then 2 sequentially. A reader that observes 2 and
        // then 1 cannot be explained without reordering p0's own writes.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 3));
        h.push(read(1, Some(2), 4, 5));
        h.push(read(1, Some(1), 6, 7));
        assert_eq!(
            check_sequentially_consistent(&h).unwrap(),
            Linearizability::NotLinearizable
        );
    }

    #[test]
    fn pending_write_may_or_may_not_take_effect_under_sc() {
        let mut pending = RegisterHistory::new();
        pending.push(OpRecord {
            process: ProcessId::from_raw(0),
            op: RegOp::Write(5),
            invoked: Time::from_ticks(0),
            responded: None,
            response: None,
        });
        pending.push(read(1, Some(5), 1, 2));
        assert!(check_sequentially_consistent(&pending)
            .unwrap()
            .is_linearizable());
        let mut skipped = RegisterHistory::new();
        skipped.push(OpRecord {
            process: ProcessId::from_raw(0),
            op: RegOp::Write(5),
            invoked: Time::from_ticks(0),
            responded: None,
            response: None,
        });
        skipped.push(read(1, None, 1, 2));
        assert!(check_sequentially_consistent(&skipped)
            .unwrap()
            .is_linearizable());
    }

    #[test]
    fn linearizable_histories_are_sequentially_consistent() {
        // SC is strictly weaker than atomicity: spot-check the atomic
        // fixtures above through the SC checker.
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 6));
        h.push(read(1, Some(2), 3, 5));
        assert!(atomic(&h).is_linearizable());
        assert!(check_sequentially_consistent(&h).unwrap().is_linearizable());
    }

    #[test]
    fn sc_checker_rejects_malformed_histories() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 10));
        h.push(write(0, 2, 5, 15)); // same process, overlapping
        assert_eq!(
            check_sequentially_consistent(&h),
            Err(CheckError::MalformedHistory)
        );
    }

    #[test]
    fn malformed_history_is_rejected() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 10));
        h.push(write(0, 2, 5, 15)); // same process, overlapping
        assert_eq!(check_atomic(&h), Err(CheckError::MalformedHistory));
    }

    #[test]
    fn multi_writer_regularity_rejected() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(1, 2, 2, 3));
        assert_eq!(
            check_regular_single_writer(&h),
            Err(CheckError::MalformedHistory)
        );
    }

    #[test]
    fn regular_read_of_last_preceding_write() {
        let mut h = RegisterHistory::new();
        h.push(write(0, 1, 0, 1));
        h.push(write(0, 2, 2, 3));
        h.push(read(1, Some(2), 4, 5));
        assert!(check_regular_single_writer(&h).unwrap());
        // A regular read may NOT return an old overwritten value.
        let mut h2 = RegisterHistory::new();
        h2.push(write(0, 1, 0, 1));
        h2.push(write(0, 2, 2, 3));
        h2.push(read(1, Some(1), 4, 5));
        assert!(!check_regular_single_writer(&h2).unwrap());
    }
}
