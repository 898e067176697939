//! The crate's step contract.
//!
//! A derived operation (a read or write of a register built from weaker or
//! unreliable base objects) is not atomic: it is a sequence of base-object
//! accesses, and operations of different processes interleave. Every
//! construction of the crate — the reliable registers of
//! [`crate::construction`] and the five rungs of
//! [`crate::transformations`] — is a [`SteppedRegister`]: the scheduler
//! ([`crate::harness`]) opens an operation for a client with
//! [`SteppedRegister::begin_op`] and advances it one base access per
//! [`SteppedRegister::step`]; the adversary (a seeded scheduler or an
//! explicit plan) chooses the interleaving, and the resulting histories are
//! judged by the checkers of `dds-core`.
//!
//! An operation can end [`Poll::Stuck`]: it waits for a response that will
//! never come. That is not a bug of the framework — it is the observable
//! behaviour of an algorithm deployed against a failure model it was not
//! designed for (e.g. the `t+1` wait-for-all construction under a
//! nonresponsive crash), and several experiments assert exactly that. The
//! ladder constructions never end stuck.

use dds_core::rng::Rng;
use dds_core::spec::register::{RegOp, RegResp};

use crate::base::BaseRegister;

/// The result of advancing an operation one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll<R> {
    /// The operation completed with this result.
    Done(R),
    /// More steps needed.
    Pending,
    /// The operation can never complete (waiting on objects that will
    /// never respond).
    Stuck,
}

impl<R> Poll<R> {
    /// Maps a [`Poll::Done`] result.
    pub(crate) fn map<S>(self, f: impl FnOnce(R) -> S) -> Poll<S> {
        match self {
            Poll::Done(r) => Poll::Done(f(r)),
            Poll::Pending => Poll::Pending,
            Poll::Stuck => Poll::Stuck,
        }
    }
}

/// A register steppable one base access at a time.
///
/// Clients are identified by index; constructions enforce their own writer
/// disciplines (documented per type).
pub trait SteppedRegister {
    /// Opens `op` for `client`, which has no operation open. Opening
    /// accesses no base object.
    ///
    /// # Panics
    ///
    /// Implementations panic when the operation violates the construction's
    /// writer discipline (e.g. a second writer on a 1W register).
    fn begin_op(&mut self, client: usize, op: RegOp);

    /// Advances `client`'s open operation by one base access. After
    /// [`Poll::Done`] or [`Poll::Stuck`] the client has no operation open.
    fn step(&mut self, client: usize, rng: &mut Rng) -> Poll<RegResp>;

    /// The value the register is born holding, if not `⊥`. The scheduler
    /// records it as a zero-duration write by client 0 at time 0, before
    /// every scripted operation, so the checkers account for it.
    fn initial(&self) -> Option<u64> {
        None
    }
}

/// Helper for quorum machines: indices of outstanding base objects that
/// can still respond (alive or responsive-crashed). Nonresponsive objects
/// never make this list — their responses never arrive.
pub(crate) fn respondable<T: Clone>(mem: &[BaseRegister<T>], outstanding: &[usize]) -> Vec<usize> {
    outstanding
        .iter()
        .copied()
        .filter(|&j| mem[j].state() != crate::base::ObjectState::CrashedNonresponsive)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::ObjectState;

    #[test]
    fn poll_map_keeps_pending_and_stuck() {
        assert_eq!(Poll::Done(5).map(|v| v + 1), Poll::Done(6));
        assert_eq!(Poll::<u8>::Pending.map(|v| v + 1), Poll::Pending);
        assert_eq!(Poll::<u8>::Stuck.map(|v| v + 1), Poll::Stuck);
    }

    #[test]
    fn respondable_excludes_nonresponsive() {
        let mut mem: Vec<BaseRegister<u64>> = (0..4).map(|_| BaseRegister::new()).collect();
        mem[1].crash(ObjectState::CrashedNonresponsive);
        mem[2].crash(ObjectState::CrashedResponsive);
        let out = vec![0, 1, 2, 3];
        assert_eq!(respondable(&mem, &out), vec![0, 2, 3]);
    }
}
