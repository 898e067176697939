//! Consensus self-implementation: reliable consensus from `t+1` unreliable
//! consensus objects with **responsive** crashes — and the demonstration
//! that no such construction survives **nonresponsive** crashes.
//!
//! The Guerraoui–Raynal construction: the objects are visited *in order*.
//! Each process keeps an estimate (initially its proposal), proposes it to
//! object `1`, then `2`, …, adopting the object's answer whenever the
//! object responds (a crashed object answers `⊥`, which the process
//! ignores). After object `t+1` it decides its estimate.
//!
//! Why it works: at most `t` objects crash, so some object `k*` is correct.
//! Every process that reaches `k*` receives the *same* answer `w` (the
//! object solves consensus among the values proposed to it), so after `k*`
//! every estimate equals `w`; later objects can only echo values proposed
//! to them — all `w`. Every process decides `w`.
//!
//! Under nonresponsive crashes the same algorithm *blocks*: a process
//! proposing to a crashed object waits forever, and no algorithm can do
//! better — helping is impossible because waiting on any single object can
//! be made fatal. [`run_consensus`] makes both halves executable.

use std::collections::BTreeMap;

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::spec::consensus::ConsensusRun;

use crate::base::{Access, BaseConsensus, ObjectState};

/// A bank of `t+1` unreliable consensus objects.
#[derive(Debug, Clone, Default)]
pub struct ConsensusBank {
    objs: Vec<BaseConsensus>,
}

impl ConsensusBank {
    /// Creates a bank tolerating `t` object failures (`t + 1` objects).
    pub fn new(t: usize) -> Self {
        ConsensusBank {
            objs: (0..=t).map(|_| BaseConsensus::new()).collect(),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// `true` when the bank is empty (never for constructed banks).
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    /// Crashes object `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn crash(&mut self, index: usize, state: ObjectState) {
        self.objs[index].crash(state);
    }

    /// Total base-object accesses (cost metric of E7).
    pub fn total_accesses(&self) -> u64 {
        self.objs.iter().map(BaseConsensus::accesses).sum()
    }
}

/// One process executing the sequential-visit algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusProc {
    /// The process identity.
    pub pid: ProcessId,
    est: u64,
    next_obj: usize,
    decided: Option<u64>,
    blocked: bool,
}

impl ConsensusProc {
    /// Creates a participant proposing `proposal`.
    pub fn new(pid: ProcessId, proposal: u64) -> Self {
        ConsensusProc {
            pid,
            est: proposal,
            next_obj: 0,
            decided: None,
            blocked: false,
        }
    }

    /// The decision, once taken.
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// `true` when the process is waiting on an object that will never
    /// answer.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Visits the next object. Returns `true` while progress is possible.
    pub fn step(&mut self, bank: &mut ConsensusBank) -> bool {
        if self.decided.is_some() || self.blocked {
            return false;
        }
        if self.next_obj >= bank.objs.len() {
            self.decided = Some(self.est);
            return false;
        }
        match bank.objs[self.next_obj].propose(self.est) {
            Access::Ready(w) => {
                self.est = w;
                self.next_obj += 1;
            }
            Access::Bottom => {
                // Responsive crash: skip the object, keep the estimate.
                self.next_obj += 1;
            }
            Access::Never => {
                // Nonresponsive crash: wait forever.
                self.blocked = true;
                return false;
            }
        }
        if self.next_obj >= bank.objs.len() {
            self.decided = Some(self.est);
            return false;
        }
        true
    }
}

/// Runs the construction with the given proposals, crash plan (object
/// index → state, fired before any step), interleaving seed. Returns the
/// [`ConsensusRun`] for the specification checker, plus which processes
/// blocked.
pub fn run_consensus(
    t: usize,
    proposals: &[u64],
    crashes: &BTreeMap<usize, ObjectState>,
    seed: u64,
) -> (ConsensusRun, Vec<ProcessId>, ConsensusBank) {
    let mut bank = ConsensusBank::new(t);
    for (&i, &s) in crashes {
        bank.crash(i, s);
    }
    let mut rng = Rng::seeded(seed);
    let mut procs: Vec<ConsensusProc> = proposals
        .iter()
        .enumerate()
        .map(|(i, &v)| ConsensusProc::new(ProcessId::from_raw(i as u64), v))
        .collect();
    let mut run = ConsensusRun::new();
    for p in &procs {
        run.propose(p.pid, proposals[p.pid.as_raw() as usize]);
    }
    loop {
        let active: Vec<usize> = procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.decision().is_none() && !p.is_blocked())
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            break;
        }
        let &i = rng.choose(&active).expect("nonempty");
        procs[i].step(&mut bank);
    }
    let mut blocked = Vec::new();
    for p in &procs {
        match p.decision() {
            Some(v) => run.decide(p.pid, v),
            None => blocked.push(p.pid),
        }
    }
    (run, blocked, bank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::spec::consensus::check_consensus;

    #[test]
    fn failure_free_consensus_is_correct() {
        for seed in 0..30 {
            let (run, blocked, _) = run_consensus(2, &[10, 20, 30], &BTreeMap::new(), seed);
            assert!(blocked.is_empty());
            let report = check_consensus(&run);
            assert!(report.is_correct(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn survives_t_responsive_crashes() {
        for seed in 0..30 {
            let crashes: BTreeMap<usize, ObjectState> = [
                (0, ObjectState::CrashedResponsive),
                (2, ObjectState::CrashedResponsive),
            ]
            .into();
            let (run, blocked, _) = run_consensus(2, &[5, 6, 7, 8], &crashes, seed);
            assert!(blocked.is_empty());
            let report = check_consensus(&run);
            assert!(report.is_correct(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn all_objects_responsive_crashed_still_agrees_only_by_luck() {
        // With every object crashed, each process decides its own estimate:
        // agreement generally fails — this is beyond the tolerated t, and
        // shows t+1 is tight.
        let crashes: BTreeMap<usize, ObjectState> = [
            (0, ObjectState::CrashedResponsive),
            (1, ObjectState::CrashedResponsive),
        ]
        .into();
        let (run, blocked, _) = run_consensus(1, &[1, 2], &crashes, 0);
        assert!(blocked.is_empty(), "responsive crashes never block");
        let report = check_consensus(&run);
        assert!(!report.agreement, "t+1 crashes break agreement");
        assert!(report.validity, "decisions are still proposals");
    }

    #[test]
    fn one_nonresponsive_crash_blocks_the_construction() {
        // The impossibility, constructively: whichever single object
        // crashes nonresponsively, some (here: every) process that reaches
        // it waits forever — termination fails.
        for seed in 0..10 {
            let crashes: BTreeMap<usize, ObjectState> =
                [(0, ObjectState::CrashedNonresponsive)].into();
            let (run, blocked, _) = run_consensus(1, &[3, 4, 5], &crashes, seed);
            assert!(
                !blocked.is_empty(),
                "seed {seed}: nobody should get past object 0"
            );
            let report = check_consensus(&run);
            assert!(!report.termination, "seed {seed}: {report}");
        }
    }

    #[test]
    fn nonresponsive_crash_of_later_object_blocks_after_agreement_formed() {
        let crashes: BTreeMap<usize, ObjectState> = [(1, ObjectState::CrashedNonresponsive)].into();
        let (run, blocked, _) = run_consensus(1, &[9, 10], &crashes, 1);
        // Everyone passes object 0 and blocks on object 1.
        assert_eq!(blocked.len(), 2);
        assert!(!check_consensus(&run).termination);
    }

    #[test]
    fn cost_is_at_most_t_plus_one_per_process() {
        let (_, _, bank) = run_consensus(3, &[1, 2, 3, 4, 5], &BTreeMap::new(), 7);
        assert!(bank.total_accesses() <= 5 * 4, "5 procs x (t+1) objects");
        assert_eq!(bank.len(), 4);
    }

    #[test]
    fn single_process_decides_its_own_proposal() {
        let (run, blocked, _) = run_consensus(2, &[42], &BTreeMap::new(), 3);
        assert!(blocked.is_empty());
        assert!(check_consensus(&run).is_correct());
        assert_eq!(run.decisions.values().next(), Some(&42));
    }
}
