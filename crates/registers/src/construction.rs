//! Register self-implementations: a reliable 1WMR atomic register from
//! unreliable base registers.
//!
//! Two constructions, after Guerraoui & Raynal:
//!
//! - [`Construction::ResponsiveAll`] — **`t+1` base registers, responsive
//!   crashes.** The writer writes a `(sequence, value)` pair to *every*
//!   base register; a reader reads *every* base register and keeps the pair
//!   with the highest sequence number. Because crashed objects still answer
//!   (`⊥`), waiting for everyone is safe, and at least one base register is
//!   correct, so the freshest pair is at most one write behind.
//!
//! - [`Construction::MajorityQuorum`] — **`2t+1` base registers,
//!   nonresponsive crashes.** Waiting for everyone would block forever, so
//!   both operations proceed after a majority (`t+1`) of responses; any two
//!   majorities intersect in a correct register, which carries the freshest
//!   value across operations.
//!
//! In both constructions a read optionally **writes back** the pair it is
//! about to return (the ABD helping trick). Without write-back the register
//! is only *regular*: two sequential reads concurrent with one write can
//! observe new-then-old — in the responsive construction this arises when a
//! base register crashes after serving the new value, in the majority
//! construction from quorums that miss each other. The ablation experiment
//! exhibits both; with write-back the register is atomic.
//!
//! Values are `(u64 sequence, u64 value)` pairs; the register is
//! single-writer multi-reader, so the writer numbers its own writes.
//! Write-back is *conditional on freshness*: a base object only adopts a
//! pair with a higher sequence number. This models base objects in the
//! responsive/nonresponsive **disk** style (each object is a tiny server
//! applying timestamped updates), the standard reading of the base-object
//! model; see DESIGN.md §4.

use dds_core::rng::Rng;
use dds_core::spec::register::{RegOp, RegResp};

use crate::base::{Access, BaseRegister, ObjectState};
use crate::machine::{respondable, Poll, SteppedRegister};

/// A `(sequence, value)` pair as stored in base registers.
pub type Tagged = (u64, u64);

/// Which self-implementation a [`ReliableRegister`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// `t+1` base registers; write-all / read-all. Correct under
    /// responsive crashes; atomic iff `write_back`.
    ResponsiveAll {
        /// Whether reads write back the value they return.
        write_back: bool,
    },
    /// `2t+1` base registers; majority quorums. Correct under
    /// nonresponsive crashes; atomic iff `write_back`.
    MajorityQuorum {
        /// Whether reads write back the value they return.
        write_back: bool,
    },
}

impl Construction {
    /// Base registers required to tolerate `t` failures.
    pub const fn registers_needed(&self, t: usize) -> usize {
        match self {
            Construction::ResponsiveAll { .. } => t + 1,
            Construction::MajorityQuorum { .. } => 2 * t + 1,
        }
    }

    /// Whether reads help (write back) — required for atomicity.
    pub const fn write_back(&self) -> bool {
        match self {
            Construction::ResponsiveAll { write_back }
            | Construction::MajorityQuorum { write_back } => *write_back,
        }
    }
}

/// A reliable single-writer multi-reader register built from unreliable
/// base registers.
///
/// The struct owns the base-register bank and each client's operation in
/// flight; a scheduler (see [`crate::harness`]) interleaves the operations
/// of concurrent processes through [`SteppedRegister`]. The single-writer
/// discipline is the caller's: writes must be serialized, as the 1WMR
/// specification requires.
#[derive(Debug)]
pub struct ReliableRegister {
    mem: Vec<BaseRegister<Tagged>>,
    construction: Construction,
    t: usize,
    writer_sn: u64,
    running: Vec<Option<Running>>,
}

/// One client's operation in flight.
#[derive(Debug)]
enum Running {
    Write(WriteMachine),
    Read(ReadMachine),
}

impl ReliableRegister {
    /// Creates a register tolerating `t` base failures with the given
    /// construction.
    pub fn new(construction: Construction, t: usize) -> Self {
        let n = construction.registers_needed(t);
        ReliableRegister {
            mem: (0..n).map(|_| BaseRegister::new()).collect(),
            construction,
            t,
            writer_sn: 0,
            running: Vec::new(),
        }
    }

    /// Number of base registers in the bank.
    pub fn bank_size(&self) -> usize {
        self.mem.len()
    }

    /// The tolerated number of failures.
    pub fn tolerance(&self) -> usize {
        self.t
    }

    /// Crashes base register `index` in the given style.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn crash_base(&mut self, index: usize, state: ObjectState) {
        self.mem[index].crash(state);
    }

    /// Total base-object accesses served (the cost metric of E6).
    pub fn total_base_accesses(&self) -> u64 {
        self.mem.iter().map(BaseRegister::accesses).sum()
    }
}

impl SteppedRegister for ReliableRegister {
    fn begin_op(&mut self, client: usize, op: RegOp) {
        let running = match op {
            RegOp::Write(value) => {
                self.writer_sn += 1;
                Running::Write(WriteMachine::new(
                    self.construction,
                    self.t,
                    (self.writer_sn, value),
                ))
            }
            RegOp::Read => {
                Running::Read(ReadMachine::new(self.construction, self.t, self.mem.len()))
            }
        };
        if client >= self.running.len() {
            self.running.resize_with(client + 1, || None);
        }
        self.running[client] = Some(running);
    }

    fn step(&mut self, client: usize, rng: &mut Rng) -> Poll<RegResp> {
        let poll = match self.running[client].as_mut().expect("no operation open") {
            Running::Write(m) => m.step(&mut self.mem, rng).map(|()| RegResp::Ack),
            Running::Read(m) => m.step(&mut self.mem, rng).map(RegResp::Value),
        };
        if poll != Poll::Pending {
            self.running[client] = None;
        }
        poll
    }
}

/// A derived write in progress.
#[derive(Debug, Clone)]
struct WriteMachine {
    construction: Construction,
    quorum: usize,
    pair: Tagged,
    outstanding: Vec<usize>,
    acks: usize,
    started: bool,
}

impl WriteMachine {
    fn new(construction: Construction, t: usize, pair: Tagged) -> Self {
        let quorum = match construction {
            Construction::ResponsiveAll { .. } => t + 1, // wait for all
            Construction::MajorityQuorum { .. } => t + 1, // majority of 2t+1
        };
        WriteMachine {
            construction,
            quorum,
            pair,
            outstanding: Vec::new(),
            acks: 0,
            started: false,
        }
    }

    fn step(&mut self, mem: &mut [BaseRegister<Tagged>], rng: &mut Rng) -> Poll<()> {
        if !self.started {
            self.started = true;
            self.outstanding = (0..mem.len()).collect();
        }
        match self.construction {
            Construction::ResponsiveAll { .. } => {
                // Sequential write-all: every object answers (value or ⊥).
                let Some(&j) = self.outstanding.first() else {
                    return Poll::Done(());
                };
                match mem[j].write(self.pair) {
                    Access::Ready(()) | Access::Bottom => {
                        self.outstanding.remove(0);
                        self.acks += 1;
                        if self.outstanding.is_empty() {
                            Poll::Done(())
                        } else {
                            Poll::Pending
                        }
                    }
                    // Deployed against the wrong failure model: block.
                    Access::Never => Poll::Stuck,
                }
            }
            Construction::MajorityQuorum { .. } => {
                if self.acks >= self.quorum {
                    return Poll::Done(());
                }
                let candidates = respondable(mem, &self.outstanding);
                let Some(&j) = rng.choose(&candidates) else {
                    return Poll::Stuck; // too many nonresponsive crashes
                };
                match mem[j].write(self.pair) {
                    Access::Ready(()) | Access::Bottom => {
                        self.outstanding.retain(|&x| x != j);
                        self.acks += 1;
                        if self.acks >= self.quorum {
                            Poll::Done(())
                        } else {
                            Poll::Pending
                        }
                    }
                    Access::Never => unreachable!("respondable() excluded it"),
                }
            }
        }
    }
}

/// A derived read in progress.
#[derive(Debug, Clone)]
struct ReadMachine {
    construction: Construction,
    quorum: usize,
    phase: ReadPhase,
    outstanding: Vec<usize>,
    responses: usize,
    best: Option<Tagged>,
    bank: usize,
    started: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadPhase {
    Collect,
    WriteBack,
}

impl ReadMachine {
    fn new(construction: Construction, t: usize, bank: usize) -> Self {
        ReadMachine {
            construction,
            quorum: t + 1,
            phase: ReadPhase::Collect,
            outstanding: Vec::new(),
            responses: 0,
            best: None,
            bank,
            started: false,
        }
    }

    fn fold(&mut self, pair: Option<Tagged>) {
        if let Some(p) = pair {
            if self.best.is_none_or(|b| p.0 > b.0) {
                self.best = Some(p);
            }
        }
    }

    fn step(&mut self, mem: &mut [BaseRegister<Tagged>], rng: &mut Rng) -> Poll<Option<u64>> {
        if !self.started {
            self.started = true;
            self.outstanding = (0..self.bank).collect();
        }
        match (self.construction, self.phase) {
            (Construction::ResponsiveAll { write_back }, ReadPhase::Collect) => {
                let Some(&j) = self.outstanding.first() else {
                    return Poll::Done(self.best.map(|(_, v)| v));
                };
                match mem[j].read() {
                    Access::Ready(pair) => {
                        self.fold(pair);
                        self.outstanding.remove(0);
                    }
                    Access::Bottom => {
                        self.outstanding.remove(0);
                    }
                    Access::Never => return Poll::Stuck,
                }
                if !self.outstanding.is_empty() {
                    return Poll::Pending;
                }
                match (write_back, self.best) {
                    (true, Some(_)) => {
                        self.phase = ReadPhase::WriteBack;
                        self.outstanding = (0..self.bank).collect();
                        self.responses = 0;
                        Poll::Pending
                    }
                    _ => Poll::Done(self.best.map(|(_, v)| v)),
                }
            }
            (Construction::ResponsiveAll { .. }, ReadPhase::WriteBack) => {
                let pair = self.best.expect("write-back only with a value");
                let Some(&j) = self.outstanding.first() else {
                    return Poll::Done(self.best.map(|(_, v)| v));
                };
                // Conditional adoption: only overwrite staler pairs (see the
                // module docs on the disk-style base-object model).
                match mem[j].read() {
                    Access::Ready(existing) => {
                        if existing.is_none_or(|e| e.0 < pair.0) {
                            let _ = mem[j].write(pair);
                        }
                    }
                    Access::Bottom => {}
                    Access::Never => return Poll::Stuck,
                }
                self.outstanding.remove(0);
                if self.outstanding.is_empty() {
                    Poll::Done(self.best.map(|(_, v)| v))
                } else {
                    Poll::Pending
                }
            }
            (Construction::MajorityQuorum { write_back }, ReadPhase::Collect) => {
                let candidates = respondable(mem, &self.outstanding);
                let Some(&j) = rng.choose(&candidates) else {
                    return Poll::Stuck;
                };
                match mem[j].read() {
                    Access::Ready(pair) => self.fold(pair),
                    Access::Bottom => {}
                    Access::Never => unreachable!("respondable() excluded it"),
                }
                self.outstanding.retain(|&x| x != j);
                self.responses += 1;
                if self.responses < self.quorum {
                    return Poll::Pending;
                }
                match (write_back, self.best) {
                    (true, Some(_)) => {
                        self.phase = ReadPhase::WriteBack;
                        self.outstanding = (0..self.bank).collect();
                        self.responses = 0;
                        Poll::Pending
                    }
                    _ => Poll::Done(self.best.map(|(_, v)| v)),
                }
            }
            (Construction::MajorityQuorum { .. }, ReadPhase::WriteBack) => {
                let pair = self.best.expect("write-back only with a value");
                let candidates = respondable(mem, &self.outstanding);
                let Some(&j) = rng.choose(&candidates) else {
                    return Poll::Stuck;
                };
                // Only overwrite with fresher-or-equal pairs; base registers
                // hold whatever was last written, so guard at this layer.
                match mem[j].read() {
                    Access::Ready(existing) => {
                        if existing.is_none_or(|e| e.0 < pair.0) {
                            let _ = mem[j].write(pair);
                        }
                    }
                    Access::Bottom => {}
                    Access::Never => unreachable!("respondable() excluded it"),
                }
                self.outstanding.retain(|&x| x != j);
                self.responses += 1;
                if self.responses >= self.quorum {
                    Poll::Done(self.best.map(|(_, v)| v))
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `op` alone (as client 0) until it ends, or `Stuck` after
    /// `max_steps`.
    fn drive(
        reg: &mut ReliableRegister,
        op: RegOp,
        rng: &mut Rng,
        max_steps: usize,
    ) -> Poll<RegResp> {
        reg.begin_op(0, op);
        for _ in 0..max_steps {
            match reg.step(0, rng) {
                Poll::Pending => continue,
                done => return done,
            }
        }
        Poll::Stuck
    }

    #[test]
    fn responsive_all_sequential_read_write() {
        let mut reg = ReliableRegister::new(Construction::ResponsiveAll { write_back: true }, 2);
        assert_eq!(reg.bank_size(), 3);
        let mut rng = Rng::seeded(1);
        assert_eq!(
            drive(&mut reg, RegOp::Write(42), &mut rng, 100),
            Poll::Done(RegResp::Ack)
        );
        assert_eq!(
            drive(&mut reg, RegOp::Read, &mut rng, 100),
            Poll::Done(RegResp::Value(Some(42)))
        );
    }

    #[test]
    fn responsive_all_survives_t_responsive_crashes() {
        let t = 3;
        let mut reg = ReliableRegister::new(Construction::ResponsiveAll { write_back: true }, t);
        let mut rng = Rng::seeded(2);
        drive(&mut reg, RegOp::Write(7), &mut rng, 100);
        for i in 0..t {
            reg.crash_base(i, ObjectState::CrashedResponsive);
        }
        assert_eq!(
            drive(&mut reg, RegOp::Read, &mut rng, 100),
            Poll::Done(RegResp::Value(Some(7)))
        );
    }

    #[test]
    fn responsive_all_blocks_under_nonresponsive_crash() {
        // The t+1 construction deployed against the wrong failure model.
        let mut reg = ReliableRegister::new(Construction::ResponsiveAll { write_back: true }, 1);
        reg.crash_base(0, ObjectState::CrashedNonresponsive);
        let mut rng = Rng::seeded(3);
        assert_eq!(drive(&mut reg, RegOp::Read, &mut rng, 100), Poll::Stuck);
    }

    #[test]
    fn majority_survives_t_nonresponsive_crashes() {
        let t = 2;
        let mut reg = ReliableRegister::new(Construction::MajorityQuorum { write_back: true }, t);
        assert_eq!(reg.bank_size(), 5);
        let mut rng = Rng::seeded(4);
        assert_eq!(
            drive(&mut reg, RegOp::Write(99), &mut rng, 1000),
            Poll::Done(RegResp::Ack)
        );
        for i in 0..t {
            reg.crash_base(i, ObjectState::CrashedNonresponsive);
        }
        assert_eq!(
            drive(&mut reg, RegOp::Read, &mut rng, 1000),
            Poll::Done(RegResp::Value(Some(99)))
        );
    }

    #[test]
    fn majority_blocks_past_tolerance() {
        let t = 1;
        let mut reg = ReliableRegister::new(Construction::MajorityQuorum { write_back: true }, t);
        for i in 0..2 {
            // t+1 nonresponsive crashes: no majority can respond.
            reg.crash_base(i, ObjectState::CrashedNonresponsive);
        }
        let mut rng = Rng::seeded(5);
        assert_eq!(
            drive(&mut reg, RegOp::Write(1), &mut rng, 1000),
            Poll::Stuck
        );
    }

    #[test]
    fn read_of_fresh_register_returns_bottom() {
        let mut reg = ReliableRegister::new(Construction::ResponsiveAll { write_back: true }, 1);
        let mut rng = Rng::seeded(6);
        assert_eq!(
            drive(&mut reg, RegOp::Read, &mut rng, 100),
            Poll::Done(RegResp::Value(None))
        );
    }

    #[test]
    fn sequence_numbers_pick_latest_write() {
        let mut reg = ReliableRegister::new(Construction::ResponsiveAll { write_back: true }, 1);
        let mut rng = Rng::seeded(7);
        for v in [10, 20, 30] {
            drive(&mut reg, RegOp::Write(v), &mut rng, 100);
        }
        assert_eq!(
            drive(&mut reg, RegOp::Read, &mut rng, 100),
            Poll::Done(RegResp::Value(Some(30)))
        );
    }

    #[test]
    fn cost_scales_with_bank_size() {
        let mut reg = ReliableRegister::new(Construction::ResponsiveAll { write_back: true }, 4);
        let mut rng = Rng::seeded(8);
        drive(&mut reg, RegOp::Write(1), &mut rng, 100);
        assert_eq!(reg.total_base_accesses(), 5, "one write per base register");
    }
}
