//! A register in a dynamic distributed system — the paper's closing
//! question, made executable.
//!
//! The paper ends by asking which classical problems remain solvable once
//! the system is dynamic; the authors' own follow-up answers for the
//! *register*. This module implements that direction: a single-writer
//! register whose value lives **only** in the currently-present processes,
//! maintained under churn by three mechanisms:
//!
//! - **state transfer on join** — a joiner asks its neighbors for the
//!   freshest `(sequence, value)` pair before participating;
//! - **flooded writes** — the writer floods `(sn, v)` with a TTL equal to
//!   the diameter bound; every process adopts fresher pairs and re-floods;
//! - **flooded reads** — a reader floods a request, folds the replies for
//!   a synchrony-derived window, and returns the freshest pair it saw.
//!
//! Under bounded churn with persistent connectivity (the solvable classes)
//! the register is **regular**: reads return the latest completed write or
//! a concurrent one. Push churn past the frontier and written values
//! *vanish* — every process that ever held the pair has left, and reads
//! regress to older values. Experiment E10 measures exactly that
//! survivability cliff; the histories are judged by the regularity checker
//! of `dds-core`.

use std::collections::BTreeSet;

use dds_core::process::ProcessId;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{RegOp, RegResp, RegisterHistory};
use dds_core::time::{Time, TimeDelta};
use dds_sim::actor::{Actor, Context};
use dds_sim::event::TimerId;

/// A `(sequence, value)` pair; higher sequence is fresher.
pub type Tagged = (u64, u64);

/// Messages of the churn-tolerant register.
#[derive(Debug, Clone, PartialEq)]
pub enum RegMsg {
    /// Injected at the writer: perform `write(value)`.
    Write {
        /// The value to write.
        value: u64,
    },
    /// Injected at a reader: perform `read()`.
    Read,
    /// Injected at a process: leave the system gracefully (used by
    /// experiments where the writer departs after writing, so the value
    /// must survive in the crowd).
    Depart,
    /// State-transfer request from a joiner.
    SyncReq,
    /// State-transfer reply.
    SyncRep {
        /// The replier's current pair, if it holds one.
        pair: Option<Tagged>,
    },
    /// The write wave.
    WriteFlood {
        /// The pair being installed.
        pair: Tagged,
        /// Remaining hops.
        ttl: u32,
    },
    /// The read wave.
    ReadReq {
        /// The reading process (replies go straight back to it).
        reader: ProcessId,
        /// Read identifier at the reader.
        rid: u64,
        /// Remaining hops.
        ttl: u32,
    },
    /// A read reply.
    ReadRep {
        /// Which read this answers.
        rid: u64,
        /// The replier's pair, if any.
        pair: Option<Tagged>,
    },
}

/// Configuration of the register protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegisterConfig {
    /// Diameter bound used as flood TTL.
    pub ttl: u32,
    /// Per-hop delay bound used to size operation windows.
    pub delta: TimeDelta,
}

impl RegisterConfig {
    /// The duration after which a flooded operation is considered settled:
    /// the wave travels at most `ttl` hops out and replies one hop back
    /// per level.
    fn op_window(&self) -> TimeDelta {
        self.delta.saturating_mul(2 * (u64::from(self.ttl) + 1))
    }
}

/// One completed high-level operation, logged by the actor for the
/// harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedOp {
    /// What was invoked.
    pub op: RegOp,
    /// Invocation instant.
    pub invoked: Time,
    /// Response instant.
    pub responded: Time,
    /// The response (`Ack` for writes, the value for reads).
    pub response: RegResp,
}

/// A pending read at the reader.
#[derive(Debug, Clone)]
struct PendingRead {
    rid: u64,
    invoked: Time,
    best: Option<Tagged>,
    timer: TimerId,
}

/// A pending write at the writer.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    invoked: Time,
    timer: TimerId,
}

/// One process of the churn-tolerant register.
#[derive(Debug)]
pub struct RegisterActor {
    config: RegisterConfig,
    pair: Option<Tagged>,
    /// Writer-local sequence counter (single writer).
    writer_sn: u64,
    /// Pairs already re-flooded, to stop the wave (by sequence number —
    /// single writer, so the sequence identifies the write).
    flooded: BTreeSet<u64>,
    /// Read requests already re-flooded, by (reader, rid).
    relayed_reads: BTreeSet<(ProcessId, u64)>,
    next_rid: u64,
    pending_read: Option<PendingRead>,
    pending_write: Option<PendingWrite>,
    log: Vec<LoggedOp>,
}

impl RegisterActor {
    /// Creates a register replica.
    pub fn new(config: RegisterConfig) -> Self {
        RegisterActor {
            config,
            pair: None,
            writer_sn: 0,
            flooded: BTreeSet::new(),
            relayed_reads: BTreeSet::new(),
            next_rid: 0,
            pending_read: None,
            pending_write: None,
            log: Vec::new(),
        }
    }

    /// The operations this process completed.
    pub fn log(&self) -> &[LoggedOp] {
        &self.log
    }

    /// The replica's current pair (observability).
    pub fn pair(&self) -> Option<Tagged> {
        self.pair
    }

    fn adopt(&mut self, candidate: Option<Tagged>) {
        if let Some(p) = candidate {
            if self.pair.is_none_or(|mine| mine.0 < p.0) {
                self.pair = Some(p);
            }
        }
    }

    fn flood_write(&mut self, ctx: &mut Context<'_, RegMsg>, pair: Tagged, ttl: u32) {
        if !self.flooded.insert(pair.0) {
            return;
        }
        if ttl > 0 {
            ctx.broadcast(RegMsg::WriteFlood { pair, ttl: ttl - 1 });
        }
    }
}

impl Actor<RegMsg> for RegisterActor {
    fn on_start(&mut self, ctx: &mut Context<'_, RegMsg>) {
        // State transfer: ask the neighborhood for the freshest pair.
        ctx.broadcast(RegMsg::SyncReq);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RegMsg>, from: ProcessId, msg: RegMsg) {
        match msg {
            RegMsg::Write { value } => {
                self.writer_sn += 1;
                let pair = (self.writer_sn, value);
                self.adopt(Some(pair));
                self.flood_write(ctx, pair, self.config.ttl);
                let timer = ctx.set_timer(self.config.op_window());
                self.pending_write = Some(PendingWrite {
                    invoked: ctx.now(),
                    timer,
                });
            }
            RegMsg::Read => {
                let rid = self.next_rid;
                self.next_rid += 1;
                let me = ctx.pid();
                if self.config.ttl > 0 {
                    ctx.broadcast(RegMsg::ReadReq {
                        reader: me,
                        rid,
                        ttl: self.config.ttl - 1,
                    });
                }
                self.relayed_reads.insert((me, rid));
                let timer = ctx.set_timer(self.config.op_window());
                self.pending_read = Some(PendingRead {
                    rid,
                    invoked: ctx.now(),
                    best: self.pair,
                    timer,
                });
            }
            RegMsg::Depart => {
                ctx.leave();
            }
            RegMsg::SyncReq => {
                ctx.send(from, RegMsg::SyncRep { pair: self.pair });
            }
            RegMsg::SyncRep { pair } => {
                self.adopt(pair);
            }
            RegMsg::WriteFlood { pair, ttl } => {
                self.adopt(Some(pair));
                self.flood_write(ctx, pair, ttl);
            }
            RegMsg::ReadReq { reader, rid, ttl } => {
                if self.relayed_reads.insert((reader, rid)) {
                    ctx.send(
                        reader,
                        RegMsg::ReadRep {
                            rid,
                            pair: self.pair,
                        },
                    );
                    if ttl > 0 {
                        ctx.broadcast(RegMsg::ReadReq {
                            reader,
                            rid,
                            ttl: ttl - 1,
                        });
                    }
                }
            }
            RegMsg::ReadRep { rid, pair } => {
                if let Some(pending) = self.pending_read.as_mut() {
                    if pending.rid == rid {
                        if let Some(p) = pair {
                            if pending.best.is_none_or(|b| b.0 < p.0) {
                                pending.best = Some(p);
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, RegMsg>, timer: TimerId) {
        if let Some(w) = self.pending_write {
            if w.timer == timer {
                self.pending_write = None;
                self.log.push(LoggedOp {
                    op: RegOp::Write(self.pair.expect("writer holds its own write").1),
                    invoked: w.invoked,
                    responded: ctx.now(),
                    response: RegResp::Ack,
                });
                return;
            }
        }
        let finished = self.pending_read.as_ref().is_some_and(|r| r.timer == timer);
        if finished {
            let r = self.pending_read.take().expect("checked");
            // A read also installs what it learned (helping, as in the
            // quorum constructions).
            self.adopt(r.best);
            self.log.push(LoggedOp {
                op: RegOp::Read,
                invoked: r.invoked,
                responded: ctx.now(),
                response: RegResp::Value(r.best.map(|(_, v)| v)),
            });
        }
    }
}

/// Builds a [`RegisterHistory`] from the logs of the given processes
/// (present or departed) of a finished world.
///
/// The writer's value is recovered from its log, so histories feed
/// directly into `dds-core`'s regularity/atomicity checkers.
pub fn history_from_world(
    world: &dds_sim::world::World<RegMsg>,
    processes: impl IntoIterator<Item = ProcessId>,
) -> RegisterHistory {
    let mut records: Vec<OpRecord<RegOp, RegResp>> = Vec::new();
    for pid in processes {
        let Some(actor) = world.actor::<RegisterActor>(pid) else {
            continue;
        };
        for op in actor.log() {
            records.push(OpRecord {
                process: pid,
                op: op.op,
                invoked: op.invoked,
                responded: Some(op.responded),
                response: Some(op.response),
            });
        }
    }
    records.sort_by_key(|r| (r.invoked, r.process));
    let mut history = RegisterHistory::new();
    for r in records {
        history.push(r);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::spec::register::check_regular_single_writer;
    use dds_net::generate;
    use dds_sim::delay::DelayModel;
    use dds_sim::driver::BalancedChurn;
    use dds_sim::world::{World, WorldBuilder};

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn config() -> RegisterConfig {
        RegisterConfig {
            ttl: 5,
            delta: TimeDelta::TICK,
        }
    }

    fn world(seed: u64) -> World<RegMsg> {
        WorldBuilder::new(seed)
            .initial_graph(generate::torus(3, 3))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .spawn(|_| Box::new(RegisterActor::new(config())))
            .build()
    }

    #[test]
    fn sequential_write_then_read() {
        let mut w = world(1);
        w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 42 });
        w.inject(Time::from_ticks(40), pid(4), RegMsg::Read);
        w.run_until(Time::from_ticks(100));
        let reader: &RegisterActor = w.actor(pid(4)).unwrap();
        assert_eq!(
            reader.log().last().map(|o| o.response),
            Some(RegResp::Value(Some(42)))
        );
    }

    #[test]
    fn read_before_any_write_returns_bottom() {
        let mut w = world(2);
        w.inject(Time::from_ticks(1), pid(3), RegMsg::Read);
        w.run_until(Time::from_ticks(100));
        let reader: &RegisterActor = w.actor(pid(3)).unwrap();
        assert_eq!(
            reader.log().last().map(|o| o.response),
            Some(RegResp::Value(None))
        );
    }

    #[test]
    fn later_write_wins() {
        let mut w = world(3);
        w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 1 });
        w.inject(Time::from_ticks(30), pid(0), RegMsg::Write { value: 2 });
        w.inject(Time::from_ticks(70), pid(8), RegMsg::Read);
        w.run_until(Time::from_ticks(150));
        let reader: &RegisterActor = w.actor(pid(8)).unwrap();
        assert_eq!(
            reader.log().last().map(|o| o.response),
            Some(RegResp::Value(Some(2)))
        );
    }

    #[test]
    fn histories_are_regular_without_churn() {
        for seed in 0..20 {
            let mut w = world(seed);
            w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 10 });
            w.inject(Time::from_ticks(20), pid(5), RegMsg::Read);
            w.inject(Time::from_ticks(30), pid(0), RegMsg::Write { value: 20 });
            w.inject(Time::from_ticks(45), pid(7), RegMsg::Read);
            w.inject(Time::from_ticks(80), pid(5), RegMsg::Read);
            w.run_until(Time::from_ticks(200));
            let history = history_from_world(&w, (0..9).map(pid));
            assert!(
                check_regular_single_writer(&history).unwrap(),
                "seed {seed}:\n{history}"
            );
        }
    }

    #[test]
    fn value_survives_bounded_churn() {
        use dds_core::churn::ChurnSpec;
        // 5% churn per 10 ticks; the writer (p0) is protected. The value
        // written at t=1 must still be readable at t=300, long after many
        // of the original holders left — state transfer keeps it alive.
        let spec = ChurnSpec::rate(0.05, TimeDelta::ticks(10)).unwrap();
        let mut w: World<RegMsg> = WorldBuilder::new(7)
            .initial_graph(generate::torus(3, 3))
            .delay(DelayModel::Fixed(TimeDelta::TICK))
            .driver(BalancedChurn::new(spec).with_protected(pid(0)))
            .spawn(|_| Box::new(RegisterActor::new(config())))
            .build();
        w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 77 });
        w.run_until(Time::from_ticks(300));
        // Read from whoever is currently present besides the writer.
        let member = *w
            .members()
            .iter()
            .find(|&&m| m != pid(0))
            .expect("nonempty");
        w.inject(Time::from_ticks(301), member, RegMsg::Read);
        w.run_until(Time::from_ticks(400));
        let reader: &RegisterActor = w.actor(member).unwrap();
        assert_eq!(
            reader.log().last().map(|o| o.response),
            Some(RegResp::Value(Some(77))),
            "the value must survive churn via state transfer"
        );
    }

    #[test]
    fn departed_writer_leaves_the_value_behind() {
        let mut w = world(11);
        w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 9 });
        w.inject(Time::from_ticks(40), pid(0), RegMsg::Depart);
        w.inject(Time::from_ticks(50), pid(6), RegMsg::Read);
        w.run_until(Time::from_ticks(150));
        assert!(!w.members().contains(&pid(0)));
        let reader: &RegisterActor = w.actor(pid(6)).unwrap();
        assert_eq!(
            reader.log().last().map(|o| o.response),
            Some(RegResp::Value(Some(9)))
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut w = world(seed);
            w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 5 });
            w.inject(Time::from_ticks(30), pid(2), RegMsg::Read);
            w.run_until(Time::from_ticks(100));
            w.metrics().sends
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn concurrent_read_returns_old_or_new() {
        // A read overlapping the write window may see either value;
        // regularity requires nothing more.
        for seed in 0..20 {
            let mut w = world(100 + seed);
            w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 1 });
            w.inject(Time::from_ticks(40), pid(0), RegMsg::Write { value: 2 });
            w.inject(Time::from_ticks(42), pid(8), RegMsg::Read); // overlaps write(2)
            w.run_until(Time::from_ticks(200));
            let reader: &RegisterActor = w.actor(pid(8)).unwrap();
            let got = reader.log().last().map(|o| o.response);
            assert!(
                got == Some(RegResp::Value(Some(1))) || got == Some(RegResp::Value(Some(2))),
                "seed {seed}: got {got:?}"
            );
            let history = history_from_world(&w, (0..9).map(pid));
            assert!(check_regular_single_writer(&history).unwrap());
        }
    }
}
