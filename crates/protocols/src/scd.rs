//! SCD-broadcast — Set-Constrained Delivery — and its derived objects.
//!
//! Imbs, Mostéfaoui, Perrin & Raynal's SCD-broadcast (PAPERS.md) weakens
//! total-order broadcast just enough to stay cheap while remaining strong
//! enough to build read/write memory on top: processes deliver **sets** of
//! messages (not single messages), and the only ordering constraint is
//! that no two processes see conflicting set orders — if `p` delivers a
//! set containing `m` strictly before one containing `m'`, then no `q`
//! delivers `m'` strictly before `m`.
//!
//! This module implements SCD-broadcast as a sim actor for the dynamic
//! model of the source paper: timestamps from the synchronized clock
//! assumption, TTL-bounded flooding over the knowledge graph for
//! dissemination, a per-process flush timer whose cutoff lags real time
//! by the worst-case flood latency (so every flush at time `T` has
//! already received every message stamped `≤ T − lag`), state transfer on
//! join, and per-flush anti-entropy so bounded churn cannot starve a
//! message of holders. On top of the broadcast sit three **derived
//! objects**, each a thin layer over delivered sets:
//!
//! - an increment/decrement **counter** (`CtrAdd`/`CtrRead`),
//! - an atomic **snapshot** object (`SnapSet`/`SnapRead`, one component
//!   per writing process),
//! - a **sequentially consistent register** (`RegWrite`/`RegRead`) —
//!   writes complete at self-delivery (preserving program order), reads
//!   are local and immediate. The result is SC but deliberately *not*
//!   atomic: `dds-core`'s WGL checker rejects its histories while the
//!   sequential-consistency checker accepts them.
//!
//! The [`ScdFault`] knob seeds the mutants that `dds-check` must catch:
//! splitting delivery sets, flushing before the flood settles, and
//! skipping self-inclusion. [`check_world`] is the oracle: it verifies
//! validity, integrity, self-delivery and the MS-ordering set constraint
//! directly from actor logs.

use std::collections::{BTreeMap, BTreeSet};

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{RegOp, RegResp, RegisterHistory};
use dds_core::time::{Interval, Time, TimeDelta};
use dds_net::graph::Graph;
use dds_sim::actor::{Actor, Context};
use dds_sim::delay::DelayModel;
use dds_sim::event::TimerId;
use dds_sim::snapshot::{FingerprintMsg, StableHasher};
use dds_sim::world::{World, WorldBuilder};

use crate::harness::DriverSpec;

/// Seeded protocol faults for mutant validation (`dds-check`).
///
/// Each variant breaks exactly one SCD obligation; [`check_world`] must
/// catch all of them and pass [`ScdFault::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScdFault {
    /// The correct protocol.
    #[default]
    None,
    /// Deliver every flushed message as its own singleton set, in buffer
    /// *insertion* order — concurrent messages arrive in different orders
    /// at different processes, so set orders cross (the set constraint is
    /// exactly what this destroys).
    SplitSets,
    /// Flush with a one-tick cutoff lag instead of the flood-latency
    /// bound: a message still in flight lands in a *later* set at the
    /// laggard than at its origin, crossing set orders.
    EagerCutoff,
    /// Mark own broadcasts as seen without buffering them — the origin
    /// never delivers its own message (self-delivery violation).
    SkipSelf,
}

/// Configuration of the SCD-broadcast protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScdConfig {
    /// Diameter bound used as flood TTL.
    pub ttl: u32,
    /// Per-hop delay bound (sizes the flush cutoff lag).
    pub delta: TimeDelta,
    /// Flush period: how often buffered messages are examined for
    /// delivery. Larger periods batch more messages per set.
    pub period: TimeDelta,
    /// Seeded fault, [`ScdFault::None`] for the correct protocol.
    pub fault: ScdFault,
}

impl ScdConfig {
    /// A correct configuration with the given flood and timing bounds.
    pub const fn new(ttl: u32, delta: TimeDelta, period: TimeDelta) -> Self {
        ScdConfig {
            ttl,
            delta,
            period,
            fault: ScdFault::None,
        }
    }

    /// Returns the configuration with `fault` seeded in.
    pub const fn with_fault(mut self, fault: ScdFault) -> Self {
        self.fault = fault;
        self
    }

    /// How far the flush cutoff lags the flush instant. Strictly exceeds
    /// the worst-case flood latency (`ttl · delta`), so a message stamped
    /// `≤ T − lag` has arrived everywhere reachable before any flush at
    /// `T` examines it. The [`ScdFault::EagerCutoff`] mutant collapses
    /// this to one tick.
    pub fn cutoff_lag(&self) -> TimeDelta {
        match self.fault {
            ScdFault::EagerCutoff => TimeDelta::TICK,
            _ => self.delta.saturating_mul(u64::from(self.ttl)) + TimeDelta::TICK,
        }
    }

    /// The churn-reaction window of the protocol: a message must survive
    /// in some member's buffer from its stamp until the covering flush
    /// (one lag plus up to two staggered periods).
    pub fn reaction(&self) -> TimeDelta {
        self.cutoff_lag() + self.period.saturating_mul(2)
    }

    /// How long an invocation waits for its own delivery before aborting
    /// loudly. Self-delivery needs only the origin's own flush timer, so
    /// under a correct protocol this is generous.
    pub fn op_window(&self) -> TimeDelta {
        self.cutoff_lag() + self.period.saturating_mul(3)
    }
}

/// The uninterpreted payload of one SCD-broadcast message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScdOp {
    /// An opaque application tag (property tests, mutant targets).
    Tag(u64),
    /// Counter delta.
    CtrAdd(i64),
    /// Register write (last-writer-wins by `(ts, origin)`).
    RegWrite(u64),
    /// Snapshot component write for the origin's slot.
    SnapSet(u64),
    /// A pure synchronization marker: carries no state change, completes
    /// the origin's read when self-delivered.
    Sync,
}

impl ScdOp {
    fn absorb(&self, h: &mut StableHasher) {
        match *self {
            ScdOp::Tag(v) => {
                h.write_u8(0);
                h.write_u64(v);
            }
            ScdOp::CtrAdd(d) => {
                h.write_u8(1);
                h.write_u64(d as u64);
            }
            ScdOp::RegWrite(v) => {
                h.write_u8(2);
                h.write_u64(v);
            }
            ScdOp::SnapSet(v) => {
                h.write_u8(3);
                h.write_u64(v);
            }
            ScdOp::Sync => h.write_u8(4),
        }
    }
}

/// One stamped SCD-broadcast message: globally identified by
/// `(origin, seq)`, ordered inside delivery sets by `(ts, origin, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamped {
    /// Broadcast instant at the origin (the synchronized-clock stamp).
    pub ts: Time,
    /// The broadcasting process.
    pub origin: ProcessId,
    /// Origin-local sequence number (disambiguates same-tick broadcasts).
    pub seq: u64,
    /// The payload.
    pub op: ScdOp,
}

impl Stamped {
    /// The global identity of this message.
    pub fn id(&self) -> (ProcessId, u64) {
        (self.origin, self.seq)
    }

    fn absorb(&self, h: &mut StableHasher) {
        h.write_u64(self.ts.as_ticks());
        h.write_u64(self.origin.as_raw());
        h.write_u64(self.seq);
        self.op.absorb(h);
    }
}

/// One high-level invocation on the derived objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScdCall {
    /// Broadcast an opaque tag.
    Tag(u64),
    /// Add `delta` to the counter (negative values decrement).
    CtrAdd(i64),
    /// Read the counter (a `Sync` marker round).
    CtrRead,
    /// Write the register.
    RegWrite(u64),
    /// Read the register (local, immediate — the source of the SC-but-
    /// not-atomic behavior).
    RegRead,
    /// Write this process's snapshot component.
    SnapSet(u64),
    /// Read the full snapshot array (a `Sync` marker round).
    SnapRead,
}

impl ScdCall {
    fn absorb(&self, h: &mut StableHasher) {
        match *self {
            ScdCall::Tag(v) => {
                h.write_u8(0);
                h.write_u64(v);
            }
            ScdCall::CtrAdd(d) => {
                h.write_u8(1);
                h.write_u64(d as u64);
            }
            ScdCall::CtrRead => h.write_u8(2),
            ScdCall::RegWrite(v) => {
                h.write_u8(3);
                h.write_u64(v);
            }
            ScdCall::RegRead => h.write_u8(4),
            ScdCall::SnapSet(v) => {
                h.write_u8(5);
                h.write_u64(v);
            }
            ScdCall::SnapRead => h.write_u8(6),
        }
    }
}

/// The state-transfer payload a synced process hands a joiner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncState {
    /// The replier's delivery floor: everything stamped `≤ floor` is
    /// already folded into the object states below.
    pub floor: Time,
    /// Message identities the replier has received (dedup set).
    pub seen: BTreeSet<(ProcessId, u64)>,
    /// Messages received but not yet delivered.
    pub buffer: Vec<Stamped>,
    /// Counter value as of `floor`.
    pub counter: i64,
    /// Register value as of `floor` (`(ts, origin, value)` of the winning
    /// write).
    pub register: Option<(Time, ProcessId, u64)>,
    /// Snapshot components as of `floor`.
    pub snapshot: BTreeMap<ProcessId, u64>,
}

impl SyncState {
    fn absorb(&self, h: &mut StableHasher) {
        h.write_u64(self.floor.as_ticks());
        h.write_usize(self.seen.len());
        for (p, s) in &self.seen {
            h.write_u64(p.as_raw());
            h.write_u64(*s);
        }
        h.write_usize(self.buffer.len());
        for m in &self.buffer {
            m.absorb(h);
        }
        h.write_u64(self.counter as u64);
        match self.register {
            None => h.write_u8(0),
            Some((t, p, v)) => {
                h.write_u8(1);
                h.write_u64(t.as_ticks());
                h.write_u64(p.as_raw());
                h.write_u64(v);
            }
        }
        h.write_usize(self.snapshot.len());
        for (p, v) in &self.snapshot {
            h.write_u64(p.as_raw());
            h.write_u64(*v);
        }
    }
}

/// Messages of the SCD-broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScdMsg {
    /// Injected at a process: perform the call.
    Invoke(ScdCall),
    /// The dissemination wave: a stamped message with remaining hops.
    Fwd {
        /// The message being flooded.
        m: Stamped,
        /// Remaining hops.
        ttl: u32,
    },
    /// State-transfer request from a joiner.
    SyncReq,
    /// State-transfer reply (boxed: the payload dwarfs every other
    /// variant).
    SyncRep(Box<SyncState>),
}

impl FingerprintMsg for ScdMsg {
    fn fingerprint(&self, h: &mut StableHasher) {
        match self {
            ScdMsg::Invoke(call) => {
                h.write_u8(0);
                call.absorb(h);
            }
            ScdMsg::Fwd { m, ttl } => {
                h.write_u8(1);
                m.absorb(h);
                h.write_u32(*ttl);
            }
            ScdMsg::SyncReq => h.write_u8(2),
            ScdMsg::SyncRep(state) => {
                h.write_u8(3);
                state.absorb(h);
            }
        }
    }
}

/// The outcome of one completed (or aborted) invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScdOutcome {
    /// Write-class call delivered.
    Ack,
    /// Counter read result.
    Counter(i64),
    /// Register read result (`None` before any delivered write).
    Register(Option<u64>),
    /// Snapshot read result: the full component array.
    Snapshot(Vec<(ProcessId, u64)>),
    /// The call failed loudly: invoked while unsynced, or its own
    /// delivery did not happen within [`ScdConfig::op_window`].
    Aborted,
}

impl ScdOutcome {
    fn absorb(&self, h: &mut StableHasher) {
        match self {
            ScdOutcome::Ack => h.write_u8(0),
            ScdOutcome::Counter(v) => {
                h.write_u8(1);
                h.write_u64(*v as u64);
            }
            ScdOutcome::Register(v) => {
                h.write_u8(2);
                match v {
                    None => h.write_u8(0),
                    Some(x) => {
                        h.write_u8(1);
                        h.write_u64(*x);
                    }
                }
            }
            ScdOutcome::Snapshot(parts) => {
                h.write_u8(3);
                h.write_usize(parts.len());
                for (p, v) in parts {
                    h.write_u64(p.as_raw());
                    h.write_u64(*v);
                }
            }
            ScdOutcome::Aborted => h.write_u8(4),
        }
    }
}

/// One logged invocation, for history extraction and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScdLogged {
    /// What was invoked.
    pub call: ScdCall,
    /// Invocation instant.
    pub invoked: Time,
    /// Response instant.
    pub responded: Time,
    /// How it ended.
    pub outcome: ScdOutcome,
}

/// An invocation waiting for its own delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingOp {
    call: ScdCall,
    seq: u64,
    invoked: Time,
    timer: TimerId,
}

/// One process of the SCD-broadcast protocol and its derived objects.
#[derive(Debug, Clone)]
pub struct ScdActor {
    config: ScdConfig,
    /// Whether this process has state (initial member, or joiner after
    /// state transfer). Unsynced processes abort invocations loudly.
    synced: bool,
    next_seq: u64,
    /// Identities ever received (dedup for flooding and re-delivery).
    seen: BTreeSet<(ProcessId, u64)>,
    /// Received, not yet delivered. Insertion order is what the
    /// [`ScdFault::SplitSets`] mutant exposes.
    buffer: Vec<Stamped>,
    /// Everything stamped `≤ floor` is already delivered here.
    floor: Time,
    /// The delivered sets, in delivery order — the protocol's observable
    /// behavior, judged by [`check_world`].
    delivered: Vec<Vec<Stamped>>,
    counter: i64,
    register: Option<(Time, ProcessId, u64)>,
    snapshot: BTreeMap<ProcessId, u64>,
    pending: Vec<PendingOp>,
    log: Vec<ScdLogged>,
    /// Broadcast-to-self-delivery latencies in ticks.
    latencies: Vec<u64>,
    flush_timer: Option<TimerId>,
    sync_timer: Option<TimerId>,
    /// `(seq, ts)` of own broadcasts (validity/self-delivery oracle).
    broadcasts: Vec<(u64, Time)>,
}

impl ScdActor {
    /// Creates an SCD process.
    pub fn new(config: ScdConfig) -> Self {
        ScdActor {
            config,
            synced: false,
            next_seq: 0,
            seen: BTreeSet::new(),
            buffer: Vec::new(),
            floor: Time::ZERO,
            delivered: Vec::new(),
            counter: 0,
            register: None,
            snapshot: BTreeMap::new(),
            pending: Vec::new(),
            log: Vec::new(),
            latencies: Vec::new(),
            flush_timer: None,
            sync_timer: None,
            broadcasts: Vec::new(),
        }
    }

    /// The protocol configuration.
    pub fn config(&self) -> ScdConfig {
        self.config
    }

    /// Whether this process holds state and accepts invocations.
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// The delivered sets, in delivery order.
    pub fn delivered(&self) -> &[Vec<Stamped>] {
        &self.delivered
    }

    /// The invocations this process completed or aborted.
    pub fn log(&self) -> &[ScdLogged] {
        &self.log
    }

    /// `(seq, ts)` of this process's own broadcasts.
    pub fn broadcasts(&self) -> &[(u64, Time)] {
        &self.broadcasts
    }

    /// The derived counter's current value.
    pub fn counter(&self) -> i64 {
        self.counter
    }

    /// The derived register's current value.
    pub fn register_value(&self) -> Option<u64> {
        self.register.map(|(_, _, v)| v)
    }

    /// The derived snapshot's current components.
    pub fn snapshot(&self) -> &BTreeMap<ProcessId, u64> {
        &self.snapshot
    }

    /// Broadcast-to-self-delivery latencies in ticks.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Invocations still awaiting their own delivery.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn arm_flush(&mut self, ctx: &mut Context<'_, ScdMsg>) {
        // Stagger first flushes across processes so same-period timers do
        // not all contend at the same instant (and so mutant schedules
        // interleave deterministically).
        let stagger = TimeDelta::ticks(ctx.pid().as_raw() % self.config.period.as_ticks().max(1));
        self.flush_timer = Some(ctx.set_timer(self.config.period + stagger));
    }

    fn sync_state(&self) -> SyncState {
        SyncState {
            floor: self.floor,
            seen: self.seen.clone(),
            buffer: self.buffer.clone(),
            counter: self.counter,
            register: self.register,
            snapshot: self.snapshot.clone(),
        }
    }

    fn adopt(&mut self, ctx: &mut Context<'_, ScdMsg>, state: SyncState) {
        if self.synced {
            return;
        }
        self.synced = true;
        self.floor = state.floor;
        self.counter = state.counter;
        self.register = state.register;
        self.snapshot = state.snapshot;
        let mut buffer = state.buffer;
        // Keep what we gathered while waiting, minus what the state
        // already covers.
        for m in std::mem::take(&mut self.buffer) {
            if m.ts > state.floor && !buffer.iter().any(|b| b.id() == m.id()) {
                buffer.push(m);
            }
        }
        self.buffer = buffer;
        self.seen.extend(state.seen);
        self.sync_timer = None;
        self.arm_flush(ctx);
    }

    fn flood(&mut self, ctx: &mut Context<'_, ScdMsg>, m: Stamped, ttl: u32) {
        if !self.seen.insert(m.id()) {
            return;
        }
        self.buffer.push(m);
        if ttl > 0 {
            ctx.broadcast(ScdMsg::Fwd { m, ttl: ttl - 1 });
        }
    }

    fn invoke(&mut self, ctx: &mut Context<'_, ScdMsg>, call: ScdCall) {
        let now = ctx.now();
        if !self.synced {
            // Fail loud: a joiner without state cannot participate yet.
            self.log.push(ScdLogged {
                call,
                invoked: now,
                responded: now,
                outcome: ScdOutcome::Aborted,
            });
            return;
        }
        if call == ScdCall::RegRead {
            // Local and immediate — this is what makes the register
            // sequentially consistent instead of atomic.
            self.log.push(ScdLogged {
                call,
                invoked: now,
                responded: now,
                outcome: ScdOutcome::Register(self.register_value()),
            });
            return;
        }
        let op = match call {
            ScdCall::Tag(v) => ScdOp::Tag(v),
            ScdCall::CtrAdd(d) => ScdOp::CtrAdd(d),
            ScdCall::CtrRead | ScdCall::SnapRead => ScdOp::Sync,
            ScdCall::RegWrite(v) => ScdOp::RegWrite(v),
            ScdCall::SnapSet(v) => ScdOp::SnapSet(v),
            ScdCall::RegRead => unreachable!("handled above"),
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let m = Stamped {
            ts: now,
            origin: ctx.pid(),
            seq,
            op,
        };
        self.broadcasts.push((seq, now));
        let timer = ctx.set_timer(self.config.op_window());
        self.pending.push(PendingOp {
            call,
            seq,
            invoked: now,
            timer,
        });
        if self.config.fault == ScdFault::SkipSelf {
            // Mutant: flood to others but never buffer locally — the
            // origin misses its own message forever.
            self.seen.insert(m.id());
            if self.config.ttl > 0 {
                ctx.broadcast(ScdMsg::Fwd {
                    m,
                    ttl: self.config.ttl - 1,
                });
            }
        } else {
            self.flood(ctx, m, self.config.ttl);
        }
    }

    fn deliver_set(&mut self, ctx: &mut Context<'_, ScdMsg>, set: Vec<Stamped>) {
        // Apply the whole set before answering reads from it: inside one
        // set the application order is the canonical (ts, origin, seq)
        // sort, identical at every process.
        for m in &set {
            match m.op {
                ScdOp::CtrAdd(d) => self.counter += d,
                ScdOp::RegWrite(v) => {
                    let key = (m.ts, m.origin);
                    if self.register.is_none_or(|(t, o, _)| (t, o) < key) {
                        self.register = Some((m.ts, m.origin, v));
                    }
                }
                ScdOp::SnapSet(v) => {
                    self.snapshot.insert(m.origin, v);
                }
                ScdOp::Tag(_) | ScdOp::Sync => {}
            }
        }
        let me = ctx.pid();
        let now = ctx.now();
        for m in &set {
            if m.origin != me {
                continue;
            }
            self.latencies.push(now.saturating_since(m.ts).as_ticks());
            if let Some(pos) = self.pending.iter().position(|p| p.seq == m.seq) {
                let p = self.pending.remove(pos);
                let outcome = match p.call {
                    ScdCall::CtrRead => ScdOutcome::Counter(self.counter),
                    ScdCall::SnapRead => {
                        ScdOutcome::Snapshot(self.snapshot.iter().map(|(&k, &v)| (k, v)).collect())
                    }
                    _ => ScdOutcome::Ack,
                };
                self.log.push(ScdLogged {
                    call: p.call,
                    invoked: p.invoked,
                    responded: now,
                    outcome,
                });
            }
        }
        self.delivered.push(set);
    }

    fn flush(&mut self, ctx: &mut Context<'_, ScdMsg>) {
        let now = ctx.now();
        let lag = self.config.cutoff_lag();
        let cutoff = Time::from_ticks(now.as_ticks().saturating_sub(lag.as_ticks()));
        let mut ready: Vec<Stamped> = Vec::new();
        self.buffer.retain(|m| {
            if m.ts <= cutoff {
                ready.push(*m);
                false
            } else {
                true
            }
        });
        if !ready.is_empty() {
            if cutoff > self.floor {
                self.floor = cutoff;
            }
            if self.config.fault == ScdFault::SplitSets {
                for m in ready {
                    self.deliver_set(ctx, vec![m]);
                }
            } else {
                ready.sort_unstable_by_key(|m| (m.ts, m.origin, m.seq));
                self.deliver_set(ctx, ready);
            }
        }
        // Anti-entropy: messages still within their delivery window are
        // re-offered each period, so a flood thinned by churn is rebuilt
        // as long as one holder survives a period.
        let ttl = self.config.ttl.saturating_sub(1);
        for i in 0..self.buffer.len() {
            let m = self.buffer[i];
            ctx.broadcast(ScdMsg::Fwd { m, ttl });
        }
    }
}

impl Actor<ScdMsg> for ScdActor {
    fn on_start(&mut self, ctx: &mut Context<'_, ScdMsg>) {
        if ctx.now() == Time::ZERO {
            // Initial member: born with the (empty) state.
            self.synced = true;
            self.arm_flush(ctx);
        } else {
            ctx.broadcast(ScdMsg::SyncReq);
            self.sync_timer = Some(ctx.set_timer(self.config.period));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScdMsg>, from: ProcessId, msg: ScdMsg) {
        match msg {
            ScdMsg::Invoke(call) => self.invoke(ctx, call),
            ScdMsg::Fwd { m, ttl } => self.flood(ctx, m, ttl),
            ScdMsg::SyncReq => {
                // Only a process that holds state may seed a joiner.
                if self.synced {
                    ctx.send(from, ScdMsg::SyncRep(Box::new(self.sync_state())));
                }
            }
            ScdMsg::SyncRep(state) => self.adopt(ctx, *state),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScdMsg>, timer: TimerId) {
        if self.flush_timer == Some(timer) {
            self.flush(ctx);
            self.flush_timer = Some(ctx.set_timer(self.config.period));
            return;
        }
        if self.sync_timer == Some(timer) {
            if !self.synced {
                ctx.broadcast(ScdMsg::SyncReq);
                self.sync_timer = Some(ctx.set_timer(self.config.period));
            }
            return;
        }
        if let Some(pos) = self.pending.iter().position(|p| p.timer == timer) {
            // Loud failure: the op window elapsed without self-delivery.
            let p = self.pending.remove(pos);
            self.log.push(ScdLogged {
                call: p.call,
                invoked: p.invoked,
                responded: ctx.now(),
                outcome: ScdOutcome::Aborted,
            });
        }
    }

    fn fork(&self) -> Option<Box<dyn Actor<ScdMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u32(self.config.ttl);
        h.write_u64(self.config.delta.as_ticks());
        h.write_u64(self.config.period.as_ticks());
        h.write_u8(match self.config.fault {
            ScdFault::None => 0,
            ScdFault::SplitSets => 1,
            ScdFault::EagerCutoff => 2,
            ScdFault::SkipSelf => 3,
        });
        h.write_bool(self.synced);
        h.write_u64(self.next_seq);
        h.write_usize(self.seen.len());
        for (p, s) in &self.seen {
            h.write_u64(p.as_raw());
            h.write_u64(*s);
        }
        h.write_usize(self.buffer.len());
        for m in &self.buffer {
            m.absorb(h);
        }
        h.write_u64(self.floor.as_ticks());
        // The delivery log must be hashed: two states with identical
        // buffers but different delivery histories yield different
        // verdicts, and dedup must not identify them.
        h.write_usize(self.delivered.len());
        for set in &self.delivered {
            h.write_usize(set.len());
            for m in set {
                m.absorb(h);
            }
        }
        h.write_u64(self.counter as u64);
        match self.register {
            None => h.write_u8(0),
            Some((t, p, v)) => {
                h.write_u8(1);
                h.write_u64(t.as_ticks());
                h.write_u64(p.as_raw());
                h.write_u64(v);
            }
        }
        h.write_usize(self.snapshot.len());
        for (p, v) in &self.snapshot {
            h.write_u64(p.as_raw());
            h.write_u64(*v);
        }
        h.write_usize(self.pending.len());
        for p in &self.pending {
            p.call.absorb(h);
            h.write_u64(p.seq);
            h.write_u64(p.invoked.as_ticks());
        }
        h.write_usize(self.log.len());
        for entry in &self.log {
            entry.call.absorb(h);
            h.write_u64(entry.invoked.as_ticks());
            h.write_u64(entry.responded.as_ticks());
            entry.outcome.absorb(h);
        }
        h.write_usize(self.latencies.len());
        for &l in &self.latencies {
            h.write_u64(l);
        }
        h.write_usize(self.broadcasts.len());
        for (s, t) in &self.broadcasts {
            h.write_u64(*s);
            h.write_u64(t.as_ticks());
        }
        true
    }
}

/// A violated SCD-broadcast obligation, found by [`check_world`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScdViolation {
    /// Which obligation broke.
    pub reason: String,
    /// The witnessing processes/messages.
    pub details: String,
}

impl std::fmt::Display for ScdViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.reason, self.details)
    }
}

/// Verifies the SCD-broadcast obligations over every present member of a
/// finished world: **integrity** (no message delivered twice by one
/// process), **consistency** (one identity, one payload), **validity**
/// (delivered messages were broadcast by their origin), **self-delivery**
/// (an origin delivers its own settled broadcasts), and **MS-ordering**
/// (no two processes deliver two messages in opposite strict set orders).
pub fn check_world(world: &World<ScdMsg>) -> Result<(), ScdViolation> {
    let now = world.now();
    let mut actors: Vec<(ProcessId, &ScdActor)> = Vec::new();
    for &pid in world.members() {
        if let Some(a) = world.actor::<ScdActor>(pid) {
            actors.push((pid, a));
        }
    }
    // Per process: message identity -> (delivery set index, payload).
    let mut index: Vec<BTreeMap<(ProcessId, u64), (usize, Stamped)>> = Vec::new();
    for (pid, a) in &actors {
        let mut map = BTreeMap::new();
        for (si, set) in a.delivered().iter().enumerate() {
            for m in set {
                if map.insert(m.id(), (si, *m)).is_some() {
                    return Err(ScdViolation {
                        reason: "integrity".into(),
                        details: format!("{pid:?} delivered {:?} more than once", m.id()),
                    });
                }
            }
        }
        index.push(map);
    }
    // Validity: a delivered message whose origin is still visible must
    // appear in the origin's broadcast log.
    for (i, (pid, _)) in actors.iter().enumerate() {
        for ((origin, seq), (_, m)) in &index[i] {
            if let Some(pos) = actors.iter().position(|(p, _)| p == origin) {
                if !actors[pos]
                    .1
                    .broadcasts()
                    .iter()
                    .any(|(s, t)| s == seq && *t == m.ts)
                {
                    return Err(ScdViolation {
                        reason: "validity".into(),
                        details: format!(
                            "{pid:?} delivered {:?} which {origin:?} never broadcast",
                            (origin, seq)
                        ),
                    });
                }
            }
        }
    }
    // Self-delivery: settled own broadcasts must be in the own log.
    for (i, (pid, a)) in actors.iter().enumerate() {
        if !a.synced() {
            continue;
        }
        let settle = a.config().reaction();
        for &(seq, ts) in a.broadcasts() {
            if ts + settle <= now && !index[i].contains_key(&(*pid, seq)) {
                return Err(ScdViolation {
                    reason: "self-delivery".into(),
                    details: format!(
                        "{pid:?} broadcast seq {seq} at {ts:?} but never delivered it (now {now:?})"
                    ),
                });
            }
        }
    }
    // MS-ordering: for every pair of processes, the set orders over their
    // common messages must not cross; and a shared identity must carry
    // the same payload everywhere.
    for i in 0..actors.len() {
        for j in (i + 1)..actors.len() {
            let mut common: Vec<((ProcessId, u64), usize, usize)> = Vec::new();
            for (id, (si, mi)) in &index[i] {
                if let Some((sj, mj)) = index[j].get(id) {
                    if mi != mj {
                        return Err(ScdViolation {
                            reason: "consistency".into(),
                            details: format!(
                                "{:?} vs {:?}: {id:?} delivered with different payloads",
                                actors[i].0, actors[j].0
                            ),
                        });
                    }
                    common.push((*id, *si, *sj));
                }
            }
            // Crossed iff some pair has si_a < si_b and sj_a > sj_b: walk
            // in increasing si groups and require every sj to be ≥ the
            // maximum sj of all *strictly earlier* groups.
            common.sort_unstable_by_key(|&(_, si, _)| si);
            let mut max_sj_before = 0usize;
            let mut have_before = false;
            let mut k = 0;
            while k < common.len() {
                let group_si = common[k].1;
                let mut group_max = 0usize;
                let start = k;
                while k < common.len() && common[k].1 == group_si {
                    let (id, _, sj) = common[k];
                    if have_before && sj < max_sj_before {
                        return Err(ScdViolation {
                            reason: "ms-ordering".into(),
                            details: format!(
                                "{:?} and {:?} deliver {id:?} in crossed set orders",
                                actors[i].0, actors[j].0
                            ),
                        });
                    }
                    group_max = group_max.max(sj);
                    k += 1;
                }
                let _ = start;
                max_sj_before = if have_before {
                    max_sj_before.max(group_max)
                } else {
                    group_max
                };
                have_before = true;
            }
        }
    }
    Ok(())
}

/// The sustainable-churn predicate for SCD-broadcast, mirroring the
/// `dds-store` frontier idiom: churn is sustainable when it is expected
/// to replace fewer than half the members within one protocol reaction
/// window (a message needs a surviving holder per period to keep the
/// anti-entropy chain alive, and a joiner needs a synced neighbor).
pub fn sustainable(churn: &ChurnSpec, membership: usize, reaction: TimeDelta) -> bool {
    if churn.is_none() {
        return true;
    }
    churn.expected_replacements_over(membership, reaction) < membership as f64 / 2.0
}

/// Extracts a [`RegisterHistory`] of the derived register's operations
/// from a finished world, for the atomicity/sequential-consistency
/// checkers of `dds-core`. Aborted invocations and non-register calls
/// are skipped (an aborted op has no response to certify).
pub fn register_history_from_world(
    world: &World<ScdMsg>,
    processes: impl IntoIterator<Item = ProcessId>,
) -> RegisterHistory {
    let mut records: Vec<OpRecord<RegOp, RegResp>> = Vec::new();
    for pid in processes {
        let Some(actor) = world.actor::<ScdActor>(pid) else {
            continue;
        };
        for entry in actor.log() {
            let (op, response) = match (&entry.call, &entry.outcome) {
                (ScdCall::RegWrite(v), ScdOutcome::Ack) => (RegOp::Write(*v), RegResp::Ack),
                (ScdCall::RegRead, ScdOutcome::Register(v)) => (RegOp::Read, RegResp::Value(*v)),
                _ => continue,
            };
            records.push(OpRecord {
                process: pid,
                op,
                invoked: entry.invoked,
                responded: Some(entry.responded),
                response: Some(response),
            });
        }
    }
    RegisterHistory::sorted(records)
}

/// A fully specified SCD-broadcast run: world shape, churn regime, and a
/// script of timed invocations.
#[derive(Debug, Clone)]
pub struct ScdScenario {
    /// Determinism seed.
    pub seed: u64,
    /// Initial knowledge graph.
    pub graph: Graph,
    /// Protocol configuration.
    pub config: ScdConfig,
    /// Churn regime (the same vocabulary as the query harness).
    pub driver: DriverSpec,
    /// Delay model.
    pub delay: DelayModel,
    /// Run length; every scripted op plus its window must fit before it.
    pub deadline: Time,
    /// Scripted invocations: `(tick, process raw id, call)`.
    pub ops: Vec<(u64, u64, ScdCall)>,
}

impl ScdScenario {
    /// A baseline scenario: fixed one-tick delays, no churn, no ops.
    pub fn new(graph: Graph, config: ScdConfig) -> Self {
        ScdScenario {
            seed: 0,
            graph,
            config,
            driver: DriverSpec::None,
            delay: DelayModel::Fixed(TimeDelta::TICK),
            deadline: Time::from_ticks(100),
            ops: Vec::new(),
        }
    }

    /// Adds a scripted invocation.
    pub fn op(mut self, tick: u64, pid: u64, call: ScdCall) -> Self {
        self.ops.push((tick, pid, call));
        self
    }

    /// The lowest initial identity (protected under balanced churn, like
    /// the query harness's initiator).
    pub fn initiator(&self) -> ProcessId {
        self.graph.nodes().min().expect("nonempty graph")
    }

    /// The balanced-churn spec of this scenario, if churn is balanced.
    pub fn churn_spec(&self) -> Option<ChurnSpec> {
        match self.driver {
            DriverSpec::Balanced { rate, window, .. } => {
                Some(ChurnSpec::rate(rate, TimeDelta::ticks(window)).expect("valid rate"))
            }
            _ => None,
        }
    }

    /// Whether this scenario's balanced churn exceeds the sustainable
    /// frontier for its membership and protocol reaction window.
    pub fn above_bound(&self) -> bool {
        match self.churn_spec() {
            Some(spec) => {
                let n = self.graph.nodes().count();
                !sustainable(&spec, n, self.config.reaction())
            }
            None => false,
        }
    }

    /// Builds the world with every scripted op injected.
    pub fn build(&self) -> World<ScdMsg> {
        let config = self.config;
        let mut world: World<ScdMsg> = WorldBuilder::new(self.seed)
            .initial_graph(self.graph.clone())
            .delay(self.delay)
            .boxed_driver(self.driver.build(&self.graph))
            .spawn(move |_| Box::new(ScdActor::new(config)))
            .build();
        for &(tick, pid, call) in &self.ops {
            world.inject(
                Time::from_ticks(tick),
                ProcessId::from_raw(pid),
                ScdMsg::Invoke(call),
            );
        }
        world
    }

    /// Builds, runs to the deadline, and reports.
    pub fn run(&self) -> ScdRunReport {
        let mut world = self.build();
        world.run_until(self.deadline);
        self.report(&world)
    }

    /// Summarizes a finished world of this scenario.
    pub fn report(&self, world: &World<ScdMsg>) -> ScdRunReport {
        let mut completed = 0;
        let mut aborted = 0;
        let mut unresolved = 0;
        let mut stranded = 0;
        let mut expected_counter = 0i64;
        let mut counters: Vec<i64> = Vec::new();
        let mut set_sizes: Vec<u64> = Vec::new();
        let mut latencies: Vec<u64> = Vec::new();
        // Invocation accounting covers every process that ever joined —
        // the world retains departed actors — so a completed increment
        // whose originator then gracefully left still counts toward the
        // value the survivors must converge on. Only the liveness signals
        // (pending ops, stranded joiners) and the agreement check are
        // restricted to the processes still present.
        let horizon = world.trace().horizon();
        let everyone = world
            .trace()
            .presence()
            .present_sometime(&Interval::new(Time::ZERO, horizon + TimeDelta::TICK));
        for pid in everyone {
            let Some(a) = world.actor::<ScdActor>(pid) else {
                continue;
            };
            for entry in a.log() {
                if entry.outcome == ScdOutcome::Aborted {
                    aborted += 1;
                } else {
                    completed += 1;
                    if let ScdCall::CtrAdd(d) = entry.call {
                        expected_counter += d;
                    }
                }
            }
        }
        for &pid in world.members() {
            let Some(a) = world.actor::<ScdActor>(pid) else {
                continue;
            };
            unresolved += a.pending_len();
            if a.synced() {
                counters.push(a.counter());
            } else {
                stranded += 1;
            }
            for set in a.delivered() {
                set_sizes.push(set.len() as u64);
            }
            latencies.extend_from_slice(a.latencies());
        }
        let agree = counters.windows(2).all(|w| w[0] == w[1]);
        let converged = agree && !counters.is_empty() && counters[0] == expected_counter;
        ScdRunReport {
            completed,
            aborted,
            unresolved,
            stranded,
            expected_counter,
            converged,
            set_sizes,
            latencies,
            violation: check_world(world).err(),
        }
    }
}

/// The summary of one SCD scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScdRunReport {
    /// Invocations that completed with a response.
    pub completed: usize,
    /// Invocations that aborted loudly (unsynced, or window elapsed).
    pub aborted: usize,
    /// Invocations still pending at the deadline — must be zero when the
    /// deadline leaves room for every op window ("never hang").
    pub unresolved: usize,
    /// Present processes that never completed state transfer. One or two
    /// freshly joined processes are normal; a persistent majority means
    /// churn outpaces the sync round trip (the above-bound signature).
    pub stranded: usize,
    /// The counter value implied by the completed `CtrAdd` calls.
    pub expected_counter: i64,
    /// All present synced processes agree on the counter, and the common
    /// value matches [`Self::expected_counter`].
    pub converged: bool,
    /// Sizes of every delivered set across processes.
    pub set_sizes: Vec<u64>,
    /// Broadcast-to-self-delivery latencies in ticks.
    pub latencies: Vec<u64>,
    /// The first SCD obligation [`check_world`] found violated, if any.
    pub violation: Option<ScdViolation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::spec::register::{check_atomic, check_sequentially_consistent};
    use dds_net::generate;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn config() -> ScdConfig {
        ScdConfig::new(4, TimeDelta::TICK, TimeDelta::ticks(4))
    }

    /// The tight three-process line used by the mutant targets: p0 and p2
    /// broadcast concurrently at t=1; correct flushes batch both into one
    /// set, the mutants cross the orders.
    fn line_scenario(fault: ScdFault) -> ScdScenario {
        let config = ScdConfig::new(2, TimeDelta::TICK, TimeDelta::ticks(2)).with_fault(fault);
        let mut s = ScdScenario::new(generate::path(3), config)
            .op(1, 0, ScdCall::Tag(10))
            .op(1, 2, ScdCall::Tag(20));
        s.deadline = Time::from_ticks(12);
        s
    }

    #[test]
    fn tags_deliver_in_agreed_sets() {
        let mut s = ScdScenario::new(generate::torus(3, 3), config())
            .op(1, 0, ScdCall::Tag(1))
            .op(1, 8, ScdCall::Tag(2))
            .op(3, 4, ScdCall::Tag(3));
        s.deadline = Time::from_ticks(60);
        let mut w = s.build();
        w.run_until(s.deadline);
        check_world(&w).expect("correct protocol passes the oracle");
        // Everyone delivers all three messages.
        for n in 0..9 {
            let a: &ScdActor = w.actor(pid(n)).unwrap();
            let total: usize = a.delivered().iter().map(Vec::len).sum();
            assert_eq!(total, 3, "process {n}");
        }
    }

    #[test]
    fn ms_ordering_holds_across_seeds() {
        for seed in 0..10 {
            let mut s = ScdScenario::new(generate::torus(3, 3), config())
                .op(1, 0, ScdCall::Tag(1))
                .op(1, 4, ScdCall::Tag(2))
                .op(2, 8, ScdCall::Tag(3))
                .op(5, 2, ScdCall::Tag(4))
                .op(5, 6, ScdCall::Tag(5));
            s.seed = seed;
            s.deadline = Time::from_ticks(80);
            let mut w = s.build();
            w.run_until(s.deadline);
            check_world(&w).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn correct_line_scenario_passes_the_oracle() {
        let s = line_scenario(ScdFault::None);
        let mut w = s.build();
        w.run_until(s.deadline);
        check_world(&w).expect("no violation");
        // Both concurrent tags land in the *same* set everywhere.
        for n in 0..3 {
            let a: &ScdActor = w.actor(pid(n)).unwrap();
            let sizes: Vec<usize> = a.delivered().iter().map(Vec::len).collect();
            assert_eq!(sizes, vec![2], "process {n} sets: {:?}", a.delivered());
        }
    }

    #[test]
    fn split_sets_fault_crosses_orders() {
        let s = line_scenario(ScdFault::SplitSets);
        let mut w = s.build();
        w.run_until(s.deadline);
        let v = check_world(&w).expect_err("split sets must violate");
        assert_eq!(v.reason, "ms-ordering", "{v}");
    }

    #[test]
    fn eager_cutoff_fault_crosses_orders() {
        let s = line_scenario(ScdFault::EagerCutoff);
        let mut w = s.build();
        w.run_until(s.deadline);
        let v = check_world(&w).expect_err("eager cutoff must violate");
        assert_eq!(v.reason, "ms-ordering", "{v}");
    }

    #[test]
    fn skip_self_fault_violates_self_delivery() {
        let s = line_scenario(ScdFault::SkipSelf);
        let mut w = s.build();
        w.run_until(s.deadline);
        let v = check_world(&w).expect_err("skipped self must violate");
        assert_eq!(v.reason, "self-delivery", "{v}");
    }

    #[test]
    fn skip_self_aborts_loudly_instead_of_hanging() {
        let s = line_scenario(ScdFault::SkipSelf);
        let r = s.run();
        assert_eq!(r.unresolved, 0, "ops must resolve, never hang");
        assert!(r.aborted >= 2, "undelivered ops abort: {r:?}");
    }

    #[test]
    fn counter_converges_without_churn() {
        let mut s = ScdScenario::new(generate::torus(3, 3), config())
            .op(1, 0, ScdCall::CtrAdd(5))
            .op(2, 4, ScdCall::CtrAdd(-2))
            .op(3, 8, ScdCall::CtrAdd(10))
            .op(30, 2, ScdCall::CtrRead);
        s.deadline = Time::from_ticks(80);
        let r = s.run();
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert_eq!(r.expected_counter, 13);
        assert!(r.converged, "{r:?}");
        assert_eq!(r.unresolved, 0);
    }

    #[test]
    fn counter_read_observes_all_prior_adds() {
        let mut s = ScdScenario::new(generate::torus(3, 3), config())
            .op(1, 0, ScdCall::CtrAdd(7))
            .op(20, 5, ScdCall::CtrRead);
        s.deadline = Time::from_ticks(80);
        let mut w = s.build();
        w.run_until(s.deadline);
        let a: &ScdActor = w.actor(pid(5)).unwrap();
        let read = a
            .log()
            .iter()
            .find(|e| e.call == ScdCall::CtrRead)
            .expect("read completed");
        assert_eq!(read.outcome, ScdOutcome::Counter(7));
    }

    #[test]
    fn snapshot_returns_all_components() {
        let mut s = ScdScenario::new(generate::torus(3, 3), config())
            .op(1, 0, ScdCall::SnapSet(100))
            .op(1, 4, ScdCall::SnapSet(200))
            .op(25, 8, ScdCall::SnapRead);
        s.deadline = Time::from_ticks(80);
        let mut w = s.build();
        w.run_until(s.deadline);
        let a: &ScdActor = w.actor(pid(8)).unwrap();
        let read = a
            .log()
            .iter()
            .find(|e| e.call == ScdCall::SnapRead)
            .expect("snap read completed");
        assert_eq!(
            read.outcome,
            ScdOutcome::Snapshot(vec![(pid(0), 100), (pid(4), 200)])
        );
        check_world(&w).expect("no violation");
    }

    #[test]
    fn register_read_your_writes_holds() {
        // A write completes only at self-delivery, so a later read at the
        // same process must observe it (program order — the SC kernel).
        let mut s = ScdScenario::new(generate::torus(3, 3), config())
            .op(1, 0, ScdCall::RegWrite(42))
            .op(30, 0, ScdCall::RegRead);
        s.deadline = Time::from_ticks(80);
        let mut w = s.build();
        w.run_until(s.deadline);
        let a: &ScdActor = w.actor(pid(0)).unwrap();
        let read = a
            .log()
            .iter()
            .find(|e| e.call == ScdCall::RegRead)
            .expect("read logged");
        assert_eq!(read.outcome, ScdOutcome::Register(Some(42)));
    }

    #[test]
    fn register_is_sequentially_consistent_but_not_atomic() {
        // period=4 staggers first flushes: p0 at t=4, p2 at t=6. The
        // write at p0 (ts=1) acks at t=4; a read at p2 at t=5 still sees
        // None — stale in real time (not atomic), fine under SC (the read
        // reorders before the write).
        let config = ScdConfig::new(2, TimeDelta::TICK, TimeDelta::ticks(4));
        let mut s = ScdScenario::new(generate::path(3), config)
            .op(1, 0, ScdCall::RegWrite(1))
            .op(5, 2, ScdCall::RegRead);
        s.deadline = Time::from_ticks(40);
        let mut w = s.build();
        w.run_until(s.deadline);
        check_world(&w).expect("SCD obligations hold");
        let history = register_history_from_world(&w, (0..3).map(pid));
        let stale_read = w
            .actor::<ScdActor>(pid(2))
            .unwrap()
            .log()
            .iter()
            .any(|e| e.outcome == ScdOutcome::Register(None));
        assert!(stale_read, "the read at t=5 must predate p2's first flush");
        assert!(
            !check_atomic(&history).unwrap().is_linearizable(),
            "stale read must fail the WGL atomicity checker:\n{history}"
        );
        assert!(
            check_sequentially_consistent(&history)
                .unwrap()
                .is_linearizable(),
            "the same history is sequentially consistent:\n{history}"
        );
    }

    #[test]
    fn register_histories_are_sc_across_seeds() {
        for seed in 0..10 {
            let mut s = ScdScenario::new(generate::torus(3, 3), config())
                .op(1, 0, ScdCall::RegWrite(1))
                .op(3, 4, ScdCall::RegWrite(2))
                .op(8, 2, ScdCall::RegRead)
                .op(20, 6, ScdCall::RegRead)
                .op(30, 0, ScdCall::RegRead);
            s.seed = seed;
            s.deadline = Time::from_ticks(100);
            let mut w = s.build();
            w.run_until(s.deadline);
            let history = register_history_from_world(&w, (0..9).map(pid));
            assert!(
                check_sequentially_consistent(&history)
                    .unwrap()
                    .is_linearizable(),
                "seed {seed}:\n{history}"
            );
        }
    }

    #[test]
    fn below_bound_churn_converges() {
        // 5% per 10 ticks on 9 members: well inside the frontier for this
        // config (reaction 13 ticks → ~0.6 expected replacements < 4.5).
        let spec = ChurnSpec::rate(0.05, TimeDelta::ticks(10)).unwrap();
        assert!(sustainable(&spec, 9, config().reaction()));
        for seed in 0..8 {
            let mut s = ScdScenario::new(generate::torus(3, 3), config())
                .op(1, 0, ScdCall::CtrAdd(3))
                .op(15, 0, ScdCall::CtrAdd(4))
                .op(40, 0, ScdCall::CtrRead);
            s.seed = seed;
            s.driver = DriverSpec::Balanced {
                rate: 0.05,
                window: 10,
                crash_fraction: 0.0,
            };
            s.deadline = Time::from_ticks(160);
            assert!(!s.above_bound());
            let r = s.run();
            assert_eq!(r.unresolved, 0, "seed {seed}: never hang");
            assert!(r.converged, "seed {seed}: {r:?}");
            assert!(r.violation.is_none(), "seed {seed}: {:?}", r.violation);
        }
    }

    #[test]
    fn above_bound_churn_fails_loud_never_hangs() {
        // 80% per 5 ticks replaces most of the membership inside one
        // reaction window — far above the frontier. With mortal
        // originators (the protected initiator only reads), every run
        // must terminate with an explicit failure: joiners stranded
        // mid-sync, acked adds invisible among survivors, or aborts.
        // Never a hang — pending ops resolve via their op-window timers.
        let spec = ChurnSpec::rate(0.8, TimeDelta::ticks(5)).unwrap();
        assert!(!sustainable(&spec, 9, config().reaction()));
        for seed in 0..8 {
            let mut s = ScdScenario::new(generate::torus(3, 3), config())
                .op(1, 1, ScdCall::CtrAdd(3))
                .op(2, 4, ScdCall::CtrAdd(4))
                .op(15, 8, ScdCall::CtrAdd(5))
                .op(40, 0, ScdCall::CtrRead);
            s.seed = seed;
            s.driver = DriverSpec::Balanced {
                rate: 0.8,
                window: 5,
                crash_fraction: 0.5,
            };
            s.deadline = Time::from_ticks(160);
            assert!(s.above_bound());
            let r = s.run();
            assert_eq!(r.unresolved, 0, "seed {seed}: never hang: {r:?}");
            assert!(
                r.stranded > 0 || !r.converged || r.aborted > 0,
                "seed {seed}: above-bound churn must fail loudly: {r:?}"
            );
        }
    }

    #[test]
    fn sustainable_frontier_matches_hand_numbers() {
        // n=9, window 10 ticks, reaction 13 ticks (ttl=4 · delta=1 → lag
        // 5, plus two periods of 4): 5% churn expects 0.585 replacements
        // (< 4.5), 40% expects 4.68 (≥ 4.5).
        let reaction = config().reaction();
        assert_eq!(reaction, TimeDelta::ticks(13));
        let below = ChurnSpec::rate(0.05, TimeDelta::ticks(10)).unwrap();
        let above = ChurnSpec::rate(0.4, TimeDelta::ticks(10)).unwrap();
        assert!(sustainable(&below, 9, reaction));
        assert!(!sustainable(&above, 9, reaction));
        assert!(sustainable(&ChurnSpec::none(), 9, reaction));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut s = ScdScenario::new(generate::torus(3, 3), config())
                .op(1, 0, ScdCall::CtrAdd(1))
                .op(5, 4, ScdCall::Tag(9))
                .op(20, 8, ScdCall::CtrRead);
            s.seed = seed;
            s.driver = DriverSpec::Balanced {
                rate: 0.05,
                window: 10,
                crash_fraction: 0.2,
            };
            s.deadline = Time::from_ticks(120);
            format!("{:?}", s.run())
        };
        assert_eq!(run(3), run(3));
        assert_eq!(run(7), run(7));
    }
}
