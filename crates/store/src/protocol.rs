//! The transport-agnostic (sans-io) protocol core of the storage service.
//!
//! [`StoreCore`] is the whole storage process — replica, ABD client, and
//! reconfiguration coordinator — as a pure state machine: feed it one
//! [`CoreIn`] at a time through [`StoreCore::step`] and it appends
//! [`CoreOut`] effects (messages to send, timers to arm) to a
//! caller-owned buffer. It never touches a socket, a clock, or a
//! scheduler, so the *same* compiled protocol logic runs under
//!
//! - the deterministic simulator (`crate::actor::StoreActor` is a thin
//!   [`dds_sim::actor::Actor`] adapter that replays the outputs through
//!   the kernel's [`Context`](dds_sim::actor::Context) — byte-identical
//!   to the pre-split monolithic actor, pinned by the store test suite
//!   and the S1 experiment table), and
//! - the networked service (`dds-svc` frames the same messages over real
//!   TCP or Unix-domain sockets and arms the timers on a wall-clock
//!   timer wheel, with one tick mapped to one millisecond).
//!
//! ## The step contract
//!
//! Inputs are applied in call order; outputs are appended in the exact
//! order the protocol decided them, and hosts must dispatch them in that
//! order (message reorderings the transport itself introduces are part
//! of the modeled network, not of the host). `now` must be monotone
//! across calls. Timer tokens are allocated by the core, monotonically,
//! and each [`CoreOut::SetTimer`] fires exactly once: hosts deliver
//! [`CoreIn::Timer`] with the same token when (wall or virtual) time
//! reaches `now + delay`. Stale timers are the core's problem — it keeps
//! enough state to ignore them — so hosts never cancel anything.
//!
//! `peers` is the host's current *discovery hint*: the processes this
//! one can name without having been told about them by the protocol
//! (the knowledge-graph neighbors in the simulator, the registry roster
//! in `dds-svc`). The core uses it only to announce itself and to widen
//! view-refresh probes; correctness never depends on its contents.
//!
//! The protocol itself — timed quorums, two-phase ABD operations, epoch
//! fencing, probe-driven reconfiguration — is documented on
//! [`crate::actor`] and in DESIGN.md §11; this module is the same logic
//! with the I/O cut off at the waist.

use std::collections::VecDeque;

use dds_core::process::ProcessId;
use dds_core::spec::register::{RegOp, RegResp};
use dds_core::time::{Time, TimeDelta};

use dds_sim::snapshot::StableHasher;

use crate::msg::{fp_opt_u64, fp_pids, fp_reg_op, fp_stamp, fp_tag, OpTag, Stamp, StoreMsg};
use crate::quorum::{majority, QuorumView};

/// Static parameters of a storage deployment (same for every process).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreParams {
    /// The epoch-1 replica set.
    pub initial: Vec<ProcessId>,
    /// Target configuration size the engine repairs towards.
    pub replica_count: usize,
    /// Extra quorum floor from the timed-quorum sizing (clamped to the
    /// configuration size; the majority floor always applies).
    pub min_quorum: usize,
    /// Read write-back (phase 2 of reads). `false` is the stale-read
    /// mutant.
    pub write_back: bool,
    /// Epoch fencing. `false` is the lost-update mutant: superseded
    /// replicas keep serving.
    pub epoch_fencing: bool,
    /// Per-attempt operation deadline.
    pub op_timeout: TimeDelta,
    /// Attempts before an operation aborts.
    pub max_attempts: u32,
    /// Replica heartbeat interval; `None` disables probing (and with it
    /// automatic reconfiguration — only injected
    /// [`StoreMsg::Reconfigure`]s move the epoch).
    pub probe_every: Option<TimeDelta>,
    /// Silence after which a configuration member is suspected.
    pub suspect_after: TimeDelta,
    /// Validity window Δ of a client's quorum view; an older view is
    /// re-probed before use.
    pub view_delta: TimeDelta,
}

impl Default for StoreParams {
    fn default() -> Self {
        StoreParams {
            initial: Vec::new(),
            replica_count: 3,
            min_quorum: 0,
            write_back: true,
            epoch_fencing: true,
            op_timeout: TimeDelta::ticks(24),
            max_attempts: 4,
            probe_every: Some(TimeDelta::ticks(10)),
            suspect_after: TimeDelta::ticks(25),
            view_delta: TimeDelta::ticks(60),
        }
    }
}

/// A one-shot timer handle allocated by the core (monotone per core).
///
/// Hosts map tokens onto whatever their scheduler uses — the simulator
/// keeps a token ↔ kernel [`TimerId`](dds_sim::event::TimerId) table,
/// `dds-svc` files the token in its wall-clock timer wheel — and hand
/// the token back via [`CoreIn::Timer`] when the timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

impl TimerToken {
    /// The raw token value.
    pub fn as_raw(self) -> u64 {
        self.0
    }
}

/// One input to the protocol core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreIn {
    /// The process has joined the system: announce to the current peers
    /// and, if it is an epoch-1 replica, adopt the initial configuration.
    /// Must be the first input.
    Start,
    /// A protocol message arrived from `from`.
    Message {
        /// The sending process.
        from: ProcessId,
        /// The message.
        msg: StoreMsg,
    },
    /// A timer armed by an earlier [`CoreOut::SetTimer`] fired.
    Timer(TimerToken),
}

/// One effect the protocol core wants performed.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreOut {
    /// Send `msg` to `to`. Delivery may fail silently (lossy network,
    /// departed peer) — the protocol's timers cover every loss.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: StoreMsg,
    },
    /// Arm a one-shot timer: deliver [`CoreIn::Timer`] with `token` once
    /// `delay` has elapsed (hosts round zero delays up to one tick).
    SetTimer {
        /// The token to hand back on expiry.
        token: TimerToken,
        /// How long from now.
        delay: TimeDelta,
    },
}

/// The core's window onto one step: current time, identity, discovery
/// hints, and the output buffer. Mirrors the slice of the simulator's
/// [`Context`](dds_sim::actor::Context) API the protocol uses, so the
/// protocol methods read identically to their pre-split form.
struct CoreCtx<'a> {
    now: Time,
    me: ProcessId,
    peers: &'a [ProcessId],
    out: &'a mut Vec<CoreOut>,
    next_token: u64,
}

impl CoreCtx<'_> {
    fn pid(&self) -> ProcessId {
        self.me
    }

    fn now(&self) -> Time {
        self.now
    }

    fn neighbors(&self) -> &[ProcessId] {
        self.peers
    }

    fn send(&mut self, to: ProcessId, msg: StoreMsg) {
        self.out.push(CoreOut::Send { to, msg });
    }

    fn broadcast(&mut self, msg: StoreMsg) {
        for &n in self.peers {
            self.out.push(CoreOut::Send {
                to: n,
                msg: msg.clone(),
            });
        }
    }

    fn set_timer(&mut self, delay: TimeDelta) -> TimerToken {
        let token = TimerToken(self.next_token);
        self.next_token += 1;
        self.out.push(CoreOut::SetTimer { token, delay });
        token
    }
}

/// One client operation as the core logged it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedStoreOp {
    /// What was invoked.
    pub op: RegOp,
    /// Invocation instant.
    pub invoked: Time,
    /// Response instant; `None` when the operation aborted.
    pub responded: Option<Time>,
    /// The response; `None` when the operation aborted.
    pub response: Option<RegResp>,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// `true` when the operation gave up after `max_attempts`.
    pub aborted: bool,
}

/// Counters exposed for reports and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Operations that completed with a response.
    pub completed: u64,
    /// Operations that aborted (liveness loss).
    pub aborted: u64,
    /// Attempt retries (fenced or timed out).
    pub retries: u64,
    /// Fence NACKs served by this replica.
    pub fenced_nacks: u64,
    /// Reconfigurations this process started as coordinator.
    pub reconfigs_started: u64,
    /// Reconfigurations whose migration this process sent.
    pub reconfigs_committed: u64,
    /// Reconfigurations cancelled because a peer was already ahead.
    pub reconfigs_cancelled: u64,
    /// Migrations adopted.
    pub migrations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for a `ViewRep` before issuing phase 1.
    Refresh,
    /// Phase 1: collecting `QueryAck`s.
    Query,
    /// Phase 2: collecting `StoreAck`s.
    Store,
}

#[derive(Debug, Clone)]
struct PendingOp {
    op: RegOp,
    tag: OpTag,
    invoked: Time,
    phase: Phase,
    /// Highest `(stamp, value)` seen in phase 1 of this attempt.
    best_stamp: Stamp,
    best_value: Option<u64>,
    /// What phase 2 is installing.
    store_stamp: Stamp,
    store_value: Option<u64>,
    acks: usize,
    timer: TimerToken,
}

#[derive(Debug, Clone)]
struct RecState {
    epoch: u64,
    members: Vec<ProcessId>,
    /// Epoch of the configuration being snapshotted (acks from a newer
    /// base cancel the attempt — someone is already ahead).
    base: u64,
    needed: usize,
    acks: usize,
    stamp: Stamp,
    value: Option<u64>,
    started: Time,
}

/// The storage process as a pure state machine. See the module docs for
/// the step contract and [`crate::actor`] for the protocol.
#[derive(Debug, Clone)]
pub struct StoreCore {
    params: StoreParams,

    /// Next timer token to allocate.
    next_token: u64,

    // --- replica state ---
    /// Adopted configuration epoch (0 before any adoption).
    epoch: u64,
    /// Adopted replica set.
    members: Vec<ProcessId>,
    /// Highest epoch promised via `RecQuery` (fence target).
    promised: u64,
    /// The member list attached to the promise.
    promised_members: Vec<ProcessId>,
    /// Ever held replica state (the fencing-off mutant serves iff this).
    was_replica: bool,
    stamp: Stamp,
    value: Option<u64>,
    /// Last time each current member was heard from.
    last_heard: Vec<(ProcessId, Time)>,
    /// Announced joiners, oldest first (replacements picked from the back
    /// — most recently announced are most likely still present).
    candidates: Vec<ProcessId>,
    rec: Option<RecState>,
    probe_timer: Option<TimerToken>,
    /// `(time, epoch)` at every adoption, for epoch-transition reporting.
    epoch_log: Vec<(Time, u64)>,

    // --- client state ---
    view: QuorumView,
    queue: VecDeque<RegOp>,
    cur: Option<PendingOp>,
    next_op_seq: u64,
    log: Vec<LoggedStoreOp>,
    /// Quorum thresholds used by completed operations.
    quorums_used: Vec<u64>,

    /// Counters.
    pub stats: StoreStats,
}

const MAX_CANDIDATES: usize = 64;

impl StoreCore {
    /// Creates a process of the deployment described by `params`.
    pub fn new(params: StoreParams) -> Self {
        let view = QuorumView::new(1, params.initial.clone(), Time::ZERO);
        StoreCore {
            params,
            next_token: 0,
            epoch: 0,
            members: Vec::new(),
            promised: 0,
            promised_members: Vec::new(),
            was_replica: false,
            stamp: Stamp::ZERO,
            value: None,
            last_heard: Vec::new(),
            candidates: Vec::new(),
            rec: None,
            probe_timer: None,
            epoch_log: Vec::new(),
            view,
            queue: VecDeque::new(),
            cur: None,
            next_op_seq: 0,
            log: Vec::new(),
            quorums_used: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// Applies one input at `now`, appending the decided effects to
    /// `out` (existing contents are left untouched).
    pub fn step(
        &mut self,
        now: Time,
        me: ProcessId,
        peers: &[ProcessId],
        input: CoreIn,
        out: &mut Vec<CoreOut>,
    ) {
        let mut ctx = CoreCtx {
            now,
            me,
            peers,
            out,
            next_token: self.next_token,
        };
        match input {
            CoreIn::Start => self.on_start(&mut ctx),
            CoreIn::Message { from, msg } => self.on_message(&mut ctx, from, msg),
            CoreIn::Timer(token) => self.on_timer(&mut ctx, token),
        }
        self.next_token = ctx.next_token;
    }

    /// The deployment parameters this core was built with.
    pub fn params(&self) -> &StoreParams {
        &self.params
    }

    /// The operations this process drove as a client.
    pub fn log(&self) -> &[LoggedStoreOp] {
        &self.log
    }

    /// The operation still in flight (invoked, no response yet), if any —
    /// a run cut off by its deadline leaves at most one per client, which
    /// history extraction must record as pending.
    pub fn in_flight(&self) -> Option<(RegOp, Time)> {
        self.cur.as_ref().map(|p| (p.op, p.invoked))
    }

    /// Operations queued behind the in-flight one (injected, not started).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The replica's adopted epoch (0 = never a replica).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replica's current `(stamp, value)`.
    pub fn state(&self) -> (Stamp, Option<u64>) {
        (self.stamp, self.value)
    }

    /// The replica set this core has adopted (empty before adoption).
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// Epoch adoptions as `(time, epoch)`, in adoption order.
    pub fn epoch_log(&self) -> &[(Time, u64)] {
        &self.epoch_log
    }

    /// Quorum thresholds used by this client's completed operations.
    pub fn quorums_used(&self) -> &[u64] {
        &self.quorums_used
    }

    // --- replica side -----------------------------------------------------

    fn latest_config(&self) -> (u64, &[ProcessId]) {
        if self.promised > self.epoch {
            (self.promised, &self.promised_members)
        } else {
            (self.epoch, &self.members)
        }
    }

    /// Whether to serve an operation phase tagged with `op_epoch`.
    /// Returns `Ok(())` to serve, `Err(true)` to NACK with a fence,
    /// `Err(false)` to stay silent (the client's epoch is ahead of us).
    fn serve(&self, me: ProcessId, op_epoch: u64) -> Result<(), bool> {
        if !self.params.epoch_fencing {
            // Ablation: any process that ever held replica state serves
            // any epoch.
            return if self.was_replica { Ok(()) } else { Err(false) };
        }
        let (latest, _) = self.latest_config();
        if op_epoch < latest {
            return Err(true);
        }
        if op_epoch == self.epoch && self.members.contains(&me) {
            Ok(())
        } else {
            Err(false)
        }
    }

    fn fence_nack(&mut self, ctx: &mut CoreCtx<'_>, to: ProcessId, tag: OpTag) {
        self.stats.fenced_nacks += 1;
        let (epoch, members) = self.latest_config();
        let members = members.to_vec();
        ctx.send(
            to,
            StoreMsg::Fenced {
                tag,
                epoch,
                members,
            },
        );
    }

    fn heard(&mut self, from: ProcessId, now: Time) {
        if let Some(entry) = self.last_heard.iter_mut().find(|(p, _)| *p == from) {
            entry.1 = now;
        }
    }

    fn note_candidate(&mut self, ctx: &mut CoreCtx<'_>, pid: ProcessId, forward: bool) {
        if pid == ctx.pid() || self.candidates.contains(&pid) {
            return;
        }
        self.candidates.push(pid);
        if self.candidates.len() > MAX_CANDIDATES {
            self.candidates.remove(0);
        }
        if forward {
            // One-hop gossip so announcements reach replicas that are not
            // adjacent to the joiner.
            ctx.broadcast(StoreMsg::Announce2 { joiner: pid });
        }
    }

    fn adopt_config(&mut self, ctx: &mut CoreCtx<'_>, epoch: u64, members: &[ProcessId]) {
        let now = ctx.now();
        self.epoch = epoch;
        self.members = members.to_vec();
        self.members.sort_unstable();
        self.members.dedup();
        self.last_heard = self.members.iter().map(|&m| (m, now)).collect();
        self.candidates.retain(|c| !self.members.contains(c));
        self.epoch_log.push((now, epoch));
        self.view.adopt(epoch, &self.members, now);
        if self.members.contains(&ctx.pid()) {
            self.was_replica = true;
            self.ensure_probe_timer(ctx);
        }
        if self.rec.as_ref().is_some_and(|r| r.epoch <= epoch) {
            self.rec = None;
        }
    }

    fn ensure_probe_timer(&mut self, ctx: &mut CoreCtx<'_>) {
        if self.probe_timer.is_none() {
            if let Some(every) = self.params.probe_every {
                self.probe_timer = Some(ctx.set_timer(every));
            }
        }
    }

    fn start_reconfig(&mut self, ctx: &mut CoreCtx<'_>, new_members: Vec<ProcessId>) {
        if new_members.is_empty() {
            return;
        }
        let epoch = self
            .epoch
            .max(self.promised)
            .max(self.rec.as_ref().map_or(0, |r| r.epoch))
            + 1;
        self.stats.reconfigs_started += 1;
        self.rec = Some(RecState {
            epoch,
            members: new_members.clone(),
            base: self.epoch,
            needed: majority(self.members.len()),
            acks: 0,
            stamp: Stamp::ZERO,
            value: None,
            started: ctx.now(),
        });
        for &m in &self.members {
            ctx.send(
                m,
                StoreMsg::RecQuery {
                    epoch,
                    members: new_members.clone(),
                },
            );
        }
    }

    fn probe_tick(&mut self, ctx: &mut CoreCtx<'_>) {
        self.probe_timer = None;
        let me = ctx.pid();
        if !self.members.contains(&me) {
            return; // decommissioned: stop probing
        }
        if let Some(every) = self.params.probe_every {
            self.probe_timer = Some(ctx.set_timer(every));
            let now = ctx.now();
            for &m in &self.members {
                if m != me {
                    ctx.send(m, StoreMsg::Probe { epoch: self.epoch });
                }
            }
            // Suspicion: members silent past the timeout.
            let suspected: Vec<ProcessId> = self
                .last_heard
                .iter()
                .filter(|&&(p, last)| p != me && last + self.params.suspect_after < now)
                .map(|&(p, _)| p)
                .collect();
            self.candidates.retain(|c| !suspected.contains(c));
            // Coordinator duty falls on the lowest unsuspected member.
            let coordinator = self
                .members
                .iter()
                .find(|m| !suspected.contains(m))
                .copied();
            if coordinator != Some(me) {
                return;
            }
            // An in-flight attempt gets two probe rounds before we retry.
            if let Some(rec) = &self.rec {
                if now < rec.started + every + every {
                    return;
                }
                self.rec = None;
            }
            let repair_needed =
                !suspected.is_empty() || self.members.len() < self.params.replica_count;
            if !repair_needed {
                return;
            }
            let mut next: Vec<ProcessId> = self
                .members
                .iter()
                .filter(|m| !suspected.contains(m))
                .copied()
                .collect();
            // Fill from the most recently announced candidates.
            for &c in self.candidates.iter().rev() {
                if next.len() >= self.params.replica_count {
                    break;
                }
                if !next.contains(&c) {
                    next.push(c);
                }
            }
            next.sort_unstable();
            if next != self.members {
                self.start_reconfig(ctx, next);
            }
        }
    }

    fn on_rec_ack(
        &mut self,
        ctx: &mut CoreCtx<'_>,
        epoch: u64,
        base: u64,
        stamp: Stamp,
        value: Option<u64>,
    ) {
        let Some(rec) = self.rec.as_mut() else {
            return;
        };
        if rec.epoch != epoch {
            return;
        }
        if base > rec.base {
            // A member already adopted a newer configuration than the one
            // we snapshotted: our view of "old" is stale, so the snapshot
            // would not be guaranteed to cover its completed writes.
            self.rec = None;
            self.stats.reconfigs_cancelled += 1;
            return;
        }
        rec.acks += 1;
        if stamp > rec.stamp {
            rec.stamp = stamp;
            rec.value = value;
        }
        if rec.acks < rec.needed {
            return;
        }
        let rec = self.rec.take().expect("checked above");
        self.stats.reconfigs_committed += 1;
        let mut targets = self.members.clone();
        for &m in &rec.members {
            if !targets.contains(&m) {
                targets.push(m);
            }
        }
        for &m in &targets {
            ctx.send(
                m,
                StoreMsg::Migrate {
                    epoch: rec.epoch,
                    members: rec.members.clone(),
                    stamp: rec.stamp,
                    value: rec.value,
                },
            );
        }
    }

    // --- client side ------------------------------------------------------

    fn phase_quorum(&self) -> usize {
        let n = self.view.members.len();
        majority(n).max(self.params.min_quorum.min(n))
    }

    fn start_next(&mut self, ctx: &mut CoreCtx<'_>) {
        if self.cur.is_some() {
            return;
        }
        let Some(op) = self.queue.pop_front() else {
            return;
        };
        let tag = OpTag {
            seq: self.next_op_seq,
            attempt: 1,
        };
        self.next_op_seq += 1;
        let timer = ctx.set_timer(self.params.op_timeout);
        self.cur = Some(PendingOp {
            op,
            tag,
            invoked: ctx.now(),
            phase: Phase::Refresh,
            best_stamp: Stamp::ZERO,
            best_value: None,
            store_stamp: Stamp::ZERO,
            store_value: None,
            acks: 0,
            timer,
        });
        self.begin_attempt(ctx, false);
    }

    /// Starts (or restarts) the current attempt: re-probes an expired
    /// view, then issues phase 1. `force_refresh` is set on timeout
    /// retries — if the view's members stopped answering, only a probe
    /// can discover the configuration that replaced them.
    fn begin_attempt(&mut self, ctx: &mut CoreCtx<'_>, force_refresh: bool) {
        let now = ctx.now();
        let stale = !self.view.is_valid(now, self.params.view_delta);
        let Some(p) = self.cur.as_mut() else { return };
        if stale || force_refresh {
            p.phase = Phase::Refresh;
            p.acks = 0;
            let mut targets = self.view.members.clone();
            for &n in ctx.neighbors() {
                if !targets.contains(&n) {
                    targets.push(n);
                }
            }
            for t in targets {
                ctx.send(t, StoreMsg::ViewReq);
            }
        } else {
            self.begin_query(ctx);
        }
    }

    fn begin_query(&mut self, ctx: &mut CoreCtx<'_>) {
        let epoch = self.view.epoch;
        let Some(p) = self.cur.as_mut() else { return };
        p.phase = Phase::Query;
        p.acks = 0;
        p.best_stamp = Stamp::ZERO;
        p.best_value = None;
        let tag = p.tag;
        for &m in &self.view.members {
            ctx.send(m, StoreMsg::Query { tag, epoch });
        }
    }

    fn begin_store(&mut self, ctx: &mut CoreCtx<'_>, stamp: Stamp, value: Option<u64>) {
        let epoch = self.view.epoch;
        let Some(p) = self.cur.as_mut() else { return };
        p.phase = Phase::Store;
        p.acks = 0;
        p.store_stamp = stamp;
        p.store_value = value;
        let tag = p.tag;
        for &m in &self.view.members {
            ctx.send(
                m,
                StoreMsg::Store {
                    tag,
                    epoch,
                    stamp,
                    value,
                },
            );
        }
    }

    fn complete(&mut self, ctx: &mut CoreCtx<'_>, response: RegResp) {
        let quorum = self.phase_quorum() as u64;
        let Some(p) = self.cur.take() else { return };
        self.stats.completed += 1;
        self.quorums_used.push(quorum);
        self.log.push(LoggedStoreOp {
            op: p.op,
            invoked: p.invoked,
            responded: Some(ctx.now()),
            response: Some(response),
            attempts: p.tag.attempt,
            aborted: false,
        });
        self.start_next(ctx);
    }

    fn retry(&mut self, ctx: &mut CoreCtx<'_>, force_refresh: bool) {
        let timeout = self.params.op_timeout;
        let max_attempts = self.params.max_attempts;
        let Some(p) = self.cur.as_mut() else { return };
        if p.tag.attempt >= max_attempts {
            let p = self.cur.take().expect("just matched");
            self.stats.aborted += 1;
            self.log.push(LoggedStoreOp {
                op: p.op,
                invoked: p.invoked,
                responded: None,
                response: None,
                attempts: p.tag.attempt,
                aborted: true,
            });
            self.start_next(ctx);
            return;
        }
        self.stats.retries += 1;
        p.tag.attempt += 1;
        p.timer = ctx.set_timer(timeout);
        self.begin_attempt(ctx, force_refresh);
    }

    fn on_query_ack(
        &mut self,
        ctx: &mut CoreCtx<'_>,
        tag: OpTag,
        stamp: Stamp,
        value: Option<u64>,
    ) {
        let quorum = self.phase_quorum();
        let write_back = self.params.write_back;
        let me = ctx.pid();
        let Some(p) = self.cur.as_mut() else { return };
        if p.tag != tag || p.phase != Phase::Query {
            return;
        }
        if stamp > p.best_stamp {
            p.best_stamp = stamp;
            p.best_value = value;
        }
        p.acks += 1;
        if p.acks < quorum {
            return;
        }
        match p.op {
            RegOp::Write(v) => {
                let stamp = p.best_stamp.next(me);
                self.begin_store(ctx, stamp, Some(v));
            }
            RegOp::Read => {
                let (stamp, value) = (p.best_stamp, p.best_value);
                if write_back {
                    self.begin_store(ctx, stamp, value);
                } else {
                    // Mutant: skip the write-back and answer straight from
                    // phase 1 — a value seen in a minority can be "read"
                    // without being made durable, so a later read may
                    // observe an older one (new/old inversion).
                    self.complete(ctx, RegResp::Value(value));
                }
            }
        }
    }

    fn on_store_ack(&mut self, ctx: &mut CoreCtx<'_>, tag: OpTag) {
        let quorum = self.phase_quorum();
        let Some(p) = self.cur.as_mut() else { return };
        if p.tag != tag || p.phase != Phase::Store {
            return;
        }
        p.acks += 1;
        if p.acks < quorum {
            return;
        }
        let response = match p.op {
            RegOp::Write(_) => RegResp::Ack,
            RegOp::Read => RegResp::Value(p.store_value),
        };
        self.complete(ctx, response);
    }

    // --- input dispatch ---------------------------------------------------

    fn on_start(&mut self, ctx: &mut CoreCtx<'_>) {
        let me = ctx.pid();
        self.view.refreshed_at = ctx.now();
        ctx.broadcast(StoreMsg::Announce);
        if self.params.initial.contains(&me) {
            let initial = self.params.initial.clone();
            self.adopt_config(ctx, 1, &initial);
        }
    }

    fn on_message(&mut self, ctx: &mut CoreCtx<'_>, from: ProcessId, msg: StoreMsg) {
        let now = ctx.now();
        match msg {
            StoreMsg::Invoke(op) => {
                self.queue.push_back(op);
                self.start_next(ctx);
            }
            StoreMsg::Reconfigure { members } => {
                if self.members.contains(&ctx.pid()) {
                    let mut members = members;
                    members.sort_unstable();
                    members.dedup();
                    self.start_reconfig(ctx, members);
                }
            }

            StoreMsg::Query { tag, epoch } => match self.serve(ctx.pid(), epoch) {
                Ok(()) => ctx.send(
                    from,
                    StoreMsg::QueryAck {
                        tag,
                        stamp: self.stamp,
                        value: self.value,
                    },
                ),
                Err(true) => self.fence_nack(ctx, from, tag),
                Err(false) => {}
            },
            StoreMsg::Store {
                tag,
                epoch,
                stamp,
                value,
            } => match self.serve(ctx.pid(), epoch) {
                Ok(()) => {
                    if stamp > self.stamp {
                        self.stamp = stamp;
                        self.value = value;
                    }
                    ctx.send(from, StoreMsg::StoreAck { tag });
                }
                Err(true) => self.fence_nack(ctx, from, tag),
                Err(false) => {}
            },
            StoreMsg::ViewReq => {
                let (epoch, members) = if self.was_replica {
                    (self.epoch, self.members.clone())
                } else {
                    (self.view.epoch, self.view.members.clone())
                };
                ctx.send(from, StoreMsg::ViewRep { epoch, members });
            }

            StoreMsg::QueryAck { tag, stamp, value } => self.on_query_ack(ctx, tag, stamp, value),
            StoreMsg::StoreAck { tag } => self.on_store_ack(ctx, tag),
            StoreMsg::Fenced {
                tag,
                epoch,
                members,
            } => {
                self.view.adopt(epoch, &members, now);
                if self.cur.as_ref().is_some_and(|p| p.tag == tag) {
                    self.retry(ctx, false);
                }
            }
            StoreMsg::ViewRep { epoch, members } => {
                self.view.adopt(epoch, &members, now);
                if self.cur.as_ref().is_some_and(|p| p.phase == Phase::Refresh) {
                    self.begin_query(ctx);
                }
            }

            StoreMsg::Announce => self.note_candidate(ctx, from, true),
            StoreMsg::Announce2 { joiner } => self.note_candidate(ctx, joiner, false),
            StoreMsg::Probe { epoch: _ } => {
                self.heard(from, now);
                ctx.send(
                    from,
                    StoreMsg::ProbeAck {
                        epoch: self.epoch,
                        candidates: self.candidates.clone(),
                    },
                );
            }
            StoreMsg::ProbeAck {
                epoch: _,
                candidates,
            } => {
                self.heard(from, now);
                for c in candidates {
                    self.note_candidate(ctx, c, false);
                }
            }

            StoreMsg::RecQuery { epoch, members } => {
                self.heard(from, now);
                if epoch > self.promised && epoch > self.epoch {
                    self.promised = epoch;
                    self.promised_members = members;
                    ctx.send(
                        from,
                        StoreMsg::RecAck {
                            epoch,
                            base: self.epoch,
                            stamp: self.stamp,
                            value: self.value,
                        },
                    );
                }
            }
            StoreMsg::RecAck {
                epoch,
                base,
                stamp,
                value,
            } => {
                self.heard(from, now);
                self.on_rec_ack(ctx, epoch, base, stamp, value);
            }
            StoreMsg::Migrate {
                epoch,
                members,
                stamp,
                value,
            } => {
                self.heard(from, now);
                if epoch >= self.epoch && epoch >= self.promised && epoch > 0 {
                    if stamp > self.stamp {
                        self.stamp = stamp;
                        self.value = value;
                    }
                    self.was_replica = true;
                    self.stats.migrations += 1;
                    self.adopt_config(ctx, epoch, &members);
                    ctx.send(from, StoreMsg::MigrateAck { epoch });
                }
            }
            StoreMsg::MigrateAck { epoch: _ } => self.heard(from, now),
        }
    }

    fn on_timer(&mut self, ctx: &mut CoreCtx<'_>, token: TimerToken) {
        if self.probe_timer == Some(token) {
            self.probe_tick(ctx);
            return;
        }
        if self.cur.as_ref().is_some_and(|p| p.timer == token) {
            self.retry(ctx, true);
        }
    }

    // --- fingerprinting ---------------------------------------------------

    /// Absorbs one logged operation into a fingerprint.
    fn fp_logged(op: &LoggedStoreOp, h: &mut StableHasher) {
        fp_reg_op(&op.op, h);
        h.write_u64(op.invoked.as_ticks());
        match op.responded {
            Some(t) => {
                h.write_u8(1);
                h.write_u64(t.as_ticks());
            }
            None => h.write_u8(0),
        }
        match op.response {
            Some(RegResp::Value(v)) => {
                h.write_u8(1);
                fp_opt_u64(&v, h);
            }
            Some(RegResp::Ack) => h.write_u8(2),
            None => h.write_u8(0),
        }
        h.write_u32(op.attempts);
        h.write_bool(op.aborted);
    }

    /// Canonical hash of every behavior-relevant field (for world
    /// fingerprints and state deduplication). `params` is immutable run
    /// configuration — identical in every state of one exploration — so
    /// it stays out of the hash. Every mutable field is included,
    /// `log`/`quorums_used`/`stats` too: the final-state checks read
    /// them, so two states differing only there must not be identified.
    pub fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u64(self.next_token);
        h.write_u64(self.epoch);
        fp_pids(&self.members, h);
        h.write_u64(self.promised);
        fp_pids(&self.promised_members, h);
        h.write_bool(self.was_replica);
        fp_stamp(&self.stamp, h);
        fp_opt_u64(&self.value, h);
        h.write_usize(self.last_heard.len());
        for (pid, t) in &self.last_heard {
            h.write_u64(pid.as_raw());
            h.write_u64(t.as_ticks());
        }
        fp_pids(&self.candidates, h);
        match &self.rec {
            Some(rec) => {
                h.write_u8(1);
                h.write_u64(rec.epoch);
                fp_pids(&rec.members, h);
                h.write_u64(rec.base);
                h.write_usize(rec.needed);
                h.write_usize(rec.acks);
                fp_stamp(&rec.stamp, h);
                fp_opt_u64(&rec.value, h);
                h.write_u64(rec.started.as_ticks());
            }
            None => h.write_u8(0),
        }
        match self.probe_timer {
            Some(token) => {
                h.write_u8(1);
                h.write_u64(token.as_raw());
            }
            None => h.write_u8(0),
        }
        h.write_usize(self.epoch_log.len());
        for (t, e) in &self.epoch_log {
            h.write_u64(t.as_ticks());
            h.write_u64(*e);
        }
        h.write_u64(self.view.epoch);
        fp_pids(&self.view.members, h);
        h.write_u64(self.view.refreshed_at.as_ticks());
        h.write_usize(self.queue.len());
        for op in &self.queue {
            fp_reg_op(op, h);
        }
        match &self.cur {
            Some(p) => {
                h.write_u8(1);
                fp_reg_op(&p.op, h);
                fp_tag(&p.tag, h);
                h.write_u64(p.invoked.as_ticks());
                h.write_u8(match p.phase {
                    Phase::Refresh => 0,
                    Phase::Query => 1,
                    Phase::Store => 2,
                });
                fp_stamp(&p.best_stamp, h);
                fp_opt_u64(&p.best_value, h);
                fp_stamp(&p.store_stamp, h);
                fp_opt_u64(&p.store_value, h);
                h.write_usize(p.acks);
                h.write_u64(p.timer.as_raw());
            }
            None => h.write_u8(0),
        }
        h.write_u64(self.next_op_seq);
        h.write_usize(self.log.len());
        for op in &self.log {
            Self::fp_logged(op, h);
        }
        h.write_usize(self.quorums_used.len());
        for q in &self.quorums_used {
            h.write_u64(*q);
        }
        h.write_u64(self.stats.completed);
        h.write_u64(self.stats.aborted);
        h.write_u64(self.stats.retries);
        h.write_u64(self.stats.fenced_nacks);
        h.write_u64(self.stats.reconfigs_started);
        h.write_u64(self.stats.reconfigs_committed);
        h.write_u64(self.stats.reconfigs_cancelled);
        h.write_u64(self.stats.migrations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    /// Drives a tiny 1-replica deployment entirely through `step`,
    /// host-free: the test routes every `Send` to the addressed core.
    #[test]
    fn write_then_read_through_pure_steps() {
        let params = StoreParams {
            initial: vec![pid(0)],
            replica_count: 1,
            ..StoreParams::default()
        };
        let mut replica = StoreCore::new(params.clone());
        let mut client = StoreCore::new(params);
        let now = Time::from_ticks(1);
        let mut out = Vec::new();
        replica.step(now, pid(0), &[], CoreIn::Start, &mut out);
        client.step(now, pid(1), &[pid(0)], CoreIn::Start, &mut out);
        out.clear();

        client.step(
            now,
            pid(1),
            &[pid(0)],
            CoreIn::Message {
                from: pid(1),
                msg: StoreMsg::Invoke(RegOp::Write(7)),
            },
            &mut out,
        );
        // Route messages until quiescent (ignore timers: nothing is lost).
        let mut hops = 0;
        while let Some(pos) = out.iter().position(|o| matches!(o, CoreOut::Send { .. })) {
            let CoreOut::Send { to, msg } = out.remove(pos) else {
                unreachable!()
            };
            let (core, me, from) = if to == pid(0) {
                (&mut replica, pid(0), pid(1))
            } else {
                (&mut client, pid(1), pid(0))
            };
            core.step(now, me, &[], CoreIn::Message { from, msg }, &mut out);
            hops += 1;
            assert!(hops < 64, "must quiesce");
        }
        assert_eq!(client.stats.completed, 1);
        assert_eq!(client.log().len(), 1);
        assert_eq!(replica.state().1, Some(7));
        assert_eq!(replica.epoch(), 1);
    }

    #[test]
    fn timer_tokens_are_monotone_and_echoed() {
        let mut core = StoreCore::new(StoreParams {
            initial: vec![pid(0)],
            replica_count: 1,
            ..StoreParams::default()
        });
        let mut out = Vec::new();
        core.step(Time::ZERO, pid(0), &[], CoreIn::Start, &mut out);
        let tokens: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                CoreOut::SetTimer { token, .. } => Some(token.as_raw()),
                _ => None,
            })
            .collect();
        assert!(!tokens.is_empty(), "replica must arm its probe timer");
        for w in tokens.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Firing the probe timer re-arms it with a fresh, larger token.
        out.clear();
        core.step(
            Time::from_ticks(10),
            pid(0),
            &[],
            CoreIn::Timer(TimerToken(tokens[0])),
            &mut out,
        );
        let rearmed: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                CoreOut::SetTimer { token, .. } => Some(token.as_raw()),
                _ => None,
            })
            .collect();
        assert!(rearmed.iter().all(|&t| t > *tokens.last().unwrap()));
    }
}
