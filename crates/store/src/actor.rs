//! The storage process as a simulator actor: replica, client, and
//! reconfiguration engine.
//!
//! Every process runs the same [`StoreActor`]; roles are a matter of
//! state. A process in the current configuration serves the two
//! operation phases ([`StoreMsg::Query`] / [`StoreMsg::Store`]) and
//! heartbeats its peers; any process accepts injected
//! [`StoreMsg::Invoke`]s and acts as a client; the lowest-identity
//! unsuspected replica doubles as reconfiguration coordinator.
//!
//! The protocol itself lives in [`crate::protocol`] as the sans-io
//! [`StoreCore`] — the same state machine the networked `dds-svc`
//! binaries drive over real sockets. This module is only the simulator
//! host: it forwards each kernel callback into [`StoreCore::step`] and
//! replays the resulting [`CoreOut`] effects through the kernel
//! [`Context`] *in emission order*, so the kernel sees exactly the
//! `send`/`set_timer` sequence the pre-split monolithic actor produced
//! (byte-identical runs, pinned by the store test suite and the S1
//! experiment table).
//!
//! ## Fencing discipline (the safety core)
//!
//! A replica acknowledges an operation only when the operation's epoch
//! equals its adopted epoch *and* it has not promised a newer one. A
//! [`StoreMsg::RecQuery`] for epoch `e'` is that promise: answering it
//! fences every older epoch — the replica will NACK their operations
//! with [`StoreMsg::Fenced`] from then on. Since completing an operation
//! takes a majority of the old configuration and so does the
//! reconfiguration snapshot, the two quorums intersect: either the
//! intersection replica acknowledged the operation first (then its
//! snapshot carries the operation's stamp into the new epoch) or it
//! promised first (then it refuses the operation, which must retry in
//! the new epoch). The `epoch_fencing: false` ablation removes exactly
//! this refusal and lets a completed write vanish behind a migration —
//! the mutant `dds-check` must catch.
//!
//! ## Liveness discipline
//!
//! Every attempt of every operation runs under a timer. A fenced or
//! timed-out attempt re-probes its quorum view (timed-quorum refresh)
//! and retries with a fresh attempt tag; after `max_attempts` the
//! operation **aborts** — reported to the caller, logged as an
//! indeterminate operation — rather than hanging. Above the sustainable
//! churn bound (see [`crate::quorum::sustainable`]) this is the expected
//! outcome.

use dds_core::process::ProcessId;
use dds_core::spec::register::RegOp;
use dds_core::time::Time;
use dds_sim::actor::{Actor, Context};
use dds_sim::event::TimerId;
use dds_sim::snapshot::StableHasher;

use crate::msg::{Stamp, StoreMsg};
use crate::protocol::{CoreIn, CoreOut, StoreCore, TimerToken};

pub use crate::protocol::{LoggedStoreOp, StoreParams, StoreStats};

/// One storage process under the simulator. A thin host around
/// [`StoreCore`]; see the module docs for the split.
#[derive(Debug, Clone)]
pub struct StoreActor {
    core: StoreCore,
    /// Reused output buffer for [`StoreCore::step`] (drained every
    /// callback; kept allocated across callbacks).
    out: Vec<CoreOut>,
    /// Outstanding kernel-timer ↔ core-token pairs. Kernel timers are
    /// one-shot, so entries are removed as they fire; superseded core
    /// timers linger here until their kernel timer fires and the core
    /// ignores the stale token — exactly the pre-split behavior, where
    /// the actor ignored stale [`TimerId`]s directly.
    timers: Vec<(TimerId, TimerToken)>,
}

impl StoreActor {
    /// Creates a process of the deployment described by `params`.
    pub fn new(params: StoreParams) -> Self {
        StoreActor {
            core: StoreCore::new(params),
            out: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// The sans-io protocol core (shared with the networked service).
    pub fn core(&self) -> &StoreCore {
        &self.core
    }

    /// The operations this process drove as a client.
    pub fn log(&self) -> &[LoggedStoreOp] {
        self.core.log()
    }

    /// The operation still in flight (invoked, no response yet), if any —
    /// a run cut off by its deadline leaves at most one per client, which
    /// history extraction must record as pending.
    pub fn in_flight(&self) -> Option<(RegOp, Time)> {
        self.core.in_flight()
    }

    /// The replica's adopted epoch (0 = never a replica).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// The replica's current `(stamp, value)`.
    pub fn state(&self) -> (Stamp, Option<u64>) {
        self.core.state()
    }

    /// Epoch adoptions as `(time, epoch)`, in adoption order.
    pub fn epoch_log(&self) -> &[(Time, u64)] {
        self.core.epoch_log()
    }

    /// Quorum thresholds used by this client's completed operations.
    pub fn quorums_used(&self) -> &[u64] {
        self.core.quorums_used()
    }

    /// Counters exposed for reports and experiments.
    pub fn stats(&self) -> &StoreStats {
        &self.core.stats
    }

    /// Steps the core with `input` and replays its outputs through the
    /// kernel context in emission order. Allocating kernel [`TimerId`]s
    /// during the drain (instead of mid-callback, as the monolithic
    /// actor did) assigns the same ids: the kernel hands them out from a
    /// per-process counter in `set_timer` call order, and the drain
    /// preserves that order.
    fn drive(&mut self, ctx: &mut Context<'_, StoreMsg>, input: CoreIn) {
        let mut out = std::mem::take(&mut self.out);
        self.core
            .step(ctx.now(), ctx.pid(), ctx.neighbors(), input, &mut out);
        for effect in out.drain(..) {
            match effect {
                CoreOut::Send { to, msg } => ctx.send(to, msg),
                CoreOut::SetTimer { token, delay } => {
                    let id = ctx.set_timer(delay);
                    self.timers.push((id, token));
                }
            }
        }
        self.out = out;
    }
}

impl Actor<StoreMsg> for StoreActor {
    fn fork(&self) -> Option<Box<dyn Actor<StoreMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        self.core.fingerprint(h);
        // The timer table is adapter state, but it is behavior-relevant:
        // it decides which core token a future kernel timer resolves to.
        h.write_usize(self.timers.len());
        for (id, token) in &self.timers {
            h.write_u64(id.as_raw());
            h.write_u64(token.as_raw());
        }
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_, StoreMsg>) {
        self.drive(ctx, CoreIn::Start);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, StoreMsg>, from: ProcessId, msg: StoreMsg) {
        self.drive(ctx, CoreIn::Message { from, msg });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, StoreMsg>, timer: TimerId) {
        let Some(pos) = self.timers.iter().position(|&(id, _)| id == timer) else {
            return;
        };
        let (_, token) = self.timers.remove(pos);
        self.drive(ctx, CoreIn::Timer(token));
    }
}
