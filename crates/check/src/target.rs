//! The system-under-check abstraction and its two implementations.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use dds_core::spec::register::{check_atomic, RegOp};
use dds_core::time::Time;
use dds_obs::{CausalLog, ObsEvent, Sink};
use dds_registers::construction::Construction;
use dds_registers::harness::{run_schedule_planned, CrashEvent};
use dds_sim::event::ReadySummary;
use dds_sim::snapshot::{fingerprint_msg, FingerprintMsg, StableHasher};
use dds_sim::world::World;

use crate::schedule::{ChoicePoint, ReadyEvent};

/// Final-state property over a finished world. `Rc` so the target and the
/// exploration sessions it spawns can share one closure.
type WorldCheck<M> = Rc<dyn Fn(&World<M>) -> Result<(), Violation>>;

/// A property failure observed in one run.
#[derive(Debug, Clone)]
pub struct Violation {
    /// One-line description of what broke.
    pub reason: String,
    /// Supporting evidence (e.g. the rendered history).
    pub details: String,
}

/// What one run under a fixed decision vector produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The schedule log: forced steps (`width == 1`) and genuine choice
    /// points (`width > 1`), in execution order.
    pub choices: Vec<ChoicePoint>,
    /// The property verdict.
    pub violation: Option<Violation>,
}

impl RunReport {
    /// The decision vector that reproduces this run: one entry per
    /// genuine choice point.
    pub fn plan(&self) -> Vec<usize> {
        self.choices
            .iter()
            .filter(|c| c.width > 1)
            .map(|c| c.chosen)
            .collect()
    }

    /// Number of genuine choice points.
    pub fn decisions(&self) -> usize {
        self.choices.iter().filter(|c| c.width > 1).count()
    }
}

/// A minimized failing schedule, ready to be replayed or reported.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The decision vector that reproduces the failure (trailing defaults
    /// trimmed).
    pub plan: Vec<usize>,
    /// Number of non-default decisions in `plan`.
    pub preemptions: usize,
    /// What broke.
    pub violation: Violation,
}

impl Counterexample {
    pub(crate) fn new(plan: &[usize], violation: Violation) -> Self {
        let mut plan = plan.to_vec();
        while plan.last() == Some(&0) {
            plan.pop();
        }
        let preemptions = plan.iter().filter(|&&d| d != 0).count();
        Counterexample {
            plan,
            preemptions,
            violation,
        }
    }
}

/// A system that can be run under an explicit decision vector.
///
/// `plan[k]` picks among the ready alternatives at the `k`-th genuine
/// choice point; entries are clamped and missing entries mean "default
/// order", so every `plan` is legal and the empty plan is the unmodified
/// system. Runs must be deterministic functions of the plan.
pub trait Target {
    /// Short identifier for reports.
    fn name(&self) -> &str;

    /// Runs the system once under `plan`.
    fn run(&mut self, plan: &[usize]) -> RunReport;

    /// Whether the partial-order reduction may be applied: only sound
    /// when the target reports ready sets and its actor callbacks do not
    /// race through the shared rng (see
    /// [`crate::schedule::ReadyEvent::independent`]).
    fn reduction_safe(&self) -> bool {
        false
    }

    /// Opens an incremental exploration session over a fresh run, or
    /// `None` (the default) when the target only supports whole-run
    /// replay. A `Some` return promises that [`ExploreSession::fork`]
    /// works on the initial state: the explorer forks at choice points
    /// instead of replaying decision prefixes, and falls back to
    /// [`Target::run`] when this returns `None`.
    fn session(&mut self) -> Option<Box<dyn ExploreSession>> {
        None
    }

    /// Replays `plan` once under a [`CausalLog`] and writes the
    /// counterexample's files to `dir`, returning the paths written:
    /// `<stem>.jsonl`, a flight dump of the run's event history, and, for
    /// a target with kernel event ids, `<stem>_chain.jsonl`, the run's
    /// critical-path chain: the happened-before chain with the largest
    /// root-to-end elapsed time, which need not pass through the
    /// violation the judge convicted. Both files read the one log, so the
    /// chain's ids are the flight dump's; the root's `cause` may reference
    /// a spawn-time event that predates the log (observation starts after
    /// the world is built).
    fn dump_counterexample(
        &mut self,
        plan: &[usize],
        dir: &Path,
        stem: &str,
        reason: &str,
    ) -> Vec<PathBuf>;
}

/// Writes `text` to `dir/name`, returning the path, or `None` with the
/// error on stderr.
fn write_dump(dir: &Path, name: String, text: &str) -> Option<PathBuf> {
    let path = dir.join(name);
    match std::fs::write(&path, text) {
        Ok(()) => Some(path),
        Err(err) => {
            eprintln!("cannot write {}: {err}", path.display());
            None
        }
    }
}

/// Where an exploration session stopped after [`ExploreSession::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Stopped at a genuine choice point (ready width > 1); inspect it
    /// with [`ExploreSession::choice`] and resolve it with
    /// [`ExploreSession::choose`].
    Choice,
    /// The run completed (deadline reached or queue drained); judge it
    /// with [`ExploreSession::violation`].
    Done,
}

/// One live run that an explorer steers decision by decision.
///
/// Forced steps (ready width 1) dispatch in default `(time, seq)` order,
/// genuine choice points surface to the caller, and a run judged at
/// `Done` must equal the [`Target::run`] verdict for the same decision
/// vector.
pub trait ExploreSession {
    /// Runs forward until the next genuine choice point or completion,
    /// returning where it stopped and appending to `forced` the forced
    /// (width-1) steps executed along the way, in order — the explorer's
    /// sleep sets need them.
    fn advance(&mut self, forced: &mut Vec<ReadyEvent>) -> SessionState;

    /// Runs to completion taking the default (index 0) alternative at
    /// every choice point from here on — the same terminal a loop of
    /// [`ExploreSession::advance`] and `choose(0)` reaches, without
    /// materializing a ready set per event. Also resolves a pending
    /// choice point with its default.
    fn finish(&mut self);

    /// The pending choice point (with `chosen` still 0), when stopped at
    /// [`SessionState::Choice`].
    fn choice(&self) -> Option<ChoicePoint>;

    /// Resolves the pending choice point by dispatching the `idx`-th
    /// ready event (clamped like a replay plan entry).
    fn choose(&mut self, idx: usize);

    /// Snapshots the session into an independent copy that will follow
    /// the exact same future for the same decisions, or `None` when some
    /// component does not support forking.
    fn fork(&self) -> Option<Box<dyn ExploreSession>>;

    /// Canonical fingerprint of the current state for deduplication, or
    /// `None` when some component opts out (exploration still works,
    /// duplicate states are just re-explored).
    fn fingerprint(&self) -> Option<u64>;

    /// The property verdict over the current state — meaningful once
    /// [`SessionState::Done`] is reached.
    fn violation(&self) -> Option<Violation>;
}

/// What the two world-backed targets are made of: how to build the world,
/// how long to run it, how to judge it, and what exploration may assume
/// about it.
struct Scenario<M> {
    name: String,
    build: Box<dyn FnMut() -> World<M>>,
    deadline: Time,
    /// The verdict in its initial state; every run starts from a clone.
    judge: Judge<M>,
    /// On unless a test turns it off: see [`WorldTarget::new`].
    reduction_safe: bool,
    /// Message fingerprint hook, taken once so every session and fork
    /// hands the kernel the same function.
    msg_fp: fn(&M, &mut StableHasher),
}

impl<M: Clone + FingerprintMsg + 'static> Scenario<M> {
    fn new(
        name: String,
        deadline: Time,
        build: Box<dyn FnMut() -> World<M>>,
        judge: Judge<M>,
    ) -> Self {
        Scenario {
            name,
            build,
            deadline,
            judge,
            reduction_safe: true,
            msg_fp: fingerprint_msg::<M>,
        }
    }

    /// A live run over a freshly built world — the one stepping loop
    /// behind exploration sessions, plan replays and witness dumps.
    fn open(&mut self) -> WorldSession<M> {
        WorldSession {
            world: (self.build)(),
            deadline: self.deadline,
            msg_fp: self.msg_fp,
            judge: self.judge.clone(),
            at: Time::ZERO,
            ready: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Runs a fresh world under `plan`.
    fn run(&mut self, plan: &[usize]) -> RunReport {
        let mut run = self.open();
        let choices = run.follow(plan);
        RunReport {
            choices,
            violation: run.violation(),
        }
    }

    /// Opens a live session for the explorer, or `None` when some
    /// component of the world cannot fork — the explorer must then take
    /// the replay path from the start rather than fail mid-search.
    fn session(&mut self) -> Option<Box<dyn ExploreSession>> {
        let session = self.open();
        if !session.world.can_fork() {
            return None;
        }
        Some(Box::new(session))
    }

    /// Replays `plan` under a [`CausalLog`]; writes its last 4 096
    /// records as the flight dump and its critical chain as the chain
    /// file.
    fn dump_counterexample(
        &mut self,
        plan: &[usize],
        dir: &Path,
        stem: &str,
        reason: &str,
    ) -> Vec<PathBuf> {
        let mut run = self.open();
        run.world.set_sink(CausalLog::default());
        run.follow(plan);
        let at = run.world.now();
        let log = run
            .world
            .take_sink()
            .and_then(|sink| sink.into_any().downcast::<CausalLog>().ok())
            .expect("the log installed above");
        let dag = log.dag();
        let chain = dag
            .critical_end()
            .map(|id| dag.chain_of(id))
            .unwrap_or_default();
        // Integer-only fields and no wall clock, like every other JSONL
        // artifact: the file is byte-identical across thread counts.
        let mut out = format!(
            "{{\"t\":\"causal-chain\",\"reason\":\"{}\",\"plan\":{:?},\"events\":{}}}\n",
            reason,
            plan,
            chain.len()
        );
        for (depth, node) in chain.iter().enumerate() {
            out.push_str(&format!(
                "{{\"t\":\"node\",\"depth\":{},\"id\":{},\"cause\":{},\"at\":{},\"pid\":{},\"segment\":\"{}\"}}\n",
                depth,
                node.id,
                node.cause,
                node.at.as_ticks(),
                node.pid.as_raw(),
                node.segment.label()
            ));
        }
        let flight = log.flight_jsonl(reason, at, 4096);
        [
            write_dump(dir, format!("{stem}.jsonl"), &flight),
            write_dump(dir, format!("{stem}_chain.jsonl"), &out),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// The builder method and [`Target`] plumbing [`WorldTarget`] and
/// [`StabTarget`] share: the types differ only in the [`Judge`] their
/// constructors hand the scenario.
macro_rules! scenario_target {
    ($target:ident) => {
        impl<M: Clone + FingerprintMsg + 'static> $target<M> {
            /// Turns the sleep-set reduction off (to measure its effect,
            /// or to cross-check that it prunes only commutative
            /// interleavings).
            pub fn disable_reduction(&mut self) {
                self.scenario.reduction_safe = false;
            }
        }

        impl<M: Clone + FingerprintMsg + 'static> Target for $target<M> {
            fn name(&self) -> &str {
                &self.scenario.name
            }

            fn run(&mut self, plan: &[usize]) -> RunReport {
                self.scenario.run(plan)
            }

            fn reduction_safe(&self) -> bool {
                self.scenario.reduction_safe
            }

            fn session(&mut self) -> Option<Box<dyn ExploreSession>> {
                self.scenario.session()
            }

            fn dump_counterexample(
                &mut self,
                plan: &[usize],
                dir: &Path,
                stem: &str,
                reason: &str,
            ) -> Vec<PathBuf> {
                self.scenario.dump_counterexample(plan, dir, stem, reason)
            }
        }
    };
}

/// A [`Target`] wrapping a simulator world: build it, run it under a
/// plan until `deadline`, then check a property over the final state.
pub struct WorldTarget<M> {
    scenario: Scenario<M>,
}

impl<M: Clone + FingerprintMsg + 'static> WorldTarget<M> {
    /// Creates a world target. `build` must return a freshly built,
    /// deterministic world (same seed every time); `check` judges the
    /// final state.
    ///
    /// Exploration forks the world at choice points ([`Target::session`]
    /// opens a live session whenever the world's actors and driver can
    /// fork) and prunes with the sleep-set reduction, which assumes the
    /// actor callbacks do not race through the shared rng.
    pub fn new(
        name: impl Into<String>,
        deadline: Time,
        build: impl FnMut() -> World<M> + 'static,
        check: impl Fn(&World<M>) -> Result<(), Violation> + 'static,
    ) -> Self {
        let judge = Judge::Final(Rc::new(check));
        WorldTarget {
            scenario: Scenario::new(name.into(), deadline, Box::new(build), judge),
        }
    }
}

scenario_target!(WorldTarget);

/// Legality predicate of a [`StabTarget`]: `Ok` when the configuration is
/// legal, `Err(details)` describing the illegality otherwise.
type StabCheck<M> = Rc<dyn Fn(&World<M>) -> Result<(), String>>;

/// A [`Target`] for self-stabilization properties: "eventually legal and
/// stays legal", with an explicit convergence bound.
///
/// Where [`WorldTarget`] judges only the final state, this target judges
/// the *trajectory*: the world must satisfy `legal` at every tick in
/// `(converge_by, hold_until]` — sampled after all events of that tick
/// have dispatched. A run that is illegal at any sample is violated
/// (closure: once legal, the system must not leave the legal set again
/// within the horizon; convergence: it must have entered it by
/// `converge_by`).
///
/// The predicate is evaluated whenever virtual time is about to move past
/// unfinalized sample instants (the state at those instants is exactly
/// the current state, since no events lie between). The latched verdict —
/// including which tick first went illegal — is folded into the session
/// fingerprint, so deduplication can never identify a violated trajectory
/// with a clean one that happens to share a world state.
pub struct StabTarget<M> {
    /// `scenario.deadline` is the end of the hold window.
    scenario: Scenario<M>,
}

impl<M: Clone + FingerprintMsg + 'static> StabTarget<M> {
    /// Creates a stabilization target: the world must be legal at every
    /// tick after `converge_by` through `hold_until`. Exploration forks
    /// and reduces as for [`WorldTarget::new`].
    ///
    /// # Panics
    ///
    /// Panics unless `hold_until > converge_by` (an empty sample window
    /// would make every system vacuously stabilizing).
    pub fn new(
        name: impl Into<String>,
        converge_by: Time,
        hold_until: Time,
        build: impl FnMut() -> World<M> + 'static,
        legal: impl Fn(&World<M>) -> Result<(), String> + 'static,
    ) -> Self {
        assert!(
            hold_until > converge_by,
            "the hold window must extend past the convergence bound"
        );
        let judge = Judge::Trajectory {
            legal: Rc::new(legal),
            next_sample: converge_by.as_ticks() + 1,
            violation: None,
        };
        StabTarget {
            scenario: Scenario::new(name.into(), hold_until, Box::new(build), judge),
        }
    }
}

scenario_target!(StabTarget);

/// How a run reaches its verdict.
enum Judge<M> {
    /// [`WorldTarget`]: the property is read off the final state.
    Final(WorldCheck<M>),
    /// [`StabTarget`]: legality samples are finalized as virtual time
    /// moves past them, latching the first illegal tick.
    Trajectory {
        legal: StabCheck<M>,
        /// First sample tick whose state is not yet finalized. Samples
        /// are `converge_by + 1 ..= deadline`; a sample is finalized once
        /// no event at or before it remains undispatched.
        next_sample: u64,
        violation: Option<Violation>,
    },
}

impl<M> Clone for Judge<M> {
    fn clone(&self) -> Self {
        match self {
            Judge::Final(check) => Judge::Final(Rc::clone(check)),
            Judge::Trajectory {
                legal,
                next_sample,
                violation,
            } => Judge::Trajectory {
                legal: Rc::clone(legal),
                next_sample: *next_sample,
                violation: violation.clone(),
            },
        }
    }
}

impl<M> Judge<M> {
    /// Finalizes every sample instant strictly before `limit` (a tick
    /// count): no undispatched event can change their state, which is
    /// exactly the current state — legality is constant over the span, so
    /// one evaluation covers it, attributed to the first sample in it.
    fn finalize_before(&mut self, world: &World<M>, limit: u64) {
        let Judge::Trajectory {
            legal,
            next_sample,
            violation,
        } = self
        else {
            return;
        };
        if *next_sample >= limit {
            return;
        }
        if violation.is_none() {
            if let Err(details) = legal(world) {
                *violation = Some(Violation {
                    reason: format!("illegal configuration at tick {next_sample}"),
                    details,
                });
            }
        }
        *next_sample = limit;
    }
}

/// A live run of a world-backed target, steered from outside the kernel
/// through [`World::ready_set`] and [`World::step_nth`]: forced steps
/// dispatch in default order, genuine choice points surface to whoever
/// drives the run — the explorer, or a plan ([`WorldSession::follow`]).
struct WorldSession<M> {
    world: World<M>,
    deadline: Time,
    msg_fp: fn(&M, &mut StableHasher),
    judge: Judge<M>,
    /// Instant of the pending choice point, when stopped at one.
    at: Time,
    /// Ready set of the pending choice point, when stopped at one.
    ready: Vec<ReadyEvent>,
    /// Scratch for the kernel's ready-set summaries, reused across steps.
    buf: Vec<ReadySummary>,
}

impl<M: Clone + 'static> WorldSession<M> {
    /// Runs forward until the next genuine choice point or completion,
    /// handing every forced (width-1) step executed along the way to
    /// `forced` with its instant and the mutation epoch it ran in.
    fn advance_with(&mut self, mut forced: impl FnMut(Time, u64, ReadyEvent)) -> SessionState {
        loop {
            match self.world.ready_set(&mut self.buf) {
                Some(at) if at <= self.deadline => {
                    self.judge.finalize_before(&self.world, at.as_ticks());
                    if self.buf.len() > 1 {
                        self.at = at;
                        self.ready.clear();
                        self.ready.extend(self.buf.iter().map(ReadyEvent::from));
                        return SessionState::Choice;
                    }
                    forced(at, self.world.epoch(), ReadyEvent::from(&self.buf[0]));
                    self.world.step_nth(0);
                }
                _ => {
                    self.complete();
                    return SessionState::Done;
                }
            }
        }
    }

    /// Runs to completion resolving the `k`-th genuine choice point with
    /// `plan[k]` (clamped; index 0 once the plan runs out), and returns
    /// the schedule log: every choice point and every forced step, in
    /// execution order.
    fn follow(&mut self, plan: &[usize]) -> Vec<ChoicePoint> {
        let mut log = Vec::new();
        let mut decisions = plan.iter().copied();
        loop {
            let state = self.advance_with(|at, epoch, only| {
                log.push(ChoicePoint {
                    at,
                    epoch,
                    width: 1,
                    chosen: 0,
                    ready: vec![only],
                });
            });
            if state == SessionState::Done {
                return log;
            }
            let mut choice = self.choice().expect("Choice state has a choice point");
            choice.chosen = decisions.next().unwrap_or(0).min(choice.width - 1);
            self.choose(choice.chosen);
            log.push(choice);
        }
    }

    /// The shared tail of `advance` and `finish`: nothing at or before
    /// the deadline is left to dispatch.
    fn complete(&mut self) {
        self.world.idle_until(self.deadline);
        self.judge
            .finalize_before(&self.world, self.deadline.as_ticks() + 1);
        self.ready.clear();
    }
}

impl<M: Clone + 'static> ExploreSession for WorldSession<M> {
    fn advance(&mut self, forced: &mut Vec<ReadyEvent>) -> SessionState {
        self.advance_with(|_, _, ev| forced.push(ev))
    }

    fn finish(&mut self) {
        // No fingerprint is coming: the rest of the run pays for none.
        self.world.forget_fingerprint();
        while let Some(at) = self.world.peek_time().filter(|&at| at <= self.deadline) {
            self.judge.finalize_before(&self.world, at.as_ticks());
            self.world.step();
        }
        self.complete();
    }

    fn choice(&self) -> Option<ChoicePoint> {
        if self.ready.len() < 2 {
            return None;
        }
        Some(ChoicePoint {
            at: self.at,
            epoch: self.world.epoch(),
            width: self.ready.len(),
            chosen: 0,
            ready: self.ready.clone(),
        })
    }

    fn choose(&mut self, idx: usize) {
        debug_assert!(self.ready.len() > 1, "choose outside a choice point");
        let idx = idx.min(self.ready.len().saturating_sub(1));
        self.world.step_nth(idx);
        self.ready.clear();
    }

    fn fork(&self) -> Option<Box<dyn ExploreSession>> {
        let world = self.world.try_fork()?;
        Some(Box::new(WorldSession {
            world,
            deadline: self.deadline,
            msg_fp: self.msg_fp,
            judge: self.judge.clone(),
            at: self.at,
            ready: self.ready.clone(),
            buf: Vec::new(),
        }))
    }

    fn fingerprint(&self) -> Option<u64> {
        let world = self.world.fingerprint(self.msg_fp)?;
        let Judge::Trajectory {
            next_sample,
            violation,
            ..
        } = &self.judge
        else {
            return Some(world);
        };
        // Fold in the trajectory verdict: a violated run must never dedup
        // against a clean run passing through the same world state.
        let mut h = StableHasher::new();
        h.write_u64(world);
        h.write_u64(*next_sample);
        match violation {
            None => h.write_bool(false),
            Some(v) => {
                h.write_bool(true);
                h.write_str(&v.reason);
            }
        }
        Some(h.finish())
    }

    fn violation(&self) -> Option<Violation> {
        match &self.judge {
            Judge::Final(check) => check(&self.world).err(),
            Judge::Trajectory { violation, .. } => violation.clone(),
        }
    }
}

/// A [`Target`] wrapping the register interleaving harness: one
/// construction, fixed client scripts and crash events, the schedule
/// chosen by the plan, the history judged for atomicity.
pub struct RegisterTarget {
    name: String,
    construction: Construction,
    t: usize,
    scripts: Vec<Vec<RegOp>>,
    crashes: Vec<CrashEvent>,
    seed: u64,
}

impl RegisterTarget {
    /// Creates a register target. `seed` drives the operation machines'
    /// internal randomness (fixed across plans, so runs are deterministic
    /// functions of the plan).
    pub fn new(
        name: impl Into<String>,
        construction: Construction,
        t: usize,
        scripts: Vec<Vec<RegOp>>,
        crashes: Vec<CrashEvent>,
        seed: u64,
    ) -> Self {
        RegisterTarget {
            name: name.into(),
            construction,
            t,
            scripts,
            crashes,
            seed,
        }
    }
}

impl Target for RegisterTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, plan: &[usize]) -> RunReport {
        let (out, widths) = run_schedule_planned(
            self.construction,
            self.t,
            &self.scripts,
            &self.crashes,
            self.seed,
            plan,
        );
        let choices = widths
            .iter()
            .enumerate()
            .map(|(k, &width)| ChoicePoint {
                at: Time::ZERO,
                epoch: 0,
                width,
                chosen: plan.get(k).copied().unwrap_or(0).min(width - 1),
                ready: Vec::new(), // widths only: reduction stays off
            })
            .collect();
        let violation = match check_atomic(&out.history) {
            Ok(verdict) if verdict.is_linearizable() => None,
            Ok(_) => Some(Violation {
                reason: "history is not linearizable".into(),
                details: out.history.to_string(),
            }),
            Err(err) => Some(Violation {
                reason: format!("history not checkable: {err:?}"),
                details: out.history.to_string(),
            }),
        };
        RunReport { choices, violation }
    }

    /// Writes the flight dump only: register histories carry no kernel
    /// event ids, so there is no chain file.
    fn dump_counterexample(
        &mut self,
        plan: &[usize],
        dir: &Path,
        stem: &str,
        reason: &str,
    ) -> Vec<PathBuf> {
        let (out, _) = run_schedule_planned(
            self.construction,
            self.t,
            &self.scripts,
            &self.crashes,
            self.seed,
            plan,
        );
        // Render the history as spans: invocation opens, response closes.
        let mut log = CausalLog::default();
        let mut last = Time::ZERO;
        let mut spans: Vec<(Time, ObsEvent)> = Vec::new();
        for rec in out.history.records() {
            let name = match rec.op {
                RegOp::Write(_) => "write",
                RegOp::Read => "read",
            };
            spans.push((
                rec.invoked,
                ObsEvent::SpanStart {
                    name,
                    pid: rec.process,
                    at: rec.invoked,
                },
            ));
            if let Some(responded) = rec.responded {
                spans.push((
                    responded,
                    ObsEvent::SpanEnd {
                        name,
                        pid: rec.process,
                        at: responded,
                    },
                ));
                last = last.max(responded);
            }
        }
        spans.sort_by_key(|&(at, _)| at);
        // Register histories have no kernel event ids; number the spans
        // in time order so the dump is still causality-complete JSONL.
        for (i, (_, ev)) in spans.iter().enumerate() {
            let causal = dds_core::run::Causality {
                id: i as u64 + 1,
                cause: 0,
            };
            log.record(ev, causal);
        }
        let flight = log.flight_jsonl(reason, last, log.len());
        write_dump(dir, format!("{stem}.jsonl"), &flight)
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_target_reports_widths_as_choice_points() {
        let mut target = RegisterTarget::new(
            "responsive",
            Construction::ResponsiveAll { write_back: true },
            1,
            vec![vec![RegOp::Write(1)], vec![RegOp::Read]],
            vec![],
            7,
        );
        let report = target.run(&[]);
        assert!(report.violation.is_none());
        assert!(report.decisions() > 0);
        assert!(report.choices.iter().all(|c| c.ready.is_empty()));
        assert_eq!(report.plan(), vec![0; report.decisions()]);
        assert!(!target.reduction_safe());
    }

    #[test]
    fn counterexample_trims_trailing_defaults() {
        let v = Violation {
            reason: "x".into(),
            details: String::new(),
        };
        let ce = Counterexample::new(&[0, 2, 0, 1, 0, 0], v);
        assert_eq!(ce.plan, vec![0, 2, 0, 1]);
        assert_eq!(ce.preemptions, 2);
    }
}
