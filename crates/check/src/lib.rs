//! Schedule exploration and linearizability checking for the simulator
//! and the register harness.
//!
//! The statistical sweeps in `dds-bench` sample random schedules; this
//! crate hunts the *adversarial* ones. It drives two kinds of systems
//! under controlled nondeterminism, both exposed behind one [`Target`]
//! abstraction — "run me under this decision vector, tell me what choice
//! points you saw and whether the property held":
//!
//! - **Kernel worlds** ([`WorldTarget`]): a [`dds_sim::world::World`]
//!   steered from outside through its ready set, every same-instant tie
//!   resolved from an explicit plan (or by the explorer) and logged with
//!   the ready set at each choice point, judged on its final state or,
//!   for self-stabilization, on its trajectory
//!   ([`WorldTarget::stabilizing`]).
//! - **Register schedules** ([`RegisterTarget`]): the `dds-registers`
//!   interleaving harness in planned mode
//!   ([`dds_registers::harness::run_schedule_planned`]), its history
//!   judged by the Wing–Gong checker in `dds_core::spec::register`.
//!
//! On top of [`Target`] sit three engines:
//!
//! - [`explore::explore`] — bounded exhaustive DFS over decision vectors
//!   with preemption/depth/run budgets and a sleep-set partial-order
//!   reduction for commutative same-instant deliveries to distinct actors.
//! - [`fuzz::fuzz`] — a seeded randomized schedule fuzzer whose failures
//!   replay deterministically from `(seed, plan)`.
//! - [`fuzz::shrink`] — a delta-debugging pass that minimizes a failing
//!   decision vector to a short witness (few non-default decisions).
//!
//! Counterexamples are replayed once under a `dds-obs`
//! [`CausalLog`](dds_obs::CausalLog) and dumped as its JSONL flight dump
//! (with the run's critical-path chain beside it, which need not pass
//! through the violation), so a failing schedule
//! leaves the same artifact an in-flight spec failure would.
//!
//! The crate validates itself with **seeded mutants** ([`mutants`]):
//! intentionally broken systems (a register construction that skips
//! write-back, gossip-style relaying that forgets the origin merge, a
//! coordinator that commits after the first ack) that the explorer must
//! catch within the CI budget — see the `run_check` binary in
//! `crates/bench`.

#![warn(missing_docs)]

pub mod explore;
pub mod fuzz;
pub mod mutants;
pub mod schedule;
pub mod target;

pub use explore::{
    explore, explore_fork, explore_replay, Budget, Explored, ProgressSample, PROGRESS_INTERVAL,
};
pub use fuzz::{fuzz, shrink, FuzzOutcome};
pub use schedule::{ChoicePoint, ReadyEvent};
pub use target::{
    Counterexample, ExploreSession, RegisterTarget, RunReport, SessionState, Target, Violation,
    WorldTarget,
};
