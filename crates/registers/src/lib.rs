//! # dds-registers — reliable objects from unreliable objects
//!
//! The reliable-object layer of the reproduction, after the companion
//! tutorial by Guerraoui & Raynal (*From Unreliable Objects to Reliable
//! Objects: The Case of Atomic Registers and Consensus*, same proceedings):
//! self-implementations of an atomic register and of consensus from base
//! objects of the same type that may crash **responsively** (they keep
//! answering `⊥`) or **nonresponsively** (they never answer again).
//!
//! | goal | failures | resources | result |
//! |---|---|---|---|
//! | atomic 1WMR register | responsive | `t + 1` base registers | [`construction::Construction::ResponsiveAll`] |
//! | atomic 1WMR register | nonresponsive | `2t + 1` base registers, majority quorums + read write-back | [`construction::Construction::MajorityQuorum`] |
//! | consensus | responsive | `t + 1` base consensus objects, visited in order | [`consensus`] |
//! | consensus | nonresponsive | **impossible** — demonstrated executably | [`consensus::run_consensus`] tests |
//!
//! The second thread of the tutorial — consistency strengthening — lives
//! in [`weak`] and [`transformations`]: the classic ladder from safe to
//! regular to atomic to multi-reader to multi-writer registers, each rung
//! executed under
//! adversarial interleavings and judged by the history checkers, with the
//! ablations (no write skip, forgetful reader) exhibiting the exact
//! violations the tricks prevent.
//!
//! | module | holds |
//! |---|---|
//! | [`base`], [`weak`] | the base objects: crash-prone registers; safe, regular and atomic cells |
//! | [`machine`] | the one step contract, [`machine::SteppedRegister`]: `begin_op`, then `step` until [`machine::Poll::Done`] or `Stuck` |
//! | [`construction`] | [`ReliableRegister`], the two self-implementations |
//! | [`transformations`] | the five rungs of the ladder |
//! | [`harness`] | the one scheduler: [`harness::run_schedule`] (and its planned twin) for the reliable registers, [`harness::run_scripts`] for the ladder |
//! | [`consensus`] | consensus objects and their own runner |
//!
//! Interleavings are chosen by a seeded adversarial scheduler (or an
//! explicit plan, for the model checker); histories are judged by the
//! linearizability and consensus checkers of `dds-core`.
//!
//! ## Example
//!
//! ```
//! use dds_core::spec::register::{check_atomic, RegOp};
//! use dds_registers::construction::Construction;
//! use dds_registers::harness::run_schedule;
//!
//! let out = run_schedule(
//!     Construction::MajorityQuorum { write_back: true },
//!     1,                                   // tolerate one base failure
//!     &[vec![RegOp::Write(7)], vec![RegOp::Read; 2]],
//!     &[],                                 // no crashes in this run
//!     42,                                  // interleaving seed
//! );
//! assert!(check_atomic(&out.history).unwrap().is_linearizable());
//! ```

#![warn(missing_docs)]

pub mod base;
pub mod consensus;
pub mod construction;
pub mod harness;
pub mod machine;
pub mod transformations;
pub mod weak;

pub use construction::{Construction, ReliableRegister};
