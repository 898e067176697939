//! # dds-obs — observability for the simulation kernel
//!
//! The kernel (`dds-sim`) reports eight coarse counters; the paper's
//! solvable/unsolvable frontier, however, is argued over *runs* — who was
//! present when, how long a query waited, how fast churn outpaced the
//! protocol. This crate makes those timelines measurable without touching
//! the kernel's determinism contract or its hot-path performance:
//!
//! - [`sink`] — the [`sink::Sink`] trait the kernel's dispatch loop feeds
//!   ([`sink::ObsEvent`] per kernel event), plus the composite
//!   [`sink::ObserverSink`]: a run report and the run's log;
//! - [`histogram`] — a hand-rolled log-bucket (HDR-style) [`histogram::Histogram`]
//!   with bounded memory and ≤ ~6% relative bucketing error;
//! - [`report`] — [`report::RunReport`]: delivery-latency and per-step
//!   event-queue-depth histograms and the event count of one run;
//! - [`causal`] — [`causal::CausalLog`], the one log of a run (every
//!   observation but dispatch steps, with its id/cause annotation), read
//!   as a flight dump of its last records when a spec predicate fails or
//!   an actor panics, as the message-level trace, or as the critical
//!   path; and [`causal::CausalDag`], the happened-before DAG over a log
//!   or a JSONL artifact: per-process fan-out and critical-path latency
//!   decomposition into transit/queueing/processing segments;
//! - [`export`] — the JSONL renderers for observations and trace lines
//!   (integer-only fields, so output is byte-identical across thread
//!   counts).
//!
//! Everything is hand-rolled std-only Rust, consistent with the
//! vendored-offline-deps constraint (DESIGN.md §12): no external crates,
//! no wall clock, no global state.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod causal;
pub mod export;
pub mod histogram;
pub mod report;
pub mod sink;

pub use causal::{CausalDag, CausalLog, CausalNode, CriticalPath, SegmentKind};
pub use histogram::Histogram;
pub use report::RunReport;
pub use sink::{ObsEvent, ObserverSink, Sink};
