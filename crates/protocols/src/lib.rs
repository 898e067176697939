//! # dds-protocols — one-time-query protocols for dynamic systems
//!
//! The paper's canonical problem is the **one-time query**: an aggregate
//! over the values of the processes currently in the system. This crate
//! implements the protocol family the paper's solvability analysis talks
//! about, plus the baselines it is compared against:
//!
//! - [`wave`] — the flood/echo wave family: timeout-driven
//!   (`FloodEcho`, the protocol that *solves* the problem in the solvable
//!   classes), the fragile single-tree baseline, and the redundant
//!   multi-tree variant;
//! - [`gossip`] — push-sum aggregation, the robust-but-approximate
//!   baseline;
//! - [`continuous`] — the monitoring extension: the wave re-issued
//!   periodically over one evolving system, judged generation by
//!   generation;
//! - [`register`] — the paper's closing question made executable: a
//!   single-writer register maintained under churn by state transfer and
//!   flooded reads/writes, judged by the regularity checker;
//! - [`scd`] — SCD-broadcast (set-constrained delivery) with its derived
//!   objects: atomic snapshot, counter, and a sequentially consistent
//!   register, judged by the set-order oracle and the SC checker;
//! - [`stab`] — self-stabilizing protocols (Dijkstra K-state token
//!   circulation, purge-based membership views) recovering a legal
//!   configuration after transient state corruption; the view is also
//!   the local failure-detection substrate of neighborhood knowledge;
//! - [`harness`] — the scenario runner that builds a world, runs one query
//!   and judges it against the interval-validity specification.
//!
//! ## Example
//!
//! ```
//! use dds_net::generate;
//! use dds_protocols::harness::{ProtocolKind, QueryScenario};
//!
//! let scenario = QueryScenario::new(
//!     generate::torus(3, 3),
//!     ProtocolKind::FloodEcho { ttl: 4 },
//! );
//! let run = scenario.run();
//! assert!(run.report.level.is_interval_valid());
//! assert_eq!(run.outcome.value, 9.0); // count of members
//! ```

#![warn(missing_docs)]

pub mod continuous;
pub mod gossip;
pub mod harness;
pub mod obs;
pub mod register;
pub mod scd;
pub mod stab;
pub mod wave;

pub use harness::{DriverSpec, ProtocolKind, QueryRun, QueryScenario};
