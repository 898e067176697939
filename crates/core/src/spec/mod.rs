//! Problem specifications: predicates over runs and histories.
//!
//! The paper's methodology is specification-first: a *problem* is defined by
//! what its outputs must satisfy relative to the run that produced them.
//! This module holds the specifications used across the workspace:
//!
//! - [`aggregate`] — the commutative-monoid aggregate functions of the
//!   one-time query;
//! - [`hook`] — the thread-local spec-failure notification hook harnesses
//!   use to trigger flight dumps;
//! - [`one_time_query`] — the canonical problem and its validity levels;
//! - [`history`] — operation histories of shared objects;
//! - [`register`] — atomicity (linearizability) and regularity checkers;
//! - [`consensus`] — the validity / agreement / termination predicates.

pub mod aggregate;
pub mod consensus;
pub mod history;
pub mod hook;
pub mod one_time_query;
pub mod register;
