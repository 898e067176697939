//! # dds-net — the knowledge-graph substrate
//!
//! The geography dimension of a dynamic distributed system is realized by a
//! graph of *who knows whom*. This crate provides:
//!
//! - [`graph`] — the mutable undirected [`graph::Graph`] over process
//!   identities, with deterministic iteration order;
//! - [`generate`] — deterministic and random graph families used to
//!   instantiate the geography dimension in experiments;
//! - [`algo`] — BFS, connectivity, components, diameter, shortest paths;
//! - [`dynamic`] — attachment and repair rules that maintain the overlay
//!   under churn (including the adversarial chain rule of class C4).
//!
//! ## Example
//!
//! ```
//! use dds_net::{algo, generate};
//!
//! let g = generate::torus(4, 4);
//! assert_eq!(algo::diameter(&g), Some(4));
//! assert!(algo::is_connected(&g));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algo;
pub mod dynamic;
pub mod generate;
pub mod graph;

pub use graph::Graph;
