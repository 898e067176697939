//! # dds-svc — the networked dds-store service
//!
//! This crate runs the *same compiled protocol logic* as the simulator
//! — the sans-io [`dds_store::protocol::StoreCore`] state machines —
//! over real sockets. Nothing protocol-shaped lives here: the crate is
//! purely a host. It provides:
//!
//! - [`codec`]: a length-prefixed binary wire format for every
//!   [`dds_store::msg::StoreMsg`] plus the service's own `Hello`/`Roster`
//!   frames, with reusable encode/decode buffers (steady state allocates
//!   nothing — pinned by a counting-allocator test).
//! - [`poller`]: a minimal `poll(2)` wrapper (no external crates; std
//!   already links libc).
//! - [`wheel`]: a timer wheel (1 ms slots, occupancy bitmap)
//!   translating the core's `SetTimer` outputs into poll timeouts,
//!   reusing the simulator's calendar-queue idiom.
//! - [`node`]: the event loop — connection management, frame routing,
//!   write coalescing, seed-roster discovery — hosting one or many
//!   cores per process.
//!
//! Three binaries compose these into a runnable service:
//!
//! - `svc_seed` — the registry: accepts `Hello`s, broadcasts the roster,
//!   prunes entries whose connection closed.
//! - `svc_replica` — one quorum-engine replica (epoch-fenced
//!   reconfiguration included, exactly as in the simulator).
//! - `svc_load` — a multi-threaded closed-loop load generator with
//!   per-thread HDR-style latency histograms and an optional
//!   operation-log JSONL for the Wing–Gong atomicity checker.
//!
//! The `run_net` orchestrator in `dds-bench` spawns these as real
//! processes, injects churn by killing and starting replicas, and
//! cross-checks the measured abort/atomicity behavior against the
//! simulator's prediction for the same parameters.

pub mod codec;
pub mod node;
pub mod poller;
pub mod wheel;

pub use codec::{decode_frame, encode_frame, CodecError, FrameReader, WireMsg};
pub use node::{net_params, Addr, Host, HostCfg, Listener, Stream};
pub use wheel::TimerWheel;
