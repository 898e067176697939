//! The public surface of the `dds-*` crates the benchmark depends on.
//!
//! This is the only module that names a `dds_*` item: every other module
//! imports from here, so an API change in the workspace is a one-file fix
//! in the benchmark.

// --- dds-core: identities, time, rng, the register spec ---------------------
pub use dds_core::churn::ChurnSpec;
pub use dds_core::process::ProcessId;
pub use dds_core::rng::Rng;
pub use dds_core::spec::register::{check_atomic, RegOp, RegResp};
pub use dds_core::time::{Time, TimeDelta};

// --- dds-net: knowledge graphs ----------------------------------------------
pub use dds_net::algo::{diameter, is_connected};
pub use dds_net::generate::{complete, path, watts_strogatz};
pub use dds_net::graph::Graph;

// --- dds-obs: the harness's observer (its `causal` log builds the DAG) -------
pub use dds_obs::sink::ObserverSink;

// --- dds-sim: kernel, queue, world ------------------------------------------
pub use dds_sim::actor::{Actor, Context};
pub use dds_sim::delay::{DelayModel, LossModel};
pub use dds_sim::driver::{BalancedChurn, NoChurn};
pub use dds_sim::event::{Event, EventQueue, TimerId};
pub use dds_sim::metrics::Metrics;
pub use dds_sim::snapshot::StableHasher;
pub use dds_sim::world::{ResetSpec, TopologyPolicy, World, WorldBuilder};

// --- dds-protocols: the one-time-query harness ------------------------------
pub use dds_protocols::harness::{QueryRun, SweepArena};
pub use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};

// --- dds-registers: the interleaving harness --------------------------------
pub use dds_registers::construction::Construction;
pub use dds_registers::harness::run_schedule;

// --- dds-store: the sans-io core and its simulator scenario -----------------
pub use dds_store::msg::{OpTag, Stamp, StoreMsg};
pub use dds_store::protocol::{CoreIn, CoreOut, StoreCore, StoreParams, TimerToken};
pub use dds_store::{StoreRunReport, StoreScenario};

// --- dds-svc: codec, wheel, host ---------------------------------------------
pub use dds_svc::codec::{decode_frame, encode_frame, FrameReader, WireMsg, ROLE_CLIENT};
pub use dds_svc::node::{net_params, Addr, Host, HostCfg};
pub use dds_svc::wheel::TimerWheel;

// --- dds-check: exploration engines and the mutant suite --------------------
pub use dds_check::mutants::{flood_exhaustive, flood_exhaustive_large, suite, Subject};
pub use dds_check::{explore, explore_fork, fuzz, shrink, Budget, Explored};
