//! Scenario builder and reporting for churned storage runs.
//!
//! [`StoreScenario`] stamps out a deterministic world — replicas, clients,
//! a churn driver with protected clients, and a pre-injected operation
//! script — and [`StoreScenario::run`] folds the finished world into a
//! [`StoreRunReport`]: operation counts, epoch history, latency / quorum
//! histograms, and a checker-ready [`RegisterHistory`].
//!
//! ## Aborted operations and the atomicity checker
//!
//! The Wing–Gong checker requires a *well-formed* history: at most one
//! pending operation per process, and only as the process's last record.
//! A client that aborts an operation moves on to the next one, so its
//! aborted operations cannot stay pending under its own identity. Instead
//! [`history_from_store`] re-homes every aborted **write** onto a fresh
//! virtual process id as that process's sole, pending operation — sound,
//! because a pending write imposes no ordering constraints and the
//! checker considers both the took-effect and never-happened outcomes,
//! which is exactly the ambiguity of an aborted write. Aborted reads are
//! dropped outright: a read with no response constrains nothing.

use std::collections::BTreeMap;

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{RegOp, RegisterHistory};
use dds_core::time::{Time, TimeDelta};
use dds_net::graph::Graph;
use dds_obs::histogram::Histogram;
use dds_sim::delay::{DelayModel, LossModel};
use dds_sim::driver::BalancedChurn;
use dds_sim::world::{World, WorldBuilder};

use crate::actor::{StoreActor, StoreParams};
use crate::msg::StoreMsg;
use crate::quorum::{sustainable, TimedQuorumSpec};

/// A reproducible storage run: topology, roles, churn, and an operation
/// script, all derived from one seed.
#[derive(Debug, Clone)]
pub struct StoreScenario {
    /// Initial topology. The lowest `replica_count` node ids become the
    /// epoch-1 replicas, the next `clients` ids the (churn-protected)
    /// clients.
    pub graph: Graph,
    /// Master seed for delays, churn, and the operation script.
    pub seed: u64,
    /// Target configuration size.
    pub replica_count: usize,
    /// Number of client processes issuing operations.
    pub clients: usize,
    /// Churn driving the membership.
    pub churn: ChurnSpec,
    /// Fraction of churn departures that are crashes rather than leaves.
    pub crash_fraction: f64,
    /// Message delay model.
    pub delay: DelayModel,
    /// Message loss model.
    pub loss: LossModel,
    /// How long the world runs.
    pub deadline: Time,
    /// Operations issued per client.
    pub ops_per_client: usize,
    /// Probability an operation is a write.
    pub write_ratio: f64,
    /// Gap between consecutive operations of one client.
    pub op_every: TimeDelta,
    /// Protocol parameters. `initial` and `min_quorum` are overwritten by
    /// [`StoreScenario::build`] from the scenario's own fields.
    pub params: StoreParams,
}

impl StoreScenario {
    /// A scenario over `graph` with defaults sized for tests and sweeps.
    pub fn new(graph: Graph, seed: u64) -> Self {
        StoreScenario {
            graph,
            seed,
            replica_count: 5,
            clients: 2,
            churn: ChurnSpec::none(),
            crash_fraction: 0.3,
            delay: DelayModel::Uniform {
                min: TimeDelta::ticks(1),
                max: TimeDelta::ticks(3),
            },
            loss: LossModel::None,
            deadline: Time::from_ticks(600),
            ops_per_client: 8,
            write_ratio: 0.5,
            op_every: TimeDelta::ticks(30),
            params: StoreParams::default(),
        }
    }

    /// The epoch-1 replica set: the lowest `replica_count` node ids.
    pub fn replicas(&self) -> Vec<ProcessId> {
        let mut nodes: Vec<ProcessId> = self.graph.nodes().collect();
        nodes.sort_unstable();
        nodes.truncate(self.replica_count);
        nodes
    }

    /// The client processes: the `clients` ids after the replicas.
    pub fn client_pids(&self) -> Vec<ProcessId> {
        let mut nodes: Vec<ProcessId> = self.graph.nodes().collect();
        nodes.sort_unstable();
        nodes
            .into_iter()
            .skip(self.replica_count)
            .take(self.clients)
            .collect()
    }

    /// Detection-plus-migration lag of the reconfiguration engine, used
    /// as the reaction time in the sustainability bound.
    pub fn reaction(&self) -> TimeDelta {
        let probe = self.params.probe_every.unwrap_or(self.params.view_delta);
        probe + self.params.suspect_after + TimeDelta::ticks(4)
    }

    /// Whether the scenario's churn exceeds the sustainable bound for its
    /// configuration size — above it, liveness loss (aborts) is expected.
    pub fn above_bound(&self) -> bool {
        !sustainable(&self.churn, self.replica_count, self.reaction())
    }

    /// Builds the world with the operation script already injected.
    pub fn build(&self) -> World<StoreMsg> {
        let replicas = self.replicas();
        let client_pids = self.client_pids();

        let mut params = self.params.clone();
        params.initial = replicas;
        let spec = TimedQuorumSpec::recommend(self.replica_count, &self.churn, params.view_delta);
        params.min_quorum = spec.size;

        let mut driver = BalancedChurn::new(self.churn).with_crash_fraction(self.crash_fraction);
        for &c in &client_pids {
            driver = driver.with_protected(c);
        }

        let spawn_params = params;
        let mut world = WorldBuilder::new(self.seed)
            .initial_graph(self.graph.clone())
            .delay(self.delay)
            .loss(self.loss)
            .driver(driver)
            .spawn(move |_| Box::new(StoreActor::new(spawn_params.clone())))
            .build();

        // The operation script: each client issues its ops on its own
        // cadence, staggered so clients overlap but do not synchronize.
        let mut script_rng = Rng::seeded(self.seed ^ 0x5705_5C21);
        let mut next_value: u64 = 1;
        for (ci, &client) in client_pids.iter().enumerate() {
            let offset = TimeDelta::ticks(1 + 3 * ci as u64);
            for k in 0..self.ops_per_client {
                let at = Time::ZERO + offset + self.op_every.saturating_mul(k as u64);
                let op = if script_rng.chance(self.write_ratio) {
                    let v = next_value;
                    next_value += 1;
                    RegOp::Write(v)
                } else {
                    RegOp::Read
                };
                world.inject(at, client, StoreMsg::Invoke(op));
            }
        }
        world
    }

    /// Builds, runs to the deadline, and reports.
    pub fn run(&self) -> StoreRunReport {
        let mut world = self.build();
        world.run_until(self.deadline);
        self.report(&world)
    }

    /// Folds a finished world into a report.
    pub fn report(&self, world: &World<StoreMsg>) -> StoreRunReport {
        let client_pids = self.client_pids();
        let all = all_pids(world);

        let mut report = StoreRunReport {
            above_bound: self.above_bound(),
            ..StoreRunReport::default()
        };
        let mut epoch_first: BTreeMap<u64, Time> = BTreeMap::new();
        for &pid in &all {
            let Some(actor) = world.actor::<StoreActor>(pid) else {
                continue;
            };
            report.max_epoch = report.max_epoch.max(actor.epoch());
            report.reconfigs += actor.stats().reconfigs_committed;
            report.migrations += actor.stats().migrations;
            report.fenced += actor.stats().fenced_nacks;
            for &(at, epoch) in actor.epoch_log() {
                let first = epoch_first.entry(epoch).or_insert(at);
                *first = (*first).min(at);
            }
        }
        report.epoch_transitions = epoch_first.into_iter().map(|(e, t)| (t, e)).collect();

        for &pid in &client_pids {
            let Some(actor) = world.actor::<StoreActor>(pid) else {
                continue;
            };
            report.completed += actor.stats().completed;
            report.aborted += actor.stats().aborted;
            report.retries += actor.stats().retries;
            for op in actor.log() {
                if let Some(responded) = op.responded {
                    report.latency.record((responded - op.invoked).as_ticks());
                }
            }
            for &q in actor.quorums_used() {
                report.quorum.record(q);
            }
        }

        report.history = history_above(world, client_pids, all.last().copied());
        report
    }
}

/// What one storage run did.
#[derive(Debug, Clone, Default)]
pub struct StoreRunReport {
    /// Client operations that completed.
    pub completed: u64,
    /// Client operations that aborted (liveness loss).
    pub aborted: u64,
    /// Attempt retries across all clients.
    pub retries: u64,
    /// Fence NACKs served across all replicas.
    pub fenced: u64,
    /// Highest configuration epoch adopted anywhere.
    pub max_epoch: u64,
    /// Reconfigurations committed (migrations sent).
    pub reconfigs: u64,
    /// Migration adoptions across all processes.
    pub migrations: u64,
    /// `(first adoption time, epoch)` per epoch, in epoch order.
    pub epoch_transitions: Vec<(Time, u64)>,
    /// Completed-operation latency in ticks.
    pub latency: Histogram,
    /// Quorum thresholds used by completed operations.
    pub quorum: Histogram,
    /// Checker-ready history of the clients' operations.
    pub history: RegisterHistory,
    /// Whether the scenario's churn exceeded the sustainable bound.
    pub above_bound: bool,
}

/// Every process id the world ever seated (initial members and joiners,
/// present or departed). Identities are allocated densely from zero, so
/// probing `0..joins` covers them all.
fn all_pids(world: &World<StoreMsg>) -> Vec<ProcessId> {
    let upper = world.metrics().joins + 64;
    (0..upper)
        .map(ProcessId::from_raw)
        .filter(|&p| world.actor::<StoreActor>(p).is_some())
        .collect()
}

/// Builds a [`RegisterHistory`] from the logs of the given client
/// processes of a finished world.
///
/// Completed operations are recorded under their real process. Aborted
/// writes become pending operations on fresh virtual process ids (see the
/// module docs for why); aborted reads are dropped.
pub fn history_from_store(
    world: &World<StoreMsg>,
    processes: impl IntoIterator<Item = ProcessId>,
) -> RegisterHistory {
    let highest_seated = all_pids(world).last().copied();
    history_above(world, processes.into_iter().collect(), highest_seated)
}

/// [`history_from_store`] for a caller that already knows the highest
/// identity the world seated: virtual process ids start above it.
fn history_above(
    world: &World<StoreMsg>,
    processes: Vec<ProcessId>,
    highest_seated: Option<ProcessId>,
) -> RegisterHistory {
    let mut virtual_pid = highest_seated
        .map_or(0, |p| p.as_raw())
        .max(processes.iter().map(|p| p.as_raw()).max().unwrap_or(0))
        + 1;
    let mut records: Vec<OpRecord<RegOp, _>> = Vec::new();
    for pid in processes {
        let Some(actor) = world.actor::<StoreActor>(pid) else {
            continue;
        };
        for op in actor.log() {
            if op.aborted {
                if let RegOp::Write(_) = op.op {
                    records.push(OpRecord {
                        process: ProcessId::from_raw(virtual_pid),
                        op: op.op,
                        invoked: op.invoked,
                        responded: None,
                        response: None,
                    });
                    virtual_pid += 1;
                }
            } else {
                records.push(OpRecord {
                    process: pid,
                    op: op.op,
                    invoked: op.invoked,
                    responded: op.responded,
                    response: op.response,
                });
            }
        }
        // A write cut off mid-flight by the deadline is pending under its
        // real process — it is necessarily that process's last operation.
        if let Some((op @ RegOp::Write(_), invoked)) = actor.in_flight() {
            records.push(OpRecord {
                process: pid,
                op,
                invoked,
                responded: None,
                response: None,
            });
        }
    }
    records.sort_by_key(|r| (r.invoked, r.process));
    let mut history = RegisterHistory::new();
    for r in records {
        history.push(r);
    }
    history
}
