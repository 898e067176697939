//! The query harness: run one one-time query under a configured system
//! class and judge the outcome against the specification.
//!
//! This is the bridge between the three layers of the reproduction: it
//! builds a simulated world (`dds-sim`) over a knowledge graph (`dds-net`),
//! runs a protocol from this crate, and evaluates the result with the
//! specification checkers of `dds-core`. Every experiment row in
//! EXPERIMENTS.md is a set of [`QueryScenario::run`] calls.

use std::collections::BTreeSet;
use std::fmt;

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::spec::aggregate::AggregateKind;
use dds_core::spec::hook;
use dds_core::spec::one_time_query::{check_outcome, QueryOutcome, ValidityReport};
use dds_core::time::{Interval, Time, TimeDelta};
use dds_net::graph::Graph;
use dds_obs::{CausalLog, CriticalPath, ObsEvent, ObserverSink, RunReport};
use dds_sim::actor::Actor;
use dds_sim::delay::{DelayModel, LossModel};
use dds_sim::driver::{BalancedChurn, ChurnDriver, Growth, NoChurn, PathStretch};
use dds_sim::metrics::Metrics;
use dds_sim::partition::PartitionDriver;
use dds_sim::world::{TopologyPolicy, World, WorldBuilder};

use crate::gossip::{GossipActor, GossipMsg};
use crate::wave::{WaveActor, WaveConfig, WaveMsg};

/// Which protocol answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Timeout-driven flood/echo wave with the given TTL.
    FloodEcho {
        /// Hop budget (the protocol's diameter guess).
        ttl: u32,
    },
    /// The single-tree baseline (no timeouts) with the given TTL.
    SingleTree {
        /// Hop budget.
        ttl: u32,
    },
    /// `k` independent trees, contributor sets unioned.
    MultiTree {
        /// Hop budget.
        ttl: u32,
        /// Number of trees.
        k: u32,
    },
    /// Push-sum gossip frozen after the given number of rounds.
    Gossip {
        /// Rounds before the initiator freezes its estimate.
        rounds: u32,
    },
}

impl ProtocolKind {
    /// Static label naming the protocol family — used as the span name of
    /// the whole query in the run's observation stream.
    pub const fn label(&self) -> &'static str {
        match self {
            ProtocolKind::FloodEcho { .. } => "flood-echo",
            ProtocolKind::SingleTree { .. } => "single-tree",
            ProtocolKind::MultiTree { .. } => "multi-tree",
            ProtocolKind::Gossip { .. } => "push-sum",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::FloodEcho { ttl } => write!(f, "flood-echo(ttl={ttl})"),
            ProtocolKind::SingleTree { ttl } => write!(f, "single-tree(ttl={ttl})"),
            ProtocolKind::MultiTree { ttl, k } => write!(f, "multi-tree(ttl={ttl}, k={k})"),
            ProtocolKind::Gossip { rounds } => write!(f, "push-sum(rounds={rounds})"),
        }
    }
}

/// Which churn regime drives the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriverSpec {
    /// Static membership.
    None,
    /// Balanced replacement churn (`M^∞_b`).
    Balanced {
        /// Fraction replaced per window.
        rate: f64,
        /// Window in ticks.
        window: u64,
        /// Fraction of departures that crash instead of leaving.
        crash_fraction: f64,
    },
    /// Geometric growth (`M^∞`).
    Growth {
        /// Growth factor per window.
        per_window: f64,
        /// Window in ticks.
        window: u64,
        /// Simulation-resource cap on membership (`usize::MAX` = none).
        cap: usize,
    },
    /// The unbounded-diameter adversary; stretches the path between the
    /// lowest and highest initial identities.
    PathStretch {
        /// Splice period in ticks.
        window: u64,
    },
    /// The connectivity adversary: severs the initial membership into
    /// identity halves at `cut_at`; heals at `heal_at` when given
    /// (eventually-connected), never otherwise (arbitrary connectivity).
    Partition {
        /// When the cut happens (ticks).
        cut_at: u64,
        /// When the cut heals, if ever (ticks).
        heal_at: Option<u64>,
    },
}

impl DriverSpec {
    /// The churn driver this regime describes over the initial `graph`,
    /// boxed so it can feed both [`WorldBuilder::boxed_driver`] and
    /// [`World::reset`]. Regimes that aim at particular processes take the
    /// initiator (lowest identity, exempt from replacement churn), the
    /// witness (highest) and the median identity (where a partition
    /// splits) from `graph`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid churn rate, and on an empty graph when the
    /// regime names a process.
    pub(crate) fn build(&self, graph: &Graph) -> Box<dyn ChurnDriver> {
        let ids = graph.members();
        let initiator = || *ids.first().expect("scenario graph is empty");
        match *self {
            DriverSpec::None => Box::new(NoChurn),
            DriverSpec::Balanced {
                rate,
                window,
                crash_fraction,
            } => {
                let spec = ChurnSpec::rate(rate, TimeDelta::ticks(window))
                    .expect("scenario churn rate must be valid");
                Box::new(
                    BalancedChurn::new(spec)
                        .with_protected(initiator())
                        .with_crash_fraction(crash_fraction),
                )
            }
            DriverSpec::Growth {
                per_window,
                window,
                cap,
            } => Box::new(Growth {
                growth_per_window: per_window,
                window: TimeDelta::ticks(window),
                cap,
            }),
            DriverSpec::PathStretch { window } => Box::new(PathStretch {
                initiator: initiator(),
                witness: *ids.last().expect("scenario graph is empty"),
                window: TimeDelta::ticks(window),
            }),
            DriverSpec::Partition { cut_at, heal_at } => {
                let split_at = ids[ids.len() / 2];
                let cut = Time::from_ticks(cut_at);
                match heal_at {
                    Some(h) => Box::new(PartitionDriver::transient(
                        cut,
                        Time::from_ticks(h),
                        split_at,
                    )),
                    None => Box::new(PartitionDriver::permanent(cut, split_at)),
                }
            }
        }
    }
}

/// A finished query as the harness reads it off the initiator's actor.
struct Answer {
    finished_at: Time,
    contributors: BTreeSet<ProcessId>,
    value: f64,
}

/// A fully specified one-time-query experiment.
#[derive(Debug, Clone)]
pub struct QueryScenario {
    /// Determinism seed.
    pub seed: u64,
    /// Initial knowledge graph; the initiator is its lowest identity.
    pub graph: Graph,
    /// Churn regime.
    pub driver: DriverSpec,
    /// Topology maintenance policy.
    pub policy: TopologyPolicy,
    /// Delay model (realizes the timing dimension).
    pub delay: DelayModel,
    /// Loss model.
    pub loss: LossModel,
    /// The aggregate queried.
    pub aggregate: AggregateKind,
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// Query issue instant.
    pub start: Time,
    /// Hard cut-off: a query not finished by then is recorded as
    /// non-terminated.
    pub deadline: Time,
    /// When set, the run's log is rendered as the message-level kernel
    /// trace, JSONL, into [`QueryRun::trace_jsonl`]. Read on the worker
    /// thread, so sweeps set it per cell (see [`run_sweep`]) instead of
    /// relying on thread-locals.
    pub capture_trace: bool,
}

impl QueryScenario {
    /// A baseline scenario: given graph and protocol, synchronous delays
    /// (bound 1), no churn, no loss, counting members, query at `t = 1`,
    /// generous deadline.
    pub fn new(graph: Graph, protocol: ProtocolKind) -> Self {
        QueryScenario {
            seed: 0,
            graph,
            driver: DriverSpec::None,
            policy: TopologyPolicy::default(),
            delay: DelayModel::Fixed(TimeDelta::TICK),
            loss: LossModel::None,
            aggregate: AggregateKind::Count,
            protocol,
            start: Time::from_ticks(1),
            deadline: Time::from_ticks(10_000),
            capture_trace: false,
        }
    }

    /// The initiator: the lowest identity of the initial graph.
    ///
    /// # Panics
    ///
    /// Panics on an empty initial graph.
    pub fn initiator(&self) -> ProcessId {
        self.graph.nodes().next().expect("scenario graph is empty")
    }

    /// The adversary's witness: the highest identity of the initial graph.
    pub fn witness(&self) -> ProcessId {
        self.graph.nodes().last().expect("scenario graph is empty")
    }

    /// Runs the scenario once and judges the outcome.
    pub fn run(&self) -> QueryRun {
        self.run_in(&mut SweepArena::default())
    }

    /// Runs the scenario once, reusing the worlds cached in `arena` when
    /// they match this scenario's cell (see [`SweepArena`]). Sweeps call
    /// this through one arena per worker so every seed after the first
    /// recycles the previous run's allocations via [`World::reset`].
    pub fn run_in(&self, arena: &mut SweepArena) -> QueryRun {
        let aggregate = self.aggregate;
        let (config, ttl) = match self.protocol {
            ProtocolKind::FloodEcho { ttl } => {
                let delta = self.delay.bound().unwrap_or(TimeDelta::ticks(4));
                (WaveConfig::flood_echo(aggregate, delta), ttl)
            }
            ProtocolKind::SingleTree { ttl } => (WaveConfig::single_tree(aggregate), ttl),
            ProtocolKind::MultiTree { ttl, k } => (WaveConfig::multi_tree(aggregate, k), ttl),
            ProtocolKind::Gossip { rounds } => {
                let period = TimeDelta::ticks(
                    2 * self.delay.bound().unwrap_or(TimeDelta::ticks(2)).as_ticks(),
                );
                return self.run_query(
                    &mut arena.gossip,
                    move |_| Box::new(GossipActor::new(period, aggregate)),
                    GossipMsg::Start { rounds },
                    |actor: &GossipActor| {
                        actor.result().map(|r| Answer {
                            finished_at: r.finished_at,
                            contributors: r.contributors.clone(),
                            value: r.estimate,
                        })
                    },
                );
            }
        };
        self.run_query(
            &mut arena.wave,
            move |_| Box::new(WaveActor::new(config)),
            WaveMsg::Start { ttl },
            |actor: &WaveActor| {
                actor.result().map(|r| Answer {
                    finished_at: r.finished_at,
                    contributors: r.contributions.keys().collect(),
                    value: r.value,
                })
            },
        )
    }

    /// The world builder for this scenario (shared with the
    /// continuous-query harness).
    pub(crate) fn scenario_builder<M: Clone + 'static>(&self) -> WorldBuilder<M> {
        WorldBuilder::new(self.seed)
            .initial_graph(self.graph.clone())
            .policy(self.policy)
            .delay(self.delay)
            .loss(self.loss)
            // Bounded, identically distributed values: the reference
            // aggregate over the required set and the protocol's answer
            // over its (allowed) contributor set then differ only through
            // sampling, not through identity-correlated drift.
            .values(|_, rng| rng.unit_f64() * 100.0)
            .boxed_driver(self.driver.build(&self.graph))
    }

    /// The per-run configuration for [`World::reset`], mirroring what
    /// [`QueryScenario::scenario_builder`] gives a fresh build.
    fn reset_spec(&self) -> dds_sim::world::ResetSpec {
        dds_sim::world::ResetSpec {
            seed: self.seed,
            policy: self.policy,
            delay: self.delay,
            loss: self.loss,
            driver: self.driver.build(&self.graph),
            sink: Some(Box::new(ObserverSink::default())),
        }
    }

    /// The part of the scenario a cached world's spawn closure bakes in
    /// and [`World::reset`] cannot replace. Everything else (seed, graph,
    /// churn, loss, policy) is re-supplied on reset.
    fn arena_key(&self) -> ArenaKey {
        ArenaKey {
            protocol: self.protocol,
            aggregate: self.aggregate,
            delay: self.delay,
        }
    }

    /// Runs one query of a protocol whose processes are `A` actors over
    /// `M` messages: takes the world from `slot` (reset) or builds it with
    /// `spawn`, starts the initiator with `start`, runs until `answer`
    /// reads a finished query off the initiator or the deadline passes,
    /// and judges what it got.
    fn run_query<M: Clone + 'static, A: Actor<M>>(
        &self,
        slot: &mut Option<(ArenaKey, World<M>)>,
        spawn: impl FnMut(ProcessId) -> Box<dyn Actor<M>> + 'static,
        start: M,
        answer: fn(&A) -> Option<Answer>,
    ) -> QueryRun {
        let key = self.arena_key();
        let world: &mut World<M> = match slot {
            Some((k, w)) if *k == key => {
                w.reset(&self.graph, self.reset_spec());
                w
            }
            slot => {
                let world = self
                    .scenario_builder()
                    .sink(ObserverSink::default())
                    .spawn(spawn)
                    .build();
                &mut slot.insert((key, world)).1
            }
        };
        let initiator = self.initiator();
        world.inject(self.start, initiator, start);
        world.observe(ObsEvent::SpanStart {
            name: self.protocol.label(),
            pid: initiator,
            at: self.start,
        });
        // Chunked execution: stop as soon as the initiator has its answer
        // (churn drivers would otherwise keep the event queue busy until
        // the deadline for nothing).
        let mut horizon = self.start;
        let answer = loop {
            horizon = (horizon + TimeDelta::ticks(64)).min(self.deadline);
            world.run_until(horizon);
            let answer = world.actor::<A>(initiator).and_then(answer);
            if answer.is_some() || horizon >= self.deadline {
                break answer;
            }
        };
        world.observe(ObsEvent::SpanEnd {
            name: self.protocol.label(),
            pid: initiator,
            at: answer
                .as_ref()
                .map_or(self.deadline, |a| a.finished_at.max(self.start)),
        });
        let (outcome, finished) = match answer {
            Some(a) => {
                let end = a.finished_at.max(self.start) + TimeDelta::TICK;
                let window = Interval::new(self.start, end);
                (
                    QueryOutcome::answered(
                        initiator,
                        window,
                        self.aggregate,
                        a.contributors,
                        a.value,
                    ),
                    Some(a.finished_at),
                )
            }
            None => {
                let window = Interval::new(self.start, self.deadline);
                (
                    QueryOutcome::timed_out(initiator, window, self.aggregate),
                    None,
                )
            }
        };
        self.judge(world, outcome, finished)
    }

    fn judge<M: Clone + 'static>(
        &self,
        world: &mut World<M>,
        outcome: QueryOutcome,
        finished: Option<Time>,
    ) -> QueryRun {
        // Recover the observer the run accumulated into; a sink is always
        // installed by run_query, so the fallback default only covers a
        // caller that replaced it.
        let observer: ObserverSink = world
            .take_sink()
            .and_then(|s| s.into_any().downcast::<ObserverSink>().ok())
            .map_or_else(Default::default, |b| *b);
        // Critical-path decomposition over the run's log: the
        // longest-latency causal chain, split into transit (message
        // flight), queueing (timer waits) and processing segments.
        let critical = observer.causal.critical_path();
        let trace_jsonl = self.capture_trace.then(|| observer.causal.trace_jsonl());
        let values = world.values();
        let metrics = world.metrics();
        let presence = world.trace().presence();
        // Judge under a spec-failure capture scope: any violation the
        // checker reports triggers a flight dump of the log's last records,
        // the events leading up to it.
        let (report, failures) = hook::capture_failures(|| check_outcome(&outcome, &presence));
        let flight_dump = (!failures.is_empty()).then(|| {
            observer.causal.flight_jsonl(
                &failures.join("; "),
                finished.unwrap_or(self.deadline),
                CausalLog::FLIGHT_TAIL,
            )
        });
        let required = presence.present_throughout(&outcome.window);
        let required_values: Vec<f64> = required
            .iter()
            .filter_map(|p| values.get(*p).copied())
            .collect();
        let truth_over_required = self.aggregate.eval(&required_values);
        // Accuracy is judged against the membership snapshot at query
        // issue — "what was the aggregate when I asked?" — because under
        // extreme churn the required set can degenerate to the initiator
        // alone, which would make relative error meaningless.
        let snapshot_values: Vec<f64> = presence
            .members_at(outcome.window.start())
            .iter()
            .filter_map(|p| values.get(*p).copied())
            .collect();
        let truth_at_start = self.aggregate.eval(&snapshot_values);
        let relative_error = if outcome.timed_out || !outcome.value.is_finite() {
            f64::INFINITY
        } else if truth_at_start == 0.0 {
            outcome.value.abs()
        } else {
            (outcome.value - truth_at_start).abs() / truth_at_start.abs()
        };
        QueryRun {
            outcome,
            report,
            metrics: *metrics,
            truth_over_required,
            relative_error,
            finished,
            obs: observer.report,
            critical,
            flight_dump,
            trace_jsonl,
        }
    }
}

/// Per-worker world cache for sweeps: one reusable [`World`] per message
/// type, tagged with the `ArenaKey` its spawn closure was built for.
///
/// [`QueryScenario::run_in`] resets the cached world (keeping its queue
/// buckets, slot tables, trace storage and effect buffers) when the key
/// matches, and rebuilds it when the sweep moves to a different cell.
/// A reset world reproduces a fresh world's run byte for byte, so sweep
/// output is independent of how seeds were chunked across arenas.
#[derive(Default)]
pub struct SweepArena {
    wave: Option<(ArenaKey, World<WaveMsg>)>,
    gossip: Option<(ArenaKey, World<GossipMsg>)>,
}

impl fmt::Debug for SweepArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepArena")
            .field("wave", &self.wave.as_ref().map(|(k, _)| k))
            .field("gossip", &self.gossip.as_ref().map(|(k, _)| k))
            .finish()
    }
}

/// The scenario parameters baked into a cached world's actor factory.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ArenaKey {
    protocol: ProtocolKind,
    aggregate: AggregateKind,
    delay: DelayModel,
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// What the protocol reported.
    pub outcome: QueryOutcome,
    /// Specification verdict.
    pub report: ValidityReport,
    /// Kernel counters.
    pub metrics: Metrics,
    /// The reference aggregate over the processes present throughout the
    /// window (the set interval validity is judged against).
    pub truth_over_required: f64,
    /// Relative error of the answer against the aggregate over the
    /// membership snapshot at query issue (∞ for non-terminated queries).
    pub relative_error: f64,
    /// Completion instant, when the query terminated.
    pub finished: Option<Time>,
    /// Aggregated kernel observations: delivery-latency and queue-depth
    /// histograms and the number of events observed.
    pub obs: RunReport,
    /// Critical-path decomposition of the run's happened-before DAG: the
    /// longest-latency causal chain split into transit/queueing/processing.
    pub critical: CriticalPath,
    /// JSONL flight dump of the log's most recent kernel events, present
    /// when the run violated its specification.
    pub flight_dump: Option<String>,
    /// JSONL rendering of the full kernel trace, when
    /// [`QueryScenario::capture_trace`] was set.
    pub trace_jsonl: Option<String>,
}

impl fmt::Display for QueryRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | err {:.3} | {} msgs",
            self.outcome, self.report, self.relative_error, self.metrics.sends
        )
    }
}

/// Runs `scenario` once per seed, fanned across the sweep thread pool
/// (`DDS_THREADS`; see [`dds_sim::parallel`]) — and returns the judged
/// runs **in seed order**. Each worker keeps one [`SweepArena`] and runs
/// every seed it claims through it, so after the first build a cell run
/// costs a [`World::reset`] instead of a full reconstruction. Reset worlds
/// reproduce fresh worlds byte for byte, so the result vector is
/// bit-identical at any thread count.
pub fn run_sweep(scenario: &QueryScenario, seeds: impl IntoIterator<Item = u64>) -> Vec<QueryRun> {
    // The capture flag lives in a thread-local of the *calling* thread;
    // pool workers cannot see it, so it is read here and threaded through
    // each cell. The deposit below runs back on the calling thread, over
    // the seed-ordered results, so captured traces are byte-identical at
    // any `DDS_THREADS` setting.
    let capture = crate::obs::is_capturing();
    let cells: Vec<QueryScenario> = seeds
        .into_iter()
        .map(|seed| {
            let mut s = scenario.clone();
            s.seed = seed;
            s.capture_trace = capture || s.capture_trace;
            s
        })
        .collect();
    let runs = dds_sim::parallel::parallel_map_chunked(
        dds_sim::parallel::thread_count(),
        cells,
        SweepArena::default,
        |arena, s| s.run_in(arena),
    );
    if capture {
        crate::obs::deposit_traces(runs.iter().filter_map(|r| r.trace_jsonl.clone()));
        crate::obs::deposit_flight_dumps(runs.iter().filter_map(|r| r.flight_dump.clone()));
    }
    runs
}

/// Aggregates judged runs into the experiment row format, folding in input
/// order so the row is independent of sweep scheduling.
pub fn fold_sweep(runs: &[QueryRun]) -> SweepRow {
    let mut total = 0u32;
    let mut valid = 0u32;
    let mut terminated = 0u32;
    let mut err_sum = 0.0;
    let mut err_count = 0u32;
    let mut msg_sum = 0u64;
    let mut metrics = Metrics::default();
    for run in runs {
        total += 1;
        if run.report.level.is_interval_valid() {
            valid += 1;
        }
        if !run.outcome.timed_out {
            terminated += 1;
            if run.relative_error.is_finite() {
                err_sum += run.relative_error;
                err_count += 1;
            }
        }
        msg_sum += run.metrics.sends;
        metrics.merge(&run.metrics);
    }
    SweepRow {
        runs: total,
        interval_valid: valid,
        terminated,
        mean_relative_error: if err_count > 0 {
            err_sum / f64::from(err_count)
        } else {
            f64::NAN
        },
        mean_messages: if total > 0 {
            msg_sum as f64 / f64::from(total)
        } else {
            0.0
        },
        p50_stabilization: 0,
        p99_stabilization: 0,
        metrics,
    }
}

/// Runs `scenario` across `seeds` (in parallel; see [`run_sweep`]) and
/// reports the fraction of runs whose outcome is interval-valid, plus mean
/// relative error and mean messages — the row format of the churn
/// experiments.
pub fn success_rate(scenario: &QueryScenario, seeds: impl IntoIterator<Item = u64>) -> SweepRow {
    fold_sweep(&run_sweep(scenario, seeds))
}

/// Aggregated result of a multi-seed sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepRow {
    /// Number of runs.
    pub runs: u32,
    /// Runs that were interval-valid.
    pub interval_valid: u32,
    /// Runs that terminated.
    pub terminated: u32,
    /// Mean relative error over terminated runs.
    pub mean_relative_error: f64,
    /// Mean messages per run.
    pub mean_messages: f64,
    /// Median ticks-to-legal after a corruption burst. Filled by
    /// stabilization sweeps (the `stab1` experiment); 0 for query sweeps,
    /// whose runs carry no legality predicate.
    pub p50_stabilization: u64,
    /// 99th-percentile ticks-to-legal after a corruption burst
    /// (stabilization sweeps only).
    pub p99_stabilization: u64,
    /// Kernel counters summed over the sweep (peak membership is a max).
    pub metrics: Metrics,
}

impl SweepRow {
    /// Interval-validity success rate in `[0, 1]`.
    pub fn validity_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            f64::from(self.interval_valid) / f64::from(self.runs)
        }
    }

    /// Termination rate in `[0, 1]`.
    pub fn termination_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            f64::from(self.terminated) / f64::from(self.runs)
        }
    }
}

impl fmt::Display for SweepRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "valid {:>3.0}% | term {:>3.0}% | err {:.3} | {:.0} msgs",
            self.validity_rate() * 100.0,
            self.termination_rate() * 100.0,
            self.mean_relative_error,
            self.mean_messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::spec::one_time_query::ValidityLevel;
    use dds_net::generate;

    #[test]
    fn static_flood_echo_is_interval_valid_and_exact() {
        let scenario =
            QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
        let run = scenario.run();
        assert_eq!(run.report.level, ValidityLevel::IntervalValid);
        assert_eq!(run.outcome.value, 16.0);
        assert_eq!(run.relative_error, 0.0);
        assert!(run.finished.is_some());
        // The run's longest-latency causal chain is nonempty and its
        // segments telescope to the total exactly (here it is the
        // flood-echo timeout timer: one queueing hop dominates the wave's
        // transit chain).
        assert!(
            run.critical.total > 0 && run.critical.hops >= 1,
            "got {}",
            run.critical
        );
        assert_eq!(
            run.critical.total,
            run.critical.transit + run.critical.queueing + run.critical.processing,
            "segments must decompose the total exactly: {}",
            run.critical
        );
    }

    #[test]
    fn short_ttl_is_weakly_valid() {
        let scenario = QueryScenario::new(generate::path(8), ProtocolKind::FloodEcho { ttl: 3 });
        let run = scenario.run();
        assert_eq!(run.report.level, ValidityLevel::WeaklyValid);
        assert_eq!(run.outcome.value, 4.0);
        assert!(run.report.coverage() < 1.0);
    }

    #[test]
    fn spec_failure_dumps_the_flight_recorder() {
        // Same failing scenario as `short_ttl_is_weakly_valid`: the wave
        // misses half the path, the validity hook fires, and the judge
        // renders the recorder ring.
        let scenario = QueryScenario::new(generate::path(8), ProtocolKind::FloodEcho { ttl: 3 });
        let run = scenario.run();
        let dump = run
            .flight_dump
            .as_deref()
            .expect("spec failure produces a dump");
        let lines: Vec<&str> = dump.lines().collect();
        assert!(
            lines[0].contains("\"t\":\"flight-dump\"") && lines[0].contains("one-time query by"),
            "header names the violated spec: {}",
            lines[0]
        );
        assert!(lines.len() > 8, "dump carries the recent kernel events");
        assert!(
            lines.iter().any(|l| l.contains("\"t\":\"deliver\"")),
            "events leading up to the failure are present"
        );
        // A passing run keeps the dump (and the trace, unless requested) off.
        let ok = QueryScenario::new(generate::path(8), ProtocolKind::FloodEcho { ttl: 8 }).run();
        assert_eq!(ok.report.level, ValidityLevel::IntervalValid);
        assert!(ok.flight_dump.is_none());
        assert!(ok.trace_jsonl.is_none());
    }

    #[test]
    fn capture_trace_attaches_the_jsonl_trace() {
        let mut scenario =
            QueryScenario::new(generate::ring(5), ProtocolKind::FloodEcho { ttl: 4 });
        scenario.capture_trace = true;
        let run = scenario.run();
        let trace = run
            .trace_jsonl
            .as_deref()
            .expect("capture_trace renders the trace");
        assert!(trace.lines().count() >= 5, "at least the initial joins");
        assert!(trace.starts_with("{\"t\":\"join\""));
    }

    #[test]
    fn moderate_churn_flood_echo_mostly_valid() {
        let mut scenario =
            QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
        scenario.driver = DriverSpec::Balanced {
            rate: 0.05,
            window: 10,
            crash_fraction: 0.0,
        };
        let row = success_rate(&scenario, 0..20);
        assert_eq!(row.termination_rate(), 1.0, "flood-echo always terminates");
        assert!(
            row.validity_rate() >= 0.6,
            "low churn should mostly preserve validity, got {row}"
        );
        // The paper's shape: more churn, less validity.
        let mut heavy = scenario.clone();
        heavy.driver = DriverSpec::Balanced {
            rate: 0.4,
            window: 10,
            crash_fraction: 0.0,
        };
        let heavy_row = success_rate(&heavy, 0..20);
        assert!(
            heavy_row.validity_rate() < row.validity_rate(),
            "heavier churn must hurt: {heavy_row} vs {row}"
        );
    }

    #[test]
    fn growth_driver_scenario_terminates() {
        let mut scenario =
            QueryScenario::new(generate::ring(8), ProtocolKind::FloodEcho { ttl: 6 });
        scenario.driver = DriverSpec::Growth {
            per_window: 0.2,
            window: 10,
            cap: 64,
        };
        scenario.deadline = Time::from_ticks(100);
        let run = scenario.run();
        assert!(!run.outcome.timed_out);
    }

    #[test]
    fn path_stretch_defeats_fixed_ttl() {
        // Line of 4; adversary splices a node every 2 ticks. A TTL of 3
        // suffices initially but the witness recedes faster than the wave.
        let mut scenario =
            QueryScenario::new(generate::path(4), ProtocolKind::FloodEcho { ttl: 3 });
        scenario.driver = DriverSpec::PathStretch { window: 1 };
        scenario.deadline = Time::from_ticks(300);
        let run = scenario.run();
        // The witness (p3) is present throughout but must be missed.
        assert!(
            run.report.missed.contains(&scenario.witness()) || run.outcome.timed_out,
            "adversary must defeat the wave: {run}"
        );
    }

    #[test]
    fn gossip_terminates_and_estimates() {
        let mut scenario =
            QueryScenario::new(generate::complete(8), ProtocolKind::Gossip { rounds: 50 });
        scenario.aggregate = AggregateKind::Sum;
        scenario.deadline = Time::from_ticks(1000);
        let run = scenario.run();
        assert!(!run.outcome.timed_out);
        assert!(run.relative_error < 0.1, "got {run}");
    }

    #[test]
    fn arena_reuse_matches_fresh_runs_byte_for_byte() {
        let mut scenario =
            QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
        scenario.driver = DriverSpec::Balanced {
            rate: 0.1,
            window: 10,
            crash_fraction: 0.2,
        };
        scenario.capture_trace = true;
        // One arena across every seed (the sweep worker path); each run
        // must match a fresh single-use world exactly, traces included.
        let mut arena = SweepArena::default();
        for seed in 0..6 {
            let mut cell = scenario.clone();
            cell.seed = seed;
            let reused = cell.run_in(&mut arena);
            let fresh = cell.run();
            assert_eq!(
                reused.trace_jsonl, fresh.trace_jsonl,
                "trace diverged at seed {seed}"
            );
            assert_eq!(
                reused.metrics, fresh.metrics,
                "metrics diverged at seed {seed}"
            );
            assert_eq!(
                format!("{:?}", reused.outcome),
                format!("{:?}", fresh.outcome),
                "outcome diverged at seed {seed}"
            );
        }
        // Switching cells (different protocol → different arena key)
        // rebuilds the cached world instead of reusing a stale factory.
        let mut gossip = scenario.clone();
        gossip.protocol = ProtocolKind::Gossip { rounds: 30 };
        gossip.deadline = Time::from_ticks(2000);
        let reused = gossip.run_in(&mut arena);
        let fresh = gossip.run();
        assert_eq!(reused.trace_jsonl, fresh.trace_jsonl);
        assert_eq!(
            format!("{:?}", reused.outcome),
            format!("{:?}", fresh.outcome)
        );
    }

    #[test]
    fn sweep_row_rates() {
        let row = SweepRow {
            runs: 10,
            interval_valid: 7,
            terminated: 9,
            mean_relative_error: 0.1,
            mean_messages: 100.0,
            p50_stabilization: 0,
            p99_stabilization: 0,
            metrics: Metrics::default(),
        };
        assert!((row.validity_rate() - 0.7).abs() < 1e-12);
        assert!((row.termination_rate() - 0.9).abs() < 1e-12);
        assert!(row.to_string().contains("70%"));
    }

    #[test]
    fn scenario_display_names() {
        assert_eq!(
            ProtocolKind::MultiTree { ttl: 4, k: 3 }.to_string(),
            "multi-tree(ttl=4, k=3)"
        );
        assert_eq!(
            ProtocolKind::Gossip { rounds: 9 }.to_string(),
            "push-sum(rounds=9)"
        );
    }
}
