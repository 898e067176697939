//! # dds-bench — the experiment harness
//!
//! One function per experiment (E1–E8 in EXPERIMENTS.md), each returning
//! the table it prints so integration tests can assert on the *shape* of
//! the results (who wins, where the frontier falls) rather than on exact
//! numbers. The `run_experiments` binary prints any subset and renders
//! the result-shape ledger `BENCH_sweeps.json` ([`ledger`]); both are
//! pinned byte for byte by `tests/experiment_pins.rs`. Timing belongs to
//! the repo benchmark (`benchmark/`).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dds_core::class::SystemClass;
use dds_core::solvability::one_time_query;
use dds_core::spec::aggregate::AggregateKind;
use dds_core::spec::register::RegOp;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_obs::{CriticalPath, Histogram, RunReport};
use dds_protocols::harness::{fold_sweep, run_sweep, SweepRow};
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};
use dds_registers::base::ObjectState;
use dds_registers::consensus::run_consensus;
use dds_registers::harness::run_schedule;
use dds_registers::Construction;
use dds_sim::delay::DelayModel;
use dds_sim::metrics::Metrics;
use dds_sim::parallel::parallel_map;

/// Number of seeds per sweep cell (keep experiments fast but stable).
pub const SEEDS: u64 = 20;

/// One experiment's output: a title, a printable table, and the rows as
/// data for assertions.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment id, e.g. `"E2"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The rendered table.
    pub table: String,
    /// Structured rows: label → sweep result (empty for non-sweep
    /// experiments).
    pub rows: BTreeMap<String, SweepRow>,
    /// Simulated runs performed outside `rows` — experiments whose work
    /// does not fold into sweep rows (register schedules, consensus
    /// instances, continuous monitoring, membership-view sweeps) count here so
    /// the ledger's `runs` column counts every run.
    pub extra_runs: u64,
    /// Kernel counters of the runs counted by `extra_runs`, merged.
    pub extra_metrics: Metrics,
    /// Delivery latency pooled over every observed run of the experiment.
    pub latency: Histogram,
    /// Event-queue depth pooled over every observed run.
    pub queue_depth: Histogram,
    /// Critical-path total latency pooled over every sweep run (from the
    /// kernel's happened-before annotations; see `dds_obs::causal`).
    pub critical: Histogram,
    /// Ticks-to-legal after a corruption burst, pooled over every
    /// stabilization run (the `stab1` experiment; empty elsewhere).
    pub stabilization: Histogram,
    /// Summed critical-path ticks spent in message flight.
    pub crit_transit: u64,
    /// Summed critical-path ticks spent waiting on timers.
    pub crit_queueing: u64,
    /// Summed critical-path ticks of local processing.
    pub crit_processing: u64,
}

impl Experiment {
    fn new(id: &'static str, title: &'static str) -> Self {
        Experiment {
            id,
            title,
            table: String::new(),
            rows: BTreeMap::new(),
            extra_runs: 0,
            extra_metrics: Metrics::default(),
            latency: Histogram::new(),
            queue_depth: Histogram::new(),
            critical: Histogram::new(),
            stabilization: Histogram::new(),
            crit_transit: 0,
            crit_queueing: 0,
            crit_processing: 0,
        }
    }

    /// Total simulated runs: the sweep rows plus `extra_runs`.
    pub fn total_runs(&self) -> u64 {
        self.extra_runs + self.rows.values().map(|r| u64::from(r.runs)).sum::<u64>()
    }

    /// Kernel counters merged over every run of the experiment.
    pub fn merged_metrics(&self) -> Metrics {
        let mut m = self.extra_metrics;
        for row in self.rows.values() {
            m.merge(&row.metrics);
        }
        m
    }

    /// The experiment as `run_experiments` prints it: a heading, a blank
    /// line, the table and another blank line.
    pub fn report(&self) -> String {
        format!("== {} — {}\n\n{}\n", self.id, self.title, self.table)
    }

    /// This experiment's line of `BENCH_sweeps.json`: the run count, the
    /// p50/p99 pair of every pooled histogram that recorded a sample (the
    /// critical-path pair followed by its summed decomposition), and the
    /// merged kernel counters unless every one is zero. No wall-clock
    /// field, so the line is the same at any `DDS_THREADS`.
    pub fn ledger_line(&self) -> String {
        let mut line = format!(
            "{{\"id\": \"{}\", \"runs\": {}",
            self.id.to_lowercase(),
            self.total_runs()
        );
        for (name, hist) in [
            ("delivery_latency", &self.latency),
            ("queue_depth", &self.queue_depth),
            ("critical_path", &self.critical),
            ("stabilization", &self.stabilization),
        ] {
            if hist.is_empty() {
                continue;
            }
            let _ = write!(
                line,
                ", \"p50_{name}\": {}, \"p99_{name}\": {}",
                hist.percentile(50.0),
                hist.percentile(99.0)
            );
            if name == "critical_path" {
                let _ = write!(
                    line,
                    ", \"crit_transit\": {}, \"crit_queueing\": {}, \"crit_processing\": {}",
                    self.crit_transit, self.crit_queueing, self.crit_processing
                );
            }
        }
        let metrics = self.merged_metrics();
        if metrics != Metrics::default() {
            let _ = write!(line, ", \"metrics\": {}", metrics.to_json());
        }
        line.push('}');
        line
    }

    /// Pools one run's kernel observations and critical path into the
    /// experiment's histograms and critical-path sums.
    fn observe(&mut self, obs: &RunReport, critical: &CriticalPath) {
        self.latency.merge(&obs.delivery_latency);
        self.queue_depth.merge(&obs.queue_depth);
        self.critical.record(critical.total);
        self.crit_transit += critical.transit;
        self.crit_queueing += critical.queueing;
        self.crit_processing += critical.processing;
    }

    /// Runs `scenario` over `seeds`, pools every run into the experiment
    /// ([`Self::observe`]), stores the folded row under `label`, and
    /// returns it.
    fn sweep(
        &mut self,
        label: impl Into<String>,
        scenario: &QueryScenario,
        seeds: impl IntoIterator<Item = u64>,
    ) -> SweepRow {
        let runs = run_sweep(scenario, seeds);
        for run in &runs {
            self.observe(&run.obs, &run.critical);
        }
        let row = fold_sweep(&runs);
        self.rows.insert(label.into(), row);
        row
    }
}

/// E1 — static baseline: the wave is exact and terminates in Θ(diameter)
/// time on static graphs of growing size.
pub fn e1_static() -> Experiment {
    let mut e = Experiment::new("E1", "static one-time query: exactness and latency");
    let _ = writeln!(
        e.table,
        "{:<18} {:>6} {:>9} {:>10} {:>10} {:>9}",
        "graph", "n", "diameter", "validity", "finish(t)", "msgs"
    );
    let cases: Vec<(&str, dds_net::Graph)> = vec![
        ("complete(16)", generate::complete(16)),
        ("torus(4x4)", generate::torus(4, 4)),
        ("torus(8x8)", generate::torus(8, 8)),
        ("torus(12x12)", generate::torus(12, 12)),
        ("ring(64)", generate::ring(64)),
    ];
    for (name, graph) in cases {
        let d = dds_net::algo::diameter(&graph).expect("connected") as u32;
        let scenario = QueryScenario::new(graph.clone(), ProtocolKind::FloodEcho { ttl: d + 1 });
        let run = scenario.run();
        e.extra_runs += 1;
        e.extra_metrics.merge(&run.metrics);
        e.latency.merge(&run.obs.delivery_latency);
        e.queue_depth.merge(&run.obs.queue_depth);
        let row = e.sweep(name, &scenario, 0..SEEDS);
        let _ = writeln!(
            e.table,
            "{:<18} {:>6} {:>9} {:>9.0}% {:>10} {:>9.0}",
            name,
            graph.node_count(),
            d,
            row.validity_rate() * 100.0,
            run.finished.map(|t| t.as_ticks()).unwrap_or(0),
            row.mean_messages
        );
    }
    e
}

/// E2 — the churn frontier: interval validity vs churn rate, for two
/// membership sizes (the concurrency bound `b` of `M^∞_b`).
pub fn e2_churn() -> Experiment {
    let mut e = Experiment::new("E2", "interval validity vs churn rate (M^inf_b)");
    let rates = [0.0, 0.02, 0.05, 0.10, 0.20, 0.40];
    let _ = writeln!(
        e.table,
        "{:<12} {}",
        "membership",
        rates
            .iter()
            .map(|r| format!("{:>14}", format!("churn {:.0}%", r * 100.0)))
            .collect::<String>()
    );
    for (label, graph, ttl) in [
        ("b=16", generate::torus(4, 4), 8u32),
        ("b=36", generate::torus(6, 6), 12u32),
    ] {
        let mut line = format!("{label:<12}");
        for rate in rates {
            let mut s = QueryScenario::new(graph.clone(), ProtocolKind::FloodEcho { ttl });
            s.deadline = Time::from_ticks(2_000);
            if rate > 0.0 {
                s.driver = DriverSpec::Balanced {
                    rate,
                    window: 10,
                    crash_fraction: 0.3,
                };
            }
            let row = e.sweep(format!("{label}@{rate}"), &s, 0..SEEDS);
            let _ = write!(
                line,
                "{:>14}",
                format!(
                    "{:.0}%/{:.0}%",
                    row.validity_rate() * 100.0,
                    row.termination_rate() * 100.0
                )
            );
        }
        let _ = writeln!(e.table, "{line}");
    }
    let _ = writeln!(e.table, "(cells: interval-validity% / termination%)");
    e
}

/// E3 — the geography dimension: cost and validity vs diameter, fixed
/// churn.
pub fn e3_geo() -> Experiment {
    let mut e = Experiment::new("E3", "geography: validity and cost vs diameter");
    let _ = writeln!(
        e.table,
        "{:<14} {:>9} {:>6} {:>10} {:>10}",
        "graph", "diameter", "ttl", "validity", "msgs"
    );
    for side in [3usize, 4, 6, 8] {
        let graph = generate::torus(side, side);
        let d = dds_net::algo::diameter(&graph).expect("connected") as u32;
        let mut s = QueryScenario::new(graph, ProtocolKind::FloodEcho { ttl: d + 1 });
        s.driver = DriverSpec::Balanced {
            rate: 0.05,
            window: 10,
            crash_fraction: 0.3,
        };
        s.deadline = Time::from_ticks(2_000);
        let label = format!("torus({side}x{side})");
        let row = e.sweep(label.clone(), &s, 0..SEEDS);
        let _ = writeln!(
            e.table,
            "{:<14} {:>9} {:>6} {:>9.0}% {:>10.0}",
            label,
            d,
            d + 1,
            row.validity_rate() * 100.0,
            row.mean_messages
        );
    }
    let _ = writeln!(
        e.table,
        "(wider graphs: longer exposure to churn, more misses; msgs scale ~n·deg)"
    );
    e
}

/// E4 — protocol crossover under churn: exact trees vs redundant trees vs
/// gossip.
pub fn e4_crossover() -> Experiment {
    let mut e = Experiment::new("E4", "tree vs gossip crossover under churn");
    let graph = generate::torus(5, 5);
    let protocols = [
        ("flood-echo", ProtocolKind::FloodEcho { ttl: 8 }),
        ("single-tree", ProtocolKind::SingleTree { ttl: 8 }),
        ("multi-tree k=4", ProtocolKind::MultiTree { ttl: 8, k: 4 }),
        ("push-sum", ProtocolKind::Gossip { rounds: 80 }),
    ];
    let rates = [0.0, 0.05, 0.10, 0.20, 0.40];
    let _ = writeln!(
        e.table,
        "{:<16} {}",
        "protocol",
        rates
            .iter()
            .map(|r| format!("{:>16}", format!("churn {:.0}%", r * 100.0)))
            .collect::<String>()
    );
    for (name, protocol) in protocols {
        let mut line = format!("{name:<16}");
        for rate in rates {
            let mut s = QueryScenario::new(graph.clone(), protocol);
            s.aggregate = AggregateKind::Average;
            s.deadline = Time::from_ticks(3_000);
            if rate > 0.0 {
                s.driver = DriverSpec::Balanced {
                    rate,
                    window: 10,
                    crash_fraction: 0.3,
                };
            }
            let row = e.sweep(format!("{name}@{rate}"), &s, 0..SEEDS);
            let _ = write!(
                line,
                "{:>16}",
                format!(
                    "{:.0}%/e{:.2}",
                    row.validity_rate() * 100.0,
                    row.mean_relative_error
                )
            );
        }
        let _ = writeln!(e.table, "{line}");
    }
    let _ = writeln!(e.table, "(cells: interval-validity% / mean relative error)");
    e
}

/// E5 — the unbounded-diameter impossibility: no TTL survives the
/// path-stretch adversary, while the same TTL is fine on the static line.
pub fn e5_adversary() -> Experiment {
    let mut e = Experiment::new("E5", "every TTL loses to the path-stretch adversary (C4)");
    let _ = writeln!(
        e.table,
        "{:<8} {:>22} {:>22}",
        "ttl", "static line validity", "adversary validity"
    );
    for ttl in [2u32, 4, 8, 16, 32] {
        // Control: static line of ttl+1 nodes — diameter exactly ttl.
        let control_graph = generate::path(ttl as usize + 1);
        let control = QueryScenario::new(control_graph, ProtocolKind::FloodEcho { ttl });
        let control_row = e.sweep(format!("control@{ttl}"), &control, 0..5);
        // Adversary: line of 4, spliced every tick.
        let mut adv = QueryScenario::new(generate::path(4), ProtocolKind::FloodEcho { ttl });
        adv.driver = DriverSpec::PathStretch { window: 1 };
        adv.deadline = Time::from_ticks(600);
        let adv_row = e.sweep(format!("adversary@{ttl}"), &adv, 0..5);
        let _ = writeln!(
            e.table,
            "{:<8} {:>21.0}% {:>21.0}%",
            ttl,
            control_row.validity_rate() * 100.0,
            adv_row.validity_rate() * 100.0
        );
    }
    let _ = writeln!(
        e.table,
        "(control: TTL = diameter succeeds; adversary: witness recedes, always missed)"
    );
    e
}

/// E6 — reliable register cost: base accesses per operation, responsive
/// `t+1` vs nonresponsive `2t+1`.
pub fn e6_registers() -> Experiment {
    let mut e = Experiment::new("E6", "register self-implementation cost vs tolerance t");
    let _ = writeln!(
        e.table,
        "{:<6} {:>14} {:>16} {:>16} {:>18}",
        "t", "resp. bank", "resp. accesses", "majority bank", "majority accesses"
    );
    let scripts = vec![
        vec![
            RegOp::Write(1),
            RegOp::Write(2),
            RegOp::Write(3),
            RegOp::Write(4),
        ],
        vec![RegOp::Read; 4],
        vec![RegOp::Read; 4],
    ];
    let ops = 12u64;
    // Each tolerance level is an independent pair of scheduler runs, so the
    // column is computed on the sweep pool and assembled in order.
    let lines = parallel_map(vec![1usize, 2, 4, 8], |t| {
        let resp = run_schedule(
            Construction::ResponsiveAll { write_back: true },
            t,
            &scripts,
            &[],
            1,
        );
        let maj = run_schedule(
            Construction::MajorityQuorum { write_back: true },
            t,
            &scripts,
            &[],
            1,
        );
        // Steps ≈ base accesses (one access per scheduler step after
        // invocation steps).
        format!(
            "{:<6} {:>14} {:>16.1} {:>16} {:>18.1}",
            t,
            t + 1,
            resp.steps as f64 / ops as f64,
            2 * t + 1,
            maj.steps as f64 / ops as f64,
        )
    });
    // Two scheduler runs (responsive + majority) per tolerance level.
    e.extra_runs = 2 * lines.len() as u64;
    for line in lines {
        let _ = writeln!(e.table, "{line}");
    }
    let _ = writeln!(
        e.table,
        "(accesses/op grow linearly in the bank size; 2t+1 pays ~2x plus write-back)"
    );
    e
}

/// E7 — consensus self-implementation: cost under responsive crashes,
/// blocking under nonresponsive ones.
pub fn e7_consensus() -> Experiment {
    let mut e = Experiment::new("E7", "consensus from t+1 objects: cost and impossibility");
    let _ = writeln!(
        e.table,
        "{:<6} {:>10} {:>16} {:>12} {:>22}",
        "t", "objects", "resp. accesses", "resp. ok?", "nonresp. blocked procs"
    );
    let proposals = [11u64, 22, 33, 44, 55];
    // Independent consensus instances per tolerance level: fan them out.
    let lines = parallel_map(vec![1usize, 2, 4, 8], |t| {
        // Responsive: crash the first t objects; still correct.
        let crashes: BTreeMap<usize, ObjectState> = (0..t)
            .map(|i| (i, ObjectState::CrashedResponsive))
            .collect();
        let (run, blocked, bank) = run_consensus(t, &proposals, &crashes, 3);
        let report = dds_core::spec::consensus::check_consensus(&run);
        assert!(blocked.is_empty());
        // Nonresponsive: a single crash blocks everyone who reaches it.
        let nr: BTreeMap<usize, ObjectState> = [(0, ObjectState::CrashedNonresponsive)].into();
        let (_, blocked_nr, _) = run_consensus(t, &proposals, &nr, 3);
        format!(
            "{:<6} {:>10} {:>16} {:>12} {:>22}",
            t,
            t + 1,
            bank.total_accesses(),
            if report.is_correct() { "yes" } else { "NO" },
            blocked_nr.len(),
        )
    });
    // Two consensus instances (responsive + nonresponsive) per level.
    e.extra_runs = 2 * lines.len() as u64;
    for line in lines {
        let _ = writeln!(e.table, "{line}");
    }
    let _ = writeln!(
        e.table,
        "(responsive: correct at O(t) accesses per process; one nonresponsive crash: no termination)"
    );
    e
}

/// E8 — the full solvability matrix, analytical verdict vs empirical probe.
pub fn e8_landscape() -> Experiment {
    let mut e = Experiment::new("E8", "the solvability landscape, analytical vs empirical");
    let _ = writeln!(
        e.table,
        "{:<4} {:<12} {:>10} {:>10}  class",
        "id", "verdict", "validity", "term."
    );
    for (name, class) in SystemClass::named_landscape() {
        let verdict = one_time_query(&class);
        let scenario = landscape_probe(name);
        let (v, t) = match &scenario {
            Some(s) => {
                let row = e.sweep(name.to_string(), s, 0..15);
                (
                    format!("{:.0}%", row.validity_rate() * 100.0),
                    format!("{:.0}%", row.termination_rate() * 100.0),
                )
            }
            None => ("-".into(), "-".into()),
        };
        let _ = writeln!(
            e.table,
            "{:<4} {:<12} {:>10} {:>10}  {}",
            name,
            if verdict.is_solvable() {
                "solvable"
            } else {
                "UNSOLVABLE"
            },
            v,
            t,
            class
        );
    }
    e
}

/// The empirical probe scenario for one named landscape class.
pub fn landscape_probe(name: &str) -> Option<QueryScenario> {
    let torus = generate::torus(4, 4);
    let mut s = QueryScenario::new(torus, ProtocolKind::FloodEcho { ttl: 8 });
    s.deadline = Time::from_ticks(2_000);
    match name {
        "C1" => {}
        "C2" => {
            s.driver = DriverSpec::Growth {
                per_window: 0.1,
                window: 2,
                cap: 64,
            };
            s.deadline = Time::from_ticks(60);
        }
        "C3" => {
            s.driver = DriverSpec::Balanced {
                rate: 0.05,
                window: 10,
                crash_fraction: 0.2,
            };
        }
        "C4" => {
            s = QueryScenario::new(generate::path(6), ProtocolKind::FloodEcho { ttl: 5 });
            s.driver = DriverSpec::PathStretch { window: 1 };
            s.deadline = Time::from_ticks(400);
        }
        "C5" => {
            // Unbounded concurrency with adversarial attachment: the system
            // grows into a chain, so by the time the query is issued the
            // stable tail is beyond any TTL. (With random attachment the
            // diameter stays logarithmic and the wave survives — the
            // impossibility needs the adversary to pick the topology.)
            s.driver = DriverSpec::Growth {
                per_window: 0.2,
                window: 4,
                cap: 600,
            };
            s.policy = dds_sim::world::TopologyPolicy {
                attach: dds_net::dynamic::AttachRule::Chain,
                repair: dds_net::dynamic::RepairRule::BridgeNeighbors,
            };
            s.start = Time::from_ticks(80);
            s.deadline = Time::from_ticks(400);
        }
        "C6" => {
            // Delays routinely exceed whatever bound the protocol guesses:
            // its timeouts fire while echoes are still in flight.
            s.delay = DelayModel::Exponential { mean_ticks: 15.0 };
            s.driver = DriverSpec::Balanced {
                rate: 0.05,
                window: 10,
                crash_fraction: 0.2,
            };
        }
        "C7" => {
            // Arbitrary connectivity: the partition adversary severs the
            // stable part before the query and never heals it.
            s.driver = DriverSpec::Partition {
                cut_at: 1,
                heal_at: None,
            };
        }
        _ => return None,
    }
    Some(s)
}

/// Ablation A1 — multi-tree redundancy: validity bought per extra tree.
pub fn a1_multitree() -> Experiment {
    let mut e = Experiment::new("A1", "ablation: multi-tree redundancy factor k");
    let graph = generate::torus(5, 5);
    let _ = writeln!(e.table, "{:<6} {:>10} {:>10}", "k", "validity", "msgs");
    for k in [1u32, 2, 4, 8] {
        let mut s = QueryScenario::new(graph.clone(), ProtocolKind::MultiTree { ttl: 8, k });
        s.driver = DriverSpec::Balanced {
            rate: 0.10,
            window: 10,
            crash_fraction: 0.3,
        };
        s.deadline = Time::from_ticks(3_000);
        let row = e.sweep(format!("k={k}"), &s, 0..SEEDS);
        let _ = writeln!(
            e.table,
            "{:<6} {:>9.0}% {:>10.0}",
            k,
            row.validity_rate() * 100.0,
            row.mean_messages
        );
    }
    let _ = writeln!(
        e.table,
        "(each extra tree buys coverage at linear message cost)"
    );
    e
}

/// Ablation A2 — timeout scaling in the wave: tight vs generous timeouts.
pub fn a2_timeouts() -> Experiment {
    let mut e = Experiment::new("A2", "ablation: delay-bound slack vs validity");
    let graph = generate::torus(5, 5);
    let _ = writeln!(
        e.table,
        "{:<14} {:>10} {:>10}",
        "delay model", "validity", "term."
    );
    for (name, delay) in [
        ("fixed(1)", DelayModel::Fixed(TimeDelta::TICK)),
        (
            "uniform(1..3)",
            DelayModel::Uniform {
                min: TimeDelta::TICK,
                max: TimeDelta::ticks(3),
            },
        ),
        ("exp(mean 3)", DelayModel::Exponential { mean_ticks: 3.0 }),
    ] {
        let mut s = QueryScenario::new(graph.clone(), ProtocolKind::FloodEcho { ttl: 8 });
        s.delay = delay;
        s.driver = DriverSpec::Balanced {
            rate: 0.05,
            window: 10,
            crash_fraction: 0.3,
        };
        s.deadline = Time::from_ticks(3_000);
        let row = e.sweep(name, &s, 0..SEEDS);
        let _ = writeln!(
            e.table,
            "{:<14} {:>9.0}% {:>9.0}%",
            name,
            row.validity_rate() * 100.0,
            row.termination_rate() * 100.0
        );
    }
    let _ = writeln!(
        e.table,
        "(bounded delays: timeouts correct; unbounded delays: echoes outlive timeouts)"
    );
    e
}

/// Ablation A3 — connectivity in isolation: no cut vs transient cut vs
/// permanent cut, same system otherwise.
pub fn a3_partition() -> Experiment {
    let mut e = Experiment::new("A3", "ablation: connectivity (partition adversary)");
    let _ = writeln!(
        e.table,
        "{:<22} {:>10} {:>10}",
        "connectivity", "validity", "term."
    );
    let cases: [(&str, Option<DriverSpec>); 3] = [
        ("always connected", None),
        (
            "eventually connected",
            Some(DriverSpec::Partition {
                cut_at: 3,
                heal_at: Some(60),
            }),
        ),
        (
            "arbitrary (permanent)",
            Some(DriverSpec::Partition {
                cut_at: 3,
                heal_at: None,
            }),
        ),
    ];
    for (name, driver) in cases {
        let mut s = QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
        s.deadline = Time::from_ticks(2_000);
        if let Some(d) = driver {
            s.driver = d;
        }
        let row = e.sweep(name, &s, 0..SEEDS);
        let _ = writeln!(
            e.table,
            "{:<22} {:>9.0}% {:>9.0}%",
            name,
            row.validity_rate() * 100.0,
            row.termination_rate() * 100.0
        );
    }
    let _ = writeln!(
        e.table,
        "(one-shot queries cannot wait out even a transient partition: the \
wave's timeouts fire during the cut — eventual guarantees do not help \
one-shot problems)"
    );
    e
}

/// E9 — continuous monitoring: repeated queries over one evolving system.
pub fn e9_monitoring() -> Experiment {
    use dds_core::time::TimeDelta;
    use dds_protocols::continuous::ContinuousScenario;
    let mut e = Experiment::new("E9", "continuous monitoring: per-query validity over time");
    let _ = writeln!(
        e.table,
        "{:<26} {:>10} {:>10} {:>12} {:>12}",
        "churn / overlay repair", "validity", "term.", "1st half", "2nd half"
    );
    let cases = [
        ("none / bridging", 0.0, true),
        ("20% / bridging", 0.2, true),
        ("40% / bridging", 0.4, true),
        ("20% / NO repair", 0.2, false),
    ];
    for (name, rate, repaired) in cases {
        let mut base =
            QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
        base.deadline = Time::from_ticks(100_000);
        if rate > 0.0 {
            base.driver = DriverSpec::Balanced {
                rate,
                window: 10,
                crash_fraction: 1.0,
            };
        }
        if !repaired {
            base.policy = dds_sim::world::TopologyPolicy {
                attach: dds_net::dynamic::AttachRule::RandomK(2),
                repair: dds_net::dynamic::RepairRule::None,
            };
        }
        let run = ContinuousScenario::new(base, TimeDelta::ticks(40), 30).run();
        e.extra_runs += run.per_query.len() as u64;
        e.extra_metrics.merge(&run.metrics);
        let (first, second) = run.half_rates();
        let _ = writeln!(
            e.table,
            "{:<26} {:>9.0}% {:>9.0}% {:>11.0}% {:>11.0}%",
            name,
            run.validity_rate() * 100.0,
            run.termination_rate() * 100.0,
            first * 100.0,
            second * 100.0
        );
    }
    let _ = writeln!(
        e.table,
        "(with repair, validity is stationary at every churn level — churn hurts per \
query, not cumulatively; without repair the overlay fragments within the \
first few windows and monitoring collapses)"
    );
    e
}

/// A4 — membership substrate: false suspicions of the purge-based
/// [`dds_protocols::stab::ViewActor`] vs message loss. Nothing departs,
/// so every purge evicts a live neighbor: a false suspicion.
pub fn a4_membership() -> Experiment {
    use dds_core::time::TimeDelta;
    use dds_protocols::stab::{ProbeMsg, ViewActor};
    use dds_sim::delay::LossModel;
    use dds_sim::world::{World, WorldBuilder};

    let mut e = Experiment::new("A4", "heartbeat membership: false suspicions vs loss");
    let _ = writeln!(
        e.table,
        "{:<12} {}",
        "threshold",
        [0.0, 0.05, 0.1, 0.2]
            .iter()
            .map(|l| format!("{:>12}", format!("loss {:.0}%", l * 100.0)))
            .collect::<String>()
    );
    for threshold in [3u64, 7, 15] {
        let mut line = format!("{:<12}", format!("{threshold} ticks"));
        for loss in [0.0, 0.05, 0.1, 0.2] {
            let mut total = 0u64;
            for seed in 0..10u64 {
                let mut world: World<ProbeMsg> = WorldBuilder::new(seed)
                    .initial_graph(generate::ring(10))
                    .loss(if loss > 0.0 {
                        LossModel::Bernoulli(loss)
                    } else {
                        LossModel::None
                    })
                    .spawn(move |_| {
                        Box::new(ViewActor::new(
                            TimeDelta::ticks(2),
                            TimeDelta::ticks(threshold),
                        ))
                    })
                    .build();
                world.run_until(Time::from_ticks(200));
                for &pid in world.members() {
                    let view: &ViewActor = world.actor(pid).expect("present");
                    total += view.purges();
                }
                e.extra_runs += 1;
                e.extra_metrics.merge(world.metrics());
            }
            let _ = write!(line, "{:>12.1}", total as f64 / 10.0);
        }
        let _ = writeln!(e.table, "{line}");
    }
    let _ = writeln!(
        e.table,
        "(false suspicions per 200-tick run, 10 nodes; longer thresholds buy accuracy with latency)"
    );
    e
}

/// E10 — a register under churn: value survivability and regularity vs
/// churn rate (the paper's closing question, after the authors' own
/// follow-up work).
pub fn e10_register() -> Experiment {
    use dds_core::churn::ChurnSpec;
    use dds_core::process::ProcessId;
    use dds_core::spec::register::{check_regular_single_writer, RegResp};
    use dds_core::time::TimeDelta;
    use dds_protocols::register::{history_from_world, RegMsg, RegisterActor, RegisterConfig};
    use dds_sim::delay::DelayModel;
    use dds_sim::driver::BalancedChurn;
    use dds_sim::world::{World, WorldBuilder};

    let mut e = Experiment::new(
        "E10",
        "register under churn: survivability of written values",
    );
    let _ = writeln!(
        e.table,
        "{:<14} {:>12} {:>12} {:>14} {:>13}",
        "churn", "fresh reads", "stale reads", "reader churned", "regular runs"
    );
    let pid = ProcessId::from_raw;
    for rate in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let mut fresh = 0u32;
        let mut stale = 0u32;
        let mut regular = 0u32;
        let runs = 20u32;
        for seed in 0..u64::from(runs) {
            let config = RegisterConfig {
                ttl: 5,
                delta: TimeDelta::TICK,
            };
            let mut builder = WorldBuilder::new(seed)
                .initial_graph(generate::torus(3, 3))
                .delay(DelayModel::Fixed(TimeDelta::TICK))
                .spawn(move |_| Box::new(RegisterActor::new(config)));
            if rate > 0.0 {
                let spec = ChurnSpec::rate(rate, TimeDelta::ticks(10)).expect("valid");
                builder = builder.driver(BalancedChurn::new(spec).with_protected(pid(0)));
            }
            let mut w: World<RegMsg> = builder.build();
            w.inject(Time::from_ticks(1), pid(0), RegMsg::Write { value: 1 });
            w.inject(Time::from_ticks(60), pid(0), RegMsg::Write { value: 2 });
            // The writer departs: from here the value lives only in the
            // crowd and must survive by state transfer alone.
            w.inject(Time::from_ticks(100), pid(0), RegMsg::Depart);
            w.run_until(Time::from_ticks(300));
            let member = *w
                .members()
                .iter()
                .find(|&&m| m != pid(0))
                .expect("membership is balanced");
            w.inject(Time::from_ticks(301), member, RegMsg::Read);
            w.run_until(Time::from_ticks(400));
            match w
                .actor::<RegisterActor>(member)
                .expect("retained even if departed")
                .log()
                .last()
                .map(|o| o.response)
            {
                Some(RegResp::Value(Some(2))) => fresh += 1,
                Some(_) => stale += 1,
                None => {} // the reader churned out mid-read
            }
            let mut everyone: std::collections::BTreeSet<ProcessId> = w
                .trace()
                .presence()
                .members_at(Time::ZERO)
                .into_iter()
                .collect();
            everyone.insert(member);
            let history = history_from_world(&w, everyone);
            if check_regular_single_writer(&history).unwrap_or(false) {
                regular += 1;
            }
            e.extra_runs += 1;
            e.extra_metrics.merge(w.metrics());
        }
        let _ = writeln!(
            e.table,
            "{:<14} {:>11.0}% {:>11.0}% {:>13.0}% {:>12.0}%",
            format!("{:.0}%/10t", rate * 100.0),
            f64::from(fresh) / f64::from(runs) * 100.0,
            f64::from(stale) / f64::from(runs) * 100.0,
            f64::from(runs - fresh - stale) / f64::from(runs) * 100.0,
            f64::from(regular) / f64::from(runs) * 100.0,
        );
    }
    let _ = writeln!(
        e.table,
        "(the writer departs at t=100; a read 200 ticks later: state transfer keeps \
the value alive in the crowd under bounded churn; past the frontier, holders \
churn out faster than joiners can sync and the latest value is lost)"
    );
    e
}

/// S1 — quorum storage under churn: operation liveness, reconfiguration
/// activity and atomicity of the `dds-store` service across the
/// sustainable-churn frontier (Spiegelman & Keidar's liveness bound).
pub fn s1_store() -> Experiment {
    use dds_core::churn::ChurnSpec;
    use dds_core::spec::register::check_atomic;
    use dds_store::StoreScenario;

    let mut e = Experiment::new(
        "S1",
        "quorum storage under churn: liveness and atomicity at the frontier",
    );
    let _ = writeln!(
        e.table,
        "{:<12} {:>6} {:>10} {:>9} {:>8} {:>8} {:>9} {:>12}",
        "churn", "bound", "completed", "aborted", "epochs", "p99(t)", "quorum", "atomic runs"
    );
    let runs = SEEDS;
    for rate in [0.0, 0.04, 0.1, 0.3, 0.8] {
        let mut completed = 0u64;
        let mut aborted = 0u64;
        let mut epochs = 0u64;
        let mut atomic = 0u64;
        let mut latency = Histogram::new();
        let mut quorum = Histogram::new();
        let mut above = false;
        for seed in 0..runs {
            let mut s = StoreScenario::new(generate::complete(12), seed);
            s.deadline = Time::from_ticks(900);
            s.ops_per_client = 10;
            if rate > 0.0 {
                s.churn = ChurnSpec::rate(rate, TimeDelta::ticks(40)).expect("valid");
            }
            above = s.above_bound();
            let mut world = s.build();
            world.run_until(s.deadline);
            let report = s.report(&world);
            completed += report.completed;
            aborted += report.aborted;
            epochs = epochs.max(report.max_epoch);
            latency.merge(&report.latency);
            quorum.merge(&report.quorum);
            if check_atomic(&report.history).is_ok_and(|l| l.is_linearizable()) {
                atomic += 1;
            }
            e.extra_runs += 1;
            e.extra_metrics.merge(world.metrics());
        }
        e.latency.merge(&latency);
        let _ = writeln!(
            e.table,
            "{:<12} {:>6} {:>10} {:>9} {:>8} {:>8} {:>9} {:>11.0}%",
            format!("{:.0}%/40t", rate * 100.0),
            if above { "above" } else { "below" },
            completed,
            aborted,
            epochs,
            latency.percentile(99.0),
            quorum.percentile(50.0),
            atomic as f64 / runs as f64 * 100.0,
        );
    }
    let _ = writeln!(
        e.table,
        "(timed quorums over {} seeds/rate: below the bound every run stays atomic, but \
aborts climb well before the bound — it predicts atomicity, not completion; above \
it the engine sheds load explicitly — operations abort after bounded fenced \
retries instead of hanging)",
        runs
    );
    e
}

/// CHECK1 — model-checking throughput: the snapshot-forking explorer
/// against the replay-DFS on the flood exhaustive sweep, at
/// matched budgets (both engines fully exhaust the same bounded space).
///
/// `extra_runs` counts the *states explored* by the fork engine. The
/// printed table keeps only deterministic counters (byte-identical across
/// reruns and thread counts); wall-clock figures and the fork-over-replay
/// speedup go to stderr.
pub fn check1_explore() -> Experiment {
    use dds_check::mutants::flood_exhaustive_large;
    use dds_check::{explore_fork, explore_replay, Budget};
    use std::time::Instant;

    let mut e = Experiment::new(
        "CHECK1",
        "model checking: snapshot-fork vs replay DFS on the flood exhaustive sweep",
    );
    // Wide enough that *both* engines exhaust the bounded space (replay
    // needs ~51k runs, fork ~15k thanks to dedup pruning), so the timed
    // passes compare completing the identical checking task rather than
    // burning the same run count on different frontiers.
    let budget = Budget {
        max_runs: 100_000,
        max_depth: 48,
        max_preemptions: 2,
    };
    let build = flood_exhaustive_large();

    // One timed exhaustive pass per engine for the speedup comparison.
    let t0 = Instant::now();
    let replayed = explore_replay(build().as_mut(), budget);
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let forked = explore_fork(build().as_mut(), budget).expect("flood target supports sessions");
    let fork_ms = t0.elapsed().as_secs_f64() * 1e3;

    let _ = writeln!(
        e.table,
        "{:<8} {:>6} {:>8} {:>8} {:>8} {:>10}",
        "engine", "runs", "states", "dedup", "forks", "exhausted"
    );
    for (name, out) in [("replay", &replayed), ("fork", &forked)] {
        let _ = writeln!(
            e.table,
            "{:<8} {:>6} {:>8} {:>8} {:>8} {:>10}",
            name, out.runs, out.states_explored, out.dedup_hits, out.forks, out.exhausted
        );
    }
    let _ = writeln!(
        e.table,
        "(identical bounded space, both exhausted: forking skips the whole-run replays \
and prunes fingerprint-identical subtrees; the speedup is on stderr)"
    );
    eprintln!(
        "CHECK1: replay {replay_ms:.1} ms, fork {fork_ms:.1} ms ({:.1}x at matched budgets)",
        replay_ms / fork_ms.max(1e-9)
    );
    e.extra_runs += forked.states_explored as u64;
    e
}

/// OBS1 — observability overhead: the identical workload with no sink,
/// with the full [`dds_obs::ObserverSink`] (run report and log), and with
/// the [`dds_obs::CausalLog`] alone, whose DAG gives the depth column.
///
/// The sink-less pass runs the hot path the `noop_alloc` test protects.
/// The printed table keeps only deterministic counters (events observed,
/// DAG shape); the measured sink-on/sink-off ratio goes to stderr, and
/// the benchmark's `obs.sink.events_per_s_ratio` probe is the timed view.
pub fn obs1_overhead() -> Experiment {
    use dds_obs::{CausalLog, ObserverSink};
    use dds_protocols::stab::{ProbeMsg, ViewActor};
    use dds_sim::world::{World, WorldBuilder};
    use std::time::Instant;

    let mut e = Experiment::new(
        "OBS1",
        "observability: sink overhead on the dispatch hot path",
    );
    const RUNS: u64 = 40;
    let deadline = Time::from_ticks(400);
    let build = |seed: u64| -> World<ProbeMsg> {
        WorldBuilder::new(seed)
            .initial_graph(generate::ring(16))
            .spawn(|_| Box::new(ViewActor::new(TimeDelta::ticks(2), TimeDelta::ticks(7))))
            .build()
    };
    let _ = writeln!(
        e.table,
        "{:<10} {:>8} {:>10} {:>12} {:>10}",
        "sink", "runs", "sends", "observed", "dag depth"
    );
    let mut wall = Vec::new();
    for variant in ["none", "observer", "causal"] {
        let start = Instant::now();
        let mut sends = 0u64;
        let mut observed = 0u64;
        let mut dag_depth = 0usize;
        for seed in 0..RUNS {
            let mut world = build(seed);
            match variant {
                "observer" => world.set_sink(ObserverSink::default()),
                "causal" => world.set_sink(CausalLog::default()),
                _ => {}
            }
            world.run_until(deadline);
            sends += world.metrics().sends;
            if let Some(sink) = world.take_sink() {
                match sink.into_any().downcast::<CausalLog>() {
                    Ok(log) => {
                        observed += log.len() as u64;
                        dag_depth = dag_depth.max(log.dag().depth());
                    }
                    Err(sink) => {
                        if let Ok(obs) = sink.downcast::<ObserverSink>() {
                            observed += obs.report.events;
                        }
                    }
                }
            }
            e.extra_runs += 1;
            e.extra_metrics.merge(world.metrics());
        }
        wall.push((variant, start.elapsed().as_secs_f64()));
        let _ = writeln!(
            e.table,
            "{:<10} {:>8} {:>10} {:>12} {:>10}",
            variant, RUNS, sends, observed, dag_depth
        );
    }
    let _ = writeln!(
        e.table,
        "(same seeds, same kernel events in all three passes: sinks observe the run \
without perturbing it; the overhead ratios are on stderr)"
    );
    if let [(_, none), (_, obs), (_, causal)] = wall[..] {
        eprintln!(
            "OBS1: no sink {:.1} ms, observer {:.1} ms ({:.2}x), causal {:.1} ms ({:.2}x)",
            none * 1e3,
            obs * 1e3,
            obs / none.max(1e-9),
            causal * 1e3,
            causal / none.max(1e-9)
        );
    }
    e
}

/// SCD1 — SCD-broadcast under churn: convergence of the derived counter,
/// delivered-set sizes and self-delivery latency across the
/// sustainable-churn frontier, then the C1–C7 landscape replayed for
/// set-constrained delivery.
///
/// Two increments originate at *mortal* processes on purpose: with every
/// op at the protected initiator the counter survives any churn rate
/// (all surviving state descends from the immortal process via state
/// transfer), which would hide the frontier entirely.
pub fn scd1_broadcast() -> Experiment {
    use dds_obs::ObserverSink;
    use dds_protocols::scd::{ScdCall, ScdConfig, ScdScenario};

    let mut e = Experiment::new(
        "SCD1",
        "SCD-broadcast: derived objects under churn and across the landscape",
    );
    let _ = writeln!(
        e.table,
        "{:<12} {:>6} {:>10} {:>8} {:>9} {:>10} {:>8} {:>8} {:>8}",
        "churn",
        "bound",
        "completed",
        "aborted",
        "stranded",
        "converged",
        "set p50",
        "set p99",
        "lat p99"
    );
    let runs = 10u64;
    let config = ScdConfig::new(4, TimeDelta::TICK, TimeDelta::ticks(4));
    for (rate, window) in [(0.0, 10), (0.05, 10), (0.15, 10), (0.4, 10), (0.8, 5)] {
        let mut completed = 0usize;
        let mut aborted = 0usize;
        let mut stranded = 0usize;
        let mut converged = 0u32;
        let mut sets = Histogram::new();
        let mut lats = Histogram::new();
        let mut above = false;
        for seed in 0..runs {
            let mut s = ScdScenario::new(generate::torus(3, 3), config)
                .op(1, 0, ScdCall::CtrAdd(1))
                .op(2, 1, ScdCall::CtrAdd(1))
                .op(3, 4, ScdCall::CtrAdd(1))
                .op(15, 8, ScdCall::CtrAdd(1))
                .op(30, 0, ScdCall::CtrRead);
            s.seed = seed;
            s.deadline = Time::from_ticks(60);
            if rate > 0.0 {
                s.driver = DriverSpec::Balanced {
                    rate,
                    window,
                    crash_fraction: 0.5,
                };
            }
            above = s.above_bound();
            let mut world = s.build();
            world.set_sink(ObserverSink::default());
            world.run_until(s.deadline);
            let report = s.report(&world);
            completed += report.completed;
            aborted += report.aborted;
            stranded += report.stranded;
            if report.converged {
                converged += 1;
            }
            for &size in &report.set_sizes {
                sets.record(size);
            }
            for &lat in &report.latencies {
                lats.record(lat);
            }
            if let Some(sink) = world
                .take_sink()
                .and_then(|s| s.into_any().downcast::<ObserverSink>().ok())
            {
                let critical = sink.causal.critical_path();
                e.observe(&sink.report, &critical);
            }
            e.extra_runs += 1;
            e.extra_metrics.merge(world.metrics());
        }
        let _ = writeln!(
            e.table,
            "{:<12} {:>6} {:>10} {:>8} {:>9} {:>9.0}% {:>8} {:>8} {:>8}",
            format!("{:.0}%/{window}t", rate * 100.0),
            if above { "above" } else { "below" },
            completed,
            aborted,
            stranded,
            f64::from(converged) / runs as f64 * 100.0,
            sets.percentile(50.0),
            sets.percentile(99.0),
            lats.percentile(99.0),
        );
    }
    let _ = writeln!(
        e.table,
        "(below the bound every run converges and concurrent increments arrive in \
multi-message sets; above it joiners strand unsynced and increments at mortal \
processes are lost — loudly, never by hanging)\n"
    );
    let _ = writeln!(
        e.table,
        "{:<4} {:>10} {:>9}  class",
        "cell", "sustained", "stranded"
    );
    for (name, class) in SystemClass::named_landscape() {
        let (sustained_col, stranded_col) = match scd_landscape_probe(name) {
            Some(base) => {
                let cells = 6u64;
                let mut sustained = 0u32;
                let mut stranded = 0usize;
                for seed in 0..cells {
                    let mut s = base.clone();
                    s.seed = seed;
                    let mut world = s.build();
                    world.run_until(s.deadline);
                    let report = s.report(&world);
                    stranded += report.stranded;
                    if report.violation.is_none() && report.converged && report.unresolved == 0 {
                        sustained += 1;
                    }
                    e.extra_runs += 1;
                    e.extra_metrics.merge(world.metrics());
                }
                (
                    format!("{:.0}%", f64::from(sustained) / cells as f64 * 100.0),
                    stranded.to_string(),
                )
            }
            None => ("-".into(), "-".into()),
        };
        let _ = writeln!(
            e.table,
            "{:<4} {:>10} {:>9}  {}",
            name, sustained_col, stranded_col, class
        );
    }
    let _ = writeln!(
        e.table,
        "(a cell sustains SCD-broadcast when the run satisfies the set-order oracle, \
the synced members converge, and no invocation hangs; the same cells that \
defeat the one-time query defeat set-constrained delivery)"
    );
    e
}

/// The SCD-broadcast analogue of [`landscape_probe`]: the same C1–C7
/// adversaries at a smaller scale, scripting two concurrent increments
/// and a read so every cell exercises delivery, agreement and abort
/// paths.
pub fn scd_landscape_probe(name: &str) -> Option<dds_protocols::scd::ScdScenario> {
    use dds_protocols::scd::{ScdCall, ScdConfig, ScdScenario};

    let config = ScdConfig::new(4, TimeDelta::TICK, TimeDelta::ticks(4));
    let mut s = ScdScenario::new(generate::torus(3, 3), config);
    s.deadline = Time::from_ticks(80);
    match name {
        "C1" => {}
        "C2" => {
            s.driver = DriverSpec::Growth {
                per_window: 0.1,
                window: 2,
                cap: 64,
            };
        }
        "C3" => {
            s.driver = DriverSpec::Balanced {
                rate: 0.05,
                window: 10,
                crash_fraction: 0.2,
            };
        }
        "C4" => {
            // The path keeps stretching, so the flood needs the larger TTL
            // just to cover the initial diameter; the stretch then outruns
            // any fixed bound.
            s = ScdScenario::new(
                generate::path(6),
                ScdConfig::new(6, TimeDelta::TICK, TimeDelta::ticks(4)),
            );
            s.driver = DriverSpec::PathStretch { window: 1 };
            s.deadline = Time::from_ticks(120);
        }
        "C5" => {
            s.driver = DriverSpec::Growth {
                per_window: 0.2,
                window: 4,
                cap: 600,
            };
        }
        "C6" => {
            // Delays routinely exceed the delta the cutoff lag was computed
            // from: sets flush before slow messages land.
            s.delay = DelayModel::Exponential { mean_ticks: 15.0 };
            s.driver = DriverSpec::Balanced {
                rate: 0.05,
                window: 10,
                crash_fraction: 0.2,
            };
        }
        "C7" => {
            s.driver = DriverSpec::Partition {
                cut_at: 1,
                heal_at: None,
            };
        }
        _ => return None,
    }
    Some(
        s.op(1, 0, ScdCall::CtrAdd(1))
            .op(1, 2, ScdCall::CtrAdd(1))
            .op(30, 0, ScdCall::CtrRead),
    )
}

/// STAB1 — self-stabilization: ticks back to a closed legal configuration
/// after a transient corruption burst, for the Dijkstra K-state token
/// ring (burst size, queue scrambling, edge cuts) and the purge-based
/// membership view (burst size × balanced churn), with the non-stabilizing
/// mutant twins as controls.
///
/// Each cell folds into a [`SweepRow`] whose `p50_stabilization` /
/// `p99_stabilization` columns carry the recovery-time percentiles; the
/// pooled histogram feeds the same columns of the experiment's
/// `BENCH_sweeps.json` line. "stab." is the fraction of seeds that
/// reached a legal suffix holding through the horizon — the closure half
/// of self-stabilization, not just a transient visit to legality.
pub fn stab1_selfstab() -> Experiment {
    use dds_protocols::stab::{StabProtocol, StabScenario};
    use dds_sim::corrupt::Burst;

    let mut e = Experiment::new(
        "STAB1",
        "self-stabilization: ticks-to-legal after transient corruption",
    );
    let _ = writeln!(
        e.table,
        "{:<26} {:>7} {:>7} {:>8} {:>8} {:>12}",
        "protocol / burst", "churn", "stab.", "p50(t)", "p99(t)", "corruptions"
    );

    // One table line: `SEEDS` runs of `scenario`, folded into a SweepRow
    // (stabilized runs count as valid *and* terminated) and pooled into
    // the experiment histogram.
    let cell = |e: &mut Experiment, name: &str, scenario: StabScenario| {
        let mut hist = Histogram::new();
        let mut stabilized = 0u32;
        let mut corruptions = 0u64;
        let mut metrics = Metrics::default();
        for seed in 0..SEEDS {
            let mut s = scenario;
            s.seed = seed;
            let out = s.run();
            if let Some(t) = out.ticks_to_legal {
                stabilized += 1;
                hist.record(t);
            }
            corruptions += out.metrics.corruptions;
            metrics.merge(&out.metrics);
        }
        e.stabilization.merge(&hist);
        let row = SweepRow {
            runs: SEEDS as u32,
            interval_valid: stabilized,
            terminated: stabilized,
            p50_stabilization: hist.percentile(50.0),
            p99_stabilization: hist.percentile(99.0),
            metrics,
            ..SweepRow::default()
        };
        e.rows.insert(name.to_string(), row);
        let churn = if scenario.churn_rate > 0.0 {
            format!("{:.0}%", scenario.churn_rate * 100.0)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            e.table,
            "{:<26} {:>7} {:>6.0}% {:>8} {:>8} {:>12}",
            name,
            churn,
            row.validity_rate() * 100.0,
            row.p50_stabilization,
            row.p99_stabilization,
            corruptions
        );
    };

    // Token ring: recovery time vs damage. K = n + 1 ≥ n, so every burst
    // is survivable; scrambled payloads clamp back into 0..K at receipt
    // and cut ring edges heal one tick later.
    for b in [1usize, 2, 3] {
        let mut s = StabScenario::new(StabProtocol::TokenRing, 6, 0);
        s.burst = Burst::actors(b);
        cell(&mut e, &format!("token b={b}"), s);
    }
    let mut s = StabScenario::new(StabProtocol::TokenRing, 6, 0);
    s.burst = Burst::actors(2).with_scramble().with_edge_cuts(1);
    cell(&mut e, "token b=2+scramble+cut", s);
    let mut s = StabScenario::new(StabProtocol::TokenRing, 6, 0);
    s.burst = Burst::actors(2);
    s.mutant = true;
    cell(&mut e, "token MUTANT (skew)", s);

    // Membership views: phantom injection under growing churn. The kernel
    // keeps views synced through joins and leaves, so churn stresses but
    // never breaks legality — only the corruption does.
    for rate in [0.0, 0.05, 0.15] {
        let mut s = StabScenario::new(StabProtocol::View, 6, 0);
        s.burst = Burst::actors(2);
        s.churn_rate = rate;
        cell(&mut e, &format!("view b=2 churn={:.0}%", rate * 100.0), s);
    }
    let mut s = StabScenario::new(StabProtocol::View, 6, 0);
    s.burst = Burst::actors(2);
    s.mutant = true;
    cell(&mut e, "view MUTANT (no purge)", s);

    let _ = writeln!(
        e.table,
        "(ticks from the burst to the start of the legal suffix that holds through \
the horizon; the mutants never stabilize — 0% — which is exactly what the \
`run_check` convergence targets assert schedule-exhaustively)"
    );
    e
}

/// A lazy experiment constructor.
pub type ExperimentFn = fn() -> Experiment;

/// The experiment registry: ids mapped to their (lazy) constructors.
pub fn registry() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("e1", e1_static as ExperimentFn),
        ("e2", e2_churn),
        ("e3", e3_geo),
        ("e4", e4_crossover),
        ("e5", e5_adversary),
        ("e6", e6_registers),
        ("e7", e7_consensus),
        ("e8", e8_landscape),
        ("e9", e9_monitoring),
        ("e10", e10_register),
        ("a1", a1_multitree),
        ("a2", a2_timeouts),
        ("a3", a3_partition),
        ("a4", a4_membership),
        ("s1", s1_store),
        ("scd1", scd1_broadcast),
        ("check1", check1_explore),
        ("obs1", obs1_overhead),
        ("stab1", stab1_selfstab),
    ]
}

/// The line `run_experiments` prints after the last table.
pub const TABLES_FOOTER: &str = "(seeds fixed; rerunning reproduces these tables bit-for-bit)\n";

/// `BENCH_sweeps.json` for `experiments`: one [`Experiment::ledger_line`]
/// per line, in the order given.
pub fn ledger(experiments: &[Experiment]) -> String {
    let lines: Vec<String> = experiments.iter().map(Experiment::ledger_line).collect();
    format!(
        "{{\n  \"experiments\": [\n    {}\n  ]\n}}\n",
        lines.join(",\n    ")
    )
}
