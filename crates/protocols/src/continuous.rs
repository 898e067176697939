//! Continuous aggregation: repeated one-time queries over one evolving
//! system.
//!
//! The paper's canonical problem is deliberately *one-shot*; the natural
//! extension it points at is monitoring — issue the query again and again
//! while the system churns, and ask how validity behaves *over time*. This
//! harness runs one world, injects a wave query every `period`, and judges
//! each generation independently against the presence information of the
//! single shared trace.
//!
//! The headline observation (pinned by the tests): under bounded churn in a
//! solvable class, per-query validity is stationary — each query stands on
//! its own, because the wave rebuilds its tree from the *current* overlay
//! every time. There is no accumulating damage; dynamicity hurts per query,
//! not cumulatively.

use std::collections::BTreeSet;
use std::fmt;

use dds_core::process::ProcessId;
use dds_core::spec::one_time_query::{check_outcome, QueryOutcome, ValidityReport};
use dds_core::time::{Interval, Time, TimeDelta};
use dds_sim::metrics::Metrics;
use dds_sim::world::World;

use crate::harness::{ProtocolKind, QueryScenario};
use crate::wave::{WaveActor, WaveConfig, WaveMsg};

/// A repeated-query experiment over one evolving system.
#[derive(Debug, Clone)]
pub struct ContinuousScenario {
    /// The base scenario: graph, churn, delays, aggregate — its `protocol`
    /// must be [`ProtocolKind::FloodEcho`] (the only variant meant to be
    /// re-issued), and its `start`/`deadline` bound the whole run.
    pub base: QueryScenario,
    /// Interval between query issues.
    pub period: TimeDelta,
    /// Number of queries to issue.
    pub queries: u32,
}

impl ContinuousScenario {
    /// Creates a repeated-query scenario.
    ///
    /// # Panics
    ///
    /// Panics unless the base protocol is [`ProtocolKind::FloodEcho`] or
    /// the period is zero.
    pub fn new(base: QueryScenario, period: TimeDelta, queries: u32) -> Self {
        assert!(
            matches!(base.protocol, ProtocolKind::FloodEcho { .. }),
            "continuous queries re-issue the flood-echo wave"
        );
        assert!(!period.is_zero(), "period must be positive");
        ContinuousScenario {
            base,
            period,
            queries,
        }
    }

    /// Runs the scenario: one world, `queries` generations.
    pub fn run(&self) -> ContinuousRun {
        let ProtocolKind::FloodEcho { ttl } = self.base.protocol else {
            unreachable!("checked in the constructor")
        };
        let delta = self.base.delay.bound().unwrap_or(TimeDelta::ticks(4));
        let config = WaveConfig::flood_echo(self.base.aggregate, delta);
        let mut world: World<WaveMsg> = self
            .base
            .scenario_builder()
            .spawn(move |_| Box::new(WaveActor::new(config)))
            .build();
        let initiator = self.base.initiator();
        let mut issue_times = Vec::with_capacity(self.queries as usize);
        let mut at = self.base.start;
        for _ in 0..self.queries {
            world.inject(at, initiator, WaveMsg::Start { ttl });
            issue_times.push(at);
            at += self.period;
        }
        let deadline = at + self.period.saturating_mul(4);
        world.run_until(deadline);

        let actor = world
            .actor::<WaveActor>(initiator)
            .expect("the initiator is churn-protected");
        let results = actor.results().to_vec();
        let presence = world.trace().presence();

        let mut per_query = Vec::with_capacity(self.queries as usize);
        for (i, &issued) in issue_times.iter().enumerate() {
            let outcome = match results.get(i) {
                Some(r) => {
                    let end = r.finished_at.max(issued) + TimeDelta::TICK;
                    let contributors: BTreeSet<ProcessId> = r.contributions.keys().collect();
                    QueryOutcome::answered(
                        initiator,
                        Interval::new(issued, end),
                        self.base.aggregate,
                        contributors,
                        r.value,
                    )
                }
                None => QueryOutcome::timed_out(
                    initiator,
                    Interval::new(issued, deadline),
                    self.base.aggregate,
                ),
            };
            let report = check_outcome(&outcome, &presence);
            per_query.push(GenerationRun {
                issued,
                outcome,
                report,
            });
        }
        ContinuousRun {
            per_query,
            metrics: *world.metrics(),
        }
    }
}

/// One generation's judged outcome.
#[derive(Debug, Clone)]
pub struct GenerationRun {
    /// When the query was issued.
    pub issued: Time,
    /// What the protocol answered.
    pub outcome: QueryOutcome,
    /// The specification verdict.
    pub report: ValidityReport,
}

/// The full monitoring run.
#[derive(Debug, Clone)]
pub struct ContinuousRun {
    /// Per-generation results, in issue order.
    pub per_query: Vec<GenerationRun>,
    /// Kernel counters over the whole run.
    pub metrics: Metrics,
}

impl ContinuousRun {
    /// Fraction of generations that were interval-valid.
    pub fn validity_rate(&self) -> f64 {
        if self.per_query.is_empty() {
            return 0.0;
        }
        let ok = self
            .per_query
            .iter()
            .filter(|g| g.report.level.is_interval_valid())
            .count();
        ok as f64 / self.per_query.len() as f64
    }

    /// Fraction of generations that terminated.
    pub fn termination_rate(&self) -> f64 {
        if self.per_query.is_empty() {
            return 0.0;
        }
        let ok = self
            .per_query
            .iter()
            .filter(|g| !g.outcome.timed_out)
            .count();
        ok as f64 / self.per_query.len() as f64
    }

    /// Validity rate over the first and second halves of the run — equal
    /// halves mean no accumulating damage (the stationarity claim).
    pub fn half_rates(&self) -> (f64, f64) {
        let mid = self.per_query.len() / 2;
        let rate = |slice: &[GenerationRun]| {
            if slice.is_empty() {
                return 0.0;
            }
            slice
                .iter()
                .filter(|g| g.report.level.is_interval_valid())
                .count() as f64
                / slice.len() as f64
        };
        (rate(&self.per_query[..mid]), rate(&self.per_query[mid..]))
    }
}

impl fmt::Display for ContinuousRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries: {:.0}% valid, {:.0}% terminated, {} msgs total",
            self.per_query.len(),
            self.validity_rate() * 100.0,
            self.termination_rate() * 100.0,
            self.metrics.sends
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DriverSpec;
    use dds_net::generate;

    fn base(rate: f64) -> QueryScenario {
        let mut s = QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
        if rate > 0.0 {
            s.driver = DriverSpec::Balanced {
                rate,
                window: 10,
                crash_fraction: 0.3,
            };
        }
        s.deadline = Time::from_ticks(100_000);
        s
    }

    #[test]
    fn static_monitoring_is_always_valid() {
        let run = ContinuousScenario::new(base(0.0), TimeDelta::ticks(40), 10).run();
        assert_eq!(run.per_query.len(), 10);
        assert_eq!(run.validity_rate(), 1.0, "{run}");
        assert_eq!(run.termination_rate(), 1.0);
    }

    #[test]
    fn churny_monitoring_answers_every_query() {
        let run = ContinuousScenario::new(base(0.1), TimeDelta::ticks(40), 20).run();
        assert_eq!(run.termination_rate(), 1.0, "{run}");
        assert!(run.validity_rate() >= 0.8, "{run}");
    }

    #[test]
    fn no_accumulating_damage() {
        // Stationarity: the second half of a long monitoring run is not
        // systematically worse than the first.
        let run = ContinuousScenario::new(base(0.1), TimeDelta::ticks(40), 40).run();
        let (first, second) = run.half_rates();
        assert!(
            (first - second).abs() <= 0.3,
            "validity drifted: first {first:.2} vs second {second:.2}"
        );
    }

    #[test]
    fn queries_are_judged_against_their_own_windows() {
        let run = ContinuousScenario::new(base(0.1), TimeDelta::ticks(40), 5).run();
        for w in run.per_query.windows(2) {
            assert!(w[0].issued < w[1].issued);
            assert!(w[0].outcome.window.start() < w[1].outcome.window.start());
        }
    }

    #[test]
    #[should_panic(expected = "flood-echo")]
    fn non_wave_protocols_rejected() {
        let mut s = base(0.0);
        s.protocol = ProtocolKind::Gossip { rounds: 10 };
        let _ = ContinuousScenario::new(s, TimeDelta::ticks(10), 3);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        let _ = ContinuousScenario::new(base(0.0), TimeDelta::ZERO, 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let rates = || {
            let run = ContinuousScenario::new(base(0.2), TimeDelta::ticks(30), 10).run();
            (run.validity_rate(), run.metrics.sends)
        };
        assert_eq!(rates(), rates());
    }
}
