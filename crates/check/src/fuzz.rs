//! Randomized schedule fuzzing with seeded replay, and a delta-debugging
//! shrinker that minimizes failing decision vectors.
//!
//! The fuzzer complements the bounded explorer: where the explorer is
//! exhaustive near the default schedule, the fuzzer samples deep into the
//! space, far beyond any preemption bound. Every attempt is a pure
//! function of its seed, and a failure is reported as the *resolved*
//! decision vector (what the run actually chose), so replaying the plan —
//! on any machine, at any thread count — reproduces the failure exactly.

use dds_core::rng::Rng;

use crate::target::{Counterexample, Target};

/// Widest random decision drawn per choice point. Plans are clamped to
/// the live width at replay, so this only shapes the sampling bias.
const DECISION_RANGE: u64 = 4;

/// What a fuzzing campaign produced.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Target runs consumed (shrinking included).
    pub runs: usize,
    /// First failure found, already shrunk.
    pub counterexample: Option<Counterexample>,
    /// Seed of the failing attempt.
    pub failing_seed: Option<u64>,
}

/// Runs `attempts` random schedules derived from `base_seed`, shrinking
/// and returning the first failure.
///
/// Attempt `i` uses seed `base_seed + i`; its plan is `plan_len` decisions
/// drawn uniformly from `0..DECISION_RANGE` (clamped to the live width at
/// each choice point). On failure the resolved plan is shrunk with
/// [`shrink`] before being returned.
pub fn fuzz(
    target: &mut dyn Target,
    base_seed: u64,
    attempts: usize,
    plan_len: usize,
) -> FuzzOutcome {
    let mut runs = 0usize;
    for i in 0..attempts {
        let seed = base_seed.wrapping_add(i as u64);
        let mut rng = Rng::seeded(seed);
        let plan: Vec<usize> = (0..plan_len)
            .map(|_| rng.below(DECISION_RANGE) as usize)
            .collect();
        let report = target.run(&plan);
        runs += 1;
        if let Some(violation) = report.violation.clone() {
            let resolved = report.plan();
            let (minimal, shrink_runs) = shrink(target, &resolved, 4 * resolved.len() + 64);
            runs += shrink_runs;
            // Re-derive the violation from the minimal plan so the report
            // matches what replaying it shows.
            let final_violation = target.run(&minimal).violation.unwrap_or(violation);
            runs += 1;
            return FuzzOutcome {
                runs,
                counterexample: Some(Counterexample::new(&minimal, final_violation)),
                failing_seed: Some(seed),
            };
        }
    }
    FuzzOutcome {
        runs,
        counterexample: None,
        failing_seed: None,
    }
}

/// Delta-debugging minimization: zero out non-default decisions of a
/// failing plan while the failure persists, until 1-minimal (no single
/// remaining non-default decision can be defaulted) or the run budget is
/// spent. Returns the minimized plan and the runs consumed.
///
/// The plan must fail when passed in; the returned plan fails too.
pub fn shrink(target: &mut dyn Target, plan: &[usize], max_runs: usize) -> (Vec<usize>, usize) {
    let mut current: Vec<usize> = plan.to_vec();
    while current.last() == Some(&0) {
        current.pop();
    }
    let mut runs = 0usize;
    let mut fails = |candidate: &[usize], runs: &mut usize| -> bool {
        *runs += 1;
        target.run(candidate).violation.is_some()
    };

    // Coarse-to-fine: try zeroing runs of non-default decisions, halving
    // the chunk size until single decisions, stopping at 1-minimality.
    let mut chunk = current
        .iter()
        .filter(|&&d| d != 0)
        .count()
        .div_ceil(2)
        .max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < current.len() && runs < max_runs {
            let group: Vec<usize> = current
                .iter()
                .enumerate()
                .filter_map(|(i, &d)| (d != 0 && i >= start).then_some(i))
                .take(chunk)
                .collect();
            let Some(&last) = group.last() else { break };
            let mut candidate = current.clone();
            for &i in &group {
                candidate[i] = 0;
            }
            if fails(&candidate, &mut runs) {
                current = candidate;
                progressed = true;
            }
            start = last + 1;
        }
        if runs >= max_runs || (!progressed && chunk == 1) {
            break;
        }
        if !progressed {
            chunk /= 2;
        }
    }
    while current.last() == Some(&0) {
        current.pop();
    }
    (current, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChoicePoint;
    use crate::target::{RunReport, Violation};
    use std::path::{Path, PathBuf};

    /// Fails whenever decisions at the `trigger` positions are all
    /// non-default — a bug needing exactly those preemptions.
    struct TriggerTarget {
        widths: Vec<usize>,
        trigger: Vec<usize>,
    }

    impl Target for TriggerTarget {
        fn name(&self) -> &str {
            "trigger"
        }

        fn run(&mut self, plan: &[usize]) -> RunReport {
            let resolved: Vec<usize> = self
                .widths
                .iter()
                .enumerate()
                .map(|(k, &w)| plan.get(k).copied().unwrap_or(0).min(w - 1))
                .collect();
            let fired = self.trigger.iter().all(|&k| resolved[k] != 0);
            RunReport {
                choices: self
                    .widths
                    .iter()
                    .zip(&resolved)
                    .map(|(&width, &chosen)| ChoicePoint {
                        at: dds_core::time::Time::ZERO,
                        epoch: 0,
                        width,
                        chosen,
                        ready: Vec::new(),
                    })
                    .collect(),
                violation: fired.then(|| Violation {
                    reason: "trigger".into(),
                    details: String::new(),
                }),
            }
        }

        fn dump_counterexample(&mut self, _: &[usize], _: &Path, _: &str, _: &str) -> Vec<PathBuf> {
            Vec::new()
        }
    }

    #[test]
    fn fuzz_finds_and_shrinks_to_the_trigger() {
        let mut t = TriggerTarget {
            widths: vec![2; 24],
            trigger: vec![3, 17],
        };
        let out = fuzz(&mut t, 1, 400, 24);
        let ce = out.counterexample.expect("a random plan must hit 2 bits");
        assert!(out.failing_seed.is_some());
        // Shrunk to exactly the two triggering decisions.
        assert_eq!(ce.preemptions, 2);
        assert_eq!(ce.plan.len(), 18, "trailing defaults trimmed");
        assert_eq!(ce.plan[3], 1);
        assert_eq!(ce.plan[17], 1);
    }

    #[test]
    fn fuzz_is_deterministic_in_the_base_seed() {
        let run = || {
            let mut t = TriggerTarget {
                widths: vec![2; 16],
                trigger: vec![2, 9],
            };
            let out = fuzz(&mut t, 7, 200, 16);
            (
                out.failing_seed,
                out.counterexample.map(|c| c.plan),
                out.runs,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shrink_handles_an_always_failing_plan() {
        struct AlwaysFails;
        impl Target for AlwaysFails {
            fn name(&self) -> &str {
                "always"
            }
            fn run(&mut self, plan: &[usize]) -> RunReport {
                RunReport {
                    choices: plan
                        .iter()
                        .map(|&chosen| ChoicePoint {
                            at: dds_core::time::Time::ZERO,
                            epoch: 0,
                            width: 4,
                            chosen,
                            ready: Vec::new(),
                        })
                        .collect(),
                    violation: Some(Violation {
                        reason: "always".into(),
                        details: String::new(),
                    }),
                }
            }
            fn dump_counterexample(
                &mut self,
                _: &[usize],
                _: &Path,
                _: &str,
                _: &str,
            ) -> Vec<PathBuf> {
                Vec::new()
            }
        }
        let (minimal, _) = shrink(&mut AlwaysFails, &[3, 1, 2, 0, 1], 100);
        assert!(minimal.is_empty(), "everything defaults away");
    }
}
