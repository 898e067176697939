//! The model-checking workload: `check-explore`.
//!
//! A *pass* exhausts the large flood sweep with the fork engine and then
//! explores the whole mutant suite; passes repeat for the window. The
//! request whose latency is reported is one exploration: a pass holds one
//! of each of 24 kinds (the sweep and the 23 subjects), and the median
//! kind's time and the slowest kind's are taken per pass. The work done
//! is the fork-engine states explored. Exploration is deterministic, so every
//! pass must reproduce the counters pinned in `pins/check-explore.txt`
//! and every subject its expected verdict (mutants convicted, correct
//! variants clean). A mutant the bounded explorer misses gets the fuzzer
//! from a fixed seed, as the suite's own tests give it, so a conviction is
//! a property of the code: from `--seed` some ranges of fuzzer seeds miss
//! `register-responsive/mutant`, and the run would fail its check without
//! the code being wrong. The workload is exhaustive and has no random
//! input; `--seed` changes nothing in it.

use std::time::{Duration, Instant};

use crate::api::{
    explore, explore_fork, flood_exhaustive_large, fuzz, suite, Budget, Explored, Subject,
};
use crate::pins;
use crate::procfs;
use crate::report::{EndToEnd, Layers, Outcome};
use crate::stats::{median, median_setup};
use crate::trace::{allocs, Tracer};
use crate::Ctx;

/// Budget that exhausts the large flood sweep.
const FLOOD_BUDGET: Budget = Budget {
    max_runs: 100_000,
    max_depth: 48,
    max_preemptions: 2,
};
/// Fuzzer seed and attempts granted to a mutant the explorer missed: what
/// the tests of `mutants::suite()` grant.
const FUZZ_SEED: u64 = 1;
const FUZZ_ATTEMPTS: usize = 300;
/// Times the workload is set up per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The deterministic counters of one exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    name: String,
    runs: usize,
    states: usize,
    dedup: usize,
    forks: usize,
    violation: bool,
}

impl Counters {
    fn of(name: &str, e: &Explored) -> Self {
        Counters {
            name: name.to_string(),
            runs: e.runs,
            states: e.states_explored,
            dedup: e.dedup_hits,
            forks: e.forks,
            violation: e.counterexample.is_some(),
        }
    }

    fn line(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.name,
            self.runs,
            self.states,
            self.dedup,
            self.forks,
            u8::from(self.violation)
        )
    }
}

/// What one pass did.
struct Pass {
    counters: Vec<Counters>,
    /// Subjects whose verdict is not the expected one.
    wrong_verdicts: u64,
    states: u64,
    flood: Explored,
    flood_allocs: u64,
    /// Wall time of each exploration: the flood sweep, then the subjects.
    explorations_ns: Vec<u64>,
}

impl Pass {
    /// One pin line per exploration of the pass.
    fn lines(&self) -> Vec<String> {
        self.counters.iter().map(Counters::line).collect()
    }

    fn suite_ns(&self) -> u64 {
        self.explorations_ns[1..].iter().sum()
    }
}

fn one_pass(subjects: &[Subject], tr: &mut Tracer) -> Pass {
    let t = Instant::now();
    let mut target = flood_exhaustive_large()();
    let allocs0 = allocs();
    let flood = tr
        .span("explore_fork:flood", 0, || {
            explore_fork(target.as_mut(), FLOOD_BUDGET)
        })
        .expect("the flood target supports sessions");
    let flood_allocs = allocs() - allocs0;
    let mut explorations_ns = vec![t.elapsed().as_nanos() as u64];
    let mut counters = vec![Counters::of(target.name(), &flood)];
    let mut wrong_verdicts = u64::from(flood.counterexample.is_some() || !flood.exhausted);
    let mut states = flood.states_explored as u64;
    for (i, subject) in subjects.iter().enumerate() {
        let t = Instant::now();
        let mut target = (subject.build)();
        let explored = tr.span("explore:subject", i as u64 + 1, || {
            explore(target.as_mut(), Budget::default())
        });
        let mut found = explored.counterexample.is_some();
        if subject.expect_violation && !found {
            // The deep random pass `run_check` grants an escaped mutant.
            let depth = 2 * Budget::default().max_depth;
            found = tr
                .span("fuzz:subject", i as u64 + 1, || {
                    fuzz(target.as_mut(), FUZZ_SEED, FUZZ_ATTEMPTS, depth)
                })
                .counterexample
                .is_some();
        }
        wrong_verdicts += u64::from(found != subject.expect_violation);
        states += explored.states_explored as u64;
        counters.push(Counters::of(target.name(), &explored));
        explorations_ns.push(t.elapsed().as_nanos() as u64);
    }
    Pass {
        counters,
        wrong_verdicts,
        states,
        flood,
        flood_allocs,
        explorations_ns,
    }
}

/// What one half of the window (untraced or traced) saw.
#[derive(Default)]
struct Half {
    passes_ns: Vec<f64>,
    /// Per pass, the median and the slowest of its 24 exploration times.
    /// Pooling all explorations would not do: each kind is deterministic
    /// work, so a pooled percentile sits on the border between two kinds
    /// and flips from one to the other with the noise of the run.
    median_exploration_ns: Vec<f64>,
    slowest_exploration_ns: Vec<f64>,
    suites_ms: Vec<f64>,
    states: u64,
    wall: Duration,
    cpu_us: f64,
    wrong: u64,
    unpinned: u64,
    subjects: u64,
    last: Option<Pass>,
}

fn measure(dur: Duration, subjects: &[Subject], pins: &[String], tr: &mut Tracer) -> Half {
    let mut h = Half::default();
    let cpu0 = procfs::self_cpu_us();
    let t0 = Instant::now();
    let mut last = t0;
    while last - t0 < dur {
        let pass = one_pass(subjects, tr);
        let now = Instant::now();
        h.passes_ns.push((now - last).as_nanos() as f64);
        let mut times: Vec<f64> = pass.explorations_ns.iter().map(|&ns| ns as f64).collect();
        h.median_exploration_ns.push(median(&mut times));
        h.slowest_exploration_ns.push(times[times.len() - 1]);
        h.suites_ms.push(pass.suite_ns() as f64 / 1e6);
        h.states += pass.states;
        h.wrong += pass.wrong_verdicts;
        h.unpinned += pins::differing(pins, &pass.lines());
        h.subjects += pass.counters.len() as u64;
        h.last = Some(pass);
        last = now;
    }
    h.wall = last - t0;
    h.cpu_us = procfs::self_cpu_us() - cpu0;
    h
}

/// `check-explore`.
pub fn run_explore(ctx: &mut Ctx) -> Result<Outcome, String> {
    let pins = pins::read("check-explore")?;
    // Set-up: build the suite and run one pass (the warm-up).
    let (subjects, setup_s) = median_setup(SETUP_REPS, || {
        let subjects = suite();
        one_pass(&subjects, &mut Tracer::new(false));
        subjects
    });

    let half = ctx.window / if ctx.trace { 2 } else { 1 };
    let tr = &mut ctx.tracer;
    let mut plain = measure(half, &subjects, &pins, tr);
    let mut traced = Half::default();
    if ctx.trace {
        tr.on = true;
        traced = measure(half, &subjects, &pins, tr);
        tr.on = false;
    }

    // Every pass explores the same states, so the median pass sets the rate.
    let passes = plain.passes_ns.len();
    let pass_ns = median(&mut plain.passes_ns);
    let rate = plain.states as f64 / passes as f64 / (pass_ns / 1e9);
    let mut layers = Layers::default();
    if let Some(pass) = &traced.last {
        let f = &pass.flood;
        layers.set("check.suite_ms", median(&mut traced.suites_ms));
        layers.set(
            "check.explore.dedup_ratio",
            f.dedup_hits as f64 / f.runs.max(1) as f64,
        );
        layers.set(
            "check.explore.forks_per_state",
            f.forks as f64 / f.states_explored.max(1) as f64,
        );
        layers.set("check.explore.runs", f.runs as f64);
        let slowest = pass.explorations_ns[1..].iter().max().copied();
        layers.set(
            "check.suite.max_subject_ms",
            slowest.unwrap_or(0) as f64 / 1e6,
        );
        layers.set(
            "check.allocs_per_state",
            pass.flood_allocs as f64 / f.states_explored.max(1) as f64,
        );
        let traced_ns = median(&mut traced.passes_ns);
        layers.set("trace.overhead_share", (traced_ns - pass_ns) / pass_ns);
    }
    let wrong = plain.wrong + traced.wrong;
    let unpinned = plain.unpinned + traced.unpinned;
    let mut faults = Vec::new();
    if wrong > 0 {
        faults.push(format!(
            "{wrong} explorations ended with an unexpected verdict"
        ));
    }
    if unpinned > 0 {
        let got = plain.last.as_ref().map(Pass::lines);
        faults.push(format!(
            "{unpinned} explorations differ from pins/check-explore.txt; last pass: {got:?}"
        ));
    }
    Ok(Outcome {
        e2e: EndToEnd {
            setup_s,
            work_per_s: rate,
            cpu_us_per_unit: plain.cpu_us / plain.states.max(1) as f64,
            p50_us: median(&mut plain.median_exploration_ns) / 1e3,
            tail_us: median(&mut plain.slowest_exploration_ns) / 1e3,
            peak_rss_mb: procfs::self_peak_rss_mb(),
        },
        layers,
        attempted: plain.subjects + traced.subjects,
        // An exploration can be wrong on both counts; count it once.
        failed: wrong.max(unpinned),
        faults,
        info: vec![format!(
            "{} states in {passes} passes over {:.3} s untraced (1 flood sweep + {} subjects each); \
             p50 = the median exploration of a pass, tail = the slowest, each the median over the passes; \
             median pass {:.1} ms, median suite {:.1} ms",
            plain.states,
            plain.wall.as_secs_f64(),
            subjects.len(),
            pass_ns / 1e6,
            median(&mut plain.suites_ms),
        )],
    })
}

/// Rewrites `pins/check-explore.txt` from the current code.
pub fn write_pins() -> Result<(), String> {
    let pass = one_pass(&suite(), &mut Tracer::new(false));
    pins::write(
        "check-explore",
        "name, runs, states, dedup hits, forks and violation of each exploration of a pass",
        &pass.lines(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_matches_the_pins_and_convicts_every_mutant() {
        let subjects = suite();
        let pass = one_pass(&subjects, &mut Tracer::new(false));
        assert_eq!(pass.wrong_verdicts, 0);
        assert_eq!(pass.counters.len(), subjects.len() + 1);
        assert_eq!(
            pins::differing(&pins::read("check-explore").unwrap(), &pass.lines()),
            0
        );
    }
}
