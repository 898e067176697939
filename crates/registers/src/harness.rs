//! The interleaving harness: concurrent clients against a register, with
//! the schedule chosen adversarially (seeded, or by an explicit plan), and
//! the resulting history judged by the checkers of `dds-core`.
//!
//! Each client owns a sequential script of operations. At every step the
//! scheduler picks an actionable client: one with nothing open begins its
//! next operation (a step that accesses no base object), one mid-operation
//! advances it by one base access ([`SteppedRegister`]); crash events fire
//! at configured steps. Invocation and response instants are the step
//! counter, so the recorded [`RegisterHistory`] has exactly the real-time
//! order the checkers need. One loop drives every construction of the
//! crate: [`run_schedule`] and [`run_schedule_planned`] the reliable
//! registers, [`run_scripts`] the consistency ladder.

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{RegOp, RegResp, RegisterHistory};
use dds_core::time::Time;

use crate::base::ObjectState;
use crate::construction::{Construction, ReliableRegister};
use crate::machine::{Poll, SteppedRegister};

/// A crash to inject: at `step`, base register `index` fails with `state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Scheduler step at which the crash fires.
    pub step: u64,
    /// Which base register crashes.
    pub index: usize,
    /// How it crashes.
    pub state: ObjectState,
}

/// Result of one scheduled run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The recorded history (pending operations included).
    pub history: RegisterHistory,
    /// Clients that ended stuck (waiting forever).
    pub stuck_clients: Vec<ProcessId>,
    /// Scheduler steps consumed.
    pub steps: u64,
}

/// How the scheduler picks among actionable clients at each step.
enum Picker<'a> {
    /// The historical behavior: one rng draw per step, byte-identical to
    /// the pre-planned harness (the draw happens even when only one client
    /// is actionable, to keep the stream aligned).
    Seeded,
    /// An explicit decision vector: at each step where more than one
    /// client is actionable, consume the next plan entry (clamped to the
    /// actionable range; missing entries mean "pick the first"), and log
    /// the choice width. Steps with one actionable client consume nothing.
    Plan {
        plan: &'a [usize],
        cursor: usize,
        widths: Vec<usize>,
    },
}

impl Picker<'_> {
    fn pick(&mut self, actionable: &[usize], rng: &mut Rng) -> usize {
        match self {
            Picker::Seeded => *rng.choose(actionable).expect("nonempty"),
            Picker::Plan {
                plan,
                cursor,
                widths,
            } => {
                if actionable.len() == 1 {
                    return actionable[0];
                }
                let choice = plan.get(*cursor).copied().unwrap_or(0);
                *cursor += 1;
                widths.push(actionable.len());
                actionable[choice.min(actionable.len() - 1)]
            }
        }
    }
}

/// Runs `scripts` (one per client; client `i` is process `p<i>`)
/// against a fresh register of the given construction and tolerance,
/// injecting `crashes`, interleaving per `seed`.
///
/// The single-writer discipline is the caller's responsibility: exactly one
/// client's script may contain writes.
///
/// # Panics
///
/// Panics if more than one script contains writes, or if a crash event
/// indexes outside the register bank.
pub fn run_schedule(
    construction: Construction,
    t: usize,
    scripts: &[Vec<RegOp>],
    crashes: &[CrashEvent],
    seed: u64,
) -> RunOutput {
    run_reliable(construction, t, scripts, crashes, seed, &mut Picker::Seeded)
}

/// Like [`run_schedule`], but the interleaving is an explicit decision
/// vector instead of a seeded stream: `plan[k]` indexes into the actionable
/// client list at the `k`-th step where that list has more than one entry
/// (out-of-range entries are clamped, missing entries pick the first —
/// i.e. the empty plan is a legal default schedule). `seed` still drives
/// the operation machines' internal randomness.
///
/// Returns the run plus the width of each consumed choice point, which is
/// what a schedule explorer needs to enumerate sibling schedules.
pub fn run_schedule_planned(
    construction: Construction,
    t: usize,
    scripts: &[Vec<RegOp>],
    crashes: &[CrashEvent],
    seed: u64,
    plan: &[usize],
) -> (RunOutput, Vec<usize>) {
    let mut picker = Picker::Plan {
        plan,
        cursor: 0,
        widths: Vec::new(),
    };
    let out = run_reliable(construction, t, scripts, crashes, seed, &mut picker);
    let Picker::Plan { widths, .. } = picker else {
        unreachable!()
    };
    (out, widths)
}

/// Runs `scripts` (client `i` is process `p<i>`) against `reg` under the
/// seeded scheduler, with no step budget and no crashes, and returns the
/// history of high-level operations. A register born holding a value
/// ([`SteppedRegister::initial`]) opens the history with it.
pub fn run_scripts<R: SteppedRegister>(
    reg: &mut R,
    scripts: &[Vec<RegOp>],
    seed: u64,
) -> RegisterHistory {
    schedule(reg, scripts, seed, u64::MAX, &mut Picker::Seeded, |_, _| {}).history
}

fn run_reliable(
    construction: Construction,
    t: usize,
    scripts: &[Vec<RegOp>],
    crashes: &[CrashEvent],
    seed: u64,
    picker: &mut Picker<'_>,
) -> RunOutput {
    let writers = scripts
        .iter()
        .filter(|s| s.iter().any(|op| matches!(op, RegOp::Write(_))))
        .count();
    assert!(writers <= 1, "the register is single-writer");

    let mut reg = ReliableRegister::new(construction, t);
    for c in crashes {
        assert!(c.index < reg.bank_size(), "crash index out of bank");
    }
    // Generous budget: every op needs at most 3 × bank accesses.
    let budget =
        16 + 64 * scripts.iter().map(Vec::len).sum::<usize>() as u64 * reg.bank_size() as u64;
    schedule(&mut reg, scripts, seed, budget, picker, |reg, step| {
        for c in crashes {
            if c.step == step {
                reg.crash_base(c.index, c.state);
            }
        }
    })
}

/// The scheduler. Steps are numbered from 1; before choosing at step `s`
/// it runs `at_step(reg, s)`, and it stops when no client can act or past
/// step `budget`. A client ends its script, or ends stuck with its last
/// operation pending.
fn schedule<R: SteppedRegister>(
    reg: &mut R,
    scripts: &[Vec<RegOp>],
    seed: u64,
    budget: u64,
    picker: &mut Picker<'_>,
    mut at_step: impl FnMut(&mut R, u64),
) -> RunOutput {
    struct Client<'a> {
        pid: ProcessId,
        script: &'a [RegOp],
        next: usize,
        open: Option<(RegOp, Time)>,
        stuck: bool,
    }
    let mut rng = Rng::seeded(seed);
    let mut clients: Vec<Client> = scripts
        .iter()
        .enumerate()
        .map(|(i, script)| Client {
            pid: ProcessId::from_raw(i as u64),
            script,
            next: 0,
            open: None,
            stuck: false,
        })
        .collect();
    let mut history = RegisterHistory::new();
    if let Some(v) = reg.initial() {
        history.push(OpRecord {
            process: ProcessId::from_raw(0),
            op: RegOp::Write(v),
            invoked: Time::ZERO,
            responded: Some(Time::ZERO),
            response: Some(RegResp::Ack),
        });
    }
    let mut actionable: Vec<usize> = Vec::with_capacity(scripts.len());
    let mut step: u64 = 0;
    loop {
        step += 1;
        if step > budget {
            break;
        }
        at_step(reg, step);
        actionable.clear();
        actionable.extend(
            clients
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.stuck && (c.open.is_some() || c.next < c.script.len()))
                .map(|(i, _)| i),
        );
        if actionable.is_empty() {
            break;
        }
        let i = picker.pick(&actionable, &mut rng);
        let client = &mut clients[i];
        let now = Time::from_ticks(step);
        let Some((op, invoked)) = client.open else {
            let op = client.script[client.next];
            client.next += 1;
            reg.begin_op(i, op);
            client.open = Some((op, now));
            continue;
        };
        let (responded, response) = match reg.step(i, &mut rng) {
            Poll::Pending => continue,
            Poll::Done(resp) => (Some(now), Some(resp)),
            Poll::Stuck => {
                client.stuck = true;
                (None, None)
            }
        };
        history.push(OpRecord {
            process: client.pid,
            op,
            invoked,
            responded,
            response,
        });
        client.open = None;
    }

    RunOutput {
        stuck_clients: clients.iter().filter(|c| c.stuck).map(|c| c.pid).collect(),
        history,
        steps: step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::spec::register::check_atomic;

    fn writes(vals: &[u64]) -> Vec<RegOp> {
        vals.iter().map(|&v| RegOp::Write(v)).collect()
    }

    fn reads(n: usize) -> Vec<RegOp> {
        vec![RegOp::Read; n]
    }

    #[test]
    fn responsive_all_is_linearizable_across_seeds() {
        for seed in 0..50 {
            let out = run_schedule(
                Construction::ResponsiveAll { write_back: true },
                2,
                &[writes(&[1, 2, 3]), reads(3), reads(3)],
                &[],
                seed,
            );
            assert!(out.stuck_clients.is_empty());
            assert!(
                check_atomic(&out.history).unwrap().is_linearizable(),
                "seed {seed}:\n{}",
                out.history
            );
        }
    }

    #[test]
    fn responsive_all_linearizable_with_t_crashes() {
        for seed in 0..50 {
            let out = run_schedule(
                Construction::ResponsiveAll { write_back: true },
                2,
                &[writes(&[1, 2, 3]), reads(3)],
                &[
                    CrashEvent {
                        step: 5,
                        index: 0,
                        state: ObjectState::CrashedResponsive,
                    },
                    CrashEvent {
                        step: 11,
                        index: 2,
                        state: ObjectState::CrashedResponsive,
                    },
                ],
                seed,
            );
            assert!(
                out.stuck_clients.is_empty(),
                "responsive crashes never block"
            );
            assert!(
                check_atomic(&out.history).unwrap().is_linearizable(),
                "seed {seed}:\n{}",
                out.history
            );
        }
    }

    #[test]
    fn majority_with_write_back_is_linearizable() {
        for seed in 0..50 {
            let out = run_schedule(
                Construction::MajorityQuorum { write_back: true },
                1,
                &[writes(&[1, 2]), reads(3), reads(3)],
                &[CrashEvent {
                    step: 7,
                    index: 1,
                    state: ObjectState::CrashedNonresponsive,
                }],
                seed,
            );
            assert!(out.stuck_clients.is_empty());
            assert!(
                check_atomic(&out.history).unwrap().is_linearizable(),
                "seed {seed}:\n{}",
                out.history
            );
        }
    }

    #[test]
    fn too_many_nonresponsive_crashes_block_clients() {
        let out = run_schedule(
            Construction::MajorityQuorum { write_back: true },
            1,
            &[writes(&[1]), reads(1)],
            &[
                CrashEvent {
                    step: 1,
                    index: 0,
                    state: ObjectState::CrashedNonresponsive,
                },
                CrashEvent {
                    step: 1,
                    index: 1,
                    state: ObjectState::CrashedNonresponsive,
                },
            ],
            3,
        );
        assert!(!out.stuck_clients.is_empty(), "t+1 crashes must block");
        // A history with only pending ops is still (vacuously) linearizable.
        assert!(check_atomic(&out.history).unwrap().is_linearizable());
    }

    #[test]
    #[should_panic(expected = "single-writer")]
    fn two_writers_rejected() {
        run_schedule(
            Construction::ResponsiveAll { write_back: true },
            1,
            &[writes(&[1]), writes(&[2])],
            &[],
            0,
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            run_schedule(
                Construction::MajorityQuorum { write_back: true },
                1,
                &[writes(&[5, 6]), reads(2)],
                &[],
                seed,
            )
            .history
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn planned_runs_replay_deterministically() {
        let run = |plan: &[usize]| {
            run_schedule_planned(
                Construction::MajorityQuorum { write_back: true },
                1,
                &[writes(&[5, 6]), reads(2), reads(2)],
                &[],
                9,
                plan,
            )
        };
        let (a, wa) = run(&[]);
        let (b, wb) = run(&[]);
        assert_eq!(a.history, b.history, "same plan, same history");
        assert_eq!(wa, wb);
        assert!(
            wa.iter().all(|&w| w >= 2),
            "widths are only logged at real choice points"
        );
        // A different plan is a different interleaving of the same scripts.
        let deviant: Vec<usize> = wa.iter().map(|&w| w - 1).collect();
        let (c, wc) = run(&deviant);
        assert_eq!(
            c.history.records().len(),
            a.history.records().len(),
            "every op still completes"
        );
        assert!(!wc.is_empty());
    }

    #[test]
    fn planned_out_of_range_choices_are_clamped() {
        let (out, widths) = run_schedule_planned(
            Construction::ResponsiveAll { write_back: true },
            1,
            &[writes(&[1]), reads(1)],
            &[],
            0,
            &[usize::MAX, usize::MAX, usize::MAX],
        );
        assert!(out.stuck_clients.is_empty());
        assert!(!widths.is_empty());
        assert!(check_atomic(&out.history).unwrap().is_linearizable());
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use dds_core::spec::register::{check_atomic, check_regular_single_writer};

    /// Searches seeds for a new/old inversion. Returns the first seed whose
    /// history is NOT atomic (and, when single-writer-checkable, regular).
    fn find_inversion(
        construction: Construction,
        t: usize,
        crashes: &[CrashEvent],
        seeds: std::ops::Range<u64>,
    ) -> Option<u64> {
        for seed in seeds {
            let out = run_schedule(
                construction,
                t,
                &[
                    vec![RegOp::Write(1), RegOp::Write(2), RegOp::Write(3)],
                    vec![RegOp::Read; 3],
                    vec![RegOp::Read; 3],
                ],
                crashes,
                seed,
            );
            if !check_atomic(&out.history).unwrap().is_linearizable() {
                // Inversions are regularity-preserving: the stale value is
                // always a concurrent or preceding write.
                assert!(
                    check_regular_single_writer(&out.history).unwrap(),
                    "seed {seed}: non-regular history:\n{}",
                    out.history
                );
                return Some(seed);
            }
        }
        None
    }

    #[test]
    fn responsive_without_write_back_shows_inversion() {
        let seed = find_inversion(
            Construction::ResponsiveAll { write_back: false },
            2,
            &[CrashEvent {
                step: 6,
                index: 0,
                state: ObjectState::CrashedResponsive,
            }],
            0..300,
        );
        assert!(
            seed.is_some(),
            "no inversion found: the ablation lost its witness"
        );
    }

    #[test]
    fn responsive_with_write_back_shows_no_inversion_on_same_seeds() {
        let seed = find_inversion(
            Construction::ResponsiveAll { write_back: true },
            2,
            &[CrashEvent {
                step: 6,
                index: 0,
                state: ObjectState::CrashedResponsive,
            }],
            0..300,
        );
        assert_eq!(seed, None, "write-back must restore atomicity");
    }

    #[test]
    fn majority_without_write_back_shows_inversion() {
        let seed = find_inversion(
            Construction::MajorityQuorum { write_back: false },
            1,
            &[],
            0..500,
        );
        assert!(
            seed.is_some(),
            "no inversion found for quorum reads without write-back"
        );
    }

    #[test]
    fn majority_with_write_back_clean_on_same_seeds() {
        let seed = find_inversion(
            Construction::MajorityQuorum { write_back: true },
            1,
            &[],
            0..500,
        );
        assert_eq!(seed, None, "write-back must restore atomicity");
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use dds_core::spec::register::check_atomic;
    use proptest::prelude::*;

    fn op_strategy() -> impl Strategy<Value = RegOp> {
        prop_oneof![Just(RegOp::Read), (1u64..100).prop_map(RegOp::Write)]
    }

    fn reader_script() -> impl Strategy<Value = Vec<RegOp>> {
        proptest::collection::vec(Just(RegOp::Read), 0..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any single-writer workload, any interleaving, any ≤t responsive
        /// crashes: the t+1 construction with write-back is atomic.
        #[test]
        fn responsive_construction_is_always_atomic(
            writes in proptest::collection::vec(op_strategy(), 0..4),
            r1 in reader_script(),
            r2 in reader_script(),
            seed in 0u64..10_000,
            crash_step in 1u64..40,
            crash_index in 0usize..3,
        ) {
            let writer: Vec<RegOp> = writes
                .into_iter()
                .filter(|op| matches!(op, RegOp::Write(_)))
                .collect();
            let out = run_schedule(
                Construction::ResponsiveAll { write_back: true },
                2,
                &[writer, r1, r2],
                &[CrashEvent {
                    step: crash_step,
                    index: crash_index,
                    state: ObjectState::CrashedResponsive,
                }],
                seed,
            );
            prop_assert!(out.stuck_clients.is_empty());
            prop_assert!(
                check_atomic(&out.history).unwrap().is_linearizable(),
                "history:\n{}", out.history
            );
        }

        /// Same for the 2t+1 construction under ≤t nonresponsive crashes.
        #[test]
        fn majority_construction_is_always_atomic(
            writes in proptest::collection::vec(1u64..100, 0..4),
            r1 in reader_script(),
            r2 in reader_script(),
            seed in 0u64..10_000,
            crash_step in 1u64..40,
            crash_index in 0usize..3,
        ) {
            let writer: Vec<RegOp> = writes.into_iter().map(RegOp::Write).collect();
            let out = run_schedule(
                Construction::MajorityQuorum { write_back: true },
                1,
                &[writer, r1, r2],
                &[CrashEvent {
                    step: crash_step,
                    index: crash_index,
                    state: ObjectState::CrashedNonresponsive,
                }],
                seed,
            );
            prop_assert!(out.stuck_clients.is_empty(), "one crash is within tolerance");
            prop_assert!(
                check_atomic(&out.history).unwrap().is_linearizable(),
                "history:\n{}", out.history
            );
        }
    }
}
