//! Seeded mutants: intentionally broken systems the explorer must catch.
//!
//! Each entry comes in a correct/mutant pair built from the same harness,
//! differing in exactly one line of protocol logic. The correct variant
//! must survive every explored schedule; the mutant must be caught within
//! the CI budget. Together they validate the whole checking layer: a
//! checker that catches no mutants is decoration, one that flags correct
//! systems is noise.
//!
//! World-side mutants (kernel scheduling):
//!
//! - **flood-merge** — knowledge flooding over a path graph. Correct
//!   actors *union* incoming origin sets into their own (gossip's origin
//!   merge); the mutant *overwrites*, forgetting what it knew — under
//!   churning delivery orders some origin is permanently lost.
//! - **commit-race** — a two-phase-commit sketch where the prepare for
//!   one participant travels through two relays. The correct coordinator
//!   commits after *both* acks; the mutant commits after the *first*,
//!   opening a same-instant race between `Prepare` and `Commit` at the
//!   far participant that only an adversarial tie-break exposes — the
//!   default schedule passes.
//!
//! Register-side mutants (harness scheduling): the `write_back: false`
//! ablations of the t+1 responsive and 2t+1 majority constructions,
//! whose new/old inversions the statistical sweeps only find by luck.
//!
//! Storage-side mutants (`dds-store`, the quorum-replicated service):
//!
//! - **store-writeback** — a reader that skips the phase-2 write-back
//!   answers from a value seen on a minority; a later read can then miss
//!   it entirely (stale quorum read / new/old inversion).
//! - **store-fencing** — replicas that keep serving epochs they have
//!   promised away let a write complete against a configuration whose
//!   state was already migrated, so the write vanishes from the new
//!   epoch — a lost update the atomicity checker flags.
//!
//! SCD-broadcast mutants (`dds-protocols::scd`, judged by the set-order
//! oracle `check_world` rather than a history checker):
//!
//! - **scd-split** — delivery sets are split into singletons in buffer
//!   insertion order; two concurrent broadcasts then surface in opposite
//!   orders at their origins (MS-ordering crossed).
//! - **scd-cutoff** — the flush cutoff lags by one tick instead of the
//!   flood-latency bound, so an in-flight message lands in a later set at
//!   the remote end than at its origin (MS-ordering crossed again, but by
//!   premature delivery rather than set shattering).
//! - **scd-self** — own broadcasts are marked seen without being
//!   buffered; the origin never delivers its own message (self-delivery
//!   violated).
//!
//! Stabilization mutants (`dds-protocols::stab`, judged by the trajectory
//! target [`StabTarget`] — legal by `converge_by`, *still* legal at every
//! tick through `hold_until`):
//!
//! - **stab-token** — Dijkstra's K-state ring started in a corrupted
//!   two-privilege configuration. The correct protocol converges to one
//!   circulating privilege under every schedule; the mutant skews the
//!   non-bottom move (`value = pred + 1` instead of `value = pred`), so
//!   every mover re-arms its own privilege and the ring never stabilizes.
//! - **stab-view** — the purge-based membership view seeded with a
//!   phantom neighbor. The correct actor evicts it once it has been
//!   silent past `purge_after`; the mutant never evicts, so the phantom
//!   outlives every convergence bound.

use dds_core::process::ProcessId;
use dds_core::spec::register::{check_atomic, RegOp};
use dds_core::time::{Time, TimeDelta};
use dds_net::graph::Graph;
use dds_protocols::scd::{
    check_world as check_scd_world, ScdCall, ScdConfig, ScdFault, ScdMsg, ScdScenario,
};
use dds_protocols::stab::{token_privileges, DijkstraRing, ProbeMsg, TokenMsg, ViewActor};
use dds_registers::base::ObjectState;
use dds_registers::construction::Construction;
use dds_registers::harness::CrashEvent;
use dds_sim::actor::{Actor, Context};
use dds_sim::delay::{DelayModel, LossModel};
use dds_sim::snapshot::{FingerprintMsg, StableHasher};
use dds_sim::world::{World, WorldBuilder};
use dds_store::{history_from_store, StoreActor, StoreMsg, StoreParams};

use crate::target::{RegisterTarget, StabTarget, Target, Violation, WorldTarget};

/// World seed of the write-back mutant scenario, chosen (by scanning
/// seeds) so the delay draws of the *default* schedule already interleave
/// the write between the two reads — the explorer then shrinks the
/// witness to zero decisions, and plan perturbations cover the
/// neighborhood.
const STORE_WRITEBACK_SEED: u64 = 161;

/// One suite entry: a target factory and whether exploration must find a
/// violation (mutants) or must not (correct variants).
///
/// A `fn` pointer rather than a built target: every exploration (the
/// suite's tests, `run_check`, the benchmark) starts from a fresh,
/// deterministic instance, and a replayed counterexample gets its own.
pub struct Subject {
    /// Builds a fresh, deterministic instance of the system under check.
    pub build: fn() -> Box<dyn Target>,
    /// `true` for mutants: a violation must be found within budget.
    pub expect_violation: bool,
}

macro_rules! subjects {
    ($(($builder:ident, $flag:expr, $expect:expr)),* $(,)?) => {
        vec![$(Subject {
            build: || Box::new($builder($flag)) as Box<dyn Target>,
            expect_violation: $expect,
        }),*]
    };
}

/// The full validation suite, correct/mutant pairs interleaved, plus the
/// reconfiguration small-world sweep (correct-only: it asserts the store
/// stays atomic and live through an epoch change).
pub fn suite() -> Vec<Subject> {
    let mut subjects = subjects![
        (flood_target, true, false),
        (flood_target, false, true),
        (race_target, true, false),
        (race_target, false, true),
        (responsive_register_target, true, false),
        (responsive_register_target, false, true),
        (majority_register_target, true, false),
        (majority_register_target, false, true),
        (store_writeback_target, true, false),
        (store_writeback_target, false, true),
        (store_fencing_target, true, false),
        (store_fencing_target, false, true),
        (scd_split_target, true, false),
        (scd_split_target, false, true),
        (scd_cutoff_target, true, false),
        (scd_cutoff_target, false, true),
        (scd_self_target, true, false),
        (scd_self_target, false, true),
        (token_stab_target, true, false),
        (token_stab_target, false, true),
        (view_stab_target, true, false),
        (view_stab_target, false, true),
    ];
    subjects.push(Subject {
        build: || Box::new(store_reconfig_target()),
        expect_violation: false,
    });
    subjects
}

/// Builder of the correct flood target — the canonical small world whose
/// bounded schedule space exhausts quickly. Exported for the benchmark's
/// fuzzer probe, which times `fuzz` on exactly this sweep.
pub fn flood_exhaustive() -> fn() -> Box<dyn Target> {
    || Box::new(flood_target(true)) as Box<dyn Target>
}

/// The scaled-up correct flood sweep the throughput experiment measures:
/// a path of 6 processes and a 120-tick deadline instead of the CI
/// suite's 3/30. Runs are long enough (diameter-5 propagation with
/// broadcast cascades) that replay-DFS pays its defining cost — re-running
/// the whole prefix from scratch for every deviation — while the forking
/// engine resumes from an O(live state) snapshot and prunes the
/// commuting reorderings this protocol is full of, so this world is
/// where the architectural difference between the engines is visible
/// rather than drowned in per-run fixed costs.
pub fn flood_exhaustive_large() -> fn() -> Box<dyn Target> {
    || Box::new(flood_target_sized(true, "flood-merge/large", 6, 120)) as Box<dyn Target>
}

// ---------------------------------------------------------------------------
// flood-merge: knowledge flooding with (or without) the origin merge.
// ---------------------------------------------------------------------------

/// Floods a bitmask of known process identities. `merge_union` is the
/// gossip origin merge; without it, an incoming set *replaces* what the
/// process knew (keeping only its own bit).
#[derive(Clone)]
struct Flood {
    known: u64,
    merge_union: bool,
}

impl Actor<u64> for Flood {
    fn fork(&self) -> Option<Box<dyn Actor<u64>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u64(self.known);
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.known = 1 << ctx.pid().as_raw();
        ctx.set_timer(TimeDelta::TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _: dds_sim::event::TimerId) {
        ctx.broadcast(self.known);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: ProcessId, mask: u64) {
        let merged = if self.merge_union {
            self.known | mask
        } else {
            mask | (1 << ctx.pid().as_raw())
        };
        if merged != self.known {
            self.known = merged;
            ctx.broadcast(self.known);
        }
    }
}

/// Path graph of 3; the middle process hears from both ends at the same
/// instant, so delivery order decides what an overwriting merge forgets.
fn flood_target(merge_union: bool) -> WorldTarget<u64> {
    let name = if merge_union {
        "flood-merge/correct"
    } else {
        "flood-merge/mutant"
    };
    flood_target_sized(merge_union, name, 3, 30)
}

/// Same flood system over a path of `n` processes with a `deadline`-tick
/// horizon — the small suite instance and the large throughput instance
/// share everything but scale.
fn flood_target_sized(
    merge_union: bool,
    name: &'static str,
    n: usize,
    deadline: u64,
) -> WorldTarget<u64> {
    WorldTarget::new(
        name,
        Time::from_ticks(deadline),
        move || {
            WorldBuilder::new(11)
                .initial_graph(dds_net::generate::path(n))
                .delay(DelayModel::Fixed(TimeDelta::TICK))
                .spawn(move |_| {
                    Box::new(Flood {
                        known: 0,
                        merge_union,
                    })
                })
                .build()
        },
        |world: &World<u64>| {
            let all: u64 = world
                .members()
                .iter()
                .map(|p| 1u64 << p.as_raw())
                .fold(0, |a, b| a | b);
            for &pid in world.members() {
                let known = world.actor::<Flood>(pid).expect("flood actor").known;
                if known != all {
                    return Err(Violation {
                        reason: format!("process {pid} lost origins"),
                        details: format!("knows {known:#b}, expected {all:#b}"),
                    });
                }
            }
            Ok(())
        },
    )
}

// ---------------------------------------------------------------------------
// commit-race: commit must not overtake a relayed prepare.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RaceMsg {
    Prepare,
    /// Prepare for the far participant, hopping through the relays.
    PrepForward,
    Ack,
    Commit,
}

impl FingerprintMsg for RaceMsg {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            RaceMsg::Prepare => 0,
            RaceMsg::PrepForward => 1,
            RaceMsg::Ack => 2,
            RaceMsg::Commit => 3,
        });
    }
}

/// p0: sends `Prepare` to p1 directly and via two relays (p3→p4) to p2;
/// commits after both acks (correct) or after the first (mutant).
#[derive(Clone)]
struct Coordinator {
    acks: usize,
    wait_for_all: bool,
}

impl Actor<RaceMsg> for Coordinator {
    fn fork(&self) -> Option<Box<dyn Actor<RaceMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_usize(self.acks);
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_, RaceMsg>) {
        ctx.send(ProcessId::from_raw(3), RaceMsg::PrepForward);
        ctx.send(ProcessId::from_raw(1), RaceMsg::Prepare);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RaceMsg>, _: ProcessId, msg: RaceMsg) {
        if msg == RaceMsg::Ack {
            self.acks += 1;
            let quorum = if self.wait_for_all { 2 } else { 1 };
            if self.acks == quorum {
                ctx.send(ProcessId::from_raw(1), RaceMsg::Commit);
                ctx.send(ProcessId::from_raw(2), RaceMsg::Commit);
            }
        }
    }
}

/// p1 and p2: ack the prepare; flag a commit that arrives unprepared.
#[derive(Default, Clone)]
struct Participant {
    prepared: bool,
    commit_before_prepare: bool,
}

impl Actor<RaceMsg> for Participant {
    fn fork(&self) -> Option<Box<dyn Actor<RaceMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_bool(self.prepared);
        h.write_bool(self.commit_before_prepare);
        true
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RaceMsg>, _: ProcessId, msg: RaceMsg) {
        match msg {
            RaceMsg::Prepare => {
                self.prepared = true;
                ctx.send(ProcessId::from_raw(0), RaceMsg::Ack);
            }
            RaceMsg::Commit if !self.prepared => self.commit_before_prepare = true,
            _ => {}
        }
    }
}

/// p3 and p4: forward `PrepForward` one hop (p3 → p4 → p2).
#[derive(Clone)]
struct Relay {
    next: ProcessId,
    delivers: RaceMsg,
}

impl Actor<RaceMsg> for Relay {
    fn fork(&self) -> Option<Box<dyn Actor<RaceMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        // Stateless: `next`/`delivers` are immutable wiring, but hash
        // them anyway — two relays are only interchangeable if wired the
        // same way.
        h.write_u64(self.next.as_raw());
        FingerprintMsg::fingerprint(&self.delivers, h);
        true
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RaceMsg>, _: ProcessId, msg: RaceMsg) {
        if msg == RaceMsg::PrepForward {
            ctx.send(self.next, self.delivers);
        }
    }
}

fn race_target(wait_for_all: bool) -> WorldTarget<RaceMsg> {
    let name = if wait_for_all {
        "commit-race/correct"
    } else {
        "commit-race/mutant"
    };
    WorldTarget::new(
        name,
        Time::from_ticks(20),
        move || {
            let mut g = Graph::new();
            for i in 0..5 {
                g.add_node(ProcessId::from_raw(i));
            }
            for (a, b) in [(0, 1), (0, 2), (0, 3), (3, 4), (4, 2)] {
                g.add_edge(ProcessId::from_raw(a), ProcessId::from_raw(b));
            }
            WorldBuilder::new(17)
                .initial_graph(g)
                .delay(DelayModel::Fixed(TimeDelta::TICK))
                .spawn(move |pid| match pid.as_raw() {
                    0 => Box::new(Coordinator {
                        acks: 0,
                        wait_for_all,
                    }),
                    1 | 2 => Box::new(Participant::default()) as Box<dyn Actor<RaceMsg>>,
                    3 => Box::new(Relay {
                        next: ProcessId::from_raw(4),
                        delivers: RaceMsg::PrepForward,
                    }),
                    _ => Box::new(Relay {
                        next: ProcessId::from_raw(2),
                        delivers: RaceMsg::Prepare,
                    }),
                })
                .build()
        },
        |world: &World<RaceMsg>| {
            for pid in [1, 2] {
                let p = world
                    .actor::<Participant>(ProcessId::from_raw(pid))
                    .expect("participant");
                if p.commit_before_prepare {
                    return Err(Violation {
                        reason: format!("participant {pid} committed before preparing"),
                        details: "Commit overtook the relayed Prepare".into(),
                    });
                }
            }
            Ok(())
        },
    )
}

// ---------------------------------------------------------------------------
// register mutants: the write-back ablations.
// ---------------------------------------------------------------------------

/// The t+1 responsive construction; without write-back a reader that
/// observed a concurrent write does not propagate it, so a later reader
/// can see the older value — a new/old inversion.
fn responsive_register_target(write_back: bool) -> RegisterTarget {
    let name = if write_back {
        "register-responsive/correct"
    } else {
        "register-responsive/mutant"
    };
    RegisterTarget::new(
        name,
        Construction::ResponsiveAll { write_back },
        2,
        vec![
            vec![RegOp::Write(1), RegOp::Write(2), RegOp::Write(3)],
            vec![RegOp::Read; 3],
            vec![RegOp::Read; 3],
        ],
        vec![CrashEvent {
            step: 6,
            index: 0,
            state: ObjectState::CrashedResponsive,
        }],
        0,
    )
}

/// The 2t+1 majority construction; without the read write-back two
/// quorum reads can straddle an in-flight write.
fn majority_register_target(write_back: bool) -> RegisterTarget {
    let name = if write_back {
        "register-majority/correct"
    } else {
        "register-majority/mutant"
    };
    RegisterTarget::new(
        name,
        Construction::MajorityQuorum { write_back },
        1,
        vec![
            vec![RegOp::Write(1), RegOp::Write(2), RegOp::Write(3)],
            vec![RegOp::Read; 3],
            vec![RegOp::Read; 3],
        ],
        vec![],
        0,
    )
}

// ---------------------------------------------------------------------------
// store mutants: write-back and epoch-fencing ablations of dds-store.
// ---------------------------------------------------------------------------

/// Checks a finished store world: the clients' history must be atomic.
fn check_store_history(world: &World<StoreMsg>, clients: &[ProcessId]) -> Result<(), Violation> {
    let history = history_from_store(world, clients.iter().copied());
    match check_atomic(&history) {
        Ok(lin) if lin.is_linearizable() => Ok(()),
        Ok(_) => Err(Violation {
            reason: "store history is not linearizable".into(),
            details: format!("{} ops from {} clients", history.len(), clients.len()),
        }),
        Err(e) => Err(Violation {
            reason: "store history rejected by the checker".into(),
            details: format!("{e:?}"),
        }),
    }
}

/// ABD read write-back ablation. One writer and one reader race over a
/// 3-replica register under jittery delays: without the phase-2
/// write-back the first read can answer from a minority that already saw
/// the in-flight write while the second read's quorum misses it — the
/// value appears, then vanishes. The world seed is chosen so the default
/// schedule exhibits the race; the explorer's plan perturbations reshuffle
/// the delay draws for the rest of the space.
fn store_writeback_target(write_back: bool) -> WorldTarget<StoreMsg> {
    let name = if write_back {
        "store-writeback/correct"
    } else {
        "store-writeback/mutant"
    };
    WorldTarget::new(
        name,
        Time::from_ticks(90),
        move || store_writeback_world(STORE_WRITEBACK_SEED, write_back),
        |world: &World<StoreMsg>| {
            check_store_history(
                world,
                &[
                    ProcessId::from_raw(WB_WRITER),
                    ProcessId::from_raw(WB_READER),
                ],
            )
        },
    )
}

const WB_WRITER: u64 = 3;
const WB_READER: u64 = 4;

fn store_writeback_world(seed: u64, write_back: bool) -> World<StoreMsg> {
    let params = StoreParams {
        initial: (0..3).map(ProcessId::from_raw).collect(),
        replica_count: 3,
        write_back,
        epoch_fencing: true,
        probe_every: None,
        op_timeout: TimeDelta::ticks(30),
        max_attempts: 4,
        view_delta: TimeDelta::ticks(1_000),
        ..StoreParams::default()
    };
    // Loss opens the inversion window: a `Store` wave that reaches only
    // one replica leaves the write pending and visible to exactly the
    // quorums that include that replica.
    let mut world = WorldBuilder::new(seed)
        .initial_graph(dds_net::generate::complete(5))
        .delay(DelayModel::Uniform {
            min: TimeDelta::ticks(1),
            max: TimeDelta::ticks(6),
        })
        .loss(LossModel::Bernoulli(0.25))
        .spawn(move |_| Box::new(StoreActor::new(params.clone())))
        .build();
    let w = ProcessId::from_raw(WB_WRITER);
    let r = ProcessId::from_raw(WB_READER);
    // The reads land in the window where a lossy `Store` wave has reached
    // some replicas but not others; the second read starts only after the
    // first completes, so an inversion is a real-time violation.
    world.inject(Time::from_ticks(1), w, StoreMsg::Invoke(RegOp::Write(1)));
    world.inject(Time::from_ticks(12), r, StoreMsg::Invoke(RegOp::Read));
    world.inject(Time::from_ticks(24), r, StoreMsg::Invoke(RegOp::Read));
    world
}

/// Epoch-fencing ablation. A write races a reconfiguration that migrates
/// the register to a disjoint replica set: with fencing the old replicas
/// NACK the write's phase 2 (they promised the new epoch when they
/// answered the fenced snapshot read) and the write retries against the
/// new configuration; without it they happily ack, the write "completes"
/// into a decommissioned epoch, and a later read through the new
/// configuration returns the migrated — older — value. Deterministic
/// (fixed delays): the mutant loses the update on the default schedule.
fn store_fencing_target(epoch_fencing: bool) -> WorldTarget<StoreMsg> {
    let name = if epoch_fencing {
        "store-fencing/correct"
    } else {
        "store-fencing/mutant"
    };
    const WRITER: u64 = 6;
    const READER: u64 = 7;
    WorldTarget::new(
        name,
        Time::from_ticks(70),
        move || {
            let params = StoreParams {
                initial: (0..3).map(ProcessId::from_raw).collect(),
                replica_count: 3,
                write_back: true,
                epoch_fencing,
                probe_every: None,
                op_timeout: TimeDelta::ticks(12),
                max_attempts: 6,
                view_delta: TimeDelta::ticks(25),
                ..StoreParams::default()
            };
            let mut world = WorldBuilder::new(23)
                .initial_graph(dds_net::generate::complete(8))
                .delay(DelayModel::Fixed(TimeDelta::TICK))
                .spawn(move |_| Box::new(StoreActor::new(params.clone())))
                .build();
            let w = ProcessId::from_raw(WRITER);
            let r = ProcessId::from_raw(READER);
            world.inject(Time::from_ticks(1), w, StoreMsg::Invoke(RegOp::Write(1)));
            world.inject(Time::from_ticks(17), w, StoreMsg::Invoke(RegOp::Write(2)));
            world.inject(
                Time::from_ticks(18),
                ProcessId::from_raw(0),
                StoreMsg::Reconfigure {
                    members: (3..6).map(ProcessId::from_raw).collect(),
                },
            );
            world.inject(Time::from_ticks(45), r, StoreMsg::Invoke(RegOp::Read));
            world
        },
        |world: &World<StoreMsg>| {
            check_store_history(
                world,
                &[ProcessId::from_raw(WRITER), ProcessId::from_raw(READER)],
            )
        },
    )
}

/// The shared SCD mutant scenario: a 3-process line where the two
/// endpoints broadcast concurrently at `t = 1`. With the staggered
/// two-tick flush period both endpoints flush at `t = 4` with cutoff 1
/// and batch both messages into one set (the middle process relays each
/// flood in one hop, so everything has arrived by `t = 3`). Each fault
/// breaks that agreement its own way; all three are deterministic on the
/// default schedule (fixed delays), so witnesses shrink toward empty
/// plans and exploration probes the neighborhood.
fn scd_target(family: &'static str, fault: ScdFault) -> WorldTarget<ScdMsg> {
    let suffix = if fault == ScdFault::None {
        "correct"
    } else {
        "mutant"
    };
    let config = ScdConfig::new(2, TimeDelta::TICK, TimeDelta::ticks(2)).with_fault(fault);
    let mut scenario = ScdScenario::new(dds_net::generate::path(3), config)
        .op(1, 0, ScdCall::Tag(10))
        .op(1, 2, ScdCall::Tag(20));
    scenario.seed = 5;
    scenario.deadline = Time::from_ticks(12);
    WorldTarget::new(
        format!("{family}/{suffix}"),
        scenario.deadline,
        move || scenario.build(),
        |world: &World<ScdMsg>| {
            check_scd_world(world).map_err(|v| Violation {
                reason: v.reason,
                details: v.details,
            })
        },
    )
}

/// Set-constraint ablation: singleton sets in insertion order.
fn scd_split_target(correct: bool) -> WorldTarget<ScdMsg> {
    scd_target(
        "scd-split",
        if correct {
            ScdFault::None
        } else {
            ScdFault::SplitSets
        },
    )
}

/// Containment ablation: the flush cutoff ignores the flood-latency lag.
fn scd_cutoff_target(correct: bool) -> WorldTarget<ScdMsg> {
    scd_target(
        "scd-cutoff",
        if correct {
            ScdFault::None
        } else {
            ScdFault::EagerCutoff
        },
    )
}

/// Self-inclusion ablation: own broadcasts are never buffered.
fn scd_self_target(correct: bool) -> WorldTarget<ScdMsg> {
    scd_target(
        "scd-self",
        if correct {
            ScdFault::None
        } else {
            ScdFault::SkipSelf
        },
    )
}

// ---------------------------------------------------------------------------
// stabilization mutants: trajectory properties under corrupted starts.
// ---------------------------------------------------------------------------

/// Dijkstra's K-state ring (n = 3, K = 4) started in the corrupted
/// two-privilege configuration (0, 2, 1) — judged by [`StabTarget`]:
/// exactly one privilege at every tick in (36, 44]. K ≥ n guarantees the
/// correct protocol converges under every schedule (exploration only
/// permutes same-instant ties, which select valid asynchronous
/// executions). The skew mutant instead freezes in the illegal
/// configuration (0, 1, 2): both non-bottom movers rewrite their values
/// in place (`pred + 1` equals what they already hold), two privileges
/// persist forever, and the witness shrinks to the empty plan. The start
/// state matters — the skew dynamics also have *legal* sinks of the form
/// (a, a, a+1), which this start provably avoids.
fn token_stab_target(correct: bool) -> StabTarget<TokenMsg> {
    let name = if correct {
        "stab-token/correct"
    } else {
        "stab-token/mutant"
    };
    StabTarget::new(
        name,
        Time::from_ticks(36),
        Time::from_ticks(44),
        move || {
            WorldBuilder::new(13)
                .initial_graph(dds_net::generate::ring(3))
                .delay(DelayModel::Fixed(TimeDelta::TICK))
                .spawn(move |pid| {
                    let raw = pid.as_raw();
                    let succ = ProcessId::from_raw((raw + 1) % 3);
                    let ring = DijkstraRing::new(4, raw == 0, succ, TimeDelta::ticks(2))
                        .with_state([0, 2, 1][raw as usize], Some([1, 0, 2][raw as usize]));
                    if correct {
                        Box::new(ring)
                    } else {
                        Box::new(ring.with_skew_mutation())
                    }
                })
                .build()
        },
        |world: &World<TokenMsg>| {
            let ring: Vec<ProcessId> = (0..3).map(ProcessId::from_raw).collect();
            match token_privileges(world, &ring) {
                1 => Ok(()),
                n => Err(format!("{n} privileges in the ring")),
            }
        },
    )
}

/// The membership view on a 3-ring, one process seeded with a phantom
/// neighbor (identity 99, never spawned). The correct actor hears nothing
/// from it and purges it after 6 silent ticks — views match the kernel
/// neighborhoods at every tick in (16, 26] regardless of probe delivery
/// order (real neighbors probe every 2 ticks against a 6-tick purge
/// threshold, so they are never evicted). The no-eviction mutant keeps
/// the phantom forever.
fn view_stab_target(correct: bool) -> StabTarget<ProbeMsg> {
    let name = if correct {
        "stab-view/correct"
    } else {
        "stab-view/mutant"
    };
    StabTarget::new(
        name,
        Time::from_ticks(16),
        Time::from_ticks(26),
        move || {
            WorldBuilder::new(29)
                .initial_graph(dds_net::generate::ring(3))
                .delay(DelayModel::Fixed(TimeDelta::TICK))
                .spawn(move |pid| {
                    let mut actor = ViewActor::new(TimeDelta::ticks(2), TimeDelta::ticks(6));
                    if !correct {
                        actor = actor.without_eviction();
                    }
                    if pid.as_raw() == 1 {
                        actor = actor.with_phantom(ProcessId::from_raw(99));
                    }
                    Box::new(actor)
                })
                .build()
        },
        |world: &World<ProbeMsg>| {
            for &p in world.members() {
                let Some(actor) = world.actor::<ViewActor>(p) else {
                    return Err(format!("process {p} has no view actor"));
                };
                let kernel = world.graph().neighbors(p).unwrap_or(&[]);
                let view = actor.view();
                if view != kernel {
                    return Err(format!(
                        "process {p}: view {view:?} != neighborhood {kernel:?}"
                    ));
                }
            }
            Ok(())
        },
    )
}

const RECONFIG_WRITER: u64 = 4;
const RECONFIG_READER: u64 = 5;

/// Exhaustive small-world sweep of a live `dds-store` reconfiguration:
/// 3 replicas, one administrative membership change racing a write and a
/// read, bounded depth. Unlike the ablation targets above this one models
/// the *correct* protocol and must hold two properties on every schedule
/// in the bounded space:
///
/// - **atomicity** — the client history stays linearizable through the
///   epoch change (no write lost to the decommissioned configuration, no
///   read inversion across the migration), and
/// - **no hang** — the churn here (one reconfiguration, lossless jittered
///   delays) is far below the sustainable-churn bound, so every injected
///   operation must *complete*: it reaches the client's op log with a
///   response and without exhausting its retry budget.
///
/// Jittered (not fixed) delays, and the write injected *concurrent* with
/// the reconfiguration, on purpose: fixed one-tick delays turn the
/// start-up `Announce` gossip into two enormous same-instant waves whose
/// permutations alone exhaust `max_depth` before the first protocol
/// message, leaving the reconfiguration unexplored. Jitter thins the
/// noise, and the overlapping injections put the write's `Store` wave and
/// the migration's fence inside the bounded choice-point window, so the
/// deviations the budget affords reorder exactly the write/migrate race
/// the epoch fence exists for (the read then validates the outcome on the
/// default tail).
fn store_reconfig_target() -> WorldTarget<StoreMsg> {
    WorldTarget::new(
        "store-reconfig/sweep",
        Time::from_ticks(90),
        || {
            let params = StoreParams {
                initial: (0..3).map(ProcessId::from_raw).collect(),
                replica_count: 3,
                write_back: true,
                epoch_fencing: true,
                probe_every: None,
                // Above the worst-case two-phase round trip under the
                // 1..=4-tick jitter (≈16 ticks): a timeout must mean the
                // epoch moved, never that the dice rolled slow — else an
                // adversarial schedule starves the op by spurious retries
                // and the liveness half of the check false-alarms.
                op_timeout: TimeDelta::ticks(20),
                max_attempts: 6,
                view_delta: TimeDelta::ticks(25),
                ..StoreParams::default()
            };
            let mut world = WorldBuilder::new(23)
                .initial_graph(dds_net::generate::complete(6))
                .delay(DelayModel::Uniform {
                    min: TimeDelta::ticks(1),
                    max: TimeDelta::ticks(4),
                })
                .spawn(move |_| Box::new(StoreActor::new(params.clone())))
                .build();
            let w = ProcessId::from_raw(RECONFIG_WRITER);
            let r = ProcessId::from_raw(RECONFIG_READER);
            world.inject(Time::from_ticks(1), w, StoreMsg::Invoke(RegOp::Write(7)));
            world.inject(
                Time::from_ticks(2),
                ProcessId::from_raw(0),
                StoreMsg::Reconfigure {
                    members: (1..4).map(ProcessId::from_raw).collect(),
                },
            );
            world.inject(Time::from_ticks(20), r, StoreMsg::Invoke(RegOp::Read));
            world
        },
        |world: &World<StoreMsg>| {
            let clients = [
                ProcessId::from_raw(RECONFIG_WRITER),
                ProcessId::from_raw(RECONFIG_READER),
            ];
            check_store_history(world, &clients)?;
            // One op was injected at each client; each must have finished.
            for pid in clients {
                let Some(actor) = world.actor::<StoreActor>(pid) else {
                    return Err(Violation {
                        reason: "store client actor missing".into(),
                        details: format!("{pid:?}"),
                    });
                };
                let done = actor
                    .log()
                    .iter()
                    .filter(|op| op.responded.is_some() && !op.aborted)
                    .count();
                if done != 1 || actor.in_flight().is_some() {
                    return Err(Violation {
                        reason: "store operation hung below the churn bound".into(),
                        details: format!(
                            "{pid:?}: {done} completed, in flight {:?}, log {:?}",
                            actor.in_flight(),
                            actor.log()
                        ),
                    });
                }
            }
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, explore_fork, explore_replay, Budget};
    use crate::fuzz::fuzz;
    use crate::target::{ExploreSession, SessionState};

    fn budget() -> Budget {
        Budget {
            max_runs: 2000,
            max_depth: 48,
            max_preemptions: 2,
        }
    }

    #[test]
    fn correct_flood_survives_exploration() {
        let out = explore(&mut flood_target(true), budget());
        assert!(out.counterexample.is_none(), "{:?}", out.counterexample);
    }

    #[test]
    fn sleep_sets_prune_without_losing_exhaustion() {
        // The same bounded space, with and without the reduction: both
        // must exhaust (no violation either way), the reduced walk in
        // strictly fewer runs — commutative delivery orders are skipped,
        // not lost.
        let with = explore(&mut flood_target(true), budget());
        let mut plain = flood_target(true);
        plain.disable_reduction();
        let without = explore(&mut plain, budget());
        assert!(with.exhausted && without.exhausted);
        assert!(without.counterexample.is_none());
        assert!(
            with.runs < without.runs,
            "reduction must prune: with={} without={}",
            with.runs,
            without.runs
        );
    }

    #[test]
    fn mutant_flood_is_caught() {
        let out = explore(&mut flood_target(false), budget());
        let ce = out
            .counterexample
            .expect("overwrite merge must lose origins");
        assert!(ce.preemptions <= 2);
    }

    #[test]
    fn correct_race_survives_exploration() {
        let out = explore(&mut race_target(true), budget());
        assert!(out.counterexample.is_none(), "{:?}", out.counterexample);
    }

    #[test]
    fn mutant_race_is_caught_and_needs_a_deviation() {
        // The default schedule passes: the race only fires under an
        // adversarial same-instant tie-break.
        let report = race_target(false).run(&[]);
        assert!(
            report.violation.is_none(),
            "default order must mask the race: {:?}",
            report.violation
        );
        let out = explore(&mut race_target(false), budget());
        let ce = out.counterexample.expect("explorer must expose the race");
        assert!(ce.preemptions >= 1, "needs a non-default decision");
    }

    #[test]
    #[ignore = "offline seed scan for STORE_WRITEBACK_SEED"]
    fn scan_writeback_seeds() {
        for seed in 0..2000u64 {
            let mut world = store_writeback_world(seed, false);
            world.run_until(Time::from_ticks(90));
            let bad = check_store_history(
                &world,
                &[
                    ProcessId::from_raw(WB_WRITER),
                    ProcessId::from_raw(WB_READER),
                ],
            )
            .is_err();
            if bad {
                println!("seed {seed} violates on the default schedule");
                return;
            }
        }
        panic!("no violating seed in range");
    }

    #[test]
    fn store_writeback_mutant_is_caught_and_correct_survives() {
        let correct = explore(&mut store_writeback_target(true), budget());
        assert!(
            correct.counterexample.is_none(),
            "write-back store flagged: {:?}",
            correct.counterexample
        );
        let mut mutant = store_writeback_target(false);
        let mut ce = explore(&mut mutant, budget()).counterexample;
        if ce.is_none() {
            ce = fuzz(&mut mutant, 1, 300, 64).counterexample;
        }
        let ce = ce.expect("skipping the read write-back must be caught");
        assert!(
            ce.plan.len() <= 20,
            "witness must shrink to <= 20 decisions, got {}",
            ce.plan.len()
        );
    }

    #[test]
    fn store_fencing_mutant_is_caught_and_correct_survives() {
        let correct = explore(&mut store_fencing_target(true), budget());
        assert!(
            correct.counterexample.is_none(),
            "fenced store flagged: {:?}",
            correct.counterexample
        );
        let out = explore(&mut store_fencing_target(false), budget());
        let ce = out
            .counterexample
            .expect("unfenced epochs must lose the racing write");
        assert!(
            ce.plan.len() <= 20,
            "witness must shrink to <= 20 decisions, got {}",
            ce.plan.len()
        );
    }

    #[test]
    fn scd_mutants_are_caught_and_correct_ones_survive() {
        for mk in [
            scd_split_target as fn(bool) -> WorldTarget<ScdMsg>,
            scd_cutoff_target,
            scd_self_target,
        ] {
            let mut correct = mk(true);
            let name = correct.name().to_string();
            let out = explore(&mut correct, budget());
            assert!(
                out.counterexample.is_none(),
                "{name}: correct SCD flagged: {:?}",
                out.counterexample
            );
            let mut mutant = mk(false);
            let name = mutant.name().to_string();
            let mut ce = explore(&mut mutant, budget()).counterexample;
            if ce.is_none() {
                ce = fuzz(&mut mutant, 1, 300, 64).counterexample;
            }
            let ce = ce.unwrap_or_else(|| panic!("{name}: mutant must be caught"));
            assert!(
                ce.plan.len() <= 20,
                "{name}: witness must shrink to <= 20 decisions, got {}",
                ce.plan.len()
            );
        }
    }

    #[test]
    fn scd_witnesses_are_byte_reproducible_on_the_fork_engine() {
        for mk in [
            scd_split_target as fn(bool) -> WorldTarget<ScdMsg>,
            scd_cutoff_target,
            scd_self_target,
        ] {
            let a = explore_fork(&mut mk(false), budget()).expect("SCD targets fork");
            let b = explore_fork(&mut mk(false), budget()).expect("SCD targets fork");
            let pa = a.counterexample.expect("fork engine catches the mutant");
            let pb = b.counterexample.expect("fork engine catches the mutant");
            assert_eq!(pa.plan, pb.plan, "witness plans must be byte-identical");
            assert!(pa.plan.len() <= 20);
        }
    }

    /// Builders of the stabilization pairs, erased to `Box<dyn Target>`
    /// so one battery covers both message types.
    type StabBuild = fn(bool) -> Box<dyn Target>;
    fn stab_builds() -> [(&'static str, StabBuild); 2] {
        [
            ("stab-token", |c| Box::new(token_stab_target(c))),
            ("stab-view", |c| Box::new(view_stab_target(c))),
        ]
    }

    /// Both stabilization mutants are illegal at every sample, so the
    /// very first run — the default schedule, the empty plan — must
    /// already convict them, while the correct twins converge on it.
    #[test]
    fn stab_mutants_violate_on_the_default_schedule() {
        for (label, mk) in stab_builds() {
            let report = mk(true).run(&[]);
            assert!(
                report.violation.is_none(),
                "{label}: correct protocol must converge on the default schedule: {:?}",
                report.violation
            );
            let report = mk(false).run(&[]);
            let v = report
                .violation
                .unwrap_or_else(|| panic!("{label}: mutant must fail the default schedule"));
            assert!(
                v.reason.contains("illegal configuration at tick"),
                "{label}: {v:?}"
            );
        }
    }

    /// Self-stabilization is schedule-independent with the chosen margins:
    /// the correct protocols must survive every explored interleaving,
    /// the mutants must be caught with a short witness.
    #[test]
    fn stab_mutants_are_caught_and_correct_ones_survive() {
        for (label, mk) in stab_builds() {
            let out = explore(mk(true).as_mut(), budget());
            assert!(
                out.counterexample.is_none(),
                "{label}: correct protocol flagged: {:?}",
                out.counterexample
            );
            let mut mutant = mk(false);
            let mut ce = explore(mutant.as_mut(), budget()).counterexample;
            if ce.is_none() {
                ce = fuzz(mutant.as_mut(), 1, 300, 64).counterexample;
            }
            let ce = ce.unwrap_or_else(|| panic!("{label}: mutant must be caught"));
            assert!(
                ce.plan.len() <= 20,
                "{label}: witness must shrink to <= 20 decisions, got {}",
                ce.plan.len()
            );
        }
    }

    #[test]
    fn stab_witnesses_are_byte_reproducible_on_the_fork_engine() {
        for (label, mk) in stab_builds() {
            let a = explore_fork(mk(false).as_mut(), budget()).expect("stab targets fork");
            let b = explore_fork(mk(false).as_mut(), budget()).expect("stab targets fork");
            let pa = a.counterexample.expect("fork engine catches the mutant");
            let pb = b.counterexample.expect("fork engine catches the mutant");
            assert_eq!(
                pa.plan, pb.plan,
                "{label}: witness plans must be byte-identical"
            );
            assert!(pa.plan.len() <= 20, "{label}");
        }
    }

    #[test]
    fn store_reconfig_sweep_is_clean() {
        let out = explore(&mut store_reconfig_target(), budget());
        assert!(
            out.counterexample.is_none(),
            "reconfiguration below the churn bound must stay atomic and live: {:?}",
            out.counterexample
        );
    }

    /// What "the engines agree" means: same first counterexample
    /// (byte-identical plan, same violation), and exhaustion whenever
    /// replay exhausts — dedup only ever *saves* runs.
    fn check_pair(
        label: &str,
        forked: crate::explore::Explored,
        replayed: crate::explore::Explored,
    ) {
        assert!(
            forked.runs <= replayed.runs,
            "{label}: pruning cannot add runs (fork {}, replay {})",
            forked.runs,
            replayed.runs
        );
        if let Some(rce) = &replayed.counterexample {
            let fce = forked
                .counterexample
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: fork missed replay's witness {rce:?}"));
            assert_eq!(
                rce.plan, fce.plan,
                "{label}: witness plans must be byte-identical"
            );
            assert_eq!(
                rce.violation.reason, fce.violation.reason,
                "{label}: the witness must break the same thing"
            );
        } else if forked.counterexample.is_some() {
            assert!(
                !replayed.exhausted,
                "{label}: fork found a witness replay exhaustively ruled out"
            );
        }
        if replayed.exhausted {
            assert!(
                forked.exhausted,
                "{label}: dedup only prunes duplicate subtrees, so fork \
                 must exhaust whenever replay does (replay {} runs, fork {})",
                replayed.runs, forked.runs
            );
        }
    }

    /// Exhaustion-equivalence regression: on the flood and race suites the
    /// fork+dedup explorer and the replay-DFS must reach the same
    /// terminal verdicts, with sleep-set POR both on and off.
    #[test]
    fn fork_and_replay_agree_on_flood_and_race_suites() {
        for por in [true, false] {
            for flag in [true, false] {
                let (mut a, mut b) = (flood_target(flag), flood_target(flag));
                if !por {
                    a.disable_reduction();
                    b.disable_reduction();
                }
                let forked = explore_fork(&mut a, budget()).expect("flood target forks");
                check_pair(
                    &format!("flood({flag}) por={por}"),
                    forked,
                    explore_replay(&mut b, budget()),
                );

                let (mut a, mut b) = (race_target(flag), race_target(flag));
                if !por {
                    a.disable_reduction();
                    b.disable_reduction();
                }
                let forked = explore_fork(&mut a, budget()).expect("race target forks");
                check_pair(
                    &format!("race({flag}) por={por}"),
                    forked,
                    explore_replay(&mut b, budget()),
                );
            }
        }
    }

    /// The same agreement on every subject of the suite that opens a
    /// session, at the suite's own budget — what `run_check` would report
    /// from either walk: flood and race, the store races (write-back,
    /// fencing, reconfiguration), the SCD family and the stabilization
    /// trajectories, whose first illegal tick is part of the reason.
    #[test]
    fn fork_and_replay_agree_on_every_suite_subject_with_a_session() {
        let mut compared = 0;
        for subject in suite() {
            let mut target = (subject.build)();
            let Some(forked) = explore_fork(target.as_mut(), Budget::default()) else {
                continue; // register schedules replay only
            };
            compared += 1;
            assert_eq!(
                forked.counterexample.is_some(),
                subject.expect_violation,
                "{}: verdict",
                target.name()
            );
            let replayed = explore_replay((subject.build)().as_mut(), Budget::default());
            check_pair(target.name(), forked, replayed);
        }
        assert_eq!(
            compared, 19,
            "every subject but the four register schedules"
        );
    }

    /// A plan entry past the ready set clamps to its last alternative, a
    /// plan that runs out means default order, forced steps are logged
    /// between the choices, and the reported plan replays the run.
    #[test]
    fn plans_clamp_run_out_to_defaults_and_log_forced_steps() {
        let mut target = flood_target(true);
        let default = target.run(&[]);
        assert!(default.decisions() > 1 && default.plan().iter().all(|&d| d == 0));
        let forced: Vec<_> = default.choices.iter().filter(|c| c.width == 1).collect();
        assert!(!forced.is_empty(), "a flood run has forced steps");
        assert!(forced.iter().all(|c| c.chosen == 0 && c.ready.len() == 1));

        let deviated = target.run(&[99]);
        let first = deviated
            .choices
            .iter()
            .find(|c| c.width > 1)
            .expect("a choice point");
        assert_eq!(
            first.chosen,
            first.width - 1,
            "99 clamps to the last alternative"
        );
        assert_eq!(first.ready.len(), first.width);
        assert!(
            deviated.plan()[1..].iter().all(|&d| d == 0),
            "plan exhausted"
        );
        let replayed = target.run(&deviated.plan());
        assert_eq!(
            format!("{:?}", replayed.choices),
            format!("{:?}", deviated.choices)
        );
    }

    /// Runs `session` to its terminal one choice point at a time, always
    /// taking the default — what `ExploreSession::finish` must equal.
    fn step_to_terminal(session: &mut dyn ExploreSession) {
        while session.advance(&mut Vec::new()) == SessionState::Choice {
            session.choose(0);
        }
    }

    /// The fast-forward is the step-by-step descent: from the initial
    /// state and from a spread of deviated prefixes, on every subject
    /// that opens a session and on the large flood sweep, `finish` lands
    /// in the terminal a loop of `advance`/`choose(0)` reaches — same
    /// verdict, same world fingerprint.
    #[test]
    fn fast_forward_reaches_the_step_by_step_terminal() {
        let mut builds: Vec<fn() -> Box<dyn Target>> =
            suite().into_iter().map(|s| s.build).collect();
        builds.push(flood_exhaustive_large());
        let prefixes: [&[usize]; 6] = [
            &[],
            &[1],
            &[0, 1],
            &[2, 0, 1],
            &[1, 1, 1, 1],
            &[0, 0, 0, 3, 0, 2],
        ];
        let mut sessions = 0;
        for build in builds {
            let mut target = build();
            let name = target.name().to_string();
            for prefix in prefixes {
                let (Some(mut fast), Some(mut slow)) = (target.session(), target.session()) else {
                    break; // register schedules replay only
                };
                sessions += 1;
                for &decision in prefix {
                    for s in [&mut fast, &mut slow] {
                        if s.advance(&mut Vec::new()) == SessionState::Choice {
                            s.choose(decision);
                        }
                    }
                }
                fast.finish();
                step_to_terminal(slow.as_mut());
                assert_eq!(
                    fast.violation().map(|v| v.reason),
                    slow.violation().map(|v| v.reason),
                    "{name} after {prefix:?}: verdicts"
                );
                let fp = fast.fingerprint();
                assert!(fp.is_some(), "{name}: suite worlds fingerprint");
                assert_eq!(
                    fp,
                    slow.fingerprint(),
                    "{name} after {prefix:?}: terminal states"
                );
                // Finishing a finished run changes nothing.
                fast.finish();
                assert_eq!(fp, fast.fingerprint(), "{name}: finish is idempotent");
            }
        }
        assert_eq!(
            sessions,
            20 * prefixes.len(),
            "19 world-backed subjects and the sweep"
        );
    }

    /// Pins the POR/dedup interaction: an epoch bump conservatively wipes
    /// inherited sleep sets, and the dedup key carries the sleep seqs, so
    /// dedup stays sound with POR on — the reduced fork walk must still
    /// exhaust the correct flood space, and with POR *off* the commuting
    /// interleavings it no longer prunes collapse into dedup hits instead.
    #[test]
    fn dedup_composes_with_sleep_set_reduction() {
        let reduced = explore_fork(&mut flood_target(true), budget()).unwrap();
        assert!(reduced.exhausted && reduced.counterexample.is_none());
        let mut plain = flood_target(true);
        plain.disable_reduction();
        let unreduced = explore_fork(&mut plain, budget()).unwrap();
        assert!(unreduced.exhausted && unreduced.counterexample.is_none());
        assert!(
            unreduced.dedup_hits > 0,
            "commuting interleavings must collide on state fingerprints"
        );
        assert!(
            reduced.runs < unreduced.runs,
            "POR must still prune on top of dedup: reduced={} unreduced={}",
            reduced.runs,
            unreduced.runs
        );
    }

    /// The causal-chain witness artifact: replaying a plan under a
    /// `CausalLog` must yield, next to the flight dump, a JSONL file
    /// whose node lines telescope — each node's `cause` is the id of the
    /// line above it, rooted in the environment (cause 0).
    #[test]
    fn causal_chain_dump_telescopes() {
        let field = |line: &str, key: &str| -> u64 {
            let start = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
            line[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let dir = std::env::temp_dir().join("dds-check-causal-chain-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let written = flood_target(true).dump_counterexample(&[1], &dir, "flood", "planted");
        let path = dir.join("flood_chain.jsonl");
        assert_eq!(written, vec![dir.join("flood.jsonl"), path.clone()]);
        let text = std::fs::read_to_string(&path).expect("chain file written");
        let mut lines = text.lines();
        let header = lines.next().expect("header line");
        assert!(header.contains("\"t\":\"causal-chain\""));
        assert!(header.contains("\"reason\":\"planted\""));
        assert!(header.contains("\"plan\":[1]"));
        let mut prev_id = 0u64;
        let mut nodes = 0usize;
        for line in lines {
            if nodes > 0 {
                // The root's cause may name a spawn-time event recorded
                // before the sink was installed; from then on each node's
                // cause is exactly the previous line's id.
                assert_eq!(
                    field(line, "\"cause\":"),
                    prev_id,
                    "chain telescopes: {line}"
                );
            }
            assert_eq!(field(line, "\"depth\":"), nodes as u64);
            let id = field(line, "\"id\":");
            assert!(id > prev_id, "ids ascend along the chain: {line}");
            prev_id = id;
            nodes += 1;
        }
        assert!(nodes >= 2, "a flood run has a multi-hop critical chain");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn register_mutants_are_caught_and_correct_ones_survive() {
        for (mk, caught) in [
            (
                responsive_register_target as fn(bool) -> RegisterTarget,
                true,
            ),
            (majority_register_target, true),
        ] {
            let correct_out = explore(&mut mk(true), budget());
            assert!(
                correct_out.counterexample.is_none(),
                "correct construction flagged: {:?}",
                correct_out.counterexample
            );
            let mut mutant = mk(false);
            let mut found = explore(&mut mutant, budget()).counterexample.is_some();
            if !found {
                found = fuzz(&mut mutant, 1, 300, 64).counterexample.is_some();
            }
            assert_eq!(found, caught, "write-back mutant must be caught");
        }
    }
}
