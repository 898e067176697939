//! Property pins for delta-cost snapshots: incremental fingerprints and
//! copy-on-write forks.
//!
//! A world's fingerprint is assembled from caches — a queue digest kept
//! current on schedule/pop, an actor-table digest kept current as slots
//! are taken, admitted, departed and corrupted (over one memoised
//! sub-digest per slot), a memoised one for the roster — and a fork
//! shares everything it has not touched with its parent. Both are only sound if no mutation path forgets to
//! invalidate or un-share, so the properties here drive random
//! interleavings of every such path (dispatch in any ready order, churn
//! ticks that join, remove, corrupt and scramble, forks at any point) and
//! compare against a *cold* twin: a world that replays the same dispatch
//! decisions without ever being fingerprinted or forked, so its one
//! fingerprint at the end is a from-scratch pass over uncached state.
//! (Debug builds additionally re-derive every cache hit inside
//! `fingerprint` itself.)

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_sim::actor::{Actor, Context};
use dds_sim::driver::{ChurnAction, Scripted};
use dds_sim::event::{Event, EventQueue, TimerId};
use dds_sim::snapshot::StableHasher;
use dds_sim::world::{World, WorldBuilder};
use proptest::prelude::*;

/// A chatty resident whose state mixes everything that happens to it, so
/// a stale digest or a slot shared one dispatch too long shows.
#[derive(Clone)]
struct Noisy {
    state: u64,
}

impl Noisy {
    fn mix(&mut self, x: u64) {
        self.state = (self.state ^ x)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(9);
    }
}

impl Actor<u64> for Noisy {
    fn fork(&self) -> Option<Box<dyn Actor<u64>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StableHasher) -> bool {
        h.write_u64(self.state);
        true
    }

    fn corrupt(&mut self, rng: &mut Rng) -> bool {
        self.state = rng.below(1 << 32);
        true
    }

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.state = ctx.pid().as_raw() + 1;
        ctx.set_timer(TimeDelta::TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _: TimerId) {
        self.mix(ctx.now().as_ticks());
        ctx.broadcast(self.state);
        ctx.set_timer(TimeDelta::ticks(2));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: u64) {
        self.mix(msg);
        if msg & 3 == 0 {
            ctx.send(from, self.state);
        }
    }

    fn on_neighbor_up(&mut self, _: &mut Context<'_, u64>, peer: ProcessId) {
        self.mix(peer.as_raw() << 32);
    }

    fn on_neighbor_down(&mut self, _: &mut Context<'_, u64>, peer: ProcessId) {
        self.mix(!peer.as_raw());
    }
}

fn scramble(msg: &mut u64, rng: &mut Rng) {
    *msg = rng.below(1 << 16);
}

fn msg_fp(msg: &u64, h: &mut StableHasher) {
    h.write_u64(*msg);
}

const HORIZON: u64 = 40;

/// Churn actions a script may name; indices come from the strategy.
fn action(kind: u8) -> ChurnAction {
    match kind % 6 {
        0 => ChurnAction::Join,
        1 => ChurnAction::LeaveRandom,
        2 => ChurnAction::CrashRandom,
        3 => ChurnAction::CorruptRandom,
        4 => ChurnAction::ScrambleQueue,
        _ => ChurnAction::CutEdge(ProcessId::from_raw(0), ProcessId::from_raw(1)),
    }
}

fn world(seed: u64, churn: &[(u64, u8)]) -> World<u64> {
    world_of(5, seed, churn)
}

fn world_of(residents: usize, seed: u64, churn: &[(u64, u8)]) -> World<u64> {
    let mut script: Vec<(Time, ChurnAction)> = churn
        .iter()
        .map(|&(tick, kind)| (Time::from_ticks(tick), action(kind)))
        .collect();
    script.sort_by_key(|&(at, _)| at);
    WorldBuilder::new(seed)
        .initial_graph(generate::ring(residents))
        .driver(Scripted::new(script))
        .corrupt_msg(scramble)
        .spawn(|_| Box::new(Noisy { state: 0 }))
        .build()
}

/// Dispatches the `pick`-th ready event (modulo the ready width);
/// `false` once nothing is pending inside the horizon.
fn step(world: &mut World<u64>, pick: usize) -> bool {
    let mut ready = Vec::new();
    match world.ready_set(&mut ready) {
        Some(at) if at.as_ticks() <= HORIZON => match pick % ready.len() {
            0 => world.step(),
            nth => world.step_nth(nth),
        },
        _ => false,
    }
}

/// A world that replayed `picks` with no fingerprint and no fork along
/// the way: whatever it is asked at the end, it answers from scratch.
fn cold(seed: u64, churn: &[(u64, u8)], picks: &[usize]) -> World<u64> {
    let mut w = world(seed, churn);
    for &pick in picks {
        step(&mut w, pick);
    }
    w
}

fn states(world: &World<u64>) -> Vec<(u64, u64)> {
    (0..64)
        .map(ProcessId::from_raw)
        .filter_map(|p| Some((p.as_raw(), world.actor::<Noisy>(p)?.state)))
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Dispatch one ready event.
    Step(usize),
    /// Fingerprint (and compare with a cold twin).
    Fingerprint,
    /// Fork and carry on in the child, dropping the parent.
    IntoFork,
    /// Fork, carry on in the parent, let the child run ahead first.
    ForkAside(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8).prop_map(Op::Step),
        (0usize..8).prop_map(Op::Step),
        (0usize..8).prop_map(Op::Step),
        Just(Op::Fingerprint),
        Just(Op::IntoFork),
        (1usize..12).prop_map(Op::ForkAside),
    ]
}

fn churn_strategy() -> impl Strategy<Value = Vec<(u64, u8)>> {
    proptest::collection::vec((1u64..HORIZON, 0u8..6), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever was dispatched, forked, corrupted or scrambled since the
    /// caches were last filled, the incremental fingerprint is the one a
    /// from-scratch pass over the same state computes.
    #[test]
    fn incremental_fingerprint_equals_a_from_scratch_pass(
        seed in 0u64..512,
        churn in churn_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut hot = world(seed, &churn);
        let mut picks = Vec::new();
        for op in ops {
            match op {
                Op::Step(pick) => {
                    if step(&mut hot, pick) {
                        picks.push(pick);
                    }
                }
                Op::Fingerprint => {
                    let twin = cold(seed, &churn, &picks);
                    prop_assert_eq!(hot.fingerprint(msg_fp), twin.fingerprint(msg_fp));
                }
                Op::IntoFork => hot = hot.try_fork().expect("every component forks"),
                Op::ForkAside(ahead) => {
                    let mut child = hot.try_fork().expect("every component forks");
                    for k in 0..ahead {
                        step(&mut child, k);
                    }
                    // The child's caches and the parent's share a past
                    // and nothing else.
                    prop_assert!(child.fingerprint(msg_fp).is_some());
                }
            }
        }
        let twin = cold(seed, &churn, &picks);
        let fp = hot.fingerprint(msg_fp);
        prop_assert!(fp.is_some(), "every resident opts into fingerprinting");
        prop_assert_eq!(fp, twin.fingerprint(msg_fp));
        prop_assert_eq!(states(&hot), states(&twin));
        prop_assert_eq!(hot.members(), twin.members());
    }

    /// Stepping a child changes nothing its parent or a sibling can
    /// observe: not their fingerprint, not an actor's bytes, not what
    /// they go on to do.
    #[test]
    fn stepping_a_fork_never_leaks_into_parent_or_sibling(
        seed in 0u64..512,
        churn in churn_strategy(),
        prefix in proptest::collection::vec(0usize..8, 0..40),
        ahead in proptest::collection::vec(0usize..8, 1..40),
        suffix in proptest::collection::vec(0usize..8, 0..40),
    ) {
        let mut parent = world(seed, &churn);
        for &pick in &prefix {
            step(&mut parent, pick);
        }
        let before = (parent.fingerprint(msg_fp), states(&parent));
        let mut child = parent.try_fork().expect("every component forks");
        let mut sibling = parent.try_fork().expect("every component forks");
        for &pick in &ahead {
            step(&mut child, pick);
        }
        prop_assert_eq!(&(parent.fingerprint(msg_fp), states(&parent)), &before);
        prop_assert_eq!(&(sibling.fingerprint(msg_fp), states(&sibling)), &before);
        drop(child);
        // Same decisions from here on, same future — and the future of a
        // world that was never forked at all.
        let mut twin = cold(seed, &churn, &prefix);
        for &pick in &suffix {
            let stepped = step(&mut parent, pick);
            prop_assert_eq!(step(&mut sibling, pick), stepped);
            prop_assert_eq!(step(&mut twin, pick), stepped);
        }
        let after = (twin.fingerprint(msg_fp), states(&twin));
        prop_assert_eq!(&(parent.fingerprint(msg_fp), states(&parent)), &after);
        prop_assert_eq!(&(sibling.fingerprint(msg_fp), states(&sibling)), &after);
    }
}

/// More residents than the running actor-table digest lists as stale
/// before it gives up, so a burst of dispatches takes that path too.
const CROWD: usize = 12;

#[derive(Debug, Clone, Copy)]
enum TableOp {
    /// Dispatch the `pick`-th ready event: `step_nth`, and `step` when
    /// `pick` is 0. Scripted churn ticks among them admit, depart and
    /// corrupt.
    Step(usize),
    /// Dispatch several events with no fingerprint in between.
    Burst(usize),
    /// Replace the fork by a fresh one of the parent.
    Refork,
    /// Carry on from the fork: it becomes the parent, and is forked.
    Descend,
}

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0usize..8).prop_map(TableOp::Step),
        (0usize..8).prop_map(TableOp::Step),
        (2usize..60).prop_map(TableOp::Burst),
        Just(TableOp::Refork),
        Just(TableOp::Descend),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every operation — dispatch in any ready order, admissions,
    /// departures and corruptions from the churn script, forks — the
    /// running fingerprint of a parent and of its fork is the one a
    /// from-scratch pass computes: that of a twin that was never
    /// fingerprinted or forked on the way here.
    #[test]
    fn running_fingerprint_equals_a_rescan_after_every_op(
        seed in 0u64..512,
        // A crowd dispatches some forty events per tick: churn comes
        // early, or the ops never reach it.
        churn in proptest::collection::vec((1u64..6, 0u8..6), 1..10),
        ops in proptest::collection::vec(table_op_strategy(), 1..40),
    ) {
        let mut parent = world_of(CROWD, seed, &churn);
        // Fingerprinted before the first fork, so forks inherit running
        // digests, stale slots and all.
        prop_assert!(parent.fingerprint(msg_fp).is_some());
        let mut fork = parent.try_fork().expect("every component forks");
        let mut picks = Vec::new();
        for op in ops {
            match op {
                TableOp::Step(pick) | TableOp::Burst(pick) => {
                    let steps = if matches!(op, TableOp::Burst(_)) { pick } else { 1 };
                    for k in 0..steps {
                        let stepped = step(&mut parent, pick + k);
                        prop_assert_eq!(step(&mut fork, pick + k), stepped);
                        if stepped {
                            picks.push(pick + k);
                        }
                    }
                }
                TableOp::Refork => fork = parent.try_fork().expect("every component forks"),
                TableOp::Descend => {
                    parent = fork;
                    fork = parent.try_fork().expect("every component forks");
                }
            }
            let mut twin = world_of(CROWD, seed, &churn);
            for &pick in &picks {
                step(&mut twin, pick);
            }
            let scratch = twin.fingerprint(msg_fp);
            prop_assert!(scratch.is_some(), "every resident opts into fingerprinting");
            prop_assert_eq!(parent.fingerprint(msg_fp), scratch, "parent after {:?}", op);
            prop_assert_eq!(fork.fingerprint(msg_fp), scratch, "fork after {:?}", op);
        }
    }
}

/// One step of a queue workload.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Schedule(u64),
    Pop,
    PopNth(usize),
    Scramble,
    Fingerprint,
    IntoClone,
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..21).prop_map(QueueOp::Schedule),
        (0u64..21).prop_map(QueueOp::Schedule),
        (120u64..400).prop_map(QueueOp::Schedule),
        Just(QueueOp::Pop),
        (0usize..4).prop_map(QueueOp::PopNth),
        Just(QueueOp::Scramble),
        Just(QueueOp::Fingerprint),
        Just(QueueOp::Fingerprint),
        Just(QueueOp::IntoClone),
    ]
}

fn queue_digest(q: &EventQueue<u64>) -> u64 {
    let mut h = StableHasher::new();
    q.fingerprint(&mut h, msg_fp);
    h.finish()
}

/// Applies `ops` to `queue`; with `hot` every `Fingerprint` op is taken
/// (so the digest is tracked from the first one on), without none is.
/// Returns the digests taken, each with the number of ops before it.
fn drive(
    mut queue: EventQueue<u64>,
    ops: &[QueueOp],
    hot: bool,
) -> (Vec<(usize, u64)>, EventQueue<u64>) {
    let pid = ProcessId::from_raw(0);
    let mut now = Time::ZERO;
    let mut rng = Rng::seeded(7);
    let mut digests = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            QueueOp::Schedule(delta) => queue.schedule(
                now + TimeDelta::ticks(delta),
                Event::Deliver {
                    from: pid,
                    to: pid,
                    sent: now,
                    cause: 0,
                    msg: i as u64,
                },
            ),
            QueueOp::Pop => {
                if let Some((at, _)) = queue.pop() {
                    now = at;
                }
            }
            QueueOp::PopNth(n) => {
                // Even a refused pop slides the queue's window to the
                // front, and a walk and the tracked sum only agree on
                // schedules at or after it (the kernel's clock is there
                // by then too).
                now = now.max(queue.peek_time().unwrap_or(now));
                if let Some((at, _)) = queue.pop_nth(n) {
                    now = at;
                }
            }
            QueueOp::Scramble => {
                queue.scramble_payloads(&mut rng, scramble);
            }
            QueueOp::Fingerprint if hot => digests.push((i, queue_digest(&queue))),
            QueueOp::Fingerprint => {}
            QueueOp::IntoClone => queue = queue.clone(),
        }
    }
    (digests, queue)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tracked queue digest is the walked one, through clones,
    /// scrambles and overflow migration.
    #[test]
    fn tracked_queue_digest_equals_a_walk(
        ops in proptest::collection::vec(queue_op_strategy(), 0..120),
    ) {
        let (digests, hot) = drive(EventQueue::new(), &ops, true);
        // A queue nobody fingerprinted on the way walks its events when
        // it is finally asked.
        for (taken_after, digest) in digests {
            let (_, cold) = drive(EventQueue::new(), &ops[..taken_after], false);
            prop_assert_eq!(digest, queue_digest(&cold));
        }
        let (_, cold) = drive(EventQueue::new(), &ops, false);
        prop_assert_eq!(queue_digest(&hot), queue_digest(&cold));
    }
}
