//! The simulation kernel: a deterministic world of joining, leaving,
//! crashing, message-passing processes.
//!
//! A [`World`] owns the event queue, the knowledge graph, the actors, the
//! churn driver and the membership trace. Runs are bit-reproducible: given
//! the same [`WorldBuilder`] configuration and seed, every event fires in
//! the same order (DESIGN.md §7).
//!
//! The flow of one event: pop the earliest `(time, seq)` event → dispatch
//! to the destination actor (or the churn driver) → the actor's buffered
//! effects (sends, timers, leaves) are applied → resulting notifications
//! (neighbor up/down, starts) run as nested callbacks at the same instant.
//!
//! Each event is written once. Membership changes go to the [`Trace`]
//! (what the specifications judge against) and to the sink; message
//! traffic is counted in [`Metrics`], moves the trace's horizon, and is
//! otherwise only streamed to the sink, when one is installed.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use dds_core::process::{IdSource, ProcessId};
use dds_core::rng::Rng;
use dds_core::run::{Causality, Trace, TraceEvent};
use dds_core::time::Time;
use dds_net::dynamic::{AttachRule, RepairRule};
use dds_net::graph::Graph;
use dds_obs::{ObsEvent, Sink};

use crate::actor::{Actor, Context, Effect};
use crate::delay::{DelayModel, LossModel};
use crate::driver::{ChurnAction, ChurnDriver, NoChurn};
use crate::event::{Event, EventQueue, ReadySummary, TimerId};
use crate::metrics::Metrics;
use crate::slots::{DenseMap, SlotTable};
use crate::snapshot::StableHasher;

/// How the knowledge graph evolves when processes join and depart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyPolicy {
    /// Wiring rule for joiners.
    pub attach: AttachRule,
    /// Repair rule around departures.
    pub repair: RepairRule,
}

impl Default for TopologyPolicy {
    /// Random-3 attachment with neighbor bridging: a reasonable overlay
    /// that maintains connectivity with high probability.
    fn default() -> Self {
        TopologyPolicy {
            attach: AttachRule::RandomK(3),
            repair: RepairRule::BridgeNeighbors,
        }
    }
}

type SpawnFn<M> = Box<dyn FnMut(ProcessId) -> Box<dyn Actor<M>>>;
type ValueFn = Box<dyn FnMut(ProcessId, &mut Rng) -> f64>;

/// Builder for a simulated world.
///
/// # Examples
///
/// ```
/// use dds_net::generate;
/// use dds_sim::world::WorldBuilder;
/// use dds_sim::actor::{Actor, Context};
/// use dds_core::process::ProcessId;
///
/// struct Silent;
/// impl Actor<()> for Silent {
///     fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}
/// }
///
/// let mut world = WorldBuilder::new(42)
///     .initial_graph(generate::ring(5))
///     .spawn(|_| Box::new(Silent))
///     .build();
/// assert_eq!(world.members().len(), 5);
/// ```
pub struct WorldBuilder<M> {
    seed: u64,
    initial_graph: Graph,
    policy: TopologyPolicy,
    delay: DelayModel,
    loss: LossModel,
    driver: Box<dyn ChurnDriver>,
    spawn: Option<SpawnFn<M>>,
    value: ValueFn,
    sink: Option<Box<dyn Sink>>,
    corrupt_msg: Option<fn(&mut M, &mut Rng)>,
}

impl<M> fmt::Debug for WorldBuilder<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorldBuilder")
            .field("seed", &self.seed)
            .field("initial_graph", &self.initial_graph)
            .field("policy", &self.policy)
            .field("delay", &self.delay)
            .field("loss", &self.loss)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + 'static> WorldBuilder<M> {
    /// Starts a builder with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        WorldBuilder {
            seed,
            initial_graph: Graph::new(),
            policy: TopologyPolicy::default(),
            delay: DelayModel::Fixed(dds_core::time::TimeDelta::TICK),
            loss: LossModel::None,
            driver: Box::new(NoChurn),
            spawn: None,
            value: Box::new(|_, rng| rng.unit_f64() * 100.0),
            sink: None,
            corrupt_msg: None,
        }
    }

    /// Sets the initial knowledge graph; its nodes become the initial
    /// membership.
    pub fn initial_graph(mut self, graph: Graph) -> Self {
        self.initial_graph = graph;
        self
    }

    /// Sets the topology policy for churn.
    pub fn policy(mut self, policy: TopologyPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the message delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the message loss model.
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the churn driver.
    pub fn driver(mut self, driver: impl ChurnDriver + 'static) -> Self {
        self.driver = Box::new(driver);
        self
    }

    /// Sets the churn driver from an already-boxed trait object (the form
    /// harnesses that also feed [`World::reset`] keep it in).
    pub fn boxed_driver(mut self, driver: Box<dyn ChurnDriver>) -> Self {
        self.driver = driver;
        self
    }

    /// Sets the actor factory invoked for every process that enters the
    /// system.
    pub fn spawn(mut self, f: impl FnMut(ProcessId) -> Box<dyn Actor<M>> + 'static) -> Self {
        self.spawn = Some(Box::new(f));
        self
    }

    /// Sets the function assigning each process its local value.
    pub fn values(mut self, f: impl FnMut(ProcessId, &mut Rng) -> f64 + 'static) -> Self {
        self.value = Box::new(f);
        self
    }

    /// Installs an observability sink ([`dds_obs::Sink`]): the kernel
    /// feeds it one [`dds_obs::ObsEvent`] per observable action, starting
    /// with the initial joins. With no sink installed (the default) the
    /// dispatch loop pays one branch per event and allocates nothing.
    pub fn sink(mut self, sink: impl Sink) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Registers the payload-corruption hook backing
    /// [`crate::driver::ChurnAction::ScrambleQueue`]: when the corruption
    /// adversary scrambles the queue, every pending message payload is
    /// rewritten through `f` in canonical `(time, seq)` order. Like the
    /// actor factory, the hook is run configuration: it survives
    /// [`World::reset`] and is shared with forks. Without it (the
    /// default), queue scrambles are no-ops.
    pub fn corrupt_msg(mut self, f: fn(&mut M, &mut Rng)) -> Self {
        self.corrupt_msg = Some(f);
        self
    }

    /// Builds the world and runs the initial `on_start` callbacks at
    /// `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if no actor factory was provided.
    pub fn build(self) -> World<M> {
        let spawn = self.spawn.expect("WorldBuilder::spawn is required");
        let mut world = World {
            now: Time::ZERO,
            queue: EventQueue::new(),
            rng: Rng::seeded(self.seed),
            ids: IdSource::new(),
            roster: Rc::new(Roster {
                graph: Graph::new(),
                values: DenseMap::new(),
                digest: Cell::new(None),
            }),
            policy: self.policy,
            delay: self.delay,
            loss: self.loss,
            driver: self.driver,
            spawn: Rc::new(RefCell::new(spawn)),
            value_fn: Rc::new(RefCell::new(self.value)),
            actors: SlotTable::new(),
            table_digest: Cell::new(None),
            trace: Trace::new(),
            metrics: Metrics::default(),
            next_timer: 0,
            callbacks: VecDeque::new(),
            effect_buf: Vec::new(),
            sink: self.sink,
            corrupt_msg: self.corrupt_msg,
            epoch: 0,
            next_obs_id: 1,
            current_cause: 0,
        };
        world.seat_initial(&self.initial_graph);
        world
    }
}

/// The per-run configuration [`World::reset`] replaces: everything a
/// [`WorldBuilder`] sets except the initial graph (passed alongside, by
/// reference) and the actor/value factories, which the reused world keeps.
pub struct ResetSpec {
    /// Determinism seed for the new run.
    pub seed: u64,
    /// Topology maintenance policy.
    pub policy: TopologyPolicy,
    /// Message delay model.
    pub delay: DelayModel,
    /// Message loss model.
    pub loss: LossModel,
    /// Churn driver for the new run.
    pub driver: Box<dyn ChurnDriver>,
    /// Observability sink, if any.
    pub sink: Option<Box<dyn Sink>>,
}

impl fmt::Debug for ResetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResetSpec")
            .field("seed", &self.seed)
            .field("policy", &self.policy)
            .field("delay", &self.delay)
            .field("loss", &self.loss)
            .finish_non_exhaustive()
    }
}

/// Reads the memo in `cell`, filling it from `scan` on a miss. Debug
/// builds re-derive every hit: a mutation path that forgot to clear the
/// memo fails there instead of merging two distinct states.
fn memoised<T: Copy + PartialEq + fmt::Debug>(cell: &Cell<Option<T>>, scan: impl Fn() -> T) -> T {
    if let Some(memo) = cell.get() {
        debug_assert_eq!(memo, scan(), "state changed behind its memoised digest");
        return memo;
    }
    let fresh = scan();
    cell.set(Some(fresh));
    fresh
}

/// One seated actor and what the kernel remembers about it between two
/// mutations. A fork's slot table holds clones of its parent's cells: the
/// actor itself is shared by reference count, and the first dispatch to
/// a shared one replaces it with that world's own copy. The actor sits
/// in the `Rc`'s allocation (not behind a second pointer), so dispatch
/// reaches it in as many hops as it took to reach a `Box`.
struct ActorCell<M> {
    actor: Rc<dyn Actor<M>>,
    /// Memoised [`ActorCell::digest`] (`Some(None)`: the actor opts
    /// out), valid until the next [`ActorCell::retire`].
    digest: Cell<Option<Option<u64>>>,
    /// Whether [`Actor::fork`] answers `Some`, asked once per actor.
    forks: Cell<Option<bool>>,
}

// Not derived: `M` itself need not be `Clone`.
impl<M> Clone for ActorCell<M> {
    fn clone(&self) -> Self {
        ActorCell {
            actor: Rc::clone(&self.actor),
            digest: self.digest.clone(),
            forks: self.forks.clone(),
        }
    }
}

impl<M: 'static> ActorCell<M> {
    fn seat(actor: Box<dyn Actor<M>>) -> Self {
        ActorCell {
            actor: Rc::from(actor),
            digest: Cell::new(None),
            forks: Cell::new(None),
        }
    }

    fn can_fork(&self) -> bool {
        self.forks.get().unwrap_or_else(|| {
            let forks = self.actor.fork().is_some();
            self.forks.set(Some(forks));
            forks
        })
    }

    /// What this cell, seated under `pid`, contributes to a world
    /// fingerprint — the identity, whether it is present and the actor's
    /// state in a hasher of their own — or `None` when the actor does not
    /// support fingerprinting.
    fn digest(&self, pid: ProcessId, present: bool) -> Option<u64> {
        memoised(&self.digest, || {
            let mut h = StableHasher::new();
            h.write_u64(pid.as_raw());
            h.write_bool(present);
            self.actor.fingerprint(&mut h).then(|| h.summand())
        })
    }

    /// Forgets the memoised digest ahead of a change to the actor or to
    /// its presence, taking it out of the running sum `table` (if one is
    /// kept) and listing the slot there for the next fingerprint.
    fn retire(&self, pid: ProcessId, table: &mut Option<TableDigest>) {
        if let (Some(Some(digest)), Some(t)) = (self.digest.take(), table.as_mut()) {
            t.sum = t.sum.wrapping_sub(digest);
            TableDigest::push_stale(table, pid);
        }
    }

    /// The only `&mut` path to a seated actor, for a cell that was
    /// [retired](ActorCell::retire): un-shares the actor from any other
    /// world still holding it.
    fn make_mut(&mut self) -> &mut dyn Actor<M> {
        debug_assert!(
            self.digest.get().is_none(),
            "retire the cell before mutating its actor"
        );
        if Rc::get_mut(&mut self.actor).is_none() {
            let own = self.actor.fork().expect(
                "only worlds whose actors all fork are forked, and an actor that forked once keeps forking",
            );
            self.actor = Rc::from(own);
        }
        Rc::get_mut(&mut self.actor).expect("unshared above")
    }
}

/// The membership-shaped state: everything that changes only when the
/// mutation `epoch` does. Forks share it by reference count until one of
/// them admits, departs or rewires a process.
#[derive(Clone)]
struct Roster {
    graph: Graph,
    /// Dense identity-indexed local values (retained after departure).
    values: DenseMap<f64>,
    /// Memoised [`Roster::digest`], valid until the next
    /// [`Roster::make_mut`].
    digest: Cell<Option<u64>>,
}

impl Roster {
    /// Membership, adjacency and values (bit-exact) as one digest.
    fn digest(&self) -> u64 {
        memoised(&self.digest, || {
            let mut h = StableHasher::new();
            h.write_usize(self.graph.node_count());
            for pid in self.graph.nodes() {
                h.write_u64(pid.as_raw());
                let nbrs = self.graph.neighbors(pid).unwrap_or(&[]);
                h.write_usize(nbrs.len());
                for &n in nbrs {
                    h.write_u64(n.as_raw());
                }
            }
            for (pid, v) in self.values.iter() {
                h.write_u64(pid.as_raw());
                h.write_u64(v.to_bits());
            }
            h.finish()
        })
    }

    /// The only `&mut` path to a world's roster: un-shares it from any
    /// fork still holding it and forgets the memoised digest.
    fn make_mut(this: &mut Rc<Self>) -> &mut Roster {
        let roster = Rc::make_mut(this);
        roster.digest.set(None);
        roster
    }
}

/// Most slots a [`TableDigest`] lists as stale: a dispatch or two lie
/// between the fingerprints of a world under exploration, and upkeep past
/// that has outrun what a rescan costs.
const STALE_ROOM: usize = 8;

/// The running state of an incrementally maintained actor-table digest,
/// kept the way the queue keeps its own ([`EventQueue::fingerprint`]).
#[derive(Clone, Copy)]
struct TableDigest {
    /// Wrapping sum of [`ActorCell::digest`] over every occupied slot
    /// whose memo is filled.
    sum: u64,
    /// The slots whose memo is empty ([retired](ActorCell::retire) since
    /// the last fingerprint, or admitted): `stale[..stale_len]`. The next
    /// fingerprint adds what they hold by then.
    stale: [ProcessId; STALE_ROOM],
    stale_len: usize,
}

impl TableDigest {
    /// Lists `pid` as stale; with no room left the digest is given up
    /// (`table` becomes `None`: the next fingerprint rescans).
    fn push_stale(table: &mut Option<TableDigest>, pid: ProcessId) {
        match table {
            Some(t) if t.stale_len < STALE_ROOM => {
                t.stale[t.stale_len] = pid;
                t.stale_len += 1;
            }
            _ => *table = None,
        }
    }
}

/// A pending actor callback at the current instant, paired with the id of
/// the kernel event that caused it (`0` = the environment) so effects the
/// callback produces inherit the right `cause` edge.
enum Callback<M> {
    Start(ProcessId),
    Message {
        to: ProcessId,
        from: ProcessId,
        msg: M,
    },
    Timer {
        pid: ProcessId,
        timer: TimerId,
    },
    NeighborUp {
        pid: ProcessId,
        peer: ProcessId,
    },
    NeighborDown {
        pid: ProcessId,
        peer: ProcessId,
    },
    NeighborBridge {
        pid: ProcessId,
        peer: ProcessId,
        replaced: ProcessId,
    },
}

/// A running simulated world. Build one with [`WorldBuilder`].
pub struct World<M> {
    now: Time,
    queue: EventQueue<M>,
    rng: Rng,
    ids: IdSource,
    /// Knowledge graph, membership and values; mutate through
    /// [`Roster::make_mut`] only.
    roster: Rc<Roster>,
    policy: TopologyPolicy,
    delay: DelayModel,
    loss: LossModel,
    driver: Box<dyn ChurnDriver>,
    /// Actor factory, shared (not cloned) with forks of this world: the
    /// factory is run configuration, and `Rc` keeps forking O(live state).
    spawn: Rc<RefCell<SpawnFn<M>>>,
    /// Value function, shared with forks like `spawn`.
    value_fn: Rc<RefCell<ValueFn>>,
    /// Dense identity-indexed actor table; present actors dispatch,
    /// departed ones are retained for post-run inspection. Mutate an
    /// actor through [`ActorCell::make_mut`] only.
    actors: SlotTable<ActorCell<M>>,
    /// `Some` from the first [`World::fingerprint`] call on (inherited by
    /// forks, dropped by [`World::reset`] and
    /// [`World::forget_fingerprint`]): the actor table's digest, so the
    /// next fingerprint costs the slots that changed, not the table.
    table_digest: Cell<Option<TableDigest>>,
    trace: Trace,
    metrics: Metrics,
    next_timer: u64,
    callbacks: VecDeque<(u64, Callback<M>)>,
    /// Reusable effect buffer handed to each callback's `Context`, so a
    /// steady-state dispatch allocates nothing.
    effect_buf: Vec<Effect<M>>,
    /// Optional observability sink; `None` (the default) keeps the
    /// dispatch loop on its allocation-free fast path.
    sink: Option<Box<dyn Sink>>,
    /// Payload-corruption hook for queue scrambles — run configuration
    /// like `spawn`, kept across [`World::reset`] and carried into forks.
    corrupt_msg: Option<fn(&mut M, &mut Rng)>,
    /// Mutation epoch: bumped on every membership or topology change, so
    /// schedule explorers can invalidate commutativity assumptions.
    epoch: u64,
    /// Next causal event id to hand out (`0` is reserved for "the
    /// environment"). Ids are assigned unconditionally at dispatch — a
    /// plain counter increment, so the no-sink fast path stays
    /// allocation-free and id assignment is identical with and without a
    /// sink installed. Excluded from [`World::fingerprint`], like the
    /// trace.
    next_obs_id: u64,
    /// The id of the event whose callback is currently producing effects
    /// (`0` between dispatches): sends, timer-sets and leaves performed by
    /// an actor are caused by the event that invoked it.
    current_cause: u64,
}

impl<M> fmt::Debug for World<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("members", &self.roster.graph.node_count())
            .field("pending_events", &self.queue.len())
            .field("metrics", &self.metrics)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + 'static> World<M> {
    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Seats the initial membership of a (fresh or reset) world and runs
    /// the `on_start` callbacks at `t = 0`.
    fn seat_initial(&mut self, initial: &Graph) {
        let next_raw = initial.nodes().map(|p| p.as_raw() + 1).max().unwrap_or(0);
        self.ids = IdSource::starting_at(next_raw);
        let intent = self.driver.intent();
        self.trace
            .set_intent(intent.arrivals_finite, intent.concurrency_finite);
        for pid in initial.nodes() {
            let value = (self.value_fn.borrow_mut())(pid, &mut self.rng);
            Roster::make_mut(&mut self.roster).values.insert(pid, value);
            let actor = (self.spawn.borrow_mut())(pid);
            self.actors.insert(pid, ActorCell::seat(actor));
            // Each initial join gets an event id; the process's Start
            // callback carries it so first-step effects trace back to the
            // spawn (the spawn → first-step cause edge).
            let join_id = self.fresh_id();
            let causal = Causality {
                id: join_id,
                cause: 0,
            };
            self.trace.push(TraceEvent::Join {
                pid,
                at: Time::ZERO,
            });
            self.metrics.joins += 1;
            self.emit(
                ObsEvent::Join {
                    pid,
                    at: Time::ZERO,
                },
                causal,
            );
            self.callbacks.push_back((join_id, Callback::Start(pid)));
        }
        // `clone_from` keeps the table and neighbor lists a previous run
        // left behind, so a reset world takes its graph back in place.
        Roster::make_mut(&mut self.roster).graph.clone_from(initial);
        self.metrics.max_membership = initial.node_count();
        self.drain_callbacks();
        if let Some(t) = self.driver.initial_wakeup() {
            self.queue.schedule(t, Event::ChurnTick);
        }
    }

    /// Rewinds this world to the state a fresh [`WorldBuilder::build`]
    /// with the given configuration would produce, **reusing** the
    /// allocations accumulated by previous runs: event-queue buckets, the
    /// callback queue, the effect buffer, the graph's table and neighbor
    /// lists, and the slot and trace storage. The actor factory and value
    /// function from the original build are kept — reuse a world only
    /// across runs that share them (a sweep cell where only the seed
    /// varies, in practice).
    ///
    /// A reset world reproduces a freshly built world's run byte for byte
    /// (pinned by the `world_reset` regression test).
    pub fn reset(&mut self, initial_graph: &Graph, spec: ResetSpec) {
        self.now = Time::ZERO;
        self.queue.clear();
        self.rng = Rng::seeded(spec.seed);
        self.policy = spec.policy;
        self.delay = spec.delay;
        self.loss = spec.loss;
        self.driver = spec.driver;
        self.actors.clear();
        self.table_digest.set(None);
        let roster = Roster::make_mut(&mut self.roster);
        roster.values.clear();
        self.trace.clear();
        self.metrics = Metrics::default();
        self.next_timer = 0;
        self.callbacks.clear();
        self.sink = spec.sink;
        self.epoch = 0;
        self.next_obs_id = 1;
        self.current_cause = 0;
        self.seat_initial(initial_graph);
    }

    /// The current membership, in identity order. Borrows the graph's
    /// node list — call `.to_vec()` if you need an owned copy.
    pub fn members(&self) -> &[ProcessId] {
        self.roster.graph.members()
    }

    /// The current knowledge graph.
    pub fn graph(&self) -> &Graph {
        &self.roster.graph
    }

    /// The run trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Forwards `ev` to the installed sink, if any — the hook harnesses
    /// use to add their own observations (protocol round/phase spans) to
    /// the kernel's stream. The observation gets a fresh event id so it
    /// becomes a node of the causal DAG; its cause is the event being
    /// dispatched when it is emitted mid-callback, or the environment
    /// (`0`) when emitted between steps.
    pub fn observe(&mut self, ev: ObsEvent) {
        let causal = Causality {
            id: self.fresh_id(),
            cause: self.current_cause,
        };
        self.emit(ev, causal);
    }

    /// Installs (or replaces) the observability sink mid-run.
    pub fn set_sink(&mut self, sink: impl Sink) {
        self.sink = Some(Box::new(sink));
    }

    /// Removes and returns the installed sink, restoring the
    /// allocation-free fast path. Harnesses call this after a run to
    /// recover what it accumulated (an observer's [`dds_obs::RunReport`]
    /// and [`dds_obs::CausalLog`]).
    pub fn take_sink(&mut self) -> Option<Box<dyn Sink>> {
        self.sink.take()
    }

    /// The current mutation epoch: increments on every join, departure and
    /// edge change, letting schedule explorers conservatively invalidate
    /// commutativity assumptions across such boundaries.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[inline]
    fn emit(&mut self, ev: ObsEvent, causal: Causality) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&ev, causal);
        }
    }

    /// Hands out the next causal event id. Called on every identified
    /// kernel event regardless of whether a sink is installed, so the id
    /// sequence — and therefore every downstream causal artifact — is a
    /// pure function of the run, never of observation.
    #[inline]
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_obs_id;
        self.next_obs_id += 1;
        id
    }

    /// The local value of a process (present or departed).
    pub fn value_of(&self, pid: ProcessId) -> Option<f64> {
        self.roster.values.get(pid).copied()
    }

    /// The local values of every process that ever joined.
    pub fn values(&self) -> &DenseMap<f64> {
        &self.roster.values
    }

    /// Inspects an actor's state by downcasting (present or departed
    /// processes).
    pub fn actor<A: Actor<M>>(&self, pid: ProcessId) -> Option<&A> {
        self.actors.get_any(pid).and_then(|cell| {
            let any: &dyn Any = &*cell.actor;
            any.downcast_ref::<A>()
        })
    }

    /// Schedules delivery of `msg` to `pid` at instant `at` (from itself) —
    /// the hook the harness uses to start protocol instances.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject(&mut self, at: Time, pid: ProcessId, msg: M) {
        assert!(at >= self.now, "cannot inject into the past");
        self.queue.schedule(
            at,
            Event::Deliver {
                from: pid,
                to: pid,
                sent: at,
                cause: 0, // injected by the environment
                msg,
            },
        );
    }

    /// Dispatches the next event in `(time, seq)` order. Returns `false`
    /// when the queue is empty.
    ///
    /// Same-instant ties are the kernel's only nondeterminism, and it is
    /// resolved from outside: a caller that wants another order inspects
    /// the tie with [`World::ready_set`] and dispatches its pick with
    /// [`World::step_nth`].
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(at, event);
        true
    }

    /// Dispatches the `n`-th ready event (seq order) at the earliest
    /// pending instant — the primitive schedule explorers and plan
    /// replays drive choice points with; `step_nth(0)` is [`World::step`].
    /// Returns `false` when the queue is empty or `n` is out of range.
    pub fn step_nth(&mut self, n: usize) -> bool {
        let Some((at, event)) = self.queue.pop_nth(n) else {
            return false;
        };
        self.dispatch(at, event);
        true
    }

    /// Fills `out` with the ready set (every event pending at the
    /// earliest instant, in seq order), returning that instant — the
    /// inspection half of [`World::step_nth`].
    pub fn ready_set(&mut self, out: &mut Vec<ReadySummary>) -> Option<Time> {
        self.queue.ready_set(out)
    }

    /// The instant of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Advances the clock to `deadline` without dispatching anything —
    /// the tail of [`World::run_until`], split out for explorers that
    /// drive dispatch through [`World::step_nth`].
    pub fn idle_until(&mut self, deadline: Time) {
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Whether every seated actor forks and no callback is mid-flight —
    /// all [`World::try_fork`] needs besides a fork of the driver.
    fn actors_fork(&self) -> bool {
        self.callbacks.is_empty()
            && self
                .actors
                .iter_entries()
                .all(|(_, cell, _)| cell.can_fork())
    }

    /// `true` when [`World::try_fork`] would succeed — the question a
    /// forking explorer asks once, before committing to snapshots.
    pub fn can_fork(&self) -> bool {
        self.actors_fork() && self.driver.fork().is_some()
    }

    /// Snapshots this world into an independent copy that will replay the
    /// exact same future for the same dispatch decisions, or `None` when
    /// some component does not support forking (an actor or the churn
    /// driver returned `None` from its `fork` hook, or a callback is
    /// mid-flight).
    ///
    /// Cost is O(pending events + process slots), not O(world): the
    /// queue's pending events (into one allocation) and the driver are
    /// copied; the roster (graph, membership, values) and every actor
    /// slot, departed ones included, are *shared* by reference count and
    /// copied — actors through [`Actor::fork`] — by whichever side first
    /// mutates them; the running digests behind [`World::fingerprint`]
    /// are inherited;
    /// the actor factory and value function are shared outright (they are
    /// immutable run configuration). Each actor is asked once whether it
    /// forks, so support must not depend on its momentary state. Sinks
    /// are run-scoped and not carried into the fork, mirroring
    /// [`World::reset`].
    ///
    /// The fork starts with an *empty* trace: the trace is an
    /// observational accumulator that grows with every membership
    /// change, so copying it would make each fork O(churn-so-far)
    /// instead of O(live state), and nothing behavioral reads it
    /// (fingerprints exclude it; checkers read actor state;
    /// counterexample dumps replay the plan from scratch, which
    /// regenerates the full trace).
    pub fn try_fork(&self) -> Option<World<M>> {
        if !self.actors_fork() {
            return None;
        }
        let driver = self.driver.fork()?;
        Some(World {
            now: self.now,
            queue: self.queue.clone(),
            rng: self.rng.clone(),
            ids: self.ids.clone(),
            roster: Rc::clone(&self.roster),
            policy: self.policy,
            delay: self.delay,
            loss: self.loss,
            driver,
            spawn: Rc::clone(&self.spawn),
            value_fn: Rc::clone(&self.value_fn),
            actors: self.actors.clone(),
            table_digest: self.table_digest.clone(),
            trace: Trace::new(),
            metrics: self.metrics,
            next_timer: self.next_timer,
            callbacks: VecDeque::new(),
            effect_buf: Vec::new(),
            sink: None,
            corrupt_msg: self.corrupt_msg,
            epoch: self.epoch,
            // Causal ids continue from the parent so the fork's future
            // events never reuse an id the shared prefix already assigned.
            next_obs_id: self.next_obs_id,
            current_cause: self.current_cause,
        })
    }

    /// Canonical fingerprint of the world's *behavioral* state, or `None`
    /// when some actor or the churn driver does not support
    /// fingerprinting.
    ///
    /// Two worlds with equal fingerprints are (up to hash collision)
    /// indistinguishable to any future schedule: the hash covers the
    /// clock, mutation epoch, timer counter, the raw RNG stream position
    /// (two states that differ only in how many draws they consumed
    /// diverge on the next draw, so the stream position *must* be
    /// hashed), identity allocation, membership, graph adjacency, local
    /// values (bit-exact), every actor slot including departed ones, the
    /// driver, and the pending event set including its seq numbering.
    /// Trace and metrics are deliberately excluded: they are
    /// observational accumulators that cannot influence future behavior,
    /// so deduplicating across them is what makes dedup useful — but it
    /// means a pruned branch's trace/metrics are those of the first visit.
    ///
    /// Cost is O(what changed since the last call): the roster enters as
    /// a memoised sub-digest that only a mutation of it forgets, the
    /// actor table as a running sum that only the slots touched since
    /// are hashed into again, and the queue keeps its digest current as
    /// events come and go ([`EventQueue::fingerprint`]).
    pub fn fingerprint(&self, msg_fp: fn(&M, &mut StableHasher)) -> Option<u64> {
        let mut h = StableHasher::new();
        h.write_u64(self.now.as_ticks());
        h.write_u64(self.epoch);
        h.write_u64(self.next_timer);
        for w in self.rng.state_words() {
            h.write_u64(w);
        }
        h.write_u64(self.ids.allocated());
        h.write_u64(self.roster.digest());
        h.write_u64(self.table_sum()?);
        if !self.driver.fingerprint(&mut h) {
            return None;
        }
        self.queue.fingerprint(&mut h, msg_fp);
        Some(h.finish())
    }

    /// The digest sum of every occupied actor slot, from scratch; `None`
    /// when an actor opts out of fingerprinting.
    fn scan_table(&self) -> Option<u64> {
        self.actors
            .iter_entries()
            .try_fold(0u64, |sum, (pid, cell, present)| {
                Some(sum.wrapping_add(cell.digest(pid, present)?))
            })
    }

    /// The actor table's contribution to [`World::fingerprint`]: every
    /// slot including departed ones, commutatively. The first call scans
    /// the table; from then on the sum is kept as slots change, so a call
    /// hashes only the slots touched since the last one.
    fn table_sum(&self) -> Option<u64> {
        // An actor that opts out leaves through `?` with nothing tracked.
        let sum = match self.table_digest.take() {
            Some(table) => {
                let mut sum = table.sum;
                for &pid in &table.stale[..table.stale_len] {
                    let cell = self
                        .actors
                        .get_any(pid)
                        .expect("a stale slot stays occupied");
                    sum = sum.wrapping_add(cell.digest(pid, self.actors.contains(pid))?);
                }
                debug_assert_eq!(
                    Some(sum),
                    self.scan_table(),
                    "tracked actor-table digest drifted"
                );
                sum
            }
            None => self.scan_table()?,
        };
        self.table_digest.set(Some(TableDigest {
            sum,
            stale: [ProcessId::from_raw(0); STALE_ROOM],
            stale_len: 0,
        }));
        Some(sum)
    }

    /// Stops keeping the running digests behind [`World::fingerprint`]
    /// (actor table, event queue) current — for a caller that runs this
    /// world on and will not fingerprint it again, so that dispatch stops
    /// paying for them. A later fingerprint is still right: it rescans.
    pub fn forget_fingerprint(&mut self) {
        self.table_digest.set(None);
        self.queue.forget_fingerprint();
    }

    /// Checks a present actor out of its slot for a callback or a
    /// corruption (pair with `actors.insert`), taking what the slot
    /// contributed out of the running table digest first.
    fn take_actor(&mut self, pid: ProcessId) -> Option<ActorCell<M>> {
        let cell = self.actors.take(pid)?;
        cell.retire(pid, self.table_digest.get_mut());
        Some(cell)
    }

    /// Runs one popped event through the dispatch match — its own callback
    /// directly, whatever notifications that queues (starts, neighbor
    /// changes) drained after it — shared tail of [`World::step`] and
    /// [`World::step_nth`].
    fn dispatch(&mut self, at: Time, event: Event<M>) {
        debug_assert!(at >= self.now, "event queue went backwards");
        debug_assert!(
            self.callbacks.is_empty(),
            "a dispatch left callbacks behind"
        );
        self.now = at;
        if self.sink.is_some() {
            let depth = self.queue.len();
            self.emit(
                ObsEvent::Step {
                    at,
                    queue_depth: depth,
                },
                Causality::default(),
            );
        }
        match event {
            Event::Deliver {
                from,
                to,
                sent,
                cause,
                msg,
            } => {
                // The delivery (or the drop, if the destination departed)
                // is caused by the send that put the message in flight —
                // the send → deliver edge of the happened-before DAG.
                let causal = Causality {
                    id: self.fresh_id(),
                    cause,
                };
                // Traffic is not recorded in the trace, only the instant it
                // reached: the horizon closes the presence intervals.
                self.trace.advance(at);
                if self.actors.contains(to) {
                    self.metrics.delivers += 1;
                    if self.sink.is_some() {
                        self.emit(
                            ObsEvent::Deliver {
                                from,
                                to,
                                at,
                                latency: at.saturating_since(sent),
                            },
                            causal,
                        );
                    }
                    self.run_callback(causal.id, Callback::Message { to, from, msg });
                } else {
                    self.metrics.drops += 1;
                    self.emit(ObsEvent::Drop { from, to, at }, causal);
                }
            }
            Event::Timer { pid, timer, cause } => {
                if self.actors.contains(pid) {
                    // Timer-set → fire edge: the fire's cause is the event
                    // whose callback armed the timer.
                    let causal = Causality {
                        id: self.fresh_id(),
                        cause,
                    };
                    self.metrics.timer_fires += 1;
                    self.emit(ObsEvent::TimerFire { pid, at }, causal);
                    self.run_callback(causal.id, Callback::Timer { pid, timer });
                }
            }
            Event::ChurnTick => {
                let (actions, next) =
                    self.driver
                        .on_tick(self.now, &self.roster.graph, &mut self.rng);
                for action in actions {
                    self.apply_churn(action);
                }
                if let Some(t) = next {
                    assert!(t > self.now, "churn driver must advance time");
                    self.queue.schedule(t, Event::ChurnTick);
                }
            }
        }
        self.drain_callbacks();
    }

    /// Runs until the queue holds no event at or before `deadline`, then
    /// advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue is empty (only safe with drivers that
    /// stop; a periodic driver never drains).
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Applies one churn action. Churn originates from the driver, not
    /// from any traced event, so joins/departures it performs carry cause
    /// `0` (the environment).
    fn apply_churn(&mut self, action: ChurnAction) {
        match action {
            ChurnAction::Join => {
                let pid = self.ids.fresh();
                self.admit(pid, AdmitWiring::Policy, 0);
            }
            ChurnAction::Leave(pid) => self.depart(pid, false, 0),
            ChurnAction::Crash(pid) => self.depart(pid, true, 0),
            ChurnAction::LeaveRandom => {
                if let Some(&pid) = self.rng.choose(self.roster.graph.members()) {
                    self.depart(pid, false, 0);
                }
            }
            ChurnAction::CrashRandom => {
                if let Some(&pid) = self.rng.choose(self.roster.graph.members()) {
                    self.depart(pid, true, 0);
                }
            }
            ChurnAction::InsertBetween(a, b) => {
                if !self.roster.graph.has_edge(a, b) {
                    return;
                }
                let pid = self.ids.fresh();
                self.admit(pid, AdmitWiring::Splice(a, b), 0);
            }
            ChurnAction::CutEdge(a, b) => {
                if self.roster.graph.has_edge(a, b) {
                    self.epoch += 1;
                    Roster::make_mut(&mut self.roster).graph.remove_edge(a, b);
                    self.callbacks
                        .push_back((0, Callback::NeighborDown { pid: a, peer: b }));
                    self.callbacks
                        .push_back((0, Callback::NeighborDown { pid: b, peer: a }));
                }
            }
            ChurnAction::RestoreEdge(a, b) => {
                let graph = &self.roster.graph;
                if a != b && graph.contains(a) && graph.contains(b) && !graph.has_edge(a, b) {
                    self.epoch += 1;
                    Roster::make_mut(&mut self.roster).graph.add_edge(a, b);
                    self.callbacks
                        .push_back((0, Callback::NeighborUp { pid: a, peer: b }));
                    self.callbacks
                        .push_back((0, Callback::NeighborUp { pid: b, peer: a }));
                }
            }
            ChurnAction::CorruptActor(pid) => self.corrupt_actor(pid),
            ChurnAction::CorruptRandom => {
                if let Some(&pid) = self.rng.choose(self.roster.graph.members()) {
                    self.corrupt_actor(pid);
                }
            }
            ChurnAction::ScrambleQueue => {
                if let Some(f) = self.corrupt_msg {
                    let n = self.queue.scramble_payloads(&mut self.rng, f);
                    if n > 0 {
                        self.epoch += 1;
                        self.metrics.corruptions += n as u64;
                    }
                }
            }
        }
    }

    /// Overwrites a present process's actor state via its
    /// [`Actor::corrupt`] hook — the transient-fault injection of the
    /// self-stabilization model. A no-op for absent processes and actors
    /// that opt out; otherwise the mutation epoch bumps (state changed
    /// outside normal dispatch) and a `Corrupt` event is traced and
    /// emitted so recorders can pin the injection instant.
    fn corrupt_actor(&mut self, pid: ProcessId) {
        if !self.roster.graph.contains(pid) {
            return;
        }
        let Some(mut cell) = self.take_actor(pid) else {
            return;
        };
        let corrupted = cell.make_mut().corrupt(&mut self.rng);
        self.actors.insert(pid, cell);
        if corrupted {
            self.epoch += 1;
            self.metrics.corruptions += 1;
            let causal = Causality {
                id: self.fresh_id(),
                cause: 0,
            };
            self.trace.push(TraceEvent::Corrupt { pid, at: self.now });
            self.emit(ObsEvent::Corrupt { pid, at: self.now }, causal);
        }
    }

    fn admit(&mut self, pid: ProcessId, wiring: AdmitWiring, cause: u64) {
        self.epoch += 1;
        // Allocate the join's event id up front: every notification the
        // admission produces (splice cuts, start, neighbor-ups) descends
        // from the join node in the causal DAG.
        let join_id = self.fresh_id();
        let value = (self.value_fn.borrow_mut())(pid, &mut self.rng);
        let policy = self.policy;
        let roster = Roster::make_mut(&mut self.roster);
        roster.values.insert(pid, value);
        let wired_to: Vec<ProcessId> = match wiring {
            AdmitWiring::Policy => policy.attach.attach(&mut roster.graph, pid, &mut self.rng),
            AdmitWiring::Splice(a, b) => {
                roster.graph.add_node(pid);
                roster.graph.add_edge(pid, a);
                roster.graph.add_edge(pid, b);
                roster.graph.remove_edge(a, b);
                self.callbacks
                    .push_back((join_id, Callback::NeighborDown { pid: a, peer: b }));
                self.callbacks
                    .push_back((join_id, Callback::NeighborDown { pid: b, peer: a }));
                vec![a, b]
            }
        };
        let actor = (self.spawn.borrow_mut())(pid);
        self.actors.insert(pid, ActorCell::seat(actor));
        TableDigest::push_stale(self.table_digest.get_mut(), pid);
        let causal = Causality { id: join_id, cause };
        self.trace.push(TraceEvent::Join { pid, at: self.now });
        self.metrics.joins += 1;
        self.emit(ObsEvent::Join { pid, at: self.now }, causal);
        self.metrics.max_membership = self
            .metrics
            .max_membership
            .max(self.roster.graph.node_count());
        self.callbacks.push_back((join_id, Callback::Start(pid)));
        for peer in wired_to {
            self.callbacks.push_back((
                join_id,
                Callback::NeighborUp {
                    pid: peer,
                    peer: pid,
                },
            ));
        }
    }

    fn depart(&mut self, pid: ProcessId, crashed: bool, cause: u64) {
        if !self.roster.graph.contains(pid) {
            return;
        }
        self.epoch += 1;
        let policy = self.policy;
        let roster = Roster::make_mut(&mut self.roster);
        let detached = policy.repair.detach(&mut roster.graph, pid);
        if let Some(cell) = self.actors.get(pid) {
            cell.retire(pid, self.table_digest.get_mut());
        }
        self.actors.depart(pid);
        // Bridge and down notifications below all descend from this
        // departure in the causal DAG.
        let leave_id = self.fresh_id();
        let causal = Causality {
            id: leave_id,
            cause,
        };
        if crashed {
            self.trace.push(TraceEvent::Crash { pid, at: self.now });
            self.metrics.crashes += 1;
            self.emit(ObsEvent::Crash { pid, at: self.now }, causal);
        } else {
            self.trace.push(TraceEvent::Leave { pid, at: self.now });
            self.metrics.leaves += 1;
            self.emit(ObsEvent::Leave { pid, at: self.now }, causal);
        }
        // Announce bridge edges created by the repair rule BEFORE the
        // departure notifications: a protocol waiting on the departed
        // process must learn its replacement routes first, or it may give
        // up on the subtree in the instant between the two notifications.
        for (a, b) in detached.bridges {
            self.callbacks.push_back((
                leave_id,
                Callback::NeighborBridge {
                    pid: a,
                    peer: b,
                    replaced: pid,
                },
            ));
            self.callbacks.push_back((
                leave_id,
                Callback::NeighborBridge {
                    pid: b,
                    peer: a,
                    replaced: pid,
                },
            ));
        }
        for n in detached.neighbors {
            self.callbacks
                .push_back((leave_id, Callback::NeighborDown { pid: n, peer: pid }));
        }
    }

    fn drain_callbacks(&mut self) {
        while let Some((cause, cb)) = self.callbacks.pop_front() {
            self.run_callback(cause, cb);
        }
        // Between dispatches nothing is "currently executing": harness
        // observations made now attach to the environment.
        self.current_cause = 0;
    }

    fn run_callback(&mut self, cause: u64, cb: Callback<M>) {
        let pid = match &cb {
            Callback::Start(p)
            | Callback::Message { to: p, .. }
            | Callback::Timer { pid: p, .. }
            | Callback::NeighborUp { pid: p, .. }
            | Callback::NeighborDown { pid: p, .. }
            | Callback::NeighborBridge { pid: p, .. } => *p,
        };
        let Some(mut cell) = self.take_actor(pid) else {
            return; // departed between scheduling and dispatch
        };
        let actor = cell.make_mut();
        let value = self.roster.values.get(pid).copied().unwrap_or(0.0);
        // Borrow the neighbor slice straight out of the graph and hand the
        // kernel's reusable effect buffer to the context: no per-dispatch
        // allocation. The graph cannot change while the callback runs (all
        // mutation is deferred through the effect buffer and callback
        // queue), so the slice stays valid.
        let mut effects = std::mem::take(&mut self.effect_buf);
        // Catch unwinds so the sink can dump the events leading
        // up to an actor panic before it propagates (the world — and with
        // it the sink — is dropped during the unwind, so the dump must be
        // rendered here or the tail is lost).
        let caught = {
            let neighbors = self.roster.graph.neighbors(pid).unwrap_or(&[]);
            let mut ctx = Context::new(
                pid,
                self.now,
                value,
                neighbors,
                &mut self.rng,
                &mut self.next_timer,
                &mut effects,
            );
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cb {
                Callback::Start(_) => actor.on_start(&mut ctx),
                Callback::Message { from, msg, .. } => actor.on_message(&mut ctx, from, msg),
                Callback::Timer { timer, .. } => actor.on_timer(&mut ctx, timer),
                Callback::NeighborUp { peer, .. } => actor.on_neighbor_up(&mut ctx, peer),
                Callback::NeighborDown { peer, .. } => actor.on_neighbor_down(&mut ctx, peer),
                Callback::NeighborBridge { peer, replaced, .. } => {
                    actor.on_neighbor_bridge(&mut ctx, peer, replaced)
                }
            }))
        };
        if let Err(payload) = caught {
            if let Some(sink) = self.sink.as_mut() {
                sink.fail(&format!("actor p{} panicked", pid.as_raw()), self.now);
            }
            std::panic::resume_unwind(payload);
        }
        self.actors.insert(pid, cell);
        self.current_cause = cause;
        self.apply_effects(pid, &mut effects);
        self.effect_buf = effects;
    }

    /// Applies a callback's buffered effects. Every effect is caused by
    /// the event whose callback produced it ([`World::current_cause`]):
    /// sends get fresh ids (and seed the scheduled delivery's cause),
    /// timer-sets propagate the cause to the future fire, leaves cause the
    /// departure.
    fn apply_effects(&mut self, pid: ProcessId, effects: &mut Vec<Effect<M>>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    self.metrics.sends += 1;
                    let causal = Causality {
                        id: self.fresh_id(),
                        cause: self.current_cause,
                    };
                    self.trace.advance(self.now);
                    if self.loss.drops(&mut self.rng) {
                        self.metrics.drops += 1;
                        self.emit(
                            ObsEvent::Drop {
                                from: pid,
                                to,
                                at: self.now,
                            },
                            causal,
                        );
                    } else {
                        self.emit(
                            ObsEvent::Send {
                                from: pid,
                                to,
                                at: self.now,
                            },
                            causal,
                        );
                        let delay = self.delay.sample(&mut self.rng);
                        self.queue.schedule(
                            self.now + delay,
                            Event::Deliver {
                                from: pid,
                                to,
                                sent: self.now,
                                cause: causal.id,
                                msg,
                            },
                        );
                    }
                }
                Effect::SetTimer { id, delay } => {
                    self.queue.schedule(
                        self.now + delay,
                        Event::Timer {
                            pid,
                            timer: id,
                            cause: self.current_cause,
                        },
                    );
                }
                Effect::Leave => {
                    self.depart(pid, false, self.current_cause);
                }
            }
        }
    }
}

enum AdmitWiring {
    Policy,
    Splice(ProcessId, ProcessId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{BalancedChurn, Scripted};
    use dds_core::churn::ChurnSpec;
    use dds_core::time::TimeDelta;
    use dds_net::generate;

    /// Echoes every message back to its sender and counts traffic.
    struct Echo {
        received: u32,
    }

    impl Actor<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            self.received += 1;
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn echo_world(seed: u64) -> World<u32> {
        WorldBuilder::new(seed)
            .initial_graph(generate::ring(4))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .build()
    }

    #[test]
    fn ping_pong_counts_messages() {
        let mut w = echo_world(1);
        // Inject a 5-hop ping-pong between p0 and itself... inject sends
        // p0 -> p0, then it echoes to itself until the counter hits 0.
        w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 4);
        w.run_to_quiescence();
        let echo: &Echo = w.actor(ProcessId::from_raw(0)).unwrap();
        assert_eq!(echo.received, 5); // initial + 4 echoes
        assert_eq!(w.metrics().delivers, 5);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let mut w = echo_world(seed);
            w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 10);
            w.run_to_quiescence();
            (*w.metrics(), w.trace().horizon(), w.now())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn message_to_departed_process_is_dropped() {
        let mut w: World<u32> = WorldBuilder::new(2)
            .initial_graph(generate::ring(4))
            .driver(Scripted::new(vec![(
                Time::from_ticks(3),
                ChurnAction::Leave(ProcessId::from_raw(1)),
            )]))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .build();
        // Delivery at t=6, after p1 left at t=3.
        w.inject(Time::from_ticks(6), ProcessId::from_raw(1), 0);
        w.run_to_quiescence();
        assert_eq!(w.metrics().drops, 1);
        assert_eq!(w.metrics().delivers, 0);
        assert_eq!(w.metrics().leaves, 1);
        assert_eq!(w.members().len(), 3);
    }

    #[test]
    fn churn_preserves_membership_size_under_balanced_driver() {
        let spec = ChurnSpec::rate(0.25, TimeDelta::ticks(5)).unwrap();
        let mut w: World<u32> = WorldBuilder::new(3)
            .initial_graph(generate::ring(8))
            .driver(BalancedChurn::new(spec))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .build();
        w.run_until(Time::from_ticks(100));
        assert_eq!(w.members().len(), 8, "balanced churn preserves size");
        assert!(w.metrics().joins > 8, "churn actually happened");
        assert_eq!(
            w.metrics().joins as u64 - 8,
            w.metrics().leaves,
            "every join after start pairs with a leave"
        );
    }

    #[test]
    fn trace_records_presence_correctly_under_churn() {
        let spec = ChurnSpec::rate(0.5, TimeDelta::ticks(4)).unwrap();
        let mut w: World<u32> = WorldBuilder::new(4)
            .initial_graph(generate::ring(6))
            .driver(BalancedChurn::new(spec))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .build();
        w.run_until(Time::from_ticks(40));
        let presence = w.trace().presence();
        assert_eq!(presence.max_concurrency(), 6);
        let members_now: Vec<ProcessId> = w.members().to_vec();
        let from_trace = presence.members_at(w.now());
        assert_eq!(members_now, from_trace);
    }

    #[test]
    fn values_are_retained_for_departed_processes() {
        let mut w: World<u32> = WorldBuilder::new(5)
            .initial_graph(generate::ring(3))
            .driver(Scripted::new(vec![(
                Time::from_ticks(2),
                ChurnAction::Leave(ProcessId::from_raw(0)),
            )]))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .values(|pid, _| pid.as_raw() as f64 * 10.0)
            .build();
        w.run_to_quiescence();
        assert_eq!(w.value_of(ProcessId::from_raw(0)), Some(0.0));
        assert_eq!(w.value_of(ProcessId::from_raw(2)), Some(20.0));
        assert_eq!(w.value_of(ProcessId::from_raw(99)), None);
    }

    #[test]
    fn insert_between_splices_topology() {
        let mut w: World<u32> = WorldBuilder::new(6)
            .initial_graph(generate::path(2))
            .driver(Scripted::new(vec![(
                Time::from_ticks(2),
                ChurnAction::InsertBetween(ProcessId::from_raw(0), ProcessId::from_raw(1)),
            )]))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .build();
        w.run_to_quiescence();
        assert_eq!(w.members().len(), 3);
        let new = ProcessId::from_raw(2);
        assert!(w.graph().has_edge(ProcessId::from_raw(0), new));
        assert!(w.graph().has_edge(new, ProcessId::from_raw(1)));
        assert!(!w
            .graph()
            .has_edge(ProcessId::from_raw(0), ProcessId::from_raw(1)));
        assert_eq!(
            dds_net::algo::diameter(w.graph()),
            Some(2),
            "path stretched from 1 to 2"
        );
    }

    /// An [`Echo`] that opts into forking and fingerprinting.
    #[derive(Clone)]
    struct ForkEcho {
        received: u32,
    }

    impl Actor<u32> for ForkEcho {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            self.received += 1;
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }

        fn fork(&self) -> Option<Box<dyn Actor<u32>>> {
            Some(Box::new(self.clone()))
        }

        fn fingerprint(&self, h: &mut StableHasher) -> bool {
            h.write_u32(self.received);
            true
        }
    }

    fn fork_echo_world(seed: u64) -> World<u32> {
        WorldBuilder::new(seed)
            .initial_graph(generate::ring(4))
            .spawn(|_| Box::new(ForkEcho { received: 0 }))
            .build()
    }

    #[test]
    fn fork_replays_identical_future_and_fingerprints_agree() {
        let fp = crate::snapshot::fingerprint_msg::<u32>;
        let mut w = fork_echo_world(11);
        w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 12);
        for _ in 0..4 {
            assert!(w.step());
        }
        let mut f = w.try_fork().expect("every component supports forking");
        assert_eq!(w.fingerprint(fp), f.fingerprint(fp));
        w.run_to_quiescence();
        f.run_to_quiescence();
        assert_eq!(w.fingerprint(fp), f.fingerprint(fp));
        assert_eq!(w.now(), f.now());
        assert_eq!(w.metrics().delivers, f.metrics().delivers);
        let a: &ForkEcho = w.actor(ProcessId::from_raw(0)).unwrap();
        let b: &ForkEcho = f.actor(ProcessId::from_raw(0)).unwrap();
        assert_eq!(a.received, b.received);
    }

    #[test]
    fn fork_is_independent_of_the_original() {
        let mut w = fork_echo_world(12);
        w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 6);
        let f = w.try_fork().unwrap();
        let pending_before = f.peek_time();
        w.run_to_quiescence();
        // The fork still holds its own pending event and zero deliveries.
        assert_eq!(f.peek_time(), pending_before);
        assert_eq!(f.metrics().delivers, 0);
        assert!(w.metrics().delivers > 0);
    }

    #[test]
    fn fork_does_not_alias_or_inherit_the_parent_sink() {
        let mut w: World<u32> = WorldBuilder::new(21)
            .initial_graph(generate::ring(4))
            .spawn(|_| Box::new(ForkEcho { received: 0 }))
            .sink(dds_obs::ObserverSink::default())
            .build();
        w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 8);
        for _ in 0..3 {
            assert!(w.step());
        }
        let mut f = w.try_fork().expect("forkable");
        // The fork starts unobserved: no sink, empty trace.
        assert!(
            f.take_sink().is_none(),
            "fork must not inherit the parent's sink"
        );
        assert_eq!(f.trace().len(), 0, "fork trace starts empty");
        // Driving the fork must not feed the parent's observer.
        let parent_events_before = {
            let sink = w.sink.as_ref().expect("parent keeps its sink");
            let any: &dyn Any = &**sink;
            any.downcast_ref::<dds_obs::ObserverSink>()
                .unwrap()
                .report
                .events
        };
        f.run_to_quiescence();
        let obs = w
            .take_sink()
            .expect("parent keeps its sink")
            .into_any()
            .downcast::<dds_obs::ObserverSink>()
            .unwrap();
        assert_eq!(
            obs.report.events, parent_events_before,
            "fork dispatches leaked into the parent's observer"
        );
        // The fork's causal ids continue past the parent's prefix, so the
        // two never hand out overlapping ids.
        assert!(f.next_obs_id >= w.next_obs_id);
    }

    #[test]
    fn fingerprint_diverges_after_dispatch_and_gates_on_support() {
        let fp = crate::snapshot::fingerprint_msg::<u32>;
        let mut w = fork_echo_world(13);
        w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 3);
        let before = w.fingerprint(fp).expect("supported");
        assert_eq!(
            before,
            w.fingerprint(fp).unwrap(),
            "fingerprinting is read-only and stable"
        );
        assert!(w.step());
        assert_ne!(before, w.fingerprint(fp).unwrap());
        // `Echo` opts out of both hooks: no fingerprint, no fork.
        let e = echo_world(1);
        assert_eq!(e.fingerprint(fp), None);
        assert!(e.try_fork().is_none());
    }

    #[test]
    fn step_nth_zero_matches_default_dispatch_order() {
        let drive = |nth: bool| {
            let mut w = fork_echo_world(14);
            w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 9);
            w.inject(Time::from_ticks(1), ProcessId::from_raw(2), 4);
            if nth {
                let mut ready = Vec::new();
                while w.ready_set(&mut ready).is_some() {
                    assert!(!ready.is_empty());
                    assert!(w.step_nth(0));
                }
            } else {
                w.run_to_quiescence();
            }
            let fp = crate::snapshot::fingerprint_msg::<u32>;
            (w.fingerprint(fp).unwrap(), *w.metrics(), w.now())
        };
        assert_eq!(drive(false), drive(true));
    }

    /// An actor that leaves as soon as it receives any message.
    struct Quitter;

    impl Actor<u32> for Quitter {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, _: u32) {
            ctx.leave();
        }
    }

    #[test]
    fn actor_initiated_leave_departs_and_notifies() {
        let mut w: World<u32> = WorldBuilder::new(7)
            .initial_graph(generate::ring(4))
            .spawn(|_| Box::new(Quitter))
            .build();
        w.inject(Time::from_ticks(1), ProcessId::from_raw(2), 0);
        w.run_to_quiescence();
        assert_eq!(w.members().len(), 3);
        assert_eq!(w.metrics().leaves, 1);
        // The departed actor remains inspectable.
        assert!(w.actor::<Quitter>(ProcessId::from_raw(2)).is_some());
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w = echo_world(8);
        w.run_until(Time::from_ticks(50));
        assert_eq!(w.now(), Time::from_ticks(50));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn inject_into_the_past_panics() {
        let mut w = echo_world(9);
        w.run_until(Time::from_ticks(10));
        w.inject(Time::from_ticks(5), ProcessId::from_raw(0), 0);
    }

    /// Records the order message payloads arrive in.
    struct OrderLog {
        seen: Vec<u32>,
    }

    impl Actor<u32> for OrderLog {
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
            self.seen.push(msg);
        }
    }

    /// Runs three same-instant deliveries and a later one, dispatching
    /// the `pick(width)`-th entry of every ready set.
    fn order_run(pick: fn(usize) -> usize) -> Vec<u32> {
        let mut w: World<u32> = WorldBuilder::new(1)
            .initial_graph(generate::ring(3))
            .spawn(|_| Box::new(OrderLog { seen: Vec::new() }))
            .build();
        let p0 = ProcessId::from_raw(0);
        for msg in [10, 20, 30] {
            w.inject(Time::from_ticks(2), p0, msg);
        }
        w.inject(Time::from_ticks(3), p0, 40);
        let mut ready = Vec::new();
        while w.ready_set(&mut ready).is_some() {
            assert!(w.step_nth(pick(ready.len())));
        }
        w.actor::<OrderLog>(p0).unwrap().seen.clone()
    }

    #[test]
    fn step_nth_reorders_same_instant_events_only() {
        assert_eq!(
            order_run(|_| 0),
            vec![10, 20, 30, 40],
            "index 0 must reproduce the default order"
        );
        assert_eq!(order_run(|width| width - 1), vec![30, 20, 10, 40]);
    }

    /// A [`ForkEcho`] whose counter can be overwritten by the corruption
    /// adversary.
    #[derive(Clone)]
    struct CorruptibleEcho {
        received: u32,
    }

    impl Actor<u32> for CorruptibleEcho {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            self.received += 1;
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }

        fn fork(&self) -> Option<Box<dyn Actor<u32>>> {
            Some(Box::new(self.clone()))
        }

        fn fingerprint(&self, h: &mut StableHasher) -> bool {
            h.write_u32(self.received);
            true
        }

        fn corrupt(&mut self, rng: &mut Rng) -> bool {
            self.received = rng.below(1 << 20) as u32;
            true
        }
    }

    #[test]
    fn corrupt_actor_flips_state_and_is_traced() {
        let p2 = ProcessId::from_raw(2);
        let mut w: World<u32> = WorldBuilder::new(31)
            .initial_graph(generate::ring(4))
            .driver(Scripted::new(vec![(
                Time::from_ticks(3),
                ChurnAction::CorruptActor(p2),
            )]))
            .spawn(|_| Box::new(CorruptibleEcho { received: 0 }))
            .build();
        let epoch_before = w.epoch();
        w.run_to_quiescence();
        assert_eq!(w.metrics().corruptions, 1);
        assert!(w.epoch() > epoch_before, "corruption bumps the epoch");
        let a: &CorruptibleEcho = w.actor(p2).unwrap();
        assert_ne!(
            a.received, 0,
            "state was overwritten (seed 31 draw is nonzero)"
        );
        assert!(
            w.trace()
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Corrupt { pid, .. } if *pid == p2)),
            "the injection instant is traced"
        );
        // Membership is untouched: corruption is not a crash.
        assert_eq!(w.members().len(), 4);
    }

    #[test]
    fn corruption_is_a_noop_for_opted_out_actors() {
        let mut w: World<u32> = WorldBuilder::new(32)
            .initial_graph(generate::ring(4))
            .driver(Scripted::new(vec![
                (Time::from_ticks(3), ChurnAction::CorruptRandom),
                (Time::from_ticks(4), ChurnAction::ScrambleQueue),
            ]))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .build();
        w.run_to_quiescence();
        assert_eq!(w.metrics().corruptions, 0, "Echo has no corrupt hook");
        assert!(w
            .trace()
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::Corrupt { .. })));
    }

    #[test]
    fn scramble_queue_rewrites_pending_payloads() {
        let p0 = ProcessId::from_raw(0);
        let build = |scramble: bool| {
            let script = if scramble {
                vec![(Time::from_ticks(2), ChurnAction::ScrambleQueue)]
            } else {
                Vec::new()
            };
            let mut w: World<u32> = WorldBuilder::new(33)
                .initial_graph(generate::ring(3))
                .driver(Scripted::new(script))
                .spawn(|_| Box::new(OrderLog { seen: Vec::new() }))
                .corrupt_msg(|m, rng| *m = rng.below(1000) as u32)
                .build();
            // In flight across the scramble instant: delivery at t=5.
            w.inject(Time::from_ticks(5), p0, 424242);
            w.run_to_quiescence();
            (
                w.actor::<OrderLog>(p0).unwrap().seen.clone(),
                w.metrics().corruptions,
            )
        };
        let (clean, zero) = build(false);
        assert_eq!(clean, vec![424242]);
        assert_eq!(zero, 0);
        let (scrambled, count) = build(true);
        assert_eq!(count, 1);
        assert_eq!(scrambled.len(), 1, "the schedule is preserved");
        assert_ne!(
            scrambled, clean,
            "the payload is not (seed 33 draw differs)"
        );
    }

    #[test]
    fn corrupted_forks_stay_byte_identical() {
        let fp = crate::snapshot::fingerprint_msg::<u32>;
        let adversary = || {
            crate::corrupt::CorruptionAdversary::scripted(vec![(
                Time::from_ticks(4),
                crate::corrupt::Burst::actors(2).with_scramble(),
            )])
        };
        let mut w: World<u32> = WorldBuilder::new(34)
            .initial_graph(generate::ring(4))
            .driver(adversary())
            .spawn(|_| Box::new(CorruptibleEcho { received: 0 }))
            .corrupt_msg(|m, rng| *m = rng.below(1000) as u32)
            .build();
        w.inject(Time::from_ticks(1), ProcessId::from_raw(0), 30);
        for _ in 0..3 {
            assert!(w.step());
        }
        let mut f = w.try_fork().expect("adversary and actors fork");
        w.run_until(Time::from_ticks(40));
        f.run_until(Time::from_ticks(40));
        assert_eq!(w.fingerprint(fp), f.fingerprint(fp));
        assert_eq!(w.metrics().corruptions, f.metrics().corruptions);
        assert!(w.metrics().corruptions >= 2, "both actor flips landed");
    }

    #[test]
    fn epoch_counts_membership_and_topology_mutations() {
        let mut w: World<u32> = WorldBuilder::new(11)
            .initial_graph(generate::ring(4))
            .driver(Scripted::new(vec![
                (Time::from_ticks(2), ChurnAction::Join),
                (
                    Time::from_ticks(4),
                    ChurnAction::CutEdge(ProcessId::from_raw(0), ProcessId::from_raw(1)),
                ),
                (
                    Time::from_ticks(6),
                    ChurnAction::RestoreEdge(ProcessId::from_raw(0), ProcessId::from_raw(1)),
                ),
                (
                    Time::from_ticks(8),
                    ChurnAction::Leave(ProcessId::from_raw(2)),
                ),
            ]))
            .spawn(|_| Box::new(Echo { received: 0 }))
            .build();
        assert_eq!(w.epoch(), 0, "initial seating is epoch 0");
        w.run_until(Time::from_ticks(3));
        assert_eq!(w.epoch(), 1, "join bumps");
        w.run_until(Time::from_ticks(5));
        assert_eq!(w.epoch(), 2, "cut bumps");
        w.run_until(Time::from_ticks(9));
        assert_eq!(w.epoch(), 4, "restore and leave bump");
    }
}
