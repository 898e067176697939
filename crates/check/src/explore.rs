//! Bounded exhaustive schedule exploration: a depth-first walk over
//! decision vectors that forks the world at choice points, deduplicates
//! states by fingerprint and prunes commuting orders with sleep sets.
//!
//! The explorer treats the target as a deterministic function from a
//! decision vector (one index per same-instant tie) to a run, and walks
//! the tree of alternatives depth-first from the default schedule (the
//! empty vector). Two walks visit that tree in the same order:
//!
//! - [`explore_fork`] — the engine. It steers one live
//!   [`ExploreSession`] from outside the kernel, snapshots it at every
//!   choice point that may still deviate, and resumes a sibling from the
//!   snapshot instead of re-running its prefix. A state reached twice
//!   with the same remaining budgets and sleep set is explored once.
//! - [`explore_replay`] — one whole [`Target::run`] per visited schedule.
//!   It is the only walk for targets that open no session (the register
//!   harness has no world to fork), and the reference the differential
//!   tests hold the engine to: same first counterexample, same plan,
//!   never more runs.
//!
//! [`explore`] picks between them by asking the target for a session.
//!
//! Three budgets bound the walk:
//!
//! - `max_runs` — descents to a terminal or a dedup prune (the hard CI
//!   budget);
//! - `max_depth` — only the first `max_depth` choice points may deviate
//!   (later ties always take the default order);
//! - `max_preemptions` — at most this many non-default decisions per
//!   schedule, the classic preemption-bounding heuristic: most
//!   schedule-dependent bugs need only a couple of inversions.
//!
//! When the target opts in ([`Target::reduction_safe`]), sleep sets prune
//! commutative interleavings: after the subtree dispatching event `e`
//! first is explored, `e` is put to sleep, and sibling subtrees skip any
//! alternative whose first event is independent of everything that
//! happened since — independence being "delivers to a distinct actor"
//! ([`crate::schedule::ReadyEvent::independent`]), conservatively
//! invalidated by world mutation (`epoch` changes) and by forced steps
//! that conflict with a sleeping event. This is a *bounded* reduction: it
//! prunes schedules whose difference provably cannot matter, and every
//! seeded mutant must still be caught with it enabled.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use dds_sim::snapshot::StableHasher;

use crate::schedule::{ChoicePoint, ReadyEvent};
use crate::target::{Counterexample, ExploreSession, RunReport, SessionState, Target, Violation};

/// Runs between two [`ProgressSample`]s. Coarse enough that sampling is
/// free next to target execution, fine enough that a default budget
/// (512 runs) still yields a couple of points per shard.
pub const PROGRESS_INTERVAL: usize = 256;

/// A snapshot of the explorer's work counters, taken every
/// [`PROGRESS_INTERVAL`] runs along the walk.
///
/// Every field is a pure function of the explored tree — no wall-clock,
/// no thread ids — so the sample vector is byte-identical at any
/// `DDS_THREADS` value (shards are structure-determined and samples
/// merge in shard order). Consumers that want timestamps attach them at
/// emission time, on stderr or in a side-channel file, never in the
/// checker's canonical JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSample {
    /// Runs consumed when the sample was taken.
    pub runs: usize,
    /// Choice-point states expanded so far.
    pub states_explored: usize,
    /// Dedup prunes so far.
    pub dedup_hits: usize,
    /// Snapshots taken so far.
    pub forks: usize,
    /// Depth of the live DFS path at the sample point.
    pub frontier_depth: usize,
}

impl ProgressSample {
    /// Fraction of descents cut short by state dedup, in `[0, 1]`.
    pub fn dedup_ratio(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.runs as f64
        }
    }
}

/// Exploration budgets. All three must hold for a deviation to be tried.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum target runs (≥ 1; the default schedule costs one).
    pub max_runs: usize,
    /// Deepest choice point allowed to deviate from default order.
    pub max_depth: usize,
    /// Maximum non-default decisions per schedule.
    pub max_preemptions: usize,
}

impl Default for Budget {
    /// A CI-friendly budget: 512 runs, 32 choice points, 2 preemptions.
    fn default() -> Self {
        Budget {
            max_runs: 512,
            max_depth: 32,
            max_preemptions: 2,
        }
    }
}

/// What the exploration did.
#[derive(Debug, Clone)]
pub struct Explored {
    /// Runs consumed against `max_runs`: whole target executions under
    /// [`explore_replay`]; descents to a terminal or dedup-pruned state
    /// under [`explore_fork`] (a pruned descent is far cheaper but still
    /// spends a slot, so the budget stays a hard cap in both walks).
    pub runs: usize,
    /// Choice-point states expanded by the forking explorer (0 under
    /// [`explore_replay`], which never identifies states).
    pub states_explored: usize,
    /// Descents cut short because the state (with equal remaining
    /// budgets and sleep set) was already explored violation-free.
    pub dedup_hits: usize,
    /// World snapshots taken ([`ExploreSession::fork`] calls).
    pub forks: usize,
    /// First property violation found, if any.
    pub counterexample: Option<Counterexample>,
    /// `true` when the bounded space was fully explored (no violation and
    /// no budget exhaustion).
    pub exhausted: bool,
    /// Periodic counter snapshots (one per [`PROGRESS_INTERVAL`] runs),
    /// concatenated in shard order under [`explore_parallel`]. Purely
    /// structural, so identical at any `DDS_THREADS` value.
    pub progress: Vec<ProgressSample>,
}

/// One genuine choice point along the current DFS path.
struct Node {
    width: usize,
    ready: Vec<ReadyEvent>,
    epoch: u64,
    chosen: usize,
    tried: Vec<bool>,
    /// Inherited sleep set (events whose first-dispatch here is pruned).
    sleep: Vec<ReadyEvent>,
    /// Executed events of completed sibling subtrees at this node.
    done: Vec<ReadyEvent>,
    /// Forced (width-1) steps executed between this choice and the next,
    /// as seen by the run that built the current suffix.
    forced_after: Vec<ReadyEvent>,
}

impl Node {
    fn executed(&self) -> Option<ReadyEvent> {
        self.ready.get(self.chosen).copied()
    }

    fn asleep(&self, ev: &ReadyEvent) -> bool {
        self.sleep.iter().chain(&self.done).any(|s| s.seq == ev.seq)
    }
}

/// Splits a run's schedule log into genuine choice points, each paired
/// with the forced steps executed after it (before the next choice).
fn segments(choices: &[ChoicePoint]) -> Vec<(ChoicePoint, Vec<ReadyEvent>)> {
    let mut out: Vec<(ChoicePoint, Vec<ReadyEvent>)> = Vec::new();
    for cp in choices {
        if cp.width > 1 {
            out.push((cp.clone(), Vec::new()));
        } else if let (Some(last), Some(ev)) = (out.last_mut(), cp.executed()) {
            last.1.push(ev);
        }
    }
    out
}

fn node_from(cp: ChoicePoint, forced_after: Vec<ReadyEvent>, sleep: Vec<ReadyEvent>) -> Node {
    let mut tried = vec![false; cp.width];
    tried[cp.chosen] = true;
    Node {
        width: cp.width,
        ready: cp.ready,
        epoch: cp.epoch,
        chosen: cp.chosen,
        tried,
        sleep,
        done: Vec::new(),
        forced_after,
    }
}

/// The sleep set a child node inherits: everything sleeping at the parent
/// (inherited + completed siblings) that is independent of the executed
/// event and of every forced step in between, provided no world mutation
/// happened (`epoch` unchanged), restricted to the child's ready set.
fn child_sleep(parent: &Node, child: &ChoicePoint) -> Vec<ReadyEvent> {
    if child.epoch != parent.epoch {
        return Vec::new();
    }
    let Some(executed) = parent.executed() else {
        return Vec::new();
    };
    parent
        .sleep
        .iter()
        .chain(&parent.done)
        .filter(|s| {
            s.independent(&executed)
                && parent.forced_after.iter().all(|f| s.independent(f))
                && child.ready.iter().any(|r| r.seq == s.seq)
        })
        .copied()
        .collect()
}

/// Extends `path` with nodes for every choice point of `report` beyond
/// the first `keep` (which must match the existing prefix).
fn extend_path(path: &mut Vec<Node>, keep: usize, report: &RunReport, por: bool) {
    let segs = segments(&report.choices);
    if let Some(last) = keep.checked_sub(1) {
        if let Some((_, forced)) = segs.get(last) {
            path[last].forced_after = forced.clone();
        }
    }
    path.truncate(keep);
    for (cp, forced) in segs.into_iter().skip(keep) {
        let sleep = match (por, path.last()) {
            (true, Some(parent)) => child_sleep(parent, &cp),
            _ => Vec::new(),
        };
        path.push(node_from(cp, forced, sleep));
    }
}

/// Explores the target's bounded schedule space depth-first, returning
/// the first violation found (or exhaustion).
///
/// A target that opens a session is forked at choice points and its
/// states deduplicated; one that does not is replayed, one whole decision
/// vector at a time. Both walks visit alternatives in the same DFS order,
/// so the first counterexample (and its plan) is identical; forking
/// merely skips work replay re-does.
pub fn explore(target: &mut dyn Target, budget: Budget) -> Explored {
    explore_fork(target, budget).unwrap_or_else(|| explore_replay(target, budget))
}

/// The replay-DFS walk: one whole [`Target::run`] per visited schedule.
pub fn explore_replay(target: &mut dyn Target, budget: Budget) -> Explored {
    let por = target.reduction_safe();
    let mut runs = 0usize;
    let mut run = |plan: &[usize], runs: &mut usize| {
        *runs += 1;
        target.run(plan)
    };
    let mut progress: Vec<ProgressSample> = Vec::new();
    let mut next_sample = PROGRESS_INTERVAL;

    let report = run(&[], &mut runs);
    if let Some(v) = report.violation.clone() {
        return Explored {
            runs,
            states_explored: 0,
            dedup_hits: 0,
            forks: 0,
            counterexample: Some(Counterexample::new(&report.plan(), v)),
            exhausted: false,
            progress,
        };
    }
    let mut path: Vec<Node> = Vec::new();
    extend_path(&mut path, 0, &report, por);

    while runs < budget.max_runs {
        if runs >= next_sample {
            progress.push(ProgressSample {
                runs,
                states_explored: 0,
                dedup_hits: 0,
                forks: 0,
                frontier_depth: path.len(),
            });
            next_sample = (runs / PROGRESS_INTERVAL + 1) * PROGRESS_INTERVAL;
        }
        // Deepest node with an admissible untried alternative.
        let Some((depth, alt)) = deepest_admissible(&path, budget) else {
            return Explored {
                runs,
                states_explored: 0,
                dedup_hits: 0,
                forks: 0,
                counterexample: None,
                exhausted: true,
                progress,
            };
        };
        // The deepest-first discipline means every node below `depth` is
        // exhausted, so the subtree under the current choice is complete:
        // its first event goes to sleep for the remaining siblings.
        if let Some(ev) = path[depth].executed() {
            path[depth].done.push(ev);
        }
        path[depth].tried[alt] = true;
        path[depth].chosen = alt;
        let plan: Vec<usize> = path[..=depth].iter().map(|n| n.chosen).collect();

        let report = run(&plan, &mut runs);
        if let Some(v) = report.violation.clone() {
            return Explored {
                runs,
                states_explored: 0,
                dedup_hits: 0,
                forks: 0,
                counterexample: Some(Counterexample::new(&report.plan(), v)),
                exhausted: false,
                progress,
            };
        }
        extend_path(&mut path, depth + 1, &report, por);
    }
    Explored {
        runs,
        states_explored: 0,
        dedup_hits: 0,
        forks: 0,
        counterexample: None,
        exhausted: false,
        progress,
    }
}

/// First untried alternative at `node` admissible under the preemption
/// budget and the sleep set — the single admissibility rule both the
/// replay and fork walks share, so their DFS orders cannot drift.
fn first_admissible(node: &Node, preemptions: usize, budget: Budget) -> Option<usize> {
    for alt in 0..node.width {
        if node.tried[alt] {
            continue;
        }
        if preemptions + usize::from(alt != 0) > budget.max_preemptions {
            continue;
        }
        if let Some(ev) = node.ready.get(alt) {
            if node.asleep(ev) {
                continue;
            }
        }
        return Some(alt);
    }
    None
}

fn deepest_admissible(path: &[Node], budget: Budget) -> Option<(usize, usize)> {
    for depth in (0..path.len().min(budget.max_depth)).rev() {
        let preemptions = path[..depth].iter().filter(|n| n.chosen != 0).count();
        if let Some(alt) = first_admissible(&path[depth], preemptions, budget) {
            return Some((depth, alt));
        }
    }
    None
}

/// One choice point along the forking DFS path: the frozen world at the
/// decision (to fork siblings from) plus the same bookkeeping node the
/// replay walk keeps.
struct Frame {
    /// `None` once the walk consumed the snapshot for the frame's last
    /// admissible alternative — such a frame is permanently inadmissible,
    /// so `deepest_admissible` never selects it again.
    snapshot: Option<Box<dyn ExploreSession>>,
    node: Node,
}

/// State-dedup key: canonical world fingerprint, a digest of the node's
/// sorted sleep seqs, and the *remaining* exploration budgets expressed
/// as (depth, preemptions-used). Two visits with equal keys explore
/// byte-identical subtrees, so pruning the second cannot change the
/// verdict — and since the search stops at the first violation, the first
/// visit was violation-free, so pruning cannot skip the first
/// counterexample either.
type DedupKey = (u64, u64, usize, usize);

/// Hasher for [`DedupKey`]s: their leading words are digests already, so
/// folding the words together is all the mixing a table index needs (the
/// keys come from the explorer, never from outside the program).
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Most dedup keys a walk is given room for up front: the visited set of
/// a default-budget exploration never regrows, and a budget of 100 000
/// runs does not reserve megabytes it will not touch.
const VISITED_ROOM: usize = 1 << 12;

/// Choice points probed for fingerprint-only dedup at the start of a
/// descent whose preemption budget is spent. Commuting reorderings
/// converge within an event or two of the final deviation, so a small
/// window catches nearly every merge; anything larger mostly buys
/// full-state hashes along forced suffixes that nothing will match.
const PROBE_WINDOW: usize = 4;

/// The snapshot-forking DFS walk shared by [`explore_fork`] (whole tree)
/// and [`explore_parallel`] (one root shard per instance).
struct ForkDfs {
    budget: Budget,
    por: bool,
    visited: HashSet<DedupKey, BuildHasherDefault<FoldHasher>>,
    runs: usize,
    states: usize,
    dedup_hits: usize,
    forks: usize,
    progress: Vec<ProgressSample>,
    /// Run count at which the next [`ProgressSample`] is due.
    next_sample: usize,
    /// Scratch reused by every `advance` of every descent.
    forced: Vec<ReadyEvent>,
    /// Scratch for sorting a sleep set's seqs into a dedup key.
    seqs: Vec<u64>,
}

impl ForkDfs {
    fn new(budget: Budget, por: bool) -> Self {
        ForkDfs {
            budget,
            por,
            visited: HashSet::with_capacity_and_hasher(
                budget.max_runs.min(VISITED_ROOM),
                BuildHasherDefault::default(),
            ),
            runs: 0,
            states: 0,
            dedup_hits: 0,
            forks: 0,
            progress: Vec::new(),
            next_sample: PROGRESS_INTERVAL,
            forced: Vec::new(),
            seqs: Vec::new(),
        }
    }

    /// Records a [`ProgressSample`] once per [`PROGRESS_INTERVAL`] runs.
    /// Called between descents (never mid-descent), so `frontier_depth`
    /// is the settled DFS path length — a structural quantity, stable
    /// across thread counts.
    fn sample(&mut self, frontier_depth: usize) {
        if self.runs >= self.next_sample {
            self.progress.push(ProgressSample {
                runs: self.runs,
                states_explored: self.states,
                dedup_hits: self.dedup_hits,
                forks: self.forks,
                frontier_depth,
            });
            self.next_sample = (self.runs / PROGRESS_INTERVAL + 1) * PROGRESS_INTERVAL;
        }
    }

    /// Order-independent digest of a sleep set (the set of its seqs).
    fn sleep_digest(&mut self, sleep: &[ReadyEvent]) -> u64 {
        self.seqs.clear();
        self.seqs.extend(sleep.iter().map(|s| s.seq));
        self.seqs.sort_unstable();
        let mut h = StableHasher::new();
        for &seq in &self.seqs {
            h.write_u64(seq);
        }
        h.finish()
    }

    /// Counts the descent as one run cut short by dedup when `key` was
    /// visited before.
    fn seen(&mut self, key: DedupKey) -> bool {
        let seen = !self.visited.insert(key);
        if seen {
            self.dedup_hits += 1;
            self.runs += 1;
        }
        seen
    }

    /// Advances `session` to a terminal (or a dedup prune), growing
    /// `path` with a default-chosen frame per new choice point below
    /// `max_depth`. Returns the run's violation, if any.
    fn descend(
        &mut self,
        session: &mut Box<dyn ExploreSession>,
        path: &mut Vec<Frame>,
        preemptions: usize,
    ) -> Option<Violation> {
        // A fork failure mid-descent stops frame creation for the rest of
        // the run: a frame whose true parent is missing would inherit the
        // wrong sleep set.
        let mut forkable = true;
        // With the preemption budget already spent, every frame this
        // descent would push is permanently inadmissible: its default is
        // tried and any alternative would need one more preemption. Skip
        // the fork/fingerprint/dedup work entirely — the descent still
        // contributes exactly one run either way (a dedup prune and a
        // default run to terminal both count once), so `runs`, DFS order,
        // and verdicts are unchanged; only states/dedup/forks counters
        // shrink. This is what makes forking cheaper than replay: the
        // leaf-level spine of the tree, where most choice points live,
        // pays no snapshot cost.
        let deviable = preemptions < self.budget.max_preemptions;
        // Budget-spent descents still get a short fingerprint-only dedup
        // window right after their last deviation: commuting reorderings
        // converge to the first visit's state within a few events, so the
        // first probes catch nearly all merges, while a bounded window
        // keeps worlds with long forced suffixes (hundreds of choice
        // points per run) from paying a full-state hash at every one.
        let mut probes = if deviable { 0 } else { PROBE_WINDOW };
        loop {
            let can_push = forkable && deviable && path.len() < self.budget.max_depth;
            if !can_push && probes == 0 {
                // Neither condition can come back within this descent, so
                // no choice point below is read: nothing will be pushed
                // (and with it no `forced_after` consulted) and nothing
                // fingerprinted. The rest is the default order to the
                // terminal, which the session runs without stopping.
                session.finish();
                self.runs += 1;
                return session.violation();
            }
            self.forced.clear();
            let state = session.advance(&mut self.forced);
            // Forced steps belong to the frame whose choice was just
            // resolved. While frames can be pushed that is the last one
            // on `path` (every choice point below it became a frame);
            // once they cannot, nothing reads `forced_after` any more.
            if can_push {
                if let Some(last) = path.last_mut() {
                    last.node.forced_after.clone_from(&self.forced);
                }
            }
            if state == SessionState::Done {
                self.runs += 1;
                return session.violation();
            }
            if can_push {
                let cp = session.choice().expect("Choice state has a choice point");
                let sleep = match (self.por, path.last()) {
                    (true, Some(parent)) => child_sleep(&parent.node, &cp),
                    _ => Vec::new(),
                };
                if let Some(fp) = session.fingerprint() {
                    let key = (fp, self.sleep_digest(&sleep), path.len(), preemptions);
                    if self.seen(key) {
                        return None;
                    }
                }
                self.states += 1;
                if let Some(snapshot) = session.fork() {
                    self.forks += 1;
                    path.push(Frame {
                        snapshot: Some(snapshot),
                        node: node_from(cp, Vec::new(), sleep),
                    });
                } else {
                    forkable = false;
                }
            } else {
                // The continuation from here is fully determined (all
                // defaults to terminal — no frame below can ever
                // deviate), so a state seen before, under *any* history,
                // proves this descent ends in the same violation-free
                // terminal the first visit reached. Fingerprint-only
                // dedup — no fork, no frame, no choice point — turns the
                // suffix walk into one hash probe. `usize::MAX`
                // namespaces these keys away from frame-creation keys,
                // where remaining depth budget genuinely matters; the
                // sleep set is irrelevant for the same no-deviation
                // reason.
                probes -= 1;
                if let Some(fp) = session.fingerprint() {
                    if self.seen((fp, 0, usize::MAX, preemptions)) {
                        return None;
                    }
                }
            }
            session.choose(0);
        }
    }

    /// Runs the DFS from a session positioned just past `path`'s last
    /// decision (or a fresh start with an empty path).
    fn run(mut self, mut session: Box<dyn ExploreSession>, mut path: Vec<Frame>) -> Explored {
        let preemptions = path.iter().filter(|f| f.node.chosen != 0).count();
        if let Some(v) = self.descend(&mut session, &mut path, preemptions) {
            return self.finish(&path, Some(v), false);
        }
        // Release what the first descent still shares with the snapshots
        // on `path`, so consuming one later finds it unshared.
        drop(session);
        while self.runs < self.budget.max_runs {
            self.sample(path.len());
            let Some((depth, alt)) = self.deepest_admissible(&path) else {
                return self.finish(&path, None, true);
            };
            // Same sibling-completion bookkeeping as the replay walk.
            if let Some(ev) = path[depth].node.executed() {
                path[depth].node.done.push(ev);
            }
            path[depth].node.tried[alt] = true;
            path[depth].node.chosen = alt;
            path.truncate(depth + 1);
            let above = path[..depth].iter().filter(|f| f.node.chosen != 0).count();
            let session = if first_admissible(&path[depth].node, above, self.budget).is_none() {
                // That was the frame's last admissible alternative:
                // nothing will ever fork from it again, so consume the
                // snapshot instead of cloning it.
                path[depth].snapshot.take()
            } else {
                let forked = path[depth].snapshot.as_ref().and_then(|s| s.fork());
                if forked.is_some() {
                    self.forks += 1;
                }
                forked
            };
            let Some(mut session) = session else {
                // A snapshot that forked once refusing to fork again is
                // out of contract; skip the alternative rather than die.
                continue;
            };
            session.choose(alt);
            let preemptions = path.iter().filter(|f| f.node.chosen != 0).count();
            if let Some(v) = self.descend(&mut session, &mut path, preemptions) {
                return self.finish(&path, Some(v), false);
            }
        }
        self.finish(&path, None, false)
    }

    fn deepest_admissible(&self, path: &[Frame]) -> Option<(usize, usize)> {
        for depth in (0..path.len().min(self.budget.max_depth)).rev() {
            let preemptions = path[..depth].iter().filter(|f| f.node.chosen != 0).count();
            if let Some(alt) = first_admissible(&path[depth].node, preemptions, self.budget) {
                return Some((depth, alt));
            }
        }
        None
    }

    fn finish(self, path: &[Frame], violation: Option<Violation>, exhausted: bool) -> Explored {
        let counterexample = violation.map(|v| {
            // Choices beyond the deepest frame are all defaults, which
            // `Counterexample::new` trims — same plan the replay walk
            // reports for this schedule.
            let plan: Vec<usize> = path.iter().map(|f| f.node.chosen).collect();
            Counterexample::new(&plan, v)
        });
        Explored {
            runs: self.runs,
            states_explored: self.states,
            dedup_hits: self.dedup_hits,
            forks: self.forks,
            counterexample,
            exhausted,
            progress: self.progress,
        }
    }
}

/// Explores via snapshot forking, or `None` when the target does not
/// support sessions (then the caller replays).
pub fn explore_fork(target: &mut dyn Target, budget: Budget) -> Option<Explored> {
    let por = target.reduction_safe();
    let session = target.session()?;
    Some(ForkDfs::new(budget, por).run(session, Vec::new()))
}

/// Explores `build`'s target with the DFS frontier sharded over the root
/// choice point, one shard per root alternative, fanned across
/// `DDS_THREADS` workers ([`dds_sim::parallel::parallel_map`]).
///
/// Shards are defined by the tree's structure (the root width), never by
/// the worker count, and results merge in shard order with accumulation
/// stopping at the first violating shard — so the outcome is
/// byte-identical at any `DDS_THREADS` value. Each shard gets
/// `max(1, max_runs / shards)` runs; state dedup is per-shard (shards
/// share no memory). Falls back to the sequential [`explore`] when the
/// target has no session support.
pub fn explore_parallel(build: fn() -> Box<dyn Target>, budget: Budget) -> Explored {
    explore_parallel_with(dds_sim::parallel::thread_count(), build, budget)
}

/// [`explore_parallel`] with an explicit worker count, so tests can pin
/// thread-count invariance without touching the environment.
pub fn explore_parallel_with(
    threads: usize,
    build: fn() -> Box<dyn Target>,
    budget: Budget,
) -> Explored {
    let mut probe = build();
    let Some(mut session) = probe.session() else {
        return explore(probe.as_mut(), budget);
    };
    // Learn the root width from a probe descent to the first choice.
    if session.advance(&mut Vec::new()) == SessionState::Done {
        // No choice points at all: the single deterministic run is the
        // whole space.
        let counterexample = session
            .violation()
            .map(|v| Counterexample::new(&[], v));
        let exhausted = counterexample.is_none();
        return Explored {
            runs: 1,
            states_explored: 0,
            dedup_hits: 0,
            forks: 0,
            counterexample,
            exhausted,
            progress: Vec::new(),
        };
    }
    let width = session.choice().expect("Choice state has a choice point").width;
    drop(session);
    drop(probe);

    let shards = if budget.max_preemptions == 0 || budget.max_depth == 0 {
        // Root deviations are inadmissible: the whole tree is one shard.
        1
    } else {
        width
    };
    let shard_budget = Budget {
        max_runs: (budget.max_runs / shards).max(1),
        ..budget
    };

    let results = dds_sim::parallel::parallel_map_with(threads, (0..shards).collect(), |k| {
        let mut target = build();
        let por = target.reduction_safe();
        let Some(mut session) = target.session() else {
            return explore(target.as_mut(), shard_budget);
        };
        if session.advance(&mut Vec::new()) == SessionState::Done {
            let counterexample = session.violation().map(|v| Counterexample::new(&[], v));
            let exhausted = counterexample.is_none();
            return Explored {
                runs: 1,
                states_explored: 0,
                dedup_hits: 0,
                forks: 0,
                counterexample,
                exhausted,
                progress: Vec::new(),
            };
        }
        let cp = session.choice().expect("Choice state has a choice point");
        // Shard k owns the subtree where the root dispatches alternative
        // k. Reconstruct the root node exactly as the sequential walk
        // would see it when it reaches that alternative: siblings 0..k
        // completed (their executed events in `done`, feeding the sleep
        // sets below), every root alternative marked tried so the shard
        // never leaves its subtree.
        let done = cp.ready.iter().take(k).copied().collect();
        let mut node = node_from(cp, Vec::new(), Vec::new());
        node.chosen = k;
        node.tried = vec![true; node.width];
        node.done = done;
        let Some(snapshot) = session.fork() else {
            return explore(target.as_mut(), shard_budget);
        };
        let path = vec![Frame {
            snapshot: Some(snapshot),
            node,
        }];
        let mut dfs = ForkDfs::new(shard_budget, por);
        dfs.forks += 1;
        session.choose(k);
        dfs.run(session, path)
    });

    let mut total = Explored {
        runs: 0,
        states_explored: 0,
        dedup_hits: 0,
        forks: 0,
        counterexample: None,
        exhausted: true,
        progress: Vec::new(),
    };
    for shard in results {
        total.runs += shard.runs;
        total.states_explored += shard.states_explored;
        total.dedup_hits += shard.dedup_hits;
        total.forks += shard.forks;
        // Samples concatenate in shard order (shards are defined by the
        // root width, not the worker count), keeping the merged vector
        // thread-count invariant like every other field.
        total.progress.extend(shard.progress.iter().copied());
        if shard.counterexample.is_some() {
            // Mirror the sequential early stop: later shards' work is
            // discarded (they ran, but the report is deterministic).
            total.counterexample = shard.counterexample;
            total.exhausted = false;
            break;
        }
        if !shard.exhausted {
            total.exhausted = false;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Violation;
    use std::path::Path;

    /// A synthetic target over an explicit decision tree: `widths[k]` is
    /// the width of the `k`-th choice point; the property fails exactly on
    /// the `bad` decision vector.
    struct TreeTarget {
        widths: Vec<usize>,
        bad: Option<Vec<usize>>,
        runs_seen: Vec<Vec<usize>>,
    }

    impl TreeTarget {
        fn new(widths: Vec<usize>, bad: Option<Vec<usize>>) -> Self {
            TreeTarget {
                widths,
                bad,
                runs_seen: Vec::new(),
            }
        }
    }

    impl Target for TreeTarget {
        fn name(&self) -> &str {
            "tree"
        }

        fn run(&mut self, plan: &[usize]) -> RunReport {
            let resolved: Vec<usize> = self
                .widths
                .iter()
                .enumerate()
                .map(|(k, &w)| plan.get(k).copied().unwrap_or(0).min(w - 1))
                .collect();
            self.runs_seen.push(resolved.clone());
            let choices = self
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
                .collect();
            let violation = (self.bad.as_deref() == Some(&resolved)).then(|| Violation {
                reason: "bad schedule reached".into(),
                details: format!("{resolved:?}"),
            });
            RunReport { choices, violation }
        }

        fn dump_counterexample(&mut self, _: &[usize], _: &Path, _: &str) {}
    }

    #[test]
    fn exhausts_a_small_tree() {
        let mut t = TreeTarget::new(vec![2, 3], None);
        let out = explore(
            &mut t,
            Budget {
                max_runs: 100,
                max_depth: 8,
                max_preemptions: 8,
            },
        );
        assert!(out.exhausted);
        assert!(out.counterexample.is_none());
        assert_eq!(out.runs, 6, "2 × 3 schedules, each run once");
        let mut seen = t.runs_seen.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6, "no schedule visited twice");
    }

    #[test]
    fn finds_a_planted_violation() {
        let mut t = TreeTarget::new(vec![2, 2, 2], Some(vec![1, 0, 1]));
        let out = explore(&mut t, Budget::default());
        let ce = out.counterexample.expect("must find the planted schedule");
        assert_eq!(ce.plan, vec![1, 0, 1]);
        assert_eq!(ce.preemptions, 2);
    }

    #[test]
    fn preemption_bound_prunes() {
        // The planted violation needs 3 preemptions; a 2-preemption budget
        // must exhaust without finding it.
        let mut t = TreeTarget::new(vec![2, 2, 2], Some(vec![1, 1, 1]));
        let out = explore(
            &mut t,
            Budget {
                max_runs: 1000,
                max_depth: 8,
                max_preemptions: 2,
            },
        );
        assert!(out.counterexample.is_none());
        assert!(out.exhausted);
        let out2 = explore(
            &mut TreeTarget::new(vec![2, 2, 2], Some(vec![1, 1, 1])),
            Budget {
                max_runs: 1000,
                max_depth: 8,
                max_preemptions: 3,
            },
        );
        assert!(out2.counterexample.is_some());
    }

    #[test]
    fn progress_samples_land_on_interval_boundaries() {
        // 4^5 = 1024 schedules against a 600-run budget: the replay walk
        // must cross the 256- and 512-run sample points exactly once each.
        let mut t = TreeTarget::new(vec![4, 4, 4, 4, 4], None);
        let out = explore(
            &mut t,
            Budget {
                max_runs: 600,
                max_depth: 8,
                max_preemptions: 8,
            },
        );
        assert_eq!(out.runs, 600);
        assert_eq!(out.progress.len(), 2, "samples at ≥256 and ≥512 runs");
        assert!(out.progress.windows(2).all(|w| w[0].runs < w[1].runs));
        for s in &out.progress {
            assert!(s.runs >= PROGRESS_INTERVAL);
            assert!(s.dedup_ratio() == 0.0, "the replay walk never dedups");
            assert!(s.frontier_depth <= 5);
        }
    }

    #[test]
    fn run_budget_is_a_hard_cap() {
        let mut t = TreeTarget::new(vec![4, 4, 4, 4], None);
        let out = explore(
            &mut t,
            Budget {
                max_runs: 10,
                max_depth: 8,
                max_preemptions: 8,
            },
        );
        assert_eq!(out.runs, 10);
        assert!(!out.exhausted);
    }
}
