//! A run's event log, happened-before DAG reconstruction and
//! critical-path analysis.
//!
//! The kernel stamps every observable event with a stable per-run id and
//! the id of the event that caused it ([`dds_core::run::Causality`]):
//! send→deliver, timer-set→fire, join→first-step. [`CausalLog`] keeps a
//! run's observations with those annotations; [`CausalDag`] rebuilds the
//! induced happened-before DAG from a log (or its JSONL rendering). Both
//! decompose the longest end-to-end latency chain — the *critical path* —
//! into transit (message flight), queueing (timer wait) and processing
//! segments.
//!
//! Ids are assigned in dispatch order, so a cause id is always smaller
//! than the id it caused; every analysis here is a single forward pass
//! over the nodes sorted by id. Id `0` means "the environment" and roots
//! a chain.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use dds_core::process::ProcessId;
use dds_core::run::Causality;
use dds_core::time::Time;

use crate::export::{obs_event_line, trace_line};
use crate::sink::{ObsEvent, Sink};

/// Which latency segment the edge *into* an event contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Message flight time (the edge ends at a delivery or a drop).
    Transit,
    /// Timer wait (the edge ends at a timer firing).
    Queueing,
    /// Everything else — local work between two events. Kernel dispatch
    /// is instantaneous, so processing edges are zero-length today; the
    /// segment exists so the decomposition stays total when that changes.
    Processing,
}

impl SegmentKind {
    /// Classifies the edge ending at `ev`.
    pub const fn of(ev: &ObsEvent) -> SegmentKind {
        match ev {
            ObsEvent::Deliver { .. } | ObsEvent::Drop { .. } => SegmentKind::Transit,
            ObsEvent::TimerFire { .. } => SegmentKind::Queueing,
            _ => SegmentKind::Processing,
        }
    }

    /// Stable lowercase label.
    pub const fn label(self) -> &'static str {
        match self {
            SegmentKind::Transit => "transit",
            SegmentKind::Queueing => "queueing",
            SegmentKind::Processing => "processing",
        }
    }
}

/// The process an observation is attributed to (the *affected* side:
/// deliveries belong to the destination).
const fn node_pid(ev: &ObsEvent) -> ProcessId {
    match ev {
        ObsEvent::Join { pid, .. }
        | ObsEvent::Leave { pid, .. }
        | ObsEvent::Crash { pid, .. }
        | ObsEvent::Corrupt { pid, .. }
        | ObsEvent::TimerFire { pid, .. }
        | ObsEvent::SpanStart { pid, .. }
        | ObsEvent::SpanEnd { pid, .. } => *pid,
        ObsEvent::Send { from, .. } => *from,
        ObsEvent::Deliver { to, .. } | ObsEvent::Drop { to, .. } => *to,
        ObsEvent::Step { .. } => ProcessId::from_raw(0),
    }
}

/// One node of the happened-before DAG: an identified event plus the
/// classification of the edge from its cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalNode {
    /// Stable per-run event id (> 0).
    pub id: u64,
    /// Id of the causing event (`0` = the environment; roots a chain).
    pub cause: u64,
    /// Dispatch instant.
    pub at: Time,
    /// Process the event is attributed to.
    pub pid: ProcessId,
    /// Segment the incoming edge belongs to.
    pub segment: SegmentKind,
}

impl CausalNode {
    /// The node of one identified log record.
    fn of(&(causal, ev): &(Causality, ObsEvent)) -> CausalNode {
        CausalNode {
            id: causal.id,
            cause: causal.cause,
            at: ev.at(),
            pid: node_pid(&ev),
            segment: SegmentKind::of(&ev),
        }
    }
}

/// The one log of an observed run: every observation but `Step` noise,
/// with its causal annotation, in emission order.
///
/// Everything a run is explained by is a reading of it: the flight dump
/// of its last records ([`CausalLog::flight_jsonl`]), the message-level
/// trace ([`CausalLog::trace_jsonl`]), the critical path
/// ([`CausalLog::critical_path`]) and the happened-before DAG
/// ([`CausalLog::dag`]).
#[derive(Debug, Clone, Default)]
pub struct CausalLog {
    records: Vec<(Causality, ObsEvent)>,
}

impl CausalLog {
    /// How many records a flight dump shows when a run fails its spec or
    /// an actor panics.
    pub const FLIGHT_TAIL: usize = 256;

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Builds the happened-before DAG over the identified records
    /// (unidentified ones, id `0`, are not part of it).
    pub fn dag(&self) -> CausalDag {
        CausalDag::new(
            self.records
                .iter()
                .filter(|(causal, _)| causal.id != 0)
                .map(CausalNode::of)
                .collect(),
        )
    }

    /// The run's critical path, equal to `self.dag().critical_path()`.
    ///
    /// A kernel log has every record identified and ids contiguous, so a
    /// cause sits at its id's offset from the first record: one forward
    /// pass keeps each record's root instant, and the chain is walked
    /// from there. Any other log takes the DAG.
    pub fn critical_path(&self) -> CriticalPath {
        let first = self.records.first().map_or(0, |(causal, _)| causal.id);
        let parent = |i: usize| {
            let (causal, _) = self.records[i];
            (causal.cause >= first && causal.cause < causal.id)
                .then(|| (causal.cause - first) as usize)
        };
        let mut root_at = Vec::with_capacity(self.records.len());
        for (k, (causal, ev)) in self.records.iter().enumerate() {
            if causal.id == 0 || causal.id != first + k as u64 {
                return self.dag().critical_path();
            }
            root_at.push(parent(k).map_or(ev.at(), |p| root_at[p]));
        }
        critical_walk(&root_at, |i| CausalNode::of(&self.records[i]), parent)
            .unwrap_or_default()
            .1
    }

    /// Renders the last `last` records as a JSONL flight dump: a header
    /// with the reason, the instant, the number of records shown
    /// (`events`) and the log's length (`recorded`), then one line per
    /// record, oldest first.
    pub fn flight_jsonl(&self, reason: &str, at: Time, last: usize) -> String {
        let tail = &self.records[self.records.len().saturating_sub(last)..];
        let mut out = String::with_capacity(64 + tail.len() * 48);
        let _ = writeln!(
            out,
            "{{\"t\":\"flight-dump\",\"reason\":\"{}\",\"at\":{},\"events\":{},\"recorded\":{}}}",
            reason.replace('\\', "\\\\").replace('"', "\\\""),
            at.as_ticks(),
            tail.len(),
            self.records.len()
        );
        for (causal, ev) in tail {
            obs_event_line(ev, *causal, &mut out);
        }
        out
    }

    /// Renders the run's message-level trace: one JSON line per join,
    /// leave, crash, send, deliver, drop and corruption (see
    /// [`trace_line`]), in emission order.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for (causal, ev) in &self.records {
            trace_line(ev, *causal, &mut out);
        }
        out
    }
}

impl Sink for CausalLog {
    fn record(&mut self, ev: &ObsEvent, causal: Causality) {
        if !matches!(ev, ObsEvent::Step { .. }) {
            self.records.push((causal, *ev));
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// The critical path over nodes `0..root_at.len()` in id order, and the
/// index of its end: the node with the largest root-to-node elapsed time
/// (ties toward the smallest id), its chain back to the root summed by
/// [`SegmentKind`]. `node(i)` is node `i`, `parent(i)` the index of its
/// cause, `root_at[i]` the instant of its chain's root. [`CausalDag`]
/// and [`CausalLog`] both answer through this one walk.
fn critical_walk(
    root_at: &[Time],
    node: impl Fn(usize) -> CausalNode,
    parent: impl Fn(usize) -> Option<usize>,
) -> Option<(usize, CriticalPath)> {
    let elapsed = |i: usize, n: &CausalNode| n.at.saturating_since(root_at[i]).as_ticks();
    let end = (0..root_at.len()).max_by_key(|&i| {
        let n = node(i);
        // Larger elapsed first, then the smaller id.
        (elapsed(i, &n), u64::MAX - n.id)
    })?;
    let mut cp = CriticalPath {
        total: elapsed(end, &node(end)),
        ..CriticalPath::default()
    };
    let mut i = end;
    while let Some(p) = parent(i) {
        let n = node(i);
        let dur = n.at.saturating_since(node(p).at).as_ticks();
        match n.segment {
            SegmentKind::Transit => cp.transit += dur,
            SegmentKind::Queueing => cp.queueing += dur,
            SegmentKind::Processing => cp.processing += dur,
        }
        cp.hops += 1;
        i = p;
    }
    Some((end, cp))
}

/// The critical path of a run: the cause chain with the largest
/// end-to-end elapsed time, decomposed into segments. All fields are in
/// ticks; `transit + queueing + processing == total` (edge durations
/// along a chain telescope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// End-to-end elapsed ticks from the chain's root to its last event.
    pub total: u64,
    /// Ticks spent in message flight.
    pub transit: u64,
    /// Ticks spent waiting on timers.
    pub queueing: u64,
    /// Ticks of local work (zero under instantaneous dispatch).
    pub processing: u64,
    /// Number of edges on the chain.
    pub hops: usize,
}

impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total={} transit={} queueing={} processing={} hops={}",
            self.total, self.transit, self.queueing, self.processing, self.hops
        )
    }
}

/// The happened-before DAG of one run, indexed for single-pass analyses.
///
/// Construction puts the nodes in id order and resolves each node's cause
/// to an index; because causes precede effects in id order, depth and
/// root-distance are computed in one forward sweep. A kernel log arrives
/// in id order with no gap, so for it neither step searches: the order
/// is checked in one pass, and a cause sits at its id's offset from the
/// first node's.
#[derive(Debug, Clone)]
pub struct CausalDag {
    nodes: Vec<CausalNode>,
    /// Index of the cause node, when it is in the DAG.
    parent: Vec<Option<usize>>,
    /// Edges from the root of each node's chain.
    depth: Vec<usize>,
    /// Instant of each node's chain root.
    root_at: Vec<Time>,
}

impl CausalDag {
    /// Builds the DAG from nodes in any order (duplicate ids collapse to
    /// the first occurrence).
    pub fn new(mut nodes: Vec<CausalNode>) -> Self {
        if !nodes.windows(2).all(|w| w[0].id < w[1].id) {
            nodes.sort_by_key(|n| n.id);
            nodes.dedup_by_key(|n| n.id);
        }
        // Strictly increasing ids spanning exactly `len` values have no
        // gap: node `k` carries id `first + k`.
        let first = nodes.first().map_or(0, |n| n.id);
        let contiguous = nodes
            .last()
            .is_some_and(|n| n.id - first == nodes.len() as u64 - 1);
        // A cause is looked up among the nodes before its effect only:
        // an id at or past the effect's own is not a cause.
        let find = |nodes: &[CausalNode], id: u64| -> Option<usize> {
            if id == 0 {
                None
            } else if contiguous {
                let offset = usize::try_from(id.checked_sub(first)?).ok()?;
                (offset < nodes.len()).then_some(offset)
            } else {
                nodes.binary_search_by_key(&id, |n| n.id).ok()
            }
        };
        let mut parent = Vec::with_capacity(nodes.len());
        let mut depth = Vec::with_capacity(nodes.len());
        let mut root_at = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            let p = find(&nodes[..i], nodes[i].cause);
            parent.push(p);
            depth.push(p.map_or(0, |pi| depth[pi] + 1));
            root_at.push(p.map_or(nodes[i].at, |pi| root_at[pi]));
        }
        CausalDag {
            nodes,
            parent,
            depth,
            root_at,
        }
    }

    /// Parses a JSONL event stream (trace, obs, or flight dump)
    /// into a DAG. Lines without a positive `"id"` field — headers,
    /// steps, unannotated events — are skipped, so any artifact this
    /// repository produces can be fed back in. For multi-run trace
    /// exports use [`CausalDag::from_jsonl_runs`]: ids restart per run,
    /// so parsing many runs as one DAG fabricates cross-run edges.
    pub fn from_jsonl(input: &str) -> CausalDag {
        CausalDag::new(input.lines().filter_map(parse_jsonl_node).collect())
    }

    /// Splits a JSONL stream at `{"t":"run",…}` headers (the per-run
    /// markers `run_experiments --trace-dir` writes) and builds one DAG
    /// per run. Event ids restart from 1 in every run, so each run must
    /// be its own DAG for chains and critical paths to mean anything.
    /// Input without run headers — flight dumps, causal-chain witnesses —
    /// yields a single DAG, empty chunks are dropped, and an input with
    /// no identified event at all yields one empty DAG.
    pub fn from_jsonl_runs(input: &str) -> Vec<CausalDag> {
        let mut chunks: Vec<Vec<CausalNode>> = vec![Vec::new()];
        for line in input.lines() {
            if line.contains("\"t\":\"run\"") {
                chunks.push(Vec::new());
            } else if let Some(node) = parse_jsonl_node(line) {
                chunks.last_mut().expect("starts non-empty").push(node);
            }
        }
        let dags: Vec<CausalDag> = chunks
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(CausalDag::new)
            .collect();
        if dags.is_empty() {
            return vec![CausalDag::new(Vec::new())];
        }
        dags
    }

    /// The nodes, sorted by id.
    pub fn nodes(&self) -> &[CausalNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Longest cause chain, in edges.
    pub fn depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Largest number of nodes at one chain depth — a cheap level-based
    /// proxy for the DAG's parallelism (an upper bound on how many events
    /// at that depth are pairwise ordered, not an exact max antichain).
    pub fn width(&self) -> usize {
        let mut per_level: BTreeMap<usize, usize> = BTreeMap::new();
        for &d in &self.depth {
            *per_level.entry(d).or_insert(0) += 1;
        }
        per_level.values().copied().max().unwrap_or(0)
    }

    /// Outgoing causal edges attributed to each process (how much each
    /// process's events fan out into further events).
    pub fn fan_out(&self) -> BTreeMap<ProcessId, u64> {
        let mut out = BTreeMap::new();
        for &p in self.parent.iter().flatten() {
            *out.entry(self.nodes[p].pid).or_insert(0) += 1;
        }
        out
    }

    /// Largest number of direct effects of any single event.
    pub fn max_fan_out(&self) -> u64 {
        let mut children = vec![0u64; self.nodes.len()];
        for &p in self.parent.iter().flatten() {
            children[p] += 1;
        }
        children.into_iter().max().unwrap_or(0)
    }

    /// The cause chain of event `id`, root first — the minimal
    /// happened-before explanation of that event.
    pub fn chain_of(&self, id: u64) -> Vec<CausalNode> {
        let Ok(mut i) = self.nodes.binary_search_by_key(&id, |n| n.id) else {
            return Vec::new();
        };
        let mut chain = vec![self.nodes[i]];
        while let Some(p) = self.parent[i] {
            chain.push(self.nodes[p]);
            i = p;
        }
        chain.reverse();
        chain
    }

    /// The critical path and the index of its end node.
    fn critical(&self) -> Option<(usize, CriticalPath)> {
        critical_walk(&self.root_at, |i| self.nodes[i], |i| self.parent[i])
    }

    /// Id of the event ending the critical path, or `None` on an empty
    /// DAG. `chain_of` this id is the run's longest-latency explanation.
    pub fn critical_end(&self) -> Option<u64> {
        self.critical().map(|(end, _)| self.nodes[end].id)
    }

    /// The critical path: the chain with the largest root-to-end elapsed
    /// time (ties broken toward the smallest event id), decomposed by
    /// [`SegmentKind`].
    pub fn critical_path(&self) -> CriticalPath {
        self.critical().unwrap_or_default().1
    }

    /// One-line deterministic stats summary (what `run_trace` prints).
    pub fn summary(&self) -> String {
        let cp = self.critical_path();
        format!(
            "events={} depth={} width={} max_fan_out={} critical[{}]",
            self.len(),
            self.depth(),
            self.width(),
            self.max_fan_out(),
            cp
        )
    }
}

/// Parses one JSONL event line into a node; `None` for headers, steps
/// and unannotated lines (no positive `"id"` field).
fn parse_jsonl_node(line: &str) -> Option<CausalNode> {
    let id = json_u64(line, "\"id\":")?;
    if id == 0 {
        return None;
    }
    let cause = json_u64(line, "\"cause\":").unwrap_or(0);
    let at = Time::from_ticks(json_u64(line, "\"at\":").unwrap_or(0));
    let pid = json_u64(line, "\"to\":")
        .or_else(|| json_u64(line, "\"pid\":"))
        .or_else(|| json_u64(line, "\"from\":"))
        .unwrap_or(0);
    // Causal-chain witnesses carry the classification explicitly; every
    // other artifact is classified by its event tag.
    let segment = match json_str(line, "\"segment\":\"") {
        Some("transit") => SegmentKind::Transit,
        Some("queueing") => SegmentKind::Queueing,
        Some(_) => SegmentKind::Processing,
        None => match json_str(line, "\"t\":\"") {
            Some("deliver") | Some("drop") => SegmentKind::Transit,
            Some("timer") => SegmentKind::Queueing,
            _ => SegmentKind::Processing,
        },
    };
    Some(CausalNode {
        id,
        cause,
        at,
        pid: ProcessId::from_raw(pid),
        segment,
    })
}

/// Extracts the unsigned integer following `key` in a JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string following `key` (which ends with an opening
/// quote) in a JSON line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::time::TimeDelta;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn t(n: u64) -> Time {
        Time::from_ticks(n)
    }

    fn node(id: u64, cause: u64, at: u64, p: u64, segment: SegmentKind) -> CausalNode {
        CausalNode {
            id,
            cause,
            at: t(at),
            pid: pid(p),
            segment,
        }
    }

    /// A send→deliver→send→deliver relay with a timer-fired root:
    /// timer(1)@2 → send(1)@2 → deliver(2)@5 → send(2)@5 → deliver(3)@9.
    fn relay() -> CausalDag {
        CausalDag::new(vec![
            node(1, 0, 2, 1, SegmentKind::Queueing),
            node(2, 1, 2, 1, SegmentKind::Processing),
            node(3, 2, 5, 2, SegmentKind::Transit),
            node(4, 3, 5, 2, SegmentKind::Processing),
            node(5, 4, 9, 3, SegmentKind::Transit),
        ])
    }

    #[test]
    fn depth_width_and_fan_out() {
        let dag = relay();
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.depth(), 4);
        assert_eq!(dag.width(), 1);
        assert_eq!(dag.max_fan_out(), 1);
        let fo = dag.fan_out();
        assert_eq!(fo[&pid(1)], 2, "pid 1 caused the send and its delivery");
    }

    #[test]
    fn critical_path_decomposes_and_telescopes() {
        let dag = relay();
        let cp = dag.critical_path();
        assert_eq!(cp.total, 7, "root at 2, end at 9");
        assert_eq!(cp.transit, 7, "3 + 4 ticks of flight");
        assert_eq!(cp.queueing, 0, "the timer edge roots the chain");
        assert_eq!(cp.processing, 0);
        assert_eq!(cp.hops, 4);
        assert_eq!(cp.transit + cp.queueing + cp.processing, cp.total);
    }

    #[test]
    fn chain_of_returns_the_minimal_explanation() {
        let dag = relay();
        let chain = dag.chain_of(5);
        let ids: Vec<u64> = chain.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(dag.chain_of(99).is_empty());
    }

    #[test]
    fn log_skips_unidentified_events_and_builds_the_dag() {
        let mut log = CausalLog::default();
        log.record(
            &ObsEvent::Step {
                at: t(0),
                queue_depth: 3,
            },
            Causality::default(),
        );
        log.record(
            &ObsEvent::Send {
                from: pid(0),
                to: pid(1),
                at: t(0),
            },
            Causality { id: 1, cause: 0 },
        );
        log.record(
            &ObsEvent::Deliver {
                from: pid(0),
                to: pid(1),
                at: t(3),
                latency: TimeDelta::ticks(3),
            },
            Causality { id: 2, cause: 1 },
        );
        assert_eq!(log.len(), 2, "the unidentified step is skipped");
        let dag = log.dag();
        assert_eq!(dag.critical_path().total, 3);
        assert_eq!(
            dag.nodes()[1].pid,
            pid(1),
            "delivery attributed to destination"
        );
    }

    #[test]
    fn jsonl_round_trip() {
        let input = "\
{\"t\":\"flight-dump\",\"reason\":\"x\",\"at\":9,\"events\":2,\"recorded\":2}\n\
{\"t\":\"send\",\"from\":0,\"to\":1,\"at\":0,\"id\":1,\"cause\":0}\n\
{\"t\":\"deliver\",\"from\":0,\"to\":1,\"at\":4,\"id\":2,\"cause\":1}\n\
{\"t\":\"timer\",\"pid\":1,\"at\":6,\"id\":3,\"cause\":2}\n\
{\"t\":\"join\",\"pid\":7,\"at\":0}\n";
        let dag = CausalDag::from_jsonl(input);
        assert_eq!(dag.len(), 3, "header and unannotated join are skipped");
        let cp = dag.critical_path();
        assert_eq!(cp.total, 6);
        assert_eq!(cp.transit, 4);
        assert_eq!(cp.queueing, 2);
        assert_eq!(dag.depth(), 2);
        assert!(dag.summary().contains("events=3"));
    }

    #[test]
    fn multi_run_exports_split_into_one_dag_per_run() {
        // Two runs whose ids both start at 1: merged naively, run 2's
        // delivery would resolve its cause to run 1's send and fabricate
        // a cross-run edge. Split, each run telescopes on its own.
        let input = "\
{\"t\":\"run\",\"index\":0}\n\
{\"t\":\"send\",\"from\":0,\"to\":1,\"at\":0,\"id\":1,\"cause\":0}\n\
{\"t\":\"deliver\",\"from\":0,\"to\":1,\"at\":3,\"id\":2,\"cause\":1}\n\
{\"t\":\"run\",\"index\":1}\n\
{\"t\":\"send\",\"from\":0,\"to\":1,\"at\":5,\"id\":1,\"cause\":0}\n\
{\"t\":\"deliver\",\"from\":0,\"to\":1,\"at\":12,\"id\":2,\"cause\":1}\n";
        let dags = CausalDag::from_jsonl_runs(input);
        assert_eq!(dags.len(), 2);
        assert_eq!(dags[0].critical_path().total, 3);
        assert_eq!(dags[1].critical_path().total, 7);
        for dag in &dags {
            let cp = dag.critical_path();
            assert_eq!(cp.transit + cp.queueing + cp.processing, cp.total);
        }
        // No headers → one DAG; nothing identified → one empty DAG.
        assert_eq!(
            CausalDag::from_jsonl_runs("{\"t\":\"send\",\"at\":0,\"id\":1,\"cause\":0}").len(),
            1
        );
        let empty = CausalDag::from_jsonl_runs("{\"t\":\"run\",\"index\":0}\n");
        assert_eq!(empty.len(), 1);
        assert!(empty[0].is_empty());
    }

    #[test]
    fn explicit_segment_field_wins_over_the_event_tag() {
        // Chain witnesses re-render nodes with `"t":"node"` but keep the
        // original classification in `"segment"` — round-tripping one
        // through the parser must preserve the decomposition.
        let input = "\
{\"t\":\"node\",\"depth\":0,\"id\":1,\"cause\":0,\"at\":0,\"pid\":1,\"segment\":\"processing\"}\n\
{\"t\":\"node\",\"depth\":1,\"id\":2,\"cause\":1,\"at\":4,\"pid\":2,\"segment\":\"transit\"}\n\
{\"t\":\"node\",\"depth\":2,\"id\":3,\"cause\":2,\"at\":6,\"pid\":2,\"segment\":\"queueing\"}\n";
        let cp = CausalDag::from_jsonl(input).critical_path();
        assert_eq!((cp.transit, cp.queueing, cp.processing), (4, 2, 0));
    }

    /// The construction as it was before the in-order and contiguous
    /// short cuts: always sort, always search.
    fn sort_and_search(mut nodes: Vec<CausalNode>) -> CausalDag {
        nodes.sort_by_key(|n| n.id);
        nodes.dedup_by_key(|n| n.id);
        let mut dag = CausalDag {
            nodes,
            parent: Vec::new(),
            depth: Vec::new(),
            root_at: Vec::new(),
        };
        for i in 0..dag.nodes.len() {
            let cause = dag.nodes[i].cause;
            let p = (cause != 0)
                .then(|| dag.nodes[..i].binary_search_by_key(&cause, |n| n.id).ok())
                .flatten();
            dag.parent.push(p);
            dag.depth.push(p.map_or(0, |pi| dag.depth[pi] + 1));
            dag.root_at
                .push(p.map_or(dag.nodes[i].at, |pi| dag.root_at[pi]));
        }
        dag
    }

    /// What separates one input shape from the next: how ids advance and
    /// whether the nodes arrive in id order.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Ids `first, first + 1, …` in order: what the kernel produces.
        Contiguous,
        /// Increasing ids with holes (a filtered or truncated stream).
        Gapped,
        /// Contiguous ids in arbitrary order.
        Shuffled,
        /// Gapped, out of order, some ids twice.
        Duplicated,
    }

    fn shaped_nodes(shape: Shape, first: u64, raw: &[(u64, u64, u64, u64)]) -> Vec<CausalNode> {
        let segments = [
            SegmentKind::Transit,
            SegmentKind::Queueing,
            SegmentKind::Processing,
        ];
        let mut id = first;
        let mut nodes: Vec<CausalNode> = Vec::new();
        for &(step, back, dt, p) in raw {
            let at = nodes.last().map_or(0, |n| n.at.as_ticks()) + dt;
            // Causes reach back a few ids — 0 (the environment), ids the
            // stream skipped, ids before `first`, and, rarely, ids at or
            // past the node's own all occur.
            let cause = if back == 7 {
                id + p
            } else {
                id.saturating_sub(back)
            };
            nodes.push(node(id, cause, at, p, segments[(p % 3) as usize]));
            id += match shape {
                Shape::Contiguous | Shape::Shuffled => 1,
                Shape::Gapped | Shape::Duplicated => 1 + step,
            };
        }
        if matches!(shape, Shape::Shuffled | Shape::Duplicated) {
            // A fixed stride permutation keyed on the input itself.
            let n = nodes.len();
            let stride = (1..n).rev().find(|s| gcd(*s, n) == 1).unwrap_or(1);
            nodes = (0..n).map(|i| nodes[(i * stride + 1) % n]).collect();
        }
        if matches!(shape, Shape::Duplicated) {
            let again: Vec<CausalNode> = nodes.iter().step_by(3).copied().collect();
            nodes.extend(again);
        }
        nodes
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whatever path `new` takes, it builds what sort-and-search
        /// builds: same links, depths, critical path and chains.
        #[test]
        fn short_cuts_build_the_same_dag(
            shape in proptest::prop_oneof![
                proptest::prelude::Just(Shape::Contiguous),
                proptest::prelude::Just(Shape::Gapped),
                proptest::prelude::Just(Shape::Shuffled),
                proptest::prelude::Just(Shape::Duplicated),
            ],
            first in 1u64..40,
            raw in proptest::collection::vec((0u64..3, 0u64..8, 0u64..5, 0u64..6), 0..60),
        ) {
            let nodes = shaped_nodes(shape, first, &raw);
            let want = sort_and_search(nodes.clone());
            let got = CausalDag::new(nodes);
            proptest::prop_assert_eq!(got.nodes(), want.nodes());
            proptest::prop_assert_eq!(&got.parent, &want.parent);
            proptest::prop_assert_eq!(&got.depth, &want.depth);
            proptest::prop_assert_eq!(&got.root_at, &want.root_at);
            proptest::prop_assert_eq!(got.critical_path(), want.critical_path());
            proptest::prop_assert_eq!(got.critical_end(), want.critical_end());
            for n in want.nodes() {
                proptest::prop_assert_eq!(got.chain_of(n.id), want.chain_of(n.id));
            }
        }
    }

    /// A log record whose node is `n`: the event kind fixes the segment,
    /// and the event is attributed to `n.pid`.
    fn record_of(n: &CausalNode) -> (Causality, ObsEvent) {
        let (p, at) = (n.pid, n.at);
        let ev = match n.segment {
            SegmentKind::Transit => ObsEvent::Deliver {
                from: p,
                to: p,
                at,
                latency: TimeDelta::ticks(0),
            },
            SegmentKind::Queueing => ObsEvent::TimerFire { pid: p, at },
            SegmentKind::Processing => ObsEvent::Send { from: p, to: p, at },
        };
        let causal = Causality {
            id: n.id,
            cause: n.cause,
        };
        (causal, ev)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The log's own walk finds the DAG's critical path, on kernel
        /// logs (contiguous ids) and on every other shape, with or without
        /// unidentified records mixed in.
        #[test]
        fn log_critical_path_is_the_dags(
            shape in proptest::prop_oneof![
                proptest::prelude::Just(Shape::Contiguous),
                proptest::prelude::Just(Shape::Gapped),
                proptest::prelude::Just(Shape::Shuffled),
                proptest::prelude::Just(Shape::Duplicated),
            ],
            first in 1u64..40,
            raw in proptest::collection::vec((0u64..3, 0u64..8, 0u64..5, 0u64..6), 0..60),
            anonymous_every in 0usize..8,
        ) {
            let nodes = shaped_nodes(shape, first, &raw);
            let mut log = CausalLog::default();
            for (k, n) in nodes.iter().enumerate() {
                if anonymous_every > 0 && k % anonymous_every == anonymous_every - 1 {
                    let span = ObsEvent::SpanStart { name: "span", pid: n.pid, at: n.at };
                    log.record(&span, Causality::default());
                }
                let (causal, ev) = record_of(n);
                log.record(&ev, causal);
            }
            let (dag, want) = (log.dag(), CausalDag::new(nodes));
            proptest::prop_assert_eq!(dag.nodes(), want.nodes());
            proptest::prop_assert_eq!(log.critical_path(), dag.critical_path());
        }
    }

    #[test]
    fn log_critical_path_matches_its_dag() {
        let mut log = CausalLog::default();
        for id in 1..=20u64 {
            log.record(
                &ObsEvent::TimerFire {
                    pid: pid(id % 3),
                    at: t(id * 2),
                },
                Causality { id, cause: id / 2 },
            );
        }
        let dag = log.dag();
        assert_eq!(dag.depth(), 4, "1 → 2 → 4 → 8 → 16");
        assert_eq!(log.critical_path(), dag.critical_path());
        assert_eq!(log.critical_path().hops, 4);
    }

    fn join(n: u64) -> ObsEvent {
        ObsEvent::Join {
            pid: pid(n),
            at: t(n),
        }
    }

    /// A log of ten joins at instants 0..10.
    fn ten_joins() -> CausalLog {
        let mut log = CausalLog::default();
        for i in 0..10 {
            log.record(
                &join(i),
                Causality {
                    id: i + 1,
                    cause: 0,
                },
            );
        }
        log
    }

    #[test]
    fn flight_dump_shows_only_the_last_n() {
        let dump = ten_joins().flight_jsonl("tail", t(9), 3);
        let ats: Vec<u64> = dump
            .lines()
            .skip(1)
            .map(|l| json_u64(l, "\"at\":").expect("at field"))
            .collect();
        assert_eq!(ats, vec![7, 8, 9]);
    }

    #[test]
    fn flight_dump_skips_step_events() {
        let mut log = CausalLog::default();
        log.record(
            &ObsEvent::Step {
                at: Time::ZERO,
                queue_depth: 5,
            },
            Causality::default(),
        );
        assert!(log.is_empty());
        let dump = log.flight_jsonl("steps", Time::ZERO, 4);
        assert!(dump.ends_with("\"events\":0,\"recorded\":0}\n"), "{dump}");
        assert_eq!(dump.lines().count(), 1);
    }

    #[test]
    fn flight_dump_has_header_and_one_line_per_event() {
        let mut log = CausalLog::default();
        log.record(&join(1), Causality { id: 1, cause: 0 });
        log.record(&join(2), Causality { id: 2, cause: 1 });
        let dump = log.flight_jsonl("spec \"failure\"", t(5), CausalLog::FLIGHT_TAIL);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"t\":\"flight-dump\""));
        assert!(
            lines[0].contains("\\\"failure\\\""),
            "reason is escaped: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"t\":\"join\""));
    }

    #[test]
    fn flight_dump_counts_records_outside_the_tail() {
        let log = ten_joins();
        let header = |last: usize| {
            let dump = log.flight_jsonl("r", t(9), last);
            dump.lines().next().expect("header").to_string()
        };
        assert_eq!(
            header(3),
            "{\"t\":\"flight-dump\",\"reason\":\"r\",\"at\":9,\"events\":3,\"recorded\":10}"
        );
        assert!(header(50).ends_with("\"events\":10,\"recorded\":10}"));
    }

    #[test]
    fn duplicate_ids_collapse() {
        let dag = CausalDag::new(vec![
            node(1, 0, 0, 0, SegmentKind::Processing),
            node(1, 0, 5, 0, SegmentKind::Processing),
        ]);
        assert_eq!(dag.len(), 1);
        assert!(CausalDag::new(Vec::new()).is_empty());
        assert_eq!(
            CausalDag::new(Vec::new()).critical_path(),
            CriticalPath::default()
        );
    }
}
