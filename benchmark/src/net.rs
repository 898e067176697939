//! The networked workloads: `net-steady` (closed loop at saturation) and
//! `net-paced-kill` (open loop on a fixed schedule across a replica kill
//! and a fresh-identity replacement).
//!
//! The loader is one thread driving one `Host` with [`CLIENTS`] client
//! cores inside the benchmark process. It keeps every raw latency sample
//! and checks every response as it arrives:
//!
//! - a read returns ⊥ or a value whose write had been invoked by then;
//! - a read never returns a value of writer `w` older than the last write
//!   of `w` that completed before the read was injected (no stale read);
//! - per reader and per writer, read indices never go backwards;
//! - after quiescence, one final read per client must agree.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::api::{
    net_params, Addr, Host, HostCfg, ProcessId, RegOp, RegResp, Rng, StoreMsg, ROLE_CLIENT,
};
use crate::cluster::{split_cpus, Cluster, Proc};
use crate::procfs::{self, CpuTicks, ProcSample};
use crate::report::{EndToEnd, Layers, Outcome};
use crate::stats::{percentile, summarize, typical};
use crate::sys;
use crate::trace::{allocs, Tracer};
use crate::Ctx;

/// Client cores in the loader (each keeps one operation in service).
pub const CLIENTS: usize = 8;
/// Protocol identity of client 0.
const CLIENT_PID_BASE: u64 = 1000;
/// Operations each setup runs before it counts as warm.
const WARMUP_OPS: u64 = 20_000;
/// Times the cluster is set up per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop write share, percent.
const STEADY_WRITE_PCT: u64 = 20;
/// Open-loop write share, percent.
const PACED_WRITE_PCT: u64 = 50;
/// Open-loop schedule: every half millisecond one operation per client
/// falls due — 16 000 ops/s over 8 clients, under a quarter of
/// closed-loop capacity. One per boundary, not two per millisecond: with two, half
/// the operations wait for their client's other one, the median latency
/// is the border between the two halves, and it moves 12 % between
/// identical runs.
const PACED_TICK: Duration = Duration::from_micros(500);
/// The fixed latency limit of the open loop, from an operation's due time.
const LATE_LIMIT: Duration = Duration::from_millis(10);
/// The kill falls this far into the measured window.
const KILL_AT_SHARE: f64 = 0.3;
/// The replacement starts this long after the kill.
const RESPAWN_AFTER: Duration = Duration::from_millis(500);
/// The gated latencies are those of the *typical stretch* of the window
/// (see [`typical`]): percentiles are taken of each [`CHUNK`] operations
/// in completion order and the median chunk is reported. Whether a
/// whole-window percentile falls among the few thousand operations a
/// reconfiguration delayed is the luck of the run (between identical runs
/// of the open loop p95 moves 80 % and p99 from 1 ms to 300 ms); the
/// delayed operations count against the open loop's `work_per_s` instead,
/// and the whole-window percentiles are printed and reported per layer.
///
/// All of these are printed. The first is `p50_us` and the second the
/// gated `tail_us`: a chunk supports p99.9, but between identical runs on
/// a two-core box the typical p90 moves 4 to 12 %, p95 5 to 14 % and p99
/// 34 %, and the benchmark is only accepted while its spread stays within
/// the bound.
const CHUNK_PCTS: [f64; 4] = [50.0, 90.0, 95.0, 99.0];
/// Operations per chunk: 0.15 s of the closed loop, 0.6 s of the open one.
const CHUNK: usize = 10_000;
/// Tail percentile of the ungated per-layer read and write latencies.
const LAYER_TAIL_PCT: f64 = 99.0;
/// A run that lasts this long after the kill must have seen the survivors
/// commit a new configuration and the replacement join one (both take
/// about a second); otherwise recovery failed and so does the run.
const RECOVERY_WITHIN: Duration = Duration::from_secs(5);
/// The closed loop counts completions per slice of this length.
const SLICE: Duration = Duration::from_millis(50);
/// How long in-flight operations may take to finish once injection stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Written values are unique: writer index + 1 in the high half, the
/// writer's write count (from 1) in the low half.
fn value_of(writer: usize, idx: u32) -> u64 {
    ((writer as u64 + 1) << 32) | u64::from(idx)
}

/// An injected operation awaiting its log entry.
struct Pending {
    /// When it was due (closed loop: when it was injected).
    due: Instant,
    /// The writer's write count for a write, 0 for a read.
    write_idx: u32,
    /// Per writer, the writes completed when this was injected.
    done_before: [u32; CLIENTS],
}

/// What one measured window saw.
pub struct Window {
    /// Latency of every answered operation, in completion order.
    pub all_ns: Vec<u32>,
    pub reads_ns: Vec<u32>,
    pub writes_ns: Vec<u32>,
    /// How late the open-loop generator injected each operation.
    pub gen_late_ns: Vec<u32>,
    pub issued: u64,
    pub completed: u64,
    pub aborted: u64,
    /// Aborted, or answered more than [`LATE_LIMIT`] after due.
    pub late: u64,
    pub ticks: u64,
    pub frames: u64,
    /// Completions in each whole [`SLICE`] of the closed loop.
    pub slices: Vec<f64>,
    pub wall: Duration,
}

impl Window {
    fn new(expected_ops: usize) -> Self {
        Window {
            all_ns: Vec::with_capacity(expected_ops),
            reads_ns: Vec::with_capacity(expected_ops),
            writes_ns: Vec::with_capacity(expected_ops),
            gen_late_ns: Vec::new(),
            issued: 0,
            completed: 0,
            aborted: 0,
            late: 0,
            ticks: 0,
            frames: 0,
            slices: Vec::new(),
            wall: Duration::ZERO,
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// Operations per second answered within [`LATE_LIMIT`] of their due
    /// time: an aborted or late operation is load the service was offered
    /// and did not serve.
    fn on_time_per_s(&self) -> f64 {
        (self.issued - self.late) as f64 / self.wall.as_secs_f64()
    }

    /// Operations per second over the middle half of the slices: a stall
    /// of the machine slows a few slices, not the figure.
    fn typical_ops_per_s(&mut self) -> f64 {
        if self.slices.is_empty() {
            return self.ops_per_s();
        }
        crate::stats::midmean(&mut self.slices) / SLICE.as_secs_f64()
    }
}

/// The longest interval with no completion after a kill.
#[derive(Default)]
struct Stall {
    kill: Option<Instant>,
    last_completion: Option<Instant>,
    longest: Duration,
}

impl Stall {
    fn completion_at(&mut self, now: Instant) {
        if let Some(kill) = self.kill.filter(|&k| now > k) {
            let since = self.last_completion.map_or(kill, |t| t.max(kill));
            self.longest = self.longest.max(now - since);
        }
        self.last_completion = Some(now);
    }
}

fn clamp_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// The load generator and response checker.
pub struct Loader {
    host: Host,
    rngs: Vec<Rng>,
    write_pct: u64,
    seen: [usize; CLIENTS],
    pending: Vec<VecDeque<Pending>>,
    writes_issued: [u32; CLIENTS],
    writes_done: [u32; CLIENTS],
    /// `last_read[reader][writer]`: highest index of `writer` seen by `reader`.
    last_read: [[u32; CLIENTS]; CLIENTS],
    /// Value of each client's latest completed read.
    last_value: [Option<Option<u64>>; CLIENTS],
    op_seq: u64,
    stall: Stall,
    pub violations: u64,
    pub first_violation: Option<String>,
}

impl Loader {
    /// Connects the client host through the cluster's seed and waits for
    /// the first roster.
    pub fn connect(cluster: &Cluster, seed: u64, write_pct: u64) -> Result<Loader, String> {
        let initial: Vec<ProcessId> = Cluster::initial()
            .into_iter()
            .map(ProcessId::from_raw)
            .collect();
        let params = net_params(initial);
        let cfg = HostCfg {
            listen: None,
            seed: Some(Addr::parse(&cluster.seed_addr())?),
            role: ROLE_CLIENT,
        };
        let cores = (0..CLIENTS as u64)
            .map(|i| (ProcessId::from_raw(CLIENT_PID_BASE + i), params.clone()))
            .collect();
        let mut host =
            Host::new(cfg, cores, Instant::now()).map_err(|e| format!("client host: {e}"))?;
        let start = Instant::now();
        while !host.started() {
            host.tick(5).map_err(|e| format!("client host: {e}"))?;
            if start.elapsed() > Duration::from_secs(10) {
                return Err("client host never saw a roster".into());
            }
        }
        let mut root = Rng::seeded(seed);
        Ok(Loader {
            host,
            rngs: (0..CLIENTS).map(|_| root.fork()).collect(),
            write_pct,
            seen: [0; CLIENTS],
            pending: (0..CLIENTS).map(|_| VecDeque::with_capacity(64)).collect(),
            writes_issued: [0; CLIENTS],
            writes_done: [0; CLIENTS],
            last_read: [[0; CLIENTS]; CLIENTS],
            last_value: [None; CLIENTS],
            op_seq: 0,
            stall: Stall::default(),
            violations: 0,
            first_violation: None,
        })
    }

    fn violation(&mut self, msg: String) {
        self.violations += 1;
        self.first_violation.get_or_insert(msg);
    }

    fn inject(
        &mut self,
        i: usize,
        due: Instant,
        force_read: bool,
        w: &mut Window,
        tr: &mut Tracer,
    ) {
        let write = !force_read && self.rngs[i].below(100) < self.write_pct;
        let (op, write_idx) = if write {
            self.writes_issued[i] += 1;
            let idx = self.writes_issued[i];
            (RegOp::Write(value_of(i, idx)), idx)
        } else {
            (RegOp::Read, 0)
        };
        self.pending[i].push_back(Pending {
            due,
            write_idx,
            done_before: self.writes_done,
        });
        self.op_seq += 1;
        w.issued += 1;
        tr.enter("Host::inject", self.op_seq);
        self.host.inject(i, StoreMsg::Invoke(op));
        tr.exit();
    }

    /// Consumes every new log entry, checking and timing it at `now`.
    fn harvest(&mut self, now: Instant, w: &mut Window, tr: &mut Tracer) {
        for i in 0..CLIENTS {
            while self.seen[i] < self.host.core(i).log().len() {
                let entry = self.host.core(i).log()[self.seen[i]];
                self.seen[i] += 1;
                let Some(p) = self.pending[i].pop_front() else {
                    self.violation(format!("client {i}: log entry with no injected operation"));
                    continue;
                };
                let expected = match p.write_idx {
                    0 => RegOp::Read,
                    idx => RegOp::Write(value_of(i, idx)),
                };
                if entry.op != expected {
                    self.violation(format!(
                        "client {i}: logged {:?}, injected {expected:?}",
                        entry.op
                    ));
                }
                let latency = now.saturating_duration_since(p.due);
                tr.record("op", (i as u64) << 32 | self.seen[i] as u64, p.due, now);
                self.stall.completion_at(now);
                if entry.aborted {
                    w.aborted += 1;
                    w.late += 1;
                    continue;
                }
                w.completed += 1;
                w.late += u64::from(latency > LATE_LIMIT);
                w.all_ns.push(clamp_ns(latency));
                match (p.write_idx, entry.response) {
                    (0, Some(RegResp::Value(v))) => {
                        w.reads_ns.push(clamp_ns(latency));
                        self.check_read(i, v, &p);
                    }
                    (idx, Some(RegResp::Ack)) if idx > 0 => {
                        w.writes_ns.push(clamp_ns(latency));
                        self.writes_done[i] = idx;
                    }
                    (_, other) => {
                        self.violation(format!("client {i}: {expected:?} answered {other:?}"))
                    }
                }
            }
        }
    }

    fn check_read(&mut self, reader: usize, value: Option<u64>, p: &Pending) {
        self.last_value[reader] = Some(value);
        let Some(v) = value else {
            if p.done_before.iter().any(|&d| d > 0) {
                self.violation(format!("client {reader}: read ⊥ after a completed write"));
            }
            return;
        };
        let (writer, idx) = ((v >> 32) as usize, v as u32);
        if writer == 0 || writer > CLIENTS || idx == 0 || idx > self.writes_issued[writer - 1] {
            self.violation(format!(
                "client {reader}: read {v:#x}, which nobody had written"
            ));
            return;
        }
        let writer = writer - 1;
        if idx < p.done_before[writer] {
            self.violation(format!(
                "client {reader}: stale read, writer {writer} index {idx} < {} completed before",
                p.done_before[writer]
            ));
        }
        if idx < self.last_read[reader][writer] {
            self.violation(format!(
                "client {reader}: reads of writer {writer} went back from {} to {idx}",
                self.last_read[reader][writer]
            ));
        }
        self.last_read[reader][writer] = idx;
    }

    fn tick(&mut self, max_wait_ms: u64, w: &mut Window, tr: &mut Tracer) -> Result<(), String> {
        tr.enter("Host::tick", w.ticks);
        let frames = self.host.tick(max_wait_ms);
        tr.exit();
        w.ticks += 1;
        w.frames += frames.map_err(|e| format!("client host: {e}"))? as u64;
        Ok(())
    }

    /// Closed loop: every client injects its next operation the moment the
    /// previous one finished, until `stop` says so. Operations still in
    /// flight at the end are left to [`Loader::drain`] and not counted.
    fn run_closed(
        &mut self,
        mut stop: impl FnMut(&Window, Instant) -> bool,
        w: &mut Window,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let (mut slice_end, mut at_slice_start) = (t0 + SLICE, w.completed);
        loop {
            let now = Instant::now();
            if now >= slice_end {
                // An iteration overrunning a boundary is charged to the
                // slice it started in; the skipped ones stay empty.
                w.slices.push((w.completed - at_slice_start) as f64);
                at_slice_start = w.completed;
                slice_end += SLICE;
                while slice_end <= now {
                    w.slices.push(0.0);
                    slice_end += SLICE;
                }
            }
            if stop(w, now) {
                w.wall = now - t0;
                return Ok(());
            }
            for i in 0..CLIENTS {
                if self.pending[i].is_empty() {
                    self.inject(i, Instant::now(), false, w, tr);
                }
            }
            self.tick(10, w, tr)?;
            self.harvest(Instant::now(), w, tr);
        }
    }

    /// Open loop: at every [`PACED_TICK`] boundary after `t0` one
    /// operation per client falls due, whatever the service does; a
    /// client still busy queues it in its core. Latency runs from the due
    /// time. While nothing is in flight the generator
    /// sleeps to the next boundary instead of polling past it. `each_tick`
    /// runs once per loop iteration (the fault schedule lives there).
    /// Every scheduled operation is waited for and counted.
    fn run_paced(
        &mut self,
        dur: Duration,
        each_tick: &mut dyn FnMut(Instant) -> Result<(), String>,
        w: &mut Window,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let end = t0 + dur;
        let mut due = t0;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            each_tick(now)?;
            while due <= now {
                w.gen_late_ns.push(clamp_ns(now - due));
                for i in 0..CLIENTS {
                    self.inject(i, due, false, w, tr);
                }
                due += PACED_TICK;
            }
            if self.pending.iter().all(VecDeque::is_empty) {
                std::thread::sleep(due.min(end).saturating_duration_since(Instant::now()));
            } else {
                self.tick(1, w, tr)?;
                self.harvest(Instant::now(), w, tr);
            }
        }
        self.drain(w, tr)?;
        w.wall = t0.elapsed();
        Ok(())
    }

    /// Waits until nothing is in flight.
    fn drain(&mut self, w: &mut Window, tr: &mut Tracer) -> Result<(), String> {
        let start = Instant::now();
        while self.pending.iter().any(|q| !q.is_empty()) {
            if start.elapsed() > DRAIN_TIMEOUT {
                return Err("operations still in flight after the drain timeout".into());
            }
            self.tick(10, w, tr)?;
            self.harvest(Instant::now(), w, tr);
        }
        Ok(())
    }

    /// After quiescence every client reads once; all must agree.
    fn final_reads_agree(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut w = Window::new(CLIENTS);
        self.drain(&mut w, tr)?;
        for i in 0..CLIENTS {
            self.inject(i, Instant::now(), true, &mut w, tr);
        }
        self.drain(&mut w, tr)?;
        if w.aborted > 0 {
            self.violation(format!("{} final reads aborted", w.aborted));
        }
        let first = self.last_value[0];
        if self.last_value.iter().any(|v| *v != first) {
            self.violation(format!("final reads disagree: {:?}", self.last_value));
        }
        Ok(())
    }
}

/// A cluster with a connected, warmed-up loader.
struct Rig {
    cluster: Cluster,
    loader: Loader,
}

/// Sets the service up [`SETUP_REPS`] times — spawn, ready, client host
/// connected, [`WARMUP_OPS`] operations answered — keeps the last one and
/// returns the median set-up time in seconds.
///
/// Pins the calling (loader) thread for the rest of the process: every
/// workload runs in a process of its own, so nothing runs after it.
fn set_up(bin_dir: &Path, seed: u64, write_pct: u64) -> Result<(Rig, f64), String> {
    // The split comes first: the loader's own mask shrinks with the pin.
    let (service_cpus, loader_cpus) = split_cpus(sys::allowed_cpus(0));
    if !loader_cpus.is_empty() {
        sys::pin(0, &loader_cpus);
        if sys::allowed_cpus(0) != loader_cpus {
            return Err(format!(
                "the loader thread could not be pinned to {loader_cpus:?}"
            ));
        }
    }
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        if let Some(Rig { cluster, loader }) = rig.take() {
            drop(loader);
            cluster.stop()?;
        }
        let t = Instant::now();
        let cluster = Cluster::start(bin_dir, &service_cpus)?;
        let mut loader = Loader::connect(&cluster, seed, write_pct)?;
        let mut w = Window::new(WARMUP_OPS as usize);
        let mut off = Tracer::new(false);
        loader.run_closed(|w, _| w.completed >= WARMUP_OPS, &mut w, &mut off)?;
        loader.drain(&mut w, &mut off)?;
        times.push(t.elapsed().as_secs_f64());
        rig = Some(Rig { cluster, loader });
    }
    let rig = rig.expect("SETUP_REPS is at least 1");
    Ok((rig, crate::stats::median(&mut times)))
}

/// `/proc` readings of the loader thread, the seed and each replica.
struct Readings {
    loader: CpuTicks,
    allocs: u64,
    seed: ProcSample,
    replicas: Vec<(u64, ProcSample)>,
}

fn read_all(cluster: &Cluster) -> Readings {
    Readings {
        loader: procfs::thread_cpu(),
        allocs: allocs(),
        seed: cluster.seed.sample(),
        replicas: cluster
            .replicas
            .iter()
            .map(|r| (r.pid, r.sample()))
            .collect(),
    }
}

/// Resource use between two readings. A replica killed in between
/// contributes up to its `last` reading; one started in between counts
/// from zero.
struct Usage {
    loader_us: f64,
    allocs: u64,
    seed_us: f64,
    /// Per replica alive at the end or killed in between.
    replicas: Vec<ProcSample>,
}

fn usage(a: &Readings, b: &Readings, killed: &[(u64, ProcSample)]) -> Usage {
    let before = |pid: u64| {
        a.replicas
            .iter()
            .find(|(p, _)| *p == pid)
            .map_or_else(ProcSample::default, |(_, s)| *s)
    };
    Usage {
        loader_us: b.loader.micros() - a.loader.micros(),
        allocs: b.allocs - a.allocs,
        seed_us: b.seed.since(&a.seed).cpu.micros(),
        replicas: b
            .replicas
            .iter()
            .chain(killed)
            .map(|(pid, s)| s.since(&before(*pid)))
            .collect(),
    }
}

impl Usage {
    fn replica_us(&self) -> f64 {
        self.replicas.iter().map(|r| r.cpu.micros()).sum()
    }

    fn total_us(&self) -> f64 {
        self.loader_us + self.seed_us + self.replica_us()
    }
}

/// Σ `VmHWM` over the service's processes — the seed, the replicas alive
/// and the killed one — in MiB. The benchmark's own process stays out: it
/// holds the client cores, whose operation logs grow with every answer,
/// so its peak would rise with throughput and punish a faster service.
fn peak_rss_mb(cluster: &Cluster, killed: &[(u64, ProcSample)]) -> f64 {
    let kb = cluster.seed.sample().status.vm_hwm_kb
        + cluster
            .replicas
            .iter()
            .map(|r| r.sample().status.vm_hwm_kb)
            .sum::<u64>()
        + killed.iter().map(|(_, s)| s.status.vm_hwm_kb).sum::<u64>();
    kb as f64 / 1024.0
}

/// Latencies of the typical stretch (reads and writes together), and of
/// reads and of writes alone over the whole window.
struct Latencies {
    /// Samples in the window.
    count: usize,
    /// Mean over the whole window, in ns.
    mean: f64,
    /// Per [`CHUNK_PCTS`] entry, the typical chunk's percentile, in ns.
    typical: Vec<f64>,
    reads: crate::stats::Summary,
    writes: crate::stats::Summary,
    /// The typical percentiles, then p90, p99 and p99.9 of the whole
    /// window, in µs, for the reader.
    ladder: String,
}

impl Latencies {
    fn p50(&self) -> f64 {
        self.typical[0]
    }

    fn tail(&self) -> f64 {
        self.typical[1]
    }
}

fn latencies(windows: &mut [&mut Window]) -> Result<Latencies, String> {
    let (mut all, mut reads, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    for w in windows.iter_mut() {
        all.append(&mut w.all_ns);
        reads.append(&mut w.reads_ns);
        writes.append(&mut w.writes_ns);
    }
    let none = || "no latency samples".to_string();
    let typical = typical(&all, CHUNK, &CHUNK_PCTS).ok_or_else(none)?;
    let whole = summarize(&mut all, LAYER_TAIL_PCT).ok_or_else(none)?;
    let ladder = format!(
        "typical {CHUNK} consecutive, us: {}; whole window, us: {}",
        CHUNK_PCTS
            .iter()
            .zip(&typical)
            .map(|(p, v)| format!("p{p} {:.1}", v / 1e3))
            .collect::<Vec<_>>()
            .join(", "),
        [90.0, 99.0, 99.9]
            .map(|p| format!("p{p} {:.1}", percentile(&all, p) / 1e3))
            .join(", ")
    );
    Ok(Latencies {
        count: whole.count,
        mean: whole.mean,
        typical,
        reads: summarize(&mut reads, LAYER_TAIL_PCT).ok_or_else(none)?,
        writes: summarize(&mut writes, LAYER_TAIL_PCT).ok_or_else(none)?,
        ladder,
    })
}

/// Fills the layer metrics both networked workloads share.
fn fill_layers(
    layers: &mut Layers,
    lat: &Latencies,
    traced: &Window,
    traced_use: &Usage,
    tr: &Tracer,
    overhead_share: f64,
) {
    let ops = traced.completed.max(1) as f64;
    layers.set("net.read_p50_us", lat.reads.p50 / 1e3);
    layers.set("net.read_p99_us", lat.reads.tail / 1e3);
    layers.set("net.write_p50_us", lat.writes.p50 / 1e3);
    layers.set("net.write_p99_us", lat.writes.tail / 1e3);
    layers.set(
        "svc.client.inject_ns_per_op",
        tr.agg("Host::inject").total_ns as f64 / tr.agg("Host::inject").count.max(1) as f64,
    );
    layers.set(
        "svc.client.tick_us_per_op",
        tr.agg("Host::tick").total_ns as f64 / 1e3 / ops,
    );
    layers.set("svc.client.ticks_per_op", traced.ticks as f64 / ops);
    layers.set(
        "svc.client.frames_per_tick",
        traced.frames as f64 / traced.ticks.max(1) as f64,
    );
    layers.set("svc.client.cpu_us_per_op", traced_use.loader_us / ops);
    layers.set("svc.client.allocs_per_op", traced_use.allocs as f64 / ops);
    let n = traced_use.replicas.len().max(1) as f64;
    let sum = |f: &dyn Fn(&ProcSample) -> f64| traced_use.replicas.iter().map(f).sum::<f64>();
    let cpu = traced_use.replica_us();
    layers.set("svc.replica.cpu_us_per_op", cpu / n / ops);
    layers.set(
        "svc.replica.sys_share",
        sum(&|r| CpuTicks { user: 0, ..r.cpu }.micros()) / cpu.max(1.0),
    );
    layers.set(
        "svc.replica.ctxsw_per_op",
        sum(&|r| r.status.ctx_switches as f64) / n / ops,
    );
    layers.set(
        "svc.replica.rss_mb",
        sum(&|r| r.status.vm_rss_kb as f64) / n / 1024.0,
    );
    layers.set("svc.seed.cpu_ms", traced_use.seed_us / 1e3);
    layers.set("svc.cpu_us_per_op", traced_use.total_us() / ops);
    layers.set("trace.overhead_share", overhead_share);
}

fn verdict(loader: &Loader, windows: &[&Window]) -> (u64, u64, Vec<String>) {
    let attempted: u64 = windows.iter().map(|w| w.issued).sum();
    let aborted: u64 = windows.iter().map(|w| w.aborted).sum();
    let mut notes = Vec::new();
    if let Some(v) = &loader.first_violation {
        notes.push(format!(
            "{} check violations, first: {v}",
            loader.violations
        ));
    }
    if aborted > 0 {
        notes.push(format!("{aborted} operations aborted"));
    }
    (attempted, aborted + loader.violations, notes)
}

/// `net-steady`: closed loop, 80 % reads, no faults.
pub fn run_steady(ctx: &mut Ctx) -> Result<Outcome, String> {
    let (
        Rig {
            mut cluster,
            mut loader,
        },
        setup_s,
    ) = set_up(&ctx.bin_dir, ctx.seed, STEADY_WRITE_PCT)?;
    let tr = &mut ctx.tracer;
    // A traced run spends the first half with spans off and the second
    // with spans on; the difference in rate is the tracing overhead.
    let half = ctx.window / if ctx.trace { 2 } else { 1 };
    let expected = (half.as_secs_f64() * 250_000.0) as usize;

    let r0 = read_all(&cluster);
    let mut plain = Window::new(expected);
    let end = Instant::now() + half;
    loader.run_closed(|_, now| now >= end, &mut plain, tr)?;
    let r1 = read_all(&cluster);
    let mut traced = Window::new(if ctx.trace { expected } else { 0 });
    if ctx.trace {
        tr.on = true;
        let end = Instant::now() + half;
        loader.run_closed(|_, now| now >= end, &mut traced, tr)?;
        tr.on = false;
    }
    let r2 = read_all(&cluster);
    loader.final_reads_agree(tr)?;
    cluster.check_alive()?;
    let peak_rss_mb = peak_rss_mb(&cluster, &[]);
    let (attempted, failed, faults) = verdict(&loader, &[&plain, &traced]);
    drop(loader);
    cluster.stop()?;

    let plain_use = usage(&r0, &r1, &[]);
    let rate = plain.typical_ops_per_s();
    let cpu_us_per_unit = plain_use.total_us() / plain.completed.max(1) as f64;
    let lat = latencies(&mut [&mut plain])?;
    let mut layers = Layers::default();
    if ctx.trace {
        let overhead = (rate - traced.typical_ops_per_s()) / rate;
        fill_layers(
            &mut layers,
            &lat,
            &traced,
            &usage(&r1, &r2, &[]),
            tr,
            overhead,
        );
        // Little's law on the closed loop: 8 clients always in service.
        let predicted_ns = CLIENTS as f64 / plain.ops_per_s() * 1e9;
        layers.set(
            "svc.littles_law_err",
            (predicted_ns - lat.mean).abs() / lat.mean,
        );
    }
    Ok(Outcome {
        e2e: EndToEnd {
            setup_s,
            work_per_s: rate,
            cpu_us_per_unit,
            p50_us: lat.p50() / 1e3,
            tail_us: lat.tail() / 1e3,
            peak_rss_mb,
        },
        layers,
        attempted,
        failed,
        faults,
        info: vec![format!(
            "{} ops in {:.3} s untraced; latency samples {} (reads {}, writes {}); {}",
            plain.completed,
            plain.wall.as_secs_f64(),
            lat.count,
            lat.reads.count,
            lat.writes.count,
            lat.ladder
        )],
    })
}

/// The kill-and-replace schedule of `net-paced-kill`, stepped from the
/// loader's loop, and what it observed.
struct Fault {
    kill_at: Instant,
    victim: u64,
    killed: Vec<(u64, ProcSample)>,
    t_kill: Option<Instant>,
    replacement: Option<(u64, Instant)>,
    /// First survivor seen at epoch ≥ 2.
    commit_at: Option<Instant>,
    /// Replacement seen as a member of a committed configuration.
    rejoin_at: Option<Instant>,
    next_poll: Instant,
}

/// `"key": <u64>` of a one-line JSON document.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn last_status(p: &Proc) -> Option<String> {
    p.log_text()
        .lines()
        .rev()
        .find(|l| l.contains("\"status\""))
        .map(str::to_string)
}

/// Whether a status line lists `pid` among its members.
fn lists_member(line: &str, pid: u64) -> bool {
    line.split_once("\"members\": [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .is_some_and(|(members, _)| members.split(',').any(|m| m.trim().parse() == Ok(pid)))
}

impl Fault {
    fn step(&mut self, now: Instant, cluster: &mut Cluster) -> Result<(), String> {
        let Some(t_kill) = self.t_kill else {
            if now >= self.kill_at {
                let last = cluster.kill_replica(self.victim)?;
                self.killed.push((self.victim, last));
                self.t_kill = Some(Instant::now());
            }
            return Ok(());
        };
        if self.replacement.is_none() && now >= t_kill + RESPAWN_AFTER {
            self.replacement = Some((cluster.spawn_replica()?, Instant::now()));
        }
        if (self.commit_at.is_none() || self.rejoin_at.is_none()) && now >= self.next_poll {
            self.next_poll = now + Duration::from_millis(25);
            for r in &cluster.replicas {
                let Some(line) = last_status(r) else { continue };
                if json_u64(&line, "\"epoch\"").is_some_and(|e| e >= 2) {
                    match self.replacement {
                        Some((pid, _)) if pid == r.pid => {
                            if lists_member(&line, pid) {
                                self.rejoin_at.get_or_insert(now);
                            }
                        }
                        _ => {
                            self.commit_at.get_or_insert(now);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// `net-paced-kill`: open loop, 50 % writes, one kill and one replacement.
pub fn run_paced_kill(ctx: &mut Ctx) -> Result<Outcome, String> {
    let (
        Rig {
            mut cluster,
            mut loader,
        },
        setup_s,
    ) = set_up(&ctx.bin_dir, ctx.seed, PACED_WRITE_PCT)?;
    let tr = &mut ctx.tracer;
    let half = ctx.window / if ctx.trace { 2 } else { 1 };
    let expected = (half.as_secs_f64() / PACED_TICK.as_secs_f64()) as usize * CLIENTS;

    let start = Instant::now();
    let kill_at = start + ctx.window.mul_f64(KILL_AT_SHARE);
    let mut fault = Fault {
        kill_at,
        // The seed picks which of the three initial replicas dies.
        victim: 1 + ctx.seed % crate::cluster::REPLICAS,
        killed: Vec::new(),
        t_kill: None,
        replacement: None,
        commit_at: None,
        rejoin_at: None,
        next_poll: start,
    };

    loader.stall.kill = Some(kill_at);
    let r0 = read_all(&cluster);
    let mut plain = Window::new(expected);
    loader.run_paced(
        half,
        &mut |now| fault.step(now, &mut cluster),
        &mut plain,
        tr,
    )?;
    let r1 = read_all(&cluster);
    let killed_in_plain = fault.killed.clone();
    let mut traced = Window::new(if ctx.trace { expected } else { 0 });
    if ctx.trace {
        tr.on = true;
        loader.run_paced(
            half,
            &mut |now| fault.step(now, &mut cluster),
            &mut traced,
            tr,
        )?;
        tr.on = false;
    }
    let r2 = read_all(&cluster);
    loader.final_reads_agree(tr)?;
    cluster.check_alive()?;
    let peak_rss_mb = peak_rss_mb(&cluster, &fault.killed);
    let retries: u64 = (0..CLIENTS)
        .map(|i| loader.host.core(i).stats.retries)
        .sum();
    let fenced: u64 = cluster
        .replicas
        .iter()
        .filter_map(last_status)
        .filter_map(|l| json_u64(&l, "\"fenced_nacks\""))
        .sum();
    let mut unmet = Vec::new();
    if fault.t_kill.is_none() || fault.replacement.is_none() {
        unmet.push("the kill-and-replace schedule did not complete".to_string());
    }
    let recovery_due = fault.t_kill.is_some_and(|k| k.elapsed() >= RECOVERY_WITHIN);
    if recovery_due && (fault.commit_at.is_none() || fault.rejoin_at.is_none()) {
        unmet.push(format!(
            "no recovery within {RECOVERY_WITHIN:?} of the kill: configuration committed {}, replacement joined {}",
            fault.commit_at.is_some(),
            fault.rejoin_at.is_some()
        ));
    }
    let (attempted, failed, mut faults) = verdict(&loader, &[&plain, &traced]);
    faults.extend(unmet);
    let stall = loader.stall.longest;
    drop(loader);
    cluster.stop()?;

    let plain_use = usage(&r0, &r1, &killed_in_plain);
    let rate = plain.on_time_per_s();
    let cpu_us_per_unit = plain_use.total_us() / plain.completed.max(1) as f64;
    let issued = plain.issued + traced.issued;
    let late_share = (plain.late + traced.late) as f64 / issued.max(1) as f64;
    let mut gen_late: Vec<u32> = plain
        .gen_late_ns
        .iter()
        .chain(&traced.gen_late_ns)
        .copied()
        .collect();
    let gen = summarize(&mut gen_late, LAYER_TAIL_PCT).ok_or("no generator samples")?;
    let plain_completed = plain.completed;
    let plain_wall = plain.wall;
    let lat = latencies(&mut [&mut plain, &mut traced])?;
    let mut layers = Layers::default();
    let since_kill = |t: Option<Instant>, from: Option<Instant>| match (t, from) {
        (Some(t), Some(from)) => t.saturating_duration_since(from).as_secs_f64() * 1e3,
        _ => 0.0,
    };
    if ctx.trace {
        // The schedule fixes the rate, so the cost of spans shows in the
        // loader's CPU per operation rather than in operations per second.
        let killed_in_traced: Vec<_> = fault.killed[killed_in_plain.len()..].to_vec();
        let traced_use = usage(&r1, &r2, &killed_in_traced);
        let plain_cpu = plain_use.loader_us / plain_completed.max(1) as f64;
        let traced_cpu = traced_use.loader_us / traced.completed.max(1) as f64;
        fill_layers(
            &mut layers,
            &lat,
            &traced,
            &traced_use,
            tr,
            (traced_cpu - plain_cpu) / plain_cpu,
        );
        layers.set("net.late_share", late_share);
        layers.set("net.stall_ms", stall.as_secs_f64() * 1e3);
        layers.set("net.gen_late_p99_us", gen.tail / 1e3);
        layers.set(
            "store.reconfig.commit_ms",
            since_kill(fault.commit_at, fault.t_kill),
        );
        layers.set(
            "store.reconfig.rejoin_ms",
            since_kill(fault.rejoin_at, fault.replacement.map(|(_, t)| t)),
        );
        layers.set("store.retries_per_kill", retries as f64);
        layers.set("store.fenced_nacks", fenced as f64);
    }
    Ok(Outcome {
        e2e: EndToEnd {
            setup_s,
            work_per_s: rate,
            cpu_us_per_unit,
            p50_us: lat.p50() / 1e3,
            tail_us: lat.tail() / 1e3,
            peak_rss_mb,
        },
        layers,
        attempted,
        failed,
        faults,
        info: vec![
            format!(
                "{plain_completed} ops in {:.3} s untraced; latency samples {} from due time, kill included \
                 (reads {}, writes {}); {}",
                plain_wall.as_secs_f64(),
                lat.count,
                lat.reads.count,
                lat.writes.count,
                lat.ladder
            ),
            format!(
                "killed replica {}, replacement {:?}; late_share {late_share:.6} ({} of {issued}), \
                 stall {:.3} ms, generator p{} lateness {:.1} us, commit {:.0} ms, rejoin {:.0} ms, \
                 retries {retries}, fenced nacks {fenced}",
                fault.victim,
                fault.replacement.map(|(p, _)| p),
                plain.late + traced.late,
                stall.as_secs_f64() * 1e3,
                gen.tail_pct,
                gen.tail / 1e3,
                since_kill(fault.commit_at, fault.t_kill),
                since_kill(fault.rejoin_at, fault.replacement.map(|(_, t)| t)),
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_line_fields() {
        let line = "{\"event\": \"status\", \"pid\": 4, \"epoch\": 2, \"stamp_seq\": 9, \
                    \"members\": [2, 3, 4], \"fenced_nacks\": 17, \"reconfigs_started\": 1}";
        assert_eq!(json_u64(line, "\"epoch\""), Some(2));
        assert_eq!(json_u64(line, "\"fenced_nacks\""), Some(17));
        assert_eq!(json_u64(line, "\"absent\""), None);
        assert!(lists_member(line, 4) && lists_member(line, 2));
        assert!(!lists_member(line, 1) && !lists_member(line, 34));
    }

    /// A synthetic 250 ms stall after the kill: operations due every
    /// millisecond answer instantly except those due inside the stall,
    /// which all answer when it ends.
    #[test]
    fn open_loop_accounting_of_a_stall() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut w = Window::new(1000);
        let mut stall = Stall {
            kill: Some(t0 + ms(100)),
            ..Stall::default()
        };
        for k in 0..1000u64 {
            let due = t0 + ms(k);
            // Stall over [300 ms, 550 ms).
            let done = if (300..550).contains(&k) {
                t0 + ms(550)
            } else {
                due
            };
            w.issued += 1;
            w.completed += 1;
            w.late += u64::from(done - due > LATE_LIMIT);
            stall.completion_at(done);
        }
        // Due 300..=539 waited more than 10 ms: 240 of 1000.
        assert_eq!(w.late as f64 / w.issued as f64, 0.24);
        // No completion between 299 ms and 550 ms.
        assert_eq!(stall.longest, ms(251));
    }

    #[test]
    fn values_are_unique_per_writer_and_index() {
        assert_eq!(value_of(0, 1), 1 << 32 | 1);
        assert_ne!(value_of(1, 1), value_of(0, 2));
    }
}
