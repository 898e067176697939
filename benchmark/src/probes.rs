//! Per-layer probes: wall-timed calls into the public functions of each
//! layer, with inputs fixed in the code so counts repeat exactly. A traced
//! run executes the probes of the layers its workload drives (see
//! [`run_for`]); the metrics of the other layers read 0 there.
//!
//! Each figure is the median over [`BATCHES`] batches; a probe that also
//! leaves spans does so in a short untimed pass, so span bookkeeping
//! never sits inside a timed loop.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{
    check_atomic, complete, decode_frame, encode_frame, explore, flood_exhaustive, fuzz, path,
    run_schedule, shrink, suite, watts_strogatz, Actor, BalancedChurn, Budget, ChurnSpec,
    Construction, Context, CoreIn, CoreOut, DelayModel, Event, EventQueue, FrameReader, LossModel,
    NoChurn, ObserverSink, OpTag, ProcessId, RegOp, ResetSpec, Rng, StableHasher, Stamp, StoreCore,
    StoreMsg, StoreParams, StoreScenario, Time, TimeDelta, TimerId, TimerToken, TimerWheel,
    TopologyPolicy, WireMsg, World, WorldBuilder,
};
use crate::report::Layers;
use crate::stats::median;
use crate::trace::Tracer;

/// Timed batches per probe.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] runs of `batch` of the nanoseconds it took
/// per unit of work; `batch` returns how many units it did.
fn ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        let units = batch();
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&mut samples)
}

fn pid(raw: u64) -> ProcessId {
    ProcessId::from_raw(raw)
}

// --- svc ----------------------------------------------------------------------

/// The frames of one quorum read plus one quorum write against three
/// replicas (`Query`/`QueryAck`/`Store`/`StoreAck` × 3 × 2), plus a
/// heartbeat.
fn frame_mix() -> Vec<WireMsg> {
    let (client, tag) = (
        pid(1001),
        OpTag {
            seq: 77,
            attempt: 1,
        },
    );
    let stamp = Stamp {
        seq: 12_345,
        writer: 1001,
    };
    let mut mix = Vec::new();
    for op in 0..2u64 {
        for r in 1..=3 {
            let proto = |from, to, msg| WireMsg::Proto { from, to, msg };
            mix.push(proto(client, pid(r), StoreMsg::Query { tag, epoch: 3 }));
            mix.push(proto(
                pid(r),
                client,
                StoreMsg::QueryAck {
                    tag,
                    stamp,
                    value: Some(op),
                },
            ));
            mix.push(proto(
                client,
                pid(r),
                StoreMsg::Store {
                    tag,
                    epoch: 3,
                    stamp,
                    value: Some(op),
                },
            ));
            mix.push(proto(pid(r), client, StoreMsg::StoreAck { tag }));
        }
    }
    mix.push(WireMsg::Proto {
        from: pid(1),
        to: pid(2),
        msg: StoreMsg::Probe { epoch: 3 },
    });
    mix
}

fn codec(layers: &mut Layers, tr: &mut Tracer) {
    const ROUNDS: u64 = 4_000;
    let mix = frame_mix();
    let frames = mix.len() as u64;
    let mut buf = Vec::with_capacity(4096);
    tr.span("encode_frame", 0, || {
        mix.iter().for_each(|m| encode_frame(&mut buf, m))
    });
    layers.set(
        "svc.codec.bytes_per_frame",
        buf.len() as f64 / frames as f64,
    );
    layers.set(
        "svc.codec.encode_ns_per_frame",
        ns_per_unit(|| {
            for _ in 0..ROUNDS {
                buf.clear();
                for m in &mix {
                    encode_frame(&mut buf, black_box(m));
                }
                black_box(buf.len());
            }
            ROUNDS * frames
        }),
    );
    // The receive path: reassemble in MTU-sized chunks, then decode.
    let stream = buf.clone();
    let mut reader = FrameReader::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    reader.extend(&stream);
    while let Ok(Some(p)) = reader.next_payload() {
        payloads.push(p.to_vec());
    }
    assert_eq!(
        payloads.len() as u64,
        frames,
        "the reader must return every frame"
    );
    tr.span("decode_frame", 0, || {
        payloads
            .iter()
            .for_each(|p| drop(black_box(decode_frame(p))))
    });
    layers.set(
        "svc.reader.ns_per_frame",
        ns_per_unit(|| {
            let mut seen = 0;
            for _ in 0..ROUNDS {
                for chunk in stream.chunks(1400) {
                    reader.extend(black_box(chunk));
                    while let Ok(Some(p)) = reader.next_payload() {
                        seen += 1;
                        black_box(p.len());
                    }
                }
            }
            assert_eq!(seen, ROUNDS * frames);
            seen
        }),
    );
    layers.set(
        "svc.codec.decode_ns_per_frame",
        ns_per_unit(|| {
            for _ in 0..ROUNDS {
                for p in &payloads {
                    black_box(decode_frame(black_box(p)).expect("valid frame"));
                }
            }
            ROUNDS * frames
        }),
    );
}

fn wheel(layers: &mut Layers) {
    // The host's steady state: each millisecond a handful of operation
    // timeouts (250 ms out) are armed and the due ones expire.
    const MS: u64 = 20_000;
    const PER_MS: u64 = 8;
    let mut wheel = TimerWheel::new();
    let mut fired = Vec::new();
    let mut now = 0u64;
    layers.set(
        "svc.wheel.ns_per_timer",
        ns_per_unit(|| {
            for _ in 0..MS {
                now += 1;
                for k in 0..PER_MS {
                    wheel.schedule(now + 250, TimerToken(now * PER_MS + k));
                }
                fired.clear();
                wheel.expire(now, &mut fired);
                black_box(fired.len());
            }
            MS * PER_MS
        }),
    );
}

// --- store --------------------------------------------------------------------

/// Three replica cores and one client core wired by an in-memory FIFO:
/// no sockets, no simulator, no time passing (timers are never fired).
struct Router {
    cores: Vec<(ProcessId, StoreCore)>,
    replicas: Vec<ProcessId>,
    queue: std::collections::VecDeque<(usize, ProcessId, StoreMsg)>,
    out: Vec<CoreOut>,
    steps: u64,
    msgs: u64,
}

impl Router {
    const CLIENT: usize = 3;

    fn new() -> Router {
        let replicas: Vec<ProcessId> = (1..=3).map(pid).collect();
        let params = StoreParams {
            initial: replicas.clone(),
            // No heartbeats: the probe measures operations only.
            probe_every: None,
            view_delta: TimeDelta::ticks(1 << 40),
            ..StoreParams::default()
        };
        let mut r = Router {
            cores: replicas
                .iter()
                .copied()
                .chain([pid(1000)])
                .map(|p| (p, StoreCore::new(params.clone())))
                .collect(),
            replicas,
            queue: Default::default(),
            out: Vec::new(),
            steps: 0,
            msgs: 0,
        };
        for i in 0..r.cores.len() {
            r.step(i, CoreIn::Start, &mut Tracer::new(false));
        }
        r.settle(&mut Tracer::new(false));
        r
    }

    fn step(&mut self, i: usize, input: CoreIn, tr: &mut Tracer) {
        let me = self.cores[i].0;
        // Replicas see each other; the client sees the replicas.
        let peers: Vec<ProcessId> = self.replicas.iter().copied().filter(|&p| p != me).collect();
        self.steps += 1;
        tr.enter("StoreCore::step", self.steps);
        self.cores[i]
            .1
            .step(Time::from_ticks(1), me, &peers, input, &mut self.out);
        tr.exit();
        for effect in self.out.drain(..) {
            if let CoreOut::Send { to, msg } = effect {
                if let Some(j) = self.cores.iter().position(|(p, _)| *p == to) {
                    self.msgs += u64::from(j != i);
                    self.queue.push_back((j, me, msg));
                }
            }
        }
    }

    fn settle(&mut self, tr: &mut Tracer) {
        while let Some((j, from, msg)) = self.queue.pop_front() {
            self.step(j, CoreIn::Message { from, msg }, tr);
        }
    }

    /// Runs one client operation to completion.
    fn op(&mut self, op: RegOp, tr: &mut Tracer) {
        let me = self.cores[Self::CLIENT].0;
        let done = self.cores[Self::CLIENT].1.log().len();
        self.step(
            Self::CLIENT,
            CoreIn::Message {
                from: me,
                msg: StoreMsg::Invoke(op),
            },
            tr,
        );
        self.settle(tr);
        let log = self.cores[Self::CLIENT].1.log();
        assert!(
            log.len() == done + 1 && !log[done].aborted,
            "the routed operation must complete"
        );
    }
}

fn store_core(layers: &mut Layers, tr: &mut Tracer) {
    const OPS: u64 = 4_000;
    let mut r = Router::new();
    let mut next = 0u64;
    for _ in 0..8 {
        next += 1;
        r.op(RegOp::Write(next), tr);
        r.op(RegOp::Read, tr);
    }
    let mut off = Tracer::new(false);
    let (steps0, msgs0, log0) = (r.steps, r.msgs, r.cores[Router::CLIENT].1.log().len());
    let write_ns = ns_per_unit(|| {
        for _ in 0..OPS {
            next += 1;
            r.op(RegOp::Write(black_box(next)), &mut off);
        }
        OPS
    });
    let read_ns = ns_per_unit(|| {
        for _ in 0..OPS {
            r.op(RegOp::Read, &mut off);
        }
        OPS
    });
    let ops = (r.cores[Router::CLIENT].1.log().len() - log0) as f64;
    let steps = (r.steps - steps0) as f64;
    layers.set("store.core.write_ns_per_op", write_ns);
    layers.set("store.core.read_ns_per_op", read_ns);
    layers.set("store.core.steps_per_op", steps / ops);
    layers.set("store.core.msgs_per_op", (r.msgs - msgs0) as f64 / ops);
    layers.set(
        "store.core.step_ns_per_input",
        (write_ns + read_ns) / 2.0 / (steps / ops),
    );
}

// --- sim ----------------------------------------------------------------------

fn queue(layers: &mut Layers) {
    // The kernel's steady state: a fixed population of pending events,
    // pop the earliest, schedule a replacement `horizon` ticks ahead.
    // 16 stays inside the 128-tick calendar ring; 1024 sends every event
    // through the overflow tier.
    const POPULATION: u64 = 256;
    const OPS: u64 = 40_000;
    let hold = |horizon: u64| {
        let p = pid(0);
        let deliver = |now: Time, msg: u64| Event::Deliver {
            from: p,
            to: p,
            sent: now,
            cause: 0,
            msg,
        };
        let mut queue: EventQueue<u64> = EventQueue::calendar();
        let mut now = Time::ZERO;
        for i in 0..POPULATION {
            queue.schedule(
                Time::from_ticks(1 + i * horizon / POPULATION),
                deliver(now, i),
            );
        }
        ns_per_unit(|| {
            for i in 0..OPS {
                let (at, event) = queue.pop().expect("the population never drains");
                now = at;
                black_box(event);
                queue.schedule(
                    now + TimeDelta::ticks(1 + (i * 7) % horizon),
                    deliver(now, i),
                );
            }
            OPS
        })
    };
    layers.set("sim.queue.ns_per_event", hold(16));
    layers.set("sim.queue.overflow_ns_per_event", hold(1024));
}

/// Floods a bitmask of known identities, forwarding on news and echoing
/// otherwise, so a run never falls silent. Forkable and fingerprintable.
#[derive(Clone)]
struct Flood {
    known: u64,
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
        self.known = 1 << (ctx.pid().as_raw() % 64);
        ctx.set_timer(TimeDelta::TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _: TimerId) {
        ctx.broadcast(self.known);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, mask: u64) {
        if self.known | mask != self.known {
            self.known |= mask;
            ctx.broadcast(self.known);
        } else {
            ctx.send(from, self.known);
        }
    }
}

/// Does nothing: churn actions are the only work in its world.
struct Idle;

impl Actor<u64> for Idle {
    fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, _: u64) {}
}

fn flood_world(n: usize, observed: bool) -> World<u64> {
    let b = WorldBuilder::new(11)
        .initial_graph(path(n))
        .delay(DelayModel::Fixed(TimeDelta::TICK))
        .spawn(|_| Box::new(Flood { known: 0 }));
    if observed {
        b.sink(ObserverSink::default()).build()
    } else {
        b.build()
    }
}

fn steps(world: &mut World<u64>, n: u64) -> u64 {
    for _ in 0..n {
        assert!(world.step(), "the flood never falls silent");
    }
    n
}

fn world(layers: &mut Layers) {
    const EVENTS: u64 = 60_000;
    let mut bare = flood_world(6, false);
    let dispatch = ns_per_unit(|| steps(&mut bare, EVENTS));
    layers.set("sim.world.dispatch_ns_per_event", dispatch);

    // The same world with the harness's observer installed.
    let mut observed = flood_world(6, true);
    let with_sink = ns_per_unit(|| steps(&mut observed, EVENTS));
    layers.set("obs.sink.events_per_s_ratio", dispatch / with_sink);
    let observer = observed
        .take_sink()
        .and_then(|s| s.into_any().downcast::<ObserverSink>().ok())
        .expect("the observer installed above");
    let nodes = observer.causal.len() as u64;
    layers.set(
        "obs.causal.ns_per_node",
        ns_per_unit(|| {
            black_box(observer.causal.dag().critical_path());
            nodes
        }),
    );

    // Recycling a 256-node world between seeds.
    let graph = watts_strogatz(256, 3, 0.2, &mut Rng::seeded(5));
    let mut big = WorldBuilder::new(1)
        .initial_graph(graph.clone())
        .spawn(|_| Box::new(Flood { known: 0 }))
        .build();
    const RESETS: u64 = 200;
    layers.set(
        "sim.world.reset_ns",
        ns_per_unit(|| {
            for seed in 0..RESETS {
                steps(&mut big, 64);
                big.reset(
                    &graph,
                    ResetSpec {
                        seed,
                        policy: TopologyPolicy::default(),
                        delay: DelayModel::Fixed(TimeDelta::TICK),
                        loss: LossModel::None,
                        driver: Box::new(NoChurn),
                        sink: None,
                    },
                );
            }
            RESETS
        }) - 64.0 * dispatch,
    );

    // Churn with idle actors: joins, leaves and crashes are all there is.
    const TICKS: u64 = 2_000;
    let spec = ChurnSpec::rate(0.2, TimeDelta::ticks(10)).expect("valid churn rate");
    let mut seed = 0;
    layers.set(
        "sim.driver.ns_per_churn_action",
        ns_per_unit(|| {
            seed += 1;
            let mut w = WorldBuilder::new(seed)
                .initial_graph(graph.clone())
                .driver(BalancedChurn::new(spec))
                .spawn(|_| Box::new(Idle))
                .build();
            w.run_until(Time::from_ticks(TICKS));
            let m = w.metrics();
            m.joins + m.leaves + m.crashes
        }),
    );
}

/// Snapshot costs mid-run, as the fork explorer pays them.
fn snapshots(layers: &mut Layers, tr: &mut Tracer) {
    let mut mid = flood_world(6, false);
    steps(&mut mid, 40);
    const SNAPSHOTS: u64 = 4_000;
    tr.span("World::try_fork", 0, || black_box(mid.try_fork().is_some()));
    tr.span("World::fingerprint", 0, || {
        black_box(mid.fingerprint(|m, h| h.write_u64(*m)))
    });
    layers.set(
        "sim.world.fork_ns_per_state",
        ns_per_unit(|| {
            for _ in 0..SNAPSHOTS {
                black_box(mid.try_fork().expect("flood worlds fork"));
            }
            SNAPSHOTS
        }),
    );
    layers.set(
        "sim.world.fingerprint_ns_per_state",
        ns_per_unit(|| {
            for _ in 0..SNAPSHOTS {
                black_box(
                    mid.fingerprint(|m, h| h.write_u64(*m))
                        .expect("flood worlds fingerprint"),
                );
            }
            SNAPSHOTS
        }),
    );
}

// --- net ----------------------------------------------------------------------

fn graph(layers: &mut Layers) {
    const N: u64 = 256;
    const OPS: u64 = 50_000;
    let mut rng = Rng::seeded(9);
    layers.set(
        "net.generate.ns_per_graph",
        ns_per_unit(|| {
            for _ in 0..20 {
                black_box(watts_strogatz(N as usize, 3, 0.2, &mut rng));
            }
            20
        }),
    );
    let mut g = watts_strogatz(N as usize, 3, 0.2, &mut rng);
    layers.set(
        "net.graph.mutate_ns_per_edge",
        ns_per_unit(|| {
            // Chords no lattice or rewired edge is likely to occupy; an
            // occupied one is a no-op add and a real remove, still work.
            for i in 0..OPS {
                let (a, b) = (pid(i % N), pid((i * 37 + 101) % N));
                if a != b {
                    g.add_edge(a, b);
                    g.remove_edge(a, b);
                }
            }
            2 * OPS
        }),
    );
    layers.set(
        "net.graph.neighbors_ns",
        ns_per_unit(|| {
            let mut degree = 0;
            for i in 0..OPS {
                degree += g.neighbors(pid(i % N)).map_or(0, <[ProcessId]>::len);
            }
            black_box(degree);
            OPS
        }),
    );
}

// --- core, registers, check -----------------------------------------------------

fn spec(layers: &mut Layers, tr: &mut Tracer) {
    let mut s = StoreScenario::new(complete(12), 7);
    s.ops_per_client = 10;
    let history = s.run().history;
    tr.span("check_atomic", 7, || {
        black_box(check_atomic(&history).is_ok())
    });
    layers.set(
        "core.spec.check_atomic_us_per_history",
        ns_per_unit(|| {
            for _ in 0..2_000 {
                black_box(
                    check_atomic(black_box(&history)).expect("20 operations fit the checker"),
                );
            }
            2_000
        }) / 1e3,
    );
}

fn registers(layers: &mut Layers) {
    // One writer, two readers, majority quorums tolerating one crash.
    let scripts = vec![
        (1..=8).map(RegOp::Write).collect::<Vec<_>>(),
        vec![RegOp::Read; 8],
        vec![RegOp::Read; 8],
    ];
    let construction = Construction::MajorityQuorum { write_back: true };
    let mut seed = 0;
    layers.set(
        "registers.schedule.ns_per_step",
        ns_per_unit(|| {
            let mut steps = 0;
            for _ in 0..200 {
                seed += 1;
                steps += run_schedule(construction, 1, &scripts, &[], seed).steps;
            }
            steps
        }),
    );
}

fn checker(layers: &mut Layers) {
    let mut target = flood_exhaustive()();
    let mut seed = 0;
    layers.set(
        "check.fuzz.runs_per_s",
        1e9 / ns_per_unit(|| {
            seed += 100;
            fuzz(target.as_mut(), seed, 100, 64).runs as u64
        }),
    );
    // Shrinking the witness the explorer finds for the first mutant.
    let mutant = suite()
        .into_iter()
        .find(|s| s.expect_violation)
        .expect("the suite has mutants");
    let mut target = (mutant.build)();
    let witness = explore(target.as_mut(), Budget::default())
        .counterexample
        .expect("the bounded explorer convicts the first mutant");
    // Pad the plan with noise decisions so there is something to remove,
    // unless the noise happens to hide the violation.
    let mut plan = witness.plan.clone();
    plan.extend([1, 0, 2, 0, 1, 0, 0, 1]);
    if target.run(&plan).violation.is_none() {
        plan = witness.plan.clone();
    }
    layers.set(
        "check.shrink.ms_per_witness",
        ns_per_unit(|| {
            black_box(shrink(target.as_mut(), black_box(&plan), 256));
            1
        }) / 1e6,
    );
}

/// Runs the probes of the layers `workload` drives work through: the
/// ones whose figures should move with its end-to-end metrics. The
/// networked workloads also split their measured CPU with them.
pub fn run_for(workload: &str, layers: &mut Layers, tr: &mut Tracer) {
    match workload {
        "net-steady" | "net-paced-kill" => {
            codec(layers, tr);
            wheel(layers);
            store_core(layers, tr);
            account(layers);
        }
        "sim-otq-churn" => {
            queue(layers);
            world(layers);
            graph(layers);
        }
        "sim-store-churn" => {
            store_core(layers, tr);
            queue(layers);
            world(layers);
            spec(layers, tr);
        }
        "check-explore" => {
            snapshots(layers, tr);
            registers(layers);
            checker(layers);
        }
        other => unreachable!("no probes for workload {other}"),
    }
}

/// Splits the service's measured CPU per operation into the part the
/// probes account for —
/// `StoreCore::step` inputs plus one encode and one decode per message —
/// and the rest: syscalls, polling and copies, where a host-tick
/// optimisation has to land.
fn account(layers: &mut Layers) {
    let measured = layers.get("svc.cpu_us_per_op");
    let core = layers.get("store.core.steps_per_op") * layers.get("store.core.step_ns_per_input");
    let wire = layers.get("store.core.msgs_per_op")
        * (layers.get("svc.codec.encode_ns_per_frame")
            + layers.get("svc.codec.decode_ns_per_frame"));
    let accounted = (core + wire) / 1e3;
    layers.set("svc.accounted_us_per_op", accounted);
    layers.set("svc.unaccounted_us_per_op", measured - accounted);
}
