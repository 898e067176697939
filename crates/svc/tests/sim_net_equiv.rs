//! Sim-vs-net equivalence: one scripted tape, two hosts, same outcome.
//!
//! The networked service's correctness claim is that `dds-svc` is *only
//! a transport*: every protocol decision lives in the sans-io
//! [`StoreCore`], so driving the same operation tape through
//!
//! 1. a **direct harness** — the cores stepped in virtual time with an
//!    instant lossless network, the simulator's delivery discipline
//!    reduced to its essentials, and
//! 2. a **loopback `dds-svc` deployment** — a real `svc_seed` process
//!    plus two in-process [`Host`]s (one hosting the replicas, one the
//!    client) exchanging frames over a Unix socket,
//!
//! must produce identical outcomes: the same client response sequence,
//! the same final epoch and membership, and the same register state
//! (stamp and value) on every member of the final configuration. Wall
//! clocks differ, interleavings differ — the *decisions* may not.
//!
//! The tape exercises the interesting paths: writes, reads, an explicit
//! reconfiguration that decommissions a founding replica and drafts a
//! late joiner, and post-migration operations that must chase the view
//! through `Fenced` retries.

use std::collections::VecDeque;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dds_core::process::ProcessId;
use dds_core::spec::register::{RegOp, RegResp};
use dds_core::time::Time;
use dds_store::msg::{Stamp, StoreMsg};
use dds_store::protocol::{CoreIn, CoreOut, StoreCore, TimerToken};
use dds_svc::codec::{ROLE_CLIENT, ROLE_REPLICA};
use dds_svc::node::{net_params, Addr, Host, HostCfg};

const REPLICAS: [u64; 4] = [1, 2, 3, 4];
const INITIAL: [u64; 3] = [1, 2, 3];
const NEW_MEMBERS: [u64; 3] = [2, 3, 4];
const CLIENT: u64 = 100;

/// The scripted tape: what the client does, in order. The reconfigure
/// is injected at the coordinator (lowest-pid founding replica) once
/// the preceding operations have drained.
enum Step {
    Op(RegOp),
    Reconfigure,
}

fn tape() -> Vec<Step> {
    vec![
        Step::Op(RegOp::Write(CLIENT * 1_000_000 + 1)),
        Step::Op(RegOp::Read),
        Step::Op(RegOp::Write(CLIENT * 1_000_000 + 2)),
        Step::Op(RegOp::Read),
        Step::Reconfigure,
        Step::Op(RegOp::Write(CLIENT * 1_000_000 + 3)),
        Step::Op(RegOp::Read),
        Step::Op(RegOp::Write(CLIENT * 1_000_000 + 4)),
        Step::Op(RegOp::Read),
    ]
}

/// What both sides must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Client's log: (op, response, aborted) in completion order.
    responses: Vec<(RegOp, Option<RegResp>, bool)>,
    /// Final epoch on each member of the final configuration.
    epochs: Vec<u64>,
    /// Final membership as seen by each final member.
    members: Vec<Vec<ProcessId>>,
    /// Register state (stamp, value) on each final member.
    states: Vec<(Stamp, Option<u64>)>,
}

fn pid(raw: u64) -> ProcessId {
    ProcessId::from_raw(raw)
}

fn outcome_of(
    core_of: impl Fn(
        u64,
    ) -> (
        Vec<(RegOp, Option<RegResp>, bool)>,
        u64,
        Vec<ProcessId>,
        (Stamp, Option<u64>),
    ),
    client_log: Vec<(RegOp, Option<RegResp>, bool)>,
) -> Outcome {
    let mut epochs = Vec::new();
    let mut members = Vec::new();
    let mut states = Vec::new();
    for &p in &NEW_MEMBERS {
        let (_, e, m, s) = core_of(p);
        epochs.push(e);
        members.push(m);
        states.push(s);
    }
    Outcome {
        responses: client_log,
        epochs,
        members,
        states,
    }
}

// ---------------------------------------------------------------- side A

/// Virtual-time harness: every core in one address space, sends
/// delivered instantly in FIFO order, timers fired only when the
/// message queue is dry (the simulator's quiescence discipline).
struct Harness {
    pids: Vec<ProcessId>,
    cores: Vec<StoreCore>,
    inbox: VecDeque<(usize, ProcessId, StoreMsg)>,
    timers: Vec<(u64, u64, usize, TimerToken)>,
    tseq: u64,
    now_ms: u64,
    out: Vec<CoreOut>,
}

impl Harness {
    fn new() -> Self {
        let params = net_params(INITIAL.iter().copied().map(pid).collect());
        let mut pids: Vec<ProcessId> = REPLICAS.iter().copied().map(pid).collect();
        pids.push(pid(CLIENT));
        let cores = pids
            .iter()
            .map(|_| StoreCore::new(params.clone()))
            .collect();
        let mut h = Harness {
            pids,
            cores,
            inbox: VecDeque::new(),
            timers: Vec::new(),
            tseq: 0,
            now_ms: 1,
            out: Vec::new(),
        };
        // Start order and peer hints mirror the networked deployment:
        // the replica host owns every replica (so their roster-derived
        // peer hint is empty), and the client host hands its client an
        // empty hint at Start so it never announces as a candidate.
        for i in 0..h.cores.len() {
            h.step(i, CoreIn::Start);
        }
        h.drain();
        h
    }

    fn idx(&self, p: u64) -> usize {
        self.pids.iter().position(|&q| q == pid(p)).unwrap()
    }

    /// Peer hint for a stepping core — the networked hosts derive this
    /// from the seed roster minus their own hosted pids, which leaves
    /// replicas with an empty hint (all replicas share a host) and the
    /// client with every replica.
    fn peers(&self, i: usize) -> Vec<ProcessId> {
        if self.pids[i] == pid(CLIENT) {
            REPLICAS.iter().copied().map(pid).collect()
        } else {
            Vec::new()
        }
    }

    fn step(&mut self, i: usize, input: CoreIn) {
        let me = self.pids[i];
        let peers = self.peers(i);
        let mut out = std::mem::take(&mut self.out);
        self.cores[i].step(Time::from_ticks(self.now_ms), me, &peers, input, &mut out);
        for eff in out.drain(..) {
            match eff {
                CoreOut::Send { to, msg } => {
                    let j = self.pids.iter().position(|&q| q == to).unwrap();
                    self.inbox.push_back((j, me, msg));
                }
                CoreOut::SetTimer { token, delay } => {
                    let deadline = self.now_ms + delay.as_ticks().max(1);
                    self.timers.push((deadline, self.tseq, i, token));
                    self.tseq += 1;
                }
            }
        }
        self.out = out;
    }

    /// Deliver every queued message (instant lossless network).
    fn drain(&mut self) {
        while let Some((i, from, msg)) = self.inbox.pop_front() {
            self.step(i, CoreIn::Message { from, msg });
        }
    }

    /// Jump virtual time to the next timer deadline and fire everything
    /// due, then drain the sends that produced.
    fn advance(&mut self) {
        let Some(&(deadline, _, _, _)) = self.timers.iter().min() else {
            return;
        };
        self.now_ms = self.now_ms.max(deadline);
        let mut due: Vec<(u64, u64, usize, TimerToken)> = Vec::new();
        self.timers.retain(|&t| {
            if t.0 <= deadline {
                due.push(t);
                false
            } else {
                true
            }
        });
        due.sort();
        for (_, _, i, token) in due {
            self.step(i, CoreIn::Timer(token));
        }
        self.drain();
    }

    fn run_until(&mut self, mut done: impl FnMut(&Harness) -> bool) {
        for _ in 0..100_000 {
            if done(self) {
                return;
            }
            self.drain();
            if done(self) {
                return;
            }
            self.advance();
        }
        panic!("harness did not converge (virtual time {} ms)", self.now_ms);
    }

    fn client_log(&self) -> Vec<(RegOp, Option<RegResp>, bool)> {
        self.cores[self.idx(CLIENT)]
            .log()
            .iter()
            .map(|e| (e.op, e.response, e.aborted))
            .collect()
    }
}

fn run_direct() -> Outcome {
    let mut h = Harness::new();
    let client = h.idx(CLIENT);
    let coordinator = h.idx(INITIAL[0]);
    let mut completed = 0usize;
    for step in tape() {
        match step {
            Step::Op(op) => {
                let me = h.pids[client];
                h.inbox.push_back((client, me, StoreMsg::Invoke(op)));
                completed += 1;
                h.run_until(|h| h.cores[client].log().len() >= completed);
            }
            Step::Reconfigure => {
                let me = h.pids[coordinator];
                let members = NEW_MEMBERS.iter().copied().map(pid).collect();
                h.inbox
                    .push_back((coordinator, me, StoreMsg::Reconfigure { members }));
                h.run_until(|h| NEW_MEMBERS.iter().all(|&p| h.cores[h.idx(p)].epoch() >= 2));
            }
        }
    }
    // Let the tail of acks land (messages only — no more timer jumps).
    h.drain();
    let log = h.client_log();
    outcome_of(
        |p| {
            let c = &h.cores[h.idx(p)];
            (Vec::new(), c.epoch(), c.members().to_vec(), c.state())
        },
        log,
    )
}

// ---------------------------------------------------------------- side B

/// A child process killed on drop, so a failing test never leaks a seed.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn run_networked() -> Outcome {
    let dir = std::env::temp_dir().join(format!("dds_equiv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seed_addr = format!("uds:{}", dir.join("seed.sock").display());

    let mut seed = Reaper(
        Command::new(env!("CARGO_BIN_EXE_svc_seed"))
            .args(["--listen", &seed_addr])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn svc_seed"),
    );
    let mut ready = String::new();
    std::io::BufReader::new(seed.0.stdout.as_mut().unwrap())
        .read_line(&mut ready)
        .expect("seed ready line");
    assert!(ready.contains("ready"), "unexpected seed banner: {ready}");

    let params = net_params(INITIAL.iter().copied().map(pid).collect());
    let epoch = Instant::now();
    let mut replicas = Host::new(
        HostCfg {
            listen: Some(Addr::parse(&format!("uds:{}", dir.join("r.sock").display())).unwrap()),
            seed: Some(Addr::parse(&seed_addr).unwrap()),
            role: ROLE_REPLICA,
        },
        REPLICAS.iter().map(|&p| (pid(p), params.clone())).collect(),
        epoch,
    )
    .expect("replica host");
    let mut client = Host::new(
        HostCfg {
            listen: None,
            seed: Some(Addr::parse(&seed_addr).unwrap()),
            role: ROLE_CLIENT,
        },
        vec![(pid(CLIENT), params.clone())],
        epoch,
    )
    .expect("client host");

    let deadline = Instant::now() + Duration::from_secs(60);
    let pump =
        |replicas: &mut Host, client: &mut Host, done: &mut dyn FnMut(&Host, &Host) -> bool| {
            while !done(replicas, client) {
                assert!(Instant::now() < deadline, "networked side timed out");
                replicas.tick(1).unwrap();
                client.tick(1).unwrap();
            }
        };

    pump(&mut replicas, &mut client, &mut |r, c| {
        r.started() && c.started()
    });

    let ridx = |p: u64| REPLICAS.iter().position(|&q| q == p).unwrap();
    let mut completed = 0usize;
    for step in tape() {
        match step {
            Step::Op(op) => {
                client.inject(0, StoreMsg::Invoke(op));
                completed += 1;
                pump(&mut replicas, &mut client, &mut |_, c| {
                    c.core(0).log().len() >= completed
                });
            }
            Step::Reconfigure => {
                let members = NEW_MEMBERS.iter().copied().map(pid).collect();
                replicas.inject(ridx(INITIAL[0]), StoreMsg::Reconfigure { members });
                pump(&mut replicas, &mut client, &mut |r, _| {
                    NEW_MEMBERS.iter().all(|&p| r.core(ridx(p)).epoch() >= 2)
                });
            }
        }
    }
    // Drain the ack tail so every member applied the last store.
    let settle = Instant::now() + Duration::from_millis(100);
    pump(&mut replicas, &mut client, &mut |_, _| {
        Instant::now() >= settle
    });

    let log = client
        .core(0)
        .log()
        .iter()
        .map(|e| (e.op, e.response, e.aborted))
        .collect();
    let out = outcome_of(
        |p| {
            let c = replicas.core(ridx(p));
            (Vec::new(), c.epoch(), c.members().to_vec(), c.state())
        },
        log,
    );
    drop(seed);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

// ------------------------------------------------------------------ test

#[test]
fn scripted_tape_agrees_between_sim_harness_and_loopback_service() {
    let direct = run_direct();
    let networked = run_networked();

    // The tape must have been meaningful on both sides before the
    // equivalence claim says anything: all ops answered, epoch moved.
    assert_eq!(direct.responses.len(), 8, "direct: every op completed");
    assert!(
        direct
            .responses
            .iter()
            .all(|(_, r, aborted)| r.is_some() && !aborted),
        "direct: no aborts on a lossless network: {:?}",
        direct.responses
    );
    assert!(
        direct.epochs.iter().all(|&e| e == 2),
        "direct: epoch advanced"
    );
    assert_eq!(
        direct.members,
        vec![NEW_MEMBERS.iter().copied().map(pid).collect::<Vec<_>>(); 3],
        "direct: final configuration adopted"
    );

    assert_eq!(direct, networked);
}
