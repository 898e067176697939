//! The networked host: sockets, connections, and the event loop that
//! drives sans-io [`StoreCore`]s over them.
//!
//! A [`Host`] owns one or more protocol identities (a replica hosts
//! one; a load-generator thread hosts many clients), an optional
//! listening socket, an optional connection to the seed registry, and a
//! set of peer connections. One [`Host::tick`] is one event-loop
//! iteration:
//!
//! 1. expire due timers on the [`TimerWheel`] and step their cores,
//! 2. drain the local delivery queue (messages between hosted cores and
//!    outputs produced by steps),
//! 3. flush every connection's coalesced write buffer: what the timers
//!    sent and the operations injected since the last tick,
//! 4. `poll(2)` on the listener and every connection — the timeout is
//!    the earliest pending timer deadline,
//! 5. accept/read/dispatch: decode frames, route `Proto` frames to the
//!    addressed core, apply `Roster` updates, learn routes from `Hello`s,
//! 6. flush again: the replies the dispatch produced,
//! 7. reap dead connections.
//!
//! A flush is one `write` per connection with a backlog, no matter how
//! many frames were queued, so a connection sees at most two per tick.
//! (A single pre-`poll` flush carrying both was measured and did not
//! win: it saves a `write` but holds the replies back until the next
//! tick.)
//!
//! ## Identity, discovery, routing
//!
//! Processes are known by their protocol [`ProcessId`]. The seed's
//! `Roster` broadcast maps pids to roles and dial-back addresses;
//! cores are only started (fed [`CoreIn::Start`]) once the first roster
//! arrives, so a joiner's `Announce` reaches the replicas that must
//! learn it as a reconfiguration candidate. Outbound messages to a pid
//! with no live connection trigger a dial of its roster address; pids
//! with no dialable address (clients, dead peers) have the message
//! dropped silently — the same lossy-link semantics the protocol
//! already survives in the simulator, covered by its timers.
//!
//! ## Time
//!
//! One protocol tick is one millisecond: `step` is fed
//! `Time::from_ticks(ms since host epoch)`. The epoch is shared across a
//! process's hosts so timestamps from different load threads are
//! comparable. The clock is read once per phase — when a tick starts,
//! when `poll` returns, and per [`Host::inject`] — and every step and
//! timer of the phase uses that reading: a phase takes microseconds, far
//! below the millisecond a tick stands for.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Instant;

use dds_core::process::ProcessId;
use dds_core::time::{Time, TimeDelta};
use dds_store::msg::StoreMsg;
use dds_store::protocol::{CoreIn, CoreOut, StoreCore, StoreParams, TimerToken};

use crate::codec::{decode_frame, encode_frame, FrameReader, WireMsg, ROLE_REPLICA};
use crate::poller::{poll_fds, PollFd};
use crate::wheel::TimerWheel;

/// Protocol parameters scaled for real networks (1 tick = 1 ms): socket
/// round-trips are microseconds, so the timeouts are dominated by
/// scheduling noise and kill/restart churn, not message latency.
pub fn net_params(initial: Vec<ProcessId>) -> StoreParams {
    StoreParams {
        initial,
        replica_count: 3,
        min_quorum: 0,
        write_back: true,
        epoch_fencing: true,
        op_timeout: TimeDelta::ticks(250),
        max_attempts: 6,
        probe_every: Some(TimeDelta::ticks(200)),
        suspect_after: TimeDelta::ticks(900),
        view_delta: TimeDelta::ticks(5_000),
    }
}

/// A service endpoint: `uds:<path>` or `tcp:<host:port>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// Unix-domain socket path.
    Uds(String),
    /// TCP host:port.
    Tcp(String),
}

impl Addr {
    /// Parses `uds:<path>` / `tcp:<host:port>`.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(path) = s.strip_prefix("uds:") {
            Ok(Addr::Uds(path.to_string()))
        } else if let Some(hp) = s.strip_prefix("tcp:") {
            Ok(Addr::Tcp(hp.to_string()))
        } else {
            Err(format!("address {s:?} must start with uds: or tcp:"))
        }
    }

    /// The canonical string form (parseable by [`Addr::parse`]).
    pub fn display(&self) -> String {
        match self {
            Addr::Uds(p) => format!("uds:{p}"),
            Addr::Tcp(hp) => format!("tcp:{hp}"),
        }
    }

    /// Binds a non-blocking listener. A stale UDS path from a killed
    /// predecessor is unlinked first.
    pub fn listen(&self) -> io::Result<Listener> {
        match self {
            Addr::Uds(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Uds(l))
            }
            Addr::Tcp(hp) => {
                let l = TcpListener::bind(hp)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Connects (blocking — dials are rare) and switches the stream to
    /// non-blocking for the event loop.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            Addr::Uds(path) => {
                let s = UnixStream::connect(path)?;
                s.set_nonblocking(true)?;
                Ok(Stream::Uds(s))
            }
            Addr::Tcp(hp) => {
                let s = TcpStream::connect(hp)?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(Stream::Tcp(s))
            }
        }
    }
}

/// A non-blocking listening socket (UDS or TCP).
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener.
    Uds(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Accepts one pending connection, or `None` when none is queued.
    pub fn accept(&self) -> io::Result<Option<Stream>> {
        match self {
            Listener::Uds(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    Ok(Some(Stream::Uds(s)))
                }
                Err(e) if Self::no_connection(&e) => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true)?;
                    s.set_nonblocking(true)?;
                    Ok(Some(Stream::Tcp(s)))
                }
                Err(e) if Self::no_connection(&e) => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    /// `accept` errors that mean "no connection this time", not a broken
    /// listener: nothing queued, a peer that reset before it was
    /// accepted, or a signal. The level-triggered poll reports any
    /// connection still queued.
    fn no_connection(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::Interrupted
        )
    }

    /// The raw fd, for polling.
    pub fn raw_fd(&self) -> i32 {
        match self {
            Listener::Uds(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// A non-blocking connected socket (UDS or TCP).
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain stream.
    Uds(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    fn raw_fd(&self) -> i32 {
        match self {
            Stream::Uds(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
}

/// One live connection: stream, frame reassembly, and the coalescing
/// write buffer.
#[derive(Debug)]
pub struct Conn {
    stream: Stream,
    reader: FrameReader,
    /// Frames queued for sending; flushed once per tick.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written.
    wpos: usize,
    dead: bool,
}

impl Conn {
    /// Wraps a connected non-blocking stream.
    pub fn new(stream: Stream) -> Self {
        Conn {
            stream,
            reader: FrameReader::new(),
            wbuf: Vec::new(),
            wpos: 0,
            dead: false,
        }
    }

    /// Appends one frame to the write buffer (no syscall).
    pub fn queue(&mut self, msg: &WireMsg) {
        encode_frame(&mut self.wbuf, msg);
    }

    /// Bytes queued but not yet written.
    pub fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes as much of the buffer as the socket accepts. The buffer is
    /// reset (capacity kept) once fully drained.
    pub fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    /// Reads what is available into the frame reassembler, stopping at
    /// the first read that does not fill `scratch`: the socket is drained
    /// then, and asking again would only buy an `EAGAIN`. Whatever
    /// arrives later (an EOF included) makes the level-triggered poll
    /// report the socket readable again. Returns `true` if any bytes
    /// arrived. EOF or a hard error marks the connection dead (frames
    /// already buffered stay decodable).
    pub fn fill(&mut self, scratch: &mut [u8]) -> bool {
        let mut any = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.reader.extend(&scratch[..n]);
                    any = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        any
    }

    /// The underlying fd, for polling.
    pub fn raw_fd(&self) -> i32 {
        self.stream.raw_fd()
    }

    /// Whether the peer is gone (EOF, hard error, or malformed frame).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Decodes the next complete buffered frame. A malformed or
    /// oversized frame marks the connection dead and yields `None`.
    pub fn next_msg(&mut self) -> Option<WireMsg> {
        match self.reader.next_payload() {
            Ok(Some(payload)) => match decode_frame(payload) {
                Ok(m) => Some(m),
                Err(_) => {
                    self.dead = true;
                    None
                }
            },
            Ok(None) => None,
            Err(_) => {
                self.dead = true;
                None
            }
        }
    }
}

/// Configuration of a [`Host`].
#[derive(Debug, Clone)]
pub struct HostCfg {
    /// Address to listen on (replicas); `None` for client-only hosts.
    pub listen: Option<Addr>,
    /// The seed registry to join through; `None` runs rosterless (cores
    /// start immediately with empty peers — loopback tests).
    pub seed: Option<Addr>,
    /// Role advertised in `Hello`s ([`ROLE_REPLICA`] / `ROLE_CLIENT`).
    pub role: u8,
}

struct CoreSlot {
    pid: ProcessId,
    core: StoreCore,
}

/// Backoff before re-dialing an address that refused, in ms.
const REDIAL_MS: u64 = 50;
/// Read scratch size; also the natural upper bound on bytes handled per
/// connection per tick.
const SCRATCH: usize = 64 * 1024;

/// The event-loop host driving hosted [`StoreCore`]s over sockets.
pub struct Host {
    cfg: HostCfg,
    epoch: Instant,
    /// The clock as read at the start of the current loop phase, in ms
    /// since `epoch`: every step and timer of the phase uses it.
    phase_ms: u64,
    cores: Vec<CoreSlot>,
    by_pid: HashMap<u64, usize>,
    started: bool,

    listener: Option<Listener>,
    conns: Vec<Option<Conn>>,
    /// Seed connection slot, if joined through a seed.
    seed_slot: Option<usize>,
    /// Protocol pid → connection slot.
    route: HashMap<u64, usize>,
    /// pid → ms timestamp before which we will not re-dial it.
    dial_backoff: HashMap<u64, u64>,

    roster: Vec<(ProcessId, u8, String)>,
    /// Replica-role pids from the roster (excludes our own identities).
    peer_replicas: Vec<ProcessId>,

    wheel: TimerWheel,

    // Reused scratch (steady state allocates nothing here).
    out: Vec<CoreOut>,
    fired: Vec<TimerToken>,
    local_q: VecDeque<(usize, ProcessId, StoreMsg)>,
    scratch: Box<[u8]>,
    pollfds: Vec<PollFd>,
    /// pollfds[i] maps to conn slot poll_map[i] (usize::MAX = listener).
    poll_map: Vec<usize>,
}

/// Packs a per-core timer token into one wheel key. Core tokens are
/// step-allocated counters, far below 2^48; core indexes are tiny.
fn pack(core_idx: usize, token: TimerToken) -> TimerToken {
    TimerToken(((core_idx as u64) << 48) | token.as_raw())
}

fn unpack(packed: TimerToken) -> (usize, TimerToken) {
    (
        (packed.as_raw() >> 48) as usize,
        TimerToken(packed.as_raw() & ((1 << 48) - 1)),
    )
}

impl Host {
    /// Builds the host: binds `cfg.listen`, dials `cfg.seed` and sends
    /// one `Hello` per hosted core. `epoch` is the process-wide time
    /// origin (share one `Instant` across hosts so timestamps align).
    pub fn new(
        cfg: HostCfg,
        cores: Vec<(ProcessId, StoreParams)>,
        epoch: Instant,
    ) -> io::Result<Host> {
        let listener = match &cfg.listen {
            Some(a) => Some(a.listen()?),
            None => None,
        };
        let mut host = Host {
            by_pid: cores
                .iter()
                .enumerate()
                .map(|(i, (p, _))| (p.as_raw(), i))
                .collect(),
            cores: cores
                .into_iter()
                .map(|(pid, params)| CoreSlot {
                    pid,
                    core: StoreCore::new(params),
                })
                .collect(),
            started: false,
            listener,
            conns: Vec::new(),
            seed_slot: None,
            route: HashMap::new(),
            dial_backoff: HashMap::new(),
            roster: Vec::new(),
            peer_replicas: Vec::new(),
            wheel: TimerWheel::new(),
            out: Vec::new(),
            fired: Vec::new(),
            local_q: VecDeque::new(),
            scratch: vec![0u8; SCRATCH].into_boxed_slice(),
            pollfds: Vec::new(),
            poll_map: Vec::new(),
            phase_ms: epoch.elapsed().as_millis() as u64,
            epoch,
            cfg,
        };
        if let Some(seed) = host.cfg.seed.clone() {
            let stream = seed.connect()?;
            let slot = host.add_conn(stream);
            host.seed_slot = Some(slot);
            host.send_hellos(slot);
        } else {
            host.start_cores();
        }
        Ok(host)
    }

    /// Milliseconds since the host epoch (= protocol ticks).
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Whether the cores have been started (first roster seen, or no
    /// seed configured).
    pub fn started(&self) -> bool {
        self.started
    }

    /// The current roster.
    pub fn roster(&self) -> &[(ProcessId, u8, String)] {
        &self.roster
    }

    /// Read access to hosted core `i` (injection-order index).
    pub fn core(&self, i: usize) -> &StoreCore {
        &self.cores[i].core
    }

    /// The pid of hosted core `i`.
    pub fn pid(&self, i: usize) -> ProcessId {
        self.cores[i].pid
    }

    /// Injects a message into hosted core `i` as if self-addressed
    /// (operation invocations). Outputs are routed immediately.
    pub fn inject(&mut self, i: usize, msg: StoreMsg) {
        let me = self.cores[i].pid;
        self.phase_ms = self.now_ms();
        self.local_q.push_back((i, me, msg));
        self.drain_local();
    }

    fn send_hellos(&mut self, slot: usize) {
        let addr = self
            .cfg
            .listen
            .as_ref()
            .map(|a| a.display())
            .unwrap_or_default();
        let role = self.cfg.role;
        let hellos: Vec<WireMsg> = self
            .cores
            .iter()
            .map(|c| WireMsg::Hello {
                pid: c.pid,
                role,
                addr: addr.clone(),
            })
            .collect();
        if let Some(conn) = self.conns[slot].as_mut() {
            for h in &hellos {
                conn.queue(h);
            }
        }
    }

    fn add_conn(&mut self, stream: Stream) -> usize {
        let conn = Conn::new(stream);
        for (i, slot) in self.conns.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(conn);
                return i;
            }
        }
        self.conns.push(Some(conn));
        self.conns.len() - 1
    }

    /// Steps core `idx` with `input` and routes what it decides.
    ///
    /// The peer hint is `peer_replicas`, which lists no hosted identity,
    /// so no core ever sees itself in it: replicas see every other
    /// replica in the roster (announce targets, view widening); clients
    /// see the replicas too, except at `Start`, where an empty hint keeps
    /// them from announcing themselves as reconfiguration candidates (a
    /// client cannot be dialed, so it must never be drafted into a
    /// configuration).
    fn step_core(&mut self, idx: usize, input: CoreIn) {
        let now = Time::from_ticks(self.phase_ms);
        let peers: &[ProcessId] = match input {
            CoreIn::Start if self.cfg.role != ROLE_REPLICA => &[],
            _ => &self.peer_replicas,
        };
        let hosted = &mut self.cores[idx];
        hosted
            .core
            .step(now, hosted.pid, peers, input, &mut self.out);
        self.route_outputs(idx);
    }

    fn start_cores(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.cores.len() {
            self.step_core(i, CoreIn::Start);
        }
        self.drain_local();
    }

    /// Dispatches everything the last step appended to `self.out`.
    fn route_outputs(&mut self, core_idx: usize) {
        let now_ms = self.phase_ms;
        let from = self.cores[core_idx].pid;
        let mut out = std::mem::take(&mut self.out);
        for effect in out.drain(..) {
            match effect {
                CoreOut::SetTimer { token, delay } => {
                    self.wheel
                        .schedule(now_ms + delay.as_ticks().max(1), pack(core_idx, token));
                }
                CoreOut::Send { to, msg } => {
                    if let Some(&local) = self.by_pid.get(&to.as_raw()) {
                        self.local_q.push_back((local, from, msg));
                    } else {
                        self.send_remote(from, to, msg);
                    }
                }
            }
        }
        self.out = out;
    }

    /// Queues a `Proto` frame towards `to`, dialing its roster address
    /// if no connection exists. Undialable or refusing destinations drop
    /// the message (lossy-link semantics; protocol timers cover it).
    fn send_remote(&mut self, from: ProcessId, to: ProcessId, msg: StoreMsg) {
        let slot = match self.route.get(&to.as_raw()) {
            Some(&s) if self.conns[s].as_ref().is_some_and(|c| !c.dead) => s,
            _ => {
                let Some(slot) = self.dial(to) else { return };
                slot
            }
        };
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.queue(&WireMsg::Proto { from, to, msg });
        }
    }

    fn dial(&mut self, to: ProcessId) -> Option<usize> {
        let now_ms = self.phase_ms;
        if self
            .dial_backoff
            .get(&to.as_raw())
            .is_some_and(|&until| now_ms < until)
        {
            return None;
        }
        let addr = self
            .roster
            .iter()
            .find(|(p, _, a)| *p == to && !a.is_empty())
            .map(|(_, _, a)| a.clone())?;
        let addr = Addr::parse(&addr).ok()?;
        match addr.connect() {
            Ok(stream) => {
                let slot = self.add_conn(stream);
                self.send_hellos(slot);
                self.route.insert(to.as_raw(), slot);
                self.dial_backoff.remove(&to.as_raw());
                Some(slot)
            }
            Err(_) => {
                self.dial_backoff.insert(to.as_raw(), now_ms + REDIAL_MS);
                None
            }
        }
    }

    /// Steps queued local deliveries until quiescent.
    fn drain_local(&mut self) {
        while let Some((idx, from, msg)) = self.local_q.pop_front() {
            self.step_core(idx, CoreIn::Message { from, msg });
        }
    }

    fn apply_roster(&mut self, entries: Vec<(ProcessId, u8, String)>) {
        self.roster = entries;
        self.peer_replicas = self
            .roster
            .iter()
            .filter(|(p, role, _)| *role == ROLE_REPLICA && !self.by_pid.contains_key(&p.as_raw()))
            .map(|(p, _, _)| *p)
            .collect();
        // A fresh address for a pid invalidates any backoff.
        self.dial_backoff.clear();
        self.start_cores();
    }

    fn dispatch_frame(&mut self, slot: usize, msg: WireMsg) {
        match msg {
            WireMsg::Hello { pid, .. } => {
                self.route.insert(pid.as_raw(), slot);
            }
            WireMsg::Roster { entries } => {
                if self.seed_slot == Some(slot) {
                    self.apply_roster(entries);
                }
            }
            WireMsg::Proto { from, to, msg } => {
                if let Some(&idx) = self.by_pid.get(&to.as_raw()) {
                    self.local_q.push_back((idx, from, msg));
                }
            }
        }
    }

    /// One event-loop iteration; blocks at most `max_wait_ms` (less when
    /// a timer is due sooner). Returns the number of frames processed.
    pub fn tick(&mut self, max_wait_ms: u64) -> io::Result<usize> {
        // 1. timers
        self.phase_ms = self.now_ms();
        let mut fired = std::mem::take(&mut self.fired);
        self.wheel.expire(self.phase_ms, &mut fired);
        for packed in fired.drain(..) {
            let (idx, token) = unpack(packed);
            self.step_core(idx, CoreIn::Timer(token));
        }
        self.fired = fired;
        // 2. local deliveries produced by timers
        self.drain_local();

        // 3. flush everything queued before sleeping
        for conn in self.conns.iter_mut().flatten() {
            if conn.backlog() > 0 && !conn.dead {
                conn.flush();
            }
        }

        // 4. poll
        self.pollfds.clear();
        self.poll_map.clear();
        if let Some(l) = &self.listener {
            self.pollfds.push(PollFd::new(l.raw_fd(), true, false));
            self.poll_map.push(usize::MAX);
        }
        for (i, conn) in self.conns.iter().enumerate() {
            if let Some(c) = conn {
                if c.dead {
                    continue;
                }
                self.pollfds
                    .push(PollFd::new(c.stream.raw_fd(), true, c.backlog() > 0));
                self.poll_map.push(i);
            }
        }
        let timeout = match self.wheel.next_deadline() {
            Some(d) => d.saturating_sub(self.now_ms()).min(max_wait_ms),
            None => max_wait_ms,
        };
        if self.pollfds.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(timeout));
            return Ok(0);
        }
        poll_fds(&mut self.pollfds, Some(timeout as u32))?;
        self.phase_ms = self.now_ms();

        // 5. accept + read + dispatch
        let mut processed = 0;
        for pi in 0..self.pollfds.len() {
            let fd = self.pollfds[pi];
            let slot = self.poll_map[pi];
            if slot == usize::MAX {
                if fd.readable() {
                    while let Some(stream) = self.listener.as_ref().unwrap().accept()? {
                        self.add_conn(stream);
                    }
                }
                continue;
            }
            if fd.readable() {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                conn.fill(&mut self.scratch);
                while let Some(msg) = self.conns[slot].as_mut().and_then(Conn::next_msg) {
                    processed += 1;
                    self.dispatch_frame(slot, msg);
                }
                self.drain_local();
            } else if fd.writable() {
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.flush();
                }
            }
        }

        // 6. flush replies generated this tick
        for conn in self.conns.iter_mut().flatten() {
            if conn.backlog() > 0 && !conn.dead {
                conn.flush();
            }
        }

        // 7. reap dead connections
        for i in 0..self.conns.len() {
            if self.conns[i].as_ref().is_some_and(|c| c.dead) {
                self.conns[i] = None;
                self.route.retain(|_, &mut s| s != i);
                if self.seed_slot == Some(i) {
                    self.seed_slot = None;
                }
            }
        }
        Ok(processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parse_roundtrip() {
        let u = Addr::parse("uds:/tmp/x.sock").unwrap();
        assert_eq!(u, Addr::Uds("/tmp/x.sock".into()));
        assert_eq!(Addr::parse(&u.display()).unwrap(), u);
        let t = Addr::parse("tcp:127.0.0.1:9000").unwrap();
        assert_eq!(t, Addr::Tcp("127.0.0.1:9000".into()));
        assert!(Addr::parse("/tmp/x.sock").is_err());
    }

    #[test]
    fn only_a_broken_listener_fails_accept() {
        use io::ErrorKind::*;
        for kind in [WouldBlock, ConnectionAborted, Interrupted] {
            assert!(Listener::no_connection(&kind.into()), "{kind:?}");
        }
        for kind in [InvalidInput, PermissionDenied, OutOfMemory] {
            assert!(!Listener::no_connection(&kind.into()), "{kind:?}");
        }
    }

    #[test]
    fn tcp_loopback_frames_roundtrip() {
        let listener = Addr::Tcp("127.0.0.1:0".into()).listen().unwrap();
        let port = match &listener {
            Listener::Tcp(l) => l.local_addr().unwrap().port(),
            _ => unreachable!(),
        };
        let mut client = Conn::new(Addr::Tcp(format!("127.0.0.1:{port}")).connect().unwrap());
        client.queue(&WireMsg::Hello {
            pid: ProcessId::from_raw(9),
            role: ROLE_REPLICA,
            addr: "tcp:127.0.0.1:1".into(),
        });
        client.flush();
        let mut server = None;
        for _ in 0..100 {
            if let Some(s) = listener.accept().unwrap() {
                server = Some(Conn::new(s));
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut server = server.expect("accept");
        let mut scratch = vec![0u8; 4096];
        for _ in 0..100 {
            server.fill(&mut scratch);
            if let Some(p) = server.reader.next_payload().unwrap() {
                let msg = decode_frame(p).unwrap();
                assert_eq!(
                    msg,
                    WireMsg::Hello {
                        pid: ProcessId::from_raw(9),
                        role: ROLE_REPLICA,
                        addr: "tcp:127.0.0.1:1".into(),
                    }
                );
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("frame never arrived");
    }

    #[test]
    fn a_short_fill_leaves_later_frames_and_eof_to_the_next_fill() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let (mut client, mut server) = (Conn::new(Stream::Uds(a)), Conn::new(Stream::Uds(b)));
        let frame = |n: u64| WireMsg::Hello {
            pid: ProcessId::from_raw(n),
            role: ROLE_REPLICA,
            addr: "uds:/x".into(),
        };
        let mut scratch = vec![0u8; 4096];

        client.queue(&frame(1));
        client.flush();
        assert!(server.fill(&mut scratch), "one short read took the frame");
        assert_eq!(server.next_msg(), Some(frame(1)));
        assert!(!server.is_dead());

        // Written after the short fill: the next fill's business.
        client.queue(&frame(2));
        client.queue(&frame(3));
        client.flush();
        assert!(server.fill(&mut scratch));
        assert_eq!(server.next_msg(), Some(frame(2)));
        assert_eq!(server.next_msg(), Some(frame(3)));
        assert_eq!(server.next_msg(), None);

        // More than one scratch-full pending: the fill keeps reading.
        let mut small = vec![0u8; 16];
        client.queue(&frame(4));
        client.flush();
        assert!(server.fill(&mut small));
        assert_eq!(server.next_msg(), Some(frame(4)));

        // EOF behind data: the data first, the EOF at the fill after it.
        client.queue(&frame(5));
        client.flush();
        drop(client);
        assert!(server.fill(&mut scratch));
        assert_eq!(server.next_msg(), Some(frame(5)));
        assert!(!server.is_dead(), "the short read stopped before the EOF");
        assert!(!server.fill(&mut scratch));
        assert!(server.is_dead());
    }
}
