//! `svc_seed` — the discovery registry.
//!
//! Accepts connections, learns `(pid, role, addr)` triples from `Hello`
//! frames, and broadcasts the full roster to every connected process
//! whenever it changes. Entries are pruned when the connection that
//! announced them closes — a killed replica disappears from the roster
//! within one poll cycle, which is how surviving processes stop dialing
//! it and how the orchestrator's churn injection propagates.
//!
//! Events are printed as one-line JSON on stdout (`ready`, `roster`),
//! which the `run_net` orchestrator tails.

use std::io::Write as _;
use std::process::exit;

use dds_core::process::ProcessId;
use dds_svc::codec::WireMsg;
use dds_svc::node::{Addr, Conn};
use dds_svc::poller::{poll_fds, PollFd};

fn usage() -> ! {
    eprintln!("usage: svc_seed --listen <uds:PATH|tcp:HOST:PORT>");
    exit(2)
}

fn main() {
    let mut listen = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listen" => listen = args.next(),
            _ => usage(),
        }
    }
    let Some(listen) = listen else { usage() };
    let addr = match Addr::parse(&listen) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svc_seed: {e}");
            exit(2)
        }
    };
    let listener = match addr.listen() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("svc_seed: bind {listen}: {e}");
            exit(1)
        }
    };
    println!(
        "{{\"event\": \"ready\", \"listen\": \"{}\"}}",
        addr.display()
    );
    std::io::stdout().flush().ok();

    let mut conns: Vec<Option<Conn>> = Vec::new();
    // (pid, role, addr, owning connection slot), sorted by pid.
    let mut roster: Vec<(ProcessId, u8, String, usize)> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut poll_map: Vec<usize> = Vec::new();

    loop {
        pollfds.clear();
        poll_map.clear();
        pollfds.push(PollFd::new(listener.raw_fd(), true, false));
        poll_map.push(usize::MAX);
        for (i, c) in conns.iter().enumerate() {
            if let Some(c) = c {
                if !c.is_dead() {
                    pollfds.push(PollFd::new(c.raw_fd(), true, c.backlog() > 0));
                    poll_map.push(i);
                }
            }
        }
        if let Err(e) = poll_fds(&mut pollfds, Some(1000)) {
            eprintln!("svc_seed: poll: {e}");
            exit(1);
        }

        let mut changed = false;
        for pi in 0..pollfds.len() {
            let fd = pollfds[pi];
            let slot = poll_map[pi];
            if slot == usize::MAX {
                if fd.readable() {
                    while let Ok(Some(stream)) = listener.accept() {
                        let conn = Conn::new(stream);
                        if let Some(free) = conns.iter_mut().find(|c| c.is_none()) {
                            *free = Some(conn);
                        } else {
                            conns.push(Some(conn));
                        }
                    }
                }
                continue;
            }
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            if fd.readable() {
                conn.fill(&mut scratch);
                while let Some(msg) = conn.next_msg() {
                    if let WireMsg::Hello { pid, role, addr } = msg {
                        match roster.iter_mut().find(|(p, ..)| *p == pid) {
                            Some(entry) => *entry = (pid, role, addr, slot),
                            None => roster.push((pid, role, addr, slot)),
                        }
                        changed = true;
                    }
                }
            } else if fd.writable() {
                conn.flush();
            }
        }

        for (i, slot) in conns.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|c| c.is_dead()) {
                *slot = None;
                let before = roster.len();
                roster.retain(|&(_, _, _, owner)| owner != i);
                changed |= roster.len() != before;
            }
        }

        if changed {
            roster.sort_by_key(|&(p, ..)| p.as_raw());
            let entries: Vec<(ProcessId, u8, String)> = roster
                .iter()
                .map(|(p, r, a, _)| (*p, *r, a.clone()))
                .collect();
            let frame = WireMsg::Roster {
                entries: entries.clone(),
            };
            for conn in conns.iter_mut().flatten() {
                conn.queue(&frame);
            }
            let listed: Vec<String> = entries
                .iter()
                .map(|(p, r, a)| format!("[{}, {}, \"{}\"]", p.as_raw(), r, a))
                .collect();
            println!(
                "{{\"event\": \"roster\", \"entries\": [{}]}}",
                listed.join(", ")
            );
            std::io::stdout().flush().ok();
        }

        for conn in conns.iter_mut().flatten() {
            if conn.backlog() > 0 && !conn.is_dead() {
                conn.flush();
            }
        }
    }
}
