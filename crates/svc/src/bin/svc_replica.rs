//! `svc_replica` — one quorum-engine replica process.
//!
//! Hosts a single sans-io [`dds_store::protocol::StoreCore`] over the
//! poll event loop: serves `Query`/`Store` with epoch fencing, probes
//! peers, and coordinates epoch-fenced reconfigurations — the exact
//! protocol the simulator runs, at 1 tick = 1 ms.
//!
//! Prints a `ready` line once joined, then one `status` JSON line per
//! `--status-every-ms` so the orchestrator can watch epochs advance
//! during churn. Runs until killed.

use std::io::Write as _;
use std::process::exit;
use std::time::Instant;

use dds_core::process::ProcessId;
use dds_core::time::TimeDelta;
use dds_svc::codec::ROLE_REPLICA;
use dds_svc::node::{net_params, Addr, Host, HostCfg};

fn usage() -> ! {
    eprintln!(
        "usage: svc_replica --pid N --listen <addr> --seed <addr> --initial 1,2,3 \\\n\
         \x20        [--timeout-ms N] [--probe-ms N] [--suspect-ms N] [--view-ms N] \\\n\
         \x20        [--status-every-ms N]"
    );
    exit(2)
}

fn parse_u64(s: Option<String>) -> u64 {
    s.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let mut pid = None;
    let mut listen = None;
    let mut seed = None;
    let mut initial = Vec::new();
    let mut timeout_ms = None;
    let mut probe_ms = None;
    let mut suspect_ms = None;
    let mut view_ms = None;
    let mut status_every_ms = 1000u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pid" => pid = Some(parse_u64(args.next())),
            "--listen" => listen = args.next(),
            "--seed" => seed = args.next(),
            "--initial" => {
                initial = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|p| ProcessId::from_raw(p.trim().parse().unwrap_or_else(|_| usage())))
                    .collect()
            }
            "--timeout-ms" => timeout_ms = Some(parse_u64(args.next())),
            "--probe-ms" => probe_ms = Some(parse_u64(args.next())),
            "--suspect-ms" => suspect_ms = Some(parse_u64(args.next())),
            "--view-ms" => view_ms = Some(parse_u64(args.next())),
            "--status-every-ms" => status_every_ms = parse_u64(args.next()),
            _ => usage(),
        }
    }
    let (Some(pid), Some(listen), Some(seed)) = (pid, listen, seed) else {
        usage()
    };
    if initial.is_empty() {
        usage()
    }
    let me = ProcessId::from_raw(pid);
    let mut params = net_params(initial);
    if let Some(t) = timeout_ms {
        params.op_timeout = TimeDelta::ticks(t);
    }
    if let Some(t) = probe_ms {
        params.probe_every = Some(TimeDelta::ticks(t));
    }
    if let Some(t) = suspect_ms {
        params.suspect_after = TimeDelta::ticks(t);
    }
    if let Some(t) = view_ms {
        params.view_delta = TimeDelta::ticks(t);
    }

    let cfg = HostCfg {
        listen: Some(Addr::parse(&listen).unwrap_or_else(|e| {
            eprintln!("svc_replica: {e}");
            exit(2)
        })),
        seed: Some(Addr::parse(&seed).unwrap_or_else(|e| {
            eprintln!("svc_replica: {e}");
            exit(2)
        })),
        role: ROLE_REPLICA,
    };
    let mut host = match Host::new(cfg, vec![(me, params)], Instant::now()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("svc_replica: start: {e}");
            exit(1)
        }
    };
    println!("{{\"event\": \"ready\", \"pid\": {pid}}}");
    std::io::stdout().flush().ok();

    let mut last_status = 0u64;
    loop {
        if let Err(e) = host.tick(100) {
            eprintln!("svc_replica: event loop: {e}");
            exit(1);
        }
        let now = host.now_ms();
        if now.saturating_sub(last_status) >= status_every_ms {
            last_status = now;
            let core = host.core(0);
            let (stamp, _) = core.state();
            let members: Vec<String> = core
                .members()
                .iter()
                .map(|p| p.as_raw().to_string())
                .collect();
            println!(
                "{{\"event\": \"status\", \"pid\": {pid}, \"epoch\": {}, \"stamp_seq\": {}, \
                 \"members\": [{}], \"fenced_nacks\": {}, \"reconfigs_started\": {}, \
                 \"reconfigs_committed\": {}, \"migrations\": {}}}",
                core.epoch(),
                stamp.seq,
                members.join(", "),
                core.stats.fenced_nacks,
                core.stats.reconfigs_started,
                core.stats.reconfigs_committed,
                core.stats.migrations,
            );
            std::io::stdout().flush().ok();
        }
    }
}
