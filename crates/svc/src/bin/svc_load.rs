//! `svc_load` — multi-threaded closed-loop load generator.
//!
//! Each thread runs its own [`Host`] with `--clients` client cores
//! (distinct pids), each keeping exactly one operation in flight: the
//! next op is injected the moment the previous one completes or aborts.
//! Latency is wall-clock microseconds from injection to the tick that
//! observed the response, recorded into per-thread HDR-style
//! [`Histogram`]s (reads and writes separately; aborts are counted but
//! not folded into latency percentiles — an abort's latency is just the
//! retry budget).
//!
//! All threads share one epoch `Instant`, so `--log-ops` rows from
//! different threads live on a single time base and the merged JSONL is
//! directly checkable, whole, by `run_net --check-file`.
//!
//! The final summary is one JSON line on stdout (and `--out FILE` if
//! given): counts, elapsed, ops/sec, and the two latency histograms in
//! [`Histogram::to_json`] form for cross-process merging.

use std::io::Write as _;
use std::process::exit;
use std::time::Instant;

use dds_core::process::ProcessId;
use dds_core::spec::register::{RegOp, RegResp};
use dds_core::time::TimeDelta;
use dds_obs::histogram::Histogram;
use dds_store::msg::StoreMsg;
use dds_svc::codec::ROLE_CLIENT;
use dds_svc::node::{net_params, Addr, Host, HostCfg};

fn usage() -> ! {
    eprintln!(
        "usage: svc_load --seed <addr> --initial 1,2,3 [--threads N] [--clients N] \\\n\
         \x20        [--ops N] [--write-pct N] [--pid-base N] [--rng-seed N] \\\n\
         \x20        [--timeout-ms N] [--max-attempts N] [--op-gap-us N] \\\n\
         \x20        [--log-ops FILE] [--out FILE]"
    );
    exit(2)
}

fn parse_u64(s: Option<String>) -> u64 {
    s.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

/// xorshift64* — deterministic per-thread op mix without rand.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One finished operation, for `--log-ops`.
struct OpRow {
    pid: u64,
    write: bool,
    value: u64,
    invoked_us: u64,
    responded_us: u64,
    response: Option<RegResp>,
    aborted: bool,
}

struct ThreadResult {
    issued: u64,
    completed: u64,
    aborted: u64,
    retries: u64,
    read_us: Histogram,
    write_us: Histogram,
    rows: Vec<OpRow>,
}

#[allow(clippy::too_many_arguments)]
fn run_thread(
    seed: Addr,
    initial: Vec<ProcessId>,
    pids: Vec<ProcessId>,
    ops_per_client: u64,
    write_pct: u64,
    rng_seed: u64,
    timeout_ms: u64,
    max_attempts: u32,
    op_gap_us: u64,
    epoch: Instant,
    log_ops: bool,
) -> std::io::Result<ThreadResult> {
    let k = pids.len();
    let mut params = net_params(initial);
    params.op_timeout = TimeDelta::ticks(timeout_ms);
    params.max_attempts = max_attempts;
    let cfg = HostCfg {
        listen: None,
        seed: Some(seed),
        role: ROLE_CLIENT,
    };
    let cores = pids.iter().map(|&p| (p, params.clone())).collect();
    let mut host = Host::new(cfg, cores, epoch)?;
    while !host.started() {
        host.tick(50)?;
    }

    let mut rng = Rng(rng_seed | 1);
    let mut issued = vec![0u64; k];
    let mut seen = vec![0usize; k];
    let mut started_at = vec![Instant::now(); k];
    let mut ready_at = vec![Instant::now(); k];
    let gap = std::time::Duration::from_micros(op_gap_us);
    let mut last_write = vec![false; k];
    let mut out = ThreadResult {
        issued: 0,
        completed: 0,
        aborted: 0,
        retries: 0,
        read_us: Histogram::new(),
        write_us: Histogram::new(),
        rows: Vec::new(),
    };

    loop {
        let mut all_done = true;
        for i in 0..k {
            let log_len = host.core(i).log().len();
            if log_len > seen[i] {
                // The in-flight op finished (closed loop: exactly one).
                let entry = &host.core(i).log()[log_len - 1];
                let us = started_at[i].elapsed().as_micros() as u64;
                let aborted = entry.aborted;
                let response = entry.response;
                let value = match entry.op {
                    RegOp::Write(v) => v,
                    RegOp::Read => 0,
                };
                if aborted {
                    out.aborted += 1;
                } else {
                    out.completed += 1;
                    if last_write[i] {
                        out.write_us.record(us.max(1));
                    } else {
                        out.read_us.record(us.max(1));
                    }
                }
                if log_ops {
                    // Both ends are read off the shared epoch, the
                    // invocation at injection: an invocation derived as
                    // `now - us` absorbs any stall between the two clock
                    // reads and can land past an overlapping write.
                    out.rows.push(OpRow {
                        pid: host.pid(i).as_raw(),
                        write: last_write[i],
                        value,
                        invoked_us: started_at[i].duration_since(epoch).as_micros() as u64,
                        responded_us: epoch.elapsed().as_micros() as u64,
                        response,
                        aborted,
                    });
                }
                seen[i] = log_len;
                if op_gap_us > 0 {
                    ready_at[i] = Instant::now() + gap;
                }
            }
            if (seen[i] as u64) == issued[i]
                && issued[i] < ops_per_client
                && (op_gap_us == 0 || Instant::now() >= ready_at[i])
            {
                let write = rng.next() % 100 < write_pct;
                // Written values are unique per (pid, index), pid in the
                // high 32 bits, so every logged read names its write.
                let op = if write {
                    RegOp::Write((host.pid(i).as_raw() << 32) | (issued[i] + 1))
                } else {
                    RegOp::Read
                };
                last_write[i] = write;
                started_at[i] = Instant::now();
                host.inject(i, StoreMsg::Invoke(op));
                issued[i] += 1;
                out.issued += 1;
            }
            if issued[i] < ops_per_client || (seen[i] as u64) < issued[i] {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        host.tick(if op_gap_us > 0 { 1 } else { 10 })?;
    }
    for i in 0..k {
        out.retries += host.core(i).stats.retries;
    }
    Ok(out)
}

fn main() {
    let mut seed = None;
    let mut initial: Vec<ProcessId> = Vec::new();
    let mut threads = 2u64;
    let mut clients = 16u64;
    let mut ops = 1000u64;
    let mut write_pct = 20u64;
    let mut pid_base = 1000u64;
    let mut rng_seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut timeout_ms = 250u64;
    let mut max_attempts = 6u32;
    let mut op_gap_us = 0u64;
    let mut log_ops_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next(),
            "--initial" => {
                initial = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|p| ProcessId::from_raw(p.trim().parse().unwrap_or_else(|_| usage())))
                    .collect()
            }
            "--threads" => threads = parse_u64(args.next()),
            "--clients" => clients = parse_u64(args.next()),
            "--ops" => ops = parse_u64(args.next()),
            "--write-pct" => write_pct = parse_u64(args.next()),
            "--pid-base" => pid_base = parse_u64(args.next()),
            "--rng-seed" => rng_seed = parse_u64(args.next()),
            "--timeout-ms" => timeout_ms = parse_u64(args.next()),
            "--max-attempts" => max_attempts = parse_u64(args.next()) as u32,
            "--op-gap-us" => op_gap_us = parse_u64(args.next()),
            "--log-ops" => log_ops_path = args.next(),
            "--out" => out_path = args.next(),
            _ => usage(),
        }
    }
    let Some(seed) = seed else { usage() };
    if initial.is_empty() {
        usage()
    }
    let seed = Addr::parse(&seed).unwrap_or_else(|e| {
        eprintln!("svc_load: {e}");
        exit(2)
    });

    let epoch = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let seed = seed.clone();
        let initial = initial.clone();
        let pids: Vec<ProcessId> = (0..clients)
            .map(|j| ProcessId::from_raw(pid_base + t * clients + j))
            .collect();
        let log_ops = log_ops_path.is_some();
        let rng = rng_seed ^ (t.wrapping_mul(0xA24B_AED4_963E_E407));
        handles.push(std::thread::spawn(move || {
            run_thread(
                seed,
                initial,
                pids,
                ops,
                write_pct,
                rng,
                timeout_ms,
                max_attempts,
                op_gap_us,
                epoch,
                log_ops,
            )
        }));
    }

    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut aborted = 0u64;
    let mut retries = 0u64;
    let mut read_us = Histogram::new();
    let mut write_us = Histogram::new();
    let mut rows: Vec<OpRow> = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(r)) => {
                issued += r.issued;
                completed += r.completed;
                aborted += r.aborted;
                retries += r.retries;
                read_us.merge(&r.read_us);
                write_us.merge(&r.write_us);
                rows.extend(r.rows);
            }
            Ok(Err(e)) => {
                eprintln!("svc_load: thread: {e}");
                exit(1)
            }
            Err(_) => {
                eprintln!("svc_load: thread panicked");
                exit(1)
            }
        }
    }
    let elapsed_ms = epoch.elapsed().as_millis().max(1) as u64;

    if let Some(path) = &log_ops_path {
        rows.sort_by_key(|r| r.invoked_us);
        let mut f = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("svc_load: {path}: {e}");
            exit(1)
        }));
        for r in &rows {
            let resp = match r.response {
                Some(RegResp::Ack) => "\"ack\"".to_string(),
                Some(RegResp::Value(Some(v))) => v.to_string(),
                Some(RegResp::Value(None)) => "\"bot\"".to_string(),
                None => "null".to_string(),
            };
            writeln!(
                f,
                "{{\"pid\": {}, \"op\": \"{}\", \"value\": {}, \"invoked_us\": {}, \
                 \"responded_us\": {}, \"response\": {}, \"aborted\": {}}}",
                r.pid,
                if r.write { "w" } else { "r" },
                r.value,
                r.invoked_us,
                r.responded_us,
                resp,
                r.aborted,
            )
            .unwrap();
        }
    }

    let summary = format!(
        "{{\"role\": \"load\", \"threads\": {threads}, \"clients\": {clients}, \
         \"issued\": {issued}, \"completed\": {completed}, \"aborted\": {aborted}, \
         \"retries\": {retries}, \"elapsed_ms\": {elapsed_ms}, \"ops_per_sec\": {:.1}, \
         \"read_us\": {}, \"write_us\": {}}}",
        completed as f64 * 1000.0 / elapsed_ms as f64,
        read_us.to_json(),
        write_us.to_json(),
    );
    if let Some(path) = &out_path {
        std::fs::write(path, format!("{summary}\n")).unwrap_or_else(|e| {
            eprintln!("svc_load: {path}: {e}");
            exit(1)
        });
    }
    println!("{summary}");
}
