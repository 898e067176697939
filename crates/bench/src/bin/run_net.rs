//! `run_net` — orchestrates a networked dds-store run.
//!
//! Spawns real processes from the build directory — one `svc_seed`,
//! `--replicas` initial `svc_replica`s, one multi-threaded `svc_load` —
//! over Unix-domain sockets (default) or TCP loopback, injects churn by
//! SIGKILLing replicas mid-run and starting replacements under *fresh*
//! process ids (the paper's infinite-arrival model: identities are never
//! reused), and collects every agent's one-line JSON summary into a
//! reproducible `summary.json`.
//!
//! ## Gates and cross-checks
//!
//! - `--check-atomicity` replays the loader's per-operation JSONL
//!   through the Wing–Gong linearizability checker, windowed at
//!   quiescent cuts (see [`check_net_atomicity`]) so million-op logs
//!   stay checkable.
//! - The same churn/loss regime is pushed through the simulator
//!   ([`StoreScenario`]) and the predicted abort/atomicity behavior is
//!   recorded next to the measured one: below the sustainable-churn
//!   bound both must be abort-free and linearizable.
//!
//! Throughput and latency are reported in `summary.json` and on stdout,
//! not gated here: the timed view of the service is the benchmark's
//! `net-steady` and `net-paced-kill` workloads (`BENCHMARK.json`).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{check_atomic, RegOp, RegResp, RegisterHistory};
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_obs::Histogram;
use dds_store::harness::StoreScenario;

/// Target completed records per atomicity window; windows close at the
/// first quiescent cut at or past this size (checker cap is 128).
const WINDOW_TARGET: usize = 64;

/// Hard cap on one window's records (checker limit).
const WINDOW_MAX: usize = 120;

fn usage() -> ! {
    eprintln!(
        "usage: run_net [--dir DIR] [--tcp] [--replicas N] [--threads N] [--clients N] \\\n\
         \x20       [--ops N] [--write-pct N] [--op-gap-us N] [--kills N] \\\n\
         \x20       [--kill-after-ms N] [--kill-every-ms N] [--check-atomicity] \\\n\
         \x20       [--out FILE]\n\
         \x20      run_net --check-file OPS.jsonl   (re-check a recorded op log)"
    );
    std::process::exit(2)
}

fn parse_u64(s: Option<String>) -> u64 {
    s.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

struct Cfg {
    dir: PathBuf,
    tcp: bool,
    replicas: u64,
    threads: u64,
    clients: u64,
    ops: u64,
    write_pct: u64,
    op_gap_us: u64,
    kills: u64,
    kill_after_ms: u64,
    kill_every_ms: u64,
    check_atomicity: bool,
    out: PathBuf,
}

fn main() {
    let mut cfg = Cfg {
        dir: PathBuf::from("net_run"),
        tcp: false,
        replicas: 3,
        threads: 2,
        clients: 16,
        ops: 1000,
        write_pct: 20,
        op_gap_us: 0,
        kills: 1,
        kill_after_ms: 1500,
        kill_every_ms: 2000,
        check_atomicity: false,
        out: PathBuf::from("summary.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dir" => cfg.dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--tcp" => cfg.tcp = true,
            "--replicas" => cfg.replicas = parse_u64(args.next()).max(1),
            "--threads" => cfg.threads = parse_u64(args.next()).max(1),
            "--clients" => cfg.clients = parse_u64(args.next()).max(1),
            "--ops" => cfg.ops = parse_u64(args.next()),
            "--write-pct" => cfg.write_pct = parse_u64(args.next()),
            "--op-gap-us" => cfg.op_gap_us = parse_u64(args.next()),
            "--kills" => cfg.kills = parse_u64(args.next()),
            "--kill-after-ms" => cfg.kill_after_ms = parse_u64(args.next()),
            "--kill-every-ms" => cfg.kill_every_ms = parse_u64(args.next()),
            "--check-atomicity" => cfg.check_atomicity = true,
            "--out" => cfg.out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            // Offline mode: re-run the windowed atomicity check over an
            // op log a previous run recorded (no processes spawned).
            "--check-file" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
                let a = check_net_atomicity(&text);
                println!(
                    "{{\"linearizable\": {}, \"windows\": {}, \"records\": {}, \
                     \"skipped_records\": {}}}",
                    a.linearizable, a.windows, a.records, a.skipped
                );
                std::process::exit(if a.linearizable { 0 } else { 4 });
            }
            _ => usage(),
        }
    }
    std::process::exit(run(&cfg));
}

/// A spawned agent with its stdout redirected to a log file.
struct Agent {
    name: String,
    child: Child,
    log: PathBuf,
}

impl Agent {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_agent(dir: &Path, bin_dir: &Path, name: &str, bin: &str, args: &[String]) -> Agent {
    let log = dir.join(format!("{name}.log"));
    let file =
        std::fs::File::create(&log).unwrap_or_else(|e| fail(&format!("{}: {e}", log.display())));
    let child = Command::new(bin_dir.join(bin))
        .args(args)
        .stdout(Stdio::from(file))
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn {bin}: {e}")));
    Agent {
        name: name.to_string(),
        child,
        log,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("run_net: {msg}");
    std::process::exit(1)
}

/// Polls an agent's log until a line containing `needle` appears.
fn wait_for_line(agent: &Agent, needle: &str, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if let Ok(text) = std::fs::read_to_string(&agent.log) {
            if text.lines().any(|l| l.contains(needle)) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn addr_for(cfg: &Cfg, dir: &Path, name: &str, port: u16) -> String {
    if cfg.tcp {
        format!("tcp:127.0.0.1:{port}")
    } else {
        format!("uds:{}", dir.join(format!("{name}.sock")).display())
    }
}

fn run(cfg: &Cfg) -> i32 {
    let _ = std::fs::remove_dir_all(&cfg.dir);
    std::fs::create_dir_all(&cfg.dir)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", cfg.dir.display())));
    let dir = cfg.dir.clone();
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| fail("cannot locate build directory"));

    let initial: Vec<String> = (1..=cfg.replicas).map(|i| i.to_string()).collect();
    let initial_arg = initial.join(",");
    let seed_addr = addr_for(cfg, &dir, "seed", 39000);

    // --- seed ---
    let mut seed = spawn_agent(
        &dir,
        &bin_dir,
        "seed",
        "svc_seed",
        &["--listen".into(), seed_addr.clone()],
    );
    if !wait_for_line(&seed, "\"ready\"", Duration::from_secs(10)) {
        seed.kill();
        fail("seed never became ready");
    }

    // --- initial replicas ---
    let mut replicas: Vec<(u64, Agent)> = Vec::new();
    let mut next_pid = cfg.replicas + 1;
    let mut next_port = 39001u16;
    for i in 1..=cfg.replicas {
        let name = format!("replica{i}");
        let listen = addr_for(cfg, &dir, &name, next_port);
        next_port += 1;
        let agent = spawn_agent(
            &dir,
            &bin_dir,
            &name,
            "svc_replica",
            &[
                "--pid".into(),
                i.to_string(),
                "--listen".into(),
                listen,
                "--seed".into(),
                seed_addr.clone(),
                "--initial".into(),
                initial_arg.clone(),
                "--status-every-ms".into(),
                "500".into(),
            ],
        );
        replicas.push((i, agent));
    }
    for (_, r) in &replicas {
        if !wait_for_line(r, "\"ready\"", Duration::from_secs(10)) {
            fail(&format!("{} never became ready", r.name));
        }
    }

    // --- loader ---
    let ops_log = dir.join("ops.jsonl");
    let load_out = dir.join("load.json");
    let mut load_args: Vec<String> = vec![
        "--seed".into(),
        seed_addr.clone(),
        "--initial".into(),
        initial_arg.clone(),
        "--threads".into(),
        cfg.threads.to_string(),
        "--clients".into(),
        cfg.clients.to_string(),
        "--ops".into(),
        cfg.ops.to_string(),
        "--write-pct".into(),
        cfg.write_pct.to_string(),
        "--out".into(),
        load_out.display().to_string(),
    ];
    if cfg.op_gap_us > 0 {
        load_args.push("--op-gap-us".into());
        load_args.push(cfg.op_gap_us.to_string());
    }
    if cfg.check_atomicity {
        load_args.push("--log-ops".into());
        load_args.push(ops_log.display().to_string());
    }
    let run_start = Instant::now();
    let mut loader = spawn_agent(&dir, &bin_dir, "load", "svc_load", &load_args);

    // --- churn: kill the oldest replica, start a fresh-pid replacement ---
    let mut churn_events: Vec<String> = Vec::new();
    let mut kills_done = 0u64;
    let mut next_kill = run_start + Duration::from_millis(cfg.kill_after_ms.max(1));
    loop {
        match loader.child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) => {}
            Err(e) => fail(&format!("loader: {e}")),
        }
        if kills_done < cfg.kills && Instant::now() >= next_kill {
            let (victim_pid, mut victim) = replicas.remove(0);
            victim.kill();
            let t_kill = run_start.elapsed().as_millis() as u64;
            churn_events.push(format!(
                "{{\"at_ms\": {t_kill}, \"kind\": \"kill\", \"pid\": {victim_pid}}}"
            ));
            let pid = next_pid;
            next_pid += 1;
            let name = format!("replica{pid}");
            let listen = addr_for(cfg, &dir, &name, next_port);
            next_port += 1;
            let agent = spawn_agent(
                &dir,
                &bin_dir,
                &name,
                "svc_replica",
                &[
                    "--pid".into(),
                    pid.to_string(),
                    "--listen".into(),
                    listen,
                    "--seed".into(),
                    seed_addr.clone(),
                    "--initial".into(),
                    initial_arg.clone(),
                    "--status-every-ms".into(),
                    "500".into(),
                ],
            );
            let t_start = run_start.elapsed().as_millis() as u64;
            churn_events.push(format!(
                "{{\"at_ms\": {t_start}, \"kind\": \"start\", \"pid\": {pid}}}"
            ));
            replicas.push((pid, agent));
            kills_done += 1;
            next_kill = Instant::now() + Duration::from_millis(cfg.kill_every_ms.max(1));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let wall_ms = run_start.elapsed().as_millis() as u64;

    // --- collect, then tear down ---
    let load_summary = std::fs::read_to_string(&load_out)
        .unwrap_or_else(|e| fail(&format!("loader wrote no summary ({e})")));
    let load_summary = load_summary.trim().to_string();
    let mut max_epoch = 0u64;
    let mut replica_status: Vec<String> = Vec::new();
    for (pid, r) in &replicas {
        if let Ok(text) = std::fs::read_to_string(&r.log) {
            if let Some(last) = text.lines().rfind(|l| l.contains("\"status\"")) {
                if let Some(e) = extract_u64(last, "\"epoch\": ") {
                    max_epoch = max_epoch.max(e);
                }
                replica_status.push(last.to_string());
            } else {
                replica_status.push(format!("{{\"event\": \"silent\", \"pid\": {pid}}}"));
            }
        }
    }
    for (_, r) in replicas.iter_mut() {
        r.kill();
    }
    seed.kill();

    // --- parse the loader summary ---
    let issued = extract_u64(&load_summary, "\"issued\": ").unwrap_or(0);
    let completed = extract_u64(&load_summary, "\"completed\": ").unwrap_or(0);
    let aborted = extract_u64(&load_summary, "\"aborted\": ").unwrap_or(0);
    let retries = extract_u64(&load_summary, "\"retries\": ").unwrap_or(0);
    let elapsed_ms = extract_u64(&load_summary, "\"elapsed_ms\": ")
        .unwrap_or(wall_ms)
        .max(1);
    let ops_per_sec = completed as f64 * 1000.0 / elapsed_ms as f64;
    let abort_rate = if issued > 0 {
        aborted as f64 / issued as f64
    } else {
        0.0
    };
    let read_us = extract_obj(&load_summary, "\"read_us\": ")
        .and_then(|t| Histogram::parse_json(&t))
        .unwrap_or_default();
    let write_us = extract_obj(&load_summary, "\"write_us\": ")
        .and_then(|t| Histogram::parse_json(&t))
        .unwrap_or_default();

    // --- windowed atomicity check ---
    let atomicity = if cfg.check_atomicity {
        let text = std::fs::read_to_string(&ops_log)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", ops_log.display())));
        Some(check_net_atomicity(&text))
    } else {
        None
    };

    // --- simulator cross-check: same churn regime, scaled to ticks ---
    let sim = sim_crosscheck(cfg);

    // --- summary.json ---
    let mut summary = String::from("{\n");
    summary.push_str(&format!(
        "  \"config\": {{\"transport\": \"{}\", \"replicas\": {}, \"threads\": {}, \
         \"clients\": {}, \"ops_per_client\": {}, \"write_pct\": {}, \"kills\": {}}},\n",
        if cfg.tcp { "tcp" } else { "uds" },
        cfg.replicas,
        cfg.threads,
        cfg.clients,
        cfg.ops,
        cfg.write_pct,
        cfg.kills,
    ));
    summary.push_str(&format!("  \"load\": {load_summary},\n"));
    summary.push_str(&format!(
        "  \"churn_events\": [{}],\n",
        churn_events.join(", ")
    ));
    summary.push_str(&format!(
        "  \"replicas\": [{}],\n",
        replica_status.join(", ")
    ));
    summary.push_str(&format!(
        "  \"net\": {{\"wall_ms\": {wall_ms}, \"ops_per_sec\": {ops_per_sec:.1}, \
         \"abort_rate\": {abort_rate:.6}, \"max_epoch\": {max_epoch}, \
         \"p50_read_us\": {}, \"p99_read_us\": {}, \"p50_write_us\": {}, \"p99_write_us\": {}}},\n",
        read_us.percentile(50.0),
        read_us.percentile(99.0),
        write_us.percentile(50.0),
        write_us.percentile(99.0),
    ));
    if let Some(a) = &atomicity {
        summary.push_str(&format!(
            "  \"atomicity\": {{\"linearizable\": {}, \"windows\": {}, \"records\": {}, \
             \"skipped_records\": {}}},\n",
            a.linearizable, a.windows, a.records, a.skipped
        ));
    }
    let expected_aborts = sim.above_bound || sim.aborted > 0;
    let consistent = if expected_aborts {
        true // above the bound anything from clean to aborting is possible
    } else {
        abort_rate < 0.05
    };
    summary.push_str(&format!(
        "  \"sim_crosscheck\": {{\"completed\": {}, \"aborted\": {}, \"above_bound\": {}, \
         \"linearizable\": {}, \"consistent_with_net\": {consistent}}}\n}}\n",
        sim.completed, sim.aborted, sim.above_bound, sim.linearizable
    ));
    std::fs::write(&cfg.out, &summary)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", cfg.out.display())));
    eprintln!("wrote {}", cfg.out.display());
    println!(
        "net: {completed}/{issued} ops in {elapsed_ms} ms ({ops_per_sec:.0} ops/s), \
         abort rate {abort_rate:.4}, max epoch {max_epoch}, retries {retries}"
    );
    std::io::stdout().flush().ok();

    let mut code = 0;
    if let Some(a) = &atomicity {
        if !a.linearizable {
            eprintln!("run_net: history NOT linearizable");
            code = 4;
        }
    }
    if !consistent {
        eprintln!(
            "run_net: simulator predicted abort-free run below the churn bound, \
             but the networked run aborted {abort_rate:.4} of operations"
        );
        code = 5;
    }
    code
}

// ---------------------------------------------------------------------
// Windowed Wing–Gong atomicity check over the loader's operation log.
// ---------------------------------------------------------------------

/// One operation parsed from the loader's `--log-ops` JSONL.
struct NetOp {
    pid: u64,
    op: RegOp,
    invoked_us: u64,
    responded_us: u64,
    response: Option<RegResp>,
    aborted: bool,
}

/// Result of [`check_net_atomicity`].
struct AtomicityOutcome {
    linearizable: bool,
    windows: usize,
    records: usize,
    skipped: usize,
}

fn parse_ops(text: &str) -> Vec<NetOp> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(pid) = extract_u64(line, "\"pid\": ") else {
            continue;
        };
        let write = line.contains("\"op\": \"w\"");
        let value = extract_u64(line, "\"value\": ").unwrap_or(0);
        let invoked_us = extract_u64(line, "\"invoked_us\": ").unwrap_or(0);
        let responded_us = extract_u64(line, "\"responded_us\": ").unwrap_or(invoked_us);
        let aborted = line.contains("\"aborted\": true");
        let response = if aborted {
            None
        } else if line.contains("\"response\": \"ack\"") {
            Some(RegResp::Ack)
        } else if line.contains("\"response\": \"bot\"") {
            Some(RegResp::Value(None))
        } else {
            extract_u64(line, "\"response\": ").map(|v| RegResp::Value(Some(v)))
        };
        out.push(NetOp {
            pid,
            op: if write {
                RegOp::Write(value)
            } else {
                RegOp::Read
            },
            invoked_us,
            responded_us,
            response,
            aborted,
        });
    }
    out.sort_by_key(|o| (o.invoked_us, o.pid));
    out
}

/// Checks the operation log in windows cut at quiescent instants.
///
/// The full log can be far beyond the checker's 128-record cap, so the
/// history is sliced wherever no completed operation spans the cut.
/// Register state chains across cuts through a synthetic completed
/// write of the previous window's final linearized value (derived from
/// the checker's witness); when the tail of a window is ambiguous
/// (overlapping writes), every alternative final value is retried
/// before declaring a violation. Aborted writes float as pending
/// operations on virtual process ids: they are included in the window
/// they were invoked in and in any later window that reads their value,
/// until some witness consumes them — exactly the took-effect /
/// never-happened ambiguity an aborted write leaves behind.
fn check_net_atomicity(text: &str) -> AtomicityOutcome {
    let ops = parse_ops(text);
    let records = ops.len();
    let mut windows = 0usize;
    let mut skipped = 0usize;
    // Floating aborted writes not yet consumed by a witness.
    let mut floats: Vec<(u64, u64)> = Vec::new(); // (value, invoked_us)
                                                  // Values the register may hold at the current cut, most likely first.
    let mut chain: Vec<Option<u64>> = vec![None];
    let mut virtual_pid = 1_000_000_000u64;

    let completed: Vec<&NetOp> = ops.iter().filter(|o| !o.aborted).collect();
    let mut aborted_writes: Vec<&NetOp> = ops
        .iter()
        .filter(|o| o.aborted && matches!(o.op, RegOp::Write(_)))
        .collect();

    let mut i = 0usize;
    while i < completed.len() {
        // Grow the window to the first quiescent cut at or past target.
        let mut end = i;
        let mut max_resp = 0u64;
        let mut cut = None;
        while end < completed.len() {
            if end > i && end - i >= WINDOW_TARGET && max_resp < completed[end].invoked_us {
                cut = Some(end);
                break;
            }
            if end - i >= WINDOW_MAX {
                break;
            }
            max_resp = max_resp.max(completed[end].responded_us);
            end += 1;
        }
        let end = cut.unwrap_or(end.min(completed.len()));
        let window = &completed[i..end];
        if window.is_empty() {
            break;
        }
        // A window that never found a clean cut and hit the cap cannot
        // be checked in isolation; skip it (reported) and re-anchor.
        if cut.is_none() && end < completed.len() {
            skipped += window.len();
            i = end;
            // The register value at the re-anchor point is unknown.
            chain = possible_write_values(window, &chain);
            continue;
        }

        // Absorb newly invoked aborted writes into the float set.
        let window_end_us = window.iter().map(|o| o.responded_us).max().unwrap_or(0);
        aborted_writes.retain(|o| {
            if o.invoked_us <= window_end_us {
                if let RegOp::Write(v) = o.op {
                    floats.push((v, o.invoked_us));
                }
                false
            } else {
                true
            }
        });

        let mut ok = false;
        let mut next_chain: Vec<Option<u64>> = Vec::new();
        for &init in &chain {
            let (history, float_idx) =
                build_window_history(window, init, &floats, &mut virtual_pid);
            match check_atomic(&history) {
                Ok(lin) if lin.is_linearizable() => {
                    if let dds_core::spec::register::Linearizability::Linearizable { witness } =
                        &lin
                    {
                        // Final value + consumed floats from the witness.
                        let mut last_write = init;
                        for &w in witness {
                            if let RegOp::Write(v) = history.records()[w].op {
                                last_write = Some(v);
                            }
                        }
                        let consumed: Vec<u64> = float_idx
                            .iter()
                            .filter(|(idx, _)| witness.contains(idx))
                            .map(|&(_, v)| v)
                            .collect();
                        floats.retain(|(v, _)| !consumed.contains(v));
                        next_chain = vec![last_write];
                        // Tail ambiguity: the witness's linearization is
                        // one of possibly many, and a different one may
                        // end on a different write. Any real-time-maximal
                        // write (no other write strictly after it) could
                        // equally be the register's value at the cut.
                        for alt in maximal_writes(window) {
                            if !next_chain.contains(&Some(alt)) {
                                next_chain.push(Some(alt));
                            }
                        }
                    }
                    ok = true;
                    break;
                }
                Ok(_) => continue,
                Err(_) => {
                    // Too large with floats included — count as skipped.
                    skipped += window.len();
                    ok = true;
                    next_chain = possible_write_values(window, &chain);
                    break;
                }
            }
        }
        if !ok {
            if std::env::var("DDS_NET_DEBUG").is_ok() {
                eprintln!("window {windows} FAILED; chain {chain:?}; floats {floats:?}");
                for o in window {
                    eprintln!(
                        "  pid {} {:?} [{}..{}] -> {:?}",
                        o.pid, o.op, o.invoked_us, o.responded_us, o.response
                    );
                }
            }
            return AtomicityOutcome {
                linearizable: false,
                windows,
                records,
                skipped,
            };
        }
        windows += 1;
        chain = next_chain;
        i = end;
    }
    AtomicityOutcome {
        linearizable: true,
        windows,
        records,
        skipped,
    }
}

/// Builds the checkable history of one window: a synthetic initial
/// write carrying the chained register value, the window's completed
/// records, and the floating aborted writes as pending virtual-pid
/// records. Returns the history plus `(record index, value)` of each
/// float for witness-consumption tracking.
fn build_window_history(
    window: &[&NetOp],
    init: Option<u64>,
    floats: &[(u64, u64)],
    virtual_pid: &mut u64,
) -> (RegisterHistory, Vec<(usize, u64)>) {
    let t0 = window.iter().map(|o| o.invoked_us).min().unwrap_or(2);
    let mut history = RegisterHistory::new();
    let mut idx = 0usize;
    if let Some(v) = init {
        *virtual_pid += 1;
        history.push(OpRecord {
            process: ProcessId::from_raw(*virtual_pid),
            op: RegOp::Write(v),
            invoked: Time::from_ticks(t0.saturating_sub(2)),
            responded: Some(Time::from_ticks(t0.saturating_sub(1))),
            response: Some(RegResp::Ack),
        });
        idx += 1;
    }
    // Only floats whose value this window actually reads matter here;
    // including unread pending writes adds checker work, never freedom
    // that this window would use.
    let read_values: Vec<u64> = window
        .iter()
        .filter_map(|o| match o.response {
            Some(RegResp::Value(Some(v))) => Some(v),
            _ => None,
        })
        .collect();
    let mut float_idx = Vec::new();
    for &(v, invoked_us) in floats {
        let relevant = read_values.contains(&v) || invoked_us >= t0;
        if !relevant {
            continue;
        }
        *virtual_pid += 1;
        history.push(OpRecord {
            process: ProcessId::from_raw(*virtual_pid),
            op: RegOp::Write(v),
            invoked: Time::from_ticks(invoked_us.max(t0.saturating_sub(1))),
            responded: None,
            response: None,
        });
        float_idx.push((idx, v));
        idx += 1;
    }
    for o in window {
        history.push(OpRecord {
            process: ProcessId::from_raw(o.pid),
            op: o.op,
            invoked: Time::from_ticks(o.invoked_us),
            responded: Some(Time::from_ticks(o.responded_us.max(o.invoked_us))),
            response: o.response,
        });
    }
    (history, float_idx)
}

/// Values a window's writes could leave in the register, newest first
/// (used when re-anchoring after an uncheckable window, where the true
/// final value is unknown).
fn possible_write_values(window: &[&NetOp], prev: &[Option<u64>]) -> Vec<Option<u64>> {
    let mut vals: Vec<Option<u64>> = maximal_writes(window).into_iter().map(Some).collect();
    for &p in prev {
        if !vals.contains(&p) {
            vals.push(p);
        }
    }
    vals
}

/// The window's real-time-maximal completed writes — every write not
/// strictly followed by another completed write. In any linearization
/// the final write must come from this set (a non-maximal write has a
/// write wholly after it, which must linearize later), so these are
/// exactly the candidate register values at the cut. A long-running
/// write can respond early yet still be maximal through invocation
/// overlap, which is why a "responded near the end" heuristic is wrong.
fn maximal_writes(window: &[&NetOp]) -> Vec<u64> {
    let writes: Vec<&&NetOp> = window
        .iter()
        .filter(|o| matches!(o.op, RegOp::Write(_)))
        .collect();
    let mut out: Vec<(u64, u64)> = writes
        .iter()
        .filter(|w| !writes.iter().any(|o| o.invoked_us > w.responded_us))
        .filter_map(|o| match o.op {
            RegOp::Write(v) => Some((o.responded_us, v)),
            RegOp::Read => None,
        })
        .collect();
    // Latest-responding first: most likely to be the actual final value.
    out.sort_by_key(|&(responded, _)| std::cmp::Reverse(responded));
    out.into_iter().map(|(_, v)| v).collect()
}

// ---------------------------------------------------------------------
// Simulator cross-check
// ---------------------------------------------------------------------

struct SimOutcome {
    completed: u64,
    aborted: u64,
    above_bound: bool,
    linearizable: bool,
}

/// Runs the simulator under a churn regime equivalent to the networked
/// run: the same fraction of the configuration replaced over the run,
/// crashes only (SIGKILL has no goodbye), and the scenario's own
/// tick-scaled protocol parameters. The simulator is the predictor: if
/// its run under this regime is abort-free and linearizable, the
/// networked run is expected to be too.
fn sim_crosscheck(cfg: &Cfg) -> SimOutcome {
    let deadline_ticks = 2_000u64;
    // kills/(replicas) of the membership turned over across the whole
    // run; expressed per 100-tick window of the sim deadline.
    let window = TimeDelta::ticks(100);
    let turnover = cfg.kills as f64 / cfg.replicas as f64;
    let rate = (turnover * 100.0 / deadline_ticks as f64).clamp(0.0, 1.0);
    let churn = ChurnSpec::rate(rate, window).unwrap_or_else(|_| ChurnSpec::none());
    let mut s = StoreScenario::new(
        generate::complete((cfg.replicas as usize + 8).max(12)),
        0xD5_D5,
    );
    s.replica_count = cfg.replicas as usize;
    s.clients = 4;
    s.churn = churn;
    s.crash_fraction = 1.0;
    s.deadline = Time::from_ticks(deadline_ticks);
    s.ops_per_client = 16;
    s.write_ratio = cfg.write_pct as f64 / 100.0;
    s.op_every = TimeDelta::ticks(40);
    let report = s.run();
    let linearizable = check_atomic(&report.history)
        .map(|l| l.is_linearizable())
        .unwrap_or(false);
    SimOutcome {
        completed: report.completed,
        aborted: report.aborted,
        above_bound: report.above_bound,
        linearizable,
    }
}

// ---------------------------------------------------------------------
// Tiny JSON field extraction (the documents are all written by us).
// ---------------------------------------------------------------------

fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a brace-balanced JSON object starting right after `key`.
fn extract_obj(text: &str, key: &str) -> Option<String> {
    let start = text.find(key)? + key.len();
    let rest = &text[start..];
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}
