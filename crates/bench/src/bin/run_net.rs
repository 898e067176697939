//! `run_net` — orchestrates a networked dds-store run.
//!
//! Spawns real processes from the build directory — one `svc_seed`,
//! three initial `svc_replica`s, one multi-threaded `svc_load` —
//! over Unix-domain sockets (default) or TCP loopback, injects churn by
//! SIGKILLing replicas mid-run and starting replacements under *fresh*
//! process ids (the paper's infinite-arrival model: identities are never
//! reused), and collects every agent's one-line JSON summary into a
//! reproducible `summary.json`.
//!
//! ## Gates and cross-checks
//!
//! - `--check-atomicity` has the loader log every operation and checks
//!   the whole log in one pass of [`check_atomic_unique`]: the loader
//!   writes distinct values, so every read names its write and the
//!   check is O(n log n) however long the run (see [`check_ops`]).
//!   `--check-file` re-checks a recorded log the same way.
//! - The same churn/loss regime is pushed through the simulator
//!   ([`StoreScenario`]) and the predicted abort/atomicity behavior is
//!   recorded next to the measured one: below the sustainable-churn
//!   bound both must be abort-free and linearizable.
//!
//! Throughput and latency are reported in `summary.json` and on stdout,
//! not gated here: the timed view of the service is the benchmark's
//! `net-steady` and `net-paced-kill` workloads (`BENCHMARK.json`).

use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{
    check_atomic, check_atomic_unique, Atomicity, RegOp, RegResp, RegisterHistory,
};
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_obs::Histogram;
use dds_store::harness::StoreScenario;

fn usage() -> ! {
    eprintln!(
        "usage: run_net [--dir DIR] [--tcp] [--threads N] [--clients N] \\\n\
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

/// Initial replicas: the configuration size every replica is built
/// with (`net_params`' `replica_count`), so the simulator cross-check
/// models the same one.
const REPLICAS: u64 = 3;

struct Cfg {
    dir: PathBuf,
    tcp: bool,
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
            // Offline mode: re-run the atomicity check over an op log a
            // previous run recorded (no processes spawned).
            "--check-file" => {
                let path = PathBuf::from(args.next().unwrap_or_else(|| usage()));
                let (linearizable, verdict) = check_ops(&path);
                println!("{verdict}");
                std::process::exit(if linearizable { 0 } else { 4 });
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

    let initial: Vec<String> = (1..=REPLICAS).map(|i| i.to_string()).collect();
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
    let mut next_pid = REPLICAS + 1;
    let mut next_port = 39001u16;
    for i in 1..=REPLICAS {
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

    // --- whole-history atomicity check ---
    let atomicity = cfg.check_atomicity.then(|| check_ops(&ops_log));

    // --- simulator cross-check: same churn regime, scaled to ticks ---
    let sim = sim_crosscheck(cfg);

    // --- summary.json ---
    let mut summary = String::from("{\n");
    summary.push_str(&format!(
        "  \"config\": {{\"transport\": \"{}\", \"replicas\": {}, \"threads\": {}, \
         \"clients\": {}, \"ops_per_client\": {}, \"write_pct\": {}, \"kills\": {}}},\n",
        if cfg.tcp { "tcp" } else { "uds" },
        REPLICAS,
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
    if let Some((_, verdict)) = &atomicity {
        summary.push_str(&format!("  \"atomicity\": {verdict},\n"));
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
    if let Some((false, verdict)) = &atomicity {
        eprintln!("run_net: history NOT linearizable: {verdict}");
        code = 4;
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
// Whole-history atomicity check over the loader's operation log.
// ---------------------------------------------------------------------

/// Parses the loader's `--log-ops` JSONL into a register history. An
/// aborted operation stays pending: an aborted write may still land, an
/// aborted read returned nothing.
fn parse_ops(path: &Path) -> RegisterHistory {
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    let mut history = RegisterHistory::new();
    for (n, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        let Some(pid) = extract_u64(&line, "\"pid\": ") else {
            continue;
        };
        let invoked_us = extract_u64(&line, "\"invoked_us\": ").unwrap_or(0);
        let responded_us = extract_u64(&line, "\"responded_us\": ").unwrap_or(invoked_us);
        if responded_us < invoked_us {
            fail(&format!(
                "{}:{}: responded before invoked",
                path.display(),
                n + 1
            ));
        }
        let aborted = line.contains("\"aborted\": true");
        let response = if aborted {
            None
        } else if line.contains("\"response\": \"ack\"") {
            Some(RegResp::Ack)
        } else if line.contains("\"response\": \"bot\"") {
            Some(RegResp::Value(None))
        } else {
            extract_u64(&line, "\"response\": ").map(|v| RegResp::Value(Some(v)))
        };
        history.push(OpRecord {
            process: ProcessId::from_raw(pid),
            op: if line.contains("\"op\": \"w\"") {
                RegOp::Write(extract_u64(&line, "\"value\": ").unwrap_or(0))
            } else {
                RegOp::Read
            },
            invoked: Time::from_ticks(invoked_us),
            responded: (!aborted).then_some(Time::from_ticks(responded_us)),
            response,
        });
    }
    history
}

/// Checks a recorded op log whole with [`check_atomic_unique`]. Returns
/// the verdict and its JSON form: linearizable or not, the records
/// checked and, on a violation, the record the check names (its pid,
/// invocation instant and the value it wrote or read; `null` is ⊥). Two
/// writes of one value make the log uncheckable, a hard failure.
fn check_ops(path: &Path) -> (bool, String) {
    let history = parse_ops(path);
    let verdict =
        check_atomic_unique(&history).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    let mut json = format!(
        "{{\"linearizable\": {}, \"records\": {}",
        verdict.is_linearizable(),
        history.len()
    );
    if let Atomicity::NotLinearizable { record } = verdict {
        let r = &history.records()[record];
        let (op, value) = match (r.op, r.response) {
            (RegOp::Write(v), _) => ("w", Some(v)),
            (RegOp::Read, Some(RegResp::Value(v))) => ("r", v),
            (RegOp::Read, _) => ("r", None),
        };
        json.push_str(&format!(
            ", \"violation\": {{\"pid\": {}, \"op\": \"{op}\", \"invoked_us\": {}, \"value\": {}}}",
            r.process.as_raw(),
            r.invoked.as_ticks(),
            value.map_or_else(|| "null".to_string(), |v| v.to_string())
        ));
    }
    json.push('}');
    (verdict.is_linearizable(), json)
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
    let turnover = cfg.kills as f64 / REPLICAS as f64;
    let rate = (turnover * 100.0 / deadline_ticks as f64).clamp(0.0, 1.0);
    let churn = ChurnSpec::rate(rate, window).unwrap_or_else(|_| ChurnSpec::none());
    let mut s = StoreScenario::new(generate::complete((REPLICAS as usize + 8).max(12)), 0xD5_D5);
    s.replica_count = REPLICAS as usize;
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
