//! The spawned service: one `svc_seed` and three `svc_replica` processes
//! over Unix-domain sockets, with the hygiene a benchmark needs — a
//! per-run directory for sockets and logs, every child in one process
//! group that dies with the benchmark (exit, panic, SIGINT), and a hard
//! failure when a child exits early or the directory cannot be removed.

use std::fs::{self, File};
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::procfs::{sample_pid, ProcSample};
use crate::sys;

/// Replicas of the initial configuration (the minimum a majority quorum
/// protocol tolerating one failure allows).
pub const REPLICAS: u64 = 3;

/// How long a child may take to print its `ready` line.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// How often replicas print a `status` line, in ms: the resolution of
/// the reconfiguration timings read from their logs.
const STATUS_EVERY_MS: u64 = 50;

/// Root of everything the benchmark writes at run time, relative to the
/// working directory: Unix socket paths are limited to ~100 bytes, and a
/// relative path stays short wherever the checkout lives.
pub const RUN_ROOT: &str = ".bench_run";

/// Splits the CPUs the benchmark may use into `(service, loader)`: with
/// two or more the load generator gets the highest one to itself and the
/// service the rest, so the two never compete and the scheduler cannot
/// settle a run into a different placement than the last one (unpinned,
/// one run in five of the paced workload costs 60 % more CPU per
/// operation). Both empty on a single CPU: nothing is pinned.
///
/// Takes the mask as it was before anything was pinned: once the loader
/// thread is on its CPU, its own mask no longer shows the others.
pub fn split_cpus(mut allowed: Vec<usize>) -> (Vec<usize>, Vec<usize>) {
    match allowed.pop() {
        Some(last) if !allowed.is_empty() => (allowed, vec![last]),
        _ => (Vec::new(), Vec::new()),
    }
}

/// Restricts process `os_pid` to `cpus` (nothing to do when empty) and
/// reads the mask back: a child left on the loader's CPU would silently
/// turn the workload into five processes contending for one core.
fn pin_checked(os_pid: u32, cpus: &[usize]) -> Result<(), String> {
    if cpus.is_empty() {
        return Ok(());
    }
    sys::pin(os_pid, cpus);
    let got = sys::allowed_cpus(os_pid);
    if got != cpus {
        return Err(format!(
            "process {os_pid} runs on CPUs {got:?}, not on the service CPUs {cpus:?}"
        ));
    }
    Ok(())
}

/// One spawned process.
pub struct Proc {
    /// Protocol identity (0 for the seed).
    pub pid: u64,
    child: Child,
    log: PathBuf,
}

impl Proc {
    pub fn os_pid(&self) -> u32 {
        self.child.id()
    }

    /// `/proc` reading of the process, zeros once it is gone.
    pub fn sample(&self) -> ProcSample {
        sample_pid(self.os_pid()).unwrap_or_default()
    }

    /// Everything the process has printed so far.
    pub fn log_text(&self) -> String {
        fs::read_to_string(&self.log).unwrap_or_default()
    }
}

/// A running seed + replicas. Dropping it kills and reaps every child.
pub struct Cluster {
    dir: PathBuf,
    bin_dir: PathBuf,
    pgid: i32,
    /// CPUs the service runs on (see [`split_cpus`]); empty = unpinned.
    service_cpus: Vec<usize>,
    pub seed: Proc,
    pub replicas: Vec<Proc>,
    next_pid: u64,
}

impl Cluster {
    /// Spawns the seed and [`REPLICAS`] replicas from the binaries in
    /// `bin_dir`, each restricted to `service_cpus`, and waits until each
    /// has printed `ready`.
    pub fn start(bin_dir: &Path, service_cpus: &[usize]) -> Result<Cluster, String> {
        // One cluster at a time per process, so the process id names it.
        let dir = PathBuf::from(RUN_ROOT).join(std::process::id().to_string());
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let seed_addr = format!("uds:{}", dir.join("seed.sock").display());
        let seed = spawn(
            bin_dir,
            &dir,
            "svc_seed",
            "seed",
            0,
            0,
            &["--listen", &seed_addr],
        )?;
        let pgid = seed.os_pid() as i32;
        sys::guard_group(pgid);
        let mut cluster = Cluster {
            dir,
            bin_dir: bin_dir.to_path_buf(),
            pgid,
            service_cpus: service_cpus.to_vec(),
            seed,
            replicas: Vec::new(),
            next_pid: 1,
        };
        pin_checked(cluster.seed.os_pid(), service_cpus)?;
        wait_ready(&mut cluster.seed)?;
        for _ in 0..REPLICAS {
            cluster.spawn_replica()?;
        }
        for r in &mut cluster.replicas {
            wait_ready(r)?;
        }
        Ok(cluster)
    }

    /// The seed's address, for client hosts.
    pub fn seed_addr(&self) -> String {
        format!("uds:{}", self.dir.join("seed.sock").display())
    }

    /// The epoch-1 replica identities.
    pub fn initial() -> Vec<u64> {
        (1..=REPLICAS).collect()
    }

    /// Starts a replica under the next never-used identity (infinite
    /// arrival: identities are not reused) without waiting for `ready`.
    /// Returns its identity.
    pub fn spawn_replica(&mut self) -> Result<u64, String> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let listen = format!("uds:{}", self.dir.join(format!("r{pid}.sock")).display());
        let initial: Vec<String> = Self::initial().iter().map(u64::to_string).collect();
        let proc = spawn(
            &self.bin_dir,
            &self.dir,
            "svc_replica",
            &format!("r{pid}"),
            pid,
            self.pgid,
            &[
                "--pid",
                &pid.to_string(),
                "--listen",
                &listen,
                "--seed",
                &self.seed_addr(),
                "--initial",
                &initial.join(","),
                "--status-every-ms",
                &STATUS_EVERY_MS.to_string(),
            ],
        )?;
        // Pushed first, so a failed pin still leaves the child to `reap`.
        let os_pid = proc.os_pid();
        self.replicas.push(proc);
        pin_checked(os_pid, &self.service_cpus)?;
        Ok(pid)
    }

    /// SIGKILLs the replica with identity `pid`, reaps it and returns its
    /// last `/proc` reading (taken just before the kill).
    pub fn kill_replica(&mut self, pid: u64) -> Result<ProcSample, String> {
        let i = self
            .replicas
            .iter()
            .position(|r| r.pid == pid)
            .ok_or_else(|| format!("no replica {pid}"))?;
        let mut victim = self.replicas.remove(i);
        let last = victim.sample();
        victim
            .child
            .kill()
            .map_err(|e| format!("kill r{pid}: {e}"))?;
        let _ = victim.child.wait();
        Ok(last)
    }

    /// Fails if any child has exited on its own.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for p in std::iter::once(&mut self.seed).chain(self.replicas.iter_mut()) {
            if let Ok(Some(status)) = p.child.try_wait() {
                return Err(format!(
                    "child {} (pid {}) exited early: {status}; log: {}",
                    p.log.display(),
                    p.pid,
                    p.log_text().trim_end()
                ));
            }
        }
        Ok(())
    }

    /// Stops the cluster: fails if a child had exited early or the run
    /// directory (sockets included) cannot be removed.
    pub fn stop(mut self) -> Result<(), String> {
        let alive = self.check_alive();
        self.reap();
        let left = self.dir.exists();
        alive?;
        if left {
            return Err(format!("{} was left behind", self.dir.display()));
        }
        Ok(())
    }

    fn reap(&mut self) {
        sys::kill_group(self.pgid);
        for p in std::iter::once(&mut self.seed).chain(self.replicas.iter_mut()) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        sys::guard_group(0);
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.reap();
    }
}

fn spawn(
    bin_dir: &Path,
    dir: &Path,
    bin: &str,
    name: &str,
    pid: u64,
    pgid: i32,
    args: &[&str],
) -> Result<Proc, String> {
    let log = dir.join(format!("{name}.log"));
    let out = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("{}: {e}", log.display()))?;
    let child = Command::new(bin_dir.join(bin))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        // 0 makes the child the leader of a new group; the rest join it.
        .process_group(pgid)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin_dir.join(bin).display()))?;
    Ok(Proc { pid, child, log })
}

fn wait_ready(p: &mut Proc) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed() < READY_TIMEOUT {
        if p.log_text().contains("\"ready\"") {
            return Ok(());
        }
        if let Ok(Some(status)) = p.child.try_wait() {
            return Err(format!(
                "{} exited before ready: {status}; log: {}",
                p.log.display(),
                p.log_text().trim_end()
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(format!("{} never became ready", p.log.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loader_gets_the_last_cpu_and_the_service_the_rest() {
        assert_eq!(split_cpus(vec![0, 1]), (vec![0], vec![1]));
        assert_eq!(split_cpus(vec![2, 5, 7]), (vec![2, 5], vec![7]));
        // One CPU (or an unknown mask) cannot be split.
        assert_eq!(split_cpus(vec![3]), (vec![], vec![]));
        assert_eq!(split_cpus(vec![]), (vec![], vec![]));
    }

    /// The split is taken before pinning: the service CPUs of a pinned
    /// child are disjoint from the loader's, and read back as set.
    #[test]
    fn a_pinned_child_does_not_share_the_loaders_cpu() {
        let (service, loader) = split_cpus(sys::allowed_cpus(0));
        if service.is_empty() {
            return; // single CPU: nothing to pin
        }
        let mut child = Command::new("sleep").arg("5").spawn().expect("spawn sleep");
        let pinned = pin_checked(child.id(), &service);
        let mask = sys::allowed_cpus(child.id());
        let _ = child.kill();
        let _ = child.wait();
        pinned.expect("the kernel accepts the service mask");
        assert_eq!(mask, service);
        assert!(loader.iter().all(|cpu| !mask.contains(cpu)));
    }
}
