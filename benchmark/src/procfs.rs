//! `/proc` readers: the benchmark measures the spawned processes (and its
//! own loader thread) from outside, through the kernel's accounting.
//!
//! Parsers take the file text so tests can feed them fixtures.

use std::fs;

/// CPU time of a process or thread, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTicks {
    pub user: u64,
    pub sys: u64,
}

/// Parses `utime`/`stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let user = fields.nth(11)?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, sys })
}

impl CpuTicks {
    /// User plus system time in microseconds.
    pub fn micros(self) -> f64 {
        (self.user + self.sys) as f64 * 1e6 / crate::sys::clock_ticks_per_s()
    }
}

/// The `status` fields the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Status {
    pub vm_hwm_kb: u64,
    pub vm_rss_kb: u64,
    pub ctx_switches: u64,
}

fn field_u64(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Parses `VmHWM`, `VmRSS` and the two context-switch counters of a
/// `/proc/<pid>/status` document.
pub fn parse_status(text: &str) -> Option<Status> {
    Some(Status {
        vm_hwm_kb: field_u64(text, "VmHWM:")?,
        vm_rss_kb: field_u64(text, "VmRSS:")?,
        ctx_switches: field_u64(text, "voluntary_ctxt_switches:")?
            + field_u64(text, "nonvoluntary_ctxt_switches:")?,
    })
}

/// The 1-minute load average of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// One reading of everything the benchmark tracks about a process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu: CpuTicks,
    pub status: Status,
}

impl ProcSample {
    /// What accumulated between `earlier` and `self`; the memory fields
    /// keep their latest reading.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu: CpuTicks {
                user: self.cpu.user.saturating_sub(earlier.cpu.user),
                sys: self.cpu.sys.saturating_sub(earlier.cpu.sys),
            },
            status: Status {
                ctx_switches: self
                    .status
                    .ctx_switches
                    .saturating_sub(earlier.status.ctx_switches),
                ..self.status
            },
        }
    }
}

/// Samples process `pid`, or `None` when it is gone.
pub fn sample_pid(pid: u32) -> Option<ProcSample> {
    let base = format!("/proc/{pid}");
    Some(ProcSample {
        cpu: parse_stat(&fs::read_to_string(format!("{base}/stat")).ok()?)?,
        status: parse_status(&fs::read_to_string(format!("{base}/status")).ok()?)?,
    })
}

/// Samples this process as a whole.
pub fn sample_self() -> ProcSample {
    sample_pid(std::process::id()).unwrap_or_default()
}

/// CPU time this process has used so far, in microseconds.
pub fn self_cpu_us() -> f64 {
    sample_self().cpu.micros()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn self_peak_rss_mb() -> f64 {
    sample_self().status.vm_hwm_kb as f64 / 1024.0
}

/// CPU time of the calling thread alone.
pub fn thread_cpu() -> CpuTicks {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default()
}

/// `(1-minute load average, CPUs available to this process)`.
pub fn load_and_cpus() -> (f64, usize) {
    let load = fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| parse_loadavg(&t))
        .unwrap_or(0.0);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    (load, cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (svc replica) (x)) S 1 4242 4242 0 -1 4194304 212 0 0 0 \
        1234 567 0 0 20 0 1 0 8839 2330624 301 18446744073709551615 1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tsvc_replica\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t    2276 kB\nVmSize:\t    2276 kB\nVmHWM:\t    1204 kB\nVmRSS:\t    1100 kB\n\
        Threads:\t1\nvoluntary_ctxt_switches:\t9001\nnonvoluntary_ctxt_switches:\t99\n";

    #[test]
    fn stat_survives_parentheses_in_the_command_name() {
        assert_eq!(
            parse_stat(STAT),
            Some(CpuTicks {
                user: 1234,
                sys: 567
            })
        );
        assert_eq!(parse_stat("1 (x) S 1"), None);
    }

    #[test]
    fn status_fields() {
        assert_eq!(
            parse_status(STATUS),
            Some(Status {
                vm_hwm_kb: 1204,
                vm_rss_kb: 1100,
                ctx_switches: 9100
            })
        );
        assert_eq!(parse_status("VmHWM: 1 kB\n"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg("0.42 0.40 0.25 2/86 5085\n"), Some(0.42));
    }

    #[test]
    fn live_readers_see_this_process() {
        let s = sample_self();
        assert!(s.status.vm_hwm_kb > 0);
        let (_, cpus) = load_and_cpus();
        assert!(cpus >= 1);
    }

    #[test]
    fn since_subtracts_counters_and_keeps_memory() {
        let a = ProcSample {
            cpu: CpuTicks { user: 10, sys: 5 },
            status: Status {
                vm_hwm_kb: 100,
                vm_rss_kb: 90,
                ctx_switches: 7,
            },
        };
        let b = ProcSample {
            cpu: CpuTicks { user: 25, sys: 6 },
            status: Status {
                vm_hwm_kb: 120,
                vm_rss_kb: 95,
                ctx_switches: 17,
            },
        };
        let d = b.since(&a);
        assert_eq!(d.cpu, CpuTicks { user: 15, sys: 1 });
        assert_eq!(d.status.vm_hwm_kb, 120);
        assert_eq!(d.status.ctx_switches, 10);
    }
}
