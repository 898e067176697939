//! The libc calls the benchmark needs and `std` does not expose: the
//! clock-tick rate behind `/proc/<pid>/stat`, signalling a whole process
//! group, a SIGINT handler that takes the children down with the
//! benchmark, switching address-space randomisation off, and CPU
//! affinity. `std` already links libc, so these are plain externs.

use std::sync::atomic::{AtomicI32, Ordering};

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn _exit(code: i32) -> !;
    fn personality(persona: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const SC_CLK_TCK: i32 = 2;
const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
/// `personality(2)`: query without changing.
const PERSONA_QUERY: u64 = 0xffff_ffff;
const ADDR_NO_RANDOMIZE: u64 = 0x004_0000;

/// Process group of the spawned cluster, or 0 when none is running. Only
/// ever holds a group this process created; read by the SIGINT handler.
static CHILD_PGID: AtomicI32 = AtomicI32::new(0);

/// Kernel clock ticks per second (the unit of `utime`/`stime`).
pub fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf takes an integer name and touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// SIGKILLs every process of group `pgid` (a group this process created).
pub fn kill_group(pgid: i32) {
    if pgid > 1 {
        // SAFETY: kill takes two integers; a negative pid addresses the
        // group, and `pgid > 1` rules out "every process" (-1) and our
        // own group (0).
        unsafe { kill(-pgid, SIGKILL) };
    }
}

extern "C" fn on_sigint(_: i32) {
    let pgid = CHILD_PGID.load(Ordering::SeqCst);
    if pgid > 1 {
        // SAFETY: kill and _exit are async-signal-safe; see `kill_group`
        // for the argument range.
        unsafe { kill(-pgid, SIGKILL) };
    }
    // SAFETY: _exit never returns and runs no destructors, which is what
    // a signal handler needs.
    unsafe { _exit(130) }
}

/// Registers `pgid` as the group to kill on SIGINT (0 clears it) and
/// installs the handler on first use.
pub fn guard_group(pgid: i32) {
    CHILD_PGID.store(pgid, Ordering::SeqCst);
    if pgid > 1 {
        // SAFETY: `on_sigint` is an `extern "C" fn(i32)`, the handler
        // type signal expects, and only calls async-signal-safe functions.
        unsafe { signal(SIGINT, on_sigint as extern "C" fn(i32) as usize) };
    }
}

/// Switches address-space layout randomisation off for this process's
/// future `exec`s (children inherit it). Returns `true` when it was on
/// and is now off, i.e. when re-executing would change the layout.
///
/// Why: the simulator workloads are cache-bound, and with ASLR the same
/// binary on the same inputs runs in one of two regimes 13 % apart
/// depending on where the heap landed; a fixed layout makes two runs of
/// one build comparable (layout bias between builds remains, as ever).
pub fn disable_aslr() -> bool {
    // SAFETY: personality takes one integer and changes only a per-process
    // kernel flag; the query value leaves it untouched.
    let current = unsafe { personality(PERSONA_QUERY) };
    if current < 0 || current as u64 & ADDR_NO_RANDOMIZE != 0 {
        return false;
    }
    // SAFETY: as above; the flag takes effect at the next exec.
    unsafe { personality(current as u64 | ADDR_NO_RANDOMIZE) >= 0 }
}

/// Words of a CPU mask: room for 1024 CPUs, what the kernel's own
/// `cpu_set_t` holds.
const MASK_WORDS: usize = 16;

/// The CPUs thread or process `pid` (0 = the calling thread) may run on,
/// ascending; empty when unknown.
pub fn allowed_cpus(pid: u32) -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let rc =
        unsafe { sched_getaffinity(pid as i32, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts thread or process `pid` (0 = the calling thread) to `cpus`;
/// `false` when the kernel refuses.
pub fn pin(pid: u32, cpus: &[usize]) -> bool {
    if cpus.is_empty() {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; the call
    // only reads it.
    unsafe { sched_setaffinity(pid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
