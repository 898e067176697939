//! Property pins for SCD-broadcast: the four obligations asserted
//! *directly* over generated op interleavings, not only via the
//! [`dds_protocols::scd::check_world`] oracle.
//!
//! Scripts of timed invocations (tags, counter increments, register
//! writes, snapshot updates, and the three reads) land on random
//! processes of a static world. For every script and seed:
//!
//! - **integrity** — no process delivers the same message twice;
//! - **validity** — every delivered message was broadcast by its origin;
//! - **self-delivery** — every message a process broadcast shows up in
//!   one of its own delivered sets;
//! - **MS-ordering (no crossed set orders)** — for any two processes and
//!   any two messages both delivered at both, one strictly before the
//!   other at one process implies the reverse strict order holds nowhere;
//! - the derived objects agree with the delivered history: counters
//!   converge to the sum of completed increments, snapshots hold the
//!   last per-origin update, and register histories pass the sequential
//!   consistency checker.

use std::collections::BTreeMap;

use dds_core::process::ProcessId;
use dds_core::spec::register::check_sequentially_consistent;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_protocols::scd::{
    check_world, register_history_from_world, ScdActor, ScdCall, ScdConfig, ScdScenario,
};
use proptest::collection::vec;
use proptest::prelude::*;

const N: u64 = 5;

/// Decodes one generated `(tick, pid, kind, value)` tuple into a call.
fn decode(kind: u8, value: u64) -> ScdCall {
    match kind {
        0 => ScdCall::Tag(value),
        1 => ScdCall::CtrAdd(value as i64),
        2 => ScdCall::RegWrite(value),
        3 => ScdCall::SnapSet(value),
        4 => ScdCall::CtrRead,
        5 => ScdCall::SnapRead,
        _ => ScdCall::RegRead,
    }
}

/// Builds, runs and returns the scenario for one generated script. The
/// deadline leaves room for the last op's window plus a full flush
/// cadence, so nothing is legitimately still pending at the horizon.
///
/// Register operations at the same process are pushed apart by the op
/// window: the register-history checkers require per-process operations
/// to be non-overlapping (a second call while a write is still in flight
/// would make the history malformed, not interesting). Everything else
/// keeps its generated tick, so tags, counters and snapshots still
/// interleave freely.
fn run_script(seed: u64, script: &[(u64, u64, u8, u64)]) -> ScdScenario {
    let config = ScdConfig::new(4, TimeDelta::TICK, TimeDelta::ticks(4));
    let mut s = ScdScenario::new(generate::complete(N as usize), config);
    s.seed = seed;
    let mut last_reg: BTreeMap<u64, u64> = BTreeMap::new();
    let mut horizon = 30;
    for &(tick, pid, kind, value) in script {
        let pid = pid % N;
        let call = decode(kind, value);
        let tick = if matches!(call, ScdCall::RegWrite(_) | ScdCall::RegRead) {
            let at = match last_reg.get(&pid) {
                Some(&prev) => tick.max(prev + 20),
                None => tick,
            };
            last_reg.insert(pid, at);
            at
        } else {
            tick
        };
        horizon = horizon.max(tick);
        s = s.op(tick, pid, call);
    }
    s.deadline = Time::from_ticks(horizon + 40);
    s
}

/// A generated script: 1–12 timed invocations in the first 30 ticks.
fn scripts() -> impl Strategy<Value = Vec<(u64, u64, u8, u64)>> {
    vec((1u64..30, 0u64..N, 0u8..7, 1u64..40), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Integrity, validity and self-delivery, checked message by message
    /// against each actor's own broadcast and delivery logs.
    #[test]
    fn delivery_obligations_hold_directly(
        seed in any::<u64>(),
        script in scripts(),
    ) {
        let s = run_script(seed, &script);
        let world = {
            let mut w = s.build();
            w.run_until(s.deadline);
            w
        };
        for &pid in world.members() {
            let a = world.actor::<ScdActor>(pid).expect("static world");
            // Integrity: no duplicate ids inside one process's history.
            let mut seen = std::collections::BTreeSet::new();
            for set in a.delivered() {
                for m in set {
                    prop_assert!(seen.insert(m.id()), "{pid} delivered {:?} twice", m.id());
                    // Validity: the origin really broadcast that sequence
                    // number (broadcast seqs are assigned densely from 0).
                    let origin = world.actor::<ScdActor>(m.origin).expect("static world");
                    let (orig_pid, seq) = m.id();
                    prop_assert!(
                        (seq as usize) < origin.broadcasts().len(),
                        "{pid} delivered unbroadcast message ({orig_pid}, {seq})"
                    );
                }
            }
            // Self-delivery: everything this process broadcast came back
            // to it in some set.
            for (seq, _) in a.broadcasts().iter().enumerate() {
                prop_assert!(
                    seen.contains(&(pid, seq as u64)),
                    "{pid} never self-delivered its broadcast #{seq}"
                );
            }
            // Nothing may still be pending: the deadline covers every
            // op window, so a leftover invocation is a hang.
            prop_assert_eq!(a.pending_len(), 0, "{} left an op pending", pid);
        }
        // And the packaged oracle agrees.
        prop_assert!(check_world(&world).is_ok());
    }

    /// MS-ordering asserted pairwise: strict set orders never cross.
    #[test]
    fn set_orders_never_cross(
        seed in any::<u64>(),
        script in scripts(),
    ) {
        let s = run_script(seed, &script);
        let world = {
            let mut w = s.build();
            w.run_until(s.deadline);
            w
        };
        // Map id -> delivered-set index, per process.
        let mut orders: Vec<BTreeMap<(ProcessId, u64), usize>> = Vec::new();
        for &pid in world.members() {
            let a = world.actor::<ScdActor>(pid).expect("static world");
            let mut order = BTreeMap::new();
            for (idx, set) in a.delivered().iter().enumerate() {
                for m in set {
                    order.insert(m.id(), idx);
                }
            }
            orders.push(order);
        }
        for (i, p) in orders.iter().enumerate() {
            for q in &orders[i + 1..] {
                for (a, &pa) in p {
                    if !q.contains_key(a) {
                        continue;
                    }
                    for (b, &pb) in p {
                        let (Some(&qa), Some(&qb)) = (q.get(a), q.get(b)) else {
                            continue;
                        };
                        // a strictly before b at p, and b strictly before
                        // a at q: the crossed orders SCD forbids.
                        prop_assert!(
                            !(pa < pb && qb < qa),
                            "crossed set orders on {a:?} / {b:?}"
                        );
                    }
                }
            }
        }
    }

    /// The derived objects agree with the delivered history: counter,
    /// snapshot and the sequentially consistent register.
    #[test]
    fn derived_objects_track_the_history(
        seed in any::<u64>(),
        script in scripts(),
    ) {
        let s = run_script(seed, &script);
        let world = {
            let mut w = s.build();
            w.run_until(s.deadline);
            w
        };
        let report = s.report(&world);
        prop_assert_eq!(report.unresolved, 0);
        prop_assert!(report.violation.is_none());
        // Static world, generous deadline: every process converges on the
        // counter implied by the completed increments.
        prop_assert!(report.converged, "static run failed to converge");
        // Snapshots: every process ends with the same component map, and
        // each component was genuinely written by its origin.
        let first = world
            .actor::<ScdActor>(*world.members().first().expect("nonempty"))
            .expect("static world")
            .snapshot()
            .clone();
        for &pid in world.members() {
            let a = world.actor::<ScdActor>(pid).expect("static world");
            prop_assert_eq!(a.snapshot(), &first, "snapshot divergence at {}", pid);
        }
        // Register: the collected histories satisfy sequential
        // consistency (program order + total write order).
        let history =
            register_history_from_world(&world, world.members().iter().copied());
        prop_assert!(
            check_sequentially_consistent(&history)
                .is_ok_and(|v| v.is_linearizable()),
            "register history not sequentially consistent"
        );
    }
}
