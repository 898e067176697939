//! Reliable objects from unreliable ones: register self-implementations.
//!
//! Demonstrates the Guerraoui–Raynal constructions: a reliable atomic
//! register from `t+1` responsive-crash base registers and from `2t+1`
//! nonresponsive-crash base registers, with crashes injected mid-run and
//! the resulting histories checked for linearizability. Also shows the
//! consensus construction and its nonresponsive impossibility.
//!
//! Run with: `cargo run --example reliable_register`

use std::collections::BTreeMap;

use dds_core::spec::consensus::check_consensus;
use dds_core::spec::register::{check_atomic, RegOp};
use dds_registers::base::ObjectState;
use dds_registers::consensus::run_consensus;
use dds_registers::harness::{run_schedule, CrashEvent};
use dds_registers::Construction;

fn main() {
    let scripts = vec![
        vec![RegOp::Write(10), RegOp::Write(20), RegOp::Write(30)],
        vec![RegOp::Read; 4],
        vec![RegOp::Read; 4],
    ];

    // t+1 responsive-crash construction, t = 2, two base crashes injected.
    let out = run_schedule(
        Construction::ResponsiveAll { write_back: true },
        2,
        &scripts,
        &[
            CrashEvent {
                step: 6,
                index: 0,
                state: ObjectState::CrashedResponsive,
            },
            CrashEvent {
                step: 14,
                index: 2,
                state: ObjectState::CrashedResponsive,
            },
        ],
        2026,
    );
    println!("responsive t+1 construction (t=2, 2 crashes):");
    println!("{}", out.history);
    println!("  linearizable: {}", check_atomic(&out.history).unwrap());

    // 2t+1 nonresponsive-crash construction, t = 1, one silent crash.
    let out = run_schedule(
        Construction::MajorityQuorum { write_back: true },
        1,
        &scripts,
        &[CrashEvent {
            step: 9,
            index: 1,
            state: ObjectState::CrashedNonresponsive,
        }],
        2026,
    );
    println!("\nmajority 2t+1 construction (t=1, 1 nonresponsive crash):");
    println!("{}", out.history);
    println!("  linearizable: {}", check_atomic(&out.history).unwrap());

    // Consensus from t+1 responsive-crash consensus objects.
    let (run, blocked, bank) = run_consensus(
        2,
        &[7, 8, 9],
        &BTreeMap::from([(0, ObjectState::CrashedResponsive)]),
        2026,
    );
    println!("\nconsensus from t+1 responsive-crash objects (t=2, 1 crash):");
    println!(
        "  decisions: {:?}",
        run.decisions.values().collect::<Vec<_>>()
    );
    println!(
        "  {} | {} base accesses",
        check_consensus(&run),
        bank.total_accesses()
    );
    assert!(blocked.is_empty());

    // The impossibility: one nonresponsive crash blocks the construction.
    let (run, blocked, _) = run_consensus(
        2,
        &[7, 8, 9],
        &BTreeMap::from([(0, ObjectState::CrashedNonresponsive)]),
        2026,
    );
    println!("\nsame, but the crash is NONRESPONSIVE:");
    println!("  blocked processes: {blocked:?}");
    println!("  {}", check_consensus(&run));
    println!("  (termination fails — consensus cannot be self-implemented");
    println!("   from nonresponsive-crash consensus objects)");
}
