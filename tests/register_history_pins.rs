//! Every history the register scheduler produces on a fixed grid, pinned
//! byte for byte.
//!
//! The reliable-register constructions (`run_schedule`) and the five
//! consistency-ladder constructions run through one seeded scheduler. The
//! other tests judge its histories (atomic, regular, stuck or not); this
//! one folds the histories themselves into one `StableHasher` digest per
//! family — and, for `run_schedule`, the step count and the stuck clients
//! too — so a change to the scheduler's draw order, its step counting or a
//! construction's step function fails here even when every verdict holds.

use dds::core::spec::register::{RegOp, RegResp, RegisterHistory};
use dds::registers::base::ObjectState;
use dds::registers::harness::{run_schedule, run_scripts, CrashEvent, RunOutput};
use dds::registers::transformations::{
    AtomicFromRegular, MultivaluedFromBinaryRegular, MwmrFromAtomic, RegularFromSafeBinary,
    SwmrFromSw1r,
};
use dds::registers::Construction;
use dds::sim::snapshot::StableHasher;

const SEEDS: std::ops::Range<u64> = 0..50;

fn absorb(h: &mut StableHasher, history: &RegisterHistory) {
    h.write_usize(history.len());
    for r in history.records() {
        h.write_u64(r.process.as_raw());
        match r.op {
            RegOp::Write(v) => {
                h.write_u8(0);
                h.write_u64(v);
            }
            RegOp::Read => h.write_u8(1),
        }
        h.write_u64(r.invoked.as_ticks());
        match (r.responded, r.response) {
            (Some(at), Some(resp)) => {
                h.write_u8(1);
                h.write_u64(at.as_ticks());
                match resp {
                    RegResp::Ack => h.write_u8(0),
                    RegResp::Value(None) => h.write_u8(1),
                    RegResp::Value(Some(v)) => {
                        h.write_u8(2);
                        h.write_u64(v);
                    }
                }
            }
            _ => h.write_u8(0),
        }
    }
}

fn absorb_run(h: &mut StableHasher, out: &RunOutput) {
    absorb(h, &out.history);
    h.write_u64(out.steps);
    h.write_usize(out.stuck_clients.len());
    for p in &out.stuck_clients {
        h.write_u64(p.as_raw());
    }
}

const CONSTRUCTIONS: [Construction; 4] = [
    Construction::ResponsiveAll { write_back: true },
    Construction::ResponsiveAll { write_back: false },
    Construction::MajorityQuorum { write_back: true },
    Construction::MajorityQuorum { write_back: false },
];

/// E6's workload (`crates/bench/src/lib.rs`), at E6's tolerances.
#[test]
fn e6_schedules_are_pinned() {
    let scripts = vec![
        vec![
            RegOp::Write(1),
            RegOp::Write(2),
            RegOp::Write(3),
            RegOp::Write(4),
        ],
        vec![RegOp::Read; 4],
        vec![RegOp::Read; 4],
    ];
    let mut h = StableHasher::new();
    for construction in CONSTRUCTIONS {
        for t in [1, 2, 4, 8] {
            for seed in SEEDS {
                absorb_run(&mut h, &run_schedule(construction, t, &scripts, &[], seed));
            }
        }
    }
    assert_eq!(h.finish(), 8_114_850_645_817_277_619, "E6 schedules");
}

/// The workload and crash sets of `tests/reliable_objects.rs` (the first
/// `k` base registers crash at steps `1..=k`), past the tolerance too, in
/// both crash styles against both constructions: responsive and stuck runs.
#[test]
fn crash_schedules_are_pinned() {
    let scripts = vec![
        vec![RegOp::Write(1), RegOp::Write(2)],
        vec![RegOp::Read; 3],
        vec![RegOp::Read; 3],
    ];
    let mut h = StableHasher::new();
    for construction in CONSTRUCTIONS {
        for state in [
            ObjectState::CrashedResponsive,
            ObjectState::CrashedNonresponsive,
        ] {
            for t in 1..=4usize {
                for crashed in 0..=t + 1 {
                    let crashes: Vec<CrashEvent> = (0..crashed)
                        .map(|index| CrashEvent {
                            step: 1 + index as u64,
                            index,
                            state,
                        })
                        .collect();
                    for seed in SEEDS {
                        let out = run_schedule(construction, t, &scripts, &crashes, seed);
                        absorb_run(&mut h, &out);
                    }
                }
            }
        }
    }
    assert_eq!(h.finish(), 18_113_554_585_460_813_975, "crash schedules");
}

/// The five ladder constructions (and their ablations) on the workloads
/// `crates/registers/tests/lin_units.rs` gives them; the multivalued rung,
/// which it does not drive, on the one `transformations.rs` gives it.
#[test]
fn ladder_histories_are_pinned() {
    let w = RegOp::Write;
    let r = |n| vec![RegOp::Read; n];
    let digest = |run: &dyn Fn(u64) -> RegisterHistory| {
        let mut h = StableHasher::new();
        for seed in SEEDS {
            absorb(&mut h, &run(seed));
        }
        h.finish()
    };
    // The second workload rewrites the value it holds: the writes the
    // ablation stops skipping.
    let safe = |skip| {
        let lin_units = digest(&|seed| {
            let scripts = [vec![w(1), w(0), w(1)], r(3), r(3)];
            run_scripts(&mut RegularFromSafeBinary::new(2, skip), &scripts, seed)
        });
        let rewrites = digest(&|seed| {
            let scripts = [vec![w(1), w(1), w(1)], r(6)];
            run_scripts(&mut RegularFromSafeBinary::new(1, skip), &scripts, seed)
        });
        lin_units ^ rewrites.rotate_left(1)
    };
    let multivalued = digest(&|seed| {
        let scripts = [vec![w(3), w(1), w(4)], r(5)];
        run_scripts(&mut MultivaluedFromBinaryRegular::new(5, 1), &scripts, seed)
    });
    let atomic = |remember| {
        digest(&|seed| {
            let scripts = [vec![w(3), w(5)], r(4)];
            run_scripts(&mut AtomicFromRegular::new(8, remember), &scripts, seed)
        })
    };
    let swmr = |report| {
        digest(&|seed| {
            let scripts = [vec![w(3), w(5)], r(3), r(3)];
            run_scripts(&mut SwmrFromSw1r::new(2, 8, report), &scripts, seed)
        })
    };
    let mwmr = digest(&|seed| {
        let scripts = [vec![w(3), w(5)], vec![w(4), RegOp::Read], r(3)];
        run_scripts(&mut MwmrFromAtomic::new(2, 3, 8), &scripts, seed)
    });
    let got = [
        ("regular-from-safe", safe(true)),
        ("regular-from-safe/no-skip", safe(false)),
        ("multivalued-from-binary", multivalued),
        ("atomic-from-regular", atomic(true)),
        ("atomic-from-regular/forgetful", atomic(false)),
        ("swmr-from-sw1r", swmr(true)),
        ("swmr-from-sw1r/no-report", swmr(false)),
        ("mwmr-from-atomic", mwmr),
    ];
    let want = [
        ("regular-from-safe", 14_052_366_412_641_568_742),
        ("regular-from-safe/no-skip", 10_154_573_381_932_219_398),
        ("multivalued-from-binary", 1_587_776_688_960_049_238),
        ("atomic-from-regular", 2_476_949_052_090_412_377),
        ("atomic-from-regular/forgetful", 1_787_649_419_449_695_597),
        ("swmr-from-sw1r", 2_520_819_928_067_540_699),
        ("swmr-from-sw1r/no-report", 15_683_535_575_695_552_940),
        ("mwmr-from-atomic", 11_288_480_493_322_471_784),
    ];
    assert_eq!(got, want, "ladder histories");
}
