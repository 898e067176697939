//! `event_queue` — raw schedule/pop throughput of the calendar queue
//! across delay horizons.
//!
//! The workload is the kernel's steady state: keep a fixed population of
//! pending events, pop the earliest, schedule a replacement `horizon`
//! ticks ahead. Small horizons stay inside the 128-tick bucket ring
//! (O(1) per op for the calendar); large ones force every event through
//! the overflow heap, which is the calendar's worst case: O(log n) like
//! any binary heap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_core::process::ProcessId;
use dds_core::time::{Time, TimeDelta};
use dds_sim::event::{Event, EventQueue};
use std::hint::black_box;

const POPULATION: u64 = 256;
const OPS: u64 = 4096;

/// Runs the hold-steady workload on one queue; returns the final clock so
/// the optimiser cannot discard the pops.
fn churn_queue(mut queue: EventQueue<u64>, horizon: u64) -> Time {
    let pid = ProcessId::from_raw(0);
    let mut now = Time::ZERO;
    // Spread the initial population over the horizon, like in-flight
    // messages with staggered deadlines.
    for i in 0..POPULATION {
        queue.schedule(
            Time::from_ticks(1 + i * horizon / POPULATION),
            Event::Deliver { from: pid, to: pid, sent: now, msg: i, cause: 0 },
        );
    }
    for i in 0..OPS {
        let (at, event) = queue.pop().expect("population never drains");
        now = at;
        black_box(event);
        queue.schedule(
            now + TimeDelta::ticks(1 + (i * 7) % horizon),
            Event::Deliver { from: pid, to: pid, sent: now, msg: i, cause: 0 },
        );
    }
    now
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    // 16: everything in-ring. 96: in-ring but spanning most buckets.
    // 1024: every schedule overflows and migrates back as the cursor
    // advances.
    for horizon in [16u64, 96, 1024] {
        group.bench_with_input(
            BenchmarkId::new("calendar", horizon),
            &horizon,
            |b, &horizon| b.iter(|| churn_queue(EventQueue::calendar(), black_box(horizon))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
