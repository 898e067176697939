//! The observability hooks must be free when unused.
//!
//! `World::emit` is one `Option` branch per kernel event; with no sink
//! installed the dispatch loop must stay on the same allocation-free fast
//! path it had before instrumentation. This test pins that with a counting
//! global allocator: after a warm-up phase (buffers reach steady capacity),
//! a window of thousands of timer dispatches, and one of thousands of
//! send + deliver dispatches, must each perform **zero** allocations.
//! Message traffic is counted in the metrics and moves the trace's
//! horizon, but records nothing: only membership changes grow the trace.
//!
//! The file holds exactly one `#[test]` on purpose: the allocator count is
//! process-global, and a sibling test running concurrently would pollute
//! the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dds_core::process::ProcessId;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_sim::actor::{Actor, Context};
use dds_sim::event::TimerId;
use dds_sim::metrics::Metrics;
use dds_sim::world::{World, WorldBuilder};

/// Passes everything through to the system allocator, counting every
/// allocation and reallocation (deallocations are free to ignore: a
/// steady-state loop that frees must also have allocated).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Re-arms a one-tick timer forever: each dispatch pops one event and
/// schedules one, so every kernel buffer (calendar bucket ring, callback
/// queue, effect buffer) holds a steady size.
struct Metronome;

impl Actor<()> for Metronome {
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.set_timer(TimeDelta::ticks(1));
    }

    fn on_message(&mut self, _: &mut Context<'_, ()>, _: ProcessId, _: ()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _: TimerId) {
        ctx.set_timer(TimeDelta::ticks(1));
    }
}

/// Forwards every message it receives to its ring successor: each
/// dispatch is one delivery and one send, one token per process in flight.
struct Forwarder;

impl Actor<()> for Forwarder {
    fn on_message(&mut self, ctx: &mut Context<'_, ()>, from: ProcessId, (): ()) {
        let next = ctx.neighbors().iter().copied().find(|&n| n != from);
        ctx.send(next.expect("a ring node has two neighbors"), ());
    }
}

/// Warms `world` up for 300 ticks — more than one full revolution of the
/// calendar queue's bucket ring, so every per-tick bucket has grown to
/// hold the ring's worth of events — then runs up to three windows of
/// 1000 ticks, each of which must dispatch 8000 events by `dispatched`,
/// and returns the smallest allocation count of a window.
///
/// The allocator count is process-global, so rare ambient allocations
/// (test-harness threads, lazy runtime initialization) can land inside a
/// window. A real kernel regression allocates in *every* window — the
/// dispatch loop is deterministic — so measuring several windows and
/// requiring one clean window keeps the pin exact while shedding the
/// noise.
fn cleanest_window(world: &mut World<()>, dispatched: fn(&Metrics) -> u64) -> u64 {
    world.run_until(Time::from_ticks(300));
    let mut cleanest = u64::MAX;
    for window in 0..3u64 {
        let dispatched_before = dispatched(world.metrics());
        let start = Time::from_ticks(300 + window * 1000);
        let before = ALLOCS.load(Ordering::SeqCst);
        world.run_until(start + TimeDelta::ticks(1000));
        let after = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            dispatched(world.metrics()) - dispatched_before,
            8 * 1000,
            "window actually dispatched its events"
        );
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    cleanest
}

#[test]
fn dispatch_without_sink_allocates_nothing() {
    let mut timers = WorldBuilder::new(11)
        .initial_graph(generate::ring(8))
        .spawn(|_| Box::new(Metronome))
        .build();
    let cleanest = cleanest_window(&mut timers, |m| m.timer_fires);
    assert_eq!(
        cleanest, 0,
        "sink-less timer dispatch allocated in every one of 3 windows \
         (best window: {cleanest} allocations over 8000 dispatches)"
    );

    // One token per process, each delivery forwarding it one hop on.
    let mut ring = WorldBuilder::new(11)
        .initial_graph(generate::ring(8))
        .spawn(|_| Box::new(Forwarder))
        .build();
    for pid in ring.members().to_vec() {
        ring.inject(Time::from_ticks(1), pid, ());
    }
    let cleanest = cleanest_window(&mut ring, |m| m.delivers);
    assert_eq!(
        cleanest, 0,
        "sink-less send + deliver dispatch allocated in every one of 3 windows \
         (best window: {cleanest} allocations over 8000 dispatches)"
    );
    assert_eq!(
        ring.metrics().sends,
        ring.metrics().delivers,
        "every delivery forwarded one message"
    );
    assert_eq!(
        ring.trace().len(),
        8,
        "the trace holds the joins and none of the traffic"
    );
}
