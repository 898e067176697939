//! An actor panic must flush the flight recorder before the unwind
//! destroys the world (and the sink with it).
//!
//! `World::run_callback` catches the unwind, hands the reason to the
//! installed sink's `fail` hook, and re-raises. With a
//! [`FlightRecorder`] configured with a dump path, the events leading up
//! to the panic land on disk even though the process is going down.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dds_core::process::ProcessId;
use dds_core::time::Time;
use dds_net::generate;
use dds_obs::FlightRecorder;
use dds_sim::actor::{Actor, Context};
use dds_sim::world::WorldBuilder;

/// Forwards the countdown around the ring, then blows up at zero.
struct Bomb;

impl Actor<u32> for Bomb {
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
        if msg == 0 {
            panic!("boom");
        }
        let next = ProcessId::from_raw((ctx.pid().as_raw() + 1) % 4);
        ctx.send(next, msg - 1);
    }
}

#[test]
fn panic_inside_callback_writes_the_dump_file() {
    let path = std::env::temp_dir().join(format!("dds-panic-dump-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut world = WorldBuilder::new(13)
        .initial_graph(generate::ring(4))
        .spawn(|_| Box::new(Bomb))
        .sink(FlightRecorder::new(64).with_dump_path(&path))
        .build();
    world.inject(Time::from_ticks(1), ProcessId::from_raw(0), 6);

    // Silence the default panic hook for the expected unwind.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = catch_unwind(AssertUnwindSafe(|| world.run_to_quiescence()));
    std::panic::set_hook(hook);
    assert!(caught.is_err(), "the actor panic propagates");

    let dump = std::fs::read_to_string(&path).expect("dump file written during unwind");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(
        lines[0].contains("\"t\":\"flight-dump\"") && lines[0].contains("panicked"),
        "header names the panicking actor: {}",
        lines[0]
    );
    // The countdown hops p0→p1→p2→p3→p0→p1→p2(msg 0): the ring holds the
    // joins, the relayed sends and their deliveries.
    assert!(
        lines.iter().any(|l| l.contains("\"t\":\"send\"")),
        "recent sends survive in the ring"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"t\":\"deliver\"")),
        "recent deliveries survive in the ring"
    );
    let _ = std::fs::remove_file(&path);
}
