//! An actor panic must render the flight dump before the unwind
//! destroys the world (and the sink with it).
//!
//! `World::run_callback` catches the unwind, hands the reason to the
//! installed sink's `fail` hook, and re-raises. The sink here wraps a
//! [`CausalLog`] and keeps what `fail` renders in a cell the test still
//! holds once the panic has propagated, so the events leading up to the
//! panic are shown to survive it.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use dds_core::process::ProcessId;
use dds_core::run::Causality;
use dds_core::time::Time;
use dds_net::generate;
use dds_obs::{CausalLog, ObsEvent, Sink};
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

/// A log whose `fail` hook renders its last 64 records into `dump`.
struct PanicDump {
    log: CausalLog,
    dump: Rc<RefCell<Option<String>>>,
}

impl Sink for PanicDump {
    fn record(&mut self, ev: &ObsEvent, causal: Causality) {
        self.log.record(ev, causal);
    }

    fn fail(&mut self, reason: &str, at: Time) {
        *self.dump.borrow_mut() = Some(self.log.flight_jsonl(reason, at, 64));
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[test]
fn panic_inside_callback_writes_the_dump_file() {
    let dump = Rc::new(RefCell::new(None));
    let mut world = WorldBuilder::new(13)
        .initial_graph(generate::ring(4))
        .spawn(|_| Box::new(Bomb))
        .sink(PanicDump {
            log: CausalLog::default(),
            dump: Rc::clone(&dump),
        })
        .build();
    world.inject(Time::from_ticks(1), ProcessId::from_raw(0), 6);

    // Silence the default panic hook for the expected unwind.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = catch_unwind(AssertUnwindSafe(|| world.run_to_quiescence()));
    std::panic::set_hook(hook);
    assert!(caught.is_err(), "the actor panic propagates");

    let dump = dump
        .borrow_mut()
        .take()
        .expect("dump rendered during unwind");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(
        lines[0].contains("\"t\":\"flight-dump\"") && lines[0].contains("panicked"),
        "header names the panicking actor: {}",
        lines[0]
    );
    // The countdown hops p0→p1→p2→p3→p0→p1→p2(msg 0): the dump holds the
    // joins, the relayed sends and their deliveries.
    assert!(
        lines.iter().any(|l| l.contains("\"t\":\"send\"")),
        "recent sends survive in the dump"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"t\":\"deliver\"")),
        "recent deliveries survive in the dump"
    );
}
