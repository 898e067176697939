//! Regression pin: a reused (reset) `World` reproduces a freshly built
//! world's run exactly — same membership trace and horizon, same metrics
//! (which count every send, delivery and drop), same membership, same final
//! clock. This is the invariant that lets sweeps recycle one world's
//! allocations across every seed of a cell without perturbing results.

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_sim::actor::{Actor, Context};
use dds_sim::delay::{DelayModel, LossModel};
use dds_sim::driver::BalancedChurn;
use dds_sim::event::TimerId;
use dds_sim::world::{ResetSpec, TopologyPolicy, World, WorldBuilder};

/// Gossips a counter to a random neighbor on a short timer — enough
/// traffic to exercise the queue, RNG, timer and churn paths.
struct Chatter {
    heard: u64,
}

impl Actor<u64> for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(TimeDelta::ticks(2));
    }

    fn on_message(&mut self, _: &mut Context<'_, u64>, _: ProcessId, msg: u64) {
        self.heard += msg;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _: TimerId) {
        if let Some(peer) = ctx.choose_neighbor() {
            ctx.send(peer, 1);
        }
        ctx.set_timer(TimeDelta::ticks(2));
    }
}

fn driver() -> BalancedChurn {
    let spec = ChurnSpec::rate(0.2, TimeDelta::ticks(7)).expect("valid churn spec");
    BalancedChurn::new(spec)
}

fn fresh_world(seed: u64) -> World<u64> {
    WorldBuilder::new(seed)
        .initial_graph(generate::ring(8))
        .driver(driver())
        .delay(DelayModel::Uniform {
            min: TimeDelta::ticks(1),
            max: TimeDelta::ticks(3),
        })
        .values(|pid, rng| pid.as_raw() as f64 + rng.unit_f64())
        .spawn(|_| Box::new(Chatter { heard: 0 }))
        .build()
}

/// Everything observable about a finished run.
fn snapshot(world: &mut World<u64>) -> (String, String, Vec<ProcessId>, Time) {
    world.run_until(Time::from_ticks(150));
    (
        format!("{:?}", world.trace()),
        format!("{:?}", world.metrics()),
        world.members().to_vec(),
        world.now(),
    )
}

#[test]
fn reset_world_reproduces_fresh_world_run_for_run() {
    let mut reused = fresh_world(1);
    let first = snapshot(&mut reused);
    assert_eq!(
        first,
        snapshot(&mut fresh_world(1)),
        "fresh baseline is deterministic"
    );

    // Reset across several seeds: each must match a fresh build bit for bit,
    // including going *back* to an already-run seed.
    for seed in [2, 7, 1] {
        reused.reset(
            &generate::ring(8),
            ResetSpec {
                seed,
                policy: TopologyPolicy::default(),
                delay: DelayModel::Uniform {
                    min: TimeDelta::ticks(1),
                    max: TimeDelta::ticks(3),
                },
                loss: LossModel::None,
                driver: Box::new(driver()),
                sink: None,
            },
        );
        assert_eq!(
            snapshot(&mut reused),
            snapshot(&mut fresh_world(seed)),
            "reset world diverged from fresh world at seed {seed}"
        );
    }
}
