//! Continuous monitoring: the one-time query re-issued over a churning
//! system.
//!
//! Issues 20 queries, one every 40 ticks, against a 16-node torus overlay
//! under crash churn, with and without overlay repair — the extension
//! experiment E9 in miniature.
//!
//! Run with: `cargo run --release --example monitoring`

use dds_core::time::{Time, TimeDelta};
use dds_net::generate;
use dds_protocols::continuous::ContinuousScenario;
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};

fn scenario(repaired: bool) -> ContinuousScenario {
    let mut base = QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
    base.deadline = Time::from_ticks(100_000);
    base.driver = DriverSpec::Balanced {
        rate: 0.2,
        window: 10,
        crash_fraction: 1.0,
    };
    if !repaired {
        base.policy = dds_sim::world::TopologyPolicy {
            attach: dds_net::dynamic::AttachRule::RandomK(2),
            repair: dds_net::dynamic::RepairRule::None,
        };
    }
    ContinuousScenario::new(base, TimeDelta::ticks(40), 20)
}

fn main() {
    for (name, repaired) in [("bridging repair", true), ("no repair", false)] {
        let run = scenario(repaired).run();
        println!("{name:>16}: {run}");
        print!("{:>16}  per query: ", "");
        for q in &run.per_query {
            print!(
                "{}",
                if q.report.level.is_interval_valid() {
                    'Y'
                } else {
                    '.'
                }
            );
        }
        println!();
    }
    println!();
    println!("with repair every query succeeds; without it the overlay");
    println!("fragments under crash churn and monitoring collapses.");
}
