//! Quickstart: one one-time query over a small dynamic system.
//!
//! Builds a 16-node torus overlay, runs the wave (flood/echo) protocol
//! once with no churn and once under balanced churn, and prints the
//! specification verdict for both.
//!
//! Run with: `cargo run --example quickstart`

use dds_net::generate;
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};

fn main() {
    // A static 4x4 torus: diameter 4, so a TTL of 4 suffices; we use 8 for
    // slack. Values are the node indices, the query counts the members.
    let scenario = QueryScenario::new(generate::torus(4, 4), ProtocolKind::FloodEcho { ttl: 8 });
    let run = scenario.run();
    println!("static system : {run}");

    // The same query under balanced churn (10% of the membership replaced
    // every 10 ticks). The initiator stays; everyone else may be replaced.
    let mut churny = scenario.clone();
    churny.driver = DriverSpec::Balanced {
        rate: 0.10,
        window: 10,
        crash_fraction: 0.2,
    };
    churny.seed = 7;
    let run = churny.run();
    println!("under churn   : {run}");

    println!();
    println!("interval validity means: every process present throughout the");
    println!("query interval was counted, and nobody absent from it was.");
}
