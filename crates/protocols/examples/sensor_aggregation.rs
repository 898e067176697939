//! Sensor-field aggregation: the motivating scenario for neighborhood
//! knowledge.
//!
//! A field of temperature sensors is deployed uniformly at random; two
//! sensors know each other iff they are within radio range — a random
//! geometric knowledge graph. A sink node queries the *average*
//! temperature. Sensors fail (crash) during the query; we compare the wave
//! protocol against push-sum gossip on the same field.
//!
//! Run with: `cargo run --example sensor_aggregation`

use dds_core::rng::Rng;
use dds_core::spec::aggregate::AggregateKind;
use dds_core::time::Time;
use dds_net::{algo, generate};
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};

fn main() {
    let mut rng = Rng::seeded(2026);
    // Deploy until we get a connected field (sparse geometric graphs can
    // fragment; a real deployment would add relays).
    let field = loop {
        let g = generate::random_geometric(60, 0.22, &mut rng);
        if algo::is_connected(&g) {
            break g;
        }
    };
    let diameter = algo::diameter(&field).expect("connected");
    println!(
        "sensor field: {} sensors, {} links, diameter {}",
        field.node_count(),
        field.edge_count(),
        diameter
    );

    let mut scenario = QueryScenario::new(
        field,
        ProtocolKind::FloodEcho {
            ttl: diameter as u32 + 2,
        },
    );
    scenario.aggregate = AggregateKind::Average;
    scenario.deadline = Time::from_ticks(5_000);
    // Sensors die (crash, never gracefully) at 2% per 20 ticks.
    scenario.driver = DriverSpec::Balanced {
        rate: 0.02,
        window: 20,
        crash_fraction: 1.0,
    };

    let wave = scenario.run();
    println!("\nwave query   : {wave}");
    println!(
        "  true average over stable sensors: {:.2}",
        wave.truth_over_required
    );

    let mut gossip_scenario = scenario.clone();
    gossip_scenario.protocol = ProtocolKind::Gossip { rounds: 120 };
    gossip_scenario.aggregate = AggregateKind::Sum; // push-sum estimates sums
    let gossip = gossip_scenario.run();
    println!("gossip query : {gossip}");
    println!(
        "  sum estimate relative error: {:.1}%",
        gossip.relative_error * 100.0
    );

    println!();
    println!("the wave gives an explicit contributor set (checkable validity);");
    println!("gossip gives a numeric estimate that degrades gracefully instead.");
}
