//! `world_reuse` — cost of building a fresh `World` per seed vs recycling
//! one world's allocations through `World::reset`.
//!
//! This isolates the cross-seed reuse win that `run_sweep` gets from
//! threading a [`SweepArena`] through every cell a worker claims: the
//! event-queue ring, slot tables, graph and trace buffers all survive the
//! reset, so only the first seed of a cell pays the allocation cost.
//!
//! The `graph_ops` group times the knowledge-graph operations the kernel
//! performs per callback (neighbor list) and per churn action (attach,
//! detach and the edge probes inside them) on a 256-node small world.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::time::Time;
use dds_net::dynamic::{AttachRule, RepairRule};
use dds_net::generate;
use dds_protocols::harness::SweepArena;
use dds_protocols::{DriverSpec, ProtocolKind, QueryScenario};
use std::hint::black_box;

const SEEDS: u64 = 16;

fn scenario() -> QueryScenario {
    let mut s = QueryScenario::new(generate::torus(5, 5), ProtocolKind::FloodEcho { ttl: 8 });
    s.deadline = Time::from_ticks(500);
    s.driver = DriverSpec::Balanced {
        rate: 0.2,
        window: 10,
        crash_fraction: 0.3,
    };
    s
}

fn bench_world_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_reuse");
    group.bench_function(BenchmarkId::from_parameter("fresh_per_seed"), |b| {
        let base = scenario();
        b.iter(|| {
            for seed in 0..SEEDS {
                let mut s = base.clone();
                s.seed = seed;
                // `run` builds a throwaway arena, so every seed
                // constructs its world from scratch.
                black_box(s.run());
            }
        })
    });
    group.bench_function(BenchmarkId::from_parameter("reused_arena"), |b| {
        let base = scenario();
        b.iter(|| {
            let mut arena = SweepArena::default();
            for seed in 0..SEEDS {
                let mut s = base.clone();
                s.seed = seed;
                black_box(s.run_in(&mut arena));
            }
        })
    });
    group.finish();
}

/// Operations per timed iteration of the `graph_ops` group.
const OPS: u64 = 1_000;
/// Nodes of its graph.
const N: u64 = 256;

fn bench_graph_ops(c: &mut Criterion) {
    let pid = ProcessId::from_raw;
    let graph = generate::watts_strogatz(N as usize, 3, 0.2, &mut Rng::seeded(5));
    let mut group = c.benchmark_group("graph_ops");
    group.bench_function(BenchmarkId::from_parameter("neighbors"), |b| {
        b.iter(|| {
            let degrees = (0..OPS).map(|i| graph.neighbors(pid(i % N)).map_or(0, <[_]>::len));
            black_box(degrees.sum::<usize>())
        })
    });
    group.bench_function(BenchmarkId::from_parameter("has_edge"), |b| {
        b.iter(|| {
            let hits = (0..OPS).filter(|&i| graph.has_edge(pid(i % N), pid((i * 37 + 1) % N)));
            black_box(hits.count())
        })
    });
    // Balanced churn as the kernel applies it: one member out (bridging
    // its neighbors), one fresh identity in (three random members), so
    // the graph stays at 256 nodes while its identities climb.
    group.bench_function(BenchmarkId::from_parameter("detach_attach"), |b| {
        let (mut g, mut rng, mut next) = (graph.clone(), Rng::seeded(6), N);
        b.iter(|| {
            for _ in 0..OPS {
                let leaver = g.members()[rng.index(g.node_count())];
                black_box(RepairRule::BridgeNeighbors.detach(&mut g, leaver));
                black_box(AttachRule::RandomK(3).attach(&mut g, pid(next), &mut rng));
                next += 1;
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_world_reuse, bench_graph_ops);
criterion_main!(benches);
