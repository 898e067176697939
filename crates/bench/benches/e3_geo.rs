//! E3 — geography dimension: query cost vs graph family and diameter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_core::rng::Rng;
use dds_net::generate;
use dds_protocols::{ProtocolKind, QueryScenario};
use std::hint::black_box;

fn bench_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_graph_families");
    let mut rng = Rng::seeded(7);
    let cases: Vec<(&str, dds_net::Graph)> = vec![
        ("ring64", generate::ring(64)),
        ("torus8x8", generate::torus(8, 8)),
        (
            "smallworld64",
            generate::watts_strogatz(64, 2, 0.2, &mut rng),
        ),
        ("er64", generate::erdos_renyi(64, 0.1, &mut rng)),
    ];
    for (name, graph) in cases {
        let ttl = dds_net::algo::diameter(&graph)
            .map(|d| d as u32 + 1)
            .unwrap_or(64);
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(graph, ttl),
            |b, (g, ttl)| {
                b.iter(|| {
                    let s = QueryScenario::new(g.clone(), ProtocolKind::FloodEcho { ttl: *ttl });
                    black_box(s.run())
                })
            },
        );
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_generators");
    group.bench_function("torus_16x16", |b| {
        b.iter(|| black_box(generate::torus(16, 16)))
    });
    group.bench_function("er_256_p01", |b| {
        let mut rng = Rng::seeded(1);
        b.iter(|| black_box(generate::erdos_renyi(256, 0.1, &mut rng)))
    });
    group.bench_function("geometric_256", |b| {
        let mut rng = Rng::seeded(2);
        b.iter(|| black_box(generate::random_geometric(256, 0.12, &mut rng)))
    });
    group.finish();
}

criterion_group!(benches, bench_families, bench_generators);
criterion_main!(benches);
