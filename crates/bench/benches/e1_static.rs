//! E1 — static one-time query latency vs system size and topology.
//!
//! Times one full wave query (build world, flood, echo, judge) per
//! configuration. The paper-shape claim: cost grows with n and with the
//! diameter, and the wave terminates in Θ(diameter) virtual time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_net::generate;
use dds_protocols::{ProtocolKind, QueryScenario};
use std::hint::black_box;

fn bench_static_wave(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_static_wave");
    for side in [4usize, 6, 8, 12] {
        let graph = generate::torus(side, side);
        let d = dds_net::algo::diameter(&graph).expect("connected") as u32;
        group.bench_with_input(
            BenchmarkId::new("torus", side * side),
            &(graph, d),
            |b, (graph, d)| {
                b.iter(|| {
                    let s =
                        QueryScenario::new(graph.clone(), ProtocolKind::FloodEcho { ttl: d + 1 });
                    black_box(s.run())
                })
            },
        );
    }
    for n in [16usize, 32, 64] {
        let graph = generate::complete(n);
        group.bench_with_input(BenchmarkId::new("complete", n), &graph, |b, graph| {
            b.iter(|| {
                let s = QueryScenario::new(graph.clone(), ProtocolKind::FloodEcho { ttl: 2 });
                black_box(s.run())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_static_wave);
criterion_main!(benches);
