//! Criterion: sequential-oracle vs parallel world generation. Tracks
//! the ingestion tentpole: the two-phase planner (parallel per-family /
//! per-chunk event synthesis) plus the batch-sealed chain store must
//! beat the sequential oracle on multi-core hosts while
//! producing byte-identical worlds
//! (`crates/daas-world/tests/parallel_equivalence.rs`).
//!
//! `DAAS_SCALE` (default 0.4 here — full paper scale takes seconds per
//! iteration) is honoured.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use daas_world::{World, WorldConfig};

fn bench_world_build(c: &mut Criterion) {
    let seed = 42;
    let scale: f64 =
        std::env::var("DAAS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.4);
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(seed) };
    let txs = World::build(&config).expect("world builds").chain.stats().transactions as u64;

    let mut group = c.benchmark_group("world_build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(txs));
    group.bench_function("sequential", |b| {
        b.iter(|| World::build_with(&config, 1).expect("world builds"))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| World::build_with(&config, 0).expect("world builds"))
    });
    group.finish();
}

criterion_group!(benches, bench_world_build);
criterion_main!(benches);
