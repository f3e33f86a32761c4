//! Exhaustive state-space exploration: the seed-style sequential cloned
//! explorer vs the hash-consed work-stealing engine, on the paper's
//! examples and a fan-out stress program. Two axes:
//!
//! - **clone vs intern**: cloned `Tree` values with string-digest
//!   visited sets vs 32-bit interned ids with O(1) equality/hashing,
//!   both sequential;
//! - **jobs scaling**: the interned engine at 1, 2 and 4 workers sharing
//!   one budget meter.
//!
//! This is the machinery behind the ground-truth (dynamic) MHP used to
//! validate Theorem 2/3 empirically; `figures bench-explore` emits the
//! same comparison as `BENCH_explore.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fx10_bench::fanout;
use fx10_robust::{Budget, CancelToken, FaultPlan};
use fx10_semantics::{explore, explore_parallel_durable, Durability, Exploration, ExploreConfig};
use fx10_syntax::{examples, Program};

fn interned(p: &Program, jobs: usize) -> Exploration {
    explore_parallel_durable(
        p,
        &[],
        ExploreConfig::default(),
        jobs,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan::none(),
        Durability::default(),
    )
    .expect("an unlimited, uncancelled exploration cannot fail")
}

fn bench_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore");
    group.sample_size(10);

    let cases: Vec<(&str, Program)> = vec![
        ("example_2_1", examples::example_2_1()),
        ("same_category", examples::same_category()),
        ("fanout5", fanout(5)),
    ];
    let seed_config = ExploreConfig {
        canonical_dedup: false,
        ..ExploreConfig::default()
    };
    for (name, p) in &cases {
        // Clone vs intern, both sequential.
        group.bench_with_input(BenchmarkId::new("cloned-seq-seed", name), p, |b, p| {
            b.iter(|| std::hint::black_box(explore(p, &[], seed_config)))
        });
        group.bench_with_input(BenchmarkId::new("cloned-seq", name), p, |b, p| {
            b.iter(|| std::hint::black_box(explore(p, &[], ExploreConfig::default())))
        });
        // Jobs scaling on the interned work-stealing engine.
        for jobs in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("interned{jobs}"), name),
                p,
                |b, p| b.iter(|| std::hint::black_box(interned(p, jobs))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
