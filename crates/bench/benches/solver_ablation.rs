//! Ablation: the paper's naive round-robin fixed-point iteration (§5.2)
//! vs our worklist solver, on a family of random condensed programs of
//! growing size. Both compute the same least solution (property-tested
//! in `tests/equivalence.rs`); they differ in how much re-evaluation
//! they do.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fx10_core::analysis::SolverKind;
use fx10_core::Mode;
use fx10_frontend::gen::analyze_condensed;
use fx10_suite::{random_condensed, RandomConfig};

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_ablation");
    group.sample_size(10);
    for methods in [8usize, 24, 64] {
        let p = random_condensed(RandomConfig {
            methods,
            stmts_per_method: 8,
            max_depth: 3,
            seed: 42,
        });
        let nodes = p.label_count();
        group.bench_with_input(BenchmarkId::new("naive", nodes), &p, |b, p| {
            b.iter(|| {
                std::hint::black_box(analyze_condensed(
                    p,
                    Mode::ContextSensitive,
                    SolverKind::Naive,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("worklist", nodes), &p, |b, p| {
            b.iter(|| {
                std::hint::black_box(analyze_condensed(
                    p,
                    Mode::ContextSensitive,
                    SolverKind::Worklist,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
