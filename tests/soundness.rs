//! E8/E9: machine-checked Theorems 1–3 on random programs.
//!
//! - **Theorem 1 (deadlock freedom)**: every reachable non-`√` state has
//!   a successor — the explorer asserts this on every visited state.
//! - **Theorems 2–3 (soundness)**: the dynamic ground truth
//!   `MHP(p) = ∪ parallel(T)` over reachable states is contained in the
//!   statically inferred `M` — for the context-sensitive analysis, the
//!   context-insensitive baseline, and the type-system formulation.
//!
//! Random programs terminate under the all-zero input (see
//! `fx10_suite::random`), so bounded exploration is exhaustive unless the
//! interleaving space alone overflows the cap; soundness is checked on
//! whatever was reached either way (`dynamic ⊆ static` is monotone).

use fx10::analysis::{analyze, analyze_ci};
use fx10::robust::{Budget, CancelToken, FaultPlan};
use fx10::semantics::{explore, explore_parallel_durable, Durability, ExploreConfig};
use fx10::suite::{random_fx10, RandomConfig};
use proptest::prelude::*;

fn cfg(seed: u64, methods: usize, stmts: usize, depth: usize) -> RandomConfig {
    RandomConfig {
        methods,
        stmts_per_method: stmts,
        max_depth: depth,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dynamic_mhp_is_subset_of_static(
        seed in 0u64..10_000,
        methods in 1usize..5,
        stmts in 1usize..5,
        depth in 0usize..3,
    ) {
        let p = random_fx10(cfg(seed, methods, stmts, depth));
        let e = explore(&p, &[], ExploreConfig { max_states: 30_000, ..ExploreConfig::default() });
        prop_assert!(e.deadlock_free, "Theorem 1 violated");

        let cs = analyze(&p);
        let ci = analyze_ci(&p);
        for &(x, y) in &e.mhp {
            prop_assert!(
                cs.may_happen_in_parallel(x, y),
                "CS misses dynamic pair ({}, {}) in\n{}",
                p.labels().display(x),
                p.labels().display(y),
                fx10::syntax::pretty::program(&p)
            );
            prop_assert!(ci.may_happen_in_parallel(x, y), "CI misses a dynamic pair");
        }
        // CS refines CI.
        prop_assert!(cs.mhp().is_subset(ci.mhp()));
    }

    #[test]
    fn type_system_is_sound_along_executions(
        seed in 0u64..10_000,
        methods in 1usize..4,
        stmts in 1usize..4,
    ) {
        use fx10::analysis::typesystem::{infer_types, type_tree, typecheck};
        use fx10::analysis::sets::LabelSet;
        use fx10::analysis::index::StmtIndex;
        use fx10::analysis::slabels::compute_slabels;
        use fx10::semantics::parallel::parallel;
        use fx10::semantics::step::{initial_tree, successors};
        use fx10::semantics::ArrayState;

        let p = random_fx10(cfg(seed, methods, stmts, 2));
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, false);
        let (env, _) = infer_types(&p);
        prop_assert!(typecheck(&p, &env), "Theorem 6: every program has a type");

        // Walk a bounded prefix of the state space checking
        // parallel(T) ⊆ type_tree(T) ⊆ M_main (Lemma 17 + preservation).
        let empty = LabelSet::empty(p.label_count());
        let m_main = &env.get(p.main()).m;
        let mut frontier = vec![(ArrayState::zeros(&p), initial_tree(&p))];
        let mut visited = 0usize;
        while let Some((a, t)) = frontier.pop() {
            if visited > 400 {
                break;
            }
            visited += 1;
            let m_t = type_tree(&p, &slab, &env, &empty, &t);
            for (x, y) in parallel(&t) {
                prop_assert!(m_t.contains(x, y), "Lemma 17 violated");
                prop_assert!(m_main.contains(x, y), "Theorem 2 violated");
            }
            for succ in successors(&p, &a, &t) {
                frontier.push((succ.array, succ.tree));
            }
        }
    }
}

#[test]
fn parallel_explorer_agrees_with_sequential_on_random_programs() {
    for seed in 0..12u64 {
        let p = random_fx10(cfg(seed, 3, 4, 2));
        let cap = ExploreConfig {
            max_states: 20_000,
            ..ExploreConfig::default()
        };
        let a = explore(&p, &[], cap);
        if a.truncated {
            continue; // the two explorers may truncate differently
        }
        let b = explore_parallel_durable(
            &p,
            &[],
            cap,
            4,
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
            Durability::default(),
        )
        .unwrap();
        assert_eq!(a.mhp, b.mhp, "seed {seed}");
        assert_eq!(a.visited, b.visited, "seed {seed}");
        assert_eq!(a.terminals, b.terminals, "seed {seed}");
    }
}

#[test]
fn soundness_holds_on_the_handwritten_examples() {
    use fx10::syntax::examples;
    for p in [
        examples::example_2_1(),
        examples::example_2_2(),
        examples::conclusion_false_positive(),
        examples::self_category(),
        examples::same_category(),
        examples::add_twice(),
    ] {
        let e = explore(&p, &[], ExploreConfig::default());
        assert!(e.deadlock_free);
        let a = analyze(&p);
        for &(x, y) in &e.mhp {
            assert!(a.may_happen_in_parallel(x, y));
        }
    }
}

#[test]
fn add_twice_soundness_under_nonzero_inputs() {
    // Exercise data-dependent branching: different inputs reach
    // different trees; soundness must hold for each.
    let p = fx10::syntax::examples::add_twice();
    let a = analyze(&p);
    for input in [&[0i64, 0, 0][..], &[0, 1, 0], &[5, 1, 7]] {
        let e = explore(&p, input, ExploreConfig::default());
        assert!(e.deadlock_free);
        for &(x, y) in &e.mhp {
            assert!(a.may_happen_in_parallel(x, y), "input {input:?}");
        }
    }
}
