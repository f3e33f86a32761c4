//! E10: Theorems 4–6 — types ⇄ constraints.
//!
//! - **Theorem 4 (equivalence)**: `⊢ p : E` iff the constraint system has
//!   a solution extending `E`. We check both least solutions coincide:
//!   the fixed point of the typing rules equals the `(m_i, o_i)` of the
//!   solved constraints.
//! - **Theorem 5/6**: the solver always produces a least solution, hence
//!   every program has a type — `infer_types` + `typecheck` succeed on
//!   arbitrary programs.
//! - Solver-implementation equivalence: naive round-robin and worklist
//!   produce identical solutions, in any constraint order.

use fx10::analysis::analysis::{analyze_with, SolverKind};
use fx10::analysis::typesystem::{infer_types, typecheck};
use fx10::analysis::Mode;
use fx10::suite::{random_fx10, RandomConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn types_equal_constraints_on_random_programs(
        seed in 0u64..100_000,
        methods in 1usize..6,
        stmts in 1usize..6,
        depth in 0usize..4,
    ) {
        let p = random_fx10(RandomConfig {
            methods,
            stmts_per_method: stmts,
            max_depth: depth,
            seed,
        });
        // Theorem 6: every program has a type.
        let (env, _rounds) = infer_types(&p);
        prop_assert!(typecheck(&p, &env));

        // Theorem 4: least type environment == least constraint solution.
        let a = analyze_with(&p, Mode::ContextSensitive, SolverKind::Naive);
        prop_assert_eq!(env, a.type_env());
    }

    #[test]
    fn naive_and_worklist_solvers_agree(
        seed in 0u64..100_000,
        methods in 1usize..5,
        stmts in 1usize..6,
    ) {
        let p = random_fx10(RandomConfig {
            methods,
            stmts_per_method: stmts,
            max_depth: 3,
            seed,
        });
        for mode in [
            Mode::ContextSensitive,
            Mode::ContextInsensitive { keep_scross: true },
        ] {
            let a = analyze_with(&p, mode, SolverKind::Naive);
            for solver in [SolverKind::Worklist, SolverKind::Scc] {
                let b = analyze_with(&p, mode, solver);
                prop_assert_eq!(a.mhp(), b.mhp());
                for f in 0..p.method_count() {
                    let f = fx10::syntax::FuncId(f as u32);
                    prop_assert_eq!(a.o_of(f), b.o_of(f));
                    prop_assert_eq!(a.mhp_of(f), b.mhp_of(f));
                }
            }
        }
    }

    #[test]
    fn ci_scross_term_is_redundant(
        seed in 0u64..100_000,
        methods in 2usize..5,
        stmts in 1usize..5,
    ) {
        // §7: "for a context-insensitive analysis we can remove
        // Scross_p(p(f_i), R) from Rule (82) without changing the
        // analysis" — property-checked, not just on the examples.
        let p = random_fx10(RandomConfig {
            methods,
            stmts_per_method: stmts,
            max_depth: 3,
            seed,
        });
        let with = analyze_with(
            &p,
            Mode::ContextInsensitive { keep_scross: true },
            SolverKind::Worklist,
        );
        let without = analyze_with(
            &p,
            Mode::ContextInsensitive { keep_scross: false },
            SolverKind::Worklist,
        );
        prop_assert_eq!(with.mhp(), without.mhp());
    }

    #[test]
    fn principal_typing_lemma_on_random_programs(
        seed in 0u64..100_000,
        extra in proptest::collection::vec(0u32..20, 0..5),
    ) {
        // Lemma 12: M_R = Scross(s, R) ∪ M_∅ and O_R = R ∪ O_∅.
        use fx10::analysis::index::StmtIndex;
        use fx10::analysis::sets::{symcross, LabelSet};
        use fx10::analysis::slabels::compute_slabels;
        use fx10::analysis::typesystem::{slabels_of_dyn, type_stmt};

        let p = random_fx10(RandomConfig {
            methods: 3,
            stmts_per_method: 4,
            max_depth: 3,
            seed,
        });
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, false);
        let (env, _) = infer_types(&p);
        let n = p.label_count();
        let r = LabelSet::from_labels(
            n,
            extra
                .iter()
                .map(|&x| fx10::syntax::Label(x % n as u32)),
        );
        let body = p.body(p.main());
        let empty = LabelSet::empty(n);
        let (m_r, o_r) = type_stmt(&p, &slab, &env, &r, body);
        let (m_0, o_0) = type_stmt(&p, &slab, &env, &empty, body);

        let mut expect_m = symcross(&slabels_of_dyn(&slab, n, body), &r);
        expect_m.union_with(&m_0);
        prop_assert_eq!(m_r, expect_m);

        let mut expect_o = r.clone();
        expect_o.union_with(&o_0);
        prop_assert_eq!(o_r, expect_o);
    }
}

#[test]
fn typecheck_rejects_perturbed_environments() {
    // A non-solution must be rejected: take the inferred env and drop one
    // pair from some method's M.
    use fx10::analysis::typesystem::{MethodSummary, TypeEnv};
    let p = fx10::syntax::examples::example_2_2();
    let (env, _) = infer_types(&p);
    assert!(typecheck(&p, &env));

    let f = p.find_method("main").unwrap();
    let mut methods: Vec<MethodSummary> = (0..p.method_count())
        .map(|i| env.get(fx10::syntax::FuncId(i as u32)).clone())
        .collect();
    // Empty out main's M: no longer a fixed point.
    methods[f.index()].m = fx10::analysis::sets::PairSet::empty(p.label_count());
    let broken = TypeEnv::new(methods);
    assert!(!typecheck(&p, &broken));
}
