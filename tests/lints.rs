//! Property tests for the lint suite's dynamic-evidence contract.
//!
//! Two properties tie the static lint engine to the exact semantics:
//!
//! 1. **Witness replay** — every witness the bounded search finds is a
//!    real schedule: replaying its successor choices from the initial
//!    state reaches a tree where the two racing labels are co-enabled
//!    (`parallel(T)` contains the pair).
//! 2. **No confirmed ghost races** — on programs the explorer can fully
//!    enumerate, a race diagnostic at confidence `confirmed` always names
//!    a pair the exact dynamic MHP contains. The explorer is ground
//!    truth; `confirmed` must never overclaim.

use fx10::analysis::analyze_ci;
use fx10::analysis::race::{accesses, detect_races_with};
use fx10::lints::{lint, Confidence, LintOptions};
use fx10::robust::{Budget, CancelToken};
use fx10::semantics::witness::{find_witnesses, witness_exhibits, WitnessSearch};
use fx10::semantics::{explore, ExploreConfig};
use fx10::suite::{random_fx10_loop_free, RandomConfig};
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: found witness schedules replay to co-occurring
    /// redexes. (Loop-free programs keep the raw space finite.)
    #[test]
    fn witness_schedules_replay_to_co_enabled_pairs(
        seed in 0u64..10_000,
        methods in 1usize..3,
        stmts in 1usize..5,
        depth in 0usize..3,
    ) {
        let p = random_fx10_loop_free(cfg(seed, methods, stmts, depth));
        let ci = analyze_ci(&p);
        let races = detect_races_with(&accesses(&p), |x, y| ci.may_happen_in_parallel(x, y));
        let targets: Vec<_> = races.iter().map(|r| (r.first.label, r.second.label)).collect();
        let searches =
            find_witnesses(&p, &[], &targets, 60_000, Budget::unlimited(), &CancelToken::new())
                .expect("nobody cancels");
        prop_assert_eq!(searches.len(), targets.len());
        for (&target, search) in targets.iter().zip(searches) {
            if let WitnessSearch::Found(w) = search {
                prop_assert!(
                    witness_exhibits(&p, &[], &w.schedule, target),
                    "schedule {:?} does not exhibit {:?}",
                    w.schedule,
                    target
                );
            }
        }
    }

    /// Property 2: on fully-explorable programs, `confirmed` race
    /// diagnostics only name pairs the exact dynamic MHP contains.
    #[test]
    fn confirmed_races_are_in_the_exact_dynamic_mhp(
        seed in 0u64..10_000,
        methods in 1usize..3,
        stmts in 1usize..5,
        depth in 0usize..3,
    ) {
        let p = random_fx10_loop_free(cfg(seed, methods, stmts, depth));
        let e = explore(&p, &[], ExploreConfig {
            max_states: 60_000,
            ..ExploreConfig::default()
        });
        prop_assume!(!e.truncated);

        let report = lint(
            &p,
            &LintOptions { witness_states: 60_000, ..LintOptions::default() },
            &CancelToken::new(),
        ).unwrap();
        for d in &report.diagnostics {
            if !d.code.starts_with("race-") || d.confidence != Confidence::Confirmed {
                continue;
            }
            let (a, b) = d.pair.expect("race diagnostics carry their pair");
            let key = (a.min(b), a.max(b));
            prop_assert!(
                e.mhp.contains(&key),
                "lint confirmed {:?} but the explorer's exact MHP refutes it",
                key
            );
            prop_assert!(d.witness.is_some(), "confirmed races carry a witness");
        }
    }
}
