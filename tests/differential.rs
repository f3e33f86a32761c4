//! The differential-testing oracle for the work-stealing interned
//! explorer.
//!
//! The sequential cloned-tree breadth-first search
//! ([`explore_budgeted`]) is the trusted reference. Everything the
//! parallel engine computes — the canonical reachable-state set (as
//! byte-comparable digests), the dynamic `parallel(T)` pair union, the
//! deadlock-freedom verdict, terminal and visited counts — must be
//! *identical* for every worker count, every steal schedule, and both
//! state representations (cloned trees vs hash-consed ids). Randomized
//! programs from `fx10_suite` drive the comparison beyond the fixtures.
//!
//! Also here: the adversarial-schedule and injected-panic behaviour of
//! the parallel engine (typed errors, exit-code 4, no hangs), the shared
//! state-budget contract (`budget + at most one batch per worker`,
//! tagged INCONCLUSIVE), and the regression pins for the canonical
//! `∥`-symmetry deduplication on the `programs/*.fx10` fixtures.

use fx10::robust::{Budget, CancelToken, Exhaustion, FaultPlan, Fx10Error, PanicFault};
use fx10::semantics::{
    explore_budgeted, explore_interned_budgeted, explore_parallel_durable, CheckpointSpec,
    Durability, Exploration, ExploreConfig, ExplorerSnapshot,
};
use fx10::suite::{random_fx10, RandomConfig};
use fx10::syntax::Program;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const JOBS: [usize; 3] = [1, 2, 8];

/// A collision-free scratch path for snapshot files (tests run in
/// parallel within one process and across processes).
fn temp_snap(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fx10-{tag}-{}-{n}.fxsnap", std::process::id()))
}

fn digest_config() -> ExploreConfig {
    ExploreConfig {
        collect_states: true,
        ..ExploreConfig::default()
    }
}

fn reference(p: &Program, config: ExploreConfig) -> Exploration {
    explore_budgeted(p, &[], config, Budget::unlimited(), &CancelToken::new())
        .expect("reference explorer cannot fail without budget or cancel")
}

fn parallel(p: &Program, config: ExploreConfig, jobs: usize) -> Exploration {
    explore_parallel_durable(
        p,
        &[],
        config,
        jobs,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan::none(),
        Durability::default(),
    )
    .expect("parallel explorer cannot fail without budget, cancel or faults")
}

/// Asserts every differentially-observable field matches the reference.
fn assert_identical(label: &str, want: &Exploration, got: &Exploration) {
    assert_eq!(want.state_digests, got.state_digests, "{label}: state sets");
    assert_eq!(want.mhp, got.mhp, "{label}: parallel(T) pair union");
    assert_eq!(want.deadlock_free, got.deadlock_free, "{label}: deadlock");
    assert_eq!(want.visited, got.visited, "{label}: visited count");
    assert_eq!(want.terminals, got.terminals, "{label}: terminal count");
    assert_eq!(want.truncated, got.truncated, "{label}: truncation");
}

fn load(path: &str) -> Program {
    let src = std::fs::read_to_string(path).expect(path);
    Program::parse(&src).expect(path)
}

#[test]
fn fixture_programs_agree_across_engines_and_worker_counts() {
    for path in [
        "programs/example22.fx10",
        "programs/fork_join.fx10",
        "programs/racey.fx10",
    ] {
        let p = load(path);
        let want = reference(&p, digest_config());
        assert!(!want.truncated, "{path}: fixture must fit the budget");
        for jobs in JOBS {
            let got = parallel(&p, digest_config(), jobs);
            assert_identical(&format!("{path} jobs={jobs}"), &want, &got);
        }
    }
}

#[test]
fn normalized_fixtures_agree_too() {
    // The admin-normalizing configuration exercises the interner's
    // `normalized` path.
    let config = ExploreConfig {
        normalize_admin: true,
        ..digest_config()
    };
    for path in ["programs/example22.fx10", "programs/fork_join.fx10"] {
        let p = load(path);
        let want = reference(&p, config);
        for jobs in JOBS {
            let got = parallel(&p, config, jobs);
            assert_identical(&format!("{path} normalized jobs={jobs}"), &want, &got);
        }
    }
}

/// More labels than one 64-bit word holds: the `async` bodies and
/// continuations straddle indices 63/64 and 127/128, so the interned
/// engine's multi-word `FTlabels` rows and pair matrix meet the cloned
/// engine's `parallel` fold. No fixture has more than 26 labels.
#[test]
fn programs_past_64_labels_agree_across_engines() {
    let skips = |n: usize| "skip; ".repeat(n);
    let src = format!(
        "def main() {{ {}async {{ A; }} B; {}async {{ C; }} D; }}",
        skips(62),
        skips(61)
    );
    let p = Program::parse(&src).unwrap();
    for (name, at) in [("A", 63), ("B", 64), ("C", 127), ("D", 128)] {
        let label = p.labels().lookup(name).expect(name);
        assert_eq!(label.index(), at, "label {name}");
    }
    let want = reference(&p, digest_config());
    let (a, d) = (
        p.labels().lookup("A").unwrap(),
        p.labels().lookup("D").unwrap(),
    );
    assert!(
        want.mhp.contains(&(a, d)),
        "A runs beside D: {:?}",
        want.mhp
    );
    for jobs in JOBS {
        let got = parallel(&p, digest_config(), jobs);
        assert_identical(&format!("129 labels jobs={jobs}"), &want, &got);
    }
}

/// Regression pins for the canonical `∥`-symmetry deduplication (the
/// frontier used to re-visit `T₁ ∥ T₂` and `T₂ ∥ T₁` as distinct
/// states). The literal space must not be smaller, and the canonical
/// counts are pinned exactly so an accidental dedup regression fails
/// loudly.
#[test]
fn canonical_dedup_visited_counts_are_pinned_for_fixtures() {
    let pins = [
        ("programs/example22.fx10", 37usize, 5usize, 1usize),
        ("programs/fork_join.fx10", 141, 15, 1),
        ("programs/racey.fx10", 10, 1, 2),
    ];
    for (path, visited, pairs, terminals) in pins {
        let p = load(path);
        let canon = reference(&p, ExploreConfig::default());
        assert_eq!(canon.visited, visited, "{path}: canonical visited");
        assert_eq!(canon.mhp.len(), pairs, "{path}: pair count");
        assert_eq!(canon.terminals, terminals, "{path}: terminals");

        let literal = reference(
            &p,
            ExploreConfig {
                canonical_dedup: false,
                ..ExploreConfig::default()
            },
        );
        assert!(
            literal.visited >= canon.visited,
            "{path}: canonicalization grew the space"
        );
        assert_eq!(literal.mhp, canon.mhp, "{path}: MHP must be invariant");
        assert_eq!(literal.terminals, canon.terminals, "{path}: terminals");
    }
}

/// Both engines count the state cap in admitted states: a space of
/// exactly `cap` states completes, and one fewer truncates on `States`
/// after admitting exactly `cap`.
#[test]
fn cloned_and_interned_engines_agree_at_the_state_cap() {
    let programs = [
        Program::parse("def main() { async { B; } K; }").unwrap(),
        load("programs/example22.fx10"),
        load("programs/fork_join.fx10"),
        load("programs/racey.fx10"),
    ];
    for p in &programs {
        let reachable = reference(p, ExploreConfig::default()).visited;
        for (cap, truncated) in [(reachable, false), (reachable - 1, true)] {
            let budget = Budget::unlimited().with_max_states(cap);
            let cancel = CancelToken::new();
            let config = ExploreConfig::default();
            let cloned = explore_budgeted(p, &[], config, budget, &cancel).unwrap();
            let interned = explore_interned_budgeted(p, &[], config, budget, &cancel).unwrap();
            for (engine, e) in [("cloned", &cloned), ("interned", &interned)] {
                let label = format!("{engine} engine, {reachable} states, cap {cap}");
                assert_eq!(e.truncated, truncated, "{label}");
                let want = truncated.then_some(Exhaustion::States);
                assert_eq!(e.exhausted, want, "{label}");
                assert_eq!(e.visited, cap, "{label}");
            }
        }
    }
}

#[test]
fn adversarial_schedules_are_semantically_invisible_to_the_oracle() {
    for path in ["programs/example22.fx10", "programs/fork_join.fx10"] {
        let p = load(path);
        let want = reference(&p, digest_config());
        for jobs in JOBS {
            let got = explore_parallel_durable(
                &p,
                &[],
                digest_config(),
                jobs,
                Budget::unlimited(),
                &CancelToken::new(),
                &FaultPlan {
                    adversarial_schedule: true,
                    ..FaultPlan::none()
                },
                Durability::default(),
            )
            .unwrap();
            assert_identical(&format!("{path} adversarial jobs={jobs}"), &want, &got);
        }
    }
}

fn explore_with_panic_fault(
    p: &Program,
    jobs: usize,
    victim: usize,
    adversarial: bool,
) -> Result<Exploration, Fx10Error> {
    explore_parallel_durable(
        p,
        &[],
        ExploreConfig::default(),
        jobs,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan {
            panic_worker: Some(PanicFault {
                worker: victim,
                after_states: 1,
            }),
            adversarial_schedule: adversarial,
            ..FaultPlan::none()
        },
        Durability::default(),
    )
}

fn assert_panicked_as(victim: usize, err: Fx10Error) {
    assert_eq!(err.exit_code(), 4, "victim={victim}");
    match err {
        Fx10Error::WorkerPanicked { worker, message } => {
            assert_eq!(worker, victim);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn injected_panics_surface_as_typed_errors_with_exit_code_4() {
    // jobs = 1 is fully deterministic: the only worker must process the
    // seed state, so the fault always fires.
    let p = load("programs/fork_join.fx10");
    assert_panicked_as(0, explore_with_panic_fault(&p, 1, 0, false).unwrap_err());

    // With a crew, the victim can benignly lose the race for work (the
    // other workers drain the space first); an Ok result is then a
    // complete exploration. The small fixtures drain faster than a
    // second thread reliably spawns on a fast machine, so the crewed
    // cases use the wide chaos fixture (~76k states): every worker gets
    // work, and the contract under test — the fault surfaces as a typed
    // error with exit code 4, never a hang or an abort — is exercised on
    // the first or second run. The retry loop stays as a safety margin.
    let p = load("programs/chaos_wide.fx10");
    for (jobs, victim, adversarial) in [(2usize, 1usize, false), (4, 2, true), (8, 0, false)] {
        let mut fired = false;
        for _ in 0..50 {
            match explore_with_panic_fault(&p, jobs, victim, adversarial) {
                Err(err) => {
                    assert_panicked_as(victim, err);
                    fired = true;
                    break;
                }
                Ok(e) => assert!(e.deadlock_free, "starved-victim run must be complete"),
            }
        }
        assert!(
            fired,
            "fault never landed in 50 runs (jobs={jobs} victim={victim})"
        );
    }
}

#[test]
fn shared_state_budget_bounds_the_crew_within_one_batch_per_worker() {
    // fork_join has 141 canonical states; a budget of 40 must truncate
    // for every worker count, never overshoot by more than one
    // reservation batch (1 state) per worker, and report INCONCLUSIVE
    // provenance (the CLI maps it to exit 3).
    let p = load("programs/fork_join.fx10");
    let budget_states = 40usize;
    for jobs in JOBS {
        let e = explore_parallel_durable(
            &p,
            &[],
            ExploreConfig::default(),
            jobs,
            Budget::unlimited().with_max_states(budget_states),
            &CancelToken::new(),
            &FaultPlan::none(),
            Durability::default(),
        )
        .unwrap();
        assert!(e.truncated, "jobs={jobs}");
        assert_eq!(e.exhausted, Some(Exhaustion::States), "jobs={jobs}");
        assert!(
            e.visited <= budget_states + jobs,
            "jobs={jobs}: visited {} > budget {budget_states} + one batch per worker",
            e.visited
        );
        assert!(
            e.visited >= budget_states.min(20),
            "jobs={jobs}: suspiciously small prefix {}",
            e.visited
        );
    }
}

/// The tentpole pin: interrupt the durable explorer at an arbitrary
/// checkpoint (the injected kill is the SIGKILL stand-in), resume from
/// the on-disk snapshot, and require the state digests, MHP pairs and
/// verdicts to be **byte-identical** to an uninterrupted run — at every
/// `--jobs` value.
#[test]
fn kill_and_resume_is_byte_identical_at_every_jobs_value() {
    let p = load("programs/fork_join.fx10");
    let want = reference(&p, digest_config());
    for jobs in JOBS {
        for kill_at in [1u64, 2] {
            let label = format!("jobs={jobs} kill_at={kill_at}");
            let path = temp_snap("kill");
            let res = explore_parallel_durable(
                &p,
                &[],
                digest_config(),
                jobs,
                Budget::unlimited(),
                &CancelToken::new(),
                &FaultPlan {
                    kill_at_checkpoint: Some(kill_at),
                    ..FaultPlan::none()
                },
                Durability {
                    checkpoint: Some(CheckpointSpec {
                        path: path.clone(),
                        every: 7,
                    }),
                    resume: None,
                    watchdog: None,
                },
            );
            match res {
                Err(Fx10Error::Cancelled) => {
                    // The kill landed: the interrupted snapshot must
                    // resume to exactly the uninterrupted answer.
                    let snap = ExplorerSnapshot::load(&path).expect("snapshot on disk");
                    let got = explore_parallel_durable(
                        &p,
                        &[],
                        digest_config(),
                        jobs,
                        Budget::unlimited(),
                        &CancelToken::new(),
                        &FaultPlan::none(),
                        Durability {
                            checkpoint: None,
                            resume: Some(&snap),
                            watchdog: None,
                        },
                    )
                    .expect("resume must succeed");
                    assert_identical(&label, &want, &got);
                }
                // The run can finish before the kill-th checkpoint (a
                // race the fault plan permits) — it must then simply be
                // a complete, correct run.
                Ok(got) => assert_identical(&format!("{label} (kill lost)"), &want, &got),
                Err(e) => panic!("{label}: unexpected error {e:?}"),
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Chained interruptions: kill at checkpoint 1, resume with checkpoints
/// still on, kill again, resume again — the final answer must still be
/// byte-identical to the uninterrupted reference.
#[test]
fn double_kill_and_resume_still_converges() {
    let p = load("programs/fork_join.fx10");
    let want = reference(&p, digest_config());
    let path = temp_snap("kill2");
    let kill = FaultPlan {
        kill_at_checkpoint: Some(1),
        ..FaultPlan::none()
    };
    let clean = FaultPlan::none();
    let spec = CheckpointSpec {
        path: path.clone(),
        every: 5,
    };
    let mut snap = None;
    let mut finished = None;
    for round in 0..16 {
        let res = explore_parallel_durable(
            &p,
            &[],
            digest_config(),
            2,
            Budget::unlimited(),
            &CancelToken::new(),
            if round < 2 { &kill } else { &clean },
            Durability {
                checkpoint: Some(spec.clone()),
                resume: snap.as_ref(),
                watchdog: None,
            },
        );
        match res {
            Err(Fx10Error::Cancelled) => {
                snap = Some(ExplorerSnapshot::load(&path).expect("snapshot on disk"));
            }
            Ok(got) => {
                finished = Some(got);
                break;
            }
            Err(e) => panic!("round {round}: unexpected error {e:?}"),
        }
    }
    let got = finished.expect("two kills then a clean run must finish");
    assert_identical("double kill", &want, &got);
    let _ = std::fs::remove_file(&path);
}

fn rand_cfg(seed: u64, methods: usize, stmts: usize, depth: usize) -> RandomConfig {
    RandomConfig {
        methods,
        stmts_per_method: stmts,
        max_depth: depth,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite 1: random programs explored with jobs = 1 and jobs = N,
    /// interned and cloned, yield byte-identical canonical state sets
    /// and identical MHP-soundness verdicts.
    #[test]
    fn random_programs_agree_across_jobs_and_representations(
        seed in 0u64..10_000,
        methods in 1usize..4,
        stmts in 1usize..5,
        depth in 0usize..3,
        jobs_idx in 0usize..3,
    ) {
        let p = random_fx10(rand_cfg(seed, methods, stmts, depth));
        let config = ExploreConfig {
            max_states: 20_000,
            ..digest_config()
        };
        let cloned = reference(&p, config);
        prop_assume!(!cloned.truncated);

        let one = parallel(&p, config, 1);
        let many = parallel(&p, config, JOBS[jobs_idx]);
        for (label, got) in [("jobs=1", &one), ("jobs=N", &many)] {
            prop_assert_eq!(&cloned.state_digests, &got.state_digests, "{}", label);
            prop_assert_eq!(&cloned.mhp, &got.mhp, "{}", label);
            prop_assert_eq!(cloned.visited, got.visited, "{}", label);
            prop_assert_eq!(cloned.terminals, got.terminals, "{}", label);
            prop_assert_eq!(cloned.deadlock_free, got.deadlock_free, "{}", label);
        }

        // Identical MHP-soundness verdicts: the static analysis covers
        // the dynamic pairs of every engine or none.
        let a = fx10::analysis::analyze(&p);
        let verdict_ref = a.check_soundness(cloned.mhp.iter()).is_sound();
        let verdict_par = a.check_soundness(many.mhp.iter()).is_sound();
        prop_assert_eq!(verdict_ref, verdict_par);
        prop_assert!(verdict_ref, "Theorem 2 must hold on the ground truth");
    }

    /// Satellite: inject a checkpoint → kill → resume cycle into the
    /// parallel engine on random programs; the stitched-together run
    /// must still equal the sequential oracle exactly.
    #[test]
    fn random_programs_survive_a_checkpoint_kill_resume_cycle(
        seed in 0u64..10_000,
        stmts in 1usize..5,
        depth in 0usize..3,
        jobs_idx in 0usize..3,
        every in 1usize..6,
    ) {
        let p = random_fx10(rand_cfg(seed, 2, stmts, depth));
        let config = ExploreConfig {
            max_states: 20_000,
            ..digest_config()
        };
        let cloned = reference(&p, config);
        prop_assume!(!cloned.truncated);
        let jobs = JOBS[jobs_idx];
        let path = temp_snap("prop");
        let res = explore_parallel_durable(
            &p, &[], config, jobs,
            Budget::unlimited(), &CancelToken::new(),
            &FaultPlan { kill_at_checkpoint: Some(1), ..FaultPlan::none() },
            Durability {
                checkpoint: Some(CheckpointSpec { path: path.clone(), every }),
                resume: None,
                watchdog: None,
            },
        );
        let got = match res {
            Err(Fx10Error::Cancelled) => {
                let snap = ExplorerSnapshot::load(&path).expect("snapshot on disk");
                explore_parallel_durable(
                    &p, &[], config, jobs,
                    Budget::unlimited(), &CancelToken::new(), &FaultPlan::none(),
                    Durability { checkpoint: None, resume: Some(&snap), watchdog: None },
                ).expect("resume must succeed")
            }
            // Small programs can finish before the first checkpoint.
            Ok(e) => e,
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                panic!("unexpected error: {e:?}");
            }
        };
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&cloned.state_digests, &got.state_digests);
        prop_assert_eq!(&cloned.mhp, &got.mhp);
        prop_assert_eq!(cloned.visited, got.visited);
        prop_assert_eq!(cloned.terminals, got.terminals);
        prop_assert_eq!(cloned.deadlock_free, got.deadlock_free);
    }

    /// Canonical dedup on random programs: verdict-preserving, never
    /// space-growing (interned parallel engine at canonical vs literal).
    #[test]
    fn canonical_dedup_is_verdict_preserving_on_random_programs(
        seed in 0u64..10_000,
        stmts in 1usize..5,
        depth in 0usize..3,
    ) {
        let p = random_fx10(rand_cfg(seed, 2, stmts, depth));
        let literal = parallel(
            &p,
            ExploreConfig { max_states: 20_000, canonical_dedup: false, ..ExploreConfig::default() },
            2,
        );
        prop_assume!(!literal.truncated);
        let canon = parallel(
            &p,
            ExploreConfig { max_states: 20_000, ..ExploreConfig::default() },
            2,
        );
        prop_assert_eq!(&literal.mhp, &canon.mhp);
        prop_assert_eq!(literal.deadlock_free, canon.deadlock_free);
        prop_assert_eq!(literal.terminals, canon.terminals);
        prop_assert!(canon.visited <= literal.visited);
    }
}
