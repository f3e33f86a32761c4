//! Fault-injection and resource-budget properties of the hardened
//! pipeline.
//!
//! Every engine in the workspace accepts a [`Budget`], observes a
//! [`CancelToken`] and (for the parallel engines) tolerates injected
//! worker panics. These tests drive those paths with random programs and
//! random fault plans and assert the robustness contract:
//!
//! - budget exhaustion yields a *typed, tagged, partial* result — never a
//!   panic, never a hang, and the partial answer is always a sound
//!   under-approximation of the unlimited answer;
//! - cancellation yields `Err(Fx10Error::Cancelled)`;
//! - an injected worker panic is contained and reported as
//!   `Err(Fx10Error::WorkerPanicked)` with the faulting worker's index;
//! - the CS→CI graceful-degradation path answers with a sound
//!   over-approximation (§7) of the context-sensitive analysis.

use fx10::analysis::{
    analyze_with, analyze_with_budget, analyze_with_fallback, AnalysisPath, LadderRung, Mode,
    SolverKind, Supervisor,
};
use fx10::robust::{Budget, CancelToken, Exhaustion, FaultPlan, Fx10Error, PanicFault};
use fx10::runtime::{run_scheduled, Scheduler};
use fx10::semantics::{
    explore, explore_budgeted, explore_parallel_durable, CheckpointSpec, Durability, ExploreConfig,
    ExplorerSnapshot, WatchdogSpec,
};
use fx10::suite::{random_fx10, RandomConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn cfg(seed: u64, methods: usize, stmts: usize, depth: usize) -> RandomConfig {
    RandomConfig {
        methods,
        stmts_per_method: stmts,
        max_depth: depth,
        seed,
    }
}

fn small_explore() -> ExploreConfig {
    ExploreConfig {
        max_states: 20_000,
        ..ExploreConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// P1: arbitrarily tiny budgets never panic the pipeline; the cut
    /// analysis is tagged with its exhaustion and its MHP set is a sound
    /// under-approximation of the unlimited fixpoint.
    #[test]
    fn tiny_budgets_yield_typed_partial_results(
        seed in 0u64..10_000,
        methods in 1usize..4,
        stmts in 1usize..5,
        iters in 1u64..400,
        solver_pick in 0usize..2,
    ) {
        let p = random_fx10(cfg(seed, methods, stmts, 2));
        let solver = [SolverKind::Naive, SolverKind::Worklist][solver_pick];
        let budget = Budget::unlimited().with_max_iters(iters);
        let cancel = CancelToken::new();
        let partial = analyze_with_budget(&p, Mode::ContextSensitive, solver, budget, &cancel)
            .expect("nobody cancels and no deadline is set: budget cuts are Ok(partial)");
        let full = analyze_with(&p, Mode::ContextSensitive, solver);
        prop_assert!(full.exhausted.is_none());
        // Solver iterations only ever *grow* sets, so any prefix of the
        // fixpoint computation is a subset of the fixpoint.
        prop_assert!(
            partial.mhp().is_subset(full.mhp()),
            "budget-cut MHP must under-approximate the fixpoint"
        );
        if partial.exhausted.is_none() {
            // The budget sufficed: the answers must agree exactly.
            prop_assert!(full.mhp().is_subset(partial.mhp()));
        }
    }

    /// P2: a worker panic injected at a random (worker, trigger) point is
    /// contained — the explorer either finishes (the fault never fired)
    /// or reports exactly `WorkerPanicked` for that worker. No hang, no
    /// abort, no mangled result.
    #[test]
    fn injected_worker_panics_are_contained(
        seed in 0u64..10_000,
        threads in 1usize..5,
        worker in 0usize..5,
        after in 0u64..12,
    ) {
        let p = random_fx10(cfg(seed, 2, 3, 2));
        let faults = FaultPlan {
            panic_worker: Some(PanicFault { worker, after_states: after }),
            ..FaultPlan::none()
        };
        let r = explore_parallel_durable(
            &p,
            &[],
            small_explore(),
            threads,
            Budget::unlimited(),
            &CancelToken::new(),
            &faults,
            Durability::default(),
        );
        match r {
            Ok(e) => {
                // The fault never fired (that worker saw too few items):
                // the result must equal the reference exploration.
                let reference = explore(&p, &[], small_explore());
                prop_assert_eq!(e.mhp, reference.mhp);
                prop_assert_eq!(e.deadlock_free, reference.deadlock_free);
            }
            Err(Fx10Error::WorkerPanicked { worker: w, message }) => {
                prop_assert_eq!(w, worker);
                prop_assert!(message.contains("injected fault"), "got: {}", message);
            }
            Err(other) => prop_assert!(false, "unexpected error: {:?}", other),
        }
    }

    /// P3: a pre-cancelled token stops every engine with a typed
    /// `Cancelled` error before it does any work.
    #[test]
    fn pre_cancelled_token_cancels_every_engine(
        seed in 0u64..10_000,
        methods in 1usize..4,
        stmts in 1usize..4,
    ) {
        let p = random_fx10(cfg(seed, methods, stmts, 2));
        let cancel = CancelToken::new();
        cancel.cancel();
        prop_assert_eq!(
            explore_budgeted(&p, &[], small_explore(), Budget::unlimited(), &cancel)
                .map(|_| ())
                .unwrap_err(),
            Fx10Error::Cancelled
        );
        prop_assert_eq!(
            analyze_with_budget(
                &p,
                Mode::ContextSensitive,
                SolverKind::Worklist,
                Budget::unlimited(),
                &cancel,
            )
            .map(|_| ())
            .unwrap_err(),
            Fx10Error::Cancelled
        );
        prop_assert_eq!(
            run_scheduled(&p, &[], &Scheduler::Leftmost, u64::MAX, Budget::unlimited(), &cancel)
                .map(|_| ())
                .unwrap_err(),
            Fx10Error::Cancelled
        );
    }

    /// P4: graceful degradation. When the context-sensitive analysis is
    /// cut by its budget, the fallback answers with the context-
    /// insensitive baseline — a sound over-approximation of the full CS
    /// fixpoint (§7) — and records why it degraded.
    #[test]
    fn fallback_is_a_sound_overapproximation(
        seed in 0u64..10_000,
        methods in 1usize..4,
        stmts in 1usize..5,
        cs_iters in 1u64..200,
    ) {
        let p = random_fx10(cfg(seed, methods, stmts, 2));
        let cancel = CancelToken::new();
        let out = analyze_with_fallback(
            &p,
            SolverKind::Worklist,
            Budget::unlimited().with_max_iters(cs_iters),
            Budget::unlimited(),
            &cancel,
        )
        .expect("fallback under an unlimited CI budget always answers");
        let full_cs = analyze_with(&p, Mode::ContextSensitive, SolverKind::Worklist);
        match out.path {
            AnalysisPath::ContextSensitive => {
                prop_assert!(out.cs_exhaustion.is_none());
                prop_assert!(out.analysis.exhausted.is_none());
                prop_assert!(out.analysis.mhp().is_subset(full_cs.mhp()));
                prop_assert!(full_cs.mhp().is_subset(out.analysis.mhp()));
            }
            AnalysisPath::ContextInsensitiveFallback => {
                prop_assert!(out.cs_exhaustion.is_some(), "fallback must record why");
                // The CI budget was unlimited, so the degraded answer is
                // complete — and over-approximates the CS fixpoint.
                prop_assert!(out.analysis.exhausted.is_none());
                prop_assert!(
                    full_cs.mhp().is_subset(out.analysis.mhp()),
                    "CI fallback must over-approximate CS"
                );
            }
        }
    }

    /// P5: the single-path walker respects its budgets: it either
    /// completes or tags the outcome with the budget that ended it —
    /// never both, never neither.
    #[test]
    fn interpreter_budgets_are_tagged(
        seed in 0u64..10_000,
        steps in 1u64..60,
    ) {
        let p = random_fx10(cfg(seed, 2, 4, 2));
        let out = run_scheduled(
            &p,
            &[],
            &Scheduler::Random(seed),
            steps,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .expect("no cancellation, no deadline");
        if out.completed {
            prop_assert!(out.exhausted.is_none());
            prop_assert!(out.steps <= steps);
        } else {
            prop_assert_eq!(out.exhausted, Some(Exhaustion::Steps));
            prop_assert_eq!(out.steps, steps);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault-injection and budget unit tests
// ---------------------------------------------------------------------------

fn fork_join() -> fx10::syntax::Program {
    fx10::syntax::Program::parse(
        "def inc() { a[0] = a[0] + 1; }\n\
         def main() {\n\
           finish { async { inc(); } async { inc(); } async { inc(); inc(); } }\n\
           a[1] = 1;\n\
         }",
    )
    .expect("fixture parses")
}

#[test]
fn forced_budget_trip_tags_the_partial_exploration() {
    let p = fork_join();
    let e = explore_parallel_durable(
        &p,
        &[],
        small_explore(),
        2,
        Budget::unlimited().with_max_states(1),
        &CancelToken::new(),
        &FaultPlan::none(),
        Durability::default(),
    )
    .expect("a forced budget trip is a partial result, not an error");
    assert!(e.truncated);
    assert_eq!(e.exhausted, Some(Exhaustion::States));
    // The partial dynamic MHP is an under-approximation of the full one.
    let full = explore(&p, &[], small_explore());
    assert!(e.mhp.iter().all(|pr| full.mhp.contains(pr)));
}

#[test]
fn deterministic_injected_panic_reports_worker_zero() {
    let p = fork_join();
    let faults = FaultPlan {
        panic_worker: Some(PanicFault {
            worker: 0,
            after_states: 0,
        }),
        ..FaultPlan::none()
    };
    let r = explore_parallel_durable(
        &p,
        &[],
        small_explore(),
        1,
        Budget::unlimited(),
        &CancelToken::new(),
        &faults,
        Durability::default(),
    );
    match r {
        Err(Fx10Error::WorkerPanicked { worker, message }) => {
            assert_eq!(worker, 0);
            assert!(message.contains("injected fault"));
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn mid_flight_cancellation_is_typed_and_prompt() {
    // A program with enough interleavings that exploration takes a while;
    // a helper thread cancels shortly after the exploration starts.
    let p = random_fx10(cfg(7, 4, 6, 3));
    let cancel = CancelToken::new();
    let canceller = {
        let token = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        })
    };
    let started = Instant::now();
    let r = explore_budgeted(
        &p,
        &[],
        ExploreConfig {
            max_states: 5_000_000,
            ..ExploreConfig::default()
        },
        Budget::unlimited(),
        &cancel,
    );
    let elapsed = started.elapsed();
    canceller.join().unwrap();
    // Either the space was tiny and exploration won the race, or the
    // cancellation arrived — in which case it must surface typed and the
    // engine must not have kept running to completion of a huge space.
    match r {
        Ok(e) => assert!(!e.truncated, "an uncancelled run must be complete"),
        Err(err) => {
            assert_eq!(err, Fx10Error::Cancelled);
            assert!(
                elapsed < Duration::from_secs(20),
                "cancellation must be prompt, took {elapsed:?}"
            );
        }
    }
}

#[test]
fn adversarial_schedule_is_semantically_invisible() {
    let p = fork_join();
    let faults = FaultPlan {
        adversarial_schedule: true,
        ..FaultPlan::none()
    };
    let lifo = explore_parallel_durable(
        &p,
        &[],
        small_explore(),
        2,
        Budget::unlimited(),
        &CancelToken::new(),
        &faults,
        Durability::default(),
    )
    .expect("scheduling order must not introduce failures");
    let fifo = explore(&p, &[], small_explore());
    assert_eq!(lifo.mhp, fifo.mhp);
    assert_eq!(lifo.visited, fifo.visited);
    assert_eq!(lifo.deadlock_free, fifo.deadlock_free);
}

#[test]
fn expired_deadline_cuts_analysis_with_provenance() {
    let p = fork_join();
    let budget = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
    let a = analyze_with_budget(
        &p,
        Mode::ContextSensitive,
        SolverKind::Worklist,
        budget,
        &CancelToken::new(),
    )
    .expect("deadline exhaustion is a tagged partial result");
    assert_eq!(a.exhausted, Some(Exhaustion::Deadline));
}

// ---------------------------------------------------------------------------
// Malformed-input fixtures: parsing is total and panic-free
// ---------------------------------------------------------------------------

#[test]
fn malformed_fixtures_produce_typed_parse_errors() {
    for (path, needle) in [
        ("programs/bad_unclosed.fx10", "expected `}`"),
        ("programs/bad_unknown_method.fx10", "unknown method"),
        ("programs/bad_token.fx10", "unexpected character"),
    ] {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let err = fx10::syntax::Program::parse(&src)
            .err()
            .unwrap_or_else(|| panic!("{path} must fail to parse"));
        assert!(
            err.message.contains(needle),
            "{path}: expected `{needle}` in `{}`",
            err.message
        );
    }
}

#[test]
fn program_without_main_degrades_to_the_empty_analysis() {
    let src = std::fs::read_to_string("programs/bad_no_main.fx10").unwrap();
    let p = fx10::syntax::Program::parse(&src).expect("no-main program still parses");
    // Every engine treats the missing main as an empty program rather
    // than panicking.
    let a = analyze_with(&p, Mode::ContextSensitive, SolverKind::Naive);
    assert_eq!(a.mhp().len(), 0);
    let e = explore(&p, &[], small_explore());
    assert!(e.deadlock_free);
    assert!(e.mhp.is_empty());
}

// ---------------------------------------------------------------------------
// Durable exploration: watchdog and degradation-ladder integration
// ---------------------------------------------------------------------------

fn temp_snap(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fx10-{tag}-{}-{n}.fxsnap", std::process::id()))
}

/// A wedged worker (no heartbeat, no progress, no exit) is detected by
/// the watchdog and surfaced as a typed `WorkerStalled` for exactly that
/// worker — and the stall still leaves a usable final checkpoint behind:
/// resuming from it without the fault completes to the full reference.
#[test]
fn watchdog_converts_a_wedged_worker_into_a_typed_stall() {
    let p = fork_join();
    let path = temp_snap("robust-wedge");
    let faults = FaultPlan {
        wedge_worker: Some(PanicFault {
            worker: 0,
            after_states: 0,
        }),
        ..FaultPlan::none()
    };
    let r = explore_parallel_durable(
        &p,
        &[],
        small_explore(),
        2,
        Budget::unlimited(),
        &CancelToken::new(),
        &faults,
        Durability {
            checkpoint: Some(CheckpointSpec {
                path: path.clone(),
                every: 5,
            }),
            resume: None,
            watchdog: Some(WatchdogSpec {
                stall_after: Duration::from_millis(150),
                poll: Duration::from_millis(10),
            }),
        },
    );
    match r {
        Err(Fx10Error::WorkerStalled { worker, stalled_ms }) => {
            assert_eq!(worker, 0);
            assert!(stalled_ms >= 150, "frozen for only {stalled_ms} ms");
        }
        other => panic!("expected WorkerStalled, got {other:?}"),
    }
    let snap = ExplorerSnapshot::load(&path).expect("a stall must leave a final checkpoint");
    let resumed = explore_parallel_durable(
        &p,
        &[],
        small_explore(),
        2,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan::none(),
        Durability {
            checkpoint: None,
            resume: Some(&snap),
            watchdog: None,
        },
    )
    .expect("resuming the post-stall checkpoint completes");
    let reference = explore(&p, &[], small_explore());
    assert_eq!(resumed.visited, reference.visited);
    assert_eq!(resumed.mhp, reference.mhp);
    assert_eq!(resumed.deadlock_free, reference.deadlock_free);
    assert_eq!(resumed.terminals, reference.terminals);
    let _ = std::fs::remove_file(&path);
}

/// A wedge that defeats every parallel attempt sends the supervisor down
/// to the sequential rung, which still answers with the *exact* dynamic
/// MHP relation — and the trace records the stalls and the retries.
#[test]
fn supervisor_answers_on_the_sequential_rung_under_a_persistent_wedge() {
    let p = fork_join();
    let faults = FaultPlan {
        wedge_worker: Some(PanicFault {
            worker: 0,
            after_states: 0,
        }),
        ..FaultPlan::none()
    };
    let sup = Supervisor {
        jobs: 2,
        stall_after: Duration::from_millis(150),
        poll: Duration::from_millis(10),
        ..Supervisor::default()
    };
    let ans = sup
        .run(&p, &[], &CancelToken::new(), &faults)
        .expect("the ladder always answers when nobody cancels");
    assert_eq!(ans.rung, LadderRung::SequentialExplore);
    assert!(ans.rung.is_dynamic());
    assert_eq!(ans.deadlock_free, Some(true));
    let reference = explore(&p, &[], ExploreConfig::default());
    assert_eq!(ans.pairs, reference.mhp);
    assert!(
        ans.trace.iter().any(|l| l.contains("stalled")),
        "trace must record the stall: {:?}",
        ans.trace
    );
    assert!(
        ans.trace.iter().any(|l| l == "retrying with 1 jobs"),
        "trace must record the halved retry: {:?}",
        ans.trace
    );
}

/// When dynamic exploration is infeasible within the state budget the
/// supervisor descends to the static rungs, whose answer soundly
/// over-approximates the dynamic relation (Theorem 2).
#[test]
fn supervisor_descends_to_a_static_rung_when_exploration_is_infeasible() {
    let p = fork_join();
    let sup = Supervisor {
        explore_config: ExploreConfig {
            max_states: 2,
            ..ExploreConfig::default()
        },
        ..Supervisor::default()
    };
    let ans = sup
        .run(&p, &[], &CancelToken::new(), &FaultPlan::none())
        .expect("the static rungs never refuse");
    assert_eq!(ans.rung, LadderRung::ContextSensitive);
    assert!(!ans.rung.is_dynamic());
    assert_eq!(ans.deadlock_free, None);
    let reference = explore(&p, &[], ExploreConfig::default());
    for &(x, y) in &reference.mhp {
        assert!(
            ans.pairs.contains(&(x.min(y), x.max(y))),
            "static rung must cover dynamic pair ({x}, {y})"
        );
    }
}
