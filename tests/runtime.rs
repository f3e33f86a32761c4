//! The runtime's two differential oracles, executed for real.
//!
//! - **Sequential elision** (FX10's defining property, §2): for
//!   race-free programs, running every `async` inline, serially, is
//!   *indistinguishable* from any parallel schedule. Elision is the
//!   work-stealing crew at one worker with every `async` inlined, so we
//!   run it against the crew at `jobs ∈ {1, 2, 8}` across many schedule
//!   seeds and demand identical final arrays, step counts, and
//!   termination verdicts: the result must not depend on the schedule.
//!   Because both sides share one executor, elision's final array is
//!   also checked against the single-path walker's leftmost run, an
//!   engine that shares only the race detector with the crew.
//! - **Dynamic ⊆ static** (Theorem 2 as an executable oracle): every
//!   race pair the vector-clock detector observes on a real run must be
//!   contained in the explorer's exact dynamic MHP and in the
//!   context-sensitive static over-approximation. A detected race
//!   *outside* the static relation would be a counterexample to the
//!   paper's soundness theorem.
//!
//! Plus the witness bridge: every race the lint suite *confirmed* with a
//! replayable schedule must replay to an actually-detected race on the
//! instrumented runtime — static analysis, bounded exploration and real
//! execution all agreeing on the same pair — and the single-path walker
//! checked against a reference walk over the semantics' own
//! `successors` enumeration.

use std::collections::BTreeSet;

use fx10::analysis::race::{accesses, detect_races_with};
use fx10::analysis::{analyze, analyze_ci};
use fx10::robust::{Budget, CancelToken, Exhaustion, FaultPlan, Fx10Error, PanicFault};
use fx10::runtime::{
    replay_detect, run_elision, run_parallel, run_scheduled, RtConfig, RunReport, Scheduler,
};
use fx10::semantics::step::{initial_tree, successors};
use fx10::semantics::{explore, ArrayState, ExploreConfig};
use fx10::suite::{random_fx10, RandomConfig};
use fx10::syntax::Program;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STEP_CAP: u64 = 400_000;

fn elide(p: &Program) -> RunReport {
    run_elision(p, &[], STEP_CAP, Budget::unlimited(), &CancelToken::new())
        .expect("elision must not fail on test programs")
}

fn par(p: &Program, jobs: usize, seed: u64) -> RunReport {
    let cfg = RtConfig {
        jobs,
        seed,
        grain: 0,
        max_steps: STEP_CAP,
    };
    run_parallel(
        p,
        &[],
        &cfg,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan::none(),
    )
    .expect("parallel run must not fail on test programs")
}

/// The single-path walker's leftmost run. The walker shares only the race
/// detector with the crew, and is itself checked against `successors`
/// below; its `steps` count transitions, so only its array is comparable.
fn leftmost(p: &Program) -> RunReport {
    run_scheduled(
        p,
        &[],
        &Scheduler::Leftmost,
        STEP_CAP,
        Budget::unlimited(),
        &CancelToken::new(),
    )
    .expect("the walker must not fail on test programs")
}

fn statically_racy(p: &Program) -> bool {
    let cs = analyze(p);
    let acc = accesses(p);
    !detect_races_with(&acc, |x, y| cs.may_happen_in_parallel(x, y)).is_empty()
}

fn fixture(name: &str) -> Program {
    let path = format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Program::parse(&src).unwrap_or_else(|e| panic!("parse {path}: {e:?}"))
}

/// Every `.fx10` fixture that parses (the `bad_*` family exists to
/// exercise parse errors and is skipped).
fn all_fixtures() -> Vec<(String, Program)> {
    let dir = format!("{}/programs", env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs/ directory")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) if n.ends_with(".fx10") && !n.starts_with("bad_") => n.to_string(),
            _ => continue,
        };
        let src = std::fs::read_to_string(&path).expect("read fixture");
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("parse {name}: {e:?}"));
        out.push((name, p));
    }
    assert!(out.len() >= 10, "fixture sweep looks too small");
    out
}

// ---------------------------------------------------------------------
// Oracle (a): sequential elision on the race-free fixtures.
// ---------------------------------------------------------------------

#[test]
fn race_free_fixtures_match_elision_across_jobs_and_seeds() {
    for name in ["rt_fanout.fx10", "example22.fx10", "lint_clean.fx10"] {
        let p = fixture(name);
        assert!(!statically_racy(&p), "{name} is meant to be race-free");
        let serial = elide(&p);
        assert!(serial.completed, "{name} elision must complete");
        assert!(serial.races.is_empty(), "{name}: elision saw a race");
        let walk = leftmost(&p);
        assert!(walk.completed, "{name} walker must complete");
        assert_eq!(walk.array, serial.array, "{name}: walker vs elision");
        for jobs in [1, 2, 8] {
            for seed in 0..16u64 {
                let r = par(&p, jobs, seed);
                assert_eq!(r.array, serial.array, "{name} jobs={jobs} seed={seed}");
                assert_eq!(r.steps, serial.steps, "{name} jobs={jobs} seed={seed}");
                assert!(r.completed, "{name} jobs={jobs} seed={seed}");
                assert!(r.races.is_empty(), "{name} jobs={jobs} seed={seed}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Oracle (b): dynamic ⊆ exact dynamic MHP ⊆ CS static, fixture sweep.
// ---------------------------------------------------------------------

#[test]
fn detected_races_are_contained_in_dynamic_and_static_mhp_on_all_fixtures() {
    for (name, p) in all_fixtures() {
        let cs = analyze(&p);
        let mut observed: BTreeSet<(fx10::syntax::Label, fx10::syntax::Label)> = BTreeSet::new();
        let serial = elide(&p);
        observed.extend(serial.race_pairs());
        for (jobs, seed) in [(2, 0), (2, 3), (8, 1), (8, 7)] {
            observed.extend(par(&p, jobs, seed).race_pairs());
        }
        for &(x, y) in &observed {
            assert!(
                cs.may_happen_in_parallel(x, y),
                "{name}: detected race ({}, {}) escapes the static MHP — \
                 Theorem 2 counterexample",
                p.labels().display(x),
                p.labels().display(y)
            );
        }
        // The explorer's dynamic MHP is exact only when untruncated; on
        // the chaos fixtures the interleaving space alone overflows any
        // reasonable cap, so the middle leg is checked where exhaustive.
        let e = explore(
            &p,
            &[],
            ExploreConfig {
                max_states: 60_000,
                ..ExploreConfig::default()
            },
        );
        if !e.truncated {
            for &(x, y) in &observed {
                assert!(
                    e.mhp.contains(&(x, y)),
                    "{name}: detected race ({}, {}) not in the exact dynamic MHP",
                    p.labels().display(x),
                    p.labels().display(y)
                );
            }
        }
    }
}

#[test]
fn the_racy_fixture_pins_both_planted_pairs() {
    let p = fixture("rt_racy.fx10");
    assert!(statically_racy(&p));
    let l = |n: &str| p.labels().lookup(n).expect("fixture label");
    let want: BTreeSet<_> = [
        fx10::semantics::parallel::pair(l("W1"), l("W2")),
        fx10::semantics::parallel::pair(l("W3"), l("R1")),
    ]
    .into_iter()
    .collect();
    // The detector sees both pairs under instrumented elision (the
    // detector is schedule-independent on the executed path) and on
    // every real parallel run.
    assert_eq!(elide(&p).race_pairs(), want, "elision");
    for seed in 0..8u64 {
        assert_eq!(par(&p, 4, seed).race_pairs(), want, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Witness bridge: confirmed lint schedules replay to detected races.
// ---------------------------------------------------------------------

#[test]
fn confirmed_lint_witnesses_replay_to_detected_races() {
    use fx10::lints::{races::race_pass, Confidence};
    let mut confirmed = 0usize;
    for name in [
        "rt_racy.fx10",
        "racey.fx10",
        "lint_rw_race.fx10",
        "lint_ww_race.fx10",
    ] {
        let p = fixture(name);
        let cs = analyze(&p);
        let ci = analyze_ci(&p);
        let out = race_pass(
            &p,
            &cs,
            &ci,
            &[],
            50_000,
            None,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .expect("race pass");
        for d in &out.diagnostics {
            let (Confidence::Confirmed, Some(pair), Some(schedule)) =
                (d.confidence, d.pair, d.witness.as_ref())
            else {
                continue;
            };
            confirmed += 1;
            let r = replay_detect(&p, &[], schedule, STEP_CAP)
                .unwrap_or_else(|e| panic!("{name}: witness replay failed: {e}"));
            let want = fx10::semantics::parallel::pair(pair.0, pair.1);
            assert!(
                r.race_pairs().contains(&want),
                "{name}: confirmed witness for ({}, {}) replayed without the \
                 detector observing the race; saw {:?}",
                p.labels().display(pair.0),
                p.labels().display(pair.1),
                r.race_pairs()
            );
        }
    }
    assert!(
        confirmed >= 3,
        "witness bridge exercised only {confirmed} confirmed findings"
    );
}

// ---------------------------------------------------------------------
// Satellite 1: random-program corpus, elision vs parallel runtime.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_programs_elide_or_at_least_terminate_alike(
        seed in 0u64..10_000,
        methods in 1usize..4,
        stmts in 1usize..4,
        depth in 0usize..3,
    ) {
        let p = random_fx10(RandomConfig {
            methods,
            stmts_per_method: stmts,
            max_depth: depth,
            seed,
        });
        let racy = statically_racy(&p);
        let serial = elide(&p);
        let cs = analyze(&p);
        if !racy && serial.completed {
            let walk = leftmost(&p);
            prop_assert!(walk.completed);
            prop_assert_eq!(
                &walk.array, &serial.array,
                "race-free program: walker and elision diverged\n{}",
                fx10::syntax::pretty::program(&p)
            );
        }
        for jobs in [2usize, 8] {
            for sseed in [0u64, 1, 5] {
                let r = par(&p, jobs, sseed);
                // Same termination verdict always (random programs
                // terminate under the all-zero input, so both engines
                // complete; a step-cap trip on one must trip the other).
                prop_assert_eq!(
                    r.completed, serial.completed,
                    "jobs={} seed={}", jobs, sseed
                );
                if !racy {
                    prop_assert_eq!(
                        &r.array, &serial.array,
                        "race-free program diverged at jobs={} seed={}\n{}",
                        jobs, sseed, fx10::syntax::pretty::program(&p)
                    );
                    prop_assert_eq!(r.steps, serial.steps);
                    prop_assert!(r.races.is_empty(), "detector fired on a race-free program");
                }
                // Theorem 2 leg on whatever was detected.
                for (x, y) in r.race_pairs() {
                    prop_assert!(
                        cs.may_happen_in_parallel(x, y),
                        "detected ({}, {}) escapes static MHP",
                        p.labels().display(x),
                        p.labels().display(y)
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The single-path walker against a reference walk over `successors`.
// ---------------------------------------------------------------------

/// The reference walk: enumerate every successor, pick one as the
/// scheduler says (the same `StdRng` draw per step), repeat. Returns
/// the final array, steps taken, and the exhaustion that cut the walk.
fn reference_walk(
    p: &Program,
    input: &[i64],
    sched: &Scheduler,
    max_steps: u64,
) -> (Vec<i64>, u64, Option<Exhaustion>) {
    let mut array = ArrayState::with_input(p, input);
    let mut tree = initial_tree(p);
    let seed = if let Scheduler::Random(s) = sched {
        *s
    } else {
        0
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = 0;
    while !tree.is_done() {
        if steps == max_steps {
            return (array.cells().to_vec(), steps, Some(Exhaustion::Steps));
        }
        let mut succ = successors(p, &array, &tree);
        let i = match sched {
            Scheduler::Leftmost => 0,
            Scheduler::Rightmost => succ.len() - 1,
            Scheduler::Random(_) => rng.gen_range(0..succ.len()),
        };
        let next = succ.swap_remove(i);
        (array, tree) = (next.array, next.tree);
        steps += 1;
    }
    (array.cells().to_vec(), steps, None)
}

/// The walker and the reference agree on array, steps, completion and
/// exhaustion under all three schedulers.
fn walker_matches_reference(p: &Program, input: &[i64], max_steps: u64) -> Result<(), String> {
    for sched in [
        Scheduler::Leftmost,
        Scheduler::Rightmost,
        Scheduler::Random(0xf10),
        Scheduler::Random(3),
    ] {
        let got = run_scheduled(
            p,
            input,
            &sched,
            max_steps,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .map_err(|e| format!("{sched:?}: {e}"))?;
        let (array, steps, exhausted) = reference_walk(p, input, &sched, max_steps);
        let want = (array, steps, exhausted.is_none(), exhausted);
        let have = (got.array, got.steps, got.completed, got.exhausted);
        if have != want {
            return Err(format!("{sched:?}: walker {have:?}, reference {want:?}"));
        }
    }
    Ok(())
}

#[test]
fn walker_matches_the_reference_walk_on_every_fixture() {
    for (name, p) in all_fixtures() {
        let ones = vec![1; p.array_len()];
        for input in [&[][..], &ones] {
            walker_matches_reference(&p, input, 5_000)
                .unwrap_or_else(|e| panic!("{name} input {input:?}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn walker_matches_the_reference_walk_on_random_programs(
        seed in 0u64..10_000,
        methods in 1usize..4,
        stmts in 1usize..5,
        depth in 0usize..3,
        max_steps in 1u64..400,
    ) {
        let p = random_fx10(RandomConfig {
            methods,
            stmts_per_method: stmts,
            max_depth: depth,
            seed,
        });
        if let Err(e) = walker_matches_reference(&p, &[], max_steps) {
            prop_assert!(false, "{}\n{}", e, fx10::syntax::pretty::program(&p));
        }
    }
}

// ---------------------------------------------------------------------
// Unbounded recursion ends at the nesting limit, in every engine.
// ---------------------------------------------------------------------

#[test]
fn unbounded_recursion_exhausts_the_nesting_limit_in_every_engine() {
    for src in [
        "def f() { f(); } def main() { f(); }",
        "def f() { finish { f(); } } def main() { f(); }",
        "def f() { finish { async { f(); } } } def main() { f(); }",
    ] {
        let p = Program::parse(src).unwrap();
        let serial =
            run_elision(&p, &[], u64::MAX, Budget::unlimited(), &CancelToken::new()).unwrap();
        assert_eq!(serial.exhausted, Some(Exhaustion::Nesting), "{src}");
        assert!(!serial.completed);
        for jobs in [1, 2] {
            let cfg = RtConfig {
                jobs,
                ..RtConfig::default()
            };
            let r = run_parallel(
                &p,
                &[],
                &cfg,
                Budget::unlimited(),
                &CancelToken::new(),
                &FaultPlan::none(),
            )
            .unwrap();
            assert_eq!(r.exhausted, Some(Exhaustion::Nesting), "{src} jobs={jobs}");
            assert!(!r.completed);
        }
    }
    // The walker's tree deepens only under `finish`/`async`; a tail call
    // runs in place until the step cap.
    let p = Program::parse("def f() { finish { async { f(); } } } def main() { f(); }").unwrap();
    let r = run_scheduled(
        &p,
        &[],
        &Scheduler::Leftmost,
        u64::MAX,
        Budget::unlimited(),
        &CancelToken::new(),
    )
    .unwrap();
    assert_eq!(r.exhausted, Some(Exhaustion::Nesting));
}

// ---------------------------------------------------------------------
// The benchmark's program families, pinned.
// ---------------------------------------------------------------------

/// `width` activities, each incrementing its own cell `reps` times.
fn map_incr(width: usize, reps: usize) -> String {
    let mut src = String::from("def main() { finish {");
    for w in 0..width {
        src.push_str(" async {");
        for _ in 0..reps {
            src.push_str(&format!(" a[{w}] = a[{w}] + 1;"));
        }
        src.push_str(" }");
    }
    src + " } }"
}

/// `f_k = finish { async f_{k-1}(); async f_{k-2}(); }`; the leaves only
/// read the never-written `a[0]`.
fn fib(n: usize) -> String {
    let mut src = format!("def main() {{ f{n}(); }}\n");
    for k in (0..=n).rev() {
        if k >= 2 {
            src.push_str(&format!(
                "def f{k}() {{ finish {{ async {{ f{}(); }} async {{ f{}(); }} }} }}\n",
                k - 1,
                k - 2
            ));
        } else {
            src.push_str(&format!("def f{k}() {{ while (a[0] != 0) {{ skip; }} }}\n"));
        }
    }
    src
}

/// `w` activities of `n` increments; activity `j`'s `i`-th statement
/// bumps the shared `a[(j + i) % bins]`.
fn hist(w: usize, n: usize, bins: usize) -> String {
    let mut src = format!("array[{bins}];\ndef main() {{ finish {{");
    for j in 0..w {
        src.push_str(" async {");
        for i in 0..n {
            let c = (j + i) % bins;
            src.push_str(&format!(" a[{c}] = a[{c}] + 1;"));
        }
        src.push_str(" }");
    }
    src + " } }"
}

/// Strictly ascending: sorted and free of duplicates.
fn ascending<T: Ord>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// The detector reports the same races, activities and steps under
/// elision and on the crew at every size and seed, and the counts are
/// the ones the benchmark's run workloads were built around.
#[test]
fn benchmark_families_detect_identically_across_engines() {
    for (name, src, races, activities) in [
        ("hist(8,100,4)", hist(8, 100, 4), 70_000, 9),
        ("hist(32,25,4)", hist(32, 25, 4), 77_488, 33),
        ("fib(18)", fib(18), 0, 8_361),
        ("map_incr(8,800)", map_incr(8, 800), 0, 9),
    ] {
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let serial = elide(&p);
        assert!(serial.completed, "{name}");
        assert_eq!(serial.races.len(), races, "{name}: elision races");
        assert!(
            ascending(&serial.races),
            "{name}: elision races out of order"
        );
        assert_eq!(serial.activities, activities, "{name}: elision activities");
        for jobs in [1, 2, 8] {
            for seed in 0..4u64 {
                let r = par(&p, jobs, seed);
                assert!(r.completed, "{name} jobs={jobs} seed={seed}");
                assert!(ascending(&r.races), "{name} jobs={jobs} seed={seed}");
                assert_eq!(r.races, serial.races, "{name} jobs={jobs} seed={seed}");
                assert_eq!(r.activities, activities, "{name} jobs={jobs} seed={seed}");
                assert_eq!(r.steps, serial.steps, "{name} jobs={jobs} seed={seed}");
                if races == 0 {
                    assert_eq!(r.array, serial.array, "{name} jobs={jobs} seed={seed}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 3: runtime edge cases.
// ---------------------------------------------------------------------

#[test]
fn finish_over_zero_asyncs_is_a_no_op_barrier() {
    let p = Program::parse("def main() { finish { skip; } a[0] = 1; }").unwrap();
    let serial = elide(&p);
    assert!(serial.completed);
    assert_eq!(serial.array, vec![1]);
    for jobs in [1, 2, 8] {
        let r = par(&p, jobs, 0);
        assert_eq!(r.array, serial.array);
        assert_eq!(r.steps, serial.steps);
    }
}

#[test]
fn deeply_nested_finish_does_not_overflow_the_stack() {
    // 96 nested finish scopes, each spawning one async: the worker
    // executes finish bodies inline, so this exercises real recursion
    // depth in both engines.
    let depth = 96;
    let mut src = String::from("def main() { ");
    for _ in 0..depth {
        src.push_str("finish { async { ");
    }
    src.push_str("a[0] = a[0] + 1; ");
    for _ in 0..depth {
        src.push_str("} } ");
    }
    src.push('}');
    let p = Program::parse(&src).unwrap();
    let serial = elide(&p);
    assert!(serial.completed);
    assert_eq!(serial.array, vec![1]);
    for jobs in [1, 4] {
        for seed in 0..4u64 {
            let r = par(&p, jobs, seed);
            assert_eq!(r.array, serial.array, "jobs={jobs} seed={seed}");
            assert_eq!(r.steps, serial.steps, "jobs={jobs} seed={seed}");
        }
    }
}

#[test]
fn a_panicking_async_exits_4_with_the_latch_released() {
    // Target worker 0: it always runs the root task (item 1), so its
    // second processed item — deterministically an async task — panics
    // inside the catch_unwind region. The run must *return* (the finish
    // latch is released during unwind, nobody deadlocks) and surface the
    // panic as exit code 4. Two crew shapes: solo (the panicking worker
    // is also the finish waiter) and a 4-worker crew (the survivors must
    // observe the stop flag and shut down cleanly).
    let p = fixture("rt_fanout.fx10");
    for (jobs, after_states) in [(1u64, 2u64), (4, 1)] {
        let faults = FaultPlan {
            panic_worker: Some(PanicFault {
                worker: 0,
                after_states,
            }),
            ..FaultPlan::none()
        };
        let cfg = RtConfig {
            jobs: jobs as usize,
            seed: 0,
            grain: 0,
            max_steps: STEP_CAP,
        };
        let err = run_parallel(
            &p,
            &[],
            &cfg,
            Budget::unlimited(),
            &CancelToken::new(),
            &faults,
        )
        .expect_err("the injected panic must surface");
        assert_eq!(err.exit_code(), 4, "jobs={jobs}: got {err}");
        assert!(
            matches!(err, Fx10Error::WorkerPanicked { worker: 0, .. }),
            "jobs={jobs}: got {err}"
        );
    }
}

#[test]
fn budget_and_cancel_are_honored_mid_run() {
    // A diverging loop: only a budget trip or cancellation can stop it.
    let p = Program::parse("def main() { a[0] = 1; while (a[0] != 0) { skip; } }").unwrap();
    let cfg = RtConfig {
        jobs: 2,
        seed: 0,
        grain: 0,
        max_steps: u64::MAX,
    };

    let cancelled = CancelToken::new();
    cancelled.cancel();
    let err = run_parallel(
        &p,
        &[],
        &cfg,
        Budget::unlimited(),
        &cancelled,
        &FaultPlan::none(),
    )
    .expect_err("cancellation must stop the run");
    assert!(matches!(err, Fx10Error::Cancelled), "got {err}");

    let past = Budget {
        deadline: Some(std::time::Instant::now()),
        ..Budget::unlimited()
    };
    let r = run_parallel(&p, &[], &cfg, past, &CancelToken::new(), &FaultPlan::none())
        .expect("deadline exhaustion is a verdict, not an error");
    assert!(!r.completed);
    assert_eq!(r.exhausted, Some(Exhaustion::Deadline));

    let iters = Budget {
        max_iters: Some(500),
        ..Budget::unlimited()
    };
    let r = run_parallel(
        &p,
        &[],
        &cfg,
        iters,
        &CancelToken::new(),
        &FaultPlan::none(),
    )
    .expect("iteration exhaustion is a verdict, not an error");
    assert_eq!(r.exhausted, Some(Exhaustion::SolverIterations));

    let capped = RtConfig {
        max_steps: 1_000,
        ..cfg
    };
    let r = run_parallel(
        &p,
        &[],
        &capped,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan::none(),
    )
    .expect("step exhaustion is a verdict, not an error");
    assert_eq!(r.exhausted, Some(Exhaustion::Steps));

    // Elision honors the same knobs.
    let err = run_elision(&p, &[], u64::MAX, Budget::unlimited(), &cancelled)
        .expect_err("cancellation must stop elision");
    assert!(matches!(err, Fx10Error::Cancelled), "got {err}");
    let r = run_elision(&p, &[], 1_000, Budget::unlimited(), &CancelToken::new()).unwrap();
    assert_eq!(r.exhausted, Some(Exhaustion::Steps));
}
