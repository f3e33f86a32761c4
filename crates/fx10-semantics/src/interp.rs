//! An interpreter for FX10: repeatedly picks one enabled transition.
//!
//! All nondeterminism in FX10 comes from the interleaving of `∥`; a
//! [`Scheduler`] resolves it. The interpreter is the executable face of
//! the calculus — by Theorem 1 it can only stop by completing (`√`) or by
//! exhausting its step budget, never by deadlock.

use crate::state::ArrayState;
use crate::step::{initial_tree, successors};

use fx10_robust::{Budget, CancelToken, Exhaustion, Fx10Error};
use fx10_syntax::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A policy for choosing among the enabled transitions of a state.
#[derive(Debug, Clone)]
pub enum Scheduler {
    /// Always take the first enabled transition (depth-first into async
    /// bodies: spawned work runs before its spawner's continuation).
    Leftmost,
    /// Always take the last enabled transition (continuations run before
    /// spawned bodies — an adversarial schedule for async-heavy code).
    Rightmost,
    /// Uniform random choice with the given seed (reproducible).
    Random(u64),
}

/// The result of running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Final array state.
    pub array: ArrayState,
    /// Steps taken.
    pub steps: u64,
    /// True when the tree reached `√`; false when a budget ran out.
    pub completed: bool,
    /// Which budget ended an incomplete run (`None` for completed runs).
    pub exhausted: Option<Exhaustion>,
}

/// Runs `p` from `(A₀, ⟨s₀⟩)` with the given scheduler and step budget.
///
/// `input` initializes the array (padded with zeros). Returns the final
/// state; `completed` distinguishes termination from budget exhaustion
/// (FX10 is Turing-complete, so nontermination is possible).
pub fn run(p: &Program, input: &[i64], scheduler: Scheduler, max_steps: u64) -> RunOutcome {
    match run_budgeted(
        p,
        input,
        scheduler,
        max_steps,
        Budget::unlimited(),
        &CancelToken::new(),
    ) {
        Ok(out) => out,
        // Unreachable (nobody holds the token, no deadline) — degrade
        // rather than panic on a library path.
        Err(_) => RunOutcome {
            array: ArrayState::with_input(p, input),
            steps: 0,
            completed: false,
            exhausted: Some(Exhaustion::Steps),
        },
    }
}

/// How often the interpreter polls the wall clock and cancel token.
const POLL_STRIDE: u64 = 256;

/// As [`run`], but additionally honoring a [`Budget`]'s wall-clock
/// deadline and a [`CancelToken`]. Deadline expiry returns the partial
/// outcome tagged [`Exhaustion::Deadline`]; cancellation returns
/// [`Fx10Error::Cancelled`].
pub fn run_budgeted(
    p: &Program,
    input: &[i64],
    scheduler: Scheduler,
    max_steps: u64,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<RunOutcome, Fx10Error> {
    let mut array = ArrayState::with_input(p, input);
    let mut tree = initial_tree(p);
    let mut rng = match &scheduler {
        Scheduler::Random(seed) => Some(StdRng::seed_from_u64(*seed)),
        _ => None,
    };
    let mut steps = 0u64;
    while !tree.is_done() {
        if steps >= max_steps {
            return Ok(RunOutcome {
                array,
                steps,
                completed: false,
                exhausted: Some(Exhaustion::Steps),
            });
        }
        if steps.is_multiple_of(POLL_STRIDE) {
            cancel.check()?;
            if budget.deadline_exceeded() {
                return Ok(RunOutcome {
                    array,
                    steps,
                    completed: false,
                    exhausted: Some(Exhaustion::Deadline),
                });
            }
        }
        let succ = successors(p, &array, &tree);
        debug_assert!(!succ.is_empty(), "deadlock-freedom violated");
        let idx = match &scheduler {
            Scheduler::Leftmost => 0,
            Scheduler::Rightmost => succ.len() - 1,
            Scheduler::Random(_) => rng.as_mut().unwrap().gen_range(0..succ.len()),
        };
        let chosen = succ.into_iter().nth(idx).unwrap();
        array = chosen.array;
        tree = chosen.tree;
        steps += 1;
    }
    Ok(RunOutcome {
        array,
        steps,
        completed: true,
        exhausted: None,
    })
}

/// Convenience: run to completion with a large budget and return `a[0]`,
/// or `None` if the budget was exhausted.
pub fn run_result(p: &Program, input: &[i64], scheduler: Scheduler) -> Option<i64> {
    let out = run(p, input, scheduler, 10_000_000);
    out.completed.then(|| out.array.result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_syntax::examples;

    #[test]
    fn straight_line_program_terminates() {
        let p = Program::parse("def main() { a[0] = 7; }").unwrap();
        let out = run(&p, &[], Scheduler::Leftmost, 100);
        assert!(out.completed);
        assert_eq!(out.array.result(), 7);
    }

    #[test]
    fn all_schedulers_agree_on_confluent_program() {
        // add_twice: a[1] = 1 triggers two bump() calls under a finish;
        // final a[2] = 2 and a[0] = 0 regardless of interleaving.
        let p = examples::add_twice();
        for s in [
            Scheduler::Leftmost,
            Scheduler::Rightmost,
            Scheduler::Random(1),
            Scheduler::Random(42),
        ] {
            let out = run(&p, &[0, 1, 0], s, 100_000);
            assert!(out.completed);
            assert_eq!(out.array.get(2), 2);
            assert_eq!(out.array.result(), 0);
        }
    }

    #[test]
    fn counting_loop_computes_value() {
        // a[0] := a[1] copies by repeated increment: while(a[1]!=0) is not
        // directly decrementable, so use a bounded trick: loop once.
        let p = Program::parse(
            "def main() {\n\
               while (a[1] != 0) { a[0] = a[0] + 1; a[1] = 0; }\n\
             }",
        )
        .unwrap();
        assert_eq!(run_result(&p, &[10, 5], Scheduler::Leftmost), Some(11));
        assert_eq!(run_result(&p, &[10, 0], Scheduler::Leftmost), Some(10));
    }

    #[test]
    fn nonterminating_program_exhausts_budget() {
        let p = Program::parse("def main() { a[0] = 1; while (a[0] != 0) { skip; } }").unwrap();
        let out = run(&p, &[], Scheduler::Leftmost, 1000);
        assert!(!out.completed);
        assert_eq!(out.steps, 1000);
    }

    #[test]
    fn recursion_via_calls_works() {
        // f decrements-ish: not expressible; instead test unbounded
        // recursion halts on budget and bounded call chains complete.
        let p = Program::parse(
            "def g() { a[0] = a[0] + 1; }\n\
             def f() { g(); g(); }\n\
             def main() { f(); f(); }",
        )
        .unwrap();
        assert_eq!(run_result(&p, &[], Scheduler::Rightmost), Some(4));
    }

    #[test]
    fn race_outcome_depends_on_schedule() {
        // async writes 1, continuation writes 2: both final values are
        // possible under different schedulers.
        let p = Program::parse("def main() { async { a[0] = 1; } a[0] = 2; }").unwrap();
        let left = run_result(&p, &[], Scheduler::Leftmost).unwrap();
        let right = run_result(&p, &[], Scheduler::Rightmost).unwrap();
        assert_eq!((left, right), (2, 1));
    }

    #[test]
    fn finish_orders_writes() {
        // Same race wrapped in finish: the async body must complete first.
        let p = Program::parse("def main() { finish { async { a[0] = 1; } } a[0] = 2; }").unwrap();
        for s in [
            Scheduler::Leftmost,
            Scheduler::Rightmost,
            Scheduler::Random(7),
        ] {
            assert_eq!(run_result(&p, &[], s), Some(2));
        }
    }
}
