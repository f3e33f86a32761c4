//! The single-path walker: run a program along one schedule of the
//! small-step semantics, race detector on.
//!
//! The walker executes over a clock-carrying mirror of the execution
//! tree — [`CTree`] — whose move enumeration reproduces
//! [`fx10_semantics::step::successors`]'s deterministic order ("rule
//! number, then left-to-right") exactly:
//!
//! * `T₁ ▷ T₂`: rule (1) when `T₁ = √` (exactly one move), else the
//!   moves of `T₁`;
//! * `T₁ ∥ T₂`: rule (3) if `T₁ = √`, then rule (4) if `T₂ = √`, then
//!   the moves of `T₁`, then the moves of `T₂`;
//! * `⟨s⟩`: the unique statement step, rules (7)–(14).
//!
//! Every node carries an accumulator of *completed* activities' final
//! clocks: eliminating `√` from a `∥` folds its accumulator into the
//! survivor **without** creating a happens-before edge (a completed
//! `async` orders nothing), while rule (1) — the `finish` join — joins
//! the left tree's accumulator into the continuation's *active* clock.
//! The unit tests validate the mirror by lockstep comparison against
//! `successors` on every fixture and on random programs.
//!
//! Each step takes its choice from one of two sources:
//!
//! * [`run_scheduled`] asks a [`Scheduler`] policy — leftmost,
//!   rightmost or seeded random — at every step (`fx10 run --sched`);
//! * [`replay_detect`] replays an explorer witness schedule (the lint
//!   suite's confirmed races). A witness ends at a state where the
//!   racing pair is merely *co-enabled*, so after consuming it the walk
//!   continues leftmost (choice 0) to completion: both accesses then
//!   execute and the detector reports the pair.
//!
//! `steps` counts transitions, `√`-eliminating ones included; the tree's
//! depth is capped at [`MAX_NESTING`] ([`Exhaustion::Nesting`]).

use crate::detect::{Detector, VClock};
use crate::{RunReport, MAX_NESTING};
use fx10_robust::{Budget, CancelToken, Exhaustion, Fx10Error};
use fx10_semantics::ArrayState;
#[cfg(test)]
use fx10_semantics::Tree;
use fx10_syntax::{Expr, Label, Program, Stmt};
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

/// A clock-carrying execution tree. `acc` accumulates the final clocks
/// of activities that completed *at this position* (folded upward by the
/// `√`-elimination rules, joined into a waiter by rule (1)).
struct CTree {
    acc: VClock,
    node: CNode,
}

enum CNode {
    Done,
    Stm { stmt: Stmt, tid: u32, clock: VClock },
    Seq { l: Box<CTree>, r: Box<CTree> },
    Par { l: Box<CTree>, r: Box<CTree> },
}

impl CTree {
    fn done(acc: VClock) -> CTree {
        CTree {
            acc,
            node: CNode::Done,
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.node, CNode::Done)
    }

    /// Number of enabled moves — `successors(p, a, t).len()` for the
    /// mirrored tree.
    fn moves(&self) -> usize {
        match &self.node {
            CNode::Done => 0,
            CNode::Stm { .. } => 1,
            CNode::Seq { l, .. } => {
                if l.is_done() {
                    1
                } else {
                    l.moves()
                }
            }
            CNode::Par { l, r } => {
                usize::from(l.is_done()) + usize::from(r.is_done()) + l.moves() + r.moves()
            }
        }
    }

    /// The plain [`Tree`] this mirrors (clocks erased) — the lockstep
    /// validation hook.
    #[cfg(test)]
    fn to_tree(&self) -> Tree {
        match &self.node {
            CNode::Done => Tree::Done,
            CNode::Stm { stmt, .. } => Tree::stm(stmt.clone()),
            CNode::Seq { l, r } => Tree::seq(l.to_tree(), r.to_tree()),
            CNode::Par { l, r } => Tree::par(l.to_tree(), r.to_tree()),
        }
    }
}

/// Rule (1)'s join edge: everything the finished body completed
/// happens-before every activity still alive in the continuation.
fn join_hb(t: &mut CTree, acc: &VClock) {
    match &mut t.node {
        CNode::Done => t.acc.join(acc),
        CNode::Stm { clock, .. } => clock.join(acc),
        CNode::Seq { l, r } | CNode::Par { l, r } => {
            join_hb(l, acc);
            join_hb(r, acc);
        }
    }
}

/// A step would nest the tree deeper than [`MAX_NESTING`].
struct TooDeep;

struct Rctx<'a> {
    p: &'a Program,
    cells: Vec<i64>,
    detector: Detector,
    next_tid: u32,
}

impl<'a> Rctx<'a> {
    fn new(p: &'a Program, input: &[i64]) -> Self {
        let cells = ArrayState::with_input(p, input).cells().to_vec();
        Rctx {
            p,
            detector: Detector::new(cells.len()),
            cells,
            next_tid: 1,
        }
    }

    fn eval(&mut self, e: &Expr, label: Label, tid: u32, clock: &VClock) -> i64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Plus1(d) => {
                self.detector.on_read(*d, label, tid, clock);
                self.cells[*d].wrapping_add(1)
            }
        }
    }

    /// Rules (7)–(14): the unique step of a leaf at `depth`,
    /// instrumented.
    fn step_leaf(
        &mut self,
        acc: VClock,
        stmt: Stmt,
        tid: u32,
        mut clock: VClock,
        depth: usize,
    ) -> Result<CTree, TooDeep> {
        use fx10_syntax::InstrKind::*;
        let head = stmt.head();
        let label = head.label;
        if depth >= MAX_NESTING && matches!(head.kind, Async { .. } | Finish { .. }) {
            return Err(TooDeep);
        }
        // `⟨k⟩`, or `√` folding the activity's final clock into the
        // position's accumulator.
        let cont = |acc: VClock, clock: VClock, stmt: &Stmt| match stmt.tail() {
            Some(k) => CTree {
                acc,
                node: CNode::Stm {
                    stmt: k,
                    tid,
                    clock,
                },
            },
            None => {
                let mut a = acc;
                a.join(&clock);
                CTree::done(a)
            }
        };
        Ok(match head.kind.clone() {
            Skip => cont(acc, clock, &stmt),
            Assign { idx, expr } => {
                let v = self.eval(&expr, label, tid, &clock);
                self.detector.on_write(idx, label, tid, &clock);
                self.cells[idx] = v;
                cont(acc, clock, &stmt)
            }
            While { idx, body } => {
                self.detector.on_read(idx, label, tid, &clock);
                if self.cells[idx] == 0 {
                    cont(acc, clock, &stmt)
                } else {
                    CTree {
                        acc,
                        node: CNode::Stm {
                            stmt: body.seq(stmt),
                            tid,
                            clock,
                        },
                    }
                }
            }
            Async { body } => {
                let child_tid = self.next_tid;
                self.next_tid += 1;
                let child_clock = VClock::fork(&mut clock, tid, child_tid);
                let child = CTree {
                    acc: VClock::new(),
                    node: CNode::Stm {
                        stmt: body,
                        tid: child_tid,
                        clock: child_clock,
                    },
                };
                let k = cont(VClock::new(), clock, &stmt);
                CTree {
                    acc,
                    node: CNode::Par {
                        l: Box::new(child),
                        r: Box::new(k),
                    },
                }
            }
            Finish { body } => {
                let body_leaf = CTree {
                    acc: VClock::new(),
                    node: CNode::Stm {
                        stmt: body,
                        tid,
                        clock: clock.clone(),
                    },
                };
                let k = cont(VClock::new(), clock, &stmt);
                CTree {
                    acc,
                    node: CNode::Seq {
                        l: Box::new(body_leaf),
                        r: Box::new(k),
                    },
                }
            }
            Call { callee } => {
                let body = self.p.body(callee).clone();
                let unrolled = match stmt.tail() {
                    Some(k) => body.seq(k),
                    None => body,
                };
                CTree {
                    acc,
                    node: CNode::Stm {
                        stmt: unrolled,
                        tid,
                        clock,
                    },
                }
            }
        })
    }

    /// Applies move `n` of the mirrored enumeration to `t` in place; `t`
    /// sits `depth` levels below the root.
    fn apply(&mut self, t: &mut CTree, n: usize, depth: usize) -> Result<(), TooDeep> {
        let survivor = match &mut t.node {
            CNode::Done => unreachable!("√ has no moves"),
            CNode::Stm { .. } => {
                let CTree {
                    acc,
                    node: CNode::Stm { stmt, tid, clock },
                } = take(t)
                else {
                    unreachable!("matched a leaf")
                };
                *t = self.step_leaf(acc, stmt, tid, clock, depth)?;
                return Ok(());
            }
            CNode::Seq { l, r } => {
                if !l.is_done() {
                    return self.apply(l, n, depth + 1);
                }
                // Rule (1): the finish join.
                let mut out = take(r);
                join_hb(&mut out, &l.acc);
                out
            }
            CNode::Par { l, r } => {
                let (l_done, r_done) = (l.is_done(), r.is_done());
                if l_done && n == 0 {
                    // Rule (3): fold, no happens-before edge.
                    let mut out = take(r);
                    out.acc.join(&l.acc);
                    out
                } else if r_done && n == usize::from(l_done) {
                    // Rule (4).
                    let mut out = take(l);
                    out.acc.join(&r.acc);
                    out
                } else {
                    let n = n - usize::from(l_done) - usize::from(r_done);
                    let lm = l.moves();
                    return if n < lm {
                        self.apply(l, n, depth + 1)
                    } else {
                        self.apply(r, n - lm, depth + 1)
                    };
                }
            }
        };
        // A `√`-eliminating rule: the survivor takes `t`'s place and its
        // accumulator.
        let acc = std::mem::take(&mut t.acc);
        *t = survivor;
        t.acc.join(&acc);
        Ok(())
    }
}

/// Moves `t` out, leaving a `√` behind.
fn take(t: &mut CTree) -> CTree {
    std::mem::replace(t, CTree::done(VClock::new()))
}

fn initial(p: &Program) -> CTree {
    let mut clock = VClock::new();
    clock.bump(0);
    CTree {
        acc: VClock::new(),
        node: CNode::Stm {
            stmt: p.body(p.main()).clone(),
            tid: 0,
            clock,
        },
    }
}

/// How often the walker polls the cancel token and the deadline.
const POLL_STRIDE: u64 = 256;

/// Walks `p` from its initial state, taking each step's choice from
/// `choose`, until the tree completes or a limit ends the walk.
fn walk(
    p: &Program,
    input: &[i64],
    max_steps: u64,
    budget: Budget,
    cancel: &CancelToken,
    mut choose: impl FnMut(&CTree) -> Result<usize, Fx10Error>,
) -> Result<RunReport, Fx10Error> {
    let mut rt = Rctx::new(p, input);
    let mut t = initial(p);
    let mut steps = 0u64;
    let exhausted = loop {
        if t.is_done() {
            break None;
        }
        if steps >= max_steps {
            break Some(Exhaustion::Steps);
        }
        if steps.is_multiple_of(POLL_STRIDE) {
            cancel.check()?;
            if budget.deadline_exceeded() {
                break Some(Exhaustion::Deadline);
            }
        }
        let n = choose(&t)?;
        if let Err(TooDeep) = rt.apply(&mut t, n, 0) {
            break Some(Exhaustion::Nesting);
        }
        steps += 1;
    };
    Ok(RunReport {
        array: rt.cells,
        steps,
        completed: exhausted.is_none(),
        exhausted,
        races: rt.detector.races(),
        activities: rt.next_tid,
    })
}

/// Runs `p` along the schedule `scheduler` picks, race detector on.
///
/// `input` initializes the array (padded with zeros). `max_steps` caps
/// transitions ([`Exhaustion::Steps`]); `budget`'s deadline and
/// `cancel` are polled every 256 steps — deadline expiry returns the
/// partial report tagged [`Exhaustion::Deadline`], cancellation
/// returns [`Fx10Error::Cancelled`]. By Theorem 1 the walk never
/// deadlocks: it ends by completing or by one of these limits.
pub fn run_scheduled(
    p: &Program,
    input: &[i64],
    scheduler: &Scheduler,
    max_steps: u64,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<RunReport, Fx10Error> {
    let seed = match scheduler {
        Scheduler::Random(seed) => *seed,
        Scheduler::Leftmost | Scheduler::Rightmost => 0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    walk(p, input, max_steps, budget, cancel, |t| {
        Ok(match scheduler {
            Scheduler::Leftmost => 0,
            Scheduler::Rightmost => t.moves() - 1,
            Scheduler::Random(_) => rng.gen_range(0..t.moves()),
        })
    })
}

/// Replays `schedule` (explorer successor choices) from the initial
/// state, then continues leftmost to completion, with the race detector
/// on throughout. `max_steps` bounds transitions, so a schedule into a
/// diverging program still returns — truncation reports
/// [`Exhaustion::Steps`] with `completed: false`.
///
/// An out-of-range choice is a validation error: the schedule does not
/// belong to this program/input.
pub fn replay_detect(
    p: &Program,
    input: &[i64],
    schedule: &[u32],
    max_steps: u64,
) -> Result<RunReport, Fx10Error> {
    let mut rest = schedule.iter().enumerate();
    walk(
        p,
        input,
        max_steps,
        Budget::unlimited(),
        &CancelToken::new(),
        |t| {
            let Some((i, &choice)) = rest.next() else {
                return Ok(0);
            };
            let avail = t.moves();
            if (choice as usize) >= avail {
                return Err(Fx10Error::Validate(format!(
                    "witness schedule step {i}: choice {choice} out of range ({avail} enabled)"
                )));
            }
            Ok(choice as usize)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_semantics::step::{initial_tree, successors};
    use fx10_suite::{random_fx10, RandomConfig};
    use proptest::prelude::*;

    fn run(p: &Program, input: &[i64], s: Scheduler, max_steps: u64) -> RunReport {
        run_scheduled(
            p,
            input,
            &s,
            max_steps,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap()
    }

    /// Final `a[0]` of a completed run, `None` when a limit cut it.
    fn result(p: &Program, input: &[i64], s: Scheduler) -> Option<i64> {
        let out = run(p, input, s, 10_000_000);
        out.completed.then(|| out.array[0])
    }

    /// Random-walks `p` for at most `cap` steps, applying the same
    /// choice to the semantics' `successors` enumeration and to the
    /// mirror, asserting the trees and arrays stay identical at every
    /// step. Returns whether the walk completed.
    fn lockstep(p: &Program, input: &[i64], seed: u64, cap: u32) -> bool {
        let mut tree = initial_tree(p);
        let mut array = ArrayState::with_input(p, input);
        let mut rt = Rctx::new(p, input);
        let mut ct = initial(p);
        let mut x = seed | 1;
        for step in 0..cap {
            if tree.is_done() {
                assert!(ct.is_done());
                return true;
            }
            let succ = successors(p, &array, &tree);
            assert_eq!(
                ct.moves(),
                succ.len(),
                "move-count divergence at step {step}"
            );
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let choice = (x as usize) % succ.len();
            let chosen = succ.into_iter().nth(choice).unwrap();
            array = chosen.array;
            tree = chosen.tree;
            assert!(
                rt.apply(&mut ct, choice, 0).is_ok(),
                "test walks stay shallow"
            );
            assert_eq!(ct.to_tree(), tree, "tree divergence at step {step}");
            assert_eq!(rt.cells, array.cells(), "array divergence at step {step}");
        }
        false
    }

    #[test]
    fn mirror_agrees_with_successors_on_structured_programs() {
        let programs = [
            "def main() { skip; }",
            "def main() { a[0] = 1; a[1] = a[0] + 1; }",
            "def main() { async { a[0] = 1; } a[1] = 2; }",
            "def main() { finish { async { a[0] = 1; } async { a[1] = 1; } } a[2] = a[0] + 1; }",
            "def main() { a[0] = 1; while (a[0] != 0) { a[0] = 0; async { a[1] = 1; } } }",
            "def f() { a[2] = 5; } def main() { finish { async { f(); } } f(); }",
            "def main() { finish { async { finish { async { a[0] = 1; } } a[1] = 1; } } }",
        ];
        for (i, src) in programs.iter().enumerate() {
            let p = Program::parse(src).unwrap();
            for seed in 0..16 {
                let done = lockstep(&p, &[], ((i as u64) << 8) | seed, 10_000);
                assert!(done, "walk did not terminate on {src}");
            }
        }
    }

    /// Every checked-in fixture, on zero input and on all-ones input
    /// (which sends guarded loops round, possibly forever: those walks
    /// stop at the cap).
    #[test]
    fn mirror_agrees_with_successors_on_every_fixture() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !name.ends_with(".fx10") || name.starts_with("bad_") {
                continue;
            }
            let p = Program::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let ones = vec![1; p.array_len()];
            for seed in 0..8 {
                lockstep(&p, &[], seed, 2_000);
                lockstep(&p, &ones, seed, 2_000);
            }
            checked += 1;
        }
        assert!(checked >= 15, "only {checked} fixtures found in {dir}");
    }

    proptest! {
        #[test]
        fn mirror_agrees_with_successors_on_random_programs(
            seed in 0u64..100_000,
            methods in 1usize..5,
            stmts in 1usize..6,
            walk_seed in 0u64..1_000,
        ) {
            let p = random_fx10(RandomConfig {
                methods,
                stmts_per_method: stmts,
                max_depth: 3,
                seed,
            });
            lockstep(&p, &[], walk_seed, 2_000);
        }
    }

    #[test]
    fn replay_of_a_racy_schedule_detects_the_pair() {
        use fx10_robust::{Budget, CancelToken};
        use fx10_semantics::witness::{find_witnesses, WitnessSearch};
        let p = Program::parse("def main() { async { W1: a[0] = 1; } W2: a[0] = 2; }").unwrap();
        let w1 = p.labels().lookup("W1").unwrap();
        let w2 = p.labels().lookup("W2").unwrap();
        let found = find_witnesses(
            &p,
            &[],
            &[(w1, w2)],
            10_000,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        let w = match found.into_iter().next() {
            Some(WitnessSearch::Found(w)) => w,
            other => panic!("expected witness, got {other:?}"),
        };
        let out = replay_detect(&p, &[], &w.schedule, 100_000).unwrap();
        assert!(out.completed);
        let pairs = out.race_pairs();
        assert!(
            pairs.contains(&fx10_semantics::parallel::pair(w1, w2)),
            "replayed schedule missed the witness pair: {pairs:?}"
        );
    }

    #[test]
    fn race_free_replay_matches_elision_state() {
        use fx10_robust::{Budget, CancelToken};
        let src =
            "def main() { finish { async { a[0] = 1; } async { a[1] = 1; } } a[2] = a[0] + 1; }";
        let p = Program::parse(src).unwrap();
        let serial =
            crate::elide::run_elision(&p, &[], u64::MAX, Budget::unlimited(), &CancelToken::new())
                .unwrap();
        // Any schedule of a race-free program ends in the serial state;
        // exercise a few prefixes (after the finish step the body leaf
        // asyncs, opening real choice points).
        for schedule in [vec![], vec![0], vec![0, 0], vec![0, 0, 1]] {
            let out = replay_detect(&p, &[], &schedule, 100_000).unwrap();
            assert!(out.completed);
            assert_eq!(out.array, serial.array);
            assert!(out.races.is_empty());
        }
    }

    #[test]
    fn bad_choice_is_a_validation_error() {
        let p = Program::parse("def main() { skip; }").unwrap();
        let err = replay_detect(&p, &[], &[5], 100).unwrap_err();
        assert!(matches!(err, Fx10Error::Validate(_)));
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn diverging_program_truncates_at_the_move_cap() {
        let p = Program::parse("def main() { a[0] = 1; while (a[0] != 0) { S; } }").unwrap();
        let out = replay_detect(&p, &[], &[], 500).unwrap();
        assert!(!out.completed);
        assert_eq!(out.exhausted, Some(Exhaustion::Steps));
    }

    #[test]
    fn straight_line_program_terminates() {
        let p = Program::parse("def main() { a[0] = 7; }").unwrap();
        let out = run(&p, &[], Scheduler::Leftmost, 100);
        assert!(out.completed);
        assert_eq!(out.array[0], 7);
    }

    #[test]
    fn all_schedulers_agree_on_confluent_program() {
        // add_twice: a[1] = 1 triggers two bump() calls under a finish;
        // final a[2] = 2 and a[0] = 0 regardless of interleaving.
        let p = fx10_syntax::examples::add_twice();
        for s in [
            Scheduler::Leftmost,
            Scheduler::Rightmost,
            Scheduler::Random(1),
            Scheduler::Random(42),
        ] {
            let out = run(&p, &[0, 1, 0], s, 100_000);
            assert!(out.completed);
            assert_eq!(out.array[2], 2);
            assert_eq!(out.array[0], 0);
            assert!(out.races.is_empty());
        }
    }

    #[test]
    fn counting_loop_computes_value() {
        let p = Program::parse(
            "def main() {\n\
               while (a[1] != 0) { a[0] = a[0] + 1; a[1] = 0; }\n\
             }",
        )
        .unwrap();
        assert_eq!(result(&p, &[10, 5], Scheduler::Leftmost), Some(11));
        assert_eq!(result(&p, &[10, 0], Scheduler::Leftmost), Some(10));
    }

    #[test]
    fn nonterminating_program_exhausts_budget() {
        let p = Program::parse("def main() { a[0] = 1; while (a[0] != 0) { skip; } }").unwrap();
        let out = run(&p, &[], Scheduler::Leftmost, 1000);
        assert!(!out.completed);
        assert_eq!(out.exhausted, Some(Exhaustion::Steps));
        assert_eq!(out.steps, 1000);
    }

    #[test]
    fn recursion_via_calls_works() {
        let p = Program::parse(
            "def g() { a[0] = a[0] + 1; }\n\
             def f() { g(); g(); }\n\
             def main() { f(); f(); }",
        )
        .unwrap();
        assert_eq!(result(&p, &[], Scheduler::Rightmost), Some(4));
    }

    #[test]
    fn race_outcome_depends_on_schedule() {
        // async writes 1, continuation writes 2: both final values are
        // possible under different schedulers, and both runs detect it.
        let p = Program::parse("def main() { async { a[0] = 1; } a[0] = 2; }").unwrap();
        let left = run(&p, &[], Scheduler::Leftmost, 100);
        let right = run(&p, &[], Scheduler::Rightmost, 100);
        assert_eq!((left.array[0], right.array[0]), (2, 1));
        assert_eq!(left.races.len(), 1);
        assert_eq!(right.races, left.races);
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
            assert_eq!(result(&p, &[], s), Some(2));
        }
    }

    #[test]
    fn cancellation_and_deadline_are_polled() {
        let p = Program::parse("def main() { a[0] = 1; while (a[0] != 0) { S; } }").unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = run_scheduled(
            &p,
            &[],
            &Scheduler::Leftmost,
            u64::MAX,
            Budget::unlimited(),
            &cancel,
        )
        .unwrap_err();
        assert_eq!(err, Fx10Error::Cancelled);
        let budget = Budget {
            deadline: Some(std::time::Instant::now()),
            ..Budget::unlimited()
        };
        let out = run_scheduled(
            &p,
            &[],
            &Scheduler::Leftmost,
            u64::MAX,
            budget,
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out.exhausted, Some(Exhaustion::Deadline));
        assert_eq!(out.steps, 0, "the deadline is polled before the first step");
    }

    #[test]
    fn unbounded_finish_recursion_stops_at_the_nesting_limit() {
        // Each call nests one more `▷`: the tree deepens by one level
        // every two steps until the limit ends the walk.
        let p = Program::parse("def f() { finish { f(); } } def main() { f(); }").unwrap();
        for s in [
            Scheduler::Leftmost,
            Scheduler::Rightmost,
            Scheduler::Random(3),
        ] {
            let out = run(&p, &[], s, u64::MAX);
            assert!(!out.completed);
            assert_eq!(out.exhausted, Some(Exhaustion::Nesting));
            assert_eq!(out.steps, 2 * MAX_NESTING as u64 + 1);
        }
        // A tail call does not deepen the tree: only the step cap ends it.
        let p = Program::parse("def f() { f(); } def main() { f(); }").unwrap();
        let out = run(&p, &[], Scheduler::Leftmost, 50_000);
        assert_eq!(out.exhausted, Some(Exhaustion::Steps));
    }
}
