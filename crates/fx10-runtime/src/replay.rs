//! Guided replay: drive the runtime's race detector along an explorer
//! witness schedule.
//!
//! The lint suite's confirmed races (PR 4) carry a schedule of successor
//! *choices* into [`fx10_semantics::step::successors`]'s deterministic
//! enumeration ("rule number, then left-to-right"). To replay one on the
//! real detector we execute over a clock-carrying mirror of the
//! execution tree — [`CTree`] — whose move enumeration reproduces
//! `push_successors` exactly:
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
//! `successors` on random walks.
//!
//! A witness schedule ends at a state where the racing pair is merely
//! *co-enabled*, so after consuming the schedule we continue leftmost
//! (choice 0) to completion: both accesses then execute and the
//! detector reports the pair.

use crate::detect::{Detector, VClock};
use crate::RunReport;
use fx10_robust::{Exhaustion, Fx10Error};
#[cfg(test)]
use fx10_semantics::Tree;
use fx10_syntax::{Expr, Label, Program, Stmt};

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

struct Rctx<'a> {
    p: &'a Program,
    cells: Vec<i64>,
    detector: Detector,
    next_tid: u32,
    steps: u64,
}

impl Rctx<'_> {
    fn eval(&mut self, e: &Expr, label: Label, tid: u32, clock: &VClock) -> i64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Plus1(d) => {
                self.detector.on_read(*d, label, tid, clock);
                self.cells[*d].wrapping_add(1)
            }
        }
    }

    /// Rules (7)–(14): the unique step of a leaf, instrumented.
    fn step_leaf(&mut self, acc: VClock, stmt: Stmt, tid: u32, mut clock: VClock) -> CTree {
        use fx10_syntax::InstrKind::*;
        self.steps += 1;
        let head = stmt.head();
        let label = head.label;
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
        match head.kind.clone() {
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
        }
    }

    /// Applies move `n` of the mirrored enumeration.
    fn apply(&mut self, t: CTree, n: usize) -> CTree {
        let CTree { acc, node } = t;
        match node {
            CNode::Done => unreachable!("√ has no moves"),
            CNode::Stm { stmt, tid, clock } => self.step_leaf(acc, stmt, tid, clock),
            CNode::Seq { l, r } => {
                if l.is_done() {
                    // Rule (1): the finish join.
                    let mut out = *r;
                    join_hb(&mut out, &l.acc);
                    out.acc.join(&acc);
                    out
                } else {
                    let l2 = self.apply(*l, n);
                    CTree {
                        acc,
                        node: CNode::Seq { l: Box::new(l2), r },
                    }
                }
            }
            CNode::Par { l, r } => {
                let mut n = n;
                if l.is_done() {
                    if n == 0 {
                        // Rule (3): fold, no happens-before edge.
                        let mut out = *r;
                        out.acc.join(&l.acc);
                        out.acc.join(&acc);
                        return out;
                    }
                    n -= 1;
                }
                if r.is_done() {
                    if n == 0 {
                        // Rule (4).
                        let mut out = *l;
                        out.acc.join(&r.acc);
                        out.acc.join(&acc);
                        return out;
                    }
                    n -= 1;
                }
                let lm = l.moves();
                if n < lm {
                    let l2 = self.apply(*l, n);
                    CTree {
                        acc,
                        node: CNode::Par { l: Box::new(l2), r },
                    }
                } else {
                    let r2 = self.apply(*r, n - lm);
                    CTree {
                        acc,
                        node: CNode::Par { l, r: Box::new(r2) },
                    }
                }
            }
        }
    }
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

/// Replays `schedule` (explorer successor choices) from the initial
/// state, then continues leftmost to completion, with the race detector
/// on throughout. `max_steps` bounds total applied moves (admin steps
/// included), so a schedule into a diverging program still returns —
/// truncation reports [`Exhaustion::Steps`] with `completed: false`.
///
/// An out-of-range choice is a validation error: the schedule does not
/// belong to this program/input.
pub fn replay_detect(
    p: &Program,
    input: &[i64],
    schedule: &[u32],
    max_steps: u64,
) -> Result<RunReport, Fx10Error> {
    let init = fx10_semantics::ArrayState::with_input(p, input);
    let mut rt = Rctx {
        p,
        cells: init.cells().to_vec(),
        detector: Detector::new(init.cells().len()),
        next_tid: 1,
        steps: 0,
    };
    let mut t = initial(p);
    let mut applied = 0u64;
    for (i, &choice) in schedule.iter().enumerate() {
        let avail = t.moves();
        if (choice as usize) >= avail {
            return Err(Fx10Error::Validate(format!(
                "witness schedule step {i}: choice {choice} out of range ({avail} enabled)"
            )));
        }
        t = rt.apply(t, choice as usize);
        applied += 1;
        if applied >= max_steps && !t.is_done() {
            return Ok(truncated(rt));
        }
    }
    while !t.is_done() {
        t = rt.apply(t, 0);
        applied += 1;
        if applied >= max_steps {
            return Ok(truncated(rt));
        }
    }
    Ok(RunReport {
        array: rt.cells,
        steps: rt.steps,
        completed: true,
        exhausted: None,
        races: rt.detector.races(),
        activities: rt.next_tid,
    })
}

fn truncated(rt: Rctx<'_>) -> RunReport {
    RunReport {
        array: rt.cells,
        steps: rt.steps,
        completed: false,
        exhausted: Some(Exhaustion::Steps),
        races: rt.detector.races(),
        activities: rt.next_tid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_semantics::step::{initial_tree, successors};
    use fx10_semantics::ArrayState;

    /// Random-walks `p`, applying the same choice to the semantics'
    /// `successors` enumeration and to the mirror, asserting the trees
    /// and arrays stay identical at every step.
    fn lockstep(src: &str, input: &[i64], seed: u64) {
        let p = Program::parse(src).unwrap();
        let mut tree = initial_tree(&p);
        let mut array = ArrayState::with_input(&p, input);
        let init = ArrayState::with_input(&p, input);
        let mut rt = Rctx {
            p: &p,
            cells: init.cells().to_vec(),
            detector: Detector::new(init.cells().len()),
            next_tid: 1,
            steps: 0,
        };
        let mut ct = initial(&p);
        let mut x = seed | 1;
        for step in 0..10_000u32 {
            if tree.is_done() {
                assert!(ct.is_done());
                return;
            }
            let succ = successors(&p, &array, &tree);
            assert_eq!(
                ct.moves(),
                succ.len(),
                "move-count divergence at step {step} on {src}"
            );
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let choice = (x as usize) % succ.len();
            let chosen = succ.into_iter().nth(choice).unwrap();
            array = chosen.array;
            tree = chosen.tree;
            ct = rt.apply(ct, choice);
            assert_eq!(
                ct.to_tree(),
                tree,
                "tree divergence at step {step} on {src}"
            );
            assert_eq!(
                rt.cells,
                array.cells(),
                "array divergence at step {step} on {src}"
            );
        }
        panic!("walk did not terminate on {src}");
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
            for seed in 0..16 {
                lockstep(src, &[], ((i as u64) << 8) | seed);
            }
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
}
