//! Sequential elision: execute the program serially, depth-first, with
//! the race detector on.
//!
//! Elision replaces every `async { s }` with an inline call of `s` (in a
//! fresh activity, so the detector still sees the fork) and every
//! `finish` with its body — the classic correctness oracle for
//! fork-join runtimes: **for race-free programs, any parallel run must
//! produce exactly this array state**. The detector makes the oracle
//! self-qualifying: the elision run itself reports whether the program
//! was race-free on the executed path (happens-before here is
//! schedule-independent, see [`crate::detect`]).
//!
//! Step accounting counts *executed instructions* — one per `skip`,
//! assignment, `async`, `finish`, `call`, and one per `while` guard
//! evaluation — which is the same number for every schedule of a
//! race-free program, so the parallel engine's count is byte-identical.

use crate::detect::{Detector, VClock};
use crate::{RunReport, MAX_NESTING};
use fx10_robust::{Budget, BudgetMeter, CancelToken, Exhaustion, Fx10Error, Stop};
use fx10_semantics::ArrayState;
use fx10_syntax::{Expr, Label, Program, Stmt};

/// Why execution stopped early.
enum Halt {
    /// The `max_steps` cap tripped.
    Steps,
    /// `exec` recursion reached [`MAX_NESTING`].
    TooDeep,
    /// The budget meter asked us to stop (deadline, iteration budget, or
    /// cancellation).
    Stop(Stop),
}

struct Elider<'a> {
    p: &'a Program,
    cells: Vec<i64>,
    detector: Detector,
    meter: BudgetMeter,
    steps: u64,
    max_steps: u64,
    next_tid: u32,
    /// Current `exec` recursion depth.
    depth: usize,
}

impl<'a> Elider<'a> {
    fn charge(&mut self) -> Result<(), Halt> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(Halt::Steps);
        }
        self.meter.tick().map_err(Halt::Stop)
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

    /// Runs `s` to completion as activity `tid`. `scopes` is the stack of
    /// open `finish` accumulators (the root scope at the bottom).
    fn exec(
        &mut self,
        s: &'a Stmt,
        tid: u32,
        clock: &mut VClock,
        scopes: &mut Vec<VClock>,
    ) -> Result<(), Halt> {
        use fx10_syntax::InstrKind::*;
        // An `Err` ends the run, so early returns leave `depth` as is.
        if self.depth == MAX_NESTING {
            return Err(Halt::TooDeep);
        }
        self.depth += 1;
        for ins in s.instrs() {
            self.charge()?;
            match &ins.kind {
                Skip => {}
                Assign { idx, expr } => {
                    let v = self.eval(expr, ins.label, tid, clock);
                    self.detector.on_write(*idx, ins.label, tid, clock);
                    self.cells[*idx] = v;
                }
                While { idx, body } => loop {
                    self.detector.on_read(*idx, ins.label, tid, clock);
                    if self.cells[*idx] == 0 {
                        break;
                    }
                    self.exec(body, tid, clock, scopes)?;
                    // The guard re-evaluation is a step of its own.
                    self.charge()?;
                },
                Async { body } => {
                    let child_tid = self.next_tid;
                    self.next_tid += 1;
                    let mut child_clock = VClock::fork(clock, tid, child_tid);
                    self.exec(body, child_tid, &mut child_clock, scopes)?;
                    // No happens-before edge: the child's clock only folds
                    // into the enclosing finish's accumulator.
                    scopes.last_mut().unwrap().join(&child_clock);
                }
                Finish { body } => {
                    scopes.push(VClock::new());
                    let r = self.exec(body, tid, clock, scopes);
                    let acc = scopes.pop().unwrap();
                    r?;
                    // The join edge: everything spawned under the finish
                    // happens-before the continuation.
                    clock.join(&acc);
                }
                Call { callee } => {
                    let p = self.p;
                    self.exec(p.body(*callee), tid, clock, scopes)?;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }
}

/// Runs `p` serially under sequential elision, race detector on.
///
/// `max_steps` bounds executed instructions ([`Exhaustion::Steps`] when
/// exceeded) and [`MAX_NESTING`] the recursion depth
/// ([`Exhaustion::Nesting`]); `budget`'s iteration cap and deadline are
/// honored on the same stride as the analyses, and `cancel` unwinds
/// with [`Fx10Error::Cancelled`].
pub fn run_elision(
    p: &Program,
    input: &[i64],
    max_steps: u64,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<RunReport, Fx10Error> {
    let cells = ArrayState::with_input(p, input).cells().to_vec();
    let mut e = Elider {
        p,
        detector: Detector::new(cells.len()),
        cells,
        meter: BudgetMeter::new(budget, cancel.clone()),
        steps: 0,
        max_steps,
        next_tid: 1,
        depth: 0,
    };
    let mut clock = VClock::new();
    clock.bump(0);
    let mut scopes = vec![VClock::new()];
    let r = e.exec(p.body(p.main()), 0, &mut clock, &mut scopes);
    let exhausted = match r {
        Ok(()) => None,
        Err(Halt::Steps) => Some(Exhaustion::Steps),
        Err(Halt::TooDeep) => Some(Exhaustion::Nesting),
        Err(Halt::Stop(Stop::Exhausted(x))) => Some(x),
        Err(Halt::Stop(Stop::Cancelled)) => return Err(Fx10Error::Cancelled),
    };
    Ok(RunReport {
        array: e.cells,
        steps: e.steps,
        completed: exhausted.is_none(),
        exhausted,
        races: e.detector.races(),
        activities: e.next_tid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn run(src: &str, input: &[i64]) -> RunReport {
        let p = Program::parse(src).unwrap();
        run_elision(
            &p,
            input,
            u64::MAX,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap()
    }

    #[test]
    fn straight_line_program_computes_and_counts() {
        let out = run("def main() { a[0] = 1; a[1] = a[0] + 1; }", &[]);
        assert!(out.completed);
        assert_eq!(out.array, vec![1, 2]);
        assert_eq!(out.steps, 2);
        assert_eq!(out.activities, 1);
        assert!(out.races.is_empty());
    }

    #[test]
    fn racy_async_is_detected_even_serially() {
        let out = run("def main() { W1: async { a[0] = 1; } W2: a[0] = 2; }", &[]);
        assert!(out.completed);
        assert_eq!(out.races.len(), 1);
        assert_eq!(out.activities, 2);
    }

    #[test]
    fn finish_protects_the_continuation() {
        let out = run(
            "def main() { finish { async { a[0] = 1; } } a[0] = 2; }",
            &[],
        );
        assert!(out.completed);
        assert!(out.races.is_empty());
        assert_eq!(out.array, vec![2]);
    }

    #[test]
    fn while_counts_each_guard_evaluation() {
        // a[0]=1; guard true; body sets a[0]=0; guard false.
        let out = run(
            "def main() { a[0] = 1; while (a[0] != 0) { a[0] = 0; } }",
            &[],
        );
        assert!(out.completed);
        // assign + guard + body assign + guard = 4.
        assert_eq!(out.steps, 4);
    }

    #[test]
    fn step_cap_reports_steps_exhaustion() {
        let p = Program::parse("def main() { S1; S2; S3; }").unwrap();
        let out = run_elision(&p, &[], 2, Budget::unlimited(), &CancelToken::new()).unwrap();
        assert!(!out.completed);
        assert_eq!(out.exhausted, Some(Exhaustion::Steps));
        assert_eq!(out.steps, 3); // the third charge tripped
    }

    #[test]
    fn cancellation_unwinds_and_deadline_truncates() {
        // Diverging loop: only the meter can stop it. The poll stride is
        // 64, so both checks fire deterministically.
        let p = Program::parse("def main() { a[0] = 1; while (a[0] != 0) { S; } }").unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run_elision(&p, &[], u64::MAX, Budget::unlimited(), &cancel);
        assert!(matches!(out, Err(Fx10Error::Cancelled)));

        let budget = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::unlimited()
        };
        let out = run_elision(&p, &[], u64::MAX, budget, &CancelToken::new()).unwrap();
        assert!(!out.completed);
        assert_eq!(out.exhausted, Some(Exhaustion::Deadline));
    }
}
