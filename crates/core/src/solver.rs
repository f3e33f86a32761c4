//! Fixed-point solvers for union constraint systems (paper §5.2–5.3).
//!
//! A constraint is `lhs ⊇ union(terms)`. The paper's systems give every
//! variable exactly one equality constraint with distinct left-hand
//! sides, in which case the least solution of the ⊇-system coincides with
//! the least fixed point of the paper's function `F` (each pass applies
//! `F` once and keeps previous values — monotonicity makes accumulation
//! and recomputation agree at the least fixed point). The ⊇-form also
//! accommodates the context-insensitive analysis's genuine subset
//! constraints `r_s ⊆ r_i` (constraint 83) with no special casing.
//!
//! Two solvers are provided for each domain, chosen by [`SolverKind`]:
//! - **naive** — round-robin passes over all constraints until a full pass
//!   changes nothing. The pass count is reported; this is the "Number of
//!   iterations" column of Figure 8 (the final, changeless pass included,
//!   matching the paper's minimum of 2).
//! - **worklist** — seeds all constraints, then re-evaluates only the
//!   constraints whose right-hand-side variables changed. Same solution;
//!   used as the production path and measured by the solver-ablation
//!   bench.
//!
//! Both run under a [`BudgetMeter`]: one meter tick per constraint
//! evaluation, so a `max_iters` budget bounds the whole analysis across
//! phases. Budget exhaustion returns the partial (under-approximate)
//! solution tagged with its [`Exhaustion`] provenance; cancellation
//! returns [`Fx10Error::Cancelled`].

use crate::sets::{LabelSet, PairRows, PairSet, SharedLabelSet};
use fx10_robust::{BudgetMeter, Exhaustion, Fx10Error, Stop};
use fx10_syntax::Label;
use std::sync::Arc;

/// A level-1 (or Slabels) set variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetVar(pub u32);

impl SetVar {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A right-hand-side atom of a set constraint.
#[derive(Debug, Clone)]
pub enum SetTerm {
    /// A constant label set.
    Const(SharedLabelSet),
    /// Another variable's current value.
    Var(SetVar),
}

/// `lhs ⊇ union(terms)`.
#[derive(Debug, Clone)]
pub struct SetConstraint {
    /// The constrained variable.
    pub lhs: SetVar,
    /// Right-hand-side atoms, joined by union.
    pub terms: Vec<SetTerm>,
}

/// A system of set constraints over `n_vars` variables whose values are
/// label sets over `universe` labels.
#[derive(Debug, Clone)]
pub struct SetSystem {
    /// Number of variables.
    pub n_vars: usize,
    /// Number of labels the sets range over.
    pub universe: usize,
    /// The constraints.
    pub constraints: Vec<SetConstraint>,
}

/// The least solution of a [`SetSystem`] plus solver statistics.
#[derive(Debug, Clone)]
pub struct SetSolution {
    /// Value per variable.
    pub values: Vec<LabelSet>,
    /// Round-robin passes (naive) or 0 (worklist).
    pub passes: usize,
    /// Individual constraint evaluations.
    pub evals: usize,
    /// `Some` when a budget cut the solve short: the values are a sound
    /// under-approximation of the least solution.
    pub exhausted: Option<Exhaustion>,
}

impl SetSolution {
    /// Value of a variable.
    #[inline]
    pub fn get(&self, v: SetVar) -> &LabelSet {
        &self.values[v.index()]
    }

    /// Total heap bytes of all values (space accounting).
    pub fn bytes(&self) -> usize {
        self.values.iter().map(|s| s.bytes()).sum()
    }

    /// Hands out values as [`SharedLabelSet`]s, copying each variable's
    /// set once, on its first request; the simplified level-2 terms that
    /// name one variable share its set.
    pub fn sharer(&self) -> impl FnMut(SetVar) -> SharedLabelSet + '_ {
        let mut shared: Vec<Option<SharedLabelSet>> = vec![None; self.values.len()];
        move |v| {
            shared[v.index()]
                .get_or_insert_with(|| Arc::new(self.get(v).clone()))
                .clone()
        }
    }
}

fn eval_set_constraint(c: &SetConstraint, values: &mut [LabelSet], mut changed: bool) -> bool {
    for t in &c.terms {
        match t {
            SetTerm::Const(s) => {
                changed |= {
                    let lhs = &mut values[c.lhs.index()];
                    lhs.union_with(s)
                }
            }
            SetTerm::Var(v) => {
                if *v == c.lhs {
                    continue; // x ⊇ x is vacuous
                }
                // Split borrows: lhs and rhs are distinct indices.
                let (a, b) = (c.lhs.index(), v.index());
                let (lo, hi) = (a.min(b), a.max(b));
                let (left, right) = values.split_at_mut(hi);
                let (lhs, rhs) = if a < b {
                    (&mut left[lo], &right[0])
                } else {
                    (&mut right[0], &left[lo])
                };
                changed |= lhs.union_with(rhs);
            }
        }
    }
    changed
}

/// A level-2 (pair) variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairVar(pub u32);

impl PairVar {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A right-hand-side atom of a level-2 constraint, *after* the level-1
/// solution has been substituted in (the paper's "simplified level-2
/// constraints", §5.3): label-set arguments are constants.
#[derive(Debug, Clone)]
pub enum PairTerm {
    /// `Lcross(l, c)` for a solved set `c`.
    Lcross(Label, SharedLabelSet),
    /// `symcross(c1, c2)` for solved sets (covers `Scross` too).
    Symcross(SharedLabelSet, SharedLabelSet),
    /// Another m-variable.
    MVar(PairVar),
}

/// `lhs ⊇ union(terms)` over pair sets.
#[derive(Debug, Clone)]
pub struct PairConstraint {
    /// The constrained m-variable.
    pub lhs: PairVar,
    /// Right-hand-side atoms, joined by union.
    pub terms: Vec<PairTerm>,
}

/// A simplified level-2 system.
#[derive(Debug, Clone)]
pub struct PairSystem {
    /// Number of m-variables.
    pub n_vars: usize,
    /// Number of labels the pairs range over.
    pub universe: usize,
    /// The constraints.
    pub constraints: Vec<PairConstraint>,
}

/// The least solution of a [`PairSystem`] plus solver statistics.
///
/// Values stay in the solver's private arena layout (`sets::PairRows`);
/// [`PairSolution::get`] turns one into a dense [`PairSet`] on demand.
#[derive(Debug, Clone)]
pub struct PairSolution {
    values: PairRows,
    /// Round-robin passes (naive) or 0 (worklist).
    pub passes: usize,
    /// Individual constraint evaluations.
    pub evals: usize,
    /// `Some` when a budget cut the solve short: the values are a sound
    /// under-approximation of the least solution.
    pub exhausted: Option<Exhaustion>,
}

impl PairSolution {
    /// Value of a variable, as a fresh dense symmetric [`PairSet`].
    pub fn get(&self, v: PairVar) -> PairSet {
        self.values.to_pair_set(v.index())
    }

    /// Total heap bytes of all values: every row of the solve's arena
    /// once, however many variables share it, plus each variable's row
    /// directory.
    pub fn bytes(&self) -> usize {
        self.values.bytes()
    }
}

fn eval_pair_constraint(c: &PairConstraint, values: &mut PairRows, mut changed: bool) -> bool {
    let lhs = c.lhs.index();
    for t in &c.terms {
        match t {
            PairTerm::Lcross(l, s) => values.add_lcross(lhs, *l, s, &mut changed),
            PairTerm::Symcross(a, b) => values.add_symcross(lhs, a, b, &mut changed),
            // x ⊇ x is vacuous.
            PairTerm::MVar(v) if v.index() == lhs => {}
            PairTerm::MVar(v) => values.union_with(lhs, v.index(), &mut changed),
        }
    }
    changed
}

/// Which fixed-point algorithm to run. This is the one place a solver
/// choice becomes an algorithm: both analyses (FX10 and condensed) hand
/// every phase to [`SolverKind::solve_set`] / [`SolverKind::solve_pair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The paper's round-robin iteration; pass counts are reported.
    Naive,
    /// Worklist iteration (same solutions, fewer evaluations).
    Worklist,
}

impl SolverKind {
    /// Solves a set system (Slabels or level-1) under `meter`.
    /// Exhaustion returns the partial solution tagged, cancellation
    /// returns `Err`.
    pub fn solve_set(
        self,
        sys: &SetSystem,
        meter: &mut BudgetMeter,
    ) -> Result<SetSolution, Fx10Error> {
        let mut values = vec![LabelSet::empty(sys.universe); sys.n_vars];
        let run = match self {
            SolverKind::Naive => iterate_naive(
                &sys.constraints,
                &mut values[..],
                eval_set_constraint,
                meter,
            )?,
            SolverKind::Worklist => {
                let reads = |c: &SetConstraint| {
                    c.terms
                        .iter()
                        .filter_map(|t| match t {
                            SetTerm::Var(v) => Some(v.index()),
                            SetTerm::Const(_) => None,
                        })
                        .collect::<Vec<_>>()
                };
                iterate_worklist(
                    &sys.constraints,
                    &mut values[..],
                    sys.n_vars,
                    |c| c.lhs.index(),
                    reads,
                    eval_set_constraint,
                    meter,
                )?
            }
        };
        Ok(SetSolution {
            values,
            passes: run.passes,
            evals: run.evals,
            exhausted: run.exhausted,
        })
    }

    /// Solves a simplified level-2 system under `meter`.
    pub fn solve_pair(
        self,
        sys: &PairSystem,
        meter: &mut BudgetMeter,
    ) -> Result<PairSolution, Fx10Error> {
        let mut values = PairRows::new(sys.universe, sys.n_vars);
        let run = match self {
            SolverKind::Naive => {
                iterate_naive(&sys.constraints, &mut values, eval_pair_constraint, meter)?
            }
            SolverKind::Worklist => {
                let reads = |c: &PairConstraint| {
                    c.terms
                        .iter()
                        .filter_map(|t| match t {
                            PairTerm::MVar(v) => Some(v.index()),
                            _ => None,
                        })
                        .collect::<Vec<_>>()
                };
                iterate_worklist(
                    &sys.constraints,
                    &mut values,
                    sys.n_vars,
                    |c| c.lhs.index(),
                    reads,
                    eval_pair_constraint,
                    meter,
                )?
            }
        };
        Ok(PairSolution {
            values,
            passes: run.passes,
            evals: run.evals,
            exhausted: run.exhausted,
        })
    }
}

/// Solver statistics shared by both domains.
struct Run {
    passes: usize,
    evals: usize,
    exhausted: Option<Exhaustion>,
}

/// Round-robin passes over all constraints until a full pass changes
/// nothing (that final pass is counted).
///
/// `eval(c, values, changed)` applies one constraint and returns whether
/// the pass has changed so far: `changed` is the pass's flag before it.
/// Once a pass has changed, an evaluation need not report exactly, since
/// the pass's outcome is settled; the values it writes are the same.
fn iterate_naive<C, S: ?Sized>(
    constraints: &[C],
    values: &mut S,
    eval: impl Fn(&C, &mut S, bool) -> bool,
    meter: &mut BudgetMeter,
) -> Result<Run, Fx10Error> {
    let mut passes = 0usize;
    let mut evals = 0usize;
    let mut exhausted = None;
    'solve: loop {
        passes += 1;
        let mut changed = false;
        for c in constraints {
            match meter.tick() {
                Ok(()) => {}
                Err(Stop::Exhausted(e)) => {
                    exhausted = Some(e);
                    break 'solve;
                }
                Err(stop @ Stop::Cancelled) => return Err(stop.into()),
            }
            evals += 1;
            changed = eval(c, values, changed);
        }
        if !changed {
            break;
        }
    }
    Ok(Run {
        passes,
        evals,
        exhausted,
    })
}

/// Seeds every constraint, then re-evaluates only the constraints whose
/// right-hand-side variables (`reads`) changed; every evaluation reports
/// its change exactly. Reports zero passes.
fn iterate_worklist<C, S: ?Sized>(
    constraints: &[C],
    values: &mut S,
    n_vars: usize,
    lhs: impl Fn(&C) -> usize,
    reads: impl Fn(&C) -> Vec<usize>,
    eval: impl Fn(&C, &mut S, bool) -> bool,
    meter: &mut BudgetMeter,
) -> Result<Run, Fx10Error> {
    // deps[v] = constraints whose rhs mentions v.
    let mut deps: Vec<Vec<u32>> = vec![Vec::new(); n_vars];
    for (ci, c) in constraints.iter().enumerate() {
        for v in reads(c) {
            deps[v].push(ci as u32);
        }
    }
    let mut on_queue = vec![true; constraints.len()];
    let mut queue: std::collections::VecDeque<u32> = (0..constraints.len() as u32).collect();
    let mut evals = 0usize;
    let mut exhausted = None;
    while let Some(ci) = queue.pop_front() {
        match meter.tick() {
            Ok(()) => {}
            Err(Stop::Exhausted(e)) => {
                exhausted = Some(e);
                break;
            }
            Err(stop @ Stop::Cancelled) => return Err(stop.into()),
        }
        on_queue[ci as usize] = false;
        let c = &constraints[ci as usize];
        evals += 1;
        if eval(c, values, false) {
            for &d in &deps[lhs(c)] {
                if !on_queue[d as usize] {
                    on_queue[d as usize] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    Ok(Run {
        passes: 0,
        evals,
        exhausted,
    })
}

/// Naive round-robin solver; reports the pass count. Infallible: an
/// unlimited meter cannot trip, so the `Err` arm is unreachable — but
/// library paths never panic, so it degrades to an empty,
/// exhaustion-tagged solution instead.
pub fn solve_set_naive(sys: &SetSystem) -> SetSolution {
    SolverKind::Naive
        .solve_set(sys, &mut BudgetMeter::unlimited())
        .unwrap_or_else(|_| SetSolution {
            values: Vec::new(),
            passes: 0,
            evals: 0,
            exhausted: Some(Exhaustion::SolverIterations),
        })
}

/// Naive round-robin level-2 solver; reports the pass count. Infallible,
/// like [`solve_set_naive`].
pub fn solve_pair_naive(sys: &PairSystem) -> PairSolution {
    SolverKind::Naive
        .solve_pair(sys, &mut BudgetMeter::unlimited())
        .unwrap_or_else(|_| PairSolution {
            values: PairRows::new(sys.universe, sys.n_vars),
            passes: 0,
            evals: 0,
            exhausted: Some(Exhaustion::SolverIterations),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(labels: &[u32]) -> SharedLabelSet {
        Arc::new(LabelSet::from_labels(16, labels.iter().map(|&l| Label(l))))
    }

    fn sys_chain() -> SetSystem {
        // v0 = {0}; v1 = v0 ∪ {1}; v2 = v1; cyclic v0 ⊇ v2 keeps it
        // interesting but adds nothing new.
        SetSystem {
            n_vars: 3,
            universe: 16,
            constraints: vec![
                SetConstraint {
                    lhs: SetVar(0),
                    terms: vec![SetTerm::Const(c(&[0]))],
                },
                SetConstraint {
                    lhs: SetVar(1),
                    terms: vec![SetTerm::Var(SetVar(0)), SetTerm::Const(c(&[1]))],
                },
                SetConstraint {
                    lhs: SetVar(2),
                    terms: vec![SetTerm::Var(SetVar(1))],
                },
                SetConstraint {
                    lhs: SetVar(0),
                    terms: vec![SetTerm::Var(SetVar(2))],
                },
            ],
        }
    }

    #[test]
    fn naive_and_worklist_agree() {
        let sys = sys_chain();
        let a = solve_set_naive(&sys);
        let b = SolverKind::Worklist
            .solve_set(&sys, &mut BudgetMeter::unlimited())
            .unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.get(SetVar(2)).iter().count(), 2);
        assert!(a.get(SetVar(0)).contains(Label(1)), "cycle propagates back");
    }

    #[test]
    fn naive_pass_count_includes_final_check() {
        // A system already at fixpoint (all empty) takes exactly 1 pass;
        // the chain takes a few, ending with a changeless pass.
        let empty = SetSystem {
            n_vars: 1,
            universe: 8,
            constraints: vec![SetConstraint {
                lhs: SetVar(0),
                terms: vec![],
            }],
        };
        assert_eq!(solve_set_naive(&empty).passes, 1);
        assert!(solve_set_naive(&sys_chain()).passes >= 2);
    }

    #[test]
    fn reverse_order_needs_more_passes_than_worklist_evals_suggest() {
        // Constraints listed against dependency order force extra passes.
        let mut sys = sys_chain();
        sys.constraints.reverse();
        let fwd = solve_set_naive(&sys_chain());
        let rev = solve_set_naive(&sys);
        assert_eq!(fwd.values, rev.values);
        assert!(rev.passes >= fwd.passes);
    }

    #[test]
    fn pair_system_solves_lcross_chain() {
        let sys = PairSystem {
            n_vars: 2,
            universe: 16,
            constraints: vec![
                PairConstraint {
                    lhs: PairVar(0),
                    terms: vec![PairTerm::Lcross(Label(3), c(&[1, 2]))],
                },
                PairConstraint {
                    lhs: PairVar(1),
                    terms: vec![
                        PairTerm::MVar(PairVar(0)),
                        PairTerm::Symcross(c(&[5]), c(&[6])),
                    ],
                },
            ],
        };
        let a = solve_pair_naive(&sys);
        let b = SolverKind::Worklist
            .solve_pair(&sys, &mut BudgetMeter::unlimited())
            .unwrap();
        for v in [PairVar(0), PairVar(1)] {
            assert_eq!(a.get(v), b.get(v));
        }
        assert_eq!(a.get(PairVar(1)).len(), 3); // (1,3), (2,3), (5,6)
        assert!(a.get(PairVar(1)).contains(Label(5), Label(6)));
        assert!(a.get(PairVar(0)).is_subset(&a.get(PairVar(1))));
    }

    #[test]
    fn pair_cycles_converge() {
        // m0 ⊇ m1, m1 ⊇ m0, m1 ⊇ {(1,1)}.
        let sys = PairSystem {
            n_vars: 2,
            universe: 8,
            constraints: vec![
                PairConstraint {
                    lhs: PairVar(0),
                    terms: vec![PairTerm::MVar(PairVar(1))],
                },
                PairConstraint {
                    lhs: PairVar(1),
                    terms: vec![
                        PairTerm::MVar(PairVar(0)),
                        PairTerm::Lcross(Label(1), c(&[1])),
                    ],
                },
            ],
        };
        let s = solve_pair_naive(&sys);
        assert_eq!(s.get(PairVar(0)), s.get(PairVar(1)));
        assert_eq!(s.get(PairVar(0)).len(), 1);
    }
}
