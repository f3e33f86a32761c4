//! `Slabels` — the labels a statement may execute (Figure 3, equations
//! 15–21).
//!
//! `Slabels_p(s)` conservatively approximates the labels of instructions
//! that may run during the execution of `s`, *including* through method
//! calls (equation 21 pulls in the callee body's labels), which makes the
//! definition mutually recursive across methods. The paper solves it as
//! the ⊆-least solution of the equations "using the same iterative
//! approach that we use for level-2 constraints" (§5.3), and Figure 8
//! reports the iteration counts; we do exactly that, reusing the
//! [`solver`](crate::solver) machinery.

use crate::index::{StmtIndex, StmtKind};
use crate::sets::{LabelSet, SharedLabelSet};
use crate::solver::{SetConstraint, SetSystem, SetTerm, SetVar, SolverKind};
use fx10_robust::{BudgetMeter, Exhaustion, Fx10Error};
use fx10_syntax::FuncId;
use std::sync::Arc;

use crate::index::StmtId;

/// The solved `Slabels` function plus solver statistics.
#[derive(Debug, Clone)]
pub struct SlabelsResult {
    per_stmt: Vec<SharedLabelSet>,
    per_method: Vec<SharedLabelSet>,
    /// Number of equations generated (Figure 6 "Slabels" column).
    pub constraint_count: usize,
    /// Naive-solver passes (Figure 8 "Slabels" iterations column).
    pub passes: usize,
    /// Individual constraint evaluations performed.
    pub evals: usize,
    /// `Some` when a budget cut the solve short (sets are then an
    /// under-approximation).
    pub exhausted: Option<Exhaustion>,
}

impl SlabelsResult {
    /// `Slabels_p(s)` for the statement headed at `s`.
    #[inline]
    pub fn stmt(&self, s: StmtId) -> &SharedLabelSet {
        &self.per_stmt[s.index()]
    }

    /// `Slabels_p(p(f))` — the labels of a method's body.
    #[inline]
    pub fn method(&self, f: FuncId) -> &SharedLabelSet {
        &self.per_method[f.index()]
    }

    /// Total bytes held by the solved sets.
    pub fn bytes(&self) -> usize {
        self.per_stmt.iter().map(|s| s.bytes()).sum::<usize>()
            + self.per_method.iter().map(|s| s.bytes()).sum::<usize>()
    }
}

/// Builds the Slabels equation system: one variable and one equation per
/// statement, plus one per method (`slab_f = slab_{body(f)}`, used by the
/// call equation 21).
pub fn slabels_system(idx: &StmtIndex) -> SetSystem {
    let n = idx.len();
    let u = idx.method_count();
    let var_stmt = |s: StmtId| SetVar(s.0);
    let var_method = |f: FuncId| SetVar((n + f.index()) as u32);

    let mut constraints = Vec::with_capacity(n + u);
    // Emission order: later methods first, later statements first, each
    // method's own equation right after its statements — the naive solver
    // then converges in passes proportional to call-graph depth rather
    // than statement-sequence length (the solution is order-independent).
    let mut per_method: Vec<Vec<SetConstraint>> = vec![Vec::new(); u];
    for s in idx.ids() {
        let info = idx.info(s);
        let mut terms = vec![SetTerm::Const(Arc::new(LabelSet::singleton(n, s.label())))];
        match info.kind {
            StmtKind::Simple => {}
            StmtKind::While { body } | StmtKind::Async { body } | StmtKind::Finish { body } => {
                terms.push(SetTerm::Var(var_stmt(body)));
            }
            StmtKind::Call { callee } => terms.push(SetTerm::Var(var_method(callee))),
        }
        if let Some(t) = info.tail {
            terms.push(SetTerm::Var(var_stmt(t)));
        }
        per_method[idx.info(s).method.index()].push(SetConstraint {
            lhs: var_stmt(s),
            terms,
        });
    }
    for f in (0..u).rev() {
        let group = &mut per_method[f];
        group.reverse();
        constraints.append(group);
        constraints.push(SetConstraint {
            lhs: var_method(FuncId(f as u32)),
            terms: vec![SetTerm::Var(var_stmt(idx.method_body(FuncId(f as u32))))],
        });
    }

    SetSystem {
        n_vars: n + u,
        universe: n,
        constraints,
    }
}

/// Solves `Slabels` for the whole program.
///
/// `naive` selects the paper's round-robin iteration (pass counts are then
/// meaningful); otherwise the worklist solver is used.
pub fn compute_slabels(idx: &StmtIndex, naive: bool) -> SlabelsResult {
    let solver = if naive {
        SolverKind::Naive
    } else {
        SolverKind::Worklist
    };
    compute_slabels_budgeted(idx, solver, &mut BudgetMeter::unlimited()).unwrap_or_else(|_| {
        // Unreachable (an unlimited meter never trips); degrade to an
        // empty result rather than panic on a library path.
        SlabelsResult {
            per_stmt: {
                let empty = Arc::new(LabelSet::empty(idx.len()));
                (0..idx.len()).map(|_| Arc::clone(&empty)).collect()
            },
            per_method: Vec::new(),
            constraint_count: 0,
            passes: 0,
            evals: 0,
            exhausted: Some(Exhaustion::SolverIterations),
        }
    })
}

/// [`compute_slabels`] under a budget. The meter is shared with the later
/// analysis phases, so `max_iters` bounds the whole pipeline.
pub fn compute_slabels_budgeted(
    idx: &StmtIndex,
    solver: SolverKind,
    meter: &mut BudgetMeter,
) -> Result<SlabelsResult, Fx10Error> {
    let sys = slabels_system(idx);
    let sol = solver.solve_set(&sys, meter)?;
    let n = idx.len();
    let per_stmt: Vec<SharedLabelSet> = sol.values[..n]
        .iter()
        .map(|s| Arc::new(s.clone()))
        .collect();
    let per_method: Vec<SharedLabelSet> = sol.values[n..]
        .iter()
        .map(|s| Arc::new(s.clone()))
        .collect();
    Ok(SlabelsResult {
        per_stmt,
        per_method,
        constraint_count: sys.constraints.len(),
        passes: sol.passes,
        evals: sol.evals,
        exhausted: sol.exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_syntax::examples;
    use fx10_syntax::{Label, Program};

    fn names(p: &Program, s: &LabelSet) -> Vec<String> {
        s.iter().map(|l| p.labels().display(l)).collect()
    }

    #[test]
    fn slabels_of_example_2_2_includes_callee_labels() {
        let p = examples::example_2_2();
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, true);

        // Slabels of main's body = every label of main plus f's labels.
        let main_body = idx.method_body(p.main());
        assert_eq!(slab.stmt(main_body).len(), p.label_count());

        // Slabels of the F1 call statement (lone, inside S1's finish):
        // {F1} ∪ Slabels(f) = {F1, A5, S5}.
        let f1 = p.labels().lookup("F1").unwrap();
        let got = names(&p, slab.stmt(StmtId(f1.0)));
        assert_eq!(got.len(), 3);
        for n in ["F1", "A5", "S5"] {
            assert!(got.contains(&n.to_string()), "missing {n} in {got:?}");
        }

        // Slabels of f's body (per-method view): {A5, S5}.
        let f = p.find_method("f").unwrap();
        let got = names(&p, slab.method(f));
        assert_eq!(got, vec!["A5", "S5"]);
    }

    #[test]
    fn slabels_handles_recursion() {
        let p = Program::parse("def main() { S; main(); }").unwrap();
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, true);
        // Recursive call: Slabels is the whole method for every suffix.
        for s in idx.ids() {
            assert_eq!(slab.stmt(s).len(), 2);
        }
        assert_eq!(slab.method(p.main()).len(), 2);
    }

    #[test]
    fn slabels_while_includes_body_and_continuation() {
        let p = Program::parse("def main() { while (a[0] != 0) { B; } K; }").unwrap();
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, true);
        let whole = slab.stmt(idx.method_body(p.main()));
        assert_eq!(whole.len(), 3);
        // Suffix starting at K contains only K.
        let k = p.labels().lookup("K").unwrap();
        assert_eq!(slab.stmt(StmtId(k.0)).iter().collect::<Vec<_>>(), vec![k]);
        // Lemma 7.12: FSlabels(s) ⊆ Slabels(s).
        for s in idx.ids() {
            assert!(slab.stmt(s).contains(Label(s.0)));
        }
    }

    #[test]
    fn naive_and_worklist_slabels_agree() {
        for p in [
            examples::example_2_1(),
            examples::example_2_2(),
            examples::add_twice(),
        ] {
            let idx = StmtIndex::build(&p);
            let a = compute_slabels(&idx, true);
            let b = compute_slabels(&idx, false);
            for s in idx.ids() {
                assert_eq!(a.stmt(s), b.stmt(s));
            }
            assert!(a.passes >= 2);
        }
    }

    #[test]
    fn call_chains_need_more_passes() {
        // A call chain laid out against declaration order: main calls f1
        // calls f2 ... — label propagation takes several passes, as the
        // paper observes ("method calls appear to add a significant amount
        // of time ... most notably in Slabels iterations", §6).
        // The solver evaluates later-declared methods first, so a chain
        // whose callees are declared *before* their callers propagates
        // only one level per pass — the adversarial layout.
        let chain = |depth: usize| {
            let mut src = format!("def f{depth}() {{ S; }}\n");
            for d in (1..depth).rev() {
                src.push_str(&format!("def f{d}() {{ f{}(); }}\n", d + 1));
            }
            src.push_str("def main() { f1(); }\n");
            let p = Program::parse(&src).unwrap();
            let idx = StmtIndex::build(&p);
            compute_slabels(&idx, true).passes
        };
        assert!(chain(6) > chain(2), "{} vs {}", chain(6), chain(2));
    }
}
