//! Constraint generation for the condensed form.
//!
//! The paper generates constraints for full X10 via the condensed form:
//! "The constraints for FX10 are all we need to \[do\] type inference for
//! the full X10 language; the remaining constructs generate constraints
//! that are similar to those for FX10" (§5.3). This module defines those
//! "similar" constraints precisely (see DESIGN.md §6):
//!
//! - `end`, `skip`, `return` behave like FX10's `skip`;
//! - `async` (including place-switching), `finish`, `loop` and `call`
//!   follow constraints (72)–(82) with `loop` = `while`;
//! - `if`/`switch` analyze every branch under the same `R` and join:
//!   `o = ∪ o_branch`, `m = Lcross(l, r) ∪ ∪ m_branch`;
//! - `return` additionally feeds its `r` into the method's `o_i` (labels
//!   still running at an early exit may be running when the call
//!   returns); code after a `return` is analyzed anyway (conservative).
//!
//! The same three-phase pipeline as the core crate applies: solve the
//! `Slabels` equations, generate and solve level-1, substitute and solve
//! level-2. All solver machinery is reused from `fx10-core`.

use crate::condensed::{CBlock, CFuncId, CNodeKind, CProgram};
use fx10_core::analysis::{AnalysisStats, SolverKind};
use fx10_core::sets::{LabelSet, PairSet, SharedLabelSet};
use fx10_core::solver::{
    PairConstraint, PairSolution, PairSystem, PairTerm, PairVar, SetConstraint, SetSolution,
    SetSystem, SetTerm, SetVar,
};
use fx10_core::Mode;
use fx10_robust::{Budget, BudgetMeter, CancelToken, Exhaustion, Fx10Error, Stop};
use fx10_syntax::Label;
use std::sync::{Arc, OnceLock};

/// A symbolic level-2 term for the condensed form.
#[derive(Debug, Clone)]
enum SymTerm {
    Lcross(Label, SetVar),
    /// `symcross(const, var)` where the constant is a solved Slabels set.
    SymcrossConst(SharedLabelSet, SetVar),
    MVar(PairVar),
}

/// One async site of a condensed program, with its body's label set —
/// what the Figure 8 pair report needs.
#[derive(Debug, Clone)]
pub struct CAsyncSite {
    /// The async node's label.
    pub label: Label,
    /// `Slabels` of the async body.
    pub body_labels: LabelSet,
    /// Enclosing method.
    pub method: CFuncId,
}

/// A solved analysis of a condensed program.
#[derive(Debug, Clone)]
pub struct CondensedAnalysis {
    /// Analysis mode.
    pub mode: Mode,
    /// The level-2 solution; `M_i` is variable `n + i`.
    l2: PairSolution,
    n: usize,
    /// `M_i` per method, materialised from `l2` on first read.
    m_methods: Vec<OnceLock<PairSet>>,
    /// `O_i` per method.
    pub o_methods: Vec<LabelSet>,
    /// Main method index.
    pub main: CFuncId,
    /// Async sites (for the pair report).
    pub asyncs: Vec<CAsyncSite>,
    /// Counters matching Figures 6 and 8.
    pub stats: AnalysisStats,
    /// `Some` when a budget cut a solver phase short: the sets are then a
    /// sound under-approximation of the analysis's answer.
    pub exhausted: Option<Exhaustion>,
}

impl CondensedAnalysis {
    /// `M` of the main method — the program's MHP approximation.
    pub fn mhp(&self) -> &PairSet {
        self.m_method(self.main)
    }

    /// `M_i` of a method, materialised from the level-2 solution on
    /// first read.
    pub fn m_method(&self, f: CFuncId) -> &PairSet {
        self.m_methods[f.index()].get_or_init(|| self.l2.get(PairVar((self.n + f.index()) as u32)))
    }

    /// May labels `a` and `b` happen in parallel?
    pub fn may_happen_in_parallel(&self, a: Label, b: Label) -> bool {
        self.mhp().contains(a, b)
    }
}

struct GenState<'a> {
    p: &'a CProgram,
    n: usize,
    u: usize,
    mode: Mode,
    slab: Option<SetSolution>,
    l1: Vec<SetConstraint>,
    l2: Vec<(PairVar, Vec<SymTerm>)>,
    /// Per method: extra `o_i ⊇ …` terms from return nodes.
    method_o_terms: Vec<Vec<SetTerm>>,
    /// Enclosing method of each node label (for constraint ordering).
    label_method: Vec<u32>,
    asyncs: Vec<CAsyncSite>,
    current_method: CFuncId,
}

impl<'a> GenState<'a> {
    fn new(p: &'a CProgram, mode: Mode) -> Self {
        let mut label_method = vec![0u32; p.label_count()];
        p.for_each_node(|f, node| label_method[node.label.index()] = f.0);
        GenState {
            p,
            n: p.label_count(),
            u: p.method_count(),
            mode,
            slab: None,
            l1: Vec::new(),
            l2: Vec::new(),
            method_o_terms: vec![Vec::new(); p.method_count()],
            asyncs: Vec::new(),
            current_method: CFuncId(0),
            label_method,
        }
    }

    /// Orders constraints so that the naive round-robin solver converges
    /// in few passes, matching the paper's small iteration counts: later
    /// methods first (callees precede callers under the generators'
    /// forward call edges), and within a method later labels first (a
    /// suffix's set is computed before the prefixes that include it).
    /// The solved values are order-independent; only pass counts change.
    fn rank(&self, lhs_index: usize, n_for_kind: usize) -> u64 {
        let (method, sub) = if lhs_index >= n_for_kind {
            ((lhs_index - n_for_kind) as u32, u32::MAX)
        } else {
            (
                self.label_method[lhs_index],
                (n_for_kind - lhs_index) as u32,
            )
        };
        (((self.u as u32).saturating_sub(1 + method)) as u64) << 32 | sub as u64
    }

    // ---- variable layout --------------------------------------------
    fn rest(&self, l: Label) -> SetVar {
        SetVar(l.0)
    }
    fn slab_method(&self, f: CFuncId) -> SetVar {
        SetVar((self.n + f.index()) as u32)
    }
    fn slab_empty(&self) -> SetVar {
        SetVar((self.n + self.u) as u32)
    }
    fn r(&self, l: Label) -> SetVar {
        SetVar(2 * l.0)
    }
    fn o(&self, l: Label) -> SetVar {
        SetVar(2 * l.0 + 1)
    }
    fn oi(&self, f: CFuncId) -> SetVar {
        SetVar((2 * self.n + f.index()) as u32)
    }
    fn ri(&self, f: CFuncId) -> SetVar {
        SetVar((2 * self.n + self.u + f.index()) as u32)
    }
    fn m(&self, l: Label) -> PairVar {
        PairVar(l.0)
    }
    fn mi(&self, f: CFuncId) -> PairVar {
        PairVar((self.n + f.index()) as u32)
    }

    // ---- phase A: Slabels -------------------------------------------
    /// Emits rest-var equations for a block; returns the var holding
    /// `Slabels(block) ∪ value(cont)`.
    fn slab_block(&mut self, b: &CBlock, cont: SetVar, out: &mut Vec<SetConstraint>) -> SetVar {
        let mut next = cont;
        for node in b.nodes.iter().rev() {
            let v = self.rest(node.label);
            let mut terms = vec![
                SetTerm::Const(Arc::new(LabelSet::singleton(self.n, node.label))),
                SetTerm::Var(next),
            ];
            match &node.kind {
                CNodeKind::Async { body, .. }
                | CNodeKind::Finish { body }
                | CNodeKind::Loop { body } => {
                    let empty = self.slab_empty();
                    let bv = self.slab_block(body, empty, out);
                    if bv != empty {
                        terms.push(SetTerm::Var(bv));
                    }
                }
                CNodeKind::If { then_, else_ } => {
                    for branch in [then_, else_] {
                        let bv = self.slab_block(branch, next, out);
                        if bv != next {
                            terms.push(SetTerm::Var(bv));
                        }
                    }
                }
                CNodeKind::Switch { cases } => {
                    for case in cases {
                        let bv = self.slab_block(case, next, out);
                        if bv != next {
                            terms.push(SetTerm::Var(bv));
                        }
                    }
                }
                CNodeKind::Call { callee } => {
                    terms.push(SetTerm::Var(self.slab_method(*callee)));
                }
                CNodeKind::End | CNodeKind::Skip | CNodeKind::Return => {}
            }
            out.push(SetConstraint { lhs: v, terms });
            next = v;
        }
        next
    }

    fn solve_slabels(
        &mut self,
        solver: SolverKind,
        meter: &mut BudgetMeter,
    ) -> Result<(usize, usize, usize), Fx10Error> {
        let mut constraints = Vec::new();
        let mut firsts = Vec::with_capacity(self.u);
        let methods: Vec<CBlock> = self.p.methods().iter().map(|m| m.body.clone()).collect();
        for body in &methods {
            let empty = self.slab_empty();
            let first = self.slab_block(body, empty, &mut constraints);
            firsts.push(first);
        }
        for (i, first) in firsts.into_iter().enumerate() {
            constraints.push(SetConstraint {
                lhs: self.slab_method(CFuncId(i as u32)),
                terms: vec![SetTerm::Var(first)],
            });
        }
        let count = constraints.len();
        constraints.sort_by_key(|c| self.rank(c.lhs.index(), self.n));
        let sys = SetSystem {
            n_vars: self.n + self.u + 1,
            universe: self.n,
            constraints,
        };
        let sol = solver.solve_set(&sys, meter)?;
        let (passes, evals) = (sol.passes, sol.evals);
        self.slab = Some(sol);
        Ok((count, passes, evals))
    }

    fn slab_of_block(&self, b: &CBlock) -> LabelSet {
        match b.nodes.first() {
            Some(n) => self.slab.as_ref().unwrap().get(self.rest(n.label)).clone(),
            None => LabelSet::empty(self.n),
        }
    }

    /// The solved `Slabels` constant held by a phase-A variable.
    fn slab_const(&self, v: SetVar) -> SharedLabelSet {
        Arc::new(self.slab.as_ref().unwrap().get(v).clone())
    }

    // ---- phases B+C: level-1 and symbolic level-2 --------------------
    /// Generates constraints for a non-empty block.
    ///
    /// `r_seed` — terms seeding the first node's `r`;
    /// `cont_slab` — phase-A var for `Slabels` of the code following the
    /// block (used by async nodes near the block end).
    ///
    /// Returns `(o_out, m_first)`; `None` when the block is empty.
    fn gen_block(
        &mut self,
        b: &CBlock,
        r_seed: Vec<SetTerm>,
        cont_slab: SetVar,
    ) -> Option<(SetVar, PairVar)> {
        b.nodes.first()?;
        let mut prev_o: Option<SetVar> = None;
        let mut node_ms: Vec<(PairVar, Vec<SymTerm>)> = Vec::with_capacity(b.nodes.len());

        for (i, node) in b.nodes.iter().enumerate() {
            let l = node.label;
            let r_node = self.r(l);
            let o_node = self.o(l);
            // Chain r: first node gets the seed, later nodes the previous o.
            let terms = match prev_o {
                None => r_seed.clone(),
                Some(po) => vec![SetTerm::Var(po)],
            };
            self.l1.push(SetConstraint { lhs: r_node, terms });

            // Slabels of the continuation after this node (phase-A var).
            let next_slab = match b.nodes.get(i + 1) {
                Some(nn) => self.rest(nn.label),
                None => cont_slab,
            };

            let mut m_terms: Vec<SymTerm> = vec![SymTerm::Lcross(l, r_node)];
            match &node.kind {
                CNodeKind::End | CNodeKind::Skip => {
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: vec![SetTerm::Var(r_node)],
                    });
                }
                CNodeKind::Return => {
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: vec![SetTerm::Var(r_node)],
                    });
                    // Labels live at the early exit may be live when the
                    // call returns.
                    self.method_o_terms[self.current_method.index()].push(SetTerm::Var(r_node));
                }
                CNodeKind::Async { body, .. } => {
                    let body_slab = self.slab_of_block(body);
                    self.asyncs.push(CAsyncSite {
                        label: l,
                        body_labels: body_slab.clone(),
                        method: self.current_method,
                    });
                    // (72): r_body = Slabels(continuation) ∪ r_s.
                    let cont_const = self.slab_const(next_slab);
                    let empty = self.slab_empty();
                    if let Some((_o_body, m_body)) = self.gen_block(
                        body,
                        vec![SetTerm::Const(cont_const), SetTerm::Var(r_node)],
                        empty,
                    ) {
                        m_terms.push(SymTerm::MVar(m_body));
                    }
                    // (73)/(74) collapsed into the node chain:
                    // o = Slabels(body) ∪ r, so the continuation's r picks
                    // up the body labels.
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: vec![SetTerm::Const(Arc::new(body_slab)), SetTerm::Var(r_node)],
                    });
                }
                CNodeKind::Finish { body } => {
                    // (76)–(79): body typed with r; its o discarded.
                    let empty = self.slab_empty();
                    if let Some((_o_body, m_body)) =
                        self.gen_block(body, vec![SetTerm::Var(r_node)], empty)
                    {
                        m_terms.push(SymTerm::MVar(m_body));
                    }
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: vec![SetTerm::Var(r_node)],
                    });
                }
                CNodeKind::Loop { body } => {
                    // (68)–(71), loop = while: body assumed to run ≥ 2×.
                    let body_slab = Arc::new(self.slab_of_block(body));
                    let empty = self.slab_empty();
                    let o_body = match self.gen_block(body, vec![SetTerm::Var(r_node)], empty) {
                        Some((o_body, m_body)) => {
                            m_terms.push(SymTerm::MVar(m_body));
                            o_body
                        }
                        None => r_node,
                    };
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: vec![SetTerm::Var(o_body)],
                    });
                    // m uses Lcross(l, O1) — replace the default r term.
                    m_terms[0] = SymTerm::Lcross(l, o_body);
                    m_terms.push(SymTerm::SymcrossConst(body_slab, o_body));
                }
                CNodeKind::Call { callee } => {
                    if self.mode.is_ci() {
                        // (83): r_i ⊇ r_s.
                        self.l1.push(SetConstraint {
                            lhs: self.ri(*callee),
                            terms: vec![SetTerm::Var(r_node)],
                        });
                    }
                    // (80)/(81) collapsed: o = r ∪ o_i.
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: vec![SetTerm::Var(r_node), SetTerm::Var(self.oi(*callee))],
                    });
                    // (82): symcross(Slabels(p(f_i)), r_s) ∪ m_i.
                    let keep_scross = match self.mode {
                        Mode::ContextSensitive => true,
                        Mode::ContextInsensitive { keep_scross } => keep_scross,
                    };
                    if keep_scross {
                        let callee_slab = self.slab_const(self.slab_method(*callee));
                        m_terms.push(SymTerm::SymcrossConst(callee_slab, r_node));
                    }
                    m_terms.push(SymTerm::MVar(self.mi(*callee)));
                }
                CNodeKind::If { then_, else_ } => {
                    let mut o_terms = Vec::new();
                    for branch in [then_, else_] {
                        match self.gen_block(branch, vec![SetTerm::Var(r_node)], next_slab) {
                            Some((o_b, m_b)) => {
                                o_terms.push(SetTerm::Var(o_b));
                                m_terms.push(SymTerm::MVar(m_b));
                            }
                            None => o_terms.push(SetTerm::Var(r_node)),
                        }
                    }
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: o_terms,
                    });
                }
                CNodeKind::Switch { cases } => {
                    let mut o_terms = Vec::new();
                    if cases.is_empty() {
                        o_terms.push(SetTerm::Var(r_node));
                    }
                    for case in cases.clone() {
                        match self.gen_block(&case, vec![SetTerm::Var(r_node)], next_slab) {
                            Some((o_b, m_b)) => {
                                o_terms.push(SetTerm::Var(o_b));
                                m_terms.push(SymTerm::MVar(m_b));
                            }
                            None => o_terms.push(SetTerm::Var(r_node)),
                        }
                    }
                    self.l1.push(SetConstraint {
                        lhs: o_node,
                        terms: o_terms,
                    });
                }
            }

            node_ms.push((self.m(l), m_terms));
            prev_o = Some(o_node);
        }

        // Chain m: m(node_i) ⊇ m(node_{i+1}) (FX10-style suffix m sets).
        for i in 0..node_ms.len().saturating_sub(1) {
            let next_m = node_ms[i + 1].0;
            node_ms[i].1.push(SymTerm::MVar(next_m));
        }
        let first_m = node_ms.first().map(|(v, _)| *v);
        self.l2.extend(node_ms);

        Some((prev_o.unwrap(), first_m.unwrap()))
    }
}

/// Runs the full analysis pipeline on a condensed program. Infallible
/// legacy entry point (unlimited budget).
pub fn analyze_condensed(p: &CProgram, mode: Mode, solver: SolverKind) -> CondensedAnalysis {
    // An unlimited budget and an uncancellable token cannot trip.
    analyze_condensed_budgeted(p, mode, solver, Budget::unlimited(), &CancelToken::new())
        .expect("condensed analysis with an unlimited budget cannot fail")
}

/// [`analyze_condensed`] under a [`Budget`], observing `cancel`. Budget
/// exhaustion tags the (partial, under-approximate) result; cancellation
/// returns `Err`.
pub fn analyze_condensed_budgeted(
    p: &CProgram,
    mode: Mode,
    solver: SolverKind,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<CondensedAnalysis, Fx10Error> {
    let start = std::time::Instant::now();
    let mut meter = BudgetMeter::new(budget, cancel.clone());
    let n = p.label_count();
    let u = p.method_count();
    let mut g = GenState::new(p, mode);

    // Phase A.
    let (slab_count, slab_passes, slab_evals) = g.solve_slabels(solver, &mut meter)?;
    let slab_exhausted = g.slab.as_ref().and_then(|s| s.exhausted);
    if let Err(stop @ Stop::Cancelled) = meter.checkpoint() {
        return Err(stop.into());
    }

    // Phases B+C: generate.
    let bodies: Vec<CBlock> = p.methods().iter().map(|m| m.body.clone()).collect();
    for (i, body) in bodies.iter().enumerate() {
        let f = CFuncId(i as u32);
        g.current_method = f;
        // (57)/(84): seed for the method body's first r.
        let seed = if mode.is_ci() {
            vec![SetTerm::Var(g.ri(f))]
        } else {
            vec![]
        };
        let empty = g.slab_empty();
        let gen_out = g.gen_block(body, seed, empty);
        // (58): o_i ⊇ o at body end ∪ r at each return.
        let mut terms = std::mem::take(&mut g.method_o_terms[i]);
        match gen_out {
            Some((o_out, m_first)) => {
                terms.push(SetTerm::Var(o_out));
                // (59): m_i = m of body.
                g.l2.push((g.mi(f), vec![SymTerm::MVar(m_first)]));
            }
            None => {
                // Empty body: nothing runs; o_i ⊇ r_i under CI.
                if mode.is_ci() {
                    terms.push(SetTerm::Var(g.ri(f)));
                }
                g.l2.push((g.mi(f), vec![]));
            }
        }
        g.l1.push(SetConstraint {
            lhs: g.oi(f),
            terms,
        });
    }

    // Solve level-1.
    let l1_sys = SetSystem {
        n_vars: 2 * n + u + if mode.is_ci() { u } else { 0 },
        universe: n,
        constraints: std::mem::take(&mut g.l1),
    };
    let l1 = solver.solve_set(&l1_sys, &mut meter)?;
    if let Err(stop @ Stop::Cancelled) = meter.checkpoint() {
        return Err(stop.into());
    }

    // Simplify and solve level-2 (ordered for fast convergence; see rank).
    let mut l2_sorted = std::mem::take(&mut g.l2);
    l2_sorted.sort_by_key(|(lhs, _)| g.rank(lhs.index(), n));
    g.l2 = l2_sorted;
    let mut share = l1.sharer();
    let l2_sys = PairSystem {
        n_vars: n + u,
        universe: n,
        constraints: g
            .l2
            .iter()
            .map(|(lhs, terms)| PairConstraint {
                lhs: *lhs,
                terms: terms
                    .iter()
                    .map(|t| match t {
                        SymTerm::Lcross(l, v) => PairTerm::Lcross(*l, share(*v)),
                        SymTerm::SymcrossConst(c, v) => PairTerm::Symcross(c.clone(), share(*v)),
                        SymTerm::MVar(v) => PairTerm::MVar(*v),
                    })
                    .collect(),
            })
            .collect(),
    };
    let l2 = solver.solve_pair(&l2_sys, &mut meter)?;

    let stats = AnalysisStats {
        slabels_constraints: slab_count,
        level1_constraints: l1_sys.constraints.len(),
        level2_constraints: l2_sys.constraints.len(),
        slabels_passes: slab_passes,
        level1_passes: l1.passes,
        level2_passes: l2.passes,
        evals: slab_evals + l1.evals + l2.evals,
        bytes: g.slab.as_ref().map(|s| s.bytes()).unwrap_or(0) + l1.bytes() + l2.bytes(),
        millis: start.elapsed().as_secs_f64() * 1e3,
    };

    let exhausted = slab_exhausted
        .or(l1.exhausted)
        .or(l2.exhausted)
        .or(meter.exhaustion());
    Ok(CondensedAnalysis {
        mode,
        l2,
        n,
        m_methods: vec![OnceLock::new(); u],
        o_methods: (0..u)
            .map(|i| l1.get(SetVar((2 * n + i) as u32)).clone())
            .collect(),
        main: p.main(),
        asyncs: std::mem::take(&mut g.asyncs),
        stats,
        exhausted,
    })
}

/// The Figure 8 async-body pair report for a condensed program, with the
/// same *self*/*same*/*diff* categorization as
/// [`fx10_core::report::async_pairs`].
pub fn async_pairs_condensed(ca: &CondensedAnalysis) -> fx10_core::report::AsyncPairReport {
    use fx10_core::report::{AsyncPair, AsyncPairReport, PairCategory};
    let m = ca.mhp();
    let mut report = AsyncPairReport::default();
    for (i, si) in ca.asyncs.iter().enumerate() {
        if si.body_labels.iter().any(|x| m.contains(x, x)) {
            report.pairs.push(AsyncPair {
                a: si.label,
                b: si.label,
                category: PairCategory::SelfPair,
            });
            report.self_pairs += 1;
        }
        for sj in ca.asyncs.iter().skip(i + 1) {
            let overlap = si
                .body_labels
                .iter()
                .any(|x| m.row_intersects(x, &sj.body_labels));
            if overlap {
                let category = if si.method == sj.method {
                    report.same_method += 1;
                    PairCategory::SameMethod
                } else {
                    report.diff_method += 1;
                    PairCategory::DiffMethod
                };
                report.pairs.push(AsyncPair {
                    a: si.label,
                    b: sj.label,
                    category,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::CAst;

    fn prog(methods: Vec<(&str, Vec<CAst>)>) -> CProgram {
        CProgram::new(
            methods
                .into_iter()
                .map(|(n, b)| (n.to_string(), b))
                .collect(),
            10,
        )
        .unwrap()
    }

    fn cs(p: &CProgram) -> CondensedAnalysis {
        analyze_condensed(p, Mode::ContextSensitive, SolverKind::Naive)
    }

    /// The §2.2 example expressed in condensed form must behave as in
    /// FX10: the CS analysis finds no (S3, S4)-style pair, CI does.
    #[test]
    fn condensed_matches_fx10_on_example_2_2_shape() {
        let mk = || {
            prog(vec![
                (
                    "f",
                    vec![CAst::Async(vec![CAst::Skip], false)], // A5 { S5 }
                ),
                (
                    "main",
                    vec![
                        CAst::Finish(vec![
                            CAst::Async(vec![CAst::Skip], false), // A3 { S3 }
                            CAst::Call("f".into()),
                        ]),
                        CAst::Finish(vec![
                            CAst::Call("f".into()),
                            CAst::Async(vec![CAst::Skip], false), // A4 { S4 }
                        ]),
                    ],
                ),
            ])
        };
        let p = mk();
        // Find labels: S3 is the body of the first async in main; S4 the
        // body of the second.
        let mut asyncs_in_main = Vec::new();
        p.for_each_node(|f, n| {
            if f == p.main() {
                if let CNodeKind::Async { body, .. } = &n.kind {
                    asyncs_in_main.push(body.nodes[0].label);
                }
            }
        });
        let (s3, s4) = (asyncs_in_main[0], asyncs_in_main[1]);

        let a = cs(&p);
        assert!(
            !a.may_happen_in_parallel(s3, s4),
            "CS must separate call sites"
        );
        let ci = analyze_condensed(
            &p,
            Mode::ContextInsensitive { keep_scross: true },
            SolverKind::Naive,
        );
        assert!(ci.may_happen_in_parallel(s3, s4), "CI merges call sites");
        // And the pair report sees exactly 2 diff pairs under CS (A5×A3,
        // A5×A4) vs 3 under CI (adds A3×A4).
        let rep = async_pairs_condensed(&a);
        assert_eq!(
            (rep.self_pairs, rep.same_method, rep.diff_method),
            (0, 0, 2)
        );
        let rep = async_pairs_condensed(&ci);
        assert_eq!(
            (rep.self_pairs, rep.same_method, rep.diff_method),
            (0, 1, 2)
        );
    }

    #[test]
    fn if_branches_join() {
        // if (?) { async {S} } else { skip }  K
        // The async body may run in parallel with K regardless of branch.
        let p = prog(vec![(
            "main",
            vec![
                CAst::If(vec![CAst::Async(vec![CAst::Skip], false)], vec![CAst::Skip]),
                CAst::Skip, // K
            ],
        )]);
        let a = cs(&p);
        // Labels: 0=if, 1=async, 2=S, 3=else-skip, 4=K.
        assert!(
            a.may_happen_in_parallel(Label(2), Label(4)),
            "{:?}",
            a.mhp()
        );
        // The two branches never run in parallel with each other.
        assert!(!a.may_happen_in_parallel(Label(2), Label(3)));
    }

    #[test]
    fn switch_cases_join() {
        let p = prog(vec![(
            "main",
            vec![
                CAst::Switch(vec![
                    vec![CAst::Async(vec![CAst::Skip], false)], // 1,2
                    vec![CAst::Skip],                           // 3
                    vec![],
                ]),
                CAst::Skip, // 4
            ],
        )]);
        let a = cs(&p);
        assert!(a.may_happen_in_parallel(Label(2), Label(4)));
        assert!(!a.may_happen_in_parallel(Label(2), Label(3)));
    }

    #[test]
    fn finish_inside_if_discards_o() {
        let p = prog(vec![(
            "main",
            vec![
                CAst::If(
                    vec![CAst::Finish(vec![CAst::Async(vec![CAst::Skip], false)])],
                    vec![],
                ),
                CAst::Skip, // K
            ],
        )]);
        let a = cs(&p);
        // Labels: 0=if, 1=finish, 2=async, 3=S, 4=K.
        assert!(!a.may_happen_in_parallel(Label(3), Label(4)));
    }

    #[test]
    fn loop_async_self_overlaps() {
        let p = prog(vec![(
            "main",
            vec![CAst::Loop(vec![CAst::Async(vec![CAst::Skip], false)])],
        )]);
        let a = cs(&p);
        // Labels: 0=loop, 1=async, 2=S.
        assert!(a.may_happen_in_parallel(Label(2), Label(2)));
        let rep = async_pairs_condensed(&a);
        assert_eq!(rep.self_pairs, 1);
    }

    #[test]
    fn return_propagates_live_asyncs_to_caller() {
        // def f() { async {S} return; }  def main() { f(); K }
        // S may still run when f returns, so S ∥ K.
        let p = prog(vec![
            (
                "f",
                vec![CAst::Async(vec![CAst::Skip], false), CAst::Return],
            ),
            ("main", vec![CAst::Call("f".into()), CAst::Skip]),
        ]);
        let a = cs(&p);
        // Labels: 0=async, 1=S, 2=return, 3=call, 4=K.
        assert!(
            a.may_happen_in_parallel(Label(1), Label(4)),
            "{:?}",
            a.mhp()
        );
    }

    #[test]
    fn return_inside_finish_does_not_leak() {
        // def f() { finish { async {S} } return; }  main { f(); K }
        let p = prog(vec![
            (
                "f",
                vec![
                    CAst::Finish(vec![CAst::Async(vec![CAst::Skip], false)]),
                    CAst::Return,
                ],
            ),
            ("main", vec![CAst::Call("f".into()), CAst::Skip]),
        ]);
        let a = cs(&p);
        // Labels: 0=finish, 1=async, 2=S, 3=return, 4=call, 5=K.
        assert!(!a.may_happen_in_parallel(Label(2), Label(5)));
    }

    #[test]
    fn early_return_before_async_still_counts_continuation() {
        // Conservative: code after return is analyzed anyway.
        let p = prog(vec![
            (
                "f",
                vec![CAst::Return, CAst::Async(vec![CAst::Skip], false)],
            ),
            ("main", vec![CAst::Call("f".into()), CAst::Skip]),
        ]);
        let a = cs(&p);
        // Labels: 0=return, 1=async, 2=S, 3=call, 4=K.
        assert!(a.may_happen_in_parallel(Label(2), Label(4)));
    }

    #[test]
    fn stats_counts_are_structural() {
        let p = prog(vec![(
            "main",
            vec![
                CAst::Loop(vec![CAst::Async(vec![CAst::Skip], false)]),
                CAst::End,
            ],
        )]);
        let a = cs(&p);
        // Slabels: one per node + one per method.
        assert_eq!(a.stats.slabels_constraints, p.label_count() + 1);
        // Level-2: one m per node + one per method.
        assert_eq!(a.stats.level2_constraints, p.label_count() + 1);
        assert!(a.stats.level1_constraints > a.stats.level2_constraints);
    }

    #[test]
    fn naive_and_worklist_agree() {
        let p = prog(vec![
            (
                "f",
                vec![
                    CAst::If(
                        vec![CAst::Async(vec![CAst::Skip], true)],
                        vec![CAst::Return],
                    ),
                    CAst::Skip,
                ],
            ),
            (
                "main",
                vec![
                    CAst::Loop(vec![CAst::Call("f".into())]),
                    CAst::Finish(vec![CAst::Async(vec![CAst::Call("f".into())], false)]),
                    CAst::Skip,
                ],
            ),
        ]);
        let a = analyze_condensed(&p, Mode::ContextSensitive, SolverKind::Naive);
        let b = analyze_condensed(&p, Mode::ContextSensitive, SolverKind::Worklist);
        for f in 0..p.method_count() {
            let f = CFuncId(f as u32);
            assert_eq!(a.m_method(f), b.m_method(f));
        }
        assert_eq!(a.o_methods, b.o_methods);
    }
}
