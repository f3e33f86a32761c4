//! Constraint generation (paper §5.1, constraints 57–82; §7, 83–84).
//!
//! For every statement `s` we generate set variables `r_s`, `o_s` (label
//! sets — *level-1*) and `m_s` (label pairs — *level-2*); for every method
//! `f_i`, variables `o_i` and `m_i`. The context-insensitive variant adds
//! `r_i` per method (§7).
//!
//! **Lone instructions.** The paper writes the constraints for `i s₁`
//! forms; the grammar also allows a lone instruction. The lone variants
//! below are exactly the ones the paper's own Figure 5 uses (e.g.
//! `o_{S7} = {S12} ∪ r_{S7}` for the lone `async S12`):
//!
//! ```text
//! lone skip/assign:  o_s = r_s
//! lone while:        o_s = o_{body}
//! lone async:        r_{body} = r_s          o_s = Slabels(body) ∪ r_s
//! lone finish:       r_{body} = r_s          o_s = r_s
//! lone call:         o_s = r_s ∪ o_i
//! ```
//!
//! with the `m_s` constraint in each case dropping the missing `m` of the
//! continuation.
//!
//! Level-2 constraints are generated *symbolically* (label-set arguments
//! refer to level-1 variables or Slabels entries) and
//! [simplified](simplify) into constants once level-1 is solved — the
//! paper's three-phase implementation strategy (§5.3).

use crate::index::{StmtId, StmtIndex, StmtKind};
use crate::slabels::SlabelsResult;
use crate::solver::{
    PairConstraint, PairSystem, PairTerm, PairVar, SetConstraint, SetSolution, SetSystem, SetTerm,
    SetVar,
};
use fx10_syntax::{FuncId, Label, Program};

/// Which analysis to generate constraints for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The paper's context-sensitive analysis (§5).
    ContextSensitive,
    /// The §7 baseline: merge `r` information across call sites.
    ///
    /// `keep_scross` retains the `symcross(Slabels(p(f_i)), r_s)` term of
    /// constraint (82); the paper notes it can be removed without changing
    /// the analysis (the pairs re-arise via `r_s ⊆ r_i`), which our
    /// equivalence test verifies.
    ContextInsensitive {
        /// Keep the removable `symcross` term of constraint (82).
        keep_scross: bool,
    },
}

impl Mode {
    /// True for the context-insensitive variant.
    pub fn is_ci(self) -> bool {
        matches!(self, Mode::ContextInsensitive { .. })
    }
}

/// Variable layout for a program with `n` statements and `u` methods.
///
/// Level-1: `r_s = 2s`, `o_s = 2s+1`, `o_i = 2n+i`, and (CI only)
/// `r_i = 2n+u+i`. Level-2: `m_s = s`, `m_i = n+i`.
#[derive(Debug, Clone, Copy)]
pub struct VarLayout {
    /// Number of statements.
    pub n: usize,
    /// Number of methods.
    pub u: usize,
    /// Whether `r_i` variables exist.
    pub ci: bool,
}

impl VarLayout {
    /// `r_s`.
    #[inline]
    pub fn r(&self, s: StmtId) -> SetVar {
        SetVar(2 * s.0)
    }

    /// `o_s`.
    #[inline]
    pub fn o(&self, s: StmtId) -> SetVar {
        SetVar(2 * s.0 + 1)
    }

    /// `o_i`.
    #[inline]
    pub fn oi(&self, f: FuncId) -> SetVar {
        SetVar((2 * self.n + f.index()) as u32)
    }

    /// `r_i` (context-insensitive only).
    #[inline]
    pub fn ri(&self, f: FuncId) -> SetVar {
        debug_assert!(self.ci);
        SetVar((2 * self.n + self.u + f.index()) as u32)
    }

    /// `m_s`.
    #[inline]
    pub fn m(&self, s: StmtId) -> PairVar {
        PairVar(s.0)
    }

    /// `m_i`.
    #[inline]
    pub fn mi(&self, f: FuncId) -> PairVar {
        PairVar((self.n + f.index()) as u32)
    }

    /// Total level-1 variables.
    pub fn level1_vars(&self) -> usize {
        2 * self.n + self.u + if self.ci { self.u } else { 0 }
    }

    /// Total level-2 variables.
    pub fn level2_vars(&self) -> usize {
        self.n + self.u
    }
}

/// A reference to a solved `Slabels` set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabRef {
    /// `Slabels_p(s)`.
    Stmt(StmtId),
    /// `Slabels_p(p(f))`.
    Method(FuncId),
}

/// A symbolic level-2 term (before level-1 substitution).
#[derive(Debug, Clone)]
pub enum SymPairTerm {
    /// `Lcross(l, v)` where `v` is a level-1 variable.
    Lcross(Label, SetVar),
    /// `symcross(slab, v)` — covers both `Scross_p(s, v)` (slab = that
    /// statement's Slabels) and `symcross(Slabels_p(p(f_i)), v)`.
    Symcross(SlabRef, SetVar),
    /// Another m-variable.
    MVar(PairVar),
}

/// `lhs ⊇ union(terms)` over pair sets, symbolically.
#[derive(Debug, Clone)]
pub struct SymPairConstraint {
    /// The constrained m-variable.
    pub lhs: PairVar,
    /// Right-hand-side terms, joined by union.
    pub terms: Vec<SymPairTerm>,
}

/// The generated constraint systems.
#[derive(Debug, Clone)]
pub struct GenOutput {
    /// Variable layout shared by both levels.
    pub layout: VarLayout,
    /// The level-1 system (r/o variables).
    pub level1: SetSystem,
    /// The symbolic level-2 system (m variables).
    pub level2: Vec<SymPairConstraint>,
    /// Which analysis these constraints encode.
    pub mode: Mode,
}

/// Generates the constraint systems for `p` under `mode`.
pub fn generate(p: &Program, idx: &StmtIndex, slab: &SlabelsResult, mode: Mode) -> GenOutput {
    debug_assert_eq!(p.label_count(), idx.len());
    let layout = VarLayout {
        n: idx.len(),
        u: idx.method_count(),
        ci: mode.is_ci(),
    };
    let mut l1: Vec<SetConstraint> = Vec::new();
    let mut l2: Vec<SymPairConstraint> = Vec::new();

    // Per-method constraints (57)–(59) / CI (84).
    for f in 0..layout.u {
        let f = FuncId(f as u32);
        let body = idx.method_body(f);
        match mode {
            Mode::ContextSensitive => {
                // (57) r_{s_i} = ∅.
                l1.push(SetConstraint {
                    lhs: layout.r(body),
                    terms: vec![],
                });
            }
            Mode::ContextInsensitive { .. } => {
                // (84) r_{s_i} = r_i.
                l1.push(SetConstraint {
                    lhs: layout.r(body),
                    terms: vec![SetTerm::Var(layout.ri(f))],
                });
            }
        }
        // (58) o_i = o_{s_i}.
        l1.push(SetConstraint {
            lhs: layout.oi(f),
            terms: vec![SetTerm::Var(layout.o(body))],
        });
        // (59) m_i = m_{s_i}.
        l2.push(SymPairConstraint {
            lhs: layout.mi(f),
            terms: vec![SymPairTerm::MVar(layout.m(body))],
        });
    }

    // Per-statement constraints.
    for s in idx.ids() {
        let info = idx.info(s);
        let l = s.label();
        let tail = info.tail;
        match info.kind {
            // skip / assignment: (60)–(61) lone, (62)–(64) sequenced.
            StmtKind::Simple => match tail {
                None => {
                    l1.push(SetConstraint {
                        lhs: layout.o(s),
                        terms: vec![SetTerm::Var(layout.r(s))],
                    });
                    l2.push(SymPairConstraint {
                        lhs: layout.m(s),
                        terms: vec![SymPairTerm::Lcross(l, layout.r(s))],
                    });
                }
                Some(t) => {
                    l1.push(SetConstraint {
                        lhs: layout.r(t),
                        terms: vec![SetTerm::Var(layout.r(s))],
                    });
                    l1.push(SetConstraint {
                        lhs: layout.o(s),
                        terms: vec![SetTerm::Var(layout.o(t))],
                    });
                    l2.push(SymPairConstraint {
                        lhs: layout.m(s),
                        terms: vec![
                            SymPairTerm::Lcross(l, layout.r(s)),
                            SymPairTerm::MVar(layout.m(t)),
                        ],
                    });
                }
            },
            // while: (68)–(71).
            StmtKind::While { body } => {
                // (68) r_{s1} = r_s.
                l1.push(SetConstraint {
                    lhs: layout.r(body),
                    terms: vec![SetTerm::Var(layout.r(s))],
                });
                let mut m_terms = vec![
                    SymPairTerm::Lcross(l, layout.o(body)),
                    SymPairTerm::Symcross(SlabRef::Stmt(body), layout.o(body)),
                    SymPairTerm::MVar(layout.m(body)),
                ];
                match tail {
                    None => {
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![SetTerm::Var(layout.o(body))],
                        });
                    }
                    Some(t) => {
                        // (69) r_{s2} = o_{s1}; (70) o_s = o_{s2}.
                        l1.push(SetConstraint {
                            lhs: layout.r(t),
                            terms: vec![SetTerm::Var(layout.o(body))],
                        });
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![SetTerm::Var(layout.o(t))],
                        });
                        m_terms.push(SymPairTerm::MVar(layout.m(t)));
                    }
                }
                // (71).
                l2.push(SymPairConstraint {
                    lhs: layout.m(s),
                    terms: m_terms,
                });
            }
            // async: (72)–(75).
            StmtKind::Async { body } => {
                let mut m_terms = vec![
                    SymPairTerm::Lcross(l, layout.r(s)),
                    SymPairTerm::MVar(layout.m(body)),
                ];
                match tail {
                    None => {
                        // Lone async: r_{s1} = r_s; o_s = Slabels(s1) ∪ r_s.
                        l1.push(SetConstraint {
                            lhs: layout.r(body),
                            terms: vec![SetTerm::Var(layout.r(s))],
                        });
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![
                                SetTerm::Const(slab.stmt(body).clone()),
                                SetTerm::Var(layout.r(s)),
                            ],
                        });
                    }
                    Some(t) => {
                        // (72) r_{s1} = Slabels(s2) ∪ r_s.
                        l1.push(SetConstraint {
                            lhs: layout.r(body),
                            terms: vec![
                                SetTerm::Const(slab.stmt(t).clone()),
                                SetTerm::Var(layout.r(s)),
                            ],
                        });
                        // (73) r_{s2} = Slabels(s1) ∪ r_s.
                        l1.push(SetConstraint {
                            lhs: layout.r(t),
                            terms: vec![
                                SetTerm::Const(slab.stmt(body).clone()),
                                SetTerm::Var(layout.r(s)),
                            ],
                        });
                        // (74) o_s = o_{s2}.
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![SetTerm::Var(layout.o(t))],
                        });
                        m_terms.push(SymPairTerm::MVar(layout.m(t)));
                    }
                }
                // (75).
                l2.push(SymPairConstraint {
                    lhs: layout.m(s),
                    terms: m_terms,
                });
            }
            // finish: (76)–(79).
            StmtKind::Finish { body } => {
                // (76) r_{s1} = r_s.
                l1.push(SetConstraint {
                    lhs: layout.r(body),
                    terms: vec![SetTerm::Var(layout.r(s))],
                });
                let mut m_terms = vec![
                    SymPairTerm::Lcross(l, layout.r(s)),
                    SymPairTerm::MVar(layout.m(body)),
                ];
                match tail {
                    None => {
                        // Lone finish: o_s = r_s (O of the body discarded).
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![SetTerm::Var(layout.r(s))],
                        });
                    }
                    Some(t) => {
                        // (77) r_{s2} = r_s; (78) o_s = o_{s2}.
                        l1.push(SetConstraint {
                            lhs: layout.r(t),
                            terms: vec![SetTerm::Var(layout.r(s))],
                        });
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![SetTerm::Var(layout.o(t))],
                        });
                        m_terms.push(SymPairTerm::MVar(layout.m(t)));
                    }
                }
                // (79).
                l2.push(SymPairConstraint {
                    lhs: layout.m(s),
                    terms: m_terms,
                });
            }
            // call: (80)–(82), plus CI's (83).
            StmtKind::Call { callee } => {
                if mode.is_ci() {
                    // (83) r_s ⊆ r_i, i.e. r_i ⊇ r_s.
                    l1.push(SetConstraint {
                        lhs: layout.ri(callee),
                        terms: vec![SetTerm::Var(layout.r(s))],
                    });
                }
                let keep_scross = match mode {
                    Mode::ContextSensitive => true,
                    Mode::ContextInsensitive { keep_scross } => keep_scross,
                };
                let mut m_terms = vec![SymPairTerm::Lcross(l, layout.r(s))];
                if keep_scross {
                    m_terms.push(SymPairTerm::Symcross(SlabRef::Method(callee), layout.r(s)));
                }
                m_terms.push(SymPairTerm::MVar(layout.mi(callee)));
                match tail {
                    None => {
                        // Lone call: o_s = r_s ∪ o_i.
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![SetTerm::Var(layout.r(s)), SetTerm::Var(layout.oi(callee))],
                        });
                    }
                    Some(t) => {
                        // (80) r_k = r_s ∪ o_i.
                        l1.push(SetConstraint {
                            lhs: layout.r(t),
                            terms: vec![SetTerm::Var(layout.r(s)), SetTerm::Var(layout.oi(callee))],
                        });
                        // (81) o_s = o_k.
                        l1.push(SetConstraint {
                            lhs: layout.o(s),
                            terms: vec![SetTerm::Var(layout.o(t))],
                        });
                        m_terms.push(SymPairTerm::MVar(layout.m(t)));
                    }
                }
                // (82).
                l2.push(SymPairConstraint {
                    lhs: layout.m(s),
                    terms: m_terms,
                });
            }
        }
    }

    // Order level-2 constraints for fast naive-solver convergence: later
    // methods first (callees typically precede callers), later statements
    // first (a suffix's m is computed before the prefixes that union it).
    // Solutions are order-independent; only pass counts change.
    let rank = |lhs: PairVar| -> u64 {
        let (method, sub) = if lhs.index() >= layout.n {
            ((lhs.index() - layout.n) as u32, u32::MAX)
        } else {
            (
                idx.info(StmtId(lhs.0)).method.0,
                (layout.n - lhs.index()) as u32,
            )
        };
        (((layout.u as u32).saturating_sub(1 + method)) as u64) << 32 | sub as u64
    };
    l2.sort_by_key(|c| rank(c.lhs));

    GenOutput {
        layout,
        level1: SetSystem {
            n_vars: layout.level1_vars(),
            universe: idx.len(),
            constraints: l1,
        },
        level2: l2,
        mode,
    }
}

/// Substitutes the level-1 solution into the symbolic level-2 system — the
/// paper's "simplified level-2 constraints" (§5.3).
pub fn simplify(gen: &GenOutput, l1: &SetSolution, slab: &SlabelsResult) -> PairSystem {
    let mut share = l1.sharer();
    let constraints = gen
        .level2
        .iter()
        .map(|c| PairConstraint {
            lhs: c.lhs,
            terms: c
                .terms
                .iter()
                .map(|t| match t {
                    SymPairTerm::Lcross(l, v) => PairTerm::Lcross(*l, share(*v)),
                    SymPairTerm::Symcross(sr, v) => {
                        let a = match sr {
                            SlabRef::Stmt(s) => slab.stmt(*s).clone(),
                            SlabRef::Method(f) => slab.method(*f).clone(),
                        };
                        PairTerm::Symcross(a, share(*v))
                    }
                    SymPairTerm::MVar(v) => PairTerm::MVar(*v),
                })
                .collect(),
        })
        .collect();
    PairSystem {
        n_vars: gen.layout.level2_vars(),
        universe: gen.level1.universe,
        constraints,
    }
}

/// Renders the constraint systems with user label names — the shape of
/// the paper's Figure 5.
pub fn render_constraints(p: &Program, idx: &StmtIndex, gen: &GenOutput) -> String {
    use std::fmt::Write;
    let layout = gen.layout;
    let name_of_var = |v: SetVar| -> String {
        let i = v.index();
        if i < 2 * layout.n {
            let s = StmtId((i / 2) as u32);
            let nm = p.labels().display(s.label());
            if i.is_multiple_of(2) {
                format!("r_{nm}")
            } else {
                format!("o_{nm}")
            }
        } else if i < 2 * layout.n + layout.u {
            format!("o[{}]", p.method(FuncId((i - 2 * layout.n) as u32)).name())
        } else {
            format!(
                "r[{}]",
                p.method(FuncId((i - 2 * layout.n - layout.u) as u32))
                    .name()
            )
        }
    };
    let name_of_pvar = |v: PairVar| -> String {
        let i = v.index();
        if i < layout.n {
            format!("m_{}", p.labels().display(Label(i as u32)))
        } else {
            format!("m[{}]", p.method(FuncId((i - layout.n) as u32)).name())
        }
    };
    let fmt_set = |s: &crate::sets::LabelSet| -> String {
        let mut out = String::from("{");
        let mut first = true;
        for l in s.iter() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&p.labels().display(l));
        }
        out.push('}');
        out
    };

    let mut out = String::new();
    let _ = writeln!(out, "level-1 constraints:");
    for c in &gen.level1.constraints {
        let rhs: Vec<String> = c
            .terms
            .iter()
            .map(|t| match t {
                SetTerm::Const(s) => fmt_set(s),
                SetTerm::Var(v) => name_of_var(*v),
            })
            .collect();
        let rhs = if rhs.is_empty() {
            "{}".to_string()
        } else {
            rhs.join(" ∪ ")
        };
        let _ = writeln!(out, "  {} = {}", name_of_var(c.lhs), rhs);
    }
    let _ = writeln!(out, "level-2 constraints:");
    for c in &gen.level2 {
        let rhs: Vec<String> = c
            .terms
            .iter()
            .map(|t| match t {
                SymPairTerm::Lcross(l, v) => {
                    format!("Lcross({}, {})", p.labels().display(*l), name_of_var(*v))
                }
                SymPairTerm::Symcross(sr, v) => {
                    let a = match sr {
                        SlabRef::Stmt(s) => format!("Slabels({})", p.labels().display(s.label())),
                        SlabRef::Method(f) => format!("Slabels({})", p.method(*f).name()),
                    };
                    format!("symcross({}, {})", a, name_of_var(*v))
                }
                SymPairTerm::MVar(v) => name_of_pvar(*v),
            })
            .collect();
        let _ = writeln!(out, "  {} = {}", name_of_pvar(c.lhs), rhs.join(" ∪ "));
    }
    let _ = writeln!(
        out,
        "counts: level-1 = {}, level-2 = {}",
        gen.level1.constraints.len(),
        gen.level2.len()
    );
    let _ = idx;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slabels::compute_slabels;
    use fx10_syntax::examples;

    #[test]
    fn every_level1_var_has_distinct_lhs_in_cs_mode() {
        // §5.2: "the constraints in C(p) have distinct left-hand sides and
        // every variable is the left-hand side of some constraint" — true
        // for the context-sensitive equality system.
        let p = examples::example_2_1();
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, false);
        let gen = generate(&p, &idx, &slab, Mode::ContextSensitive);
        let mut seen = std::collections::HashSet::new();
        for c in &gen.level1.constraints {
            assert!(seen.insert(c.lhs.index()), "duplicate lhs {:?}", c.lhs);
        }
        assert_eq!(seen.len(), gen.layout.level1_vars());
        let mut seen2 = std::collections::HashSet::new();
        for c in &gen.level2 {
            assert!(seen2.insert(c.lhs.index()));
        }
        assert_eq!(seen2.len(), gen.layout.level2_vars());
    }

    #[test]
    fn constraint_counts_match_structure() {
        // One level-2 constraint per statement plus one per method — the
        // same shape as the Slabels column in Figure 6 (the two columns
        // are equal for every benchmark).
        let p = examples::example_2_2();
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, false);
        let gen = generate(&p, &idx, &slab, Mode::ContextSensitive);
        assert_eq!(gen.level2.len(), idx.len() + idx.method_count());
        assert_eq!(gen.level2.len(), slab.constraint_count);
    }

    #[test]
    fn ci_adds_subset_constraints_per_call_site() {
        let p = examples::example_2_2();
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, false);
        let cs = generate(&p, &idx, &slab, Mode::ContextSensitive);
        let ci = generate(
            &p,
            &idx,
            &slab,
            Mode::ContextInsensitive { keep_scross: true },
        );
        // Two call sites → two (83) constraints.
        assert_eq!(ci.level1.constraints.len(), cs.level1.constraints.len() + 2);
        assert_eq!(ci.layout.level1_vars(), cs.layout.level1_vars() + 2);
    }

    #[test]
    fn rendered_constraints_name_the_figure_5_shapes() {
        let p = examples::example_2_1();
        let idx = StmtIndex::build(&p);
        let slab = compute_slabels(&idx, false);
        let gen = generate(&p, &idx, &slab, Mode::ContextSensitive);
        let txt = render_constraints(&p, &idx, &gen);
        // Spot-check shapes from the paper's Figure 5.
        assert!(txt.contains("r_S0 = {}"), "{txt}");
        assert!(txt.contains("m_S11 = Lcross(S11, r_S11)"), "{txt}");
        assert!(txt.contains("m_S12 = Lcross(S12, r_S12)"), "{txt}");
        assert!(
            txt.contains("m_S6 = Lcross(S6, r_S6) ∪ m_S11 ∪ m_S7"),
            "{txt}"
        );
        assert!(
            txt.contains("m_S0 = Lcross(S0, r_S0) ∪ m_S1 ∪ m_S3"),
            "{txt}"
        );
        assert!(txt.contains("r_S13 = {S2} ∪ r_S1"), "{txt}");
    }
}
