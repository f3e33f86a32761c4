//! SCC-condensation solvers for level-2 systems.
//!
//! The m-variable dependency graph of a program is mostly a DAG: `m_s`
//! unions its continuation's and nested bodies' m-variables, and cycles
//! arise only from recursive call chains. Condensing the graph into
//! strongly connected components and solving components in topological
//! order turns the global fixed point into a sequence of small local
//! fixed points — each constraint is evaluated until *its component*
//! stabilizes, never re-visited afterwards.
//!
//! [`solve_pair_scc`] produces the same least solution as the naive and
//! worklist solvers (property-tested in `tests/equivalence.rs`), and
//! [`solve_pair_scc_budgeted`] honors a [`BudgetMeter`] and observes
//! cancellation.

use crate::sets::PairSet;
use crate::solver::{PairConstraint, PairSolution, PairSystem, PairTerm};
use fx10_robust::{BudgetMeter, Exhaustion, Fx10Error, Stop};
use std::sync::OnceLock;

/// Iterative Tarjan SCC over the m-variable dependency graph.
///
/// Returns `(comp_of_var, components)` with components listed in
/// *reverse* topological order (dependencies after dependents), i.e.
/// iterating the returned list backwards visits dependencies first.
fn tarjan(n_vars: usize, succs: &[Vec<u32>]) -> (Vec<u32>, Vec<Vec<u32>>) {
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n_vars];
    let mut lowlink = vec![0u32; n_vars];
    let mut on_stack = vec![false; n_vars];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![UNSET; n_vars];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    let mut next_index = 0u32;

    // Explicit DFS stack: (node, next successor position).
    let mut work: Vec<(u32, usize)> = Vec::new();
    for root in 0..n_vars as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        work.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            if *pos < succs[v as usize].len() {
                let w = succs[v as usize][*pos];
                *pos += 1;
                if index[w as usize] == UNSET {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    work.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    let cid = comps.len() as u32;
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = cid;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    (comp_of, comps)
}

/// The condensation of a [`PairSystem`]: components in dependency-first
/// order and their constraints.
struct Condensation<'a> {
    /// Components in topological (dependency-first) order.
    comps: Vec<Vec<u32>>,
    /// Constraint indices per component (indexed like `comps`).
    comp_constraints: Vec<Vec<u32>>,
    sys: &'a PairSystem,
}

fn condense(sys: &PairSystem) -> Condensation<'_> {
    // succs[v] = variables v's value flows into... for Tarjan any
    // orientation works as long as we fix topological reading; use
    // lhs → rhs ("lhs depends on rhs").
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); sys.n_vars];
    for c in &sys.constraints {
        for t in &c.terms {
            if let PairTerm::MVar(v) = t {
                if *v != c.lhs {
                    succs[c.lhs.index()].push(v.0);
                }
            }
        }
    }
    let (comp_of, comps_rev) = tarjan(sys.n_vars, &succs);
    // Tarjan emits dependencies first under lhs→rhs orientation? It emits
    // components in reverse topological order of the succs orientation:
    // a component is completed only after everything it reaches. With
    // lhs→rhs, a component reaches its dependencies, so dependencies
    // complete (and are emitted) first — comps_rev is already
    // dependency-first.
    let comps = comps_rev;

    let n_comps = comps.len();
    let mut comp_constraints: Vec<Vec<u32>> = vec![Vec::new(); n_comps];
    for (ci, c) in sys.constraints.iter().enumerate() {
        comp_constraints[comp_of[c.lhs.index()] as usize].push(ci as u32);
    }
    Condensation {
        comps,
        comp_constraints,
        sys,
    }
}

/// Solves one component's local fixed point.
///
/// `local` holds the component's values (indexed by position in
/// `members`); external variables are read from `published`.
///
/// `on_eval` is charged once per constraint evaluation; when it asks to
/// stop, the (partial, under-approximate) local values computed so far
/// are returned alongside the stop reason.
fn solve_component_metered(
    cond: &Condensation<'_>,
    cid: usize,
    published: &[OnceLock<PairSet>],
    on_eval: &mut impl FnMut() -> Result<(), Stop>,
) -> (Vec<PairSet>, Option<Stop>) {
    let sys = cond.sys;
    let members = &cond.comps[cid];
    let slot_of = |v: u32| members.iter().position(|&m| m == v);
    let mut local: Vec<PairSet> = members
        .iter()
        .map(|_| PairSet::empty(sys.universe))
        .collect();
    let empty = PairSet::empty(sys.universe);

    // Fast path: a singleton component whose constraints never read the
    // member itself needs exactly one evaluation — no verification pass
    // re-applying the (expensive, already-absorbed) constant terms.
    let acyclic_singleton = members.len() == 1
        && cond.comp_constraints[cid].iter().all(|&ci| {
            sys.constraints[ci as usize]
                .terms
                .iter()
                .all(|t| !matches!(t, PairTerm::MVar(v) if v.0 == members[0]))
        });
    if acyclic_singleton {
        for &ci in &cond.comp_constraints[cid] {
            if let Err(stop) = on_eval() {
                return (local, Some(stop));
            }
            let c: &PairConstraint = &sys.constraints[ci as usize];
            for t in &c.terms {
                match t {
                    PairTerm::Lcross(l, s) => {
                        local[0].add_lcross(*l, s);
                    }
                    PairTerm::Symcross(a, b) => {
                        local[0].add_symcross(a, b);
                    }
                    PairTerm::MVar(v) => {
                        let s = published[v.index()].get().unwrap_or(&empty);
                        local[0].union_with(s);
                    }
                }
            }
        }
        return (local, None);
    }

    loop {
        let mut changed = false;
        for &ci in &cond.comp_constraints[cid] {
            if let Err(stop) = on_eval() {
                return (local, Some(stop));
            }
            let c: &PairConstraint = &sys.constraints[ci as usize];
            let lhs_slot = slot_of(c.lhs.0).expect("constraint lhs in component");
            for t in &c.terms {
                match t {
                    PairTerm::Lcross(l, s) => {
                        changed |= local[lhs_slot].add_lcross(*l, s);
                    }
                    PairTerm::Symcross(a, b) => {
                        changed |= local[lhs_slot].add_symcross(a, b);
                    }
                    PairTerm::MVar(v) => {
                        if *v == c.lhs {
                            continue;
                        }
                        match slot_of(v.0) {
                            Some(src) => {
                                // Intra-component: split-borrow.
                                let (lo, hi) = (lhs_slot.min(src), lhs_slot.max(src));
                                let (left, right) = local.split_at_mut(hi);
                                let (dst, s) = if lhs_slot < src {
                                    (&mut left[lo], &right[0])
                                } else {
                                    (&mut right[0], &left[lo])
                                };
                                changed |= dst.union_with(s);
                            }
                            None => {
                                // Cross-component: the dependency is
                                // final (published before we started).
                                let s = published[v.index()].get().unwrap_or(&empty);
                                changed |= local[lhs_slot].union_with(s);
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    (local, None)
}

/// Publishes a solved component's values.
fn publish(
    cond: &Condensation<'_>,
    cid: usize,
    local: Vec<PairSet>,
    published: &[OnceLock<PairSet>],
) {
    for (&v, value) in cond.comps[cid].iter().zip(local) {
        published[v as usize]
            .set(value)
            .expect("each variable is published exactly once");
    }
}

fn collect(
    sys: &PairSystem,
    published: Vec<OnceLock<PairSet>>,
    evals: usize,
    exhausted: Option<Exhaustion>,
) -> PairSolution {
    let values = published
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|| PairSet::empty(sys.universe))
        })
        .collect();
    PairSolution {
        values,
        passes: 0,
        evals,
        exhausted,
    }
}

/// Sequential SCC-condensation solver: components in topological order,
/// each iterated to its local fixed point exactly once.
pub fn solve_pair_scc(sys: &PairSystem) -> PairSolution {
    solve_pair_scc_budgeted(sys, &mut BudgetMeter::unlimited()).unwrap_or_else(|_| PairSolution {
        values: Vec::new(),
        passes: 0,
        evals: 0,
        exhausted: Some(Exhaustion::SolverIterations),
    })
}

/// [`solve_pair_scc`] under a budget: budget exhaustion publishes the
/// partial component values solved so far (unsolved components collect as
/// empty — a sound under-approximation) and tags the solution;
/// cancellation returns `Err`.
pub fn solve_pair_scc_budgeted(
    sys: &PairSystem,
    meter: &mut BudgetMeter,
) -> Result<PairSolution, Fx10Error> {
    let cond = condense(sys);
    let published: Vec<OnceLock<PairSet>> = (0..sys.n_vars).map(|_| OnceLock::new()).collect();
    let mut evals = 0usize;
    let mut exhausted = None;
    for cid in 0..cond.comps.len() {
        let mut on_eval = || {
            evals += 1;
            meter.tick()
        };
        let (local, stop) = solve_component_metered(&cond, cid, &published, &mut on_eval);
        publish(&cond, cid, local, &published);
        match stop {
            None => {}
            Some(Stop::Exhausted(e)) => {
                exhausted = Some(e);
                break;
            }
            Some(stop @ Stop::Cancelled) => return Err(stop.into()),
        }
    }
    Ok(collect(sys, published, evals, exhausted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::LabelSet;
    use crate::solver::{solve_pair_naive, PairVar};
    use fx10_syntax::Label;
    use std::sync::Arc;

    fn c(labels: &[u32]) -> crate::sets::SharedLabelSet {
        Arc::new(LabelSet::from_labels(32, labels.iter().map(|&l| Label(l))))
    }

    fn chain_with_cycle() -> PairSystem {
        // m0 → m1 → m2 with a cycle {m1, m2} and a constant seed at m2.
        PairSystem {
            n_vars: 4,
            universe: 32,
            constraints: vec![
                PairConstraint {
                    lhs: PairVar(0),
                    terms: vec![
                        PairTerm::MVar(PairVar(1)),
                        PairTerm::Lcross(Label(0), c(&[5])),
                    ],
                },
                PairConstraint {
                    lhs: PairVar(1),
                    terms: vec![PairTerm::MVar(PairVar(2))],
                },
                PairConstraint {
                    lhs: PairVar(2),
                    terms: vec![
                        PairTerm::MVar(PairVar(1)),
                        PairTerm::Symcross(c(&[1, 2]), c(&[3])),
                    ],
                },
                // m3 independent (parallel branch).
                PairConstraint {
                    lhs: PairVar(3),
                    terms: vec![PairTerm::Lcross(Label(9), c(&[10, 11]))],
                },
            ],
        }
    }

    #[test]
    fn tarjan_finds_the_cycle() {
        let sys = chain_with_cycle();
        let cond = condense(&sys);
        let pos = |v: usize| {
            cond.comps
                .iter()
                .position(|comp| comp.contains(&(v as u32)))
                .unwrap()
        };
        assert_eq!(pos(1), pos(2), "m1, m2 share an SCC");
        assert_ne!(pos(0), pos(1));
        // Dependencies come before dependents.
        assert!(pos(1) < pos(0), "the cycle is solved before m0");
    }

    #[test]
    fn scc_solver_matches_naive() {
        let sys = chain_with_cycle();
        let naive = solve_pair_naive(&sys);
        let seq = solve_pair_scc(&sys);
        assert_eq!(naive.values, seq.values);
        // The cycle propagated the symcross both ways and up to m0.
        assert!(seq.get(PairVar(0)).contains(Label(1), Label(3)));
        assert!(seq.get(PairVar(1)).contains(Label(2), Label(3)));
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 20_000-long dependency chain: the iterative Tarjan and the
        // topological solve must handle it without recursion.
        let n = 20_000usize;
        let mut constraints = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut terms = vec![];
            if v + 1 < n as u32 {
                terms.push(PairTerm::MVar(PairVar(v + 1)));
            } else {
                terms.push(PairTerm::Lcross(Label(0), c(&[1])));
            }
            constraints.push(PairConstraint {
                lhs: PairVar(v),
                terms,
            });
        }
        let sys = PairSystem {
            n_vars: n,
            universe: 32,
            constraints,
        };
        let seq = solve_pair_scc(&sys);
        assert!(seq.get(PairVar(0)).contains(Label(0), Label(1)));
    }
}
