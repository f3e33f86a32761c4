//! The high-level analysis driver: index → `Slabels` → generate →
//! solve level-1 → simplify → solve level-2, i.e. the paper's three-step
//! implementation (§5.3), with the statistics Figures 6, 8 and 9 report.

use crate::gen::{self, GenOutput, Mode};
use crate::index::StmtIndex;
use crate::sets::{LabelSet, PairSet};
use crate::slabels::{compute_slabels_budgeted, SlabelsResult};
pub use crate::solver::SolverKind;
use crate::solver::{PairSolution, SetSolution};
use fx10_robust::{Budget, BudgetMeter, CancelToken, Exhaustion, FaultPlan, Fx10Error, Stop};
use fx10_syntax::{FuncId, Label, Program};
use std::sync::OnceLock;

/// Counters matching the evaluation tables.
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Figure 6 "#constraints / Slabels".
    pub slabels_constraints: usize,
    /// Figure 6 "#constraints / level-1".
    pub level1_constraints: usize,
    /// Figure 6 "#constraints / level-2".
    pub level2_constraints: usize,
    /// Figure 8 "Number of iterations / Slabels".
    pub slabels_passes: usize,
    /// Figure 8 "Number of iterations / level-1".
    pub level1_passes: usize,
    /// Figure 8 "Number of iterations / level-2".
    pub level2_passes: usize,
    /// Constraint evaluations across all three phases.
    pub evals: usize,
    /// Bytes held by all solved sets (Figure 8 "space" analogue).
    pub bytes: usize,
    /// Wall-clock time of the analysis.
    pub millis: f64,
}

/// A solved analysis of one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    mode: Mode,
    idx: StmtIndex,
    slabels: SlabelsResult,
    l1: SetSolution,
    l2: PairSolution,
    /// `M_i` per method, the only level-2 values a caller reads, each
    /// materialised from `l2` on its first read.
    m_methods: Vec<OnceLock<PairSet>>,
    gen: GenOutput,
    main: FuncId,
    /// Statistics gathered while solving.
    pub stats: AnalysisStats,
    /// `Some` when a budget cut any phase short: the MHP sets are then a
    /// (still useful) under-approximation of the analysis's answer and
    /// must not be treated as a proof of race freedom.
    pub exhausted: Option<Exhaustion>,
}

/// Runs the paper's context-sensitive analysis with the naive
/// (iteration-counting) solver.
pub fn analyze(p: &Program) -> Analysis {
    analyze_with(p, Mode::ContextSensitive, SolverKind::Naive)
}

/// Runs the §7 context-insensitive baseline (naive solver).
pub fn analyze_ci(p: &Program) -> Analysis {
    analyze_with(
        p,
        Mode::ContextInsensitive { keep_scross: true },
        SolverKind::Naive,
    )
}

/// Runs the analysis with explicit mode and solver choice. Infallible
/// legacy entry point (unlimited budget).
pub fn analyze_with(p: &Program, mode: Mode, solver: SolverKind) -> Analysis {
    // An unlimited budget and an uncancellable token cannot trip, so the
    // budgeted path cannot return Err here.
    analyze_with_budget(p, mode, solver, Budget::unlimited(), &CancelToken::new())
        .expect("analysis with an unlimited budget cannot fail")
}

/// Runs the analysis under a [`Budget`], observing `cancel`.
///
/// Budget exhaustion in any phase stops that phase, tags the result
/// ([`Analysis::exhausted`]) and *skips the remaining solver work* (the
/// already-solved prefix is kept; unsolved variables stay empty), so the
/// caller always gets a typed, partial answer. Cancellation returns
/// `Err`.
pub fn analyze_with_budget(
    p: &Program,
    mode: Mode,
    solver: SolverKind,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<Analysis, Fx10Error> {
    let start = std::time::Instant::now();
    let mut meter = BudgetMeter::new(budget, cancel.clone());
    let idx = StmtIndex::build(p);
    // Step 1: solve the Slabels equations.
    let slabels = compute_slabels_budgeted(&idx, solver, &mut meter)?;
    // Phase boundary: cancellation unwinds; a tripped deadline is
    // recorded in the meter and the remaining phases short-circuit on
    // their own polls, keeping the partial-result contract.
    if let Err(stop @ Stop::Cancelled) = meter.checkpoint() {
        return Err(stop.into());
    }
    // Step 2: generate and solve the level-1 constraints.
    let gen = gen::generate(p, &idx, &slabels, mode);
    let l1 = solver.solve_set(&gen.level1, &mut meter)?;
    // Phase boundary: cancellation unwinds; a tripped deadline is
    // recorded in the meter and the remaining phases short-circuit on
    // their own polls, keeping the partial-result contract.
    if let Err(stop @ Stop::Cancelled) = meter.checkpoint() {
        return Err(stop.into());
    }
    // Step 3: simplify and solve the level-2 constraints.
    let l2sys = gen::simplify(&gen, &l1, &slabels);
    let l2 = solver.solve_pair(&l2sys, &mut meter)?;
    let millis = start.elapsed().as_secs_f64() * 1e3;

    let exhausted = slabels
        .exhausted
        .or(l1.exhausted)
        .or(l2.exhausted)
        .or(meter.exhaustion());
    let stats = AnalysisStats {
        slabels_constraints: slabels.constraint_count,
        level1_constraints: gen.level1.constraints.len(),
        level2_constraints: gen.level2.len(),
        slabels_passes: slabels.passes,
        level1_passes: l1.passes,
        level2_passes: l2.passes,
        evals: slabels.evals + l1.evals + l2.evals,
        bytes: slabels.bytes() + l1.bytes() + l2.bytes(),
        millis,
    };

    Ok(Analysis {
        mode,
        main: p.main(),
        idx,
        slabels,
        l1,
        l2,
        m_methods: vec![OnceLock::new(); gen.layout.u],
        gen,
        stats,
        exhausted,
    })
}

/// Which analysis answered an [`analyze_with_fallback`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisPath {
    /// The context-sensitive analysis completed within its budget.
    ContextSensitive,
    /// The CS analysis exhausted its budget; the context-insensitive
    /// baseline (a sound over-approximation of CS, §7) answered instead.
    ContextInsensitiveFallback,
}

/// The result of [`analyze_with_fallback`].
#[derive(Debug, Clone)]
pub struct FallbackOutcome {
    /// The analysis that produced the final answer.
    pub analysis: Analysis,
    /// Which path answered.
    pub path: AnalysisPath,
    /// What exhausted the CS budget, when the fallback fired.
    pub cs_exhaustion: Option<Exhaustion>,
}

/// The outcome of [`Analysis::prune_mhp`]: the surviving pair set and
/// the pairs the feasibility oracle removed.
#[derive(Debug, Clone)]
pub struct PruneReport {
    /// `M` restricted to pairs whose both labels are feasible.
    pub kept: PairSet,
    /// Removed pairs, unordered (`a <= b`), sorted and deduplicated.
    pub pruned: Vec<(Label, Label)>,
}

impl PruneReport {
    /// May `a` and `b` happen in parallel after pruning?
    pub fn may_happen_in_parallel(&self, a: Label, b: Label) -> bool {
        self.kept.contains(a, b)
    }
}

/// Graceful degradation: runs the context-sensitive analysis under
/// `cs_budget`; if any phase exhausts the budget, falls back to the
/// cheaper context-insensitive baseline under `ci_budget` — a sound
/// over-approximation of the CS answer (§7), so "no race found" claims
/// stay conservative. The outcome records which path answered.
pub fn analyze_with_fallback(
    p: &Program,
    solver: SolverKind,
    cs_budget: Budget,
    ci_budget: Budget,
    cancel: &CancelToken,
) -> Result<FallbackOutcome, Fx10Error> {
    let cs = analyze_with_budget(p, Mode::ContextSensitive, solver, cs_budget, cancel)?;
    if cs.exhausted.is_none() {
        return Ok(FallbackOutcome {
            analysis: cs,
            path: AnalysisPath::ContextSensitive,
            cs_exhaustion: None,
        });
    }
    let cs_exhaustion = cs.exhausted;
    let ci = analyze_with_budget(
        p,
        Mode::ContextInsensitive { keep_scross: true },
        solver,
        ci_budget,
        cancel,
    )?;
    Ok(FallbackOutcome {
        analysis: ci,
        path: AnalysisPath::ContextInsensitiveFallback,
        cs_exhaustion,
    })
}

impl Analysis {
    /// Which analysis produced this result.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The statement index the analysis was run over.
    pub fn index(&self) -> &StmtIndex {
        &self.idx
    }

    /// The solved `Slabels` function.
    pub fn slabels(&self) -> &SlabelsResult {
        &self.slabels
    }

    /// The generated constraint systems (for rendering, Figure 5).
    pub fn generated(&self) -> &GenOutput {
        &self.gen
    }

    /// `M` of the main method — by Theorem 3 a conservative approximation
    /// of `MHP(p)`.
    pub fn mhp(&self) -> &PairSet {
        self.mhp_of(self.main)
    }

    /// `M_i` of a method, materialised from the level-2 solution on
    /// first read.
    pub fn mhp_of(&self, f: FuncId) -> &PairSet {
        self.m_methods[f.index()].get_or_init(|| self.l2.get(self.gen.layout.mi(f)))
    }

    /// `O_i` of a method: labels that may still be executing when a call
    /// to it returns.
    pub fn o_of(&self, f: FuncId) -> &LabelSet {
        self.l1.get(self.gen.layout.oi(f))
    }

    /// May the instructions labeled `a` and `b` happen in parallel?
    pub fn may_happen_in_parallel(&self, a: Label, b: Label) -> bool {
        self.mhp().contains(a, b)
    }

    /// Refines `M` with a label-feasibility oracle: a pair survives only
    /// when *both* labels are feasible (reachable in some execution).
    ///
    /// The oracle is typically a value analysis (e.g. `fx10-absint`'s
    /// guard-feasibility facts); this crate stays agnostic of where the
    /// predicate comes from. Soundness: dropping a pair with an
    /// infeasible end cannot lose a dynamic pair, because a dynamic MHP
    /// pair requires both labels to be front labels of a *reachable*
    /// state. The caller is responsible for gating on completeness — a
    /// feasibility claim derived from a budget-cut analysis proves
    /// nothing, and this method must not be called with one.
    pub fn prune_mhp(&self, feasible: impl Fn(Label) -> bool) -> PruneReport {
        let n = self.mhp().universe();
        let mut kept = PairSet::empty(n);
        let mut pruned = Vec::new();
        for (a, b) in self.mhp().iter_pairs() {
            if feasible(a) && feasible(b) {
                kept.insert(a, b);
            } else {
                pruned.push(if a <= b { (a, b) } else { (b, a) });
            }
        }
        pruned.sort();
        pruned.dedup();
        PruneReport { kept, pruned }
    }

    /// All MHP pairs as (name, name), sorted — convenient for tests and
    /// reports.
    pub fn pairs_named(&self, p: &Program) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .mhp()
            .iter_pairs()
            .map(|(a, b)| {
                let (x, y) = (p.labels().display(a), p.labels().display(b));
                if x <= y {
                    (x, y)
                } else {
                    (y, x)
                }
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Checks **Theorem 2 soundness** (`dynamic ⊆ static`) against a set
    /// of ground-truth pairs — typically the dynamic MHP union produced
    /// by the explorer (any engine, any worker count; the explorers'
    /// results are schedule-independent).
    ///
    /// Every dynamic pair absent from the static `M` is a soundness
    /// violation and is returned in [`SoundnessReport::missing`]. The
    /// check is order-insensitive: `(a, b)` and `(b, a)` are the same
    /// pair.
    pub fn check_soundness<'a, I>(&self, dynamic: I) -> SoundnessReport
    where
        I: IntoIterator<Item = &'a (Label, Label)>,
    {
        let mut checked = 0usize;
        let mut missing = Vec::new();
        for &(a, b) in dynamic {
            checked += 1;
            if !self.may_happen_in_parallel(a, b) && !self.may_happen_in_parallel(b, a) {
                missing.push(if a <= b { (a, b) } else { (b, a) });
            }
        }
        missing.sort();
        missing.dedup();
        SoundnessReport {
            checked,
            missing,
            static_pairs: self.mhp().len(),
        }
    }

    /// Builds the type environment `E = { f_i ↦ (M_i, O_i) }` from the
    /// constraint solution — the `φ extends E` direction of Theorem 4.
    pub fn type_env(&self) -> crate::typesystem::TypeEnv {
        let u = self.idx.method_count();
        crate::typesystem::TypeEnv::new(
            (0..u)
                .map(|i| {
                    let f = FuncId(i as u32);
                    crate::typesystem::MethodSummary {
                        m: self.mhp_of(f).clone(),
                        o: self.o_of(f).clone(),
                    }
                })
                .collect(),
        )
    }
}

/// The verdict of [`Analysis::check_soundness`]: how a dynamic
/// (explorer-observed) MHP set relates to the static `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundnessReport {
    /// Dynamic pairs checked.
    pub checked: usize,
    /// Dynamic pairs **not** covered by the static analysis — any entry
    /// here falsifies Theorem 2 and is a bug.
    pub missing: Vec<(Label, Label)>,
    /// Size of the static `M` the pairs were checked against (for
    /// precision-gap reporting: `static_pairs - checked` over-approximated
    /// pairs when the dynamic set is exact).
    pub static_pairs: usize,
}

impl SoundnessReport {
    /// Did `dynamic ⊆ static` hold?
    pub fn is_sound(&self) -> bool {
        self.missing.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The supervised degradation ladder
// ---------------------------------------------------------------------------

/// Which rung of the [`Supervisor`]'s degradation ladder produced the
/// final answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// The multi-threaded durable explorer finished: the answer is the
    /// *exact* dynamic MHP relation.
    ParallelExplore,
    /// The parallel explorer kept failing (stalls, panics); the
    /// single-threaded explorer answered instead — still exact, just
    /// slower.
    SequentialExplore,
    /// Dynamic exploration was infeasible within the budget; the
    /// context-sensitive static analysis answered with a sound
    /// over-approximation (Theorem 2/3).
    ContextSensitive,
    /// Even the CS analysis exhausted its budget; the context-insensitive
    /// baseline (§7) answered — the coarsest sound rung, never refused.
    ContextInsensitive,
}

impl std::fmt::Display for LadderRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LadderRung::ParallelExplore => write!(f, "parallel-explore"),
            LadderRung::SequentialExplore => write!(f, "sequential-explore"),
            LadderRung::ContextSensitive => write!(f, "context-sensitive"),
            LadderRung::ContextInsensitive => write!(f, "context-insensitive"),
        }
    }
}

impl LadderRung {
    /// True for the rungs whose MHP set is the exact dynamic relation
    /// (the static rungs only over-approximate it).
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            LadderRung::ParallelExplore | LadderRung::SequentialExplore
        )
    }
}

/// The result of a supervised run: the MHP answer plus the provenance
/// needed to interpret it.
#[derive(Debug, Clone)]
pub struct SupervisedAnswer {
    /// The rung that produced [`pairs`](SupervisedAnswer::pairs).
    pub rung: LadderRung,
    /// Human-readable log of every descent and retry the
    /// supervisor performed, in order.
    pub trace: Vec<String>,
    /// The MHP pairs of the answering rung, each normalized to
    /// `(min, max)` label order. Exact when
    /// [`rung.is_dynamic()`](LadderRung::is_dynamic), a sound
    /// over-approximation otherwise.
    pub pairs: std::collections::BTreeSet<(Label, Label)>,
    /// Theorem 1's deadlock-freedom verdict — only the dynamic rungs
    /// observe it, so it is `None` on the static rungs.
    pub deadlock_free: Option<bool>,
    /// What (if anything) exhausted the answering rung's budget. Only the
    /// final rung may answer while exhausted; every other rung descends
    /// instead.
    pub exhausted: Option<Exhaustion>,
}

/// How many times the ladder retries the parallel rung after its first
/// failure. Retries start at once: the crew runs in-process, so no other
/// party holds a resource that a wait would free.
const PARALLEL_RETRIES: usize = 2;

/// The supervised degradation ladder (the "if it crashes, answer anyway"
/// driver):
///
/// 1. **parallel-explore** — the durable multi-threaded explorer with a
///    heartbeat watchdog; on stall or panic, two immediate retries,
///    each with a halved crew, resuming from the last durable checkpoint
///    when one is on disk;
/// 2. **sequential-explore** — the single-threaded oracle, immune to the
///    crew's failure modes, run under `catch_unwind`;
/// 3. **context-sensitive** — the paper's static analysis (sound
///    over-approximation, Theorem 2/3);
/// 4. **context-insensitive** — the §7 baseline; the last rung answers
///    even when exhausted.
///
/// Truncation on a dynamic rung descends straight to the static rungs (a
/// truncated dynamic MHP set is only a lower bound, while the static
/// answer is a sound upper bound). Cancellation always propagates —
/// the user asked to stop, the ladder must not "help".
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Crew size for the first parallel-explore attempt (halved on each
    /// retry, floor 1).
    pub jobs: usize,
    /// Heartbeat-frozen duration after which the watchdog declares a
    /// worker stalled.
    pub stall_after: std::time::Duration,
    /// Watchdog poll interval.
    pub poll: std::time::Duration,
    /// Budget applied to every rung (the deadline is absolute, so it is
    /// naturally shared across the whole ladder).
    pub budget: Budget,
    /// Exploration configuration for the dynamic rungs.
    pub explore_config: fx10_semantics::ExploreConfig,
    /// Solver for the static rungs.
    pub solver: SolverKind,
    /// Durable-checkpoint spec for the parallel rung; also the file
    /// retries resume from. `None` disables both.
    pub checkpoint: Option<fx10_semantics::CheckpointSpec>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            jobs: 4,
            stall_after: std::time::Duration::from_secs(10),
            poll: std::time::Duration::from_millis(50),
            budget: Budget::unlimited(),
            explore_config: fx10_semantics::ExploreConfig::default(),
            solver: SolverKind::Worklist,
            checkpoint: None,
        }
    }
}

impl Supervisor {
    /// Runs the ladder on `p` with shared-array `input`, descending until
    /// some rung answers. `faults` is handed to every parallel-explore
    /// attempt (the injection harness uses this to force descents); the
    /// lower rungs never see it.
    pub fn run(
        &self,
        p: &Program,
        input: &[i64],
        cancel: &CancelToken,
        faults: &FaultPlan,
    ) -> Result<SupervisedAnswer, Fx10Error> {
        let mut trace = Vec::new();
        let mut jobs = self.jobs.max(1);
        let watchdog = fx10_semantics::WatchdogSpec {
            stall_after: self.stall_after,
            poll: self.poll,
        };

        for attempt in 0..=PARALLEL_RETRIES {
            cancel.check()?;
            // On a retry, resume from the durable checkpoint if one is on
            // disk and actually belongs to this program and configuration.
            let resume = if attempt > 0 {
                self.checkpoint.as_ref().and_then(|spec| {
                    let snap = fx10_semantics::ExplorerSnapshot::load(&spec.path).ok()?;
                    let want = fx10_semantics::snapshot_fingerprint(p, input, &self.explore_config);
                    (snap.fingerprint == want).then_some(snap)
                })
            } else {
                None
            };
            if resume.is_some() {
                trace.push(format!(
                    "parallel-explore attempt {}: resuming from the durable checkpoint",
                    attempt + 1
                ));
            }
            let durability = fx10_semantics::Durability {
                checkpoint: self.checkpoint.clone(),
                resume: resume.as_ref(),
                watchdog: Some(watchdog),
            };
            match fx10_semantics::explore_parallel_durable(
                p,
                input,
                self.explore_config,
                jobs,
                self.budget,
                cancel,
                faults,
                durability,
            ) {
                Ok(e) if !e.truncated => {
                    trace.push(format!(
                        "parallel-explore answered on attempt {} with {jobs} jobs",
                        attempt + 1
                    ));
                    return Ok(SupervisedAnswer {
                        rung: LadderRung::ParallelExplore,
                        trace,
                        pairs: e.mhp,
                        deadlock_free: Some(e.deadlock_free),
                        exhausted: None,
                    });
                }
                Ok(e) => {
                    // A truncated dynamic answer is only a lower bound;
                    // retrying with fewer jobs cannot help a budget, so
                    // descend straight to the sound static rungs.
                    let what = e
                        .exhausted
                        .map_or_else(|| "truncated".to_string(), |x| x.to_string());
                    trace.push(format!(
                        "parallel-explore truncated ({what}); descending to the static rungs"
                    ));
                    return self.static_rungs(p, cancel, trace);
                }
                Err(Fx10Error::Cancelled) => return Err(Fx10Error::Cancelled),
                Err(e) => {
                    trace.push(format!(
                        "parallel-explore attempt {} with {jobs} jobs failed: {e}",
                        attempt + 1
                    ));
                    if attempt < PARALLEL_RETRIES {
                        jobs = (jobs / 2).max(1);
                        trace.push(format!("retrying with {jobs} jobs"));
                    }
                }
            }
        }

        // Rung 2: the sequential oracle, shielded from its own panics.
        trace.push("parallel-explore retries exhausted; descending to sequential-explore".into());
        cancel.check()?;
        let seq = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fx10_semantics::explore_budgeted(p, input, self.explore_config, self.budget, cancel)
        }));
        match seq {
            Ok(Ok(e)) if !e.truncated => {
                trace.push("sequential-explore answered".into());
                return Ok(SupervisedAnswer {
                    rung: LadderRung::SequentialExplore,
                    trace,
                    pairs: e.mhp,
                    deadlock_free: Some(e.deadlock_free),
                    exhausted: None,
                });
            }
            Ok(Ok(e)) => {
                let what = e
                    .exhausted
                    .map_or_else(|| "truncated".to_string(), |x| x.to_string());
                trace.push(format!("sequential-explore truncated ({what}); descending"));
            }
            Ok(Err(Fx10Error::Cancelled)) => return Err(Fx10Error::Cancelled),
            Ok(Err(e)) => trace.push(format!("sequential-explore failed: {e}; descending")),
            Err(_) => trace.push("sequential-explore panicked; descending".into()),
        }
        self.static_rungs(p, cancel, trace)
    }

    /// Rungs 3 and 4: the static analyses. CS answers unless exhausted;
    /// the CI baseline is the floor and answers unconditionally.
    fn static_rungs(
        &self,
        p: &Program,
        cancel: &CancelToken,
        mut trace: Vec<String>,
    ) -> Result<SupervisedAnswer, Fx10Error> {
        let cs = analyze_with_budget(p, Mode::ContextSensitive, self.solver, self.budget, cancel)?;
        if cs.exhausted.is_none() {
            trace.push("context-sensitive analysis answered".into());
            return Ok(SupervisedAnswer {
                rung: LadderRung::ContextSensitive,
                trace,
                pairs: normalized_pairs(&cs),
                deadlock_free: None,
                exhausted: None,
            });
        }
        trace.push(format!(
            "context-sensitive analysis exhausted its {}; descending to context-insensitive",
            cs.exhausted.expect("checked above")
        ));
        let ci = analyze_with_budget(
            p,
            Mode::ContextInsensitive { keep_scross: true },
            self.solver,
            self.budget,
            cancel,
        )?;
        trace.push("context-insensitive baseline answered (last rung)".into());
        Ok(SupervisedAnswer {
            rung: LadderRung::ContextInsensitive,
            trace,
            pairs: normalized_pairs(&ci),
            deadlock_free: None,
            exhausted: ci.exhausted,
        })
    }
}

/// `M(main)` as a set of `(min, max)`-ordered pairs — the same
/// normalization the explorer's dynamic MHP set uses, so the two compare
/// directly.
fn normalized_pairs(a: &Analysis) -> std::collections::BTreeSet<(Label, Label)> {
    a.mhp()
        .iter_pairs()
        .map(|(x, y)| if x <= y { (x, y) } else { (y, x) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_syntax::examples;

    fn pairs(p: &Program, a: &Analysis) -> Vec<(String, String)> {
        a.pairs_named(p)
    }

    fn norm(v: Vec<(&str, &str)>) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = v
            .into_iter()
            .map(|(a, b)| {
                if a <= b {
                    (a.to_string(), b.to_string())
                } else {
                    (b.to_string(), a.to_string())
                }
            })
            .collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn soundness_report_confirms_theorem_2_on_explored_ground_truth() {
        use fx10_semantics::{explore, ExploreConfig};
        for p in [examples::example_2_1(), examples::example_2_2()] {
            let e = explore(&p, &[], ExploreConfig::default());
            assert!(!e.truncated);
            let a = analyze(&p);
            let report = a.check_soundness(e.mhp.iter());
            assert!(
                report.is_sound(),
                "dynamic pairs missing from static M: {:?}",
                report.missing
            );
            assert_eq!(report.checked, e.mhp.len());
            assert!(report.static_pairs >= report.checked);
        }
        // A fabricated pair the analysis never emits must be flagged.
        let p = examples::example_2_1();
        let a = analyze(&p);
        let bogus = (Label(0), Label(0));
        let report = a.check_soundness([&bogus]);
        assert!(!report.is_sound());
        assert_eq!(report.missing, vec![bogus]);
    }

    #[test]
    fn example_2_1_exact_pairs() {
        // §2.1/§5.4: "the output from our constraint solver says correctly
        // that S2 may happen in parallel with each of S5, S6, S7, S8, S11,
        // and S12, as well as with the entire finish statement [S13], that
        // S11 and S12 may happen in parallel, and that S7 and S11 may
        // happen in parallel" — and nothing else.
        let p = examples::example_2_1();
        let a = analyze(&p);
        assert_eq!(pairs(&p, &a), norm(examples::example_2_1_expected_pairs()));
    }

    #[test]
    fn example_2_2_exact_pairs_context_sensitive() {
        let p = examples::example_2_2();
        let a = analyze(&p);
        assert_eq!(pairs(&p, &a), norm(examples::example_2_2_expected_pairs()));
        // In particular, no (S3, S4).
        let s3 = p.labels().lookup("S3").unwrap();
        let s4 = p.labels().lookup("S4").unwrap();
        assert!(!a.may_happen_in_parallel(s3, s4));
    }

    #[test]
    fn example_2_2_ci_adds_exactly_the_spurious_pairs() {
        let p = examples::example_2_2();
        let ci = analyze_ci(&p);
        let mut expected = examples::example_2_2_expected_pairs();
        expected.extend(examples::example_2_2_ci_extra_pairs());
        assert_eq!(pairs(&p, &ci), norm(expected));
        let s3 = p.labels().lookup("S3").unwrap();
        let s4 = p.labels().lookup("S4").unwrap();
        assert!(ci.may_happen_in_parallel(s3, s4), "the CI false positive");
    }

    #[test]
    fn ci_dropping_scross_changes_nothing() {
        // §7: "for a context-insensitive analysis we can remove
        // Scross_p(p(f_i), R) from Rule (82) without changing the
        // analysis."
        for p in [
            examples::example_2_1(),
            examples::example_2_2(),
            examples::add_twice(),
            examples::same_category(),
        ] {
            let with = analyze_with(
                &p,
                Mode::ContextInsensitive { keep_scross: true },
                SolverKind::Naive,
            );
            let without = analyze_with(
                &p,
                Mode::ContextInsensitive { keep_scross: false },
                SolverKind::Naive,
            );
            assert_eq!(with.mhp(), without.mhp());
        }
    }

    #[test]
    fn cs_is_subset_of_ci() {
        // The CI analysis is strictly more conservative.
        for p in [
            examples::example_2_1(),
            examples::example_2_2(),
            examples::same_category(),
            examples::self_category(),
        ] {
            let cs = analyze(&p);
            let ci = analyze_ci(&p);
            assert!(cs.mhp().is_subset(ci.mhp()));
        }
    }

    #[test]
    fn naive_and_worklist_agree_on_solutions() {
        for p in [examples::example_2_1(), examples::example_2_2()] {
            let a = analyze_with(&p, Mode::ContextSensitive, SolverKind::Naive);
            let b = analyze_with(&p, Mode::ContextSensitive, SolverKind::Worklist);
            assert_eq!(a.mhp(), b.mhp());
            for f in 0..p.method_count() {
                let f = FuncId(f as u32);
                assert_eq!(a.o_of(f), b.o_of(f));
                assert_eq!(a.mhp_of(f), b.mhp_of(f));
            }
        }
    }

    #[test]
    fn loop_self_pair_is_found() {
        let p = examples::self_category();
        let a = analyze(&p);
        let s1 = p.labels().lookup("S1").unwrap();
        assert!(a.may_happen_in_parallel(s1, s1), "loop async body × itself");
    }

    #[test]
    fn same_category_pairs_found() {
        let p = examples::same_category();
        let a = analyze(&p);
        let s1 = p.labels().lookup("S1").unwrap();
        let s2 = p.labels().lookup("S2").unwrap();
        assert!(a.may_happen_in_parallel(s1, s2));
    }

    #[test]
    fn conclusion_false_positive_is_reported_statically() {
        // The analysis assumes loop bodies execute ≥ 2 times, so it
        // reports (S1, S2) even though the loop is dead — the paper's one
        // identified false-positive pattern (§8).
        let p = examples::conclusion_false_positive();
        let a = analyze(&p);
        let s1 = p.labels().lookup("S1").unwrap();
        let s2 = p.labels().lookup("S2").unwrap();
        assert!(a.may_happen_in_parallel(s1, s2));
    }

    #[test]
    fn ladder_answers_on_the_parallel_rung_when_nothing_fails() {
        use fx10_semantics::{explore, ExploreConfig};
        let p = examples::example_2_2();
        let sup = Supervisor {
            jobs: 2,
            ..Supervisor::default()
        };
        let ans = sup
            .run(&p, &[], &CancelToken::new(), &FaultPlan::none())
            .expect("ladder never refuses on a healthy run");
        assert_eq!(ans.rung, LadderRung::ParallelExplore);
        assert!(ans.rung.is_dynamic());
        assert_eq!(ans.deadlock_free, Some(true));
        assert_eq!(ans.exhausted, None);
        let reference = explore(&p, &[], ExploreConfig::default());
        assert_eq!(ans.pairs, reference.mhp);
        assert!(ans.trace.iter().any(|l| l.contains("answered")));
    }

    #[test]
    fn ladder_descends_to_sequential_when_every_parallel_attempt_stalls() {
        use fx10_robust::PanicFault;
        use fx10_semantics::{explore, ExploreConfig};
        let p = examples::example_2_1();
        let sup = Supervisor {
            jobs: 2,
            stall_after: std::time::Duration::from_millis(150),
            poll: std::time::Duration::from_millis(10),
            ..Supervisor::default()
        };
        // Worker 0 wedges immediately on every attempt, so the watchdog
        // fires, the retry wedges again, and the sequential rung answers.
        let faults = FaultPlan {
            wedge_worker: Some(PanicFault {
                worker: 0,
                after_states: 0,
            }),
            ..FaultPlan::none()
        };
        let ans = sup
            .run(&p, &[], &CancelToken::new(), &faults)
            .expect("the sequential rung absorbs the stalls");
        assert_eq!(ans.rung, LadderRung::SequentialExplore);
        assert_eq!(ans.deadlock_free, Some(true));
        let reference = explore(&p, &[], ExploreConfig::default());
        assert_eq!(ans.pairs, reference.mhp);
        assert!(
            ans.trace.iter().any(|l| l.contains("stalled")),
            "trace must record the stall: {:?}",
            ans.trace
        );
        assert!(ans.trace.iter().any(|l| l == "retrying with 1 jobs"));
    }

    #[test]
    fn ladder_descends_to_static_rungs_on_truncation() {
        let p = examples::example_2_2();
        // Two states are never enough to finish exploring, so both
        // dynamic rungs are skipped over and the CS analysis answers.
        let sup = Supervisor {
            jobs: 1,
            budget: Budget::unlimited().with_max_states(2),
            ..Supervisor::default()
        };
        let ans = sup
            .run(&p, &[], &CancelToken::new(), &FaultPlan::none())
            .expect("static rungs always answer");
        assert_eq!(ans.rung, LadderRung::ContextSensitive);
        assert!(!ans.rung.is_dynamic());
        assert_eq!(ans.deadlock_free, None);
        let reference = analyze(&p);
        assert_eq!(ans.pairs, normalized_pairs(&reference));
    }

    #[test]
    fn ladder_propagates_cancellation() {
        let p = examples::example_2_1();
        let cancel = CancelToken::new();
        cancel.cancel();
        let sup = Supervisor::default();
        assert!(matches!(
            sup.run(&p, &[], &cancel, &FaultPlan::none()),
            Err(Fx10Error::Cancelled)
        ));
    }

    #[test]
    fn stats_are_populated() {
        let p = examples::example_2_1();
        let a = analyze(&p);
        assert_eq!(a.stats.slabels_constraints, a.stats.level2_constraints);
        assert!(a.stats.level1_constraints > a.stats.level2_constraints);
        assert!(a.stats.slabels_passes >= 2);
        assert!(a.stats.level1_passes >= 2);
        assert!(a.stats.level2_passes >= 2);
        assert!(a.stats.bytes > 0);
        assert!(a.stats.evals > 0);
    }
}
