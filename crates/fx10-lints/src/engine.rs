//! The lint engine: runs every pass and assembles one [`LintReport`].
//!
//! Pass gating follows soundness, not convenience:
//!
//! * the race pass runs against whatever (possibly budget-cut) analyses
//!   we got — a partial MHP relation under-approximates, so it can only
//!   *miss* races, never invent them, and the report records the cut;
//! * `inert-async` and `precision-delta` need complete analyses: both
//!   prove an *absence* (no MHP partner; pair not in CS), which a partial
//!   relation cannot support, so they are skipped under exhaustion;
//! * the abstract value analysis (feasibility oracle, input-general
//!   stuck-loop proofs) is licensed only by a complete CS relation and an
//!   uncapped fixpoint — its interference rule quantifies over the MHP
//!   relation, so a partial relation would make its *facts* unsound, not
//!   just incomplete. Unlicensed runs degrade to the syntactic rules.

use crate::audit::precision_audit;
use crate::diag::LintReport;
use crate::races::race_pass;
use crate::structure::{dead_methods, inert_asyncs, oob_accesses, redundant_finishes, stuck_loops};
use fx10_absint::{Absint, AbsintConfig, Domain, FeasibilityOracle};
use fx10_core::analysis::{analyze_with_budget, SolverKind};
use fx10_core::gen::Mode;
use fx10_robust::{Budget, CancelToken, Fx10Error};
use fx10_syntax::Program;

/// Configuration for one lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Initial array contents (padded/truncated to the program's array
    /// length); drives the witness search and the stuck-loop proof.
    pub input: Vec<i64>,
    /// Witness-search cap on distinct raw states: each finding's
    /// outcome equals that of a search for its label pair alone capped
    /// at this many states, all served by one shared search. 0 disables
    /// witness search: every race keeps its static tier, tagged
    /// may-be-spurious.
    pub witness_states: usize,
    /// Solver for the two static analyses.
    pub solver: SolverKind,
    /// Resource budget shared by the analyses and the witness search.
    /// Its `max_iters` caps each finding's search like `witness_states`
    /// does; its deadline, when it trips, ends the shared search and
    /// leaves every finding still unresolved may-be-spurious at once.
    pub budget: Budget,
    /// Abstract domain for the value analysis backing the feasibility
    /// oracle and the stuck-loop proofs.
    pub domain: Domain,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            input: Vec::new(),
            witness_states: 10_000,
            solver: SolverKind::Naive,
            budget: Budget::unlimited(),
            domain: Domain::Interval,
        }
    }
}

/// Runs the full suite over `p`.
///
/// Errors only on cancellation (or a poisoned solver worker) — budget
/// exhaustion inside the analyses or the witness search degrades the
/// report instead of failing it.
pub fn lint(
    p: &Program,
    opts: &LintOptions,
    cancel: &CancelToken,
) -> Result<LintReport, Fx10Error> {
    let cs = analyze_with_budget(p, Mode::ContextSensitive, opts.solver, opts.budget, cancel)?;
    let ci = analyze_with_budget(
        p,
        Mode::ContextInsensitive { keep_scross: true },
        opts.solver,
        opts.budget,
        cancel,
    )?;
    let complete = cs.exhausted.is_none() && ci.exhausted.is_none();

    // The value analysis quantifies over the CS MHP relation, so only a
    // complete CS run licenses it; the oracle additionally refuses to
    // prune when its own fixpoint hit the round cap.
    let oracle = (cs.exhausted.is_none())
        .then(|| FeasibilityOracle::build(p, &cs, opts.domain, Some(&opts.input)));
    let facts_general = (cs.exhausted.is_none())
        .then(|| Absint::analyze(p, cs.mhp(), &AbsintConfig::top(opts.domain)));
    let absint = match (&facts_general, &oracle) {
        (Some(g), Some(o)) if !g.capped() && o.complete => Some((g, &o.facts)),
        _ => None,
    };

    let races = race_pass(
        p,
        &cs,
        &ci,
        &opts.input,
        opts.witness_states,
        oracle.as_ref(),
        opts.budget,
        cancel,
    )?;

    let mut diagnostics = races.diagnostics;
    diagnostics.extend(dead_methods(p));
    diagnostics.extend(redundant_finishes(p));
    diagnostics.extend(stuck_loops(p, &opts.input, absint));
    diagnostics.extend(oob_accesses(p));
    if complete {
        diagnostics.extend(inert_asyncs(p, &cs));
        diagnostics.extend(precision_audit(p, &cs, &ci));
    }
    diagnostics.sort_by(|a, b| (a.line, a.code, &a.message).cmp(&(b.line, b.code, &b.message)));

    Ok(LintReport {
        diagnostics,
        refuted_races: races.refuted,
        exhausted: cs.exhausted.or(ci.exhausted),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Confidence;

    fn run(src: &str) -> LintReport {
        let p = Program::parse(src).unwrap();
        lint(&p, &LintOptions::default(), &CancelToken::new()).unwrap()
    }

    #[test]
    fn clean_program_is_clean() {
        let r = run("def main() { finish { async { a[0] = 1; } } a[1] = a[0] + 1; }");
        // The finish spawns, the async overlaps nothing *because* of the
        // finish... but inert-async fires on it, which is correct: that
        // async gains nothing. Use a genuinely parallel, disjoint program.
        let r2 = run("def main() { async { a[0] = 1; } a[1] = 2; }");
        assert!(r2.diagnostics.is_empty(), "{:?}", r2.diagnostics);
        assert!(r.diagnostics.iter().all(|d| d.code == "inert-async"));
    }

    #[test]
    fn findings_are_sorted_by_line() {
        let r = run("def ghost() { skip; }\n\
             def main() {\n\
               W1: async { a[0] = 1; }\n\
               W2: a[0] = 2;\n\
               F: finish { skip; }\n\
             }");
        let lines: Vec<u32> = r.diagnostics.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"race-write-write"));
        assert!(codes.contains(&"dead-method"));
        assert!(codes.contains(&"redundant-finish"));
    }

    #[test]
    fn witness_confirms_the_racey_fixture() {
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../programs/racey.fx10"
        ))
        .unwrap();
        let r = run(&src);
        let race = r
            .diagnostics
            .iter()
            .find(|d| d.code.starts_with("race"))
            .expect("racey.fx10 must produce a race finding");
        assert_eq!(race.confidence, Confidence::Confirmed);
        assert!(race.witness.is_some());
        assert!(race.line > 0);
    }

    #[test]
    fn engine_emits_infeasible_race_and_oob() {
        let r = run("array[2];\n\
             def main() {\n\
               a[0] = 0;\n\
               while (a[0] != 0) { async { a[1] = 1; } a[1] = 2; }\n\
               X: a[2] = 9;\n\
             }");
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"infeasible-race"), "{codes:?}");
        assert!(codes.contains(&"oob-write"), "{codes:?}");
        assert!(!codes.contains(&"race-write-write"), "{codes:?}");
        let inf = r
            .diagnostics
            .iter()
            .find(|d| d.code == "infeasible-race")
            .unwrap();
        assert!(inf.guard_fact.is_some());
    }

    #[test]
    fn engine_stuck_loop_is_input_general() {
        let r = run("def main() { a[0] = 5; while (a[0] != 0) { skip; } }");
        let stuck = r
            .diagnostics
            .iter()
            .find(|d| d.code == "stuck-loop")
            .expect("stuck loop");
        assert!(
            stuck.message.contains("for every input"),
            "{}",
            stuck.message
        );
    }

    #[test]
    fn cancellation_propagates() {
        let p = Program::parse("def main() { async { a[0] = 1; } a[0] = 2; }").unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(lint(&p, &LintOptions::default(), &cancel).is_err());
    }
}
