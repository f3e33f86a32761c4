//! The five workloads: their programs, job lists, reference answers,
//! the jobs themselves (the library entry points the `fx10` CLI calls,
//! from source text to verdict, rendering excluded) and the checks.

use crate::json::{self, Json};
use crate::trace::Tracer;
use fx10_core::analysis::SolverKind;
use fx10_core::{Mode, PairSet};
use fx10_robust::{Budget, CancelToken, FaultPlan};
use fx10_runtime::{RtConfig, RunReport};
use fx10_semantics::{Durability, Exploration, ExploreConfig, WatchdogSpec};
use fx10_suite::random::Xorshift;
use fx10_suite::RandomConfig;
use fx10_syntax::Program;
use std::fmt::Write;

/// The hand-written expected answers, each row citing its source.
pub const ANSWERS: &str = include_str!("../expected/answers.json");

/// Generator seeds of the lint pool, cheapest lint first.
pub const LINT_POOL: &str = include_str!("../expected/lint_pool.txt");

pub const CHAOS_WIDE: &str = include_str!("../../programs/chaos_wide.fx10");
pub const CHAOS_GRID: &str = include_str!("../../programs/chaos_grid.fx10");

/// Worker threads for `explore` and `run`; every other job runs on one
/// thread, so a run keeps at most two cores busy.
pub const WORKERS: usize = 2;

/// `fx10 explore` and `fx10 run` defaults the jobs reproduce.
pub const EXPLORE_MAX_STATES: usize = 2_000_000;
pub const RUN_MAX_STEPS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    StateSpace,
    LintCorpus,
    RunDisjoint,
    RunRacy,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::PaperSuite,
    Workload::StateSpace,
    Workload::LintCorpus,
    Workload::RunDisjoint,
    Workload::RunRacy,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::StateSpace => "state-space",
            Workload::LintCorpus => "lint-corpus",
            Workload::RunDisjoint => "run-disjoint",
            Workload::RunRacy => "run-racy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// `smoke` shrinks every job list to a few small programs, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The reference a job's answer is checked against.
#[derive(Debug, Clone)]
pub enum Check {
    /// `fx10 bench`: X10-Lite source analysed in `mode`; expected
    /// async-body pair totals total/self/same/diff (Figures 8 and 9).
    Pairs { mode: Mode, expected: [usize; 4] },
    /// `fx10 explore`: expected state and terminal counts, plus the
    /// static CS MHP the dynamic MHP must lie inside (Theorem 2).
    Space {
        states: usize,
        terminals: usize,
        cs: PairSet,
    },
    /// `fx10 lint`: CS and CI MHP of the program.
    Lint { cs: PairSet, ci: PairSet },
    /// `fx10 run --jobs 2`: the sequential-elision run. A racy program
    /// also carries the static MHP its races must lie inside; a race-free
    /// one must show no race at all.
    Run {
        elision: RunReport,
        racy: Option<PairSet>,
    },
}

/// One distinct program of a workload.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub source: String,
    pub check: Check,
}

/// A workload made concrete from a seed.
pub struct Prepared {
    pub cases: Vec<Case>,
    /// One pass: the case index of each job, before the per-pass shuffle.
    pub pass: Vec<usize>,
}

/// What a job returned, ready to be checked.
pub enum Answer {
    Pairs([usize; 4]),
    Space(Exploration),
    Lint {
        program: Program,
        report: fx10_lints::LintReport,
    },
    Run(RunReport),
}

// ---------------------------------------------------------------------------
// Program generators (all return source text: every job starts from it).

/// `finish { async { S_i; T_i; } … } K;` — each extra activity multiplies
/// the interleavings by about three.
pub fn fanout(width: usize) -> String {
    let mut src = String::from("def main() {\n  finish {\n");
    for i in 0..width {
        let _ = writeln!(src, "    async {{ S{i}; T{i}; }}");
    }
    src.push_str("  }\n  K;\n}\n");
    src
}

/// `width` activities, each incrementing its own cell `reps` times:
/// race-free, few long activities.
pub fn map_incr(width: usize, reps: usize) -> String {
    let mut src = String::from("def main() {\n  finish {\n");
    for w in 0..width {
        src.push_str("    async {");
        for _ in 0..reps {
            let _ = write!(src, " a[{w}] = a[{w}] + 1;");
        }
        src.push_str(" }\n");
    }
    src.push_str("  }\n}\n");
    src
}

/// `f_k = finish { async f_{k-1}(); async f_{k-2}(); }` with leaves that
/// only read the never-written `a[0]`: race-free, many tiny activities.
pub fn fib(n: usize) -> String {
    let mut src = format!("def main() {{ f{n}(); }}\n");
    for k in (0..=n).rev() {
        if k >= 2 {
            let _ = writeln!(
                src,
                "def f{k}() {{ finish {{ async {{ f{}(); }} async {{ f{}(); }} }} }}",
                k - 1,
                k - 2
            );
        } else {
            let _ = writeln!(src, "def f{k}() {{ while (a[0] != 0) {{ skip; }} }}");
        }
    }
    src
}

/// `w` activities of `n` increments; activity `j`'s `i`-th statement
/// bumps the shared `a[(j + i) % bins]`: racy by construction.
pub fn hist(w: usize, n: usize, bins: usize) -> String {
    let mut src = format!("array[{bins}];\ndef main() {{\n  finish {{\n");
    for j in 0..w {
        src.push_str("    async {");
        for i in 0..n {
            let c = (j + i) % bins;
            let _ = write!(src, " a[{c}] = a[{c}] + 1;");
        }
        src.push_str(" }\n");
    }
    src.push_str("  }\n}\n");
    src
}

/// Program `g` of the lint pool: methods 1–3, 3–4 statements, depth 2.
pub fn lint_program(g: u64) -> Program {
    fx10_suite::random_fx10(RandomConfig {
        methods: 1 + (g % 3) as usize,
        stmts_per_method: 3 + (g / 3 % 2) as usize,
        max_depth: 2,
        seed: g,
    })
}

/// The pool's generator seeds, cheapest lint first.
pub fn lint_pool() -> Vec<u64> {
    LINT_POOL
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.parse().ok())
        .collect()
}

/// Programs of the ranked pool below the tail: the seeded draw's range.
/// The costliest 6% (0.26–4.7 s each) hold 84% of the pool's lint time;
/// drawn per seed, a few of them would swing a run's throughput several
/// times over, so the tail is sampled at fixed ranks instead.
fn lint_head_len(pool: &[u64]) -> usize {
    pool.len() * 94 / 100
}

/// Tail programs every full-scale pass lints, the same for every seed.
const LINT_TAIL_PICKS: usize = 4;

/// Stratified draw: the pool's head is cut into `count` equal runs of
/// similar lint cost and the seed picks one program from each, so every
/// seed gets a different corpus with the same cost profile.
pub fn lint_corpus(seed: u64, count: usize) -> Vec<u64> {
    let pool = lint_pool();
    let head = &pool[..lint_head_len(&pool)];
    let mut rng = Xorshift::new(seed ^ 0x6c69_6e74);
    (0..count)
        .map(|i| {
            let lo = i * head.len() / count;
            let hi = ((i + 1) * head.len() / count).max(lo + 1);
            head[lo + rng.below((hi - lo) as u64) as usize]
        })
        .collect()
}

/// The middle program of each of `LINT_TAIL_PICKS` equal runs of the
/// pool's tail: the per-finding witness searches that cost seconds.
pub fn lint_tail() -> Vec<u64> {
    let pool = lint_pool();
    let tail = &pool[lint_head_len(&pool)..];
    (0..LINT_TAIL_PICKS)
        .map(|k| tail[(2 * k + 1) * tail.len() / (2 * LINT_TAIL_PICKS)])
        .collect()
}

// ---------------------------------------------------------------------------
// Set-up.

fn parse_fx10(name: &str, src: &str) -> Result<Program, String> {
    Program::parse(src).map_err(|e| format!("{name}: {e}"))
}

fn expected_pairs(answers: &Json, name: &str, tag: &str) -> Result<[usize; 4], String> {
    let row = answers
        .get("paper-suite")
        .and_then(|s| s.get("rows"))
        .and_then(|r| r.get(name))
        .and_then(|r| r.get(tag))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("answers.json: no paper-suite row for {name} {tag}"))?;
    let v: Vec<usize> = row
        .iter()
        .filter_map(|x| x.as_f64())
        .map(|x| x as usize)
        .collect();
    v.try_into()
        .map_err(|_| format!("answers.json: {name} {tag} needs four numbers"))
}

/// Builds a `state-space` case for a fixture named in `answers.json`.
pub fn explore_case(name: &str, source: String) -> Result<Case, String> {
    let answers = json::parse(ANSWERS)?;
    let row = answers
        .get("state-space")
        .and_then(|s| s.get("rows"))
        .and_then(|r| r.get(name))
        .ok_or_else(|| format!("answers.json: no state-space row for {name}"))?;
    let num = |k: &str| {
        row.get(k)
            .and_then(Json::as_f64)
            .map(|x| x as usize)
            .ok_or_else(|| format!("answers.json: {name} lacks `{k}`"))
    };
    let p = parse_fx10(name, &source)?;
    Ok(Case {
        name: name.to_string(),
        check: Check::Space {
            states: num("states")?,
            terminals: num("terminals")?,
            cs: fx10_core::analyze(&p).mhp().clone(),
        },
        source,
    })
}

/// Builds a `run-*` case: the elision reference run, plus for a racy
/// program its static MHP from the type system (Figure 4), which equals
/// the CS constraint solution (Theorem 4) but keeps only per-method sets:
/// the constraint solver's per-statement pair sets grow as the cube of
/// the label count.
pub fn run_case(name: &str, source: String, racy: bool) -> Result<Case, String> {
    let p = parse_fx10(name, &source)?;
    let elision = fx10_runtime::run_elision(
        &p,
        &[],
        RUN_MAX_STEPS,
        Budget::unlimited(),
        &CancelToken::new(),
    )
    .map_err(|e| format!("{name}: elision: {e}"))?;
    let racy = racy.then(|| {
        let (env, _) = fx10_core::infer_types(&p);
        env.get(p.main()).m.clone()
    });
    Ok(Case {
        name: name.to_string(),
        check: Check::Run { elision, racy },
        source,
    })
}

/// Builds a `lint-corpus` case from pool generator seed `g`.
pub fn lint_case(g: u64) -> Case {
    let source = fx10_syntax::pretty::program(&lint_program(g));
    let p = Program::parse(&source).expect("pretty-printed programs parse");
    Case {
        name: format!("lint-{g}"),
        check: Check::Lint {
            cs: fx10_core::analyze(&p).mhp().clone(),
            ci: fx10_core::analyze_ci(&p).mhp().clone(),
        },
        source,
    }
}

/// Builds `paper-suite` cases: every program of `cs` analysed context-
/// sensitively, every program of `ci` context-insensitively.
pub fn paper_cases(cs: &[&str], ci: &[&str]) -> Result<Vec<Case>, String> {
    let answers = json::parse(ANSWERS)?;
    let mut cases = Vec::new();
    for spec in fx10_suite::SPECS {
        let name = spec.name;
        let modes = [
            ("cs", Mode::ContextSensitive, cs.contains(&name)),
            (
                "ci",
                Mode::ContextInsensitive { keep_scross: true },
                ci.contains(&name),
            ),
        ];
        if !modes.iter().any(|m| m.2) {
            continue;
        }
        let bm = fx10_suite::benchmark(name).expect("SPECS names a suite program");
        let source = fx10_frontend::pretty(&bm.program);
        for (tag, mode, _) in modes.into_iter().filter(|m| m.2) {
            cases.push(Case {
                name: format!("{name}-{tag}"),
                source: source.clone(),
                check: Check::Pairs {
                    mode,
                    expected: expected_pairs(&answers, name, tag)?,
                },
            });
        }
    }
    Ok(cases)
}

/// Expands `(case, copies)` into cases plus a pass.
fn with_copies(list: Vec<(Case, usize)>) -> (Vec<Case>, Vec<usize>) {
    let mut pass = Vec::new();
    let mut cases = Vec::new();
    for (i, (case, copies)) in list.into_iter().enumerate() {
        pass.extend(std::iter::repeat_n(i, copies));
        cases.push(case);
    }
    (cases, pass)
}

/// Makes `w` concrete for `seed`: programs, reference answers, one pass.
/// Only `lint-corpus` draws different programs per seed; every workload
/// shuffles its passes and the runtime schedule seeds from it.
pub fn prepare(w: Workload, seed: u64, scale: Scale) -> Result<Prepared, String> {
    let full = scale == Scale::Full;
    let (cases, pass) = match w {
        Workload::PaperSuite => {
            // The paper's tables: Figure 8 analyses all 13 programs
            // context-sensitively, Figure 9 adds CI runs of mg and plasma.
            // The smoke scale checks every row of answers.json instead.
            let all: Vec<&str> = fx10_suite::SPECS.iter().map(|s| s.name).collect();
            let fig9: Vec<&str> = fx10_suite::SPECS
                .iter()
                .filter(|s| s.fig9_ci.is_some())
                .map(|s| s.name)
                .collect();
            let cases = paper_cases(&all, if full { &fig9 } else { &all })?;
            let pass = (0..cases.len()).collect();
            (cases, pass)
        }
        Workload::StateSpace => with_copies(if full {
            vec![
                (explore_case("fanout6", fanout(6))?, 12),
                (explore_case("fanout7", fanout(7))?, 8),
                (explore_case("chaos_wide", CHAOS_WIDE.to_string())?, 6),
            ]
        } else {
            vec![
                (explore_case("fanout5", fanout(5))?, 1),
                (explore_case("fanout6", fanout(6))?, 1),
            ]
        }),
        Workload::LintCorpus => {
            // 500 strata: narrow enough that which program a seed draws
            // near the 90th cost percentile moves `job_ms_p90` by ≈6%
            // (≈16% with 300).
            let mut seeds = lint_corpus(seed, if full { 500 } else { 12 });
            if full {
                seeds.extend(lint_tail());
            }
            let cases: Vec<Case> = seeds.into_iter().map(lint_case).collect();
            let pass = (0..cases.len()).collect();
            (cases, pass)
        }
        Workload::RunDisjoint => with_copies(if full {
            vec![
                (run_case("map_incr-8x800", map_incr(8, 800), false)?, 10),
                (run_case("map_incr-64x100", map_incr(64, 100), false)?, 10),
                (run_case("fib-18", fib(18), false)?, 10),
            ]
        } else {
            vec![
                (run_case("map_incr-4x50", map_incr(4, 50), false)?, 1),
                (run_case("fib-10", fib(10), false)?, 1),
            ]
        }),
        Workload::RunRacy => with_copies(if full {
            vec![
                (run_case("hist-8x100x4", hist(8, 100, 4), true)?, 7),
                (run_case("hist-32x25x4", hist(32, 25, 4), true)?, 3),
            ]
        } else {
            vec![
                (run_case("hist-4x10x2", hist(4, 10, 2), true)?, 1),
                (run_case("hist-8x5x3", hist(8, 5, 3), true)?, 1),
            ]
        }),
    };
    Ok(Prepared { cases, pass })
}

/// A seeded Fisher–Yates shuffle of one pass.
pub fn shuffled(pass: &[usize], rng: &mut Xorshift) -> Vec<usize> {
    let mut order = pass.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// FNV-1a over the first pass's job order and sources: equal digests
/// mean equal job lists.
pub fn job_list_digest(prep: &Prepared, order: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in order {
        let c = &prep.cases[i];
        for b in c.name.bytes().chain([0]).chain(c.source.bytes()).chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Jobs.

fn mode_span(mode: Mode) -> &'static str {
    if mode.is_ci() {
        "frontend.analyze.ci"
    } else {
        "frontend.analyze.cs"
    }
}

/// Runs one job — source text to verdict — through the same library
/// calls as the CLI subcommand, with spans when `tr` is on.
pub fn run_job(case: &Case, job_seed: u64, tr: &mut Tracer) -> Result<Answer, String> {
    let cancel = CancelToken::new();
    let name = case.name.as_str();
    match &case.check {
        Check::Pairs { mode, .. } => tr.time("job.paper", |tr| {
            let p = tr
                .time("frontend.parse", |_| fx10_frontend::parse(&case.source))
                .map_err(|e| format!("{name}: {e}"))?;
            let (a, id) = tr.span(mode_span(*mode), |_| {
                fx10_frontend::analyze_condensed_budgeted(
                    &p,
                    *mode,
                    SolverKind::Naive,
                    Budget::unlimited(),
                    &cancel,
                )
            });
            let a = a.map_err(|e| e.to_string())?;
            tr.count(id, "evals", a.stats.evals as f64);
            tr.count(id, "passes_level1", a.stats.level1_passes as f64);
            tr.count(id, "passes_level2", a.stats.level2_passes as f64);
            tr.count(id, "bytes", a.stats.bytes as f64);
            if let Some(e) = a.exhausted {
                return Err(format!("unexpected budget cut ({e})"));
            }
            let r = fx10_frontend::async_pairs_condensed(&a);
            Ok(Answer::Pairs([
                r.total(),
                r.self_pairs,
                r.same_method,
                r.diff_method,
            ]))
        }),
        Check::Space { .. } => tr.time("job.explore", |tr| {
            let p = tr.time("syntax.parse", |_| parse_fx10(name, &case.source))?;
            let e = tr
                .time("semantics.explore", |_| explore_cli(&p, WORKERS))
                .map_err(|e| e.to_string())?;
            Ok(Answer::Space(e))
        }),
        Check::Lint { .. } => {
            let (answer, job) = tr.span("job.lint", |tr| {
                let p = tr.time("syntax.parse", |_| parse_fx10(name, &case.source))?;
                let opts = fx10_lints::LintOptions::default();
                let report = if tr.is_on() {
                    crate::layers::lint_traced(&p, &opts, &cancel, tr)
                } else {
                    fx10_lints::lint(&p, &opts, &cancel)
                }
                .map_err(|e| e.to_string())?;
                Ok(Answer::Lint { program: p, report })
            });
            if let Ok(Answer::Lint { report, .. }) = &answer {
                let w = crate::layers::witness_outcomes(report);
                tr.count(job, "confirmed", w[0]);
                tr.count(job, "refuted", w[1]);
                tr.count(job, "inconclusive", w[2]);
            }
            answer
        }
        Check::Run { .. } => tr.time("job.run", |tr| {
            let p = tr.time("syntax.parse", |_| parse_fx10(name, &case.source))?;
            let r = tr
                .time("runtime.run", |_| run_cli(&p, WORKERS, job_seed))
                .map_err(|e| e.to_string())?;
            Ok(Answer::Run(r))
        }),
    }
}

/// `fx10 explore --jobs N`: default watchdog, no checkpoint.
pub fn explore_cli(p: &Program, jobs: usize) -> Result<Exploration, fx10_robust::Fx10Error> {
    fx10_semantics::explore_parallel_durable(
        p,
        &[],
        ExploreConfig {
            max_states: EXPLORE_MAX_STATES,
            ..ExploreConfig::default()
        },
        jobs,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan::none(),
        Durability {
            watchdog: Some(WatchdogSpec::default()),
            ..Durability::default()
        },
    )
}

/// `fx10 run --jobs N --schedule-seed S`.
pub fn run_cli(p: &Program, jobs: usize, seed: u64) -> Result<RunReport, fx10_robust::Fx10Error> {
    let cfg = RtConfig {
        jobs,
        seed,
        grain: 0,
        max_steps: RUN_MAX_STEPS,
    };
    fx10_runtime::run_parallel(
        p,
        &[],
        &cfg,
        Budget::unlimited(),
        &CancelToken::new(),
        &FaultPlan::none(),
    )
}

/// Checks a job's answer against the case's reference.
pub fn check(case: &Case, answer: &Answer) -> Result<(), String> {
    match (&case.check, answer) {
        (Check::Pairs { expected, .. }, Answer::Pairs(pairs)) => {
            if pairs != expected {
                return Err(format!("pairs {pairs:?}, expected {expected:?}"));
            }
        }
        (
            Check::Space {
                states,
                terminals,
                cs,
            },
            Answer::Space(e),
        ) => check_space(e, *states, *terminals, cs)?,
        (Check::Lint { ci, .. }, Answer::Lint { program, report }) => {
            if let Some(e) = report.exhausted {
                return Err(format!("unexpected budget cut ({e})"));
            }
            for d in &report.diagnostics {
                let Some((a, b)) = d.pair else { continue };
                if (d.code.starts_with("race-") || d.code == "infeasible-race")
                    && !ci.contains(a, b)
                {
                    return Err(format!("{} pair outside the CI MHP", d.code));
                }
                if let Some(schedule) = &d.witness {
                    if !fx10_semantics::witness_exhibits(program, &[], schedule, (a, b)) {
                        return Err(format!("{} witness does not replay", d.code));
                    }
                }
            }
        }
        (Check::Run { elision, racy }, Answer::Run(r)) => check_run(r, elision, racy.as_ref())?,
        _ => return Err("answer of the wrong kind".into()),
    }
    Ok(())
}

pub fn check_space(
    e: &Exploration,
    states: usize,
    terminals: usize,
    cs: &PairSet,
) -> Result<(), String> {
    if e.truncated {
        return Err("exploration truncated".into());
    }
    if (e.visited, e.terminals, e.deadlock_free) != (states, terminals, true) {
        return Err(format!(
            "{} states, {} terminals, deadlock-free {}; expected {states}, {terminals}, true",
            e.visited, e.terminals, e.deadlock_free
        ));
    }
    if let Some((a, b)) = e.mhp.iter().find(|(a, b)| !cs.contains(*a, *b)) {
        return Err(format!(
            "dynamic pair ({}, {}) outside static CS MHP",
            a.0, b.0
        ));
    }
    Ok(())
}

pub fn check_run(r: &RunReport, elision: &RunReport, racy: Option<&PairSet>) -> Result<(), String> {
    if !r.completed || r.exhausted.is_some() {
        return Err(format!("run cut short ({:?})", r.exhausted));
    }
    if r.steps != elision.steps {
        return Err(format!("{} steps, elision {}", r.steps, elision.steps));
    }
    let pairs = r.race_pairs();
    if pairs != elision.race_pairs() {
        return Err(format!(
            "{} race pairs, elision {}",
            pairs.len(),
            elision.race_pairs().len()
        ));
    }
    match racy {
        None if !r.races.is_empty() => {
            Err(format!("{} races on a race-free program", r.races.len()))
        }
        None if r.array != elision.array => Err("array differs from elision".into()),
        None => Ok(()),
        Some(_) if r.races.is_empty() => Err("no race detected on a racy program".into()),
        Some(mhp) => match pairs.iter().find(|(a, b)| !mhp.contains(*a, *b)) {
            Some((a, b)) => Err(format!("race ({}, {}) outside the static MHP", a.0, b.0)),
            None => Ok(()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_parse() {
        for src in [fanout(3), map_incr(2, 3), fib(4), hist(3, 4, 2)] {
            Program::parse(&src).unwrap();
        }
        // fib(n) has 2·F(n+1) − 2 asyncs plus the root activity.
        let p = Program::parse(&fib(18)).unwrap();
        let r = fx10_runtime::run_elision(
            &p,
            &[],
            RUN_MAX_STEPS,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(r.activities, 8361);
    }

    #[test]
    fn corpus_is_stratified_and_seeded() {
        let pool = lint_pool();
        assert_eq!(pool.len(), 2400);
        let a = lint_corpus(1, 500);
        assert_eq!(a, lint_corpus(1, 500));
        assert_ne!(a, lint_corpus(2, 500));
        // One pick per stratum, in pool (cost) order, then the fixed tail.
        let rank = |g: &u64| pool.iter().position(|x| x == g).unwrap();
        let tail = lint_tail();
        assert_eq!(tail.len(), LINT_TAIL_PICKS);
        let all: Vec<u64> = a.into_iter().chain(tail).collect();
        assert!(all.windows(2).all(|w| rank(&w[0]) < rank(&w[1])));
        assert!(rank(&all[500]) >= lint_head_len(&pool));
    }
}
