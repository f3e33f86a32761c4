//! The traced run's view of the layers: the lint and CS-analysis
//! compositions rebuilt from each layer's public functions so every call
//! gets its own span, the comparison calls a traced job adds outside its
//! span (one worker, elision, the cloned reference explorer), the layer
//! probe that covers layers the workload's own jobs never reach, and the
//! per-layer metrics derived from the spans.

use crate::trace::{Span, Tracer};
use crate::workloads::{self, check_run, check_space, Case, Check, Scale, WORKERS};
use fx10_absint::{Absint, AbsintConfig, FeasibilityOracle};
use fx10_core::analysis::analyze_with_budget;
use fx10_core::{Mode, PairSet};
use fx10_lints::{LintOptions, LintReport};
use fx10_robust::{Budget, CancelToken, Fx10Error};
use fx10_runtime::{Detector, VClock};
use fx10_semantics::ExploreConfig;
use fx10_syntax::{Label, Program};

/// `fx10_lints::lint`, call for call, with a span around each layer's
/// entry point. The smoke test pins that both give the same report.
pub fn lint_traced(
    p: &Program,
    opts: &LintOptions,
    cancel: &CancelToken,
    tr: &mut Tracer,
) -> Result<LintReport, Fx10Error> {
    use fx10_lints::structure::{
        dead_methods, inert_asyncs, oob_accesses, redundant_finishes, stuck_loops,
    };
    let cs = tr.time("core.analyze_cs", |_| {
        analyze_with_budget(p, Mode::ContextSensitive, opts.solver, opts.budget, cancel)
    })?;
    let ci = tr.time("core.analyze_ci", |_| {
        analyze_with_budget(
            p,
            Mode::ContextInsensitive { keep_scross: true },
            opts.solver,
            opts.budget,
            cancel,
        )
    })?;
    let complete = cs.exhausted.is_none() && ci.exhausted.is_none();
    let oracle = tr.time("absint.oracle", |_| {
        cs.exhausted
            .is_none()
            .then(|| FeasibilityOracle::build(p, &cs, opts.domain, Some(&opts.input)))
    });
    let facts_general = tr.time("absint.analyze", |_| {
        cs.exhausted
            .is_none()
            .then(|| Absint::analyze(p, cs.mhp(), &AbsintConfig::top(opts.domain)))
    });
    let absint = match (&facts_general, &oracle) {
        (Some(g), Some(o)) if !g.capped() && o.complete => Some((g, &o.facts)),
        _ => None,
    };
    let races = tr.time("lints.race_pass", |_| {
        fx10_lints::races::race_pass(
            p,
            &cs,
            &ci,
            &opts.input,
            opts.witness_states,
            oracle.as_ref(),
            opts.budget,
            cancel,
        )
    })?;
    let diagnostics = tr.time("lints.structural", |_| {
        let mut diagnostics = races.diagnostics;
        diagnostics.extend(dead_methods(p));
        diagnostics.extend(redundant_finishes(p));
        diagnostics.extend(stuck_loops(p, &opts.input, absint));
        diagnostics.extend(oob_accesses(p));
        if complete {
            diagnostics.extend(inert_asyncs(p, &cs));
            diagnostics.extend(fx10_lints::audit::precision_audit(p, &cs, &ci));
        }
        diagnostics.sort_by(|a, b| (a.line, a.code, &a.message).cmp(&(b.line, b.code, &b.message)));
        diagnostics
    });
    Ok(LintReport {
        diagnostics,
        refuted_races: races.refuted,
        exhausted: cs.exhausted.or(ci.exhausted),
    })
}

/// The context-sensitive analysis built from `fx10_core`'s public stage
/// functions (index → Slabels → generate → level-1 → simplify →
/// level-2, naive solvers), one span per stage. Returns `M` of main.
pub fn cs_by_stages(p: &Program, tr: &mut Tracer) -> PairSet {
    use fx10_core::{gen, slabels, solver, StmtIndex};
    let idx = tr.time("core.index", |_| StmtIndex::build(p));
    let slab = tr.time("core.slabels", |_| slabels::compute_slabels(&idx, true));
    let g = tr.time("core.generate", |_| {
        gen::generate(p, &idx, &slab, Mode::ContextSensitive)
    });
    let l1 = tr.time("core.solve_level1", |_| solver::solve_set_naive(&g.level1));
    let l2sys = tr.time("core.simplify", |_| gen::simplify(&g, &l1, &slab));
    let l2 = tr.time("core.solve_level2", |_| solver::solve_pair_naive(&l2sys));
    l2.get(g.layout.mi(p.main())).clone()
}

/// Witness-search outcomes of one lint report: confirmed, refuted,
/// inconclusive (budget ran out).
pub fn witness_outcomes(report: &LintReport) -> [f64; 3] {
    let races = report
        .diagnostics
        .iter()
        .filter(|d| d.code.starts_with("race-"));
    let confirmed = races.clone().filter(|d| d.witness.is_some()).count();
    let inconclusive = races.filter(|d| d.may_be_spurious).count();
    [
        confirmed as f64,
        report.refuted_races as f64,
        inconclusive as f64,
    ]
}

/// The comparison calls a traced job adds after its own span, on the
/// same program: other engines and worker counts, each checked against
/// the case's reference.
pub fn comparisons(case: &Case, job_seed: u64, tr: &mut Tracer) -> Result<(), String> {
    let parse = || Program::parse(&case.source).map_err(|e| e.to_string());
    let cancel = CancelToken::new();
    match &case.check {
        Check::Pairs { .. } => Ok(()),
        Check::Space {
            states,
            terminals,
            cs,
        } => {
            let p = parse()?;
            for (name, jobs) in [
                ("semantics.explore.j2", WORKERS),
                ("semantics.explore.j1", 1),
            ] {
                let (e, id) = tr.span(name, |_| workloads::explore_cli(&p, jobs));
                let e = e.map_err(|e| e.to_string())?;
                tr.count(id, "states", e.visited as f64);
                tr.count(id, "mhp_pairs", e.mhp.len() as f64);
                check_space(&e, *states, *terminals, cs).map_err(|m| format!("{name}: {m}"))?;
            }
            let config = ExploreConfig {
                max_states: workloads::EXPLORE_MAX_STATES,
                ..ExploreConfig::default()
            };
            let interned = tr.time("semantics.explore.interned", |_| {
                fx10_semantics::explore_interned_budgeted(
                    &p,
                    &[],
                    config,
                    Budget::unlimited(),
                    &cancel,
                )
            });
            let cloned = tr.time("semantics.explore.cloned", |_| {
                fx10_semantics::explore_budgeted(&p, &[], config, Budget::unlimited(), &cancel)
            });
            for (name, e) in [("interned", interned), ("cloned", cloned)] {
                let e = e.map_err(|e| e.to_string())?;
                check_space(&e, *states, *terminals, cs).map_err(|m| format!("{name}: {m}"))?;
            }
            Ok(())
        }
        Check::Lint { cs, .. } => {
            if cs_by_stages(&parse()?, tr) != *cs {
                return Err("stage-composed CS MHP differs from fx10_core::analyze".into());
            }
            Ok(())
        }
        Check::Run { elision, racy } => {
            let p = parse()?;
            let e = tr
                .time("runtime.elide", |_| {
                    fx10_runtime::run_elision(
                        &p,
                        &[],
                        workloads::RUN_MAX_STEPS,
                        Budget::unlimited(),
                        &cancel,
                    )
                })
                .map_err(|e| e.to_string())?;
            if (e.steps, e.race_pairs()) != (elision.steps, elision.race_pairs()) {
                return Err("elision is not deterministic".into());
            }
            for (name, jobs) in [("runtime.steal_j1", 1), ("runtime.steal_j2", WORKERS)] {
                let (r, id) = tr.span(name, |_| workloads::run_cli(&p, jobs, job_seed));
                let r = r.map_err(|e| e.to_string())?;
                tr.count(id, "steps", r.steps as f64);
                tr.count(id, "activities", f64::from(r.activities));
                tr.count(id, "races", r.races.len() as f64);
                check_run(&r, elision, racy.as_ref()).map_err(|m| format!("{name}: {m}"))?;
            }
            Ok(())
        }
    }
}

/// Lint-pool programs the probe lints when the workload has no lint jobs:
/// chosen so that confirmed, refuted and inconclusive witness searches
/// all occur.
pub const PROBE_LINT_SEEDS: [u64; 3] = [1321, 2087, 1949];

/// Cases for every layer the workload's own `cases` do not reach.
pub fn probe_cases(workload: &[Case], scale: Scale) -> Result<Vec<Case>, String> {
    let full = scale == Scale::Full;
    let has = |kind: fn(&Check) -> bool| workload.iter().any(|c| kind(&c.check));
    let mut cases = Vec::new();
    if !has(|c| matches!(c, Check::Pairs { .. })) {
        let names = ["stream", "mg", "plasma"];
        cases.extend(workloads::paper_cases(&names, &names)?);
    }
    if !has(|c| matches!(c, Check::Space { .. })) {
        if full {
            cases.push(workloads::explore_case("fanout7", workloads::fanout(7))?);
            cases.push(workloads::explore_case(
                "chaos_wide",
                workloads::CHAOS_WIDE.to_string(),
            )?);
        } else {
            cases.push(workloads::explore_case("fanout5", workloads::fanout(5))?);
        }
    }
    if !has(|c| matches!(c, Check::Lint { .. })) {
        cases.extend(PROBE_LINT_SEEDS.iter().map(|&g| workloads::lint_case(g)));
    }
    if !has(|c| matches!(c, Check::Run { .. })) {
        if full {
            cases.push(workloads::run_case("fib-18", workloads::fib(18), false)?);
            cases.push(workloads::run_case(
                "map_incr-8x800",
                workloads::map_incr(8, 800),
                false,
            )?);
            cases.push(workloads::run_case(
                "hist-8x100x4",
                workloads::hist(8, 100, 4),
                true,
            )?);
        } else {
            cases.push(workloads::run_case("fib-10", workloads::fib(10), false)?);
            cases.push(workloads::run_case(
                "hist-4x10x2",
                workloads::hist(4, 10, 2),
                true,
            )?);
        }
    }
    Ok(cases)
}

/// The largest explorer fixture, run once per traced run the way
/// `fx10 explore --jobs 2` runs it: its working set is far beyond the
/// caches, so it prices the explorer's memory behaviour.
pub fn chaos_grid(tr: &mut Tracer) -> Result<(), String> {
    let case = workloads::explore_case("chaos_grid", workloads::CHAOS_GRID.to_string())?;
    let Check::Space {
        states,
        terminals,
        cs,
    } = &case.check
    else {
        unreachable!("explore_case builds a Space check")
    };
    tr.begin_job(u64::MAX, &case.name, true);
    let p = Program::parse(&case.source).map_err(|e| e.to_string())?;
    let e = tr
        .time("semantics.explore.chaos_grid", |_| {
            workloads::explore_cli(&p, WORKERS)
        })
        .map_err(|e| e.to_string())?;
    check_space(&e, *states, *terminals, cs)
}

/// Times `Detector::on_read`/`on_write` directly, with the access
/// pattern sequential elision produces on `map_incr(8, 800)` (own cell)
/// or `hist(8, 100, 4)` (shared cells): activity `j`'s `i`-th statement
/// reads then writes its cell under its own label.
pub fn detector_micro(tr: &mut Tracer, shared: bool) {
    let (name, per, cells) = if shared {
        ("runtime.detect.shared_cell", 100u32, 4usize)
    } else {
        ("runtime.detect.own_cell", 800, 8)
    };
    const ACTIVITIES: u32 = 8;
    tr.begin_job(u64::MAX, name, true);
    for _ in 0..5 {
        let d = Detector::new(cells);
        let mut root = VClock::new();
        root.bump(0);
        let clocks: Vec<VClock> = (1..=ACTIVITIES)
            .map(|t| VClock::fork(&mut root, 0, t))
            .collect();
        let (_, id) = tr.span(name, |_| {
            for (j, clock) in (0..ACTIVITIES).zip(&clocks) {
                for i in 0..per {
                    let cell = if shared {
                        (j + i) as usize % cells
                    } else {
                        j as usize
                    };
                    let label = Label(j * per + i);
                    d.on_read(cell, label, j + 1, clock);
                    d.on_write(cell, label, j + 1, clock);
                }
            }
        });
        tr.count(id, "accesses", f64::from(2 * ACTIVITIES * per));
        std::hint::black_box(d.races().len());
    }
}

/// Spans of `name` (jobs and probe alike).
fn named<'a>(tr: &'a Tracer, name: &'a str) -> impl Iterator<Item = &'a Span> + Clone + 'a {
    tr.spans.iter().filter(move |s| s.name == name)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Every `PER_LAYER` metric, from the traced run's spans. Times are
/// means per call; counts are means per call and repeat exactly;
/// ratios compare like with like (same programs, same run).
/// `traced_ms` / `untraced_ms` are the job times of the traced and
/// untraced passes, for the tracing overhead.
pub fn per_layer_metrics(
    tr: &Tracer,
    traced_ms: &[f64],
    untraced_ms: &[f64],
) -> Vec<(&'static str, f64)> {
    let ms = |name: &str| mean(named(tr, name).map(Span::ms));
    let sum_ms = |name: &str| named(tr, name).map(Span::ms).sum::<f64>();
    let count = |name: &str, c: &str| mean(named(tr, name).filter_map(|s| s.counter(c)));
    let sum_count = |name: &str, c: &str| named(tr, name).filter_map(|s| s.counter(c)).sum::<f64>();
    let case_ms = |name: &str, case: &str| {
        mean(
            named(tr, name)
                .filter(|s| tr.cases[s.case] == case)
                .map(Span::ms),
        )
    };
    let analyses = || {
        tr.spans
            .iter()
            .filter(|s| s.name == "frontend.analyze.cs" || s.name == "frontend.analyze.ci")
    };
    let analyses_count = |c: &str| mean(analyses().filter_map(|s| s.counter(c)));
    let rate = |name: &str| sum_count(name, "states") / (sum_ms(name) / 1e3);
    let ns_per_access = |name: &str| sum_ms(name) * 1e6 / sum_count(name, "accesses");
    let [confirmed, refuted, inconclusive] =
        ["confirmed", "refuted", "inconclusive"].map(|c| sum_count("job.lint", c));
    let traced_rate = traced_ms.len() as f64 / (traced_ms.iter().sum::<f64>() / 1e3);
    vec![
        ("frontend.parse_ms", ms("frontend.parse")),
        ("frontend.analyze_ms.cs", ms("frontend.analyze.cs")),
        ("frontend.analyze_ms.ci", ms("frontend.analyze.ci")),
        (
            "frontend.analyze_ms.plasma-cs",
            case_ms("frontend.analyze.cs", "plasma-cs"),
        ),
        (
            "frontend.analyze_ms.plasma-ci",
            case_ms("frontend.analyze.ci", "plasma-ci"),
        ),
        (
            "frontend.analyze_ms.mg-cs",
            case_ms("frontend.analyze.cs", "mg-cs"),
        ),
        (
            "frontend.analyze_ms.mg-ci",
            case_ms("frontend.analyze.ci", "mg-ci"),
        ),
        ("core.evals", analyses_count("evals")),
        ("core.passes_level1", analyses_count("passes_level1")),
        ("core.passes_level2", analyses_count("passes_level2")),
        (
            "core.evals_per_ms",
            analyses().filter_map(|s| s.counter("evals")).sum::<f64>()
                / analyses().map(Span::ms).sum::<f64>(),
        ),
        ("core.solved_mb", analyses_count("bytes") / 1e6),
        ("core.index_ms", ms("core.index")),
        ("core.slabels_ms", ms("core.slabels")),
        ("core.generate_ms", ms("core.generate")),
        ("core.solve_level1_ms", ms("core.solve_level1")),
        ("core.simplify_ms", ms("core.simplify")),
        ("core.solve_level2_ms", ms("core.solve_level2")),
        ("core.analyze_cs_ms", ms("core.analyze_cs")),
        ("core.analyze_ci_ms", ms("core.analyze_ci")),
        ("absint.oracle_ms", ms("absint.oracle")),
        ("absint.analyze_ms", ms("absint.analyze")),
        ("lints.race_pass_ms", ms("lints.race_pass")),
        ("lints.structural_ms", ms("lints.structural")),
        (
            "lints.race_pass_share",
            sum_ms("lints.race_pass") / sum_ms("job.lint"),
        ),
        ("lints.witness_confirmed", count("job.lint", "confirmed")),
        ("lints.witness_refuted", count("job.lint", "refuted")),
        (
            "lints.witness_inconclusive",
            count("job.lint", "inconclusive"),
        ),
        (
            "lints.witness_useful_ratio",
            (confirmed + refuted) / (confirmed + refuted + inconclusive),
        ),
        ("syntax.parse_ms", ms("syntax.parse")),
        ("semantics.states_per_s.j1", rate("semantics.explore.j1")),
        ("semantics.states_per_s.j2", rate("semantics.explore.j2")),
        (
            "semantics.scaling_j2_over_j1",
            rate("semantics.explore.j2") / rate("semantics.explore.j1"),
        ),
        (
            "semantics.explore_ms.chaos_grid",
            ms("semantics.explore.chaos_grid"),
        ),
        (
            "semantics.interned_over_cloned",
            sum_ms("semantics.explore.cloned") / sum_ms("semantics.explore.interned"),
        ),
        ("semantics.states", count("semantics.explore.j2", "states")),
        (
            "semantics.mhp_pairs",
            count("semantics.explore.j2", "mhp_pairs"),
        ),
        ("runtime.elide_ms", ms("runtime.elide")),
        ("runtime.steal_j1_ms", ms("runtime.steal_j1")),
        ("runtime.steal_j2_ms", ms("runtime.steal_j2")),
        (
            "runtime.sched_overhead",
            sum_ms("runtime.steal_j1") / sum_ms("runtime.elide"),
        ),
        (
            "runtime.scaling_j2_over_j1",
            sum_ms("runtime.steal_j1") / sum_ms("runtime.steal_j2"),
        ),
        (
            "runtime.detect_ns_per_access.own_cell",
            ns_per_access("runtime.detect.own_cell"),
        ),
        (
            "runtime.detect_ns_per_access.shared_cell",
            ns_per_access("runtime.detect.shared_cell"),
        ),
        ("runtime.steps", count("runtime.steal_j2", "steps")),
        (
            "runtime.activities",
            count("runtime.steal_j2", "activities"),
        ),
        ("runtime.races", count("runtime.steal_j2", "races")),
        ("trace.jobs_per_s", traced_rate),
        (
            "trace.overhead_pct",
            (mean(traced_ms.iter().copied()) / mean(untraced_ms.iter().copied()) - 1.0) * 100.0,
        ),
    ]
}
