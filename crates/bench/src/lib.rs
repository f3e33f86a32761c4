//! # fx10-bench
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! - [`fig5`] — the constraint system for the §2.1 example (Figure 5);
//! - [`fig6`] — static measurements: LOC, async counts/categories,
//!   constraint counts (Figure 6);
//! - [`fig7`] — condensed-form node counts (Figure 7);
//! - [`fig8`] — type-inference time/space/iterations and async-body MHP
//!   pairs with self/same/diff categories (Figure 8);
//! - [`fig9`] — context-sensitive vs context-insensitive on mg and plasma
//!   (Figure 9);
//! - [`example_2_2_report`] — the §2.2 / §7 walkthrough;
//! - [`precision`] — the §8 precision study: static vs exact dynamic MHP,
//!   plus the pairs each abstract domain prunes as infeasible.
//!
//! Each function returns the formatted table with the paper's numbers
//! alongside ours; the `figures` binary prints them, and EXPERIMENTS.md
//! records a captured run. Only the time and space columns of Figures 8
//! and 9 vary between runs; `tests/golden/` pins the timing-free tables
//! byte for byte. Timing is not this crate's job: the `benchmark/`
//! package at the repository root measures the same pipelines.

use fx10_core::analysis::SolverKind;
use fx10_core::Mode;
use fx10_frontend::gen::{analyze_condensed, async_pairs_condensed, CondensedAnalysis};
use fx10_suite::benchmarks::{all_benchmarks, Benchmark};
use std::fmt::Write;

/// Runs the context-sensitive analysis on a benchmark (naive solver, so
/// iteration counts are meaningful).
pub fn run_cs(bm: &Benchmark) -> CondensedAnalysis {
    analyze_condensed(&bm.program, Mode::ContextSensitive, SolverKind::Naive)
}

/// Runs the context-insensitive baseline.
pub fn run_ci(bm: &Benchmark) -> CondensedAnalysis {
    analyze_condensed(
        &bm.program,
        Mode::ContextInsensitive { keep_scross: true },
        SolverKind::Naive,
    )
}

/// Figure 5: the constraint systems generated for the §2.1 example.
pub fn fig5() -> String {
    let p = fx10_syntax::examples::example_2_1();
    let a = fx10_core::analyze(&p);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5 — constraints for the Section 2.1 example\n");
    out.push_str(&fx10_core::gen::render_constraints(
        &p,
        a.index(),
        a.generated(),
    ));
    let _ = writeln!(
        out,
        "\nsolved MHP pairs (paper: S2 x {{S5,S6,S7,S8,S11,S12,S13}}, S11 x S12, S7 x S11):"
    );
    for (x, y) in a.pairs_named(&p) {
        let _ = writeln!(out, "  ({x}, {y})");
    }
    out
}

/// Figure 6: static measurements. Paper constraint counts are shown next
/// to ours — the counting scheme differs slightly (we count one Slabels /
/// level-2 constraint per node plus one per method), so the columns are
/// expected to be close but not identical; asyncs and LOC match exactly.
pub fn fig6() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6 — static measurements (paper values in [brackets])\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>6} | {:>5} {:>5} {:>6} | {:>15} {:>15} {:>15}",
        "benchmark", "LOC", "async", "loop", "place", "Slabels", "level-1", "level-2"
    );
    for bm in all_benchmarks() {
        let st = bm.program.async_stats();
        let a = run_cs(&bm);
        let _ = writeln!(
            out,
            "{:<12} {:>6} | {:>5} {:>5} {:>6} | {:>6} [{:>6}] {:>6} [{:>6}] {:>6} [{:>6}]",
            bm.spec.name,
            bm.program.loc,
            st.total,
            st.loop_asyncs,
            st.place_switch,
            a.stats.slabels_constraints,
            bm.spec.paper_constraints[0],
            a.stats.level1_constraints,
            bm.spec.paper_constraints[1],
            a.stats.level2_constraints,
            bm.spec.paper_constraints[2],
        );
    }
    out
}

/// Figure 7: node counts by kind. These match the paper **exactly** (the
/// generator enforces them).
pub fn fig7() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 7 — condensed-form node counts (exact)\n");
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>5} {:>6} {:>5} {:>7} {:>4} {:>5} {:>7} {:>7} {:>5} {:>7}",
        "benchmark",
        "Total",
        "End",
        "Async",
        "Call",
        "Finish",
        "If",
        "Loop",
        "Method",
        "Return",
        "Skip",
        "Switch"
    );
    for bm in all_benchmarks() {
        let c = bm.program.node_counts();
        assert_eq!(c, bm.spec.nodes, "{} diverged from Figure 7", bm.spec.name);
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>5} {:>6} {:>5} {:>7} {:>4} {:>5} {:>7} {:>7} {:>5} {:>7}",
            bm.spec.name,
            c.total(),
            c.end,
            c.async_,
            c.call,
            c.finish,
            c.if_,
            c.loop_,
            c.method,
            c.return_,
            c.skip,
            c.switch
        );
    }
    out
}

/// Figure 8: type-inference measurements for all 13 benchmarks.
pub fn fig8() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8 — type inference (ours vs [paper]; absolute times are\n\
         machine-dependent — orderings and the iteration structure are the\n\
         reproduction targets)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} | {:>12} {:>12} | {:>18} {:>18}",
        "benchmark",
        "time(ms)",
        "space(MB)",
        "iters S/1/2",
        "[paper S/1/2]",
        "pairs t/s/s/d",
        "[paper t/s/s/d]"
    );
    for bm in all_benchmarks() {
        let a = run_cs(&bm);
        let rep = async_pairs_condensed(&a);
        let paper = bm.spec.fig8;
        let _ = writeln!(
            out,
            "{:<12} {:>9.1} {:>9.2} | {:>4}/{:>2}/{:>2}    {:>6}/{:>2}/{:>2}    | {:>5}/{}/{}/{} {:>10}/{}/{}/{}",
            bm.spec.name,
            a.stats.millis,
            a.stats.bytes as f64 / 1e6,
            a.stats.slabels_passes,
            a.stats.level1_passes,
            a.stats.level2_passes,
            paper.iters[0],
            paper.iters[1],
            paper.iters[2],
            rep.total(),
            rep.self_pairs,
            rep.same_method,
            rep.diff_method,
            paper.pairs[0],
            paper.pairs[1],
            paper.pairs[2],
            paper.pairs[3],
        );
    }
    out
}

/// Figure 9: CS vs CI on mg and plasma.
pub fn fig9() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9 — context-sensitive vs context-insensitive (mg, plasma)\n"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<20} {:>9} {:>9} {:>12} {:>18} {:>18}",
        "benchmark",
        "analysis",
        "time(ms)",
        "space(MB)",
        "iters S/1/2",
        "pairs t/s/s/d",
        "[paper t/s/s/d]"
    );
    for name in ["mg", "plasma"] {
        let bm = fx10_suite::benchmark(name).expect("benchmark exists");
        for (label, a, paper) in [
            ("context-sensitive", run_cs(&bm), Some(bm.spec.fig8)),
            ("context-insensitive", run_ci(&bm), bm.spec.fig9_ci),
        ] {
            let rep = async_pairs_condensed(&a);
            let pp = paper.map(|p| p.pairs).unwrap_or([0; 4]);
            let _ = writeln!(
                out,
                "{:<10} {:<20} {:>9.1} {:>9.2} {:>5}/{}/{}     {:>7}/{}/{}/{} {:>9}/{}/{}/{}",
                name,
                label,
                a.stats.millis,
                a.stats.bytes as f64 / 1e6,
                a.stats.slabels_passes,
                a.stats.level1_passes,
                a.stats.level2_passes,
                rep.total(),
                rep.self_pairs,
                rep.same_method,
                rep.diff_method,
                pp[0],
                pp[1],
                pp[2],
                pp[3],
            );
        }
    }
    let _ = writeln!(
        out,
        "\nexpected shape (paper §7): CI needs more time and space, more\n\
         level-1 iterations, and many more pairs — mostly in the diff column."
    );
    out
}

/// The §8 precision study the paper leaves to future work: compare the
/// static overapproximation against the dynamic underapproximation
/// (exhaustive exploration — exact on terminating programs) to measure
/// the analysis' false-positive rate, on the paper's examples and a
/// family of random programs.
pub fn precision(seeds: u64) -> String {
    use fx10_semantics::{explore, ExploreConfig};
    use fx10_suite::{random_fx10, RandomConfig};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Precision study (paper §8): static MHP vs exact dynamic MHP\n"
    );

    let named: Vec<(&str, fx10_syntax::Program)> = vec![
        ("example_2_1", fx10_syntax::examples::example_2_1()),
        ("example_2_2", fx10_syntax::examples::example_2_2()),
        ("self_category", fx10_syntax::examples::self_category()),
        ("same_category", fx10_syntax::examples::same_category()),
        (
            "conclusion_fp",
            fx10_syntax::examples::conclusion_false_positive(),
        ),
    ];
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>8} {:>8}",
        "program", "static", "dynamic", "false+"
    );
    for (name, p) in &named {
        let a = fx10_core::analyze(p);
        let e = explore(
            p,
            &[],
            ExploreConfig {
                normalize_admin: true,
                ..ExploreConfig::default()
            },
        );
        assert!(!e.truncated);
        let fp = a.mhp().len() - e.mhp.len();
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>8} {:>8}",
            name,
            a.mhp().len(),
            e.mhp.len(),
            fp
        );
    }

    let mut total_static = 0usize;
    let mut total_dynamic = 0usize;
    let mut exact = 0usize;
    let mut counted = 0usize;
    for seed in 0..seeds {
        let p = random_fx10(RandomConfig {
            methods: 1 + (seed % 4) as usize,
            stmts_per_method: 2 + (seed % 3) as usize,
            max_depth: 2,
            seed,
        });
        let e = explore(
            &p,
            &[],
            ExploreConfig {
                max_states: 30_000,
                normalize_admin: true,
                ..ExploreConfig::default()
            },
        );
        if e.truncated {
            continue;
        }
        counted += 1;
        let a = fx10_core::analyze(&p);
        total_static += a.mhp().len();
        total_dynamic += e.mhp.len();
        if a.mhp().len() == e.mhp.len() {
            exact += 1;
        }
    }
    let _ = writeln!(
        out,
        "\nrandom programs: {counted} fully explored; {exact} exactly precise;\n         {total_dynamic} dynamic pairs inside {total_static} static pairs\n         (every false positive stems from the §8 loop-runs-<2 pattern —\n         the paper found none on its benchmarks and identified this as\n         the one source)"
    );
    out.push_str(&absint_sweep());
    out
}

/// A fan-out program: `finish { async {S0;T0;} … async {Sn;Tn;} } K;`.
fn fanout(width: usize) -> fx10_syntax::Program {
    let mut body = String::new();
    for i in 0..width {
        body.push_str(&format!("async {{ S{i}; T{i}; }}\n"));
    }
    fx10_syntax::Program::parse(&format!("def main() {{ finish {{ {body} }} K; }}"))
        .expect("fanout parses")
}

/// The value-analysis half of the precision study: each abstract domain
/// (const / interval / parity) of the guard-feasibility oracle on the
/// paper examples, a fan-out program, the chaos fixture and three random
/// programs. A row gives the fixpoint's rounds, whether widening capped
/// it, the labels it proves reachable, and the static MHP pairs it
/// prunes as infeasible.
fn absint_sweep() -> String {
    use fx10_absint::{Domain, FeasibilityOracle};
    use fx10_suite::{random_fx10, RandomConfig};

    let chaos = include_str!("../../../programs/chaos_wide.fx10");
    let mut fixtures: Vec<(String, fx10_syntax::Program)> = vec![
        ("example_2_1".into(), fx10_syntax::examples::example_2_1()),
        (
            "same_category".into(),
            fx10_syntax::examples::same_category(),
        ),
        ("fanout5".into(), fanout(5)),
        (
            "chaos_wide".into(),
            fx10_syntax::Program::parse(chaos).expect("chaos_wide parses"),
        ),
    ];
    for seed in [11u64, 42, 77] {
        let cfg = RandomConfig {
            methods: 3,
            stmts_per_method: 4,
            max_depth: 2,
            seed,
        };
        fixtures.push((format!("random_seed{seed}"), random_fx10(cfg)));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nValue-analysis pruning of the static MHP pairs, per abstract domain\n"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>5} | {:<8} {:>6} {:>6} {:>9} {:>6}",
        "program", "labels", "mhp", "domain", "rounds", "capped", "reachable", "pruned"
    );
    for (name, p) in &fixtures {
        let cs = fx10_core::analyze(p);
        for d in Domain::ALL {
            let oracle = FeasibilityOracle::build(p, &cs, d, None);
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>5} | {:<8} {:>6} {:>6} {:>9} {:>6}",
                name,
                p.label_count(),
                cs.mhp().len(),
                d.name(),
                oracle.facts.rounds(),
                oracle.facts.capped(),
                oracle.facts.reachable_count(),
                oracle.prune(&cs).pruned.len()
            );
        }
    }
    out
}

/// The §2.2 / §7 walkthrough: CS avoids the (S3, S4) false positive, CI
/// produces it.
pub fn example_2_2_report() -> String {
    use fx10_syntax::examples;
    let p = examples::example_2_2();
    let cs = fx10_core::analyze(&p);
    let ci = fx10_core::analyze_ci(&p);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section 2.2 example — modular interprocedural analysis\n"
    );
    let _ = writeln!(out, "context-sensitive pairs:");
    for (a, b) in cs.pairs_named(&p) {
        let _ = writeln!(out, "  ({a}, {b})");
    }
    let _ = writeln!(out, "context-insensitive pairs:");
    for (a, b) in ci.pairs_named(&p) {
        let _ = writeln!(out, "  ({a}, {b})");
    }
    let s3 = p.labels().lookup("S3").unwrap();
    let s4 = p.labels().lookup("S4").unwrap();
    let _ = writeln!(
        out,
        "\n(S3, S4): CS = {}, CI = {}   [paper: CS avoids it, CI reports it]",
        cs.may_happen_in_parallel(s3, s4),
        ci.may_happen_in_parallel(s3, s4)
    );
    out
}
