//! Frontend integration: X10-Lite → condensed form → analysis, and
//! agreement between the condensed analysis and the FX10 analysis on
//! programs expressible in both.

use fx10::analysis::analysis::SolverKind;
use fx10::analysis::{analyze, Mode};
use fx10::frontend::{analyze_condensed, async_pairs_condensed, parse, CFuncId};
use fx10::syntax::Program;

/// A program expressible both as FX10 and as X10-Lite; the pair structure
/// must agree (labels differ — FX10 labels skip bodies, X10-Lite labels
/// compute nodes — so we compare async-body pair *reports*).
#[test]
fn condensed_and_fx10_agree_on_shared_fragment() {
    let fx10_src = "def f() { async { S5; } }\n\
                    def main() {\n\
                      finish { async { S3; } f(); }\n\
                      finish { f(); async { S4; } }\n\
                    }";
    let x10_src = "def f() { async { compute; } }\n\
                   def main() {\n\
                     finish { async { compute; } f(); }\n\
                     finish { f(); async { compute; } }\n\
                   }";
    let p1 = Program::parse(fx10_src).unwrap();
    let a1 = analyze(&p1);
    let rep1 = fx10::analysis::report::async_pairs(&a1);

    let p2 = parse(x10_src).unwrap();
    let a2 = analyze_condensed(&p2, Mode::ContextSensitive, SolverKind::Naive);
    let rep2 = async_pairs_condensed(&a2);

    assert_eq!(rep1.total(), rep2.total());
    assert_eq!(rep1.self_pairs, rep2.self_pairs);
    assert_eq!(rep1.same_method, rep2.same_method);
    assert_eq!(rep1.diff_method, rep2.diff_method);
    assert_eq!(
        (rep2.self_pairs, rep2.same_method, rep2.diff_method),
        (0, 0, 2)
    );
}

#[test]
fn foreach_matches_explicit_loop_async() {
    // §6: foreach is "a plain loop where the body is wrapped in an async".
    let sugar = parse("def main() { foreach (p) { compute; } }").unwrap();
    let explicit = parse("def main() { while (c) { async { compute; } } }").unwrap();
    let a = analyze_condensed(&sugar, Mode::ContextSensitive, SolverKind::Naive);
    let b = analyze_condensed(&explicit, Mode::ContextSensitive, SolverKind::Naive);
    assert_eq!(a.mhp(), b.mhp());
    let (ra, rb) = (async_pairs_condensed(&a), async_pairs_condensed(&b));
    assert_eq!(ra.self_pairs, 1);
    assert_eq!(ra.self_pairs, rb.self_pairs);
}

#[test]
fn place_switching_async_is_analyzed_like_plain_async() {
    // §6: "Our implementation handles the more general form of async in
    // exactly the same way as the asyncs in FX10."
    let plain = parse("def main() { async { compute; } compute; }").unwrap();
    let at = parse("def main() { async at (here.next()) { compute; } compute; }").unwrap();
    let a = analyze_condensed(&plain, Mode::ContextSensitive, SolverKind::Naive);
    let b = analyze_condensed(&at, Mode::ContextSensitive, SolverKind::Naive);
    assert_eq!(a.mhp(), b.mhp());
    // Only the Figure 6 category differs.
    assert_eq!(plain.async_stats().place_switch, 0);
    assert_eq!(at.async_stats().place_switch, 1);
}

#[test]
fn if_else_is_a_join_not_a_fork() {
    let p = parse(
        "def main() {\n\
           if (c) { async { compute; } } else { async { compute; } }\n\
           compute;\n\
         }",
    )
    .unwrap();
    let a = analyze_condensed(&p, Mode::ContextSensitive, SolverKind::Naive);
    // Each branch's async body (labels 2 and 4) runs in parallel with the
    // trailing compute (label 5) but not with the other branch.
    use fx10::syntax::Label;
    assert!(a.may_happen_in_parallel(Label(2), Label(5)));
    assert!(a.may_happen_in_parallel(Label(4), Label(5)));
    assert!(!a.may_happen_in_parallel(Label(2), Label(4)));
}

#[test]
fn x10lite_larger_program_smoke() {
    let src = "\
def init() { for (i) { compute; } return; }
def work() {
  foreach (point p : region) { compute; }
  if (cond) { async at (p) { compute; } } else { skip; }
  return;
}
def reduce() { switch (mode) { case { compute; } case { return; } } }
def main() {
  init();
  finish { work(); work(); }
  ateach (q) { reduce(); }
  end;
}";
    let p = parse(src).unwrap();
    let cs = analyze_condensed(&p, Mode::ContextSensitive, SolverKind::Naive);
    let ci = analyze_condensed(
        &p,
        Mode::ContextInsensitive { keep_scross: true },
        SolverKind::Naive,
    );
    assert!(cs.mhp().is_subset(ci.mhp()), "CS refines CI");
    let rep = async_pairs_condensed(&cs);
    // The foreach/ateach asyncs self-overlap; work()'s asyncs overlap
    // across the two calls inside one finish.
    assert!(rep.self_pairs >= 2, "{rep:?}");
    assert!(rep.total() >= rep.self_pairs);

    // Naive and worklist agree on the condensed pipeline too.
    let wl = analyze_condensed(&p, Mode::ContextSensitive, SolverKind::Worklist);
    for f in 0..p.method_count() {
        let f = CFuncId(f as u32);
        assert_eq!(cs.m_method(f), wl.m_method(f), "M_{}", f.0);
    }
    assert_eq!(cs.o_methods, wl.o_methods);
}

mod condensed_soundness {
    use super::*;
    use fx10::frontend::explore_condensed;
    use fx10::suite::{random_condensed, RandomConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The condensed-form constraint rules (including the if/switch/
        /// return extensions DESIGN.md §6 defines) are sound against the
        /// executable condensed semantics, for CS and CI alike.
        #[test]
        fn condensed_dynamic_mhp_is_subset_of_static(
            seed in 0u64..100_000,
            methods in 1usize..4,
            stmts in 1usize..4,
            depth in 0usize..3,
        ) {
            let p = random_condensed(RandomConfig {
                methods,
                stmts_per_method: stmts,
                max_depth: depth,
                seed,
            });
            let e = explore_condensed(&p, 30_000, 2);
            prop_assert!(e.deadlock_free);
            let cs = analyze_condensed(&p, Mode::ContextSensitive, SolverKind::Worklist);
            let ci = analyze_condensed(
                &p,
                Mode::ContextInsensitive { keep_scross: true },
                SolverKind::Worklist,
            );
            for &(x, y) in &e.mhp {
                prop_assert!(
                    cs.may_happen_in_parallel(x, y),
                    "CS misses dynamic pair ({x:?},{y:?})"
                );
                prop_assert!(ci.may_happen_in_parallel(x, y), "CI misses a pair");
            }
            prop_assert!(cs.mhp().is_subset(ci.mhp()));
        }
    }

    #[test]
    fn benchmark_fragments_are_dynamically_sound() {
        // The full benchmarks are too big to explore; check the smallest.
        let bm = fx10::suite::benchmark("mapreduce").unwrap();
        let e = explore_condensed(&bm.program, 150_000, 2);
        let a = analyze_condensed(&bm.program, Mode::ContextSensitive, SolverKind::Worklist);
        for &(x, y) in &e.mhp {
            assert!(a.may_happen_in_parallel(x, y));
        }
        assert!(e.deadlock_free);
    }
}

#[test]
fn pretty_printed_benchmarks_reparse_with_identical_statistics() {
    for bm in fx10::suite::all_benchmarks() {
        let printed = fx10::frontend::pretty(&bm.program);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("{}: pretty output must reparse: {e}", bm.spec.name));
        assert_eq!(
            reparsed.node_counts(),
            bm.spec.nodes,
            "{}: node counts survive round-trip",
            bm.spec.name
        );
        assert_eq!(reparsed.async_stats(), bm.spec.asyncs, "{}", bm.spec.name);
    }
}
