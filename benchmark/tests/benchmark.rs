//! Smoke test of the benchmark: every workload at `--scale smoke`, the
//! metric list against `BENCHMARK.json`, seeded job lists, and the two
//! traced compositions against the library calls they stand in for.
//!
//! Run with `cargo test --manifest-path benchmark/Cargo.toml` (add
//! `--release` for speed).

use fx10_benchmark::json::{self, Json};
use fx10_benchmark::layers::{cs_by_stages, lint_traced, witness_outcomes, PROBE_LINT_SEEDS};
use fx10_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use fx10_benchmark::trace::Tracer;
use fx10_benchmark::workloads::{self, lint_corpus, lint_program, WORKLOADS};
use fx10_robust::{Budget, CancelToken};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).expect("valid JSON")
}

/// Runs the benchmark binary; returns stdout and the parsed last line.
fn bench(args: &[&str]) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    (
        stdout.clone(),
        json::parse(last).expect("last line is JSON"),
    )
}

fn smoke(workload: &str, seed: &str, trace: &str) -> (String, Json) {
    bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "smoke",
    ])
}

fn assert_reports(result: &Json, defs: &[MetricDef]) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{result:?}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").expect("metrics");
    let names: Vec<&str> = metrics.members().iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    for d in defs {
        let m = metrics.get(d.name).unwrap();
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{} = {v:?}", d.name);
    }
}

#[test]
fn benchmark_json_matches_the_metric_definitions() {
    let b = benchmark_json();
    let check = |key: &str, defs: &[MetricDef]| {
        let listed = b.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, d) in listed.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name()));
    // setup_s carries the largest bound, as the benchmark contract asks.
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .unwrap()
        .bound;
    assert!(END_TO_END.iter().all(|d| d.bound <= setup));
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        let (stdout, result) = smoke(w.name(), "1", "0");
        assert_reports(&result, END_TO_END);
        for d in END_TO_END {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(d.name) && l.ends_with(d.unit)),
                "{} not printed with its unit:\n{stdout}",
                d.name
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    // Between them these two reach every comparison call: paper-suite's
    // probe explores, lints and runs; state-space explores itself.
    for w in ["paper-suite", "state-space"] {
        let (_, result) = smoke(w, "1", "1");
        assert_reports(&result, PER_LAYER);
    }
}

#[test]
fn job_lists_follow_the_seed() {
    let digest = |seed| {
        let (stdout, _) = smoke("lint-corpus", seed, "0");
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("# job-list digest "))
            .expect("digest line")
            .to_string()
    };
    assert_eq!(digest("1"), digest("1"));
    assert_ne!(digest("1"), digest("2"));
    assert_ne!(lint_corpus(1, 300), lint_corpus(2, 300));
}

#[test]
fn stage_composed_cs_analysis_equals_analyze() {
    let mut tr = Tracer::new(true);
    for g in lint_corpus(5, 40) {
        let p = lint_program(g);
        assert_eq!(
            &cs_by_stages(&p, &mut tr),
            fx10_core::analyze(&p).mhp(),
            "program {g}"
        );
    }
    assert!(tr.spans.iter().any(|s| s.name == "core.solve_level2"));
}

#[test]
fn traced_lint_composition_equals_lint() {
    let opts = fx10_lints::LintOptions::default();
    let cancel = CancelToken::new();
    let mut tr = Tracer::new(true);
    let mut outcomes = [0.0; 3];
    for g in lint_corpus(7, 40).into_iter().chain(PROBE_LINT_SEEDS) {
        let p = lint_program(g);
        let traced = lint_traced(&p, &opts, &cancel, &mut tr).unwrap();
        assert_eq!(
            traced,
            fx10_lints::lint(&p, &opts, &cancel).unwrap(),
            "program {g}"
        );
        if PROBE_LINT_SEEDS.contains(&g) {
            for (o, w) in outcomes.iter_mut().zip(witness_outcomes(&traced)) {
                *o += w;
            }
        }
    }
    // The probe's lint programs confirm, refute and run out of budget.
    assert!(outcomes.iter().all(|&o| o > 0.0), "{outcomes:?}");
}

#[test]
fn fanout_rows_match_the_cloned_reference_explorer() {
    for (name, w) in [("fanout5", 5), ("fanout6", 6), ("fanout7", 7)] {
        let case = workloads::explore_case(name, workloads::fanout(w)).unwrap();
        let workloads::Check::Space {
            states,
            terminals,
            cs,
        } = &case.check
        else {
            unreachable!()
        };
        let p = fx10_syntax::Program::parse(&case.source).unwrap();
        let config = fx10_semantics::ExploreConfig {
            max_states: workloads::EXPLORE_MAX_STATES,
            ..Default::default()
        };
        let e = fx10_semantics::explore_budgeted(
            &p,
            &[],
            config,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        workloads::check_space(&e, *states, *terminals, cs).unwrap();
    }
}

#[test]
fn compare_counts_more_failed_jobs_as_a_regression() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let record = |name: &str, failed: u32| {
        let run = format!(
            r#"{{"workload": "run-racy", "seed": 1, "result": {{"correct": {}, "attempted": 100, "failed": {failed}, "metrics": {{"jobs_per_s": {{"value": 10.0, "unit": "1/s"}}}}}}}}"#,
            failed == 0
        );
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(r#"{{"meta": {{}}, "runs": [{run}, {run}]}}"#),
        )
        .unwrap();
        path
    };
    let (clean, failing) = (record("clean.json", 0), record("failing.json", 3));
    let compare = |a: &std::path::Path, b: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .arg("compare")
            .args([a, b])
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };
    let (code, stdout) = compare(&clean, &failing);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("6 / 200"), "{stdout}");
    assert_eq!(compare(&failing, &clean).0, Some(0));
}

#[test]
fn command_line_rejects_bad_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper-suite", "--trace", "2"],
        &["--workload", "paper-suite", "--bogus", "1"],
        &["--seed", "1"],
        &["lint-pool", "--count", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
