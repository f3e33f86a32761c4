//! End-to-end tests of the `fx10` binary on the sample programs in
//! `programs/`, including the exit-code contract of the hardened
//! pipeline:
//!
//! | code | meaning |
//! |------|---------------------------------------------------|
//! | 0    | success, conclusive answer                        |
//! | 1    | analysis error (parse / validation / io / unsound)|
//! | 2    | usage error, or a corrupt / mismatched snapshot   |
//! | 3    | budget exhausted — result partial / inconclusive  |
//! | 4    | cancelled, a worker panicked, or a worker stalled |
//!
//! A reader that closes stdout early does not change the code.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

fn fx10(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fx10"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn parse_pretty_prints() {
    let out = fx10(&["parse", "programs/example22.fx10"]);
    assert!(out.status.success(), "{out:?}");
    let s = stdout(&out);
    assert!(s.contains("2 method(s), 10 instruction(s)"), "{s}");
    assert!(s.contains("def main() {"), "{s}");
}

#[test]
fn run_fork_join_is_deterministic() {
    for sched in ["leftmost", "rightmost", "random:3"] {
        let out = fx10(&["run", "programs/fork_join.fx10", "--sched", sched]);
        assert!(out.status.success());
        let s = stdout(&out);
        assert!(s.contains("completed"), "{s}");
        assert!(s.contains("a = [4, 1]"), "{sched}: {s}");
    }
}

#[test]
fn mhp_reports_pairs_and_categories() {
    let out = fx10(&["mhp", "programs/example22.fx10"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("(S3, S5)"), "{s}");
    assert!(
        !s.contains("(S3, S4)"),
        "CS must not report the false positive: {s}"
    );
    assert!(s.contains("total=2 self=0 same=0 diff=2"), "{s}");
}

#[test]
fn mhp_ci_adds_the_false_positive() {
    let out = fx10(&["mhp", "programs/example22.fx10", "--ci"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("(S3, S4)"), "{s}");
}

#[test]
fn race_finds_the_bug() {
    let out = fx10(&["race", "programs/racey.fx10"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("1 potential race(s)"), "{s}");
    assert!(s.contains("a[0]"), "{s}");
}

#[test]
fn check_passes_with_zero_false_positives() {
    let out = fx10(&["check", "programs/example22.fx10"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("soundness check PASSED"), "{s}");
    assert!(s.contains("zero false positives"), "{s}");
}

#[test]
fn explore_reports_deadlock_freedom() {
    let out = fx10(&["explore", "programs/fork_join.fx10"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("deadlock-free: true"), "{s}");
}

#[test]
fn explore_jobs_values_agree_line_for_line() {
    // Schedule independence end-to-end: every --jobs value prints the
    // same states, pairs and verdicts (only the jobs banner differs).
    let mut reports = Vec::new();
    for jobs in ["1", "2", "8"] {
        let out = fx10(&["explore", "programs/fork_join.fx10", "--jobs", jobs]);
        assert!(out.status.success(), "jobs={jobs}: {out:?}");
        let body: Vec<String> = stdout(&out)
            .lines()
            .filter(|l| !l.starts_with("jobs:"))
            .map(|l| l.to_string())
            .collect();
        reports.push(body);
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]), "{reports:?}");
}

#[test]
fn explore_jobs_with_small_budget_is_inconclusive_exit_3() {
    for jobs in ["1", "2", "8"] {
        let out = fx10(&[
            "explore",
            "programs/example22.fx10",
            "--jobs",
            jobs,
            "--budget-states",
            "2",
        ]);
        assert_eq!(code(&out), 3, "jobs={jobs}");
        let s = stdout(&out);
        assert!(s.contains("truncated: state budget exhausted"), "{s}");
    }
}

#[test]
fn bad_jobs_values_exit_2() {
    assert_eq!(
        code(&fx10(&[
            "explore",
            "programs/fork_join.fx10",
            "--jobs",
            "0"
        ])),
        2
    );
    assert_eq!(
        code(&fx10(&[
            "explore",
            "programs/fork_join.fx10",
            "--jobs",
            "many"
        ])),
        2
    );
}

#[test]
fn x10_frontend_analyzes_stencil() {
    let out = fx10(&["x10", "programs/stencil.x10"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("async-body MHP pairs"), "{s}");
    assert!(s.contains("loop_asyncs: 2"), "{s}");
}

#[test]
fn bench_runs_a_named_benchmark() {
    let out = fx10(&["bench", "mapreduce"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("mapreduce"), "{s}");
    assert!(s.contains("pairs 1/1/0/0"), "{s}");
}

#[test]
fn solver_variants_agree_via_cli() {
    let mut outputs = Vec::new();
    for solver in ["naive", "worklist"] {
        let out = fx10(&["mhp", "programs/example22.fx10", "--solver", solver]);
        assert!(out.status.success(), "{solver}: {out:?}");
        // Compare only the pair lines (timings differ).
        let pairs: Vec<String> = stdout(&out)
            .lines()
            .filter(|l| l.trim_start().starts_with('('))
            .map(|l| l.to_string())
            .collect();
        outputs.push(pairs);
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn places_flag_reports_refinement() {
    let out = fx10(&["x10", "programs/stencil.x10", "--places"]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("places refinement:"), "{s}");
    assert!(s.contains("abstract place(s)"), "{s}");
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("process must exit, not be killed")
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(code(&fx10(&[])), 2);
    assert_eq!(code(&fx10(&["mhp"])), 2);
    assert_eq!(
        code(&fx10(&["mhp", "programs/example22.fx10", "--bogus"])),
        2
    );
    // The flags of the removed socket transport and process fleet are
    // unknown options, and the fleet's worker mode is an unknown command.
    for (flag, value) in [
        ("shards", "2"),
        ("listen", "127.0.0.1:0"),
        ("secret-file", "f"),
        ("reconnects", "1"),
    ] {
        let flag = format!("--{flag}");
        let out = fx10(&["explore", "programs/fork_join.fx10", &flag, value]);
        assert_eq!(code(&out), 2, "{flag}: {out:?}");
        let e = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(e.contains("unknown option"), "{flag}: {e}");
    }
    let out = fx10(&["shard-worker"]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("unknown command"), "{}", stderr(&out));
    assert_eq!(code(&fx10(&["frobnicate", "x"])), 2);
    assert_eq!(
        code(&fx10(&[
            "mhp",
            "programs/example22.fx10",
            "--solver",
            "magic"
        ])),
        2
    );
    assert_eq!(
        code(&fx10(&[
            "mhp",
            "programs/example22.fx10",
            "--budget-iters",
            "nope"
        ])),
        2
    );
    assert_eq!(
        code(&fx10(&[
            "run",
            "programs/fork_join.fx10",
            "--sched",
            "sideways"
        ])),
        2
    );
}

#[test]
fn analysis_errors_exit_1() {
    // Missing file.
    assert_eq!(code(&fx10(&["mhp", "no/such/file.fx10"])), 1);
    // Malformed fixtures: typed parse errors, never a panic.
    for (file, needle) in [
        ("programs/bad_unclosed.fx10", "expected `}`"),
        ("programs/bad_unknown_method.fx10", "unknown method"),
        ("programs/bad_token.fx10", "unexpected character"),
    ] {
        let out = fx10(&["parse", file]);
        assert_eq!(code(&out), 1, "{file}");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(stderr.contains("parse error"), "{file}: {stderr}");
        assert!(stderr.contains(needle), "{file}: {stderr}");
    }
}

/// Oversized numbers and arrays are typed input errors under every
/// command that builds a program: exit 1, never a panic (101) or a failed
/// allocation (134).
#[test]
fn oversized_numbers_and_arrays_are_parse_errors_exit_1() {
    for (i, (src, needle)) in [
        (
            "def main() { a[99999999999999999999] = 1; }",
            "line 1: number too large for a 64-bit signed integer",
        ),
        (
            "def main() { a[0] = 99999999999999999999; }",
            "line 1: number too large for a 64-bit signed integer",
        ),
        (
            "def main() { a[4000000000000] = 1; }",
            "array of 4000000000001 cells is too long (the limit is 65536 cells)",
        ),
        (
            "array[4000000000000];\ndef main() { a[0] = 1; }",
            "array of 4000000000000 cells is too long (the limit is 65536 cells)",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let path = std::env::temp_dir().join(format!(
            "fx10-cli-oversized-{}-{i}.fx10",
            std::process::id()
        ));
        std::fs::write(&path, src).unwrap();
        let file = path.to_str().unwrap();
        for cmd in ["run", "explore", "check", "lint", "absint"] {
            let out = fx10(&[cmd, file]);
            assert_eq!(code(&out), 1, "{cmd} {src:?}: {}", stderr(&out));
            let err = stderr(&out);
            assert!(err.contains("parse error"), "{cmd} {src:?}: {err}");
            assert!(err.contains(needle), "{cmd} {src:?}: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn truncated_check_is_inconclusive_exit_3() {
    let out = fx10(&["check", "programs/fork_join.fx10", "--max-states", "3"]);
    assert_eq!(code(&out), 3);
    let s = stdout(&out);
    assert!(
        s.contains("INCONCLUSIVE (state budget exhausted)"),
        "stdout: {s}"
    );
    // A truncated prefix must not produce unsoundness claims.
    assert!(!s.contains("UNSOUND"), "{s}");
}

#[test]
fn state_budget_flag_truncates_exploration_exit_3() {
    let out = fx10(&["explore", "programs/fork_join.fx10", "--budget-states", "2"]);
    assert_eq!(code(&out), 3);
    let s = stdout(&out);
    assert!(s.contains("truncated: state budget exhausted"), "{s}");
}

#[test]
fn iteration_budget_cuts_analysis_exit_3() {
    let out = fx10(&["mhp", "programs/example22.fx10", "--budget-iters", "5"]);
    assert_eq!(code(&out), 3);
    assert!(stdout(&out).contains("INCONCLUSIVE"));
}

#[test]
fn fallback_ci_reports_the_degradation_path() {
    let out = fx10(&[
        "mhp",
        "programs/example22.fx10",
        "--budget-iters",
        "100",
        "--fallback-ci",
    ]);
    let s = stdout(&out);
    assert!(
        s.contains("context-insensitive over-approximation"),
        "expected the fallback notice, got: {s}"
    );
    // 100 evaluations may also cut the CI baseline on this program, so
    // the degraded answer can still be partial — documented code either
    // way.
    assert!([0, 3].contains(&code(&out)), "exit {}", code(&out));
}

#[test]
fn every_command_survives_a_one_millisecond_deadline() {
    // The acceptance bar for the hardened pipeline: a brutal wall-clock
    // budget may make any command inconclusive (3) or leave it time to
    // finish (0) — it must never panic, hang, or exit off-contract.
    for cmd in ["parse", "run", "explore", "mhp", "race", "check"] {
        for f in [
            "programs/example22.fx10",
            "programs/fork_join.fx10",
            "programs/racey.fx10",
        ] {
            let out = fx10(&[cmd, f, "--timeout-ms", "1"]);
            assert!(
                [0, 3].contains(&code(&out)),
                "{cmd} {f}: exit {} stderr: {}",
                code(&out),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    let out = fx10(&["x10", "programs/stencil.x10", "--timeout-ms", "1"]);
    assert!([0, 3].contains(&code(&out)));
    let out = fx10(&["bench", "stream", "--timeout-ms", "1"]);
    assert!([0, 3].contains(&code(&out)));
}

/// The removed SCC solvers are unknown values, not silent aliases.
#[test]
fn removed_solvers_are_unknown_values() {
    for solver in ["scc", "scc-par"] {
        let out = fx10(&["mhp", "programs/example22.fx10", "--solver", solver]);
        assert_eq!(code(&out), 2, "{solver}: {out:?}");
        let e = stderr(&out);
        assert!(e.contains(&format!("unknown solver `{solver}`")), "{e}");
    }
}

#[test]
fn solver_choices_all_respect_budgets() {
    for solver in ["naive", "worklist"] {
        let out = fx10(&[
            "mhp",
            "programs/example22.fx10",
            "--solver",
            solver,
            "--budget-iters",
            "3",
        ]);
        assert_eq!(code(&out), 3, "{solver}");
        let ok = fx10(&["mhp", "programs/example22.fx10", "--solver", solver]);
        assert_eq!(code(&ok), 0, "{solver}");
    }
}

// ---------------------------------------------------------------------------
// Durable checkpoints, snapshot validation, watchdog and ladder (e2e)
// ---------------------------------------------------------------------------

fn fx10_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fx10"));
    cmd.current_dir(repo_root()).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_snap(tag: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("fx10-cli-{tag}-{}-{n}.fxsnap", std::process::id()))
        .display()
        .to_string()
}

/// Every corrupt-snapshot fixture is rejected before any exploration
/// happens: exit 2 and a typed message naming the defect.
#[test]
fn corrupt_snapshot_fixtures_are_rejected_exit_2() {
    for (fixture, needle) in [
        ("programs/snap_truncated.fxsnap", "truncated"),
        ("programs/snap_bad_magic.fxsnap", "bad magic"),
        (
            "programs/snap_bad_version.fxsnap",
            "unsupported snapshot version 99",
        ),
        ("programs/snap_bad_checksum.fxsnap", "checksum mismatch"),
    ] {
        let out = fx10(&["explore", "programs/example22.fx10", "--resume", fixture]);
        assert_eq!(code(&out), 2, "{fixture}: {out:?}");
        let e = stderr(&out);
        assert!(e.contains(needle), "{fixture}: expected `{needle}` in {e}");
    }
    // A structurally valid snapshot of the *wrong program* is rejected by
    // its fingerprint, same exit code.
    let out = fx10(&[
        "explore",
        "programs/fork_join.fx10",
        "--resume",
        "programs/snap_example22.fxsnap",
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(stderr(&out).contains("fingerprint"), "{}", stderr(&out));
    // A missing snapshot file is an I/O error, not a usage error.
    assert_eq!(
        code(&fx10(&[
            "explore",
            "programs/example22.fx10",
            "--resume",
            "no/such.fxsnap"
        ])),
        1
    );
}

/// A format-version-1 snapshot (with its statement section and tree tag
/// 1 = statement id) is refused by version, never decoded as the
/// current `(label, tail)` layout.
#[test]
fn version_1_snapshots_are_rejected_exit_2() {
    let mut bytes = std::fs::read(repo_root().join("programs/snap_example22.fxsnap")).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let path = temp_snap("v1");
    std::fs::write(&path, bytes).unwrap();
    let out = fx10(&["explore", "programs/example22.fx10", "--resume", &path]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("unsupported snapshot version 1"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(&path).unwrap();
}

/// The checked-in valid snapshot resumes cleanly and reproduces the
/// from-scratch exploration line for line.
#[test]
fn valid_snapshot_fixture_resumes_to_the_reference_answer() {
    let fresh = fx10(&["explore", "programs/example22.fx10"]);
    assert_eq!(code(&fresh), 0);
    let resumed = fx10(&[
        "explore",
        "programs/example22.fx10",
        "--resume",
        "programs/snap_example22.fxsnap",
    ]);
    assert_eq!(code(&resumed), 0, "{resumed:?}");
    assert!(stderr(&resumed).contains("resuming from"), "{resumed:?}");
    assert_eq!(stdout(&resumed), stdout(&fresh));
}

/// Every value-taking flag rejects both a missing value and a garbage
/// value with exit 2 (and the usage text on stderr) — nothing is
/// silently defaulted.
#[test]
fn value_flags_reject_missing_and_garbage_values_exit_2() {
    let cases: &[(&[&str], &str)] = &[
        (&["run", "programs/fork_join.fx10", "--sched"], "sideways"),
        (&["run", "programs/fork_join.fx10", "--steps"], "lots"),
        (&["run", "programs/fork_join.fx10", "--input"], "1,x"),
        (
            &["explore", "programs/fork_join.fx10", "--max-states"],
            "big",
        ),
        (&["explore", "programs/fork_join.fx10", "--jobs"], "many"),
        (
            &["explore", "programs/fork_join.fx10", "--checkpoint-every"],
            "often",
        ),
        (&["mhp", "programs/example22.fx10", "--solver"], "magic"),
        (
            &["mhp", "programs/example22.fx10", "--budget-states"],
            "nope",
        ),
        (
            &["mhp", "programs/example22.fx10", "--budget-iters"],
            "nope",
        ),
        (&["mhp", "programs/example22.fx10", "--timeout-ms"], "soon"),
    ];
    for (prefix, garbage) in cases {
        let flag = prefix.last().unwrap();
        // Missing value: the flag is the final token.
        let out = fx10(prefix);
        assert_eq!(code(&out), 2, "{flag} with no value: {out:?}");
        assert!(stderr(&out).contains("usage"), "{flag}: {}", stderr(&out));
        // Garbage value.
        let mut argv: Vec<&str> = prefix.to_vec();
        argv.push(garbage);
        let out = fx10(&argv);
        assert_eq!(code(&out), 2, "{flag} {garbage}: {out:?}");
        assert!(stderr(&out).contains("usage"), "{flag}: {}", stderr(&out));
    }
    // --checkpoint and --resume take paths: only the missing-value form
    // is a usage error.
    for flag in ["--checkpoint", "--resume"] {
        let out = fx10(&["explore", "programs/fork_join.fx10", flag]);
        assert_eq!(code(&out), 2, "{flag} with no value: {out:?}");
    }
    // --checkpoint-every 0 would mean "never checkpoint": rejected.
    let ck = temp_snap("every0");
    let out = fx10(&[
        "explore",
        "programs/fork_join.fx10",
        "--checkpoint",
        &ck,
        "--checkpoint-every",
        "0",
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
}

/// A flag that exists but does not apply to the subcommand is reported,
/// not silently ignored.
#[test]
fn known_flag_on_the_wrong_subcommand_exits_2() {
    let cases: &[&[&str]] = &[
        &["mhp", "programs/example22.fx10", "--jobs", "2"],
        &["explore", "programs/fork_join.fx10", "--sched", "leftmost"],
        &["explore", "programs/fork_join.fx10", "--ladder"],
        &["explore", "programs/fork_join.fx10", "--ci"],
        &["run", "programs/fork_join.fx10", "--solver", "worklist"],
        &["race", "programs/racey.fx10", "--places"],
        &["check", "programs/example22.fx10", "--fallback-ci"],
        &[
            "check",
            "programs/example22.fx10",
            "--checkpoint",
            "x.fxsnap",
        ],
    ];
    for argv in cases {
        let out = fx10(argv);
        assert_eq!(code(&out), 2, "{argv:?}: {out:?}");
        let e = stderr(&out);
        assert!(e.contains("is not valid for"), "{argv:?}: {e}");
    }
    // --checkpoint-every without --checkpoint is contradictory, same code.
    let out = fx10(&[
        "explore",
        "programs/fork_join.fx10",
        "--checkpoint-every",
        "5",
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    assert!(
        stderr(&out).contains("requires --checkpoint"),
        "{}",
        stderr(&out)
    );
}

/// Kill-and-resume end-to-end: a run killed at its first durable
/// checkpoint exits 4; resuming the snapshot finishes with exit 0 and
/// byte-identical stdout to an uninterrupted run.
#[test]
fn kill_at_checkpoint_then_resume_matches_the_reference_run() {
    let ck = temp_snap("kill-resume");
    let killed = fx10_env(
        &[
            "explore",
            "programs/fork_join.fx10",
            "--jobs",
            "2",
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "7",
        ],
        &[("FX10_KILL_AT_CHECKPOINT", "1")],
    );
    assert_eq!(code(&killed), 4, "{killed:?}");
    let resumed = fx10(&[
        "explore",
        "programs/fork_join.fx10",
        "--jobs",
        "2",
        "--resume",
        &ck,
    ]);
    assert_eq!(code(&resumed), 0, "{resumed:?}");
    let reference = fx10(&["explore", "programs/fork_join.fx10", "--jobs", "2"]);
    assert_eq!(code(&reference), 0);
    assert_eq!(stdout(&resumed), stdout(&reference));
    let _ = std::fs::remove_file(&ck);
}

/// The resume-under-changed-budget matrix. The snapshot fingerprint
/// deliberately excludes `--max-states`, so a truncated run's
/// checkpoint resumes under any budget: a smaller or equal budget stays
/// inconclusive (exit 3), a larger budget completes the exploration
/// (exit 0) and reproduces the uninterrupted reference answer.
#[test]
fn resume_under_changed_budget_matrix() {
    const WIDE: &str = "programs/chaos_wide.fx10";
    let ck = temp_snap("budget-matrix");
    let truncated = fx10(&[
        "explore",
        WIDE,
        "--max-states",
        "5000",
        "--checkpoint",
        &ck,
        "--checkpoint-every",
        "1000",
    ]);
    assert_eq!(code(&truncated), 3, "{truncated:?}");
    assert!(
        stderr(&truncated).contains("inconclusive: state budget exhausted"),
        "{truncated:?}"
    );

    // Smaller and equal budgets: still inconclusive, same exit code.
    for budget in ["3000", "5000"] {
        let out = fx10(&["explore", WIDE, "--max-states", budget, "--resume", &ck]);
        assert_eq!(code(&out), 3, "budget {budget}: {out:?}");
        assert!(
            stderr(&out).contains("inconclusive: state budget exhausted"),
            "budget {budget}: {out:?}"
        );
        assert!(stderr(&out).contains("resuming from"), "{out:?}");
    }

    // A larger budget finishes the job and matches the reference.
    let resumed = fx10(&["explore", WIDE, "--resume", &ck]);
    assert_eq!(code(&resumed), 0, "{resumed:?}");
    let reference = fx10(&["explore", WIDE]);
    assert_eq!(code(&reference), 0);
    assert_eq!(stdout(&resumed), stdout(&reference));
    let _ = std::fs::remove_file(&ck);
}

/// Chaos hooks only make sense on commands that explore; on anything
/// else a set hook is a usage error, not a silent no-op — a fault you
/// planned must never be silently skipped.
#[test]
fn chaos_hooks_are_rejected_on_non_exploring_commands() {
    for var in [
        "FX10_KILL_AT_CHECKPOINT",
        "FX10_WEDGE_WORKER",
        "FX10_STALL_MS",
    ] {
        for cmd in ["parse", "mhp", "lint"] {
            let out = fx10_env(&[cmd, "programs/example22.fx10"], &[(var, "1")]);
            assert_eq!(code(&out), 2, "{var} on {cmd}: {out:?}");
            let e = stderr(&out);
            assert!(
                e.contains(var) && e.contains("commands that explore"),
                "{var} on {cmd}: {e}"
            );
        }
    }
}

/// Garbage in the chaos-hook environment variables is a usage error —
/// a typo must not silently disable the planned fault.
#[test]
fn malformed_chaos_env_hooks_exit_2() {
    for (key, val) in [
        ("FX10_KILL_AT_CHECKPOINT", "zero"),
        ("FX10_KILL_AT_CHECKPOINT", "0"),
        ("FX10_WEDGE_WORKER", "first"),
        ("FX10_WEDGE_WORKER", "1:lots"),
        ("FX10_STALL_MS", "0"),
        ("FX10_STALL_MS", "forever"),
    ] {
        let out = fx10_env(&["explore", "programs/fork_join.fx10"], &[(key, val)]);
        assert_eq!(code(&out), 2, "{key}={val}: {out:?}");
        assert!(stderr(&out).contains(key), "{key}: {}", stderr(&out));
    }
}

/// A wedged worker under `check --ladder` descends to the sequential
/// rung, reports the rung it answered on, and still proves soundness.
#[test]
fn ladder_reports_the_answering_rung_under_a_wedge() {
    let out = fx10_env(
        &[
            "check",
            "programs/example22.fx10",
            "--ladder",
            "--jobs",
            "2",
        ],
        &[("FX10_WEDGE_WORKER", "0"), ("FX10_STALL_MS", "200")],
    );
    assert_eq!(code(&out), 0, "{out:?}");
    let s = stdout(&out);
    assert!(
        s.contains("ladder: answered on rung sequential-explore"),
        "{s}"
    );
    assert!(s.contains("stalled"), "the descent must be traced: {s}");
    assert!(s.contains("soundness check PASSED"), "{s}");
}

/// A wedged worker on a plain (non-ladder) run surfaces as the typed
/// stall with exit 4.
#[test]
fn wedged_worker_without_the_ladder_exits_4() {
    let out = fx10_env(
        &["explore", "programs/fork_join.fx10", "--jobs", "2"],
        &[("FX10_WEDGE_WORKER", "0"), ("FX10_STALL_MS", "200")],
    );
    assert_eq!(code(&out), 4, "{out:?}");
    assert!(stderr(&out).contains("stalled"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------------
// The real runtime: `fx10 run --jobs/--schedule-seed/--grain/--elide`
// ---------------------------------------------------------------------------

/// Drops the engine-identifying `runtime:` banner so parallel and serial
/// outputs can be compared byte-for-byte — the CLI face of the
/// sequential-elision oracle.
fn sans_banner(out: &Output) -> String {
    stdout(out)
        .lines()
        .filter(|l| !l.starts_with("runtime:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// On a race-free fixture every parallel schedule prints exactly what the
/// serial elision prints (modulo the banner), across jobs and seeds.
#[test]
fn run_parallel_output_matches_elision_on_race_free_fixture() {
    let serial = fx10(&["run", "programs/rt_fanout.fx10", "--elide"]);
    assert_eq!(code(&serial), 0, "{serial:?}");
    let reference = sans_banner(&serial);
    assert!(reference.contains("races: none"), "{reference}");
    for jobs in ["1", "2", "8"] {
        for seed in ["0", "7", "13"] {
            let out = fx10(&[
                "run",
                "programs/rt_fanout.fx10",
                "--jobs",
                jobs,
                "--schedule-seed",
                seed,
            ]);
            assert_eq!(code(&out), 0, "jobs={jobs} seed={seed}: {out:?}");
            assert_eq!(
                sans_banner(&out),
                reference,
                "jobs={jobs} seed={seed} diverged from elision"
            );
        }
    }
    // Granularity control changes scheduling, never results.
    let out = fx10(&[
        "run",
        "programs/rt_fanout.fx10",
        "--jobs",
        "4",
        "--grain",
        "8",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert_eq!(sans_banner(&out), reference, "--grain diverged");
}

/// The dynamic detector reports the planted pairs on the racy fixture —
/// on real parallel runs and under instrumented elision alike.
#[test]
fn run_reports_detected_races_on_the_racy_fixture() {
    for argv in [
        &[
            "run",
            "programs/rt_racy.fx10",
            "--jobs",
            "4",
            "--schedule-seed",
            "2",
        ][..],
        &["run", "programs/rt_racy.fx10", "--elide"][..],
    ] {
        let out = fx10(argv);
        assert_eq!(code(&out), 0, "{argv:?}: {out:?}");
        let s = stdout(&out);
        assert!(
            s.contains("races: 2 race(s) on 2 label pair(s):"),
            "{argv:?}: {s}"
        );
        assert!(s.contains("(W1, W2) on a[0]"), "{argv:?}: {s}");
        assert!(s.contains("(W3, R1) on a[1]"), "{argv:?}: {s}");
    }
}

/// One label pair racing on two cells is two races on one pair: the
/// header counts `(pair, cell)` entries and distinct pairs separately.
#[test]
fn run_counts_races_and_label_pairs_separately() {
    let path = std::env::temp_dir().join(format!("fx10-cli-two-cells-{}.fx10", std::process::id()));
    std::fs::write(
        &path,
        "def main() { async { a[0] = a[1] + 1; } a[1] = a[0] + 1; }\n",
    )
    .unwrap();
    let file = path.display().to_string();
    for argv in [
        &["run", &file, "--jobs", "2"][..],
        &["run", &file, "--elide"][..],
    ] {
        let out = fx10(argv);
        assert_eq!(code(&out), 0, "{argv:?}: {out:?}");
        let s = stdout(&out);
        assert!(
            s.contains(
                "races: 2 race(s) on 1 label pair(s):\n  (L1, L2) on a[0]\n  (L1, L2) on a[1]\n"
            ),
            "{argv:?}: {s}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// Unbounded recursion is a budget trip (exit 3) in every `run` mode,
/// never a stack-overflow abort.
#[test]
fn unbounded_recursion_exits_3_in_every_run_mode() {
    for (i, src) in [
        "def f() { f(); } def main() { f(); }",
        "def f() { finish { f(); } } def main() { f(); }",
    ]
    .into_iter()
    .enumerate()
    {
        let path = std::env::temp_dir().join(format!(
            "fx10-cli-recursion-{i}-{}.fx10",
            std::process::id()
        ));
        std::fs::write(&path, src).unwrap();
        let file = path.display().to_string();
        for argv in [
            &["run", &file][..],
            &["run", &file, "--sched", "random:3"][..],
            &["run", &file, "--elide"][..],
            &["run", &file, "--jobs", "1"][..],
            &["run", &file, "--jobs", "2"][..],
        ] {
            let out = fx10(argv);
            assert_eq!(code(&out), 3, "{src} {argv:?}: {out:?}");
            assert!(
                stdout(&out).contains(" exhausted after "),
                "{argv:?}: {out:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// Non-tail recursion grows the running statement by one instruction per
/// call. Exploring it hits the default 200,000-state cap (exit 3,
/// truncated) in well under a second: a call step conses the callee's
/// labels onto the shared tail, so no step copies the statement.
#[test]
fn growing_statement_recursion_explores_to_the_state_cap_exit_3() {
    let file = "programs/rec_tail_growth.fx10";
    for argv in [
        &["explore", file, "--jobs", "1"][..],
        &["explore", file, "--jobs", "2"][..],
        &["check", file][..],
    ] {
        let out = fx10(argv);
        assert_eq!(code(&out), 3, "{argv:?}: {out:?}");
        let s = stdout(&out);
        assert!(
            s.contains("200000 state(s)") || s.contains("(200000 states, truncated)"),
            "{argv:?}: {s}"
        );
        assert!(s.contains("state budget exhausted"), "{argv:?}: {s}");
    }
}

/// The new runtime flags obey the same audit contract as every other
/// flag: valid on `run`, rejected with exit 2 anywhere else, and
/// mutually exclusive combinations are usage errors, not silent picks.
#[test]
fn runtime_flags_pass_the_allowed_flags_audit() {
    // Valid rows.
    for argv in [
        &["run", "programs/rt_fanout.fx10", "--jobs", "2"][..],
        &["run", "programs/rt_fanout.fx10", "--schedule-seed", "5"][..],
        &["run", "programs/rt_fanout.fx10", "--grain", "4"][..],
        &["run", "programs/rt_fanout.fx10", "--elide"][..],
    ] {
        let out = fx10(argv);
        assert_eq!(code(&out), 0, "{argv:?}: {out:?}");
    }
    // Wrong subcommand.
    for argv in [
        &["explore", "programs/fork_join.fx10", "--schedule-seed", "1"][..],
        &["mhp", "programs/example22.fx10", "--grain", "1"][..],
        &["explore", "programs/fork_join.fx10", "--elide"][..],
    ] {
        let out = fx10(argv);
        assert_eq!(code(&out), 2, "{argv:?}: {out:?}");
        assert!(stderr(&out).contains("is not valid for"), "{argv:?}");
    }
    // Conflicting engines.
    for argv in [
        &[
            "run",
            "programs/fork_join.fx10",
            "--sched",
            "leftmost",
            "--jobs",
            "2",
        ][..],
        &[
            "run",
            "programs/fork_join.fx10",
            "--sched",
            "leftmost",
            "--elide",
        ][..],
        &["run", "programs/fork_join.fx10", "--elide", "--jobs", "2"][..],
        &[
            "run",
            "programs/fork_join.fx10",
            "--elide",
            "--schedule-seed",
            "1",
        ][..],
    ] {
        let out = fx10(argv);
        assert_eq!(code(&out), 2, "{argv:?}: {out:?}");
        assert!(
            stderr(&out).contains("conflicts"),
            "{argv:?}: {}",
            stderr(&out)
        );
    }
    // Garbage and missing values.
    for argv in [
        &["run", "programs/fork_join.fx10", "--schedule-seed", "abc"][..],
        &["run", "programs/fork_join.fx10", "--schedule-seed"][..],
        &["run", "programs/fork_join.fx10", "--grain", "many"][..],
        &["run", "programs/fork_join.fx10", "--grain"][..],
    ] {
        let out = fx10(argv);
        assert_eq!(code(&out), 2, "{argv:?}: {out:?}");
        assert!(stderr(&out).contains("usage"), "{argv:?}");
    }
}

/// The three chaos env hooks' exit-2 contract covers `fx10 run` in all
/// three engine modes: a fault the runtime cannot honor must never be
/// silently ignored.
#[test]
fn chaos_env_hooks_are_rejected_on_run() {
    for hook in [
        "FX10_KILL_AT_CHECKPOINT",
        "FX10_WEDGE_WORKER",
        "FX10_STALL_MS",
    ] {
        for argv in [
            &["run", "programs/fork_join.fx10"][..],
            &["run", "programs/fork_join.fx10", "--jobs", "2"][..],
            &["run", "programs/fork_join.fx10", "--elide"][..],
        ] {
            let out = fx10_env(argv, &[(hook, "1")]);
            assert_eq!(code(&out), 2, "{hook} on {argv:?}: {out:?}");
            assert!(stderr(&out).contains(hook), "{hook}: {}", stderr(&out));
        }
    }
}

/// A reader that closes the pipe before the report is printed (`fx10 … |
/// head -1`) ends the report quietly: no panic, and the exit code the
/// run would have returned anyway.
#[test]
fn closed_stdout_keeps_the_exit_code_and_does_not_panic() {
    let cases: [(&[&str], i32); 2] = [
        (&["explore", "programs/chaos_wide.fx10", "--jobs", "1"], 0),
        (
            &["explore", "programs/example22.fx10", "--budget-states", "2"],
            3,
        ),
    ];
    for (args, expected) in cases {
        // The read end is closed before the child starts, so its first
        // write to stdout already meets a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_fx10"))
            .current_dir(repo_root())
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(code(&out), expected, "{args:?}: {err}");
    }
}
