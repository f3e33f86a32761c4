//! Byte goldens for the deterministic output of the `figures` binary.
//!
//! Figures 5, 6 and 7, the §2.2 walkthrough and the precision study
//! print no timings, so their whole stdout is pinned in `tests/golden/`.
//! Figures 8 and 9 carry machine-dependent time and space columns and
//! are pinned elsewhere (`tests/suite_stats.rs` at the repository root
//! checks their passes, evaluations and pairs).
//!
//! To refresh a golden after an intended change:
//! `cargo run --release -p fx10-bench --bin figures -- fig5 > crates/bench/tests/golden/fig5.txt`

use std::process::{Command, Output};

fn figures(arg: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg(arg)
        .output()
        .expect("figures binary runs")
}

#[test]
fn timing_free_figures_match_their_goldens() {
    for name in ["fig5", "fig6", "fig7", "example22", "precision"] {
        let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).expect("golden file exists");
        let out = figures(name);
        assert!(out.status.success(), "figures {name}: {:?}", out.status);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "figures {name} vs {path}"
        );
    }
}

#[test]
fn unknown_figures_exit_2() {
    for name in ["bench-explore", "bench-run", "bench-absint", "fig10"] {
        let out = figures(name);
        assert_eq!(out.status.code(), Some(2), "figures {name}");
        assert!(out.stdout.is_empty(), "figures {name} printed to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.trim_end(),
            format!("unknown figure `{name}`; expected fig5..fig9, example22, precision or all"),
            "figures {name}"
        );
    }
}

#[test]
fn closed_stdout_ends_quietly_with_exit_0() {
    for name in ["all", "fig5"] {
        // The read end is closed before the child starts, so its first
        // write to stdout already meets a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg(name)
            .stdout(writer)
            .output()
            .expect("figures binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.is_empty(), "figures {name}: {err}");
        assert_eq!(out.status.code(), Some(0), "figures {name}");
    }
}
