//! `figures` — prints the paper's evaluation tables.
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|fig9|example22|precision|all]
//! ```
//!
//! With no argument it prints `all`. An unknown name exits 2. Only the
//! time and space columns of Figures 8 and 9 vary between runs;
//! `tests/golden/` holds the bytes of the timing-free tables. Timings
//! come from the `benchmark/` package at the repository root.
//!
//! Run in release mode for meaningful Figure 8/9 times:
//! `cargo run --release -p fx10-bench --bin figures -- all`

use std::io::{self, Write};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let figures: Vec<fn() -> String> = match which.as_str() {
        "fig5" => vec![fx10_bench::fig5],
        "fig6" => vec![fx10_bench::fig6],
        "fig7" => vec![fx10_bench::fig7],
        "fig8" => vec![fx10_bench::fig8],
        "fig9" => vec![fx10_bench::fig9],
        "example22" => vec![fx10_bench::example_2_2_report],
        "precision" => vec![|| fx10_bench::precision(200)],
        "all" => vec![
            fx10_bench::fig5,
            fx10_bench::example_2_2_report,
            fx10_bench::fig6,
            fx10_bench::fig7,
            fx10_bench::fig8,
            fx10_bench::fig9,
            || fx10_bench::precision(200),
        ],
        other => {
            eprintln!("unknown figure `{other}`; expected fig5..fig9, example22, precision or all");
            std::process::exit(2);
        }
    };
    let mut out = io::stdout().lock();
    for body in figures {
        let printed = writeln!(out, "{}\n{}", body(), "=".repeat(72)).and_then(|()| out.flush());
        match printed {
            Ok(()) => {}
            // The reader closed the pipe (`figures all | head -1`): it
            // asked for no more, so stop without computing the rest.
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => return,
            Err(e) => {
                eprintln!("figures: <stdout>: {e}");
                std::process::exit(1);
            }
        }
    }
}
