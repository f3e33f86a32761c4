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

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let print = |body: fn() -> String| {
        println!("{}", body());
        println!("{}", "=".repeat(72));
    };
    match which.as_str() {
        "fig5" => print(fx10_bench::fig5),
        "fig6" => print(fx10_bench::fig6),
        "fig7" => print(fx10_bench::fig7),
        "fig8" => print(fx10_bench::fig8),
        "fig9" => print(fx10_bench::fig9),
        "example22" => print(fx10_bench::example_2_2_report),
        "precision" => print(|| fx10_bench::precision(200)),
        "all" => {
            for f in [
                fx10_bench::fig5 as fn() -> String,
                fx10_bench::example_2_2_report,
                fx10_bench::fig6,
                fx10_bench::fig7,
                fx10_bench::fig8,
                fx10_bench::fig9,
                || fx10_bench::precision(200),
            ] {
                print(f);
            }
        }
        other => {
            eprintln!("unknown figure `{other}`; expected fig5..fig9, example22, precision or all");
            std::process::exit(2);
        }
    }
}
