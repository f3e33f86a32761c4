//! `figures` — prints the paper's evaluation tables.
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|fig9|example22|precision|all]
//! figures bench-explore [OUT.json]     # explorer benchmark report
//! figures bench-absint  [OUT.json]     # abstract-interpreter domain sweep
//! figures bench-shard   [OUT.json]     # multi-process sharded explorer
//! figures bench-run     [OUT.json]     # runtime: elision vs work stealing
//! ```
//!
//! Each `bench-*` report is printed and written to `OUT.json` (default
//! `BENCH_<name>.json`); CI uploads them as artifacts.
//!
//! Run in release mode for meaningful times:
//! `cargo run --release -p fx10-bench --bin figures -- all`

/// Computes a `bench-*` JSON report, prints it, and writes it to the
/// path given as the second argument (default `BENCH_<name>.json`). A
/// report that fails or cannot be written exits 1.
fn write_report(name: &str, report: impl FnOnce() -> Result<String, String>) {
    let out = std::env::args()
        .nth(2)
        .unwrap_or_else(|| format!("BENCH_{name}.json"));
    let json = report().unwrap_or_else(|e| {
        eprintln!("bench-{name} failed: {e}");
        std::process::exit(1);
    });
    print!("{json}");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}

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
        "bench-explore" => write_report("explore", || Ok(fx10_bench::bench_explore_json())),
        "bench-shard" => write_report("shard", fx10_bench::bench_shard_json),
        "bench-run" => write_report("run", || Ok(fx10_bench::bench_run_json())),
        "bench-absint" => write_report("absint", || Ok(fx10_bench::bench_absint_json())),
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
            eprintln!(
                "unknown figure `{other}`; expected fig5..fig9, example22, precision, all, \
                 bench-explore, bench-absint, bench-shard or bench-run"
            );
            std::process::exit(2);
        }
    }
}
