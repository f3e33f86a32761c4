//! `benchmark` — the repository benchmark's command line.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale full|smoke] [--trace-out SPANS.jsonl]
//! benchmark record --out FILE [--workload NAME|all] [--runs N] [--seed N]
//!           [--seconds S] [--trace 0|1]
//! benchmark compare A.json B.json
//! benchmark lint-pool
//! ```
//!
//! A run prints its metrics by name and unit, then, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. It
//! exits 1 when any job failed.

use fx10_benchmark::json::{obj, Json};
use fx10_benchmark::metrics::{END_TO_END, PER_LAYER};
use fx10_benchmark::run::{self, Options};
use fx10_benchmark::tools::{self, RecordOptions};
use fx10_benchmark::workloads::{Scale, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 \
[--scale full|smoke] [--trace-out FILE]\n       \
benchmark record --out FILE [--workload NAME|all] [--runs N] [--seed N] [--seconds S] \
[--trace 0|1]\n       \
benchmark compare A.json B.json\n       \
benchmark lint-pool\n\
workloads: paper-suite state-space lint-corpus run-disjoint run-racy";

/// `--flag value` pairs; every flag must be in `allowed` and appear once.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if out.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(
    f: &BTreeMap<&str, &str>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    f.get(flag).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("`{flag}` got `{v}`, not a number"))
    })
}

fn trace_flag(f: &BTreeMap<&str, &str>) -> Result<bool, String> {
    match f.get("--trace").copied().unwrap_or("0") {
        "0" => Ok(false),
        "1" => Ok(true),
        v => Err(format!("`--trace` takes 0 or 1, got `{v}`")),
    }
}

fn scale_flag(f: &BTreeMap<&str, &str>) -> Result<Scale, String> {
    match f.get("--scale").copied().unwrap_or("full") {
        "full" => Ok(Scale::Full),
        "smoke" => Ok(Scale::Smoke),
        v => Err(format!("`--scale` takes full or smoke, got `{v}`")),
    }
}

fn seconds_flag(f: &BTreeMap<&str, &str>) -> Result<f64, String> {
    let s: f64 = num(f, "--seconds", 15.0)?;
    if !(0.0..=3600.0).contains(&s) {
        return Err(format!("`--seconds` must be within 0..=3600, got {s}"));
    }
    Ok(s)
}

fn bench(args: &[String]) -> Result<bool, String> {
    let f = flags(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--scale",
            "--trace-out",
        ],
    )?;
    let name = f.get("--workload").ok_or("`--workload` is required")?;
    let opts = Options {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: num(&f, "--seed", 1)?,
        seconds: seconds_flag(&f)?,
        trace: trace_flag(&f)?,
        scale: scale_flag(&f)?,
        trace_out: f.get("--trace-out").map(Into::into),
    };
    let out = run::run(&opts)?;
    for e in out.failures.iter().take(20) {
        eprintln!("FAILED {e}");
    }
    println!(
        "# fx10 benchmark: workload {}, seed {}, {} scale, tracing {}, nproc {}",
        opts.workload.name(),
        opts.seed,
        if opts.scale == Scale::Full {
            "full"
        } else {
            "smoke"
        },
        if opts.trace { "on" } else { "off" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# job-list digest {:016x}", out.digest);
    for n in &out.notes {
        println!("# {n}");
    }
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    assert_eq!(
        out.metrics.len(),
        defs.len(),
        "a run reports every metric of its kind"
    );
    let mut members = Vec::new();
    for ((name, value), def) in out.metrics.iter().zip(defs) {
        assert_eq!(*name, def.name, "metrics are reported in definition order");
        println!("{name:<42} {value:>16.6} {}", def.unit);
        members.push((
            name.to_string(),
            obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        ));
    }
    let result = obj(vec![
        ("correct", Json::Bool(out.failures.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failures.len() as f64)),
        ("metrics", Json::Obj(members)),
    ]);
    println!("{}", result.render());
    Ok(out.failures.is_empty())
}

fn record(args: &[String]) -> Result<bool, String> {
    let f = flags(
        args,
        &[
            "--out",
            "--workload",
            "--runs",
            "--seed",
            "--seconds",
            "--trace",
        ],
    )?;
    let out = f.get("--out").ok_or("`--out` is required")?;
    let wl = f.get("--workload").copied().unwrap_or("all");
    let opts = RecordOptions {
        workloads: tools::workloads_arg(wl).ok_or_else(|| format!("unknown workload `{wl}`"))?,
        runs: num(&f, "--runs", 5)?,
        seed: num(&f, "--seed", 1)?,
        seconds: seconds_flag(&f)?,
        trace: trace_flag(&f)?,
    };
    let doc = tools::record(&opts)?;
    std::fs::write(out, doc.render() + "\n").map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => tools::compare(a, b),
            _ => Err("`compare` takes two record files".into()),
        },
        Some("lint-pool") => flags(&args[1..], &[]).map(|_| {
            print!("{}", tools::lint_pool());
            true
        }),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => bench(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
