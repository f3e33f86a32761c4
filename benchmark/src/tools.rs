//! The helper subcommands: `record` (many runs, each in a fresh child
//! process, into one file), `compare` (two such files, metric by metric
//! against the bounds) and `lint-pool` (ranks the lint pool by cost).

use crate::json::{self, obj, Json};
use crate::metrics::{self, Better};
use crate::workloads::{lint_program, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct RecordOptions {
    pub workloads: Vec<Workload>,
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_default()
}

/// Runs every (run, workload) pair in its own child process, one at a
/// time, and returns the record file's JSON. Workloads interleave, so
/// slow drift in the host's speed spreads over all of them.
pub fn record(opts: &RecordOptions) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for r in 0..opts.runs {
        for w in &opts.workloads {
            let args = [
                "--workload".to_string(),
                w.name().to_string(),
                "--seed".into(),
                opts.seed.to_string(),
                "--seconds".into(),
                opts.seconds.to_string(),
                "--trace".into(),
                if opts.trace { "1" } else { "0" }.into(),
            ];
            let t = Instant::now();
            let out = Command::new(&exe)
                .args(&args)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!("{} run {r} exited with {}", w.name(), out.status));
            }
            let last = stdout.lines().last().unwrap_or_default();
            let result = json::parse(last).map_err(|e| format!("{} run {r}: {e}", w.name()))?;
            // A run with failed jobs exits 1 above; this guards the file
            // against a result line that disagrees with the exit status.
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{} run {r} reports failed jobs", w.name()));
            }
            eprintln!(
                "record: {} run {} of {} done in {:.1} s",
                w.name(),
                r + 1,
                opts.runs,
                t.elapsed().as_secs_f64()
            );
            runs.push(obj(vec![
                ("workload", Json::Str(w.name().to_string())),
                ("seed", Json::Num(opts.seed as f64)),
                ("result", result),
            ]));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(obj(vec![
        (
            "meta",
            obj(vec![
                ("rustc", Json::Str(command_output("rustc", &["--version"]))),
                ("cpu", Json::Str(cpu_model())),
                ("nproc", Json::Num(nproc as f64)),
                ("seed", Json::Num(opts.seed as f64)),
                ("seconds", Json::Num(opts.seconds)),
                ("trace", Json::Bool(opts.trace)),
                ("runs_per_workload", Json::Num(opts.runs as f64)),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]))
}

/// One workload's runs in a record file: each metric's values, and the
/// jobs attempted and failed over all runs.
#[derive(Default)]
struct Recorded {
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

/// workload → its runs, from a record file.
fn load(path: &str) -> Result<BTreeMap<String, Recorded>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Recorded> = BTreeMap::new();
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    for run in runs {
        let w = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let result = run.get("result");
        let field = |k: &str| result.and_then(|r| r.get(k)).and_then(Json::as_f64);
        let rec = out.entry(w.to_string()).or_default();
        rec.attempted += field("attempted").unwrap_or(0.0);
        rec.failed += field("failed").unwrap_or(0.0);
        let metrics = result.and_then(|r| r.get("metrics"));
        for (name, m) in metrics.map(Json::members).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                rec.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Prints, for each (workload, metric) in both files, each side's median
/// and quartiles, the change of the median as a share of A's, and a
/// verdict against the metric's bound; first, per workload, each side's
/// failed jobs. Returns false if any pair regressed or B failed more jobs
/// than A on a workload.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<13} {:>24} {:>24}  verdict",
        "workload", "A failed / attempted", "B failed / attempted"
    );
    let mut ok = true;
    for (w, ar) in &a {
        let Some(br) = b.get(w) else { continue };
        let verdict = if br.failed > ar.failed {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{w:<13} {:>24} {:>24}  {verdict}",
            format!("{} / {}", ar.failed, ar.attempted),
            format!("{} / {}", br.failed, br.attempted),
        );
    }
    println!();
    println!(
        "{:<13} {:<40} {:>24} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for (w, ar) in &a {
        let Some(br) = b.get(w) else { continue };
        for (name, av) in &ar.metrics {
            let Some(bv) = br.metrics.get(name) else {
                continue;
            };
            let def = metrics::def(name);
            let (am_, bm_) = (metrics::median(av), metrics::median(bv));
            let (aq, bq) = (metrics::quartiles(av), metrics::quartiles(bv));
            let change = (bm_ - am_) / am_;
            let worse = match def.map(|d| d.better) {
                Some(Better::Higher) => -change,
                _ => change,
            };
            let spread = |m: f64, q: (f64, f64)| (q.1 - q.0) / m;
            let verdict = match def.and_then(|d| d.bound) {
                None => "info".to_string(),
                Some(bound) => {
                    let b_wins = match def.map(|d| d.better) {
                        Some(Better::Higher) => bv.iter().all(|x| av.iter().all(|y| x > y)),
                        _ => bv.iter().all(|x| av.iter().all(|y| x < y)),
                    };
                    if spread(am_, aq) > bound || spread(bm_, bq) > bound {
                        if b_wins { "better" } else { "unresolved" }.to_string()
                    } else if worse > bound {
                        ok = false;
                        "REGRESSION".to_string()
                    } else {
                        "ok".to_string()
                    }
                }
            };
            let bound = def
                .and_then(|d| d.bound)
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{:<13} {:<40} {:>24} {:>24} {:>7.1}% {:>6}  {verdict}",
                w,
                name,
                format!("{am_:.4} [{:.4}, {:.4}]", aq.0, aq.1),
                format!("{bm_:.4} [{:.4}, {:.4}]", bq.0, bq.1),
                change * 100.0,
                bound
            );
        }
    }
    Ok(ok)
}

/// Programs in the lint pool: generator seeds `0..POOL_SIZE`.
const POOL_SIZE: u64 = 2400;

/// Lints every pool program three times, ranks them by median lint time
/// and returns the ranking, cheapest first — the text of
/// `expected/lint_pool.txt`. The ranking only orders the pool into cost
/// strata; the benchmark never reads the times.
pub fn lint_pool() -> String {
    let cancel = fx10_robust::CancelToken::new();
    let opts = fx10_lints::LintOptions::default();
    let mut ranked: Vec<(f64, u64)> = (0..POOL_SIZE)
        .map(|g| {
            let p = lint_program(g);
            let mut t: Vec<f64> = (0..3)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(fx10_lints::lint(&p, &opts, &cancel).ok());
                    start.elapsed().as_secs_f64()
                })
                .collect();
            t.sort_by(f64::total_cmp);
            (t[1], g)
        })
        .collect();
    ranked.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut out = format!(
        "# Lint pool: generator seeds of `workloads::lint_program`, cheapest lint first.\n\
         # Made by `benchmark lint-pool`: programs 0..{POOL_SIZE} ranked by median-of-3\n\
         # `fx10_lints::lint` time.\n"
    );
    for (_, g) in ranked {
        out.push_str(&g.to_string());
        out.push('\n');
    }
    out
}

/// Parses a `--workload` value: one name or `all`.
pub fn workloads_arg(value: &str) -> Option<Vec<Workload>> {
    if value == "all" {
        Some(WORKLOADS.to_vec())
    } else {
        Workload::parse(value).map(|w| vec![w])
    }
}
