//! One benchmark run of one workload: set up several times, warm up,
//! then a closed loop with one client — each job starts only when the
//! previous one has returned — over whole shuffled passes of the job
//! list until `--seconds` have gone by.

use crate::layers;
use crate::metrics::{self, quantile};
use crate::trace::Tracer;
use crate::workloads::{check, job_list_digest, prepare, run_job, shuffled, Case, Scale, Workload};
use fx10_suite::random::Xorshift;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Distinct programs one warm-up runs, spread over the case list.
const WARM_UP_CASES: usize = 32;
/// Fewest timed jobs in a full-scale run, so p90 has ten samples beyond it.
const MIN_JOBS: usize = 100;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub trace_out: Option<PathBuf>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `END_TO_END` untraced, `PER_LAYER` traced, in definition order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context lines (printed as `#` comments).
    pub notes: Vec<String>,
    pub digest: u64,
}

/// Runs cases untimed, unchecked: fills caches and lazy state before the
/// clock starts.
fn warm_up(cases: &[Case]) {
    let mut tr = Tracer::new(false);
    let n = cases.len();
    for k in 0..n.min(WARM_UP_CASES) {
        let case = &cases[k * n / n.min(WARM_UP_CASES)];
        let _ = catch_unwind(AssertUnwindSafe(|| run_job(case, k as u64, &mut tr)));
    }
}

/// Runs a job and its checks (and, when `compare`, its comparison calls),
/// returning the job's wall time in ms and the verdict.
fn attempt(
    case: &Case,
    job_seed: u64,
    compare: bool,
    tr: &mut Tracer,
) -> (f64, Result<(), String>) {
    let start = Instant::now();
    let answer = catch_unwind(AssertUnwindSafe(|| run_job(case, job_seed, tr)));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let verdict = match answer {
        Ok(Ok(a)) => check(case, &a),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("panicked".to_string()),
    };
    let verdict = verdict.and_then(|()| {
        if !compare {
            return Ok(());
        }
        catch_unwind(AssertUnwindSafe(|| layers::comparisons(case, job_seed, tr)))
            .unwrap_or_else(|_| Err("comparison panicked".to_string()))
    });
    (ms, verdict.map_err(|e| format!("{}: {e}", case.name)))
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        drop(prep.take());
        let t = Instant::now();
        let p = prepare(opts.workload, opts.seed, opts.scale)?;
        warm_up(&p.cases);
        setups.push(t.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up ran");

    let mut rng = Xorshift::new(opts.seed.wrapping_mul(GOLDEN) ^ 1);
    let mut tr = Tracer::new(false);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failures) = (0u64, Vec::new());
    let (mut passes, mut last_pass, mut digest) = (0usize, 0.0, 0);
    let start = Instant::now();
    loop {
        let done = untraced_ms.len() + traced_ms.len();
        let enough = opts.scale == Scale::Smoke || done >= MIN_JOBS;
        let both_kinds = !opts.trace || passes >= 2;
        // Whole passes only, so every run times the same job mix; start
        // another only if at least half of it fits in the time left.
        if passes > 0
            && enough
            && both_kinds
            && start.elapsed().as_secs_f64() + last_pass / 2.0 >= opts.seconds
        {
            break;
        }
        let traced = opts.trace && passes % 2 == 1;
        tr.set_on(traced);
        let order = shuffled(&prep.pass, &mut rng);
        if passes == 0 {
            digest = job_list_digest(&prep, &order);
        }
        let mut compared = vec![false; prep.cases.len()];
        let pass_start = Instant::now();
        for &i in &order {
            let case = &prep.cases[i];
            let job_seed = opts.seed ^ attempted.wrapping_mul(GOLDEN);
            tr.begin_job(attempted, &case.name, false);
            let compare = traced && !std::mem::replace(&mut compared[i], true);
            let (ms, verdict) = attempt(case, job_seed, compare, &mut tr);
            attempted += 1;
            if traced {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(ms);
            if let Err(e) = verdict {
                failures.push(e);
            }
        }
        last_pass = pass_start.elapsed().as_secs_f64();
        passes += 1;
    }

    let mut notes = vec![format!(
        "{passes} pass(es) of {} job(s) over {} program(s); {attempted} job(s), {} failed",
        prep.pass.len(),
        prep.cases.len(),
        failures.len()
    )];
    let metrics = if opts.trace {
        tr.set_on(true);
        let probe = layers::probe_cases(&prep.cases, opts.scale)?;
        warm_up(&probe);
        for (k, case) in probe.iter().enumerate() {
            let job_seed = opts.seed ^ (k as u64).wrapping_mul(GOLDEN);
            tr.begin_job(attempted, &case.name, true);
            let (_, verdict) = attempt(case, job_seed, true, &mut tr);
            attempted += 1;
            if let Err(e) = verdict {
                failures.push(e);
            }
        }
        attempted += 1;
        if let Err(e) = layers::chaos_grid(&mut tr) {
            failures.push(format!("chaos_grid: {e}"));
        }
        layers::detector_micro(&mut tr, false);
        layers::detector_micro(&mut tr, true);
        notes.push(format!(
            "layer probe: {} program(s) plus chaos_grid and the detector",
            probe.len()
        ));
        for (layer, ms) in tr.self_ms_by_layer() {
            notes.push(format!("self time {layer:<10} {ms:>12.3} ms"));
        }
        if let Some(path) = &opts.trace_out {
            tr.write_jsonl(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        layers::per_layer_metrics(&tr, &traced_ms, &untraced_ms)
    } else {
        let mut sorted = untraced_ms.clone();
        sorted.sort_by(f64::total_cmp);
        notes.push(format!("job_ms percentiles over {} samples", sorted.len()));
        vec![
            ("setup_s", metrics::median(&setups)),
            ("job_ms_p50", quantile(&sorted, 0.5)),
            ("job_ms_p90", quantile(&sorted, 0.9)),
            (
                "jobs_per_s",
                sorted.len() as f64 / (sorted.iter().sum::<f64>() / 1e3),
            ),
            ("peak_rss_mb", metrics::peak_rss_mb()),
        ]
    };
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        notes,
        digest,
    })
}
