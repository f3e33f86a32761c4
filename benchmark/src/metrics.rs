//! Metric definitions and the statistics the run and `compare` share.
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; the smoke test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("job_ms_p50", "ms", Lower, 0.25),
    e2e("job_ms_p90", "ms", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Derived from the traced run's spans (see `layers::per_layer_metrics`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("frontend.parse_ms", "ms", Lower),
    layer("frontend.analyze_ms.cs", "ms", Lower),
    layer("frontend.analyze_ms.ci", "ms", Lower),
    layer("frontend.analyze_ms.plasma-cs", "ms", Lower),
    layer("frontend.analyze_ms.plasma-ci", "ms", Lower),
    layer("frontend.analyze_ms.mg-cs", "ms", Lower),
    layer("frontend.analyze_ms.mg-ci", "ms", Lower),
    layer("core.evals", "count", Lower),
    layer("core.passes_level1", "count", Lower),
    layer("core.passes_level2", "count", Lower),
    layer("core.evals_per_ms", "1/ms", Higher),
    layer("core.solved_mb", "MB", Lower),
    layer("core.index_ms", "ms", Lower),
    layer("core.slabels_ms", "ms", Lower),
    layer("core.generate_ms", "ms", Lower),
    layer("core.solve_level1_ms", "ms", Lower),
    layer("core.simplify_ms", "ms", Lower),
    layer("core.solve_level2_ms", "ms", Lower),
    layer("core.analyze_cs_ms", "ms", Lower),
    layer("core.analyze_ci_ms", "ms", Lower),
    layer("absint.oracle_ms", "ms", Lower),
    layer("absint.analyze_ms", "ms", Lower),
    layer("lints.race_pass_ms", "ms", Lower),
    layer("lints.structural_ms", "ms", Lower),
    layer("lints.race_pass_share", "ratio", Lower),
    layer("lints.witness_confirmed", "count", Higher),
    layer("lints.witness_refuted", "count", Higher),
    layer("lints.witness_inconclusive", "count", Lower),
    layer("lints.witness_useful_ratio", "ratio", Higher),
    layer("syntax.parse_ms", "ms", Lower),
    layer("semantics.states_per_s.j1", "1/s", Higher),
    layer("semantics.states_per_s.j2", "1/s", Higher),
    layer("semantics.scaling_j2_over_j1", "ratio", Higher),
    layer("semantics.explore_ms.chaos_grid", "ms", Lower),
    layer("semantics.interned_over_cloned", "ratio", Higher),
    layer("semantics.states", "count", Lower),
    layer("semantics.mhp_pairs", "count", Lower),
    layer("runtime.elide_ms", "ms", Lower),
    layer("runtime.steal_j1_ms", "ms", Lower),
    layer("runtime.steal_j2_ms", "ms", Lower),
    layer("runtime.sched_overhead", "ratio", Lower),
    layer("runtime.scaling_j2_over_j1", "ratio", Higher),
    layer("runtime.detect_ns_per_access.own_cell", "ns", Lower),
    layer("runtime.detect_ns_per_access.shared_cell", "ns", Lower),
    layer("runtime.steps", "count", Lower),
    layer("runtime.activities", "count", Lower),
    layer("runtime.races", "count", Lower),
    layer("trace.jobs_per_s", "1/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// Looks a metric up in either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (its default "exclusive" method), so `compare`
/// judges spread the way the benchmark's acceptance rule does. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    // Python clamps the index but not the weight, so two values
    // extrapolate; mirror that exactly.
    let cut = |i: usize| {
        let m = (n + 1) * i;
        let k = (m / 4).clamp(1, n - 1);
        let frac = m as f64 / 4.0 - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    (cut(1), cut(3))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(n), "{n} twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
