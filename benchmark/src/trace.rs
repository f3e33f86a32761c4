//! Outside-in tracing: the benchmark records a span around each public
//! call it makes into a layer (name, start, end, parent, job, case) plus
//! counters read off the call's result. Spans stay in memory; the
//! per-layer metrics are derived from them when the run ends, and
//! `--trace-out` writes them as JSON lines.
//!
//! Nothing here reaches inside the library: a layer's *self* time is its
//! span's duration minus the part its child spans cover, so a span only
//! splits as finely as the public functions the benchmark can call.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Identifies a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `frontend.parse`, or `job.<kind>` for the
    /// whole job.
    pub name: &'static str,
    /// Index into [`Tracer::cases`]: the program the call worked on.
    pub case: usize,
    /// The job this span belongs to (comparison calls carry the id of the
    /// job they follow, but no parent).
    pub job: u64,
    /// Set for spans recorded by the layer probe rather than the
    /// workload's own jobs.
    pub probe: bool,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }

    /// Duration; 0 for a span still open.
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
}

/// The in-memory span recorder. When off, [`Tracer::span`] just calls
/// the closure, so untraced jobs run the same code path.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub cases: Vec<String>,
    open: Vec<usize>,
    job: u64,
    case: usize,
    probe: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            cases: Vec::new(),
            open: Vec::new(),
            job: 0,
            case: 0,
            probe: false,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Attributes the following spans to `job` on program `case`.
    pub fn begin_job(&mut self, job: u64, case: &str, probe: bool) {
        self.job = job;
        self.probe = probe;
        if !self.on {
            return;
        }
        self.case = match self.cases.iter().position(|c| c == case) {
            Some(i) => i,
            None => {
                self.cases.push(case.to_string());
                self.cases.len() - 1
            }
        };
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; nested spans opened by `f`
    /// become its children. A panic in `f` still closes the span before
    /// it unwinds on, so a job that panics (a failure the run catches)
    /// leaves no open span behind to parent the spans that follow.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, SpanId) {
        if !self.on {
            return (f(self), None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            case: self.case,
            job: self.job,
            probe: self.probe,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            counters: Vec::new(),
        });
        self.open.push(id);
        let r = catch_unwind(AssertUnwindSafe(|| f(self)));
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        match r {
            Ok(r) => (r, Some(id)),
            Err(panic) => resume_unwind(panic),
        }
    }

    /// [`Tracer::span`] without the id.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span(name, f).0
    }

    /// Attaches a counter to a recorded span.
    pub fn count(&mut self, id: SpanId, name: &'static str, value: f64) {
        if let Some(i) = id {
            self.spans[i].counters.push((name, value));
        }
    }

    /// Per-layer self time (ms), keyed by the span name's prefix before
    /// the first `.`: the span's duration minus its children's.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let self_ns = s.ns().saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let counters = Json::Obj(
                s.counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            );
            let line = obj(vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("case", Json::Str(self.cases[s.case].clone())),
                ("job", Json::Num(s.job as f64)),
                ("probe", Json::Bool(s.probe)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("counters", counters),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.begin_job(7, "p", false);
        let (_, outer) = tr.span("job.x", |tr| {
            tr.time("a.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        tr.count(outer, "n", 3.0);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].counter("n"), Some(3.0));
        assert_eq!(tr.spans[1].job, 7);
        let layers = tr.self_ms_by_layer();
        assert!(layers["a"] >= 2.0);
        assert!(layers["job"] < layers["a"]);
    }

    #[test]
    fn a_panicking_span_closes_before_unwinding() {
        let mut tr = Tracer::new(true);
        tr.begin_job(1, "p", false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            tr.time("job.x", |tr| tr.time("a.inner", |_| panic!("job failed")))
        }));
        assert!(caught.is_err());
        assert!(tr.open.is_empty());
        assert!(tr.spans.iter().all(|s| s.end_ns > 0));
        tr.time("job.y", |_| ());
        assert_eq!(tr.spans[2].parent, None, "the next job is no child");
        tr.self_ms_by_layer();
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_job(1, "p", false);
        let (v, id) = tr.span("a.b", |_| 5);
        tr.count(id, "n", 1.0);
        assert_eq!(v, 5);
        assert!(tr.spans.is_empty() && id.is_none());
    }
}
