//! # fx10-robust
//!
//! The robustness layer shared by every long-running FX10 engine.
//!
//! The paper's headline guarantees — every program has a type (Theorem
//! 6), the semantics never deadlocks (Theorem 1) — promise that the
//! analysis is *always safe to run*. This crate carries that promise to
//! the systems level: every pipeline entry point returns a typed result
//! ([`Fx10Error`]) instead of panicking, respects an explicit resource
//! [`Budget`] instead of running forever, observes a cooperative
//! [`CancelToken`], and isolates worker-thread panics behind
//! [`Fx10Error::WorkerPanicked`] instead of aborting the process.
//! Partial results carry an [`Exhaustion`] provenance so callers can
//! distinguish "complete" from "budget-cut" answers, and a [`FaultPlan`]
//! lets the test harness inject panics, forced budget trips and
//! adversarial scheduling to prove those paths actually work. The
//! [`snapshot`] module holds the versioned, checksummed container that
//! durable explorer checkpoints are written in.
//!
//! The crate is dependency-free and sits below every other workspace
//! crate.

#![warn(missing_docs)]

pub mod snapshot;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// The typed error of the FX10 pipeline.
///
/// Every reachable failure of a library entry point is one of these
/// variants; library code never panics on malformed input, budget
/// exhaustion, cancellation, or worker failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fx10Error {
    /// The source text did not parse. `line` is 1-based (0 for
    /// program-level errors such as a call to an unknown method).
    Parse {
        /// 1-based source line (0 when program-level).
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The program parsed but failed validation (e.g. no `main`).
    Validate(String),
    /// A file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error rendered.
        message: String,
    },
    /// A resource budget was exhausted before the engine completed. The
    /// payload says which resource ran out.
    BudgetExhausted(Exhaustion),
    /// The operation observed its [`CancelToken`] and stopped early.
    Cancelled,
    /// A worker thread panicked; the panic was contained and converted
    /// instead of aborting the process.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
        /// The panic payload, rendered.
        message: String,
    },
    /// A snapshot file could not be decoded (corrupt, truncated, wrong
    /// version, or not matching the program being resumed). Treated as a
    /// usage error — the *input* is bad, not the analysis.
    Snapshot {
        /// What was wrong with the snapshot, rendered.
        message: String,
    },
    /// The watchdog observed a worker whose heartbeat stopped advancing
    /// for longer than the stall threshold and cancelled the crew.
    WorkerStalled {
        /// Index of the stalled worker.
        worker: usize,
        /// How long its heartbeat had been frozen, in milliseconds.
        stalled_ms: u64,
    },
}

impl Fx10Error {
    /// The documented process exit code for this error.
    ///
    /// | code | meaning |
    /// |------|------------------------------------------|
    /// | 0    | success (not an error)                   |
    /// | 1    | analysis error (parse/validate/io/unsound)|
    /// | 2    | usage error / invalid snapshot           |
    /// | 3    | budget exhausted / inconclusive          |
    /// | 4    | cancelled, worker panicked or stalled    |
    pub fn exit_code(&self) -> u8 {
        match self {
            Fx10Error::Parse { .. } | Fx10Error::Validate(_) | Fx10Error::Io { .. } => 1,
            Fx10Error::Snapshot { .. } => 2,
            Fx10Error::BudgetExhausted(_) => 3,
            Fx10Error::Cancelled
            | Fx10Error::WorkerPanicked { .. }
            | Fx10Error::WorkerStalled { .. } => 4,
        }
    }
}

impl fmt::Display for Fx10Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fx10Error::Parse { line: 0, message } => write!(f, "parse error: {message}"),
            Fx10Error::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            Fx10Error::Validate(m) => write!(f, "validation error: {m}"),
            Fx10Error::Io { path, message } => write!(f, "{path}: {message}"),
            Fx10Error::BudgetExhausted(e) => write!(f, "budget exhausted: {e}"),
            Fx10Error::Cancelled => write!(f, "cancelled"),
            Fx10Error::WorkerPanicked { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            Fx10Error::Snapshot { message } => write!(f, "snapshot error: {message}"),
            Fx10Error::WorkerStalled { worker, stalled_ms } => {
                write!(
                    f,
                    "worker {worker} stalled: heartbeat frozen for {stalled_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for Fx10Error {}

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

/// Which resource a budget-cut computation ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exhaustion {
    /// The explorer's distinct-state cap.
    States,
    /// The interpreter's step cap.
    Steps,
    /// The fixed-point solvers' constraint-evaluation cap.
    SolverIterations,
    /// The wall-clock deadline.
    Deadline,
    /// The peak-set-memory cap.
    Memory,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhaustion::States => write!(f, "state budget"),
            Exhaustion::Steps => write!(f, "step budget"),
            Exhaustion::SolverIterations => write!(f, "solver iteration budget"),
            Exhaustion::Deadline => write!(f, "wall-clock deadline"),
            Exhaustion::Memory => write!(f, "memory budget"),
        }
    }
}

/// Resource limits for one pipeline run. `None` means unlimited.
///
/// `Budget` is `Copy`; hand the same value to several phases and each
/// enforces the caps independently (the wall-clock deadline is absolute,
/// so it is naturally shared across phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum distinct states the explorer may visit.
    pub max_states: Option<usize>,
    /// Maximum constraint evaluations per solver run.
    pub max_iters: Option<u64>,
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Peak bytes the explorer's visited set may hold (approximate).
    pub max_set_bytes: Option<usize>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// No limits at all.
    pub const fn unlimited() -> Self {
        Budget {
            max_states: None,
            max_iters: None,
            deadline: None,
            max_set_bytes: None,
        }
    }

    /// Caps distinct explorer states.
    pub fn with_max_states(mut self, n: usize) -> Self {
        self.max_states = Some(n);
        self
    }

    /// Caps solver constraint evaluations.
    pub fn with_max_iters(mut self, n: u64) -> Self {
        self.max_iters = Some(n);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the visited set's (approximate) heap footprint.
    pub fn with_max_set_bytes(mut self, bytes: usize) -> Self {
        self.max_set_bytes = Some(bytes);
        self
    }

    /// Checks the memory cap against a current (approximate) footprint.
    pub fn memory_exhausted(&self, bytes: usize) -> bool {
        self.max_set_bytes.is_some_and(|cap| bytes >= cap)
    }

    /// Checks the wall clock against the deadline.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Why a [`BudgetMeter`] tick asked the engine to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// A budget ran out: record the provenance and return the partial
    /// result.
    Exhausted(Exhaustion),
    /// The cancel token fired: unwind with [`Fx10Error::Cancelled`].
    Cancelled,
}

impl From<Stop> for Fx10Error {
    fn from(s: Stop) -> Self {
        match s {
            Stop::Exhausted(e) => Fx10Error::BudgetExhausted(e),
            Stop::Cancelled => Fx10Error::Cancelled,
        }
    }
}

/// Mutable budget accounting shared by the phases of one pipeline run.
///
/// Solvers call [`tick`](BudgetMeter::tick) once per constraint
/// evaluation; the meter aggregates the count across phases, so
/// `max_iters` bounds the *whole analysis*, not each phase separately.
/// Deadline and cancellation are polled on a stride to keep the hot loop
/// cheap.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: Budget,
    cancel: CancelToken,
    iters: u64,
    exhausted: Option<Exhaustion>,
}

/// How often (in ticks) the meter polls the clock and the cancel token.
const POLL_STRIDE: u64 = 64;

impl BudgetMeter {
    /// A meter enforcing `budget` and observing `cancel`.
    pub fn new(budget: Budget, cancel: CancelToken) -> Self {
        BudgetMeter {
            budget,
            cancel,
            iters: 0,
            exhausted: None,
        }
    }

    /// A meter with no limits and a token nobody can cancel.
    pub fn unlimited() -> Self {
        BudgetMeter::new(Budget::unlimited(), CancelToken::new())
    }

    /// The budget being enforced.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Total ticks so far.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// First exhaustion observed by [`tick`](BudgetMeter::tick), if any.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.exhausted
    }

    /// Records that a phase hit a budget wall found outside `tick` (e.g.
    /// the explorer's state cap).
    pub fn note_exhaustion(&mut self, e: Exhaustion) {
        self.exhausted.get_or_insert(e);
    }

    /// Charges one unit of solver work. `Err(Stop)` means stop now:
    /// either a budget ran out (keep the partial result, tag it) or the
    /// token was cancelled (unwind).
    pub fn tick(&mut self) -> Result<(), Stop> {
        self.iters += 1;
        if self.budget.max_iters.is_some_and(|cap| self.iters > cap) {
            self.exhausted.get_or_insert(Exhaustion::SolverIterations);
            return Err(Stop::Exhausted(Exhaustion::SolverIterations));
        }
        if self.iters.is_multiple_of(POLL_STRIDE) {
            if self.cancel.is_cancelled() {
                return Err(Stop::Cancelled);
            }
            if self.budget.deadline_exceeded() {
                self.exhausted.get_or_insert(Exhaustion::Deadline);
                return Err(Stop::Exhausted(Exhaustion::Deadline));
            }
        }
        Ok(())
    }

    /// Charges `n` units of work at once (used by parallel engines that
    /// account ticks in a shared atomic and settle with the meter when
    /// they join). Trips exactly like [`tick`](BudgetMeter::tick), with
    /// an immediate cancellation/deadline poll.
    pub fn charge(&mut self, n: u64) -> Result<(), Stop> {
        self.iters = self.iters.saturating_add(n);
        if self.budget.max_iters.is_some_and(|cap| self.iters > cap) {
            self.exhausted.get_or_insert(Exhaustion::SolverIterations);
            return Err(Stop::Exhausted(Exhaustion::SolverIterations));
        }
        self.checkpoint()
    }

    /// Polls cancellation and the deadline immediately (phase
    /// boundaries).
    pub fn checkpoint(&mut self) -> Result<(), Stop> {
        if self.cancel.is_cancelled() {
            return Err(Stop::Cancelled);
        }
        if self.budget.deadline_exceeded() {
            self.exhausted.get_or_insert(Exhaustion::Deadline);
            return Err(Stop::Exhausted(Exhaustion::Deadline));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared (atomic) budget accounting
// ---------------------------------------------------------------------------

/// Lock-free budget accounting shared by the workers of one parallel
/// engine.
///
/// Where [`BudgetMeter`] is the single-threaded meter (one owner, `&mut`
/// ticks), `SharedMeter` is its crew-wide counterpart: all counters are
/// atomics, so N workers charge the *same* budget concurrently without a
/// lock on the hot path. Workers reserve state credits in batches
/// ([`SharedMeter::try_reserve_states`]) — the total number of states
/// admitted can therefore overshoot the cap by at most one batch per
/// worker, which is the documented precision of the parallel explorer's
/// budget contract.
#[derive(Debug)]
pub struct SharedMeter {
    budget: Budget,
    cancel: CancelToken,
    /// States admitted so far (reserved credits).
    states: AtomicUsize,
    /// Work units charged so far (explorer: expanded states).
    ticks: AtomicU64,
    /// Approximate bytes held by the engine's visited structures.
    bytes: AtomicUsize,
    /// First budget wall observed by any worker.
    exhausted: Mutex<Option<Exhaustion>>,
    /// Set as soon as any stop condition fires, so workers drain out.
    stopped: AtomicBool,
}

impl SharedMeter {
    /// A shared meter enforcing `budget` and observing `cancel`.
    pub fn new(budget: Budget, cancel: CancelToken) -> Self {
        SharedMeter {
            budget,
            cancel,
            states: AtomicUsize::new(0),
            ticks: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
            exhausted: Mutex::new(None),
            stopped: AtomicBool::new(false),
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Atomically reserves `n` state credits against `cap` (the engine's
    /// effective state cap, already folded with the budget). Returns
    /// `true` when the reservation is admitted. On refusal the cap is
    /// recorded as [`Exhaustion::States`] and the stop flag is raised.
    ///
    /// The check is `fetch_add` first, compare after — concurrent
    /// reservations can overshoot the cap by at most one batch per
    /// worker, never hang and never under-admit.
    pub fn try_reserve_states(&self, n: usize, cap: usize) -> bool {
        let before = self.states.fetch_add(n, Ordering::Relaxed);
        if before >= cap {
            // Refund so `states()` stays an admitted-credit count.
            self.states.fetch_sub(n, Ordering::Relaxed);
            self.note_exhaustion(Exhaustion::States);
            false
        } else {
            true
        }
    }

    /// State credits admitted so far.
    pub fn states(&self) -> usize {
        self.states.load(Ordering::Relaxed)
    }

    /// Bulk-credits `n` states restored from a snapshot against `cap`.
    ///
    /// Unlike [`try_reserve_states`](SharedMeter::try_reserve_states)
    /// the credits are *kept* even when the cap is already met — the
    /// restored states exist and must be accounted — but `false` is
    /// returned and [`Exhaustion::States`] recorded so the resumed run
    /// immediately reports truncation instead of silently exceeding its
    /// budget. Landing exactly *at* the cap is fine: later reservations
    /// refuse naturally.
    pub fn restore_states(&self, n: usize, cap: usize) -> bool {
        let now = self.states.fetch_add(n, Ordering::Relaxed) + n;
        if now > cap {
            self.note_exhaustion(Exhaustion::States);
            false
        } else {
            true
        }
    }

    /// Charges `n` work units (no cap of its own; feeds [`Self::ticks`]).
    pub fn charge_ticks(&self, n: u64) {
        self.ticks.fetch_add(n, Ordering::Relaxed);
    }

    /// Work units charged so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Adds `n` approximate bytes; returns `false` (and records
    /// [`Exhaustion::Memory`]) when the memory budget is exceeded.
    pub fn try_grow_bytes(&self, n: usize) -> bool {
        let now = self.bytes.fetch_add(n, Ordering::Relaxed) + n;
        if self.budget.memory_exhausted(now) {
            self.note_exhaustion(Exhaustion::Memory);
            false
        } else {
            true
        }
    }

    /// Approximate bytes accounted so far.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Polls cancellation and the wall clock. `Err(Stop)` means the
    /// worker should drain out now; deadline trips are recorded.
    pub fn checkpoint(&self) -> Result<(), Stop> {
        if self.cancel.is_cancelled() {
            self.request_stop();
            return Err(Stop::Cancelled);
        }
        if self.budget.deadline_exceeded() {
            self.note_exhaustion(Exhaustion::Deadline);
            return Err(Stop::Exhausted(Exhaustion::Deadline));
        }
        Ok(())
    }

    /// Records a budget wall (first writer wins) and raises the stop
    /// flag.
    pub fn note_exhaustion(&self, e: Exhaustion) {
        self.exhausted
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get_or_insert(e);
        self.request_stop();
    }

    /// The first budget wall any worker hit, if any.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        *self.exhausted.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Asks every worker to drain out (budget, cancellation or panic).
    pub fn request_stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    /// Has any stop condition fired?
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Settles this shared meter's tick count into a single-threaded
    /// [`BudgetMeter`] (after the crew has joined).
    pub fn settle_into(&self, meter: &mut BudgetMeter) {
        let _ = meter.charge(self.ticks());
        if let Some(e) = self.exhaustion() {
            meter.note_exhaustion(e);
        }
    }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A cooperative cancellation flag, cheaply clonable across threads.
///
/// Engines poll [`is_cancelled`](CancelToken::is_cancelled) at loop
/// granularity and return [`Fx10Error::Cancelled`]; nothing is killed
/// preemptively, so data structures are never torn.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// `Err(Fx10Error::Cancelled)` if cancellation has been requested.
    pub fn check(&self) -> Result<(), Fx10Error> {
        if self.is_cancelled() {
            Err(Fx10Error::Cancelled)
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A scripted fault for the parallel engines, used by the fault-injection
/// harness to prove that panic isolation, budget trips and scheduling
/// perturbations all produce typed results rather than hangs or aborts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic worker `worker` after it has processed `after_states` work
    /// items (the panic is injected *inside* the worker's catch_unwind
    /// region, exactly like an organic bug would be).
    pub panic_worker: Option<PanicFault>,
    /// Force the state budget to read as exhausted once this many states
    /// have been visited, regardless of the real budget.
    pub trip_states_after: Option<usize>,
    /// Make the parallel explorer drain its queue LIFO instead of FIFO —
    /// an adversarial schedule that changes discovery order but must not
    /// change any computed set.
    pub adversarial_schedule: bool,
    /// Wedge worker `worker` after `after_states` processed items: the
    /// worker stops making progress *and stops heartbeating* (as if stuck
    /// in a runaway loop or a hung syscall). Only the watchdog, a budget
    /// trip or cancellation can release it — a crew with a wedged worker
    /// and no watchdog hangs, which is exactly what the watchdog tests
    /// prove does not happen.
    pub wedge_worker: Option<PanicFault>,
    /// Simulate a process kill immediately after the Nth successful
    /// durable checkpoint (1-based): the engine stops as if SIGKILLed,
    /// leaving that checkpoint on disk for a resume test.
    pub kill_at_checkpoint: Option<u64>,
}

/// See [`FaultPlan::panic_worker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicFault {
    /// Which worker panics (index into the crew).
    pub worker: usize,
    /// After how many locally processed items.
    pub after_states: u64,
}

impl FaultPlan {
    /// No injected faults (the production value).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Should `worker`, having processed `processed` items, panic now?
    pub fn should_panic(&self, worker: usize, processed: u64) -> bool {
        self.panic_worker
            .is_some_and(|pf| pf.worker == worker && processed >= pf.after_states)
    }

    /// Should `worker`, having processed `processed` items, wedge now?
    pub fn should_wedge(&self, worker: usize, processed: u64) -> bool {
        self.wedge_worker
            .is_some_and(|wf| wf.worker == worker && processed >= wf.after_states)
    }

    /// The effective state cap after applying a forced trip.
    pub fn effective_max_states(&self, cap: Option<usize>) -> Option<usize> {
        match (self.trip_states_after, cap) {
            (Some(t), Some(c)) => Some(t.min(c)),
            (Some(t), None) => Some(t),
            (None, c) => c,
        }
    }
}

/// Renders a `catch_unwind` payload into a readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_match_the_documented_table() {
        assert_eq!(
            Fx10Error::Parse {
                line: 3,
                message: "x".into()
            }
            .exit_code(),
            1
        );
        assert_eq!(Fx10Error::Validate("v".into()).exit_code(), 1);
        assert_eq!(
            Fx10Error::BudgetExhausted(Exhaustion::States).exit_code(),
            3
        );
        assert_eq!(Fx10Error::Cancelled.exit_code(), 4);
        assert_eq!(
            Fx10Error::WorkerPanicked {
                worker: 0,
                message: "m".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            Fx10Error::Snapshot {
                message: "m".into()
            }
            .exit_code(),
            2
        );
        assert_eq!(
            Fx10Error::WorkerStalled {
                worker: 1,
                stalled_ms: 250
            }
            .exit_code(),
            4
        );
    }

    #[test]
    fn meter_trips_on_iteration_cap() {
        let mut m = BudgetMeter::new(Budget::unlimited().with_max_iters(10), CancelToken::new());
        for _ in 0..10 {
            assert!(m.tick().is_ok());
        }
        assert_eq!(m.tick(), Err(Stop::Exhausted(Exhaustion::SolverIterations)));
        assert_eq!(m.exhaustion(), Some(Exhaustion::SolverIterations));
    }

    #[test]
    fn meter_observes_cancellation() {
        let cancel = CancelToken::new();
        let mut m = BudgetMeter::new(Budget::unlimited(), cancel.clone());
        assert!(m.checkpoint().is_ok());
        cancel.cancel();
        assert_eq!(m.checkpoint(), Err(Stop::Cancelled));
        // tick polls on a stride but must observe it within one stride.
        let mut seen = false;
        for _ in 0..super::POLL_STRIDE + 1 {
            if m.tick() == Err(Stop::Cancelled) {
                seen = true;
                break;
            }
        }
        assert!(seen);
    }

    #[test]
    fn deadline_in_the_past_trips_immediately() {
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(b.deadline_exceeded());
        let mut m = BudgetMeter::new(b, CancelToken::new());
        assert_eq!(m.checkpoint(), Err(Stop::Exhausted(Exhaustion::Deadline)));
    }

    #[test]
    fn fault_plan_predicates() {
        let plan = FaultPlan {
            panic_worker: Some(PanicFault {
                worker: 2,
                after_states: 5,
            }),
            trip_states_after: Some(100),
            adversarial_schedule: true,
            ..FaultPlan::none()
        };
        assert!(!plan.should_panic(1, 100));
        assert!(!plan.should_panic(2, 4));
        assert!(plan.should_panic(2, 5));
        assert_eq!(plan.effective_max_states(None), Some(100));
        assert_eq!(plan.effective_max_states(Some(50)), Some(50));
        assert_eq!(plan.effective_max_states(Some(500)), Some(100));
        assert_eq!(FaultPlan::none().effective_max_states(None), None);

        let wedge = FaultPlan {
            wedge_worker: Some(PanicFault {
                worker: 0,
                after_states: 2,
            }),
            ..FaultPlan::none()
        };
        assert!(!wedge.should_wedge(1, 100));
        assert!(!wedge.should_wedge(0, 1));
        assert!(wedge.should_wedge(0, 2));
        assert!(!FaultPlan::none().should_wedge(0, 0));
    }

    #[test]
    fn restore_states_keeps_credits_but_reports_overflow() {
        let m = SharedMeter::new(Budget::unlimited(), CancelToken::new());
        assert!(m.restore_states(10, 10), "landing at the cap is fine");
        assert_eq!(m.states(), 10);
        assert_eq!(m.exhaustion(), None);
        // The cap is now met: a fresh reservation refuses...
        assert!(!m.try_reserve_states(1, 10));
        // ...and a restore past the cap keeps the credits yet reports.
        let m = SharedMeter::new(Budget::unlimited(), CancelToken::new());
        assert!(!m.restore_states(11, 10));
        assert_eq!(m.states(), 11, "restored states stay accounted");
        assert_eq!(m.exhaustion(), Some(Exhaustion::States));
        assert!(m.is_stopped());
    }

    #[test]
    fn shared_meter_reserves_within_one_batch_per_worker() {
        let m = SharedMeter::new(Budget::unlimited(), CancelToken::new());
        let cap = 100usize;
        let batch = 8usize;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| while m.try_reserve_states(batch, cap) {});
            }
        });
        assert!(m.states() >= cap.saturating_sub(4 * batch));
        assert!(m.states() <= cap + 4 * batch, "states = {}", m.states());
        assert_eq!(m.exhaustion(), Some(Exhaustion::States));
        assert!(m.is_stopped());
    }

    #[test]
    fn shared_meter_checkpoint_observes_cancel_and_deadline() {
        let cancel = CancelToken::new();
        let m = SharedMeter::new(Budget::unlimited(), cancel.clone());
        assert!(m.checkpoint().is_ok());
        cancel.cancel();
        assert_eq!(m.checkpoint(), Err(Stop::Cancelled));
        assert!(m.is_stopped());

        let past = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        let m = SharedMeter::new(past, CancelToken::new());
        assert_eq!(m.checkpoint(), Err(Stop::Exhausted(Exhaustion::Deadline)));
        assert_eq!(m.exhaustion(), Some(Exhaustion::Deadline));
    }

    #[test]
    fn shared_meter_settles_ticks_and_exhaustion_into_budget_meter() {
        let shared = SharedMeter::new(Budget::unlimited(), CancelToken::new());
        shared.charge_ticks(42);
        shared.note_exhaustion(Exhaustion::Memory);
        let mut meter = BudgetMeter::unlimited();
        shared.settle_into(&mut meter);
        assert_eq!(meter.iters(), 42);
        assert_eq!(meter.exhaustion(), Some(Exhaustion::Memory));
    }

    #[test]
    fn shared_meter_memory_accounting_trips() {
        let m = SharedMeter::new(
            Budget::unlimited().with_max_set_bytes(100),
            CancelToken::new(),
        );
        assert!(m.try_grow_bytes(60));
        assert!(!m.try_grow_bytes(60));
        assert_eq!(m.exhaustion(), Some(Exhaustion::Memory));
        assert_eq!(m.bytes(), 120);
    }

    // -----------------------------------------------------------------
    // Brute-force interleavings of cancel() vs deadline expiry vs
    // checkpoint(): the documented contract is that cancellation beats
    // exhaustion — once a checkpoint has observed the cancel token, no
    // later checkpoint may report Deadline, and a cancel seen together
    // with an expired deadline resolves to Cancelled.
    // -----------------------------------------------------------------

    #[test]
    fn cancel_beats_deadline_when_both_fired() {
        // Deterministic interleaving: both conditions are already true
        // when checkpoint runs. Cancel must win and no exhaustion may be
        // recorded by that call.
        let cancel = CancelToken::new();
        let past = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        let m = SharedMeter::new(past, cancel.clone());
        cancel.cancel();
        assert_eq!(m.checkpoint(), Err(Stop::Cancelled));
        assert_eq!(
            m.exhaustion(),
            None,
            "a cancelled checkpoint must not record a deadline trip"
        );
        // Repeated polls stay Cancelled forever.
        for _ in 0..100 {
            assert_eq!(m.checkpoint(), Err(Stop::Cancelled));
        }
        assert_eq!(m.exhaustion(), None);
        // The single-threaded meter agrees.
        let mut bm = BudgetMeter::new(past, cancel.clone());
        assert_eq!(bm.checkpoint(), Err(Stop::Cancelled));
        assert_eq!(bm.exhaustion(), None);
    }

    #[test]
    fn threaded_checkpoints_racing_a_canceller_never_report_deadline_after_cancel() {
        // Many pollers hammer checkpoint() while one thread cancels at an
        // arbitrary point; the deadline expires mid-run too. After the
        // cancel is observed once, every poller must keep seeing
        // Cancelled (never flip back to Deadline), and the union of
        // verdicts may contain Deadline only from polls that ran before
        // the cancel landed.
        for trial in 0..20u32 {
            let cancel = CancelToken::new();
            let deadline = Instant::now() + Duration::from_micros(50 * trial as u64);
            let m = SharedMeter::new(Budget::unlimited().with_deadline(deadline), cancel.clone());
            std::thread::scope(|s| {
                let pollers: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            let mut after_cancel_deadline = false;
                            let mut seen_cancel = false;
                            for _ in 0..500 {
                                match m.checkpoint() {
                                    Err(Stop::Cancelled) => seen_cancel = true,
                                    Err(Stop::Exhausted(Exhaustion::Deadline)) => {
                                        if seen_cancel {
                                            after_cancel_deadline = true;
                                        }
                                    }
                                    Err(other) => panic!("unexpected stop {other:?}"),
                                    Ok(()) => {}
                                }
                                std::hint::spin_loop();
                            }
                            after_cancel_deadline
                        })
                    })
                    .collect();
                s.spawn(|| {
                    std::thread::yield_now();
                    cancel.cancel();
                });
                for p in pollers {
                    assert!(
                        !p.join().unwrap(),
                        "trial {trial}: a poll reported Deadline after observing Cancelled"
                    );
                }
            });
            // Terminal state: always Cancelled.
            assert_eq!(m.checkpoint(), Err(Stop::Cancelled));
        }
    }

    #[test]
    fn concurrent_exhaustion_notes_are_first_writer_wins_and_stable() {
        let m = SharedMeter::new(Budget::unlimited(), CancelToken::new());
        std::thread::scope(|s| {
            for i in 0..8 {
                let m = &m;
                s.spawn(move || {
                    let e = if i % 2 == 0 {
                        Exhaustion::States
                    } else {
                        Exhaustion::Memory
                    };
                    for _ in 0..100 {
                        m.note_exhaustion(e);
                    }
                });
            }
        });
        let first = m.exhaustion().expect("someone must have won");
        assert!(matches!(first, Exhaustion::States | Exhaustion::Memory));
        // Later notes never overwrite the first.
        m.note_exhaustion(Exhaustion::Deadline);
        assert_eq!(m.exhaustion(), Some(first));
        assert!(m.is_stopped());
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(a.check().is_ok());
        b.cancel();
        assert!(a.is_cancelled());
        assert_eq!(a.check(), Err(Fx10Error::Cancelled));
    }
}
