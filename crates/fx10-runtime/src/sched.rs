//! The runtime's one executor: FX10 programs on a work-stealing crew,
//! and sequential elision as the same crew at one worker with every
//! `async` inlined.
//!
//! The shape follows the MPL scheduler signature (`push`/`pop`/`steal`,
//! `finish` as a scoped join) and the explorer's crew patterns:
//!
//! * **`async`** pushes a [`Task`] — the body statement, a fresh
//!   activity id and forked clock, and the enclosing [`Scope`] — onto
//!   the spawning worker's deque (LIFO for locality). Idle workers pop
//!   their own deque from the back, then steal from the *front* of a
//!   seeded-random victim — `--schedule-seed` perturbs victim order,
//!   giving cheap schedule diversity for the differential oracles.
//!   Worker 0 starts with the root task, so its first processed item is
//!   always `main` whatever the OS does with the threads.
//! * **`finish`** is a countdown latch: a [`Scope`] counts pending
//!   transitively-spawned tasks and accumulates their final vector
//!   clocks. The activity executing the `finish` runs the body inline,
//!   then waits *helping* — running other tasks while the latch is up —
//!   so a crew of N workers never deadlocks on nested scopes.
//! * **Granularity** — `grain > 0` inlines any `async` whose body has
//!   at most `grain` instructions into the spawning activity: a fresh
//!   activity id and forked clock, run at once, its final clock joined
//!   into the enclosing finish's accumulator, so race detection is
//!   unaffected. Below the grain the serial code is just a branch of
//!   the scheduler, as in MPL's `parallelFor granularity`.
//! * **Sequential elision** ([`run_elision`]) is the crew at one worker
//!   with `grain = usize::MAX`: every `async` runs inline, depth-first,
//!   and every `finish` is its body plus a join — the classic fork-join
//!   oracle, **for race-free programs any parallel run must produce
//!   exactly this array state and step count**. A one-worker crew runs
//!   on the calling thread; larger crews spawn every worker.
//! * **Panic isolation** — each task runs under `catch_unwind`; a latch
//!   guard decrements the scope's counter during unwind, so a panicking
//!   async can never leave a `finish` waiting forever. The first panic
//!   stops the crew and surfaces as [`Fx10Error::WorkerPanicked`]
//!   (exit 4), exactly like the explorer's contract.
//!
//! The shared array is a `Vec<AtomicI64>` with relaxed ordering — FX10
//! races are *detected*, not prevented, and individual cell accesses
//! must still be tear-free. Steps count *executed instructions* — one
//! per `skip`, assignment, `async`, `finish` and `call`, and one per
//! `while` guard evaluation — in a shared counter, so every schedule of
//! a race-free program reports the same total. Budgets, cancellation
//! and the stop flag go through the explorer's [`SharedMeter`]; the
//! step caps are charged per instruction and cancel and deadline polled
//! on a stride. Each worker counts its `exec` recursion depth and stops
//! the crew with [`Exhaustion::Nesting`] at [`MAX_NESTING`].

use crate::detect::{Detector, VClock};
use crate::{RunReport, MAX_NESTING};
use fx10_robust::{
    panic_message, Budget, CancelToken, Exhaustion, FaultPlan, Fx10Error, SharedMeter, Stop,
};
use fx10_semantics::ArrayState;
use fx10_syntax::{Expr, Label, Program, Stmt};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration for one parallel run.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Seed for the stealing order — different seeds give different
    /// schedules, identical final states for race-free programs.
    pub seed: u64,
    /// Inline `async` bodies of at most this many instructions
    /// (0 disables granularity control: every async is a task;
    /// `usize::MAX` inlines every async, as elision does).
    pub grain: usize,
    /// Cap on executed instructions.
    pub max_steps: u64,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            jobs: 1,
            seed: 0,
            grain: 0,
            max_steps: u64::MAX,
        }
    }
}

/// One spawned activity awaiting execution.
struct Task<'a> {
    stmt: &'a Stmt,
    scope: Arc<Scope>,
    tid: u32,
    clock: VClock,
    is_root: bool,
}

/// A `finish` scope: the countdown latch plus the clock accumulator the
/// waiter joins when the latch reaches zero.
struct Scope {
    pending: AtomicUsize,
    acc: Mutex<VClock>,
}

impl Scope {
    fn new() -> Scope {
        Scope {
            pending: AtomicUsize::new(0),
            acc: Mutex::new(VClock::new()),
        }
    }
}

/// Releases a scope's latch exactly once — on the normal path *after*
/// the clock has been folded into the accumulator, or during unwind if
/// the task panicked (without the fold: the crew is stopping anyway,
/// but no `finish` is left waiting).
struct Latch<'s> {
    scope: &'s Scope,
    armed: bool,
}

impl Latch<'_> {
    fn release(mut self) {
        self.fire();
    }

    fn fire(&mut self) {
        if self.armed {
            self.armed = false;
            self.scope.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl Drop for Latch<'_> {
    fn drop(&mut self) {
        self.fire();
    }
}

/// Per-worker mutable state threaded through the call stack so helping
/// at a `finish` wait shares the same counters as the top-level loop.
struct Wctx {
    w: usize,
    rng: Xorshift,
    processed: u64,
    /// Current `exec` recursion depth on this worker's stack (helping
    /// at a `finish` nests the helped task's frames on top).
    depth: usize,
}

struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// How often (in instructions) each worker polls cancel and deadline.
const POLL_STRIDE: u64 = 64;

struct Engine<'a> {
    p: &'a Program,
    cells: Vec<AtomicI64>,
    detector: Detector,
    deques: Vec<Mutex<VecDeque<Task<'a>>>>,
    /// Budget, cancellation, the first exhaustion and the crew's stop
    /// flag.
    meter: SharedMeter,
    faults: &'a FaultPlan,
    grain: usize,
    max_steps: u64,
    next_tid: AtomicU32,
    steps: AtomicU64,
    cancelled: AtomicBool,
    panicked: Mutex<Option<(usize, String)>>,
    root_done: AtomicBool,
    root_completed: AtomicBool,
}

/// The helper functions return `Err(())` for "stop now"; the reason is
/// already recorded in the engine's control block.
type Go = Result<(), ()>;

impl<'a> Engine<'a> {
    /// Stops the crew with exhaustion `e` (the first one recorded wins).
    fn trip(&self, e: Exhaustion) -> Go {
        self.meter.note_exhaustion(e);
        Err(())
    }

    /// Polls cancellation and the deadline.
    fn poll(&self) -> Go {
        self.meter.checkpoint().map_err(|stop| {
            if stop == Stop::Cancelled {
                self.cancelled.store(true, Ordering::Release);
            }
        })
    }

    /// Charges one executed instruction and polls the stop conditions.
    fn charge(&self) -> Go {
        if self.meter.is_stopped() {
            return Err(());
        }
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.max_steps {
            return self.trip(Exhaustion::Steps);
        }
        if self.meter.budget().max_iters.is_some_and(|cap| n > cap) {
            return self.trip(Exhaustion::SolverIterations);
        }
        if n.is_multiple_of(POLL_STRIDE) {
            self.poll()?;
        }
        Ok(())
    }

    fn eval(&self, e: &Expr, label: Label, tid: u32, clock: &VClock) -> i64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Plus1(d) => {
                self.detector.on_read(*d, label, tid, clock);
                self.cells[*d].load(Ordering::Relaxed).wrapping_add(1)
            }
        }
    }

    /// Executes `s` as activity `tid`, spawning into `scope`.
    fn exec(
        &self,
        s: &'a Stmt,
        tid: u32,
        clock: &mut VClock,
        scope: &Arc<Scope>,
        ctx: &mut Wctx,
    ) -> Go {
        use fx10_syntax::InstrKind::*;
        // An `Err` stops the crew, so early returns leave `depth` as is.
        if ctx.depth == MAX_NESTING {
            return self.trip(Exhaustion::Nesting);
        }
        ctx.depth += 1;
        for ins in s.instrs() {
            self.charge()?;
            match &ins.kind {
                Skip => {}
                Assign { idx, expr } => {
                    let v = self.eval(expr, ins.label, tid, clock);
                    self.detector.on_write(*idx, ins.label, tid, clock);
                    self.cells[*idx].store(v, Ordering::Relaxed);
                }
                While { idx, body } => loop {
                    self.detector.on_read(*idx, ins.label, tid, clock);
                    if self.cells[*idx].load(Ordering::Relaxed) == 0 {
                        break;
                    }
                    self.exec(body, tid, clock, scope, ctx)?;
                    self.charge()?;
                },
                Async { body } => {
                    let child_tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
                    let child_clock = VClock::fork(clock, tid, child_tid);
                    if self.grain > 0 && body.size() <= self.grain {
                        // Below the grain: run inline — still a fresh
                        // activity, so detection is unchanged.
                        let mut cc = child_clock;
                        let r = self.exec(body, child_tid, &mut cc, scope, ctx);
                        scope.acc.lock().unwrap().join(&cc);
                        r?;
                    } else {
                        scope.pending.fetch_add(1, Ordering::AcqRel);
                        self.deques[ctx.w].lock().unwrap().push_back(Task {
                            stmt: body,
                            scope: scope.clone(),
                            tid: child_tid,
                            clock: child_clock,
                            is_root: false,
                        });
                    }
                }
                Finish { body } => {
                    let inner = Arc::new(Scope::new());
                    self.exec(body, tid, clock, &inner, ctx)?;
                    self.wait_scope(&inner, ctx)?;
                    clock.join(&inner.acc.lock().unwrap());
                }
                Call { callee } => {
                    self.exec(self.p.body(*callee), tid, clock, scope, ctx)?;
                }
            }
        }
        ctx.depth -= 1;
        Ok(())
    }

    /// Blocks until `scope`'s latch reaches zero, helping: any runnable
    /// task is executed inline rather than spinning.
    fn wait_scope(&self, scope: &Scope, ctx: &mut Wctx) -> Go {
        let mut idle = 0u64;
        while scope.pending.load(Ordering::Acquire) > 0 {
            if self.meter.is_stopped() {
                return Err(());
            }
            if let Some(task) = self.grab(ctx) {
                idle = 0;
                self.run_task(task, ctx)?;
            } else {
                idle += 1;
                if idle.is_multiple_of(256) {
                    self.poll()?;
                }
                if idle < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
        }
        Ok(())
    }

    /// Own deque (back) → steal (front of a seeded-random victim).
    fn grab(&self, ctx: &mut Wctx) -> Option<Task<'a>> {
        if let Some(t) = self.deques[ctx.w].lock().unwrap().pop_back() {
            return Some(t);
        }
        let n = self.deques.len();
        let start = ctx.rng.next() as usize % n;
        for i in 0..n {
            let v = (start + i) % n;
            if v == ctx.w {
                continue;
            }
            if let Some(t) = self.deques[v].lock().unwrap().pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Runs one task to completion (panics propagate to the worker's
    /// `catch_unwind`; the latch guard keeps the scope sound).
    fn run_task(&self, task: Task<'a>, ctx: &mut Wctx) -> Go {
        ctx.processed += 1;
        if self.faults.should_panic(ctx.w, ctx.processed) {
            panic!("injected fault: worker {} poisoned", ctx.w);
        }
        let mut clock = task.clock;
        let latch = Latch {
            scope: &task.scope,
            armed: !task.is_root,
        };
        let r = self.exec(task.stmt, task.tid, &mut clock, &task.scope, ctx);
        if !task.is_root {
            // Fold the final clock before releasing the latch so the
            // waiter's join sees it.
            task.scope.acc.lock().unwrap().join(&clock);
        }
        latch.release();
        if task.is_root {
            r?;
            // The implicit whole-program finish.
            self.wait_scope(&task.scope, ctx)?;
            self.root_completed.store(true, Ordering::Release);
            self.root_done.store(true, Ordering::Release);
            return Ok(());
        }
        r
    }

    /// Worker `w`'s loop; `first` is the task it runs before grabbing
    /// (the root task for worker 0).
    fn worker(&self, w: usize, seed: u64, mut first: Option<Task<'a>>) {
        let mut ctx = Wctx {
            w,
            rng: Xorshift::new(seed),
            processed: 0,
            depth: 0,
        };
        let mut idle = 0u64;
        loop {
            if self.root_done.load(Ordering::Acquire) || self.meter.is_stopped() {
                return;
            }
            match first.take().or_else(|| self.grab(&mut ctx)) {
                Some(task) => {
                    idle = 0;
                    let r = catch_unwind(AssertUnwindSafe(|| self.run_task(task, &mut ctx)));
                    match r {
                        Ok(_) => {}
                        Err(payload) => {
                            let message = panic_message(payload.as_ref());
                            self.panicked.lock().unwrap().get_or_insert((w, message));
                            self.meter.request_stop();
                            return;
                        }
                    }
                }
                None => {
                    idle += 1;
                    if idle.is_multiple_of(256) && self.poll().is_err() {
                        return;
                    }
                    if idle < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                }
            }
        }
    }
}

/// Runs `p` on the work-stealing crew.
///
/// A one-worker crew runs on the calling thread; larger crews spawn
/// every worker. Outcome precedence matches the explorer: worker panic
/// ([`Fx10Error::WorkerPanicked`], exit 4) > cancellation > budget
/// exhaustion (report with `completed: false`) > completion.
pub fn run_parallel(
    p: &Program,
    input: &[i64],
    cfg: &RtConfig,
    budget: Budget,
    cancel: &CancelToken,
    faults: &FaultPlan,
) -> Result<RunReport, Fx10Error> {
    let jobs = cfg.jobs.max(1);
    let init = ArrayState::with_input(p, input);
    let engine = Engine {
        p,
        cells: init.cells().iter().map(|&v| AtomicI64::new(v)).collect(),
        detector: Detector::new(init.cells().len()),
        deques: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
        meter: SharedMeter::new(budget, cancel.clone()),
        faults,
        grain: cfg.grain,
        max_steps: cfg.max_steps,
        next_tid: AtomicU32::new(1),
        steps: AtomicU64::new(0),
        cancelled: AtomicBool::new(false),
        panicked: Mutex::new(None),
        root_done: AtomicBool::new(false),
        root_completed: AtomicBool::new(false),
    };
    let root_scope = Arc::new(Scope::new());
    let mut root_clock = VClock::new();
    root_clock.bump(0);
    let mut root = Some(Task {
        stmt: p.body(p.main()),
        scope: root_scope,
        tid: 0,
        clock: root_clock,
        is_root: true,
    });
    let wseed = |w: usize| {
        cfg.seed
            .wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    };
    if jobs == 1 {
        engine.worker(0, wseed(0), root.take());
    } else {
        std::thread::scope(|s| {
            let eng = &engine;
            for w in 0..jobs {
                let first = root.take();
                s.spawn(move || eng.worker(w, wseed(w), first));
            }
        });
    }
    if let Some((worker, message)) = engine.panicked.into_inner().unwrap() {
        return Err(Fx10Error::WorkerPanicked { worker, message });
    }
    if engine.cancelled.load(Ordering::Acquire) {
        return Err(Fx10Error::Cancelled);
    }
    let exhausted = engine.meter.exhaustion();
    Ok(RunReport {
        array: engine
            .cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        steps: engine.steps.load(Ordering::Relaxed),
        completed: engine.root_completed.load(Ordering::Acquire) && exhausted.is_none(),
        exhausted,
        races: engine.detector.races(),
        activities: engine.next_tid.load(Ordering::Relaxed),
    })
}

/// Runs `p` serially under sequential elision, race detector on: the
/// crew at one worker, on the calling thread, with every `async`
/// inlined.
///
/// `max_steps` bounds executed instructions ([`Exhaustion::Steps`] when
/// exceeded) and [`MAX_NESTING`] the recursion depth
/// ([`Exhaustion::Nesting`]); `budget`'s iteration cap and deadline are
/// honored as on any crew, and `cancel` unwinds with
/// [`Fx10Error::Cancelled`].
pub fn run_elision(
    p: &Program,
    input: &[i64],
    max_steps: u64,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<RunReport, Fx10Error> {
    let cfg = RtConfig {
        jobs: 1,
        seed: 0,
        grain: usize::MAX,
        max_steps,
    };
    run_parallel(p, input, &cfg, budget, cancel, &FaultPlan::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_robust::PanicFault;
    use std::time::Instant;

    fn cfg(jobs: usize, seed: u64) -> RtConfig {
        RtConfig {
            jobs,
            seed,
            ..RtConfig::default()
        }
    }

    fn run(src: &str, jobs: usize, seed: u64) -> RunReport {
        let p = Program::parse(src).unwrap();
        run_parallel(
            &p,
            &[],
            &cfg(jobs, seed),
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
        )
        .unwrap()
    }

    fn elide(src: &str) -> RunReport {
        let p = Program::parse(src).unwrap();
        run_elision(&p, &[], u64::MAX, Budget::unlimited(), &CancelToken::new()).unwrap()
    }

    #[test]
    fn straight_line_program_computes_and_counts() {
        let out = elide("def main() { a[0] = 1; a[1] = a[0] + 1; }");
        assert!(out.completed);
        assert_eq!(out.array, vec![1, 2]);
        assert_eq!(out.steps, 2);
        assert_eq!(out.activities, 1);
        assert!(out.races.is_empty());
    }

    #[test]
    fn racy_async_is_detected_even_serially() {
        let out = elide("def main() { W1: async { a[0] = 1; } W2: a[0] = 2; }");
        assert!(out.completed);
        assert_eq!(out.races.len(), 1);
        assert_eq!(out.activities, 2);
    }

    #[test]
    fn finish_protects_the_continuation() {
        let out = elide("def main() { finish { async { a[0] = 1; } } a[0] = 2; }");
        assert!(out.completed);
        assert!(out.races.is_empty());
        assert_eq!(out.array, vec![2]);
    }

    #[test]
    fn while_counts_each_guard_evaluation() {
        // a[0]=1; guard true; body sets a[0]=0; guard false.
        let out = elide("def main() { a[0] = 1; while (a[0] != 0) { a[0] = 0; } }");
        assert!(out.completed);
        // assign + guard + body assign + guard = 4.
        assert_eq!(out.steps, 4);
    }

    const FORK_JOIN: &str = "def main() {
        finish { async { a[0] = 1; } async { a[1] = 1; } }
        a[0] = a[1] + 1; a[1] = a[0] + 1;
    }";

    #[test]
    fn fork_join_matches_elision_on_every_crew_size() {
        let p = Program::parse(FORK_JOIN).unwrap();
        let serial =
            run_elision(&p, &[], u64::MAX, Budget::unlimited(), &CancelToken::new()).unwrap();
        assert!(serial.races.is_empty());
        for jobs in [1, 2, 8] {
            for seed in 0..8 {
                let par = run(FORK_JOIN, jobs, seed);
                assert!(par.completed);
                assert_eq!(par.array, serial.array, "jobs={jobs} seed={seed}");
                assert_eq!(par.steps, serial.steps, "jobs={jobs} seed={seed}");
                assert!(par.races.is_empty());
            }
        }
    }

    #[test]
    fn racy_program_is_flagged_by_some_schedule_independently() {
        // Detection is schedule-independent: every run flags the pair.
        for jobs in [1, 4] {
            let out = run("def main() { async { a[0] = 1; } a[0] = 2; }", jobs, 7);
            assert!(out.completed);
            assert_eq!(out.races.len(), 1);
        }
    }

    #[test]
    fn granularity_inlines_without_changing_results() {
        let p = Program::parse(FORK_JOIN).unwrap();
        let coarse = run_parallel(
            &p,
            &[],
            &RtConfig {
                jobs: 4,
                grain: 64,
                ..RtConfig::default()
            },
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
        )
        .unwrap();
        let fine = run(FORK_JOIN, 4, 0);
        assert_eq!(coarse.array, fine.array);
        assert_eq!(coarse.steps, fine.steps);
        assert_eq!(coarse.activities, fine.activities);
    }

    #[test]
    fn injected_panic_releases_the_latch_and_reports_exit_4() {
        // finish over several asyncs; worker 0 panics on its 2nd task.
        let src = "def main() { finish {
            async { a[0] = 1; } async { a[1] = 1; }
            async { a[2] = 1; } async { a[3] = 1; }
        } K; }";
        let p = Program::parse(src).unwrap();
        let faults = FaultPlan {
            panic_worker: Some(PanicFault {
                worker: 0,
                after_states: 2,
            }),
            ..FaultPlan::none()
        };
        // Must return (latch released during unwind), not hang.
        let err = run_parallel(
            &p,
            &[],
            &cfg(2, 3),
            Budget::unlimited(),
            &CancelToken::new(),
            &faults,
        )
        .unwrap_err();
        match &err {
            Fx10Error::WorkerPanicked { worker, .. } => assert_eq!(*worker, 0),
            e => panic!("expected WorkerPanicked, got {e}"),
        }
        assert_eq!(err.exit_code(), 4);
    }

    /// Runs `p` under elision and on crews of one and two workers.
    fn every_engine(
        p: &Program,
        max_steps: u64,
        budget: Budget,
        cancel: &CancelToken,
    ) -> Vec<Result<RunReport, Fx10Error>> {
        let mut out = vec![run_elision(p, &[], max_steps, budget, cancel)];
        for jobs in [1, 2] {
            let crew = RtConfig {
                jobs,
                max_steps,
                ..RtConfig::default()
            };
            out.push(run_parallel(
                p,
                &[],
                &crew,
                budget,
                cancel,
                &FaultPlan::none(),
            ));
        }
        out
    }

    #[test]
    fn cancellation_unwinds_and_deadline_truncates() {
        // Diverging loop: only cancellation or the deadline can stop it.
        let p = Program::parse("def main() { a[0] = 1; while (a[0] != 0) { S; } }").unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        for out in every_engine(&p, u64::MAX, Budget::unlimited(), &cancel) {
            assert!(matches!(out, Err(Fx10Error::Cancelled)));
        }

        let budget = Budget {
            deadline: Some(Instant::now() + Duration::from_millis(50)),
            ..Budget::unlimited()
        };
        for out in every_engine(&p, u64::MAX, budget, &CancelToken::new()) {
            let out = out.unwrap();
            assert!(!out.completed);
            assert_eq!(out.exhausted, Some(Exhaustion::Deadline));
        }
    }

    #[test]
    fn step_cap_reports_steps_exhaustion() {
        let p = Program::parse("def main() { S1; S2; S3; S4; }").unwrap();
        for out in every_engine(&p, 2, Budget::unlimited(), &CancelToken::new()) {
            let out = out.unwrap();
            assert!(!out.completed);
            assert_eq!(out.exhausted, Some(Exhaustion::Steps));
            assert_eq!(out.steps, 3); // the third charge tripped
        }
    }
}
