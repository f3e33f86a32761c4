//! `fx10` — command-line driver for the FX10 calculus and its MHP
//! analysis.
//!
//! ```text
//! fx10 parse   <file.fx10>                    check & pretty-print
//! fx10 run     <file.fx10> [--sched S] [--input v,v,...] [--steps N]
//!              [--jobs N [--schedule-seed S] [--grain G] | --elide]  real parallel runtime
//! fx10 explore <file.fx10> [--max-states N] [--jobs N]   exhaustive dynamic MHP
//!              [--checkpoint F [--checkpoint-every N]] [--resume F] [--digest-xor]
//! fx10 mhp     <file.fx10> [--ci]             static MHP pairs
//! fx10 race    <file.fx10>                    MHP-based race report
//! fx10 lint    <file.fx10> [--format text|json|sarif] [--deny CODE] [--allow CODE]
//!              [--witness-states N] [--input v,v,...] [--domain D]  full diagnostics suite
//! fx10 absint  <file.fx10> [--domain const|interval|parity] [--input v,v,...]
//!              [--format text|json]               abstract value analysis
//! fx10 check   <file.fx10> [--ladder]         soundness: dynamic ⊆ static
//! fx10 x10     <file.x10>  [--ci]             X10-Lite condensed analysis
//! fx10 bench   <name|all>                     run a suite benchmark
//! ```
//!
//! Every command accepts the resource-budget flags `--budget-states`,
//! `--budget-iters` and `--timeout-ms`; a budget-cut run reports its
//! partial result, says which budget tripped, and exits 3. A flag that is
//! meaningless for the given command is a usage error (exit 2), never
//! silently ignored.
//!
//! `explore` and `check` run the work-stealing interned explorer with
//! `--jobs N` worker threads (default: the machine's available
//! parallelism). Results are schedule-independent: every `--jobs` value
//! computes the same states, MHP pairs and verdicts.
//!
//! **Durability.** `explore --checkpoint F` writes a consistent snapshot
//! of the whole exploration (interner, visited set, frontier) to `F`
//! every `--checkpoint-every N` admitted states and once more on exit;
//! `explore --resume F` restarts from such a snapshot and produces
//! byte-identical results to an uninterrupted run. A corrupt or
//! mismatched snapshot is a typed usage error (exit 2). Both explorer
//! commands run under a heartbeat watchdog that converts a wedged worker
//! into a typed stall error (exit 4) instead of a hang. `check --ladder`
//! runs the supervised degradation ladder (parallel explore → sequential
//! explore → CS analysis → CI analysis) and reports which rung answered.
//! `explore --digest-xor` additionally prints an order-independent digest
//! of the visited-state set — the currency of the differential oracle.
//!
//! **Chaos hooks.** The env vars `FX10_KILL_AT_CHECKPOINT`,
//! `FX10_WEDGE_WORKER=k[:after]` and `FX10_STALL_MS` inject
//! deterministic faults for the chaos harness. They are parsed as
//! strictly as flags and accepted only on the commands that explore
//! (`explore`, `check`); anywhere else they are a usage error (exit 2),
//! never a silent no-op.
//!
//! Exit codes:
//!
//! | code | meaning |
//! |------|---------------------------------------------------|
//! | 0    | success, conclusive answer                        |
//! | 1    | analysis error (parse / validation / io / unsound)|
//! | 2    | usage error / invalid snapshot                    |
//! | 3    | budget exhausted — result partial / inconclusive  |
//! | 4    | cancelled, or a worker thread panicked or stalled |
//!
//! A reader that closes stdout early leaves the exit code unchanged.
//!
//! `lint` layers the diagnostic suite from `fx10-lints` on the same
//! contract: `--deny CODE` exits 1 when any matching finding survives
//! `--allow` filtering (a denied finding outranks a budget-cut exit 3);
//! selectors match exact codes, dash-boundary groups (`race` matches
//! `race-write-write`), or `all`. Unknown selectors are usage errors.

use fx10_core::{analyze_with_budget, analyze_with_fallback, AnalysisPath, Supervisor};
use fx10_robust::{Budget, CancelToken, Exhaustion, FaultPlan, Fx10Error, PanicFault};
use fx10_runtime::Scheduler;
use fx10_semantics::{
    explore_parallel_durable, CheckpointSpec, Durability, ExploreConfig, ExplorerSnapshot,
    WatchdogSpec,
};
use fx10_syntax::Program;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fx10 <parse|run|explore|mhp|race|lint|absint|check|x10|bench> <file|name> [options]\n\
         options:\n\
           --sched <leftmost|rightmost|random[:seed]>   single-path walker schedule (run)\n\
           --input v,v,...                              initial array (run/explore/check)\n\
           --steps N                                    step budget (run)\n\
           --max-states N                               exploration cap (explore/check)\n\
           --jobs N                                     worker threads (run/explore/check)\n\
           --schedule-seed S                            work-stealing victim order seed (run)\n\
           --grain N                                    inline asyncs of <= N instructions (run)\n\
           --elide                                      sequential-elision oracle run (run)\n\
           --checkpoint <file>                          durable snapshot file (explore)\n\
           --checkpoint-every N                         states between snapshots (explore)\n\
           --resume <file>                              resume from a snapshot (explore)\n\
           --digest-xor                                 print the visited-set digest (explore)\n\
           --ladder                                     supervised degradation ladder (check)\n\
           --format <text|json|sarif>                   lint report format (lint)\n\
           --deny <code>                                exit 1 on matching findings (lint)\n\
           --allow <code>                               suppress matching findings (lint)\n\
           --witness-states N                           per-finding witness state cap, one shared search; 0 = off (lint)\n\
           --domain <const|interval|parity>             abstract domain (absint/lint/race)\n\
           --ci                                         context-insensitive analysis\n\
           --solver <naive|worklist>                    fixed-point algorithm\n\
           --places                                     same-place MHP refinement (x10)\n\
           --budget-states N                            distinct-state budget (exit 3 when cut)\n\
           --budget-iters N                             solver constraint-evaluation budget\n\
           --timeout-ms N                               wall-clock budget for the command\n\
           --fallback-ci                                degrade CS -> CI when the budget trips (mhp)\n\
         exit codes: 0 ok, 1 analysis error, 2 usage/bad snapshot, 3 budget exhausted,\n\
                     4 cancelled/panicked/stalled"
    );
    ExitCode::from(2)
}

/// Output format for `fx10 lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
    Sarif,
}

struct Opts {
    sched: Scheduler,
    input: Vec<i64>,
    /// True when `--input` appeared: the value analysis then runs over
    /// the exact abstracted input instead of `⊤`.
    input_set: bool,
    domain: fx10_absint::Domain,
    steps: u64,
    max_states: usize,
    jobs: usize,
    ci: bool,
    solver: fx10_core::analysis::SolverKind,
    places: bool,
    budget_states: Option<usize>,
    budget_iters: Option<u64>,
    timeout_ms: Option<u64>,
    fallback_ci: bool,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    resume: Option<String>,
    ladder: bool,
    format: LintFormat,
    deny: Vec<String>,
    allow: Vec<String>,
    witness_states: usize,
    /// `FX10_KILL_AT_CHECKPOINT` — simulate a process kill right after
    /// the Nth durable checkpoint (the chaos harness's SIGKILL stand-in).
    kill_at: Option<u64>,
    /// `FX10_WEDGE_WORKER=k[:after]` — wedge explorer worker `k` after
    /// `after` processed states (watchdog fault injection).
    wedge: Option<PanicFault>,
    /// `FX10_STALL_MS` — override the 10 s watchdog stall threshold.
    stall_ms: Option<u64>,
    /// `--digest-xor` — print an order-independent digest of the
    /// visited-state set (collects every state's rendering).
    digest_xor: bool,
    /// True when any of `--jobs`/`--schedule-seed`/`--grain` appeared on
    /// `run`: dispatch to the real work-stealing runtime instead of the
    /// semantics stepper.
    use_runtime: bool,
    /// `--schedule-seed S` — seeds the runtime's stealing order.
    schedule_seed: Option<u64>,
    /// `--grain N` — inline `async` bodies of at most N instructions.
    grain: usize,
    /// `--elide` — run the sequential-elision oracle engine.
    elide: bool,
}

impl Opts {
    /// The resource budget requested on the command line.
    fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(n) = self.budget_states {
            b = b.with_max_states(n);
        }
        if let Some(n) = self.budget_iters {
            b = b.with_max_iters(n);
        }
        if let Some(ms) = self.timeout_ms {
            b = b.with_timeout(Duration::from_millis(ms));
        }
        b
    }

    fn mode(&self) -> fx10_core::Mode {
        if self.ci {
            fx10_core::Mode::ContextInsensitive { keep_scross: true }
        } else {
            fx10_core::Mode::ContextSensitive
        }
    }

    fn checkpoint_spec(&self) -> Option<CheckpointSpec> {
        self.checkpoint.as_ref().map(|p| CheckpointSpec {
            path: PathBuf::from(p),
            every: self.checkpoint_every,
        })
    }

    /// The explorer watchdog: 10 s stall threshold by default,
    /// `FX10_STALL_MS` for tests that need a fast trigger. Polling scales
    /// with the threshold so short thresholds are detected promptly.
    fn watchdog(&self) -> WatchdogSpec {
        let stall_ms = self.stall_ms.unwrap_or(10_000);
        WatchdogSpec {
            stall_after: Duration::from_millis(stall_ms),
            poll: Duration::from_millis((stall_ms / 10).clamp(5, 50)),
        }
    }

    /// The fault plan assembled from the chaos-testing env hooks.
    fn faults(&self) -> FaultPlan {
        FaultPlan {
            wedge_worker: self.wedge,
            kill_at_checkpoint: self.kill_at,
            ..FaultPlan::none()
        }
    }
}

/// The report writer: every byte a command prints to stdout goes through
/// it. The first write error is kept and later writes are dropped, so a
/// reader that closes the pipe early (`fx10 explore … | head -1`) ends the
/// report quietly instead of panicking in `println!`.
struct Report {
    sink: io::Stdout,
    error: Option<io::Error>,
}

impl Report {
    /// The method `write!`/`writeln!` call.
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        if self.error.is_none() {
            if let Err(e) = self.sink.write_fmt(args) {
                self.error = Some(e);
            }
        }
    }

    /// Flushes the report. A closed pipe is not an error: the reader
    /// asked for no more, and the run's own exit code stands. Any other
    /// write failure is a typed I/O error (exit 1).
    fn finish(mut self) -> Result<(), Fx10Error> {
        if self.error.is_none() {
            self.error = self.sink.flush().err();
        }
        match self.error {
            Some(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(Fx10Error::Io {
                path: "<stdout>".to_string(),
                message: e.to_string(),
            }),
            _ => Ok(()),
        }
    }
}

/// The explorer summary: identical stdout modulo the leading `jobs:`
/// line, which is what lets the chaos harness diff a resumed run
/// against an uninterrupted reference.
fn print_exploration(out: &mut Report, p: &Program, e: &fx10_semantics::Exploration) {
    writeln!(
        out,
        "{} state(s) visited{}, {} terminal(s), deadlock-free: {}",
        e.visited,
        match e.exhausted {
            Some(x) => format!(" (truncated: {x} exhausted)"),
            None => String::new(),
        },
        e.terminals,
        e.deadlock_free
    );
    writeln!(out, "dynamic MHP pairs ({}):", e.mhp.len());
    for &(a, b) in &e.mhp {
        writeln!(
            out,
            "  ({}, {})",
            p.labels().display(a),
            p.labels().display(b)
        );
    }
    if let Some((xor, n)) = e.digest_xor {
        writeln!(out, "digest-xor: {xor:016x} over {n} state(s)");
    }
}

/// The termination, array and result lines every `run` mode prints.
fn print_run_lines(out: &mut Report, run: &fx10_runtime::RunReport) {
    if run.completed {
        writeln!(out, "completed in {} steps", run.steps);
    } else if let Some(e) = run.exhausted {
        writeln!(out, "{e} exhausted after {} steps", run.steps);
    }
    writeln!(out, "a = {:?}", run.array);
    writeln!(
        out,
        "result a[0] = {}",
        run.array.first().copied().unwrap_or(0)
    );
}

/// The shared tail of the runtime `run` paths. Deliberately identical
/// across engines — only the leading `runtime:` banner names the engine
/// and its knobs — so the CI elision oracle can diff a parallel run
/// against the serial one with `grep -v '^runtime:'` and demand byte
/// identity for race-free programs.
fn print_run_report(out: &mut Report, p: &Program, banner: &str, run: &fx10_runtime::RunReport) {
    writeln!(out, "runtime: {banner}");
    print_run_lines(out, run);
    if run.races.is_empty() {
        writeln!(out, "races: none");
    } else {
        writeln!(
            out,
            "races: {} race(s) on {} label pair(s):",
            run.races.len(),
            // Sorted pair-major: a pair's races are adjacent.
            run.races.chunk_by(|x, y| x.pair == y.pair).count()
        );
        for r in &run.races {
            writeln!(
                out,
                "  ({}, {}) on a[{}]",
                p.labels().display(r.pair.0),
                p.labels().display(r.pair.1),
                r.cell
            );
        }
    }
}

/// Parses the option tail, returning the options plus the list of flags
/// that actually appeared (for the per-command validity audit).
fn parse_opts(args: &[String]) -> Result<(Opts, Vec<&'static str>), String> {
    let mut o = Opts {
        sched: Scheduler::Leftmost,
        input: vec![],
        input_set: false,
        domain: fx10_absint::Domain::Interval,
        steps: 1_000_000,
        max_states: 200_000,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ci: false,
        solver: fx10_core::analysis::SolverKind::Naive,
        places: false,
        budget_states: None,
        budget_iters: None,
        timeout_ms: None,
        fallback_ci: false,
        checkpoint: None,
        checkpoint_every: 1024,
        resume: None,
        ladder: false,
        format: LintFormat::Text,
        deny: vec![],
        allow: vec![],
        witness_states: 10_000,
        kill_at: None,
        wedge: None,
        stall_ms: None,
        digest_xor: false,
        use_runtime: false,
        schedule_seed: None,
        grain: 0,
        elide: false,
    };
    let mut seen: Vec<&'static str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        // Record every flag spelling we recognize below; unknown ones
        // fall through to the final match arm's error.
        if let Some(known) = KNOWN_FLAGS.iter().find(|k| **k == args[i]) {
            seen.push(known);
        }
        match args[i].as_str() {
            "--sched" => {
                i += 1;
                let v = args.get(i).ok_or("--sched needs a value")?;
                o.sched = match v.split(':').collect::<Vec<_>>().as_slice() {
                    ["leftmost"] => Scheduler::Leftmost,
                    ["rightmost"] => Scheduler::Rightmost,
                    ["random"] => Scheduler::Random(0xf10),
                    ["random", seed] => Scheduler::Random(seed.parse().map_err(|_| "bad seed")?),
                    _ => return Err(format!("unknown scheduler `{v}`")),
                };
            }
            "--input" => {
                i += 1;
                let v = args.get(i).ok_or("--input needs a value")?;
                // Strict: every comma-separated segment must be an
                // integer. An empty segment (`1,,2`, a trailing comma, or
                // an empty value) is a usage error, not a silent skip.
                o.input = v
                    .split(',')
                    .map(|s| {
                        let t = s.trim();
                        t.parse().map_err(|_| {
                            format!(
                                "bad --input segment `{t}` in `{v}` \
                                 (expected comma-separated integers)"
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
                o.input_set = true;
            }
            "--steps" => {
                i += 1;
                o.steps = args
                    .get(i)
                    .ok_or("--steps needs a value")?
                    .parse()
                    .map_err(|_| "bad step count")?;
            }
            "--max-states" => {
                i += 1;
                o.max_states = args
                    .get(i)
                    .ok_or("--max-states needs a value")?
                    .parse()
                    .map_err(|_| "bad state count")?;
            }
            "--jobs" => {
                i += 1;
                o.jobs = args
                    .get(i)
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|_| "bad job count")?;
                if o.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--budget-states" => {
                i += 1;
                o.budget_states = Some(
                    args.get(i)
                        .ok_or("--budget-states needs a value")?
                        .parse()
                        .map_err(|_| "bad state budget")?,
                );
            }
            "--budget-iters" => {
                i += 1;
                o.budget_iters = Some(
                    args.get(i)
                        .ok_or("--budget-iters needs a value")?
                        .parse()
                        .map_err(|_| "bad iteration budget")?,
                );
            }
            "--timeout-ms" => {
                i += 1;
                o.timeout_ms = Some(
                    args.get(i)
                        .ok_or("--timeout-ms needs a value")?
                        .parse()
                        .map_err(|_| "bad timeout")?,
                );
            }
            "--checkpoint" => {
                i += 1;
                o.checkpoint = Some(args.get(i).ok_or("--checkpoint needs a value")?.clone());
            }
            "--checkpoint-every" => {
                i += 1;
                o.checkpoint_every = args
                    .get(i)
                    .ok_or("--checkpoint-every needs a value")?
                    .parse()
                    .map_err(|_| "bad checkpoint interval")?;
                if o.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be at least 1".to_string());
                }
            }
            "--resume" => {
                i += 1;
                o.resume = Some(args.get(i).ok_or("--resume needs a value")?.clone());
            }
            "--format" => {
                i += 1;
                let v = args.get(i).ok_or("--format needs a value")?;
                o.format = match v.as_str() {
                    "text" => LintFormat::Text,
                    "json" => LintFormat::Json,
                    "sarif" => LintFormat::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--deny" | "--allow" => {
                let flag = args[i].clone();
                i += 1;
                let v = args.get(i).ok_or_else(|| format!("{flag} needs a value"))?;
                for sel in v.split(',').filter(|s| !s.is_empty()) {
                    if !fx10_lints::selector_is_known(sel) {
                        return Err(format!(
                            "unknown rule selector `{sel}` (see `fx10 lint` rules: {})",
                            fx10_lints::RULES
                                .iter()
                                .map(|r| r.code)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                    if flag == "--deny" {
                        o.deny.push(sel.to_string());
                    } else {
                        o.allow.push(sel.to_string());
                    }
                }
            }
            "--domain" => {
                i += 1;
                let v = args.get(i).ok_or("--domain needs a value")?;
                o.domain = fx10_absint::Domain::parse(v).ok_or_else(|| {
                    format!("unknown domain `{v}` (expected const, interval, or parity)")
                })?;
            }
            "--witness-states" => {
                i += 1;
                o.witness_states = args
                    .get(i)
                    .ok_or("--witness-states needs a value")?
                    .parse()
                    .map_err(|_| "bad witness state count")?;
            }
            "--schedule-seed" => {
                i += 1;
                o.schedule_seed = Some(
                    args.get(i)
                        .ok_or("--schedule-seed needs a value")?
                        .parse()
                        .map_err(|_| "bad schedule seed")?,
                );
            }
            "--grain" => {
                i += 1;
                o.grain = args
                    .get(i)
                    .ok_or("--grain needs a value")?
                    .parse()
                    .map_err(|_| "bad grain")?;
            }
            "--elide" => o.elide = true,
            "--digest-xor" => o.digest_xor = true,
            "--ladder" => o.ladder = true,
            "--fallback-ci" => o.fallback_ci = true,
            "--ci" => o.ci = true,
            "--places" => o.places = true,
            "--solver" => {
                i += 1;
                let v = args.get(i).ok_or("--solver needs a value")?;
                o.solver = match v.as_str() {
                    "naive" => fx10_core::analysis::SolverKind::Naive,
                    "worklist" => fx10_core::analysis::SolverKind::Worklist,
                    other => return Err(format!("unknown solver `{other}`")),
                };
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if o.checkpoint.is_none() && seen.contains(&"--checkpoint-every") {
        return Err("--checkpoint-every requires --checkpoint".to_string());
    }
    Ok((o, seen))
}

/// Every flag [`parse_opts`] understands, for the seen-flag audit.
const KNOWN_FLAGS: &[&str] = &[
    "--sched",
    "--input",
    "--steps",
    "--max-states",
    "--jobs",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
    "--digest-xor",
    "--schedule-seed",
    "--grain",
    "--elide",
    "--ladder",
    "--format",
    "--deny",
    "--allow",
    "--witness-states",
    "--domain",
    "--fallback-ci",
    "--ci",
    "--places",
    "--solver",
    "--budget-states",
    "--budget-iters",
    "--timeout-ms",
];

/// The flags each command accepts (the resource budgets are global).
/// Anything outside the command's row is reported as a usage error
/// instead of being silently ignored — `fx10 mhp f --jobs 8` means the
/// user thinks `mhp` is parallel, and pretending to obey would mislead.
fn allowed_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "parse" => &[],
        "run" => &[
            "--sched",
            "--steps",
            "--input",
            "--jobs",
            "--schedule-seed",
            "--grain",
            "--elide",
        ],
        "explore" => &[
            "--input",
            "--max-states",
            "--jobs",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
            "--digest-xor",
        ],
        "mhp" => &["--ci", "--solver", "--fallback-ci"],
        "race" => &["--ci", "--solver", "--domain", "--input"],
        "lint" => &[
            "--input",
            "--format",
            "--deny",
            "--allow",
            "--witness-states",
            "--solver",
            "--domain",
        ],
        "absint" => &["--input", "--domain", "--format", "--solver"],
        "check" => &["--max-states", "--jobs", "--solver", "--input", "--ladder"],
        "x10" => &["--ci", "--solver", "--places"],
        "bench" => &["--ci", "--solver"],
        _ => &[],
    }
}

/// Rejects flags that are valid in general but meaningless for `cmd`.
/// The budget trio is global; everything else must be in the command's
/// [`allowed_flags`] row.
fn validate_flags(cmd: &str, seen: &[&'static str]) -> Result<(), String> {
    const GLOBAL: &[&str] = &["--budget-states", "--budget-iters", "--timeout-ms"];
    let allowed = allowed_flags(cmd);
    for flag in seen {
        if !GLOBAL.contains(flag) && !allowed.contains(flag) {
            return Err(format!("`{flag}` is not valid for `{cmd}`"));
        }
    }
    Ok(())
}

/// Chaos-testing hooks, env-var driven so the e2e harness can inject
/// faults through an unmodified binary. Values are parsed as strictly as
/// command-line flags: garbage is a usage error, not a silent no-op.
///
/// The hooks steer the explorer's fault plan and watchdog, so they are only meaningful on the commands that explore (`explore`,
/// `check`). Anywhere else — including the real runtime behind
/// `fx10 run --jobs` — a set hook is rejected (exit 2): a chaos harness
/// that exports `FX10_KILL_AT_CHECKPOINT` around `fx10 mhp` or
/// `fx10 run` believes it is injecting faults, and silently ignoring it
/// would turn every such run into a false "survived the fault" result.
/// (The runtime's own panic isolation is fault-injected through the
/// library [`FaultPlan`], exercised by the workspace test suite.)
fn env_hooks(o: &mut Opts, cmd: &str) -> Result<(), String> {
    fn var(name: &str) -> Result<Option<String>, String> {
        match std::env::var_os(name) {
            None => Ok(None),
            Some(v) => v
                .into_string()
                .map(Some)
                .map_err(|_| format!("{name} must be UTF-8")),
        }
    }
    let explores = matches!(cmd, "explore" | "check");
    if !explores {
        const HOOKS: &[&str] = &[
            "FX10_KILL_AT_CHECKPOINT",
            "FX10_WEDGE_WORKER",
            "FX10_STALL_MS",
        ];
        for name in HOOKS {
            if var(name)?.is_some() {
                return Err(format!(
                    "{name} only applies to commands that explore (explore, check); \
                     unset it to run `{cmd}`"
                ));
            }
        }
        return Ok(());
    }
    if let Some(v) = var("FX10_KILL_AT_CHECKPOINT")? {
        let n: u64 = v
            .parse()
            .map_err(|_| format!("bad FX10_KILL_AT_CHECKPOINT `{v}`"))?;
        if n == 0 {
            return Err("FX10_KILL_AT_CHECKPOINT is 1-based; must be >= 1".to_string());
        }
        o.kill_at = Some(n);
    }
    if let Some(v) = var("FX10_WEDGE_WORKER")? {
        let (worker, after) = match v.split_once(':') {
            Some((w, a)) => (
                w.parse()
                    .map_err(|_| format!("bad FX10_WEDGE_WORKER worker `{w}`"))?,
                a.parse()
                    .map_err(|_| format!("bad FX10_WEDGE_WORKER threshold `{a}`"))?,
            ),
            None => (
                v.parse()
                    .map_err(|_| format!("bad FX10_WEDGE_WORKER `{v}`"))?,
                0,
            ),
        };
        o.wedge = Some(PanicFault {
            worker,
            after_states: after,
        });
    }
    if let Some(v) = var("FX10_STALL_MS")? {
        let n: u64 = v.parse().map_err(|_| format!("bad FX10_STALL_MS `{v}`"))?;
        if n == 0 {
            return Err("FX10_STALL_MS must be >= 1".to_string());
        }
        o.stall_ms = Some(n);
    }
    Ok(())
}

fn load(path: &str) -> Result<Program, Fx10Error> {
    let src = std::fs::read_to_string(path).map_err(|e| Fx10Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    Program::parse(&src).map_err(|e| Fx10Error::Parse {
        line: e.line,
        message: e.message,
    })
}

/// What a command run concluded. `Inconclusive` means a budget cut the
/// computation short: the printed result is partial and the process exits
/// with code 3 so scripts can tell "no race found" from "ran out of gas".
enum Verdict {
    Conclusive,
    Inconclusive(Exhaustion),
}

impl Verdict {
    fn of(exhausted: Option<Exhaustion>) -> Self {
        match exhausted {
            Some(e) => Verdict::Inconclusive(e),
            None => Verdict::Conclusive,
        }
    }
}

fn run_command(
    cmd: &str,
    target: &str,
    opts: &Opts,
    out: &mut Report,
) -> Result<Verdict, Fx10Error> {
    let budget = opts.budget();
    let cancel = CancelToken::new();
    match cmd {
        "parse" => {
            let p = load(target)?;
            writeln!(
                out,
                "{} method(s), {} instruction(s), array length {}",
                p.method_count(),
                p.label_count(),
                p.array_len()
            );
            write!(out, "{}", fx10_syntax::pretty::program(&p));
            Ok(Verdict::Conclusive)
        }
        "run" if opts.elide => {
            let p = load(target)?;
            let run = fx10_runtime::run_elision(&p, &opts.input, opts.steps, budget, &cancel)?;
            print_run_report(out, &p, "sequential elision (serial oracle run)", &run);
            Ok(Verdict::of(run.exhausted))
        }
        "run" if opts.use_runtime => {
            let p = load(target)?;
            let cfg = fx10_runtime::RtConfig {
                jobs: opts.jobs,
                seed: opts.schedule_seed.unwrap_or(0),
                grain: opts.grain,
                max_steps: opts.steps,
            };
            let run =
                fx10_runtime::run_parallel(&p, &opts.input, &cfg, budget, &cancel, &opts.faults())?;
            print_run_report(
                out,
                &p,
                &format!(
                    "work-stealing crew, {} worker(s), schedule seed {}, grain {}",
                    cfg.jobs, cfg.seed, cfg.grain
                ),
                &run,
            );
            Ok(Verdict::of(run.exhausted))
        }
        "run" => {
            let p = load(target)?;
            let run = fx10_runtime::run_scheduled(
                &p,
                &opts.input,
                &opts.sched,
                opts.steps,
                budget,
                &cancel,
            )?;
            print_run_lines(out, &run);
            Ok(Verdict::of(run.exhausted))
        }
        "explore" => {
            let p = load(target)?;
            // Load the snapshot before spinning anything up: a corrupt or
            // mismatched file must be a clean typed error (exit 2).
            let resumed = match &opts.resume {
                Some(path) => {
                    let snap = ExplorerSnapshot::load(std::path::Path::new(path))?;
                    eprintln!("resuming from `{path}`");
                    Some(snap)
                }
                None => None,
            };
            let e = explore_parallel_durable(
                &p,
                &opts.input,
                ExploreConfig {
                    max_states: opts.max_states,
                    digest_xor: opts.digest_xor,
                    ..ExploreConfig::default()
                },
                opts.jobs,
                budget,
                &cancel,
                &opts.faults(),
                Durability {
                    checkpoint: opts.checkpoint_spec(),
                    resume: resumed.as_ref(),
                    watchdog: Some(opts.watchdog()),
                },
            )?;
            writeln!(out, "jobs: {} (work-stealing interned explorer)", opts.jobs);
            print_exploration(out, &p, &e);
            Ok(Verdict::of(e.exhausted))
        }
        "mhp" => {
            let p = load(target)?;
            let a = if opts.fallback_ci && !opts.ci {
                let fallback = analyze_with_fallback(&p, opts.solver, budget, budget, &cancel)?;
                if fallback.path == AnalysisPath::ContextInsensitiveFallback {
                    let why = fallback
                        .cs_exhaustion
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "budget".to_string());
                    writeln!(
                        out,
                        "context-sensitive analysis exhausted its {why}; \
                         answering with the context-insensitive over-approximation"
                    );
                }
                fallback.analysis
            } else {
                analyze_with_budget(&p, opts.mode(), opts.solver, budget, &cancel)?
            };
            writeln!(
                out,
                "{} analysis: {} constraint(s), iterations S/1/2 = {}/{}/{}",
                match a.mode() {
                    fx10_core::Mode::ContextSensitive => "context-sensitive",
                    fx10_core::Mode::ContextInsensitive { .. } => "context-insensitive",
                },
                a.stats.slabels_constraints
                    + a.stats.level1_constraints
                    + a.stats.level2_constraints,
                a.stats.slabels_passes,
                a.stats.level1_passes,
                a.stats.level2_passes
            );
            let pairs = a.pairs_named(&p);
            writeln!(out, "MHP pairs ({}):", pairs.len());
            for (x, y) in pairs {
                writeln!(out, "  ({x}, {y})");
            }
            let rep = fx10_core::report::async_pairs(&a);
            write!(out, "{}", fx10_core::report::render_report(&p, &rep));
            // A fallback analysis that *completed* is conclusive (a sound
            // over-approximation); a budget-cut one is not.
            if let Some(e) = a.exhausted {
                writeln!(out, "INCONCLUSIVE ({e} exhausted) — pair set is partial");
            }
            Ok(Verdict::of(a.exhausted))
        }
        "race" => {
            let p = load(target)?;
            let a = analyze_with_budget(&p, opts.mode(), opts.solver, budget, &cancel)?;
            let races = fx10_core::race::detect_races(&p, &a);
            write!(out, "{}", fx10_core::race::render_races(&p, &races));
            // Value-analysis second opinion on every reported pair: an
            // infeasible pair is called out with its unreachability proof;
            // a surviving pair gets the abstract guard facts a fix would
            // have to change. An unlicensed oracle says so instead of
            // pretending the pairs were vetted.
            if !races.is_empty() {
                let input = opts.input_set.then_some(opts.input.as_slice());
                let oracle = fx10_absint::FeasibilityOracle::build(&p, &a, opts.domain, input);
                if oracle.complete {
                    for r in &races {
                        let (x, y) = (r.first.label, r.second.label);
                        if !oracle.pair_feasible(x, y) {
                            let dead = if oracle.label_feasible(x) { y } else { x };
                            writeln!(
                                out,
                                "value-analysis ({}): ({}, {}) is infeasible — {}",
                                oracle.facts.domain(),
                                p.labels().display(x),
                                p.labels().display(y),
                                oracle
                                    .facts
                                    .reason(dead)
                                    .unwrap_or_else(|| "label is unreachable".to_string())
                            );
                        } else {
                            writeln!(
                                out,
                                "value-analysis ({}): ({}, {}) stays feasible — {}; {}",
                                oracle.facts.domain(),
                                p.labels().display(x),
                                p.labels().display(y),
                                oracle.facts.guard_fact(x, &p),
                                oracle.facts.guard_fact(y, &p)
                            );
                        }
                    }
                } else {
                    writeln!(
                        out,
                        "value-analysis ({}): inconclusive — no pair was vetted for feasibility",
                        oracle.facts.domain()
                    );
                }
            }
            if let Some(e) = a.exhausted {
                writeln!(out, "INCONCLUSIVE ({e} exhausted) — race report is partial");
            }
            Ok(Verdict::of(a.exhausted))
        }
        "absint" => {
            let p = load(target)?;
            let a = analyze_with_budget(
                &p,
                fx10_core::Mode::ContextSensitive,
                opts.solver,
                budget,
                &cancel,
            )?;
            let input = opts.input_set.then_some(opts.input.as_slice());
            let oracle = fx10_absint::FeasibilityOracle::build(&p, &a, opts.domain, input);
            // Pruning is reported only when licensed; an inconclusive run
            // renders the facts with `"pruning": null` / no pruning block.
            let prune = oracle.complete.then(|| oracle.prune(&a));
            let input_desc = match input {
                Some(i) => format!("{i:?}"),
                None => "top".to_string(),
            };
            match opts.format {
                LintFormat::Text => write!(
                    out,
                    "{}",
                    fx10_absint::render_text(
                        target,
                        &p,
                        &oracle.facts,
                        prune.as_ref(),
                        &input_desc
                    )
                ),
                LintFormat::Json => write!(
                    out,
                    "{}",
                    fx10_absint::render_json(
                        target,
                        &p,
                        &oracle.facts,
                        prune.as_ref(),
                        &input_desc
                    )
                ),
                LintFormat::Sarif => unreachable!("rejected in main"),
            }
            Ok(Verdict::of(a.exhausted))
        }
        "lint" => {
            let p = load(target)?;
            let mut report = fx10_lints::lint(
                &p,
                &fx10_lints::LintOptions {
                    input: opts.input.clone(),
                    witness_states: opts.witness_states,
                    solver: opts.solver,
                    budget,
                    domain: opts.domain,
                },
                &cancel,
            )?;
            // `--allow` suppresses before rendering: an allowed finding
            // is invisible everywhere, including to `--deny`.
            if !opts.allow.is_empty() {
                report.diagnostics.retain(|d| {
                    !opts
                        .allow
                        .iter()
                        .any(|s| fx10_lints::selector_matches(s, d.code))
                });
            }
            match opts.format {
                LintFormat::Text => write!(out, "{}", fx10_lints::render_text(target, &report)),
                LintFormat::Json => write!(out, "{}", fx10_lints::render_json(target, &report)),
                LintFormat::Sarif => write!(out, "{}", fx10_lints::render_sarif(target, &report)),
            }
            let denied = report.matching(&opts.deny).count();
            if denied > 0 {
                // Deny outranks inconclusive: a partial analysis that
                // still found a denied defect must fail the build.
                return Err(Fx10Error::Validate(format!(
                    "{denied} finding(s) matched --deny {}",
                    opts.deny.join(",")
                )));
            }
            Ok(Verdict::of(report.exhausted))
        }
        "check" if opts.ladder => {
            let p = load(target)?;
            let wd = opts.watchdog();
            let explore_config = ExploreConfig {
                max_states: opts.max_states,
                ..ExploreConfig::default()
            };
            let sup = Supervisor {
                jobs: opts.jobs,
                budget,
                explore_config,
                solver: opts.solver,
                stall_after: wd.stall_after,
                poll: wd.poll,
                ..Supervisor::default()
            };
            let ans = sup.run(&p, &opts.input, &cancel, &opts.faults())?;
            for line in &ans.trace {
                writeln!(out, "ladder: {line}");
            }
            writeln!(out, "ladder: answered on rung {}", ans.rung);
            if !ans.rung.is_dynamic() {
                // No dynamic ground truth was obtainable, so Theorem 2
                // cannot be checked — the static pair set is still a
                // sound over-approximation, but the verdict is partial.
                writeln!(
                    out,
                    "static rung answered with {} pair(s); soundness not checkable \
                     without a dynamic ground truth",
                    ans.pairs.len()
                );
                writeln!(out, "INCONCLUSIVE (dynamic exploration infeasible)");
                return Ok(Verdict::Inconclusive(
                    ans.exhausted.unwrap_or(Exhaustion::States),
                ));
            }
            let a = analyze_with_budget(
                &p,
                fx10_core::Mode::ContextSensitive,
                opts.solver,
                budget,
                &cancel,
            )?;
            if let Some(x) = a.exhausted {
                writeln!(out, "INCONCLUSIVE ({x} exhausted during static analysis)");
                return Ok(Verdict::Inconclusive(x));
            }
            let soundness = a.check_soundness(ans.pairs.iter());
            for &(x, y) in &soundness.missing {
                writeln!(
                    out,
                    "UNSOUND: dynamic pair ({}, {}) not in static MHP",
                    p.labels().display(x),
                    p.labels().display(y)
                );
            }
            writeln!(
                out,
                "dynamic pairs: {}, static pairs: {}, deadlock-free: {}",
                ans.pairs.len(),
                soundness.static_pairs,
                ans.deadlock_free.expect("dynamic rung observes Theorem 1")
            );
            if !soundness.is_sound() {
                return Err(Fx10Error::Validate(format!(
                    "{} dynamic pair(s) missing statically",
                    soundness.missing.len()
                )));
            }
            writeln!(out, "soundness check PASSED (dynamic ⊆ static)");
            Ok(Verdict::Conclusive)
        }
        "check" => {
            let p = load(target)?;
            let a = analyze_with_budget(
                &p,
                fx10_core::Mode::ContextSensitive,
                opts.solver,
                budget,
                &cancel,
            )?;
            let e = explore_parallel_durable(
                &p,
                &opts.input,
                ExploreConfig {
                    max_states: opts.max_states,
                    ..ExploreConfig::default()
                },
                opts.jobs,
                budget,
                &cancel,
                &opts.faults(),
                Durability {
                    checkpoint: None,
                    resume: None,
                    watchdog: Some(opts.watchdog()),
                },
            )?;
            // A budget-cut *static* analysis is an under-approximation, so
            // "dynamic pair missing statically" would be a false alarm:
            // report inconclusive instead of unsound.
            if let Some(x) = a.exhausted {
                writeln!(
                    out,
                    "dynamic pairs: {} ({} states), static pairs: {} (partial)",
                    e.mhp.len(),
                    e.visited,
                    a.mhp().len()
                );
                writeln!(out, "INCONCLUSIVE ({x} exhausted during static analysis)");
                return Ok(Verdict::Inconclusive(x));
            }
            let soundness = a.check_soundness(e.mhp.iter());
            for &(x, y) in &soundness.missing {
                writeln!(
                    out,
                    "UNSOUND: dynamic pair ({}, {}) not in static MHP",
                    p.labels().display(x),
                    p.labels().display(y)
                );
            }
            let missing = soundness.missing.len();
            let static_n = soundness.static_pairs;
            writeln!(
                out,
                "dynamic pairs: {} ({} states{}), static pairs: {}, deadlock-free: {}",
                e.mhp.len(),
                e.visited,
                if e.truncated { ", truncated" } else { "" },
                static_n,
                e.deadlock_free
            );
            if missing > 0 {
                return Err(Fx10Error::Validate(format!(
                    "{missing} dynamic pair(s) missing statically"
                )));
            }
            writeln!(out, "soundness check PASSED (dynamic ⊆ static)");
            // The §8 precision probe: the static overapproximation
            // minus the dynamic underapproximation bounds the false
            // positives. Exact when the exploration completed.
            let gap: Vec<(String, String)> = a
                .mhp()
                .iter_pairs()
                .filter(|&(x, y)| !e.mhp.contains(&(x.min(y), x.max(y))))
                .map(|(x, y)| (p.labels().display(x), p.labels().display(y)))
                .collect();
            if gap.is_empty() {
                writeln!(
                    out,
                    "precision: static == dynamic — zero false positives{}",
                    if e.truncated {
                        " (on the explored prefix)"
                    } else {
                        ""
                    }
                );
            } else {
                writeln!(
                    out,
                    "precision gap ({} pair(s) static-only{}):",
                    gap.len(),
                    if e.truncated {
                        " — upper bound, exploration truncated"
                    } else {
                        " — exact false positives"
                    }
                );
                for (x, y) in gap {
                    writeln!(out, "  ({x}, {y})");
                }
            }
            // A truncated exploration proved soundness only on the
            // explored prefix: surface that as inconclusive (exit 3).
            if e.truncated {
                writeln!(out, "INCONCLUSIVE (state budget exhausted)");
                return Ok(Verdict::Inconclusive(
                    e.exhausted.unwrap_or(Exhaustion::States),
                ));
            }
            Ok(Verdict::Conclusive)
        }
        "x10" => {
            let src = std::fs::read_to_string(target).map_err(|e| Fx10Error::Io {
                path: target.to_string(),
                message: e.to_string(),
            })?;
            let p = fx10_frontend::parse(&src).map_err(|e| Fx10Error::Parse {
                line: e.line,
                message: e.message,
            })?;
            let a = fx10_frontend::analyze_condensed_budgeted(
                &p,
                opts.mode(),
                opts.solver,
                budget,
                &cancel,
            )?;
            let c = p.node_counts();
            writeln!(
                out,
                "{} nodes ({} methods), asyncs: {:?}",
                c.total(),
                c.method,
                p.async_stats()
            );
            writeln!(
                out,
                "constraints S/1/2 = {}/{}/{}, iterations = {}/{}/{}, {:.1} ms",
                a.stats.slabels_constraints,
                a.stats.level1_constraints,
                a.stats.level2_constraints,
                a.stats.slabels_passes,
                a.stats.level1_passes,
                a.stats.level2_passes,
                a.stats.millis
            );
            let rep = fx10_frontend::async_pairs_condensed(&a);
            writeln!(
                out,
                "async-body MHP pairs: total={} self={} same={} diff={}",
                rep.total(),
                rep.self_pairs,
                rep.same_method,
                rep.diff_method
            );
            if opts.places {
                let places = fx10_frontend::PlaceAssignment::compute(&p);
                let refined = fx10_frontend::same_place_pairs(&a, &places);
                writeln!(out,
                    "places refinement: {} abstract place(s); {} of {} MHP pairs may contend at one place",
                    places.place_count(),
                    refined.len(),
                    a.mhp().len()
                );
            }
            if let Some(e) = a.exhausted {
                writeln!(out, "INCONCLUSIVE ({e} exhausted) — pair set is partial");
            }
            Ok(Verdict::of(a.exhausted))
        }
        "bench" => {
            let names: Vec<&str> = if target == "all" {
                fx10_suite::SPECS.iter().map(|s| s.name).collect()
            } else {
                vec![target]
            };
            let mut cut: Option<Exhaustion> = None;
            for name in names {
                let bm = fx10_suite::benchmark(name)
                    .ok_or_else(|| Fx10Error::Validate(format!("unknown benchmark `{name}`")))?;
                let a = fx10_frontend::analyze_condensed_budgeted(
                    &bm.program,
                    opts.mode(),
                    opts.solver,
                    budget,
                    &cancel,
                )?;
                let rep = fx10_frontend::async_pairs_condensed(&a);
                writeln!(
                    out,
                    "{:<12} {:>8.1} ms  {:>7.2} MB  iters {}/{}/{}  pairs {}/{}/{}/{}{}",
                    name,
                    a.stats.millis,
                    a.stats.bytes as f64 / 1e6,
                    a.stats.slabels_passes,
                    a.stats.level1_passes,
                    a.stats.level2_passes,
                    rep.total(),
                    rep.self_pairs,
                    rep.same_method,
                    rep.diff_method,
                    match a.exhausted {
                        Some(e) => format!("  [{e} exhausted]"),
                        None => String::new(),
                    }
                );
                if let Some(e) = a.exhausted {
                    cut.get_or_insert(e);
                }
            }
            Ok(Verdict::of(cut))
        }
        other => Err(Fx10Error::Validate(format!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    const COMMANDS: &[&str] = &[
        "parse", "run", "explore", "mhp", "race", "lint", "absint", "check", "x10", "bench",
    ];
    if !COMMANDS.contains(&cmd) {
        eprintln!("error: unknown command `{cmd}`");
        return usage();
    }
    let (target, optargs) = match rest.split_first() {
        Some((t, o)) => (t.as_str(), o),
        None => return usage(),
    };
    let opts = match parse_opts(optargs) {
        Ok((mut o, seen)) => {
            if let Err(e) = validate_flags(cmd, &seen) {
                eprintln!("error: {e}");
                return usage();
            }
            if let Err(e) = env_hooks(&mut o, cmd) {
                eprintln!("error: {e}");
                return usage();
            }
            if cmd == "run" {
                let runtime_flags = ["--jobs", "--schedule-seed", "--grain"]
                    .iter()
                    .any(|f| seen.contains(f));
                if seen.contains(&"--sched") && (runtime_flags || o.elide) {
                    eprintln!(
                        "error: `--sched` drives the semantics stepper; it conflicts with \
                         the runtime flags (--jobs/--schedule-seed/--grain/--elide)"
                    );
                    return usage();
                }
                if o.elide && runtime_flags {
                    eprintln!(
                        "error: `--elide` runs serially; it conflicts with \
                         --jobs/--schedule-seed/--grain"
                    );
                    return usage();
                }
                o.use_runtime = runtime_flags;
            }
            if cmd == "absint" && o.format == LintFormat::Sarif {
                eprintln!(
                    "error: `absint` renders text or json only (`--format sarif` is for `lint`)"
                );
                return usage();
            }
            o
        }
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };

    let mut out = Report {
        sink: io::stdout(),
        error: None,
    };
    let result = run_command(cmd, target, &opts, &mut out);
    match result.and_then(|verdict| out.finish().map(|()| verdict)) {
        Ok(Verdict::Conclusive) => ExitCode::SUCCESS,
        Ok(Verdict::Inconclusive(e)) => {
            eprintln!("inconclusive: {e} exhausted");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
