//! Exhaustive state-space exploration.
//!
//! For a program `p`, the paper defines
//!
//! ```text
//! MHP(p) = ∪ { parallel(T) | (p, A₀, ⟨s₀⟩) →* (p, A, T) }
//! ```
//!
//! [`explore`] enumerates the reachable states of `(p, A₀)` breadth-first
//! and accumulates exactly this union — the *dynamic*, ground-truth MHP
//! relation. On terminating programs with a sufficient state budget the
//! result is exact; when the budget truncates the search the result is an
//! *under*-approximation, which is still sound to compare against the
//! static analysis (`dynamic ⊆ static` must hold either way).
//!
//! Along the way the explorer machine-checks **Theorem 1 (deadlock
//! freedom)**: every visited state is either `√` or has at least one
//! successor.
//!
//! ## Two engines, one contract
//!
//! - The **sequential reference** ([`explore_budgeted`]) is a cloned-tree
//!   breadth-first search — deliberately simple, the oracle the
//!   differential tests trust.
//! - The **interned engine** ([`explore_parallel_durable`], and its
//!   `jobs = 1` form [`explore_interned_budgeted`]) hash-conses every
//!   statement, tree and array into 32-bit ids (see [`crate::intern`])
//!   so a state is one packed `u64`, and drains the frontier with
//!   *work-stealing* workers: each worker owns a deque (push/pop at the
//!   back), steals the front half of a victim's deque when empty, and
//!   all workers share one [`SharedMeter`] so a global budget bounds the
//!   whole crew.
//!
//! Both engines deduplicate states by **canonical `∥`-form** by default
//! ([`ExploreConfig::canonical_dedup`]): `T₁ ∥ T₂` and `T₂ ∥ T₁` are the
//! same state. Canonicalization is a bisimulation (see
//! [`Tree::canonical`]), so the MHP set, deadlock verdict and terminal
//! count are unchanged while `∥`-symmetric spaces shrink, often
//! exponentially in the number of peer activities. Because the canonical
//! order is *structural* (never interner-id order), results are
//! schedule-independent: any worker count, any steal order, any fault
//! plan yields byte-identical canonical state sets.
//!
//! ## Robustness
//!
//! The budgeted entry points accept a [`Budget`] (state cap, wall-clock
//! deadline, peak visited-set memory), a [`CancelToken`], and — for the
//! parallel engine — a [`FaultPlan`]. Budget exhaustion returns a
//! *partial* [`Exploration`] tagged with its [`Exhaustion`] provenance
//! (state-cap overshoot is bounded by one reservation batch per worker);
//! cancellation returns [`Fx10Error::Cancelled`]; a worker panic (organic
//! or injected) is contained by `catch_unwind` and surfaces as
//! [`Fx10Error::WorkerPanicked`] instead of aborting the process.

use crate::hash::IdSet;
use crate::intern::{
    self, state_key, state_parts, ArrayId, Interner, StateRenderer, Stepper, TreeBits, TreeId,
};
use crate::parallel::{parallel, LabelPair};
use crate::snapshot::{self, ExplorerSnapshot};
use crate::state::ArrayState;
use crate::step::{initial_tree, successors};
use crate::tree::Tree;
use fx10_robust::snapshot::fnv1a64;
use fx10_robust::{Budget, CancelToken, Exhaustion, FaultPlan, Fx10Error, SharedMeter, Stop};
use fx10_syntax::Program;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::Hash;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Exploration limits and state-representation knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Stop expanding after this many distinct states (the search is then
    /// marked truncated). The default (200 000) comfortably covers the
    /// paper's examples.
    pub max_states: usize,
    /// Collapse the administrative `√`-elimination steps (rules 1, 3, 4)
    /// eagerly via [`Tree::normalized`]. Sound for dynamic MHP (the
    /// collapsed states contribute no pairs of their own) and typically
    /// shrinks the state space severalfold; off by default so the
    /// explorer matches the literal semantics.
    pub normalize_admin: bool,
    /// Deduplicate frontier states by their canonical `∥`-form
    /// ([`Tree::canonical`]): `T₁ ∥ T₂` and `T₂ ∥ T₁` are one state.
    /// Sound (swapping `∥` children is a bisimulation) and on by default;
    /// turn off to enumerate the literal, orientation-sensitive space.
    pub canonical_dedup: bool,
    /// Record a canonical digest (`"cells ⊢ tree"`) of every visited
    /// state in [`Exploration::state_digests`]. Off by default — this is
    /// the differential-testing hook, not a production feature.
    pub collect_states: bool,
    /// Fold the FNV-1a hash of every visited state's canonical
    /// rendering into [`Exploration::digest_xor`], one state at a time:
    /// the same digest as XOR-ing over [`Exploration::state_digests`],
    /// without keeping the renderings. Off by default.
    pub digest_xor: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 200_000,
            normalize_admin: false,
            canonical_dedup: true,
            collect_states: false,
            digest_xor: false,
        }
    }
}

/// The result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Number of distinct states visited.
    pub visited: usize,
    /// True when a budget cut the search short (the MHP set is then a
    /// lower bound).
    pub truncated: bool,
    /// Which resource truncated the search, when `truncated` is true.
    /// `Some(States)` covers both the legacy `max_states` cap and an
    /// explicit budget cap.
    pub exhausted: Option<Exhaustion>,
    /// `∪ parallel(T)` over all visited states — dynamic MHP, as
    /// unordered label pairs.
    pub mhp: BTreeSet<LabelPair>,
    /// Theorem 1 verdict: every visited non-`√` state had a successor.
    pub deadlock_free: bool,
    /// Number of terminal (`√`) states reached.
    pub terminals: usize,
    /// Canonical renderings of every visited state, when
    /// [`ExploreConfig::collect_states`] was set. Byte-comparable across
    /// engines, representations (cloned vs interned) and worker counts —
    /// the currency of the differential oracle.
    pub state_digests: Option<BTreeSet<String>>,
    /// The XOR of the FNV-1a hashes of every visited state's canonical
    /// rendering and the number of states folded, when
    /// [`ExploreConfig::digest_xor`] was set. Independent of visiting
    /// order, so equal across engines and worker counts.
    pub digest_xor: Option<(u64, usize)>,
}

impl Exploration {
    /// An empty, truncation-tagged result (the degenerate fallback for
    /// infallible legacy entry points).
    fn empty_truncated() -> Exploration {
        Exploration {
            visited: 0,
            truncated: true,
            exhausted: Some(Exhaustion::States),
            mhp: BTreeSet::new(),
            deadlock_free: true,
            terminals: 0,
            state_digests: None,
            digest_xor: None,
        }
    }
}

/// One state of the transition system (the program is fixed).
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    array: ArrayState,
    tree: Tree,
}

impl State {
    /// Approximate heap footprint, for the peak-set-memory budget.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<State>()
            + self.tree.node_count() * 48
            + std::mem::size_of_val(self.array.cells())
    }

    fn digest(&self) -> String {
        format!("{:?} ⊢ {}", self.array.cells(), self.tree)
    }
}

/// How often the explorers poll the clock and cancel token.
const POLL_STRIDE: usize = 256;

/// Sequential breadth-first exploration from `(A₀(input), ⟨s₀⟩)`.
///
/// Infallible legacy entry point: unlimited budget, no cancellation.
pub fn explore(p: &Program, input: &[i64], config: ExploreConfig) -> Exploration {
    match explore_budgeted(p, input, config, Budget::unlimited(), &CancelToken::new()) {
        Ok(e) => e,
        // Unreachable: with no cancel token holder and no deadline the
        // budgeted explorer cannot fail — but never panic on a library
        // path; degrade to an empty truncated result instead.
        Err(_) => Exploration::empty_truncated(),
    }
}

/// Applies the configured state-shaping (admin normalization, canonical
/// `∥`-form) to a cloned tree.
fn shape(config: &ExploreConfig, t: Tree) -> Tree {
    let t = if config.normalize_admin {
        t.normalized()
    } else {
        t
    };
    if config.canonical_dedup {
        t.canonical()
    } else {
        t
    }
}

/// Sequential breadth-first exploration under a [`Budget`] and a
/// [`CancelToken`] — the cloned-tree *reference engine* the differential
/// oracle compares everything against.
///
/// Budget exhaustion (states, deadline, memory) returns `Ok` with a
/// partial, [`Exploration::exhausted`]-tagged result; cancellation
/// returns [`Fx10Error::Cancelled`].
pub fn explore_budgeted(
    p: &Program,
    input: &[i64],
    config: ExploreConfig,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<Exploration, Fx10Error> {
    explore_budgeted_with_sink(p, input, config, budget, cancel, &mut |_, _| {})
}

/// One concrete observation for the abstract-interpretation differential
/// gate: the array cells of a visited state together with that state's
/// *front* labels (`FTlabels`, the next-executable instructions).
///
/// A sound value analysis must, for every sample, every front label `l`
/// and every cell `d`, have `cells[d] ∈ γ(Env[l][d])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontSample {
    /// The array state `A` of the visited state.
    pub cells: Vec<i64>,
    /// `FTlabels(T)` of the visited state's tree, sorted.
    pub fronts: Vec<fx10_syntax::Label>,
}

/// [`explore_budgeted`] plus a per-state sampling hook: every state
/// admitted to the visited set (the initial state included) is handed to
/// `sink` as a [`FrontSample`]. Sampling covers exactly the states the
/// returned [`Exploration`] counts, so on a truncated run the samples are
/// the explored prefix — still sound to test containment against, since
/// visited ⊆ reachable.
pub fn explore_sampled(
    p: &Program,
    input: &[i64],
    config: ExploreConfig,
    budget: Budget,
    cancel: &CancelToken,
    sink: &mut dyn FnMut(FrontSample),
) -> Result<Exploration, Fx10Error> {
    explore_budgeted_with_sink(p, input, config, budget, cancel, &mut |array, tree| {
        let mut fronts: Vec<fx10_syntax::Label> =
            crate::parallel::ftlabels(tree).into_iter().collect();
        fronts.sort_unstable();
        sink(FrontSample {
            cells: array.cells().to_vec(),
            fronts,
        })
    })
}

fn explore_budgeted_with_sink(
    p: &Program,
    input: &[i64],
    config: ExploreConfig,
    budget: Budget,
    cancel: &CancelToken,
    sink: &mut dyn FnMut(&ArrayState, &Tree),
) -> Result<Exploration, Fx10Error> {
    // A pre-cancelled token stops before any work; the in-flight poll
    // below only fires on the stride.
    cancel.check()?;
    let max_states = budget
        .max_states
        .map_or(config.max_states, |b| b.min(config.max_states));
    let init = State {
        array: ArrayState::with_input(p, input),
        tree: shape(&config, initial_tree(p)),
    };
    let mut approx_bytes = init.approx_bytes();
    let mut visited: HashSet<State> = HashSet::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    sink(&init.array, &init.tree);
    visited.insert(init.clone());
    queue.push_back(init);

    let mut mhp = BTreeSet::new();
    let mut exhausted: Option<Exhaustion> = None;
    let mut deadlock_free = true;
    let mut terminals = 0usize;
    let mut processed = 0usize;

    'bfs: while let Some(st) = queue.pop_front() {
        processed += 1;
        if processed.is_multiple_of(POLL_STRIDE) {
            cancel.check()?;
            if budget.deadline_exceeded() {
                exhausted = Some(Exhaustion::Deadline);
                break 'bfs;
            }
        }
        mhp.extend(parallel(&st.tree));
        if st.tree.is_done() {
            terminals += 1;
            continue;
        }
        let succ = successors(p, &st.array, &st.tree);
        if succ.is_empty() {
            deadlock_free = false; // would falsify Theorem 1
            continue;
        }
        for s in succ {
            let next = State {
                array: s.array,
                tree: shape(&config, s.tree),
            };
            if visited.contains(&next) {
                continue;
            }
            // Both limits are checked only when admitting a new state, as
            // in the interned engine: a space of exactly `max_states`
            // states completes untruncated.
            if visited.len() >= max_states {
                exhausted = Some(Exhaustion::States);
                break 'bfs;
            }
            approx_bytes += next.approx_bytes();
            if budget.memory_exhausted(approx_bytes) {
                exhausted = Some(Exhaustion::Memory);
                break 'bfs;
            }
            sink(&next.array, &next.tree);
            visited.insert(next.clone());
            queue.push_back(next);
        }
    }

    // Drain remaining queued states into the MHP union so truncation never
    // drops information we already paid for.
    for st in queue {
        mhp.extend(parallel(&st.tree));
    }

    let state_digests = config
        .collect_states
        .then(|| visited.iter().map(State::digest).collect());
    let digest_xor = config.digest_xor.then(|| {
        visited.iter().fold((0, 0), |(x, n), s| {
            (x ^ fnv1a64(s.digest().as_bytes()), n + 1)
        })
    });
    Ok(Exploration {
        visited: visited.len(),
        truncated: exhausted.is_some(),
        exhausted,
        mhp,
        deadlock_free,
        terminals,
        state_digests,
        digest_xor,
    })
}

const SHARDS: usize = 64;

/// Shard index of a packed state key (multiplicative hash — the key is
/// already a pair of dense ids, `DefaultHasher` would be overkill).
fn shard_idx(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % SHARDS
}

/// One worker's slot of a per-worker table, on cache lines of its own:
/// packed side by side, the workers' deque mutexes and heartbeat
/// counters would share a line that every push, pop and loop iteration
/// bounces between cores. 128 bytes, because x86 prefetches lines in
/// adjacent pairs.
#[repr(align(128))]
struct Padded<T>(T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Locks a shard, recovering from poisoning: a worker that panicked while
/// holding the lock leaves the structure in a consistent state for our
/// invariants (visited sets only grow; deques hold plain keys), so
/// continuing is safe.
fn lock_shard<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Single-threaded exploration on the *interned* engine — same
/// hash-consed representation as the parallel explorer, no worker
/// threads. Useful as the `jobs = 1` point of scaling comparisons and as
/// a fast sequential engine in its own right.
pub fn explore_interned_budgeted(
    p: &Program,
    input: &[i64],
    config: ExploreConfig,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<Exploration, Fx10Error> {
    explore_parallel_durable(
        p,
        input,
        config,
        1,
        budget,
        cancel,
        &FaultPlan::none(),
        Durability::default(),
    )
}

/// Periodic durable checkpointing for the parallel explorer.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Where the snapshot file lives (atomically replaced on every
    /// checkpoint, so the path always holds the latest complete one).
    pub path: PathBuf,
    /// Take a checkpoint every this many newly-admitted states.
    pub every: usize,
}

/// Watchdog configuration: how long a worker's heartbeat may stay
/// frozen before the crew is declared stalled.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogSpec {
    /// A worker whose heartbeat has not advanced for this long (and has
    /// not exited) is *stalled* — slow workers keep beating at every
    /// loop iteration, including while parked or hunting for work, so
    /// the criterion separates "wedged" from "busy".
    pub stall_after: Duration,
    /// How often the watchdog samples the heartbeats.
    pub poll: Duration,
}

impl Default for WatchdogSpec {
    fn default() -> Self {
        WatchdogSpec {
            stall_after: Duration::from_secs(10),
            poll: Duration::from_millis(50),
        }
    }
}

/// The durability/supervision options of one parallel exploration.
#[derive(Debug, Default)]
pub struct Durability<'a> {
    /// Take periodic durable checkpoints (plus a final one on budget
    /// exhaustion, stall, deadline or completion).
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from a previously-written snapshot instead of the initial
    /// state. The snapshot's fingerprint must match the program, input
    /// and state-shaping flags.
    pub resume: Option<&'a ExplorerSnapshot>,
    /// Run a supervisor thread that converts a stalled worker into
    /// [`Fx10Error::WorkerStalled`] instead of a hang.
    pub watchdog: Option<WatchdogSpec>,
}

/// Crew-side state of the periodic-checkpoint protocol.
struct CkptCtl {
    path: PathBuf,
    every: usize,
    /// Raised by the worker that trips the `every` threshold; all other
    /// workers park at their next loop top until the writer clears it.
    paused: AtomicBool,
    /// The worker elected to write (usize::MAX = none).
    writer: AtomicUsize,
    /// States admitted since the last checkpoint.
    since: AtomicUsize,
    /// Completed checkpoints.
    seq: AtomicU64,
    /// Injected fault: stop as if SIGKILLed right after this many
    /// checkpoints (1-based).
    kill_at: Option<u64>,
    killed: AtomicBool,
    /// First checkpoint-write failure (reported after the join unless a
    /// more severe error wins).
    io_error: Mutex<Option<Fx10Error>>,
}

impl CkptCtl {
    fn new(spec: CheckpointSpec, kill_at: Option<u64>) -> CkptCtl {
        CkptCtl {
            path: spec.path,
            every: spec.every.max(1),
            paused: AtomicBool::new(false),
            writer: AtomicUsize::new(usize::MAX),
            since: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            kill_at,
            killed: AtomicBool::new(false),
            io_error: Mutex::new(None),
        }
    }
}

/// The shared mutable side of one work-stealing exploration.
struct Engine<'p> {
    p: &'p Program,
    interner: Interner,
    normalize: bool,
    max_states: usize,
    /// Distinct packed state keys, sharded.
    visited: Vec<Mutex<IdSet<u64>>>,
    /// One work deque per worker: the owner pushes and pops at the back,
    /// thieves take the front half (the opposite under an adversarial
    /// plan).
    deques: Vec<Padded<Mutex<VecDeque<u64>>>>,
    /// States discovered but not yet fully expanded — the termination
    /// barrier: no work anywhere and `pending == 0` means done.
    pending: AtomicUsize,
    /// Crew-wide budget accounting (states, bytes, deadline, cancel).
    meter: SharedMeter,
    deadlock_free: AtomicBool,
    terminals: AtomicUsize,
    cancelled: AtomicBool,
    /// First worker panic (index, rendered payload).
    panic: Mutex<Option<(usize, String)>>,
    /// Identity of (program, input, shaping flags) for snapshots.
    fingerprint: u64,
    /// One monotonically-advancing epoch per worker; bumped at every
    /// loop iteration (including park-spins and work hunts), frozen only
    /// when a worker is genuinely wedged.
    heartbeats: Vec<Padded<AtomicU64>>,
    /// Set once a worker's thread has returned (panicked or not).
    exited: Vec<Padded<AtomicBool>>,
    /// Workers returned so far; the last one to return signals
    /// `crew_done`, which wakes the watchdog at once.
    exits: Mutex<usize>,
    crew_done: Condvar,
    /// Workers currently parked for a checkpoint write.
    parked: AtomicUsize,
    /// First stall the watchdog observed: (worker, frozen-for ms).
    stalled: Mutex<Option<(usize, u64)>>,
    /// Periodic-checkpoint protocol, when configured.
    ckpt: Option<CkptCtl>,
}

impl Engine<'_> {
    /// Per-admitted-state contribution to the approximate memory budget:
    /// the visited-set key plus the state's amortized share of the
    /// interner (one tree node, one deque slot, map entries).
    fn state_bytes(&self, a: ArrayId) -> usize {
        64 + std::mem::size_of_val(self.interner.cells(a))
    }

    /// Takes the next state: own deque first, then a steal of half of
    /// some victim's deque.
    fn grab(&self, id: usize, adversarial: bool) -> Option<u64> {
        {
            let mut own = lock_shard(&self.deques[id]);
            let got = if adversarial {
                own.pop_front()
            } else {
                own.pop_back()
            };
            if got.is_some() {
                return got;
            }
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (id + off) % n;
            let mut stolen: VecDeque<u64> = {
                let mut v = lock_shard(&self.deques[victim]);
                let take = v.len().div_ceil(2);
                if take == 0 {
                    continue;
                }
                if adversarial {
                    // Steal the owner's end — maximal interference.
                    let keep = v.len() - take;
                    v.split_off(keep)
                } else {
                    // Steal the cold front half, leave the owner its
                    // cache-hot back.
                    let rest = v.split_off(take);
                    std::mem::replace(&mut *v, rest)
                }
            };
            let first = if adversarial {
                stolen.pop_back()
            } else {
                stolen.pop_front()
            };
            if !stolen.is_empty() {
                lock_shard(&self.deques[id]).extend(stolen);
            }
            debug_assert!(first.is_some());
            return first;
        }
        None
    }

    /// Expands one state: records the terminal / deadlock verdicts and
    /// enqueues every newly-discovered successor. Returns early when a
    /// budget wall is hit — the reservation failure has already raised
    /// the stop flag.
    fn expand(
        &self,
        id: usize,
        key: u64,
        stepper: &mut Stepper<'_>,
        scratch: &mut Vec<(ArrayId, TreeId)>,
    ) {
        let (a, t) = state_parts(key);
        if t == intern::DONE {
            self.terminals.fetch_add(1, Ordering::Relaxed);
            return;
        }
        scratch.clear();
        stepper.successors(self.p, a, t, scratch);
        self.meter.charge_ticks(1);
        if scratch.is_empty() {
            self.deadlock_free.store(false, Ordering::Relaxed);
            return;
        }
        for &(sa, st) in scratch.iter() {
            let st = if self.normalize {
                self.interner.normalized(st)
            } else {
                st
            };
            let k = state_key(sa, st);
            if !lock_shard(&self.visited[shard_idx(k)]).insert(k) {
                continue;
            }
            if !self.meter.try_reserve_states(1, self.max_states)
                || !self.meter.try_grow_bytes(self.state_bytes(sa))
            {
                // Budget wall: exhaustion recorded, stop flag raised.
                // Undo the speculative insert so `visited` stays exactly
                // `expanded ∪ frontier` — the invariant the final
                // checkpoint relies on. (A concurrent duplicate that lost
                // the insert race was skipped above and is now dropped
                // with this key; that benign lost state can only happen
                // on a run that is already truncated.)
                lock_shard(&self.visited[shard_idx(k)]).remove(&k);
                return;
            }
            self.pending.fetch_add(1, Ordering::SeqCst);
            lock_shard(&self.deques[id]).push_back(k);
            if let Some(ckpt) = &self.ckpt {
                if ckpt.since.fetch_add(1, Ordering::SeqCst) + 1 >= ckpt.every
                    && ckpt
                        .paused
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    ckpt.since.store(0, Ordering::SeqCst);
                    ckpt.writer.store(id, Ordering::SeqCst);
                }
            }
        }
    }

    /// Bumps this worker's heartbeat epoch (the watchdog's liveness
    /// signal).
    fn beat(&self, id: usize) {
        self.heartbeats[id].fetch_add(1, Ordering::Relaxed);
    }

    /// One worker's drain loop; `first` is the state it expands before
    /// grabbing (the root for worker 0 of a fresh run). Panics escape to
    /// the `catch_unwind` in the spawner. Every path out of the loop
    /// leaves the worker holding no in-flight key, so `visited =
    /// expanded ∪ frontier` holds at exit and at every checkpoint
    /// safepoint.
    fn worker(&self, id: usize, faults: &FaultPlan, mut first: Option<u64>) {
        let mut stepper = self.interner.stepper();
        let mut scratch = Vec::new();
        let mut processed = 0u64;
        loop {
            self.beat(id);
            // Checkpoint safepoint: the elected writer freezes the crew;
            // everyone else parks (still beating) until it finishes.
            if let Some(ckpt) = &self.ckpt {
                if ckpt.paused.load(Ordering::SeqCst) && !self.meter.is_stopped() {
                    if ckpt.writer.load(Ordering::SeqCst) == id {
                        self.write_checkpoint(id);
                    } else {
                        self.parked.fetch_add(1, Ordering::SeqCst);
                        while ckpt.paused.load(Ordering::SeqCst) && !self.meter.is_stopped() {
                            self.beat(id);
                            std::thread::yield_now();
                        }
                        self.parked.fetch_sub(1, Ordering::SeqCst);
                    }
                    continue;
                }
            }
            if self.meter.is_stopped() {
                break;
            }
            if faults.should_wedge(id, processed) {
                // Injected wedge: no progress and *no heartbeats*, like a
                // runaway loop or a hung syscall. Only the watchdog, a
                // budget trip or cancellation releases the worker.
                while !self.meter.is_stopped() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                break;
            }
            let Some(key) = first
                .take()
                .or_else(|| self.grab(id, faults.adversarial_schedule))
            else {
                if self.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            processed += 1;
            if faults.should_panic(id, processed) {
                panic!("injected fault: worker {id} after {processed} state(s)");
            }
            if processed.is_multiple_of(POLL_STRIDE as u64) {
                if let Err(stop) = self.meter.checkpoint() {
                    if stop == Stop::Cancelled {
                        self.cancelled.store(true, Ordering::SeqCst);
                    }
                    // Put the grabbed key back (and keep its pending
                    // credit) so the frontier stays consistent for the
                    // final checkpoint.
                    lock_shard(&self.deques[id]).push_back(key);
                    break;
                }
            }
            self.expand(id, key, &mut stepper, &mut scratch);
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
        // A stop (stall, cancel, deadline) or a wedge before the first
        // state was taken: queue it so the final checkpoint keeps it.
        if let Some(key) = first {
            lock_shard(&self.deques[id]).push_back(key);
        }
    }

    /// The elected writer's side of the checkpoint protocol: wait for
    /// the rest of the crew to park (or exit), freeze a consistent
    /// snapshot, write it, unpause.
    fn write_checkpoint(&self, id: usize) {
        let ckpt = self.ckpt.as_ref().expect("writer elected without ctl");
        loop {
            let exited_others = self
                .exited
                .iter()
                .enumerate()
                .filter(|&(w, e)| w != id && e.load(Ordering::SeqCst))
                .count();
            if self.parked.load(Ordering::SeqCst) + exited_others >= self.exited.len() - 1 {
                break;
            }
            if self.meter.is_stopped() {
                // A stop fired while assembling the safepoint (stall,
                // cancel, budget): abandon this checkpoint — the
                // coordinator writes the final one — and release the
                // parked workers so they can drain.
                ckpt.writer.store(usize::MAX, Ordering::SeqCst);
                ckpt.paused.store(false, Ordering::SeqCst);
                return;
            }
            self.beat(id);
            std::thread::yield_now();
        }
        match self.freeze().save(&ckpt.path) {
            Err(e) => {
                lock_shard(&ckpt.io_error).get_or_insert(e);
                self.meter.request_stop();
            }
            Ok(()) => {
                let done = ckpt.seq.fetch_add(1, Ordering::SeqCst) + 1;
                if ckpt.kill_at == Some(done) {
                    // Injected SIGKILL: stop here, leaving this
                    // checkpoint as the on-disk state to resume from.
                    ckpt.killed.store(true, Ordering::SeqCst);
                    self.meter.request_stop();
                }
            }
        }
        ckpt.writer.store(usize::MAX, Ordering::SeqCst);
        ckpt.paused.store(false, Ordering::SeqCst);
    }

    /// Freezes the engine into a snapshot. Only sound at a safepoint —
    /// every other worker parked or exited, none holding an in-flight
    /// key — or after the crew has joined.
    fn freeze(&self) -> ExplorerSnapshot {
        let mut visited: Vec<u64> = Vec::new();
        for shard in &self.visited {
            visited.extend(lock_shard(shard).iter().copied());
        }
        visited.sort_unstable();
        let mut frontier: Vec<u64> = Vec::new();
        for dq in &self.deques {
            frontier.extend(lock_shard(dq).iter().copied());
        }
        frontier.sort_unstable();
        ExplorerSnapshot::capture(
            &self.interner,
            self.fingerprint,
            self.terminals.load(Ordering::SeqCst) as u64,
            self.deadlock_free.load(Ordering::SeqCst),
            self.meter.ticks(),
            visited,
            frontier,
        )
    }

    /// Marks worker `id` as returned; the last one wakes the watchdog.
    fn exit(&self, id: usize) {
        self.exited[id].store(true, Ordering::SeqCst);
        let mut exits = lock_shard(&self.exits);
        *exits += 1;
        if *exits == self.exited.len() {
            self.crew_done.notify_all();
        }
    }

    /// The watchdog thread: samples every live worker's heartbeat every
    /// `spec.poll`; a heartbeat frozen for `stall_after` on a worker
    /// that has not exited is a stall — record it, cancel the crew,
    /// return. It returns as soon as the last worker exits, so the
    /// crew's join never waits out a poll interval.
    fn watchdog(&self, spec: WatchdogSpec) {
        let n = self.heartbeats.len();
        let mut last: Vec<u64> = (0..n)
            .map(|i| self.heartbeats[i].load(Ordering::Relaxed))
            .collect();
        let mut fresh_at: Vec<Instant> = vec![Instant::now(); n];
        loop {
            let exits = self
                .crew_done
                .wait_timeout_while(lock_shard(&self.exits), spec.poll, |e| *e < n)
                .unwrap_or_else(|p| p.into_inner())
                .0;
            if *exits == n {
                return;
            }
            drop(exits);
            for i in 0..n {
                if self.exited[i].load(Ordering::SeqCst) {
                    continue;
                }
                let now = self.heartbeats[i].load(Ordering::Relaxed);
                if now != last[i] {
                    last[i] = now;
                    fresh_at[i] = Instant::now();
                } else {
                    let frozen = fresh_at[i].elapsed();
                    if frozen >= spec.stall_after {
                        lock_shard(&self.stalled).get_or_insert((i, frozen.as_millis() as u64));
                        self.meter.request_stop();
                        return;
                    }
                }
            }
            if self.meter.is_stopped() {
                return;
            }
        }
    }
}

/// Resolves the fault flags left behind by a joined crew into the one
/// error the run reports — the *join precedence* pinned by DESIGN.md
/// §10 and the `settle_precedence_*` tests:
///
/// `panic > stall > injected kill > checkpoint-I/O > cancellation`.
///
/// A panic outranks everything (the answer may be incomplete in a way
/// no counter records); a stall is a positive watchdog diagnosis and
/// outranks the cancellation it was delivered through; an injected
/// kill reports as [`Fx10Error::Cancelled`]; a checkpoint-write failure
/// is only reported when nothing worse happened; and plain cancellation
/// is last — every other fault also raises the stop flag, so reporting
/// cancellation first would mask the cause. Returns `Ok(())` when no
/// fault fired.
pub fn settle_outcome(
    panicked: Option<(usize, String)>,
    stalled: Option<(usize, u64)>,
    killed: bool,
    ckpt_io_error: Option<Fx10Error>,
    cancelled: bool,
) -> Result<(), Fx10Error> {
    if let Some((worker, message)) = panicked {
        return Err(Fx10Error::WorkerPanicked { worker, message });
    }
    if let Some((worker, stalled_ms)) = stalled {
        return Err(Fx10Error::WorkerStalled { worker, stalled_ms });
    }
    if killed {
        return Err(Fx10Error::Cancelled);
    }
    if let Some(e) = ckpt_io_error {
        return Err(e);
    }
    if cancelled {
        return Err(Fx10Error::Cancelled);
    }
    Ok(())
}

/// Multi-threaded work-stealing exploration on hash-consed state ids,
/// under a [`Budget`], a [`CancelToken`] and a [`FaultPlan`], plus the
/// durability/supervision layer: periodic consistent checkpoints,
/// resume-from-snapshot, and a heartbeat watchdog (see [`Durability`];
/// `Durability::default()` turns all three off).
///
/// All workers share one [`SharedMeter`], so the state budget bounds the
/// *crew*: total admitted states never exceed the cap by more than one
/// reservation batch per worker. Worker panics — organic or injected by
/// the plan — are caught per worker and reported after all workers have
/// drained (the process never aborts, and no worker is left blocked).
///
/// Error precedence after the crew joins: a worker panic wins over a
/// stall, a stall ([`Fx10Error::WorkerStalled`]) over an injected kill,
/// a kill (reported as [`Fx10Error::Cancelled`]) over a checkpoint I/O
/// failure, and that over plain cancellation. A *final* checkpoint is
/// written on every path except a panic (the panicking worker dropped
/// its in-flight state, so the frontier would be inconsistent) and an
/// injected kill (the fault simulates SIGKILL — the on-disk snapshot
/// must stay exactly the one the kill interrupted).
#[allow(clippy::too_many_arguments)]
pub fn explore_parallel_durable(
    p: &Program,
    input: &[i64],
    config: ExploreConfig,
    threads: usize,
    budget: Budget,
    cancel: &CancelToken,
    faults: &FaultPlan,
    durability: Durability<'_>,
) -> Result<Exploration, Fx10Error> {
    cancel.check()?;
    let threads = threads.max(1);
    let max_states = faults
        .effective_max_states(budget.max_states)
        .map_or(config.max_states, |b| b.min(config.max_states));
    let fingerprint = snapshot::fingerprint(p, input, &config);

    let engine = Engine {
        p,
        interner: Interner::new(config.canonical_dedup),
        normalize: config.normalize_admin,
        max_states,
        visited: (0..SHARDS).map(|_| Mutex::default()).collect(),
        deques: (0..threads).map(|_| Padded(Mutex::default())).collect(),
        pending: AtomicUsize::new(0),
        meter: SharedMeter::new(budget, cancel.clone()),
        deadlock_free: AtomicBool::new(true),
        terminals: AtomicUsize::new(0),
        cancelled: AtomicBool::new(false),
        panic: Mutex::new(None),
        fingerprint,
        heartbeats: (0..threads).map(|_| Padded(AtomicU64::new(0))).collect(),
        exited: (0..threads)
            .map(|_| Padded(AtomicBool::new(false)))
            .collect(),
        exits: Mutex::new(0),
        crew_done: Condvar::new(),
        parked: AtomicUsize::new(0),
        stalled: Mutex::new(None),
        ckpt: durability
            .checkpoint
            .map(|spec| CkptCtl::new(spec, faults.kill_at_checkpoint)),
    };

    // A fresh run hands its root straight to worker 0, so worker 0's
    // first processed state is the root whatever order the threads start
    // in; a resumed run's frontier is already spread over the deques.
    let mut root = None;
    let run_crew = if let Some(snap) = durability.resume {
        if snap.fingerprint != fingerprint {
            return Err(Fx10Error::Snapshot {
                message: "snapshot does not match this program, input and configuration \
                          (fingerprint mismatch)"
                    .into(),
            });
        }
        let (_smap, tmap, amap) = snap.restore(&engine.interner);
        let map_key = |k: u64| {
            let (a, t) = state_parts(k);
            state_key(ArrayId(amap[a.0 as usize]), TreeId(tmap[t.0 as usize]))
        };
        let mut restored_bytes = 0usize;
        for &k in &snap.visited {
            let nk = map_key(k);
            lock_shard(&engine.visited[shard_idx(nk)]).insert(nk);
            restored_bytes += engine.state_bytes(state_parts(nk).0);
        }
        engine
            .terminals
            .store(snap.terminals as usize, Ordering::SeqCst);
        engine
            .deadlock_free
            .store(snap.deadlock_free, Ordering::SeqCst);
        engine.meter.charge_ticks(snap.ticks);
        // Restored states keep their credits; overflowing the (new)
        // budget marks the run truncated from the start.
        let fits = engine.meter.restore_states(snap.visited.len(), max_states)
            && engine.meter.try_grow_bytes(restored_bytes);
        for (i, &k) in snap.frontier.iter().enumerate() {
            lock_shard(&engine.deques[i % threads]).push_back(map_key(k));
        }
        engine.pending.store(snap.frontier.len(), Ordering::SeqCst);
        fits && !snap.frontier.is_empty()
    } else {
        let a0 = engine
            .interner
            .intern_array(ArrayState::with_input(p, input).cells().to_vec());
        let t0 = {
            let t = engine.interner.intern_tree(&initial_tree(p));
            if config.normalize_admin {
                engine.interner.normalized(t)
            } else {
                t
            }
        };
        let seed = state_key(a0, t0);
        if engine.meter.try_reserve_states(1, max_states)
            && engine.meter.try_grow_bytes(engine.state_bytes(a0))
        {
            lock_shard(&engine.visited[shard_idx(seed)]).insert(seed);
            engine.pending.store(1, Ordering::SeqCst);
            root = Some(seed);
            true
        } else {
            false
        }
    };

    if run_crew {
        std::thread::scope(|scope| {
            for worker_id in 0..threads {
                let engine = &engine;
                let first = root.take();
                scope.spawn(move || {
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| engine.worker(worker_id, faults, first)))
                    {
                        // Contain the panic: record it and tell the crew
                        // to drain out (the in-flight pending credit is
                        // moot once the stop flag is up).
                        lock_shard(&engine.panic).get_or_insert_with(|| {
                            (worker_id, fx10_robust::panic_message(payload.as_ref()))
                        });
                        engine.meter.request_stop();
                    }
                    engine.exit(worker_id);
                });
            }
            if let Some(spec) = durability.watchdog {
                let engine = &engine;
                scope.spawn(move || engine.watchdog(spec));
            }
        });
    }

    let panicked = lock_shard(&engine.panic).take();
    let stalled = lock_shard(&engine.stalled).take();
    let killed = engine
        .ckpt
        .as_ref()
        .is_some_and(|c| c.killed.load(Ordering::SeqCst));

    // Final checkpoint: everything except a panic (inconsistent
    // frontier) and an injected kill (must preserve the interrupted
    // snapshot) gets one, including the stall / deadline / cancel paths
    // — that is what makes the error *recoverable*.
    if let Some(ckpt) = &engine.ckpt {
        if panicked.is_none() && !killed {
            if let Err(e) = engine.freeze().save(&ckpt.path) {
                lock_shard(&ckpt.io_error).get_or_insert(e);
            }
        }
    }

    settle_outcome(
        panicked,
        stalled,
        killed,
        engine
            .ckpt
            .as_ref()
            .and_then(|c| lock_shard(&c.io_error).take()),
        engine.cancelled.load(Ordering::SeqCst) || cancel.is_cancelled(),
    )?;

    // Dynamic MHP over every *discovered* state (queued-but-unexpanded
    // states included, exactly like the sequential engine's queue
    // drain), over the distinct tree ids. The visited set is exactly the
    // admitted states, resumed or fresh, so deriving the tree set from it
    // covers both uniformly.
    let mut trees = TreeBits::with_capacity(engine.interner.counts().1);
    for shard in &engine.visited {
        for &k in lock_shard(shard).iter() {
            trees.insert(state_parts(k).1);
        }
    }
    let mhp = engine.interner.parallel_of_trees(trees);

    // Both digests render every visited state. In tree-id order, states
    // whose trees share subtrees render one after another, so the walks
    // stay in cache.
    let visited_keys = || {
        let mut keys: Vec<u64> = Vec::with_capacity(engine.meter.states());
        for shard in &engine.visited {
            keys.extend(lock_shard(shard).iter().copied());
        }
        keys.sort_unstable_by_key(|&k| k.rotate_left(32));
        keys
    };
    let renderings = |keys: Vec<u64>| {
        let mut render = StateRenderer::new(&engine.interner);
        keys.into_iter().map(move |k| {
            let (a, t) = state_parts(k);
            render.render_state(a, t)
        })
    };
    let state_digests = config
        .collect_states
        .then(|| renderings(visited_keys()).collect());
    let digest_xor = config.digest_xor.then(|| {
        renderings(visited_keys()).fold((0, 0), |(x, n), s| (x ^ fnv1a64(s.as_bytes()), n + 1))
    });

    let exhausted = engine.meter.exhaustion();
    Ok(Exploration {
        visited: engine.meter.states(),
        truncated: exhausted.is_some(),
        exhausted,
        mhp,
        deadlock_free: engine.deadlock_free.load(Ordering::Relaxed),
        terminals: engine.terminals.load(Ordering::Relaxed),
        state_digests,
        digest_xor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_robust::PanicFault;
    use fx10_syntax::examples;
    use fx10_syntax::Label;

    fn names(p: &Program, mhp: &BTreeSet<LabelPair>) -> BTreeSet<(String, String)> {
        mhp.iter()
            .map(|&(a, b)| {
                let (x, y) = (p.labels().display(a), p.labels().display(b));
                if x <= y {
                    (x, y)
                } else {
                    (y, x)
                }
            })
            .collect()
    }

    #[test]
    fn straight_line_has_no_mhp() {
        let p = Program::parse("def main() { S1; S2; S3; }").unwrap();
        let e = explore(&p, &[], ExploreConfig::default());
        assert!(!e.truncated);
        assert!(e.deadlock_free);
        assert!(e.mhp.is_empty());
        assert_eq!(e.terminals, 1);
    }

    #[test]
    fn async_body_parallel_with_continuation() {
        let p = Program::parse("def main() { async { B; } K; }").unwrap();
        let e = explore(&p, &[], ExploreConfig::default());
        let n = names(&p, &e.mhp);
        assert!(n.contains(&("B".into(), "K".into())));
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn finish_blocks_cross_pairs() {
        let p = Program::parse("def main() { finish { async { B; } } K; }").unwrap();
        let e = explore(&p, &[], ExploreConfig::default());
        assert!(e.mhp.is_empty(), "finish must prevent B ∥ K: {:?}", e.mhp);
    }

    #[test]
    fn example_2_1_dynamic_mhp_matches_paper() {
        let p = examples::example_2_1();
        let e = explore(&p, &[], ExploreConfig::default());
        assert!(!e.truncated);
        assert!(e.deadlock_free);
        let got = names(&p, &e.mhp);
        // The paper says its analysis result is the best possible for this
        // program, and our static labels include the async/finish
        // instructions themselves. Project to the pairs the paper lists
        // over S-labels: the dynamic relation must contain exactly the
        // §2.1 pairs when restricted to pairs of *body* statements, and
        // must not contain S3 or S0 pairs at all.
        for (a, b) in examples::example_2_1_expected_pairs() {
            let (x, y) = if a <= b { (a, b) } else { (b, a) };
            // (S2, S13) is S2 against the *finish instruction*; all pairs
            // listed are reachable co-enabled instructions.
            assert!(
                got.contains(&(x.to_string(), y.to_string()))
                    || got.contains(&(y.to_string(), x.to_string())),
                "missing dynamic pair ({a},{b}); got {got:?}"
            );
        }
        for pr in &got {
            assert!(pr.0 != "S3" && pr.1 != "S3", "S3 must not run in parallel");
        }
    }

    #[test]
    fn example_2_2_dynamic_excludes_s3_s4() {
        let p = examples::example_2_2();
        let e = explore(&p, &[], ExploreConfig::default());
        assert!(!e.truncated);
        let got = names(&p, &e.mhp);
        assert!(
            !got.contains(&("S3".into(), "S4".into())),
            "S3 and S4 cannot happen in parallel (the CI false positive)"
        );
        for (a, b) in examples::example_2_2_expected_pairs() {
            let (x, y) = if a <= b { (a, b) } else { (b, a) };
            assert!(
                got.contains(&(x.to_string(), y.to_string())),
                "missing dynamic pair ({a},{b}); got {got:?}"
            );
        }
    }

    #[test]
    fn loop_asyncs_self_pair() {
        let p = examples::self_category();
        let e = explore(&p, &[], ExploreConfig::default());
        let s1 = p.labels().lookup("S1").unwrap();
        assert!(
            e.mhp.contains(&(s1, s1)),
            "loop async body must self-overlap: {:?}",
            e.mhp
        );
    }

    #[test]
    fn conclusion_false_positive_is_dynamically_absent() {
        let p = examples::conclusion_false_positive();
        let e = explore(&p, &[], ExploreConfig::default());
        let (s1, s2) = (
            p.labels().lookup("S1").unwrap(),
            p.labels().lookup("S2").unwrap(),
        );
        let key = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        assert!(
            !e.mhp.contains(&key),
            "loop never runs, so (S1,S2) must be dynamically absent"
        );
    }

    #[test]
    fn truncation_reports_lower_bound() {
        // Infinite loop spawning asyncs: state space unbounded.
        let p =
            Program::parse("def main() { a[0] = 1; while (a[0] != 0) { async { B; } } }").unwrap();
        let e = explore(
            &p,
            &[],
            ExploreConfig {
                max_states: 500,
                ..ExploreConfig::default()
            },
        );
        assert!(e.truncated);
        assert_eq!(e.exhausted, Some(Exhaustion::States));
        assert!(e.deadlock_free);
        let b = p.labels().lookup("B").unwrap();
        assert!(e.mhp.contains(&(b, b)), "self pair must be observed");
    }

    #[test]
    fn normalized_exploration_preserves_mhp_and_shrinks_states() {
        for p in [
            examples::example_2_1(),
            examples::example_2_2(),
            examples::same_category(),
            examples::add_twice(),
        ] {
            let literal = explore(&p, &[], ExploreConfig::default());
            let normalized = explore(
                &p,
                &[],
                ExploreConfig {
                    normalize_admin: true,
                    ..ExploreConfig::default()
                },
            );
            assert_eq!(literal.mhp, normalized.mhp, "MHP must be unchanged");
            assert_eq!(literal.deadlock_free, normalized.deadlock_free);
            assert!(
                normalized.visited <= literal.visited,
                "normalization cannot grow the space"
            );
            assert!(
                normalized.visited < literal.visited,
                "these examples all have administrative states"
            );
        }
    }

    #[test]
    fn canonical_dedup_preserves_verdicts_and_shrinks_symmetric_spaces() {
        for p in [
            examples::example_2_1(),
            examples::example_2_2(),
            examples::same_category(),
        ] {
            let literal = explore(
                &p,
                &[],
                ExploreConfig {
                    canonical_dedup: false,
                    ..ExploreConfig::default()
                },
            );
            let canonical = explore(&p, &[], ExploreConfig::default());
            assert_eq!(literal.mhp, canonical.mhp, "MHP must be unchanged");
            assert_eq!(literal.deadlock_free, canonical.deadlock_free);
            assert_eq!(literal.terminals, canonical.terminals);
            assert!(
                canonical.visited <= literal.visited,
                "canonicalization cannot grow the space"
            );
        }
        // A space with real ∥-symmetry strictly shrinks.
        let p = Program::parse("def main() { async { B; } async { B; } K; }").unwrap();
        let lit = explore(
            &p,
            &[],
            ExploreConfig {
                canonical_dedup: false,
                ..ExploreConfig::default()
            },
        );
        let canon = explore(&p, &[], ExploreConfig::default());
        assert_eq!(lit.mhp, canon.mhp);
        assert!(
            canon.visited < lit.visited,
            "{} !< {}",
            canon.visited,
            lit.visited
        );
    }

    #[test]
    fn tree_normalization_is_idempotent_and_mhp_monotone() {
        use crate::parallel::parallel;
        let p = examples::example_2_2();
        let s = p.body(p.main()).clone();

        // ∥-only elimination preserves parallel() exactly.
        let par_messy = Tree::par(
            Tree::par(Tree::Done, Tree::stm(s.clone())),
            Tree::par(Tree::stm(s.clone()), Tree::Done),
        );
        let par_norm = par_messy.clone().normalized();
        assert_eq!(parallel(&par_messy), parallel(&par_norm));

        // ▷-elimination may only *reveal* pairs (the ones rule (1) would
        // reach next), never drop them.
        let messy = Tree::par(
            Tree::seq(Tree::Done, Tree::stm(s.clone())),
            Tree::par(Tree::Done, Tree::par(Tree::stm(s), Tree::Done)),
        );
        let norm = messy.clone().normalized();
        assert!(parallel(&messy).is_subset(&parallel(&norm)));
        assert!(!parallel(&norm).is_empty());

        // Idempotent, smaller, and fully administrative trees collapse.
        assert_eq!(norm.clone().normalized(), norm);
        assert!(norm.node_count() < messy.node_count());
        assert!(Tree::par(Tree::Done, Tree::seq(Tree::Done, Tree::Done))
            .normalized()
            .is_done());
    }

    fn parallel_unlimited(p: &Program, jobs: usize) -> Exploration {
        explore_parallel_durable(
            p,
            &[],
            ExploreConfig::default(),
            jobs,
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
            Durability::default(),
        )
        .unwrap()
    }

    #[test]
    fn parallel_explorer_matches_sequential() {
        for src in [
            "def main() { async { B; } K; }",
            "def f() { async { S5; } } def main() { finish { async { S3; } f(); } S2; }",
        ] {
            let p = Program::parse(src).unwrap();
            let seq = explore(&p, &[], ExploreConfig::default());
            let par = parallel_unlimited(&p, 4);
            assert_eq!(seq.mhp, par.mhp);
            assert_eq!(seq.visited, par.visited);
            assert_eq!(seq.terminals, par.terminals);
            assert_eq!(seq.deadlock_free, par.deadlock_free);
        }
        let p = examples::example_2_1();
        let seq = explore(&p, &[], ExploreConfig::default());
        let par = parallel_unlimited(&p, 8);
        assert_eq!(seq.mhp, par.mhp);
        assert_eq!(seq.visited, par.visited);
    }

    #[test]
    fn interned_engine_matches_cloned_reference_digests() {
        let config = ExploreConfig {
            collect_states: true,
            ..ExploreConfig::default()
        };
        for p in [
            examples::example_2_1(),
            examples::example_2_2(),
            examples::same_category(),
        ] {
            let cloned =
                explore_budgeted(&p, &[], config, Budget::unlimited(), &CancelToken::new())
                    .unwrap();
            let interned = explore_interned_budgeted(
                &p,
                &[],
                config,
                Budget::unlimited(),
                &CancelToken::new(),
            )
            .unwrap();
            assert_eq!(cloned.state_digests, interned.state_digests);
            assert_eq!(cloned.mhp, interned.mhp);
            assert_eq!(cloned.visited, interned.visited);
            assert_eq!(cloned.terminals, interned.terminals);
        }
    }

    #[test]
    fn the_streamed_digest_is_the_xor_over_the_collected_states() {
        let config = ExploreConfig {
            collect_states: true,
            digest_xor: true,
            ..ExploreConfig::default()
        };
        for p in [examples::example_2_1(), examples::example_2_2()] {
            let cloned =
                explore_budgeted(&p, &[], config, Budget::unlimited(), &CancelToken::new())
                    .unwrap();
            let interned = explore_interned_budgeted(
                &p,
                &[],
                config,
                Budget::unlimited(),
                &CancelToken::new(),
            )
            .unwrap();
            let states = cloned.state_digests.as_ref().unwrap();
            let want = states.iter().fold(0, |x, s| x ^ fnv1a64(s.as_bytes()));
            assert_eq!(cloned.digest_xor, Some((want, states.len())));
            assert_eq!(interned.digest_xor, cloned.digest_xor);
        }
    }

    #[test]
    fn adversarial_schedule_computes_the_same_sets() {
        let p = examples::example_2_1();
        let seq = explore(&p, &[], ExploreConfig::default());
        let adv = explore_parallel_durable(
            &p,
            &[],
            ExploreConfig::default(),
            4,
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan {
                adversarial_schedule: true,
                ..FaultPlan::none()
            },
            Durability::default(),
        )
        .unwrap();
        assert_eq!(seq.mhp, adv.mhp);
        assert_eq!(seq.visited, adv.visited);
        assert_eq!(seq.deadlock_free, adv.deadlock_free);
    }

    #[test]
    fn injected_worker_panic_is_contained() {
        let p = examples::example_2_1();
        let err = explore_parallel_durable(
            &p,
            &[],
            ExploreConfig::default(),
            4,
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan {
                panic_worker: Some(PanicFault {
                    worker: 0,
                    after_states: 1,
                }),
                ..FaultPlan::none()
            },
            Durability::default(),
        )
        .unwrap_err();
        match err {
            Fx10Error::WorkerPanicked { worker: 0, message } => {
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let p = examples::example_2_1();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = explore_parallel_durable(
            &p,
            &[],
            ExploreConfig::default(),
            2,
            Budget::unlimited(),
            &cancel,
            &FaultPlan::none(),
            Durability::default(),
        )
        .unwrap_err();
        assert_eq!(err, Fx10Error::Cancelled);
    }

    #[test]
    fn expired_deadline_yields_partial_tagged_result() {
        let p =
            Program::parse("def main() { a[0] = 1; while (a[0] != 0) { async { B; } } }").unwrap();
        let budget = Budget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let e = explore_budgeted(
            &p,
            &[],
            ExploreConfig::default(),
            budget,
            &CancelToken::new(),
        )
        .unwrap();
        assert!(e.truncated);
        assert_eq!(e.exhausted, Some(Exhaustion::Deadline));
    }

    #[test]
    fn memory_budget_truncates() {
        let p =
            Program::parse("def main() { a[0] = 1; while (a[0] != 0) { async { B; } } }").unwrap();
        let budget = Budget::unlimited().with_max_set_bytes(4_000);
        let e = explore_budgeted(
            &p,
            &[],
            ExploreConfig::default(),
            budget,
            &CancelToken::new(),
        )
        .unwrap();
        assert!(e.truncated);
        assert_eq!(e.exhausted, Some(Exhaustion::Memory));
    }

    #[test]
    fn parallel_engine_respects_shared_state_budget() {
        // An unbounded space, a small shared budget: every worker count
        // must stop within `budget + one reservation batch per worker`
        // and tag the truncation.
        let p =
            Program::parse("def main() { a[0] = 1; while (a[0] != 0) { async { B; } } }").unwrap();
        for jobs in [1usize, 2, 8] {
            let e = explore_parallel_durable(
                &p,
                &[],
                ExploreConfig::default(),
                jobs,
                Budget::unlimited().with_max_states(300),
                &CancelToken::new(),
                &FaultPlan::none(),
                Durability::default(),
            )
            .unwrap();
            assert!(e.truncated, "jobs={jobs}");
            assert_eq!(e.exhausted, Some(Exhaustion::States), "jobs={jobs}");
            assert!(
                e.visited <= 300 + jobs,
                "jobs={jobs}: visited {} exceeds budget + one batch per worker",
                e.visited
            );
        }
    }

    #[test]
    fn ftlabels_front_is_subset_of_mhp_participants() {
        // Sanity link between parallel() and explored pairs: all labels in
        // pairs must be real labels of the program.
        let p = examples::example_2_2();
        let e = explore(&p, &[], ExploreConfig::default());
        for &(a, b) in &e.mhp {
            assert!((a.index()) < p.label_count());
            assert!((b.index()) < p.label_count());
            let _ = Label(a.0); // labels round-trip
        }
    }

    fn io_err() -> Fx10Error {
        Fx10Error::Io {
            path: "ckpt".into(),
            message: "disk full".into(),
        }
    }

    #[test]
    fn settle_precedence_panic_beats_everything() {
        let e = settle_outcome(
            Some((3, "boom".into())),
            Some((1, 500)),
            true,
            Some(io_err()),
            true,
        )
        .unwrap_err();
        assert!(matches!(e, Fx10Error::WorkerPanicked { worker: 3, .. }));
    }

    #[test]
    fn settle_precedence_stall_beats_kill_io_and_cancel() {
        let e = settle_outcome(None, Some((1, 500)), true, Some(io_err()), true).unwrap_err();
        assert!(matches!(
            e,
            Fx10Error::WorkerStalled {
                worker: 1,
                stalled_ms: 500
            }
        ));
    }

    #[test]
    fn settle_precedence_kill_beats_io_and_cancel() {
        let e = settle_outcome(None, None, true, Some(io_err()), true).unwrap_err();
        assert!(matches!(e, Fx10Error::Cancelled));
    }

    #[test]
    fn settle_precedence_ckpt_io_beats_cancel() {
        let e = settle_outcome(None, None, false, Some(io_err()), true).unwrap_err();
        assert!(matches!(e, Fx10Error::Io { .. }));
    }

    #[test]
    fn settle_precedence_cancel_last_and_clean_run_ok() {
        let e = settle_outcome(None, None, false, None, true).unwrap_err();
        assert!(matches!(e, Fx10Error::Cancelled));
        assert!(settle_outcome(None, None, false, None, false).is_ok());
    }
}
