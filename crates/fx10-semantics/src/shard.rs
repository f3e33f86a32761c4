//! Digest-range sharding of the exploration state space across worker
//! *processes* (PR 6's tentpole).
//!
//! ## Why sharding is sound
//!
//! FX10 exploration is schedule-independent: the reachable set
//! `{(A,T) | (p,A₀,⟨s₀⟩) →* (p,A,T)}` does not depend on the order in
//! which frontier states are expanded. Partitioning states by a
//! structural digest therefore partitions the *work*, not the *answer*:
//! every shard explores exactly the states whose digest lands in its
//! range, forwards foreign successors to their owners, and the union of
//! the per-shard visited sets is the sequential reachable set. MHP is a
//! plain union over visited trees and the Theorem 1 verdict a
//! conjunction, so both merge losslessly.
//!
//! ## The pieces
//!
//! - [`StateDigests`]: a memoized structural digest per interned state,
//!   stable across processes (it hashes label sequences, cell values and
//!   tree shape — never interner ids).
//! - [`shard_of`]: maps a digest to a shard by range (multiply-shift,
//!   no modulo bias).
//! - [`ShardInit`] / [`ShardResult`]: the `INIT` body and the result
//!   body (streamed back as `RESULT_PART` frames), encoded as
//!   single-section FX10SNAP containers so a corrupted body is a typed
//!   [`SnapshotError`], never a panic.
//! - [`shard_worker_main`]: the child-process event loop behind
//!   `fx10 shard-worker` — expand, route, batch, checkpoint, ack — over
//!   the worker's stdin/stdout pipes.
//! - [`explore_sharded`]: the parent-side orchestration wrapping
//!   [`ShardSupervisor`] and merging the per-shard results into one
//!   [`Exploration`].
//!
//! ## The state cap
//!
//! `INIT` carries the run's `max_states`. Each worker stops admitting
//! new states once it holds its share `⌈max_states·owned/shards⌉`,
//! stops expanding, and tags its result truncated; the fleet's answer is
//! truncated if any worker's is. The shares sum to less than
//! `max_states + shards`, so a sharded run never overshoots the cap by
//! more than one state per shard. A shard whose digest range holds more
//! than its share reports truncation even when the whole space would fit
//! under the cap in one process.
//!
//! ## Crash-correctness invariants (shared with `fx10-robust::shard`)
//!
//! 1. A worker flushes *all* outboxes before writing a checkpoint, so
//!    the checkpoint never claims a state whose foreign successors are
//!    still buffered in this process.
//! 2. `BATCH`/`ADOPT` frames are acked only *after* a successful atomic
//!    checkpoint save; the supervisor redelivers unacked frames to the
//!    next incarnation, and insertion-side dedup makes replay idempotent.
//! 3. Terminal states are counted on *insertion into the visited set*
//!    (not on expansion), so replayed frames and re-imported checkpoints
//!    can never double-count; `deadlock_free` merges by `&=`, which is
//!    idempotent for the same reason.
//! 4. A worker re-derives the initial state and admits it whenever its
//!    ownership set could have changed (on `INIT` and after `ADOPT`),
//!    covering the window where the seed's owner dies before its first
//!    checkpoint.

use crate::explore::{Exploration, ExploreConfig};
use crate::intern::{state_key, state_parts, ArrayId, Interner, StmtId, TNode, TreeId, DONE};
use crate::snapshot::{fingerprint, ExplorerSnapshot};
use crate::state::ArrayState;
use crate::step::initial_tree;
use fx10_robust::backoff::RestartPolicy;
use fx10_robust::ipc::{self, kind, WireMsg};
use fx10_robust::shard::ShardSupervisor;
use fx10_robust::snapshot::{fnv1a64, SectionBuf, Snapshot, SnapshotError, SnapshotWriter};
use fx10_robust::{CancelToken, Exhaustion, Fx10Error};
use fx10_syntax::{Label, Program};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::Command;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Structural state digests
// ---------------------------------------------------------------------------

/// Memoized structural digests of interned statements, trees, arrays
/// and states.
///
/// The digest of a state depends only on its *rendered structure* — the
/// instruction-label sequences of its statements, the `√`/`⟨s⟩`/`▷`/`∥`
/// shape of its tree, and its cell values — never on interner ids. Two
/// processes that intern the same state in any order therefore compute
/// the same digest, which is what makes the digest usable as a
/// cross-process shard key. (Statements hash their label sequence
/// because that is exactly what [`crate::tree::Tree`]'s rendering
/// prints: two statements with equal label sequences are the same
/// statement of the same program.)
#[derive(Debug, Default)]
pub struct StateDigests {
    stmts: Vec<Option<u64>>,
    trees: Vec<Option<u64>>,
    arrays: Vec<Option<u64>>,
}

/// FNV-1a over a list of 64-bit parts (little-endian), with a leading
/// tag byte separating the constructors.
fn mix(tag: u8, parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(1 + parts.len() * 8);
    bytes.push(tag);
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a64(&bytes)
}

impl StateDigests {
    /// An empty memo table.
    pub fn new() -> StateDigests {
        StateDigests::default()
    }

    fn slot(v: &mut Vec<Option<u64>>, i: usize) -> &mut Option<u64> {
        if v.len() <= i {
            v.resize(i + 1, None);
        }
        &mut v[i]
    }

    fn stmt_digest(&mut self, it: &Interner, s: StmtId) -> u64 {
        if let Some(d) = Self::slot(&mut self.stmts, s.0 as usize) {
            return *d;
        }
        let mut bytes = Vec::new();
        for i in it.stmt(s).instrs() {
            bytes.extend_from_slice(&i.label.0.to_le_bytes());
        }
        let d = fnv1a64(&bytes);
        *Self::slot(&mut self.stmts, s.0 as usize) = Some(d);
        d
    }

    fn array_digest(&mut self, it: &Interner, a: ArrayId) -> u64 {
        if let Some(d) = Self::slot(&mut self.arrays, a.0 as usize) {
            return *d;
        }
        let mut bytes = Vec::new();
        for c in it.cells(a) {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        let d = fnv1a64(&bytes);
        *Self::slot(&mut self.arrays, a.0 as usize) = Some(d);
        d
    }

    /// Digest of an interned tree (explicit stack — trees can be deep).
    pub fn tree_digest(&mut self, it: &Interner, t: TreeId) -> u64 {
        if let Some(d) = *Self::slot(&mut self.trees, t.0 as usize) {
            return d;
        }
        let mut stack = vec![t];
        while let Some(&top) = stack.last() {
            if Self::slot(&mut self.trees, top.0 as usize).is_some() {
                stack.pop();
                continue;
            }
            let done = match it.node(top) {
                TNode::Done => Some(mix(0, &[])),
                TNode::Stm(s) => {
                    let sd = self.stmt_digest(it, s);
                    Some(mix(1, &[sd]))
                }
                TNode::Seq(a, b) | TNode::Par(a, b) => {
                    let tag = if matches!(it.node(top), TNode::Seq(..)) {
                        2
                    } else {
                        3
                    };
                    let da = *Self::slot(&mut self.trees, a.0 as usize);
                    let db = *Self::slot(&mut self.trees, b.0 as usize);
                    match (da, db) {
                        (Some(da), Some(db)) => Some(mix(tag, &[da, db])),
                        _ => {
                            if db.is_none() {
                                stack.push(b);
                            }
                            if da.is_none() {
                                stack.push(a);
                            }
                            None
                        }
                    }
                }
            };
            if let Some(d) = done {
                *Self::slot(&mut self.trees, top.0 as usize) = Some(d);
                stack.pop();
            }
        }
        Self::slot(&mut self.trees, t.0 as usize).expect("just computed")
    }

    /// Digest of a full state `(A, T)`.
    pub fn state_digest(&mut self, it: &Interner, a: ArrayId, t: TreeId) -> u64 {
        let ad = self.array_digest(it, a);
        let td = self.tree_digest(it, t);
        mix(4, &[ad, td])
    }
}

/// Maps a digest to one of `shards` shards by range: shard `k` owns the
/// digests in `[k·2⁶⁴/n, (k+1)·2⁶⁴/n)`. Multiply-shift — unbiased and
/// branch-free, unlike `digest % n`.
pub fn shard_of(digest: u64, shards: u32) -> u32 {
    (((digest as u128) * (shards as u128)) >> 64) as u32
}

// ---------------------------------------------------------------------------
// INIT / RESULT bodies
// ---------------------------------------------------------------------------

const SEC_INIT: u32 = 101;
const SEC_RESULT: u32 = 102;

/// Deterministic fault injection carried in `INIT` (only on a worker's
/// first attempt — restarts run clean so chaos runs terminate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardChaos {
    /// Exit abruptly (no `ACK`, no `RESULT`) right after writing the
    /// n-th checkpoint — the worst crash window: durable state written,
    /// acks not yet released.
    pub kill_after_ckpt: Option<u32>,
    /// Go silent (stop reading, writing and expanding) once this many
    /// states have been expanded; the supervisor's stall detector must
    /// kill and restart the worker.
    pub wedge_after_states: Option<u64>,
}

/// The decoded body of an `INIT` frame: everything a fresh worker
/// process needs to reconstruct its slice of the exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInit {
    /// Pretty-printed program source (re-parsed by the worker; the
    /// pretty-printer is deterministic, so the snapshot fingerprint
    /// agrees across the process boundary).
    pub program: String,
    /// Initial cell values.
    pub input: Vec<i64>,
    /// [`ExploreConfig::canonical_dedup`].
    pub canonical_dedup: bool,
    /// [`ExploreConfig::normalize_admin`].
    pub normalize_admin: bool,
    /// Total shard count (the digest-range denominator).
    pub shards: u32,
    /// This worker's slot index (for diagnostics).
    pub slot: u32,
    /// Restart attempt (0 = first spawn).
    pub attempt: u32,
    /// Shard ids this worker currently owns.
    pub owned: Vec<u32>,
    /// Durable checkpoint path for this slot.
    pub ckpt_path: String,
    /// Checkpoint after this many newly inserted states (0 = only the
    /// idle-time checkpoints that release acks).
    pub ckpt_every: u64,
    /// Collect canonical state renderings into the result (the
    /// differential-oracle hook).
    pub collect: bool,
    /// The run's state cap; each worker keeps to its share of it (see
    /// the module docs).
    pub max_states: u64,
    /// Fault injection for this incarnation.
    pub chaos: ShardChaos,
}

/// Encodes an [`ShardInit`] as a single-section FX10SNAP container.
pub fn encode_init(init: &ShardInit) -> Vec<u8> {
    let mut b = SectionBuf::new();
    b.put_usize(init.program.len());
    b.put_bytes(init.program.as_bytes());
    b.put_usize(init.input.len());
    for &v in &init.input {
        b.put_i64(v);
    }
    b.put_u8(init.canonical_dedup as u8);
    b.put_u8(init.normalize_admin as u8);
    b.put_u32(init.shards);
    b.put_u32(init.slot);
    b.put_u32(init.attempt);
    b.put_usize(init.owned.len());
    for &s in &init.owned {
        b.put_u32(s);
    }
    b.put_usize(init.ckpt_path.len());
    b.put_bytes(init.ckpt_path.as_bytes());
    b.put_u64(init.ckpt_every);
    b.put_u8(init.collect as u8);
    b.put_u64(init.max_states);
    match init.chaos.kill_after_ckpt {
        Some(n) => {
            b.put_u8(1);
            b.put_u32(n);
        }
        None => b.put_u8(0),
    }
    match init.chaos.wedge_after_states {
        Some(n) => {
            b.put_u8(1);
            b.put_u64(n);
        }
        None => b.put_u8(0),
    }
    let mut w = SnapshotWriter::new();
    w.add_section(SEC_INIT, b);
    w.finish()
}

/// Reads a length-prefixed UTF-8 string, bounds-checked before any
/// allocation (a corrupted length must become a typed error).
fn get_string(c: &mut fx10_robust::snapshot::Cursor<'_>) -> Result<String, SnapshotError> {
    let n = c.get_usize()?;
    if n > c.remaining() {
        return Err(SnapshotError::Truncated);
    }
    String::from_utf8(c.get_bytes(n)?.to_vec())
        .map_err(|_| SnapshotError::Malformed("non-UTF-8 string".into()))
}

/// Bounds-checks an element count against the bytes actually present.
fn check_count(
    n: usize,
    elem: usize,
    c: &fx10_robust::snapshot::Cursor<'_>,
) -> Result<(), SnapshotError> {
    if n.checked_mul(elem).is_none_or(|b| b > c.remaining()) {
        return Err(SnapshotError::Truncated);
    }
    Ok(())
}

/// Decodes an `INIT` body.
pub fn decode_init(body: &[u8]) -> Result<ShardInit, SnapshotError> {
    let snap = Snapshot::parse(body)?;
    let mut c = snap.section(SEC_INIT)?;
    let program = get_string(&mut c)?;
    let n = c.get_usize()?;
    check_count(n, 8, &c)?;
    let input = (0..n).map(|_| c.get_i64()).collect::<Result<_, _>>()?;
    let canonical_dedup = c.get_u8()? != 0;
    let normalize_admin = c.get_u8()? != 0;
    let shards = c.get_u32()?;
    let slot = c.get_u32()?;
    let attempt = c.get_u32()?;
    let n = c.get_usize()?;
    check_count(n, 4, &c)?;
    let owned = (0..n).map(|_| c.get_u32()).collect::<Result<_, _>>()?;
    let ckpt_path = get_string(&mut c)?;
    let ckpt_every = c.get_u64()?;
    let collect = c.get_u8()? != 0;
    let max_states = c.get_u64()?;
    let kill_after_ckpt = if c.get_u8()? != 0 {
        Some(c.get_u32()?)
    } else {
        None
    };
    let wedge_after_states = if c.get_u8()? != 0 {
        Some(c.get_u64()?)
    } else {
        None
    };
    c.done()?;
    if shards == 0 {
        return Err(SnapshotError::Malformed("zero shard count".into()));
    }
    Ok(ShardInit {
        program,
        input,
        canonical_dedup,
        normalize_admin,
        shards,
        slot,
        attempt,
        owned,
        ckpt_path,
        ckpt_every,
        collect,
        max_states,
        chaos: ShardChaos {
            kill_after_ckpt,
            wedge_after_states,
        },
    })
}

/// The decoded result body: one shard's share of the exploration
/// answer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardResult {
    /// Distinct states this worker inserted.
    pub visited: u64,
    /// Terminal (`√`) states among them.
    pub terminals: u64,
    /// Theorem 1 verdict over this worker's states.
    pub deadlock_free: bool,
    /// Did this worker reach its share of the state cap?
    pub truncated: bool,
    /// `∪ parallel(T)` over this worker's visited trees, as raw label
    /// pairs.
    pub pairs: Vec<(u32, u32)>,
    /// Canonical state renderings (empty unless `INIT.collect`).
    pub renders: Vec<String>,
}

/// Encodes a [`ShardResult`] as a single-section FX10SNAP container.
pub fn encode_result(r: &ShardResult) -> Vec<u8> {
    let mut b = SectionBuf::new();
    b.put_u64(r.visited);
    b.put_u64(r.terminals);
    b.put_u8(r.deadlock_free as u8);
    b.put_u8(r.truncated as u8);
    b.put_usize(r.pairs.len());
    for &(x, y) in &r.pairs {
        b.put_u32(x);
        b.put_u32(y);
    }
    b.put_usize(r.renders.len());
    for s in &r.renders {
        b.put_usize(s.len());
        b.put_bytes(s.as_bytes());
    }
    let mut w = SnapshotWriter::new();
    w.add_section(SEC_RESULT, b);
    w.finish()
}

/// Decodes a result body.
pub fn decode_result(body: &[u8]) -> Result<ShardResult, SnapshotError> {
    let snap = Snapshot::parse(body)?;
    let mut c = snap.section(SEC_RESULT)?;
    let visited = c.get_u64()?;
    let terminals = c.get_u64()?;
    let deadlock_free = c.get_u8()? != 0;
    let truncated = c.get_u8()? != 0;
    let n = c.get_usize()?;
    check_count(n, 8, &c)?;
    let pairs = (0..n)
        .map(|_| Ok((c.get_u32()?, c.get_u32()?)))
        .collect::<Result<_, SnapshotError>>()?;
    let n = c.get_usize()?;
    check_count(n, 8, &c)?;
    let mut renders = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        renders.push(get_string(&mut c)?);
    }
    c.done()?;
    Ok(ShardResult {
        visited,
        terminals,
        deadlock_free,
        truncated,
        pairs,
        renders,
    })
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// States expanded per event-loop iteration before the inbox is polled
/// again.
const SLICE: usize = 256;
/// Flush an outbox to its owner once it holds this many states.
const BATCH_FLUSH: usize = 512;
/// Progress-heartbeat cadence.
const PROGRESS_EVERY: Duration = Duration::from_millis(100);
/// States rendered per heartbeat check while collecting the result
/// (rendering is microseconds per state, so this checks the clock
/// every few milliseconds).
const RENDER_CHUNK: usize = 2048;

enum In {
    Msg(WireMsg),
    Eof,
    Fail(Fx10Error),
}

/// Reads frames off `input` into `tx` until EOF or an error.
fn pump_frames(mut input: impl Read, tx: Sender<In>) {
    loop {
        let (event, last) = match ipc::read_frame(&mut input, ipc::MAX_FRAME_LEN) {
            Ok(Some(m)) => (In::Msg(m), false),
            Ok(None) => (In::Eof, true),
            Err(e) => (In::Fail(e), true),
        };
        if tx.send(event).is_err() || last {
            return;
        }
    }
}

struct Worker {
    p: Program,
    it: Interner,
    dig: StateDigests,
    normalize: bool,
    shards: u32,
    owned: Vec<bool>,
    /// The fleet-wide state cap from `INIT`.
    max_states: u64,
    /// This worker's share of it, `⌈max_states·owned/shards⌉`;
    /// recomputed whenever ownership changes.
    cap: u64,
    visited: HashSet<u64>,
    frontier: VecDeque<u64>,
    terminals: u64,
    deadlock_free: bool,
    /// Digests already forwarded to a remote owner (resend suppression —
    /// receivers dedup anyway, this just saves frames).
    emitted: HashSet<u64>,
    /// Per-shard outgoing state keys, flushed as `BATCH` frames.
    outbox: Vec<Vec<u64>>,
    /// Frame seqs processed since the last checkpoint; acked only once
    /// a checkpoint has made their effects durable.
    pending_ack: Vec<u64>,
    processed: u64,
    since_ckpt: u64,
    ckpt_path: PathBuf,
    ckpt_every: u64,
    ckpt_count: u32,
    fingerprint: u64,
    collect: bool,
    chaos: ShardChaos,
    expanded: u64,
    out_seq: u64,
    finished: bool,
    seed: (ArrayId, TreeId),
    /// Encoded result body, computed once per finish round. A large
    /// collected result (hundreds of thousands of renders) costs whole
    /// seconds to build; a `FINISH` re-sent after a sibling's restart
    /// must re-send bytes, not redo that work. Invalidated by any frame
    /// that adds work.
    result_body: Option<Vec<u8>>,
}

impl Worker {
    fn new(init: ShardInit) -> Result<Worker, Fx10Error> {
        let p = Program::parse(&init.program).map_err(|e| Fx10Error::Snapshot {
            message: format!("INIT carried an unparsable program: {e}"),
        })?;
        let config = ExploreConfig {
            canonical_dedup: init.canonical_dedup,
            normalize_admin: init.normalize_admin,
            ..ExploreConfig::default()
        };
        let fp = fingerprint(&p, &init.input, &config);
        let it = Interner::new(init.canonical_dedup);
        let a0 = it.intern_array(ArrayState::with_input(&p, &init.input).cells().to_vec());
        let mut t0 = it.intern_tree(&initial_tree(&p));
        if init.normalize_admin {
            t0 = it.normalized(t0);
        }
        let mut w = Worker {
            p,
            it,
            dig: StateDigests::new(),
            normalize: init.normalize_admin,
            shards: init.shards,
            owned: vec![false; init.shards as usize],
            max_states: init.max_states,
            cap: 0,
            visited: HashSet::new(),
            frontier: VecDeque::new(),
            terminals: 0,
            deadlock_free: true,
            emitted: HashSet::new(),
            outbox: vec![Vec::new(); init.shards as usize],
            pending_ack: Vec::new(),
            processed: 0,
            since_ckpt: 0,
            ckpt_path: PathBuf::from(&init.ckpt_path),
            ckpt_every: init.ckpt_every,
            ckpt_count: 0,
            fingerprint: fp,
            collect: init.collect,
            chaos: init.chaos,
            expanded: 0,
            out_seq: 0,
            finished: false,
            seed: (a0, t0),
            result_body: None,
        };
        w.own(&init.owned);
        Ok(w)
    }

    /// Takes ownership of `shards` and recomputes the cap share.
    fn own(&mut self, shards: &[u32]) {
        for &s in shards {
            if let Some(o) = self.owned.get_mut(s as usize) {
                *o = true;
            }
        }
        let owned = self.owned.iter().filter(|&&o| o).count() as u128;
        let share = (self.max_states as u128 * owned).div_ceil(self.shards as u128);
        self.cap = share.min(u64::MAX as u128) as u64;
    }

    /// Has this worker reached its share of the state cap? A worker at
    /// its share admits nothing new and expands nothing more, and its
    /// result is tagged truncated.
    fn at_cap(&self) -> bool {
        self.visited.len() as u64 >= self.cap
    }

    /// Inserts a state into the visited set; counts terminals at
    /// insertion (replay-idempotent — see the module docs) and queues
    /// non-terminal states for expansion. New states past the cap share
    /// are dropped.
    fn admit(&mut self, key: u64) {
        if self.at_cap() {
            return;
        }
        if self.visited.insert(key) {
            self.since_ckpt += 1;
            let (_, t) = state_parts(key);
            if t == DONE {
                self.terminals += 1;
            } else {
                self.frontier.push_back(key);
            }
        }
    }

    /// Routes a successor: admit locally if its digest lands in an
    /// owned shard, otherwise stage it for its owner.
    fn route(&mut self, a: ArrayId, t: TreeId) {
        let d = self.dig.state_digest(&self.it, a, t);
        let s = shard_of(d, self.shards);
        if self.owned[s as usize] {
            self.admit(state_key(a, t));
        } else if self.emitted.insert(d) {
            self.outbox[s as usize].push(state_key(a, t));
        }
    }

    /// Re-derives the initial state and admits it if this worker now
    /// owns its shard. Called on `INIT` and after every `ADOPT` — the
    /// seed's original owner may have died before its first checkpoint,
    /// and this is the only frame-free way the seed can re-enter the
    /// system.
    fn reseed(&mut self) {
        let (a0, t0) = self.seed;
        let d = self.dig.state_digest(&self.it, a0, t0);
        if self.owned[shard_of(d, self.shards) as usize] {
            self.admit(state_key(a0, t0));
        }
    }

    /// Re-interns a snapshot (checkpoint or batch) into this worker.
    /// `carry_verdict` is set for checkpoints (own resume or an adopted
    /// dead shard's), whose `deadlock_free` flag is part of the answer.
    fn import(&mut self, bytes: &[u8], carry_verdict: bool) -> Result<(), Fx10Error> {
        let snap = ExplorerSnapshot::from_bytes(bytes).map_err(Fx10Error::from)?;
        if snap.fingerprint != self.fingerprint {
            return Err(Fx10Error::Snapshot {
                message: format!(
                    "snapshot fingerprint {:016x} does not match this run ({:016x})",
                    snap.fingerprint, self.fingerprint
                ),
            });
        }
        let (_, tmap, amap) = snap.restore(&self.it);
        if carry_verdict {
            self.deadlock_free &= snap.deadlock_free;
        }
        let queued: HashSet<u64> = snap.frontier.iter().copied().collect();
        for &k in &snap.visited {
            let (a, t) = state_parts(k);
            let key = state_key(ArrayId(amap[a.0 as usize]), TreeId(tmap[t.0 as usize]));
            if queued.contains(&k) {
                self.admit(key);
            } else if self.visited.insert(key) {
                // Already-expanded state: record it (and its terminal
                // status) without queueing it for re-expansion.
                self.since_ckpt += 1;
                if TreeId(tmap[t.0 as usize]) == DONE {
                    self.terminals += 1;
                }
            }
        }
        Ok(())
    }

    /// Writes one frame and flushes (frames are the heartbeat channel,
    /// and a buffered frame looks like a stall).
    fn send(&mut self, out: &mut impl Write, kind_: u32, body: Vec<u8>) -> Result<(), Fx10Error> {
        self.out_seq += 1;
        ipc::write_frame(out, &WireMsg::new(kind_, self.out_seq, body))
    }

    /// Flushes outboxes as `BATCH` frames — all of them, or only those
    /// past the batching threshold.
    fn flush_outboxes(&mut self, out: &mut impl Write, only_full: bool) -> Result<(), Fx10Error> {
        for s in 0..self.outbox.len() {
            let n = self.outbox[s].len();
            if n == 0 || (only_full && n < BATCH_FLUSH) {
                continue;
            }
            let keys = std::mem::take(&mut self.outbox[s]);
            let snap = ExplorerSnapshot::capture_batch(&self.it, self.fingerprint, &keys);
            let body = ipc::batch_body(s as u32, &snap.to_bytes());
            self.send(out, kind::BATCH, body)?;
        }
        Ok(())
    }

    fn outboxes_empty(&self) -> bool {
        self.outbox.iter().all(|o| o.is_empty())
    }

    /// Is this worker quiescent from the supervisor's point of view? A
    /// worker at its cap share has nothing left it may do.
    fn idle(&self) -> bool {
        (self.frontier.is_empty() || self.at_cap()) && self.outboxes_empty()
    }

    /// Durably checkpoints and only then acks the frames the checkpoint
    /// covers. Ordering is the crash-safety story: outboxes drain first
    /// (invariant 1), the save is atomic, and acks release supervisor
    /// retention last (invariant 2). The kill-chaos hook fires *between*
    /// save and ack — the nastiest window a real crash can hit.
    fn checkpoint(&mut self, out: &mut impl Write) -> Result<(), Fx10Error> {
        self.flush_outboxes(out, false)?;
        let visited: Vec<u64> = self.visited.iter().copied().collect();
        let frontier: Vec<u64> = self.frontier.iter().copied().collect();
        let snap = ExplorerSnapshot::capture(
            &self.it,
            self.fingerprint,
            self.terminals,
            self.deadlock_free,
            0,
            visited,
            frontier,
        );
        snap.save(&self.ckpt_path)?;
        self.since_ckpt = 0;
        self.ckpt_count += 1;
        if self
            .chaos
            .kill_after_ckpt
            .is_some_and(|n| self.ckpt_count >= n)
        {
            // Simulated SIGKILL: checkpoint written, acks not sent.
            std::process::exit(9);
        }
        if !self.pending_ack.is_empty() {
            let acks = std::mem::take(&mut self.pending_ack);
            self.send(out, kind::ACK, ipc::ack_body(&acks))?;
        }
        Ok(())
    }

    /// Expands up to [`SLICE`] frontier states, stopping at the cap
    /// share.
    fn expand_slice(&mut self) {
        let mut succ: Vec<(ArrayId, TreeId)> = Vec::new();
        for _ in 0..SLICE {
            if self.at_cap() {
                break;
            }
            let Some(key) = self.frontier.pop_front() else {
                break;
            };
            let (a, t) = state_parts(key);
            succ.clear();
            self.it.successors(&self.p, a, t, &mut succ);
            self.expanded += 1;
            if succ.is_empty() {
                // `√` is never queued, so an empty successor set is a
                // stuck non-terminal state: Theorem 1 fails here.
                self.deadlock_free = false;
                continue;
            }
            for &(na, nt) in &succ {
                let nt = if self.normalize {
                    self.it.normalized(nt)
                } else {
                    nt
                };
                self.route(na, nt);
            }
        }
    }

    /// Sends a `PROGRESS` frame — the heartbeat the supervisor's wedge
    /// detection listens for.
    fn heartbeat(&mut self, out: &mut impl Write) -> Result<(), Fx10Error> {
        let p = ipc::Progress {
            visited: self.visited.len() as u64,
            processed: self.processed,
            idle: self.idle(),
        };
        self.send(out, kind::PROGRESS, ipc::progress_body(&p))
    }

    /// One shard's share of the answer. Collecting renders for a large
    /// visited set takes whole seconds, so the render loop interleaves
    /// `PROGRESS` heartbeats — without them the supervisor reads the
    /// busy stretch as a wedged process and kills a healthy worker
    /// mid-answer.
    fn collect_result(&mut self, out: &mut impl Write) -> Result<ShardResult, Fx10Error> {
        let trees: HashSet<TreeId> = self.visited.iter().map(|&k| state_parts(k).1).collect();
        let pairs = self
            .it
            .parallel_of_trees(trees)
            .into_iter()
            .map(|(a, b)| (a.0, b.0))
            .collect();
        self.heartbeat(out)?;
        let renders = if self.collect {
            let keys: Vec<u64> = self.visited.iter().copied().collect();
            let mut renders = Vec::with_capacity(keys.len());
            let mut last_beat = Instant::now();
            for chunk in keys.chunks(RENDER_CHUNK) {
                for &k in chunk {
                    let (a, t) = state_parts(k);
                    renders.push(self.it.render_state(a, t));
                }
                if last_beat.elapsed() >= PROGRESS_EVERY {
                    last_beat = Instant::now();
                    self.heartbeat(out)?;
                }
            }
            renders
        } else {
            Vec::new()
        };
        self.heartbeat(out)?;
        Ok(ShardResult {
            visited: self.visited.len() as u64,
            terminals: self.terminals,
            deadlock_free: self.deadlock_free,
            truncated: self.at_cap(),
            pairs,
            renders,
        })
    }

    /// Handles one supervisor frame.
    fn handle(&mut self, m: WireMsg, out: &mut impl Write) -> Result<(), Fx10Error> {
        match m.kind {
            kind::BATCH => {
                let payload = ipc::batch_payload(&m.body)?;
                self.import(payload, false)?;
                self.pending_ack.push(m.seq);
                self.processed += 1;
                self.result_body = None;
            }
            kind::ADOPT => {
                let (shards, ckpt) = ipc::parse_adopt_body(&m.body)?;
                self.own(&shards);
                if let Some(bytes) = ckpt {
                    self.import(&bytes, true)?;
                }
                self.reseed();
                self.pending_ack.push(m.seq);
                self.processed += 1;
                // Adoption reopens the exploration: a `FINISH` may
                // already have collected our result, but the supervisor
                // re-runs the finish round after any migration.
                self.finished = false;
                self.result_body = None;
            }
            kind::PROBE => {
                let token = ipc::parse_probe_body(&m.body)?;
                // Quiescence protocol: everything staged must be on the
                // wire before we claim idleness (FIFO pipes then make
                // the supervisor see those batches before this reply).
                self.flush_outboxes(out, false)?;
                let idle = self.idle();
                self.send(
                    out,
                    kind::PROBE_REPLY,
                    ipc::probe_reply_body(token, self.processed, idle),
                )?;
            }
            kind::FINISH => {
                self.flush_outboxes(out, false)?;
                if self.result_body.is_none() {
                    let r = self.collect_result(out)?;
                    self.result_body = Some(encode_result(&r));
                }
                // Stream the result as bounded RESULT_PART frames: a
                // collected result can dwarf the frame cap, and one
                // monster frame reads as worker silence for its entire
                // transfer.
                let body = self.result_body.clone().expect("just cached");
                let chunks: Vec<&[u8]> = if body.is_empty() {
                    vec![&[]]
                } else {
                    body.chunks(ipc::RESULT_PART_LEN).collect()
                };
                let total = chunks.len() as u32;
                for (i, chunk) in chunks.into_iter().enumerate() {
                    self.send(
                        out,
                        kind::RESULT_PART,
                        ipc::result_part_body(i as u32, total, chunk),
                    )?;
                }
                self.finished = true;
            }
            kind::INIT | kind::HELLO | kind::PROGRESS | kind::PROBE_REPLY | kind::ACK => {
                // Duplicate INIT or echoed traffic: ignore rather than
                // die — the supervisor is the arbiter of liveness.
            }
            _ => {
                return Err(Fx10Error::Snapshot {
                    message: format!("unexpected frame kind {} from supervisor", m.kind),
                })
            }
        }
        Ok(())
    }
}

/// Goes silent forever (the wedge-chaos mode). The supervisor's stall
/// detector is responsible for killing this process.
fn wedge() -> ! {
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

/// The `fx10 shard-worker` event loop: speak [`ipc`] frames on
/// `input`/`output` under a [`ShardSupervisor`]'s direction until the
/// supervisor closes our stdin.
///
/// Protocol: send `HELLO`, wait for `INIT` (15 s grace by default — this
/// subcommand is not meant to be run by hand), then interleave frontier
/// expansion with frame handling. Exits `Ok` on clean EOF; any protocol
/// or I/O error propagates (the supervisor treats worker death as a
/// restartable fault).
pub fn shard_worker_main<R>(input: R, mut output: impl Write) -> Result<(), Fx10Error>
where
    R: Read + Send + 'static,
{
    let (tx, rx) = channel::<In>();
    thread::spawn(move || pump_frames(input, tx));
    ipc::write_frame(
        &mut output,
        &WireMsg::new(kind::HELLO, 0, ipc::hello_body(ipc::PROTOCOL_VERSION)),
    )?;

    // The 15 s grace covers a supervisor that is slow to INIT (e.g. a
    // loaded CI box); tests shrink it via FX10_SHARD_INIT_TIMEOUT_MS so
    // the run-by-hand diagnostic can be exercised without the wait.
    let init_grace = std::env::var("FX10_SHARD_INIT_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(Duration::from_secs(15), Duration::from_millis);
    let init = loop {
        match rx.recv_timeout(init_grace) {
            Ok(In::Msg(m)) if m.kind == kind::INIT => break decode_init(&m.body)?,
            Ok(In::Msg(_)) => continue,
            Ok(In::Eof) | Err(RecvTimeoutError::Disconnected) => return Ok(()),
            Ok(In::Fail(e)) => return Err(e),
            Err(RecvTimeoutError::Timeout) => {
                return Err(Fx10Error::Snapshot {
                    message: "no INIT from the supervisor — `fx10 shard-worker` is spawned \
                              by `fx10 explore --shards`, not run by hand"
                        .into(),
                })
            }
        }
    };

    let mut w = Worker::new(init)?;
    // Restart path: resume from our own durable checkpoint. The
    // supervisor replays every unacked frame after INIT, and dedup
    // absorbs the overlap.
    if w.ckpt_path.exists() {
        let snap = ExplorerSnapshot::load(&w.ckpt_path)?;
        w.import(&snap.to_bytes(), true)?;
    }
    w.reseed();

    let mut last_progress = Instant::now();
    let mut first_progress = true;
    loop {
        if w.chaos.wedge_after_states.is_some_and(|n| w.expanded >= n) {
            wedge();
        }
        let stopped = w.frontier.is_empty() || w.at_cap();
        let next = if stopped || !w.pending_ack.is_empty() {
            rx.recv_timeout(Duration::from_millis(20))
        } else {
            rx.try_recv().map_err(|e| match e {
                TryRecvError::Empty => RecvTimeoutError::Timeout,
                TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
            })
        };
        match next {
            Ok(In::Msg(m)) => w.handle(m, &mut output)?,
            Ok(In::Eof) | Err(RecvTimeoutError::Disconnected) => return Ok(()),
            Ok(In::Fail(e)) => return Err(e),
            Err(RecvTimeoutError::Timeout) => {}
        }

        if !w.finished {
            w.expand_slice();
            w.flush_outboxes(&mut output, true)?;
            if w.ckpt_every > 0 && w.since_ckpt >= w.ckpt_every {
                w.checkpoint(&mut output)?;
            }
            if w.frontier.is_empty() || w.at_cap() {
                w.flush_outboxes(&mut output, false)?;
                if !w.pending_ack.is_empty() || w.since_ckpt > 0 {
                    w.checkpoint(&mut output)?;
                }
            }
        }

        if first_progress || last_progress.elapsed() >= PROGRESS_EVERY {
            first_progress = false;
            last_progress = Instant::now();
            w.heartbeat(&mut output)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Parent-side orchestration
// ---------------------------------------------------------------------------

/// Configuration of a sharded exploration run.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Worker-process count (= shard count at launch).
    pub shards: usize,
    /// Executable to spawn for each worker (normally
    /// `std::env::current_exe()`).
    pub worker_exe: PathBuf,
    /// Arguments selecting the worker mode (normally
    /// `["shard-worker"]`).
    pub worker_args: Vec<String>,
    /// Directory for the per-slot durable checkpoints. Pre-existing
    /// `shard-*.fxsnap` files in it are removed before the run.
    pub ckpt_dir: PathBuf,
    /// Worker checkpoint cadence in newly inserted states.
    pub ckpt_every: u64,
    /// Restart budget and backoff.
    pub policy: RestartPolicy,
    /// Wedge detection threshold.
    pub stall_after: Duration,
    /// Supervisor poll interval.
    pub poll: Duration,
    /// Wall-clock budget for the whole fleet.
    pub deadline: Option<Duration>,
    /// Collect canonical state renderings (the differential hook).
    pub collect: bool,
    /// Kill worker `k` abruptly after its n-th checkpoint
    /// (`(k, n)`, first incarnation only).
    pub chaos_kill: Option<(u32, u32)>,
    /// Wedge worker `k` after it expands n states
    /// (`(k, n)`, first incarnation only).
    pub chaos_wedge: Option<(u32, u64)>,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            shards: 2,
            worker_exe: PathBuf::new(),
            worker_args: vec!["shard-worker".into()],
            ckpt_dir: std::env::temp_dir(),
            ckpt_every: 1024,
            policy: RestartPolicy::default(),
            stall_after: Duration::from_secs(10),
            poll: Duration::from_millis(20),
            deadline: None,
            collect: false,
            chaos_kill: None,
            chaos_wedge: None,
        }
    }
}

/// What the supervision layer did to produce an answer — the provenance
/// the ladder stamps into its `SupervisedAnswer`.
#[derive(Debug, Clone, Default)]
pub struct ShardProvenance {
    /// Supervision events in order (restarts, migrations, quiescence).
    pub events: Vec<String>,
    /// Worker restarts performed.
    pub restarts: u32,
    /// Shard migrations performed.
    pub migrations: u32,
}

/// Explores `p` across `opts.shards` worker processes and merges the
/// per-shard answers.
///
/// The merge is lossless because shard ownership partitions the visited
/// set: `visited`/`terminals` add, `deadlock_free` conjoins, the
/// truncation tags disjoin, MHP and the rendered digest set union. Errors (`Cancelled`, deadline,
/// `WorkerPanicked` after the restart budget and migration are both
/// exhausted) propagate to the caller, which is expected to descend the
/// degradation ladder.
pub fn explore_sharded(
    p: &Program,
    input: &[i64],
    config: &ExploreConfig,
    opts: &ShardedOptions,
    cancel: &CancelToken,
) -> Result<(Exploration, ShardProvenance), Fx10Error> {
    std::fs::create_dir_all(&opts.ckpt_dir).map_err(|e| Fx10Error::Io {
        path: opts.ckpt_dir.display().to_string(),
        message: e.to_string(),
    })?;
    let slot_ckpt = |slot: usize| opts.ckpt_dir.join(format!("shard-{slot}.fxsnap"));
    for slot in 0..opts.shards {
        // Stale checkpoints from a previous run must not leak into this
        // one (a same-fingerprint leftover would silently pre-seed it).
        let _ = std::fs::remove_file(slot_ckpt(slot));
    }

    let sup = ShardSupervisor {
        shards: opts.shards,
        policy: opts.policy,
        stall_after: opts.stall_after,
        poll: opts.poll,
        deadline: opts.deadline,
        max_frame: ipc::MAX_FRAME_LEN,
    };
    let program_text = fx10_syntax::pretty::program(p);
    let report = sup.run(
        cancel,
        |_| {
            let mut c = Command::new(&opts.worker_exe);
            c.args(&opts.worker_args);
            c
        },
        |slot, attempt, owned| {
            let first = attempt == 0;
            encode_init(&ShardInit {
                program: program_text.clone(),
                input: input.to_vec(),
                canonical_dedup: config.canonical_dedup,
                normalize_admin: config.normalize_admin,
                shards: opts.shards as u32,
                slot: slot as u32,
                attempt,
                owned: owned.to_vec(),
                ckpt_path: slot_ckpt(slot).to_string_lossy().into_owned(),
                ckpt_every: opts.ckpt_every,
                collect: opts.collect,
                max_states: config.max_states as u64,
                chaos: ShardChaos {
                    kill_after_ckpt: opts
                        .chaos_kill
                        .filter(|&(k, _)| first && k as usize == slot)
                        .map(|(_, n)| n),
                    wedge_after_states: opts
                        .chaos_wedge
                        .filter(|&(k, _)| first && k as usize == slot)
                        .map(|(_, n)| n),
                },
            })
        },
        |slot| Some(slot_ckpt(slot)),
    )?;

    let mut visited = 0u64;
    let mut terminals = 0u64;
    let mut deadlock_free = true;
    let mut truncated = false;
    let mut mhp: BTreeSet<(Label, Label)> = BTreeSet::new();
    let mut renders: BTreeSet<String> = BTreeSet::new();
    for body in report.results.iter().flatten() {
        let r = decode_result(body).map_err(Fx10Error::from)?;
        visited += r.visited;
        terminals += r.terminals;
        deadlock_free &= r.deadlock_free;
        truncated |= r.truncated;
        mhp.extend(r.pairs.iter().map(|&(a, b)| (Label(a), Label(b))));
        renders.extend(r.renders);
    }
    let exploration = Exploration {
        visited: visited as usize,
        truncated,
        exhausted: truncated.then_some(Exhaustion::States),
        mhp,
        deadlock_free,
        terminals: terminals as usize,
        state_digests: opts.collect.then_some(renders),
    };
    Ok((
        exploration,
        ShardProvenance {
            events: report.events,
            restarts: report.restarts,
            migrations: report.migrations,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_syntax::examples;

    fn digest_all(p: &Program) -> BTreeSet<u64> {
        // Explore the whole space in one interner and digest every
        // state.
        let it = Interner::new(true);
        let a0 = it.intern_array(ArrayState::with_input(p, &[]).cells().to_vec());
        let t0 = it.intern_tree(&initial_tree(p));
        let mut dig = StateDigests::new();
        let mut seen = HashSet::new();
        let mut work = vec![(a0, t0)];
        let mut out = BTreeSet::new();
        let mut succ = Vec::new();
        while let Some((a, t)) = work.pop() {
            if !seen.insert(state_key(a, t)) {
                continue;
            }
            out.insert(dig.state_digest(&it, a, t));
            succ.clear();
            it.successors(p, a, t, &mut succ);
            work.extend(succ.iter().copied());
        }
        out
    }

    #[test]
    fn digests_are_interner_independent() {
        // Two interners visiting the same space in opposite orders
        // assign different ids but must agree on every digest.
        let p = examples::example_2_1();
        let a = digest_all(&p);
        let it = Interner::new(true);
        // Intern a few unrelated things first to shift all ids.
        it.intern_array(vec![9, 9, 9]);
        it.intern_tree(&initial_tree(&examples::example_2_2()));
        let a0 = it.intern_array(ArrayState::with_input(&p, &[]).cells().to_vec());
        let t0 = it.intern_tree(&initial_tree(&p));
        let mut dig = StateDigests::new();
        let mut seen = HashSet::new();
        let mut work = vec![(a0, t0)];
        let mut b = BTreeSet::new();
        let mut succ = Vec::new();
        while let Some((aid, tid)) = work.pop() {
            if !seen.insert(state_key(aid, tid)) {
                continue;
            }
            b.insert(dig.state_digest(&it, aid, tid));
            succ.clear();
            it.successors(&p, aid, tid, &mut succ);
            // Reverse order: different interning sequence.
            work.extend(succ.iter().rev().copied());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn shard_of_partitions_the_digest_space() {
        assert_eq!(shard_of(0, 1), 0);
        assert_eq!(shard_of(u64::MAX, 1), 0);
        for n in [2u32, 3, 4, 7] {
            assert_eq!(shard_of(0, n), 0);
            assert_eq!(shard_of(u64::MAX, n), n - 1);
            // Monotone in the digest: ranges, not residues.
            let mut last = 0;
            for i in 0..1000u64 {
                let s = shard_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), n);
                assert!(s < n);
                let _ = last;
                last = s;
            }
        }
        let p = examples::example_2_1();
        let digests = digest_all(&p);
        let n = 4;
        let mut buckets = vec![0usize; n as usize];
        for &d in &digests {
            buckets[shard_of(d, n) as usize] += 1;
        }
        assert_eq!(buckets.iter().sum::<usize>(), digests.len());
    }

    #[test]
    fn init_roundtrip() {
        let init = ShardInit {
            program: "x0 := 0;".into(),
            input: vec![1, -2, 3],
            canonical_dedup: true,
            normalize_admin: false,
            shards: 4,
            slot: 2,
            attempt: 1,
            owned: vec![2, 3],
            ckpt_path: "/tmp/shard-2.fxsnap".into(),
            ckpt_every: 512,
            collect: true,
            max_states: 200_000,
            chaos: ShardChaos {
                kill_after_ckpt: Some(3),
                wedge_after_states: None,
            },
        };
        let bytes = encode_init(&init);
        assert_eq!(decode_init(&bytes).unwrap(), init);
        // Any corruption is a typed error, never a panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = decode_init(&bad);
            let _ = decode_init(&bytes[..i]);
        }
    }

    #[test]
    fn result_roundtrip() {
        let r = ShardResult {
            visited: 10,
            terminals: 2,
            deadlock_free: false,
            truncated: true,
            pairs: vec![(1, 2), (3, 3)],
            renders: vec!["[0] ⊢ √".into(), "[1] ⊢ ⟨2⟩".into()],
        };
        let bytes = encode_result(&r);
        assert_eq!(decode_result(&bytes).unwrap(), r);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let _ = decode_result(&bad);
        }
        // A lying count must not cause an OOM-sized allocation.
        let huge = {
            let mut b = SectionBuf::new();
            b.put_u64(0);
            b.put_u64(0);
            b.put_u8(1);
            b.put_u8(0);
            b.put_usize(usize::MAX / 2);
            let mut w = SnapshotWriter::new();
            w.add_section(SEC_RESULT, b);
            w.finish()
        };
        assert!(decode_result(&huge).is_err());
    }

    #[test]
    fn batch_capture_restores_identical_renders() {
        // capture_batch → to_bytes → from_bytes → restore into a fresh
        // interner must preserve the rendered identity of every state.
        let p = examples::example_2_1();
        let it = Interner::new(true);
        let a0 = it.intern_array(ArrayState::with_input(&p, &[]).cells().to_vec());
        let t0 = it.intern_tree(&initial_tree(&p));
        let mut keys = vec![state_key(a0, t0)];
        let mut succ = Vec::new();
        it.successors(&p, a0, t0, &mut succ);
        keys.extend(succ.iter().map(|&(a, t)| state_key(a, t)));
        let snap = ExplorerSnapshot::capture_batch(&it, 42, &keys);
        let snap = ExplorerSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let other = Interner::new(true);
        let (_, tmap, amap) = snap.restore(&other);
        let want: BTreeSet<String> = keys
            .iter()
            .map(|&k| {
                let (a, t) = state_parts(k);
                it.render_state(a, t)
            })
            .collect();
        let got: BTreeSet<String> = snap
            .visited
            .iter()
            .map(|&k| {
                let (a, t) = state_parts(k);
                other.render_state(ArrayId(amap[a.0 as usize]), TreeId(tmap[t.0 as usize]))
            })
            .collect();
        assert_eq!(want, got);
    }
}
