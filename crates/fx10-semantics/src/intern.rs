//! Hash-consing interners for execution trees, statements and array
//! states.
//!
//! The exhaustive explorer's hot loop is dominated by deep-cloning and
//! re-hashing execution trees `T ::= √ | ⟨s⟩ | T ▷ T | T ∥ T`. This
//! module replaces those clones with *hash-consed ids*: every distinct
//! statement, tree node and array value is stored exactly once and named
//! by a dense 32-bit id ([`StmtId`], [`TreeId`], [`ArrayId`]), so
//!
//! - equality and hashing of states are O(1) on a packed `u64` key,
//! - a successor tree shares every unchanged subtree with its parent
//!   (structural sharing — building `T₁' ▷ T₂` touches one node), and
//! - per-tree results (`FTlabels`, `parallel`) can be memoized by id.
//!
//! ## Canonical `∥` forms
//!
//! When constructed in canonical mode, `∥` nodes keep their children in
//! *structural order* (the derived [`Ord`] on [`Tree`]), which quotients
//! the state space by the `∥`-symmetry `T₁ ∥ T₂ ≈ T₂ ∥ T₁`. Swapping
//! `∥` children is a bisimulation — successors of the swapped tree are
//! exactly the swaps of the successors, with identical array states —
//! and `parallel`/`FTlabels` are already symmetric, so exploring
//! canonical representatives preserves the dynamic MHP set, the
//! deadlock-freedom verdict and the terminal states while (often
//! dramatically) shrinking the visited set. Crucially the order is
//! structural, *never* id-based: interning order differs between runs
//! and schedules, but canonical forms do not.
//!
//! ## Concurrency
//!
//! All interners are safe to share across worker threads: id→value
//! lookups are lock-free reads of append-only storage in geometrically
//! growing segments, and value→id interning takes one sharded lock. Ids
//! are published to other workers only through locks or join points,
//! which order the slot writes before any cross-thread read.
//!
//! ## The per-worker stepper
//!
//! Successors are enumerated by a [`Stepper`], which each worker owns.
//! It fronts the shared maps with two small direct-mapped caches: raw
//! tree nodes `(tag, a, b)` → [`TreeId`] and `(array, assignment label)`
//! → [`ArrayId`]. Both map to values that never change once interned,
//! and only ids the interner has already published are stored, so a
//! slot that now holds another key is simply overwritten, never
//! invalidated.

use crate::hash::{id_hash, IdMap};
use crate::parallel::LabelPair;
use crate::tree::Tree;
use fx10_syntax::{Instr, InstrKind, Label, Program, Stmt};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// An interned execution tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeId(pub u32);

/// An interned array state (the full cell vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// The interned `√` tree (id 0 is reserved for it at construction).
pub const DONE: TreeId = TreeId(0);

/// One state of the interned transition system, packed into a `u64` —
/// O(1) equality and hashing, 8 bytes in the visited set.
#[inline]
pub fn state_key(a: ArrayId, t: TreeId) -> u64 {
    ((a.0 as u64) << 32) | t.0 as u64
}

/// Inverse of [`state_key`].
#[inline]
pub fn state_parts(key: u64) -> (ArrayId, TreeId) {
    (ArrayId((key >> 32) as u32), TreeId(key as u32))
}

/// Segment `b` of the id storage holds `2^(FIRST_SEG_BITS + b)` slots,
/// so a fresh interner allocates nothing up front and a small one
/// touches only a few hundred slots.
const FIRST_SEG_BITS: u32 = 8;
const SEGMENTS: usize = 21;
/// Hard capacity per interner (2^28 ids ≈ 268M, inside the 2^29 − 256
/// slots of the 21 segments); state budgets keep real explorations far
/// below this.
const MAX_IDS: u32 = 1 << 28;
const SHARD_BITS: u32 = 5;
const SHARDS: usize = 1 << SHARD_BITS;
/// Slots per stepper cache: 1,024 direct-mapped entries of 16 bytes.
/// 16,384 entries sped up one large exploration by up to 15% but not the
/// benchmark's explore jobs, cost them ≈3 MB of peak RSS, and slowed the
/// lint witness searches, which each allocate a stepper.
const CACHE_BITS: u32 = 10;

/// The (segment, offset) of slot `idx`: segment `b` starts at
/// `2^8 · (2^b − 1)`, so `idx + 2^8` has its top bit at `8 + b`.
#[inline]
fn locate(idx: u32) -> (usize, usize) {
    let j = idx as u64 + (1 << FIRST_SEG_BITS);
    let top = 63 - j.leading_zeros();
    ((top - FIRST_SEG_BITS) as usize, (j - (1 << top)) as usize)
}

/// Append-only storage in geometrically growing segments with lock-free
/// reads. Slots are written exactly once, before their index escapes the
/// interning lock; a segment is allocated on first touch.
struct Segments<S> {
    segs: [OnceLock<Box<[S]>>; SEGMENTS],
}

impl<S: Default> Segments<S> {
    fn new() -> Self {
        Segments {
            segs: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    fn slot(&self, idx: u32) -> &S {
        let (b, off) = locate(idx);
        let seg = self.segs[b].get_or_init(|| {
            (0..1usize << (FIRST_SEG_BITS as usize + b))
                .map(|_| S::default())
                .collect()
        });
        &seg[off]
    }
}

/// Packed `u64` values (tree nodes, statement tail links).
type U64Pages = Segments<AtomicU64>;

impl U64Pages {
    fn set(&self, idx: u32, v: u64) {
        self.slot(idx).store(v, Ordering::Release);
    }

    fn get(&self, idx: u32) -> u64 {
        self.slot(idx).load(Ordering::Acquire)
    }
}

/// Owned values (statements, cell vectors).
type SlotPages<T> = Segments<OnceLock<T>>;

impl<T> SlotPages<T> {
    fn set(&self, idx: u32, v: T) {
        // Slots are written once, under the owning shard lock, before the
        // id escapes; a second set can only be the same value racing and
        // is ignored.
        let _ = self.slot(idx).set(v);
    }

    fn get(&self, idx: u32) -> &T {
        self.slot(idx)
            .get()
            .expect("interned id read before its slot was published")
    }
}

/// The top bits of a second multiply: a shard's map indexes buckets by
/// the low bits of the same hash and tags them with its top seven, so
/// neither may be constant within a shard.
#[inline]
fn spread(h: u64, bits: u32) -> usize {
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

fn shard_of<K: Hash + ?Sized>(k: &K) -> usize {
    spread(id_hash(k), SHARD_BITS)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A decoded interned tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TNode {
    /// `√`.
    Done,
    /// `⟨s⟩`.
    Stm(StmtId),
    /// `T₁ ▷ T₂`.
    Seq(TreeId, TreeId),
    /// `T₁ ∥ T₂`.
    Par(TreeId, TreeId),
}

const TAG_DONE: u64 = 0;
const TAG_STM: u64 = 1;
const TAG_SEQ: u64 = 2;
const TAG_PAR: u64 = 3;

#[inline]
fn pack(tag: u64, a: u32, b: u32) -> u64 {
    tag | ((a as u64) << 2) | ((b as u64) << 33)
}

#[inline]
fn unpack(v: u64) -> (u64, u32, u32) {
    (v & 3, ((v >> 2) & 0x7fff_ffff) as u32, (v >> 33) as u32)
}

/// The shared hash-consing interner: statements, trees and array states.
pub struct Interner {
    canonical: bool,

    // Statements.
    stmt_map: Vec<Mutex<IdMap<Stmt, u32>>>,
    stmt_vals: SlotPages<Stmt>,
    /// Tail links: 0 = unset, 1 = no tail, otherwise tail id + 2.
    stmt_tails: U64Pages,
    stmt_next: AtomicU32,

    // Trees (packed nodes).
    tree_map: Vec<Mutex<IdMap<u64, u32>>>,
    tree_nodes: U64Pages,
    tree_next: AtomicU32,

    // Array states.
    array_map: Vec<Mutex<IdMap<Vec<i64>, u32>>>,
    array_vals: SlotPages<Vec<i64>>,
    array_next: AtomicU32,

    /// `⟨s⟩ → ⟨s'⟩` derivations that concatenate statements (while-unroll
    /// and call-inline), memoized by the source statement id.
    unroll_cache: Vec<Mutex<IdMap<u32, u32>>>,
    /// `async`/`finish` body statements, memoized by the instruction's
    /// (program-unique) label.
    spawn_cache: Vec<Mutex<IdMap<Label, u32>>>,
}

impl Interner {
    /// A fresh interner. `canonical` selects canonical-`∥` construction
    /// (the default for the explorer); pass `false` to intern literal
    /// trees, e.g. to mirror the un-deduplicated reference semantics.
    pub fn new(canonical: bool) -> Self {
        let it = Interner {
            canonical,
            stmt_map: (0..SHARDS).map(|_| Mutex::default()).collect(),
            stmt_vals: SlotPages::new(),
            stmt_tails: U64Pages::new(),
            stmt_next: AtomicU32::new(0),
            tree_map: (0..SHARDS).map(|_| Mutex::default()).collect(),
            tree_nodes: U64Pages::new(),
            tree_next: AtomicU32::new(0),
            array_map: (0..SHARDS).map(|_| Mutex::default()).collect(),
            array_vals: SlotPages::new(),
            array_next: AtomicU32::new(0),
            unroll_cache: (0..SHARDS).map(|_| Mutex::default()).collect(),
            spawn_cache: (0..SHARDS).map(|_| Mutex::default()).collect(),
        };
        // Reserve id 0 for √ so `DONE` is a constant.
        let done = it.intern_node(pack(TAG_DONE, 0, 0));
        debug_assert_eq!(done, DONE);
        it
    }

    // -- statements ---------------------------------------------------------

    /// Interns a statement (and, transitively, all its suffixes, so
    /// [`Self::stmt_tail`] is an O(1) lookup).
    pub fn intern_stmt(&self, s: &Stmt) -> StmtId {
        if let Some(&id) = lock(&self.stmt_map[shard_of(s)]).get(s) {
            return StmtId(id);
        }
        let instrs = s.instrs();
        let mut tail: Option<u32> = None;
        for k in (0..instrs.len()).rev() {
            let suffix = s.suffix(k).expect("k < len");
            tail = Some(self.intern_stmt_with_tail(suffix, tail));
        }
        StmtId(tail.expect("statements are non-empty"))
    }

    fn intern_stmt_with_tail(&self, s: Stmt, tail: Option<u32>) -> u32 {
        let mut map = lock(&self.stmt_map[shard_of(&s)]);
        if let Some(&id) = map.get(&s) {
            return id;
        }
        let id = self.stmt_next.fetch_add(1, Ordering::Relaxed);
        assert!(id < MAX_IDS, "statement interner capacity exceeded");
        self.stmt_tails.set(id, tail.map_or(1, |t| t as u64 + 2));
        self.stmt_vals.set(id, s.clone());
        map.insert(s, id);
        id
    }

    /// The interned statement's value.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        self.stmt_vals.get(id.0)
    }

    /// The statement after the head (`None` when the head is the whole
    /// statement). O(1): suffixes are interned eagerly.
    pub fn stmt_tail(&self, id: StmtId) -> Option<StmtId> {
        match self.stmt_tails.get(id.0) {
            0 => unreachable!("tail read before publication"),
            1 => None,
            t => Some(StmtId((t - 2) as u32)),
        }
    }

    /// Re-interns a statement decoded from a snapshot as `head` followed
    /// by the already-restored `tail` statement, preserving the O(1)
    /// tail link. Snapshots store statements in interning order, so the
    /// tail's id is always available before its referrer is restored.
    pub fn restore_stmt(&self, head: Instr, tail: Option<StmtId>) -> StmtId {
        let mut instrs = vec![head];
        if let Some(t) = tail {
            instrs.extend(self.stmt(t).instrs().iter().cloned());
        }
        let s = Stmt::new(instrs).expect("non-empty by construction");
        StmtId(self.intern_stmt_with_tail(s, tail.map(|t| t.0)))
    }

    // -- trees --------------------------------------------------------------

    fn intern_node(&self, packed: u64) -> TreeId {
        let mut map = lock(&self.tree_map[shard_of(&packed)]);
        if let Some(&id) = map.get(&packed) {
            return TreeId(id);
        }
        let id = self.tree_next.fetch_add(1, Ordering::Relaxed);
        assert!(id < MAX_IDS, "tree interner capacity exceeded");
        self.tree_nodes.set(id, packed);
        map.insert(packed, id);
        TreeId(id)
    }

    /// `⟨s⟩`.
    pub fn stm(&self, s: StmtId) -> TreeId {
        self.intern_node(pack(TAG_STM, s.0, 0))
    }

    /// `T₁ ▷ T₂`.
    pub fn seq(&self, a: TreeId, b: TreeId) -> TreeId {
        self.intern_node(pack(TAG_SEQ, a.0, b.0))
    }

    /// `T₁ ∥ T₂` — children are put in structural order when the
    /// interner is canonical.
    pub fn par(&self, a: TreeId, b: TreeId) -> TreeId {
        let (a, b) = if self.canonical && self.structural_cmp(a, b) == CmpOrdering::Greater {
            (b, a)
        } else {
            (a, b)
        };
        self.intern_node(pack(TAG_PAR, a.0, b.0))
    }

    /// Decodes an interned tree node.
    pub fn node(&self, t: TreeId) -> TNode {
        let (tag, a, b) = unpack(self.tree_nodes.get(t.0));
        match tag {
            TAG_DONE => TNode::Done,
            TAG_STM => TNode::Stm(StmtId(a)),
            TAG_SEQ => TNode::Seq(TreeId(a), TreeId(b)),
            TAG_PAR => TNode::Par(TreeId(a), TreeId(b)),
            _ => unreachable!("2-bit tag"),
        }
    }

    /// Structural total order on interned trees, mirroring the derived
    /// `Ord` on [`Tree`] exactly (`√ < ⟨s⟩ < ▷ < ∥`, then lexicographic
    /// children; statements compare by their derived order). Because the
    /// interner hash-conses, `a == b` iff the trees are structurally
    /// equal, which short-circuits shared subtrees.
    pub fn structural_cmp(&self, a: TreeId, b: TreeId) -> CmpOrdering {
        if a == b {
            return CmpOrdering::Equal;
        }
        match (self.node(a), self.node(b)) {
            (TNode::Done, TNode::Done) => CmpOrdering::Equal,
            (TNode::Done, _) => CmpOrdering::Less,
            (_, TNode::Done) => CmpOrdering::Greater,
            (TNode::Stm(x), TNode::Stm(y)) => self.stmt(x).cmp(self.stmt(y)),
            (TNode::Stm(_), _) => CmpOrdering::Less,
            (_, TNode::Stm(_)) => CmpOrdering::Greater,
            (TNode::Seq(a1, a2), TNode::Seq(b1, b2)) | (TNode::Par(a1, a2), TNode::Par(b1, b2)) => {
                self.structural_cmp(a1, b1)
                    .then_with(|| self.structural_cmp(a2, b2))
            }
            (TNode::Seq(..), TNode::Par(..)) => CmpOrdering::Less,
            (TNode::Par(..), TNode::Seq(..)) => CmpOrdering::Greater,
        }
    }

    /// Interns a cloned [`Tree`] (canonicalizing `∥` children when the
    /// interner is canonical).
    pub fn intern_tree(&self, t: &Tree) -> TreeId {
        match t {
            Tree::Done => DONE,
            Tree::Stm(s) => {
                let sid = self.intern_stmt(s);
                self.stm(sid)
            }
            Tree::Seq(a, b) => {
                let (a, b) = (self.intern_tree(a), self.intern_tree(b));
                self.seq(a, b)
            }
            Tree::Par(a, b) => {
                let (a, b) = (self.intern_tree(a), self.intern_tree(b));
                self.par(a, b)
            }
        }
    }

    /// Reconstructs the cloned [`Tree`] (for rendering and debugging).
    pub fn to_tree(&self, t: TreeId) -> Tree {
        match self.node(t) {
            TNode::Done => Tree::Done,
            TNode::Stm(s) => Tree::Stm(self.stmt(s).clone()),
            TNode::Seq(a, b) => Tree::seq(self.to_tree(a), self.to_tree(b)),
            TNode::Par(a, b) => Tree::par(self.to_tree(a), self.to_tree(b)),
        }
    }

    /// Collapses the administrative `√`-elimination forms, exactly like
    /// [`Tree::normalized`], over interned nodes.
    pub fn normalized(&self, t: TreeId) -> TreeId {
        match self.node(t) {
            TNode::Done | TNode::Stm(_) => t,
            TNode::Seq(a, b) => {
                let na = self.normalized(a);
                let nb = self.normalized(b);
                if na == DONE {
                    nb
                } else {
                    self.seq(na, nb)
                }
            }
            TNode::Par(a, b) => {
                let na = self.normalized(a);
                let nb = self.normalized(b);
                if na == DONE {
                    nb
                } else if nb == DONE {
                    na
                } else {
                    self.par(na, nb)
                }
            }
        }
    }

    /// Number of nodes of the denoted tree (counting shared subtrees once
    /// per occurrence, like [`Tree::node_count`]).
    pub fn node_count(&self, t: TreeId) -> usize {
        match self.node(t) {
            TNode::Done | TNode::Stm(_) => 1,
            TNode::Seq(a, b) | TNode::Par(a, b) => 1 + self.node_count(a) + self.node_count(b),
        }
    }

    // -- arrays -------------------------------------------------------------

    /// Interns an array-state cell vector.
    pub fn intern_array(&self, cells: Vec<i64>) -> ArrayId {
        let mut map = lock(&self.array_map[shard_of(&cells)]);
        if let Some(&id) = map.get(&cells) {
            return ArrayId(id);
        }
        let id = self.array_next.fetch_add(1, Ordering::Relaxed);
        assert!(id < MAX_IDS, "array interner capacity exceeded");
        self.array_vals.set(id, cells.clone());
        map.insert(cells, id);
        ArrayId(id)
    }

    /// The interned array's cells.
    pub fn cells(&self, id: ArrayId) -> &[i64] {
        self.array_vals.get(id.0)
    }

    // -- semantics ----------------------------------------------------------

    /// A fresh [`Stepper`] over this interner, with empty caches. Each
    /// worker owns one; its lifetime ties it to this interner.
    pub fn stepper(&self) -> Stepper<'_> {
        Stepper {
            it: self,
            nodes: Cache::new(),
            assigns: Cache::new(),
        }
    }

    fn derived_stmt(&self, from: StmtId, build: impl FnOnce() -> Stmt) -> StmtId {
        if let Some(&id) = lock(&self.unroll_cache[from.0 as usize % SHARDS]).get(&from.0) {
            return StmtId(id);
        }
        let id = self.intern_stmt(&build());
        lock(&self.unroll_cache[from.0 as usize % SHARDS]).insert(from.0, id.0);
        id
    }

    fn spawned_stmt(&self, label: Label, body: &Stmt) -> StmtId {
        if let Some(&id) = lock(&self.spawn_cache[shard_of(&label)]).get(&label) {
            return StmtId(id);
        }
        let id = self.intern_stmt(body);
        lock(&self.spawn_cache[shard_of(&label)]).insert(label, id.0);
        id
    }

    // -- parallel(T) --------------------------------------------------------

    /// `∪ parallel(T)` over a set of interned trees — the interned
    /// counterpart of folding [`crate::parallel::parallel`] over visited
    /// states, on bit rows.
    ///
    /// `parallel(T)` is the union, over the `∥` nodes reachable from `T`
    /// through `▷`-left and both `∥` children, of
    /// `symcross(FTlabels(T₁), FTlabels(T₂))`. Children are interned
    /// before their parents, so their ids are smaller: one descending
    /// sweep closes `trees` under those edges, and one ascending sweep
    /// builds each reached tree's `FTlabels` row (equations 33–36) from
    /// its children's and crosses every `∥` node once into a label ×
    /// label bit matrix, which becomes the pair set at the end.
    pub fn parallel_of_trees(&self, trees: TreeBits) -> BTreeSet<LabelPair> {
        let n = self.counts().1;
        let mut seen = trees.0;
        seen.resize(n.div_ceil(64), 0);
        let mut labels = 0;
        for w in (0..seen.len()).rev() {
            let mut todo = seen[w];
            while todo != 0 {
                let b = 63 - todo.leading_zeros();
                todo &= !(1 << b);
                match self.node(TreeId(w as u32 * 64 + b)) {
                    TNode::Done => {}
                    TNode::Stm(s) => labels = labels.max(self.stmt(s).head().label.index() + 1),
                    TNode::Seq(t1, _) => set_bit(&mut seen, t1.0),
                    TNode::Par(t1, t2) => {
                        set_bit(&mut seen, t1.0);
                        set_bit(&mut seen, t2.0);
                    }
                }
                // A child in this word lies below `b` and is still to do.
                todo |= seen[w] & ((1 << b) - 1);
            }
        }

        let lw = labels.div_ceil(64);
        // Rows of unreached ids stay zero and, in a zeroed allocation,
        // mostly untouched.
        let mut ft = vec![0u64; n * lw];
        let mut cross = vec![0u64; labels * lw];
        for (w, &word) in seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = t * lw;
                match self.node(TreeId(t as u32)) {
                    TNode::Done => {}
                    TNode::Stm(s) => {
                        let l = self.stmt(s).head().label.index();
                        ft[row + l / 64] |= 1 << (l % 64);
                    }
                    // FTlabels(T₁ ▷ T₂) = FTlabels(T₁): the right side is
                    // blocked.
                    TNode::Seq(t1, _) => {
                        let r1 = t1.0 as usize * lw;
                        ft.copy_within(r1..r1 + lw, row);
                    }
                    TNode::Par(t1, t2) => {
                        let (r1, r2) = (t1.0 as usize * lw, t2.0 as usize * lw);
                        for i in 0..lw {
                            ft[row + i] = ft[r1 + i] | ft[r2 + i];
                        }
                        for (i, &word) in ft[r1..r1 + lw].iter().enumerate() {
                            let mut ls = word;
                            while ls != 0 {
                                let l = i * 64 + ls.trailing_zeros() as usize;
                                ls &= ls - 1;
                                for j in 0..lw {
                                    cross[l * lw + j] |= ft[r2 + j];
                                }
                            }
                        }
                    }
                }
            }
        }

        let has = |a: usize, b: usize| cross[a * lw + b / 64] >> (b % 64) & 1 == 1;
        (0..labels)
            .flat_map(|a| (a..labels).map(move |b| (a, b)))
            .filter(|&(a, b)| has(a, b) || has(b, a))
            .map(|(a, b)| (Label(a as u32), Label(b as u32)))
            .collect()
    }

    /// Renders an interned state exactly like the cloned explorer renders
    /// the corresponding canonical [`Tree`] state — the byte-comparable
    /// digest used by the differential oracle.
    pub fn render_state(&self, a: ArrayId, t: TreeId) -> String {
        format!("{:?} ⊢ {}", self.cells(a), self.to_tree(t))
    }

    /// Interner occupancy, for diagnostics: (statements, trees, arrays).
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.stmt_next.load(Ordering::Relaxed) as usize,
            self.tree_next.load(Ordering::Relaxed) as usize,
            self.array_next.load(Ordering::Relaxed) as usize,
        )
    }
}

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (s, t, a) = self.counts();
        f.debug_struct("Interner")
            .field("canonical", &self.canonical)
            .field("stmts", &s)
            .field("trees", &t)
            .field("arrays", &a)
            .finish()
    }
}

/// A direct-mapped cache from packed `u64` keys to ids. A miss
/// overwrites whatever the slot held; a key that cannot occur marks an
/// empty slot (ids stay below 2^28, so no packed key is all ones).
struct Cache {
    slots: Box<[(u64, u32)]>,
}

impl Cache {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Cache {
        Cache::with_slots(1 << CACHE_BITS)
    }

    /// `slots` must be a power of two; tests shrink it to force
    /// collisions.
    fn with_slots(slots: usize) -> Cache {
        Cache {
            slots: vec![(Cache::EMPTY, 0); slots].into_boxed_slice(),
        }
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        spread(key, CACHE_BITS) & (self.slots.len() - 1)
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let (k, id) = self.slots[self.slot(key)];
        (k == key).then_some(id)
    }

    #[inline]
    fn put(&mut self, key: u64, id: u32) {
        let i = self.slot(key);
        self.slots[i] = (key, id);
    }
}

/// One worker's successor enumerator over a shared [`Interner`], obtained
/// from [`Interner::stepper`].
///
/// It caches raw tree nodes and assignment results per worker (see the
/// module docs): a hit on `T₁ ∥ T₂` skips the structural comparison and
/// the shard lock, and a hit on an assignment skips evaluating it,
/// copying the cells and hashing them. Ids and enumeration order are
/// exactly the uncached ones.
pub struct Stepper<'i> {
    it: &'i Interner,
    /// `pack(tag, a, b)` of a requested node → its interned id (the
    /// canonical one for `∥`).
    nodes: Cache,
    /// `array id << 32 | assignment label` → the array after it.
    assigns: Cache,
}

impl<'i> Stepper<'i> {
    fn node(&mut self, tag: u64, a: u32, b: u32) -> TreeId {
        let key = pack(tag, a, b);
        if let Some(id) = self.nodes.get(key) {
            return TreeId(id);
        }
        let id = if tag == TAG_PAR {
            self.it.par(TreeId(a), TreeId(b))
        } else {
            self.it.intern_node(key)
        };
        self.nodes.put(key, id.0);
        id
    }

    fn stm(&mut self, s: StmtId) -> TreeId {
        self.node(TAG_STM, s.0, 0)
    }

    fn seq(&mut self, a: TreeId, b: TreeId) -> TreeId {
        self.node(TAG_SEQ, a.0, b.0)
    }

    /// `T₁ ∥ T₂`, canonical when the interner is.
    fn par(&mut self, a: TreeId, b: TreeId) -> TreeId {
        self.node(TAG_PAR, a.0, b.0)
    }

    /// Appends all `(A', T')` with `(p, A, T) → (p, A', T')` to `out` —
    /// rules (1)–(14) over interned ids, mirroring
    /// [`crate::step::successors`] and its order, with structural sharing
    /// instead of deep clones (and canonical `∥` re-assembly when the
    /// interner is canonical). A sub-step's successors are appended and
    /// then rewrapped in place.
    pub fn successors(
        &mut self,
        p: &Program,
        a: ArrayId,
        t: TreeId,
        out: &mut Vec<(ArrayId, TreeId)>,
    ) {
        match self.it.node(t) {
            TNode::Done => {}
            TNode::Seq(t1, t2) => {
                if t1 == DONE {
                    // Rule (1): √ ▷ T₂ → T₂.
                    out.push((a, t2));
                } else {
                    // Rule (2): step inside T₁.
                    let from = out.len();
                    self.successors(p, a, t1, out);
                    for s in &mut out[from..] {
                        s.1 = self.seq(s.1, t2);
                    }
                }
            }
            TNode::Par(t1, t2) => {
                // Rules (3)/(4): eliminate a finished side.
                if t1 == DONE {
                    out.push((a, t2));
                }
                if t2 == DONE {
                    out.push((a, t1));
                }
                // Rule (5): step inside T₁.
                let from = out.len();
                self.successors(p, a, t1, out);
                for s in &mut out[from..] {
                    s.1 = self.par(s.1, t2);
                }
                // Rule (6): step inside T₂.
                let from = out.len();
                self.successors(p, a, t2, out);
                for s in &mut out[from..] {
                    s.1 = self.par(t1, s.1);
                }
            }
            TNode::Stm(s) => {
                let next = self.step_stmt(p, a, s);
                out.push(next);
            }
        }
    }

    /// Rules (7)–(14): the unique step of `⟨s⟩`, mirroring
    /// [`crate::step::step_stmt`]. Derived statements (while-unroll,
    /// call-inline, spawned bodies) are memoized in the interner, so each
    /// concatenation is built and hashed once per distinct source
    /// statement.
    fn step_stmt(&mut self, p: &Program, a: ArrayId, s: StmtId) -> (ArrayId, TreeId) {
        let it = self.it;
        let head = it.stmt(s).head();
        let cont = match it.stmt_tail(s) {
            Some(k) => self.stm(k),
            None => DONE,
        };
        match &head.kind {
            InstrKind::Skip => (a, cont),
            InstrKind::Assign { idx, expr } => {
                // The label names the instruction, so it fixes `idx` and
                // `expr`.
                let key = (u64::from(a.0) << 32) | u64::from(head.label.0);
                if let Some(next) = self.assigns.get(key) {
                    return (ArrayId(next), cont);
                }
                let cells = it.cells(a);
                let v = crate::state::eval_cells(cells, expr);
                let mut next = cells.to_vec();
                next[*idx] = v;
                let next = it.intern_array(next);
                self.assigns.put(key, next.0);
                (next, cont)
            }
            InstrKind::While { idx, body } => {
                if it.cells(a)[*idx] == 0 {
                    (a, cont)
                } else {
                    // ⟨s_body . s⟩: memoized by the source statement id.
                    let unrolled = it.derived_stmt(s, || body.clone().seq(it.stmt(s).clone()));
                    (a, self.stm(unrolled))
                }
            }
            InstrKind::Async { body } => {
                let spawned = it.spawned_stmt(head.label, body);
                let t = self.stm(spawned);
                (a, self.par(t, cont))
            }
            InstrKind::Finish { body } => {
                let spawned = it.spawned_stmt(head.label, body);
                let t = self.stm(spawned);
                (a, self.seq(t, cont))
            }
            InstrKind::Call { callee } => {
                let unrolled = it.derived_stmt(s, || {
                    let body = p.body(*callee).clone();
                    match it.stmt(s).tail() {
                        Some(k) => body.seq(k),
                        None => body,
                    }
                });
                (a, self.stm(unrolled))
            }
        }
    }
}

/// A set of interned trees: a bitmap indexed by dense [`TreeId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeBits(Vec<u64>);

impl TreeBits {
    /// An empty set with room for ids below `n` (it grows past them).
    pub fn with_capacity(n: usize) -> TreeBits {
        TreeBits(vec![0; n.div_ceil(64)])
    }

    /// Adds `t`.
    pub fn insert(&mut self, t: TreeId) {
        set_bit(&mut self.0, t.0);
    }
}

fn set_bit(words: &mut Vec<u64>, i: u32) {
    let i = i as usize;
    if words.len() <= i / 64 {
        words.resize(i / 64 + 1, 0);
    }
    words[i / 64] |= 1 << (i % 64);
}

/// [`Interner::render_state`] with each array and each `⟨s⟩` leaf
/// rendered once, memoized by id. A state's digest is one walk over its
/// tree that copies the leaves' renderings, with no `Tree` rebuilt and
/// no statement cloned per state.
pub(crate) struct StateRenderer<'i> {
    it: &'i Interner,
    leaves: IdMap<TreeId, Box<str>>,
    arrays: IdMap<ArrayId, Box<str>>,
    /// The last digest's length: states of one run render to similar
    /// lengths, so the next one reserves that much up front.
    last_len: usize,
}

impl<'i> StateRenderer<'i> {
    /// An empty memo over `it`.
    pub(crate) fn new(it: &'i Interner) -> StateRenderer<'i> {
        StateRenderer {
            it,
            leaves: IdMap::default(),
            arrays: IdMap::default(),
            last_len: 0,
        }
    }

    /// Exactly [`Interner::render_state`]`(a, t)`.
    pub(crate) fn render_state(&mut self, a: ArrayId, t: TreeId) -> String {
        let it = self.it;
        let mut out = String::with_capacity(self.last_len + 16);
        out.push_str(
            self.arrays
                .entry(a)
                .or_insert_with(|| format!("{:?}", it.cells(a)).into()),
        );
        out.push_str(" ⊢ ");
        self.tree(t, &mut out);
        self.last_len = out.len();
        out
    }

    /// Appends `t` as `Display for Tree` renders it.
    fn tree(&mut self, t: TreeId, out: &mut String) {
        let (a, b, op) = match self.it.node(t) {
            TNode::Done => return out.push('√'),
            TNode::Stm(s) => {
                let it = self.it;
                return out.push_str(
                    self.leaves
                        .entry(t)
                        .or_insert_with(|| Tree::Stm(it.stmt(s).clone()).to_string().into()),
                );
            }
            TNode::Seq(a, b) => (a, b, " ▷ "),
            TNode::Par(a, b) => (a, b, " ∥ "),
        };
        out.push('(');
        self.tree(a, out);
        out.push_str(op);
        self.tree(b, out);
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ArrayState;
    use crate::step::{initial_tree, successors};
    use fx10_syntax::Program;

    fn main_stmt(p: &Program) -> Stmt {
        p.body(p.main()).clone()
    }

    #[test]
    fn hash_consing_dedups_structurally_equal_trees() {
        let p = Program::parse("def main() { S1; S2; }").unwrap();
        let it = Interner::new(true);
        let s = it.intern_stmt(&main_stmt(&p));
        let a = it.par(it.stm(s), DONE);
        let b = it.par(DONE, it.stm(s));
        assert_eq!(a, b, "canonical ∥ identifies the symmetric pair");
        assert_eq!(it.seq(a, DONE), it.seq(b, DONE));
        let lit = Interner::new(false);
        let s2 = lit.intern_stmt(&main_stmt(&p));
        assert_ne!(
            lit.par(lit.stm(s2), DONE),
            lit.par(DONE, lit.stm(s2)),
            "literal mode keeps both orientations"
        );
    }

    #[test]
    fn stmt_suffixes_share_ids_with_their_standalone_equals() {
        let p = Program::parse("def main() { S1; S2; S3; }").unwrap();
        let it = Interner::new(true);
        let whole = it.intern_stmt(&main_stmt(&p));
        let tail = it.stmt_tail(whole).unwrap();
        // Interning the structurally-equal suffix hits the same id.
        assert_eq!(it.intern_stmt(&main_stmt(&p).tail().unwrap()), tail);
        let last = it.stmt_tail(tail).unwrap();
        assert_eq!(it.stmt_tail(last), None);
        assert_eq!(it.stmt(last).len(), 1);
    }

    #[test]
    fn structural_cmp_mirrors_derived_tree_ord() {
        let p = Program::parse("def main() { S1; S2; }").unwrap();
        let it = Interner::new(false);
        let s = main_stmt(&p);
        let trees = [
            Tree::Done,
            Tree::stm(s.clone()),
            Tree::stm(s.tail().unwrap()),
            Tree::seq(Tree::Done, Tree::stm(s.clone())),
            Tree::par(Tree::stm(s.clone()), Tree::Done),
            Tree::par(Tree::Done, Tree::stm(s.clone())),
        ];
        for x in &trees {
            for y in &trees {
                let (ix, iy) = (it.intern_tree(x), it.intern_tree(y));
                assert_eq!(
                    it.structural_cmp(ix, iy),
                    x.cmp(y),
                    "order mismatch on {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn interned_successors_match_cloned_successors_modulo_canonical() {
        for src in [
            "def main() { async { B; } K; }",
            "def main() { finish { async { B; } } K; }",
            "def f() { X; } def main() { f(); K; }",
            "def main() { a[0] = 1; while (a[0] != 0) { a[0] = 0; } K; }",
        ] {
            let p = Program::parse(src).unwrap();
            let it = Interner::new(true);
            // Walk a few steps comparing both representations.
            let mut frontier = vec![(ArrayState::zeros(&p), initial_tree(&p))];
            let mut steps = 0;
            while let Some((arr, tree)) = frontier.pop() {
                if steps > 200 {
                    break;
                }
                steps += 1;
                let aid = it.intern_array(arr.cells().to_vec());
                let tid = it.intern_tree(&tree);
                let mut got = Vec::new();
                it.stepper().successors(&p, aid, tid, &mut got);
                let want = successors(&p, &arr, &tree);
                assert_eq!(got.len(), want.len(), "{src}");
                for (w, (ga, gt)) in want.iter().zip(&got) {
                    assert_eq!(it.cells(*ga), w.array.cells(), "{src}");
                    assert_eq!(
                        *gt,
                        it.intern_tree(&w.tree.clone().canonical()),
                        "{src}: successor tree mismatch"
                    );
                }
                for s in want {
                    frontier.push((s.array, s.tree));
                }
            }
        }
    }

    #[test]
    fn parallel_of_trees_matches_cloned_parallel() {
        use crate::parallel::parallel;
        let p = Program::parse("def main() { async { B; } async { C; } K; }").unwrap();
        let it = Interner::new(true);
        let s = main_stmt(&p);
        let t = Tree::par(
            Tree::stm(s.clone()),
            Tree::par(Tree::stm(s.tail().unwrap()), Tree::stm(s)),
        )
        .canonical();
        let id = it.intern_tree(&t);
        let mut ids = TreeBits::default();
        ids.insert(id);
        assert_eq!(it.parallel_of_trees(ids), parallel(&t));
    }

    /// Every `programs/*.fx10` fixture that parses.
    fn fixtures() -> Vec<(String, Program)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
        let mut out: Vec<(String, Program)> = std::fs::read_dir(&dir)
            .expect("programs/ directory")
            .filter_map(|e| {
                let path = e.ok()?.path();
                if path.extension()? != "fx10" {
                    return None;
                }
                let src = std::fs::read_to_string(&path).ok()?;
                let p = Program::parse(&src).ok()?;
                Some((path.display().to_string(), p))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(
            out.len() >= 10,
            "expected the fixture set, found {}",
            out.len()
        );
        out
    }

    /// Breadth-first over the first `limit` states of `p`, asserting that
    /// `warm` (one stepper for the whole walk) and `cold()` (a new one per
    /// state) enumerate identical successor ids.
    fn assert_steppers_agree<'i>(
        name: &str,
        p: &Program,
        it: &'i Interner,
        mut warm: Stepper<'i>,
        cold: impl Fn() -> Stepper<'i>,
        limit: usize,
    ) {
        let a0 = it.intern_array(ArrayState::zeros(p).cells().to_vec());
        let t0 = it.intern_tree(&initial_tree(p));
        let mut seen = std::collections::HashSet::from([state_key(a0, t0)]);
        let mut queue = std::collections::VecDeque::from([(a0, t0)]);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        while let Some((a, t)) = queue.pop_front() {
            got.clear();
            warm.successors(p, a, t, &mut got);
            want.clear();
            cold().successors(p, a, t, &mut want);
            assert_eq!(got, want, "{name}: successors of {}", it.render_state(a, t));
            for &(sa, st) in &got {
                if seen.len() < limit && seen.insert(state_key(sa, st)) {
                    queue.push_back((sa, st));
                }
            }
        }
    }

    #[test]
    fn warm_and_fresh_steppers_agree_on_every_fixture() {
        for (name, p) in fixtures() {
            for canonical in [true, false] {
                let it = Interner::new(canonical);
                assert_steppers_agree(&name, &p, &it, it.stepper(), || it.stepper(), 3_000);
            }
        }
    }

    #[test]
    fn colliding_cache_slots_are_overwritten_not_confused() {
        // Two keys that share a slot: the later one evicts the earlier.
        let mut cache = Cache::new();
        let k1 = pack(TAG_SEQ, 1, 2);
        let k2 = (0u32..)
            .map(|b| pack(TAG_SEQ, 3, b))
            .find(|&k| cache.slot(k) == cache.slot(k1))
            .expect("some key shares k1's slot");
        assert_eq!(cache.get(k1), None);
        cache.put(k1, 10);
        assert_eq!(cache.get(k1), Some(10));
        cache.put(k2, 20);
        assert_eq!((cache.get(k1), cache.get(k2)), (None, Some(20)));

        // One-slot tables collide on every request, so every step
        // evicts; the ids must still be the fresh stepper's.
        for (name, p) in fixtures() {
            let it = Interner::new(true);
            let tiny = Stepper {
                it: &it,
                nodes: Cache::with_slots(1),
                assigns: Cache::with_slots(1),
            };
            assert_steppers_agree(&name, &p, &it, tiny, || it.stepper(), 3_000);
        }
    }

    #[test]
    fn normalized_matches_cloned_normalized() {
        let p = Program::parse("def main() { S1; }").unwrap();
        let it = Interner::new(true);
        let s = main_stmt(&p);
        let messy = Tree::par(
            Tree::seq(Tree::Done, Tree::stm(s.clone())),
            Tree::par(Tree::Done, Tree::stm(s)),
        );
        let id = it.intern_tree(&messy);
        assert_eq!(
            it.normalized(id),
            it.intern_tree(&messy.clone().normalized().canonical())
        );
        assert_eq!(it.normalized(DONE), DONE);
    }

    #[test]
    fn render_matches_cloned_display() {
        let p = Program::parse("def main() { S1; S2; }").unwrap();
        let it = Interner::new(true);
        let s = main_stmt(&p);
        let t = Tree::seq(
            Tree::par(Tree::stm(s.clone()), Tree::Done),
            Tree::stm(s.tail().unwrap()),
        )
        .canonical();
        let id = it.intern_tree(&t);
        let aid = it.intern_array(vec![0]);
        assert_eq!(it.render_state(aid, id), format!("{:?} ⊢ {}", [0i64], t));
        let mut memo = StateRenderer::new(&it);
        for _ in 0..2 {
            assert_eq!(memo.render_state(aid, id), it.render_state(aid, id));
        }
    }

    #[test]
    fn state_key_roundtrips() {
        let k = state_key(ArrayId(7), TreeId(42));
        assert_eq!(state_parts(k), (ArrayId(7), TreeId(42)));
    }

    #[test]
    fn segment_boundaries_locate_and_round_trip() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(255), (0, 255));
        assert_eq!(locate(256), (1, 0));
        assert_eq!(locate(767), (1, 511));
        assert_eq!(locate(768), (2, 0));
        // The last slot of segment 10 (2^18 slots) and the first of 11.
        let last_of_10 = (1u32 << 8) * ((1 << 11) - 1) - 1;
        assert_eq!(locate(last_of_10), (10, (1 << 18) - 1));
        assert_eq!(locate(last_of_10 + 1), (11, 0));
        // Every id below the capacity has a segment.
        assert!(locate(MAX_IDS - 1).0 < SEGMENTS);

        let words = U64Pages::new();
        let vals: SlotPages<Vec<i64>> = SlotPages::new();
        let ids = [0, 254, 255, 256, 767, 768, last_of_10 - 1, last_of_10];
        for &id in &ids {
            words.set(id, u64::from(id) * 3 + 1);
            vals.set(id, vec![i64::from(id)]);
        }
        for &id in &ids {
            assert_eq!(words.get(id), u64::from(id) * 3 + 1, "id {id}");
            assert_eq!(vals.get(id), &vec![i64::from(id)], "id {id}");
        }
        assert_eq!(words.get(257), 0, "untouched slots stay unset");
    }

    #[test]
    #[should_panic(expected = "tree interner capacity exceeded")]
    fn interning_past_max_ids_panics() {
        let it = Interner::new(false);
        it.tree_next.store(MAX_IDS, Ordering::Relaxed);
        it.seq(DONE, DONE);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let p = Program::parse("def main() { async { B; } async { C; } K; }").unwrap();
        let it = Interner::new(true);
        let s = main_stmt(&p);
        let ids: Vec<TreeId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (it, s) = (&it, &s);
                    scope.spawn(move || {
                        let sid = it.intern_stmt(s);
                        it.par(it.stm(sid), it.seq(it.stm(sid), DONE))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
