//! Vector clocks and the dynamic race detector over the shared array.
//!
//! Every *activity* (the root, plus one per executed `async`) gets a
//! numeric id and a [`VClock`]. The happens-before relation of
//! async-finish programs is built from exactly two edges:
//!
//! * **fork** — spawning an `async` orders the parent's past before the
//!   child ([`VClock::fork`]: the child starts from the parent's clock,
//!   then both sides bump their own component so neither sees the
//!   other's *future*);
//! * **finish join** — a `finish` scope accumulates the final clock of
//!   every activity it transitively spawned, and the waiting activity
//!   joins that accumulator when the latch reaches zero. A plain `async`
//!   that completes creates *no* edge: its clock only folds into the
//!   enclosing scope's accumulator.
//!
//! Because there are no locks, this relation is series-parallel and —
//! crucially — independent of the schedule that produced it: any two
//! runs taking the same control-flow path compute the same
//! happens-before order, so a single instrumented run (even the serial
//! elision) soundly detects every race on the executed path.
//!
//! **Clocks are copy-on-write.** A clock is a vector of shared blocks of
//! 256 components; an all-zero block is stored as nothing. A fork copies
//! block pointers and then privately copies only the one or two blocks
//! whose component it bumps, not a dense vector as long as the activity
//! count (8,361 components on `fib(18)`). A join skips blocks the two
//! sides share by pointer, adopts a block the other side dominates, and
//! takes the pointwise maximum only of the rest.
//!
//! **Shadow memory is grouped by activity.** Each array cell keeps, per
//! side (reads, writes), one group per activity that accessed it: the
//! latest clock component (*epoch*) per instruction label, and the
//! group's maximum. An access races a group's epoch iff the accessor's
//! clock has not reached it, so a group whose maximum the accessor has
//! reached — always its own, and every activity ordered before it — is
//! skipped in O(1) without looking at its labels. Keeping only the
//! latest epoch per `(activity, label)` is lossless for both detection
//! and the reported label pair, since a later same-label access by the
//! same activity dominates the earlier one with respect to every other
//! activity's view. A group with a single label stores it inline;
//! finding the accessor's own group and label takes a hash lookup.
//!
//! **Races are recorded per cell**, in a set inside the cell's shadow
//! under the lock the access already holds; [`Detector::races`] merges
//! them once, at the end of a run. The reported set is exactly the set
//! of `(label pair, cell)` for which some earlier access is unordered
//! with a later one, at least one of them a write.

use fx10_semantics::hash::{IdMap, IdSet};
use fx10_semantics::parallel::pair;
use fx10_semantics::LabelPair;
use fx10_syntax::Label;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Components per copy-on-write clock block: large enough that a fork
/// copies few pointers, small enough that a private copy is cheap.
const BLOCK: usize = 256;

type Block = [u32; BLOCK];

/// The block holding component `tid`, and the component's index in it.
fn locate(tid: u32) -> (usize, usize) {
    let tid = tid as usize;
    (tid / BLOCK, tid % BLOCK)
}

/// A vector clock: component `i` counts the events activity `i` has
/// performed that the owner has observed.
#[derive(Clone, Default)]
pub struct VClock(Vec<Option<Arc<Block>>>);

impl VClock {
    /// The zero clock (observes nothing).
    pub fn new() -> VClock {
        VClock(Vec::new())
    }

    /// Component `tid` (0 when never bumped).
    pub fn get(&self, tid: u32) -> u32 {
        let (b, i) = locate(tid);
        match self.0.get(b) {
            Some(Some(block)) => block[i],
            _ => 0,
        }
    }

    /// Increments component `tid`.
    pub fn bump(&mut self, tid: u32) {
        let (b, i) = locate(tid);
        if self.0.len() <= b {
            self.0.resize(b + 1, None);
        }
        let block = self.0[b].get_or_insert_with(|| Arc::new([0; BLOCK]));
        Arc::make_mut(block)[i] += 1;
    }

    /// Pointwise maximum: afterwards `self` observes everything `other`
    /// observed.
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), None);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            let Some(theirs) = theirs else { continue };
            let Some(block) = mine else {
                *mine = Some(Arc::clone(theirs));
                continue;
            };
            if Arc::ptr_eq(block, theirs) {
                continue;
            }
            let (mut mine_ge, mut theirs_ge) = (true, true);
            for (x, y) in block.iter().zip(theirs.iter()) {
                mine_ge &= x >= y;
                theirs_ge &= y >= x;
            }
            if mine_ge {
                continue;
            }
            if theirs_ge {
                *block = Arc::clone(theirs);
            } else {
                for (x, y) in Arc::make_mut(block).iter_mut().zip(theirs.iter()) {
                    *x = (*x).max(*y);
                }
            }
        }
    }

    /// The fork edge of an `async`: the new activity `child` inherits the
    /// parent's past (clone + bump its own component) and the parent
    /// bumps its own component so the child does not see the parent's
    /// subsequent events as ordered. Returns the child's clock.
    pub fn fork(parent: &mut VClock, parent_tid: u32, child_tid: u32) -> VClock {
        let mut child = parent.clone();
        child.bump(child_tid);
        parent.bump(parent_tid);
        child
    }

    /// Every nonzero component, in activity order.
    fn nonzero(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.0.iter().enumerate().flat_map(|(b, block)| {
            block.iter().flat_map(move |block| {
                block
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(move |(i, &v)| ((b * BLOCK + i) as u32, v))
            })
        })
    }
}

/// Equal when every component is equal, however the blocks are shared.
impl PartialEq for VClock {
    fn eq(&self, other: &VClock) -> bool {
        self.nonzero().eq(other.nonzero())
    }
}

impl Eq for VClock {}

/// Lists the nonzero components as `{tid: count}`.
impl fmt::Debug for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.nonzero()).finish()
    }
}

/// A race observed on a real execution: two accesses to `cell`, at least
/// one a write, unordered by happens-before. `pair` is normalized
/// (smaller label first), matching the static analyses' convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DetectedRace {
    /// The two instruction labels, normalized.
    pub pair: LabelPair,
    /// The array cell both touched.
    pub cell: usize,
}

/// A set of normalized label pairs, each packed into one integer that
/// hashes in one round and sorts as the pair does.
type PairSet = IdSet<u64>;

fn pack(a: Label, b: Label) -> u64 {
    let (lo, hi) = pair(a, b);
    (u64::from(lo.0) << 32) | u64::from(hi.0)
}

fn unpack(key: u64) -> LabelPair {
    (Label((key >> 32) as u32), Label(key as u32))
}

/// The latest epoch per label of one activity's accesses to one cell
/// side; a single label is stored inline.
#[derive(Debug)]
enum Labels {
    One(Label, u32),
    Many(IdMap<Label, u32>),
}

/// One activity's accesses to one side of one cell.
#[derive(Debug)]
struct Group {
    tid: u32,
    /// The largest epoch in `labels`: an accessor whose clock has
    /// reached it is ordered after every access in the group.
    max_at: u32,
    labels: Labels,
}

impl Group {
    fn record(&mut self, at: u32, label: Label) {
        self.max_at = self.max_at.max(at);
        match &mut self.labels {
            Labels::One(l, old) if *l == label => *old = (*old).max(at),
            Labels::One(l, old) => {
                self.labels = Labels::Many(IdMap::from_iter([(*l, *old), (label, at)]));
            }
            Labels::Many(m) => {
                let old = m.entry(label).or_insert(at);
                *old = (*old).max(at);
            }
        }
    }

    /// Flags every epoch later than `seen` (the accessor's view of this
    /// group's activity) as racing `label`.
    fn flag(&self, seen: u32, label: Label, races: &mut PairSet) {
        match &self.labels {
            // The only epoch is the maximum, which the caller found unseen.
            Labels::One(l, _) => {
                races.insert(pack(*l, label));
            }
            Labels::Many(m) => {
                for (&l, &at) in m {
                    if at > seen {
                        races.insert(pack(l, label));
                    }
                }
            }
        }
    }
}

/// The reads or the writes of one cell, grouped by activity.
#[derive(Debug, Default)]
struct Side {
    groups: Vec<Group>,
    /// Activity id → index in `groups`.
    by_tid: IdMap<u32, usize>,
}

impl Side {
    /// Flags every epoch the accessor's `clock` has not reached.
    fn flag_unordered(&self, clock: &VClock, label: Label, races: &mut PairSet) {
        for g in &self.groups {
            let seen = clock.get(g.tid);
            if seen < g.max_at {
                g.flag(seen, label, races);
            }
        }
    }

    fn record(&mut self, tid: u32, at: u32, label: Label) {
        match self.by_tid.entry(tid) {
            Entry::Occupied(e) => self.groups[*e.get()].record(at, label),
            Entry::Vacant(e) => {
                e.insert(self.groups.len());
                self.groups.push(Group {
                    tid,
                    max_at: at,
                    labels: Labels::One(label, at),
                });
            }
        }
    }
}

/// One array cell's shadow: its grouped epochs and the races seen on it.
#[derive(Debug, Default)]
struct Shadow {
    writes: Side,
    reads: Side,
    races: PairSet,
}

/// The shadow memory: one lock-guarded shadow per array cell. Safe to
/// share across the scheduler crew.
#[derive(Debug)]
pub struct Detector {
    cells: Vec<Mutex<Shadow>>,
}

const POISONED: &str = "a detector lock is poisoned only if a shadow update panicked";

impl Detector {
    /// A detector for an array of `cells` cells.
    pub fn new(cells: usize) -> Detector {
        Detector {
            cells: (0..cells).map(|_| Mutex::new(Shadow::default())).collect(),
        }
    }

    /// Activity `tid` (at `clock`) reads `cell` at instruction `label`.
    pub fn on_read(&self, cell: usize, label: Label, tid: u32, clock: &VClock) {
        let mut guard = self.cells[cell].lock().expect(POISONED);
        let shadow = &mut *guard;
        shadow
            .writes
            .flag_unordered(clock, label, &mut shadow.races);
        shadow.reads.record(tid, clock.get(tid), label);
    }

    /// Activity `tid` (at `clock`) writes `cell` at instruction `label`.
    pub fn on_write(&self, cell: usize, label: Label, tid: u32, clock: &VClock) {
        let mut guard = self.cells[cell].lock().expect(POISONED);
        let shadow = &mut *guard;
        shadow
            .writes
            .flag_unordered(clock, label, &mut shadow.races);
        shadow.reads.flag_unordered(clock, label, &mut shadow.races);
        shadow.writes.record(tid, clock.get(tid), label);
    }

    /// Every race observed so far.
    pub fn races(&self) -> BTreeSet<DetectedRace> {
        // Cells ascend, so sorting each cell's pairs sorts the whole list
        // and the set is built from sorted input.
        let mut out = Vec::new();
        let mut keys = Vec::new();
        for (cell, shadow) in self.cells.iter().enumerate() {
            keys.clear();
            keys.extend(&shadow.lock().expect(POISONED).races);
            keys.sort_unstable();
            out.extend(keys.iter().map(|&k| DetectedRace {
                pair: unpack(k),
                cell,
            }));
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fork_makes_child_and_parent_future_concurrent() {
        let mut parent = VClock::new();
        parent.bump(0);
        let child = VClock::fork(&mut parent, 0, 1);
        // Child sees the parent's past…
        assert!(child.get(0) >= 1);
        // …but not the parent's post-fork bump, and vice versa.
        assert!(child.get(0) < parent.get(0));
        assert!(parent.get(1) < child.get(1));
    }

    #[test]
    fn unordered_writes_race_and_ordered_do_not() {
        let d = Detector::new(1);
        let mut parent = VClock::new();
        parent.bump(0);
        d.on_write(0, Label(0), 0, &parent);
        let child = VClock::fork(&mut parent, 0, 1);
        // The child's write is after the fork: ordered after the parent's
        // earlier write, concurrent with nothing. No race.
        d.on_write(0, Label(1), 1, &child);
        assert!(d.races().is_empty());
        // The parent's next write is concurrent with the child's.
        d.on_write(0, Label(2), 0, &parent);
        let races = d.races();
        assert_eq!(races.len(), 1);
        let r = races.iter().next().unwrap();
        assert_eq!(r.pair, (Label(1), Label(2)));
        assert_eq!(r.cell, 0);
    }

    #[test]
    fn finish_join_orders_child_before_waiter() {
        let d = Detector::new(1);
        let mut parent = VClock::new();
        parent.bump(0);
        let child = VClock::fork(&mut parent, 0, 1);
        d.on_write(0, Label(0), 1, &child);
        // finish: the scope accumulated the child's final clock; the
        // parent joins it before continuing.
        parent.join(&child);
        d.on_write(0, Label(1), 0, &parent);
        assert!(d.races().is_empty());
    }

    #[test]
    fn read_read_is_not_a_race_but_read_write_is() {
        let d = Detector::new(1);
        let mut parent = VClock::new();
        parent.bump(0);
        let child = VClock::fork(&mut parent, 0, 1);
        d.on_read(0, Label(0), 0, &parent);
        d.on_read(0, Label(1), 1, &child);
        assert!(d.races().is_empty());
        d.on_write(0, Label(2), 1, &child);
        let races = d.races();
        assert_eq!(races.len(), 1);
        assert_eq!(races.iter().next().unwrap().pair, (Label(0), Label(2)));
    }

    #[test]
    fn same_label_epochs_dedupe_without_losing_the_race() {
        let d = Detector::new(1);
        let mut parent = VClock::new();
        parent.bump(0);
        // A loop writing the same cell at the same label many times.
        for _ in 0..100 {
            d.on_write(0, Label(0), 0, &parent);
            parent.bump(0);
        }
        // Shadow kept one group holding one inline epoch, the latest.
        {
            let shadow = d.cells[0].lock().unwrap();
            match &shadow.writes.groups[..] {
                [g] => {
                    assert_eq!((g.tid, g.max_at), (0, 100));
                    assert!(matches!(g.labels, Labels::One(Label(0), 100)));
                }
                groups => panic!("expected one group, got {groups:?}"),
            }
        }
        // A concurrent write still races it.
        let other = VClock::new();
        d.on_write(0, Label(1), 2, &other);
        assert_eq!(d.races().len(), 1);
        // A second label spills the group out of line, keeping both.
        d.on_write(0, Label(2), 0, &parent);
        let shadow = d.cells[0].lock().unwrap();
        let Labels::Many(m) = &shadow.writes.groups[0].labels else {
            panic!("two labels must be stored out of line");
        };
        assert_eq!(m[&Label(0)], 100);
        assert_eq!(m[&Label(2)], 101);
    }

    #[test]
    fn a_group_the_accessor_has_reached_is_skipped_but_an_unreached_one_is_scanned() {
        let d = Detector::new(1);
        let mut root = VClock::new();
        root.bump(0);
        let mut a = VClock::fork(&mut root, 0, 1);
        // Activity 1 writes at two labels, the second after a fork that
        // bumps its own component.
        d.on_write(0, Label(0), 1, &a);
        let early = a.clone();
        let _ = VClock::fork(&mut a, 1, 2);
        d.on_write(0, Label(1), 1, &a);
        // An activity that saw only the first write races the second.
        let mut saw_first = VClock::new();
        saw_first.bump(3);
        saw_first.join(&early);
        d.on_read(0, Label(2), 3, &saw_first);
        let want: BTreeSet<_> = [DetectedRace {
            pair: (Label(1), Label(2)),
            cell: 0,
        }]
        .into_iter()
        .collect();
        assert_eq!(d.races(), want);
        // One that saw both is ordered after the whole group.
        let mut saw_all = VClock::new();
        saw_all.bump(4);
        saw_all.join(&a);
        d.on_read(0, Label(3), 4, &saw_all);
        assert_eq!(d.races(), want);
    }

    // -----------------------------------------------------------------
    // Copy-on-write clock edges.
    // -----------------------------------------------------------------

    #[test]
    fn components_on_both_sides_of_a_block_boundary_are_independent() {
        let mut c = VClock::new();
        for (tid, times) in [(255, 1), (256, 2), (511, 3)] {
            for _ in 0..times {
                c.bump(tid);
            }
        }
        assert_eq!(c.get(254), 0);
        assert_eq!(c.get(255), 1);
        assert_eq!(c.get(256), 2);
        assert_eq!(c.get(257), 0);
        assert_eq!(c.get(511), 3);
        assert_eq!(c.get(512), 0);
        assert_eq!(c.get(u32::MAX), 0);
        assert_eq!(
            c.nonzero().collect::<Vec<_>>(),
            [(255, 1), (256, 2), (511, 3)]
        );
    }

    #[test]
    fn joins_of_clocks_with_different_lengths_take_the_pointwise_max() {
        let mut short = VClock::new();
        short.bump(3);
        short.bump(3);
        let mut long = VClock::new();
        long.bump(3);
        long.bump(600);
        let mut a = short.clone();
        a.join(&long);
        let mut b = long.clone();
        b.join(&short);
        assert_eq!(a, b);
        assert_eq!((a.get(3), a.get(600)), (2, 1));
        // Joining leaves the argument untouched, shared blocks or not.
        assert_eq!((long.get(3), long.get(600)), (1, 1));
        assert_eq!((short.get(3), short.get(600)), (2, 0));
    }

    #[test]
    fn a_join_into_an_empty_accumulator_copies_the_clock_and_shares_its_blocks() {
        let mut c = VClock::new();
        c.bump(0);
        c.bump(300);
        let mut acc = VClock::new();
        acc.join(&c);
        assert_eq!(acc, c);
        for (x, y) in acc.0.iter().zip(&c.0) {
            match (x, y) {
                (Some(x), Some(y)) => assert!(Arc::ptr_eq(x, y)),
                (None, None) => {}
                _ => panic!("block presence differs"),
            }
        }
        // Bumping the accumulator afterwards must not write through.
        acc.bump(0);
        assert_eq!((acc.get(0), c.get(0)), (2, 1));
        // A dominated join keeps the accumulator as it is.
        acc.join(&c);
        assert_eq!(acc.get(0), 2);
    }

    #[test]
    fn a_fork_across_a_block_boundary_keeps_both_sides_private() {
        let mut parent = VClock::new();
        parent.bump(255);
        let child = VClock::fork(&mut parent, 255, 256);
        assert_eq!((parent.get(255), parent.get(256)), (2, 0));
        assert_eq!((child.get(255), child.get(256)), (1, 1));
        let grandchild = {
            let mut c = child.clone();
            VClock::fork(&mut c, 256, 511)
        };
        assert_eq!(
            grandchild.nonzero().collect::<Vec<_>>(),
            [(255, 1), (256, 1), (511, 1)]
        );
        // The child's first block is still shared with the grandchild's.
        assert!(Arc::ptr_eq(
            child.0[0].as_ref().unwrap(),
            grandchild.0[0].as_ref().unwrap()
        ));
    }

    #[test]
    fn equality_ignores_trailing_zero_blocks() {
        let mut a = VClock::new();
        a.bump(1);
        let mut b = a.clone();
        b.join(&{
            let mut z = VClock::new();
            z.0.resize(3, None);
            z
        });
        assert_eq!(a, b);
        b.bump(700);
        assert_ne!(a, b);
        assert_eq!(format!("{a:?}"), "{1: 1}");
    }

    // -----------------------------------------------------------------
    // The brute-force oracle.
    // -----------------------------------------------------------------

    /// A clock kept twice: as the block clock under test, and as the
    /// dense vector the oracle orders accesses by.
    #[derive(Clone)]
    struct Twin {
        blocks: VClock,
        dense: Vec<u32>,
    }

    impl Twin {
        fn root() -> Twin {
            let mut t = Twin {
                blocks: VClock::new(),
                dense: Vec::new(),
            };
            t.blocks.bump(0);
            t.dense.push(1);
            t
        }

        fn zero() -> Twin {
            Twin {
                blocks: VClock::new(),
                dense: Vec::new(),
            }
        }

        fn bump_dense(dense: &mut Vec<u32>, tid: u32) {
            let i = tid as usize;
            if dense.len() <= i {
                dense.resize(i + 1, 0);
            }
            dense[i] += 1;
        }

        fn fork(&mut self, tid: u32, child: u32) -> Twin {
            let mut dense = self.dense.clone();
            Twin::bump_dense(&mut dense, child);
            Twin::bump_dense(&mut self.dense, tid);
            Twin {
                blocks: VClock::fork(&mut self.blocks, tid, child),
                dense,
            }
        }

        fn join(&mut self, other: &Twin) {
            self.blocks.join(&other.blocks);
            if self.dense.len() < other.dense.len() {
                self.dense.resize(other.dense.len(), 0);
            }
            for (s, o) in self.dense.iter_mut().zip(&other.dense) {
                *s = (*s).max(*o);
            }
        }

        /// Both representations hold the same components.
        fn agrees(&self) -> bool {
            let dense = |t: u32| self.dense.get(t as usize).copied().unwrap_or(0);
            (0..self.dense.len() as u32).all(|t| self.blocks.get(t) == dense(t))
                && self.blocks.nonzero().all(|(t, v)| dense(t) == v)
        }
    }

    /// Keeps every access with a snapshot of its dense clock and compares
    /// each new access against all earlier ones on the same cell.
    #[derive(Default)]
    struct Oracle {
        accesses: Vec<(usize, Label, bool, Vec<u32>)>,
        races: BTreeSet<DetectedRace>,
    }

    /// `a` happens before (or is) `b`: pointwise `a ≤ b`.
    fn ordered(a: &[u32], b: &[u32]) -> bool {
        a.iter()
            .enumerate()
            .all(|(i, &v)| b.get(i).copied().unwrap_or(0) >= v)
    }

    impl Oracle {
        fn access(&mut self, cell: usize, label: Label, write: bool, clock: &Twin) {
            assert!(clock.agrees(), "block clock diverged from dense clock");
            for (c, l, w, k) in &self.accesses {
                if *c == cell && (*w || write) && !ordered(k, &clock.dense) {
                    self.races.insert(DetectedRace {
                        pair: pair(*l, label),
                        cell,
                    });
                }
            }
            self.accesses
                .push((cell, label, write, clock.dense.clone()));
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(usize, u32),
        Write(usize, u32),
        Async(Vec<Op>),
        Finish(Vec<Op>),
    }

    /// What an activity does next: run a statement list, or leave a
    /// `finish` (restoring the enclosing scope) once its latch is zero.
    enum Frame<'a> {
        Ops(&'a [Op]),
        EndFinish { scope: usize, outer: usize },
    }

    struct Act<'a> {
        tid: u32,
        clock: Twin,
        /// The innermost `finish` governing this activity's asyncs.
        scope: usize,
        frames: Vec<Frame<'a>>,
    }

    struct Scope {
        pending: usize,
        acc: Twin,
    }

    /// Runs `prog` under a seeded random interleaving, feeding every
    /// access to both the detector and the oracle. Spawned activities
    /// get ids from `first_tid` on, so traces can straddle clock blocks.
    fn run_trace(prog: &[Op], seed: u64, first_tid: u32, cells: usize) -> (Detector, Oracle) {
        let d = Detector::new(cells);
        let mut oracle = Oracle::default();
        let mut rng = proptest::TestRng::new(seed);
        let mut scopes = vec![Scope {
            pending: 1,
            acc: Twin::zero(),
        }];
        let mut live = vec![Act {
            tid: 0,
            clock: Twin::root(),
            scope: 0,
            frames: vec![Frame::Ops(prog)],
        }];
        let mut next_tid = first_tid;
        while !live.is_empty() {
            let runnable: Vec<usize> = (0..live.len())
                .filter(|&i| match live[i].frames.last() {
                    Some(Frame::EndFinish { scope, .. }) => scopes[*scope].pending == 0,
                    _ => true,
                })
                .collect();
            let i = runnable[rng.below(runnable.len() as u64) as usize];
            let act = &mut live[i];
            match act.frames.pop() {
                None => {
                    let done = live.swap_remove(i);
                    let s = &mut scopes[done.scope];
                    s.acc.join(&done.clock);
                    s.pending -= 1;
                }
                Some(Frame::EndFinish { scope, outer }) => {
                    act.clock.join(&scopes[scope].acc);
                    act.scope = outer;
                }
                Some(Frame::Ops([])) => {}
                Some(Frame::Ops([op, rest @ ..])) => {
                    act.frames.push(Frame::Ops(rest));
                    match op {
                        Op::Read(c, l) => {
                            d.on_read(*c, Label(*l), act.tid, &act.clock.blocks);
                            oracle.access(*c, Label(*l), false, &act.clock);
                        }
                        Op::Write(c, l) => {
                            d.on_write(*c, Label(*l), act.tid, &act.clock.blocks);
                            oracle.access(*c, Label(*l), true, &act.clock);
                        }
                        Op::Async(body) => {
                            let clock = act.clock.fork(act.tid, next_tid);
                            let scope = act.scope;
                            scopes[scope].pending += 1;
                            live.push(Act {
                                tid: next_tid,
                                clock,
                                scope,
                                frames: vec![Frame::Ops(body)],
                            });
                            next_tid += 1;
                        }
                        Op::Finish(body) => {
                            scopes.push(Scope {
                                pending: 0,
                                acc: Twin::zero(),
                            });
                            act.frames.push(Frame::EndFinish {
                                scope: scopes.len() - 1,
                                outer: act.scope,
                            });
                            act.frames.push(Frame::Ops(body));
                            act.scope = scopes.len() - 1;
                        }
                    }
                }
            }
        }
        (d, oracle)
    }

    const CELLS: usize = 3;

    fn op() -> impl Strategy<Value = Op> {
        let leaf = prop_oneof![
            (0..CELLS, 0u32..6).prop_map(|(c, l)| Op::Read(c, l)),
            (0..CELLS, 0u32..6).prop_map(|(c, l)| Op::Write(c, l)),
        ];
        leaf.prop_recursive(3, 48, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Op::Async),
                proptest::collection::vec(inner, 0..5).prop_map(Op::Finish),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn detector_matches_the_brute_force_oracle(
            prog in proptest::collection::vec(op(), 1..8),
            seed in 0u64..u64::MAX,
            first_tid in 1u32..520,
        ) {
            let (d, oracle) = run_trace(&prog, seed, first_tid, CELLS);
            prop_assert_eq!(d.races(), oracle.races);
        }
    }

    #[test]
    fn the_oracle_sees_races_across_many_activities_and_blocks() {
        // 300 sibling asyncs (tids straddle the first block boundary),
        // each writing cell 0 at its own label, then a finish-ordered
        // write: every pair of siblings races, the last write races none.
        let siblings: Vec<Op> = (0..300).map(|i| Op::Async(vec![Op::Write(0, i)])).collect();
        let prog = vec![Op::Finish(siblings), Op::Write(0, 999)];
        let (d, oracle) = run_trace(&prog, 7, 1, 1);
        assert_eq!(d.races(), oracle.races);
        assert_eq!(d.races().len(), 300 * 299 / 2);
    }
}
