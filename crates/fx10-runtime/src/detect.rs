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
//! finding the accessor's own group and label takes a hash lookup. A
//! group with several labels that an accessor races as a whole (it has
//! seen none of its epochs) gets a bit row of its labels, so that
//! accessor and later ones flag them all with one word-wise OR.
//!
//! **Races are recorded per cell as bit rows**, inside the cell's shadow
//! under the lock the access already holds: one row per accessor label,
//! one bit per label it raced. An access looks its row up once and then
//! only sets bits. [`Detector::races`] normalizes the pairs (smaller
//! label first) once, at the end of a run, into a bit matrix per cell,
//! and merges the cells' matrices row by row into a list already in
//! [`DetectedRace`] order, with no sort. The reported list is exactly
//! the set of `(label pair, cell)` for which some earlier access is
//! unordered with a later one, at least one of them a write.

use fx10_semantics::hash::IdMap;
use fx10_semantics::LabelPair;
use fx10_syntax::Label;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
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

/// A set of label numbers as a bit row: word `i` of `words` holds the
/// labels `64 * (base + i)` to `64 * (base + i) + 63`. The row grows in
/// either direction to cover what it holds, so a few nearby labels cost
/// a word or two however large their numbers are.
#[derive(Debug, Default)]
struct Bits {
    base: usize,
    words: Vec<u64>,
}

impl Bits {
    /// Widens the row to cover words `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.words.is_empty() {
            self.base = lo;
        } else if lo < self.base {
            self.words
                .splice(0..0, std::iter::repeat_n(0, self.base - lo));
            self.base = lo;
        }
        if self.words.len() <= hi - self.base {
            self.words.resize(hi - self.base + 1, 0);
        }
    }

    fn insert(&mut self, l: Label) {
        let w = l.0 as usize / 64;
        self.cover(w, w);
        self.words[w - self.base] |= 1 << (l.0 % 64);
    }

    /// Adds every label of `other`, a word at a time.
    fn union_with(&mut self, other: &Bits) {
        if other.words.is_empty() {
            return;
        }
        self.cover(other.base, other.base + other.words.len() - 1);
        let at = other.base - self.base;
        for (x, y) in self.words[at..].iter_mut().zip(&other.words) {
            *x |= y;
        }
    }

    /// The labels held, ascending.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(move |(i, &w)| {
            let first = ((self.base + i) * 64) as u32;
            ones(w).map(move |bit| first + bit)
        })
    }
}

/// The positions of the set bits of `w`, ascending.
fn ones(mut w: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let bit = w.trailing_zeros();
            w &= w - 1;
            bit
        })
    })
}

/// The latest epoch per label of one activity's accesses to one cell
/// side. A single label is stored inline, so a group of one label (the
/// common case: `fib(18)` puts 8,361 of them on one cell) stays small.
#[derive(Debug)]
enum Labels {
    One(Label, u32),
    Many(Box<ManyLabels>),
}

/// The labels of a group that has more than one.
#[derive(Debug)]
struct ManyLabels {
    /// Label → its latest epoch.
    at: IdMap<Label, u32>,
    /// The keys of `at` as a bit row, built the first time an accessor
    /// races the whole group: a race-free run never builds one.
    mask: Option<Bits>,
    /// The smallest epoch in `at`: an accessor that has not reached it
    /// races every label of the group.
    min_at: u32,
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
                self.labels = Labels::Many(Box::new(ManyLabels {
                    at: IdMap::from_iter([(*l, *old), (label, at)]),
                    mask: None,
                    min_at: (*old).min(at),
                }));
            }
            Labels::Many(m) => {
                let old = m.at.entry(label).or_insert(at);
                *old = (*old).max(at);
                if let Some(mask) = &mut m.mask {
                    mask.insert(label);
                }
                m.min_at = m.min_at.min(at);
            }
        }
    }

    /// Adds to `row` every label whose epoch is later than `seen` (the
    /// accessor's view of this group's activity).
    fn flag(&mut self, seen: u32, row: &mut Bits) {
        match &mut self.labels {
            // The only epoch is the maximum, which the caller found unseen.
            Labels::One(l, _) => row.insert(*l),
            Labels::Many(m) if seen < m.min_at => {
                let ManyLabels { at, mask, .. } = &mut **m;
                row.union_with(mask.get_or_insert_with(|| {
                    let mut mask = Bits::default();
                    for &l in at.keys() {
                        mask.insert(l);
                    }
                    mask
                }));
            }
            Labels::Many(m) => {
                for (&l, &at) in &m.at {
                    if at > seen {
                        row.insert(l);
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

/// The races seen on one cell, as one bit row per accessor label: bit
/// `l` of row `a` says the access at `a` raced an earlier one at `l`.
/// The pairs are normalized once, in [`Detector::races`].
type RaceRows = IdMap<Label, Bits>;

/// Adds to `races` every epoch in `groups` that the accessor's `clock`
/// has not reached. The accessor's row is looked up once, and only when
/// some group races it.
fn flag_unordered<'a>(
    groups: impl Iterator<Item = &'a mut Group>,
    clock: &VClock,
    label: Label,
    races: &mut RaceRows,
) {
    let mut unseen = groups
        .map(|g| (clock.get(g.tid), g))
        .filter(|(seen, g)| *seen < g.max_at)
        .peekable();
    if unseen.peek().is_some() {
        let row = races.entry(label).or_default();
        for (seen, g) in unseen {
            g.flag(seen, row);
        }
    }
}

/// One array cell's shadow: its grouped epochs and the races seen on it.
#[derive(Debug, Default)]
struct Shadow {
    writes: Side,
    reads: Side,
    races: RaceRows,
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
        flag_unordered(
            shadow.writes.groups.iter_mut(),
            clock,
            label,
            &mut shadow.races,
        );
        shadow.reads.record(tid, clock.get(tid), label);
    }

    /// Activity `tid` (at `clock`) writes `cell` at instruction `label`.
    pub fn on_write(&self, cell: usize, label: Label, tid: u32, clock: &VClock) {
        let mut guard = self.cells[cell].lock().expect(POISONED);
        let shadow = &mut *guard;
        let groups = shadow
            .writes
            .groups
            .iter_mut()
            .chain(&mut shadow.reads.groups);
        flag_unordered(groups, clock, label, &mut shadow.races);
        shadow.writes.record(tid, clock.get(tid), label);
    }

    /// Every race observed so far, ascending in [`DetectedRace`]'s order
    /// (label pair, then cell) and without duplicates.
    pub fn races(&self) -> Vec<DetectedRace> {
        let cells: Vec<CellRaces> = self
            .cells
            .iter()
            .enumerate()
            .filter_map(|(cell, s)| CellRaces::of(cell, &s.lock().expect(POISONED).races))
            .collect();
        let mut out = Vec::with_capacity(cells.iter().map(CellRaces::len).sum());
        // The next row of every cell, smallest `lo` first, ties to the
        // smaller cell.
        let mut next: BinaryHeap<Reverse<(u32, usize, usize)>> = cells
            .iter()
            .enumerate()
            .filter_map(|(k, c)| c.row_from(0).map(|(lo, i)| Reverse((lo, k, i))))
            .collect();
        let mut same = Vec::new();
        let mut merge = BinaryHeap::new();
        while let Some(Reverse((lo, k, i))) = next.pop() {
            // Every cell with a row for `lo`, cells ascending.
            same.clear();
            same.push((k, i));
            while let Some(&Reverse((l, k, i))) = next.peek() {
                if l != lo {
                    break;
                }
                next.pop();
                same.push((k, i));
            }
            let lo = Label(lo);
            if let [(k, i)] = same[..] {
                let cell = cells[k].cell;
                for hi in cells[k].row(i) {
                    out.push(DetectedRace {
                        pair: (lo, Label(hi)),
                        cell,
                    });
                }
            } else {
                // Merge the rows by `hi`, ties going to the smaller cell.
                let mut his: Vec<_> = same.iter().map(|&(k, i)| cells[k].row(i)).collect();
                merge.extend(
                    his.iter_mut()
                        .enumerate()
                        .filter_map(|(j, it)| Some(Reverse((it.next()?, j)))),
                );
                while let Some(Reverse((hi, j))) = merge.pop() {
                    out.push(DetectedRace {
                        pair: (lo, Label(hi)),
                        cell: cells[same[j].0].cell,
                    });
                    if let Some(hi) = his[j].next() {
                        merge.push(Reverse((hi, j)));
                    }
                }
            }
            for &(k, i) in &same {
                if let Some((lo, i)) = cells[k].row_from(i + 1) {
                    next.push(Reverse((lo, k, i)));
                }
            }
        }
        out
    }
}

/// One cell's races with their pairs normalized: a bit matrix over the
/// labels that raced on the cell, numbered by rank.
struct CellRaces {
    cell: usize,
    /// The labels that raced on the cell, ascending.
    labels: Vec<u32>,
    /// Words per matrix row.
    width: usize,
    /// Row `i` holds bit `j >= i` when `labels[i]` and `labels[j]`
    /// raced.
    matrix: Vec<u64>,
}

impl CellRaces {
    /// Normalizes `rows`; `None` when the cell saw no race.
    fn of(cell: usize, rows: &RaceRows) -> Option<CellRaces> {
        if rows.is_empty() {
            return None;
        }
        let mut seen = Bits::default();
        for (&a, row) in rows {
            seen.insert(a);
            seen.union_with(row);
        }
        let labels: Vec<u32> = seen.iter().collect();
        // Label → rank, indexed from the first word of `seen`.
        let first = seen.base * 64;
        let mut rank = vec![0; seen.words.len() * 64];
        for (i, &l) in labels.iter().enumerate() {
            rank[l as usize - first] = i;
        }
        let width = labels.len().div_ceil(64);
        let mut matrix = vec![0u64; labels.len() * width];
        for (&a, row) in rows {
            let i = rank[a.0 as usize - first];
            for (w, &bits) in row.words.iter().enumerate() {
                let at = (row.base + w) * 64 - first;
                for b in ones(bits) {
                    let j = rank[at + b as usize];
                    let (lo, hi) = (i.min(j), i.max(j));
                    matrix[lo * width + hi / 64] |= 1 << (hi % 64);
                }
            }
        }
        Some(CellRaces {
            cell,
            labels,
            width,
            matrix,
        })
    }

    fn words(&self, i: usize) -> &[u64] {
        &self.matrix[i * self.width..(i + 1) * self.width]
    }

    /// The number of races.
    fn len(&self) -> usize {
        self.matrix.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The first nonempty row at or after `i`: its label and index.
    fn row_from(&self, i: usize) -> Option<(u32, usize)> {
        (i..self.labels.len())
            .find(|&i| self.words(i).iter().any(|&w| w != 0))
            .map(|i| (self.labels[i], i))
    }

    /// The labels that raced `labels[i]` from it upwards, ascending.
    fn row(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.words(i)
            .iter()
            .enumerate()
            .flat_map(move |(w, &bits)| ones(bits).map(move |b| self.labels[w * 64 + b as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_semantics::parallel::pair;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        let r = races[0];
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
        assert_eq!(races[0].pair, (Label(0), Label(2)));
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
        assert_eq!(m.at[&Label(0)], 100);
        assert_eq!(m.at[&Label(2)], 101);
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
        let want = vec![DetectedRace {
            pair: (Label(1), Label(2)),
            cell: 0,
        }];
        assert_eq!(d.races(), want);
        // One that saw both is ordered after the whole group.
        let mut saw_all = VClock::new();
        saw_all.bump(4);
        saw_all.join(&a);
        d.on_read(0, Label(3), 4, &saw_all);
        assert_eq!(d.races(), want);
    }

    // -----------------------------------------------------------------
    // Race rows and the normalized report.
    // -----------------------------------------------------------------

    /// The clocks of `n` sibling activities, tids 1 to `n`.
    fn siblings(n: u32) -> Vec<VClock> {
        let mut root = VClock::new();
        root.bump(0);
        (1..=n).map(|t| VClock::fork(&mut root, 0, t)).collect()
    }

    fn race(a: u32, b: u32, cell: usize) -> DetectedRace {
        DetectedRace {
            pair: (Label(a), Label(b)),
            cell,
        }
    }

    #[test]
    fn labels_on_both_sides_of_word_boundaries_pair_up_normalized() {
        let d = Detector::new(1);
        let c = siblings(2);
        let early = [0, 63, 64, 127, 128, 300];
        for l in early {
            d.on_write(0, Label(l), 1, &c[0]);
        }
        d.on_read(0, Label(65), 2, &c[1]);
        d.on_write(0, Label(256), 2, &c[1]);
        let mut want: Vec<_> = early
            .iter()
            .flat_map(|&l| [(l, 65), (l, 256)])
            .map(|(a, b)| race(a.min(b), a.max(b), 0))
            .collect();
        want.sort();
        assert_eq!(d.races(), want);
    }

    #[test]
    fn a_pair_on_several_cells_comes_out_pair_major_with_cells_ascending() {
        let d = Detector::new(4);
        let c = siblings(2);
        // (1, 2) on cells 3, 0 and 2, recorded in that order; on cell 2
        // the later access is the smaller label's.
        for cell in [3, 0] {
            d.on_write(cell, Label(1), 1, &c[0]);
            d.on_write(cell, Label(2), 2, &c[1]);
        }
        d.on_write(2, Label(2), 2, &c[1]);
        d.on_write(2, Label(1), 1, &c[0]);
        // (2, 3) on cell 0 and (0, 5) on cell 1.
        d.on_write(0, Label(3), 1, &c[0]);
        d.on_write(1, Label(5), 1, &c[0]);
        d.on_read(1, Label(0), 2, &c[1]);
        assert_eq!(
            d.races(),
            [
                race(0, 5, 1),
                race(1, 2, 0),
                race(1, 2, 2),
                race(1, 2, 3),
                race(2, 3, 0)
            ]
        );
    }

    #[test]
    fn a_label_racing_itself_is_reported_once_on_the_diagonal() {
        let d = Detector::new(2);
        let c = siblings(2);
        // One statement run by two siblings, then re-read by the first.
        d.on_write(1, Label(7), 1, &c[0]);
        d.on_write(1, Label(7), 2, &c[1]);
        d.on_read(1, Label(7), 1, &c[0]);
        assert_eq!(d.races(), [race(7, 7, 1)]);
    }

    #[test]
    fn a_partly_seen_group_flags_its_later_labels_and_an_unseen_one_all() {
        let d = Detector::new(1);
        let mut root = VClock::new();
        root.bump(0);
        let mut a = VClock::fork(&mut root, 0, 1);
        let b = VClock::fork(&mut root, 0, 2);
        // Activity 1 writes 10 and 70, forks (bumping its own
        // component), then writes 11 and 200.
        d.on_write(0, Label(10), 1, &a);
        d.on_write(0, Label(70), 1, &a);
        let early = a.clone();
        let _ = VClock::fork(&mut a, 1, 3);
        d.on_write(0, Label(11), 1, &a);
        d.on_write(0, Label(200), 1, &a);
        // Activity 2 writes 20 and 90.
        d.on_write(0, Label(20), 2, &b);
        d.on_write(0, Label(90), 2, &b);
        // An activity that saw activity 1's first two writes only.
        let mut x = VClock::new();
        x.bump(4);
        x.join(&early);
        d.on_read(0, Label(5), 4, &x);
        let of_5: Vec<_> = d
            .races()
            .into_iter()
            .filter(|r| r.pair.0 == Label(5))
            .collect();
        assert_eq!(
            of_5,
            [
                race(5, 11, 0),
                race(5, 20, 0),
                race(5, 90, 0),
                race(5, 200, 0)
            ]
        );
    }

    #[test]
    fn a_group_raced_whole_keeps_its_label_row_current() {
        let d = Detector::new(1);
        let c = siblings(3);
        d.on_write(0, Label(1), 1, &c[0]);
        d.on_write(0, Label(70), 1, &c[0]);
        // Races activity 1's group as a whole, building its label row.
        d.on_read(0, Label(2), 2, &c[1]);
        // A label added after the row exists must join it.
        d.on_write(0, Label(130), 1, &c[0]);
        d.on_read(0, Label(3), 3, &c[2]);
        assert_eq!(
            d.races(),
            [
                race(1, 2, 0),
                race(1, 3, 0),
                race(2, 70, 0),
                race(2, 130, 0),
                race(3, 70, 0),
                race(3, 130, 0)
            ]
        );
    }

    #[test]
    fn a_single_label_group_stays_three_words() {
        // `fib(18)` keeps 8,361 single-label groups on one cell.
        assert_eq!(std::mem::size_of::<Group>(), 24);
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
            let races = d.races();
            prop_assert!(races.windows(2).all(|w| w[0] < w[1]), "not strictly ascending");
            prop_assert_eq!(races, Vec::from_iter(oracle.races));
        }

        #[test]
        fn detector_matches_the_oracle_with_labels_across_words(
            prog in proptest::collection::vec(op(), 1..8),
            seed in 0u64..u64::MAX,
        ) {
            let (d, oracle) = run_trace(&spread(&prog), seed, 1, CELLS);
            prop_assert_eq!(d.races(), Vec::from_iter(oracle.races));
        }
    }

    /// `prog` with its labels `0..6` moved to both sides of word
    /// boundaries.
    fn spread(prog: &[Op]) -> Vec<Op> {
        const AT: [u32; 6] = [0, 63, 64, 127, 128, 300];
        prog.iter()
            .map(|op| match op {
                Op::Read(c, l) => Op::Read(*c, AT[*l as usize]),
                Op::Write(c, l) => Op::Write(*c, AT[*l as usize]),
                Op::Async(body) => Op::Async(spread(body)),
                Op::Finish(body) => Op::Finish(spread(body)),
            })
            .collect()
    }

    #[test]
    fn the_oracle_sees_races_across_many_activities_and_blocks() {
        // 300 sibling asyncs (tids straddle the first block boundary),
        // each writing cell 0 at its own label, then a finish-ordered
        // write: every pair of siblings races, the last write races none.
        let siblings: Vec<Op> = (0..300).map(|i| Op::Async(vec![Op::Write(0, i)])).collect();
        let prog = vec![Op::Finish(siblings), Op::Write(0, 999)];
        let (d, oracle) = run_trace(&prog, 7, 1, 1);
        assert_eq!(d.races(), Vec::from_iter(oracle.races));
        assert_eq!(d.races().len(), 300 * 299 / 2);
    }
}
