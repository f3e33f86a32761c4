//! The abstract domains `LabelSet = P(Label)` and
//! `LabelPairSet = P(Label × Label)` (paper §4.1) as dense bitsets.
//!
//! The paper's complexity analysis (§5.2) assumes bit-vector sets: "If we
//! represent each set as a bit vector with O(n²) entries, then set union
//! takes O(n²) time." [`LabelSet`] is a dense `u64` bitset over the
//! program's labels. [`PairSet`] is a *symmetric* bit matrix with a dense
//! row directory and lazily allocated rows; it is the type every query,
//! the Figure 4 type system and every caller sees.
//!
//! The level-2 solver keeps its thousands of intermediate `m` variables
//! in a private layout, `PairRows`: one arena of bit rows per solve, with
//! a sorted sparse directory per variable, storing each pair once. Only
//! the values callers read are turned into [`PairSet`]s (DESIGN.md §17).
//!
//! Mutating operations report whether they changed the set, which is
//! what the fixed-point solvers key on.

use fx10_syntax::Label;
use std::sync::Arc;

/// A set of labels over a fixed universe `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSet {
    n: usize,
    words: Box<[u64]>,
}

#[inline]
fn word_count(n: usize) -> usize {
    n.div_ceil(64)
}

impl LabelSet {
    /// The empty set over a universe of `n` labels.
    pub fn empty(n: usize) -> LabelSet {
        LabelSet {
            n,
            words: vec![0u64; word_count(n)].into_boxed_slice(),
        }
    }

    /// `{l}`.
    pub fn singleton(n: usize, l: Label) -> LabelSet {
        let mut s = LabelSet::empty(n);
        s.insert(l);
        s
    }

    /// Builds a set from labels.
    pub fn from_labels(n: usize, labels: impl IntoIterator<Item = Label>) -> LabelSet {
        let mut s = LabelSet::empty(n);
        for l in labels {
            s.insert(l);
        }
        s
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `l`; returns true if it was absent.
    #[inline]
    pub fn insert(&mut self, l: Label) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old != self.words[w]
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, l: Label) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// `self ∪= other`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &LabelSet) -> bool {
        debug_assert_eq!(self.n, other.n);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let old = *a;
            *a |= b;
            changed |= old != *a;
        }
        changed
    }

    /// `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &LabelSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &LabelSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Label> + '_ {
        bit_indices(&self.words).map(|b| Label(b as u32))
    }

    /// Raw words (read-only), used by [`PairSet`] bulk operations.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes held by the set (space accounting, Figure 8).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl std::fmt::Display for LabelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for l in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// A symmetric set of label pairs over a universe `0..n`, stored as
/// lazily-allocated bitset rows. Inserting `(a, b)` also inserts `(b, a)`
/// — the analysis only ever builds symmetric relations (`symcross`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSet {
    n: usize,
    rows: Vec<Option<Box<[u64]>>>,
    /// Total set bits across rows (= ordered-pair count).
    bits: usize,
}

impl PairSet {
    /// The empty relation over `n` labels.
    pub fn empty(n: usize) -> PairSet {
        PairSet {
            n,
            rows: vec![None; n],
            bits: 0,
        }
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    fn row_mut(&mut self, l: usize) -> &mut [u64] {
        let n = self.n;
        self.rows[l].get_or_insert_with(|| vec![0u64; word_count(n)].into_boxed_slice())
    }

    /// Sets bit `(a, b)` only (not the mirror); returns true if new.
    fn set_bit(&mut self, a: usize, b: usize) -> bool {
        let row = self.row_mut(a);
        let (w, bit) = (b / 64, b % 64);
        let old = row[w];
        row[w] |= 1 << bit;
        if old != row[w] {
            self.bits += 1;
            true
        } else {
            false
        }
    }

    /// Inserts the unordered pair `{a, b}`; returns true if it was absent.
    pub fn insert(&mut self, a: Label, b: Label) -> bool {
        let c1 = self.set_bit(a.index(), b.index());
        if a != b {
            self.set_bit(b.index(), a.index());
        }
        c1
    }

    /// True iff the unordered pair `{a, b}` is present.
    pub fn contains(&self, a: Label, b: Label) -> bool {
        match &self.rows[a.index()] {
            Some(row) => {
                let (w, bit) = (b.index() / 64, b.index() % 64);
                row[w] & (1 << bit) != 0
            }
            None => false,
        }
    }

    /// `self ∪= other`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &PairSet) -> bool {
        debug_assert_eq!(self.n, other.n);
        let mut changed = false;
        for (l, orow) in other.rows.iter().enumerate() {
            let Some(orow) = orow else { continue };
            if orow.iter().all(|&w| w == 0) {
                continue;
            }
            let mut delta = 0usize;
            let row = self.row_mut(l);
            for (a, b) in row.iter_mut().zip(orow.iter()) {
                let old = *a;
                *a |= b;
                delta += (*a ^ old).count_ones() as usize;
            }
            self.bits += delta;
            changed |= delta != 0;
        }
        changed
    }

    /// `self ∪= Lcross(l, set) = symcross({l}, set)`; returns true if grew.
    pub fn add_lcross(&mut self, l: Label, set: &LabelSet) -> bool {
        if set.is_empty() {
            return false;
        }
        let mut changed = self.or_row(l.index(), set.words());
        for b in set.iter() {
            changed |= self.set_bit(b.index(), l.index());
        }
        changed
    }

    /// `self ∪= symcross(a, b) = (a × b) ∪ (b × a)`; returns true if grew.
    pub fn add_symcross(&mut self, a: &LabelSet, b: &LabelSet) -> bool {
        if a.is_empty() || b.is_empty() {
            return false;
        }
        let mut changed = false;
        for l in a.iter() {
            changed |= self.or_row(l.index(), b.words());
        }
        for l in b.iter() {
            changed |= self.or_row(l.index(), a.words());
        }
        changed
    }

    /// `row(l) ∪= words` with bit accounting; returns true if the row grew.
    fn or_row(&mut self, l: usize, words: &[u64]) -> bool {
        let mut delta = 0usize;
        let row = self.row_mut(l);
        for (a, b) in row.iter_mut().zip(words.iter()) {
            let old = *a;
            *a |= b;
            delta += (*a ^ old).count_ones() as usize;
        }
        self.bits += delta;
        delta != 0
    }

    /// Does label `l` pair with any member of `set`?
    pub fn row_intersects(&self, l: Label, set: &LabelSet) -> bool {
        match &self.rows[l.index()] {
            Some(row) => row.iter().zip(set.words().iter()).any(|(a, b)| a & b != 0),
            None => false,
        }
    }

    /// Every label paired with `l`, as a fresh [`LabelSet`].
    pub fn partners(&self, l: Label) -> LabelSet {
        let mut out = LabelSet::empty(self.n);
        if let Some(row) = &self.rows[l.index()] {
            for (a, b) in out.words.iter_mut().zip(row.iter()) {
                *a |= b;
            }
        }
        out
    }

    /// Number of *unordered* pairs (diagonal pairs count once).
    pub fn len(&self) -> usize {
        let diag = (0..self.n)
            .filter(|&l| self.contains(Label(l as u32), Label(l as u32)))
            .count();
        (self.bits - diag) / 2 + diag
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// `self ⊆ other` (as symmetric relations).
    pub fn is_subset(&self, other: &PairSet) -> bool {
        for (l, row) in self.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            match &other.rows[l] {
                Some(orow) => {
                    if row.iter().zip(orow.iter()).any(|(a, b)| a & !b != 0) {
                        return false;
                    }
                }
                None => {
                    if row.iter().any(|&w| w != 0) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Iterates unordered pairs `(a, b)` with `a <= b`, in order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (Label, Label)> + '_ {
        self.rows.iter().enumerate().flat_map(move |(a, row)| {
            row.iter()
                .flat_map(|r| bit_indices(r))
                .filter(move |&b| a <= b)
                .map(move |b| (Label(a as u32), Label(b as u32)))
        })
    }

    /// Heap bytes held (space accounting, Figure 8).
    pub fn bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.as_ref().map_or(0, |row| row.len() * 8))
            .sum::<usize>()
            + self.rows.len() * std::mem::size_of::<Option<Box<[u64]>>>()
    }
}

/// `symcross(A, B)` as a fresh relation (Figure 3, equation 37). The
/// solvers use the in-place [`PairSet::add_symcross`]; this standalone
/// version exists for tests and the type-system implementation.
pub fn symcross(a: &LabelSet, b: &LabelSet) -> PairSet {
    let mut out = PairSet::empty(a.universe());
    out.add_symcross(a, b);
    out
}

/// `Lcross(l, A) = symcross({l}, A)` (equation 38).
pub fn lcross(n: usize, l: Label, a: &LabelSet) -> PairSet {
    let mut out = PairSet::empty(n);
    out.add_lcross(l, a);
    out
}

/// Shared, immutable label set — a solved constant referenced by many
/// constraints. `Arc` rather than `Rc` keeps constraint systems, and the
/// analyses that hold them, `Send + Sync`.
pub type SharedLabelSet = Arc<LabelSet>;

/// Iterates the set bits of `words` as indices, in increasing order.
fn bit_indices(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

/// A row of a [`PairRows`] arena, by index.
type RowId = u32;

/// The owner of a row that some variable adopted: no variable writes it
/// in place any more.
const SHARED: u32 = u32::MAX;

/// Where the words or-ed into a row come from: a solved label set, or
/// another row of the same arena.
#[derive(Clone, Copy)]
enum Src<'a> {
    Words(&'a [u64]),
    Row(RowId),
}

/// The level-2 solver's private pair-set storage: the values of every
/// variable of one solve.
///
/// A value denotes the *symmetric closure* of its stored bits. Each pair
/// is stored once, in the row that received it first: `Lcross(l, S)`
/// writes only row `l`, and `symcross(A, B)` only the rows of its smaller
/// side. All rows sit in one arena of fixed-stride rows named by `u32`
/// ids, and each variable keeps a directory of its non-empty rows as
/// `(label, row)`, sorted by label. A union adopts a row it lacks by
/// copying its id, and skips a row with the same id or one it already
/// covers.
///
/// Owner rule: a row is written in place only by the variable that
/// allocated it, and only until another variable adopts it. Any other
/// write copies the row to a fresh one owned by the writer, so a write
/// never shows through another variable's directory.
///
/// Change reports: each operation takes the caller's `changed` flag and
/// sets it if the symmetric relation grew. A new bit `(a, b)` counts only
/// if `(b, a)` is not stored, checked before the write, and checking
/// stops at the first bit that counts. While the flag is false the report
/// is therefore exact, the same as a dense [`PairSet`] gives. Once it is
/// set, nothing is checked; the bits are still written.
#[derive(Debug, Clone)]
pub(crate) struct PairRows {
    universe: usize,
    /// Words per row.
    stride: usize,
    /// Row `r` is `words[r * stride..][..stride]`.
    words: Vec<u64>,
    /// Per row: the variable that allocated it, or [`SHARED`].
    owner: Vec<u32>,
    /// Per variable: `(label, row)` for each non-empty row, by label.
    dirs: Vec<Vec<(u32, RowId)>>,
}

impl PairRows {
    /// `n_vars` empty values over `universe` labels.
    pub(crate) fn new(universe: usize, n_vars: usize) -> PairRows {
        PairRows {
            universe,
            stride: word_count(universe),
            words: Vec::new(),
            owner: Vec::new(),
            dirs: vec![Vec::new(); n_vars],
        }
    }

    fn row(&self, r: RowId) -> &[u64] {
        &self.words[r as usize * self.stride..][..self.stride]
    }

    /// Appends a row holding `src`, owned by variable `v`.
    fn alloc(&mut self, v: u32, src: Src) -> RowId {
        let id = RowId::try_from(self.owner.len()).expect("an arena holds fewer than 2^32 rows");
        match src {
            Src::Words(w) => self.words.extend_from_slice(w),
            Src::Row(r) => {
                let at = r as usize * self.stride;
                self.words.extend_from_within(at..at + self.stride);
            }
        }
        self.owner.push(v);
        id
    }

    /// `row(r) ∪= src` for variable `v`: in place if `v` owns `r`, else
    /// on a fresh copy that `v` owns. Returns the row holding the result.
    fn or_into(&mut self, v: u32, r: RowId, src: Src) -> RowId {
        let r = if self.owner[r as usize] == v {
            r
        } else {
            self.alloc(v, Src::Row(r))
        };
        let (st, at) = (self.stride, r as usize * self.stride);
        match src {
            Src::Words(w) => or_words(&mut self.words[at..at + st], w),
            Src::Row(s) => {
                debug_assert_ne!(s, r, "unions skip equal ids");
                let from = s as usize * st;
                if at < from {
                    let (lo, hi) = self.words.split_at_mut(from);
                    or_words(&mut lo[at..at + st], &hi[..st]);
                } else {
                    let (lo, hi) = self.words.split_at_mut(at);
                    or_words(&mut hi[..st], &lo[from..from + st]);
                }
            }
        }
        r
    }

    /// Is bit `(a, b)` stored in the rows of `dir`? One-sided: the mirror
    /// is not consulted.
    fn stored(&self, dir: &[(u32, RowId)], a: usize, b: usize) -> bool {
        find(dir, a).is_ok_and(|i| self.row(dir[i].1)[b / 64] & (1 << (b % 64)) != 0)
    }

    /// Would storing `words` in row `l` of `dir`, currently `row`, add a
    /// pair to the symmetric relation? Checked before the write, so a new
    /// diagonal bit finds no mirror and counts.
    fn grows(&self, dir: &[(u32, RowId)], l: usize, row: Option<RowId>, words: &[u64]) -> bool {
        let row = row.map(|r| self.row(r));
        words.iter().enumerate().any(|(wi, &w)| {
            let mut new = w & !row.map_or(0, |r| r[wi]);
            while new != 0 {
                let b = wi * 64 + new.trailing_zeros() as usize;
                if !self.stored(dir, b, l) {
                    return true;
                }
                new &= new - 1;
            }
            false
        })
    }

    /// `row(l) ∪= words` in variable `v`, creating the row if absent.
    fn or_row(&mut self, v: usize, l: usize, words: &[u64], changed: &mut bool) {
        match find(&self.dirs[v], l) {
            Ok(i) => {
                let r = self.dirs[v][i].1;
                if is_subset(words, self.row(r)) {
                    return;
                }
                if !*changed {
                    *changed = self.grows(&self.dirs[v], l, Some(r), words);
                }
                self.dirs[v][i].1 = self.or_into(v as u32, r, Src::Words(words));
            }
            Err(i) => {
                if words.iter().all(|&w| w == 0) {
                    return;
                }
                if !*changed {
                    *changed = self.grows(&self.dirs[v], l, None, words);
                }
                let r = self.alloc(v as u32, Src::Words(words));
                self.dirs[v].insert(i, (l as u32, r));
            }
        }
    }

    /// `value(v) ∪= Lcross(l, set)`.
    pub(crate) fn add_lcross(&mut self, v: usize, l: Label, set: &LabelSet, changed: &mut bool) {
        self.or_row(v, l.index(), set.words(), changed);
    }

    /// `value(v) ∪= symcross(a, b)`.
    pub(crate) fn add_symcross(
        &mut self,
        v: usize,
        a: &LabelSet,
        b: &LabelSet,
        changed: &mut bool,
    ) {
        let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        for l in small.iter() {
            self.or_row(v, l.index(), big.words(), changed);
        }
    }

    /// `value(dst) ∪= value(src)` for distinct variables.
    pub(crate) fn union_with(&mut self, dst: usize, src: usize, changed: &mut bool) {
        debug_assert_ne!(dst, src);
        let mut dir = std::mem::take(&mut self.dirs[dst]);
        // Adopted rows are pushed after the first `base` entries, which
        // stay sorted for the change checks until the final merge.
        let base = dir.len();
        let mut i = 0;
        // By index: the loop body writes the arena.
        for k in 0..self.dirs[src].len() {
            let (l, s) = self.dirs[src][k];
            while i < base && dir[i].0 < l {
                i += 1;
            }
            if i < base && dir[i].0 == l {
                let r = dir[i].1;
                if r == s || is_subset(self.row(s), self.row(r)) {
                    continue;
                }
                if !*changed {
                    *changed = self.grows(&dir[..base], l as usize, Some(r), self.row(s));
                }
                dir[i].1 = self.or_into(dst as u32, r, Src::Row(s));
            } else {
                if !*changed {
                    *changed = self.grows(&dir[..base], l as usize, None, self.row(s));
                }
                self.owner[s as usize] = SHARED;
                dir.push((l, s));
            }
        }
        if dir.len() > base {
            // Two sorted runs: the stable sort merges them in linear time.
            dir.sort_by_key(|&(k, _)| k);
        }
        self.dirs[dst] = dir;
    }

    /// Heap bytes of the store: every arena row once, however many
    /// variables hold it (rows a copy replaced included), its owner, and
    /// each variable's directory.
    pub(crate) fn bytes(&self) -> usize {
        self.owner.len() * (self.stride * 8 + std::mem::size_of::<u32>())
            + self
                .dirs
                .iter()
                .map(|d| {
                    std::mem::size_of::<Vec<(u32, RowId)>>()
                        + d.len() * std::mem::size_of::<(u32, RowId)>()
                })
                .sum::<usize>()
    }

    /// The symmetric relation variable `v` denotes, as a dense
    /// [`PairSet`].
    pub(crate) fn to_pair_set(&self, v: usize) -> PairSet {
        let mut out = PairSet::empty(self.universe);
        for &(l, r) in &self.dirs[v] {
            let row = self.row(r);
            out.or_row(l as usize, row);
            for b in bit_indices(row) {
                out.set_bit(b, l as usize);
            }
        }
        out
    }
}

/// Position of label `l`'s row in a sorted directory.
fn find(dir: &[(u32, RowId)], l: usize) -> Result<usize, usize> {
    dir.binary_search_by_key(&(l as u32), |&(k, _)| k)
}

/// `a ∪= b` over equal-length word slices.
fn or_words(a: &mut [u64], b: &[u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x |= y;
    }
}

/// `a ⊆ b` over equal-length word slices.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> Label {
        Label(i)
    }

    #[test]
    fn labelset_basics() {
        let mut s = LabelSet::empty(130);
        assert!(s.is_empty());
        assert!(s.insert(l(0)));
        assert!(s.insert(l(64)));
        assert!(s.insert(l(129)));
        assert!(!s.insert(l(129)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(l(64)));
        assert!(!s.contains(l(65)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![l(0), l(64), l(129)]);
        assert_eq!(format!("{s}"), "{L0, L64, L129}");
    }

    #[test]
    fn labelset_union_and_subset() {
        let mut a = LabelSet::from_labels(100, [l(1), l(2)]);
        let b = LabelSet::from_labels(100, [l(2), l(3)]);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 3);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
        let c = LabelSet::from_labels(100, [l(99)]);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn pairset_insert_is_symmetric() {
        let mut m = PairSet::empty(10);
        assert!(m.insert(l(3), l(7)));
        assert!(!m.insert(l(7), l(3)));
        assert!(m.contains(l(7), l(3)));
        assert_eq!(m.len(), 1);
        assert!(m.insert(l(4), l(4)));
        assert_eq!(m.len(), 2);
        assert_eq!(
            m.iter_pairs().collect::<Vec<_>>(),
            vec![(l(3), l(7)), (l(4), l(4))]
        );
    }

    #[test]
    fn pairset_union_tracks_changes() {
        let mut a = PairSet::empty(10);
        a.insert(l(1), l(2));
        let mut b = PairSet::empty(10);
        b.insert(l(1), l(2));
        b.insert(l(5), l(5));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 2);
        assert!(b.is_subset(&a));
    }

    #[test]
    fn lcross_matches_definition() {
        let s = LabelSet::from_labels(10, [l(2), l(9)]);
        let m = lcross(10, l(0), &s);
        assert_eq!(m.len(), 2);
        assert!(m.contains(l(0), l(2)));
        assert!(m.contains(l(9), l(0)));
        // Lcross with an empty set is empty.
        assert!(lcross(10, l(0), &LabelSet::empty(10)).is_empty());
    }

    #[test]
    fn symcross_matches_definition() {
        let a = LabelSet::from_labels(10, [l(1), l(2)]);
        let b = LabelSet::from_labels(10, [l(2), l(3)]);
        let m = symcross(&a, &b);
        // (1,2), (1,3), (2,2), (2,3): 4 unordered pairs.
        assert_eq!(m.len(), 4);
        assert!(m.contains(l(2), l(2)));
        assert!(m.contains(l(3), l(1)));
        assert!(!m.contains(l(1), l(1)));
        // symcross is commutative (Lemma 7.1).
        assert_eq!(m, symcross(&b, &a));
    }

    #[test]
    fn symcross_distributes_over_union() {
        // Lemma 7.3: symcross(A, C) ∪ symcross(B, C) = symcross(A ∪ B, C).
        let a = LabelSet::from_labels(20, [l(1)]);
        let b = LabelSet::from_labels(20, [l(2), l(15)]);
        let c = LabelSet::from_labels(20, [l(3), l(19)]);
        let mut lhs = symcross(&a, &c);
        lhs.union_with(&symcross(&b, &c));
        let mut ab = a.clone();
        ab.union_with(&b);
        assert_eq!(lhs, symcross(&ab, &c));
    }

    #[test]
    fn partners_row_view() {
        let mut m = PairSet::empty(10);
        m.insert(l(1), l(2));
        m.insert(l(1), l(5));
        let row = m.partners(l(1));
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![l(2), l(5)]);
        assert!(m.row_intersects(l(2), &LabelSet::from_labels(10, [l(1)])));
        assert!(!m.row_intersects(l(2), &LabelSet::from_labels(10, [l(5)])));
    }

    /// One random operation on three variables: `(kind, dst, src, l, a,
    /// b)` — Lcross(l, a), symcross(a, b), or `dst ∪= src`.
    type Op = (u8, usize, usize, u32, Vec<u32>, Vec<u32>);

    /// Universes around the word boundaries.
    const UNIVERSES: [usize; 5] = [1, 63, 64, 65, 130];

    fn ops() -> impl proptest::Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (
                0u8..3,
                0usize..3,
                0usize..3,
                0u32..200,
                proptest::collection::vec(0u32..200, 0..6),
                proptest::collection::vec(0u32..200, 0..6),
            ),
            1..40,
        )
    }

    /// Maps a raw draw into `0..n`, half the time into a small hot range
    /// so that mirrors and overlaps are common.
    fn label_in(n: usize, raw: u32) -> Label {
        let raw = raw as usize;
        l(if raw < 100 { raw % n.min(6) } else { raw % n } as u32)
    }

    fn set_in(n: usize, raws: &[u32]) -> LabelSet {
        LabelSet::from_labels(n, raws.iter().map(|&r| label_in(n, r)))
    }

    /// Applies `op` to the store with the change flag starting at
    /// `changed` and to the dense reference; returns both flags, or
    /// `None` for a union of a variable with itself (never generated).
    fn apply(
        op: &Op,
        n: usize,
        store: &mut PairRows,
        dense: &mut [PairSet],
        mut changed: bool,
    ) -> Option<(bool, bool)> {
        let (kind, dst, src, lab, a, b) = op;
        let (a, b) = (set_in(n, a), set_in(n, b));
        let want = match kind {
            0 => {
                let lab = label_in(n, *lab);
                store.add_lcross(*dst, lab, &a, &mut changed);
                dense[*dst].add_lcross(lab, &a)
            }
            1 => {
                store.add_symcross(*dst, &a, &b, &mut changed);
                dense[*dst].add_symcross(&a, &b)
            }
            _ if dst == src => return None,
            _ => {
                store.union_with(*dst, *src, &mut changed);
                let other = dense[*src].clone();
                dense[*dst].union_with(&other)
            }
        };
        Some((changed, want))
    }

    proptest::proptest! {
        #[test]
        fn pair_rows_match_the_dense_reference(ops in ops()) {
            for n in UNIVERSES {
                let mut store = PairRows::new(n, 3);
                let mut dense = vec![PairSet::empty(n); 3];
                for op in &ops {
                    let Some((got, want)) = apply(op, n, &mut store, &mut dense, false) else {
                        continue;
                    };
                    proptest::prop_assert_eq!(got, want, "n = {}", n);
                    for (v, d) in dense.iter().enumerate() {
                        proptest::prop_assert_eq!(&store.to_pair_set(v), d, "n = {}", n);
                    }
                }
            }
        }

        #[test]
        fn a_set_change_flag_skips_only_the_report(ops in ops(), cut in 0usize..40) {
            for n in UNIVERSES {
                let mut exact = PairRows::new(n, 3);
                let mut flagged = PairRows::new(n, 3);
                let (mut d1, mut d2) = (vec![PairSet::empty(n); 3], vec![PairSet::empty(n); 3]);
                for (i, op) in ops.iter().enumerate() {
                    apply(op, n, &mut exact, &mut d1, false);
                    let Some((got, _)) = apply(op, n, &mut flagged, &mut d2, i >= cut) else {
                        continue;
                    };
                    proptest::prop_assert!(got || i < cut, "a set flag stays set");
                    for v in 0..3 {
                        proptest::prop_assert_eq!(
                            flagged.to_pair_set(v),
                            exact.to_pair_set(v),
                            "n = {}, op {}", n, i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn write_after_adopting_a_row_leaves_the_source_alone() {
        let (n, src, dst) = (130, 0, 1);
        let mut s = PairRows::new(n, 2);
        let mut changed = false;
        s.add_lcross(src, l(3), &LabelSet::singleton(n, l(4)), &mut changed);
        assert!(changed);
        let own = s.dirs[src][0].1;
        s.add_lcross(src, l(3), &LabelSet::singleton(n, l(64)), &mut false);
        assert_eq!(
            s.dirs[src][0].1, own,
            "the allocating variable writes in place"
        );
        let mut changed = false;
        s.union_with(dst, src, &mut changed);
        assert!(changed);
        assert_eq!(s.dirs[dst][0].1, own, "row adopted by id");
        // An id-equal row is skipped; a mirror of a stored pair is no change.
        let mut changed = false;
        s.union_with(dst, src, &mut changed);
        s.add_lcross(dst, l(64), &LabelSet::singleton(n, l(3)), &mut changed);
        assert!(!changed);
        // Once adopted, a write copies the row, whichever side writes.
        let mut changed = false;
        s.add_lcross(dst, l(3), &LabelSet::singleton(n, l(129)), &mut changed);
        assert!(changed);
        assert_ne!(s.dirs[dst][0].1, own);
        s.add_lcross(src, l(3), &LabelSet::singleton(n, l(5)), &mut false);
        assert_ne!(s.dirs[src][0].1, own, "the owner lost in-place writes");
        let row = |ls: &[u32]| lcross(n, l(3), &LabelSet::from_labels(n, ls.iter().map(|&i| l(i))));
        assert_eq!(s.to_pair_set(src), row(&[4, 5, 64]));
        assert_eq!(s.to_pair_set(dst), row(&[4, 64, 129]));
    }

    #[test]
    fn shared_rows_are_counted_once() {
        let n = 640;
        let mut s = PairRows::new(n, 2);
        s.add_lcross(
            0,
            l(1),
            &LabelSet::from_labels(n, [l(2), l(600)]),
            &mut false,
        );
        let one = s.bytes();
        s.union_with(1, 0, &mut false);
        let both = s.bytes();
        // The second variable adds a directory entry, not a second row.
        assert!(both - one < n / 8, "{one} -> {both}");
        // A write through the adopted row copies it, and the copy counts.
        s.add_lcross(1, l(1), &LabelSet::singleton(n, l(3)), &mut false);
        assert!(s.bytes() - both >= n / 8, "{both} -> {}", s.bytes());
    }

    #[test]
    fn bytes_accounting_is_lazy() {
        let empty = PairSet::empty(1000);
        let mut one = PairSet::empty(1000);
        one.insert(l(0), l(1));
        // Only two rows allocated out of 1000.
        assert!(one.bytes() < empty.bytes() + 3 * (1000_usize.div_ceil(64)) * 8);
    }
}
