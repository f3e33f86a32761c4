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
//! in a private layout, `PairRows`: a sorted sparse list of
//! `Arc`-shared, copy-on-write rows that stores each pair once. Only the
//! values callers read are turned into [`PairSet`]s (DESIGN.md §17).
//!
//! All mutating operations report whether they changed the set, which is
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

/// A bit row of [`PairRows`], shared by pointer between the variables
/// that hold it and copied on its first write.
type Row = Arc<[u64]>;

/// The level-2 solver's private pair-set storage.
///
/// A value denotes the *symmetric closure* of its stored bits. Each pair
/// is stored once, in the row that received it first: `Lcross(l, S)`
/// writes only row `l`, and `symcross(A, B)` only the rows of its smaller
/// side. Rows sit in a list sorted by label, holding only non-empty rows,
/// and are shared copy-on-write, so a union adopts a row it lacks by
/// pointer and skips one it already covers.
///
/// Change reports are exact for the symmetric relation: a new bit
/// `(a, b)` counts only if `(b, a)` is not stored, and checking stops at
/// the first bit that counts. The solvers therefore see the same changes,
/// and report the same passes and evaluations, as with a dense
/// [`PairSet`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PairRows {
    rows: Vec<(u32, Row)>,
}

impl PairRows {
    fn find(&self, l: usize) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&(l as u32), |&(k, _)| k)
    }

    /// Is bit `(a, b)` stored? One-sided: the mirror is not consulted.
    fn stored(&self, a: usize, b: usize) -> bool {
        self.find(a)
            .is_ok_and(|i| self.rows[i].1[b / 64] & (1 << (b % 64)) != 0)
    }

    /// Would storing `words` in row `l`, whose current bits are `row`,
    /// add a pair to the symmetric relation? Checked before the write, so
    /// a new diagonal bit finds no mirror and counts.
    fn grows(&self, l: usize, row: Option<&[u64]>, words: &[u64]) -> bool {
        words.iter().enumerate().any(|(wi, &w)| {
            let mut new = w & !row.map_or(0, |r| r[wi]);
            while new != 0 {
                let b = wi * 64 + new.trailing_zeros() as usize;
                if !self.stored(b, l) {
                    return true;
                }
                new &= new - 1;
            }
            false
        })
    }

    /// `row(l) ∪= words` for the stored row `rows[i]` of label `l`,
    /// copying it first if it is shared; sets `*changed` if the symmetric
    /// relation grew (checking only while it is still false).
    fn or_at(&mut self, i: usize, l: usize, words: &[u64], changed: &mut bool) {
        let row = &self.rows[i].1;
        if is_subset(words, row) {
            return;
        }
        if !*changed {
            *changed = self.grows(l, Some(row), words);
        }
        for (r, w) in Arc::make_mut(&mut self.rows[i].1).iter_mut().zip(words) {
            *r |= w;
        }
    }

    /// `row(l) ∪= words`, creating the row if absent; sets `*changed` as
    /// [`PairRows::or_at`] does.
    fn or_row(&mut self, l: usize, words: &[u64], changed: &mut bool) {
        match self.find(l) {
            Ok(i) => self.or_at(i, l, words, changed),
            Err(i) => {
                if words.iter().all(|&w| w == 0) {
                    return;
                }
                if !*changed {
                    *changed = self.grows(l, None, words);
                }
                self.rows.insert(i, (l as u32, Arc::from(words)));
            }
        }
    }

    /// `self ∪= Lcross(l, set)`; returns true if the relation grew.
    pub(crate) fn add_lcross(&mut self, l: Label, set: &LabelSet) -> bool {
        let mut changed = false;
        self.or_row(l.index(), set.words(), &mut changed);
        changed
    }

    /// `self ∪= symcross(a, b)`; returns true if the relation grew.
    pub(crate) fn add_symcross(&mut self, a: &LabelSet, b: &LabelSet) -> bool {
        let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut changed = false;
        for l in small.iter() {
            self.or_row(l.index(), big.words(), &mut changed);
        }
        changed
    }

    /// `self ∪= other`; returns true if the relation grew.
    pub(crate) fn union_with(&mut self, other: &PairRows) -> bool {
        let mut changed = false;
        let mut adopted: Vec<(u32, Row)> = Vec::new();
        let mut i = 0;
        for (l, orow) in &other.rows {
            while i < self.rows.len() && self.rows[i].0 < *l {
                i += 1;
            }
            if i < self.rows.len() && self.rows[i].0 == *l {
                if !Arc::ptr_eq(&self.rows[i].1, orow) {
                    self.or_at(i, *l as usize, orow, &mut changed);
                }
            } else {
                if !changed {
                    changed = self.grows(*l as usize, None, orow);
                }
                adopted.push((*l, Arc::clone(orow)));
            }
        }
        if !adopted.is_empty() {
            // Two sorted runs: the stable sort merges them in linear time.
            self.rows.extend(adopted);
            self.rows.sort_by_key(|&(k, _)| k);
        }
        changed
    }

    /// Heap bytes of `values`: each one's row directory, plus each
    /// distinct row (words and `Arc` counters) once, by pointer.
    pub(crate) fn shared_bytes(values: &[PairRows]) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for v in values {
            total += std::mem::size_of::<PairRows>()
                + v.rows.capacity() * std::mem::size_of::<(u32, Row)>();
            for (_, row) in &v.rows {
                if seen.insert(Arc::as_ptr(row) as *const u64) {
                    total += row.len() * 8 + 2 * std::mem::size_of::<usize>();
                }
            }
        }
        total
    }

    /// The denoted symmetric relation as a dense [`PairSet`] over `n`
    /// labels.
    pub(crate) fn to_pair_set(&self, n: usize) -> PairSet {
        let mut out = PairSet::empty(n);
        for (l, row) in &self.rows {
            out.or_row(*l as usize, row);
            for b in bit_indices(row) {
                out.set_bit(b, *l as usize);
            }
        }
        out
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

    /// One random operation on three [`PairRows`] variables: `(kind, dst,
    /// src, l, a, b)` — Lcross(l, a), symcross(a, b), or `dst ∪= src`.
    type Op = (u8, usize, usize, u32, Vec<u32>, Vec<u32>);

    /// Maps a raw draw into `0..n`, half the time into a small hot range
    /// so that mirrors and overlaps are common.
    fn label_in(n: usize, raw: u32) -> Label {
        let raw = raw as usize;
        l(if raw < 100 { raw % n.min(6) } else { raw % n } as u32)
    }

    fn set_in(n: usize, raws: &[u32]) -> LabelSet {
        LabelSet::from_labels(n, raws.iter().map(|&r| label_in(n, r)))
    }

    proptest::proptest! {
        #[test]
        fn pair_rows_match_the_dense_reference(
            ops in proptest::collection::vec(
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
        ) {
            for n in [1usize, 63, 64, 65, 130] {
                let mut rows = vec![PairRows::default(); 3];
                let mut dense = vec![PairSet::empty(n); 3];
                for (kind, dst, src, lab, a, b) in &ops as &[Op] {
                    let (a, b) = (set_in(n, a), set_in(n, b));
                    let (got, want) = match kind {
                        0 => {
                            let lab = label_in(n, *lab);
                            (rows[*dst].add_lcross(lab, &a), dense[*dst].add_lcross(lab, &a))
                        }
                        1 => (rows[*dst].add_symcross(&a, &b), dense[*dst].add_symcross(&a, &b)),
                        _ if dst == src => continue,
                        _ => {
                            let other = rows[*src].clone();
                            let dense_other = dense[*src].clone();
                            (rows[*dst].union_with(&other), dense[*dst].union_with(&dense_other))
                        }
                    };
                    proptest::prop_assert_eq!(got, want, "n = {}", n);
                    for v in 0..3 {
                        proptest::prop_assert_eq!(rows[v].to_pair_set(n), dense[v].clone(), "n = {}", n);
                    }
                }
            }
        }
    }

    #[test]
    fn write_after_adopting_a_row_leaves_the_source_alone() {
        let n = 130;
        let mut src = PairRows::default();
        src.add_lcross(l(3), &LabelSet::from_labels(n, [l(4), l(64)]));
        let mut dst = PairRows::default();
        assert!(dst.union_with(&src));
        assert!(
            Arc::ptr_eq(&dst.rows[0].1, &src.rows[0].1),
            "row adopted by pointer"
        );
        // A pointer-equal row is skipped; a mirror of a stored pair is no change.
        assert!(!dst.union_with(&src));
        assert!(!dst.add_lcross(l(64), &LabelSet::singleton(n, l(3))));
        // Writing the adopted row copies it first.
        assert!(dst.add_lcross(l(3), &LabelSet::singleton(n, l(129))));
        assert_eq!(
            src.to_pair_set(n),
            lcross(n, l(3), &LabelSet::from_labels(n, [l(4), l(64)]))
        );
        assert!(dst.to_pair_set(n).contains(l(129), l(3)));
        assert_eq!(dst.to_pair_set(n).len(), 3);
    }

    #[test]
    fn shared_rows_are_counted_once() {
        let n = 640;
        let mut a = PairRows::default();
        a.add_lcross(l(1), &LabelSet::from_labels(n, [l(2), l(600)]));
        let mut b = PairRows::default();
        b.union_with(&a);
        let one = PairRows::shared_bytes(std::slice::from_ref(&a));
        let both = PairRows::shared_bytes(&[a.clone(), b]);
        // The second variable adds only its directory, not a second row.
        assert!(both - one < 640 / 8, "{one} -> {both}");
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
