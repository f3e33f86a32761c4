//! Dynamic witness extraction for MHP/race diagnostics.
//!
//! A static race report says two labels *may* happen in parallel; the
//! strongest possible evidence is a concrete schedule that drives the
//! program to a state whose `parallel(T)` contains the pair — then both
//! racing instructions are enabled redexes at once. [`find_witnesses`]
//! searches for such schedules with one bounded breadth-first
//! exploration shared by every target pair, and returns each as a trace
//! of successor-choice indices, which [`witness_exhibits`] replays
//! through the cloned successor enumeration of [`crate::step`].
//!
//! The search runs on the hash-consed [`Interner`] in *literal* mode:
//! no `∥`-canonicalization and no administrative normalization.
//! Canonical dedup is a bisimulation — sound for reachability — but it
//! permutes the order [`successors`](crate::step::successors) enumerates
//! transitions in, which would invalidate the recorded choice indices;
//! literal interned trees enumerate successors in exactly that order.
//! States are packed `u64` keys, and the target test is a per-tree-id
//! memo, so a new state costs only the nodes its step rebuilt.
//!
//! **One search, many targets.** BFS order does not depend on the
//! target, so each target resolves at its first occurrence with exactly
//! the [`WitnessSearch`] (schedule and `states` count) a search for that
//! target alone would return, and the state cap and the `max_iters` cap
//! fall at the same expansion for every target still open. The one
//! difference is the wall-clock deadline: when it trips, every
//! unresolved target goes [`WitnessSearch::Exhausted`] together, where
//! searches run one after another would each have tripped on their own.
//! The search is deterministic: the witness for a given program, input
//! and budget is always the same schedule.

use crate::hash::IdSet;
use crate::intern::{state_key, state_parts, Interner, TNode, TreeId};
use crate::parallel::{pair, parallel, LabelPair};
use crate::state::ArrayState;
use crate::step::{initial_tree, successors};

use fx10_robust::{Budget, BudgetMeter, CancelToken, Fx10Error, Stop};
use fx10_syntax::{Label, Program};

/// A concrete interleaving exhibiting a label pair running in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The exhibited (unordered, normalized) label pair.
    pub pair: LabelPair,
    /// Successor-choice indices from the initial state; replaying the
    /// whole schedule reaches a state with the pair in `parallel(T)`.
    pub schedule: Vec<u32>,
    /// Distinct states the search had discovered when it found the
    /// witness, the witness state included.
    pub states: usize,
}

/// The outcome of a bounded witness search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessSearch {
    /// A schedule exhibiting the pair was found.
    Found(Witness),
    /// The full (raw) state space was exhausted without the pair ever
    /// co-occurring: the static report is a proven false positive.
    Refuted {
        /// States visited by the complete search.
        states: usize,
    },
    /// The state budget ran out first — the report stands, tagged
    /// may-be-spurious.
    Exhausted {
        /// States visited before the budget tripped.
        states: usize,
    },
}

/// Searches, in one shared breadth-first exploration, for a schedule
/// under which each target's two labels are both enabled redexes,
/// admitting at most `max_states` raw states. Returns one outcome per
/// target, in order; duplicate targets get equal outcomes, and an empty
/// target list returns at once.
///
/// Each outcome equals that of a search for its target alone (see the
/// module docs). The search also honors `budget`'s `max_iters` (one
/// tick per expanded state), its wall-clock deadline and the cancel
/// token: cancellation surfaces as [`Fx10Error::Cancelled`]; a budget
/// trip settles every unresolved target as [`WitnessSearch::Exhausted`],
/// matching the explorer's budget semantics.
pub fn find_witnesses(
    p: &Program,
    input: &[i64],
    targets: &[LabelPair],
    max_states: usize,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<Vec<WitnessSearch>, Fx10Error> {
    if targets.is_empty() {
        return Ok(Vec::new());
    }
    let mut outcomes = Outcomes::new(targets);
    let mut memo = TargetMemo::new(&outcomes.targets);
    let mut meter = BudgetMeter::new(budget, cancel.clone());
    let it = Interner::new(false);
    let a0 = it.intern_array(ArrayState::with_input(p, input).cells().to_vec());
    let t0 = it.intern_tree(&initial_tree(p));

    // Admission-order BFS: `nodes[..at]` are expanded, `nodes[at..]`
    // are the frontier. The root `⟨s₀⟩` is one statement, so
    // `parallel(⟨s₀⟩) = ∅` and only discovered states are tested. The
    // loop's value settles the targets still open when it ends.
    let mut nodes = vec![Node {
        key: state_key(a0, t0),
        parent: 0,
        choice: 0,
    }];
    let mut seen: IdSet<u64> = IdSet::from_iter([nodes[0].key]);
    let mut stepper = it.stepper(p);
    let mut succ = Vec::new();
    let mut at = 0;
    let rest = 'search: loop {
        if outcomes.open == 0 || at == nodes.len() {
            break WitnessSearch::Refuted {
                states: nodes.len(),
            };
        }
        match meter.tick() {
            Ok(()) => {}
            Err(Stop::Cancelled) => return Err(Fx10Error::Cancelled),
            Err(Stop::Exhausted(_)) => {
                break WitnessSearch::Exhausted {
                    states: nodes.len(),
                }
            }
        }
        let (a, t) = state_parts(nodes[at].key);
        succ.clear();
        stepper.successors(a, t, &mut succ);
        memo.extend(&it);
        for (choice, &(sa, st)) in succ.iter().enumerate() {
            let key = state_key(sa, st);
            if !seen.insert(key) {
                continue;
            }
            let states = nodes.len();
            outcomes.found(memo.hits(st), states + 1, || {
                schedule_to(&nodes, at, choice as u32)
            });
            if states >= max_states {
                break 'search WitnessSearch::Exhausted { states };
            }
            nodes.push(Node {
                key,
                parent: at,
                choice: choice as u32,
            });
        }
        at += 1;
    };
    Ok(outcomes.finish(rest))
}

/// One admitted state of the witness BFS and how it was first reached.
struct Node {
    key: u64,
    parent: usize,
    choice: u32,
}

/// The choice indices from the root to `nodes[at]`, then `last`.
fn schedule_to(nodes: &[Node], mut at: usize, last: u32) -> Vec<u32> {
    let mut schedule = vec![last];
    while at != 0 {
        schedule.push(nodes[at].choice);
        at = nodes[at].parent;
    }
    schedule.reverse();
    schedule
}

/// The per-target outcomes of one shared search.
struct Outcomes {
    targets: Vec<LabelPair>,
    out: Vec<Option<WitnessSearch>>,
    /// Bit `i` set while target `i` is unresolved.
    unresolved: Vec<u64>,
    /// Unresolved targets.
    open: usize,
}

impl Outcomes {
    fn new(targets: &[LabelPair]) -> Outcomes {
        let mut unresolved = vec![0u64; targets.len().div_ceil(64)];
        for i in 0..targets.len() {
            unresolved[i / 64] |= 1 << (i % 64);
        }
        Outcomes {
            targets: targets.iter().map(|&(a, b)| pair(a, b)).collect(),
            out: vec![None; targets.len()],
            unresolved,
            open: targets.len(),
        }
    }

    /// Resolves every unresolved target in `hits` as found at the
    /// `states`-th discovered state, building the schedule only if one
    /// resolves.
    fn found(&mut self, hits: &[u64], states: usize, schedule: impl FnOnce() -> Vec<u32>) {
        let mut fresh = Vec::new();
        for (w, (open, &hit)) in self.unresolved.iter_mut().zip(hits).enumerate() {
            let mut bits = *open & hit;
            *open &= !hit;
            while bits != 0 {
                fresh.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        if fresh.is_empty() {
            return;
        }
        let schedule = schedule();
        self.open -= fresh.len();
        for i in fresh {
            self.out[i] = Some(WitnessSearch::Found(Witness {
                pair: self.targets[i],
                schedule: schedule.clone(),
                states,
            }));
        }
    }

    /// Every outcome, with `rest` for the targets still unresolved.
    fn finish(self, rest: WitnessSearch) -> Vec<WitnessSearch> {
        self.out
            .into_iter()
            .map(|o| o.unwrap_or_else(|| rest.clone()))
            .collect()
    }
}

/// The target test, memoized per interned tree as two bit rows:
/// `FTlabels(T)` restricted to the labels the targets mention, and the
/// targets in `parallel(T)`. Tree ids are dense and a node's children
/// are interned before it, so rows fill in id order and each new node
/// costs one row built from its children's.
struct TargetMemo {
    /// Each target's two label slots.
    targets: Vec<(usize, usize)>,
    /// Label index → slot, for the labels some target mentions.
    slot_of: Vec<Option<usize>>,
    label_words: usize,
    target_words: usize,
    /// `label_words` words per tree id.
    ft: Vec<u64>,
    /// `target_words` words per tree id.
    hits: Vec<u64>,
    /// Tree ids with rows.
    rows: usize,
}

impl TargetMemo {
    fn new(targets: &[LabelPair]) -> TargetMemo {
        let mut slot_of: Vec<Option<usize>> = Vec::new();
        let mut slots = 0;
        let mut slot = |l: Label| {
            if slot_of.len() <= l.index() {
                slot_of.resize(l.index() + 1, None);
            }
            *slot_of[l.index()].get_or_insert_with(|| {
                slots += 1;
                slots - 1
            })
        };
        let targets: Vec<(usize, usize)> =
            targets.iter().map(|&(a, b)| (slot(a), slot(b))).collect();
        TargetMemo {
            label_words: slots.div_ceil(64),
            target_words: targets.len().div_ceil(64),
            targets,
            slot_of,
            ft: Vec::new(),
            hits: Vec::new(),
            rows: 0,
        }
    }

    /// The targets in `parallel(t)`; `t` must predate the last
    /// [`extend`](TargetMemo::extend).
    fn hits(&self, t: TreeId) -> &[u64] {
        let at = t.0 as usize * self.target_words;
        &self.hits[at..at + self.target_words]
    }

    /// Adds rows for every tree interned since the last call.
    fn extend(&mut self, it: &Interner) {
        let (lw, tw) = (self.label_words, self.target_words);
        let trees = it.counts().0;
        for id in self.rows..trees {
            match it.node(TreeId(id as u32)) {
                TNode::Done => {
                    self.ft.resize(self.ft.len() + lw, 0);
                    self.hits.resize(self.hits.len() + tw, 0);
                }
                TNode::Stm(label, _) => {
                    let at = self.ft.len();
                    self.ft.resize(at + lw, 0);
                    if let Some(&Some(slot)) = self.slot_of.get(label.index()) {
                        self.ft[at + slot / 64] |= 1 << (slot % 64);
                    }
                    self.hits.resize(self.hits.len() + tw, 0);
                }
                // FTlabels and parallel of T₁ ▷ T₂ are those of T₁.
                TNode::Seq(t1, _) => {
                    let t1 = t1.0 as usize;
                    self.ft.extend_from_within(t1 * lw..(t1 + 1) * lw);
                    self.hits.extend_from_within(t1 * tw..(t1 + 1) * tw);
                }
                // parallel(T₁ ∥ T₂) adds symcross(FTlabels(T₁), FTlabels(T₂)).
                TNode::Par(t1, t2) => {
                    let (t1, t2) = (t1.0 as usize, t2.0 as usize);
                    for w in 0..lw {
                        self.ft.push(self.ft[t1 * lw + w] | self.ft[t2 * lw + w]);
                    }
                    for w in 0..tw {
                        self.hits
                            .push(self.hits[t1 * tw + w] | self.hits[t2 * tw + w]);
                    }
                    let (l1, l2) = (&self.ft[t1 * lw..], &self.ft[t2 * lw..]);
                    let has = |row: &[u64], slot: usize| row[slot / 64] >> (slot % 64) & 1 == 1;
                    for (i, &(x, y)) in self.targets.iter().enumerate() {
                        if (has(l1, x) && has(l2, y)) || (has(l1, y) && has(l2, x)) {
                            self.hits[id * tw + i / 64] |= 1 << (i % 64);
                        }
                    }
                }
            }
        }
        self.rows = trees;
    }
}

/// Validates a witness schedule: replays it from the initial state and
/// checks that the final tree really has `target` in `parallel(T)`.
///
/// This is the property the race proptests pin down — a witness is only
/// evidence if an independent replay through the interpreter's
/// transition enumeration reproduces the co-occurrence.
pub fn witness_exhibits(p: &Program, input: &[i64], schedule: &[u32], target: LabelPair) -> bool {
    let target = pair(target.0, target.1);
    let mut array = ArrayState::with_input(p, input);
    let mut tree = initial_tree(p);
    for &choice in schedule {
        let succ = successors(p, &array, &tree);
        let Some(chosen) = succ.into_iter().nth(choice as usize) else {
            return false;
        };
        array = chosen.array;
        tree = chosen.tree;
    }
    parallel(&tree).contains(&target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(p: &Program, a: Label, b: Label, max_states: usize) -> WitnessSearch {
        let mut found = find_witnesses(
            p,
            &[],
            &[(a, b)],
            max_states,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(found.len(), 1);
        found.pop().unwrap()
    }

    fn racey() -> Program {
        Program::parse("def main() { W1: async { a[0] = 1; } W2: a[0] = 2; }").unwrap()
    }

    #[test]
    fn finds_a_witness_for_the_racy_pair() {
        let p = racey();
        // The racing accesses: the assign inside W1's async body, and W2.
        let w1 = Label(p.labels().lookup("W1").unwrap().0 + 1);
        let w2 = p.labels().lookup("W2").unwrap();
        match search(&p, w1, w2, 10_000) {
            WitnessSearch::Found(w) => {
                assert!(witness_exhibits(&p, &[], &w.schedule, w.pair));
                // A schedule with an out-of-range choice exhibits nothing.
                let mut bad = w.schedule.clone();
                bad.push(u32::MAX);
                assert!(!witness_exhibits(&p, &[], &bad, w.pair));
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn refutes_a_finish_protected_pair() {
        let p = Program::parse("def main() { finish { X: async { a[0] = 1; } } Y: a[0] = 2; }")
            .unwrap();
        let x = p.labels().lookup("X").unwrap();
        let y = p.labels().lookup("Y").unwrap();
        // X's body and Y never co-occur; the search must prove it.
        let body = Label(x.0 + 1);
        match search(&p, body, y, 10_000) {
            WitnessSearch::Refuted { states } => assert!(states > 0),
            other => panic!("expected refuted, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // The racing pair only co-occurs after both prefix skips run;
        // one admitted state cannot get there.
        let p = Program::parse("def main() { async { skip; X: a[0] = 1; } skip; Y: a[0] = 2; }")
            .unwrap();
        let x = p.labels().lookup("X").unwrap();
        let y = p.labels().lookup("Y").unwrap();
        match search(&p, x, y, 1) {
            WitnessSearch::Exhausted { .. } => {}
            other => panic!("expected exhausted, got {other:?}"),
        }
        // With room to search, the same pair gets a witness.
        match search(&p, x, y, 10_000) {
            WitnessSearch::Found(w) => {
                assert!(witness_exhibits(&p, &[], &w.schedule, (x, y)));
            }
            other => panic!("expected found, got {other:?}"),
        }
    }

    #[test]
    fn witness_search_is_deterministic() {
        let p = racey();
        let w1 = Label(p.labels().lookup("W1").unwrap().0 + 1);
        let w2 = p.labels().lookup("W2").unwrap();
        let a = search(&p, w1, w2, 10_000);
        let b = search(&p, w1, w2, 10_000);
        assert_eq!(a, b);
    }
}
