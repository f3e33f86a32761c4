//! Dynamic witness extraction for MHP/race diagnostics.
//!
//! A static race report says two labels *may* happen in parallel; the
//! strongest possible evidence is a concrete schedule that drives the
//! program to a state whose `parallel(T)` contains the pair — then both
//! racing instructions are enabled redexes at once. This module searches
//! for such a schedule with a bounded breadth-first exploration and
//! returns it as a trace of successor-choice indices, which
//! [`witness_exhibits`] replays through the same successor enumeration.
//!
//! Unlike the main explorer, the search runs over **raw** trees: no
//! `∥`-canonicalization and no administrative normalization. Canonical
//! dedup is a bisimulation — sound for reachability — but it permutes the
//! order [`successors`] enumerates transitions in, which would invalidate
//! the recorded choice indices. Determinism matters too: the BFS expands
//! states in insertion order, so the witness for a given program, input
//! and budget is always the same schedule.

use crate::parallel::{pair, parallel, LabelPair};
use crate::state::ArrayState;
use crate::step::{initial_tree, successors};
use crate::tree::Tree;

use fx10_robust::{Budget, BudgetMeter, CancelToken, Fx10Error, Stop};
use fx10_syntax::Program;
use std::collections::HashSet;
use std::collections::VecDeque;

/// A concrete interleaving exhibiting a label pair running in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The exhibited (unordered, normalized) label pair.
    pub pair: LabelPair,
    /// Successor-choice indices from the initial state; replaying the
    /// whole schedule reaches a state with the pair in `parallel(T)`.
    pub schedule: Vec<u32>,
    /// States the search expanded before finding the witness.
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

/// Searches for a schedule under which `target`'s two labels are both
/// enabled redexes, visiting at most `max_states` raw states.
///
/// The search additionally honors `budget`'s wall-clock deadline and the
/// cancel token (cancellation surfaces as [`Fx10Error::Cancelled`]; a
/// deadline trip degrades to [`WitnessSearch::Exhausted`], matching the
/// explorer's budget semantics).
pub fn find_witness(
    p: &Program,
    input: &[i64],
    target: LabelPair,
    max_states: usize,
    budget: Budget,
    cancel: &CancelToken,
) -> Result<WitnessSearch, Fx10Error> {
    let target = pair(target.0, target.1);
    let mut meter = BudgetMeter::new(budget, cancel.clone());

    // Parent-pointer BFS: `nodes[i]` remembers how state `i` was reached
    // so the schedule reconstructs by walking back to the root.
    struct Node {
        parent: usize,
        choice: u32,
    }
    let root = (ArrayState::with_input(p, input), initial_tree(p));
    if parallel(&root.1).contains(&target) {
        return Ok(WitnessSearch::Found(Witness {
            pair: target,
            schedule: Vec::new(),
            states: 1,
        }));
    }
    let mut nodes = vec![Node {
        parent: usize::MAX,
        choice: 0,
    }];
    let mut states: Vec<(ArrayState, Tree)> = vec![root.clone()];
    let mut seen: HashSet<(ArrayState, Tree)> = HashSet::from([root]);
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    while let Some(at) = frontier.pop_front() {
        match meter.tick() {
            Ok(()) => {}
            Err(Stop::Cancelled) => return Err(Fx10Error::Cancelled),
            Err(Stop::Exhausted(_)) => return Ok(WitnessSearch::Exhausted { states: seen.len() }),
        }
        let (array, tree) = states[at].clone();
        for (choice, succ) in successors(p, &array, &tree).into_iter().enumerate() {
            let key = (succ.array, succ.tree);
            if seen.contains(&key) {
                continue;
            }
            if parallel(&key.1).contains(&target) {
                let mut schedule = vec![choice as u32];
                let mut up = at;
                while up != 0 {
                    schedule.push(nodes[up].choice);
                    up = nodes[up].parent;
                }
                schedule.reverse();
                return Ok(WitnessSearch::Found(Witness {
                    pair: target,
                    schedule,
                    states: seen.len() + 1,
                }));
            }
            if seen.len() >= max_states {
                return Ok(WitnessSearch::Exhausted { states: seen.len() });
            }
            nodes.push(Node {
                parent: at,
                choice: choice as u32,
            });
            states.push(key.clone());
            seen.insert(key);
            frontier.push_back(nodes.len() - 1);
        }
    }
    Ok(WitnessSearch::Refuted { states: seen.len() })
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
    use fx10_syntax::Label;

    fn search(p: &Program, a: Label, b: Label, max_states: usize) -> WitnessSearch {
        find_witness(
            p,
            &[],
            (a, b),
            max_states,
            Budget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap()
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
