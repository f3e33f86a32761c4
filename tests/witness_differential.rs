//! Differential oracle for the shared witness search.
//!
//! [`find_witnesses`] answers every target pair of a lint run with one
//! breadth-first search over interned literal trees. The reference here
//! is the per-target search it replaced: a cloned-tree BFS over the
//! public [`successors`] and [`parallel`], one search per target. For
//! every target the two must return the *same* [`WitnessSearch`] value —
//! outcome, schedule and `states` count — including under the state cap
//! and the `max_iters` cap.
//!
//! The corpus is the lint benchmark's generator configuration over
//! seeds `0..SEEDS`, with the context-insensitive race pairs as targets
//! (the universe `fx10 lint` searches). `FX10_WITNESS_SEEDS=N` widens it.

use fx10::analysis::analyze_ci;
use fx10::analysis::race::{accesses, detect_races_with};
use fx10::robust::{Budget, BudgetMeter, CancelToken, Fx10Error, Stop};
use fx10::semantics::parallel::{pair, parallel, LabelPair};
use fx10::semantics::step::{initial_tree, successors};
use fx10::semantics::witness::{find_witnesses, witness_exhibits, Witness, WitnessSearch};
use fx10::semantics::{ArrayState, Tree};
use fx10::suite::{random_fx10, RandomConfig};
use fx10::syntax::{Label, Program};
use std::collections::{HashSet, VecDeque};

/// Seeds of the default corpus.
const SEEDS: u64 = 150;
/// State cap of the corpus searches (the lint default is 10,000; the
/// reference is slow enough that the corpus uses a smaller one).
const CAP: usize = 2_000;

/// The per-target cloned-tree BFS `find_witnesses` must agree with.
fn reference(
    p: &Program,
    input: &[i64],
    target: LabelPair,
    max_states: usize,
    budget: Budget,
) -> Result<WitnessSearch, Fx10Error> {
    let target = pair(target.0, target.1);
    let mut meter = BudgetMeter::new(budget, CancelToken::new());
    let root = (ArrayState::with_input(p, input), initial_tree(p));
    if parallel(&root.1).contains(&target) {
        let w = Witness {
            pair: target,
            schedule: Vec::new(),
            states: 1,
        };
        return Ok(WitnessSearch::Found(w));
    }
    // (parent, choice) per admitted state, in admission order.
    let mut nodes: Vec<(usize, u32)> = vec![(usize::MAX, 0)];
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
                    schedule.push(nodes[up].1);
                    up = nodes[up].0;
                }
                schedule.reverse();
                let w = Witness {
                    pair: target,
                    schedule,
                    states: seen.len() + 1,
                };
                return Ok(WitnessSearch::Found(w));
            }
            if seen.len() >= max_states {
                return Ok(WitnessSearch::Exhausted { states: seen.len() });
            }
            nodes.push((at, choice as u32));
            states.push(key.clone());
            seen.insert(key);
            frontier.push_back(nodes.len() - 1);
        }
    }
    Ok(WitnessSearch::Refuted { states: seen.len() })
}

fn shared(
    p: &Program,
    targets: &[LabelPair],
    max_states: usize,
    budget: Budget,
) -> Vec<WitnessSearch> {
    find_witnesses(p, &[], targets, max_states, budget, &CancelToken::new()).unwrap()
}

/// Asserts `find_witnesses(targets)[i] == reference(targets[i])` for
/// every `i`; returns the outcomes.
fn assert_agrees(
    what: &str,
    p: &Program,
    targets: &[LabelPair],
    max_states: usize,
    budget: Budget,
) -> Vec<WitnessSearch> {
    let got = shared(p, targets, max_states, budget);
    assert_eq!(got.len(), targets.len(), "{what}: one outcome per target");
    for (&t, g) in targets.iter().zip(&got) {
        let want = reference(p, &[], t, max_states, budget).unwrap();
        assert_eq!(
            *g, want,
            "{what}: target {t:?}, cap {max_states}, {budget:?}"
        );
        if let WitnessSearch::Found(w) = g {
            assert!(
                witness_exhibits(p, &[], &w.schedule, t),
                "{what}: {t:?} does not replay"
            );
        }
    }
    got
}

/// The lint benchmark's generator configuration for pool seed `g`.
fn lint_pool_program(g: u64) -> Program {
    random_fx10(RandomConfig {
        methods: 1 + (g % 3) as usize,
        stmts_per_method: 3 + (g / 3 % 2) as usize,
        max_depth: 2,
        seed: g,
    })
}

/// The distinct label pairs of the program's CI races, sorted.
fn ci_race_pairs(p: &Program) -> Vec<LabelPair> {
    let ci = analyze_ci(p);
    let races = detect_races_with(&accesses(p), |x, y| ci.may_happen_in_parallel(x, y));
    let mut pairs: Vec<LabelPair> = races
        .iter()
        .map(|r| pair(r.first.label, r.second.label))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The first pool program with at least three CI race pairs.
fn racy_pool_program() -> (Program, Vec<LabelPair>) {
    (0..)
        .map(lint_pool_program)
        .map(|p| {
            let pairs = ci_race_pairs(&p);
            (p, pairs)
        })
        .find(|(_, pairs)| pairs.len() >= 3)
        .unwrap()
}

fn label(p: &Program, name: &str) -> Label {
    p.labels().lookup(name).unwrap()
}

#[test]
fn shared_search_matches_per_target_search_on_the_lint_pool() {
    let seeds = std::env::var("FX10_WITNESS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEEDS);
    let (mut programs, mut searches) = (0, 0);
    let mut tally = [0usize; 3];
    for g in 0..seeds {
        let p = lint_pool_program(g);
        let targets = ci_race_pairs(&p);
        if targets.is_empty() {
            continue;
        }
        programs += 1;
        searches += targets.len();
        for out in assert_agrees(&format!("seed {g}"), &p, &targets, CAP, Budget::unlimited()) {
            tally[match out {
                WitnessSearch::Found(_) => 0,
                WitnessSearch::Refuted { .. } => 1,
                WitnessSearch::Exhausted { .. } => 2,
            }] += 1;
        }
    }
    println!(
        "witness differential: seeds 0..{seeds}, {programs} program(s) with CI races, \
         {searches} target search(es) (found {}, refuted {}, exhausted {}), 0 mismatches",
        tally[0], tally[1], tally[2]
    );
    // The corpus must exercise every outcome.
    assert!(tally.iter().all(|&n| n > 0), "{tally:?}");
}

#[test]
fn state_cap_at_and_just_below_the_reachable_count() {
    // X's body and Y are finish-ordered (refuted only after the whole
    // space); W races with the continuation and is found on the way.
    let p = Program::parse(
        "def main() { finish { X: async { a[0] = 1; } } Y: a[0] = 2; W: async { a[1] = 1; } Z: a[1] = 2; }",
    )
    .unwrap();
    let refuted = (Label(label(&p, "X").0 + 1), label(&p, "Y"));
    let found = (Label(label(&p, "W").0 + 1), label(&p, "Z"));
    let targets = [refuted, found];
    let reachable =
        match &assert_agrees("uncapped", &p, &targets, usize::MAX, Budget::unlimited())[..] {
            [WitnessSearch::Refuted { states }, WitnessSearch::Found(_)] => *states,
            other => panic!("expected refuted + found, got {other:?}"),
        };
    let at = assert_agrees(
        "cap = reachable",
        &p,
        &targets,
        reachable,
        Budget::unlimited(),
    );
    assert_eq!(at[0], WitnessSearch::Refuted { states: reachable });
    let below = assert_agrees(
        "cap = reachable - 1",
        &p,
        &targets,
        reachable - 1,
        Budget::unlimited(),
    );
    assert_eq!(
        below[0],
        WitnessSearch::Exhausted {
            states: reachable - 1
        }
    );
    for cap in 0..reachable {
        assert_agrees(
            &format!("cap {cap}"),
            &p,
            &targets,
            cap,
            Budget::unlimited(),
        );
    }
}

#[test]
fn max_iters_cap_cuts_every_open_target_at_the_same_expansion() {
    let (p, targets) = racy_pool_program();
    for iters in [0, 1, 2, 5, 20, 100] {
        let budget = Budget {
            max_iters: Some(iters),
            ..Budget::unlimited()
        };
        assert_agrees(&format!("max_iters {iters}"), &p, &targets, CAP, budget);
    }
}

#[test]
fn target_one_step_from_the_root() {
    // The root ⟨s₀⟩ is a single statement, so parallel(⟨s₀⟩) = ∅ and no
    // target resolves there; the earliest is the root's first successor.
    let p = Program::parse("def main() { A: async { B: a[0] = 1; } C: a[0] = 2; }").unwrap();
    let target = (label(&p, "B"), label(&p, "C"));
    let out = assert_agrees("root", &p, &[target], 10, Budget::unlimited());
    match &out[0] {
        WitnessSearch::Found(w) => {
            assert_eq!(w.schedule, vec![0]);
            assert_eq!(w.states, 2);
        }
        other => panic!("expected found, got {other:?}"),
    }
}

#[test]
fn duplicate_targets_get_equal_outcomes_and_no_targets_return_at_once() {
    let (p, pairs) = racy_pool_program();
    let t = pairs[0];
    let flipped = (t.1, t.0);
    let targets = [t, flipped, *pairs.last().unwrap(), t];
    let out = assert_agrees("duplicates", &p, &targets, CAP, Budget::unlimited());
    assert_eq!(out[0], out[1]);
    assert_eq!(out[0], out[3]);
    assert!(shared(&p, &[], CAP, Budget::unlimited()).is_empty());
}
