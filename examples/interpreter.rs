//! Executing FX10: the calculus is Turing-complete and the runtime ships
//! a small-step walker that follows one schedule of the semantics. This
//! example computes with async/finish parallelism under three schedulers
//! and shows (a) confluence of well-synchronized programs and (b)
//! Theorem 1 — runs end only by completing, never by deadlock.
//!
//! ```sh
//! cargo run --example interpreter
//! ```

use fx10::robust::{Budget, CancelToken};
use fx10::runtime::{run_scheduled, RunReport, Scheduler};
use fx10::semantics::{explore, ExploreConfig};
use fx10::syntax::Program;

fn run(p: &Program, input: &[i64], s: Scheduler) -> RunReport {
    run_scheduled(p, input, &s, 10_000, Budget::default(), &CancelToken::new()).unwrap()
}

fn main() {
    // A fork-join sum: four async increments of a[0], joined by finish,
    // then a completion flag. Confluent: every schedule gives 4.
    let p = Program::parse(
        "def inc() { a[0] = a[0] + 1; }\n\
         def main() {\n\
           finish {\n\
             async { inc(); }\n\
             async { inc(); }\n\
             async { inc(); inc(); }\n\
           }\n\
           a[1] = 1;\n\
         }",
    )
    .expect("parses");

    println!("fork-join sum under three schedulers:");
    for (name, s) in [
        ("leftmost ", Scheduler::Leftmost),
        ("rightmost", Scheduler::Rightmost),
        ("random   ", Scheduler::Random(2026)),
    ] {
        let out = run(&p, &[], s);
        println!(
            "  {name}: a[0] = {}, a[1] = {}, {} steps, completed = {}",
            out.array[0], out.array[1], out.steps, out.completed
        );
        assert_eq!(out.array[0], 4, "finish makes the sum deterministic");
    }

    // A data-dependent loop: copy-by-increment bounded by input.
    let loopy = Program::parse(
        "def main() {\n\
           while (a[1] != 0) {\n\
             a[0] = a[0] + 1;\n\
             a[1] = a[2] + 1;\n\
             a[2] = a[3] + 1;\n\
           }\n\
         }",
    )
    .expect("parses");
    // a[1]=1, a[2]=-2, a[3]=-2: runs exactly twice.
    let out = run(&loopy, &[10, 1, -2, -2], Scheduler::Leftmost);
    println!(
        "\nbounded loop: a[0] = {} after {} steps (expected 12)",
        out.array[0], out.steps
    );

    // Theorem 1, exhaustively: every reachable state of the fork-join
    // program can step (no deadlocks), across all interleavings.
    let e = explore(&p, &[], ExploreConfig::default());
    println!(
        "\nexhaustive exploration: {} states, {} terminal(s), deadlock-free = {}",
        e.visited, e.terminals, e.deadlock_free
    );
    assert!(e.deadlock_free);
}
