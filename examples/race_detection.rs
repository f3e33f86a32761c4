//! The downstream client the paper motivates (§1): a data-race detector
//! built on the MHP analysis.
//!
//! A buggy parallel accumulator races on `a[0]`; adding a `finish` fixes
//! it. The detector reports exactly the racing pair, and the runtime's
//! walker demonstrates the nondeterministic outcome the race causes.
//!
//! ```sh
//! cargo run --example race_detection
//! ```

use fx10::analysis::analyze;
use fx10::analysis::race::{detect_races, render_races};
use fx10::robust::{Budget, CancelToken};
use fx10::runtime::{run_scheduled, Scheduler};
use fx10::syntax::Program;

fn report(title: &str, src: &str) {
    let p = Program::parse(src).expect("parses");
    let a = analyze(&p);
    let races = detect_races(&p, &a);
    println!("== {title} ==");
    print!("{}", render_races(&p, &races));
    // Show the observable consequence: final a[0] under two schedules.
    let cancel = CancelToken::new();
    let run = |s| run_scheduled(&p, &[], &s, 10_000, Budget::default(), &cancel).unwrap();
    let left = run(Scheduler::Leftmost).array[0];
    let right = run(Scheduler::Rightmost).array[0];
    println!("final a[0]: leftmost schedule = {left}, rightmost = {right}");
    if left != right {
        println!("→ schedule-dependent result: the race is real\n");
    } else {
        println!("→ deterministic result\n");
    }
}

fn main() {
    // Two unsynchronized writers.
    report(
        "buggy: async writer races the main task",
        "def main() {\n\
           W1: async { a[0] = 1; }\n\
           W2: a[0] = 2;\n\
         }",
    );

    // The fix: a finish forces the async to complete first.
    report(
        "fixed: finish joins the writer before the second write",
        "def main() {\n\
           finish { W1: async { a[0] = 1; } }\n\
           W2: a[0] = 2;\n\
         }",
    );

    // A subtler case: read/write race through an accumulator pattern.
    report(
        "buggy: parallel increments lose updates",
        "def bump() { a[0] = a[0] + 1; }\n\
         def main() {\n\
           a[1] = 1;\n\
           while (a[1] != 0) {\n\
             A: async { bump(); }\n\
             B: async { bump(); }\n\
             a[1] = 0;\n\
           }\n\
         }",
    );

    report(
        "fixed: each increment finished before the next",
        "def bump() { a[0] = a[0] + 1; }\n\
         def main() {\n\
           a[1] = 1;\n\
           while (a[1] != 0) {\n\
             finish { A: async { bump(); } }\n\
             finish { B: async { bump(); } }\n\
             a[1] = 0;\n\
           }\n\
         }",
    );
}
