//! Random program generators.
//!
//! Used by (a) property tests — soundness (`dynamic MHP ⊆ static M`),
//! deadlock freedom, and type/constraint equivalence must hold on
//! arbitrary programs, not just the hand-picked ones — and (b) scaling
//! benches, which need families of inputs of controlled size.
//!
//! Generators are deterministic functions of their seed (no ambient
//! randomness), so failures reproduce exactly.

use fx10_frontend::condensed::{CAst, CProgram};
use fx10_syntax::build::{assign, async_, call, finish, skip, while_, Ast};
use fx10_syntax::{Expr, Program};

/// A tiny deterministic xorshift64* PRNG — enough for structural choices,
/// with no dependency on ambient entropy.
#[derive(Debug, Clone)]
pub struct Xorshift(u64);

impl Xorshift {
    /// Seeds the generator (zero is remapped to a fixed constant).
    pub fn new(seed: u64) -> Xorshift {
        Xorshift(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next raw value.
    #[allow(clippy::should_implement_trait)] // a PRNG step, not an Iterator
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Shape knobs for random programs.
#[derive(Debug, Clone, Copy)]
pub struct RandomConfig {
    /// Number of methods (≥ 1; the first is main).
    pub methods: usize,
    /// Instructions per method body at the top level.
    pub stmts_per_method: usize,
    /// Maximum nesting depth of async/finish/while bodies.
    pub max_depth: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            methods: 3,
            stmts_per_method: 4,
            max_depth: 3,
            seed: 1,
        }
    }
}

/// Generates a random FX10 program.
///
/// Calls only target later methods (acyclic call graph) and `while`
/// guards read cells the program never sets non-zero from a zero start,
/// so under the all-zero input every loop exits immediately — executions
/// terminate and the exhaustive explorer can compute exact dynamic MHP.
/// (The *analysis* still assumes every loop body runs twice, so loops
/// exercise the interesting static rules.)
pub fn random_fx10(cfg: RandomConfig) -> Program {
    random_fx10_shaped(cfg, true)
}

/// As [`random_fx10`], but with no `while` loops at all.
///
/// The analysis' only false-positive source is the loop-executes-fewer-
/// than-twice pattern (paper §8), so on loop-free programs the inferred
/// MHP should equal the exact dynamic MHP — `tests/precision.rs` checks
/// exactly that with programs from this generator.
pub fn random_fx10_loop_free(cfg: RandomConfig) -> Program {
    random_fx10_shaped(cfg, false)
}

fn random_fx10_shaped(cfg: RandomConfig, loops: bool) -> Program {
    let mut rng = Xorshift::new(cfg.seed);
    let methods = cfg.methods.max(1);

    fn gen_body(
        rng: &mut Xorshift,
        depth: usize,
        len: usize,
        me: usize,
        methods: usize,
        loops: bool,
    ) -> Vec<Ast> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let sub = |rng: &mut Xorshift| 1 + rng.below(2) as usize;
            let choice = rng.below(if depth == 0 { 3 } else { 7 });
            out.push(match choice {
                0 => skip(),
                1 => assign(rng.below(3) as usize, Expr::Const(0)),
                2 => {
                    // Calls only go forward; the last method has none.
                    if me + 1 < methods {
                        let callee = me + 1 + rng.below((methods - me - 1) as u64) as usize;
                        call(format!("f{callee}"))
                    } else {
                        assign(rng.below(3) as usize, Expr::Plus1(rng.below(3) as usize))
                    }
                }
                3 => async_({
                    let n = sub(rng);
                    gen_body(rng, depth - 1, n, me, methods, loops)
                }),
                4 => finish({
                    let n = sub(rng);
                    gen_body(rng, depth - 1, n, me, methods, loops)
                }),
                5 if loops => {
                    // Guard on cell 4+, which no assignment ever targets,
                    // so it stays 0 under the default input.
                    while_(4 + rng.below(2) as usize, {
                        let n = sub(rng);
                        gen_body(rng, depth - 1, n, me, methods, loops)
                    })
                }
                _ => async_({
                    let n = sub(rng);
                    gen_body(rng, depth - 1, n, me, methods, loops)
                }),
            });
        }
        out
    }

    let bodies: Vec<(String, Vec<Ast>)> = (0..methods)
        .map(|i| {
            let name = if i == 0 {
                "main".to_string()
            } else {
                format!("f{i}")
            };
            let body = gen_body(
                &mut rng,
                cfg.max_depth,
                cfg.stmts_per_method.max(1),
                i,
                methods,
                loops,
            );
            (name, body)
        })
        .collect();

    Program::from_ast(bodies).expect("random FX10 programs are valid by construction")
}

/// Generates a random condensed program (for scaling benches). Same
/// acyclicity guarantee; node mix covers all ten kinds.
pub fn random_condensed(cfg: RandomConfig) -> CProgram {
    let mut rng = Xorshift::new(cfg.seed ^ 0xc0de);
    let methods = cfg.methods.max(1);

    fn gen_block(
        rng: &mut Xorshift,
        depth: usize,
        len: usize,
        me: usize,
        methods: usize,
    ) -> Vec<CAst> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let sub = |rng: &mut Xorshift| 1 + rng.below(2) as usize;
            let choice = rng.below(if depth == 0 { 4 } else { 10 });
            out.push(match choice {
                0 => CAst::Skip,
                1 => CAst::End,
                2 => CAst::Return,
                3 => {
                    if me + 1 < methods {
                        let callee = me + 1 + rng.below((methods - me - 1) as u64) as usize;
                        CAst::Call(format!("f{callee}"))
                    } else {
                        CAst::Skip
                    }
                }
                4 => CAst::Async(
                    {
                        let n = sub(rng);
                        gen_block(rng, depth - 1, n, me, methods)
                    },
                    rng.chance(1, 3),
                ),
                5 => CAst::Finish({
                    let n = sub(rng);
                    gen_block(rng, depth - 1, n, me, methods)
                }),
                6 => CAst::Loop({
                    let n = sub(rng);
                    gen_block(rng, depth - 1, n, me, methods)
                }),
                7 => CAst::If(
                    {
                        let n = sub(rng);
                        gen_block(rng, depth - 1, n, me, methods)
                    },
                    {
                        let n = sub(rng);
                        gen_block(rng, depth - 1, n, me, methods)
                    },
                ),
                8 => CAst::Switch(
                    (0..1 + rng.below(3))
                        .map(|_| {
                            let n = sub(rng);
                            gen_block(rng, depth - 1, n, me, methods)
                        })
                        .collect(),
                ),
                _ => CAst::Async(
                    {
                        let n = sub(rng);
                        gen_block(rng, depth - 1, n, me, methods)
                    },
                    false,
                ),
            });
        }
        out
    }

    let bodies: Vec<(String, Vec<CAst>)> = (0..methods)
        .map(|i| {
            let name = if i == 0 {
                "main".to_string()
            } else {
                format!("f{i}")
            };
            let body = gen_block(
                &mut rng,
                cfg.max_depth,
                cfg.stmts_per_method.max(1),
                i,
                methods,
            );
            (name, body)
        })
        .collect();

    CProgram::new(bodies, 0).expect("random condensed programs are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonconstant() {
        let mut a = Xorshift::new(7);
        let mut b = Xorshift::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        assert!(Xorshift::new(0).next() != 0);
    }

    #[test]
    fn random_fx10_is_valid_and_varied() {
        let mut label_counts = std::collections::HashSet::new();
        for seed in 0..20 {
            let p = random_fx10(RandomConfig {
                seed,
                ..Default::default()
            });
            assert!(p.label_count() > 0);
            label_counts.insert(p.label_count());
        }
        assert!(label_counts.len() > 3, "programs must vary with the seed");
    }

    #[test]
    fn random_fx10_terminates_on_zero_input() {
        use fx10_robust::{Budget, CancelToken};
        use fx10_runtime::{run_scheduled, Scheduler};
        for seed in 0..30 {
            let p = random_fx10(RandomConfig {
                seed,
                methods: 4,
                stmts_per_method: 5,
                max_depth: 3,
            });
            let out = run_scheduled(
                &p,
                &[],
                &Scheduler::Random(seed),
                100_000,
                Budget::unlimited(),
                &CancelToken::new(),
            )
            .unwrap();
            assert!(out.completed, "seed {seed} must terminate");
        }
    }

    #[test]
    fn random_condensed_is_valid() {
        for seed in 0..20 {
            let p = random_condensed(RandomConfig {
                seed,
                methods: 5,
                stmts_per_method: 6,
                max_depth: 3,
            });
            assert!(p.label_count() > 0);
            let c = p.node_counts();
            assert_eq!(c.total(), p.label_count() + p.method_count());
        }
    }
}
