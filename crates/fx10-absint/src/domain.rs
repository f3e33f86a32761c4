//! Abstract value domains for the shared array's cells.
//!
//! Three layered domains, all over `i64` cell values:
//!
//! - **constants** — the flat lattice `⊥ ⊑ c ⊑ ⊤`; exact while a cell has
//!   a single possible value, collapses to `⊤` at the first join of two
//!   distinct values,
//! - **intervals** — `[lo, hi]` with open ends, widened through the
//!   threshold set `{-1, 0, 1}` so `a[d] != 0` guards stay useful,
//! - **parity** — `⊥ ⊑ {even, odd} ⊑ ⊤`; wrap-safe (a wrapping `+ 1`
//!   always flips parity), cheap, and strong enough to kill loops whose
//!   guard cell is provably odd.
//!
//! A single [`AbsVal`] enum carries all three; [`Domain`] selects which
//! variants are legal and dispatches the operators. Every operator is a
//! sound abstraction of the concrete semantics in `fx10-semantics`
//! (constants, and `+ 1` as `i64::wrapping_add`); the workspace-level
//! differential gate and property tests check exactly that.

/// Which value domain the interpreter runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Flat constant propagation.
    Const,
    /// Intervals with threshold widening.
    Interval,
    /// Even/odd parity.
    Parity,
}

impl Domain {
    /// All domains, in precision-report order.
    pub const ALL: [Domain; 3] = [Domain::Const, Domain::Interval, Domain::Parity];

    /// Parses a `--domain` value. Accepts exactly `const`, `interval`,
    /// `parity` — anything else is `None` (callers reject with a usage
    /// error rather than guessing).
    pub fn parse(s: &str) -> Option<Domain> {
        match s {
            "const" => Some(Domain::Const),
            "interval" => Some(Domain::Interval),
            "parity" => Some(Domain::Parity),
            _ => None,
        }
    }

    /// The canonical `--domain` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Const => "const",
            Domain::Interval => "interval",
            Domain::Parity => "parity",
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Widening thresholds: interval bounds escaping these snap to ±∞.
/// `0` keeps `!= 0` guard refinements meaningful after widening; `±1`
/// preserve the off-by-one shapes `+ 1` loops produce.
pub const THRESHOLDS: [i64; 3] = [-1, 0, 1];

/// An abstract cell value. Which variants may appear depends on the
/// [`Domain`]: `Const(_)` only under [`Domain::Const`], `Range(_, _)` only
/// under [`Domain::Interval`], `Even`/`Odd` only under [`Domain::Parity`];
/// `Bot` and `Top` are shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsVal {
    /// No value (unreachable).
    Bot,
    /// Exactly the constant `c`.
    Const(i64),
    /// The interval `[lo, hi]`; `None` is an open (infinite) end.
    /// Invariant: never `(None, None)` (that is [`AbsVal::Top`]) and never
    /// empty (that is [`AbsVal::Bot`]).
    Range(Option<i64>, Option<i64>),
    /// Any even value.
    Even,
    /// Any odd value.
    Odd,
    /// Any value.
    Top,
}

use AbsVal::{Bot, Const, Even, Odd, Range, Top};

/// Normalizes a candidate interval: empty → `Bot`, doubly-open → `Top`.
fn mk_range(lo: Option<i64>, hi: Option<i64>) -> AbsVal {
    match (lo, hi) {
        (None, None) => Top,
        (Some(l), Some(h)) if l > h => Bot,
        _ => Range(lo, hi),
    }
}

impl AbsVal {
    /// `α({v})`: the abstraction of a single concrete value.
    pub fn of(d: Domain, v: i64) -> AbsVal {
        match d {
            Domain::Const => Const(v),
            Domain::Interval => Range(Some(v), Some(v)),
            Domain::Parity => {
                if v & 1 == 0 {
                    Even
                } else {
                    Odd
                }
            }
        }
    }

    /// `v ∈ γ(self)`: concretization membership.
    pub fn contains(self, v: i64) -> bool {
        match self {
            Bot => false,
            Top => true,
            Const(c) => v == c,
            Range(lo, hi) => lo.is_none_or(|l| l <= v) && hi.is_none_or(|h| v <= h),
            Even => v & 1 == 0,
            Odd => v & 1 == 1,
        }
    }

    /// Least upper bound.
    pub fn join(self, other: AbsVal, d: Domain) -> AbsVal {
        match (self, other) {
            (Bot, x) | (x, Bot) => x,
            (Top, _) | (_, Top) => Top,
            (Const(a), Const(b)) => {
                if a == b {
                    Const(a)
                } else {
                    Top
                }
            }
            (Range(al, ah), Range(bl, bh)) => {
                let lo = match (al, bl) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    _ => None,
                };
                let hi = match (ah, bh) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                };
                mk_range(lo, hi)
            }
            (Even, Even) => Even,
            (Odd, Odd) => Odd,
            _ => {
                debug_assert!(matches!(d, Domain::Parity), "mixed-domain join");
                Top
            }
        }
    }

    /// `self ⊑ other`.
    pub fn le(self, other: AbsVal, d: Domain) -> bool {
        self.join(other, d) == other
    }

    /// Widening `self ∇ other`, assuming `self ⊑ other` (callers pass
    /// `other = self.join(new)`). Interval bounds that moved snap outward
    /// to the nearest [`THRESHOLDS`] entry, then to ±∞; the finite-height
    /// domains just take `other`.
    pub fn widen(self, other: AbsVal, _d: Domain) -> AbsVal {
        match (self, other) {
            (a, b) if a == b => a,
            (Range(al, ah), Range(bl, bh)) => {
                let lo = if bl == al {
                    al
                } else {
                    // Lower bound dropped: snap to the largest threshold
                    // still below it, else open.
                    bl.and_then(|b| THRESHOLDS.iter().copied().filter(|&t| t <= b).max())
                };
                let hi = if bh == ah {
                    ah
                } else {
                    bh.and_then(|b| THRESHOLDS.iter().copied().filter(|&t| t >= b).min())
                };
                mk_range(lo, hi)
            }
            (_, b) => b,
        }
    }

    /// Abstract `a[d] + 1` under the concrete semantics' `wrapping_add`.
    ///
    /// Constants wrap exactly like the interpreter; an interval touching
    /// `i64::MAX` goes to `⊤` (the wrapped value would leave the interval);
    /// parity always flips (wrapping at `i64::MAX` lands on `i64::MIN`,
    /// which is even — still a flip).
    pub fn plus1(self) -> AbsVal {
        match self {
            Bot => Bot,
            Top => Top,
            Const(c) => Const(c.wrapping_add(1)),
            Range(lo, hi) => match (lo, hi) {
                (l, Some(h)) => match (l.map(|v| v.checked_add(1)), h.checked_add(1)) {
                    (Some(None), _) | (_, None) => Top,
                    (Some(Some(l1)), Some(h1)) => Range(Some(l1), Some(h1)),
                    (None, Some(h1)) => Range(None, Some(h1)),
                },
                (l, None) => match l.map(|v| v.checked_add(1)) {
                    Some(None) => Top,
                    Some(Some(l1)) => Range(Some(l1), None),
                    None => Top, // unreachable: (None, None) is Top
                },
            },
            Even => Odd,
            Odd => Even,
        }
    }

    /// Refinement on entering a `while (a[d] != 0)` body: meet with
    /// "non-zero". `Bot` means the body is abstractly unreachable.
    pub fn refine_nonzero(self) -> AbsVal {
        match self {
            Const(0) => Bot,
            Range(Some(0), Some(0)) => Bot,
            Range(Some(0), hi) => mk_range(Some(1), hi),
            Range(lo, Some(0)) => mk_range(lo, Some(-1)),
            v => v,
        }
    }

    /// Refinement on *exiting* a `while (a[d] != 0)`: meet with `{0}`.
    /// `Bot` means the loop abstractly never exits — a divergence proof.
    /// In the parity domain the best over-approximation of `{0}` is
    /// `Even`.
    pub fn refine_zero(self, d: Domain) -> AbsVal {
        if !self.contains(0) {
            return Bot;
        }
        match d {
            Domain::Parity => Even,
            _ => AbsVal::of(d, 0),
        }
    }
}

/// Renders the value in the deterministic ASCII form shared by the text
/// and JSON outputs: `bot`, `top`, `7`, `[0, +inf]`, `even`, `odd`.
impl std::fmt::Display for AbsVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bot => f.write_str("bot"),
            Top => f.write_str("top"),
            Const(c) => write!(f, "{c}"),
            Range(lo, hi) => {
                match lo {
                    Some(l) => write!(f, "[{l}, ")?,
                    None => f.write_str("[-inf, ")?,
                }
                match hi {
                    Some(h) => write!(f, "{h}]"),
                    None => f.write_str("+inf]"),
                }
            }
            Even => f.write_str("even"),
            Odd => f.write_str("odd"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_parse_is_strict() {
        assert_eq!(Domain::parse("const"), Some(Domain::Const));
        assert_eq!(Domain::parse("interval"), Some(Domain::Interval));
        assert_eq!(Domain::parse("parity"), Some(Domain::Parity));
        assert_eq!(Domain::parse("Interval"), None);
        assert_eq!(Domain::parse(""), None);
        assert_eq!(Domain::parse("octagon"), None);
        for d in Domain::ALL {
            assert_eq!(Domain::parse(d.name()), Some(d));
        }
    }

    #[test]
    fn join_is_commutative_and_sound() {
        let pairs = [
            (Const(1), Const(1), Const(1)),
            (Const(1), Const(2), Top),
            (Bot, Const(5), Const(5)),
            (
                Range(Some(0), Some(3)),
                Range(Some(2), Some(9)),
                Range(Some(0), Some(9)),
            ),
            (Range(None, Some(3)), Range(Some(2), None), Top),
            (Even, Even, Even),
            (Even, Odd, Top),
        ];
        for (a, b, want) in pairs {
            let d = match a {
                Const(_) => Domain::Const,
                Range(..) => Domain::Interval,
                _ => Domain::Parity,
            };
            assert_eq!(a.join(b, d), want);
            assert_eq!(b.join(a, d), want);
        }
    }

    #[test]
    fn widen_snaps_to_thresholds_then_infinity() {
        let d = Domain::Interval;
        let a = Range(Some(0), Some(3));
        let grown = a.join(Range(Some(0), Some(4)), d);
        // hi moved past every threshold → open above; lo unchanged.
        assert_eq!(a.widen(grown, d), Range(Some(0), None));
        let b = Range(Some(2), Some(5));
        let down = b.join(Range(Some(1), Some(5)), d);
        // lo dropped to 1, a threshold below it exists (1 itself).
        assert_eq!(b.widen(down, d), Range(Some(1), Some(5)));
        let further = Range(Some(1), Some(5)).join(Range(Some(-3), Some(5)), d);
        // -3 is below every threshold → open below.
        assert_eq!(
            Range(Some(1), Some(5)).widen(further, d),
            Range(None, Some(5))
        );
    }

    #[test]
    fn plus1_matches_wrapping_semantics() {
        assert_eq!(Const(i64::MAX).plus1(), Const(i64::MIN));
        assert_eq!(Const(41).plus1(), Const(42));
        assert_eq!(Range(Some(0), Some(3)).plus1(), Range(Some(1), Some(4)));
        assert_eq!(Range(Some(0), Some(i64::MAX)).plus1(), Top);
        assert_eq!(Range(None, Some(7)).plus1(), Range(None, Some(8)));
        assert_eq!(Range(Some(7), None).plus1(), Range(Some(8), None));
        // Parity flips even at the wrap point: MAX (odd) + 1 = MIN (even).
        assert_eq!(Odd.plus1(), Even);
        assert_eq!(Even.plus1(), Odd);
        assert!(AbsVal::of(Domain::Parity, i64::MAX)
            .plus1()
            .contains(i64::MIN));
    }

    #[test]
    fn guard_refinements() {
        assert_eq!(Const(0).refine_nonzero(), Bot);
        assert_eq!(Const(7).refine_nonzero(), Const(7));
        assert_eq!(
            Range(Some(0), Some(4)).refine_nonzero(),
            Range(Some(1), Some(4))
        );
        assert_eq!(
            Range(Some(-4), Some(0)).refine_nonzero(),
            Range(Some(-4), Some(-1))
        );
        assert_eq!(Range(Some(0), Some(0)).refine_nonzero(), Bot);
        assert_eq!(Odd.refine_nonzero(), Odd);

        assert_eq!(Const(7).refine_zero(Domain::Const), Bot);
        assert_eq!(Top.refine_zero(Domain::Const), Const(0));
        assert_eq!(Range(Some(1), None).refine_zero(Domain::Interval), Bot);
        assert_eq!(
            Range(Some(-3), Some(5)).refine_zero(Domain::Interval),
            Range(Some(0), Some(0))
        );
        assert_eq!(Odd.refine_zero(Domain::Parity), Bot);
        assert_eq!(Even.refine_zero(Domain::Parity), Even);
        assert_eq!(Top.refine_zero(Domain::Parity), Even);
    }

    #[test]
    fn display_is_ascii_deterministic() {
        assert_eq!(Top.to_string(), "top");
        assert_eq!(Bot.to_string(), "bot");
        assert_eq!(Const(-3).to_string(), "-3");
        assert_eq!(Range(Some(0), None).to_string(), "[0, +inf]");
        assert_eq!(Range(None, Some(-1)).to_string(), "[-inf, -1]");
        assert_eq!(Even.to_string(), "even");
        assert_eq!(Odd.to_string(), "odd");
    }

    #[test]
    fn le_is_a_partial_order_on_samples() {
        let d = Domain::Interval;
        assert!(Range(Some(1), Some(2)).le(Range(Some(0), Some(3)), d));
        assert!(!Range(Some(0), Some(3)).le(Range(Some(1), Some(2)), d));
        assert!(Bot.le(Range(Some(0), Some(0)), d));
        assert!(Range(Some(0), Some(0)).le(Top, d));
    }
}
