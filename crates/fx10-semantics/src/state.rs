//! The shared-array state `A`.
//!
//! The paper models memory as a single final one-dimensional integer array
//! `a`; `A` maps indices to integers, is fully initialized when execution
//! begins, and (if the program terminates) the result is read from `a[0]`
//! (§3.2).

use fx10_syntax::{Expr, Program};

/// The state of the array `a`: a total map from indices to integers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayState {
    cells: Vec<i64>,
}

impl ArrayState {
    /// The all-zero initial state sized for `p` (`n = p.array_len()`).
    pub fn zeros(p: &Program) -> ArrayState {
        ArrayState {
            cells: vec![0; p.array_len()],
        }
    }

    /// An initial state with the given input values; padded with zeros (or
    /// truncated) to `p.array_len()` so every index the program mentions
    /// is initialized, as the paper requires.
    pub fn with_input(p: &Program, input: &[i64]) -> ArrayState {
        let mut cells = input.to_vec();
        cells.resize(p.array_len().max(cells.len()), 0);
        ArrayState { cells }
    }

    /// `A(d)`.
    #[inline]
    pub fn get(&self, d: usize) -> i64 {
        self.cells[d]
    }

    /// `A[d := v]` in place.
    #[inline]
    pub fn set(&mut self, d: usize, v: i64) {
        self.cells[d] = v;
    }

    /// `A(e)`: `A(c) = c` and `A(a[d] + 1) = A(d) + 1`.
    ///
    /// Addition wraps on overflow: FX10 models unbounded naturals, but a
    /// runaway counter must not abort the host interpreter.
    #[inline]
    pub fn eval(&self, e: &Expr) -> i64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Plus1(d) => self.get(*d).wrapping_add(1),
        }
    }

    /// All cells.
    pub fn cells(&self) -> &[i64] {
        &self.cells
    }
}

/// `A(e)` over a raw cell slice — the interned explorer stores array
/// states as `&[i64]` and must evaluate without materializing an
/// [`ArrayState`].
#[inline]
pub fn eval_cells(cells: &[i64], e: &Expr) -> i64 {
    match e {
        Expr::Const(c) => *c,
        Expr::Plus1(d) => cells[*d].wrapping_add(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_syntax::Program;

    #[test]
    fn eval_and_update() {
        let p = Program::parse("def main() { a[2] = a[1] + 1; }").unwrap();
        let mut a = ArrayState::with_input(&p, &[7, 41]);
        assert_eq!(a.cells().len(), 3);
        assert_eq!(a.eval(&Expr::Const(5)), 5);
        assert_eq!(a.eval(&Expr::Plus1(1)), 42);
        a.set(2, a.eval(&Expr::Plus1(1)));
        assert_eq!(a.get(2), 42);
        assert_eq!(a.get(0), 7);
    }

    #[test]
    fn input_longer_than_array_is_kept() {
        let p = Program::parse("def main() { skip; }").unwrap();
        let a = ArrayState::with_input(&p, &[1, 2, 3]);
        assert_eq!(a.cells(), &[1, 2, 3]);
    }
}
