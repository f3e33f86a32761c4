//! The FX10 abstract syntax tree (paper Figure 1).

use crate::build::Ast;
use crate::label::{Label, LabelTable};
use crate::ValidateError;

/// The most cells the shared array may have. Every array-indexed table
/// (runtime memory, detector shadow cells, abstract states) is sized by
/// [`Program::array_len`], so an unchecked index in the source would
/// turn into an allocation of that many cells. The value analysis keeps
/// such a table per label, which is why the limit is not higher.
pub(crate) const MAX_ARRAY_LEN: usize = 1 << 16;

/// Identifies a method: a dense index in `0..Program::method_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The method's dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The right-hand side of an assignment: `e ::= c | a[d] + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// A natural-number constant `c`.
    Const(i64),
    /// `a[d] + 1`.
    Plus1(usize),
}

/// One labeled instruction.
///
/// The derived order (label first, then kind) gives statements and
/// execution trees a total *structural* order — the basis of the
/// schedule-independent canonical forms used by the explorer's
/// `∥`-symmetry deduplication.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Instr {
    /// The instruction's label (dense, program-unique).
    pub label: Label,
    /// The instruction proper.
    pub kind: InstrKind,
}

/// The six instruction forms of FX10.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstrKind {
    /// `skip^l`.
    Skip,
    /// `a[idx] =^l expr;`
    Assign {
        /// The written cell.
        idx: usize,
        /// The right-hand side.
        expr: Expr,
    },
    /// `while^l (a[idx] != 0) body`.
    While {
        /// The guard cell.
        idx: usize,
        /// The loop body.
        body: Stmt,
    },
    /// `async^l body` — run `body` in parallel with the continuation.
    Async {
        /// The spawned statement.
        body: Stmt,
    },
    /// `finish^l body` — wait for all asyncs spawned while running `body`.
    Finish {
        /// The awaited statement.
        body: Stmt,
    },
    /// `f()^l` — call the method `callee`.
    Call {
        /// The called method.
        callee: FuncId,
    },
}

impl InstrKind {
    /// The nested statement of a `while`/`async`/`finish`, if any.
    pub fn body(&self) -> Option<&Stmt> {
        match self {
            InstrKind::While { body, .. }
            | InstrKind::Async { body }
            | InstrKind::Finish { body } => Some(body),
            _ => None,
        }
    }
}

/// A statement: a non-empty sequence of labeled instructions
/// (`s ::= i | i s`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Stmt {
    instrs: Vec<Instr>,
}

impl Stmt {
    /// Wraps a non-empty instruction sequence.
    pub fn new(instrs: Vec<Instr>) -> Result<Self, ValidateError> {
        if instrs.is_empty() {
            return Err(ValidateError::EmptyStatement);
        }
        Ok(Stmt { instrs })
    }

    /// The instructions, in order. Never empty.
    #[inline]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The first instruction (the statement's head).
    #[inline]
    pub fn head(&self) -> &Instr {
        &self.instrs[0]
    }

    /// The statement after the head, or `None` when the head is the whole
    /// statement.
    pub fn tail(&self) -> Option<Stmt> {
        if self.instrs.len() > 1 {
            Some(Stmt {
                instrs: self.instrs[1..].to_vec(),
            })
        } else {
            None
        }
    }

    /// The statement starting at instruction position `k` (a suffix).
    pub fn suffix(&self, k: usize) -> Option<Stmt> {
        if k < self.instrs.len() {
            Some(Stmt {
                instrs: self.instrs[k..].to_vec(),
            })
        } else {
            None
        }
    }

    /// The paper's `.` operator (§3.3): `s1 . s2` appends `s2` after `s1`.
    ///
    /// ```text
    /// skip^l . s2    ≡ skip^l s2
    /// (i s1) . s2    ≡ i (s1 . s2)
    /// ```
    pub fn seq(mut self, other: Stmt) -> Stmt {
        self.instrs.extend(other.instrs);
        self
    }

    /// Number of instructions at this nesting level (not counting bodies).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// A statement is never empty; provided for clippy-compliance.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total number of instructions including nested bodies.
    pub fn size(&self) -> usize {
        self.instrs
            .iter()
            .map(|i| 1 + i.kind.body().map_or(0, Stmt::size))
            .sum()
    }
}

/// A method: a name and a body statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    name: String,
    body: Stmt,
}

impl Method {
    /// The method's source name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The method's body statement.
    pub fn body(&self) -> &Stmt {
        &self.body
    }
}

/// A complete FX10 program: a family of methods plus label metadata.
///
/// Construction (via [`Program::from_ast`] or [`Program::parse`]) validates
/// the program and assigns dense labels in pre-order, so a `Program` value
/// is always well-formed: calls resolve, statements are non-empty, and
/// labels are exactly `0..label_count()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    methods: Vec<Method>,
    labels: LabelTable,
    array_len: usize,
    declared_len: Option<usize>,
    main: FuncId,
}

impl Program {
    /// Builds a program from per-method [`Ast`] bodies.
    ///
    /// The main method is the one named `main` if present, otherwise the
    /// first method. Empty bodies become a single `skip`. The array length
    /// is one past the largest index mentioned (at least 1): the paper
    /// requires a non-empty array `a[0..n-1]` fully initialized at start.
    pub fn from_ast(methods: Vec<(String, Vec<Ast>)>) -> Result<Program, ValidateError> {
        Program::from_ast_with_decl(methods, None)
    }

    /// Like [`Program::from_ast`], but with an optional `array[N];`
    /// declaration giving the *intended* bounds of `a`.
    ///
    /// The declaration is pure metadata for static analysis (the
    /// `oob-write` / `oob-read` lints flag accesses at indices `>= N`);
    /// the runtime array is still sized to cover every index the program
    /// mentions, so execution never faults on a declared-too-small array.
    /// Either way the array may have at most 2^16 cells
    /// ([`ValidateError::ArrayTooLong`]).
    pub fn from_ast_with_decl(
        methods: Vec<(String, Vec<Ast>)>,
        declared_len: Option<usize>,
    ) -> Result<Program, ValidateError> {
        if methods.is_empty() {
            return Err(ValidateError::NoMethods);
        }
        // Resolve method names to ids.
        let mut ids: Vec<(String, FuncId)> = Vec::with_capacity(methods.len());
        for (i, (name, _)) in methods.iter().enumerate() {
            if ids.iter().any(|(n, _)| n == name) {
                return Err(ValidateError::DuplicateMethod(name.clone()));
            }
            ids.push((name.clone(), FuncId(i as u32)));
        }
        let resolve = |name: &str| -> Result<FuncId, ValidateError> {
            ids.iter()
                .find(|(n, _)| n == name)
                .map(|&(_, id)| id)
                .ok_or_else(|| ValidateError::UnknownMethod(name.to_string()))
        };

        let mut next_label = 0u32;
        let mut names: Vec<(Label, String)> = Vec::new();
        let mut lines: Vec<(Label, u32)> = Vec::new();
        let mut max_idx = 0usize;

        fn lower(
            body: Vec<Ast>,
            next_label: &mut u32,
            names: &mut Vec<(Label, String)>,
            lines: &mut Vec<(Label, u32)>,
            max_idx: &mut usize,
            resolve: &dyn Fn(&str) -> Result<FuncId, ValidateError>,
        ) -> Result<Stmt, ValidateError> {
            let body = if body.is_empty() {
                vec![crate::build::skip()]
            } else {
                body
            };
            let mut instrs = Vec::with_capacity(body.len());
            for node in body {
                let label = Label(*next_label);
                *next_label += 1;
                if let Some(n) = node.name {
                    names.push((label, n));
                }
                if node.line > 0 {
                    lines.push((label, node.line));
                }
                let kind = match node.kind {
                    crate::build::AstKind::Skip => InstrKind::Skip,
                    crate::build::AstKind::Assign(idx, expr) => {
                        *max_idx = (*max_idx).max(idx);
                        if let Expr::Plus1(d) = expr {
                            *max_idx = (*max_idx).max(d);
                        }
                        InstrKind::Assign { idx, expr }
                    }
                    crate::build::AstKind::While(idx, b) => {
                        *max_idx = (*max_idx).max(idx);
                        InstrKind::While {
                            idx,
                            body: lower(b, next_label, names, lines, max_idx, resolve)?,
                        }
                    }
                    crate::build::AstKind::Async(b) => InstrKind::Async {
                        body: lower(b, next_label, names, lines, max_idx, resolve)?,
                    },
                    crate::build::AstKind::Finish(b) => InstrKind::Finish {
                        body: lower(b, next_label, names, lines, max_idx, resolve)?,
                    },
                    crate::build::AstKind::Call(name) => InstrKind::Call {
                        callee: resolve(&name)?,
                    },
                };
                instrs.push(Instr { label, kind });
            }
            Stmt::new(instrs)
        }

        let mut built = Vec::with_capacity(methods.len());
        for (name, body) in methods {
            let body = lower(
                body,
                &mut next_label,
                &mut names,
                &mut lines,
                &mut max_idx,
                &resolve,
            )?;
            built.push(Method { name, body });
        }

        let mut labels = LabelTable::with_len(next_label as usize);
        for (l, n) in names {
            labels.set(l, n);
        }
        for (l, line) in lines {
            labels.set_line(l, line);
        }
        let array_len = max_idx.saturating_add(1).max(declared_len.unwrap_or(0));
        if array_len > MAX_ARRAY_LEN {
            return Err(ValidateError::ArrayTooLong(array_len));
        }
        let main = ids
            .iter()
            .find(|(n, _)| n == "main")
            .map(|&(_, id)| id)
            .unwrap_or(FuncId(0));
        Ok(Program {
            methods: built,
            labels,
            array_len,
            declared_len,
            main,
        })
    }

    /// All methods, in declaration order.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// The method with id `f`. Panics on out-of-range ids (ids obtained
    /// from this program are always in range).
    pub fn method(&self, f: FuncId) -> &Method {
        &self.methods[f.index()]
    }

    /// `p(f_i)`: the body of method `f`.
    pub fn body(&self, f: FuncId) -> &Stmt {
        self.methods[f.index()].body()
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Looks up a method id by name.
    pub fn find_method(&self, name: &str) -> Option<FuncId> {
        self.methods
            .iter()
            .position(|m| m.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The entry method `f_0` (named `main`, or the first method).
    pub fn main(&self) -> FuncId {
        self.main
    }

    /// Total number of labels (== number of instructions).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The label metadata table.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// The length `n` of the shared array `a` (indices `0..n-1`).
    ///
    /// This is the *runtime* length: one past the largest index any
    /// instruction mentions, or the declared length, whichever is larger —
    /// execution is always in-bounds by construction.
    pub fn array_len(&self) -> usize {
        self.array_len
    }

    /// The `array[N];` declaration, when the source carried one.
    ///
    /// Static analysis treats `N` as the intended bounds of `a`: a
    /// constant index `>= N` is a definite out-of-bounds access even
    /// though the runtime array (see [`Program::array_len`]) is padded to
    /// cover it.
    pub fn declared_len(&self) -> Option<usize> {
        self.declared_len
    }

    /// Visits every instruction of every method, passing the enclosing
    /// method id. Order: methods in declaration order, instructions in
    /// label (pre-)order within each method.
    pub fn for_each_instr<'p>(&'p self, mut f: impl FnMut(FuncId, &'p Instr)) {
        fn walk<'p>(s: &'p Stmt, m: FuncId, f: &mut impl FnMut(FuncId, &'p Instr)) {
            for i in s.instrs() {
                f(m, i);
                if let Some(b) = i.kind.body() {
                    walk(b, m, f);
                }
            }
        }
        for (mi, m) in self.methods.iter().enumerate() {
            walk(&m.body, FuncId(mi as u32), &mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{assign, async_, call, finish, skip, while_};

    fn sample() -> Program {
        Program::from_ast(vec![
            (
                "main".to_string(),
                vec![
                    finish(vec![async_(vec![skip()]), call("f")]),
                    assign(2, Expr::Const(1)),
                ],
            ),
            (
                "f".to_string(),
                vec![while_(0, vec![assign(0, Expr::Plus1(1))])],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn labels_are_dense_preorder() {
        let p = sample();
        assert_eq!(p.label_count(), 7);
        let mut seen = Vec::new();
        p.for_each_instr(|_, i| seen.push(i.label.0));
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn array_len_is_max_index_plus_one() {
        let p = sample();
        assert_eq!(p.array_len(), 3);
        assert_eq!(p.declared_len(), None);
    }

    #[test]
    fn declared_len_is_metadata_only() {
        // Declared smaller than the max index: the runtime array still
        // covers every access; the declaration survives as metadata.
        let small = Program::from_ast_with_decl(
            vec![("main".to_string(), vec![assign(4, Expr::Const(1))])],
            Some(2),
        )
        .unwrap();
        assert_eq!(small.array_len(), 5);
        assert_eq!(small.declared_len(), Some(2));
        // Declared larger: the array grows to the declaration.
        let big = Program::from_ast_with_decl(
            vec![("main".to_string(), vec![assign(0, Expr::Const(1))])],
            Some(8),
        )
        .unwrap();
        assert_eq!(big.array_len(), 8);
        assert_eq!(big.declared_len(), Some(8));
    }

    #[test]
    fn array_length_is_capped() {
        let at = |idx: usize, decl: Option<usize>| {
            Program::from_ast_with_decl(
                vec![("main".to_string(), vec![assign(idx, Expr::Plus1(0))])],
                decl,
            )
        };
        assert_eq!(
            at(MAX_ARRAY_LEN - 1, None).unwrap().array_len(),
            MAX_ARRAY_LEN
        );
        assert_eq!(
            at(MAX_ARRAY_LEN, None).unwrap_err(),
            ValidateError::ArrayTooLong(MAX_ARRAY_LEN + 1)
        );
        assert_eq!(
            at(usize::MAX, None).unwrap_err(),
            ValidateError::ArrayTooLong(usize::MAX)
        );
        assert_eq!(
            at(0, Some(MAX_ARRAY_LEN)).unwrap().array_len(),
            MAX_ARRAY_LEN
        );
        assert_eq!(
            at(0, Some(MAX_ARRAY_LEN + 1)).unwrap_err(),
            ValidateError::ArrayTooLong(MAX_ARRAY_LEN + 1)
        );
    }

    #[test]
    fn main_resolution() {
        let p = sample();
        assert_eq!(p.main(), FuncId(0));
        assert_eq!(p.method(p.main()).name(), "main");
        assert_eq!(p.find_method("f"), Some(FuncId(1)));
        assert_eq!(p.find_method("g"), None);
    }

    #[test]
    fn unknown_method_is_rejected() {
        let err = Program::from_ast(vec![("main".to_string(), vec![call("nope")])]).unwrap_err();
        assert_eq!(err, ValidateError::UnknownMethod("nope".to_string()));
    }

    #[test]
    fn duplicate_method_is_rejected() {
        let err = Program::from_ast(vec![
            ("f".to_string(), vec![skip()]),
            ("f".to_string(), vec![skip()]),
        ])
        .unwrap_err();
        assert_eq!(err, ValidateError::DuplicateMethod("f".to_string()));
    }

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(
            Program::from_ast(vec![]).unwrap_err(),
            ValidateError::NoMethods
        );
    }

    #[test]
    fn empty_bodies_become_skip() {
        let p = Program::from_ast(vec![("main".to_string(), vec![])]).unwrap();
        assert_eq!(p.label_count(), 1);
        assert!(matches!(p.body(p.main()).head().kind, InstrKind::Skip));
    }

    #[test]
    fn stmt_seq_matches_paper_dot_operator() {
        let p = sample();
        let body = p.body(FuncId(1)).clone();
        let tail = p.body(FuncId(0)).clone();
        let combined = body.clone().seq(tail.clone());
        assert_eq!(combined.len(), body.len() + tail.len());
        assert_eq!(combined.head(), body.head());
    }

    #[test]
    fn suffix_and_tail() {
        let p = sample();
        let body = p.body(FuncId(0));
        assert_eq!(body.len(), 2);
        let t = body.tail().unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.tail().is_none());
        assert_eq!(body.suffix(0).unwrap(), body.clone());
        assert_eq!(body.suffix(1).unwrap(), t);
        assert!(body.suffix(2).is_none());
    }

    #[test]
    fn size_counts_nested_instrs() {
        let p = sample();
        let total: usize = p.methods().iter().map(|m| m.body().size()).sum();
        assert_eq!(total, p.label_count());
    }
}
