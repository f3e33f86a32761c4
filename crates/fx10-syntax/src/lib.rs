//! # fx10-syntax
//!
//! Abstract syntax for **Featherweight X10** (FX10), the core calculus for
//! async-finish parallelism of Lee & Palsberg (PPoPP 2010).
//!
//! An FX10 program is a family of zero-argument `void` methods over a single
//! shared one-dimensional integer array `a` (paper §3.2, Figure 1):
//!
//! ```text
//! Program:     p ::= void f_i() { s_i },  i in 1..u
//! Statement:   s ::= i | i s
//! Instruction: i ::= skip^l
//!                 |  a[d] =^l e;
//!                 |  while^l (a[d] != 0) s
//!                 |  async^l s
//!                 |  finish^l s
//!                 |  f_i()^l
//! Expression:  e ::= c | a[d] + 1
//! ```
//!
//! Every instruction carries a [`Label`]; labels have no effect on
//! computation but drive the may-happen-in-parallel analysis. This crate
//! assigns labels densely (`0..label_count`) at [`Program`] construction
//! time, so downstream crates can use plain `Vec`s indexed by label.
//!
//! The crate provides:
//! - the AST ([`Program`], [`Method`], [`Stmt`], [`Instr`], [`Expr`]),
//! - a concrete-syntax [`parse`](Program::parse) / [pretty-printer](pretty),
//! - a programmatic [builder](build) used by generators,
//! - [validation](ValidateError) (dense labels, resolvable calls),
//! - the paper's §2.1 and §2.2 [example programs](examples).

#![warn(missing_docs)]
pub mod ast;
pub mod build;
pub mod examples;
pub mod label;
pub mod parser;
pub mod pretty;

pub use ast::{Expr, FuncId, Instr, InstrKind, Method, Program, Stmt};
pub use build::Ast;
pub use label::Label;
pub use parser::ParseError;

/// Errors detected while assembling a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A call site names a method that does not exist.
    UnknownMethod(String),
    /// Two methods share a name.
    DuplicateMethod(String),
    /// A program must contain at least one method (the main method).
    NoMethods,
    /// A statement sequence was empty (the grammar requires `s ::= i | i s`).
    EmptyStatement,
    /// The shared array would need this many cells, more than the
    /// 2^16 a program may use: the largest index plus one, or the
    /// `array[N];` declaration if that is larger.
    ArrayTooLong(usize),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::UnknownMethod(m) => write!(f, "call to unknown method `{m}`"),
            ValidateError::DuplicateMethod(m) => write!(f, "duplicate method `{m}`"),
            ValidateError::NoMethods => write!(f, "program has no methods"),
            ValidateError::EmptyStatement => write!(f, "empty statement sequence"),
            ValidateError::ArrayTooLong(n) => write!(
                f,
                "array of {n} cells is too long (the limit is {} cells)",
                ast::MAX_ARRAY_LEN
            ),
        }
    }
}

impl std::error::Error for ValidateError {}
