//! Pretty-printing: renders a [`Program`] back to parseable concrete syntax.
//!
//! The printer round-trips with the parser up to label names: user-supplied
//! names are preserved via `name:` prefixes (and `name;` shorthand for
//! named skips whose name is not a keyword); auto-assigned labels are not
//! printed.

use crate::ast::{Expr, Instr, InstrKind, Program, Stmt};
use std::fmt::Write;

/// Renders the whole program.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    if let Some(n) = p.declared_len() {
        let _ = writeln!(out, "array[{n}];");
    }
    for m in p.methods() {
        let _ = writeln!(out, "def {}() {{", m.name());
        stmt(p, m.body(), 1, &mut out);
        let _ = writeln!(out, "}}");
    }
    out
}

/// Renders one statement at the given indent depth.
pub fn stmt(p: &Program, s: &Stmt, depth: usize, out: &mut String) {
    for i in s.instrs() {
        instr(p, i, depth, out);
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn expr(e: &Expr) -> String {
    match e {
        Expr::Const(c) => format!("{c}"),
        Expr::Plus1(d) => format!("a[{d}] + 1"),
    }
}

fn instr(p: &Program, i: &Instr, depth: usize, out: &mut String) {
    indent(depth, out);
    let name = p.labels().name(i.label);
    match (&i.kind, name) {
        // `n;` would read back as an instruction when `n` is a keyword.
        (InstrKind::Skip, Some(n)) if !matches!(n, "skip" | "async" | "finish" | "while") => {
            let _ = writeln!(out, "{n};");
            return;
        }
        (_, Some(n)) => {
            let _ = write!(out, "{n}: ");
        }
        _ => {}
    }
    match &i.kind {
        InstrKind::Skip => {
            let _ = writeln!(out, "skip;");
        }
        InstrKind::Assign { idx, expr: e } => {
            let _ = writeln!(out, "a[{idx}] = {};", expr(e));
        }
        InstrKind::While { idx, body } => {
            let _ = writeln!(out, "while (a[{idx}] != 0) {{");
            stmt(p, body, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}}");
        }
        InstrKind::Async { body } => {
            let _ = writeln!(out, "async {{");
            stmt(p, body, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}}");
        }
        InstrKind::Finish { body } => {
            let _ = writeln!(out, "finish {{");
            stmt(p, body, depth + 1, out);
            indent(depth, out);
            let _ = writeln!(out, "}}");
        }
        InstrKind::Call { callee } => {
            let _ = writeln!(out, "{}();", p.method(*callee).name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    const SRC: &str = "def f() { async { S5; } }\n\
                       def main() {\n\
                         S1: finish { async { S3; } f(); }\n\
                         a[0] = a[1] + 1;\n\
                         while (a[0] != 0) { a[0] = 0; }\n\
                       }";

    #[test]
    fn round_trips_through_parser() {
        let p1 = Program::parse(SRC).unwrap();
        let printed = program(&p1);
        let p2 = Program::parse(&printed).unwrap();
        assert_eq!(p1, p2, "pretty-printed program must re-parse identically");
    }

    #[test]
    fn array_declaration_round_trips() {
        let p1 = Program::parse("array[7];\ndef main() { a[2] = 1; }").unwrap();
        let printed = program(&p1);
        assert!(printed.starts_with("array[7];\n"));
        assert_eq!(p1, Program::parse(&printed).unwrap());
    }

    #[test]
    fn named_skip_uses_shorthand() {
        let p = Program::parse("def main() { S3; }").unwrap();
        assert!(program(&p).contains("S3;"));
        assert!(!program(&p).contains("skip"));
    }
}
