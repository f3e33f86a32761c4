//! X10-Lite: an X10-shaped surface language that lowers to the condensed
//! form.
//!
//! The analysis only cares about the ten condensed node kinds, so X10-Lite
//! keeps X10's control skeleton and abstracts everything else:
//!
//! ```text
//! program ::= def*
//! def     ::= "def" ident "(" ")" block
//! block   ::= "{" stmt* "}"
//! stmt    ::= "skip" ";" | "compute" ";" | ident ";"      → Skip
//!           | "end" ";"                                    → End
//!           | "return" ";"                                 → Return
//!           | "async" ["at" "(" … ")"] block               → Async
//!           | "finish" block                               → Finish
//!           | "if" "(" … ")" block ["else" block]          → If
//!           | "while" "(" … ")" block                      → Loop
//!           | "for"   "(" … ")" block                      → Loop
//!           | "foreach" "(" … ")" block                    → Loop{Async}
//!           | "ateach"  "(" … ")" block                    → Loop{Async at}
//!           | "switch" "(" … ")" "{" ("case" block)* "}"   → Switch
//!           | ident "(" ")" ";"                            → Call
//! ```
//!
//! Parenthesized conditions are opaque: anything up to the matching `)`
//! is skipped (the analysis is control-flow-insensitive to guards).
//! `foreach`/`ateach` desugar per the paper: "plain loops where the body
//! is wrapped in an async" (§6), the `ateach` async being place-switching
//! but counted as a loop async.
//!
//! LOC is the number of non-blank source lines, matching the paper's
//! Figure 6 metric.

use crate::condensed::{CAst, CError, CProgram};

/// A parse failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct X10ParseError {
    /// 1-based source line (0 = program-level).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for X10ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for X10ParseError {}

impl From<CError> for X10ParseError {
    fn from(e: CError) -> Self {
        X10ParseError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// A token. Identifiers borrow the source text, so a token owns no
/// memory and copying one is a register move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    LBrace,
    RBrace,
    Semi,
    /// A fully-skipped parenthesized guard.
    Guard,
}

/// Splits `src` into tokens, each with its 1-based line. Whitespace is
/// what `char::is_whitespace` accepts; only `\n` counts lines.
fn lex(src: &str) -> Result<Vec<(Tok<'_>, u32)>, X10ParseError> {
    let bytes = src.as_bytes();
    let len = bytes.len();
    let mut out = Vec::with_capacity(len / 4 + 1);
    let mut line = 1u32;
    let err = |line: u32, message: String| X10ParseError {
        line: line as usize,
        message,
    };
    let mut i = 0;
    while i < len {
        let b = bytes[i];
        i += 1;
        let tok = match b {
            b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => continue,
            b'\n' => {
                line = line.saturating_add(1);
                continue;
            }
            b'/' if bytes.get(i) == Some(&b'/') => {
                match bytes[i..].iter().position(|&c| c == b'\n') {
                    Some(nl) => {
                        line = line.saturating_add(1);
                        i += nl + 1;
                    }
                    None => i = len,
                }
                continue;
            }
            b'/' => return Err(err(line, "unexpected `/`".into())),
            b'(' => {
                // Skip to the matching close paren; guards are opaque.
                let mut depth = 1usize;
                while depth > 0 && i < len {
                    match bytes[i] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        b'\n' => line = line.saturating_add(1),
                        _ => {}
                    }
                    i += 1;
                }
                if depth != 0 {
                    return Err(err(line, "unterminated `(`".into()));
                }
                Tok::Guard
            }
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b';' => Tok::Semi,
            b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i - 1;
                while i < len && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                Tok::Ident(&src[start..i])
            }
            _ => {
                // A non-ASCII char (every byte consumed so far was ASCII
                // or a whole char, so `i - 1` is a char boundary).
                let c = src[i - 1..].chars().next().unwrap_or_default();
                if c.is_whitespace() {
                    i += c.len_utf8() - 1;
                    continue;
                }
                return Err(err(line, format!("unexpected character `{c}`")));
            }
        };
        out.push((tok, line));
    }
    Ok(out)
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, u32)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    /// The line of the next token, or of the last one at end of input.
    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(1, |&(_, l)| l as usize)
    }

    fn err(&self, m: impl Into<String>) -> X10ParseError {
        X10ParseError {
            line: self.line(),
            message: m.into(),
        }
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok<'_>, what: &str) -> Result<(), X10ParseError> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            Some(_) => Err(X10ParseError {
                line: self.toks[self.pos - 1].1 as usize,
                message: format!("expected {what}"),
            }),
            None => Err(self.err(format!("expected {what}"))),
        }
    }

    fn eat_guard(&mut self) -> Result<(), X10ParseError> {
        self.expect(Tok::Guard, "`( … )` guard")
    }

    fn program(&mut self) -> Result<Vec<(String, Vec<CAst>)>, X10ParseError> {
        let mut methods = Vec::new();
        while self.peek().is_some() {
            if self.next() != Some(Tok::Ident("def")) {
                return Err(self.err("expected `def`"));
            }
            let name = match self.next() {
                Some(Tok::Ident(n)) => n.to_string(),
                _ => return Err(self.err("expected method name")),
            };
            self.eat_guard()?; // the `()` parameter list
            let body = self.block()?;
            methods.push((name, body));
        }
        Ok(methods)
    }

    fn block(&mut self) -> Result<Vec<CAst>, X10ParseError> {
        self.expect(Tok::LBrace, "`{`")?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => out.push(self.stmt()?),
                None => return Err(self.err("unterminated block")),
            }
        }
    }

    fn stmt(&mut self) -> Result<CAst, X10ParseError> {
        let kw = match self.next() {
            Some(Tok::Ident(k)) => k,
            _ => return Err(self.err("expected a statement")),
        };
        match kw {
            "skip" | "compute" => {
                self.expect(Tok::Semi, "`;`")?;
                Ok(CAst::Skip)
            }
            "end" => {
                self.expect(Tok::Semi, "`;`")?;
                Ok(CAst::End)
            }
            "return" => {
                self.expect(Tok::Semi, "`;`")?;
                Ok(CAst::Return)
            }
            "async" => {
                // Optional `at ( … )`.
                let mut place_switch = false;
                if self.peek() == Some(Tok::Ident("at")) {
                    self.pos += 1;
                    self.eat_guard()?;
                    place_switch = true;
                }
                Ok(CAst::Async(self.block()?, place_switch))
            }
            "finish" => Ok(CAst::Finish(self.block()?)),
            "if" => {
                self.eat_guard()?;
                let then_ = self.block()?;
                let else_ = if self.peek() == Some(Tok::Ident("else")) {
                    self.pos += 1;
                    self.block()?
                } else {
                    vec![]
                };
                Ok(CAst::If(then_, else_))
            }
            "while" | "for" => {
                self.eat_guard()?;
                Ok(CAst::Loop(self.block()?))
            }
            "foreach" => {
                self.eat_guard()?;
                Ok(CAst::Loop(vec![CAst::Async(self.block()?, false)]))
            }
            "ateach" => {
                self.eat_guard()?;
                Ok(CAst::Loop(vec![CAst::Async(self.block()?, true)]))
            }
            "switch" => {
                self.eat_guard()?;
                self.expect(Tok::LBrace, "`{`")?;
                let mut cases = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::RBrace) => break,
                        Some(Tok::Ident("case")) => cases.push(self.block()?),
                        _ => return Err(self.err("expected `case` or `}` in switch")),
                    }
                }
                Ok(CAst::Switch(cases))
            }
            name => {
                // `name();` — the guard token is the argument list.
                self.eat_guard()?;
                self.expect(Tok::Semi, "`;`")?;
                Ok(CAst::Call(name.to_string()))
            }
        }
    }
}

/// Parses X10-Lite source into a labeled condensed program.
pub fn parse(src: &str) -> Result<CProgram, X10ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let methods = p.program()?;
    let loc = src.lines().filter(|l| !l.trim().is_empty()).count();
    Ok(CProgram::new(methods, loc)?)
}

/// Pretty-prints a condensed program back to parseable X10-Lite (used by
/// the benchmark generator to materialize source and count LOC).
pub fn pretty(p: &CProgram) -> String {
    use crate::condensed::{CBlock, CNodeKind};
    use std::fmt::Write;
    fn block(p: &CProgram, b: &CBlock, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        for n in &b.nodes {
            match &n.kind {
                CNodeKind::End => {
                    let _ = writeln!(out, "{pad}end;");
                }
                CNodeKind::Skip => {
                    let _ = writeln!(out, "{pad}compute;");
                }
                CNodeKind::Return => {
                    let _ = writeln!(out, "{pad}return;");
                }
                CNodeKind::Call { callee } => {
                    let _ = writeln!(out, "{pad}{}();", p.method(*callee).name);
                }
                CNodeKind::Async { body, place_switch } => {
                    if *place_switch {
                        let _ = writeln!(out, "{pad}async at (p) {{");
                    } else {
                        let _ = writeln!(out, "{pad}async {{");
                    }
                    block(p, body, depth + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
                CNodeKind::Finish { body } => {
                    let _ = writeln!(out, "{pad}finish {{");
                    block(p, body, depth + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
                CNodeKind::Loop { body } => {
                    let _ = writeln!(out, "{pad}while (c) {{");
                    block(p, body, depth + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
                CNodeKind::If { then_, else_ } => {
                    let _ = writeln!(out, "{pad}if (c) {{");
                    block(p, then_, depth + 1, out);
                    if else_.nodes.is_empty() {
                        let _ = writeln!(out, "{pad}}}");
                    } else {
                        let _ = writeln!(out, "{pad}}} else {{");
                        block(p, else_, depth + 1, out);
                        let _ = writeln!(out, "{pad}}}");
                    }
                }
                CNodeKind::Switch { cases } => {
                    let _ = writeln!(out, "{pad}switch (c) {{");
                    for c in cases {
                        let _ = writeln!(out, "{pad}  case {{");
                        block(p, c, depth + 2, out);
                        let _ = writeln!(out, "{pad}  }}");
                    }
                    let _ = writeln!(out, "{pad}}}");
                }
            }
        }
    }
    let mut out = String::new();
    for m in p.methods() {
        let _ = writeln!(out, "def {}() {{", m.name);
        block(p, &m.body, 1, &mut out);
        let _ = writeln!(out, "}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::CNodeKind;

    const SRC: &str = "\
def work() {
  for (int i = 0; i < n; i++) {
    compute;
  }
  return;
}
def main() {
  finish {
    foreach (point p : region) {
      work();
    }
  }
  ateach (point q : dist) {
    compute;
  }
  if (x > 0) {
    async at (here.next()) { compute; }
  } else {
    switch (mode) {
      case { compute; }
      case { return; }
    }
  }
  end;
}
";

    #[test]
    fn parses_and_counts_nodes() {
        let p = parse(SRC).unwrap();
        let c = p.node_counts();
        assert_eq!(c.method, 2);
        // foreach + ateach → 2 loops + for-loop = 3 loops; each of the
        // first two wraps an implicit async; plus the `async at`.
        assert_eq!(c.loop_, 3);
        assert_eq!(c.async_, 3);
        assert_eq!(c.finish, 1);
        assert_eq!(c.if_, 1);
        assert_eq!(c.switch, 1);
        assert_eq!(c.return_, 2);
        assert_eq!(c.end, 1);
        assert_eq!(c.call, 1);
        assert_eq!(c.skip, 4);
        assert_eq!(p.loc, 25);
    }

    #[test]
    fn async_categories_follow_paper_conventions() {
        let p = parse(SRC).unwrap();
        let st = p.async_stats();
        assert_eq!(st.total, 3);
        // foreach's and ateach's asyncs are loop asyncs (even the
        // place-switching ateach one); `async at` outside a loop is a
        // place switch.
        assert_eq!(st.loop_asyncs, 2);
        assert_eq!(st.place_switch, 1);
    }

    #[test]
    fn pretty_round_trips() {
        let p1 = parse(SRC).unwrap();
        let printed = pretty(&p1);
        let p2 = parse(&printed).unwrap();
        assert_eq!(p1.node_counts(), p2.node_counts());
        assert_eq!(p1.async_stats(), p2.async_stats());
        // Structure is identical (labels and loc may differ).
        assert_eq!(p1.method_count(), p2.method_count());
    }

    #[test]
    fn ateach_lowering_shape() {
        let p = parse("def main() { ateach (x) { compute; } }").unwrap();
        match &p.methods()[0].body.nodes[0].kind {
            CNodeKind::Loop { body } => match &body.nodes[0].kind {
                CNodeKind::Async { place_switch, .. } => assert!(*place_switch),
                k => panic!("expected async, got {k:?}"),
            },
            k => panic!("expected loop, got {k:?}"),
        }
    }

    #[test]
    fn nested_parens_in_guards() {
        let p = parse("def main() { if ((a && (b || c)) != 0) { compute; } }").unwrap();
        assert_eq!(p.node_counts().if_, 1);
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse("def main() {\n  async ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("def main() { g(); }").is_err());
    }
}
