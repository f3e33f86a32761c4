//! Concrete syntax for FX10.
//!
//! The grammar mirrors the paper's abstract syntax plus the labeling and
//! naming conventions its examples use:
//!
//! ```text
//! program ::= decl? def*
//! decl    ::= "array" "[" num "]" ";"        // intended bounds of `a`
//! def     ::= "def" ident "(" ")" block
//! block   ::= "{" stmt* "}"
//! stmt    ::= [ident ":"] instr
//! instr   ::= "skip" ";"
//!           | ident ";"                        // named skip shorthand: `S1;`
//!           | "a" "[" num "]" "=" expr ";"
//!           | "while" "(" "a" "[" num "]" "!=" "0" ")" block
//!           | "async" block
//!           | "finish" block
//!           | ident "(" ")" ";"
//! expr    ::= num | "a" "[" num "]" "+" "1"
//! ```
//!
//! Line comments start with `//`. An empty block parses as a single `skip`
//! (the grammar requires non-empty statements). A number must fit in an
//! `i64` (`-9223372036854775808` included), and the array may have at
//! most 2^16 cells ([`ValidateError::ArrayTooLong`]).

use crate::ast::{Expr, Program};
use crate::build::{assign, async_, call, finish, skip, while_, Ast};
use crate::ValidateError;

/// A parse or validation failure, with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number where the error was detected (0 when the error
    /// is program-level, e.g. a call to an unknown method).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ValidateError> for ParseError {
    fn from(e: ValidateError) -> Self {
        ParseError {
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
    /// A magnitude: at most `i64::MAX`, or `2^63` right after a `-`.
    Num(u64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBrack,
    RBrack,
    Semi,
    Colon,
    Eq,
    Neq,
    Plus,
    Minus,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Num(n) => write!(f, "`{n}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrack => write!(f, "`[`"),
            Tok::RBrack => write!(f, "`]`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Neq => write!(f, "`!=`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
        }
    }
}

/// Splits `src` into tokens, each with its 1-based line.
///
/// The whole file is lexed before parsing starts, so a lexical error
/// anywhere wins over a parse error earlier in the file. Whitespace is
/// what `char::is_whitespace` accepts; only `\n` counts lines.
fn lex(src: &str) -> Result<Vec<(Tok<'_>, u32)>, ParseError> {
    let bytes = src.as_bytes();
    let len = bytes.len();
    // A few bytes per token in any realistic layout.
    let mut out = Vec::with_capacity(len / 2 + 1);
    let mut line = 1u32;
    let err = |line: u32, message: String| ParseError {
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
            b'/' => return Err(err(line, "unexpected `/` (comments are `//`)".into())),
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBrack,
            b']' => Tok::RBrack,
            b';' => Tok::Semi,
            b':' => Tok::Colon,
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'=' => Tok::Eq,
            b'!' if bytes.get(i) == Some(&b'=') => {
                i += 1;
                Tok::Neq
            }
            b'!' => return Err(err(line, "expected `!=`".into())),
            b'0'..=b'9' => {
                let start = i - 1;
                let mut n = u64::from(b - b'0');
                while i < len && bytes[i].is_ascii_digit() {
                    n = n.wrapping_mul(10).wrapping_add(u64::from(bytes[i] - b'0'));
                    i += 1;
                }
                // Up to 18 digits cannot overflow; longer runs are redone
                // with checked arithmetic. `-9223372036854775808` is
                // `i64::MIN`, which the pretty-printer writes, so 2^63 is
                // allowed right after a `-`.
                if i - start > 18 {
                    let max = match out.last() {
                        Some((Tok::Minus, _)) => 1u64 << 63,
                        _ => i64::MAX as u64,
                    };
                    n = bytes[start..i]
                        .iter()
                        .try_fold(0u64, |n, &d| {
                            n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
                        })
                        .filter(|&n| n <= max)
                        .ok_or_else(|| {
                            err(line, "number too large for a 64-bit signed integer".into())
                        })?;
                }
                Tok::Num(n)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
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

/// Parsed method bodies plus the optional `array [n];` declaration.
type ParsedProgram = (Vec<(String, Vec<Ast>)>, Option<usize>);

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

    /// The line of the token just consumed.
    fn prev_line(&self) -> usize {
        self.toks[self.pos - 1].1 as usize
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The error for finding `found` (`None`: end of input) where `want`
    /// belongs.
    #[cold]
    fn mismatch(&self, want: &dyn std::fmt::Display, found: Option<Tok<'_>>) -> ParseError {
        match found {
            Some(t) => ParseError {
                line: self.prev_line(),
                message: format!("expected {want}, found {t}"),
            },
            None => self.err(format!("expected {want}, found end of input")),
        }
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            found => Err(self.mismatch(&want, found)),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            found => Err(self.mismatch(&"identifier", found)),
        }
    }

    fn expect_num(&mut self) -> Result<u64, ParseError> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(n),
            found => Err(self.mismatch(&"number", found)),
        }
    }

    /// `array [ num ] ;` — the optional bounds declaration. The caller has
    /// checked that the next tokens are `array` `[`.
    fn array_decl(&mut self) -> Result<usize, ParseError> {
        self.next(); // `array`
        let n = self.array_index()?;
        self.expect(Tok::Semi)?;
        Ok(n)
    }

    fn program(&mut self) -> Result<ParsedProgram, ParseError> {
        let mut methods = Vec::new();
        let mut declared = None;
        while let Some(t) = self.peek() {
            if t == Tok::Ident("array")
                && matches!(self.toks.get(self.pos + 1), Some((Tok::LBrack, _)))
            {
                if declared.is_some() {
                    return Err(self.err("duplicate `array[N];` declaration"));
                }
                declared = Some(self.array_decl()?);
                continue;
            }
            if self.next() != Some(Tok::Ident("def")) {
                return Err(ParseError {
                    line: self.prev_line(),
                    message: "expected `def`".into(),
                });
            }
            let name = self.expect_ident()?;
            self.expect(Tok::LParen)?;
            self.expect(Tok::RParen)?;
            let body = self.block()?;
            methods.push((name.to_string(), body));
        }
        Ok((methods, declared))
    }

    fn block(&mut self) -> Result<Vec<Ast>, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => break,
                Some(_) => stmts.push(self.stmt()?),
                None => return Err(self.err("unterminated block: expected `}`")),
            }
        }
        self.pos += 1; // `}`
        Ok(stmts)
    }

    /// `a [ num ]` with the leading `a` already consumed by the caller.
    fn array_index(&mut self) -> Result<usize, ParseError> {
        self.expect(Tok::LBrack)?;
        let d = self.expect_num()?;
        self.expect(Tok::RBrack)?;
        // Lossless: the lexer caps magnitudes at 2^63.
        Ok(d as usize)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            // The magnitude is at most 2^63, whose negation is `i64::MIN`.
            Some(Tok::Minus) => Ok(Expr::Const((self.expect_num()? as i64).wrapping_neg())),
            Some(Tok::Num(c)) => Ok(Expr::Const(c as i64)),
            Some(Tok::Ident("a")) => {
                let d = self.array_index()?;
                self.expect(Tok::Plus)?;
                if self.expect_num()? != 1 {
                    return Err(self.err("only `a[d] + 1` is allowed"));
                }
                Ok(Expr::Plus1(d))
            }
            _ => Err(self.err("expected expression: a constant or `a[d] + 1`")),
        }
    }

    fn stmt(&mut self) -> Result<Ast, ParseError> {
        // The instruction's source line: where its first token (label
        // prefix included) sits.
        let line = self.line() as u32;
        // Optional label prefix: `ident :`.
        let mut label = None;
        if let (Some(Tok::Ident(name)), Some((Tok::Colon, _))) =
            (self.peek(), self.toks.get(self.pos + 1))
        {
            if name != "a" {
                label = Some(name);
                self.pos += 2;
            }
        }
        let node = self.instr()?.at_line(line);
        Ok(match label {
            Some(n) => node.label(n),
            None => node,
        })
    }

    fn instr(&mut self) -> Result<Ast, ParseError> {
        match self.next() {
            Some(Tok::Ident("skip")) => {
                self.expect(Tok::Semi)?;
                Ok(skip())
            }
            Some(Tok::Ident("async")) => Ok(async_(self.block()?)),
            Some(Tok::Ident("finish")) => Ok(finish(self.block()?)),
            Some(Tok::Ident("while")) => {
                self.expect(Tok::LParen)?;
                if self.next() != Some(Tok::Ident("a")) {
                    return Err(self.err("while guard must be `a[d] != 0`"));
                }
                let d = self.array_index()?;
                self.expect(Tok::Neq)?;
                if self.expect_num()? != 0 {
                    return Err(self.err("while guard must compare against 0"));
                }
                self.expect(Tok::RParen)?;
                Ok(while_(d, self.block()?))
            }
            Some(Tok::Ident("a")) => {
                let idx = self.array_index()?;
                self.expect(Tok::Eq)?;
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(assign(idx, e))
            }
            Some(Tok::Ident(name)) => {
                // `name();` is a call, bare `name;` is a named skip.
                if self.peek() == Some(Tok::LParen) {
                    self.pos += 1;
                    self.expect(Tok::RParen)?;
                    self.expect(Tok::Semi)?;
                    Ok(call(name))
                } else {
                    self.expect(Tok::Semi)?;
                    Ok(skip().label(name))
                }
            }
            found => Err(self.mismatch(&"an instruction", found)),
        }
    }
}

impl Program {
    /// Parses FX10 concrete syntax into a validated [`Program`].
    pub fn parse(src: &str) -> Result<Program, ParseError> {
        let toks = lex(src)?;
        let mut p = Parser { toks, pos: 0 };
        let (methods, declared) = p.program()?;
        Ok(Program::from_ast_with_decl(methods, declared)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::InstrKind;

    #[test]
    fn parses_section_2_2_program() {
        let p = Program::parse(
            "def f() { async { S5; } }\n\
             def main() {\n\
               S1: finish { async { S3; } f(); }\n\
               S2: finish { f(); async { S4; } }\n\
             }",
        )
        .unwrap();
        assert_eq!(p.method_count(), 2);
        assert_eq!(p.main(), p.find_method("main").unwrap());
        assert!(p.labels().lookup("S1").is_some());
        assert!(p.labels().lookup("S5").is_some());
        // f's body is a lone async whose body is a named skip.
        let f = p.find_method("f").unwrap();
        let body = p.body(f);
        assert_eq!(body.len(), 1);
        match &body.head().kind {
            InstrKind::Async { body } => {
                assert!(matches!(body.head().kind, InstrKind::Skip));
                assert_eq!(p.labels().display(body.head().label), "S5");
            }
            other => panic!("expected async, got {other:?}"),
        }
    }

    #[test]
    fn parses_assign_while_and_exprs() {
        let p = Program::parse(
            "def main() {\n\
               a[0] = 5;\n\
               while (a[0] != 0) { a[1] = a[1] + 1; a[0] = 0; }\n\
             }",
        )
        .unwrap();
        assert_eq!(p.array_len(), 2);
        let body = p.body(p.main());
        assert!(matches!(
            body.head().kind,
            InstrKind::Assign {
                idx: 0,
                expr: Expr::Const(5)
            }
        ));
        match &body.instrs()[1].kind {
            InstrKind::While { idx: 0, body } => {
                assert!(matches!(
                    body.head().kind,
                    InstrKind::Assign {
                        idx: 1,
                        expr: Expr::Plus1(1)
                    }
                ));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn empty_block_becomes_skip() {
        let p = Program::parse("def main() { finish { } }").unwrap();
        match &p.body(p.main()).head().kind {
            InstrKind::Finish { body } => assert!(matches!(body.head().kind, InstrKind::Skip)),
            other => panic!("expected finish, got {other:?}"),
        }
    }

    #[test]
    fn reports_line_numbers() {
        let err = Program::parse("def main() {\n  async {\n  %\n}\n}").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn rejects_bad_while_guard() {
        assert!(Program::parse("def main() { while (a[0] != 1) { } }").is_err());
        assert!(Program::parse("def main() { while (b[0] != 0) { } }").is_err());
    }

    #[test]
    fn rejects_unknown_callee() {
        let err = Program::parse("def main() { g(); }").unwrap_err();
        assert!(err.message.contains("unknown method"));
    }

    #[test]
    fn comments_are_skipped() {
        let p = Program::parse("// leading\ndef main() { skip; // trailing\n }").unwrap();
        assert_eq!(p.label_count(), 1);
    }

    #[test]
    fn bare_ident_is_named_skip() {
        let p = Program::parse("def main() { S9; }").unwrap();
        assert_eq!(p.labels().display(p.body(p.main()).head().label), "S9");
        assert!(matches!(p.body(p.main()).head().kind, InstrKind::Skip));
    }

    #[test]
    fn instruction_lines_are_recorded() {
        let p = Program::parse(
            "def main() {\n\
               W1: async { a[0] = 1; }\n\
               W2: a[0] = 2;\n\
             }",
        )
        .unwrap();
        let w1 = p.labels().lookup("W1").unwrap();
        let w2 = p.labels().lookup("W2").unwrap();
        assert_eq!(p.labels().line(w1), 2);
        assert_eq!(p.labels().line(w2), 3);
        // The async body's assignment sits on line 2 as well.
        match &p.body(p.main()).head().kind {
            InstrKind::Async { body } => assert_eq!(p.labels().line(body.head().label), 2),
            other => panic!("expected async, got {other:?}"),
        }
        // Builder-constructed programs have no source lines.
        let q = Program::from_ast(vec![("main".into(), vec![crate::build::skip()])]).unwrap();
        assert_eq!(q.labels().line(q.body(q.main()).head().label), 0);
    }

    #[test]
    fn array_declaration_sets_declared_len() {
        let p = Program::parse("array[4];\ndef main() { a[1] = 0; }").unwrap();
        assert_eq!(p.declared_len(), Some(4));
        assert_eq!(p.array_len(), 4);
        // Declared-too-small still parses: the oob lints, not the parser,
        // police the bounds; the runtime array covers every access.
        let q = Program::parse("array[1];\ndef main() { a[3] = 0; }").unwrap();
        assert_eq!(q.declared_len(), Some(1));
        assert_eq!(q.array_len(), 4);
    }

    #[test]
    fn duplicate_or_malformed_array_declaration_is_rejected() {
        assert!(Program::parse("array[2];\narray[3];\ndef main() { skip; }").is_err());
        assert!(Program::parse("array[];\ndef main() { skip; }").is_err());
        assert!(Program::parse("array[2]\ndef main() { skip; }").is_err());
        // `array` is still a legal method name (dispatch keys on `array [`).
        let p = Program::parse("def array() { skip; }\ndef main() { array(); }").unwrap();
        assert!(p.find_method("array").is_some());
    }

    #[test]
    fn label_prefix_applies_to_any_instr() {
        let p = Program::parse("def main() { L: finish { skip; } }").unwrap();
        assert_eq!(p.labels().lookup("L").map(|l| l.0), Some(0));
    }
}
