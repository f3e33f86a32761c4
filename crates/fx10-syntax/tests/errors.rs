//! The parser's diagnostics, pinned: every malformed input below must be
//! rejected with exactly this `(line, message)`, and every accepted oddity
//! must parse to exactly this program (pretty-printed text, declared
//! length and per-label source lines).
//!
//! Line 0 marks a program-level error (validation after parsing).

use fx10_syntax::{pretty, Label, Program};

/// `(source, line, message)`.
const REJECTED: &[(&str, usize, &str)] = &[
    // The whole file is lexed before parsing starts, so a lexical error
    // wins over an earlier parse error.
    ("def main() { a[0] = ; }\n$", 2, "unexpected character `$`"),
    (
        "def main() { skip; / }",
        1,
        "unexpected `/` (comments are `//`)",
    ),
    (
        "def main() {\n  while (a[0] ! 0) { skip; }\n}",
        2,
        "expected `!=`",
    ),
    ("def main() { $ }", 1, "unexpected character `$`"),
    ("def main() {\n  é;\n}", 2, "unexpected character `é`"),
    (
        "def main() {\n  async {\n  %\n}\n}",
        3,
        "unexpected character `%`",
    ),
    (
        "def main() {\r\n  skip;\r\n  @\r\n}",
        3,
        "unexpected character `@`",
    ),
    // U+2028 is whitespace but not a line break.
    ("def main() {\u{2028}  é }", 1, "unexpected character `é`"),
    // End-of-input errors carry the last token's line.
    ("def main() { skip;", 1, "unterminated block: expected `}`"),
    (
        "def main() {\n  skip;\n\n\n",
        2,
        "unterminated block: expected `}`",
    ),
    (
        "def main() {\n  skip; // no newline",
        2,
        "unterminated block: expected `}`",
    ),
    (
        "def main() {\n  a[0] =\n\n",
        2,
        "expected expression: a constant or `a[d] + 1`",
    ),
    ("def", 1, "expected identifier, found end of input"),
    (
        "def main() { while (a[0] != 1) { skip; } }",
        1,
        "while guard must compare against 0",
    ),
    (
        "def main() { while (b[0] != 0) { skip; } }",
        1,
        "while guard must be `a[d] != 0`",
    ),
    (
        "def main() { while a[0] != 0 { skip; } }",
        1,
        "expected `(`, found `a`",
    ),
    (
        "def main() { while (a[0] != 0 { skip; } }",
        1,
        "expected `)`, found `{`",
    ),
    (
        "def main() { a[0] = a[1] + 2; }",
        1,
        "only `a[d] + 1` is allowed",
    ),
    (
        "def main() { a[0] = a[1] + a; }",
        1,
        "expected number, found `a`",
    ),
    ("def main() { a[0] = a[1]; }", 1, "expected `+`, found `;`"),
    (
        "def main() { a[0] == 1; }",
        1,
        "expected expression: a constant or `a[d] + 1`",
    ),
    ("def main() { a[0] = 1 }", 1, "expected `;`, found `}`"),
    ("def main() { a[-1] = 0; }", 1, "expected number, found `-`"),
    ("def main() { a[0] = -; }", 1, "expected number, found `;`"),
    // `a` is the array, never a label.
    ("def main() { a: skip; }", 1, "expected `[`, found `:`"),
    ("def main() { x = 1; }", 1, "expected `;`, found `=`"),
    ("def main() { f(; }", 1, "expected `)`, found `;`"),
    (
        "def main() { async skip; }",
        1,
        "expected `{`, found `skip`",
    ),
    ("def main() { ; }", 1, "expected an instruction, found `;`"),
    ("def main() { L: }", 1, "expected an instruction, found `}`"),
    ("def main() { skip }", 1, "expected `;`, found `}`"),
    ("def main( { skip; }", 1, "expected `)`, found `{`"),
    ("def 9() { skip; }", 1, "expected identifier, found `9`"),
    ("main() { skip; }", 1, "expected `def`"),
    ("def main() {\n  skip;\n}\n}", 4, "expected `def`"),
    (
        "array[2];\narray[3];\ndef main() { skip; }",
        2,
        "duplicate `array[N];` declaration",
    ),
    (
        "array[];\ndef main() { skip; }",
        1,
        "expected number, found `]`",
    ),
    (
        "array[2]\ndef main() { skip; }",
        2,
        "expected `;`, found `def`",
    ),
    ("def main() { g(); }", 0, "call to unknown method `g`"),
    (
        "def f() { skip; }\ndef f() { skip; }",
        0,
        "duplicate method `f`",
    ),
    ("", 0, "program has no methods"),
    ("// only a comment", 0, "program has no methods"),
    // Numbers must fit in an `i64`; `-2^63` is the one magnitude past it.
    (
        "def main() {\n  a[99999999999999999999] = 1;\n}",
        2,
        "number too large for a 64-bit signed integer",
    ),
    (
        "def main() { a[0] = 99999999999999999999; }",
        1,
        "number too large for a 64-bit signed integer",
    ),
    (
        "def main() { a[0] = 9223372036854775808; }",
        1,
        "number too large for a 64-bit signed integer",
    ),
    (
        "def main() { a[0] = -9223372036854775809; }",
        1,
        "number too large for a 64-bit signed integer",
    ),
    // A lexical error, so it wins over the parse error before it.
    (
        "def main() { a[0] = ; }\narray[18446744073709551616];",
        2,
        "number too large for a 64-bit signed integer",
    ),
    // The shared array has at most 2^16 cells.
    (
        "def main() { a[4000000000000] = 1; }",
        0,
        "array of 4000000000001 cells is too long (the limit is 65536 cells)",
    ),
    (
        "array[4000000000000];\ndef main() { a[0] = 1; }",
        0,
        "array of 4000000000000 cells is too long (the limit is 65536 cells)",
    ),
    (
        "def main() { a[0] = a[65536] + 1; }",
        0,
        "array of 65537 cells is too long (the limit is 65536 cells)",
    ),
    (
        "def main() { while (a[9223372036854775807] != 0) { skip; } }",
        0,
        "array of 9223372036854775808 cells is too long (the limit is 65536 cells)",
    ),
];

/// `(source, pretty-printed program, declared length, per-label lines)`.
type Accepted = (&'static str, &'static str, Option<usize>, &'static [u32]);

const ACCEPTED: &[Accepted] = &[
    // U+00A0, tab and CR are whitespace; only `\n` counts lines.
    (
        "def\u{a0}main()\t{\r\n  skip;\r\n}\r\n",
        "def main() {\n  skip;\n}\n",
        None,
        &[2],
    ),
    // U+2028 and U+0085 are whitespace too, and count no line.
    (
        "def main() {\u{2028}S1: a[0] = -9223372036854775807;\u{85}\n  S2;\n}",
        "def main() {\n  S1: a[0] = -9223372036854775807;\n  S2;\n}\n",
        None,
        &[1, 2],
    ),
    // A trailing comment needs no newline.
    (
        "def main() {\n  skip;\n}\n// trailing comment, no newline",
        "def main() {\n  skip;\n}\n",
        None,
        &[2],
    ),
    // `array` is a legal method name: the declaration needs `array [`.
    (
        "def array() { skip; }\ndef main() { array(); }",
        "def array() {\n  skip;\n}\ndef main() {\n  array();\n}\n",
        None,
        &[1, 2],
    ),
    (
        "array [ 3 ] ;\ndef main() { a[ 1 ] = a [2]+1; }",
        "array[3];\ndef main() {\n  a[1] = a[2] + 1;\n}\n",
        Some(3),
        &[2],
    ),
    (
        "def main() {\n  L1: finish {\n    async { a[0] = 0; }\n    f();\n  }\n}\n\
         def f() { while (a[1] != 0) { S9; } }",
        "def main() {\n  L1: finish {\n    async {\n      a[0] = 0;\n    }\n    f();\n  }\n}\n\
         def f() {\n  while (a[1] != 0) {\n    S9;\n  }\n}\n",
        None,
        &[2, 3, 3, 4, 7, 7],
    ),
    (
        "def main() { a[0] = 007; }",
        "def main() {\n  a[0] = 7;\n}\n",
        None,
        &[1],
    ),
    (
        "def _x1() { skip; } def main() { _x1(); }",
        "def _x1() {\n  skip;\n}\ndef main() {\n  _x1();\n}\n",
        None,
        &[1, 1],
    ),
    // The extreme constants, and the last cell the array may have.
    (
        "def main() { a[0] = -9223372036854775808; a[1] = 9223372036854775807; }",
        "def main() {\n  a[0] = -9223372036854775808;\n  a[1] = 9223372036854775807;\n}\n",
        None,
        &[1, 1],
    ),
    (
        "array[65536];\ndef main() { a[65535] = 000000000000000000000000001; }",
        "array[65536];\ndef main() {\n  a[65535] = 1;\n}\n",
        Some(65536),
        &[2],
    ),
];

#[test]
fn rejected_inputs_give_their_pinned_error() {
    for &(src, line, message) in REJECTED {
        match Program::parse(src) {
            Ok(p) => panic!("{src:?} parsed:\n{}", pretty::program(&p)),
            Err(e) => assert_eq!(
                (e.line, e.message.as_str()),
                (line, message),
                "source {src:?}"
            ),
        }
    }
}

#[test]
fn accepted_oddities_parse_to_their_pinned_program() {
    for &(src, printed, declared, lines) in ACCEPTED {
        let p = Program::parse(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        assert_eq!(pretty::program(&p), printed, "source {src:?}");
        assert_eq!(p.declared_len(), declared, "source {src:?}");
        let got: Vec<u32> = (0..p.label_count())
            .map(|l| p.labels().line(Label(l as u32)))
            .collect();
        assert_eq!(got, lines, "source {src:?}");
    }
}
