//! The FX10 parser never panics, and what it accepts it can print back.
//!
//! Inputs are arbitrary character strings, soups of FX10 tokens, and
//! single-character deletions, insertions and truncations of printed
//! random programs. Every input must give `Ok` or `Err` (a debug build
//! turns arithmetic overflow into a panic, so this also pins checked
//! number lexing), and every `Ok` program must print to text that parses
//! back to an equal program.

use fx10::suite::{random_fx10, RandomConfig};
use fx10::syntax::{pretty, Program};
use proptest::prelude::*;

/// Characters the lexer treats specially, plus a few it must reject or
/// skip without a line break.
const ALPHABET: &[char] = &[
    ' ', '\n', '\t', '\r', '{', '}', '(', ')', '[', ']', ';', ':', '=', '!', '+', '-', '/', '0',
    '1', '9', 'a', 'f', 'S', '_', '$', 'é', '\u{a0}', '\u{2028}', '\u{85}',
];

/// Fragments that get past the lexer, so the parser sees deep input.
const FRAGMENTS: &[&str] = &[
    "def",
    "main",
    "f",
    "()",
    "(",
    ")",
    "{",
    "}",
    "a",
    "[",
    "]",
    "=",
    "!=",
    "+",
    "-",
    ";",
    ":",
    "skip",
    "async",
    "finish",
    "while",
    "array",
    "S1",
    "0",
    "1",
    "7",
    "65535",
    "65536",
    "9223372036854775807",
    "9223372036854775808",
    "99999999999999999999",
    "//",
    "\n",
    " ",
    "é",
];

fn char_strategy() -> impl Strategy<Value = char> {
    prop_oneof![
        (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        ' '..'\u{7f}',
        '\u{0}'..'\u{3000}',
    ]
}

/// Parses `src`; an accepted program must survive a print/parse round trip.
fn parses_or_fails_cleanly(src: &str) -> TestCaseResult {
    if let Ok(p) = Program::parse(src) {
        let printed = pretty::program(&p);
        let again = Program::parse(&printed).map_err(|e| {
            TestCaseError::fail(format!("{src:?} printed as\n{printed}\nwhich fails: {e}"))
        })?;
        prop_assert_eq!(&p, &again, "{:?} printed as\n{}", src, printed);
    }
    Ok(())
}

fn printed_random_program(seed: u64, methods: usize, depth: usize) -> Vec<char> {
    let p = random_fx10(RandomConfig {
        methods,
        stmts_per_method: 4,
        max_depth: depth,
        seed,
    });
    pretty::program(&p).chars().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_strings_never_panic(chars in proptest::collection::vec(char_strategy(), 0..120)) {
        let src: String = chars.into_iter().collect();
        parses_or_fails_cleanly(&src)?;
    }

    #[test]
    fn token_soups_never_panic(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..60),
        spaced in 0u8..2,
    ) {
        let sep = if spaced == 1 { " " } else { "" };
        let src = picks.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(sep);
        parses_or_fails_cleanly(&src)?;
    }

    #[test]
    fn edited_random_programs_never_panic(
        seed in 0u64..100_000,
        methods in 1usize..4,
        depth in 0usize..3,
        edit in 0u8..3,
        at in 0usize..10_000,
        c in char_strategy(),
    ) {
        let mut chars = printed_random_program(seed, methods, depth);
        let at = at % (chars.len() + 1);
        match edit {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => chars.insert(at, c),
            _ => chars.truncate(at),
        }
        let src: String = chars.into_iter().collect();
        parses_or_fails_cleanly(&src)?;
    }
}

/// A named skip prints as the `name;` shorthand, which reads back as an
/// instruction when the name is a keyword; such names print in full.
#[test]
fn keyword_named_skips_round_trip() {
    for kw in ["skip", "async", "finish", "while"] {
        parses_or_fails_cleanly(&format!("def main() {{ {kw}: skip; }}")).unwrap();
    }
}
