//! Lexing for the lint pass: a token stream plus the legacy blanker.
//!
//! Two layers share the low-level literal/comment handling:
//!
//! * [`tokenize`] — the real lexer. Produces a [`Token`] stream
//!   (identifiers, numbers, punctuation, string/char literals,
//!   lifetimes) with line/offset information, plus the comment list
//!   (waiver comments live there). The parser ([`crate::parse`]) and
//!   every rule in [`crate::rules`] run on this stream.
//! * `blank_noncode` / `cfg_test_spans` — the original seed scanner's
//!   view: source with comment and literal *contents* replaced by
//!   spaces, 1:1. Compiled only for unit tests, so the legacy scanner
//!   (`crate::legacy`) still runs there; a workspace test asserts the
//!   token-based pass and the legacy pass agree on every finding of
//!   the three original rules.

/// Token classes the lexer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (including exponent and type suffix).
    Number,
    /// String literal (plain, raw, byte, byte-raw). Contents dropped.
    Str,
    /// Char or byte-char literal. Contents dropped.
    Char,
    /// Lifetime (or loop label), without the leading quote.
    Lifetime,
    /// A single punctuation character.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text. Empty for [`TokKind::Str`] and [`TokKind::Char`]
    /// (literal contents never reach the rules).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// Char offset of the token's first character.
    pub off: usize,
}

impl Token {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// One comment (line or block), with its inner text.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/* */` delimiters.
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: usize,
    /// Char offset of the comment's first character.
    pub off: usize,
}

/// A tokenized source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments.
///
/// The lexer is resilient rather than validating: malformed input
/// (unterminated literals, stray punctuation) never fails, it just
/// produces best-effort tokens — the lint must not crash on the code
/// it is criticizing.
pub fn tokenize(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => i += 1,
            '/' if matches!(b.get(i + 1), Some('/')) => {
                let start = i;
                let start_line = line;
                i += 2;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: b[start + 2..i].iter().collect(),
                    line: start_line,
                    off: start,
                });
            }
            '/' if matches!(b.get(i + 1), Some('*')) => {
                let start = i;
                let start_line = line;
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == '/' && matches!(b.get(i + 1), Some('*')) {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && matches!(b.get(i + 1), Some('/')) {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start + 2);
                out.comments.push(Comment {
                    text: b[start + 2..end.min(b.len())].iter().collect(),
                    line: start_line,
                    off: start,
                });
            }
            '"' => {
                let start = i;
                let start_line = line;
                i = skip_string(&b, i, &mut line);
                push(&mut out, TokKind::Str, String::new(), start_line, start);
                let _ = i;
            }
            '\'' => {
                let start = i;
                let start_line = line;
                // Escape form is always a char literal; the 'x' form
                // is a char literal iff a quote closes it one char
                // later; everything else is a lifetime or loop label.
                if matches!(b.get(i + 1), Some('\\')) {
                    i = skip_char_literal(&b, i, &mut line);
                    push(&mut out, TokKind::Char, String::new(), start_line, start);
                } else if matches!(b.get(i + 2), Some('\'')) {
                    if b.get(i + 1) == Some(&'\n') {
                        line += 1;
                    }
                    i += 3;
                    push(&mut out, TokKind::Char, String::new(), start_line, start);
                } else {
                    i += 1;
                    let name_start = i;
                    while matches!(b.get(i), Some(&c) if is_ident_char(c)) {
                        i += 1;
                    }
                    let text: String = b[name_start..i].iter().collect();
                    push(&mut out, TokKind::Lifetime, text, start_line, start);
                }
            }
            'r' if raw_string_at(&b, i) => {
                let start = i;
                let start_line = line;
                i = skip_raw_string(&b, i, &mut line);
                push(&mut out, TokKind::Str, String::new(), start_line, start);
            }
            'b' if matches!(b.get(i + 1), Some('"')) => {
                let start = i;
                let start_line = line;
                i = skip_string(&b, i + 1, &mut line);
                push(&mut out, TokKind::Str, String::new(), start_line, start);
            }
            'b' if matches!(b.get(i + 1), Some('r')) && raw_string_at(&b, i + 1) => {
                let start = i;
                let start_line = line;
                i = skip_raw_string(&b, i + 1, &mut line);
                push(&mut out, TokKind::Str, String::new(), start_line, start);
            }
            'b' if matches!(b.get(i + 1), Some('\'')) => {
                let start = i;
                let start_line = line;
                let after = i + 1;
                if matches!(b.get(after + 1), Some('\\')) {
                    i = skip_char_literal(&b, after, &mut line);
                } else if matches!(b.get(after + 2), Some('\'')) {
                    i = after + 3;
                } else {
                    i = after + 1;
                }
                push(&mut out, TokKind::Char, String::new(), start_line, start);
            }
            _ if is_ident_start(c) => {
                let start = i;
                while matches!(b.get(i), Some(&c) if is_ident_char(c)) {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                push(&mut out, TokKind::Ident, text, line, start);
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                i = skip_number(&b, i);
                let text: String = b[start..i].iter().collect();
                push(&mut out, TokKind::Number, text, line, start);
            }
            _ => {
                push(&mut out, TokKind::Punct, c.to_string(), line, i);
                i += 1;
            }
        }
    }
    out
}

fn push(out: &mut Lexed, kind: TokKind, text: String, line: usize, off: usize) {
    out.tokens.push(Token {
        kind,
        text,
        line,
        off,
    });
}

/// Skips a `"..."` literal starting at `b[i] == '"'`; returns the
/// index past the closing quote, counting newlines into `line`.
fn skip_string(b: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            '\\' if i + 1 < b.len() => {
                if b[i + 1] == '\n' {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Whether `b[i..]` starts a raw string: `r`, zero or more `#`, `"`.
fn raw_string_at(b: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while matches!(b.get(j), Some('#')) {
        j += 1;
    }
    matches!(b.get(j), Some('"'))
}

/// Skips a raw string starting at `b[i] == 'r'`; returns the index
/// past the closing delimiter.
fn skip_raw_string(b: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    let mut hashes = 0usize;
    while matches!(b.get(i), Some('#')) {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == '"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        }
        if b[i] == '\n' {
            *line += 1;
        }
        i += 1;
    }
    i
}

/// Skips an escape-form char literal starting at `b[i] == '\''`;
/// returns the index past the closing quote.
fn skip_char_literal(b: &[char], i: usize, line: &mut usize) -> usize {
    let mut j = i + 1;
    while j < b.len() && b[j] != '\'' {
        if b[j] == '\\' && j + 1 < b.len() {
            j += 2;
        } else {
            if b[j] == '\n' {
                *line += 1;
            }
            j += 1;
        }
    }
    if j < b.len() {
        j + 1
    } else {
        j
    }
}

/// Skips a numeric literal starting at an ASCII digit: integer or
/// float body (decimal point only when followed by a digit, exponent
/// only when well-formed), then any alphanumeric type suffix — so
/// `1e9`, `1024.0`, `21e3`, `1u64`, and `0x1F` each lex as one token
/// whose exact text the rules can compare against.
fn skip_number(b: &[char], mut i: usize) -> usize {
    if b[i] == '0' && matches!(b.get(i + 1), Some('x' | 'X' | 'o' | 'b')) {
        i += 2;
    } else {
        while matches!(b.get(i), Some(&c) if c.is_ascii_digit() || c == '_') {
            i += 1;
        }
        if matches!(b.get(i), Some('.')) && matches!(b.get(i + 1), Some(&c) if c.is_ascii_digit()) {
            i += 1;
            while matches!(b.get(i), Some(&c) if c.is_ascii_digit() || c == '_') {
                i += 1;
            }
        }
        if matches!(b.get(i), Some('e' | 'E')) {
            let sign = usize::from(matches!(b.get(i + 1), Some('+' | '-')));
            if matches!(b.get(i + 1 + sign), Some(&c) if c.is_ascii_digit()) {
                i += 1 + sign;
            }
        }
    }
    while matches!(b.get(i), Some(&c) if is_ident_char(c)) {
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Legacy blanking view (seed scanner support; compiled for tests only)
// ---------------------------------------------------------------------------

/// Returns `src` with comment and literal contents replaced by
/// spaces. Output has the same character count and the same newline
/// positions as the input, so char offsets and line numbers carry
/// over directly.
#[cfg(test)]
pub fn blank_noncode(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            '/' if matches!(b.get(i + 1), Some('/')) => {
                while i < b.len() && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if matches!(b.get(i + 1), Some('*')) => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == '/' && matches!(b.get(i + 1), Some('*')) {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == '*' && matches!(b.get(i + 1), Some('/')) {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if b[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            '"' => i = blank_string(&b, i, &mut out),
            'r' if raw_string_at(&b, i) && !ident_before(&b, i) => {
                i = blank_raw_string(&b, i, &mut out);
            }
            'b' if matches!(b.get(i + 1), Some('"')) && !ident_before(&b, i) => {
                out.push('b');
                i = blank_string(&b, i + 1, &mut out);
            }
            'b' if matches!(b.get(i + 1), Some('r'))
                && raw_string_at(&b, i + 1)
                && !ident_before(&b, i) =>
            {
                out.push('b');
                i = blank_raw_string(&b, i + 1, &mut out);
            }
            '\'' => i = blank_char_or_lifetime(&b, i, &mut out),
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Blanks a `"..."` literal starting at `b[i] == '"'`; returns the
/// index past the closing quote.
#[cfg(test)]
fn blank_string(b: &[char], mut i: usize, out: &mut String) -> usize {
    out.push('"');
    i += 1;
    while i < b.len() {
        if b[i] == '\\' && i + 1 < b.len() {
            // An escaped newline (string line-continuation) must stay
            // a newline in the blanked text, or every line number
            // after it shifts by one.
            out.push(' ');
            out.push(if b[i + 1] == '\n' { '\n' } else { ' ' });
            i += 2;
        } else if b[i] == '"' {
            out.push('"');
            return i + 1;
        } else {
            out.push(if b[i] == '\n' { '\n' } else { ' ' });
            i += 1;
        }
    }
    i
}

/// Whether the char before `b[i]` continues an identifier (so this
/// `r`/`b` is part of a name, not a literal prefix).
#[cfg(test)]
fn ident_before(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// Blanks a raw string starting at `b[i] == 'r'`; returns the index
/// past the closing delimiter.
#[cfg(test)]
fn blank_raw_string(b: &[char], mut i: usize, out: &mut String) -> usize {
    out.push('r');
    i += 1;
    let mut hashes = 0usize;
    while matches!(b.get(i), Some('#')) {
        out.push('#');
        hashes += 1;
        i += 1;
    }
    out.push('"');
    i += 1;
    while i < b.len() {
        if b[i] == '"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            out.push('"');
            i += 1;
            for _ in 0..hashes {
                out.push('#');
                i += 1;
            }
            return i;
        }
        out.push(if b[i] == '\n' { '\n' } else { ' ' });
        i += 1;
    }
    i
}

/// Blanks a char literal, or passes a lifetime through unchanged;
/// returns the index past what was consumed.
#[cfg(test)]
fn blank_char_or_lifetime(b: &[char], i: usize, out: &mut String) -> usize {
    // '\x' escape form: always a char literal.
    if matches!(b.get(i + 1), Some('\\')) {
        out.push('\'');
        let mut j = i + 1;
        while j < b.len() && b[j] != '\'' {
            if b[j] == '\\' && j + 1 < b.len() {
                out.push_str("  ");
                j += 2;
            } else {
                out.push(' ');
                j += 1;
            }
        }
        if j < b.len() {
            out.push('\'');
            j += 1;
        }
        return j;
    }
    // 'x' form: char literal iff a closing quote follows one char.
    if matches!(b.get(i + 2), Some('\'')) {
        out.push('\'');
        out.push(if b[i + 1] == '\n' { '\n' } else { ' ' });
        out.push('\'');
        return i + 3;
    }
    // Otherwise a lifetime: pass through.
    out.push('\'');
    i + 1
}

/// Char-index spans of `#[cfg(test)]`-gated items in blanked source
/// (the attribute through the matching close brace of the item body).
#[cfg(test)]
pub fn cfg_test_spans(blanked: &str) -> Vec<(usize, usize)> {
    let b: Vec<char> = blanked.chars().collect();
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i + needle.len() <= b.len() {
        if b[i..i + needle.len()] != needle[..] {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + needle.len();
        // Find the gated item's opening brace (or bail at a `;` —
        // e.g. `#[cfg(test)] mod external;`).
        while j < b.len() && b[j] != '{' && b[j] != ';' {
            j += 1;
        }
        if j >= b.len() || b[j] == ';' {
            spans.push((start, j.min(b.len())));
            i = j;
            continue;
        }
        let mut depth = 0usize;
        while j < b.len() {
            match b[j] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((start, j.min(b.len())));
        i = j + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_and_block_comments() {
        let out = blank_noncode("let x = 1; // unwrap() here\n/* panic!( */ let y = 2;");
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("panic"));
        assert!(out.contains("let x = 1;"));
        assert!(out.contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let out = blank_noncode("a /* outer /* inner */ still */ b");
        assert!(out.starts_with('a'));
        assert!(out.ends_with('b'));
        assert!(!out.contains("inner"));
        assert!(!out.contains("still"));
    }

    #[test]
    fn blanks_string_contents_but_keeps_quotes() {
        let out = blank_noncode(r#"let s = "call .unwrap() now"; s.len()"#);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("s.len()"));
        assert_eq!(out.matches('"').count(), 2);
    }

    #[test]
    fn handles_escapes_and_raw_strings() {
        let out = blank_noncode(r##"let a = "q\"panic!(\""; let b = r#"1e9 "inner" 1e9"#;"##);
        assert!(!out.contains("panic"));
        assert!(!out.contains("1e9"));
        assert!(out.contains("let b = r#\""));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let out = blank_noncode("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\n'; }");
        assert!(out.contains("<'a>"));
        assert!(out.contains("&'a str"));
        assert!(!out.contains('x') || !out.contains("'x'"));
    }

    #[test]
    fn preserves_length_and_newlines() {
        let src = "let a = \"two\nlines\"; // c\nlet b = 1;";
        let out = blank_noncode(src);
        assert_eq!(src.chars().count(), out.chars().count());
        assert_eq!(
            src.chars().filter(|&c| c == '\n').count(),
            out.chars().filter(|&c| c == '\n').count()
        );
    }

    #[test]
    fn finds_cfg_test_mod_spans() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap() }\n}\nfn after() {}";
        let blanked = blank_noncode(src);
        let spans = cfg_test_spans(&blanked);
        assert_eq!(spans.len(), 1);
        let chars: Vec<char> = blanked.chars().collect();
        let inside: String = chars[spans[0].0..spans[0].1].iter().collect();
        assert!(inside.contains("unwrap"));
        let lib_pos = blanked.find("fn lib").unwrap();
        let after_pos = blanked.find("fn after").unwrap();
        assert!(lib_pos < spans[0].0);
        assert!(after_pos > spans[0].1);
    }

    // -- token lexer ------------------------------------------------------

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn tokenizes_idents_numbers_and_puncts() {
        let toks = kinds("let x = 1e9 + 1024.0;");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Number, "1e9".into()),
                (TokKind::Punct, "+".into()),
                (TokKind::Number, "1024.0".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        // The unit-factor rule compares exact token text: neighbors
        // of the banned factors must not split into a banned token.
        for (src, expect) in [
            ("21e3", "21e3"),
            ("1e30", "1e30"),
            ("0.1e3", "0.1e3"),
            ("1.0e9", "1.0e9"),
            ("1e9f64", "1e9f64"),
            ("1u64", "1u64"),
            ("0x1e3", "0x1e3"),
            ("1_000", "1_000"),
        ] {
            let toks = kinds(src);
            assert_eq!(toks.len(), 1, "{src}: {toks:?}");
            assert_eq!(toks[0], (TokKind::Number, expect.into()), "{src}");
        }
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let lexed = tokenize("a // trailing note\n/* block\ncomment */ b");
        let idents: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, vec!["a", "b"]);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].text.trim(), "trailing note");
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[1].text.contains("comment"));
        assert_eq!(lexed.tokens[1].line, 3);
    }

    #[test]
    fn string_contents_never_become_tokens() {
        let lexed = tokenize(r##"f("has .unwrap() and 1e9", r#"raw "inner" 1e9"#, b"bytes")"##);
        assert!(lexed
            .tokens
            .iter()
            .all(|t| t.text != "unwrap" && t.text != "1e9" && t.text != "inner"));
        let strs = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn raw_string_hash_variants_terminate_correctly() {
        // `r#"…"#` may contain bare quotes; the delimiter needs the
        // matching hash count. Code after must still tokenize.
        let lexed = tokenize(r###"let x = r##"a "# quote"## ; trailing"###);
        let idents: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, vec!["let", "x", "=", "", ";", "trailing"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lexed = tokenize("fn f<'a>(x: &'a str) { ('x', '\\n', b'y', 'outer: loop {}) }");
        let lifetimes: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "outer"]);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        // '"' must lex as a char, or everything after would be
        // swallowed as string contents.
        let lexed = tokenize("let q = '\"'; x.unwrap()");
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"unwrap"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let lexed = tokenize("let r = 1; r#match");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("r")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("match")));
    }

    #[test]
    fn lines_track_through_multiline_literals() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let lexed = tokenize(src);
        let b_tok = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
    }
}
