//! Rust lexer for the in-repo AST engine.
//!
//! The workspace builds offline with zero external dependencies, so the
//! analysis engine cannot use `syn`/`proc-macro2`; this lexer is the
//! bottom layer of a hand-rolled equivalent. It turns source text into a
//! flat token stream with line information, classifying identifiers,
//! literals, punctuation (multi-character operators joined), delimiters,
//! and lifetimes. Comments and whitespace produce no tokens; string and
//! char literal *contents* are dropped (only the fact that a literal
//! occurred survives), so no pass can ever fire on prose or quoted text.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `as`, `x0`, …).
    Ident,
    /// Lifetime (`'a`) — the text excludes the quote.
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u32`).
    Int,
    /// Float literal (`1.0`, `2e-9`, `3.5f32`).
    Float,
    /// String / raw-string / byte-string literal (contents dropped).
    Str,
    /// Char or byte literal (contents dropped).
    Char,
    /// Punctuation; multi-char operators are one token (`==`, `->`, `::`).
    Punct,
    /// Opening delimiter: `(`, `[` or `{`.
    Open,
    /// Closing delimiter: `)`, `]` or `}`.
    Close,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's lexical class.
    pub kind: Kind,
    /// Token text; empty-ish placeholder (`"`/`'`) for literal contents.
    pub text: String,
    /// 0-based source line of the token's first character.
    pub line: usize,
}

impl Token {
    /// Whether this is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Whether this is punctuation with exactly this text.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == Kind::Punct && self.text == s
    }
}

/// Multi-character operators, longest first so maximal munch works.
const JOINED: &[&str] = &[
    "..=", "...", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "=>", "::",
    "..", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes `src` into tokens. Never fails: unrecognized bytes become
/// single-character punctuation so analysis degrades gracefully on
/// malformed input instead of aborting the lint run.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                let mut depth = 0usize;
                while i < chars.len() {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                out.push(Token {
                    kind: Kind::Str,
                    text: String::from("\""),
                    line,
                });
                i = skip_string(&chars, i, &mut line);
            }
            'r' | 'b' if is_string_prefix(&chars, i) => {
                out.push(Token {
                    kind: Kind::Str,
                    text: String::from("\""),
                    line,
                });
                i = skip_prefixed_string(&chars, i, &mut line);
            }
            '\'' => {
                // Char literal vs lifetime: a char literal closes within a
                // short window; a lifetime never has a closing quote.
                if let Some(end) = char_literal_end(&chars, i) {
                    out.push(Token {
                        kind: Kind::Char,
                        text: String::from("'"),
                        line,
                    });
                    i = end + 1;
                } else {
                    let start = i + 1;
                    let mut j = start;
                    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    out.push(Token {
                        kind: Kind::Lifetime,
                        text: chars[start..j].iter().collect(),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    kind: Kind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let (tok, end) = lex_number(&chars, i, line);
                out.push(tok);
                i = end;
            }
            '(' | '[' | '{' => {
                out.push(Token {
                    kind: Kind::Open,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
            ')' | ']' | '}' => {
                out.push(Token {
                    kind: Kind::Close,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
            _ => {
                let mut matched = None;
                for op in JOINED {
                    if chars[i..].starts_with(&op.chars().collect::<Vec<_>>()[..]) {
                        matched = Some(*op);
                        break;
                    }
                }
                let text = matched.map_or_else(|| c.to_string(), str::to_string);
                i += text.chars().count();
                out.push(Token {
                    kind: Kind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    out
}

/// Lexes a numeric literal starting at `i`; returns the token and the index
/// one past its end.
fn lex_number(chars: &[char], i: usize, line: usize) -> (Token, usize) {
    let start = i;
    let mut j = i;
    let mut is_float = false;
    if chars[j] == '0' && matches!(chars.get(j + 1), Some('x' | 'o' | 'b')) {
        j += 2;
        while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
    } else {
        while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
        // A dot starts a fractional part only when not `..` (range) and not
        // a method call on a literal (`1.min(2)`).
        if chars.get(j) == Some(&'.')
            && chars.get(j + 1) != Some(&'.')
            && !chars
                .get(j + 1)
                .is_some_and(|c| c.is_alphabetic() || *c == '_')
        {
            is_float = true;
            j += 1;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
        if matches!(chars.get(j), Some('e' | 'E'))
            && (chars.get(j + 1).is_some_and(char::is_ascii_digit)
                || (matches!(chars.get(j + 1), Some('+' | '-'))
                    && chars.get(j + 2).is_some_and(char::is_ascii_digit)))
        {
            is_float = true;
            j += 1;
            if matches!(chars.get(j), Some('+' | '-')) {
                j += 1;
            }
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
        // Type suffix (`u32`, `f64`, `usize`, …) glues onto the literal.
        if chars.get(j).is_some_and(char::is_ascii_alphabetic) {
            let suffix_start = j;
            while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let suffix: String = chars[suffix_start..j].iter().collect();
            if suffix.starts_with('f') {
                is_float = true;
            }
        }
    }
    (
        Token {
            kind: if is_float { Kind::Float } else { Kind::Int },
            text: chars[start..j].iter().collect(),
            line,
        },
        j,
    )
}

fn is_string_prefix(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let p = chars[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false; // `for` ends in 'r', `b` could end an ident
        }
    }
    let mut j = i;
    while j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') && j - i < 2 {
        j += 1;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn skip_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
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

fn skip_prefixed_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut i = start;
    let mut raw = false;
    while i < chars.len() && (chars[i] == 'r' || chars[i] == 'b') {
        raw |= chars[i] == 'r';
        i += 1;
    }
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if !raw {
        return skip_string(chars, i, line);
    }
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
            return i + 1 + hashes;
        }
        if chars[i] == '\n' {
            *line += 1;
        }
        i += 1;
    }
    i
}

fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => (i + 3..(i + 12).min(chars.len())).find(|&k| chars[k] == '\''),
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 2),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_and_delims() {
        let toks = lex("fn f(x: u8) -> u8 { x }");
        let kinds: Vec<Kind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                Kind::Ident,
                Kind::Ident,
                Kind::Open,
                Kind::Ident,
                Kind::Punct,
                Kind::Ident,
                Kind::Close,
                Kind::Punct,
                Kind::Ident,
                Kind::Open,
                Kind::Ident,
                Kind::Close,
            ]
        );
        assert!(toks[7].is_punct("->"));
    }

    #[test]
    fn multi_char_operators_join() {
        assert_eq!(
            texts("a == b != c <= d >> e :: f"),
            vec!["a", "==", "b", "!=", "c", "<=", "d", ">>", "e", "::", "f"]
        );
    }

    #[test]
    fn comments_and_strings_vanish() {
        let toks = lex("x // unwrap()\ny /* panic! */ z \"s == 1.0\" w");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["x", "y", "z", "w"]);
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Str).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings_are_single_tokens() {
        let toks = lex("let r = r#\"un\"wrap\"# ; let b = b\"bytes\" ;");
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Str).count(), 2);
        assert!(toks.iter().any(|t| t.is_ident("let")));
        assert!(!toks.iter().any(|t| t.text.contains("wrap")));
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let toks = lex("1 2.5 1e-9 0xFF 3f64 1_000 4u32 1.min 0..5");
        let kinds: Vec<(Kind, &str)> = toks
            .iter()
            .filter(|t| matches!(t.kind, Kind::Int | Kind::Float))
            .map(|t| (t.kind, t.text.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (Kind::Int, "1"),
                (Kind::Float, "2.5"),
                (Kind::Float, "1e-9"),
                (Kind::Int, "0xFF"),
                (Kind::Float, "3f64"),
                (Kind::Int, "1_000"),
                (Kind::Int, "4u32"),
                (Kind::Int, "1"),
                (Kind::Int, "0"),
                (Kind::Int, "5"),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Char).count(), 2);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc /* x\ny */ d\n\"s1\ns2\" e");
        let find = |name: &str| toks.iter().find(|t| t.is_ident(name)).map(|t| t.line);
        assert_eq!(find("a"), Some(0));
        assert_eq!(find("b"), Some(1));
        assert_eq!(find("c"), Some(3));
        assert_eq!(find("d"), Some(4));
        assert_eq!(find("e"), Some(6));
    }
}
