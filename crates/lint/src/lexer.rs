//! A minimal Rust lexer, just deep enough for the lint rules.
//!
//! The build environment is offline, so a full parser (`syn`) is not
//! available; the rules in [`crate::rules`] only need token shapes with
//! line numbers, which a hand-rolled lexer delivers reliably. The lexer's
//! one hard job is *never* to misread code inside comments, strings, char
//! literals or raw strings as live tokens — every rule's soundness rests
//! on that, so the literal grammar below is implemented in full:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments;
//! * string, byte-string, raw-string (`r"…"`, `r#"…"#`, any `#` depth)
//!   and C-string literals, with escape sequences;
//! * char literals vs. lifetimes (`'a'` vs. `'a`);
//! * numeric literals including type suffixes (`4u64`, `0x1f`, `1_000`).
//!
//! Comments produce no tokens.

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including the wildcard pattern `_`).
    Ident,
    /// Numeric, string, char or byte literal.
    Literal,
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
    /// A single punctuation character (`.`, `[`, `%`, …). Multi-character
    /// operators appear as consecutive punct tokens; rules that need
    /// `=>`-style pairs check adjacency themselves.
    Punct(char),
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Source text for identifiers; empty for literals and puncts (the
    /// rules never need literal contents, and dropping them keeps rule
    /// string-matching from ever seeing quoted text).
    pub text: String,
    /// 1-based line number.
    pub line: u32,
}

/// Lexes `src` into tokens.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: &str, line: u32) {
        self.tokens.push(Token {
            kind,
            text: text.to_owned(),
            line,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' | 'b' | 'c' if self.raw_or_byte_prefix() => { /* consumed */ }
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                '\'' => self.quote(),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct(c), "", line);
                }
            }
        }
        self.tokens
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"` and
    /// plain identifiers starting with those letters. Returns true when it
    /// consumed something.
    fn raw_or_byte_prefix(&mut self) -> bool {
        // Collect the prefix letters (at most two of r/b/c).
        let mut prefix = String::new();
        for ahead in 0..2 {
            match self.peek(ahead) {
                Some(c @ ('r' | 'b' | 'c')) => prefix.push(c),
                _ => break,
            }
        }
        let after = self.peek(prefix.len());
        match after {
            Some('"') => {
                for _ in 0..prefix.len() {
                    self.bump();
                }
                if prefix.contains('r') {
                    self.raw_string();
                } else {
                    self.string();
                }
                true
            }
            Some('#') if prefix.contains('r') => {
                // Could be r#"…"# or a raw identifier r#foo.
                let mut hashes = 0usize;
                while self.peek(prefix.len() + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(prefix.len() + hashes) == Some('"') {
                    for _ in 0..prefix.len() {
                        self.bump();
                    }
                    self.raw_string();
                    true
                } else {
                    false // raw identifier; lex as ident below
                }
            }
            Some('\'') if prefix == "b" => {
                self.bump();
                self.quote();
                true
            }
            _ => false,
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Literal, "", line);
    }

    fn raw_string(&mut self) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for ahead in 0..hashes {
                    if self.peek(ahead) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Literal, "", line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        // Raw identifier prefix r# — consume silently.
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, &text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // Fractional part — but not a `1..n` range.
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Literal, "", line);
    }

    /// Disambiguates char literals from lifetimes at a `'`.
    fn quote(&mut self) {
        let line = self.line;
        self.bump(); // the quote
        let first = self.peek(0);
        let second = self.peek(1);
        let is_lifetime =
            matches!(first, Some(c) if c.is_alphabetic() || c == '_') && second != Some('\'');
        if is_lifetime {
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, &text, line);
        } else {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokenKind::Literal, "", line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn code_inside_literals_and_comments_is_invisible() {
        let src = r###"
            // thread_rng in a comment
            /* nested /* thread_rng */ here */
            let a = "thread_rng";
            let b = r#"thread_rng"#;
            let c = 'x';
            let d = b"thread_rng";
            real_ident();
        "###;
        let names = idents(src);
        assert!(!names.iter().any(|n| n == "thread_rng"), "{names:?}");
        assert!(names.iter().any(|n| n == "real_ident"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let tokens = lex("fn f<'a>(x: &'a str) -> char { 'b' }");
        let lifetimes: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert_eq!(
            tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            1
        );
    }

    #[test]
    fn lines_are_tracked() {
        let tokens = lex("a\nb // note\n/* two\nlines */ c");
        let line_of = |name: &str| tokens.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 2);
        assert_eq!(line_of("c"), 4);
        assert_eq!(tokens.len(), 3, "comments produce no tokens");
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let names = idents(r#"let x = "a \" unwrap \" b"; tail"#);
        assert_eq!(names, ["let", "x", "tail"]);
    }

    #[test]
    fn numeric_suffixes_and_ranges_lex_cleanly() {
        let tokens = lex("0..n, 4u64, 0x1f, 1_000, 2.5");
        let puncts: Vec<char> = tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        // The `..` of the range survives as two dots; 2.5 keeps its dot
        // inside the literal.
        assert_eq!(puncts.iter().filter(|&&c| c == '.').count(), 2);
    }
}
