//! A lightweight Rust lexer: just enough token structure for the lint
//! rules, with comments and literals stripped out of the token stream so
//! rules never false-positive on text inside a string or a comment.
//!
//! The lexer is intentionally *not* a full Rust grammar. It produces a
//! flat token stream (identifiers, punctuation, literals) annotated with
//! line numbers, plus three per-line side tables the rules need:
//!
//! * **doc-comment lines** (`///`, `//!`, `/** */`, `/*! */`) — consumed
//!   by the `pub-item-docs` rule;
//! * **annotation comments** (`// em-lint: allow(<rule>) -- <reason>` and
//!   `// em-lint: sanitize(<rule>) -- <reason>`) — consumed by the engine
//!   when filtering violations and by the taint pass for sanitizers;
//! * **code lines** — lines carrying at least one token, used to resolve
//!   which line a standalone suppression comment covers.
//!
//! Handled literal forms: strings with escapes, raw strings with any
//! number of `#`s, byte/raw-byte strings, char literals vs. lifetimes,
//! and nested block comments — all the places a naive `grep`-based lint
//! would misfire.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based source line of the token's first character.
    pub line: usize,
}

/// The kinds of token the rules distinguish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`let`, `partial_cmp`, `HashMap`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `(`, `[`, `#`, ...).
    Punct(char),
    /// Any literal (string, char, number); payload dropped — rules only
    /// need to know a literal occupied the slot.
    Literal,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is exactly the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }
}

/// What an `em-lint:` annotation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// `allow(rule)` — silences findings of `rule` on the covered line
    /// (or, for reachability rules, on the covered function).
    Allow,
    /// `sanitize(rule)` — declares the covered *function* a sanitizer:
    /// dataflow rules treat it as neither sourcing nor propagating the
    /// named taint (DESIGN.md §13). Only meaningful on a function.
    Sanitize,
}

/// A parsed `// em-lint: allow(...)` / `// em-lint: sanitize(...)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Whether this is an `allow` or a `sanitize` annotation.
    pub kind: AnnotationKind,
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rule names listed inside `allow(...)`, comma-separated.
    pub rules: Vec<String>,
    /// The justification after ` -- `; `None` when missing or empty
    /// (which the engine reports as a violation of its own).
    pub reason: Option<String>,
    /// Whether code tokens precede the comment on the same line (a
    /// trailing suppression covers its own line; a standalone one covers
    /// the next code line).
    pub trailing: bool,
}

/// The lexed view of one source file.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    /// The token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Total number of lines in the file.
    pub n_lines: usize,
    /// `doc_lines[i]` — line `i + 1` is (part of) a doc comment.
    pub doc_lines: Vec<bool>,
    /// `code_lines[i]` — line `i + 1` carries at least one token.
    pub code_lines: Vec<bool>,
    /// All `em-lint:` suppression comments found, in file order.
    pub suppressions: Vec<Suppression>,
    /// Malformed `em-lint:` comments (line, description) — e.g. a marker
    /// without a parsable `allow(...)` clause.
    pub malformed: Vec<(usize, String)>,
}

/// Lexes `source` into tokens plus the per-line side tables.
pub fn lex(source: &str) -> LexedFile {
    Lexer::new(source).run()
}

/// Index of the `close` token that balances the `open` token at
/// `toks[at]`, or `toks.len()` if it is never closed.
pub fn matching_group(toks: &[Token], at: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = at;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    out: LexedFile,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        let n_lines = source.lines().count();
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            out: LexedFile {
                n_lines,
                doc_lines: vec![false; n_lines],
                code_lines: vec![false; n_lines],
                ..LexedFile::default()
            },
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn mark_line(table: &mut [bool], line: usize) {
        if let Some(slot) = table.get_mut(line.wrapping_sub(1)) {
            *slot = true;
        }
    }

    fn push_token(&mut self, kind: TokenKind, line: usize) {
        Self::mark_line(&mut self.out.code_lines, line);
        self.out.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> LexedFile {
        while let Some(b) = self.peek(0) {
            match b {
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_literal(),
                b'r' | b'b' if self.raw_or_byte_prefix() => {}
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                b if b.is_ascii_whitespace() => {
                    self.bump();
                }
                _ => {
                    let line = self.line;
                    let c = self.bump().expect("peeked byte") as char;
                    self.push_token(TokenKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    /// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'`. Returns
    /// false (consuming nothing) when the `r`/`b` starts a plain identifier.
    ///
    /// Plain byte strings (`b"..."`) process backslash escapes like normal
    /// strings; only `r`-prefixed forms are raw. Routing `b"..."` through
    /// the raw-body reader (the pre-v2 behavior) desyncs on `b"\""`: the
    /// escaped quote terminates the literal early and the rest of the file
    /// lexes inside-out.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let is_raw = self.peek(0) == Some(b'r')
            || (self.peek(0) == Some(b'b') && self.peek(1) == Some(b'r'));
        let mut ahead = 1;
        if self.peek(0) == Some(b'b') && self.peek(1) == Some(b'r') {
            ahead = 2;
        }
        let mut hashes = 0;
        while is_raw && self.peek(ahead) == Some(b'#') {
            ahead += 1;
            hashes += 1;
        }
        match self.peek(ahead) {
            Some(b'"') => {
                let line = self.line;
                for _ in 0..ahead {
                    self.bump(); // the r/b/br prefix and any opening #s
                }
                if is_raw {
                    self.bump(); // opening quote
                    self.raw_string_body(hashes);
                    self.push_token(TokenKind::Literal, line);
                } else {
                    // `b"..."` — escaped like a normal string.
                    self.string_literal();
                }
                true
            }
            Some(b'\'') if hashes == 0 && self.peek(0) == Some(b'b') && ahead == 1 => {
                let line = self.line;
                self.bump(); // b
                self.char_body();
                self.push_token(TokenKind::Literal, line);
                true
            }
            _ => false,
        }
    }

    fn raw_string_body(&mut self, hashes: usize) {
        // Opening quote already consumed; read until `"` followed by
        // `hashes` `#`s.
        while let Some(b) = self.bump() {
            if b == b'"' {
                let mut seen = 0;
                while seen < hashes && self.peek(0) == Some(b'#') {
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
        }
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
        self.push_token(TokenKind::Literal, line);
    }

    /// Consumes the body of a char literal after the opening `'`.
    fn char_body(&mut self) {
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // `'a'` is a char; `'a` (no closing quote right after) a lifetime.
        let second = self.peek(1);
        let is_char = match second {
            Some(b'\\') => true,
            Some(_) => self.peek(2) == Some(b'\''),
            None => false,
        };
        if is_char {
            self.char_body();
            self.push_token(TokenKind::Literal, line);
        } else {
            self.bump(); // the quote
            while matches!(self.peek(0), Some(b) if b == b'_' || b.is_ascii_alphanumeric()) {
                self.bump();
            }
            Self::mark_line(&mut self.out.code_lines, line);
            // Lifetimes carry no rule signal; drop them.
        }
    }

    fn number(&mut self) {
        let line = self.line;
        // Digits, underscores, type suffixes, hex letters; a `.` only when
        // followed by a digit (so `0.5` is one literal but `x.iter()` after
        // a number-ending expression still tokenizes the dot).
        let mut prev = 0u8;
        while let Some(b) = self.peek(0) {
            if b.is_ascii_alphanumeric()
                || b == b'_'
                || (b == b'.' && matches!(self.peek(1), Some(d) if d.is_ascii_digit()))
            {
                prev = b;
                self.bump();
            } else if (b == b'+' || b == b'-')
                && matches!(prev, b'e' | b'E')
                && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
            {
                // Signed exponent: `0.5e-3`, `1E+9`.
                prev = b;
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Literal, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(self.peek(0), Some(b) if b == b'_' || b.is_ascii_alphanumeric()) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or_default()
            .to_string();
        self.push_token(TokenKind::Ident(text), line);
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or_default();
        // `///` and `//!` are docs; `////...` is a plain comment (rustdoc
        // quirk), but that distinction never matters for the rules.
        if text.starts_with("///") || text.starts_with("//!") {
            Self::mark_line(&mut self.out.doc_lines, line);
        }
        let had_code_before = self.out.code_lines.get(line - 1).copied().unwrap_or(false);
        self.parse_suppression(text, line, had_code_before);
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let is_doc = matches!(self.peek(2), Some(b'*') | Some(b'!'))
            // `/**/` is an empty plain comment, not a doc comment.
            && self.peek(3) != Some(b'/');
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
        if is_doc {
            for l in line..=self.line {
                Self::mark_line(&mut self.out.doc_lines, l);
            }
        }
    }

    fn parse_suppression(&mut self, comment: &str, line: usize, trailing: bool) {
        let body = comment.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("em-lint:") else {
            return;
        };
        let rest = rest.trim();
        let (kind, args) = if let Some(args) = rest.strip_prefix("allow") {
            (AnnotationKind::Allow, args)
        } else if let Some(args) = rest.strip_prefix("sanitize") {
            (AnnotationKind::Sanitize, args)
        } else {
            self.out.malformed.push((
                line,
                format!("expected `allow(<rule>)` or `sanitize(<rule>)`, found `{rest}`"),
            ));
            return;
        };
        let args = args.trim();
        let Some(close) = args.find(')') else {
            self.out
                .malformed
                .push((line, "unclosed `allow(` clause".to_string()));
            return;
        };
        let inside = args
            .strip_prefix('(')
            .map(|a| &a[..close.saturating_sub(1)])
            .unwrap_or("");
        let rules: Vec<String> = inside
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            self.out
                .malformed
                .push((line, "empty `allow()`/`sanitize()` clause".to_string()));
            return;
        }
        let reason = args[close + 1..]
            .trim()
            .strip_prefix("--")
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty());
        self.out.suppressions.push(Suppression {
            kind,
            line,
            rules,
            reason,
            trailing,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_produce_idents() {
        let src = r##"
// partial_cmp in a comment
/* partial_cmp in a block /* nested */ comment */
let s = "partial_cmp in a string";
let r = r#"partial_cmp in a raw "quoted" string"#;
let b = b"partial_cmp";
real_ident();
"##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"partial_cmp".to_string()));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let ids = idents("fn f<'a>(x: &'a str) { m('x', '\\n', b'\"'); }");
        assert_eq!(
            ids,
            vec!["fn", "f", "x", "str", "m"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn line_numbers_are_tracked() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<usize> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
        assert_eq!(lexed.n_lines, 4);
        assert!(lexed.code_lines[0] && lexed.code_lines[1]);
        assert!(!lexed.code_lines[2]);
    }

    #[test]
    fn doc_lines_are_marked() {
        let lexed = lex("/// docs\npub fn f() {}\n// plain\n");
        assert!(lexed.doc_lines[0]);
        assert!(!lexed.doc_lines[2]);
    }

    #[test]
    fn suppression_with_reason_parses() {
        let lexed = lex("x(); // em-lint: allow(float-partial-cmp) -- scores checked finite\n");
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.rules, vec!["float-partial-cmp"]);
        assert_eq!(s.reason.as_deref(), Some("scores checked finite"));
        assert!(s.trailing);
    }

    #[test]
    fn standalone_suppression_is_not_trailing() {
        let lexed = lex("// em-lint: allow(a, b) -- why\nx();\n");
        let s = &lexed.suppressions[0];
        assert_eq!(s.rules, vec!["a", "b"]);
        assert!(!s.trailing);
    }

    #[test]
    fn suppression_without_reason_has_none() {
        let lexed = lex("// em-lint: allow(float-partial-cmp)\n");
        assert_eq!(lexed.suppressions[0].reason, None);
    }

    #[test]
    fn malformed_suppression_is_reported() {
        let lexed = lex("// em-lint: disallow(x)\n");
        assert!(lexed.suppressions.is_empty());
        assert_eq!(lexed.malformed.len(), 1);
    }

    #[test]
    fn raw_string_with_hashes_terminates_correctly() {
        let ids = idents("let x = r##\"text \"# still inside\"##; after();");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn sanitize_annotation_parses_with_kind() {
        let lexed = lex("// em-lint: sanitize(nondet-taint) -- spans only observe\nfn f() {}\n");
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.kind, AnnotationKind::Sanitize);
        assert_eq!(s.rules, vec!["nondet-taint"]);
        assert_eq!(s.reason.as_deref(), Some("spans only observe"));
        assert!(!s.trailing);
    }

    #[test]
    fn allow_annotation_kind_is_allow() {
        let lexed = lex("x(); // em-lint: allow(nondet-taint) -- latency header only\n");
        assert_eq!(lexed.suppressions[0].kind, AnnotationKind::Allow);
    }

    // Regression: plain byte strings take the *escaped* path. The pre-v2
    // lexer read `b"..."` with the raw-string reader, so `b"\""`
    // terminated at the escaped quote, the tail of the literal lexed as
    // code, and everything after the next real quote was swallowed as a
    // phantom string — masking findings (or fabricating them from string
    // contents).
    #[test]
    fn byte_string_escaped_quote_does_not_desync() {
        let ids = idents("let b = b\"end\\\"quote\"; after_bytes(); let s = \"x\"; tail();");
        assert!(ids.contains(&"after_bytes".to_string()), "ids: {ids:?}");
        assert!(ids.contains(&"tail".to_string()), "ids: {ids:?}");
        assert!(!ids.contains(&"quote".to_string()), "ids: {ids:?}");
    }

    #[test]
    fn byte_string_escaped_backslash_then_real_quote_terminates() {
        // `b"a\\"` is the two bytes `a\` — the final quote closes it.
        let ids = idents("let b = b\"a\\\\\"; next_token();");
        assert!(ids.contains(&"next_token".to_string()), "ids: {ids:?}");
    }

    // Regression battery for raw strings with hashes: quote-hash
    // sequences shorter than the opener must stay inside the literal, at
    // every hash depth, including multi-line bodies and byte-raw forms.
    #[test]
    fn raw_hash_strings_with_embedded_quote_hash_sequences() {
        let cases: &[(&str, &[&str])] = &[
            // `"#` inside an `r##` string is not a terminator.
            ("let x = r##\"a \"# b\"##; ok1();", &["ok1"]),
            // A bare quote inside `r#` is not a terminator.
            ("let x = r#\"say \"hi\" twice\"#; ok2();", &["ok2"]),
            // Backslashes are not escapes in raw strings.
            ("let x = r\"back\\\"; ok3();", &["ok3"]),
            // Byte-raw with hashes behaves like raw.
            ("let x = br##\"x\"# y\"##; ok4();", &["ok4"]),
            // Extra hashes after the terminator are ordinary tokens.
            ("let x = r#\"body\"#; ok5();", &["ok5"]),
            // Multi-line raw string with inner quotes.
            ("let x = r#\"line1 \"q\"\nline2 \"#; ok6();", &["ok6"]),
        ];
        for (src, expect) in cases {
            let ids = idents(src);
            for e in *expect {
                assert!(
                    ids.contains(&e.to_string()),
                    "{src}: missing {e}, got {ids:?}"
                );
            }
            assert!(
                !ids.iter().any(|i| i == "b" || i == "body" || i == "line2"),
                "{src}: literal body leaked into tokens: {ids:?}"
            );
        }
    }

    #[test]
    fn raw_hash_string_line_numbers_survive_multiline_bodies() {
        let lexed = lex("let a = r#\"one\ntwo\nthree\"#;\nafter();\n");
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("after token");
        assert_eq!(after.line, 4);
    }

    // Regression battery for nested block comments: every nesting shape
    // must consume exactly the comment, leaving the following code intact.
    #[test]
    fn nested_block_comments_do_not_desync() {
        let cases: &[&str] = &[
            "/* a /* b */ c */ live1();",
            "/**/ live1();",
            "/* /**/ /**/ */ live1();",
            "/*/ still a comment */ live1();",
            "/* outer /* inner /* deepest */ */ */ live1();",
            "/* \"not a string */ live1(); /* trailing */",
            "/* multi\nline /* nested\n */ end */\nlive1();",
        ];
        for src in cases {
            let ids = idents(src);
            assert_eq!(
                ids.iter().filter(|i| *i == "live1").count(),
                1,
                "{src:?}: expected exactly one live1, got {ids:?}"
            );
            assert!(
                !ids.iter()
                    .any(|i| i == "a" || i == "inner" || i == "nested"),
                "{src:?}: comment body leaked: {ids:?}"
            );
        }
    }

    #[test]
    fn unterminated_nested_comment_consumes_to_eof_without_panic() {
        let ids = idents("/* open /* deeper */ never closed\nghost();");
        assert!(
            ids.is_empty(),
            "tokens fabricated from an open comment: {ids:?}"
        );
    }

    #[test]
    fn block_doc_comment_inside_code_marks_doc_lines() {
        let lexed = lex("/** doc\nspans\n*/\npub fn f() {}\n");
        assert!(lexed.doc_lines[0] && lexed.doc_lines[1] && lexed.doc_lines[2]);
        assert!(!lexed.doc_lines[3]);
    }

    #[test]
    fn numbers_including_floats_are_literals() {
        let lexed = lex("let x = 0.5e-3 + 0xff_u32 + 1_000;");
        let lits = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 3);
    }
}
