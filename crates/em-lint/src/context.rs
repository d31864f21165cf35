//! Per-file analysis context shared by all rules.
//!
//! Wraps the raw token stream from [`crate::lexer`] with the structural
//! facts rules key off:
//!
//! * which **crate** the file belongs to (derived from its
//!   workspace-relative path) and whether it is test/bench/example code;
//! * which **line ranges are test code** (`#[cfg(test)]` / `#[test]`
//!   items, resolved by brace matching), so production-only rules skip
//!   them;
//! * which local variables are **hash-ordered collections**
//!   (`HashMap`/`HashSet`), tracked from `let` statements, for the
//!   iteration-order rule.

use crate::lexer::{lex, matching_group, LexedFile, Token};
use std::collections::BTreeSet;

/// Where a file sits in the workspace, as far as rule scoping cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/<name>/src/**` or the root `src/**` — library code.
    LibrarySrc,
    /// A `src/bin/**` or `src/main.rs` target inside a crate.
    Binary,
    /// `tests/**` (crate-level or workspace-level) — integration tests.
    IntegrationTest,
    /// `examples/**`.
    Example,
    /// `benches/**`.
    Bench,
    /// `vendor/<name>/**` — vendored stand-in dependencies.
    Vendor,
}

/// The lexed file plus derived structure, handed to every rule.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate name (`em-serve`, `core`, ...; the root package is
    /// `landmark-explanation`; workspace-level `tests/` / `examples/`
    /// belong to the root package too).
    pub crate_name: String,
    /// Coarse target classification.
    pub kind: FileKind,
    /// Token stream and per-line tables.
    pub lexed: LexedFile,
    /// `test_lines[i]` — line `i + 1` is inside `#[cfg(test)]`/`#[test]`
    /// code (always all-true for [`FileKind::IntegrationTest`] files).
    pub test_lines: Vec<bool>,
    /// Identifiers bound by `let` to a `HashMap`/`HashSet` anywhere in the
    /// file, for the iteration-order rule.
    pub hash_locals: BTreeSet<String>,
    /// Identifiers *declared* with a hash-ordered type (`name:
    /// [&][mut] HashMap<..>` — struct fields, fn params, closure params,
    /// type-ascribed bindings), for the taint pass's source detection.
    pub hash_fields: BTreeSet<String>,
}

impl FileContext {
    /// Builds the context for `source` as if it lived at `path` (workspace
    /// relative). The path drives all crate/kind scoping, which is what
    /// lets the golden tests lint fixture sources under virtual paths.
    pub fn new(path: &str, source: &str) -> Self {
        let path = path.replace('\\', "/");
        let lexed = lex(source);
        let (crate_name, kind) = classify(&path);
        let all_test = matches!(kind, FileKind::IntegrationTest | FileKind::Bench);
        let test_lines = if all_test {
            vec![true; lexed.n_lines]
        } else {
            test_regions(&lexed)
        };
        let hash_locals = hash_locals(&lexed.tokens);
        let hash_fields = hash_fields(&lexed.tokens);
        FileContext {
            path,
            crate_name,
            kind,
            lexed,
            test_lines,
            hash_locals,
            hash_fields,
        }
    }

    /// Whether 1-based `line` is inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The tokens of the file.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }
}

/// Derives `(crate_name, kind)` from a workspace-relative path.
fn classify(path: &str) -> (String, FileKind) {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["crates", name, rest @ ..] => (name.to_string(), classify_target(rest)),
        ["vendor", name, ..] => (name.to_string(), FileKind::Vendor),
        ["src", rest @ ..] => {
            let kind = if rest.first() == Some(&"bin") || rest.last() == Some(&"main.rs") {
                FileKind::Binary
            } else {
                FileKind::LibrarySrc
            };
            ("landmark-explanation".to_string(), kind)
        }
        ["tests", ..] => (
            "landmark-explanation".to_string(),
            FileKind::IntegrationTest,
        ),
        ["examples", ..] => ("landmark-explanation".to_string(), FileKind::Example),
        ["benches", ..] => ("landmark-explanation".to_string(), FileKind::Bench),
        _ => ("landmark-explanation".to_string(), FileKind::LibrarySrc),
    }
}

/// Classifies the path remainder below a crate directory.
fn classify_target(rest: &[&str]) -> FileKind {
    match rest.first().copied() {
        Some("tests") => FileKind::IntegrationTest,
        Some("examples") => FileKind::Example,
        Some("benches") => FileKind::Bench,
        Some("src") => {
            if rest.contains(&"bin") || rest.last() == Some(&"main.rs") {
                FileKind::Binary
            } else {
                FileKind::LibrarySrc
            }
        }
        _ => FileKind::LibrarySrc,
    }
}

/// Marks the line ranges covered by `#[cfg(test)]` and `#[test]` items.
///
/// After each such attribute, the covered region runs to the end of the
/// next brace-balanced item (`mod tests { ... }`, `fn case() { ... }`) or
/// to the terminating `;` for braceless items.
fn test_regions(lexed: &LexedFile) -> Vec<bool> {
    let mut test = vec![false; lexed.n_lines];
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if let Some(attr_end) = match_test_attribute(toks, i) {
            let start_line = toks[i].line;
            let end_line = item_end_line(toks, attr_end);
            for l in start_line..=end_line {
                if let Some(slot) = test.get_mut(l - 1) {
                    *slot = true;
                }
            }
            i = attr_end;
        } else {
            i += 1;
        }
    }
    test
}

/// If `toks[i..]` opens a `#[cfg(test)]` or `#[test]`-style attribute,
/// returns the index just past its closing `]`.
fn match_test_attribute(toks: &[Token], i: usize) -> Option<usize> {
    if !toks.get(i)?.is_punct('#') || !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    // Scan to the matching `]`, remembering the idents inside.
    let mut depth = 1usize;
    let mut j = i + 2;
    let mut is_test = false;
    let mut negated = false;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        if t.is_punct('[') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') {
            depth -= 1;
        } else if let Some(id) = t.ident() {
            match id {
                // `#[test]`, `#[cfg(test)]`, and `#[cfg(all(test, ..))]`
                // all hinge on the `test` ident.
                "test" => is_test = true,
                // `#[cfg(not(test))]` is production-only code; bail on any
                // negation rather than model cfg boolean algebra.
                "not" => negated = true,
                _ => {}
            }
        }
        j += 1;
    }
    if is_test && !negated {
        Some(j)
    } else {
        None
    }
}

/// Line on which the item starting at `toks[i]` ends: the matching `}` of
/// its first `{`, or the first `;` before any `{`.
fn item_end_line(toks: &[Token], i: usize) -> usize {
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(';') {
            return t.line;
        }
        if t.is_punct('{') {
            // An unclosed item runs to the last token.
            let close = matching_group(toks, j, '{', '}');
            return toks.get(close).or(toks.last()).map_or(t.line, |t| t.line);
        }
        j += 1;
    }
    toks.last().map_or(1, |t| t.line)
}

/// Collects identifiers bound by `let` statements whose declaration
/// (pattern, type ascription, and initializer up to the terminating `;`)
/// mentions `HashMap` or `HashSet`.
fn hash_locals(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            // Bound name: `let x`, `let mut x`. Destructuring patterns are
            // skipped — per-field type tracking is beyond this lint.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).and_then(|t| t.ident()) {
                let name = name.to_string();
                // Scan to the `;` that ends the statement, tracking nesting
                // so `;`s inside closures/blocks don't cut it short.
                let mut depth = 0isize;
                let mut mentions_hash = false;
                let mut k = j + 1;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if depth == 0 && t.is_punct(';') {
                        break;
                    } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                        mentions_hash = true;
                    }
                    k += 1;
                }
                if mentions_hash {
                    out.insert(name);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Collects identifiers declared with a hash-ordered type head: `name :
/// [&][mut] HashMap<..>` / `HashSet<..>`. Catches struct fields, fn and
/// closure params, and type-ascribed locals — the declarations the
/// `let`-initializer scan above misses. Path-qualified heads
/// (`std::collections::HashMap`) and wrapped heads (`Vec<Mutex<HashMap>>`)
/// are deliberately not matched: the workspace idiom is `use` + bare
/// names, and a wrapped map is not directly iterable anyway.
fn hash_fields(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            || toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue; // not `name :`, or a `::` path separator
        }
        let mut j = i + 2;
        while toks
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            j += 1;
        }
        if toks
            .get(j)
            .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        {
            out.insert(name.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let c = FileContext::new("crates/em-serve/src/http.rs", "");
        assert_eq!(c.crate_name, "em-serve");
        assert_eq!(c.kind, FileKind::LibrarySrc);

        let c = FileContext::new("crates/em-serve/src/bin/em-serve.rs", "");
        assert_eq!(c.kind, FileKind::Binary);

        let c = FileContext::new("crates/em-eval/tests/golden.rs", "");
        assert_eq!(c.kind, FileKind::IntegrationTest);

        let c = FileContext::new("vendor/rand/src/lib.rs", "");
        assert_eq!(c.crate_name, "rand");
        assert_eq!(c.kind, FileKind::Vendor);

        let c = FileContext::new("examples/quickstart.rs", "");
        assert_eq!(c.crate_name, "landmark-explanation");
        assert_eq!(c.kind, FileKind::Example);

        let c = FileContext::new("src/lib.rs", "");
        assert_eq!(c.crate_name, "landmark-explanation");
        assert_eq!(c.kind, FileKind::LibrarySrc);
    }

    #[test]
    fn cfg_test_region_is_detected() {
        let src = "\
pub fn prod() {}

#[cfg(test)]
mod tests {
    #[test]
    fn case() {
        prod();
    }
}
";
        let c = FileContext::new("crates/core/src/x.rs", src);
        assert!(!c.is_test_line(1));
        assert!(c.is_test_line(3));
        assert!(c.is_test_line(7));
        assert!(c.is_test_line(9));
    }

    #[test]
    fn test_attribute_on_fn_is_detected() {
        let src = "\
fn prod() {}
#[test]
fn case() {
    prod();
}
fn also_prod() {}
";
        let c = FileContext::new("crates/core/src/x.rs", src);
        assert!(!c.is_test_line(1));
        assert!(c.is_test_line(3));
        assert!(c.is_test_line(4));
        assert!(!c.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(feature = \"x\")]\nfn gated() {}\n";
        let c = FileContext::new("crates/core/src/x.rs", src);
        assert!(!c.is_test_line(2));
    }

    #[test]
    fn integration_test_files_are_all_test() {
        let c = FileContext::new("tests/e2e.rs", "fn helper() {}\n");
        assert!(c.is_test_line(1));
    }

    #[test]
    fn hash_locals_are_tracked() {
        let src = "\
fn f() {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let seen = HashSet::new();
    let plain = Vec::new();
    let built: BTreeMap<u32, u32> = BTreeMap::new();
}
";
        let c = FileContext::new("crates/core/src/x.rs", src);
        assert!(c.hash_locals.contains("counts"));
        assert!(c.hash_locals.contains("seen"));
        assert!(!c.hash_locals.contains("plain"));
        assert!(!c.hash_locals.contains("built"));
    }

    #[test]
    fn hash_fields_cover_fields_params_and_ascriptions() {
        let src = "\
struct S {
    doc_freq: HashMap<String, usize>,
    names: Vec<String>,
    wrapped: Vec<Mutex<HashMap<String, u8>>>,
}
fn f(by_ref: &HashMap<u32, u32>, owned: HashSet<u8>, plain: usize) {
    let g = |cb: &mut HashMap<u8, u8>| cb.len();
}
";
        let c = FileContext::new("crates/core/src/x.rs", src);
        for tracked in ["doc_freq", "by_ref", "owned", "cb"] {
            assert!(c.hash_fields.contains(tracked), "missing {tracked}");
        }
        for untracked in ["names", "wrapped", "plain"] {
            assert!(!c.hash_fields.contains(untracked), "spurious {untracked}");
        }
    }
}
