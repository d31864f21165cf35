//! Brace-tree item model on top of the lexer (DESIGN.md §13).
//!
//! The lexer gives a flat token stream; the workspace-level rules
//! (`nondet-taint`, `panic-in-request-path`, `fsync-protocol-order`) need
//! *items*: which function a token belongs to, which `impl`/`trait` owns
//! that function, what a file imports, and whether the function is test
//! code. This module recovers exactly that by brace matching — no
//! expressions, no types, no generics beyond skipping them.
//!
//! The model is deliberately over-complete where it is uncertain: a
//! function whose owner cannot be determined is still recorded (with no
//! owner), and the call graph treats it conservatively. Missing an item
//! would silently shrink reachability, which is the one failure mode the
//! v2 rules must not have.

use crate::context::FileContext;
use crate::lexer::{matching_group, AnnotationKind, Token};
use std::collections::BTreeMap;

/// One `fn` item: a free function, an `impl`/`trait` method (default
/// bodies included), or a function nested inside another function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// Token range of the body, inclusive of both braces — `None` for
    /// bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Enclosing `impl`/`trait` type name (`Span`, `Collector`, ...).
    pub owner: Option<String>,
    /// Whether the function is test-only code (under `#[cfg(test)]` /
    /// `#[test]`, or in an integration-test/bench file).
    pub is_test: bool,
    /// Rules this function sanitizes, from a justified
    /// `// em-lint: sanitize(<rule>) -- <reason>` directly above the
    /// declaration (or trailing on it).
    pub sanitizes: Vec<String>,
}

impl FnItem {
    /// Whether this function is a declared sanitizer for `rule`.
    pub fn sanitizes_rule(&self, rule: &str) -> bool {
        self.sanitizes.iter().any(|r| r == rule)
    }
}

/// The item-level view of one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Every `fn` item in the file, in source order.
    pub fns: Vec<FnItem>,
    /// `use` imports: visible name (last path segment or `as` alias) →
    /// full path segments. `use em_codec::explain::run_explain` maps
    /// `run_explain` → `["em_codec", "explain", "run_explain"]`.
    pub uses: BTreeMap<String, Vec<String>>,
}

/// Parses the item model for one lexed file.
pub fn parse(ctx: &FileContext) -> FileItems {
    let toks = ctx.tokens();
    let mut items = FileItems::default();
    // Owner scopes: (token index of the scope's closing `}`, type name).
    let mut owners: Vec<(usize, Option<String>)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        owners.retain(|(close, _)| *close > i);
        let Some(id) = toks[i].ident() else {
            i += 1;
            continue;
        };
        match id {
            "impl" | "trait" => {
                if let Some((open, owner)) = scope_owner(toks, i, id == "trait") {
                    let close = matching_group(toks, open, '{', '}');
                    owners.push((close, owner));
                    i = open + 1;
                    continue;
                }
            }
            "fn" => {
                // Skip `fn` in type position (`Fn`/`fn(..)` pointers have
                // no name ident right after).
                if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                    let decl_line = toks[i].line;
                    let body = fn_body(toks, i + 2);
                    items.fns.push(FnItem {
                        name: name.to_string(),
                        decl_line,
                        body,
                        owner: owners.last().and_then(|(_, o)| o.clone()),
                        is_test: ctx.is_test_line(decl_line),
                        sanitizes: Vec::new(),
                    });
                    // Do not skip the body: nested fns inside it must be
                    // found too. Call extraction excludes nested ranges.
                }
            }
            "use" => {
                i = parse_use(toks, i + 1, &mut items.uses);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    attach_sanitizers(ctx, &mut items);
    items
}

/// For an `impl`/`trait` keyword at `kw`, finds the opening `{` of its
/// body and the type name it introduces. `impl Trait for Type` resolves
/// to `Type`; generic parameter lists and `where` clauses are skipped.
fn scope_owner(toks: &[Token], kw: usize, is_trait: bool) -> Option<(usize, Option<String>)> {
    let mut angle = 0isize;
    let mut after_for = false;
    let mut in_where = false;
    let mut last: Option<String> = None;
    let mut for_name: Option<String> = None;
    let mut j = kw + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('{') && angle <= 0 {
            let owner = if is_trait {
                // `trait Name` — the first ident.
                first_ident_after(toks, kw)
            } else {
                for_name.or(last)
            };
            return Some((j, owner));
        } else if t.is_punct(';') && angle <= 0 {
            return None; // `impl Trait for Type;` (rare) — no body
        } else if let Some(id) = t.ident() {
            if id == "where" {
                in_where = true;
            } else if id == "for" && angle <= 0 {
                after_for = true;
            } else if angle <= 0 && !in_where {
                if after_for && for_name.is_none() {
                    for_name = Some(id.to_string());
                }
                last = Some(id.to_string());
            }
        }
        j += 1;
    }
    None
}

fn first_ident_after(toks: &[Token], i: usize) -> Option<String> {
    toks.get(i + 1)?.ident().map(str::to_string)
}

/// From just past a fn's name, finds its body `{..}` token range —
/// skipping the signature (parens, return type, where clause). A `;` at
/// bracket depth 0 means a bodyless trait declaration.
fn fn_body(toks: &[Token], mut j: usize) -> Option<(usize, usize)> {
    let mut depth = 0isize; // (), [] — a `;` inside `[u8; 4]` is not an end
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            return None;
        } else if depth == 0 && t.is_punct('{') {
            return Some((j, matching_group(toks, j, '{', '}')));
        }
        j += 1;
    }
    None
}

/// Parses one `use` declaration starting just past the `use` keyword,
/// returning the index just past its `;`. Handles `a::b::c`,
/// `a::b as alias`, and one brace group `a::{b, c as d}`; globs and
/// nested groups are skipped (the call graph falls back to its
/// conservative crate-wide resolution for those names).
fn parse_use(toks: &[Token], mut j: usize, out: &mut BTreeMap<String, Vec<String>>) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    while j < toks.len() {
        let t = &toks[j];
        if let Some(id) = t.ident() {
            if id == "as" {
                // `path as alias` — alias maps to the path collected so far.
                if let Some(alias) = toks.get(j + 1).and_then(|t| t.ident()) {
                    out.insert(alias.to_string(), prefix.clone());
                    j += 2;
                    continue;
                }
            }
            prefix.push(id.to_string());
        } else if t.is_punct('{') {
            let close = matching_group(toks, j, '{', '}');
            parse_use_group(toks, j + 1, close, &prefix, out);
            j = close + 1;
            continue;
        } else if t.is_punct(';') {
            if let Some(last) = prefix.last() {
                out.insert(last.clone(), prefix.clone());
            }
            return j + 1;
        } else if t.is_punct('*') {
            // Glob import: nothing nameable to record.
            prefix.clear();
        }
        j += 1;
    }
    j
}

/// Entries of a one-level `use` brace group `{a, b::c, d as e}`.
fn parse_use_group(
    toks: &[Token],
    start: usize,
    end: usize,
    prefix: &[String],
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let mut entry: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let mut j = start;
    let mut depth = 0usize;
    while j <= end.min(toks.len().saturating_sub(1)) {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1; // nested group: swallow it, recording nothing
        } else if t.is_punct('}') && depth > 0 {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(',') || (t.is_punct('}') && j == end) {
                if let Some(name) = alias.take().or_else(|| entry.last().cloned()) {
                    if !entry.is_empty() {
                        let mut full = prefix.to_vec();
                        full.append(&mut entry);
                        out.insert(name, full);
                    }
                }
                entry.clear();
            } else if let Some(id) = t.ident() {
                if id == "as" {
                    alias = toks.get(j + 1).and_then(|t| t.ident()).map(str::to_string);
                    j += 2;
                    continue;
                }
                if id == "self" {
                    // `use a::b::{self, c}` — `b` itself becomes visible.
                    if let Some(last) = prefix.last() {
                        out.insert(last.clone(), prefix.to_vec());
                    }
                } else {
                    entry.push(id.to_string());
                }
            }
        }
        j += 1;
    }
}

/// Resolves `sanitize(...)` annotations onto the functions they cover: a
/// trailing annotation covers the fn declared on its own line; a
/// standalone one covers the next declared fn (doc comments in between
/// are fine — they are not code lines).
fn attach_sanitizers(ctx: &FileContext, items: &mut FileItems) {
    for s in &ctx.lexed.suppressions {
        if s.kind != AnnotationKind::Sanitize || s.reason.is_none() {
            // Reasonless sanitizers are reported by the engine and have
            // no effect — a sanitizer is an auditable exemption.
            continue;
        }
        let covered = if s.trailing {
            s.line
        } else {
            (s.line + 1..=ctx.lexed.n_lines)
                .find(|&l| ctx.lexed.code_lines.get(l - 1).copied().unwrap_or(false))
                .unwrap_or(s.line)
        };
        // Attach to the first fn declared at or (attributes between) just
        // after the covered line.
        if let Some(f) = items
            .fns
            .iter_mut()
            .filter(|f| f.decl_line >= covered && f.decl_line <= covered + 4)
            .min_by_key(|f| f.decl_line)
        {
            for rule in &s.rules {
                if !f.sanitizes.iter().any(|r| r == rule) {
                    f.sanitizes.push(rule.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    fn items_of(src: &str) -> FileItems {
        parse(&FileContext::new("crates/core/src/x.rs", src))
    }

    #[test]
    fn free_fns_and_nested_fns_are_found() {
        let it = items_of("fn outer() {\n    fn inner() {}\n    inner();\n}\nfn after() {}\n");
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "after"]);
        let outer = &it.fns[0];
        let inner = &it.fns[1];
        let (ob, oe) = outer.body.expect("outer body");
        let (ib, ie) = inner.body.expect("inner body");
        assert!(ob < ib && ie < oe, "inner body nests inside outer");
    }

    #[test]
    fn impl_and_trait_owners_resolve() {
        let src = "\
impl Foo {
    pub fn a(&self) {}
}
impl<T: Clone> Bar<T> where T: Send {
    fn b() {}
}
impl Drop for Guard<'_> {
    fn drop(&mut self) {}
}
trait Tracer {
    fn is_enabled(&self) -> bool;
    fn with_default(&self) -> bool { true }
}
fn free() {}
";
        let it = items_of(src);
        let owner_of = |n: &str| {
            it.fns
                .iter()
                .find(|f| f.name == n)
                .and_then(|f| f.owner.clone())
        };
        assert_eq!(owner_of("a").as_deref(), Some("Foo"));
        assert_eq!(owner_of("b").as_deref(), Some("Bar"));
        assert_eq!(owner_of("drop").as_deref(), Some("Guard"));
        assert_eq!(owner_of("is_enabled").as_deref(), Some("Tracer"));
        assert_eq!(owner_of("with_default").as_deref(), Some("Tracer"));
        assert_eq!(owner_of("free"), None);
        let is_enabled = it.fns.iter().find(|f| f.name == "is_enabled").unwrap();
        assert_eq!(is_enabled.body, None, "bodyless trait decl");
    }

    #[test]
    fn fn_with_array_len_semicolon_in_signature() {
        let it = items_of("fn f(x: [u8; 4]) -> [u8; 2] { [x[0], x[1]] }\n");
        assert!(it.fns[0].body.is_some());
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    #[test]
    fn case() {}
}
";
        let it = items_of(src);
        assert!(!it.fns.iter().find(|f| f.name == "prod").unwrap().is_test);
        assert!(it.fns.iter().find(|f| f.name == "case").unwrap().is_test);
    }

    #[test]
    fn use_paths_aliases_and_groups_resolve() {
        let src = "\
use em_codec::explain::run_explain;
use em_par::par_map as pmap;
use crate::manifest::{self, ManifestEntry};
use em_obs::{Span, Tracer as T};
fn f() {}
";
        let it = items_of(src);
        let seg = |n: &str| it.uses.get(n).cloned().unwrap_or_default();
        assert_eq!(
            seg("run_explain"),
            vec!["em_codec", "explain", "run_explain"]
        );
        assert_eq!(seg("pmap"), vec!["em_par", "par_map"]);
        assert_eq!(seg("manifest"), vec!["crate", "manifest"]);
        assert_eq!(
            seg("ManifestEntry"),
            vec!["crate", "manifest", "ManifestEntry"]
        );
        assert_eq!(seg("Span"), vec!["em_obs", "Span"]);
        assert_eq!(seg("T"), vec!["em_obs", "Tracer"]);
    }

    #[test]
    fn sanitize_annotation_attaches_through_docs_and_attrs() {
        let src = "\
// em-lint: sanitize(nondet-taint) -- observes, never feeds output
/// Doc line.
#[inline]
pub fn enter() {}

pub fn plain() {} // em-lint: sanitize(nondet-taint) -- trailing form

// em-lint: sanitize(nondet-taint)
pub fn reasonless() {}
";
        let it = items_of(src);
        let f = |n: &str| it.fns.iter().find(|f| f.name == n).unwrap();
        assert!(f("enter").sanitizes_rule("nondet-taint"));
        assert!(f("plain").sanitizes_rule("nondet-taint"));
        assert!(
            !f("reasonless").sanitizes_rule("nondet-taint"),
            "a reasonless sanitizer must have no effect"
        );
    }
}
