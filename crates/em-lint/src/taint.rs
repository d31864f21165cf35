//! `nondet-taint` — determinism-taint reachability (DESIGN.md §13).
//!
//! The repo's core guarantee is that explanations are byte-identical
//! across serial/parallel, cached/fresh, batch/served paths. That breaks
//! the moment any *nondeterminism source* can influence a *determinism
//! sink*. v1 enforced this with file-path allowlists, which are blind to
//! indirection: a helper in an allowed crate calling `Instant::now()` on
//! behalf of the explainer was invisible. v2 instead walks the
//! [`crate::graph`] call graph **forward from each sink** and reports
//! every source token inside any reached function, with the witness call
//! chain in the message.
//!
//! Sources: ambient clocks (`Instant::now`, `SystemTime::now`),
//! hash-ordered iteration over `HashMap`/`HashSet` locals and fields,
//! `RandomState`, `std::env` reads, and thread identity.
//!
//! Sinks: the seeded explainer entry points (core, em-lime), the codec
//! writers, the serve handlers, and the batch shard writers.
//!
//! Escapes: a finding is silenced by a per-function or per-line
//! `// em-lint: allow(nondet-taint) -- reason`; a function annotated
//! `// em-lint: sanitize(nondet-taint) -- reason` is a declared
//! sanitizer — traversal stops at it and never enters its body, which is
//! how em-obs's sanctioned observability clock stays out of seeded-path
//! reports. Test-only functions and the bench crate are outside the
//! contract and never traversed.

use crate::context::FileContext;
use crate::graph::Graph;
use crate::rules::{hash_iter_sites, Finding};
use std::collections::BTreeMap;

/// Determinism sinks: `(crate, fn name)` entry points whose transitive
/// callees must be free of nondeterminism sources.
pub const SINKS: &[(&str, &str)] = &[
    ("core", "explain"),
    ("em-lime", "explain"),
    ("em-lime", "perturb_and_fit"),
    ("em-codec", "run_explain"),
    ("em-codec", "to_json"),
    ("em-serve", "handle_explain"),
    ("em-serve", "handle_predict"),
    ("em-batch", "execute"),
    ("em-batch", "compute_shard"),
    // The routing tier: a routed response must be byte-identical to a
    // direct one, so the proxy handlers are determinism sinks. Health
    // cooldown clocks are behind declared sanitizers (routing decides
    // *where* a request goes, never what bytes ship — em-route's
    // health module docs).
    ("em-route", "proxy_explain"),
    ("em-route", "proxy_predict"),
];

/// `std::env` accessors that read ambient process state.
const ENV_READS: &[&str] = &[
    "var",
    "vars",
    "var_os",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "temp_dir",
];

/// The rule name, as written in annotations.
pub const RULE: &str = "nondet-taint";

/// One detected nondeterminism source inside a function body.
#[derive(Debug, Clone)]
struct Source {
    line: usize,
    what: String,
}

/// Runs the taint analysis; returns `(file index, finding)` pairs.
///
/// Findings anchor at the source token's line, with the enclosing fn's
/// declaration line as the alternate suppression anchor, so a single
/// per-function `allow` can cover a body with several source sites.
pub fn nondet_taint(ctxs: &[FileContext], graph: &Graph) -> Vec<(usize, Finding)> {
    // A fn is a traversal barrier if it sanitizes this rule; bench-crate
    // fns are out of contract entirely.
    let blocked = |i: usize| {
        graph.fns[i].krate == "bench" || graph.fns[i].sanitizes.iter().any(|r| r == RULE)
    };

    let mut out: BTreeMap<(usize, usize), Finding> = BTreeMap::new();
    for &(krate, fname) in SINKS {
        let roots = graph.find(krate, fname);
        if roots.is_empty() {
            continue;
        }
        let preds = graph.reachable(&roots, None, &blocked);
        for &f in preds.keys() {
            let node = &graph.fns[f];
            for src in fn_sources(graph, f, &ctxs[node.file]) {
                let key = (node.file, src.line);
                if out.contains_key(&key) {
                    continue; // already reported for an earlier sink
                }
                let chain = graph.chain(&preds, f);
                out.insert(
                    key,
                    Finding {
                        rule: RULE,
                        line: src.line,
                        alt_line: Some(node.decl_line),
                        message: format!(
                            "{} in `{}` is reachable from determinism sink `{}::{}` (call chain: {}); \
                             route it through a declared sanitizer or justify with \
                             `// em-lint: allow(nondet-taint) -- <reason>`",
                            src.what, node.name, krate, fname, chain
                        ),
                    },
                );
            }
        }
    }
    out.into_iter().map(|((file, _), f)| (file, f)).collect()
}

/// Scans one function's own tokens (nested fns excluded) for source
/// patterns.
fn fn_sources(graph: &Graph, f: usize, ctx: &FileContext) -> Vec<Source> {
    let toks = ctx.tokens();
    let own = graph.own_tokens(f);
    let mut sources = Vec::new();

    // Hash-order iteration sites, precomputed per file, filtered to this
    // fn's own token range.
    for (tok, line, name) in hash_iter_sites(ctx) {
        if own.binary_search(&tok).is_ok() && !ctx.is_test_line(line) {
            sources.push(Source {
                line,
                what: format!("hash-ordered iteration over `{name}`"),
            });
        }
    }

    for &k in &own {
        let Some(id) = toks[k].ident() else { continue };
        let line = toks[k].line;
        if ctx.is_test_line(line) {
            continue;
        }
        let next2 = |a: &str| {
            toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 3).is_some_and(|t| t.is_ident(a))
        };
        match id {
            // `Instant::now` / `SystemTime::now` — no `(` required, so
            // `.then(Instant::now)`-style fn references are caught too.
            "Instant" | "SystemTime" if next2("now") => sources.push(Source {
                line,
                what: format!("ambient clock `{id}::now`"),
            }),
            "thread" if next2("current") => sources.push(Source {
                line,
                what: "thread identity `thread::current`".to_string(),
            }),
            "RandomState" => sources.push(Source {
                line,
                what: "`RandomState` (randomized hasher)".to_string(),
            }),
            "env" => {
                for read in ENV_READS {
                    if next2(read) {
                        sources.push(Source {
                            line,
                            what: format!("process environment read `env::{read}`"),
                        });
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    sources.sort_by_key(|s| s.line);
    sources
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn run(files: &[(&str, &str)]) -> Vec<(String, Finding)> {
        let ctxs: Vec<FileContext> = files.iter().map(|(p, s)| FileContext::new(p, s)).collect();
        let items: Vec<parser::FileItems> = ctxs.iter().map(parser::parse).collect();
        let graph = Graph::build(&ctxs, &items, None);
        nondet_taint(&ctxs, &graph)
            .into_iter()
            .map(|(fi, f)| (ctxs[fi].path.clone(), f))
            .collect()
    }

    #[test]
    fn transitive_source_is_reported_with_chain() {
        let found = run(&[(
            "crates/em-codec/src/explain.rs",
            "use std::time::Instant;\n\
             pub fn run_explain() { helper(); }\n\
             fn helper() { deeper(); }\n\
             fn deeper() { let _t = Instant::now(); }\n",
        )]);
        assert_eq!(found.len(), 1);
        let f = &found[0].1;
        assert_eq!(f.rule, "nondet-taint");
        assert_eq!(f.line, 4);
        assert_eq!(f.alt_line, Some(4));
        assert!(
            f.message.contains("run_explain → helper → deeper"),
            "{}",
            f.message
        );
    }

    #[test]
    fn sanitizer_blocks_traversal() {
        let found = run(&[(
            "crates/em-codec/src/explain.rs",
            "use std::time::Instant;\n\
             pub fn run_explain() { blessed(); }\n\
             // em-lint: sanitize(nondet-taint) -- sanctioned clock for tests\n\
             fn blessed() { let _t = Instant::now(); }\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unreachable_source_is_not_reported() {
        let found = run(&[(
            "crates/em-codec/src/explain.rs",
            "use std::time::Instant;\n\
             pub fn run_explain() {}\n\
             pub fn island() { let _t = Instant::now(); }\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn env_reads_and_hash_iteration_are_sources() {
        let found = run(&[(
            "crates/em-batch/src/runner.rs",
            "use std::collections::HashMap;\n\
             pub fn execute() {\n\
                 let _home = std::env::var(\"HOME\");\n\
                 let m: HashMap<String, u32> = HashMap::new();\n\
                 for (_k, _v) in m.iter() {}\n\
             }\n",
        )]);
        let lines: Vec<usize> = found.iter().map(|(_, f)| f.line).collect();
        assert_eq!(lines, vec![3, 5], "{found:?}");
        assert!(found[0].1.message.contains("env::var"));
        assert!(found[1].1.message.contains("hash-ordered iteration"));
    }

    #[test]
    fn test_fns_and_bench_crate_are_out_of_contract() {
        let found = run(&[
            (
                "crates/em-codec/src/explain.rs",
                "use std::time::Instant;\n\
                 pub fn run_explain() {}\n\
                 #[test]\n\
                 fn t() { let _ = Instant::now(); run_explain(); }\n",
            ),
            (
                "crates/bench/src/lib.rs",
                "use std::time::Instant;\n\
                 pub fn run_explain() { let _ = Instant::now(); }\n",
            ),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }
}
