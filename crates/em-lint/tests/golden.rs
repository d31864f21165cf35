//! Golden fixture suite for the lint engine.
//!
//! Each fixture under `tests/fixtures/<rule>/` is linted under a
//! *virtual* workspace path (so crate-scoped and graph-scoped rules
//! engage) and its expected findings are written inline as markers,
//! rustc-UI style:
//!
//! * `//~ <rule> [<rule>..]` — violation(s) expected on this line;
//! * `//~^ <rule> [<rule>..]` — violation(s) expected on the previous line.
//!
//! The suite also pins the workspace-level guarantees the CI gate
//! relies on: the shipped tree is clean under the full v2 ruleset,
//! re-introducing any historical `partial_cmp().expect()` NaN panic is
//! caught at its exact span, reordering em-batch's shipped commit
//! sequence trips `fsync-protocol-order`, and the transitive clock the
//! v1 path-allowlist rules provably missed is caught by `nondet-taint`.

use em_lint::engine::lint_files;
use em_lint::rules::PANIC_ROOTS;
use em_lint::taint::SINKS;
use em_lint::{find_workspace_root, graph_stats, lint_source, lint_workspace, workspace_graph};
use std::path::Path;

/// (fixture file, virtual workspace path it is linted under).
const FIXTURES: &[(&str, &str)] = &[
    (
        "float-partial-cmp/positive.rs",
        "crates/em-eval/src/fixture.rs",
    ),
    (
        "float-partial-cmp/negative.rs",
        "crates/em-eval/src/fixture.rs",
    ),
    (
        "float-partial-cmp/suppressed.rs",
        "crates/em-eval/src/fixture.rs",
    ),
    (
        "float-partial-cmp/reasonless.rs",
        "crates/em-eval/src/fixture.rs",
    ),
    (
        "hashmap-iter-order/positive.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "hashmap-iter-order/negative.rs",
        "crates/core/src/fixture.rs",
    ),
    (
        "hashmap-iter-order/out_of_scope.rs",
        "crates/em-par/src/fixture.rs",
    ),
    (
        "hashmap-iter-order/kernel_crates.rs",
        "crates/em-text/src/fixture.rs",
    ),
    (
        "hashmap-iter-order/kernel_crates.rs",
        "crates/em-matchers/src/fixture.rs",
    ),
    (
        "hashmap-iter-order/batch_crate.rs",
        "crates/em-batch/src/fixture.rs",
    ),
    (
        "hashmap-iter-order/batch_crate.rs",
        "crates/em-codec/src/fixture.rs",
    ),
    (
        "nondet-taint/nondet_taint_transitive.rs",
        "crates/em-serve/src/server.rs",
    ),
    (
        "nondet-taint/nondet_taint_sanitized.rs",
        "crates/em-serve/src/server.rs",
    ),
    (
        "nondet-taint/nondet_taint_allowed.rs",
        "crates/em-serve/src/server.rs",
    ),
    (
        "nondet-taint/tainted_routing.rs",
        "crates/em-route/src/router.rs",
    ),
    (
        "fsync-protocol-order/fsync_order_violation.rs",
        "crates/em-batch/src/runner.rs",
    ),
    (
        "fsync-protocol-order/fsync_order_clean.rs",
        "crates/em-batch/src/runner.rs",
    ),
    (
        "panic-in-request-path/positive.rs",
        "crates/em-serve/src/http.rs",
    ),
    (
        "panic-in-request-path/negative.rs",
        "crates/em-serve/src/http.rs",
    ),
    (
        "panic-in-request-path/suppressed.rs",
        "crates/em-serve/src/json.rs",
    ),
    (
        "panic-in-request-path/out_of_scope.rs",
        "crates/em-serve/src/metrics.rs",
    ),
    (
        "panic-in-request-path/panic_reachable_deep.rs",
        "crates/em-serve/src/http.rs",
    ),
    (
        "panic-in-request-path/router_root.rs",
        "crates/em-route/src/router.rs",
    ),
    ("pub-item-docs/positive.rs", "crates/core/src/fixture.rs"),
    ("pub-item-docs/negative.rs", "crates/core/src/fixture.rs"),
    ("suppression/combined.rs", "crates/em-serve/src/json.rs"),
];

/// Parses `//~` / `//~^` markers into sorted `(line, rule)` expectations.
fn expected_findings(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let lineno = i + 1;
        let Some(idx) = line.find("//~") else {
            continue;
        };
        let rest = &line[idx + 3..];
        let (target, rules) = match rest.strip_prefix('^') {
            Some(r) => (lineno - 1, r),
            None => (lineno, rest),
        };
        for rule in rules.split_whitespace() {
            out.push((target, rule.to_string()));
        }
    }
    out.sort();
    out
}

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixtures_match_their_markers() {
    for (fixture, virtual_path) in FIXTURES {
        let path = fixture_dir().join(fixture);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading fixture {fixture}: {e}"));
        let expected = expected_findings(&source);
        let (violations, _) = lint_source(virtual_path, &source);
        let mut actual: Vec<(usize, String)> = violations
            .iter()
            .map(|v| (v.line, v.rule.clone()))
            .collect();
        actual.sort();
        assert_eq!(
            actual, expected,
            "fixture {fixture} (as {virtual_path}): actual findings (left) \
             diverge from //~ markers (right)"
        );
    }
}

#[test]
fn suppressed_fixtures_record_suppressions() {
    for fixture in [
        "float-partial-cmp/suppressed.rs",
        "panic-in-request-path/suppressed.rs",
        "nondet-taint/nondet_taint_allowed.rs",
    ] {
        let (dir_rule, _) = fixture.split_once('/').expect("dir/file fixture id");
        let virtual_path = FIXTURES
            .iter()
            .find(|(f, _)| f == &fixture)
            .map(|(_, p)| *p)
            .expect("fixture registered");
        let source = std::fs::read_to_string(fixture_dir().join(fixture)).expect("fixture");
        let (violations, suppressed) = lint_source(virtual_path, &source);
        assert_eq!(violations, vec![], "{fixture} should be fully suppressed");
        assert!(
            suppressed > 0,
            "{fixture} should suppress at least one {dir_rule} finding"
        );
    }
}

/// The witness chain and the sanitizer barrier are part of the rule's
/// contract, not just its message cosmetics — pin both on the
/// transitive fixture pair.
#[test]
fn taint_fixture_messages_carry_the_witness_chain() {
    let source =
        std::fs::read_to_string(fixture_dir().join("nondet-taint/nondet_taint_transitive.rs"))
            .expect("fixture");
    let (violations, _) = lint_source("crates/em-serve/src/server.rs", &source);
    let taint: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "nondet-taint")
        .collect();
    assert_eq!(taint.len(), 1, "{violations:?}");
    assert!(
        taint[0]
            .message
            .contains("handle_explain → seed_material → jitter"),
        "witness chain missing: {}",
        taint[0].message
    );
}

/// Re-implementation of the retired v1 `wallclock-in-seeded-path` rule:
/// a token scan for `Instant::now` / `SystemTime::now` /
/// `thread::current` that skips the crates on its path allowlist
/// (`bench`, `em-serve`, `em-obs`) and test lines. Kept here, not in
/// the engine, purely to *prove the miss*: the transitive-taint fixture
/// is silent under v1 and caught by v2.
fn v1_wallclock_findings(virtual_path: &str, source: &str) -> Vec<usize> {
    const V1_ALLOWLIST: &[&str] = &["bench", "em-serve", "em-obs"];
    let krate = virtual_path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
        .unwrap_or("");
    if V1_ALLOWLIST.contains(&krate) {
        return Vec::new();
    }
    source
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            let code = l.split("//").next().unwrap_or("");
            code.contains("Instant::now")
                || code.contains("SystemTime::now")
                || code.contains("thread::current")
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// The acceptance demonstration for the v2 taint rule: the same fixture
/// file, linted at the same virtual path, produces **zero** findings
/// under the v1 path-allowlist logic (em-serve was allowlisted
/// wholesale, so a clock reached through helpers was invisible) and a
/// `nondet-taint` violation under v2's call-graph reachability.
#[test]
fn v1_path_allowlist_misses_the_transitive_clock_v2_catches() {
    let virtual_path = "crates/em-serve/src/server.rs";
    let source =
        std::fs::read_to_string(fixture_dir().join("nondet-taint/nondet_taint_transitive.rs"))
            .expect("fixture");

    // v1: silent. The crate is on the wallclock allowlist, so the rule
    // never even scans the file — let alone follows calls into it.
    assert_eq!(
        v1_wallclock_findings(virtual_path, &source),
        Vec::<usize>::new(),
        "v1 should be blind to this file"
    );
    // …and the sources really are there for v1 to miss (same scan with
    // the allowlist ignored finds both clock reads).
    assert_eq!(
        v1_wallclock_findings("crates/core/src/x.rs", &source).len(),
        2
    );

    // v2: the sink-reachable clock is reported; the unreachable one
    // (`offline_profiler`) correctly is not.
    let (violations, _) = lint_source(virtual_path, &source);
    let taint: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "nondet-taint")
        .collect();
    assert_eq!(taint.len(), 1, "{violations:?}");
}

/// The four NaN-panic sites fixed in PR 4, with the exact offending
/// line restored at its original line number. Re-introducing any one of
/// them must fail the lint with the correct file:line span — the
/// acceptance criterion for the CI gate.
const REINTRODUCTIONS: &[(&str, usize, &str)] = &[
    (
        "crates/em-eval/src/kendall.rs",
        17,
        "    idx.sort_by(|&i, &j| scores[j].partial_cmp(&scores[i]).expect(\"finite scores\"));",
    ),
    (
        "crates/em-eval/src/stability.rs",
        78,
        "            sorted.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect(\"finite\"));",
    ),
    (
        "crates/core/src/summary.rs",
        81,
        "            .partial_cmp(&a.mean_weight)\n            .expect(\"finite weights\")",
    ),
    (
        "crates/core/src/counterfactual.rs",
        111,
        "            .partial_cmp(&slots[a].weight.abs())\n            .expect(\"finite weights\")",
    ),
];

#[test]
fn reintroducing_any_fixed_nan_panic_site_is_caught_at_its_span() {
    for (file, line, snippet) in REINTRODUCTIONS {
        // Pad the snippet down to its historical line number so the span
        // assertion is exact.
        let mut source = String::new();
        for _ in 1..*line {
            source.push_str("// padding\n");
        }
        source.push_str(snippet);
        source.push('\n');
        let (violations, _) = lint_source(file, &source);
        let hit = violations
            .iter()
            .find(|v| v.rule == "float-partial-cmp")
            .unwrap_or_else(|| panic!("{file}:{line} reintroduction not caught: {violations:?}"));
        assert_eq!(hit.file, *file);
        assert_eq!(
            hit.line, *line,
            "{file}: span should point at the partial_cmp line"
        );
    }
}

/// Seeded reordering of the *shipped* commit sequence: swap the
/// `write_sync` and `rename_durable` calls in the real
/// `em-batch/src/runner.rs` and the protocol automaton must object; the
/// unmodified file must pass. This pins the rule to the code it exists
/// to guard, not just to synthetic fixtures.
#[test]
fn reordering_the_shipped_commit_sequence_is_caught() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above em-lint");
    let rel = "crates/em-batch/src/runner.rs";
    let shipped = std::fs::read_to_string(root.join(rel)).expect("shipped runner.rs");
    assert!(
        shipped.contains("atomic::write_sync") && shipped.contains("atomic::rename_durable"),
        "commit sequence moved; update this test alongside the protocol spec"
    );

    let fsync_violations = |source: &str| -> Vec<usize> {
        let report = lint_files(&[(rel.to_string(), source.to_string())], None);
        report
            .violations
            .iter()
            .filter(|v| v.rule == "fsync-protocol-order")
            .map(|v| v.line)
            .collect()
    };

    assert_eq!(
        fsync_violations(&shipped),
        Vec::<usize>::new(),
        "shipped commit sequence should satisfy the protocol"
    );

    let reordered = shipped
        .replace("atomic::write_sync", "atomic::__swapped")
        .replace("atomic::rename_durable", "atomic::write_sync")
        .replace("atomic::__swapped", "atomic::rename_durable");
    let lines = fsync_violations(&reordered);
    assert_eq!(
        lines.len(),
        1,
        "swapped write/rename should trip the automaton exactly once"
    );
}

/// The shipped workspace must be clean — the same invariant CI enforces
/// with `cargo run -p em-lint -- check`.
#[test]
fn shipped_workspace_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above em-lint");
    let report = lint_workspace(&root).expect("lint workspace");
    assert!(
        report.is_clean(),
        "workspace has unsuppressed violations:\n{}",
        em_lint::report::render_human(&report)
    );
    // Sanity: the walk actually covered the tree (≥ 100 source files).
    assert!(
        report.files_checked >= 100,
        "suspiciously few files checked: {}",
        report.files_checked
    );
}

/// Every taint sink and panic root names at least one production function
/// of the shipped workspace. The rules skip a name that resolves to
/// nothing, so without this check a renamed or deleted entry point would
/// silently drop out of the analysis.
#[test]
fn every_sink_and_panic_root_resolves_to_a_function() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above em-lint");
    let graph = workspace_graph(&root).expect("workspace graph");
    let stale: Vec<&(&str, &str)> = SINKS
        .iter()
        .chain(PANIC_ROOTS)
        .filter(|(krate, name)| graph.find(krate, name).is_empty())
        .collect();
    assert!(
        stale.is_empty(),
        "entries that resolve to no function: {stale:?}"
    );
}

/// The `graph` subcommand's data source: the resolved workspace call
/// graph should have nodes and edges for every production crate that
/// calls anything.
#[test]
fn workspace_call_graph_resolves_nodes_and_edges() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above em-lint");
    let stats = graph_stats(&root).expect("graph stats");
    assert!(
        stats.total_fns > 200,
        "suspiciously few fns: {}",
        stats.total_fns
    );
    assert!(
        stats.total_edges > 200,
        "suspiciously few edges: {}",
        stats.total_edges
    );
    for krate in ["core", "em-lint", "em-batch", "em-serve"] {
        let cs = stats
            .crates
            .get(krate)
            .unwrap_or_else(|| panic!("crate {krate} missing from graph stats"));
        assert!(cs.fns > 0, "{krate} should contribute fns");
        assert!(cs.edges > 0, "{krate} should contribute edges");
    }
}
