//! The wiring of the workspace's invariants, checked by `cargo test`.
//!
//! rustc, clippy and em-batch's commit type-state enforce the rules of
//! DESIGN.md §9, but each only where it is switched on. A crate root
//! that loses its `#![deny]`, a path dropped from `clippy.toml`, a crate
//! that stops inheriting `[workspace.lints]` or a bare `#[allow]` turns a
//! rule off, and no lint reports its own absence. Plain `cargo build`
//! also ignores every clippy level. These tests read the shipped sources
//! and configuration, so the tier-1 run catches each of those without
//! running clippy.
//!
//! The last test reads the committed experiment outputs in `results/`:
//! each must be its producer's standard output and nothing else.

use std::path::{Path, PathBuf};

/// The panic-class lints the request-path crates deny (DESIGN.md §9).
const PANIC_CLASS: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// The crates a request runs through, library and binaries.
const REQUEST_PATH_CRATES: [&str; 4] = ["em-codec", "em-serve", "em-route", "em-obs"];

/// Every determinism source `clippy.toml` must disallow.
const DISALLOWED_PATHS: [&str; 15] = [
    "core::cmp::PartialOrd::partial_cmp",
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::env::var",
    "std::env::var_os",
    "std::env::vars",
    "std::env::vars_os",
    "std::env::args",
    "std::env::args_os",
    "std::env::current_dir",
    "std::env::temp_dir",
    "std::thread::current",
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::hash::RandomState",
];

/// The levels in the root `[workspace.lints]` that every crate inherits.
const WORKSPACE_LEVELS: [&str; 4] = [
    "missing_docs = \"deny\"",
    "unfulfilled_lint_expectations = \"deny\"",
    "allow_attributes = \"deny\"",
    "allow_attributes_without_reason = \"deny\"",
];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn relative(path: &Path) -> String {
    path.strip_prefix(workspace_root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The library and binary crate roots of the crate in `dir`.
fn crate_roots(dir: &Path) -> Vec<PathBuf> {
    let src = dir.join("src");
    let mut roots: Vec<PathBuf> = ["lib.rs", "main.rs"]
        .iter()
        .map(|file| src.join(file))
        .filter(|path| path.is_file())
        .collect();
    if let Ok(bins) = std::fs::read_dir(src.join("bin")) {
        for bin in bins {
            let path = bin.expect("directory entry").path();
            if path.is_dir() {
                roots.push(path.join("main.rs"));
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                roots.push(path);
            }
        }
    }
    roots.sort();
    roots
}

/// Each `#[name(…)]` or `#![name(…)]` attribute that opens a line of
/// `source`, joined up to the line that closes it, with its 1-based line.
fn attributes(source: &str, name: &str) -> Vec<(usize, String)> {
    let outer = format!("#[{name}(");
    let inner = format!("#![{name}(");
    let mut found = Vec::new();
    let mut lines = source.lines().enumerate();
    while let Some((index, line)) = lines.next() {
        let line = line.trim();
        if !line.starts_with(&outer) && !line.starts_with(&inner) {
            continue;
        }
        let mut text = line.to_string();
        while !text.contains(")]") {
            let Some((_, more)) = lines.next() else { break };
            text.push(' ');
            text.push_str(more.trim());
        }
        found.push((index + 1, text));
    }
    found
}

/// The lint paths an attribute's text names, without its `reason`.
fn lints_named(attribute: &str) -> Vec<&str> {
    let open = attribute.find('(').map_or(0, |at| at + 1);
    let close = attribute.rfind(")]").unwrap_or(attribute.len());
    attribute[open..close]
        .split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty() && !item.starts_with("reason"))
        .collect()
}

fn has_reason(attribute: &str) -> bool {
    attribute
        .split_once("reason = \"")
        .is_some_and(|(_, rest)| !rest.starts_with('"'))
}

/// The shipped tree keeps the suppression discipline: no `#[allow]`, and
/// every `#[expect]` states its reason. CI's clippy job refuses both
/// through `allow_attributes` and `allow_attributes_without_reason`;
/// this holds them in tier-1, whose `cargo build` ignores clippy's
/// levels.
#[test]
fn shipped_workspace_is_clean() {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates", "vendor"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut unsanctioned = Vec::new();
    for file in &files {
        let source = read(file);
        for (line, _) in attributes(&source, "allow") {
            unsanctioned.push(format!(
                "{}:{line}: `#[allow]`; write `#[expect(lint, reason = \"…\")]`",
                relative(file)
            ));
        }
        for (line, text) in attributes(&source, "expect") {
            if !has_reason(&text) {
                unsanctioned.push(format!(
                    "{}:{line}: `#[expect]` without a reason",
                    relative(file)
                ));
            }
        }
    }
    assert!(
        unsanctioned.is_empty(),
        "unsanctioned suppressions:\n{}",
        unsanctioned.join("\n")
    );
    // Sanity: the walk actually covered the tree.
    assert!(
        files.len() >= 100,
        "suspiciously few files checked: {}",
        files.len()
    );
}

/// em-lint's rules started from named sink and panic-root functions, and
/// a name that resolved to nothing silently dropped out of the analysis.
/// The lints that replace it start from crate roots and from the paths in
/// `clippy.toml` instead, and go just as silent when one of those goes
/// missing. So: every crate root of a request-path crate, a binary added
/// later included, denies all seven panic-class lints; `clippy.toml`
/// still disallows every determinism source; every manifest inherits the
/// workspace's levels; and no crate root opts its whole crate out of a
/// guarded lint with an inner `#![expect]`.
#[test]
fn every_sink_and_panic_root_resolves_to_a_function() {
    let root = workspace_root();
    let mut missing = Vec::new();

    for krate in REQUEST_PATH_CRATES {
        let roots = crate_roots(&root.join("crates").join(krate));
        assert!(!roots.is_empty(), "crates/{krate} has no crate root");
        for file in roots {
            let source = read(&file);
            let denied: Vec<(usize, String)> = attributes(&source, "deny");
            let denied: Vec<&str> = denied
                .iter()
                .filter(|(_, text)| text.starts_with("#!["))
                .flat_map(|(_, text)| lints_named(text))
                .collect();
            for lint in PANIC_CLASS {
                if !denied.contains(&lint) {
                    missing.push(format!("{}: no `#![deny({lint})]`", relative(&file)));
                }
            }
        }
    }

    let clippy = read(&root.join("clippy.toml"));
    for path in DISALLOWED_PATHS {
        if !clippy.contains(&format!("path = \"{path}\"")) {
            missing.push(format!("clippy.toml: `{path}` is not disallowed"));
        }
    }

    let manifest = read(&root.join("Cargo.toml"));
    for level in WORKSPACE_LEVELS {
        if !manifest.lines().any(|line| line.trim() == level) {
            missing.push(format!("Cargo.toml: `[workspace.lints]` lacks `{level}`"));
        }
    }
    let mut crate_dirs = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(group)).expect(group) {
            let dir = entry.expect("directory entry").path();
            if dir.join("Cargo.toml").is_file() {
                crate_dirs.push(dir);
            }
        }
    }
    crate_dirs.sort();
    for dir in &crate_dirs {
        let path = dir.join("Cargo.toml");
        if !read(&path).contains("[lints]\nworkspace = true") {
            missing.push(format!(
                "{}: no `[lints] workspace = true`",
                relative(&path)
            ));
        }
        for file in crate_roots(dir) {
            for (line, text) in attributes(&read(&file), "expect") {
                let guarded = lints_named(&text).into_iter().any(|lint| {
                    PANIC_CLASS.contains(&lint)
                        || lint == "clippy::disallowed_methods"
                        || lint == "clippy::disallowed_types"
                });
                if text.starts_with("#![") && guarded {
                    missing.push(format!(
                        "{}:{line}: a crate-wide `#![expect]` of a guarded lint",
                        relative(&file)
                    ));
                }
            }
        }
    }

    assert!(
        missing.is_empty(),
        "lint wiring that no longer reaches its code:\n{}",
        missing.join("\n")
    );
}

/// The `compile_fail` doctest in `em-batch/src/atomic.rs` shows that the
/// write and the rename, swapped, do not compile, beside a doctest of the
/// shipped order that does. That catches a reordering of the shipped
/// commit only while `runner.rs` commits through those typed steps: this
/// pins it to `write_sync` → `rename_durable` → `manifest::append`, each
/// called once and in that order, and checks that no other em-batch
/// source renames a file, which would compile in any order.
#[test]
fn reordering_the_shipped_commit_sequence_is_caught() {
    let src = workspace_root().join("crates/em-batch/src");
    let runner = read(&src.join("runner.rs"));
    let call = |step: &str| -> usize {
        let sites: Vec<usize> = runner.match_indices(step).map(|(at, _)| at).collect();
        assert_eq!(
            sites.len(),
            1,
            "runner.rs should call `{step}` once; update this test alongside DESIGN.md §12"
        );
        sites[0]
    };
    let write = call("atomic::write_sync(");
    let rename = call("atomic::rename_durable(");
    let append = call("manifest::append(");
    assert!(
        write < rename && rename < append,
        "runner.rs commits out of order: write at byte {write}, rename at {rename}, append at {append}"
    );

    let atomic = read(&src.join("atomic.rs"));
    assert!(
        atomic.contains("//! ```compile_fail"),
        "atomic.rs lost the doctest that refuses the swapped steps"
    );

    let mut files = Vec::new();
    rust_files(&src, &mut files);
    let bypasses: Vec<String> = files
        .iter()
        .filter(|file| !file.ends_with("atomic.rs") && read(file).contains("fs::rename("))
        .map(|file| relative(file))
        .collect();
    assert!(
        bypasses.is_empty(),
        "files renaming outside the Staged → Published type-state: {bypasses:?}"
    );
}

/// Lines a captured report must not hold: cargo's build log (`cargo run`
/// prints it to stderr) and the progress lines `report` writes to stderr.
const NOT_REPORT_LINES: [&str; 5] = [
    "Compiling ",
    "Finished ",
    "Running ",
    "evaluating ",
    "matcher F1 = ",
];

/// Every `results/*.txt` is one bench binary's standard output alone
/// (results/README.md): it opens with the producer's `# ` header, and no
/// line is a cargo build-log line or a stderr progress line. A file
/// captured with `cargo run … &> file`, or trimmed by hand above its
/// header, fails here.
#[test]
fn committed_results_are_their_producers_stdout() {
    let dir = workspace_root().join("results");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 7,
        "expected the seven committed reports, found {}",
        files.len()
    );
    let mut problems = Vec::new();
    for file in &files {
        let text = read(file);
        if !text.starts_with("# ") {
            problems.push(format!("{}: does not begin with `# `", relative(file)));
        }
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if NOT_REPORT_LINES.iter().any(|p| trimmed.starts_with(p)) {
                problems.push(format!("{}:{}: {line:?}", relative(file), i + 1));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "results/ holds lines no producer prints to stdout:\n{}",
        problems.join("\n")
    );
}
