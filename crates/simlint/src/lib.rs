//! `simlint` — the workspace hot-path and time-cast lint pass.
//!
//! The reproduction's core claim is bit-identical determinism: figure
//! checksums, serial-vs-parallel sweep identity (DESIGN.md §6.1), and the
//! zero-allocation steady state (§6.2) are enforced *dynamically*, so a
//! violation only surfaces as a flaky checksum or an allocation count long
//! after merge. The type-aware half of that contract (R1–R3: seeded
//! hashers, wall-clock reads, hash-order iteration) is clippy's, configured
//! in the workspace `clippy.toml`. This crate checks the rest: a
//! dependency-free lexical analysis over every `.rs` file in the workspace,
//! enforcing the rule catalogue in [`rules`] (described for humans in
//! DESIGN.md §11).
//!
//! Run it as:
//!
//! ```text
//! cargo run -p simlint -- --workspace
//! ```
//!
//! Violations can be suppressed inline — with a mandatory reason:
//!
//! ```text
//! // simlint: allow(lossy-time-cast) — sole sanctioned ps→f64 boundary
//! ```
//!
//! Reasonless pragmas do not suppress (the finding stays active and the
//! pragma itself violates `pragma-hygiene`), and pragmas that no longer
//! suppress anything fail the run, as a stale `#[expect]` fails clippy.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

use report::Report;
use std::path::{Path, PathBuf};

/// Directories (workspace-relative) whose `.rs` files are scanned.
const SCAN_ROOTS: [&str; 3] = ["src", "tests", "examples"];

/// Subtrees never scanned: build output and the lint pass's own seeded
/// rule-violation fixtures.
fn is_excluded(rel: &str) -> bool {
    rel.starts_with("target/") || rel.starts_with("crates/simlint/tests/fixtures/")
}

fn walk(dir: &Path, acc: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, acc);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            acc.push(p);
        }
    }
}

/// Every `.rs` file the pass covers, sorted, workspace-relative.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        walk(&root.join(sub), &mut files);
    }
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crates: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        crates.sort();
        for c in crates {
            for sub in ["src", "tests", "benches"] {
                walk(&c.join(sub), &mut files);
            }
        }
    }
    files
        .into_iter()
        .filter(|p| {
            let rel = rel_path(root, p);
            !is_excluded(&rel)
        })
        .collect()
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the whole workspace under `root`.
pub fn lint_workspace(root: &Path) -> Report {
    let mut rep = Report::default();
    for path in workspace_files(root) {
        let rel = rel_path(root, &path);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        collect(&rel, &src, &mut rep);
        rep.files_scanned += 1;
    }
    finish(&mut rep);
    rep
}

/// Lints a single in-memory source with a virtual workspace-relative path
/// (the path selects the hot-path list) — the entry point fixture tests use.
pub fn lint_source(rel: &str, src: &str) -> Report {
    let mut rep = Report::default();
    collect(rel, src, &mut rep);
    rep.files_scanned = 1;
    finish(&mut rep);
    rep
}

fn collect(rel: &str, src: &str, rep: &mut Report) {
    let mut fs = scan::scan_source(rel, src);
    rep.findings.append(&mut fs.findings);
    rep.suppressed.append(&mut fs.suppressed);
    rep.pragmas.append(&mut fs.pragmas);
}

fn finish(rep: &mut Report) {
    rep.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    rep.suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    rep.unused_pragmas = rep
        .pragmas
        .iter()
        .filter(|p| !p.used && p.reason.is_some())
        .cloned()
        .collect();
}
