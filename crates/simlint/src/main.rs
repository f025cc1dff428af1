//! CLI for the workspace hot-path and time-cast lint pass.
//!
//! ```text
//! cargo run -p simlint -- --workspace [--json <path>|-] [--root <dir>] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean, `1` violations (or pragmas that suppress
//! nothing), `2` usage error. The JSON report (schema `simlint-v1`) is
//! written to `SIMLINT.json` at the workspace root unless `--json`
//! overrides the path (`-` = stdout).

use simlint::rules::ALL_RULES;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: simlint --workspace [--json <path>|-] [--root <dir>] [--list-rules]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut json: Option<String> = None;
    let mut list_rules = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => {}
            "--list-rules" => list_rules = true,
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(p) => json = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if list_rules {
        for r in ALL_RULES {
            println!("{:<4} {:<22} {}", r.id(), r.slug(), r.description());
        }
        return ExitCode::SUCCESS;
    }

    // The workspace root is two levels above this crate's manifest; fall
    // back to the current directory when the binary runs from elsewhere.
    let root = root.unwrap_or_else(|| {
        let manifest_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        if manifest_root.join("Cargo.toml").exists() {
            manifest_root
        } else {
            PathBuf::from(".")
        }
    });
    let root = root.canonicalize().unwrap_or(root);

    let report = simlint::lint_workspace(&root);

    let json_text = report.to_json();
    match json.as_deref() {
        Some("-") => print!("{json_text}"),
        Some(p) => {
            if let Err(e) = std::fs::write(p, &json_text) {
                eprintln!("simlint: cannot write {p}: {e}");
                return ExitCode::from(2);
            }
        }
        None => {
            let p = root.join("SIMLINT.json");
            if let Err(e) = std::fs::write(&p, &json_text) {
                eprintln!("simlint: cannot write {}: {e}", p.display());
                return ExitCode::from(2);
            }
        }
    }

    print!("{}", report.render_human());
    if report.findings.is_empty() && report.unused_pragmas.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
