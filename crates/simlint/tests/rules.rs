//! Fixture-driven rule validation: for every rule, a seeded true positive
//! must fire, a compliant twin must stay silent, and a reasoned pragma must
//! move the finding to the suppressed list (hygiene findings are
//! unsuppressible by design, so R6's third fixture is a malformed pragma).
//!
//! Fixtures live under `tests/fixtures/` — a directory `lint_workspace`
//! explicitly excludes, so the seeded violations never pollute a real run.
//! Each fixture is linted via [`simlint::lint_source`] under a *virtual*
//! workspace path, which is what selects the hot-path function list.

use simlint::report::Report;
use simlint::rules::RuleId;
use simlint::scan::{fn_names, HOT_FNS};
use simlint::{lint_source, workspace_files};
use std::path::Path;

/// Virtual path placing a fixture inside a simulation crate.
const SIM_PATH: &str = "crates/simcore/src/fixture.rs";
/// Virtual path placing a fixture in the event-loop crate (outside the
/// hot-path file list).
const LOOP_PATH: &str = "crates/ioctopus/src/fixture.rs";
/// Virtual path aliasing the hot-path file list entry for `NetLoop`.
const HOT_PATH: &str = "crates/ioctopus/src/netloop.rs";
/// Virtual path placing a fixture inside the telemetry crate.
const TELEM_PATH: &str = "crates/telemetry/src/fixture.rs";

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn lint(virtual_path: &str, name: &str) -> Report {
    lint_source(virtual_path, &fixture(name))
}

fn rules_of(findings: &[simlint::scan::Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

#[track_caller]
fn assert_fires(rep: &Report, rule: RuleId, at_least: usize) {
    let n = rep.findings.iter().filter(|f| f.rule == rule).count();
    assert!(
        n >= at_least,
        "expected >= {at_least} active {rule:?} findings, got {n} in {:?}",
        rules_of(&rep.findings)
    );
}

#[track_caller]
fn assert_clean(rep: &Report) {
    assert!(
        rep.findings.is_empty(),
        "expected no findings, got {:?}",
        rep.findings
            .iter()
            .map(|f| (f.rule, f.line, f.message.clone()))
            .collect::<Vec<_>>()
    );
}

#[track_caller]
fn assert_suppressed(rep: &Report, rule: RuleId) {
    assert_clean(rep);
    assert!(
        rep.suppressed
            .iter()
            .any(|f| f.rule == rule && f.suppressed_reason.is_some()),
        "expected a suppressed {rule:?} finding with a reason, got {:?}",
        rules_of(&rep.suppressed)
    );
    assert!(
        rep.pragmas.iter().any(|p| p.used),
        "the pragma should be marked used"
    );
}

// R4 — lossy-time-cast -----------------------------------------------------

#[test]
fn lossy_time_cast_fires_on_ps_named_values() {
    let rep = lint(SIM_PATH, "lossy_time_cast_positive.rs");
    assert_fires(&rep, RuleId::LossyTimeCast, 2);
}

#[test]
fn lossy_time_cast_silent_on_widening_and_non_ps() {
    assert_clean(&lint(SIM_PATH, "lossy_time_cast_negative.rs"));
}

#[test]
fn lossy_time_cast_pragma_suppresses() {
    assert_suppressed(
        &lint(SIM_PATH, "lossy_time_cast_suppressed.rs"),
        RuleId::LossyTimeCast,
    );
}

// R5 — hot-path-alloc ------------------------------------------------------

#[test]
fn hot_path_alloc_fires_in_hot_fn() {
    // Vec::new + format! + .clone().
    let rep = lint(HOT_PATH, "hot_path_alloc_positive.rs");
    assert_fires(&rep, RuleId::HotPathAlloc, 3);
}

#[test]
fn hot_path_alloc_silent_on_reuse_and_setup_fns() {
    assert_clean(&lint(HOT_PATH, "hot_path_alloc_negative.rs"));
}

#[test]
fn hot_path_alloc_pragma_suppresses() {
    assert_suppressed(
        &lint(HOT_PATH, "hot_path_alloc_suppressed.rs"),
        RuleId::HotPathAlloc,
    );
}

#[test]
fn hot_path_alloc_scoped_to_listed_files() {
    // The same allocating dispatch fn in a *non-hot* file is silent.
    assert_clean(&lint(LOOP_PATH, "hot_path_alloc_positive.rs"));
}

#[test]
fn hot_path_alloc_covers_telemetry_record_paths() {
    // `TraceRing::push` is hot in trace.rs; `record_dma` in flight.rs.
    let rep = lint(
        "crates/telemetry/src/trace.rs",
        "telemetry_hot_path_alloc_positive.rs",
    );
    assert_fires(&rep, RuleId::HotPathAlloc, 1);
    let rep = lint(
        "crates/telemetry/src/flight.rs",
        "telemetry_hot_path_alloc_positive.rs",
    );
    assert_fires(&rep, RuleId::HotPathAlloc, 1);
    // Outside the listed files the same source is silent.
    assert_clean(&lint(TELEM_PATH, "telemetry_hot_path_alloc_positive.rs"));
}

// R6 — pragma-hygiene ------------------------------------------------------

#[test]
fn pragma_hygiene_fires_on_reasonless_and_unknown() {
    let rep = lint(SIM_PATH, "pragma_hygiene_positive.rs");
    assert_fires(&rep, RuleId::PragmaHygiene, 2);
    // The reasonless pragma did NOT silence the lossy-time-cast finding.
    assert_fires(&rep, RuleId::LossyTimeCast, 1);
    assert!(rep.suppressed.is_empty());
}

#[test]
fn pragma_hygiene_silent_on_reasoned_used_pragma() {
    let rep = lint(SIM_PATH, "pragma_hygiene_negative.rs");
    assert_clean(&rep);
    assert_eq!(rep.suppressed.len(), 1);
    assert!(rep.pragmas[0].used);
}

#[test]
fn pragma_hygiene_fires_on_malformed_pragma() {
    let rep = lint(SIM_PATH, "pragma_hygiene_malformed.rs");
    assert_fires(&rep, RuleId::PragmaHygiene, 1);
}

// Audit mode and report shape ---------------------------------------------

#[test]
fn audit_flags_pragmas_that_suppress_nothing() {
    let src = "// simlint: allow(lossy-time-cast) — stale justification\npub fn clean() {}\n";
    let rep = lint_source(SIM_PATH, src);
    assert_eq!(rep.unused_pragmas.len(), 1);
}

#[test]
fn json_report_lists_all_rules_and_findings() {
    let rep = lint(SIM_PATH, "lossy_time_cast_positive.rs");
    let json = rep.to_json();
    assert!(json.contains("\"schema\": \"simlint-v1\""));
    // The rule catalogue is always present.
    for slug in ["lossy-time-cast", "hot-path-alloc", "pragma-hygiene"] {
        assert!(json.contains(&format!("\"slug\":\"{slug}\"")), "{slug}");
    }
    assert!(
        json.contains("\"slug\":\"lossy-time-cast\",\"file\":\"crates/simcore/src/fixture.rs\"")
    );
}

// The hot-path list against the real workspace ----------------------------

#[test]
fn every_hot_fn_resolves_to_a_body_in_its_file() {
    // R5 matches functions by name in the files `HOT_FNS` lists; a rename
    // or a moved file would silently drop a function from the rule.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scanned = workspace_files(&root);
    for (file, fns) in HOT_FNS {
        let path = root.join(file);
        assert!(
            scanned.contains(&path),
            "{file} is not among the linted files"
        );
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
        let names = fn_names(&src);
        for f in fns {
            assert!(
                names.iter().any(|n| n == f),
                "hot-path fn `{f}` has no body in {file}"
            );
        }
    }
}
