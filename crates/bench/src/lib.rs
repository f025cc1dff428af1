//! Shared helpers for the figure-regeneration bench harnesses.
//!
//! Each `benches/figNN_*.rs` target is a `harness = false` binary run by
//! `cargo bench`: it re-runs the corresponding experiment from
//! [`ioctopus::experiments`] and prints the paper's rows/series next to the
//! paper's reference values, so `cargo bench --workspace` regenerates the
//! entire evaluation. The chaos, hotplug and telemetry smoke harnesses
//! share the artifact helpers ([`repo_root`], [`json_escape`],
//! [`plan_json`]).
//!
//! Footers report wall-clock only; the simulator's own speed is measured
//! by the separate `simbench` package, never by these harnesses.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use simcore::FaultPlan;

/// Prints the standard figure header.
pub fn header(fig: &str, caption: &str) {
    println!("==================================================================");
    println!("{fig}: {caption}");
    println!("==================================================================");
}

/// Prints the closing footer with the wall-clock cost since the header.
pub fn footer(started: Instant) {
    let secs = started.elapsed().as_secs_f64();
    println!("------------------------------------------------ [{secs:.1}s wall-clock]\n");
}

/// Formats a ratio as the paper's `N.NNx` annotations.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".into()
    } else {
        format!("{:.2}x", a / b)
    }
}

/// Quick pass/attention marker for shape checks printed by the harnesses.
pub fn shape(ok: bool) -> &'static str {
    if ok {
        "[shape OK]"
    } else {
        "[shape DEVIATES — see EXPERIMENTS.md]"
    }
}

/// The workspace root, fixed at compile time, where the harnesses write
/// their `BENCH_*.json` and `CHAOS_MIN_PLAN.json` artifacts.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a fault plan as a JSON array of `{at_ps, pf, kind}` objects.
pub fn plan_json(plan: &FaultPlan) -> String {
    let evs: Vec<String> = plan
        .events()
        .iter()
        .map(|e| {
            format!(
                "{{\"at_ps\": {}, \"pf\": {}, \"kind\": \"{}\"}}",
                e.at.as_ps(),
                e.pf,
                json_escape(&format!("{:?}", e.kind))
            )
        })
        .collect();
    format!("[{}]", evs.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(2.0, 1.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn shape_marker() {
        assert_eq!(shape(true), "[shape OK]");
        assert!(shape(false).contains("DEVIATES"));
    }
}
