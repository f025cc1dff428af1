//! Report assembly: machine-readable JSON and diff-anchored human output.
//!
//! The JSON is hand-rolled (the workspace vendors no serde); the schema is
//! stable and versioned so CI artifacts stay diffable across runs.

use crate::rules::{RuleId, ALL_RULES};
use crate::scan::{Finding, PragmaRecord};

/// Whole-workspace lint result.
#[derive(Debug, Default)]
pub struct Report {
    /// Active violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Violations silenced by reasoned pragmas, same order.
    pub suppressed: Vec<Finding>,
    /// Every pragma in the tree.
    pub pragmas: Vec<PragmaRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Reasoned pragmas that suppressed nothing (each fails the run).
    pub unused_pragmas: Vec<PragmaRecord>,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"slug\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"snippet\":\"{}\",\"suppressed\":{},\"reason\":{}}}",
        f.rule.id(),
        f.rule.slug(),
        esc(&f.file),
        f.line,
        esc(&f.message),
        esc(&f.snippet),
        f.suppressed_reason.is_some(),
        match &f.suppressed_reason {
            Some(r) => format!("\"{}\"", esc(r)),
            None => "null".to_string(),
        }
    )
}

fn pragma_json(p: &PragmaRecord) -> String {
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"rules\":[{}],\"reason\":{},\"used\":{}}}",
        esc(&p.file),
        p.line,
        p.rules
            .iter()
            .map(|r| format!("\"{}\"", esc(r)))
            .collect::<Vec<_>>()
            .join(","),
        match &p.reason {
            Some(r) => format!("\"{}\"", esc(r)),
            None => "null".to_string(),
        },
        p.used
    )
}

impl Report {
    fn count(&self, list: &[Finding], rule: RuleId) -> usize {
        list.iter().filter(|f| f.rule == rule).count()
    }

    /// Serializes the full report (schema `simlint-v1`).
    pub fn to_json(&self) -> String {
        let rules: Vec<String> = ALL_RULES
            .iter()
            .map(|&r| {
                format!(
                    "{{\"id\":\"{}\",\"slug\":\"{}\",\"description\":\"{}\",\"findings\":{},\"suppressed\":{}}}",
                    r.id(),
                    r.slug(),
                    esc(r.description()),
                    self.count(&self.findings, r),
                    self.count(&self.suppressed, r)
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"simlint-v1\",\n  \"files_scanned\": {},\n  \"violations\": {},\n  \"suppressed\": {},\n  \"rules\": [\n    {}\n  ],\n  \"findings\": [\n    {}\n  ],\n  \"suppressions\": [\n    {}\n  ],\n  \"unused_pragmas\": [\n    {}\n  ]\n}}\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len(),
            rules.join(",\n    "),
            self.findings
                .iter()
                .map(finding_json)
                .collect::<Vec<_>>()
                .join(",\n    "),
            self.pragmas
                .iter()
                .map(pragma_json)
                .collect::<Vec<_>>()
                .join(",\n    "),
            self.unused_pragmas
                .iter()
                .map(pragma_json)
                .collect::<Vec<_>>()
                .join(",\n    ")
        )
    }

    /// Renders the human-facing, diff-anchored summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}/{}] {}\n    | {}\n",
                f.file,
                f.line,
                f.rule.id(),
                f.rule.slug(),
                f.message,
                f.snippet
            ));
        }
        for p in &self.unused_pragmas {
            out.push_str(&format!(
                "{}:{}: [audit] pragma allow({}) suppressed nothing — remove it\n",
                p.file,
                p.line,
                p.rules.join(", ")
            ));
        }
        out.push_str(&format!(
            "simlint: {} file(s), {} violation(s), {} suppressed ({} pragma(s))",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len(),
            self.pragmas.len()
        ));
        for &r in &ALL_RULES {
            let (a, s) = (
                self.count(&self.findings, r),
                self.count(&self.suppressed, r),
            );
            if a + s > 0 {
                out.push_str(&format!(" | {}:{}+{}", r.slug(), a, s));
            }
        }
        out.push('\n');
        out
    }
}
