//! Per-file rule matching over the lexed token stream.
//!
//! The matchers are deliberately *lexical*: they know paths, call shapes,
//! and identifier names, not inferred types. That buys zero dependencies
//! and sub-second whole-workspace runs, at the cost of documented
//! approximations (e.g. R4 recognizes picosecond values by name). Each
//! approximation errs toward silence on code it cannot classify; the
//! dynamic gates (checksums, `alloc_count`, sweep identity) remain the
//! backstop. The type-aware determinism rules (R1–R3) are clippy's job:
//! see `clippy.toml` at the workspace root.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::RuleId;

/// The zero-alloc hot-path list: (file suffix, steady-state functions).
/// Mirrors DESIGN.md §6.2; the runtime `alloc_count` gate enforces the same
/// contract dynamically over ~13k events.
pub const HOT_FNS: [(&str, &[&str]); 7] = [
    (
        "crates/kernel/src/host.rs",
        &[
            "irq",
            "irq_stamped",
            "wire_arrival",
            "recv",
            "drain_fenced",
            "release_tx_entry",
        ],
    ),
    (
        "crates/ioctopus/src/netloop.rs",
        &["run", "run_unbatched", "dispatch", "push_outs"],
    ),
    (
        "crates/memsys/src/cache.rs",
        &[
            "probe_at",
            "peek_at",
            "insert_at",
            "invalidate_at",
            "downgrade_at",
            "invalidate_range",
        ],
    ),
    (
        "crates/memsys/src/system.rs",
        &["cpu_access", "dma_read", "dma_write"],
    ),
    (
        "crates/simcore/src/outbuf.rs",
        &["push", "drain", "clear", "as_slice"],
    ),
    ("crates/telemetry/src/trace.rs", &["push"]),
    ("crates/telemetry/src/flight.rs", &["record_dma"]),
];

/// One rule violation (or suppressed violation) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the specific site.
    pub message: String,
    /// The trimmed source line, for diff-anchored output.
    pub snippet: String,
    /// `Some(reason)` when an inline pragma suppressed this finding.
    pub suppressed_reason: Option<String>,
}

/// An inline `// simlint: allow(...)` pragma, tracked for the audit report.
#[derive(Debug, Clone)]
pub struct PragmaRecord {
    /// File containing the pragma.
    pub file: String,
    /// Line of the pragma comment itself.
    pub line: u32,
    /// Rule slugs it names (unvalidated).
    pub rules: Vec<String>,
    /// The justification after the rule list, if any.
    pub reason: Option<String>,
    /// The source line the pragma governs (same line for trailing comments,
    /// next code line for own-line comments).
    pub target_line: u32,
    /// Whether it suppressed at least one finding in this run.
    pub used: bool,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Active violations.
    pub findings: Vec<Finding>,
    /// Violations silenced by a reasoned pragma.
    pub suppressed: Vec<Finding>,
    /// Every pragma seen, used or not.
    pub pragmas: Vec<PragmaRecord>,
}

struct Sig<'a> {
    toks: &'a [Tok],
}

impl<'a> Sig<'a> {
    fn id(&self, i: usize) -> Option<&'a str> {
        match self.toks.get(i) {
            Some(t) if t.kind == TokKind::Ident => Some(t.text.as_str()),
            _ => None,
        }
    }
    fn is_id(&self, i: usize, s: &str) -> bool {
        self.id(i) == Some(s)
    }
    fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == TokKind::Punct && t.text.as_bytes() == [c as u8])
    }
    /// `::` immediately after token `i`.
    fn sep_after(&self, i: usize) -> bool {
        self.is_punct(i + 1, ':') && self.is_punct(i + 2, ':')
    }
    fn line(&self, i: usize) -> u32 {
        self.toks[i].line
    }
    fn number(&self, i: usize) -> Option<&'a str> {
        match self.toks.get(i) {
            Some(t) if t.kind == TokKind::Number => Some(t.text.as_str()),
            _ => None,
        }
    }
}

struct FnSpan {
    name: String,
    /// Sig-token index range of the body, exclusive of the outer braces.
    body: (usize, usize),
}

/// Locates every `fn name(...) { ... }` body in the significant-token
/// stream. Trait-method declarations without bodies are skipped; `fn` in
/// type position (`fn(u32) -> u32`) has no name and is skipped too.
fn fn_spans(sig: &Sig<'_>) -> Vec<FnSpan> {
    let n = sig.toks.len();
    let mut spans = Vec::new();
    for i in 0..n {
        if !sig.is_id(i, "fn") {
            continue;
        }
        let Some(name) = sig.id(i + 1) else { continue };
        // Find the body's opening brace (or `;` ending a bodiless decl),
        // ignoring everything nested in (), [], or <> along the signature.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut body_start = None;
        while j < n {
            let t = &sig.toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes()[0] {
                    b'(' => paren += 1,
                    b')' => paren -= 1,
                    b'[' => bracket += 1,
                    b']' => bracket -= 1,
                    b'{' if paren == 0 && bracket == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    b';' if paren == 0 && bracket == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = body_start else { continue };
        let mut depth = 0i32;
        let mut k = open;
        while k < n {
            if sig.toks[k].kind == TokKind::Punct {
                match sig.toks[k].text.as_bytes()[0] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        spans.push(FnSpan {
            name: name.to_string(),
            body: (open + 1, k.min(n)),
        });
    }
    spans
}

/// [`fn_spans`] minus the bodies inside `#[cfg(test)] mod` blocks.
fn non_test_fn_spans(sig: &Sig<'_>) -> Vec<FnSpan> {
    let test_ranges = cfg_test_ranges(sig);
    fn_spans(sig)
        .into_iter()
        .filter(|span| {
            !test_ranges
                .iter()
                .any(|&(a, b)| span.body.0 > a && span.body.1 <= b + 1)
        })
        .collect()
}

/// Names of the functions with a body in `src` outside `#[cfg(test)]`
/// modules: the bodies R5 checks against [`HOT_FNS`].
pub fn fn_names(src: &str) -> Vec<String> {
    let toks: Vec<Tok> = lex(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    non_test_fn_spans(&Sig { toks: &toks })
        .into_iter()
        .map(|span| span.name)
        .collect()
}

/// Sig-token ranges of `#[cfg(test)] mod ... { ... }` bodies. The hot-path
/// allocation rule skips them: test helpers collecting into `Vec`s are not
/// on the event hot path.
fn cfg_test_ranges(sig: &Sig<'_>) -> Vec<(usize, usize)> {
    let n = sig.toks.len();
    let mut ranges = Vec::new();
    for i in 0..n {
        if !(sig.is_punct(i, '#')
            && sig.is_punct(i + 1, '[')
            && sig.is_id(i + 2, "cfg")
            && sig.is_punct(i + 3, '(')
            && sig.is_id(i + 4, "test")
            && sig.is_punct(i + 5, ')')
            && sig.is_punct(i + 6, ']'))
        {
            continue;
        }
        // Skip any further attributes, then require a `mod` item.
        let mut j = i + 7;
        while sig.is_punct(j, '#') && sig.is_punct(j + 1, '[') {
            let mut depth = 0i32;
            j += 1;
            while j < n {
                if sig.is_punct(j, '[') {
                    depth += 1;
                } else if sig.is_punct(j, ']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !sig.is_id(j, "mod") {
            continue;
        }
        while j < n && !sig.is_punct(j, '{') {
            j += 1;
        }
        let mut depth = 0i32;
        let start = j;
        while j < n {
            if sig.is_punct(j, '{') {
                depth += 1;
            } else if sig.is_punct(j, '}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        ranges.push((start, j.min(n)));
    }
    ranges
}

fn parse_pragmas(rel: &str, toks: &[Tok], sig_lines: &[u32], out: &mut FileScan) {
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        // Pragmas are plain `//` comments that *begin* with `simlint:`;
        // doc comments mentioning the syntax are not pragmas.
        if t.text.starts_with("///") || t.text.starts_with("//!") || !t.text.starts_with("//") {
            continue;
        }
        let body = t.text[2..].trim_start();
        if !body.starts_with("simlint:") {
            continue;
        }
        let rest = &body["simlint:".len()..];
        let rest = rest.trim_start();
        let parsed = rest.strip_prefix("allow").and_then(|r| {
            let r = r.trim_start();
            let r = r.strip_prefix('(')?;
            let close = r.find(')')?;
            Some((
                r[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect::<Vec<_>>(),
                r[close + 1..].to_string(),
            ))
        });
        let Some((rules, tail)) = parsed else {
            out.findings.push(Finding {
                rule: RuleId::PragmaHygiene,
                file: rel.to_string(),
                line: t.line,
                message: "malformed simlint pragma (expected `simlint: allow(<rule>) — <reason>`)"
                    .to_string(),
                snippet: String::new(),
                suppressed_reason: None,
            });
            continue;
        };
        let reason = {
            let r = tail
                .trim_start()
                .trim_start_matches(['—', '–', '-', ':', ' '])
                .trim();
            if r.is_empty() {
                None
            } else {
                Some(r.to_string())
            }
        };
        // A trailing comment governs its own line; an own-line comment
        // governs the next line holding significant tokens.
        let trailing = sig_lines.binary_search(&t.line).is_ok();
        let target_line = if trailing {
            t.line
        } else {
            match sig_lines.iter().find(|&&l| l > t.line) {
                Some(&l) => l,
                None => t.line,
            }
        };
        out.pragmas.push(PragmaRecord {
            file: rel.to_string(),
            line: t.line,
            rules,
            reason,
            target_line,
            used: false,
        });
    }
}

/// Scans one file's source, returning findings after pragma application.
///
/// `rel` is the workspace-relative path (forward slashes); it selects the
/// [`HOT_FNS`] entry, so fixture tests can exercise R5 by picking a virtual
/// path.
pub fn scan_source(rel: &str, src: &str) -> FileScan {
    let toks = lex(src);
    let sig_toks: Vec<Tok> = toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .cloned()
        .collect();
    let sig = Sig { toks: &sig_toks };
    let src_lines: Vec<&str> = src.lines().collect();
    let sig_lines: Vec<u32> = {
        let mut v: Vec<u32> = sig_toks.iter().map(|t| t.line).collect();
        v.dedup();
        v
    };

    let mut out = FileScan::default();
    parse_pragmas(rel, &toks, &sig_lines, &mut out);

    let mut raw: Vec<(RuleId, u32, String)> = Vec::new();
    rule_lossy_time_cast(&sig, &mut raw);
    rule_hot_path_alloc(rel, &sig, &mut raw);

    // Pragma hygiene: unknown rule slugs and missing reasons are violations
    // in every mode (a reasonless pragma does not suppress).
    for p in &out.pragmas {
        for r in &p.rules {
            if RuleId::from_slug(r).is_none() {
                raw.push((
                    RuleId::PragmaHygiene,
                    p.line,
                    format!("pragma names unknown rule `{r}`"),
                ));
            }
        }
        if p.reason.is_none() {
            raw.push((
                RuleId::PragmaHygiene,
                p.line,
                format!(
                    "pragma suppressing `{}` lacks a reason (write `simlint: allow({}) — <why>`)",
                    p.rules.join(", "),
                    p.rules.join(", ")
                ),
            ));
        }
    }

    for (rule, line, message) in raw {
        let snippet = src_lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        let mut reason = None;
        if rule != RuleId::PragmaHygiene {
            for p in out.pragmas.iter_mut() {
                if p.target_line == line
                    && p.reason.is_some()
                    && p.rules.iter().any(|r| r == rule.slug())
                {
                    reason = p.reason.clone();
                    p.used = true;
                    break;
                }
            }
        }
        let f = Finding {
            rule,
            file: rel.to_string(),
            line,
            message,
            snippet,
            suppressed_reason: reason,
        };
        if f.suppressed_reason.is_some() {
            out.suppressed.push(f);
        } else {
            out.findings.push(f);
        }
    }
    out.findings.sort_by_key(|a| (a.line, a.rule));
    out.suppressed.sort_by_key(|a| (a.line, a.rule));
    out
}

/// R4: lossy `as` casts on picosecond values.
fn rule_lossy_time_cast(sig: &Sig<'_>, raw: &mut Vec<(RuleId, u32, String)>) {
    const LOSSY_TARGETS: [&str; 11] = [
        "u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
    ];
    // Does this file define the Time/Dur newtypes? (Then `self.0` is ps.)
    let defines_time = (0..sig.toks.len()).any(|i| {
        sig.is_id(i, "struct")
            && matches!(sig.id(i + 1), Some("Time") | Some("Dur"))
            && sig.is_punct(i + 2, '(')
    });
    for i in 0..sig.toks.len() {
        if !sig.is_id(i, "as") {
            continue;
        }
        let Some(tgt) = sig.id(i + 1) else { continue };
        if !LOSSY_TARGETS.contains(&tgt) {
            continue;
        }
        let mut ps_source = false;
        if i >= 1 && sig.is_punct(i - 1, ')') {
            // Walk back over the call's parens to its callee.
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                if sig.is_punct(j, ')') {
                    depth += 1;
                } else if sig.is_punct(j, '(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            if j >= 1 && sig.id(j - 1) == Some("as_ps") {
                ps_source = true;
            }
        } else if let Some(name) = sig.id(i.wrapping_sub(1)) {
            if name == "ps" || (name.ends_with("_ps") && name.to_lowercase() == name) {
                ps_source = true;
            }
        } else if defines_time
            && sig.number(i.wrapping_sub(1)) == Some("0")
            && sig.is_punct(i.wrapping_sub(2), '.')
            && sig.id(i.wrapping_sub(3)) == Some("self")
        {
            ps_source = true;
        }
        if ps_source {
            raw.push((
                RuleId::LossyTimeCast,
                sig.line(i),
                format!(
                    "lossy `as {tgt}` on a picosecond value (u64 ps exceed {tgt}'s exact range); use Time/Dur conversion methods"
                ),
            ));
        }
    }
}

/// R5: allocating constructs in the zero-alloc hot-path functions.
fn rule_hot_path_alloc(rel: &str, sig: &Sig<'_>, raw: &mut Vec<(RuleId, u32, String)>) {
    let Some(&(_, hot)) = HOT_FNS.iter().find(|(f, _)| rel.ends_with(f)) else {
        return;
    };
    const ALLOC_METHODS: [&str; 5] = ["clone", "to_string", "to_owned", "to_vec", "collect"];
    for span in non_test_fn_spans(sig) {
        if !hot.contains(&span.name.as_str()) {
            continue;
        }
        let (a, b) = span.body;
        for i in a..b {
            let Some(t) = sig.id(i) else { continue };
            let hit: Option<String> = match t {
                "Vec" | "Box" | "String" if sig.sep_after(i) => match sig.id(i + 3) {
                    Some(m @ ("new" | "with_capacity" | "from")) => {
                        Some(format!("{t}::{m} allocates"))
                    }
                    _ => None,
                },
                "vec" | "format" if sig.is_punct(i + 1, '!') => Some(format!("{t}! allocates")),
                m if ALLOC_METHODS.contains(&m)
                    && sig.is_punct(i + 1, '(')
                    && sig.is_punct(i.wrapping_sub(1), '.') =>
                {
                    Some(format!(".{m}() allocates"))
                }
                _ => None,
            };
            if let Some(what) = hit {
                raw.push((
                    RuleId::HotPathAlloc,
                    sig.line(i),
                    format!(
                        "{what} inside hot-path fn `{}` (zero-alloc steady state, DESIGN.md §6.2)",
                        span.name
                    ),
                ));
            }
        }
    }
}
