//! The rule catalogue `simlint` enforces.
//!
//! Each rule turns one of the workspace's *dynamic* contracts (bit-identical
//! figure checksums, the zero-allocation steady state) into a *static*,
//! per-PR machine check. The determinism rules R1–R3 (seeded hashers,
//! wall-clock reads, hash-order iteration) are type-aware and enforced by
//! clippy through `clippy.toml`; this catalogue keeps the rules clippy
//! cannot express. DESIGN.md §11 is the prose companion: rationale, failure
//! mode each rule prevents, and the pragma escape hatch.

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R4: no lossy `as` casts on picosecond `u64` time values.
    LossyTimeCast,
    /// R5: no allocating constructs in zero-alloc hot-path functions.
    HotPathAlloc,
    /// R6: suppression pragmas must name a known rule, carry a reason, and
    /// suppress something.
    PragmaHygiene,
}

/// Every rule, in report order.
pub const ALL_RULES: [RuleId; 3] = [
    RuleId::LossyTimeCast,
    RuleId::HotPathAlloc,
    RuleId::PragmaHygiene,
];

impl RuleId {
    /// Short stable id (`R4`..`R6`).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::LossyTimeCast => "R4",
            RuleId::HotPathAlloc => "R5",
            RuleId::PragmaHygiene => "R6",
        }
    }

    /// The slug used in pragmas: `// simlint: allow(<slug>) — reason`.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::LossyTimeCast => "lossy-time-cast",
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::PragmaHygiene => "pragma-hygiene",
        }
    }

    /// One-line description for reports.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::LossyTimeCast => {
                "lossy `as` cast on a picosecond u64 value; use the Time/Dur conversion methods"
            }
            RuleId::HotPathAlloc => {
                "allocating construct in a zero-alloc hot-path function (complements the runtime alloc_count gate)"
            }
            RuleId::PragmaHygiene => {
                "malformed suppression pragma: unknown rule, missing reason, or unused"
            }
        }
    }

    /// Parses a pragma slug.
    pub fn from_slug(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.slug() == s)
    }
}
