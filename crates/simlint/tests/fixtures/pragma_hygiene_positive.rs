// Fixture: R6 true positive — a reasonless pragma (which therefore does NOT
// suppress the lossy-time-cast finding beneath it) and an unknown rule slug.
pub fn to_float(now_ps: u64) -> f64 {
    // simlint: allow(lossy-time-cast)
    let f = now_ps as f64;
    // simlint: allow(made-up-rule) — the slug does not exist
    f
}
