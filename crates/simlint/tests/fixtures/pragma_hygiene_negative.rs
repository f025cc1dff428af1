// Fixture: R6 compliant — well-formed reasoned pragma that suppresses a real
// finding (no hygiene violations, pragma counted as used).
pub fn ps_to_f64(ps: u64) -> f64 {
    // simlint: allow(lossy-time-cast) — sanctioned boundary; exact below 2^53 ps
    ps as f64
}
