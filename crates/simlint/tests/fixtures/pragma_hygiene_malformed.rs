// Fixture: R6 malformed — pragma that doesn't parse as `allow(<rules>)`.
// Hygiene findings are never suppressible, so there is no "suppressed"
// variant for this rule.
pub fn noop() {
    // simlint: allow lossy-time-cast — missing parentheses
}
