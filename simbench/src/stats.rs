//! Order statistics and the benchmark's JSON output.

use std::fmt::Write as _;

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `v` (0 if empty).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0 (a count the workload does not have).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A JSON object written field by field, in insertion order.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj(String::new())
    }

    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }

    /// Adds a number (non-finite values are written as `null`).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v:?}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    /// Adds an integer.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    /// Adds a boolean.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a string (callers pass plain ASCII without quotes).
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        let _ = write!(self.0, "\"{}\"", v.replace(['"', '\\'], "'"));
        self
    }

    /// Adds an already-serialised JSON value.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    /// The finished object.
    pub fn done(self) -> String {
        if self.0.is_empty() {
            "{}".to_string()
        } else {
            self.0 + "}"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn json_object() {
        let s = Obj::new().num("a", 1.5).int("b", 2).bool("c", true).done();
        assert_eq!(s, r#"{"a":1.5,"b":2,"c":true}"#);
        assert_eq!(Obj::new().done(), "{}");
    }
}
