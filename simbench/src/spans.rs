//! Wall-clock spans recorded from the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Self time is the span's duration minus the time its
//! children cover. Every span is folded into a per-name aggregate; the
//! first [`KEEP`] spans are also kept in memory and written out as a Chrome
//! trace when the benchmark ends. A disabled tracer records nothing and
//! costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim for the trace file (aggregates cover all of them).
const KEEP: usize = 20_000;

/// Per-name totals over every recorded span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u32,
    t0: Instant,
    child_ns: u64,
}

#[derive(Debug)]
struct Kept {
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    start_ns: u64,
    dur_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
#[derive(Debug)]
pub struct Guard(Option<usize>);

/// The span recorder. Spans nest strictly: `exit` closes the innermost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    agg: BTreeMap<&'static str, Agg>,
    kept: Vec<Kept>,
}

impl Tracer {
    /// A tracer; `enabled = false` gives the untraced run.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::with_capacity(8),
            agg: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Guard {
        if !self.enabled {
            return Guard(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            name,
            id,
            t0: Instant::now(),
            child_ns: 0,
        });
        Guard(Some(self.stack.len()))
    }

    /// Closes the span `g` opened; returns its duration in nanoseconds
    /// (0 when disabled).
    #[inline]
    pub fn exit(&mut self, g: Guard) -> u64 {
        let Some(depth) = g.0 else { return 0 };
        assert_eq!(depth, self.stack.len(), "spans must close innermost first");
        let open = self.stack.pop().expect("an open span");
        let dur_ns = nanos(open.t0.elapsed());
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur_ns;
            p.id
        });
        let a = self.agg.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += dur_ns;
        a.self_ns += dur_ns.saturating_sub(open.child_ns);
        if self.kept.len() < KEEP {
            self.kept.push(Kept {
                name: open.name,
                id: open.id,
                parent,
                start_ns: nanos(open.t0.duration_since(self.epoch)),
                dur_ns,
            });
        }
        dur_ns
    }

    /// Totals for `name` (zero if it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Every per-name aggregate, sorted by name.
    pub fn aggregates(&self) -> &BTreeMap<&'static str, Agg> {
        &self.agg
    }

    /// The kept spans as Chrome `trace_event` JSON (complete events,
    /// microsecond timestamps; `args.parent` links a span to its cause).
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, k) in self.kept.iter().enumerate() {
            let sep = if i + 1 == self.kept.len() { "" } else { "," };
            let parent = k.parent.map_or(-1, i64::from);
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                k.name,
                k.start_ns as f64 / 1e3,
                k.dur_ns as f64 / 1e3,
                k.id,
                parent
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// A duration in whole nanoseconds (saturating; a run never nears 584 years).
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.exit(inner);
        let outer_ns = t.exit(outer);
        assert!(outer_ns >= inner_ns);
        let o = t.agg("outer");
        assert_eq!(o.count, 1);
        assert_eq!(o.self_ns, outer_ns - inner_ns);
        assert_eq!(t.agg("inner").self_ns, inner_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let g = t.enter("x");
        assert_eq!(t.exit(g), 0);
        assert!(t.aggregates().is_empty());
    }
}
