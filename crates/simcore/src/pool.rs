//! A minimal scoped thread pool for embarrassingly parallel simulation
//! sweeps.
//!
//! Every figure of the evaluation is a sweep over independent points
//! (message sizes × placements × flow counts), and each point is a fully
//! deterministic, self-contained simulation: it shares no mutable state
//! with any other point. That makes fan-out trivially safe — workers claim
//! points from an atomic counter, run them, and write results into
//! per-point slots, so the returned `Vec` is always in **input order**
//! regardless of which worker finished first or how the OS scheduled them.
//!
//! The workspace is std-only by design; this is `std::thread::scope` plus
//! an atomic work index — no channels, no dependency.
//!
//! # Example
//! ```
//! use simcore::pool;
//!
//! let squares = pool::scoped_map(vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count (useful for pinning
/// benchmarks, and for forcing serial execution with `IOCTOPUS_THREADS=1`).
pub const THREADS_ENV: &str = "IOCTOPUS_THREADS";

/// Number of workers a sweep of `jobs` independent points should use:
/// `IOCTOPUS_THREADS` if set, otherwise the machine's available
/// parallelism, never more than `jobs` and never less than 1.
pub fn worker_count(jobs: usize) -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "explicit operator override; worker count affects wall time only, results stay input-order deterministic (tests/parallel_sweep.rs)"
    )]
    let configured = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    #[expect(
        clippy::disallowed_methods,
        reason = "host parallelism picks the worker count, never the results; serial-vs-parallel bit-identity is gated dynamically"
    )]
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    configured.unwrap_or(hw).min(jobs.max(1))
}

/// Applies `f` to every item on a scoped worker pool, returning results in
/// input order.
///
/// Falls back to a plain serial map when only one worker is warranted, so
/// `IOCTOPUS_THREADS=1 <bench>` is *exactly* the serial run. Workers pull
/// the next unclaimed index from a shared atomic, so long and short points
/// load-balance naturally.
///
/// # Panics
/// Propagates a panic from any worker (the scope joins all threads first).
pub fn scoped_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // One slot per point: the input moves out through the Mutex, the result
    // moves back in. Slot `i` only ever belongs to the worker that claimed
    // index `i`, so there is no contention beyond the claim counter itself.
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|t| Mutex::new((Some(t), None)))
        .collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let next_ref = &next;
    let slots_ref = &slots;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots_ref[i]
                    .lock()
                    .expect("slot poisoned")
                    .0
                    .take()
                    .expect("index claimed once");
                let result = f(item);
                slots_ref[i].lock().expect("slot poisoned").1 = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("workers joined")
                .1
                .expect("every index was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        // Make later items finish first by sleeping on the early ones.
        let out = scoped_map((0..32u64).collect(), |i| {
            if i < 4 {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "test intentionally delays early items to prove the join restores input order"
                )]
                std::thread::sleep(std::time::Duration::from_millis(10 - 2 * i));
            }
            i * 100
        });
        assert_eq!(out, (0..32u64).map(|i| i * 100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(scoped_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(scoped_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(1) == 1);
        assert!(worker_count(1000) >= 1);
    }

    #[test]
    fn matches_serial_map() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9e37)).collect();
        let parallel = scoped_map(items, |x| x.wrapping_mul(0x9e37));
        assert_eq!(serial, parallel);
    }
}
