//! A minimal, in-repo reimplementation of the [`loom`] model-checking API.
//!
//! The real `loom` crate is not vendorable in this offline workspace, so this
//! shim provides the subset of its surface the concurrency tests use —
//! [`model`], [`thread::spawn`]/[`thread::JoinHandle::join`],
//! [`sync::Mutex`], and the [`sync::atomic`] types — backed by a
//! deterministic scheduler that **exhaustively explores every
//! sequentially-consistent interleaving** of the model's synchronization
//! operations.
//!
//! # How exploration works
//!
//! Model threads run as real OS threads, but a cooperative scheduler admits
//! exactly one at a time. Every synchronization operation (atomic access,
//! mutex acquire, spawn, join) passes through a *yield point* where the
//! scheduler picks which runnable thread proceeds. Whenever more than one
//! thread is runnable the pick is a recorded *decision*; [`model`] re-runs
//! the closure, depth-first, until every reachable decision sequence has
//! been executed once. A panic on any branch (assertion failure, deadlock,
//! double-claim) aborts exploration and is propagated to the test, together
//! with the number of schedules explored.
//!
//! # Fidelity limits (vs. real loom)
//!
//! * Only **sequentially-consistent** interleavings are explored: `Ordering`
//!   arguments are accepted but not weakened, so bugs that require observing
//!   relaxed/acquire-release reordering are out of scope. (Rule of thumb:
//!   this shim checks *protocol* races — lost updates, double claims, missed
//!   shutdowns, deadlocks — not memory-model races. The CI ThreadSanitizer
//!   job covers the latter on real hardware.)
//! * Preemption happens only at synchronization operations, which is
//!   sufficient for data-race-free code whose shared state is only touched
//!   through those operations.
//! * No `UnsafeCell`/`CausalCell` tracking, no spurious wakeups, no
//!   condvars: the pool under test uses none of these.
//!
//! [`loom`]: https://docs.rs/loom

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc as StdArc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Hard cap on schedules explored by one [`model`] call. Exceeding it means
/// the model is too large to check exhaustively — shrink it.
const MAX_SCHEDULES: usize = 500_000;

/// Hard cap on scheduling decisions within a single execution: trips on
/// accidental livelock (e.g. a spin loop with no blocking).
const MAX_DECISIONS_PER_RUN: usize = 100_000;

/// Sentinel panic payload used to unwind model threads when exploration
/// aborts (deadlock or a sibling thread's panic); swallowed by the harness.
struct Abort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked,
    Finished,
}

#[derive(Default)]
struct State {
    status: Vec<Status>,
    /// Index of the thread currently allowed to run user code.
    active: Option<usize>,
    /// Model threads blocked in `join` on the keyed thread.
    join_waiters: Vec<Vec<usize>>,
    /// One slot per registered model mutex: is it held?
    mutex_locked: Vec<bool>,
    /// Model threads blocked acquiring the keyed mutex.
    mutex_waiters: Vec<Vec<usize>>,
    /// Decision choices to replay, from the previous execution's record.
    prefix: Vec<usize>,
    /// This execution's decisions as `(choice, n_options)`.
    record: Vec<(usize, usize)>,
    /// First non-abort panic payload observed on any model thread.
    panic: Option<Box<dyn Any + Send>>,
    abort: bool,
    /// OS threads that have not yet reached `finish`.
    live: usize,
}

struct Scheduler {
    state: StdMutex<State>,
    cv: Condvar,
    os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    /// (scheduler, model-thread id) for the current OS thread, set while it
    /// executes inside a [`model`] run.
    static CTX: RefCell<Option<(StdArc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> (StdArc<Scheduler>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("loom primitive used outside loom::model")
    })
}

impl Scheduler {
    fn new(prefix: Vec<usize>) -> Self {
        Scheduler {
            state: StdMutex::new(State {
                prefix,
                ..State::default()
            }),
            cv: Condvar::new(),
            os_handles: StdMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, State> {
        self.state.lock().expect("scheduler state poisoned")
    }

    fn register_thread(state: &mut State) -> usize {
        state.status.push(Status::Runnable);
        state.join_waiters.push(Vec::new());
        state.live += 1;
        state.status.len() - 1
    }

    fn register_mutex(&self) -> usize {
        let mut s = self.lock();
        s.mutex_locked.push(false);
        s.mutex_waiters.push(Vec::new());
        s.mutex_locked.len() - 1
    }

    /// Picks the next active thread among the runnable set, recording a
    /// decision when there is a real choice. Flags deadlock when threads
    /// remain but none can run.
    fn choose(&self, state: &mut State) {
        let runnable: Vec<usize> = (0..state.status.len())
            .filter(|&i| state.status[i] == Status::Runnable)
            .collect();
        match runnable.len() {
            0 => {
                state.active = None;
                let stuck = state.status.contains(&Status::Blocked);
                if stuck && !state.abort {
                    state.panic = Some(Box::new(format!(
                        "loom: deadlock — blocked threads remain: {:?}",
                        state
                            .status
                            .iter()
                            .enumerate()
                            .filter(|(_, &s)| s == Status::Blocked)
                            .map(|(i, _)| i)
                            .collect::<Vec<_>>()
                    )));
                    state.abort = true;
                }
            }
            1 => state.active = Some(runnable[0]),
            n => {
                let d = state.record.len();
                assert!(
                    d < MAX_DECISIONS_PER_RUN,
                    "loom: execution exceeded {MAX_DECISIONS_PER_RUN} decisions (livelock?)"
                );
                let choice = state.prefix.get(d).copied().unwrap_or(0);
                debug_assert!(choice < n, "replay divergence: choice out of range");
                state.record.push((choice, n));
                state.active = Some(runnable[choice]);
            }
        }
        self.cv.notify_all();
    }

    /// Parks the calling model thread until the scheduler hands it the
    /// baton; unwinds with [`Abort`] if exploration is being torn down.
    fn wait_for_turn<'a>(
        &'a self,
        mut state: StdMutexGuard<'a, State>,
        me: usize,
    ) -> StdMutexGuard<'a, State> {
        while state.active != Some(me) {
            if state.abort {
                drop(state);
                panic::panic_any(Abort);
            }
            state = self.cv.wait(state).expect("scheduler state poisoned");
        }
        if state.abort {
            drop(state);
            panic::panic_any(Abort);
        }
        state
    }

    /// A preemption point: every other runnable thread gets a chance to run
    /// before the caller's next operation.
    fn yield_point(&self, me: usize) {
        let mut s = self.lock();
        debug_assert_eq!(s.active, Some(me), "yield from a descheduled thread");
        self.choose(&mut s);
        let _guard = self.wait_for_turn(s, me);
    }

    /// Marks `me` finished, wakes its joiners, and passes the baton on.
    fn finish(&self, me: usize) {
        let mut s = self.lock();
        s.status[me] = Status::Finished;
        s.live -= 1;
        let waiters = std::mem::take(&mut s.join_waiters[me]);
        for w in waiters {
            s.status[w] = Status::Runnable;
        }
        if s.active == Some(me) {
            s.active = None;
        }
        self.choose(&mut s);
        self.cv.notify_all();
    }

    /// Handles a panic payload escaping a model thread's closure: aborts
    /// exploration unless it is our own teardown sentinel.
    fn on_panic(&self, payload: Box<dyn Any + Send>) {
        if payload.downcast_ref::<Abort>().is_some() {
            return;
        }
        let mut s = self.lock();
        if s.panic.is_none() {
            s.panic = Some(payload);
        }
        s.abort = true;
        self.cv.notify_all();
    }
}

/// Runs `f` under every reachable sequentially-consistent interleaving of
/// its synchronization operations; panics (re-raising the model's panic) if
/// any schedule fails.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = StdArc::new(f);
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    loop {
        schedules += 1;
        assert!(
            schedules <= MAX_SCHEDULES,
            "loom: exceeded {MAX_SCHEDULES} schedules; shrink the model"
        );
        let record = run_once(f.clone(), std::mem::take(&mut prefix));
        // Depth-first backtrack: advance the deepest decision that still has
        // an unexplored option, dropping everything after it.
        let mut next: Vec<usize> = Vec::with_capacity(record.len());
        let mut advanced = false;
        for (i, &(choice, options)) in record.iter().enumerate().rev() {
            if choice + 1 < options {
                next.extend(record[..i].iter().map(|&(c, _)| c));
                next.push(choice + 1);
                advanced = true;
                break;
            }
        }
        if !advanced {
            return;
        }
        prefix = next;
    }
}

/// Executes the model closure once, replaying `prefix` at decision points;
/// returns the full decision record. Propagates any model panic.
fn run_once<F>(f: StdArc<F>, prefix: Vec<usize>) -> Vec<(usize, usize)>
where
    F: Fn() + Send + Sync + 'static,
{
    let sched = StdArc::new(Scheduler::new(prefix));
    {
        let mut s = sched.lock();
        let id = Scheduler::register_thread(&mut s);
        debug_assert_eq!(id, 0);
        s.active = Some(0);
    }
    let sched0 = sched.clone();
    let root = std::thread::Builder::new()
        .name("loom-0".into())
        .spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((sched0.clone(), 0)));
            let result = panic::catch_unwind(AssertUnwindSafe(|| f()));
            if let Err(payload) = result {
                sched0.on_panic(payload);
            }
            sched0.finish(0);
            CTX.with(|c| *c.borrow_mut() = None);
        })
        .expect("spawn model root thread");
    sched.os_handles.lock().expect("handles").push(root);

    // Wait for every model thread to reach `finish`, then join the OS
    // threads so no stale worker outlives this execution.
    {
        let mut s = sched.lock();
        while s.live > 0 {
            s = sched.cv.wait(s).expect("scheduler state poisoned");
        }
    }
    loop {
        let h = sched.os_handles.lock().expect("handles").pop();
        match h {
            Some(h) => drop(h.join()),
            None => break,
        }
    }

    let mut s = sched.lock();
    if let Some(p) = s.panic.take() {
        drop(s);
        panic::resume_unwind(p);
    }
    std::mem::take(&mut s.record)
}

/// Model-aware threads: spawn/join with scheduler participation.
pub mod thread {
    use super::*;

    /// Handle to a model thread; mirrors `std::thread::JoinHandle`.
    pub struct JoinHandle<T> {
        id: usize,
        result: StdArc<StdMutex<Option<T>>>,
    }

    /// Spawns a model thread. It becomes runnable immediately but executes
    /// only when the scheduler picks it.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let (sched, me) = ctx();
        let id = {
            let mut s = sched.lock();
            Scheduler::register_thread(&mut s)
        };
        let result = StdArc::new(StdMutex::new(None));
        let result2 = result.clone();
        let sched2 = sched.clone();
        let os = std::thread::Builder::new()
            .name(format!("loom-{id}"))
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((sched2.clone(), id)));
                // Park until first scheduled.
                {
                    let s = sched2.lock();
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                        drop(sched2.wait_for_turn(s, id));
                    }));
                    if outcome.is_err() {
                        // Teardown before we ever ran.
                        sched2.finish(id);
                        return;
                    }
                }
                let outcome = panic::catch_unwind(AssertUnwindSafe(f));
                match outcome {
                    Ok(v) => *result2.lock().expect("result slot") = Some(v),
                    Err(payload) => sched2.on_panic(payload),
                }
                sched2.finish(id);
                CTX.with(|c| *c.borrow_mut() = None);
            })
            .expect("spawn model thread");
        sched.os_handles.lock().expect("handles").push(os);
        // Spawning is itself a visible scheduling point.
        sched.yield_point(me);
        JoinHandle { id, result }
    }

    impl<T> JoinHandle<T> {
        /// Blocks (in model time) until the thread finishes; returns its
        /// result. Mirrors `std`'s signature; a panicked thread aborts the
        /// whole model instead of surfacing here.
        pub fn join(self) -> Result<T, Box<dyn Any + Send>> {
            let (sched, me) = ctx();
            loop {
                let mut s = sched.lock();
                if s.status[self.id] == Status::Finished {
                    drop(s);
                    break;
                }
                s.status[me] = Status::Blocked;
                s.join_waiters[self.id].push(me);
                if s.active == Some(me) {
                    s.active = None;
                }
                sched.choose(&mut s);
                drop(sched.wait_for_turn(s, me));
            }
            match self.result.lock().expect("result slot").take() {
                Some(v) => Ok(v),
                None => Err(Box::new("loom model thread produced no result")),
            }
        }
    }

    /// A bare preemption point, mirroring `std::thread::yield_now`.
    pub fn yield_now() {
        let (sched, me) = ctx();
        sched.yield_point(me);
    }
}

/// Model-aware synchronization primitives.
pub mod sync {
    use super::*;
    use std::cell::UnsafeCell;
    use std::ops::{Deref, DerefMut};

    pub use std::sync::Arc;

    /// A mutex whose acquire order is controlled (and exhaustively varied)
    /// by the model scheduler.
    pub struct Mutex<T> {
        mid: usize,
        sched: StdArc<Scheduler>,
        data: UnsafeCell<T>,
    }

    // SAFETY: the scheduler runs exactly one model thread at a time and the
    // `mutex_locked` protocol gives `MutexGuard` exclusive access to `data`;
    // baton hand-offs go through a std mutex/condvar pair, which provides
    // the necessary happens-before edges between OS threads.
    unsafe impl<T: Send> Send for Mutex<T> {}
    // SAFETY: as above — `&Mutex<T>` only exposes `T` through the guard,
    // whose exclusivity the scheduler protocol enforces.
    unsafe impl<T: Send> Sync for Mutex<T> {}

    /// RAII guard; releasing wakes every blocked acquirer and lets the
    /// scheduler pick the winner (modelling real acquisition nondeterminism).
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a model mutex (must be called inside [`crate::model`]).
        pub fn new(value: T) -> Self {
            let (sched, _) = ctx();
            let mid = sched.register_mutex();
            Mutex {
                mid,
                sched,
                data: UnsafeCell::new(value),
            }
        }

        /// Acquires the mutex, blocking this model thread if it is held.
        /// Always succeeds (no poisoning); the `Result` mirrors `std`.
        #[expect(
            clippy::result_unit_err,
            reason = "mirrors the Result signature of std::sync::Mutex::lock so model code compiles unchanged"
        )]
        pub fn lock(&self) -> Result<MutexGuard<'_, T>, ()> {
            let (sched, me) = ctx();
            debug_assert!(
                StdArc::ptr_eq(&sched, &self.sched),
                "mutex used across model runs"
            );
            sched.yield_point(me);
            let mut s = sched.lock();
            while s.mutex_locked[self.mid] {
                s.status[me] = Status::Blocked;
                s.mutex_waiters[self.mid].push(me);
                if s.active == Some(me) {
                    s.active = None;
                }
                sched.choose(&mut s);
                s = sched.wait_for_turn(s, me);
            }
            s.mutex_locked[self.mid] = true;
            drop(s);
            Ok(MutexGuard { lock: self })
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            let mut s = self.lock.sched.lock();
            s.mutex_locked[self.lock.mid] = false;
            let waiters = std::mem::take(&mut s.mutex_waiters[self.lock.mid]);
            for w in waiters {
                s.status[w] = Status::Runnable;
            }
            // The releasing thread keeps the baton; contenders race at the
            // next decision point.
            self.lock.sched.cv.notify_all();
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: guard existence == exclusive hold of `mutex_locked`,
            // so no other reference to `data` is live.
            unsafe { &*self.lock.data.get() }
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: as in `deref` — the lock protocol guarantees
            // exclusivity for the guard's lifetime.
            unsafe { &mut *self.lock.data.get() }
        }
    }

    /// Model-aware atomics: every access is a preemption point; all
    /// orderings are explored as sequentially consistent.
    pub mod atomic {
        use super::super::{ctx, StdAtomicUsize, StdOrdering};

        pub use std::sync::atomic::Ordering;

        /// Model `AtomicUsize`: std semantics plus a scheduler yield before
        /// every access.
        #[derive(Debug, Default)]
        pub struct AtomicUsize {
            cell: StdAtomicUsize,
        }

        impl AtomicUsize {
            /// Creates a new model atomic.
            pub fn new(v: usize) -> Self {
                AtomicUsize {
                    cell: StdAtomicUsize::new(v),
                }
            }

            fn yield_here(&self) {
                let (sched, me) = ctx();
                sched.yield_point(me);
            }

            /// Atomic load (explored as SeqCst).
            pub fn load(&self, _order: Ordering) -> usize {
                self.yield_here();
                self.cell.load(StdOrdering::SeqCst)
            }

            /// Atomic store (explored as SeqCst).
            pub fn store(&self, v: usize, _order: Ordering) {
                self.yield_here();
                self.cell.store(v, StdOrdering::SeqCst)
            }

            /// Atomic fetch-add (explored as SeqCst).
            pub fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
                self.yield_here();
                self.cell.fetch_add(v, StdOrdering::SeqCst)
            }

            /// Atomic compare-exchange (explored as SeqCst).
            pub fn compare_exchange(
                &self,
                current: usize,
                new: usize,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<usize, usize> {
                self.yield_here();
                self.cell
                    .compare_exchange(current, new, StdOrdering::SeqCst, StdOrdering::SeqCst)
            }
        }

        /// Model `AtomicBool`: std semantics plus a scheduler yield before
        /// every access.
        #[derive(Debug, Default)]
        pub struct AtomicBool {
            cell: std::sync::atomic::AtomicBool,
        }

        impl AtomicBool {
            /// Creates a new model atomic.
            pub fn new(v: bool) -> Self {
                AtomicBool {
                    cell: std::sync::atomic::AtomicBool::new(v),
                }
            }

            fn yield_here(&self) {
                let (sched, me) = ctx();
                sched.yield_point(me);
            }

            /// Atomic load (explored as SeqCst).
            pub fn load(&self, _order: Ordering) -> bool {
                self.yield_here();
                self.cell.load(StdOrdering::SeqCst)
            }

            /// Atomic store (explored as SeqCst).
            pub fn store(&self, v: bool, _order: Ordering) {
                self.yield_here();
                self.cell.store(v, StdOrdering::SeqCst)
            }

            /// Atomic swap (explored as SeqCst).
            pub fn swap(&self, v: bool, _order: Ordering) -> bool {
                self.yield_here();
                self.cell.swap(v, StdOrdering::SeqCst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::sync::{Arc, Mutex};
    use super::thread;

    #[test]
    fn single_thread_runs_once_per_schedule() {
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h2 = hits.clone();
        super::model(move || {
            h2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        // No decisions → exactly one schedule.
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn explores_both_orders_of_two_writers() {
        // Two threads race to set a cell; both final values must be seen
        // across the explored schedules.
        let saw = std::sync::Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
        let saw2 = saw.clone();
        super::model(move || {
            let cell = Arc::new(AtomicUsize::new(0));
            let (a, b) = (cell.clone(), cell.clone());
            let t1 = thread::spawn(move || a.store(1, Ordering::SeqCst));
            let t2 = thread::spawn(move || b.store(2, Ordering::SeqCst));
            t1.join().unwrap();
            t2.join().unwrap();
            saw2.lock().unwrap().insert(cell.load(Ordering::SeqCst));
        });
        assert_eq!(
            saw.lock().unwrap().iter().copied().collect::<Vec<_>>(),
            vec![1, 2],
            "exploration must reach both write orders"
        );
    }

    #[test]
    fn finds_check_then_act_race() {
        // Non-atomic claim (load; store) lets two threads both "win" under
        // some interleaving; the explorer must find that schedule.
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let wins = Arc::new(AtomicUsize::new(0));
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        let flag = flag.clone();
                        let wins = wins.clone();
                        thread::spawn(move || {
                            if !flag.load(Ordering::SeqCst) {
                                flag.store(true, Ordering::SeqCst);
                                wins.fetch_add(1, Ordering::SeqCst);
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
                assert!(wins.load(Ordering::SeqCst) <= 1, "double claim");
            });
        });
        assert!(result.is_err(), "model must expose the double-claim race");
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u64));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let m = m.clone();
                    thread::spawn(move || {
                        let mut g = m.lock().unwrap();
                        let v = *g;
                        *g = v + 1;
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(*m.lock().unwrap(), 2, "lost update through the mutex");
        });
    }

    #[test]
    fn deadlock_is_reported() {
        let result = std::panic::catch_unwind(|| {
            super::model(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (a.clone(), b.clone());
                let t = thread::spawn(move || {
                    let _ga = a2.lock().unwrap();
                    let _gb = b2.lock().unwrap();
                });
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
                drop(_ga);
                drop(_gb);
                t.join().unwrap();
            });
        });
        assert!(result.is_err(), "AB/BA lock order must deadlock somewhere");
    }
}
