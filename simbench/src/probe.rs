//! The host-speed probe: a fixed reference kernel run between slices of the
//! measured simulation, so `run_s` can be rescaled to a steady host.
//!
//! On a shared host the same pass runs up to 3× slower for minutes at a
//! time while CPU time stays equal to wall time: other tenants take the
//! shared L3 and memory bandwidth, and an ALU loop does not slow at all.
//! The probe's kernels touch memory the way the simulator does, their code
//! never changes with the program, and they run close in time to the work
//! they rescale. A point's wall time times ([`QUIET_TICK_NS`] ÷ the mean
//! timed tick of the samples taken during it)^γ is what the point would take
//! on a host where one tick takes that long. γ is the workload's
//! sensitivity: the slope of log pass time over log tick time, fitted
//! over passes on a shared host (README.md, *Host noise*).

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time between two samples during a sliced run.
const EVERY: Duration = Duration::from_millis(10);
/// Words of the read-modify-write array (8 MiB).
const WORDS: usize = 1 << 20;
/// Read-modify-writes at random words per tick.
const RMW_OPS: u64 = 1500;
/// Event-queue steps (push, pop, one array update) per tick.
const HEAP_OPS: u64 = 1200;
/// Pending entries the probe's event queue holds.
const HEAP_PENDING: usize = 4096;
/// Flow-table key space (about half present), and insert/lookup/remove
/// rounds per tick.
const MAP_KEYS: u64 = 400_000;
const MAP_OPS: u64 = 500;

/// Mean tick time on the quiet host `run_s` is expressed for, in ns
/// (about the fastest state of the development host, see README.md).
const QUIET_TICK_NS: f64 = 350_000.0;

/// Mean kernel times per tick over a stretch of ticks, in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ticks {
    /// Ticks in the stretch.
    pub count: u64,
    /// Read-modify-write and event-queue kernels.
    pub memory_ns: f64,
    /// Flow-table kernel.
    pub lookups_ns: f64,
}

/// The probe's state. Its memory stays allocated between samples, and
/// each sample reloads it with an untimed tick before timing any.
pub struct Probe {
    words: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    rng: u64,
    last: Option<Instant>,
    count: u64,
    memory_ns: u64,
    lookups_ns: u64,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Probe {
    pub fn new() -> Self {
        let mut p = Probe {
            words: vec![1; WORDS],
            heap: BinaryHeap::with_capacity(HEAP_PENDING + 1),
            map: HashMap::default(),
            rng: 0x9E37_79B9_7F4A_7C15,
            last: None,
            count: 0,
            memory_ns: 0,
            lookups_ns: 0,
        };
        for _ in 0..MAP_KEYS / 2 {
            let k = xorshift(&mut p.rng) % MAP_KEYS;
            p.map.insert(k, 1);
        }
        // Fill the queue and fault the pages in before any tick counts.
        p.sample(4);
        p.take();
        p
    }

    /// One fixed unit of reference work; returns the wall time of the
    /// memory kernels and of the flow-table kernel, in ns.
    fn tick(&mut self) -> (u64, u64) {
        let t0 = Instant::now();
        let n = self.words.len();
        let mut acc = 0u64;
        for i in 0..RMW_OPS {
            let k = xorshift(&mut self.rng) as usize % n;
            self.words[k] = self.words[k].wrapping_add(i);
            acc ^= self.words[(k ^ 0x5555) % n];
        }
        for i in 0..HEAP_OPS {
            let r = xorshift(&mut self.rng);
            self.heap.push(Reverse(r & 0xffff_ffff));
            if self.heap.len() > HEAP_PENDING {
                acc = acc.wrapping_add(self.heap.pop().map_or(0, |x| x.0));
            }
            let k = (r >> 20) as usize % n;
            self.words[k] = self.words[k].wrapping_add(i);
            acc ^= self.words[(k * 7) % n];
        }
        let t1 = Instant::now();
        // Inserts and removes of uniform keys keep about half the key
        // space present, so the table never grows.
        for _ in 0..MAP_OPS {
            let k = xorshift(&mut self.rng) % MAP_KEYS;
            *self.map.entry(k).or_insert(0) += 1;
            acc = acc.wrapping_add(self.map.get(&(k ^ 1)).copied().unwrap_or(0));
            self.map.remove(&(k ^ 2));
        }
        black_box(acc);
        let t2 = Instant::now();
        (crate::spans::nanos(t1 - t0), crate::spans::nanos(t2 - t1))
    }

    /// One untimed tick, which reloads the probe's memory after whatever
    /// the program evicted, then `n` timed ticks. So the timed ticks
    /// measure the host, not how much of the probe the program evicted.
    pub fn sample(&mut self, n: u32) {
        self.tick();
        for _ in 0..n {
            let (memory, lookups) = self.tick();
            self.memory_ns += memory;
            self.lookups_ns += lookups;
            self.count += 1;
        }
        self.last = Some(Instant::now());
    }

    /// Takes a one-tick sample if [`EVERY`] has passed since the last one.
    pub fn between_slices(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample(1);
        }
    }

    /// The mean kernel times since the last `take`; restarts the tally.
    pub fn take(&mut self) -> Ticks {
        let c = self.count.max(1) as f64;
        let t = Ticks {
            count: self.count,
            memory_ns: self.memory_ns as f64 / c,
            lookups_ns: self.lookups_ns as f64 / c,
        };
        (self.count, self.memory_ns, self.lookups_ns) = (0, 0, 0);
        t
    }

    /// `wall_ns` rescaled to the quiet host by the ticks run alongside it,
    /// for work with sensitivity `gamma`.
    pub fn rescale(wall_ns: u64, t: &Ticks, gamma: f64) -> f64 {
        let tick_ns = t.memory_ns + t.lookups_ns;
        wall_ns as f64 * (QUIET_TICK_NS / tick_ns).powf(gamma)
    }
}
