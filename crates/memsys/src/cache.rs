//! A per-socket last-level cache with a DDIO way partition.
//!
//! The model is set-associative with dense, directly indexed sets (a flat
//! zero-initialized slab of way slots, `ways` consecutive slots per set, so
//! first-touching a set never allocates), in MESI-lite: a line is either
//! `Shared` (clean, possibly in several LLCs) or
//! `Modified` (dirty, in exactly one LLC — the [`system`](crate::system)
//! façade enforces that invariant by invalidating other caches).
//!
//! Intel DDIO allocates device writes into a restricted subset of the LLC
//! ways (2 of 20 on the paper's Broadwell parts). Lines allocated on behalf
//! of a device carry the `ddio` flag and compete only for those ways, so
//! device traffic cannot sweep the whole cache — exactly the behaviour that
//! keeps NIC rings hot without destroying application working sets.

use crate::topology::{PhysAddr, LINE_BYTES};

/// Coherence state of a cached line (MESI-lite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean; may be present in several LLCs.
    Shared,
    /// Dirty; present in exactly one LLC.
    Modified,
}

/// Per-slot metadata bits (see [`Llc::meta`]). Validity is positional —
/// a slot is resident iff it lies below its set's occupancy count — so the
/// metadata only needs state flags and the recency tick.
const DIRTY: u64 = 1;
const DDIO: u64 = 1 << 1;
/// Bits above the flags hold the slot's last-use tick.
const TICK_SHIFT: u64 = 2;

/// Floor on the length of an LLC's tag and metadata arrays: 32 MiB of
/// `u64`. glibc serves an allocation of at least 32 MiB from a fresh
/// zero-filled mapping and unmaps it on free, because its adaptive mmap
/// threshold never rises above 32 MiB. A smaller slab comes from the heap
/// once the first freed slab has raised that threshold; there `calloc`
/// clears recycled memory page by page and freed pages stay resident, so
/// the resident size of a run that builds many caches would depend on heap
/// placement. The padding is address space that is never touched.
const MIN_SLAB_SLOTS: usize = 4 << 20;

/// LLC geometry and sizing.
#[derive(Debug, Clone, Copy)]
pub struct LlcConfig {
    /// Total capacity in bytes (e.g. 35 MiB for a 14-core Broadwell).
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Ways device (DDIO) writes may allocate into.
    pub ddio_ways: usize,
}

impl LlcConfig {
    /// The paper's server CPU: 35 MiB, 20-way, 2 DDIO ways.
    pub fn broadwell_14c() -> Self {
        LlcConfig {
            capacity_bytes: 35 * 1024 * 1024,
            ways: 20,
            ddio_ways: 2,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / LINE_BYTES / self.ways as u64
    }
}

/// Result of inserting a line: what, if anything, was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// No eviction was necessary.
    None,
    /// A clean line was dropped.
    Clean,
    /// A dirty line was evicted and must be written back to the home of the
    /// returned line address (`line * 64` is its byte address).
    Dirty(u64),
}

/// A single socket's last-level cache.
///
/// Storage is a flat slab of way slots, `cfg.ways` consecutive slots per
/// set, indexed by `line % n_sets`. Every lookup on the DMA and copy paths
/// walks one set per 64-byte line, so the index must be a direct slice
/// access rather than a hash probe. Consecutive lines sit in consecutive
/// sets, so those walks divide once per access and step the set index
/// (the crate-private `*_at` forms of every per-line operation take it);
/// the public per-address methods are wrappers over them. Three properties
/// matter for the zero-allocation hot path and the memory footprint:
///
/// * The slab is zero-initialized primitive arrays: `vec![0; n]` takes the
///   zeroed-page allocation path, so construction costs three allocator
///   calls regardless of geometry, and no slot is ever allocated lazily
///   during simulation.
/// * Each set keeps its resident lines packed at the front of its slot
///   range (`lens` holds the per-set count, maintained by swap-remove on
///   invalidation). Scans iterate only the resident prefix — typically one
///   or two slots in the sparse footprints the experiments generate —
///   rather than the full associativity.
/// * The tag and metadata arrays are at least 32 MiB long each
///   (`MIN_SLAB_SLOTS`), so the allocator maps fresh zero pages for them
///   and unmaps them on drop: a cache's resident memory is the pages its
///   run touched, wherever the heap stands.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: LlcConfig,
    /// Line tag of each way slot; meaningful for the first `lens[set]`
    /// slots of each set's range.
    tags: Vec<u64>,
    /// Packed slot state: `DIRTY | DDIO | last_use << TICK_SHIFT`.
    meta: Vec<u64>,
    /// Resident-line count per set (dense prefix length).
    lens: Vec<u8>,
    n_sets: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates an empty LLC with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, DDIO ways exceeding
    /// total ways, or zero sets).
    pub fn new(cfg: LlcConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.ways <= u8::MAX as usize, "occupancy counts are u8");
        assert!(cfg.ddio_ways <= cfg.ways, "DDIO ways cannot exceed total");
        assert!(cfg.sets() > 0, "cache must have at least one set");
        let n_sets = cfg.sets();
        let slots = (n_sets as usize * cfg.ways).max(MIN_SLAB_SLOTS);
        Llc {
            cfg,
            tags: vec![0; slots],
            meta: vec![0; slots],
            lens: vec![0; n_sets as usize],
            n_sets,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// Set index of `line`. The walks in [`system`](crate::system) divide
    /// once per access and step with [`next_set`](Self::next_set).
    pub(crate) fn set_of(&self, line: u64) -> usize {
        (line % self.n_sets) as usize
    }

    /// The set holding the line after one in `set`, wrapping at `n_sets`.
    pub(crate) fn next_set(&self, set: usize) -> usize {
        let next = set + 1;
        if next as u64 == self.n_sets {
            0
        } else {
            next
        }
    }

    /// Slab range of `set`'s resident prefix.
    fn prefix(&self, set: usize) -> std::ops::Range<usize> {
        let start = set * self.cfg.ways;
        start..start + self.lens[set] as usize
    }

    /// Tags and metadata of `set`'s resident lines.
    fn resident(&self, set: usize) -> (&[u64], &[u64]) {
        let r = self.prefix(set);
        (&self.tags[r.clone()], &self.meta[r])
    }

    /// [`resident`](Self::resident), mutably.
    fn resident_mut(&mut self, set: usize) -> (&mut [u64], &mut [u64]) {
        let r = self.prefix(set);
        (&mut self.tags[r.clone()], &mut self.meta[r])
    }

    fn state_of(meta: u64) -> LineState {
        if meta & DIRTY != 0 {
            LineState::Modified
        } else {
            LineState::Shared
        }
    }

    /// Looks up the line containing `addr`; returns its state on hit.
    /// Updates recency and hit/miss statistics.
    pub fn probe(&mut self, addr: PhysAddr) -> Option<LineState> {
        self.probe_at(self.set_of(addr.line()), addr.line())
    }

    /// [`probe`](Self::probe) of `line`, which lives in `set`.
    pub(crate) fn probe_at(&mut self, set: usize, line: u64) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        let (tags, meta) = self.resident_mut(set);
        if let Some(k) = tags.iter().position(|&t| t == line) {
            meta[k] = (meta[k] & (DIRTY | DDIO)) | (tick << TICK_SHIFT);
            let state = Self::state_of(meta[k]);
            self.hits += 1;
            return Some(state);
        }
        self.misses += 1;
        None
    }

    /// Looks up without disturbing recency or statistics (snoop from another
    /// agent).
    pub fn peek(&self, addr: PhysAddr) -> Option<LineState> {
        self.peek_at(self.set_of(addr.line()), addr.line())
    }

    /// [`peek`](Self::peek) of `line`, which lives in `set`.
    pub(crate) fn peek_at(&self, set: usize, line: u64) -> Option<LineState> {
        let (tags, meta) = self.resident(set);
        tags.iter()
            .position(|&t| t == line)
            .map(|k| Self::state_of(meta[k]))
    }

    /// Inserts (or upgrades) the line containing `addr`.
    ///
    /// `ddio` restricts replacement to the DDIO way-partition, mirroring how
    /// device writes cannot occupy the whole cache. Returns eviction
    /// information so the caller can account the writeback.
    pub fn insert(&mut self, addr: PhysAddr, state: LineState, ddio: bool) -> Evicted {
        self.insert_at(self.set_of(addr.line()), addr.line(), state, ddio)
    }

    /// [`insert`](Self::insert) of `line`, which lives in `set`.
    pub(crate) fn insert_at(
        &mut self,
        set: usize,
        line: u64,
        state: LineState,
        ddio: bool,
    ) -> Evicted {
        self.tick += 1;
        let tick = self.tick;
        let fresh = if state == LineState::Modified {
            DIRTY
        } else {
            0
        } | if ddio { DDIO } else { 0 }
            | (tick << TICK_SHIFT);
        let (ways, ddio_ways) = (self.cfg.ways, self.cfg.ddio_ways);

        // One pass over the resident prefix gathers everything a decision
        // needs: the tag match, the partition occupancy, and the LRU victim
        // of both the whole set and the DDIO partition. Last-use ticks are
        // unique — every touch consumes a fresh tick — so the victims are
        // deterministic regardless of slot order.
        let (tags, meta) = self.resident_mut(set);
        let resident = tags.len();
        let mut ddio_resident = 0usize;
        let mut lru: Option<usize> = None;
        let mut ddio_lru: Option<usize> = None;
        for k in 0..resident {
            if tags[k] == line {
                // Upgrades stick; a Modified line never silently becomes
                // Shared.
                meta[k] = fresh | (meta[k] & DIRTY);
                return Evicted::None;
            }
            if lru.is_none_or(|b| meta[k] >> TICK_SHIFT < meta[b] >> TICK_SHIFT) {
                lru = Some(k);
            }
            if meta[k] & DDIO != 0 {
                ddio_resident += 1;
                if ddio_lru.is_none_or(|b| meta[k] >> TICK_SHIFT < meta[b] >> TICK_SHIFT) {
                    ddio_lru = Some(k);
                }
            }
        }

        // Non-DDIO fills may use every way.
        let (limit, partition_len) = if ddio {
            (ddio_ways, ddio_resident)
        } else {
            (ways, resident)
        };

        if partition_len >= limit || resident >= ways {
            // Evict the LRU line of the relevant partition (or of the whole
            // set if the set itself is full).
            let victim = if partition_len >= limit && ddio {
                ddio_lru
            } else {
                lru
            }
            .expect("partition is non-empty when full");
            let evicted = if meta[victim] & DIRTY != 0 {
                Evicted::Dirty(tags[victim])
            } else {
                Evicted::Clean
            };
            tags[victim] = line;
            meta[victim] = fresh;
            evicted
        } else {
            // Grow the resident prefix by one slot.
            let slot = set * ways + resident;
            self.tags[slot] = line;
            self.meta[slot] = fresh;
            self.lens[set] += 1;
            Evicted::None
        }
    }

    /// Removes the line containing `addr` if present, returning its state.
    /// The caller decides whether a `Modified` line's contents matter (a full
    /// DMA overwrite drops them; an eviction writes them back).
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<LineState> {
        self.invalidate_at(self.set_of(addr.line()), addr.line())
    }

    /// [`invalidate`](Self::invalidate) of `line`, which lives in `set`.
    pub(crate) fn invalidate_at(&mut self, set: usize, line: u64) -> Option<LineState> {
        let (tags, meta) = self.resident_mut(set);
        let k = tags.iter().position(|&t| t == line)?;
        let state = Self::state_of(meta[k]);
        // Swap-remove within the set to keep the resident prefix dense.
        let last = tags.len() - 1;
        tags[k] = tags[last];
        meta[k] = meta[last];
        self.lens[set] -= 1;
        Some(state)
    }

    /// Invalidates the `n` consecutive lines starting at `first_line`, which
    /// lives in `set` — the per-line [`invalidate`](Self::invalidate) walk
    /// in line order, minus the sets that hold nothing. Only the occupancy
    /// bytes of empty sets are read, so a range write into memory this
    /// cache has never seen costs one byte scan.
    pub(crate) fn invalidate_range(&mut self, mut set: usize, first_line: u64, n: u64) {
        let mut line = first_line;
        let mut left = n;
        while left > 0 {
            // The run of sets up to the wrap point (or the range's end).
            let run = left.min(self.n_sets - set as u64) as usize;
            let mut k = 0;
            while let Some(skip) = self.lens[set + k..set + run].iter().position(|&l| l != 0) {
                k += skip;
                self.invalidate_at(set + k, line + k as u64);
                k += 1;
            }
            line += run as u64;
            left -= run as u64;
            set = 0;
        }
    }

    /// Downgrades a `Modified` line to `Shared` (after a snoop writeback).
    /// Returns `true` if the line was present.
    pub fn downgrade(&mut self, addr: PhysAddr) -> bool {
        self.downgrade_at(self.set_of(addr.line()), addr.line())
    }

    /// [`downgrade`](Self::downgrade) of `line`, which lives in `set`.
    pub(crate) fn downgrade_at(&mut self, set: usize, line: u64) -> bool {
        let (tags, meta) = self.resident_mut(set);
        match tags.iter().position(|&t| t == line) {
            Some(k) => {
                meta[k] &= !DIRTY;
                true
            }
            None => false,
        }
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of resident lines (for tests and diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Drops every line, as after `wbinvd`. Dirty data is discarded; tests
    /// use this to construct cold-cache scenarios. Set storage is retained.
    pub fn flush_all(&mut self) {
        self.lens.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    fn tiny() -> Llc {
        // 4 sets x 4 ways x 64 B = 1 KiB, 2 DDIO ways.
        Llc::new(LlcConfig {
            capacity_bytes: 1024,
            ways: 4,
            ddio_ways: 2,
        })
    }

    fn addr_for_set(set: u64, tag_round: u64) -> PhysAddr {
        // 4 sets in `tiny`; line = set + 4 * tag_round.
        PhysAddr((set + 4 * tag_round) * LINE_BYTES)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = PhysAddr(0);
        assert_eq!(c.probe(a), None);
        c.insert(a, LineState::Shared, false);
        assert_eq!(c.probe(a), Some(LineState::Shared));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_in_full_set() {
        let mut c = tiny();
        for round in 0..4 {
            assert_eq!(
                c.insert(addr_for_set(0, round), LineState::Shared, false),
                Evicted::None
            );
        }
        // Touch rounds 1..4 so round 0 is LRU.
        for round in 1..4 {
            c.probe(addr_for_set(0, round));
        }
        assert_eq!(
            c.insert(addr_for_set(0, 9), LineState::Shared, false),
            Evicted::Clean
        );
        assert_eq!(c.peek(addr_for_set(0, 0)), None, "LRU line evicted");
        assert!(c.peek(addr_for_set(0, 1)).is_some());
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = tiny();
        for round in 0..4 {
            c.insert(addr_for_set(1, round), LineState::Modified, false);
        }
        match c.insert(addr_for_set(1, 7), LineState::Shared, false) {
            Evicted::Dirty(line) => assert_eq!(line, addr_for_set(1, 0).line()),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn ddio_confined_to_partition() {
        let mut c = tiny();
        // Fill the DDIO partition (2 ways) of set 2.
        c.insert(addr_for_set(2, 0), LineState::Modified, true);
        c.insert(addr_for_set(2, 1), LineState::Modified, true);
        // A third DDIO insert must evict a DDIO line even though the set
        // still has free ways.
        let ev = c.insert(addr_for_set(2, 2), LineState::Modified, true);
        assert!(matches!(ev, Evicted::Dirty(_)), "got {ev:?}");
        assert_eq!(c.resident_lines(), 2);
        // Non-DDIO fills can still use the remaining ways.
        assert_eq!(
            c.insert(addr_for_set(2, 3), LineState::Shared, false),
            Evicted::None
        );
        assert_eq!(
            c.insert(addr_for_set(2, 4), LineState::Shared, false),
            Evicted::None
        );
    }

    #[test]
    fn upgrade_sticks() {
        let mut c = tiny();
        let a = PhysAddr(0);
        c.insert(a, LineState::Shared, false);
        c.insert(a, LineState::Modified, false);
        assert_eq!(c.peek(a), Some(LineState::Modified));
        // Re-inserting as Shared must not lose the dirty bit.
        c.insert(a, LineState::Shared, false);
        assert_eq!(c.peek(a), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = tiny();
        let a = PhysAddr(128);
        c.insert(a, LineState::Modified, false);
        assert!(c.downgrade(a));
        assert_eq!(c.peek(a), Some(LineState::Shared));
        assert_eq!(c.invalidate(a), Some(LineState::Shared));
        assert_eq!(c.invalidate(a), None);
        assert!(!c.downgrade(a));
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = tiny();
        c.insert(PhysAddr(0), LineState::Shared, false);
        let h = c.hits();
        c.peek(PhysAddr(0));
        assert_eq!(c.hits(), h);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        c.insert(PhysAddr(0), LineState::Modified, false);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.peek(PhysAddr(0)), None);
    }

    #[test]
    fn broadwell_geometry() {
        let cfg = LlcConfig::broadwell_14c();
        assert_eq!(cfg.sets(), 35 * 1024 * 1024 / 64 / 20);
        let _ = Llc::new(cfg);
    }

    #[test]
    #[should_panic(expected = "DDIO ways cannot exceed")]
    fn bad_ddio_ways() {
        Llc::new(LlcConfig {
            capacity_bytes: 1024,
            ways: 2,
            ddio_ways: 3,
        });
    }

    #[test]
    fn prop_occupancy_never_exceeds_ways() {
        let mut r = SimRng::seed(0xcac4e);
        for _ in 0..16 {
            let ops = 1 + r.below(299) as usize;
            let mut c = tiny();
            for _ in 0..ops {
                let line = r.below(64);
                let ddio = r.chance(0.5);
                c.insert(PhysAddr(line * LINE_BYTES), LineState::Shared, ddio);
            }
            // No set may exceed associativity; checked via total residency per set.
            for set in 0..4u64 {
                let count = (0..64u64)
                    .filter(|l| l % 4 == set)
                    .filter(|l| c.peek(PhysAddr(l * LINE_BYTES)).is_some())
                    .count();
                assert!(count <= 4, "set {} holds {}", set, count);
            }
        }
    }

    #[test]
    fn set_stepped_and_range_ops_match_per_address_ops() {
        // 5 sets (not a power of two) x 3 ways, 1 DDIO way: small enough
        // that random traffic fills sets, evicts, and laps the cache.
        let cfg = LlcConfig {
            capacity_bytes: 5 * 3 * LINE_BYTES,
            ways: 3,
            ddio_ways: 1,
        };
        let n_sets = cfg.sets();
        assert_eq!(n_sets, 5);
        // Ranges start below 10 * n_sets and span at most 3 * n_sets lines.
        let footprint = 13 * n_sets;
        let mut r = SimRng::seed(0x5e7_5e7);
        for _ in 0..24 {
            let mut walked = Llc::new(cfg);
            let mut twin = Llc::new(cfg);
            for _ in 0..150 {
                // A quarter of the ranges start in the last set, so they
                // wrap to set 0; lengths up to 3x the set count lap it.
                let first = if r.chance(0.25) {
                    n_sets - 1 + n_sets * r.below(10)
                } else {
                    r.below(10 * n_sets)
                };
                let n = 1 + r.below(3 * n_sets);
                let op = r.below(6);
                let mut set = walked.set_of(first);
                if op == 5 {
                    walked.invalidate_range(set, first, n);
                    for line in first..first + n {
                        twin.invalidate(PhysAddr(line * LINE_BYTES));
                    }
                } else {
                    for line in first..first + n {
                        let a = PhysAddr(line * LINE_BYTES);
                        match op {
                            0 | 1 => {
                                let state = if r.chance(0.5) {
                                    LineState::Modified
                                } else {
                                    LineState::Shared
                                };
                                let ddio = r.chance(0.5);
                                assert_eq!(
                                    walked.insert_at(set, line, state, ddio),
                                    twin.insert(a, state, ddio)
                                );
                            }
                            2 => assert_eq!(walked.probe_at(set, line), twin.probe(a)),
                            3 => assert_eq!(walked.invalidate_at(set, line), twin.invalidate(a)),
                            _ => assert_eq!(walked.downgrade_at(set, line), twin.downgrade(a)),
                        }
                        set = walked.next_set(set);
                    }
                }
                assert_eq!(
                    (walked.hits(), walked.misses()),
                    (twin.hits(), twin.misses())
                );
                for line in 0..footprint {
                    let a = PhysAddr(line * LINE_BYTES);
                    assert_eq!(walked.peek(a), twin.peek(a), "line {line}");
                }
            }
        }
    }

    #[test]
    fn prop_probe_after_insert_hits() {
        let mut r = SimRng::seed(0xcac4f);
        for _ in 0..8 {
            let n = 1 + r.below(49) as usize;
            let lines: Vec<u64> = (0..n).map(|_| r.below(1_000_000)).collect();
            let mut c = Llc::new(LlcConfig::broadwell_14c());
            for &l in &lines {
                c.insert(PhysAddr(l * LINE_BYTES), LineState::Shared, false);
            }
            // With a 28k-set cache and <50 distinct lines, nothing can have
            // been evicted: every line must still be resident.
            for &l in &lines {
                assert!(c.peek(PhysAddr(l * LINE_BYTES)).is_some());
            }
        }
    }
}
