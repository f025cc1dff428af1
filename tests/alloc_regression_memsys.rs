//! Allocation-regression gate for the memory system's line walks.
//!
//! `tests/alloc_regression.rs` covers the dispatch loop, but its RX window
//! never evicts a dirty line and never moves one between sockets, so the
//! writeback accounting those paths run is invisible to it. This gate
//! drives exactly those paths on a warmed `MemSystem` — DDIO `dma_write`s
//! that overflow the DDIO ways and evict dirty lines, and `cpu_write` /
//! `cpu_read` ping-pong that forwards dirty lines cache-to-cache — and
//! holds them at zero heap allocations.
//!
//! Single test in this binary on purpose: the allocator counter is
//! process-wide, and a lone test keeps the measurement window quiet.

use memsys::cache::LineState;
use memsys::{AccessKind, MemConfig, MemSystem, NodeId, PhysAddr};
use simcore::alloc_count::{allocation_count, CountingAlloc};
use simcore::{Dur, Time};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);

/// The Broadwell DDIO partition: 28 672 sets × 2 ways × 64 B.
const DDIO_BYTES: u64 = 28_672 * 2 * 64;
/// More than twice the DDIO partition, so every DDIO pass over the ring
/// evicts at least `RING_BYTES - DDIO_BYTES` of dirty lines.
const RING_BYTES: u64 = 8 << 20;
const CHUNK: u64 = 64 * 1024;
const PING_BYTES: u64 = 4096;

/// One round of the workload: a full DDIO pass over `ring`, then an
/// ownership ping-pong over `ping` in which every miss is served by the
/// other socket's dirty copy. Returns the simulated time reached.
fn round(m: &mut MemSystem, mut now: Time, ring: PhysAddr, ping: PhysAddr) -> Time {
    let step = Dur::from_us(10);
    for off in (0..RING_BYTES).step_by(CHUNK as usize) {
        m.dma_write(now, N0, ring.offset(off), CHUNK);
        now += step;
    }
    // N0 writes `ping` (upgrading its Shared copy after the first round);
    // N1 reads it (forward + downgrade); N1 writes it (upgrade, N0
    // invalidated); N0 writes it (forward, N1 invalidated); N1 reads it
    // (forward + downgrade).
    m.cpu_write(now, N0, ping, PING_BYTES, AccessKind::Stream);
    assert_eq!(m.peek_line(N0, ping), Some(LineState::Modified));
    m.cpu_read(now, N1, ping, PING_BYTES, AccessKind::Stream);
    assert_eq!(m.peek_line(N0, ping), Some(LineState::Shared));
    m.cpu_write(now, N1, ping, PING_BYTES, AccessKind::Stream);
    assert_eq!(m.peek_line(N0, ping), None);
    m.cpu_write(now, N0, ping, PING_BYTES, AccessKind::Stream);
    assert_eq!(m.peek_line(N1, ping), None);
    m.cpu_read(now, N1, ping, PING_BYTES, AccessKind::Stream);
    assert_eq!(m.peek_line(N1, ping), Some(LineState::Shared));
    now + step
}

#[test]
fn dirty_evictions_and_cache_to_cache_transfers_allocate_nothing() {
    let mut m = MemSystem::new(MemConfig::dual_socket_broadwell());
    let ring = m.alloc(N0, RING_BYTES);
    let ping = m.alloc(N0, PING_BYTES);

    // Warm the stall memo's table with every access shape the rounds use.
    let mut now = Time::ZERO;
    for _ in 0..2 {
        now = round(&mut m, now, ring, ping);
    }
    m.reset_counters();

    // On failure: arm `simcore::alloc_count::trap_allocations(true, N)`
    // here to get stderr backtraces for the first N offending call sites.
    let before = allocation_count();
    for _ in 0..3 {
        now = round(&mut m, now, ring, ping);
    }
    let allocs = allocation_count() - before;

    // Writebacks reach home DRAM only through dirty evictions and the
    // implicit writeback of a cache-to-cache forward: both paths ran.
    assert!(
        m.counters().dram_write_bytes(N0) >= 3 * (RING_BYTES - DDIO_BYTES),
        "the window must evict dirty DDIO lines"
    );
    assert_eq!(
        allocs, 0,
        "dirty evictions and cache-to-cache transfers must not allocate: {allocs} allocations"
    );
}
