//! Layer unit-cost microcases, each shaped like its workload's calls.
//!
//! Every case runs warm-up iterations, then [`REPS`] timed repetitions,
//! and reports the median nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use memsys::{AccessKind, MemConfig, MemSystem, NodeId, PhysAddr};
use nvme::{MediaConfig, PortPolicy, Ssd, SsdConfig};
use pcie::{FabricConfig, PcieFabric, PcieGen};
use simcore::{BwLink, Dur, EventQueue, SimRng, Time};

use crate::stats::median;

/// Timed repetitions per case.
const REPS: usize = 7;

/// The call shapes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Events in flight in the queue (the workload's steady occupancy).
    pub queue_pending: usize,
    /// Bytes per device DMA and per link reservation.
    pub dma_bytes: u64,
    /// Bytes per CPU read (the copy or the STREAM chunk).
    pub cpu_bytes: u64,
    /// The Skylake NVMe testbed instead of the Broadwell network server.
    pub skylake: bool,
}

/// Wall time one timed repetition of a case aims at.
const REP_NS: f64 = 20e6;

/// Median ns per call of `f`, which performs `calls` calls per invocation;
/// the invocations per repetition are calibrated to [`REP_NS`].
fn per_call<F: FnMut()>(calls: u64, mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    let once = (t0.elapsed().as_nanos() as f64).max(1.0);
    let iters = (REP_NS / once).clamp(1.0, 1e6) as u32;
    for _ in 0..iters / 4 {
        f();
    }
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        v.push(t0.elapsed().as_nanos() as f64 / (f64::from(iters) * calls as f64));
    }
    median(&mut v)
}

/// `EventQueue::push` + `pop_batch_into` per event, at the workload's
/// occupancy with follow-ups 0.1–20 µs ahead.
pub fn queue_push_pop_ns(s: Shape, seed: u64) -> f64 {
    let mut rng = SimRng::seed(seed);
    let deltas: Vec<Dur> = (0..1024)
        .map(|_| Dur::from_ns(100 + rng.below(20_000)))
        .collect();
    let mut q = EventQueue::new();
    for (i, d) in deltas.iter().take(s.queue_pending).enumerate() {
        q.push(Time::ZERO + *d, i as u64);
    }
    let mut batch = Vec::with_capacity(64);
    let mut k = 0usize;
    const EVENTS: u64 = 1000;
    per_call(EVENTS, || {
        let mut done = 0;
        while done < EVENTS {
            let now = q.pop_batch_into(&mut batch).expect("occupancy is constant");
            for ev in batch.drain(..) {
                k = (k + 1) % deltas.len();
                q.push(now + deltas[k], black_box(ev));
                done += 1;
            }
        }
    })
}

/// `BwLink::reserve` of one DMA on a PCIe Gen3 x8 link kept about half busy.
pub fn bwlink_reserve_ns(s: Shape) -> f64 {
    let bps = 7_880_000_000u64;
    let mut l = BwLink::new("pcie", bps, Dur::from_ns(250));
    let gap = Dur::from_ns(2 * s.dma_bytes * 1_000_000_000 / bps + 1);
    let mut t = Time::ZERO;
    per_call(1000, || {
        for _ in 0..1000 {
            t += gap;
            black_box(l.reserve(t, s.dma_bytes));
        }
    })
}

fn mem_config(s: Shape) -> MemConfig {
    if s.skylake {
        MemConfig::dual_socket_skylake()
    } else {
        MemConfig::dual_socket_broadwell()
    }
}

/// A memory system with a node-1 buffer ring of 64 MiB (twice an LLC).
fn mem_ring(s: Shape) -> (MemSystem, PhysAddr, u64) {
    let mut m = MemSystem::new(mem_config(s));
    let ring = 64 << 20;
    let buf = m.alloc(NodeId(1), ring);
    (m, buf, ring)
}

/// Which memsys call a case times.
#[derive(Debug, Clone, Copy)]
pub enum MemOp {
    /// `dma_write` from the device, alternating local and remote PFs.
    DmaWrite,
    /// `dma_read` by the device, alternating local and remote PFs.
    DmaRead,
    /// `cpu_read` by a node-1 core (streaming copy).
    CpuRead,
}

/// ns per memsys call of `op` at the workload's sizes, walking the ring.
pub fn mem_ns(s: Shape, op: MemOp) -> f64 {
    let (mut m, buf, ring) = mem_ring(s);
    let len = match op {
        MemOp::DmaWrite | MemOp::DmaRead => s.dma_bytes,
        MemOp::CpuRead => s.cpu_bytes,
    };
    let mut off = 0u64;
    let mut now = Time::ZERO;
    let mut dev = 0usize;
    per_call(100, || {
        for _ in 0..100 {
            off = (off + len.next_multiple_of(64)) % (ring - len);
            dev ^= 1;
            let at = buf.offset(off);
            let d = match op {
                MemOp::DmaWrite => m.dma_write(now, NodeId(dev), at, len),
                MemOp::DmaRead => m.dma_read(now, NodeId(dev), at, len),
                MemOp::CpuRead => m.cpu_read(now, NodeId(1), at, len, AccessKind::Stream),
            };
            now += black_box(d);
        }
    })
}

/// `Ssd::read` of one 128 KiB fio block into a node-1 buffer through the
/// fixed node-0 port, submitted every 10 µs.
pub fn ssd_read_ns() -> f64 {
    let mut mem = MemSystem::new(MemConfig::dual_socket_skylake());
    let mut fabric = PcieFabric::new(FabricConfig::default());
    let p0 = fabric.add_endpoint(NodeId(0), PcieGen::Gen3, 4);
    let p1 = fabric.add_endpoint(NodeId(1), PcieGen::Gen3, 4);
    let cfg = SsdConfig::new(MediaConfig::pm1725a(), PortPolicy::Fixed(0));
    let mut ssd = Ssd::new(0, cfg, vec![p0, p1], &mut mem, NodeId(1));
    let block = workloads::fio::BLOCK_BYTES;
    let bufs: Vec<PhysAddr> = (0..32).map(|_| mem.alloc(NodeId(1), block)).collect();
    let mut now = Time::ZERO;
    let mut k = 0usize;
    per_call(50, || {
        for _ in 0..50 {
            k = (k + 1) % bufs.len();
            now += Dur::from_us(10);
            black_box(ssd.read(now, bufs[k], block, &mut fabric, &mut mem));
        }
    })
}
