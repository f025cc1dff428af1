//! The `nvme_fio` workload: Fig. 15's fio jobs against STREAM pairs.
//!
//! The untraced run calls `nvme_fio::run_raw` itself. The traced run
//! replays `run_raw`'s calls here, with spans around `Ssd::read`,
//! `StreamAntagonist::step` and `Cores::run`; its `FioRun` must be
//! bit-identical to `run_raw`'s, so both runs measure the same program.
//! This workload has no seeded input: `run_raw` takes none.

use std::collections::BinaryHeap;
use std::time::Instant;

use ioctopus::experiments::nvme_fio::{self, FioRun, JOBS, SSDS};
use kernel::Cores;
use memsys::{MemConfig, MemSystem, NodeId};
use nvme::{MediaConfig, PortPolicy, Ssd, SsdConfig};
use pcie::{FabricConfig, PcieFabric, PcieGen};
use simcore::{Audit, Dur, Time};
use workloads::fio::{FioJob, BLOCK_BYTES, QUEUE_DEPTH};
use workloads::StreamAntagonist;

use crate::spans::Tracer;

/// STREAM pairs of the loaded points (the paper's headline point).
pub const STREAMS: usize = 5;
/// Per-completion CPU cost of the reap + resubmit path (as `run_raw`).
const REAP_COST: Dur = Dur::from_us(2);

/// One simulated point of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FioPoint {
    /// fio with `streams` STREAM pairs; `octo` selects OctoSSD ports.
    Fio {
        /// STREAM pairs loading the interconnect.
        streams: usize,
        /// OctoSSD (`LocalToBuffer`) instead of the fixed NUDMA port.
        octo: bool,
    },
    /// One STREAM pair alone (the STREAM normaliser).
    StreamSolo,
}

/// The points of one pass: loaded fixed-port and OctoSSD, their fio-alone
/// normalisers, and the STREAM-solo normaliser.
pub const POINTS: [FioPoint; 5] = [
    FioPoint::Fio {
        streams: STREAMS,
        octo: false,
    },
    FioPoint::Fio {
        streams: STREAMS,
        octo: true,
    },
    FioPoint::Fio {
        streams: 0,
        octo: false,
    },
    FioPoint::Fio {
        streams: 0,
        octo: true,
    },
    FioPoint::StreamSolo,
];

/// Bit patterns of a point's result: fio and STREAM bytes/s for fio
/// points, STREAM bytes/s for the solo point.
pub type Bits = [u64; 2];

fn bits(r: FioRun) -> Bits {
    [
        r.fio_bytes_per_sec.to_bits(),
        r.stream_bytes_per_sec.to_bits(),
    ]
}

/// `run_raw` (or `run_raw_stream_solo`) for `pt`, as bit patterns.
pub fn library(pt: FioPoint, sim_ms: u64) -> Bits {
    match pt {
        FioPoint::Fio { streams, octo } => bits(nvme_fio::run_raw(streams, octo, sim_ms)),
        FioPoint::StreamSolo => [nvme_fio::run_raw_stream_solo(sim_ms).to_bits(), 0],
    }
}

/// What the replay of one point observed.
#[derive(Debug, Default)]
pub struct Replay {
    /// Result bit patterns (compare with [`library`]).
    pub bits: Bits,
    /// Wall time of the simulation loop.
    pub run_ns: u64,
    /// fio completions popped by the side loop.
    pub completions: u64,
    /// `Ssd::reads` summed over the drives.
    pub reads: u64,
    /// Reads whose data DMA used a port remote to the buffer.
    pub remote_data_reads: u64,
    /// Commands that completed with an error.
    pub failed_commands: u64,
    /// Memory-system and fabric counters at the end of the run.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Stall-memo hits.
    pub memo_hits: u64,
    /// Stall-memo misses.
    pub memo_misses: u64,
    /// Interconnect bytes since the warm-up reset (never reset here).
    pub interconnect_bytes: u64,
    /// DRAM bytes read + written.
    pub dram_bytes: u64,
    /// PCIe transactions issued.
    pub issued_txns: u64,
    /// PCIe transactions dropped.
    pub dropped_txns: u64,
    /// The fabric's conservation audit found no violation.
    pub audit_ok: bool,
    /// Simulated CPU use over the span, in cores.
    pub cpu_util: f64,
}

impl Replay {
    fn memsys(&mut self, mem: &MemSystem) {
        let c = mem.counters();
        self.llc_hits = c.llc_hits;
        self.llc_misses = c.llc_misses;
        (self.memo_hits, self.memo_misses) = mem.memo_stats();
        self.interconnect_bytes = c.interconnect_bytes;
        self.dram_bytes = c.dram_reads.iter().sum::<u64>() + c.dram_writes.iter().sum::<u64>();
    }
}

/// Replays one point's construction and simulation with spans.
pub fn replay(pt: FioPoint, sim_ms: u64, tr: &mut Tracer) -> Replay {
    match pt {
        FioPoint::Fio { streams, octo } => replay_fio(streams, octo, sim_ms, tr),
        FioPoint::StreamSolo => replay_solo(sim_ms, tr),
    }
}

/// A pending completion (min-heap on time, as `run_raw`'s).
#[derive(Debug, PartialEq, Eq)]
struct Pending {
    at: Time,
    job: usize,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The fio testbed `run_raw` builds, constructed with spans.
struct Testbed {
    mem: MemSystem,
    fabric: PcieFabric,
    cores: Cores,
    ssds: Vec<Ssd>,
    jobs: Vec<FioJob>,
    ants: Vec<StreamAntagonist>,
}

/// `run_raw`'s construction calls, timed by the caller.
fn build_testbed(streams: usize, octo: bool, tr: &mut Tracer) -> Testbed {
    let g = tr.enter("MemSystem::new");
    let mut mem = MemSystem::new(MemConfig::dual_socket_skylake());
    tr.exit(g);
    let g = tr.enter("PcieFabric::new");
    let mut fabric = PcieFabric::new(FabricConfig::default());
    tr.exit(g);
    let cores = Cores::new(mem.topology().total_cores());
    let policy = if octo {
        PortPolicy::LocalToBuffer
    } else {
        PortPolicy::Fixed(0)
    };
    let ssds = (0..SSDS)
        .map(|i| {
            let g = tr.enter("Ssd::new");
            let p0 = fabric.add_endpoint(NodeId(0), PcieGen::Gen3, 4);
            let p1 = fabric.add_endpoint(NodeId(1), PcieGen::Gen3, 4);
            let s = Ssd::new(
                i,
                SsdConfig::new(MediaConfig::pm1725a(), policy),
                vec![p0, p1],
                &mut mem,
                NodeId(1),
            );
            tr.exit(g);
            s
        })
        .collect();
    let g = tr.enter("alloc");
    let jobs = (0..JOBS)
        .map(|j| {
            let bufs = (0..QUEUE_DEPTH)
                .map(|_| mem.alloc(NodeId(1), BLOCK_BYTES))
                .collect();
            FioJob::new(24 + j, j % SSDS, QUEUE_DEPTH, bufs)
        })
        .collect();
    tr.exit(g);
    let ants = (0..streams)
        .flat_map(|i| {
            let (r, w) = StreamAntagonist::pair((2 * i) % 20, (2 * i + 1) % 20, NodeId(1));
            [r, w]
        })
        .collect();
    Testbed {
        mem,
        fabric,
        cores,
        ssds,
        jobs,
        ants,
    }
}

/// Wall time of one point's construction calls, with `run_raw`'s arguments.
pub fn setup_ns(pt: FioPoint) -> u64 {
    fn timed<T>(build: impl FnOnce() -> T) -> u64 {
        let t0 = Instant::now();
        let built = build();
        let ns = crate::spans::nanos(t0.elapsed());
        drop(std::hint::black_box(built));
        ns
    }
    let mut off = Tracer::new(false);
    match pt {
        FioPoint::Fio { streams, octo } => timed(|| build_testbed(streams, octo, &mut off)),
        FioPoint::StreamSolo => timed(build_solo),
    }
}

/// Issues one read with a span, tallying remote data DMA.
fn read(
    tb: &mut Testbed,
    ssd: usize,
    at: Time,
    buf: memsys::PhysAddr,
    out: &mut Replay,
    tr: &mut Tracer,
) -> Time {
    let g = tr.enter("Ssd::read");
    let r = tb.ssds[ssd].read(at, buf, BLOCK_BYTES, &mut tb.fabric, &mut tb.mem);
    tr.exit(g);
    if tb.fabric.node_of(r.data_pf) != Some(buf.home()) {
        out.remote_data_reads += 1;
    }
    out.failed_commands += u64::from(r.error);
    r.done_at
}

fn replay_fio(streams: usize, octo: bool, sim_ms: u64, tr: &mut Tracer) -> Replay {
    let mut out = Replay::default();
    let g = tr.enter("setup");
    let mut tb = build_testbed(streams, octo, tr);
    tr.exit(g);

    let g_sim = tr.enter("simulate");
    let t0 = Instant::now();
    let mut ant_clocks = vec![Time::ZERO; tb.ants.len()];
    let end = Time::from_ms(sim_ms);
    let warmup = Time::from_ms(sim_ms / 4);
    let mut heap = BinaryHeap::new();
    for j in 0..tb.jobs.len() {
        let mut at = Time::ZERO;
        while tb.jobs[j].want_to_submit() > 0 {
            let buf = tb.jobs[j].submit();
            let ssd = tb.jobs[j].ssd;
            let done = read(&mut tb, ssd, at, buf, &mut out, tr);
            heap.push(Pending { at: done, job: j });
            at += Dur::from_us(10);
        }
    }
    let mut fio_bytes = 0u64;
    let mut stream_base = 0u64;
    let mut counted = false;
    while let Some(Pending { at, job }) = heap.pop() {
        if at > end {
            break;
        }
        out.completions += 1;
        for (i, a) in tb.ants.iter_mut().enumerate() {
            while ant_clocks[i] < at {
                let g = tr.enter("StreamAntagonist::step");
                ant_clocks[i] = a.step(ant_clocks[i], &mut tb.mem, &mut tb.cores);
                tr.exit(g);
            }
        }
        if !counted && at >= warmup {
            counted = true;
            stream_base = tb.ants.iter().map(StreamAntagonist::bytes_done).sum();
        }
        tb.jobs[job].complete(BLOCK_BYTES);
        if at >= warmup {
            fio_bytes += BLOCK_BYTES;
        }
        let g = tr.enter("Cores::run");
        let t = tb.cores.run(tb.jobs[job].core, at, REAP_COST);
        tr.exit(g);
        let buf = tb.jobs[job].submit();
        let ssd = tb.jobs[job].ssd;
        let done = read(&mut tb, ssd, t, buf, &mut out, tr);
        heap.push(Pending { at: done, job });
    }
    out.run_ns = crate::spans::nanos(t0.elapsed());
    tr.exit(g_sim);

    let window = end.since(warmup).as_secs();
    let stream_total: u64 = tb
        .ants
        .iter()
        .map(StreamAntagonist::bytes_done)
        .sum::<u64>()
        - stream_base;
    out.bits = bits(FioRun {
        fio_bytes_per_sec: fio_bytes as f64 / window,
        stream_bytes_per_sec: stream_total as f64 / window,
    });
    out.reads = tb.ssds.iter().map(Ssd::reads).sum();
    out.memsys(&tb.mem);
    let fc = tb.fabric.counters();
    out.issued_txns = fc.issued_txns;
    out.dropped_txns = fc.dropped_txns;
    let mut audit = Audit::new();
    tb.fabric.audit(&mut audit);
    out.audit_ok = audit.ok();
    let n = tb.cores.len();
    out.cpu_util = tb.cores.utilization_of(0..n, Time::ZERO, end);
    out
}

fn build_solo() -> (MemSystem, Cores, StreamAntagonist, StreamAntagonist) {
    let mem = MemSystem::new(MemConfig::dual_socket_skylake());
    let cores = Cores::new(mem.topology().total_cores());
    let (r, w) = StreamAntagonist::pair(0, 1, NodeId(1));
    (mem, cores, r, w)
}

fn replay_solo(sim_ms: u64, tr: &mut Tracer) -> Replay {
    let mut out = Replay::default();
    let g = tr.enter("setup");
    let (mut mem, mut cores, mut r, mut w) = build_solo();
    tr.exit(g);

    let g_sim = tr.enter("simulate");
    let t0 = Instant::now();
    let end = Time::from_ms(sim_ms);
    let (mut tr_at, mut tw_at) = (Time::ZERO, Time::ZERO);
    while tr_at < end || tw_at < end {
        let g = tr.enter("StreamAntagonist::step");
        if tr_at <= tw_at {
            tr_at = r.step(tr_at, &mut mem, &mut cores);
        } else {
            tw_at = w.step(tw_at, &mut mem, &mut cores);
        }
        tr.exit(g);
    }
    out.run_ns = crate::spans::nanos(t0.elapsed());
    tr.exit(g_sim);
    let bw = (r.bytes_done() + w.bytes_done()) as f64 / end.as_secs();
    out.bits = [bw.to_bits(), 0];
    out.memsys(&mem);
    out.audit_ok = true;
    let n = cores.len();
    out.cpu_util = cores.utilization_of(0..n, Time::ZERO, end);
    out
}
