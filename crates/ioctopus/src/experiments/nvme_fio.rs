//! Figure 15: NVMe NUDMA — fio vs. UPI-congesting STREAM instances.
//!
//! "We run 8 fio threads that each perform asynchronous direct reads …
//! Each thread continuously submits 32 read requests for 128 KB blocks.
//! The fio jobs interact with an SSD remote from their CPU. To load the
//! interconnect, we run instances of the STREAM benchmark that target
//! memory of the fio node but run on the SSD's node. The throughput of fio
//! degrades by up to 24% after five instances of STREAM, as a result of
//! UPI saturation." (§5.4)
//!
//! The runner also supports the OctoSSD mode (the paper's future work):
//! dual-port drives whose data DMA rides the port local to the buffer.

use std::collections::BinaryHeap;

use kernel::Cores;
use memsys::{MemConfig, MemSystem, NodeId};
use nvme::{MediaConfig, PortPolicy, Ssd, SsdConfig};
use pcie::{FabricConfig, PcieFabric, PcieGen};
use simcore::{Dur, Time};
use workloads::fio::{FioJob, BLOCK_BYTES, QUEUE_DEPTH};
use workloads::StreamAntagonist;

use crate::results::NvmeResult;

/// Number of fio jobs (paper: 8).
pub const JOBS: usize = 8;
/// Number of drives (paper: 4).
pub const SSDS: usize = 4;

/// Per-completion CPU cost of the io_uring/libaio reap + resubmit path.
const REAP_COST: Dur = Dur::from_us(2);

#[derive(Debug, PartialEq, Eq)]
struct Pending {
    at: Time,
    job: usize,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at) // min-heap
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Raw outcome of one run.
#[derive(Debug, Clone, Copy)]
pub struct FioRun {
    /// fio aggregate bytes/second.
    pub fio_bytes_per_sec: f64,
    /// STREAM aggregate bytes/second.
    pub stream_bytes_per_sec: f64,
}

/// Runs fio + `streams` antagonist instances on the Skylake NVMe testbed.
pub fn run_raw(streams: usize, octo: bool, sim_ms: u64) -> FioRun {
    let mut mem = MemSystem::new(MemConfig::dual_socket_skylake());
    let mut fabric = PcieFabric::new(FabricConfig::default());
    let mut cores = Cores::new(mem.topology().total_cores());

    // Four dual-port drives; command port (index 0) on node 0 — remote to
    // the fio threads on node 1.
    let policy = if octo {
        PortPolicy::LocalToBuffer
    } else {
        PortPolicy::Fixed(0)
    };
    let mut ssds: Vec<Ssd> = (0..SSDS)
        .map(|i| {
            let p0 = fabric.add_endpoint(NodeId(0), PcieGen::Gen3, 4);
            let p1 = fabric.add_endpoint(NodeId(1), PcieGen::Gen3, 4);
            Ssd::new(
                i,
                SsdConfig::new(MediaConfig::pm1725a(), policy),
                vec![p0, p1],
                &mut mem,
                NodeId(1),
            )
        })
        .collect();

    // fio jobs on node-1 cores (24..), buffers node-local to the jobs.
    let mut jobs: Vec<FioJob> = (0..JOBS)
        .map(|j| {
            let bufs = (0..QUEUE_DEPTH)
                .map(|_| mem.alloc(NodeId(1), BLOCK_BYTES))
                .collect();
            FioJob::new(24 + j, j % SSDS, QUEUE_DEPTH, bufs)
        })
        .collect();

    // STREAM instances on node-0 cores, targeting node-1 memory (copy
    // kernel: both directions loaded).
    let mut ants: Vec<StreamAntagonist> = (0..streams)
        .flat_map(|i| {
            let (r, w) = StreamAntagonist::pair((2 * i) % 20, (2 * i + 1) % 20, NodeId(1));
            [r, w]
        })
        .collect();
    let mut ant_clocks = vec![Time::ZERO; ants.len()];

    let end = Time::from_ms(sim_ms);
    let warmup = Time::from_ms(sim_ms / 4);
    let mut heap = BinaryHeap::new();

    // Prime the queues, staggered at roughly the drives' service cadence:
    // a queue depth builds up no faster than the drive answers, and an
    // instantaneous 8 MB reservation burst would poison the transfer links.
    for (j, job) in jobs.iter_mut().enumerate() {
        let mut at = Time::ZERO;
        while job.want_to_submit() > 0 {
            let buf = job.submit();
            let r = ssds[job.ssd].read(at, buf, BLOCK_BYTES, &mut fabric, &mut mem);
            heap.push(Pending {
                at: r.done_at,
                job: j,
            });
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
        // Step antagonists whose clocks lag this completion.
        for (i, a) in ants.iter_mut().enumerate() {
            while ant_clocks[i] < at {
                ant_clocks[i] = a.step(ant_clocks[i], &mut mem, &mut cores);
            }
        }
        if !counted && at >= warmup {
            counted = true;
            stream_base = ants.iter().map(StreamAntagonist::bytes_done).sum();
        }
        jobs[job].complete(BLOCK_BYTES);
        if at >= warmup {
            fio_bytes += BLOCK_BYTES;
        }
        // Reap + resubmit on the job's core.
        let t = cores.run(jobs[job].core, at, REAP_COST);
        let buf = jobs[job].submit();
        let ssd = jobs[job].ssd;
        let r = ssds[ssd].read(t, buf, BLOCK_BYTES, &mut fabric, &mut mem);
        heap.push(Pending { at: r.done_at, job });
    }
    let window = end.since(warmup).as_secs();
    let stream_total: u64 =
        ants.iter().map(StreamAntagonist::bytes_done).sum::<u64>() - stream_base;
    FioRun {
        fio_bytes_per_sec: fio_bytes as f64 / window,
        stream_bytes_per_sec: stream_total as f64 / window,
    }
}

/// Runs the normalized Figure 15 point for `streams` antagonists.
pub fn run(streams: usize, octo: bool, sim_ms: u64) -> NvmeResult {
    let loaded = run_raw(streams, octo, sim_ms);
    let fio_alone = run_raw(0, octo, sim_ms).fio_bytes_per_sec;
    let stream_solo = run_raw_stream_solo(sim_ms);
    NvmeResult {
        streams,
        fio_normalized: loaded.fio_bytes_per_sec / fio_alone,
        stream_normalized: if streams == 0 {
            1.0
        } else {
            loaded.stream_bytes_per_sec / (streams as f64 * stream_solo)
        },
        fio_gbs: loaded.fio_bytes_per_sec / 1e9,
    }
}

/// Bandwidth of a single STREAM instance (reader + writer pair on their own
/// cores) running alone on the testbed.
pub fn run_raw_stream_solo(sim_ms: u64) -> f64 {
    let mut mem = MemSystem::new(MemConfig::dual_socket_skylake());
    let mut cores = Cores::new(mem.topology().total_cores());
    let (mut r, mut w) = StreamAntagonist::pair(0, 1, NodeId(1));
    let end = Time::from_ms(sim_ms);
    let mut tr = Time::ZERO;
    let mut tw = Time::ZERO;
    while tr < end || tw < end {
        if tr <= tw {
            tr = r.step(tr, &mut mem, &mut cores);
        } else {
            tw = w.step(tw, &mut mem, &mut cores);
        }
    }
    (r.bytes_done() + w.bytes_done()) as f64 / end.as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_fio_degrades_under_upi_load() {
        let r5 = run(5, false, 8);
        assert!(
            r5.fio_normalized < 0.97,
            "fio under 5 STREAMs = {:.2} (paper ~0.76)",
            r5.fio_normalized
        );
        assert!(
            r5.fio_normalized > 0.5,
            "degradation bounded: {:.2}",
            r5.fio_normalized
        );
    }

    #[test]
    fn fig15_degradation_monotone_then_flat() {
        let r1 = run(1, false, 8);
        let r5 = run(5, false, 8);
        let r8 = run(8, false, 8);
        assert!(r1.fio_normalized >= r5.fio_normalized - 0.02);
        // "degrades by up to 24% after five instances ... then flat".
        assert!(
            (r8.fio_normalized - r5.fio_normalized).abs() < 0.15,
            "flat tail: {} vs {}",
            r5.fio_normalized,
            r8.fio_normalized
        );
    }

    #[test]
    fn fig15_stream_also_degrades() {
        let r8 = run(8, false, 8);
        assert!(
            r8.stream_normalized < 0.9,
            "STREAM shares the pain: {:.2}",
            r8.stream_normalized
        );
    }

    #[test]
    fn octossd_extension_immunizes_fio() {
        let fixed = run(5, false, 8);
        let octo = run(5, true, 8);
        assert!(
            octo.fio_normalized > fixed.fio_normalized,
            "OctoSSD {:.2} vs fixed-port {:.2}",
            octo.fio_normalized,
            fixed.fio_normalized
        );
        assert!(
            octo.fio_normalized > 0.9,
            "OctoSSD nearly flat: {:.2}",
            octo.fio_normalized
        );
    }

    #[test]
    fn fio_alone_saturates_drives() {
        // 4 drives × 3.2 GB/s ≈ 12.8 GB/s media bound.
        let r = run_raw(0, false, 8);
        let gbs = r.fio_bytes_per_sec / 1e9;
        assert!(gbs > 8.0 && gbs < 13.5, "fio alone = {gbs:.1} GB/s");
    }
}
