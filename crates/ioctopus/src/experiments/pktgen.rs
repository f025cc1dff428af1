//! Figure 8: single-core pktgen packet throughput, plus the §2.4
//! remote-completion-ring ablation.

use kernel::NetdevId;
use memsys::AccessKind;
use nic::FlowTuple;
use simcore::{OutBuf, Time};

use crate::config::{BuildOpts, Placement};
use crate::results::ThroughputResult;
use crate::system::build_duplex;

use super::{gbps, Window};

/// Runs single-core pktgen at `pkt_bytes`-byte packets.
///
/// `rings_device_local` reproduces the §2.4 experiment where the response
/// ring is "allocated locally to the device and remotely to the CPU",
/// which the paper found "yields only a marginal performance improvement
/// of up to 2%".
pub fn run(
    p: Placement,
    pkt_bytes: u64,
    sim_ms: u64,
    rings_device_local: bool,
) -> ThroughputResult {
    let mut duplex = build_duplex(
        p,
        BuildOpts {
            server_rings_device_local: rings_device_local,
            ..BuildOpts::default()
        },
    );
    let core = p.app_core();
    let node = duplex.server.mem.topology().node_of_core(core);
    let flow = FlowTuple::udp(0x0A00_0002, 9, 0x0A00_0001, 9);
    let pkt_buf = duplex.server.mem.alloc(node, 2048);
    // pktgen initializes the packet once; it stays hot in the local LLC.
    duplex
        .server
        .mem
        .cpu_write(Time::ZERO, node, pkt_buf, pkt_bytes, AccessKind::Stream);

    let w = Window::of_ms(sim_ms);
    let mut t = Time::ZERO;
    let mut measured: u64 = 0;
    let mut counters_reset = false;
    let mut outs = OutBuf::new();
    while t < w.end {
        if !counters_reset && t >= w.warmup {
            duplex.server.mem.reset_counters();
            duplex.server.cores.reset_meters();
            measured = 0;
            counters_reset = true;
        }
        outs.clear();
        let done = duplex.server.pktgen_round(
            t,
            core,
            NetdevId(0),
            flow,
            pkt_buf,
            pkt_bytes,
            64,
            &mut outs,
        );
        measured += outs.len() as u64;
        assert!(done > t, "pktgen must make progress");
        t = done;
    }
    let bytes = measured * pkt_bytes;
    ThroughputResult {
        config: p.label().to_string(),
        x: pkt_bytes as f64,
        throughput_gbps: gbps(bytes, w),
        membw_gbps: gbps(duplex.server.mem.counters().total_dram_bytes(), w),
        cpu_cores: 1.0,
        rate_per_sec: measured as f64 / w.secs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_local_beats_remote_by_per_packet_delta() {
        let local = run(Placement::Local, 64, 8, false);
        let remote = run(Placement::Remote, 64, 8, false);
        let ratio = local.rate_per_sec / remote.rate_per_sec;
        assert!(
            ratio > 1.15 && ratio < 1.7,
            "pktgen 64B local/remote = {ratio:.2} (paper 1.30–1.39)"
        );
        // The delta should be roughly one DRAM completion-entry read.
        let delta_ns = 1e9 / remote.rate_per_sec - 1e9 / local.rate_per_sec;
        assert!(
            (40.0..200.0).contains(&delta_ns),
            "per-packet delta = {delta_ns:.0} ns (paper ~80 ns)"
        );
    }

    #[test]
    fn fig8_octopus_matches_local() {
        let local = run(Placement::Local, 64, 6, false);
        let octo = run(Placement::Octopus, 64, 6, false);
        let ratio = octo.rate_per_sec / local.rate_per_sec;
        assert!((0.9..1.1).contains(&ratio), "octo/local = {ratio:.3}");
    }

    #[test]
    fn fig8_local_has_negligible_membw() {
        let local = run(Placement::Local, 1024, 6, false);
        assert!(
            local.membw_gbps < 0.2 * local.throughput_gbps,
            "local membw {:.2} vs tput {:.2}",
            local.membw_gbps,
            local.throughput_gbps
        );
        let remote = run(Placement::Remote, 1024, 6, false);
        assert!(
            remote.membw_gbps > 0.5 * remote.throughput_gbps,
            "remote membw {:.2} vs tput {:.2}",
            remote.membw_gbps,
            remote.throughput_gbps
        );
    }

    #[test]
    fn sec24_remote_ring_ablation_is_marginal() {
        // Placing the ring local to the device helps remote pktgen by no
        // more than a few percent (paper: "up to 2%").
        let normal = run(Placement::Remote, 64, 8, false);
        let dev_ring = run(Placement::Remote, 64, 8, true);
        let improvement = dev_ring.rate_per_sec / normal.rate_per_sec;
        assert!(
            (0.95..1.10).contains(&improvement),
            "remote-ring improvement = {improvement:.3} (paper ≤ 1.02)"
        );
    }
}
