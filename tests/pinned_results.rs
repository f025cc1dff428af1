//! Pinned simulated results: the exact bit patterns of a few figure points
//! that together drive every LLC walk in `memsys` — DDIO inserts with dirty
//! evictions and cache-to-cache transfers (Fig. 13 colocated), remote DMA
//! writes that invalidate (Fig. 13 remote, Fig. 6 remote), 128 KiB NVMe
//! reads on both port policies and the STREAM antagonist (Fig. 15).
//!
//! The determinism tests compare a run with itself, so a refactor that
//! shifts one LRU tick would pass them. These values compare against a
//! recording instead: a change meant to be a pure speedup must leave every
//! one bit-identical. A change that alters simulated behaviour on purpose
//! re-records the table (the failure message prints it) and says why.

use ioctopus::config::{BuildOpts, Placement};
use ioctopus::experiments::colocation::{self, IoKind};
use ioctopus::experiments::nvme_fio;
use ioctopus::netloop::{make_rx_stream, App, NetLoop};
use ioctopus::system::build_duplex;
use simcore::Time;

/// `NetLoop::checksum` after 8 simulated ms of Fig. 6 TCP RX (64 KiB
/// messages) under placement `p`.
fn fig06_rx_checksum(p: Placement) -> u64 {
    let mut duplex = build_duplex(p, BuildOpts::default());
    let app = make_rx_stream(
        &mut duplex,
        p.app_core(),
        0,
        kernel::NetdevId(0),
        65536,
        512 * 1024,
        4242,
    );
    let mut nl = NetLoop::new(duplex);
    nl.add_app(App::Rx(app));
    nl.start_apps(Time::ZERO);
    nl.run(Time::from_ms(8));
    nl.checksum()
}

fn measured() -> Vec<(&'static str, u64)> {
    let fixed = nvme_fio::run_raw(5, false, 8);
    let octo = nvme_fio::run_raw(5, true, 8);
    let solo = nvme_fio::run_raw_stream_solo(8);
    let coloc_octo = colocation::run(Placement::Octopus, IoKind::Netperf, 20, 30);
    let coloc_remote = colocation::run(Placement::Remote, IoKind::Netperf, 20, 30);
    vec![
        (
            "fig15 fixed fio_bytes_per_sec",
            fixed.fio_bytes_per_sec.to_bits(),
        ),
        (
            "fig15 fixed stream_bytes_per_sec",
            fixed.stream_bytes_per_sec.to_bits(),
        ),
        (
            "fig15 octo fio_bytes_per_sec",
            octo.fio_bytes_per_sec.to_bits(),
        ),
        (
            "fig15 octo stream_bytes_per_sec",
            octo.stream_bytes_per_sec.to_bits(),
        ),
        ("fig15 stream solo", solo.to_bits()),
        ("fig13 octopus pr_time_ms", coloc_octo.pr_time_ms.to_bits()),
        ("fig13 octopus io_metric", coloc_octo.io_metric.to_bits()),
        ("fig13 remote pr_time_ms", coloc_remote.pr_time_ms.to_bits()),
        ("fig13 remote io_metric", coloc_remote.io_metric.to_bits()),
        (
            "fig06 octopus rx checksum",
            fig06_rx_checksum(Placement::Octopus),
        ),
        (
            "fig06 remote rx checksum",
            fig06_rx_checksum(Placement::Remote),
        ),
    ]
}

const PINNED: [(&str, u64); 11] = [
    ("fig15 fixed fio_bytes_per_sec", 0x4201c81555555555),
    ("fig15 fixed stream_bytes_per_sec", 0x42286a0000000000),
    ("fig15 octo fio_bytes_per_sec", 0x4205e42aaaaaaaab),
    ("fig15 octo stream_bytes_per_sec", 0x422ccf0000000000),
    ("fig15 stream solo", 0x4210d88000000000),
    ("fig13 octopus pr_time_ms", 0x3ff9d21b5023c00a),
    ("fig13 octopus io_metric", 0x40536024749b2425),
    ("fig13 remote pr_time_ms", 0x400834fed9a080fb),
    ("fig13 remote io_metric", 0x403b50be5e75005d),
    ("fig06 octopus rx checksum", 0x96d8942108df17e2),
    ("fig06 remote rx checksum", 0xee78aeea83fab609),
];

#[test]
fn figure_points_match_their_recorded_bit_patterns() {
    let got = measured();
    let table: String = got
        .iter()
        .map(|(name, bits)| format!("    ({name:?}, {bits:#018x}),\n"))
        .collect();
    let drifted: Vec<&str> = got
        .iter()
        .zip(PINNED)
        .filter(|(g, p)| **g != *p)
        .map(|(p, _)| p.0)
        .collect();
    assert!(
        drifted.is_empty(),
        "simulated results drifted: {drifted:?}\nmeasured table:\n{table}"
    );
}
