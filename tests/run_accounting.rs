//! Every experiment runner credits the process-wide run counters
//! (`telemetry::registry::{EVENTS, AUDITS, FENCED, RECONFIGS}`) that the
//! bench footers and `BENCH_2.json` drain. A runner that stopped crediting
//! would only show up as a zero in a footer, so this test runs each
//! crediting runner once, at the size its own unit tests use (colocation
//! excepted, see below), and checks what it credited.
//!
//! Single test in this binary on purpose: the counters are process-wide,
//! and tests in one binary run in parallel.

use ioctopus::config::Placement;
use ioctopus::experiments::{
    chaos, colocation, congestion, failover, memcached, migration, multicore, nvme_fio, pktgen,
    reconfig, tcp_rr, tcp_stream,
};
use simcore::FaultPlan;
use telemetry::registry::{take_run_stats, RunStats};

/// Runs `f` and returns what it credited, after checking it dispatched
/// at least one event.
fn credited<R>(name: &str, f: impl FnOnce() -> R) -> RunStats {
    let _ = f();
    let got = take_run_stats();
    assert!(got.events > 0, "{name} credited no events: {got:?}");
    got
}

#[test]
fn every_runner_credits_the_run_counters() {
    let _ = take_run_stats();

    credited("tcp_stream::run_rx", || {
        tcp_stream::run_rx(Placement::Local, 65536, 8)
    });
    credited("tcp_stream::run_tx", || {
        tcp_stream::run_tx(Placement::Local, 65536, 8)
    });
    credited("tcp_rr::run", || tcp_rr::run(tcp_rr::RrConfig::Ll, 64, 40));
    credited("pktgen::run", || {
        pktgen::run(Placement::Local, 64, 6, false)
    });
    credited("memcached::run", || {
        memcached::run(Placement::Octopus, 0.0, 12)
    });
    credited("congestion::run_fig11", || {
        congestion::run_fig11(Placement::Remote, 1, 10)
    });
    credited("congestion::run_fig12", || {
        congestion::run_fig12(Placement::Octopus, 1, 50)
    });
    // The colocation unit tests run 150 chunks over 200 ms, which takes
    // ~50 s in an unoptimised build; the benchmark's check size (20
    // chunks, 30 ms) reaches the same credit site.
    credited("colocation::run", || {
        colocation::run(Placement::Octopus, colocation::IoKind::Netperf, 20, 30)
    });
    credited("colocation::run_pr_alone", || colocation::run_pr_alone(20));
    credited("multicore::run_rx", || {
        multicore::run_rx(Placement::Octopus, 1, 6)
    });
    credited("failover::run", || failover::run(true));
    credited("migration::run", || migration::run(true));
    credited("nvme_fio::run", || nvme_fio::run(5, false, 8));

    let r = credited("reconfig::run", reconfig::run);
    assert!(
        r.reconfigs > 0,
        "reconfig::run credited no reconfigs: {r:?}"
    );

    // Schedule indices 0..4 cover the four chaos families in rotation.
    let cfg = chaos::base_config(0xc4a0);
    for index in 0..4 {
        let family = chaos::family_of(index);
        let r = credited(&format!("chaos {family:?}"), || {
            chaos::run_schedule(&cfg, index)
        });
        assert!(r.audits > 0, "chaos {family:?} credited no audits: {r:?}");
    }
    let empty = FaultPlan::new();
    let r = credited("chaos::sabotaged_run_trips_audit", || {
        chaos::sabotaged_run_trips_audit(&empty)
    });
    assert!(r.audits > 0, "sabotaged run credited no audits: {r:?}");
    let r = credited("chaos::sabotaged_readd_trips_audit", || {
        chaos::sabotaged_readd_trips_audit(&empty)
    });
    assert!(r.audits > 0, "sabotaged re-add credited no audits: {r:?}");
}
