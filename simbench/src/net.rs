//! The three network workloads, driven through the simulator's public API
//! exactly as the figure runners drive it (`tcp_stream::run_rx`/`run_tx`,
//! `colocation::run`), with the flow ports taken from the seed.

use std::time::Instant;

use ioctopus::config::{BuildOpts, Placement};
use ioctopus::experiments::colocation::{self, IoKind, IO_PER_NODE, PR_THREADS_PER_NODE};
use ioctopus::experiments::{tcp_stream, Window};
use ioctopus::netloop::{make_rx_stream, make_tx_stream, App, NetLoop};
use ioctopus::system::build_duplex;
use kernel::NetdevId;
use simcore::alloc_count::allocation_count;
use simcore::{Dur, Time};
use telemetry::{LocalityTable, TraceKind};
use workloads::PageRank;

use crate::probe::Probe;
use crate::spans::Tracer;

/// Which figure a network workload reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// Fig. 6: TCP RX stream, 256 B messages, one flow.
    RxSmall,
    /// Fig. 7: TCP TX stream with TSO, 64 KiB messages, one flow.
    TxBulk,
    /// Fig. 13: four TCP RX 64 KiB flows next to 16 PageRank workers.
    ColocRx,
}

/// How much a point simulates.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated span (rx/tx) or deadline (coloc), milliseconds.
    pub sim_ms: u64,
    /// PageRank chunks per worker (coloc only).
    pub chunks: u64,
}

/// Message size of the stream workloads' flows.
fn msg_bytes(kind: NetKind) -> u64 {
    match kind {
        NetKind::RxSmall => 256,
        NetKind::TxBulk | NetKind::ColocRx => 65536,
    }
}

/// The receive window of every RX stream (as in the figure runners).
const RX_WINDOW: u64 = 512 * 1024;
/// Flow port of the figure runners' single stream; coloc's flows use
/// `COLOC_PORT + k`.
const STREAM_PORT: u16 = 4242;
/// First flow port of the coloc runner.
const COLOC_PORT: u16 = 6000;

/// Simulated length of one slice of `NetLoop::run` in the traced run.
const SLICE: Dur = Dur::from_us(100);
/// Slices between trace-ring harvests; with [`TRACE_CAP`] records per ring
/// a window never wraps (checked: a window that overwrites fails the run).
const HARVEST_EVERY: u64 = 20;
/// Records per tracer ring (NIC and kernel).
const TRACE_CAP: usize = 1 << 17;
/// Flight-recorder rows (flow × PF).
const FLIGHT_ROWS: usize = 64;

/// Tracing settings of a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off, `NetLoop::run` called once per measurement window.
    Plain,
    /// Tracing off, `NetLoop::run` called once per [`SLICE`] (slicing check).
    Sliced,
    /// Tracer rings, flight recorder and benchmark spans on, sliced.
    Traced,
    /// Tracing off, sliced, with a host-probe sample between slices every
    /// 10 ms of wall time (the end-to-end passes).
    Probed,
}

/// Trace records counted by kind over every harvest window.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindCounts {
    /// `FlowSteered` records.
    pub flow_steered: u64,
    /// `DmaRead` records.
    pub dma_reads: u64,
    /// `DmaWrite` records.
    pub dma_writes: u64,
    /// `IrqDelivered` records.
    pub irqs: u64,
    /// All retained records.
    pub records: u64,
    /// Records lost to ring wrap (0 in a valid window).
    pub overwritten: u64,
}

/// What one simulated point produced.
#[derive(Debug)]
pub struct NetPoint {
    /// Throughput in Gb/s (rx/tx) or PageRank time in ms (coloc).
    pub headline: f64,
    /// Bit patterns of every field of the runner's typed result.
    pub result_bits: Vec<u64>,
    /// `NetLoop::checksum()` at the end of the run.
    pub checksum: u64,
    /// EventQueue dispatches.
    pub events: u64,
    /// The server's per-run metric snapshot.
    pub snapshot: telemetry::Snapshot,
    /// The quiesce audit found no violation.
    pub audit_ok: bool,
    /// Simulated server CPU use, in cores.
    pub cpu_util: f64,
    /// Wall time in `NetLoop::run` (and the window bookkeeping around it).
    pub run_ns: u64,
    /// Host-probe ticks during the run (probed runs only).
    pub ticks: crate::probe::Ticks,
    /// Allocations and events after the first quarter of the span.
    pub steady_allocs: u64,
    /// Events dispatched in the same steady-state interval.
    pub steady_events: u64,
    /// Flight-recorder ledger (traced runs only).
    pub flight: Option<LocalityTable>,
    /// Trace records by kind (traced runs only).
    pub kinds: KindCounts,
    /// Wall time of each `NetLoop::run` slice (sliced runs only).
    pub slices_ns: Vec<u64>,
    /// PageRank finished before the deadline (always true for rx/tx).
    pub finished: bool,
}

/// Flow ports for `seed`: the figure runners' ports at seed 0, a
/// seed-derived offset otherwise.
pub fn port_base(kind: NetKind, seed: u64) -> u16 {
    let base = match kind {
        NetKind::RxSmall | NetKind::TxBulk => STREAM_PORT,
        NetKind::ColocRx => COLOC_PORT,
    };
    if seed == 0 {
        return base;
    }
    let off = simcore::SimRng::seed(seed).below(20_000);
    base + 1 + u16::try_from(off).expect("offset < 20000")
}

/// The netdev a coloc instance on `core` binds to (as `colocation::run`).
fn coloc_netdev(p: Placement, core: usize) -> NetdevId {
    let node = usize::from(core >= 14);
    match p {
        Placement::Octopus => NetdevId(0),
        Placement::Local => NetdevId(node),
        Placement::Remote => NetdevId(1 - node),
    }
}

/// Constructs the loop for one point, with spans around each call.
pub fn build(
    kind: NetKind,
    size: Size,
    p: Placement,
    port: u16,
    mode: Mode,
    tr: &mut Tracer,
) -> (NetLoop, Vec<usize>) {
    let g = tr.enter("build_duplex");
    let mut duplex = build_duplex(p, BuildOpts::default());
    tr.exit(g);
    let msg = msg_bytes(kind);
    let mut apps = Vec::new();
    let mut pr = None;
    match kind {
        NetKind::RxSmall => {
            let g = tr.enter("make_rx_stream");
            let a = make_rx_stream(
                &mut duplex,
                p.app_core(),
                0,
                NetdevId(0),
                msg,
                RX_WINDOW,
                port,
            );
            tr.exit(g);
            apps.push(App::Rx(a));
        }
        NetKind::TxBulk => {
            let g = tr.enter("make_tx_stream");
            let a = make_tx_stream(&mut duplex, p.app_core(), 0, NetdevId(0), msg, port);
            tr.exit(g);
            apps.push(App::Tx(a));
        }
        NetKind::ColocRx => {
            let cores = (8..8 + IO_PER_NODE).chain(22..22 + IO_PER_NODE);
            for (k, core) in cores.enumerate() {
                let g = tr.enter("make_rx_stream");
                let a = make_rx_stream(
                    &mut duplex,
                    core,
                    k % 14,
                    coloc_netdev(p, core),
                    msg,
                    RX_WINDOW,
                    port + u16::try_from(k).expect("four flows"),
                );
                tr.exit(g);
                apps.push(App::Rx(a));
            }
            let g = tr.enter("PageRank::new");
            pr = Some(PageRank::new(
                &duplex.server.mem,
                PR_THREADS_PER_NODE,
                size.chunks,
            ));
            tr.exit(g);
        }
    }
    let g = tr.enter("NetLoop::new");
    let mut nl = NetLoop::new(duplex);
    tr.exit(g);
    if mode == Mode::Traced {
        let g = tr.enter("enable_tracing");
        nl.enable_tracing(TRACE_CAP);
        nl.enable_flight_recorder(FLIGHT_ROWS);
        tr.exit(g);
    }
    let g = tr.enter("add_app");
    let idx = apps.into_iter().map(|a| nl.add_app(a)).collect();
    tr.exit(g);
    if let Some(pr) = pr {
        let g = tr.enter("set_pagerank");
        nl.set_pagerank(pr, Time::ZERO);
        tr.exit(g);
    }
    let g = tr.enter("start_apps");
    nl.start_apps(Time::ZERO);
    tr.exit(g);
    (nl, idx)
}

/// Advances `nl` to `until`: one call in [`Mode::Plain`], [`SLICE`]-sized
/// calls otherwise, harvesting the tracer rings every [`HARVEST_EVERY`]
/// slices in [`Mode::Traced`] and ticking the probe in [`Mode::Probed`].
struct Runner {
    mode: Mode,
    steady_from: Time,
    slices: u64,
    run_ns: u64,
    steady_allocs: u64,
    steady_events: u64,
    slices_ns: Vec<u64>,
    kinds: KindCounts,
}

impl Runner {
    fn new(mode: Mode, steady_from: Time) -> Self {
        Runner {
            mode,
            steady_from,
            slices: 0,
            run_ns: 0,
            steady_allocs: 0,
            steady_events: 0,
            slices_ns: Vec::new(),
            kinds: KindCounts::default(),
        }
    }

    fn run_to(&mut self, nl: &mut NetLoop, until: Time, tr: &mut Tracer, probe: &mut Probe) {
        while nl.now() < until {
            let to = match self.mode {
                Mode::Plain => until,
                Mode::Sliced | Mode::Traced | Mode::Probed => (nl.now() + SLICE).min(until),
            };
            let steady = nl.now() >= self.steady_from;
            let t0 = Instant::now();
            let g = tr.enter("NetLoop::run");
            let (a0, e0) = (allocation_count(), nl.events_processed());
            nl.run(to);
            // Read before the span closes: the tracer's own bookkeeping
            // may allocate, the program's run must not.
            let a1 = allocation_count();
            tr.exit(g);
            let ns = crate::spans::nanos(t0.elapsed());
            if steady {
                self.steady_allocs += a1 - a0;
                self.steady_events += nl.events_processed() - e0;
            }
            self.run_ns += ns;
            match self.mode {
                Mode::Plain => {}
                Mode::Probed => probe.between_slices(),
                Mode::Sliced | Mode::Traced => self.slices_ns.push(ns),
            }
            self.slices += 1;
            if self.mode == Mode::Traced && self.slices.is_multiple_of(HARVEST_EVERY) {
                self.harvest(nl, tr, true);
            }
        }
    }

    /// Counts the rings' records by kind and, if `again`, re-arms them.
    fn harvest(&mut self, nl: &mut NetLoop, tr: &mut Tracer, again: bool) {
        let g = tr.enter("take_trace");
        let set = nl.take_trace();
        tr.exit(g);
        let k = &mut self.kinds;
        k.overwritten += set.overwritten();
        k.records += u64::try_from(set.retained()).expect("fits");
        for (_, r) in set.merged() {
            match r.kind {
                TraceKind::FlowSteered => k.flow_steered += 1,
                TraceKind::DmaRead => k.dma_reads += 1,
                TraceKind::DmaWrite => k.dma_writes += 1,
                TraceKind::IrqDelivered => k.irqs += 1,
                TraceKind::ReconfigPhase => {}
            }
        }
        if again {
            nl.enable_tracing(TRACE_CAP);
        }
    }
}

/// Runs one point of `kind` at `size`, mirroring the figure runner.
pub fn point(
    kind: NetKind,
    size: Size,
    p: Placement,
    port: u16,
    mode: Mode,
    tr: &mut Tracer,
    probe: &mut Probe,
) -> NetPoint {
    let g = tr.enter("setup");
    let (mut nl, idx) = build(kind, size, p, port, mode, tr);
    tr.exit(g);

    let g = tr.enter("simulate");
    probe.take();
    let (headline, result_bits, cpu_util, finished, mut runner);
    if kind == NetKind::ColocRx {
        let deadline = Time::from_ms(size.sim_ms);
        runner = Runner::new(mode, Time::from_ms(size.sim_ms / 4));
        // Two calls, as the steady-state allocation count needs; the
        // slicing check shows this equals `colocation::run`'s single call.
        runner.run_to(&mut nl, Time::from_ms(size.sim_ms / 4), tr, probe);
        runner.run_to(&mut nl, deadline, tr, probe);
        let pr_time = nl.pagerank_done.map_or(f64::INFINITY, |t| t.as_ms());
        let secs = nl.now().as_secs();
        let bytes: u64 = idx
            .iter()
            .map(|&i| match nl.app(i) {
                App::Rx(a) => a.consumed,
                _ => 0,
            })
            .sum();
        let io_metric = bytes as f64 * 8.0 / 1e9 / secs;
        headline = pr_time;
        finished = pr_time.is_finite();
        result_bits = vec![pr_time.to_bits(), io_metric.to_bits()];
        let cores = nl.duplex.server.mem.topology().total_cores();
        cpu_util = nl
            .duplex
            .server
            .cores
            .utilization_of(0..cores, Time::ZERO, nl.now());
    } else {
        let w = Window::of_ms(size.sim_ms);
        runner = Runner::new(mode, w.warmup);
        runner.run_to(&mut nl, w.warmup, tr, probe);
        nl.duplex.server.mem.reset_counters();
        nl.duplex.server.cores.reset_meters();
        let consumed = |nl: &NetLoop| match nl.app(idx[0]) {
            App::Rx(a) => a.consumed,
            App::Tx(a) => a.consumed,
            _ => unreachable!("stream workloads run one stream app"),
        };
        let base = consumed(&nl);
        runner.run_to(&mut nl, w.end, tr, probe);
        let bytes = consumed(&nl) - base;
        let msg = msg_bytes(kind);
        let cores = nl.duplex.server.mem.topology().total_cores();
        let tput = ioctopus::experiments::gbps(bytes, w);
        let membw =
            ioctopus::experiments::gbps(nl.duplex.server.mem.counters().total_dram_bytes(), w);
        cpu_util = nl
            .duplex
            .server
            .cores
            .utilization_of(0..cores, w.warmup, w.end);
        let rate = bytes as f64 / msg as f64 / w.secs();
        headline = tput;
        finished = true;
        result_bits = vec![
            (msg as f64).to_bits(),
            tput.to_bits(),
            membw.to_bits(),
            cpu_util.to_bits(),
            rate.to_bits(),
        ];
    }
    tr.exit(g);

    let g = tr.enter("metrics_snapshot");
    let snapshot = nl.metrics_snapshot();
    tr.exit(g);
    let flight = nl.flight_table();
    if mode == Mode::Traced {
        runner.harvest(&mut nl, tr, false);
    }
    nl.run_audit();
    NetPoint {
        headline,
        result_bits,
        checksum: nl.checksum(),
        events: nl.events_processed(),
        snapshot,
        audit_ok: nl.audit.ok(),
        cpu_util,
        run_ns: runner.run_ns,
        ticks: probe.take(),
        steady_allocs: runner.steady_allocs,
        steady_events: runner.steady_events,
        flight,
        kinds: runner.kinds,
        slices_ns: runner.slices_ns,
        finished,
    }
}

/// The figure runner's own result for the same point at the figure ports,
/// as the bit patterns [`NetPoint::result_bits`] holds.
pub fn library_bits(kind: NetKind, size: Size, p: Placement) -> Vec<u64> {
    match kind {
        NetKind::RxSmall | NetKind::TxBulk => {
            let msg = msg_bytes(kind);
            let r = if kind == NetKind::RxSmall {
                tcp_stream::run_rx(p, msg, size.sim_ms)
            } else {
                tcp_stream::run_tx(p, msg, size.sim_ms)
            };
            vec![
                r.x.to_bits(),
                r.throughput_gbps.to_bits(),
                r.membw_gbps.to_bits(),
                r.cpu_cores.to_bits(),
                r.rate_per_sec.to_bits(),
            ]
        }
        NetKind::ColocRx => {
            let r = colocation::run(p, IoKind::Netperf, size.chunks, size.sim_ms);
            vec![r.pr_time_ms.to_bits(), r.io_metric.to_bits()]
        }
    }
}
