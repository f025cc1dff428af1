//! The simulator benchmark: four figure workloads, end-to-end metrics with
//! tracing off, per-layer counts and a separately traced run.
//!
//! ```text
//! simbench --workload <rx_small|tx_bulk|coloc_rx|nvme_fio> --seed <n>
//!          --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints one detail line (`{"detail": …}`) and then the result line
//! (`{"correct", "attempted", "failed", "metrics"}`); exits 1 when any
//! correctness check failed. `README.md` documents every metric.

mod fio;
mod micro;
mod net;
mod probe;
mod spans;
mod stats;

use std::time::Instant;

use ioctopus::config::Placement;
use net::{KindCounts, Mode, NetKind, Size};
use probe::{Probe, Ticks};
use spans::Tracer;
use stats::{median, quantile, ratio, Obj};

#[global_allocator]
static ALLOC: simcore::alloc_count::CountingAlloc = simcore::alloc_count::CountingAlloc;

/// Setup-only repetitions a run times for `setup_s`, at least.
const SETUP_SAMPLES: usize = 31;
/// Setup-only repetitions after each untraced pass, so that they sample
/// the host over the whole run as the passes do.
const SETUP_PER_PASS: usize = 4;
/// Sensitivity of the construction calls to the host probe (see `probe`).
const SETUP_GAMMA: f64 = 0.5;
/// Untraced passes a run makes at least.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Net(NetKind),
    NvmeFio,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "rx_small" => Workload::Net(NetKind::RxSmall),
            "tx_bulk" => Workload::Net(NetKind::TxBulk),
            "coloc_rx" => Workload::Net(NetKind::ColocRx),
            "nvme_fio" => Workload::NvmeFio,
            _ => return None,
        })
    }

    /// The size one pass simulates, and the smaller size of the checks.
    fn sizes(self) -> (Size, Size) {
        let s = |sim_ms, chunks| Size { sim_ms, chunks };
        match self {
            Workload::Net(NetKind::RxSmall) => (s(200, 0), s(8, 0)),
            Workload::Net(NetKind::TxBulk) => (s(60, 0), s(8, 0)),
            Workload::Net(NetKind::ColocRx) => (s(100, 150), s(30, 20)),
            Workload::NvmeFio => (s(400, 0), s(8, 0)),
        }
    }

    /// The paper's value of the headline quantity (EXPERIMENTS.md).
    fn paper(self) -> f64 {
        match self {
            Workload::Net(NetKind::RxSmall) => 1.08,
            Workload::Net(NetKind::TxBulk) => 1.0,
            Workload::Net(NetKind::ColocRx) => 1.12,
            Workload::NvmeFio => 0.76,
        }
    }

    /// The workload's sensitivity γ to the host probe's tick time: the
    /// log-log slope of pass time over tick time, fitted over passes on a
    /// shared host (see `probe`).
    fn probe_gamma(self) -> f64 {
        match self {
            Workload::Net(NetKind::RxSmall) => 1.25,
            Workload::Net(NetKind::TxBulk | NetKind::ColocRx) => 1.0,
            Workload::NvmeFio => 0.85,
        }
    }

    fn shape(self) -> micro::Shape {
        let (queue_pending, dma_bytes, cpu_bytes, skylake) = match self {
            Workload::Net(NetKind::RxSmall) => (16, 256, 256, false),
            Workload::Net(NetKind::TxBulk) => (16, 65536, 65536, false),
            Workload::Net(NetKind::ColocRx) => (64, 1448, 65536, false),
            Workload::NvmeFio => (256, 131_072, 131_072, true),
        };
        micro::Shape {
            queue_pending,
            dma_bytes,
            cpu_bytes,
            skylake,
        }
    }
}

/// Correctness bookkeeping: every checked point is one attempt.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn point(&mut self, what: &str, conds: &[(&str, bool)]) {
        self.attempted += 1;
        let bad: Vec<&str> = conds.iter().filter(|c| !c.1).map(|c| c.0).collect();
        if !bad.is_empty() {
            self.failed += 1;
            self.notes.push(format!("{what}: {}", bad.join(", ")));
        }
    }
}

/// Work counts of one pass, summed over its points.
#[derive(Debug, Default)]
struct Counts {
    events: u64,
    steady_allocs: u64,
    steady_events: u64,
    llc_hits: u64,
    llc_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
    interconnect_bytes: u64,
    dram_bytes: u64,
    issued_txns: u64,
    dropped_txns: u64,
    rx_dropped: u64,
    cpu_util: f64,
    points: u64,
    reads: u64,
    completions: u64,
}

/// One pass over a workload's points.
#[derive(Debug, Default)]
struct Pass {
    run_ns: u64,
    /// Wall time simulating, rescaled point by point to the quiet host by
    /// the probe (probed passes only).
    rescaled_ns: f64,
    /// Probe ticks over the pass.
    ticks: Ticks,
    headline: f64,
    counts: Counts,
    /// Per point: result bit patterns plus the event checksum.
    sigs: Vec<Vec<u64>>,
    slices_ns: Vec<u64>,
    kinds: KindCounts,
    flight: telemetry::flight::LedgerCells,
}

const PLACEMENTS: [Placement; 2] = [Placement::Octopus, Placement::Remote];

fn net_pass(
    kind: NetKind,
    size: Size,
    seed: u64,
    mode: Mode,
    tr: &mut Tracer,
    probe: &mut Probe,
    ck: &mut Checks,
) -> Pass {
    let port = net::port_base(kind, seed);
    let gamma = Workload::Net(kind).probe_gamma();
    let mut pass = Pass::default();
    let mut heads = [0.0; 2];
    for (i, p) in PLACEMENTS.into_iter().enumerate() {
        let pt = net::point(kind, size, p, port, mode, tr, probe);
        let s = &pt.snapshot;
        let get = |k: &str| s.get(k).unwrap_or(0);
        let dropped = get("pcie.dropped_txns");
        let remote = pt.flight.as_ref().map_or(0, |f| f.remote_bytes());
        ck.point(
            &format!("{}/{}", p.label(), mode_name(mode)),
            &[
                ("quiesce audit clean", pt.audit_ok),
                ("no dropped PCIe transactions", dropped == 0),
                ("PageRank finished", pt.finished),
                ("trace window overwrote records", pt.kinds.overwritten == 0),
                (
                    "Octopus placement moved remote DMA bytes",
                    p != Placement::Octopus || remote == 0,
                ),
            ],
        );
        let c = &mut pass.counts;
        c.events += pt.events;
        c.steady_allocs += pt.steady_allocs;
        c.steady_events += pt.steady_events;
        c.llc_hits += get("mem.llc_hits");
        c.llc_misses += get("mem.llc_misses");
        c.memo_hits += get("mem.stall_memo_hits");
        c.memo_misses += get("mem.stall_memo_misses");
        c.interconnect_bytes += get("mem.interconnect_bytes");
        c.dram_bytes += get("mem.dram_bytes");
        c.issued_txns += get("pcie.issued_txns");
        c.dropped_txns += dropped;
        c.rx_dropped += get("nic.rx.dropped");
        c.cpu_util += pt.cpu_util;
        c.points += 1;
        pass.run_ns += pt.run_ns;
        if mode == Mode::Probed {
            pass.rescaled_ns += Probe::rescale(pt.run_ns, &pt.ticks, gamma);
            pass.ticks = add_ticks(pass.ticks, pt.ticks);
        }
        let mut sig = pt.result_bits.clone();
        sig.push(pt.checksum);
        pass.sigs.push(sig);
        pass.slices_ns.extend_from_slice(&pt.slices_ns);
        let k = &mut pass.kinds;
        k.flow_steered += pt.kinds.flow_steered;
        k.dma_reads += pt.kinds.dma_reads;
        k.dma_writes += pt.kinds.dma_writes;
        k.irqs += pt.kinds.irqs;
        k.records += pt.kinds.records;
        k.overwritten += pt.kinds.overwritten;
        if let Some(f) = &pt.flight {
            pass.flight = add_cells(pass.flight, f.totals);
        }
        heads[i] = pt.headline;
    }
    pass.headline = match kind {
        // ioct ÷ remote throughput.
        NetKind::RxSmall | NetKind::TxBulk => heads[0] / heads[1],
        // PageRank time remote ÷ ioct.
        NetKind::ColocRx => heads[1] / heads[0],
    };
    pass
}

fn add_cells(
    a: telemetry::flight::LedgerCells,
    b: telemetry::flight::LedgerCells,
) -> telemetry::flight::LedgerCells {
    telemetry::flight::LedgerCells {
        local_read_bytes: a.local_read_bytes + b.local_read_bytes,
        remote_read_bytes: a.remote_read_bytes + b.remote_read_bytes,
        local_write_bytes: a.local_write_bytes + b.local_write_bytes,
        remote_write_bytes: a.remote_write_bytes + b.remote_write_bytes,
        ddio_hits: a.ddio_hits + b.ddio_hits,
        ddio_misses: a.ddio_misses + b.ddio_misses,
        qpi_crossings: a.qpi_crossings + b.qpi_crossings,
    }
}

/// The tick-weighted mean of two stretches of ticks.
fn add_ticks(a: Ticks, b: Ticks) -> Ticks {
    let n = (a.count + b.count).max(1) as f64;
    let mean = |x: f64, y: f64| (x * a.count as f64 + y * b.count as f64) / n;
    Ticks {
        count: a.count + b.count,
        memory_ns: mean(a.memory_ns, b.memory_ns),
        lookups_ns: mean(a.lookups_ns, b.lookups_ns),
    }
}

fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Plain => "plain",
        Mode::Sliced => "sliced",
        Mode::Traced => "traced",
        Mode::Probed => "probed",
    }
}

/// fio throughput normalised at [`fio::STREAMS`]: loaded ÷ alone, fixed port.
fn fio_headline(sigs: &[Vec<u64>]) -> f64 {
    f64::from_bits(sigs[0][0]) / f64::from_bits(sigs[2][0])
}

/// Timed probe ticks before and after each `run_raw` call, which cannot
/// be sliced.
const FIO_TICKS: u32 = 4;

/// An untraced `nvme_fio` pass: `run_raw` itself, minus its construction
/// time (replayed and timed separately with the same arguments), between
/// two probe samples.
fn fio_pass_probed(sim_ms: u64, probe: &mut Probe) -> Pass {
    let mut pass = Pass::default();
    for pt in fio::POINTS {
        let setup = fio::setup_ns(pt);
        probe.take();
        probe.sample(FIO_TICKS);
        let t0 = Instant::now();
        let bits = fio::library(pt, sim_ms);
        let wall = spans::nanos(t0.elapsed());
        probe.sample(FIO_TICKS);
        let ticks = probe.take();
        let run = wall.saturating_sub(setup);
        pass.run_ns += run;
        let gamma = Workload::NvmeFio.probe_gamma();
        pass.rescaled_ns += Probe::rescale(run, &ticks, gamma);
        pass.ticks = add_ticks(pass.ticks, ticks);
        pass.sigs.push(bits.to_vec());
    }
    pass.headline = fio_headline(&pass.sigs);
    pass
}

/// A replayed `nvme_fio` pass (traced when `tr` is enabled).
fn fio_pass_replay(sim_ms: u64, tr: &mut Tracer, ck: &mut Checks) -> Pass {
    let mut pass = Pass::default();
    for pt in fio::POINTS {
        let r = fio::replay(pt, sim_ms, tr);
        let octo = matches!(pt, fio::FioPoint::Fio { octo: true, .. });
        ck.point(
            &format!("{pt:?}/replay"),
            &[
                ("fabric audit clean", r.audit_ok),
                ("no dropped PCIe transactions", r.dropped_txns == 0),
                ("no failed commands", r.failed_commands == 0),
                (
                    "OctoSSD moved remote data DMA",
                    !octo || r.remote_data_reads == 0,
                ),
            ],
        );
        let c = &mut pass.counts;
        c.llc_hits += r.llc_hits;
        c.llc_misses += r.llc_misses;
        c.memo_hits += r.memo_hits;
        c.memo_misses += r.memo_misses;
        c.interconnect_bytes += r.interconnect_bytes;
        c.dram_bytes += r.dram_bytes;
        c.issued_txns += r.issued_txns;
        c.dropped_txns += r.dropped_txns;
        c.cpu_util += r.cpu_util;
        c.points += 1;
        c.reads += r.reads;
        c.completions += r.completions;
        pass.run_ns += r.run_ns;
        pass.sigs.push(r.bits.to_vec());
    }
    pass.headline = fio_headline(&pass.sigs);
    pass
}

/// What [`measure`] timed.
struct Measured {
    /// Probed untraced passes.
    plain: Vec<Pass>,
    /// Traced passes, each run right after the untraced one of its index.
    traced: Vec<Pass>,
    /// Setup-only repetitions: wall ns and the probe ticks around them.
    setup_reps: Vec<(u64, Ticks)>,
}

/// Runs probed untraced passes until `seconds` have passed (at least
/// [`MIN_PASSES`], or two in a traced run), each followed by
/// [`SETUP_PER_PASS`] setup-only repetitions. With `tr` enabled, a traced
/// pass follows each untraced one, so both see the same host conditions.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    probe: &mut Probe,
    ck: &mut Checks,
) -> Measured {
    let (full, _) = w.sizes();
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    let (mut plain, mut traced, mut setup_reps) = (Vec::new(), Vec::new(), Vec::new());
    let min = if tr.enabled() { 2 } else { MIN_PASSES };
    while plain.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let p = match w {
            Workload::Net(k) => net_pass(k, full, seed, Mode::Probed, &mut off, probe, ck),
            Workload::NvmeFio => fio_pass_probed(full.sim_ms, probe),
        };
        let first = plain.first().unwrap_or(&p);
        ck.point(
            "pass repeat",
            &[("results repeat bit for bit", p.sigs == first.sigs)],
        );
        if tr.enabled() {
            let t = match w {
                Workload::Net(k) => net_pass(k, full, seed, Mode::Traced, tr, probe, ck),
                Workload::NvmeFio => fio_pass_replay(full.sim_ms, tr, ck),
            };
            ck.point(
                "traced pass",
                &[("traced results equal the untraced run", t.sigs == p.sigs)],
            );
            traced.push(t);
        }
        plain.push(p);
        for _ in 0..SETUP_PER_PASS {
            setup_reps.push(setup_rep(w, seed, probe));
        }
    }
    while setup_reps.len() < SETUP_SAMPLES {
        setup_reps.push(setup_rep(w, seed, probe));
    }
    Measured {
        plain,
        traced,
        setup_reps,
    }
}

/// A setup-only repetition: the construction calls of one pass, timed,
/// between two probe samples. Returns the wall time and the ticks.
fn setup_rep(w: Workload, seed: u64, probe: &mut Probe) -> (u64, Ticks) {
    probe.take();
    probe.sample(2);
    let ns = setup_wall_ns(w, seed);
    probe.sample(2);
    (ns, probe.take())
}

/// The construction calls of one pass, timed.
fn setup_wall_ns(w: Workload, seed: u64) -> u64 {
    let (full, _) = w.sizes();
    match w {
        Workload::Net(k) => {
            let port = net::port_base(k, seed);
            PLACEMENTS
                .into_iter()
                .map(|p| {
                    let mut off = Tracer::new(false);
                    let t0 = Instant::now();
                    let built = net::build(k, full, p, port, Mode::Plain, &mut off);
                    let ns = spans::nanos(t0.elapsed());
                    drop(built);
                    ns
                })
                .sum()
        }
        Workload::NvmeFio => fio::POINTS.into_iter().map(fio::setup_ns).sum(),
    }
}

/// The satellite correctness checks at the default seed and check size:
/// the benchmark-driven results equal the figure runners' bit for bit,
/// slicing `NetLoop::run` keeps the checksum, tracing perturbs nothing,
/// audits are clean and Octopus placements move no remote DMA bytes.
fn default_seed_checks(w: Workload, probe: &mut Probe, ck: &mut Checks) {
    let (_, small) = w.sizes();
    let mut off = Tracer::new(false);
    match w {
        Workload::Net(k) => {
            let mut pass = |mode| net_pass(k, small, 0, mode, &mut off, probe, ck);
            let plain = pass(Mode::Plain);
            let sliced = pass(Mode::Sliced);
            let traced = pass(Mode::Traced);
            for (i, p) in PLACEMENTS.into_iter().enumerate() {
                let lib = net::library_bits(k, small, p);
                let sig = &plain.sigs[i];
                ck.point(
                    &format!("{}/default seed", p.label()),
                    &[
                        ("equals the figure runner", sig[..sig.len() - 1] == lib[..]),
                        ("sliced run keeps the checksum", sliced.sigs[i] == *sig),
                        ("traced run keeps the checksum", traced.sigs[i] == *sig),
                    ],
                );
            }
        }
        Workload::NvmeFio => {
            let replay = fio_pass_replay(small.sim_ms, &mut off, ck);
            for (i, pt) in fio::POINTS.into_iter().enumerate() {
                let lib = fio::library(pt, small.sim_ms);
                ck.point(
                    &format!("{pt:?}/default"),
                    &[("replay equals run_raw", replay.sigs[i] == lib)],
                );
            }
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn median_of<F: Fn(&Pass) -> f64>(passes: &[Pass], f: F) -> f64 {
    let mut v: Vec<f64> = passes.iter().map(f).collect();
    median(&mut v)
}

/// A JSON list of one value per item.
fn list<T, F: Fn(&T) -> f64>(items: &[T], f: F) -> String {
    let v: Vec<String> = items.iter().map(|x| format!("{:.6}", f(x))).collect();
    format!("[{}]", v.join(","))
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut out) = (None, 0, 10.0, false, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(val),
            "--seed" => seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut ck = Checks::default();

    // End-to-end numbers come from the untraced passes only; a traced run
    // interleaves traced passes with them for the overhead ratio.
    let mut tr = Tracer::new(args.trace);
    let mut probe = Probe::new();
    let Measured {
        plain: passes,
        traced,
        setup_reps: reps,
    } = measure(w, args.seed, args.seconds, &mut tr, &mut probe, &mut ck);
    let mut setup: Vec<f64> = reps
        .iter()
        .map(|(ns, t)| Probe::rescale(*ns, t, SETUP_GAMMA) / 1e9)
        .collect();
    let setup_s = median(&mut setup);
    let run_s = median_of(&passes, |p| p.rescaled_ns / 1e9);
    let headline = passes[0].headline;
    let paper_err = (headline / w.paper() - 1.0).abs();

    let mut detail = Obj::new()
        .str("workload", &args.name)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("passes", passes.len() as u64)
        .int("setup_samples", setup.len() as u64)
        .num("probe_gamma", w.probe_gamma())
        .raw("pass_wall_s", &list(&passes, |p| secs(p.run_ns)))
        .raw("pass_memory_tick_ns", &list(&passes, |p| p.ticks.memory_ns))
        .raw(
            "pass_lookups_tick_ns",
            &list(&passes, |p| p.ticks.lookups_ns),
        )
        .raw("setup_wall_s", &list(&reps, |r| secs(r.0)))
        .raw(
            "setup_tick_ns",
            &list(&reps, |r| r.1.memory_ns + r.1.lookups_ns),
        )
        .num("wall_s_median", median_of(&passes, |p| secs(p.run_ns)))
        .num("headline", headline)
        .num("paper", w.paper());

    let mut rows = if args.trace {
        traced_metrics(&args, &passes, &traced, &tr, setup_s, run_s, &mut detail)
    } else {
        vec![
            ("run_s", run_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("paper_err", paper_err, "ratio"),
        ]
    };
    default_seed_checks(w, &mut probe, &mut ck);
    let fail_ratio = ratio(ck.failed as f64, ck.attempted as f64);
    if args.trace {
        rows.push(("fail_ratio", fail_ratio, "ratio"));
    }
    let mut metrics = Obj::new();
    for (name, v, unit) in rows {
        metrics = metrics.raw(name, &Obj::new().num("value", v).str("unit", unit).done());
    }
    let notes = ck
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('"', "'")))
        .collect::<Vec<_>>()
        .join(",");
    detail = detail
        .num("fail_ratio", fail_ratio)
        .raw("failures", &format!("[{notes}]"));
    println!("{}", Obj::new().raw("detail", &detail.done()).done());
    let ok = ck.failed == 0;
    println!(
        "{}",
        Obj::new()
            .bool("correct", ok)
            .int("attempted", ck.attempted)
            .int("failed", ck.failed)
            .raw("metrics", &metrics.done())
            .done()
    );
    if !ok {
        std::process::exit(1);
    }
}

/// One reported metric: name, value, unit.
type Row = (&'static str, f64, &'static str);

/// The traced run's per-layer metrics: counts from the traced passes,
/// the microcases, and the span shares.
fn traced_metrics(
    args: &Args,
    plain: &[Pass],
    traced: &[Pass],
    tr: &Tracer,
    setup_s: f64,
    run_s: f64,
    detail: &mut Obj,
) -> Vec<Row> {
    let w = args.workload;
    let shape = w.shape();
    let queue_ns = micro::queue_push_pop_ns(shape, args.seed);
    let link_ns = micro::bwlink_reserve_ns(shape);
    let dma_w = micro::mem_ns(shape, micro::MemOp::DmaWrite);
    let dma_r = micro::mem_ns(shape, micro::MemOp::DmaRead);
    let cpu_r = micro::mem_ns(shape, micro::MemOp::CpuRead);
    let ssd_ns = micro::ssd_read_ns();

    // Counts come from the first traced pass; every pass repeats them
    // (checked above through the result signatures).
    let t = &traced[0];
    let c = &t.counts;
    let events = c.events as f64;
    let traced_run_s = median_of(traced, |p| secs(p.run_ns));
    // Each traced pass ran right after its untraced one.
    let mut overhead: Vec<f64> = traced
        .iter()
        .zip(plain)
        .map(|(t, p)| ratio(t.run_ns as f64, p.run_ns as f64))
        .collect();
    let sim_total = tr.agg("simulate").total_ns as f64;
    let share = |name: &str| ratio(tr.agg(name).total_ns as f64, sim_total);
    let mut slices: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.slices_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let n_slices = slices.len();
    let plain_c = &plain[0].counts;

    let rows = vec![
        ("simcore.events", events, "count"),
        (
            "simcore.allocs_per_event",
            ratio(plain_c.steady_allocs as f64, plain_c.steady_events as f64),
            "1/event",
        ),
        ("simcore.events_per_s", ratio(events, run_s), "1/s"),
        ("simcore.queue_push_pop_ns", queue_ns, "ns"),
        ("simcore.bwlink_reserve_ns", link_ns, "ns"),
        (
            "memsys.llc_probes_per_event",
            ratio((c.llc_hits + c.llc_misses) as f64, events),
            "1/event",
        ),
        (
            "memsys.stall_memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
            "ratio",
        ),
        ("memsys.dma_write_ns", dma_w, "ns"),
        ("memsys.dma_read_ns", dma_r, "ns"),
        ("memsys.cpu_read_ns", cpu_r, "ns"),
        (
            "memsys.llc_hit_ratio",
            ratio(c.llc_hits as f64, (c.llc_hits + c.llc_misses) as f64),
            "ratio",
        ),
        (
            "memsys.interconnect_bytes",
            c.interconnect_bytes as f64,
            "B",
        ),
        ("memsys.dram_bytes", c.dram_bytes as f64, "B"),
        (
            "pcie.txns_per_event",
            ratio(c.issued_txns as f64, events),
            "1/event",
        ),
        ("pcie.dropped_txns", c.dropped_txns as f64, "count"),
        ("nic.flow_steered", t.kinds.flow_steered as f64, "count"),
        ("nic.dma_reads", t.kinds.dma_reads as f64, "count"),
        ("nic.dma_writes", t.kinds.dma_writes as f64, "count"),
        ("nic.rx_dropped", c.rx_dropped as f64, "count"),
        ("nic.remote_dma_share", t.flight.remote_share(), "ratio"),
        ("nic.ddio_hit_ratio", t.flight.ddio_hit_ratio(), "ratio"),
        (
            "kernel.irqs_per_event",
            ratio(t.kinds.irqs as f64, events),
            "1/event",
        ),
        (
            "kernel.cpu_util",
            ratio(c.cpu_util, c.points as f64),
            "cores",
        ),
        ("kernel.cores_run_share", share("Cores::run"), "ratio"),
        ("nvme.reads", c.reads as f64, "count"),
        ("nvme.read_ns", ssd_ns, "ns"),
        ("nvme.read_share", share("Ssd::read"), "ratio"),
        (
            "workloads.stream_step_share",
            share("StreamAntagonist::step"),
            "ratio",
        ),
        ("ioctopus.setup_share", setup_s / (setup_s + run_s), "ratio"),
        ("ioctopus.slice_ms_p50", quantile(&mut slices, 0.5), "ms"),
        ("ioctopus.slice_ms_p99", quantile(&mut slices, 0.99), "ms"),
        ("ioctopus.sideloop_steps", c.completions as f64, "count"),
        ("telemetry.overhead_ratio", median(&mut overhead), "ratio"),
        (
            "telemetry.allocs_per_event_traced",
            ratio(c.steady_allocs as f64, c.steady_events as f64),
            "1/event",
        ),
        ("telemetry.trace_records", t.kinds.records as f64, "count"),
        (
            "telemetry.trace_overwritten",
            t.kinds.overwritten as f64,
            "count",
        ),
    ];
    let mut spans_json = Obj::new();
    for (name, a) in tr.aggregates() {
        spans_json = spans_json.raw(
            name,
            &Obj::new()
                .int("count", a.count)
                .int("total_ns", a.total_ns)
                .int("self_ns", a.self_ns)
                .done(),
        );
    }
    let d = std::mem::take(detail);
    *detail = d
        .int("traced_passes", traced.len() as u64)
        .int("slices", n_slices as u64)
        .num("traced_run_s", traced_run_s)
        .raw("spans", &spans_json.done());
    if let Some(dir) = &args.out {
        let path = format!("{dir}/{}-seed{}.trace.json", args.name, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json()))
        {
            eprintln!("simbench: cannot write {path}: {e}");
        }
    }
    rows
}
