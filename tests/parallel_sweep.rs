//! Differential test: the parallel sweep must be bit-for-bit identical to
//! the serial loop it replaced. Each sweep point is a self-contained,
//! deterministic simulation, so any divergence means shared mutable state
//! leaked between points — exactly the bug class this test exists to catch.

use ioctopus::config::Placement;
use ioctopus::experiments::tcp_rr::RrConfig;
use ioctopus::experiments::{congestion, nvme_fio, pktgen, tcp_rr, tcp_stream};
use ioctopus::results::ThroughputResult;
use ioctopus::sweep;

/// Every float of a throughput point, as exact bit patterns.
fn tput_bits(r: &ThroughputResult) -> Vec<u64> {
    [
        r.x,
        r.throughput_gbps,
        r.membw_gbps,
        r.cpu_cores,
        r.rate_per_sec,
    ]
    .map(f64::to_bits)
    .to_vec()
}

/// A full Figure 6-style sweep (both placements at every message size)
/// plus one small sweep each of Figures 7, 8, 11 and 15, serial vs
/// parallel, compared through the exact bit patterns of every float.
#[test]
fn fig06_sweep_parallel_is_bit_identical_to_serial() {
    type Point = fn(u64) -> Vec<u64>;
    let table: [(&str, Vec<u64>, Point); 5] = [
        ("fig06 tcp rx", vec![256, 4096, 65536], |msg| {
            let mut v = tput_bits(&tcp_stream::run_rx(Placement::Octopus, msg, 3));
            v.extend(tput_bits(&tcp_stream::run_rx(Placement::Remote, msg, 3)));
            v
        }),
        ("fig07 tcp tx", vec![256, 65536], |msg| {
            tput_bits(&tcp_stream::run_tx(Placement::Octopus, msg, 2))
        }),
        ("fig08 pktgen", vec![64, 1500], |pkt| {
            tput_bits(&pktgen::run(Placement::Remote, pkt, 2, false))
        }),
        ("fig11 congestion", vec![1, 4], |pairs| {
            tput_bits(&congestion::run_fig11(Placement::Remote, pairs as usize, 3))
        }),
        ("fig15 nvme", vec![1, 4], |streams| {
            let r = nvme_fio::run(streams as usize, false, 3);
            [r.fio_normalized, r.stream_normalized, r.fio_gbs]
                .map(f64::to_bits)
                .to_vec()
        }),
    ];
    let diverged: Vec<&str> = table
        .into_iter()
        .filter(|(_, points, point)| {
            sweep::sweep_serial(points.clone(), point) != sweep::sweep(points.clone(), point)
        })
        .map(|(name, _, _)| name)
        .collect();
    assert!(
        diverged.is_empty(),
        "parallel sweep diverged from serial: {diverged:?}"
    );
}

/// Latency figures exercise the RR apps and histograms; check those too.
#[test]
fn rr_sweep_parallel_is_bit_identical_to_serial() {
    let sizes: Vec<u64> = vec![64, 1024, 16384];
    let point = |msg: u64| {
        let r = tcp_rr::run(RrConfig::Rr, msg, 30);
        [r.mean_us, r.p90_us, r.p99_us].map(f64::to_bits)
    };
    let serial = sweep::sweep_serial(sizes.clone(), point);
    let parallel = sweep::sweep(sizes, point);
    assert_eq!(serial, parallel, "parallel RR sweep diverged from serial");
}

/// Chaos-campaign satellite: the calendar event queue must stay
/// bit-identical to the binary-heap oracle under fault-heavy schedules
/// whose retry timers reschedule events *at* or nanoseconds after the
/// current instant — exactly the traffic the recovery paths generate
/// (bounded exponential backoff, zero-gap flaps, same-instant bursts).
#[test]
fn calendar_queue_matches_heap_oracle_under_fault_heavy_schedules() {
    use simcore::campaign::{plan_for, CampaignConfig};
    use simcore::queue::HeapEventQueue;
    use simcore::{Dur, EventQueue, SimRng, Time};

    trait TestQueue {
        fn push(&mut self, at: Time, e: u64);
        fn pop(&mut self) -> Option<(Time, u64)>;
        fn regressions(&self) -> u64;
    }
    impl TestQueue for EventQueue<u64> {
        fn push(&mut self, at: Time, e: u64) {
            EventQueue::push(self, at, e);
        }
        fn pop(&mut self) -> Option<(Time, u64)> {
            EventQueue::pop(self)
        }
        fn regressions(&self) -> u64 {
            self.time_regressions()
        }
    }
    impl TestQueue for HeapEventQueue<u64> {
        fn push(&mut self, at: Time, e: u64) {
            HeapEventQueue::push(self, at, e);
        }
        fn pop(&mut self) -> Option<(Time, u64)> {
            HeapEventQueue::pop(self)
        }
        fn regressions(&self) -> u64 {
            self.time_regressions()
        }
    }

    // Seed the queue with several generated fault schedules, then let every
    // pop spawn retry timers the way the recovery code does. The driver is
    // deterministic, so both queue implementations see the identical push
    // sequence and must produce the identical pop sequence.
    fn drive<Q: TestQueue>(q: &mut Q, seed: u64) -> (Vec<(Time, u64)>, u64) {
        let mut cfg = CampaignConfig::new(seed, 4);
        cfg.media_faults = true;
        let mut id = 0u64;
        for i in 0..6 {
            for e in plan_for(&cfg, i).events() {
                q.push(e.at, id);
                id += 1;
            }
        }
        let mut rng = SimRng::seed(seed ^ 0xA5A5_5A5A);
        let mut out = Vec::new();
        while let Some((at, e)) = q.pop() {
            out.push((at, e));
            let kids = if rng.chance(0.35) {
                2
            } else if rng.chance(0.5) {
                1
            } else {
                0
            };
            for _ in 0..kids {
                if id >= 50_000 {
                    break;
                }
                let gap = if rng.chance(0.25) {
                    Dur::ZERO // a retry landing exactly *now*
                } else if rng.chance(0.3) {
                    Dur::from_ns(1 + rng.below(50)) // near-now
                } else {
                    let attempt = rng.below(6) as u32;
                    Dur::from_us(20) * (1u64 << attempt.min(10))
                };
                q.push(at + gap, id);
                id += 1;
            }
        }
        (out, q.regressions())
    }

    for seed in [0x0c70u64, 0xf417, 0x9e37_79b9] {
        let (a, ra) = drive(&mut EventQueue::new(), seed);
        let (b, rb) = drive(&mut HeapEventQueue::new(), seed);
        assert!(
            a.len() > 10_000,
            "driver must stress the wheel: {}",
            a.len()
        );
        assert_eq!(a, b, "calendar queue diverged from the heap oracle");
        assert_eq!(ra, rb, "regression counters diverged");
        assert_eq!(ra, 0, "no push ever lands behind the clock");
    }
}

/// Repeated parallel sweeps of the same points agree with each other
/// (schedule-independence: results cannot depend on worker interleaving).
#[test]
fn parallel_sweep_is_schedule_independent() {
    let point = |msg: u64| {
        tcp_stream::run_rx(Placement::Octopus, msg, 2)
            .throughput_gbps
            .to_bits()
    };
    let a = sweep::sweep(vec![512, 8192], point);
    let b = sweep::sweep(vec![512, 8192], point);
    assert_eq!(a, b);
}
