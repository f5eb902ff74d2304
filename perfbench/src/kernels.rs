//! Fixed-work kernels: each times a fixed amount of work on one layer's
//! public functions. Inputs and results pass through `black_box`, and each
//! kernel asserts that its work was done, so none can time dead code.

use std::hint::black_box;
use std::time::Instant;
use std::{cell::RefCell, rc::Rc};

use rand::{rngs::StdRng, SeedableRng};
use wdm_bench::cells::{cell_shards, measure_shard, Duration, RunConfig};
use wdm_latency::histogram::LatencyHistogram;
use wdm_latency::session::FlightOptions;
use wdm_latency::stage::SampleStage;
use wdm_latency::worstcase::{BlockMaxima, LatencySeries};
use wdm_osmodel::dist::SamplerMode;
use wdm_osmodel::personality::{OsKind, OsPersonality};
use wdm_sim::calendar::DeadlineHeap;
use wdm_sim::flight::FlightRecorder;
use wdm_sim::time::{Cycles, Instant as SimInstant};
use wdm_workloads::{build_scenario, ScenarioOptions, WorkloadKind};

/// The simulated machine's clock rate (every personality runs at it).
fn cpu_hz() -> u64 {
    OsPersonality::of(OsKind::Nt4).kernel.cpu_hz
}

/// A deterministic pseudo-random stream for kernel inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }
}

/// Nanoseconds per iteration of an arithmetic loop that runs no code of
/// the repository: a host-speed reference recorded beside every run.
pub fn calib_ns() -> f64 {
    const N: u64 = 20_000_000;
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for i in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / N as f64
}

/// `DeadlineHeap` push plus `pop_due_into`, ns per entry.
pub fn calendar_push_pop_ns() -> f64 {
    const N: u32 = 4096;
    const ROUNDS: u64 = 64;
    let mut rng = Lcg(7);
    let deadlines: Vec<u64> = (0..N).map(|_| rng.next() % 1_000_000).collect();
    let mut heap = DeadlineHeap::new();
    let mut out = Vec::with_capacity(N as usize);
    let mut popped = 0u64;
    let t = Instant::now();
    for round in 0..ROUNDS {
        let base = round * 1_000_000;
        for (i, &d) in black_box(&deadlines).iter().enumerate() {
            heap.push(SimInstant(base + d), i as u32, round);
        }
        // Sixteen clock ticks drain the round, as due entries surface.
        for step in 1..=16u64 {
            out.clear();
            heap.pop_due_into(
                SimInstant(base + step * 62_500),
                |_, g| g == round,
                &mut out,
            );
            popped += out.len() as u64;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(popped, ROUNDS * u64::from(N), "every pushed entry popped");
    assert!(heap.is_empty());
    black_box(popped);
    ns / popped as f64
}

/// Every distinct `Dist` shape the OS personalities build.
fn personality_dists() -> Vec<wdm_osmodel::Dist> {
    let mut shapes = Vec::new();
    for kind in OsKind::ALL_WITH_W2K {
        let p = OsPersonality::of(kind);
        for d in [p.cli_duration, p.section_duration, p.workitem_duration] {
            if !shapes.contains(&d) {
                shapes.push(d);
            }
        }
    }
    shapes
}

/// `CompiledSampler::draw` and `draw_batch` over the personalities' shapes:
/// (ns per draw, ns per batched draw).
pub fn dist_draw_ns() -> (f64, f64) {
    const DRAWS: usize = 200_000;
    let hz = cpu_hz();
    let samplers: Vec<_> = personality_dists()
        .iter()
        .map(|d| d.compile(hz, SamplerMode::Exact))
        .collect();
    assert!(
        samplers.len() >= 3,
        "the personalities build several shapes"
    );
    let mut rng = StdRng::seed_from_u64(1999);
    let mut total = 0u64;
    let t = Instant::now();
    for s in &samplers {
        for _ in 0..DRAWS {
            total = total.wrapping_add(black_box(s).draw(&mut rng).0);
        }
    }
    let single = t.elapsed().as_nanos() as f64;
    let mut buf = vec![Cycles(0); 256];
    let mut batched = 0u64;
    let t = Instant::now();
    for s in &samplers {
        for _ in 0..DRAWS / buf.len() {
            black_box(s).draw_batch(&mut rng, &mut buf);
            batched = batched.wrapping_add(buf.iter().map(|c| c.0).sum::<u64>());
        }
    }
    let batch = t.elapsed().as_nanos() as f64;
    assert!(total > 0 && batched > 0, "draws produced durations");
    black_box((total, batched));
    let n = (samplers.len() * DRAWS) as f64;
    let nb = (samplers.len() * (DRAWS / buf.len()) * buf.len()) as f64;
    (single / n, batch / nb)
}

/// Raw samples: (timestamps, latencies) in cycles, spread over `minutes`.
fn samples(n: usize, minutes: u64, hz: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = Lcg(11);
    let span = minutes * 60 * hz;
    let nows = (0..n as u64).map(|i| i * span / n as u64).collect();
    // Latencies from ~10 us to ~10 ms, log-spread like the measured tails.
    let lats = (0..n)
        .map(|_| (hz / 100_000) << (rng.next() % 10))
        .collect();
    (nows, lats)
}

/// `SampleStage` push + `partition` + `fold_into`, ns per sample, over the
/// session's 11 series.
pub fn stage_ns_per_sample() -> f64 {
    const N: usize = 400_000;
    const SERIES: usize = 11;
    let hz = cpu_hz();
    let (nows, lats) = samples(N, 4, hz);
    let mut stage = SampleStage::new(60 * hz);
    let base = stage.register_series(SERIES);
    let mut series: Vec<LatencySeries> = (0..SERIES)
        .map(|i| LatencySeries::new(&format!("s{i}"), hz))
        .collect();
    let flush = |stage: &mut SampleStage, series: &mut [LatencySeries]| {
        stage.partition();
        for (i, s) in series.iter_mut().enumerate() {
            stage.fold_into(base + i as u16, s);
        }
        stage.reset();
    };
    let t = Instant::now();
    for (i, (&now, &lat)) in black_box(&nows).iter().zip(&lats).enumerate() {
        let sid = base + (i % SERIES) as u16;
        if stage.push(sid, SimInstant(now), Cycles(lat)) {
            flush(&mut stage, &mut series);
        }
    }
    flush(&mut stage, &mut series);
    let ns = t.elapsed().as_nanos() as f64;
    let folded: u64 = series.iter().map(|s| s.hist.count()).sum();
    assert_eq!(folded, N as u64, "every staged sample folded");
    black_box(&series);
    ns / N as f64
}

/// `LatencyHistogram::record_cycles_batch` and
/// `BlockMaxima::record_cycles_batch`, ns per sample each.
pub fn batch_fold_ns() -> (f64, f64) {
    const N: usize = 400_000;
    const ROUNDS: usize = 5;
    let hz = cpu_hz();
    let (nows, lats) = samples(N, 8, hz);
    let mut hist = LatencyHistogram::fig4();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        hist.record_cycles_batch(black_box(&lats), hz);
    }
    let hist_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(hist.count(), (N * ROUNDS) as u64, "every sample binned");
    let mut maxima = 0usize;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let mut blocks = BlockMaxima::new(Cycles(60 * hz));
        blocks.record_cycles_batch(black_box(&nows), &lats, hz);
        maxima += black_box(&blocks).maxima().len();
    }
    let block_ns = t.elapsed().as_nanos() as f64;
    assert!(
        maxima >= 7 * ROUNDS,
        "eight minutes close at least seven blocks"
    );
    let n = (N * ROUNDS) as f64;
    (hist_ns / n, block_ns / n)
}

/// `ScenarioMeasurement::merge_shard_at` on real one-minute shards, us per
/// merge. The shards are simulated first; only the merges are timed.
pub fn merge_us_per_shard(seed: u64) -> f64 {
    let cfg = RunConfig {
        duration: Duration::Minutes(4.0),
        seed,
        shards: 4,
        ..RunConfig::default()
    };
    let mut merges = 0u32;
    let mut ns = 0.0;
    for os in OsKind::ALL {
        let w = WorkloadKind::Business;
        let opts = cfg.measure_opts(os, w);
        let specs = cell_shards(&cfg, os, w);
        assert_eq!(specs.len(), 4, "four whole-minute shards");
        let mut shards: Vec<_> = specs
            .iter()
            .map(|s| measure_shard(s, os, w, &opts))
            .collect();
        let events: u64 = shards.iter().map(|m| m.sim_events).sum();
        let mut acc = shards.remove(0);
        let t = Instant::now();
        for (i, m) in shards.into_iter().enumerate() {
            let _ = acc.merge_shard_at(i + 1, black_box(m));
            merges += 1;
        }
        ns += t.elapsed().as_nanos() as f64;
        assert_eq!(acc.sim_events, events, "merged counters sum");
        assert_eq!(
            acc.int_to_isr_all_ticks.blocks.maxima().len(),
            4,
            "blocks slot in"
        );
    }
    ns / 1e3 / f64::from(merges)
}

/// `FlightRecorder::events_in` on a full 65,536-entry ring filled by a
/// real cell, us per call over episode-sized windows.
pub fn events_in_us(seed: u64) -> f64 {
    const CALLS: usize = 400;
    let mut sc = build_scenario(
        OsKind::Win98,
        WorkloadKind::Games,
        seed,
        &ScenarioOptions::default(),
    );
    let cap = FlightOptions::default().capacity;
    let flight = Rc::new(RefCell::new(FlightRecorder::new(cap)));
    sc.kernel.add_observer(flight.clone());
    let hz = sc.kernel.config().cpu_hz;
    for _ in 0..600 {
        if flight.borrow().len() == cap {
            break;
        }
        sc.kernel.run_for(Cycles::from_ms_at(100.0, hz));
    }
    let ring = flight.borrow();
    assert_eq!(ring.len(), cap, "ring filled");
    let stamps: Vec<u64> = ring.events().map(|e| e.at().0).collect();
    let pad = hz / 1000;
    let mut found = 0usize;
    let t = Instant::now();
    for i in 0..CALLS {
        let at = stamps[i * (cap - 1) / (CALLS - 1)];
        let w =
            black_box(&*ring).events_in(SimInstant(at.saturating_sub(pad)), SimInstant(at + pad));
        found += w.len();
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert!(found >= CALLS, "every window holds its own event");
    black_box(found);
    ns / 1e3 / CALLS as f64
}
