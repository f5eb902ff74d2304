//! Batched-vs-single-step equivalence oracle.
//!
//! The kernel's step loops fast-forward runs of pure-compute `Busy` chunks
//! that end strictly before the current preemption horizon (DESIGN.md §8).
//! That is a pure execution-strategy change: the simulation it produces
//! must be *observably identical* to stepping one chunk per decision-loop
//! iteration. This suite drives randomized device + thread scenarios twice
//! — batching on (the default) and off — and requires byte-identical:
//!
//! - instrumentation event streams (every ISR enter, DPC start, thread
//!   resume and context switch, with exact instants),
//! - the kernel fingerprint: final `now`, `sim_events`, RNG position,
//! - cycle accounting by hierarchy level and total context switches,
//! - the executed-step count (batching may not skip or invent steps).
//!
//! A deterministic companion test pins that the batched run actually fuses
//! chunks (`batched_steps > 0`), so the proptest cannot pass vacuously by
//! never batching.

use std::{cell::RefCell, rc::Rc};

use proptest::prelude::*;

use wdm_sim::prelude::*;

/// Full-interest recorder: a flat, ordered log of every event the kernel
/// can emit, with exact instants. Two runs are observably identical for
/// every latency tool iff these logs match.
#[derive(Default)]
struct FullLog {
    events: Vec<(u8, u64, u64, u64)>,
}

impl Observer for FullLog {
    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.events
            .push((0, e.vector.0 as u64, e.asserted.0, e.started.0));
    }
    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.events
            .push((1, e.dpc.0 as u64, e.queued.0, e.started.0));
    }
    fn on_thread_resume(&mut self, e: &ThreadResume) {
        self.events
            .push((2, e.thread.0 as u64, e.readied.0, e.started.0));
    }
    fn on_context_switch(&mut self, from: Option<ThreadId>, to: ThreadId, now: Instant) {
        let f = from.map(|t| t.0 as u64 + 1).unwrap_or(0);
        self.events.push((3, f, to.0 as u64, now.0));
    }
}

/// Everything one run produces that batching could conceivably perturb.
#[derive(PartialEq, Debug)]
struct RunDigest {
    events: Vec<(u8, u64, u64, u64)>,
    now: u64,
    sim_events: u64,
    rng_fingerprint: u64,
    account: CycleAccount,
    context_switches: u64,
    steps_executed: u64,
}

/// Scenario knobs the proptest explores. Odd cycle values keep chunk ends
/// off tick boundaries so both `end < horizon` and `end == horizon` paths
/// are exercised.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    isr_busy: u64,
    dpc_busy: u64,
    rt_busy: u64,
    hog_busy: u64,
    hog_sleep: u64,
    arrival_lo: u64,
    arrival_hi: u64,
    run_ms: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        0u64..1_000,
        (500u64..40_000, 500u64..120_000),
        (1_000u64..300_000, 1_000u64..900_000),
        (50_000u64..600_000, 30_000u64..400_000, 100_000u64..900_000),
        3u64..12,
    )
        .prop_map(
            |(seed, (isr_busy, dpc_busy), (rt_busy, hog_busy), (hog_sleep, lo, span), run_ms)| {
                Scenario {
                    seed,
                    isr_busy: isr_busy | 1,
                    dpc_busy: dpc_busy | 1,
                    rt_busy: rt_busy | 1,
                    hog_busy: hog_busy | 1,
                    hog_sleep: hog_sleep | 1,
                    arrival_lo: lo | 1,
                    arrival_hi: (lo + span) | 1,
                    run_ms,
                }
            },
        )
}

/// Builds and runs one scenario and returns its digest: a stochastic
/// device interrupt (ISR -> DPC -> SetEvent), a real-time thread woken by
/// the event, normal-priority CPU hogs with sleeps, and a periodic
/// timer-driven DPC, all over a stochastic arrival process that draws from
/// the kernel RNG (so any batching-induced divergence also desynchronizes
/// the RNG stream and is caught twice).
fn run_scenario(sc: Scenario, batching: bool) -> (RunDigest, u64) {
    let cfg = KernelConfig {
        seed: sc.seed,
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(cfg);
    k.set_step_batching(batching);
    let log = Rc::new(RefCell::new(FullLog::default()));
    k.add_observer(log.clone());

    let l_isr = k.intern("DEV", "_Isr");
    let l_dpc = k.intern("DEV", "_Dpc");
    let l_rt = k.intern("APP", "_RtWork");
    let l_hog = k.intern("APP", "_Hog");

    let wake = k.create_event(false);
    let dpc = k.create_dpc(
        "dev-dpc",
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(sc.dpc_busy),
                label: l_dpc,
            },
            Step::SetEvent(wake),
            Step::Return,
        ])),
    );
    let v = k.install_vector(
        "dev",
        Irql(12),
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(sc.isr_busy),
                label: l_isr,
            },
            Step::QueueDpc(dpc),
            Step::Return,
        ])),
    );
    k.add_env_source(EnvSource::new(
        "dev-arrivals",
        samplers::uniform(Cycles(sc.arrival_lo), Cycles(sc.arrival_hi)),
        EnvAction::AssertInterrupt(v),
    ));

    let _rt = k.create_thread(
        "rt",
        RT_DEFAULT_PRIORITY,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(wake)),
            Step::Busy {
                cycles: Cycles(sc.rt_busy),
                label: l_rt,
            },
        ])),
    );
    for i in 0..2u64 {
        k.create_thread(
            &format!("hog-{i}"),
            (6 + i) as u8,
            Box::new(LoopSeq::new(vec![
                Step::Busy {
                    cycles: Cycles(sc.hog_busy + 17 * i),
                    label: l_hog,
                },
                Step::Sleep(Cycles(sc.hog_sleep + 31 * i)),
            ])),
        );
    }

    // A periodic timer DPC keeps calendar deadlines landing inside busy
    // runs, exercising the horizon clip from the calendar side.
    let tick_dpc = k.create_dpc("tick-dpc", Box::new(OpSeq::new(vec![Step::Return])));
    let timer = k.create_timer(Some(tick_dpc));
    k.set_timer(timer, Cycles::from_ms(1.5), Some(Cycles::from_ms(2.0)));

    k.run_for(Cycles::from_ms(sc.run_ms as f64));

    let events = log.borrow().events.clone();
    (
        RunDigest {
            events,
            now: k.now().0,
            sim_events: k.sim_events,
            rng_fingerprint: k.rng_fingerprint(),
            account: k.account,
            context_switches: k.context_switches,
            steps_executed: k.steps_executed,
        },
        k.batched_steps,
    )
}

proptest! {
    /// Batched execution is observably identical to single-stepping: same
    /// event stream, same instants, same RNG position, same accounting.
    #[test]
    fn batched_run_is_byte_identical_to_single_step(sc in scenario()) {
        let (batched, _) = run_scenario(sc, true);
        let (single, fused_off) = run_scenario(sc, false);
        prop_assert_eq!(fused_off, 0, "batching off must never fuse");
        prop_assert_eq!(batched, single);
    }
}

/// The fast path engages on a busy-heavy scenario — the proptest above
/// would pass vacuously if `batched_steps` stayed at zero.
#[test]
fn batching_fuses_chunks_on_a_busy_scenario() {
    let sc = Scenario {
        seed: 7,
        isr_busy: 20_001,
        dpc_busy: 60_001,
        rt_busy: 150_001,
        hog_busy: 90_001,
        hog_sleep: 200_001,
        arrival_lo: 80_001,
        arrival_hi: 700_001,
        run_ms: 20,
    };
    let (batched, fused) = run_scenario(sc, true);
    assert!(fused > 0, "no chunk was fused on a busy-heavy run");
    assert!(
        batched.steps_executed > batched.sim_events / 100,
        "sanity: the run executed real steps"
    );
    let (single, _) = run_scenario(sc, false);
    assert_eq!(batched, single);
}

/// Toggling batching halfway through a run must leave the remainder of the
/// schedule on the same trajectory: the flag selects an execution strategy,
/// not a simulation behavior.
#[test]
fn toggling_batching_mid_run_stays_on_trajectory() {
    let sc = Scenario {
        seed: 11,
        isr_busy: 10_001,
        dpc_busy: 40_001,
        rt_busy: 90_001,
        hog_busy: 70_001,
        hog_sleep: 150_001,
        arrival_lo: 60_001,
        arrival_hi: 500_001,
        run_ms: 12,
    };
    // Reference: batching on for the whole run.
    let (all_on, _) = run_scenario(sc, true);

    // Mixed: same scenario, flipping the switch at 4 ms and 8 ms. We
    // rebuild the kernel inline (run_scenario owns its kernel) with the
    // same construction order so the RNG stream lines up.
    let build = |sc: Scenario| -> (Kernel, Rc<RefCell<FullLog>>) {
        let cfg = KernelConfig {
            seed: sc.seed,
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        let log = Rc::new(RefCell::new(FullLog::default()));
        k.add_observer(log.clone());
        let l_isr = k.intern("DEV", "_Isr");
        let l_dpc = k.intern("DEV", "_Dpc");
        let l_rt = k.intern("APP", "_RtWork");
        let l_hog = k.intern("APP", "_Hog");
        let wake = k.create_event(false);
        let dpc = k.create_dpc(
            "dev-dpc",
            Box::new(OpSeq::new(vec![
                Step::Busy {
                    cycles: Cycles(sc.dpc_busy),
                    label: l_dpc,
                },
                Step::SetEvent(wake),
                Step::Return,
            ])),
        );
        let v = k.install_vector(
            "dev",
            Irql(12),
            Box::new(OpSeq::new(vec![
                Step::Busy {
                    cycles: Cycles(sc.isr_busy),
                    label: l_isr,
                },
                Step::QueueDpc(dpc),
                Step::Return,
            ])),
        );
        k.add_env_source(EnvSource::new(
            "dev-arrivals",
            samplers::uniform(Cycles(sc.arrival_lo), Cycles(sc.arrival_hi)),
            EnvAction::AssertInterrupt(v),
        ));
        let _rt = k.create_thread(
            "rt",
            RT_DEFAULT_PRIORITY,
            Box::new(LoopSeq::new(vec![
                Step::Wait(WaitObject::Event(wake)),
                Step::Busy {
                    cycles: Cycles(sc.rt_busy),
                    label: l_rt,
                },
            ])),
        );
        for i in 0..2u64 {
            k.create_thread(
                &format!("hog-{i}"),
                (6 + i) as u8,
                Box::new(LoopSeq::new(vec![
                    Step::Busy {
                        cycles: Cycles(sc.hog_busy + 17 * i),
                        label: l_hog,
                    },
                    Step::Sleep(Cycles(sc.hog_sleep + 31 * i)),
                ])),
            );
        }
        let tick_dpc = k.create_dpc("tick-dpc", Box::new(OpSeq::new(vec![Step::Return])));
        let timer = k.create_timer(Some(tick_dpc));
        k.set_timer(timer, Cycles::from_ms(1.5), Some(Cycles::from_ms(2.0)));
        (k, log)
    };

    let (mut k, log) = build(sc);
    k.set_step_batching(false);
    k.run_for(Cycles::from_ms(4.0));
    k.set_step_batching(true);
    k.run_for(Cycles::from_ms(4.0));
    k.set_step_batching(false);
    k.run_for(Cycles::from_ms(4.0));

    assert_eq!(log.borrow().events, all_on.events);
    assert_eq!(k.now().0, all_on.now);
    assert_eq!(k.sim_events, all_on.sim_events);
    assert_eq!(k.rng_fingerprint(), all_on.rng_fingerprint);
    assert_eq!(k.account, all_on.account);
    assert_eq!(k.steps_executed, all_on.steps_executed);
}
