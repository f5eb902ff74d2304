//! Blame-decomposition exactness and forensics neutrality oracles.
//!
//! The blame attribution layer (DESIGN.md §15) claims that for every
//! thread-resume window the named components — ISR, DPC, IRQL-masked
//! wait, scheduler dispatch, higher-priority preemption, quantum/peer
//! execution, idle residue — **sum bit-exactly to the measured latency in
//! cycles**. It also claims the whole forensics layer (blame ledger,
//! resume-blame events, virtual-time flame sampling) is purely
//! observational: arming it changes nothing the simulation computes.
//! This suite drives randomized device + thread scenarios and checks
//! both, plus conservation of the flame counts.

use std::{cell::RefCell, rc::Rc};

use proptest::prelude::*;

use wdm_sim::prelude::*;

/// Records every resume-blame event, nothing else.
#[derive(Default)]
struct BlameLog {
    events: Vec<ResumeBlame>,
}

impl Observer for BlameLog {
    fn interest(&self) -> Interest {
        Interest::RESUME_BLAME
    }
    fn on_resume_blame(&mut self, e: &ResumeBlame) {
        self.events.push(*e);
    }
}

/// Records the resume-blame events of the threads it names.
struct WatchLog {
    watched: Vec<ThreadId>,
    events: Vec<ResumeBlame>,
}

impl Observer for WatchLog {
    fn interest(&self) -> Interest {
        Interest::RESUME_BLAME
    }
    fn resume_blame_threads(&self) -> Option<Vec<ThreadId>> {
        Some(self.watched.clone())
    }
    fn on_resume_blame(&mut self, e: &ResumeBlame) {
        self.events.push(*e);
    }
}

/// The fields of a resume-blame event, comparable.
fn key(e: &ResumeBlame) -> (ThreadId, u8, Instant, Instant, BlameBreakdown) {
    (e.thread, e.priority, e.readied, e.started, e.breakdown)
}

/// Everything arming forensics could conceivably perturb.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    now: u64,
    sim_events: u64,
    rng_fingerprint: u64,
    account: CycleAccount,
    context_switches: u64,
    steps_executed: u64,
}

#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    isr_busy: u64,
    dpc_busy: u64,
    rt_busy: u64,
    hi_busy: u64,
    hog_busy: u64,
    hog_sleep: u64,
    cli_len: u64,
    arrival_lo: u64,
    arrival_hi: u64,
    run_ms: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        0u64..1_000,
        (500u64..40_000, 500u64..120_000),
        (1_000u64..300_000, 1_000u64..200_000, 1_000u64..900_000),
        (10_000u64..200_000, 100_000u64..900_000, 30_000u64..400_000),
        3u64..10,
    )
        .prop_map(
            |(
                seed,
                (isr_busy, dpc_busy),
                (rt_busy, hi_busy, hog_busy),
                (cli_len, hog_sleep, lo),
                run_ms,
            )| Scenario {
                seed,
                isr_busy: isr_busy | 1,
                dpc_busy: dpc_busy | 1,
                rt_busy: rt_busy | 1,
                hi_busy: hi_busy | 1,
                hog_busy: hog_busy | 1,
                hog_sleep: hog_sleep | 1,
                cli_len: cli_len | 1,
                arrival_lo: lo | 1,
                arrival_hi: (lo + 600_000) | 1,
                run_ms,
            },
        )
}

/// Builds one scenario: a stochastic device interrupt (ISR → DPC →
/// SetEvent) waking a default-priority RT thread, a higher-priority RT
/// thread on the same wake (preemption pressure), normal-priority hogs
/// (quantum pressure), and stochastic interrupt-masked windows (masked
/// pressure) — every blame component gets exercised.
fn build(sc: Scenario, blame: Option<Rc<RefCell<BlameLog>>>, flame_period: u64) -> Kernel {
    let cfg = KernelConfig {
        seed: sc.seed,
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(cfg);
    k.set_flame_period(flame_period);
    if let Some(log) = blame {
        k.add_observer(log);
    }

    let l_isr = k.intern("DEV", "_Isr");
    let l_dpc = k.intern("DEV", "_Dpc");
    let l_rt = k.intern("APP", "_RtWork");
    let l_hi = k.intern("APP", "_HiWork");
    let l_hog = k.intern("APP", "_Hog");
    let l_cli = k.intern("HAL", "_MaskWindow");

    let wake = k.create_event(false);
    let wake_hi = k.create_event(false);
    let dpc = k.create_dpc(
        "dev-dpc",
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(sc.dpc_busy),
                label: l_dpc,
            },
            Step::SetEvent(wake),
            Step::SetEvent(wake_hi),
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
    k.add_env_source(EnvSource::new(
        "cli-windows",
        samplers::uniform(Cycles(sc.arrival_lo * 2), Cycles(sc.arrival_hi * 2)),
        EnvAction::Cli {
            duration: samplers::uniform(Cycles(sc.cli_len), Cycles(sc.cli_len * 2)),
            label: l_cli,
        },
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
    let _hi = k.create_thread(
        "rt-hi",
        RT_HIGH_PRIORITY,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(wake_hi)),
            Step::Busy {
                cycles: Cycles(sc.hi_busy),
                label: l_hi,
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
    k
}

fn fingerprint(k: &Kernel) -> Fingerprint {
    Fingerprint {
        now: k.now().0,
        sim_events: k.sim_events,
        rng_fingerprint: k.rng_fingerprint(),
        account: k.account,
        context_switches: k.context_switches,
        steps_executed: k.steps_executed,
    }
}

const FLAME_PERIOD: u64 = 37_507; // Deliberately off any tick boundary.

/// A fixed scenario with preemption, masking and dispatch pressure.
const PRESSURED: Scenario = Scenario {
    seed: 11,
    isr_busy: 20_001,
    dpc_busy: 60_001,
    rt_busy: 150_001,
    hi_busy: 120_001,
    hog_busy: 90_001,
    hog_sleep: 200_001,
    cli_len: 80_001,
    arrival_lo: 80_001,
    arrival_hi: 680_001,
    run_ms: 40,
};

/// A short, light fixed scenario.
const QUIET: Scenario = Scenario {
    seed: 3,
    isr_busy: 10_001,
    dpc_busy: 30_001,
    rt_busy: 90_001,
    hi_busy: 50_001,
    hog_busy: 70_001,
    hog_sleep: 150_001,
    cli_len: 40_001,
    arrival_lo: 60_001,
    arrival_hi: 660_001,
    run_ms: 10,
};

proptest! {
    /// Every resume window's blame components sum bit-exactly to its
    /// latency, and arming blame + flame leaves the simulation on the
    /// same trajectory as a bare run.
    #[test]
    fn blame_components_sum_exactly_and_forensics_are_neutral(sc in scenario()) {
        let log = Rc::new(RefCell::new(BlameLog::default()));
        let mut armed = build(sc, Some(log.clone()), FLAME_PERIOD);
        armed.run_for(Cycles::from_ms(sc.run_ms as f64));

        let events = log.borrow().events.clone();
        prop_assert!(!events.is_empty(), "scenario produced no resumes");
        for e in &events {
            prop_assert_eq!(
                e.breakdown.total(),
                (e.started - e.readied).0,
                "components must sum to the latency: {:?}",
                e
            );
        }
        // The wake chain guarantees at least one nonzero DPC component
        // (the signal is set from DPC context), so the oracle cannot pass
        // on all-zero breakdowns.
        prop_assert!(
            events.iter().any(|e| e.breakdown.total() > 0),
            "all windows were zero-latency"
        );

        // Neutrality: a bare run (no observer, no flame) is bit-identical.
        let mut bare = build(sc, None, 0);
        bare.run_for(Cycles::from_ms(sc.run_ms as f64));
        prop_assert_eq!(fingerprint(&armed), fingerprint(&bare));

        // Flame conservation: one sample per period crossed since t=0.
        let total: u64 = armed.flame_counts().iter().sum();
        prop_assert_eq!(total, armed.now().0 / FLAME_PERIOD);
    }
}

/// Deterministic companion: the preempt and masked components actually
/// fire on a scenario built to produce them, so the proptest cannot pass
/// vacuously with those ledger paths dead.
#[test]
fn preemption_and_masking_show_up_in_the_breakdown() {
    let sc = PRESSURED;
    let log = Rc::new(RefCell::new(BlameLog::default()));
    let mut k = build(sc, Some(log.clone()), 0);
    k.run_for(Cycles::from_ms(sc.run_ms as f64));
    let events = log.borrow().events.clone();
    assert!(!events.is_empty());
    let rt24: Vec<&ResumeBlame> = events.iter().filter(|e| e.priority == 24).collect();
    assert!(!rt24.is_empty(), "the watched rt-24 thread never resumed");
    assert!(
        rt24.iter().any(|e| e.breakdown.dispatch > 0),
        "dispatch overhead must appear in some window"
    );
    assert!(
        rt24.iter().any(|e| e.breakdown.dpc > 0),
        "the DPC that signals the wake must appear"
    );
    assert!(
        events.iter().any(|e| e.breakdown.preempt > 0),
        "the priority-28 thread must preempt some window"
    );
    for e in &events {
        assert_eq!(e.breakdown.total(), (e.started - e.readied).0);
    }
}

/// A disarmed kernel pays nothing: no observer arming RESUME_BLAME means
/// no takes for it, and the per-priority ledger stays untouched.
#[test]
fn disarmed_blame_costs_no_takes() {
    let sc = QUIET;
    let mut k = build(sc, None, 0);
    k.run_for(Cycles::from_ms(sc.run_ms as f64));
    assert_eq!(k.notify_takes, 0, "no observer, no takes");
}

/// A watch list narrows what the kernel decomposes, not how: each watched
/// thread's windows are bit-identical to the all-threads ledger's, and
/// `RESUME_BLAME` is delivered exactly once per watched resume.
#[test]
fn watched_threads_decompose_like_the_all_threads_ledger() {
    let sc = PRESSURED;
    let run = Cycles::from_ms(sc.run_ms as f64);
    let log = Rc::new(RefCell::new(BlameLog::default()));
    let mut k = build(sc, Some(log.clone()), 0);
    k.run_for(run);
    let all: Vec<_> = log.borrow().events.iter().map(key).collect();
    let threads = k.num_threads();
    assert!(threads >= 4);
    let mut subsets: Vec<Vec<ThreadId>> = (0..threads).map(|t| vec![ThreadId(t)]).collect();
    subsets.push(vec![ThreadId(0), ThreadId(threads - 1)]);
    for watched in subsets {
        let mut k = build(sc, None, 0);
        let watch = Rc::new(RefCell::new(WatchLog {
            watched: watched.clone(),
            events: Vec::new(),
        }));
        k.add_observer(watch.clone());
        k.run_for(run);
        let want: Vec<_> = all
            .iter()
            .filter(|e| watched.contains(&e.0))
            .copied()
            .collect();
        let got: Vec<_> = watch.borrow().events.iter().map(key).collect();
        assert!(!want.is_empty(), "{watched:?} never resumed");
        assert_eq!(got, want, "watching {watched:?}");
        assert_eq!(
            k.notify_takes,
            want.len() as u64,
            "one delivery per watched resume ({watched:?})"
        );
    }
}

#[test]
#[should_panic(expected = "resume_blame_threads names thread 9 but the kernel has 4 threads")]
fn watching_a_missing_thread_panics_at_attach() {
    let sc = QUIET;
    let mut k = build(sc, None, 0);
    k.add_observer(Rc::new(RefCell::new(WatchLog {
        watched: vec![ThreadId(1), ThreadId(9)],
        events: Vec::new(),
    })));
}
