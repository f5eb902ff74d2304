//! Model-based equivalence tests for the event calendar.
//!
//! Two layers, both checked against straightforward linear-scan oracles:
//!
//! 1. `DeadlineHeap` in isolation: random arm / invalidate / drain / count
//!    sequences, compared entry-for-entry against a `Vec<Option<deadline>>`
//!    reference that scans every slot. This pins the lazy-invalidation
//!    generation protocol and the ascending-index tie-break. Its drain
//!    cost ignores far-future entries, in the heap and through the kernel
//!    (`Kernel::calendar_tick_work`).
//!
//! 2. The full kernel: a random schedule of `set_timer` / `cancel_timer`
//!    calls interleaved with `run_for` slices, with every timer carrying a
//!    DPC. A periodic *sentinel* timer (one fire per PIT tick) exposes the
//!    exact instant each clock ISR processed its due work, which lets a
//!    tick-granular oracle predict the complete DPC fire sequence — order
//!    and timestamps — without re-deriving ISR overhead costs. The same
//!    run also proves the calendar draws nothing from the RNG stream and
//!    that the whole schedule replays byte-identically.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use wdm_sim::{
    calendar::DeadlineHeap,
    config::KernelConfig,
    dpc::DpcImportance,
    ids::{DpcId, TimerId},
    kernel::Kernel,
    observer::{DpcStart, Observer},
    step::{LoopSeq, OpSeq, Step},
    time::{Cycles, Instant},
};

// ---------------------------------------------------------------------
// Layer 1: DeadlineHeap vs. a linear-scan oracle
// ---------------------------------------------------------------------

const SLOTS: usize = 24;

/// Operations on the heap and the oracle in lockstep.
#[derive(Debug, Clone, Copy)]
enum HeapOp {
    /// Arm slot `.0` at `now + .1` (re-arming orphans the live entry).
    Arm(u8, u16),
    /// Invalidate slot `.0` (cancel), a no-op if not armed.
    Invalidate(u8),
    /// Advance time by `.1` and pop everything due.
    Drain(u16),
    /// Count entries due within the next `.0` cycles without popping.
    Count(u16),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0u8..SLOTS as u8, 0u16..3000).prop_map(|(i, d)| HeapOp::Arm(i, d)),
        (0u8..SLOTS as u8).prop_map(HeapOp::Invalidate),
        (1u16..2500).prop_map(HeapOp::Drain),
        (0u16..2000).prop_map(HeapOp::Count),
    ]
}

proptest! {
    /// The heap agrees with a scan-every-slot oracle on every drain and
    /// every count, across arbitrary arm/cancel/re-arm interleavings.
    #[test]
    fn deadline_heap_matches_linear_scan(ops in prop::collection::vec(heap_op(), 1..250)) {
        let mut heap = DeadlineHeap::new();
        let mut now = 0u64;
        // Oracle state: live deadline per slot + the generation protocol
        // the kernel objects follow (bump on every set/cancel/fire).
        let mut armed: [Option<u64>; SLOTS] = [None; SLOTS];
        let mut gens = [0u64; SLOTS];
        let mut out: Vec<u32> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Arm(i, d) => {
                    let i = i as usize;
                    if armed[i].is_some() {
                        heap.note_stale();
                    }
                    gens[i] += 1;
                    let deadline = now + d as u64;
                    armed[i] = Some(deadline);
                    heap.push(Instant(deadline), i as u32, gens[i]);
                }
                HeapOp::Invalidate(i) => {
                    let i = i as usize;
                    if armed[i].take().is_some() {
                        gens[i] += 1;
                        heap.note_stale();
                        // The kernel compacts on invalidation; exercise it.
                        heap.maintain(|idx, g| {
                            let idx = idx as usize;
                            armed[idx].is_some() && gens[idx] == g
                        });
                    }
                }
                HeapOp::Drain(dt) => {
                    now += dt as u64;
                    let expected: Vec<u32> = (0..SLOTS)
                        .filter(|&i| matches!(armed[i], Some(d) if d <= now))
                        .map(|i| i as u32)
                        .collect();
                    out.clear();
                    heap.pop_due_into(Instant(now), |idx, g| {
                        let idx = idx as usize;
                        armed[idx].is_some() && gens[idx] == g
                    }, &mut out);
                    prop_assert_eq!(&out, &expected);
                    for &i in &out {
                        // Fired: the object bumps its generation.
                        armed[i as usize] = None;
                        gens[i as usize] += 1;
                    }
                }
                HeapOp::Count(ahead) => {
                    let t = now + ahead as u64;
                    let expected = (0..SLOTS)
                        .filter(|&i| matches!(armed[i], Some(d) if d <= t))
                        .count();
                    let got = heap.count_due(Instant(t), |idx, g| {
                        let idx = idx as usize;
                        armed[idx].is_some() && gens[idx] == g
                    });
                    prop_assert_eq!(got, expected);
                }
            }
        }

        // Final full drain: everything left (live or stale) surfaces, the
        // live set matches the oracle exactly, and the heap empties.
        now += 1 << 20;
        let expected: Vec<u32> = (0..SLOTS)
            .filter(|&i| armed[i].is_some())
            .map(|i| i as u32)
            .collect();
        out.clear();
        heap.pop_due_into(Instant(now), |idx, g| {
            let idx = idx as usize;
            armed[idx].is_some() && gens[idx] == g
        }, &mut out);
        prop_assert_eq!(&out, &expected);
        prop_assert!(heap.is_empty());
    }
}

/// Same-deadline entries surface in ascending slot order no matter the
/// insertion order — the old linear scans' tie-break, which byte-identical
/// replay depends on.
#[test]
fn same_deadline_ties_fire_in_ascending_index_order() {
    let mut heap = DeadlineHeap::new();
    for idx in [7u32, 3, 19, 0, 11] {
        heap.push(Instant(500), idx, 1);
    }
    let mut out = Vec::new();
    heap.pop_due_into(Instant(500), |_, _| true, &mut out);
    assert_eq!(out, vec![0, 3, 7, 11, 19]);
}

/// Pop and count touch only *due* entries: a thousand far-future arms cost
/// nothing at drain time. This is the O(due) contract the clock ISR relies
/// on (the next test checks the same property through the kernel).
#[test]
fn drain_cost_ignores_far_future_entries() {
    let mut heap = DeadlineHeap::new();
    for i in 0..1000u32 {
        heap.push(Instant(1_000_000 + i as u64), i, 1);
    }
    heap.push(Instant(10), 2000, 1);
    let before = heap.examined();
    let mut out = Vec::new();
    heap.pop_due_into(Instant(100), |_, _| true, &mut out);
    assert_eq!(out, vec![2000]);
    assert_eq!(heap.count_due(Instant(100), |_, _| true), 0);
    // One due pop; the count walk stops at the (not-due) root.
    assert_eq!(heap.examined() - before, 1);
    assert_eq!(heap.len(), 1000);
}

/// The same contract through the kernel (DESIGN.md §7): clock-tick cost
/// scales with *due* events only. A kernel whose only real timer work is
/// a 1 ms periodic DPC timer does exactly as much tick work over one
/// simulated second with a thousand armed far-future timers and a
/// thousand far-future sleepers as without them.
#[test]
fn far_future_timers_and_sleepers_add_no_tick_work() {
    let tick_work = |loaded: bool| -> u64 {
        let mut k = Kernel::new(KernelConfig::default());
        let dpc = k.create_dpc(
            "tick-dpc",
            DpcImportance::Medium,
            Box::new(OpSeq::new(vec![Step::Return])),
        );
        let active = k.create_timer(Some(dpc));
        k.set_timer(active, Cycles::from_ms(1.0), Some(Cycles::from_ms(1.0)));
        if loaded {
            // An hour out: armed for the whole measurement, never due.
            let far = Cycles::from_ms(3_600_000.0);
            for _ in 0..1000 {
                let t = k.create_timer(None);
                k.set_timer(t, far, None);
            }
            for i in 0..1000 {
                k.create_thread(
                    &format!("far-sleeper-{i}"),
                    4,
                    Box::new(OpSeq::new(vec![Step::Sleep(far)])),
                );
            }
        }
        k.run_for(Cycles::from_ms(200.0));
        let start = k.calendar_tick_work();
        k.run_for(Cycles::from_ms(1_000.0));
        k.calendar_tick_work() - start
    };
    let base = tick_work(false);
    assert!(base > 0, "the periodic timer must generate tick work");
    assert_eq!(
        base,
        tick_work(true),
        "non-due calendar entries leaked into clock-tick work"
    );
}

// ---------------------------------------------------------------------
// Layer 2: kernel fire order vs. a tick-granular oracle
// ---------------------------------------------------------------------

const WORKERS: usize = 6;

/// External-API schedule against a paused kernel: arm / cancel a worker
/// timer, or let the simulation run for an odd slice of cycles. Odd values
/// keep deadlines off tick boundaries and ISR-cost multiples.
#[derive(Debug, Clone, Copy)]
enum KOp {
    Set { t: u8, due: u64, period: Option<u64> },
    Cancel { t: u8 },
    Advance { dt: u64 },
}

fn k_op() -> impl Strategy<Value = KOp> {
    let worker = 0u8..WORKERS as u8;
    prop_oneof![
        (worker.clone(), 10_000u64..2_000_000, prop::bool::ANY, 300_000u64..900_000)
            .prop_map(|(t, due, periodic, p)| KOp::Set {
                t,
                due: due | 1,
                period: periodic.then_some(p | 1),
            }),
        worker.prop_map(|t| KOp::Cancel { t }),
        (5_000u64..700_000).prop_map(|dt| KOp::Advance { dt: dt | 1 }),
    ]
}

/// Records every DPC start as (queued-at, dpc). `queued` for a timer DPC is
/// the exact instant `clock_tick_work` ran, so the sentinel's entries give
/// the per-tick processing times the oracle needs.
#[derive(Default)]
struct FireLog {
    fires: Vec<(u64, DpcId)>,
}

impl Observer for FireLog {
    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.fires.push((e.queued.0, e.dpc));
    }
}

struct TimerRig {
    kernel: Kernel,
    log: Rc<RefCell<FireLog>>,
    sentinel_dpc: DpcId,
    worker_dpcs: Vec<DpcId>,
    workers: Vec<TimerId>,
}

fn build_rig() -> TimerRig {
    let cfg = KernelConfig::default();
    let tick = cfg.pit_period();
    let mut kernel = Kernel::new(cfg);
    let log = Rc::new(RefCell::new(FireLog::default()));
    kernel.add_observer(log.clone());

    let sentinel_dpc = kernel.create_dpc(
        "cal-sentinel",
        DpcImportance::Medium,
        Box::new(OpSeq::new(vec![Step::Return])),
    );
    let sentinel = kernel.create_timer(Some(sentinel_dpc));
    let mut worker_dpcs = Vec::new();
    let mut workers = Vec::new();
    for i in 0..WORKERS {
        let dpc = kernel.create_dpc(
            &format!("cal-worker-{i}"),
            DpcImportance::Medium,
            Box::new(OpSeq::new(vec![Step::Return])),
        );
        worker_dpcs.push(dpc);
        workers.push(kernel.create_timer(Some(dpc)));
    }

    // Background threads so timed-wait calendar entries coexist with the
    // timer entries (their own wakeups are not part of the oracle).
    for w in 0..2usize {
        kernel.create_thread(
            &format!("sleeper-{w}"),
            5 + w as u8,
            Box::new(LoopSeq::new(vec![Step::Sleep(Cycles(1_700_001 + 400_001 * w as u64))])),
        );
    }

    // One sentinel fire per PIT tick, from the first tick on.
    kernel.set_timer(sentinel, tick, Some(tick));
    TimerRig {
        kernel,
        log,
        sentinel_dpc,
        worker_dpcs,
        workers,
    }
}

/// Runs the schedule and returns the observed fire list plus the kernel's
/// (now, sim_events, rng fingerprint) fingerprint triple.
fn run_schedule(ops: &[KOp]) -> (Vec<(u64, DpcId)>, (u64, u64, u64)) {
    let mut rig = build_rig();
    let fp_before = rig.kernel.rng_fingerprint();
    let mut issued: Vec<(u64, KOp)> = Vec::new();
    for &op in ops {
        match op {
            KOp::Set { t, due, period } => {
                issued.push((rig.kernel.now().0, op));
                rig.kernel
                    .set_timer(rig.workers[t as usize], Cycles(due), period.map(Cycles));
            }
            KOp::Cancel { t } => {
                issued.push((rig.kernel.now().0, op));
                rig.kernel.cancel_timer(rig.workers[t as usize]);
            }
            KOp::Advance { dt } => {
                rig.kernel.run_for(Cycles(dt));
            }
        }
    }

    // No schedule op — external set/cancel storms included — may touch the
    // RNG stream: replayability of recorded runs depends on it.
    let fp_after = rig.kernel.rng_fingerprint();
    assert_eq!(fp_before, fp_after, "timer machinery advanced the RNG stream");

    let fires = rig.log.borrow().fires.clone();
    verify_against_oracle(&rig, &issued, &fires);
    let fp = (rig.kernel.now().0, rig.kernel.sim_events, fp_after);
    (fires, fp)
}

/// Tick-granular reference model. The sentinel's fires give the exact time
/// `W` each clock tick processed timers; a timer armed at `a` for `a + due`
/// fires at the first `W >= a + due` it is still live for, ascending timer
/// index within a tick, and a periodic timer re-arms from its *due* time.
fn verify_against_oracle(rig: &TimerRig, issued: &[(u64, KOp)], fires: &[(u64, DpcId)]) {
    let ticks: Vec<u64> = fires
        .iter()
        .filter(|(_, d)| *d == rig.sentinel_dpc)
        .map(|&(w, _)| w)
        .collect();
    assert!(
        ticks.windows(2).all(|w| w[0] < w[1]),
        "sentinel must fire exactly once per tick"
    );

    // Replay the issue log against the observed tick times.
    #[derive(Clone, Copy)]
    struct Live {
        deadline: u64,
        period: Option<u64>,
    }
    let mut live: [Option<Live>; WORKERS] = [None; WORKERS];
    let mut expected: Vec<(u64, DpcId)> = Vec::new();
    let mut next_op = 0usize;
    for &w in &ticks {
        // External ops issued strictly before this tick's processing time
        // took effect first (the kernel was paused when they ran).
        while next_op < issued.len() && issued[next_op].0 < w {
            let (at, op) = issued[next_op];
            next_op += 1;
            match op {
                KOp::Set { t, due, period } => {
                    live[t as usize] = Some(Live {
                        deadline: at + due,
                        period,
                    });
                }
                KOp::Cancel { t } => live[t as usize] = None,
                KOp::Advance { .. } => unreachable!("advances are not logged"),
            }
        }
        expected.push((w, rig.sentinel_dpc));
        for (t, slot) in live.iter_mut().enumerate() {
            let Some(arm) = *slot else { continue };
            if arm.deadline <= w {
                expected.push((w, rig.worker_dpcs[t]));
                // Re-arm from the due time (drift-free), at most one
                // fire per tick even if the next deadline is past.
                *slot = arm.period.map(|p| Live {
                    deadline: arm.deadline + p,
                    period: arm.period,
                });
            }
        }
    }
    assert_eq!(fires, &expected[..], "fire sequence diverged from oracle");
}

/// A fixed schedule that provably produces worker fires, so the proptest
/// above cannot degenerate into comparing empty lists: one-shot, periodic,
/// cancelled and re-armed timers all cross several ticks.
#[test]
fn fixed_schedule_produces_the_predicted_fires() {
    let ops = [
        KOp::Set { t: 0, due: 450_001, period: None },
        KOp::Set { t: 1, due: 300_003, period: Some(600_001) },
        KOp::Set { t: 2, due: 150_001, period: None },
        KOp::Advance { dt: 200_001 },
        KOp::Cancel { t: 2 },
        KOp::Set { t: 3, due: 900_001, period: None },
        KOp::Advance { dt: 2_400_001 },
    ];
    let (fires, _) = run_schedule(&ops);
    let rig = build_rig();
    let worker_fires = fires
        .iter()
        .filter(|(_, d)| *d != rig.sentinel_dpc)
        .count();
    // t0 once, t1 four times (periodic over ~2.6ms), t2 cancelled before
    // its deadline, t3 once.
    assert_eq!(worker_fires, 6, "fires: {fires:?}");
    assert!(fires.iter().any(|&(_, d)| d == rig.worker_dpcs[3]));
    assert!(!fires.iter().any(|&(_, d)| d == rig.worker_dpcs[2]));
}

proptest! {
    /// Random timer schedules fire exactly as the tick-granular linear
    /// model predicts, and replaying the same schedule reproduces the
    /// identical fire list, event count and RNG position.
    #[test]
    fn kernel_fire_order_matches_tick_oracle(ops in prop::collection::vec(k_op(), 4..40)) {
        let (fires_a, fp_a) = run_schedule(&ops);
        let (fires_b, fp_b) = run_schedule(&ops);
        prop_assert_eq!(fires_a, fires_b);
        prop_assert_eq!(fp_a, fp_b);
    }
}
