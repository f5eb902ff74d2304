//! Steady-state allocation audit for the kernel's per-event hot paths.
//!
//! Stepping a program through the kernel's step functions must cost no
//! per-step heap traffic: the boxed program is moved, never re-boxed, and
//! `StepCtx` lives on the stack. Observer notification, the kernel-fed
//! flight ring and the clock ISR's timer-expiry and sleep-wake work must
//! be just as heap-free. This binary installs a counting global
//! allocator and pins that down: after a warm-up window (which is allowed to grow
//! queues and heaps to their steady capacity), a measured window over each
//! kernel must perform **zero** heap operations, event for event. A flight
//! ring below its bound is the one structure that still grows, and
//! `ring_growth_is_amortized` holds N events of growth to log2(N) + 2 heap
//! operations.
//!
//! The counter is per thread: the kernel runs on the test's own thread,
//! while the test harness's threads allocate on their own schedule and
//! would otherwise bleed into a measured window.

use std::{
    alloc::{GlobalAlloc, Layout, System},
    cell::{Cell, RefCell},
    rc::Rc,
};

use wdm_sim::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Heap operations (alloc, realloc, free) made by this thread.
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_op() {
    HEAP_OPS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_op();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_op();
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_op();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_ops() -> u64 {
    HEAP_OPS.with(Cell::get)
}

/// A device ISR -> DPC -> event -> real-time thread pipeline plus two
/// timesliced hogs — every body an `OpSeq`/`LoopSeq` stepped by the
/// interpreter.
fn pipeline_kernel() -> Kernel {
    let mut k = Kernel::new(KernelConfig {
        seed: 42,
        ..KernelConfig::default()
    });
    let l_isr = k.intern("DEV", "_Isr");
    let l_dpc = k.intern("DEV", "_Dpc");
    let l_rt = k.intern("APP", "_RtWork");
    let l_hog = k.intern("APP", "_Hog");

    let wake = k.create_event(false);
    let dpc = k.create_dpc(
        "dev-dpc",
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(60_001),
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
                cycles: Cycles(20_001),
                label: l_isr,
            },
            Step::QueueDpc(dpc),
            Step::Return,
        ])),
    );
    k.add_env_source(EnvSource::new(
        "dev-arrivals",
        samplers::uniform(Cycles(80_001), Cycles(700_001)),
        EnvAction::AssertInterrupt(v),
    ));
    k.create_thread(
        "rt",
        RT_DEFAULT_PRIORITY,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(wake)),
            Step::Busy {
                cycles: Cycles(150_001),
                label: l_rt,
            },
        ])),
    );
    for i in 0..2u64 {
        k.create_thread(
            format!("hog-{i}"),
            (6 + i) as u8,
            Box::new(LoopSeq::new(vec![
                Step::Busy {
                    cycles: Cycles(90_001 + 17 * i),
                    label: l_hog,
                },
                Step::Sleep(Cycles(200_001 + 31 * i)),
            ])),
        );
    }
    let tick_dpc = k.create_dpc("tick-dpc", Box::new(OpSeq::new(vec![Step::Return])));
    let timer = k.create_timer(Some(tick_dpc));
    k.set_timer(timer, Cycles::from_ms(1.5), Some(Cycles::from_ms(2.0)));

    k
}

/// Hook deliveries of every kind a full-interest observer sees.
#[derive(Default)]
struct CountingObserver {
    events: u64,
}

impl Observer for CountingObserver {
    fn on_isr_enter(&mut self, _e: &IsrEnter) {
        self.events += 1;
    }
    fn on_dpc_start(&mut self, _e: &DpcStart) {
        self.events += 1;
    }
    fn on_thread_resume(&mut self, _e: &ThreadResume) {
        self.events += 1;
    }
}

/// Arms `timer` to fire every millisecond from a one-shot thread.
fn arm_periodic(k: &mut Kernel, timer: TimerId) {
    k.create_thread(
        "armer",
        16,
        Box::new(OpSeq::new(vec![Step::SetTimer {
            timer,
            due: Cycles::from_ms(1.0),
            period: Some(Cycles::from_ms(1.0)),
        }])),
    );
}

/// Timer -> DPC -> `SetEvent` -> waiting thread, with two full-interest
/// observers installed, so the notify path takes and walks the observer
/// list on every ISR entry, DPC start and thread resume.
fn notify_kernel() -> (Kernel, Rc<RefCell<CountingObserver>>) {
    let mut k = Kernel::new(KernelConfig::default());
    let obs = Rc::new(RefCell::new(CountingObserver::default()));
    k.add_observer(obs.clone());
    k.add_observer(Rc::new(RefCell::new(CountingObserver::default())));
    let evt = k.create_event(false);
    let slot = k.alloc_slots(1);
    k.create_thread(
        "waiter",
        28,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(evt)),
            Step::ReadTsc(slot),
        ])),
    );
    let dpc = k.create_dpc(
        "sig",
        Box::new(OpSeq::new(vec![Step::SetEvent(evt), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    arm_periodic(&mut k, timer);
    (k, obs)
}

/// A thread re-arming a one-shot DPC timer each iteration and sleeping
/// past its due time: every cycle the clock ISR fires the timer, queues
/// its DPC and wakes the sleeper.
fn timer_expiry_kernel() -> Kernel {
    let mut k = Kernel::new(KernelConfig::default());
    let slot = k.alloc_slots(1);
    let dpc = k.create_dpc(
        "expiry-dpc",
        Box::new(OpSeq::new(vec![Step::ReadTsc(slot), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    k.create_thread(
        "timer-armer",
        28,
        Box::new(LoopSeq::new(vec![
            Step::SetTimer {
                timer,
                due: Cycles::from_ms(1.0),
                period: None,
            },
            Step::Sleep(Cycles::from_ms(1.5)),
        ])),
    );
    k
}

/// Warms `k` for 200 simulated ms, then asserts one simulated second of
/// more than `min_events` events performs no heap operation.
fn assert_alloc_free(label: &str, k: &mut Kernel, min_events: u64) {
    k.run_for(Cycles::from_ms(200.0));
    let events_before = k.sim_events;
    let ops_before = heap_ops();
    k.run_for(Cycles::from_ms(1_000.0));
    let ops = heap_ops() - ops_before;
    let events = k.sim_events - events_before;
    assert!(
        events > min_events,
        "{label}: the window must simulate real load ({events} events)"
    );
    assert_eq!(
        ops, 0,
        "{label}: steady state must not touch the heap ({ops} ops over {events} events)"
    );
}

#[test]
fn steady_state_hot_paths_are_allocation_free() {
    // The ring grows until it holds its bound of events, which the warm-up
    // reaches; from then on each event evicts the oldest in place.
    let mut k = pipeline_kernel();
    let flight = Rc::new(RefCell::new(FlightRecorder::new(1 << 10)));
    k.add_observer(flight.clone());
    assert_alloc_free("pipeline", &mut k, 10_000);
    assert!(
        k.steps_executed > k.step_dispatches,
        "the frame step loop must run service steps back to back"
    );
    let f = flight.borrow();
    assert!(f.total > 10_000, "the ring was fed: {} events", f.total);
    assert!(f.dropped > 0, "the ring reached its bound and evicted");

    let (mut k, obs) = notify_kernel();
    assert_alloc_free("notify", &mut k, 1_000);
    assert!(obs.borrow().events > 0, "observer hooks must have fired");

    let mut k = timer_expiry_kernel();
    assert_alloc_free("timer expiry", &mut k, 1_000);
    assert!(
        k.timer(TimerId(0)).fire_count > 500,
        "the timer fired each round"
    );
}

#[test]
fn ring_growth_is_amortized() {
    // An empty ring attached to a warmed kernel doubles as it fills, so
    // feeding it N events costs at most log2(N) + 2 heap operations, never
    // one per event.
    const N: u64 = 1 << 16;
    let mut k = pipeline_kernel();
    k.run_for(Cycles::from_ms(200.0));
    let flight = Rc::new(RefCell::new(FlightRecorder::new(N as usize)));
    k.add_observer(flight.clone());
    let ops_before = heap_ops();
    while flight.borrow().total < N {
        k.run_for(Cycles::from_ms(10.0));
    }
    let ops = heap_ops() - ops_before;
    let bound = N.ilog2() as u64 + 2;
    assert!(
        ops <= bound,
        "feeding {} events took {ops} heap operations (bound {bound})",
        flight.borrow().total
    );
}
