//! Observer interest-mask behavior.
//!
//! Observers declare the event kinds they consume ([`Interest`]); the
//! kernel folds the masks into a union at `add_observer` time and skips
//! event construction and observer-list traversal entirely for kinds
//! nobody wants. These tests pin the two user-visible contracts:
//!
//! 1. *Filtering*: an observer registered for one kind sees exactly that
//!    kind — never another — under a mixed ISR/DPC/thread scenario, and
//!    its presence does not perturb what a full-interest observer sees.
//! 2. *Cost*: `Kernel::notify_takes` counts only interested deliveries,
//!    so it stays at zero when no observer is interested in any emitted
//!    kind — a fully masked flight recorder included.
//! 3. *Kernel-fed recorder*: a `FlightRecorder` never sits in an observer
//!    list (a full-interest recorder alone costs zero takes), yet records
//!    exactly what the hooks deliver.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::prelude::*;

/// Counts deliveries per hook while declaring interest in a single kind.
#[derive(Default)]
struct OneKind {
    interest: Option<Interest>,
    isr: u64,
    dpc: u64,
    resume: u64,
    switch: u64,
}

impl OneKind {
    fn new(interest: Interest) -> Rc<RefCell<OneKind>> {
        Rc::new(RefCell::new(OneKind {
            interest: Some(interest),
            ..OneKind::default()
        }))
    }

    fn total(&self) -> u64 {
        self.isr + self.dpc + self.resume + self.switch
    }
}

impl Observer for OneKind {
    fn interest(&self) -> Interest {
        self.interest.unwrap_or(Interest::ALL)
    }
    fn on_isr_enter(&mut self, _e: &IsrEnter) {
        self.isr += 1;
    }
    fn on_dpc_start(&mut self, _e: &DpcStart) {
        self.dpc += 1;
    }
    fn on_thread_resume(&mut self, _e: &ThreadResume) {
        self.resume += 1;
    }
    fn on_context_switch(&mut self, _f: Option<ThreadId>, _t: ThreadId, _n: Instant) {
        self.switch += 1;
    }
}

/// Drives a scenario that emits every hooked event kind: PIT ISRs, a
/// device interrupt with a DPC and an event-woken thread (resumes +
/// switches). An IRP completion rides along; it is a kernel call with no
/// hook of its own.
fn run_mixed_scenario(k: &mut Kernel) {
    let l_isr = k.intern("DEV", "_Isr");
    let l_dpc = k.intern("DEV", "_Dpc");
    let l_work = k.intern("APP", "_Work");
    let wake = k.create_event(false);
    let dpc = k.create_dpc(
        "dpc",
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(40_001),
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
                cycles: Cycles(8_001),
                label: l_isr,
            },
            Step::QueueDpc(dpc),
            Step::Return,
        ])),
    );
    k.add_env_source(EnvSource::new(
        "arrivals",
        samplers::uniform(Cycles(200_001), Cycles(900_001)),
        EnvAction::AssertInterrupt(v),
    ));
    let irp = k.create_irp(2, None);
    let _completer = k.create_thread(
        "completer",
        24,
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(30_001),
                label: l_work,
            },
            Step::CompleteIrp(irp),
        ])),
    );
    let _worker = k.create_thread(
        "worker",
        8,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(wake)),
            Step::Busy {
                cycles: Cycles(120_001),
                label: l_work,
            },
        ])),
    );
    k.run_for(Cycles::from_ms(20.0));
}

#[test]
fn single_kind_observers_see_exactly_their_kind() {
    let mut k = Kernel::new(KernelConfig::default());
    let isr_only = OneKind::new(Interest::ISR_ENTER);
    let dpc_only = OneKind::new(Interest::DPC_START);
    let resume_only = OneKind::new(Interest::THREAD_RESUME);
    let switch_only = OneKind::new(Interest::CONTEXT_SWITCH);
    let everything = OneKind::new(Interest::ALL);
    k.add_observer(isr_only.clone());
    k.add_observer(dpc_only.clone());
    k.add_observer(resume_only.clone());
    k.add_observer(switch_only.clone());
    k.add_observer(everything.clone());

    run_mixed_scenario(&mut k);

    let all = everything.borrow();
    assert!(all.isr > 10, "PIT + device ISRs expected: {}", all.isr);
    assert!(all.dpc > 5, "device DPCs expected: {}", all.dpc);
    assert!(all.resume > 5, "event wakeups expected: {}", all.resume);
    assert!(all.switch > 5, "context switches expected: {}", all.switch);

    // Each narrow observer saw its kind at the full-interest count and
    // nothing else.
    let o = isr_only.borrow();
    assert_eq!((o.isr, o.total()), (all.isr, all.isr));
    let o = dpc_only.borrow();
    assert_eq!((o.dpc, o.total()), (all.dpc, all.dpc));
    let o = resume_only.borrow();
    assert_eq!((o.resume, o.total()), (all.resume, all.resume));
    let o = switch_only.borrow();
    assert_eq!((o.switch, o.total()), (all.switch, all.switch));
}

/// Interest masks are observation-only: registering narrow observers (or
/// none at all) must not change the simulation a full-interest observer
/// records, nor the kernel fingerprint.
#[test]
fn masks_do_not_perturb_the_simulation() {
    let run = |extra_observers: bool| -> (u64, u64, u64, u64) {
        let mut k = Kernel::new(KernelConfig::default());
        let full = OneKind::new(Interest::ALL);
        k.add_observer(full.clone());
        if extra_observers {
            k.add_observer(OneKind::new(Interest::ISR_ENTER));
            k.add_observer(OneKind::new(Interest::NONE));
        }
        run_mixed_scenario(&mut k);
        let f = full.borrow();
        (f.total(), k.sim_events, k.now().0, k.rng_fingerprint())
    };
    assert_eq!(run(false), run(true));
}

/// With only uninterested observers registered, delivery short-circuits
/// before the observer list is touched: `notify_takes` stays zero for the
/// masked-out kinds.
#[test]
fn uninterested_kinds_never_take_the_observer_list() {
    // No observers at all: nothing is ever taken.
    let mut k = Kernel::new(KernelConfig::default());
    run_mixed_scenario(&mut k);
    assert_eq!(k.notify_takes, 0, "no observers, no list traffic");

    // An ISR-only observer: every take is an ISR delivery; the (far more
    // frequent) context switches and the DPC/resume deliveries never
    // touch the list.
    let mut k = Kernel::new(KernelConfig::default());
    let isr_only = OneKind::new(Interest::ISR_ENTER);
    k.add_observer(isr_only.clone());
    run_mixed_scenario(&mut k);
    let seen = isr_only.borrow().isr;
    assert!(seen > 10, "scenario must emit ISRs: {seen}");
    assert_eq!(
        k.notify_takes, seen,
        "every list take must be an interested delivery"
    );

    // A DPC-only observer: every take is a DPC delivery, and a
    // full-interest observer takes the list far more often.
    let mut k = Kernel::new(KernelConfig::default());
    let dpc_only = OneKind::new(Interest::DPC_START);
    k.add_observer(dpc_only.clone());
    run_mixed_scenario(&mut k);
    let dpcs = dpc_only.borrow().dpc;
    assert!(dpcs > 5, "scenario must emit DPCs: {dpcs}");
    assert_eq!(
        k.notify_takes, dpcs,
        "masked-out kinds took the observer list"
    );
    let mut full = Kernel::new(KernelConfig::default());
    full.add_observer(OneKind::new(Interest::ALL));
    run_mixed_scenario(&mut full);
    assert!(
        full.notify_takes > 3 * dpcs,
        "full interest must take the list more often ({} vs {dpcs})",
        full.notify_takes
    );

    // Interest::NONE only: emitted events of every kind, zero takes.
    let mut k = Kernel::new(KernelConfig::default());
    k.add_observer(OneKind::new(Interest::NONE));
    run_mixed_scenario(&mut k);
    assert_eq!(k.notify_takes, 0, "a NONE observer costs nothing per event");

    // A flight recorder attached with an empty mask costs nothing either.
    let mut k = Kernel::new(KernelConfig::default());
    k.add_observer(Rc::new(RefCell::new(FlightRecorder::with_interest(
        1024,
        Interest::NONE,
    ))));
    run_mixed_scenario(&mut k);
    assert_eq!(
        k.notify_takes, 0,
        "a fully masked recorder costs nothing per event"
    );
}

/// Rebuilds, from the hooks, the `FlightEvent` sequence a recorder keeps.
#[derive(Default)]
struct HookTrace {
    events: Vec<FlightEvent>,
}

impl Observer for HookTrace {
    fn interest(&self) -> Interest {
        Interest::ISR_ENTER
            | Interest::DPC_START
            | Interest::THREAD_RESUME
            | Interest::CONTEXT_SWITCH
            | Interest::CALENDAR_POP
            | Interest::QUANTUM_EXPIRY
    }
    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.events.push(FlightEvent::Isr {
            vector: e.vector.0,
            asserted: e.asserted,
            started: e.started,
        });
    }
    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.events.push(FlightEvent::Dpc {
            dpc: e.dpc.0,
            queued: e.queued,
            started: e.started,
        });
    }
    fn on_thread_resume(&mut self, e: &ThreadResume) {
        self.events.push(FlightEvent::Resume {
            thread: e.thread,
            priority: e.priority,
            readied: e.readied,
            started: e.started,
        });
    }
    fn on_context_switch(&mut self, from: Option<ThreadId>, to: ThreadId, at: Instant) {
        self.events.push(FlightEvent::Switch { from, to, at });
    }
    fn on_calendar_pop(&mut self, e: &CalendarPop) {
        self.events.push(FlightEvent::Pop {
            kind: e.kind,
            index: e.index,
            at: e.at,
        });
    }
    fn on_quantum_expiry(&mut self, e: &QuantumExpiry) {
        self.events.push(FlightEvent::Quantum {
            thread: e.thread,
            priority: e.priority,
            descheduled: e.descheduled,
            at: e.at,
        });
    }
}

/// Two equal-priority hogs round-robin on quantum expiry.
fn run_round_robin(k: &mut Kernel) {
    let l = k.intern("APP", "_Spin");
    for name in ["spin-a", "spin-b"] {
        k.create_thread(
            name,
            8,
            Box::new(LoopSeq::new(vec![Step::Busy {
                cycles: Cycles(100_001),
                label: l,
            }])),
        );
    }
    k.run_for(Cycles::from_ms(200.0));
}

/// Runs `scenario` with a full-interest recorder alone, then beside a hook
/// observer; returns what the hooks saw after checking both rings hold
/// exactly that and only the hook observer walked a list.
fn assert_recorder_matches_hooks(scenario: fn(&mut Kernel)) -> Vec<FlightEvent> {
    let mut k = Kernel::new(KernelConfig::default());
    let alone = Rc::new(RefCell::new(FlightRecorder::with_interest(
        1 << 16,
        Interest::ALL,
    )));
    k.add_observer(alone.clone());
    scenario(&mut k);
    assert_eq!(k.notify_takes, 0, "the recorder is fed without a list");

    let mut k = Kernel::new(KernelConfig::default());
    let hooks = Rc::new(RefCell::new(HookTrace::default()));
    let rec = Rc::new(RefCell::new(FlightRecorder::with_interest(
        1 << 16,
        Interest::ALL,
    )));
    k.add_observer(rec.clone());
    k.add_observer(hooks.clone());
    scenario(&mut k);
    let seen = hooks.borrow().events.clone();
    assert_eq!(rec.borrow().dropped, 0, "the ring held the whole run");
    assert_eq!(rec.borrow().events().collect::<Vec<_>>(), seen);
    assert_eq!(alone.borrow().events().collect::<Vec<_>>(), seen);
    assert_eq!(k.notify_takes, seen.len() as u64, "only the hooks take");
    seen
}

#[test]
fn kernel_fed_recorder_takes_no_list_and_records_what_the_hooks_see() {
    let mixed = assert_recorder_matches_hooks(run_mixed_scenario);
    let round_robin = assert_recorder_matches_hooks(run_round_robin);
    let seen = |f: fn(&FlightEvent) -> bool| mixed.iter().chain(&round_robin).any(f);
    assert!(seen(|e| matches!(e, FlightEvent::Isr { .. })));
    assert!(seen(|e| matches!(e, FlightEvent::Dpc { .. })));
    assert!(seen(|e| matches!(e, FlightEvent::Resume { .. })));
    assert!(seen(|e| matches!(e, FlightEvent::Switch { .. })));
    assert!(seen(|e| matches!(e, FlightEvent::Pop { .. })));
    assert!(seen(|e| matches!(
        e,
        FlightEvent::Quantum {
            descheduled: true,
            ..
        }
    )));
}
