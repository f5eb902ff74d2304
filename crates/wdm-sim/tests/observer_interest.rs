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
//!    kind.
//! 3. *Kernel-fed recorder*: the one `FlightRecorder` a kernel may hold
//!    never sits in an observer list (a recorder alone costs zero takes),
//!    yet its ring stores exactly the values the hooks receive, next to
//!    the kinds only the ring records.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::prelude::*;

/// Counts deliveries per hook while declaring interest in a single kind.
#[derive(Default)]
struct OneKind {
    interest: Option<Interest>,
    isr: u64,
    dpc: u64,
    resume: u64,
}

impl OneKind {
    fn new(interest: Interest) -> Rc<RefCell<OneKind>> {
        Rc::new(RefCell::new(OneKind {
            interest: Some(interest),
            ..OneKind::default()
        }))
    }

    fn total(&self) -> u64 {
        self.isr + self.dpc + self.resume
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
}

/// Drives a scenario that emits every hooked event kind: PIT ISRs, a
/// device interrupt with a DPC and an event-woken thread (resumes, with
/// context switches for the ring). An IRP completion rides along; it is a
/// kernel call with no hook of its own.
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
    let everything = OneKind::new(Interest::ALL);
    k.add_observer(isr_only.clone());
    k.add_observer(dpc_only.clone());
    k.add_observer(resume_only.clone());
    k.add_observer(everything.clone());

    run_mixed_scenario(&mut k);

    let all = everything.borrow();
    assert!(all.isr > 10, "PIT + device ISRs expected: {}", all.isr);
    assert!(all.dpc > 5, "device DPCs expected: {}", all.dpc);
    assert!(all.resume > 5, "event wakeups expected: {}", all.resume);

    // Each narrow observer saw its kind at the full-interest count and
    // nothing else.
    let o = isr_only.borrow();
    assert_eq!((o.isr, o.total()), (all.isr, all.isr));
    let o = dpc_only.borrow();
    assert_eq!((o.dpc, o.total()), (all.dpc, all.dpc));
    let o = resume_only.borrow();
    assert_eq!((o.resume, o.total()), (all.resume, all.resume));
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

    // An ISR-only observer: every take is an ISR delivery; the DPC and
    // resume deliveries never touch the list.
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
}

/// Keeps, as flight events, every value the hooks receive.
#[derive(Default)]
struct HookTrace {
    events: Vec<FlightEvent>,
}

impl Observer for HookTrace {
    fn interest(&self) -> Interest {
        Interest::ISR_ENTER | Interest::DPC_START | Interest::THREAD_RESUME
    }
    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.events.push(FlightEvent::Isr(*e));
    }
    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.events.push(FlightEvent::Dpc(*e));
    }
    fn on_thread_resume(&mut self, e: &ThreadResume) {
        self.events.push(FlightEvent::Resume(*e));
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

/// Runs `scenario` with a recorder alone, then beside a hook observer.
/// Checks that both rings are equal, that the ring's ISR/DPC/resume
/// subsequence is exactly the values the hooks received (interrupted
/// labels included), and that `notify_takes` counts one take per hook
/// delivery. Returns the ring.
fn assert_recorder_matches_hooks(scenario: fn(&mut Kernel)) -> Vec<FlightEvent> {
    let mut k = Kernel::new(KernelConfig::default());
    let alone = Rc::new(RefCell::new(FlightRecorder::new(1 << 16)));
    k.add_observer(alone.clone());
    scenario(&mut k);
    assert_eq!(k.notify_takes, 0, "the recorder is fed without a list");

    let mut k = Kernel::new(KernelConfig::default());
    let hooks = Rc::new(RefCell::new(HookTrace::default()));
    let rec = Rc::new(RefCell::new(FlightRecorder::new(1 << 16)));
    k.add_observer(rec.clone());
    k.add_observer(hooks.clone());
    scenario(&mut k);
    assert_eq!(rec.borrow().dropped, 0, "the ring held the whole run");
    let ring: Vec<FlightEvent> = rec.borrow().events().collect();
    assert_eq!(alone.borrow().events().collect::<Vec<_>>(), ring);
    let shared: Vec<FlightEvent> = ring
        .iter()
        .copied()
        .filter(|e| {
            matches!(
                e,
                FlightEvent::Isr(_) | FlightEvent::Dpc(_) | FlightEvent::Resume(_)
            )
        })
        .collect();
    let seen = &hooks.borrow().events;
    assert_eq!(&shared, seen, "the ring stores exactly what the hooks saw");
    assert_eq!(k.notify_takes, seen.len() as u64, "one take per delivery");
    ring
}

#[test]
fn kernel_fed_recorder_takes_no_list_and_records_what_the_hooks_see() {
    let mixed = assert_recorder_matches_hooks(run_mixed_scenario);
    let round_robin = assert_recorder_matches_hooks(run_round_robin);
    let seen = |f: fn(&FlightEvent) -> bool| mixed.iter().chain(&round_robin).any(f);
    assert!(seen(
        |e| matches!(e, FlightEvent::Isr(i) if i.interrupted_label != Label::IDLE)
    ));
    assert!(seen(|e| matches!(e, FlightEvent::Dpc(_))));
    assert!(seen(|e| matches!(e, FlightEvent::Resume(_))));
    // The kinds only the ring records.
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

#[test]
#[should_panic(expected = "one flight recorder per kernel")]
fn a_second_flight_recorder_is_rejected() {
    let mut k = Kernel::new(KernelConfig::default());
    k.add_observer(Rc::new(RefCell::new(FlightRecorder::new(64))));
    k.add_observer(Rc::new(RefCell::new(FlightRecorder::new(64))));
}
