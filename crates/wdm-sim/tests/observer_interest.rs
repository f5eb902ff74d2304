//! Observer subscription behavior.
//!
//! Observers declare the kinds they consume and, per kind, the objects
//! (vectors, DPCs, threads) they read ([`Subscription`]); the kernel folds
//! the kinds into a union at `add_observer` time, skips event construction
//! entirely for kinds nobody wants, and hands every other event only to
//! the observers subscribed to its object. These tests pin the
//! user-visible contracts:
//!
//! 1. *Filtering*: an observer registered for one kind sees exactly that
//!    kind — never another — under a mixed ISR/DPC/thread scenario, and
//!    its presence does not perturb what a full-interest observer sees.
//! 2. *Routing*: an observer subscribed to one vector, DPC or thread
//!    receives exactly that object's events, in emit order; `All` covers
//!    objects created after attach; observers with disjoint object sets
//!    each get only their own objects' events.
//! 3. *Cost*: `Kernel::notify_takes` counts exactly the routed events, so
//!    it stays at zero when no observer is subscribed to an emitted one.
//! 4. *Kernel-fed recorder*: the one `FlightRecorder` a kernel may hold
//!    never sits on a route (a recorder alone costs zero takes), yet its
//!    ring stores exactly the values the hooks receive, next to the kinds
//!    only the ring records.
//! 5. *Route masks*: a route is one bit per observer, so a kernel takes at
//!    most 64 observers besides its recorder, which takes no bit, and an
//!    id listed twice still delivers once per event.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::prelude::*;

/// Keeps, as flight events in delivery order, every value the hooks
/// receive under its subscription.
struct HookTrace {
    subscription: Subscription,
    events: Vec<FlightEvent>,
}

impl HookTrace {
    fn new(subscription: Subscription) -> Rc<RefCell<HookTrace>> {
        Rc::new(RefCell::new(HookTrace {
            subscription,
            events: Vec::new(),
        }))
    }

    /// Deliveries of `kind`.
    fn count(&self, kind: Interest) -> u64 {
        self.events
            .iter()
            .filter(|e| object_of(e).0 == kind)
            .count() as u64
    }
}

impl Observer for HookTrace {
    fn subscription(&self) -> Subscription {
        self.subscription.clone()
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

/// Every object of the three hooked kinds that have an event value.
fn hooks() -> Subscription {
    Subscription {
        resume_blame: Objects::None,
        ..Subscription::ALL
    }
}

/// Every object of one kind.
fn one_kind(kind: Interest) -> Subscription {
    let mut s = Subscription::NONE;
    match kind {
        Interest::ISR_ENTER => s.isr_enter = Objects::All,
        Interest::DPC_START => s.dpc_start = Objects::All,
        Interest::THREAD_RESUME => s.thread_resume = Objects::All,
        _ => {}
    }
    s
}

/// A hooked event's kind and object id.
fn object_of(e: &FlightEvent) -> (Interest, usize) {
    match e {
        FlightEvent::Isr(e) => (Interest::ISR_ENTER, e.vector.0),
        FlightEvent::Dpc(e) => (Interest::DPC_START, e.dpc.0),
        FlightEvent::Resume(e) => (Interest::THREAD_RESUME, e.thread.0),
        _ => unreachable!("only hooked kinds reach an observer"),
    }
}

/// The objects of the mixed scenario, created by [`build_mixed_scenario`].
struct Mixed {
    vector: VectorId,
    dpc: DpcId,
    completer: ThreadId,
    worker: ThreadId,
}

/// Creates a scenario that emits every hooked event kind: PIT ISRs, a
/// device interrupt with a DPC and an event-woken thread (resumes, with
/// context switches for the ring). An IRP completion rides along; it is a
/// kernel call with no hook of its own.
fn build_mixed_scenario(k: &mut Kernel) -> Mixed {
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
    let vector = k.install_vector(
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
        EnvAction::AssertInterrupt(vector),
    ));
    let irp = k.create_irp(2, None);
    let completer = k.create_thread(
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
    let worker = k.create_thread(
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
    Mixed {
        vector,
        dpc,
        completer,
        worker,
    }
}

/// How long the mixed scenario runs.
fn run_mixed(k: &mut Kernel) {
    k.run_for(Cycles::from_ms(20.0));
}

/// [`build_mixed_scenario`], then [`run_mixed`].
fn run_mixed_scenario(k: &mut Kernel) {
    build_mixed_scenario(k);
    run_mixed(k);
}

#[test]
fn single_kind_observers_see_exactly_their_kind() {
    let mut k = Kernel::new(KernelConfig::default());
    let isr_only = HookTrace::new(one_kind(Interest::ISR_ENTER));
    let dpc_only = HookTrace::new(one_kind(Interest::DPC_START));
    let resume_only = HookTrace::new(one_kind(Interest::THREAD_RESUME));
    let everything = HookTrace::new(Subscription::ALL);
    k.add_observer(isr_only.clone());
    k.add_observer(dpc_only.clone());
    k.add_observer(resume_only.clone());
    k.add_observer(everything.clone());

    run_mixed_scenario(&mut k);

    let all = everything.borrow();
    let (isr, dpc, resume) = (
        all.count(Interest::ISR_ENTER),
        all.count(Interest::DPC_START),
        all.count(Interest::THREAD_RESUME),
    );
    assert!(isr > 10, "PIT + device ISRs expected: {isr}");
    assert!(dpc > 5, "device DPCs expected: {dpc}");
    assert!(resume > 5, "event wakeups expected: {resume}");

    // Each narrow observer saw its kind at the full-interest count and
    // nothing else.
    let o = isr_only.borrow();
    assert_eq!(
        (o.count(Interest::ISR_ENTER), o.events.len()),
        (isr, isr as usize)
    );
    let o = dpc_only.borrow();
    assert_eq!(
        (o.count(Interest::DPC_START), o.events.len()),
        (dpc, dpc as usize)
    );
    let o = resume_only.borrow();
    assert_eq!(
        (o.count(Interest::THREAD_RESUME), o.events.len()),
        (resume, resume as usize)
    );
}

/// Subscriptions are observation-only: registering narrow observers (or
/// none at all) must not change the simulation a full-interest observer
/// records, nor the kernel fingerprint.
#[test]
fn masks_do_not_perturb_the_simulation() {
    let run = |extra_observers: bool| -> (Vec<FlightEvent>, u64, u64, u64) {
        let mut k = Kernel::new(KernelConfig::default());
        let full = HookTrace::new(Subscription::ALL);
        k.add_observer(full.clone());
        if extra_observers {
            k.add_observer(HookTrace::new(one_kind(Interest::ISR_ENTER)));
            k.add_observer(HookTrace::new(Subscription::NONE));
        }
        let m = build_mixed_scenario(&mut k);
        if extra_observers {
            k.add_observer(HookTrace::new(Subscription {
                dpc_start: Objects::Only(vec![m.dpc]),
                thread_resume: Objects::Only(vec![m.worker]),
                ..Subscription::NONE
            }));
        }
        run_mixed(&mut k);
        let events = full.borrow().events.clone();
        (events, k.sim_events, k.now().0, k.rng_fingerprint())
    };
    assert_eq!(run(false), run(true));
}

/// With only uninterested observers registered, delivery short-circuits
/// before any route is walked: `notify_takes` stays zero for the
/// masked-out kinds.
#[test]
fn uninterested_kinds_never_take_the_observer_list() {
    // No observers at all: nothing is ever taken.
    let mut k = Kernel::new(KernelConfig::default());
    run_mixed_scenario(&mut k);
    assert_eq!(k.notify_takes, 0, "no observers, no route traffic");

    // An ISR-only observer: every take is an ISR delivery; the DPC and
    // resume deliveries never walk a route.
    let mut k = Kernel::new(KernelConfig::default());
    let isr_only = HookTrace::new(one_kind(Interest::ISR_ENTER));
    k.add_observer(isr_only.clone());
    run_mixed_scenario(&mut k);
    let seen = isr_only.borrow().count(Interest::ISR_ENTER);
    assert!(seen > 10, "scenario must emit ISRs: {seen}");
    assert_eq!(
        k.notify_takes, seen,
        "every route walk must be an interested delivery"
    );

    // A DPC-only observer: every take is a DPC delivery, and a
    // full-interest observer takes a route far more often.
    let mut k = Kernel::new(KernelConfig::default());
    let dpc_only = HookTrace::new(one_kind(Interest::DPC_START));
    k.add_observer(dpc_only.clone());
    run_mixed_scenario(&mut k);
    let dpcs = dpc_only.borrow().count(Interest::DPC_START);
    assert!(dpcs > 5, "scenario must emit DPCs: {dpcs}");
    assert_eq!(k.notify_takes, dpcs, "masked-out kinds walked a route");
    let mut full = Kernel::new(KernelConfig::default());
    full.add_observer(HookTrace::new(Subscription::ALL));
    run_mixed_scenario(&mut full);
    assert!(
        full.notify_takes > 3 * dpcs,
        "full interest must take a route more often ({} vs {dpcs})",
        full.notify_takes
    );

    // Subscription::NONE only: emitted events of every kind, zero takes.
    let mut k = Kernel::new(KernelConfig::default());
    k.add_observer(HookTrace::new(Subscription::NONE));
    run_mixed_scenario(&mut k);
    assert_eq!(k.notify_takes, 0, "a NONE observer costs nothing per event");
}

/// One observer per object — the PIT vector, the device vector, the DPC
/// and the woken thread — each receives exactly that object's events, in
/// the order a full-interest observer attached before any object existed
/// received them; that observer also saw the objects created after it.
/// Every routed event is one take, however many observers share it.
#[test]
fn object_routes_deliver_exactly_the_named_objects_in_emit_order() {
    let mut k = Kernel::new(KernelConfig::default());
    let everything = HookTrace::new(hooks());
    k.add_observer(everything.clone());
    let m = build_mixed_scenario(&mut k);
    let pit = k.pit_vector();
    let routed = [
        (Interest::ISR_ENTER, pit.0),
        (Interest::ISR_ENTER, m.vector.0),
        (Interest::DPC_START, m.dpc.0),
        (Interest::THREAD_RESUME, m.worker.0),
        (Interest::THREAD_RESUME, m.completer.0),
    ];
    let logs: Vec<_> = routed
        .iter()
        .map(|&(kind, id)| {
            let mut s = Subscription::NONE;
            match kind {
                Interest::ISR_ENTER => s.isr_enter = Objects::Only(vec![VectorId(id)]),
                Interest::DPC_START => s.dpc_start = Objects::Only(vec![DpcId(id)]),
                _ => s.thread_resume = Objects::Only(vec![ThreadId(id)]),
            }
            let log = HookTrace::new(s);
            k.add_observer(log.clone());
            log
        })
        .collect();
    run_mixed(&mut k);

    let all = everything.borrow().events.clone();
    for (&object, log) in routed.iter().zip(&logs) {
        let want: Vec<FlightEvent> = all
            .iter()
            .copied()
            .filter(|e| object_of(e) == object)
            .collect();
        assert_eq!(log.borrow().events, want, "route of {object:?}");
    }
    // Objects created after `everything` attached reached it; the
    // completer never waits, so it never resumes.
    for &object in &routed[..4] {
        assert!(
            all.iter().any(|e| object_of(e) == object),
            "{object:?} emitted"
        );
    }
    assert!(logs[4].borrow().events.is_empty());
    assert_eq!(
        k.notify_takes,
        all.len() as u64,
        "one take per routed event"
    );
}

/// Two observers with disjoint object sets each get only their own
/// objects' events, and the takes add up: every event routes to at most
/// one of them.
#[test]
fn disjoint_subscriptions_split_the_events() {
    let mut reference = Kernel::new(KernelConfig::default());
    let everything = HookTrace::new(hooks());
    reference.add_observer(everything.clone());
    run_mixed_scenario(&mut reference);
    let all = everything.borrow().events.clone();

    let mut k = Kernel::new(KernelConfig::default());
    let m = build_mixed_scenario(&mut k);
    let a = HookTrace::new(Subscription {
        isr_enter: Objects::Only(vec![k.pit_vector()]),
        thread_resume: Objects::Only(vec![m.worker]),
        ..Subscription::NONE
    });
    let b = HookTrace::new(Subscription {
        isr_enter: Objects::Only(vec![m.vector]),
        dpc_start: Objects::Only(vec![m.dpc]),
        thread_resume: Objects::Only(vec![m.completer]),
        ..Subscription::NONE
    });
    k.add_observer(a.clone());
    k.add_observer(b.clone());
    run_mixed(&mut k);

    let a_objects = [
        (Interest::ISR_ENTER, k.pit_vector().0),
        (Interest::THREAD_RESUME, m.worker.0),
    ];
    let part = |mine: bool| -> Vec<FlightEvent> {
        all.iter()
            .copied()
            .filter(|e| a_objects.contains(&object_of(e)) == mine)
            .collect()
    };
    let (a, b) = (a.borrow(), b.borrow());
    assert_eq!(a.events, part(true));
    assert_eq!(b.events, part(false));
    assert!(!a.events.is_empty() && !b.events.is_empty());
    assert_eq!(k.notify_takes, (a.events.len() + b.events.len()) as u64);
}

#[test]
#[should_panic(expected = "subscription names dpc 1 but the kernel has 1 dpcs")]
fn subscribing_to_a_missing_object_panics_at_attach() {
    let mut k = Kernel::new(KernelConfig::default());
    let m = build_mixed_scenario(&mut k);
    k.add_observer(HookTrace::new(Subscription {
        dpc_start: Objects::Only(vec![m.dpc, DpcId(m.dpc.0 + 1)]),
        ..Subscription::NONE
    }));
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
    assert_eq!(k.notify_takes, 0, "the recorder is fed without a route");

    let mut k = Kernel::new(KernelConfig::default());
    let hooks = HookTrace::new(hooks());
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

#[test]
#[should_panic(expected = "a kernel routes at most 64 observers besides its flight recorder")]
fn a_65th_observer_is_rejected() {
    let mut k = Kernel::new(KernelConfig::default());
    for _ in 0..65 {
        k.add_observer(HookTrace::new(Subscription::NONE));
    }
}

/// An id listed twice sets its route bit twice: the observer still gets
/// each of the object's events once, and each event is one take.
#[test]
fn an_id_listed_twice_delivers_once_per_event() {
    let mut k = Kernel::new(KernelConfig::default());
    let everything = HookTrace::new(hooks());
    k.add_observer(everything.clone());
    let m = build_mixed_scenario(&mut k);
    let pit = k.pit_vector();
    let twice = HookTrace::new(Subscription {
        isr_enter: Objects::Only(vec![m.vector, pit, m.vector, pit]),
        dpc_start: Objects::Only(vec![m.dpc, m.dpc]),
        thread_resume: Objects::Only(vec![m.worker, m.completer, m.worker]),
        ..Subscription::NONE
    });
    k.add_observer(twice.clone());
    run_mixed(&mut k);
    let all = everything.borrow().events.clone();
    assert!(all.len() > 20, "the scenario emits: {}", all.len());
    assert_eq!(twice.borrow().events, all);
    assert_eq!(k.notify_takes, all.len() as u64, "one take per event");
}

/// A recorder attached first or last leaves all 64 route bits to the
/// other observers, and the observer on the last bit gets its events.
#[test]
fn an_attached_flight_recorder_takes_no_route_bit() {
    let ring = || Rc::new(RefCell::new(FlightRecorder::new(1 << 16)));
    let mut k = Kernel::new(KernelConfig::default());
    let rec = ring();
    k.add_observer(rec.clone());
    for _ in 0..63 {
        k.add_observer(HookTrace::new(Subscription::NONE));
    }
    let last = HookTrace::new(hooks());
    k.add_observer(last.clone());
    run_mixed_scenario(&mut k);
    let seen = &last.borrow().events;
    assert!(!seen.is_empty(), "the 64th bit delivers");
    assert_eq!(k.notify_takes, seen.len() as u64);
    let shared: Vec<FlightEvent> = rec
        .borrow()
        .events()
        .filter(|e| {
            matches!(
                e,
                FlightEvent::Isr(_) | FlightEvent::Dpc(_) | FlightEvent::Resume(_)
            )
        })
        .collect();
    assert_eq!(&shared, seen, "the ring records beside the last bit");

    let mut k = Kernel::new(KernelConfig::default());
    for _ in 0..64 {
        k.add_observer(HookTrace::new(Subscription::NONE));
    }
    k.add_observer(ring());
}
