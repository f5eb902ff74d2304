//! Edge-case behavioral tests: nested interrupts, cli inside ISRs,
//! multi-waiter wakes, timer cancellation, sections vs raised IRQL, and
//! IRP reissue.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::prelude::*;

#[derive(Default)]
struct Rec {
    isrs: Vec<IsrEnter>,
    dpcs: Vec<DpcStart>,
}
impl Observer for Rec {
    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.isrs.push(*e);
    }
    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.dpcs.push(*e);
    }
}

#[test]
fn higher_irql_interrupt_nests_into_lower_isr() {
    let mut k = Kernel::new(KernelConfig::default());
    let rec = Rc::new(RefCell::new(Rec::default()));
    k.add_observer(rec.clone());
    let slow_l = k.intern("SLOW", "_Isr");
    // A slow low-IRQL ISR (3 ms at DIRQL 5).
    let slow = k.install_vector(
        "slow",
        Irql(5),
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles::from_ms(3.0),
                label: slow_l,
            },
            Step::Return,
        ])),
    );
    // A fast high-IRQL ISR (DIRQL 20).
    let fast_l = k.intern("FAST", "_Isr");
    let fast = k.install_vector(
        "fast",
        Irql(20),
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles::from_us(10.0),
                label: fast_l,
            },
            Step::Return,
        ])),
    );
    // Assert slow at ~0, fast at 0.7 ms (mid slow-ISR, away from the PIT
    // tick so the sample is unambiguous).
    k.assert_interrupt(slow);
    k.add_env_source(EnvSource::new(
        "fast-at-0.7ms",
        samplers::fixed(Cycles::from_ms(0.7)),
        EnvAction::AssertInterrupt(fast),
    ));
    k.run_for(Cycles::from_ms(2.0));
    let rec = rec.borrow();
    let fast_enter = rec.isrs.iter().find(|e| e.vector == fast).expect("fast ran");
    // The fast ISR ran promptly, nested inside the slow one.
    let lat = (fast_enter.started - fast_enter.asserted).as_ms();
    assert!(lat < 0.1, "high-IRQL ISR must nest: {lat} ms");
    // And it interrupted the slow ISR's code.
    assert_eq!(fast_enter.interrupted_label, slow_l);
}

#[test]
fn busycli_inside_isr_blocks_even_the_pit() {
    let mut k = Kernel::new(KernelConfig::default());
    let rec = Rc::new(RefCell::new(Rec::default()));
    k.add_observer(rec.clone());
    let l = k.intern("DRV", "_IsrWithCli");
    let v = k.install_vector(
        "dev",
        Irql(5),
        Box::new(OpSeq::new(vec![
            Step::BusyCli {
                cycles: Cycles::from_ms(2.5),
                label: l,
            },
            Step::Return,
        ])),
    );
    // Fire just before a PIT tick so the tick waits out the cli window.
    k.add_env_source(EnvSource::new(
        "dev-fire",
        samplers::fixed(Cycles::from_ms(0.9)),
        EnvAction::AssertInterrupt(v),
    ));
    k.run_for(Cycles::from_ms(4.0));
    let rec = rec.borrow();
    let pit = k.pit_vector();
    let max_pit = rec
        .isrs
        .iter()
        .filter(|e| e.vector == pit)
        .map(|e| (e.started - e.asserted).as_ms())
        .fold(0.0f64, f64::max);
    assert!(
        max_pit > 1.0,
        "cli inside a DIRQL-5 ISR must delay the CLOCK-level PIT: {max_pit} ms"
    );
}

#[test]
fn notification_event_wakes_all_waiters() {
    let mut k = Kernel::new(KernelConfig::default());
    let evt = k.create_event(EventKind::Notification, false);
    let slots = k.alloc_slots(3);
    for i in 0..3 {
        let s = Slot(slots.0 + i);
        k.create_thread(
            &format!("w{i}"),
            20,
            Box::new(OpSeq::new(vec![
                Step::Wait(WaitObject::Event(evt)),
                Step::ReadTsc(s),
                Step::Exit,
            ])),
        );
    }
    let dpc = k.create_dpc(
        "sig",
        DpcImportance::Medium,
        Box::new(OpSeq::new(vec![Step::SetEvent(evt), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    let _armer = k.create_thread(
        "armer",
        16,
        Box::new(OpSeq::new(vec![Step::SetTimer {
            timer,
            due: Cycles::from_ms(2.0),
            period: None,
        }])),
    );
    k.run_for(Cycles::from_ms(10.0));
    for i in 0..3 {
        assert!(
            k.slot(Slot(slots.0 + i)) > 0,
            "waiter {i} must wake from the notification event"
        );
    }
}

#[test]
fn semaphore_release_count_wakes_that_many() {
    let mut k = Kernel::new(KernelConfig::default());
    let sem = k.create_semaphore(0, 16);
    let slots = k.alloc_slots(3);
    for i in 0..3 {
        let s = Slot(slots.0 + i);
        k.create_thread(
            &format!("w{i}"),
            20,
            Box::new(OpSeq::new(vec![
                Step::Wait(WaitObject::Semaphore(sem)),
                Step::ReadTsc(s),
                Step::Exit,
            ])),
        );
    }
    // Release 2 of 3 from a one-shot thread.
    let _rel = k.create_thread(
        "rel",
        24,
        Box::new(OpSeq::new(vec![
            Step::Sleep(Cycles::from_ms(2.0)),
            Step::ReleaseSemaphore(sem, 2),
            Step::Exit,
        ])),
    );
    k.run_for(Cycles::from_ms(10.0));
    let woken = (0..3).filter(|&i| k.slot(Slot(slots.0 + i)) > 0).count();
    assert_eq!(woken, 2, "exactly the released count wakes");
}

#[test]
fn cancelled_timer_stops_firing() {
    let mut k = Kernel::new(KernelConfig::default());
    let rec = Rc::new(RefCell::new(Rec::default()));
    k.add_observer(rec.clone());
    let slot = k.alloc_slots(1);
    let dpc = k.create_dpc(
        "tick",
        DpcImportance::Medium,
        Box::new(OpSeq::new(vec![Step::ReadTsc(slot), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    let _ctl = k.create_thread(
        "ctl",
        24,
        Box::new(OpSeq::new(vec![
            Step::SetTimer {
                timer,
                due: Cycles::from_ms(1.0),
                period: Some(Cycles::from_ms(1.0)),
            },
            Step::Sleep(Cycles::from_ms(5.5)),
            Step::CancelTimer(timer),
            Step::Exit,
        ])),
    );
    k.run_for(Cycles::from_ms(20.0));
    let fired = k.timer(timer).fire_count;
    assert!(
        (4..=6).contains(&fired),
        "timer must stop after cancel at 5.5 ms: fired {fired}"
    );
    assert_eq!(rec.borrow().dpcs.len() as u64, fired);
}

#[test]
fn section_waits_for_raised_irql_thread() {
    let mut k = Kernel::new(KernelConfig::default());
    let work = k.intern("DRV", "_AtDispatch");
    let vmm = k.intern("VMM", "_Section");
    // The thread raises to DISPATCH for 4 ms starting immediately.
    let _t = k.create_thread(
        "raiser",
        24,
        Box::new(OpSeq::new(vec![
            Step::RaiseIrql(Irql::DISPATCH),
            Step::Busy {
                cycles: Cycles::from_ms(4.0),
                label: work,
            },
            Step::LowerIrql,
            Step::Busy {
                cycles: Cycles::from_ms(10.0),
                label: work,
            },
            Step::Exit,
        ])),
    );
    // A section arrives at 1 ms; it must not start until IRQL drops.
    k.add_env_source(EnvSource::new(
        "section",
        samplers::fixed(Cycles::from_ms(1.0)),
        EnvAction::Section {
            duration: samplers::fixed(Cycles::from_ms(1.0)),
            label: vmm,
        },
    ));
    k.run_for(Cycles::from_ms(3.0));
    assert_eq!(
        k.account.section, 0,
        "sections must not run while a thread holds DISPATCH"
    );
    k.run_for(Cycles::from_ms(5.0));
    assert!(
        k.account.section > 0,
        "sections run once the thread drops to PASSIVE"
    );
}

#[test]
fn irp_reissue_supports_repeated_rounds() {
    let mut k = Kernel::new(KernelConfig::default());
    let irp = k.create_irp(2, None);
    let asb0 = k.irp(irp).asb_slot(0);
    let _t = k.create_thread(
        "completer",
        24,
        Box::new(LoopSeq::new(vec![
            Step::Sleep(Cycles::from_ms(2.0)),
            Step::ReadTsc(asb0),
            Step::CompleteIrp(irp),
        ])),
    );
    k.run_for(Cycles::from_ms(5.0));
    let first = k.irp(irp).completion_count;
    assert!(first >= 1);
    k.reissue_irp(irp);
    assert!(k.irp(irp).is_pending());
    k.run_for(Cycles::from_ms(5.0));
    assert!(k.irp(irp).completion_count > first);
}
