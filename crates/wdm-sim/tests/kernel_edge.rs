//! Edge-case behavioral tests: nested interrupts and counted semaphore
//! wakes.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::prelude::*;

#[derive(Default)]
struct Rec {
    isrs: Vec<IsrEnter>,
}
impl Observer for Rec {
    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.isrs.push(*e);
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
    let fast_enter = rec
        .isrs
        .iter()
        .find(|e| e.vector == fast)
        .expect("fast ran");
    // The fast ISR ran promptly, nested inside the slow one.
    let lat = (fast_enter.started - fast_enter.asserted).as_ms();
    assert!(lat < 0.1, "high-IRQL ISR must nest: {lat} ms");
    // And it interrupted the slow ISR's code.
    assert_eq!(fast_enter.interrupted_label, slow_l);
}

#[test]
fn semaphore_release_count_wakes_that_many() {
    let mut k = Kernel::new(KernelConfig::default());
    let sem = k.create_semaphore(0, 16);
    let slots = k.alloc_slots(3);
    for i in 0..3 {
        let s = Slot(slots.0 + i);
        k.create_thread(
            format!("w{i}"),
            20,
            Box::new(OpSeq::new(vec![
                Step::Wait(WaitObject::Semaphore(sem)),
                Step::ReadTsc(s),
            ])),
        );
    }
    // Release 2 of 3 once all three are blocked.
    k.run_for(Cycles::from_ms(2.0));
    k.release_semaphore(sem, 2);
    k.run_for(Cycles::from_ms(8.0));
    let woken = (0..3).filter(|&i| k.slot(Slot(slots.0 + i)) > 0).count();
    assert_eq!(woken, 2, "exactly the released count wakes");
}
