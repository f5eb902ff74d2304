//! Behavioral tests for the dynamic wakeup boost: dynamic-band threads
//! get it, the real-time band never does.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::prelude::*;

#[derive(Default)]
struct Resumes(Vec<ThreadResume>);
impl Observer for Resumes {
    fn on_thread_resume(&mut self, e: &ThreadResume) {
        self.0.push(*e);
    }
}

#[test]
fn dynamic_boost_lets_woken_thread_preempt_equal_base() {
    // Two priority-8 threads: a CPU hog and an I/O-ish waiter. With the
    // wakeup boost the waiter preempts the hog on each signal; without it
    // the waiter waits out the hog's quantum.
    let run = |boost: u8| -> f64 {
        let cfg = KernelConfig {
            dynamic_boost: boost,
            quantum: Cycles::from_ms(30.0),
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        let rec = Rc::new(RefCell::new(Resumes::default()));
        k.add_observer(rec.clone());
        let l = k.intern("APP", "_Hog");
        let _hog = k.create_thread(
            "hog",
            8,
            Box::new(LoopSeq::new(vec![Step::Busy {
                cycles: Cycles::from_ms(200.0),
                label: l,
            }])),
        );
        let evt = k.create_event(false);
        let slot = k.alloc_slots(1);
        let waiter = k.create_thread(
            "waiter",
            8,
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
        let _armer = k.create_thread(
            "armer",
            16,
            Box::new(OpSeq::new(vec![Step::SetTimer {
                timer,
                due: Cycles::from_ms(10.0),
                period: Some(Cycles::from_ms(10.0)),
            }])),
        );
        k.run_for(Cycles::from_ms(300.0));
        let rec = rec.borrow();
        rec.0
            .iter()
            .filter(|r| r.thread == waiter)
            .map(|r| (r.started - r.readied).as_ms())
            .fold(0.0, f64::max)
    };
    let with_boost = run(2);
    let without = run(0);
    assert!(
        with_boost < 1.0,
        "boosted waiter should preempt promptly: {with_boost} ms"
    );
    assert!(
        without > 5.0,
        "unboosted equal-priority waiter waits for the quantum: {without} ms"
    );
}

#[test]
fn rt_threads_are_never_boosted() {
    let cfg = KernelConfig {
        dynamic_boost: 4,
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(cfg);
    let evt = k.create_event(false);
    let slot = k.alloc_slots(1);
    let t = k.create_thread(
        "rt",
        24,
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
    let _armer = k.create_thread(
        "armer",
        16,
        Box::new(OpSeq::new(vec![Step::SetTimer {
            timer,
            due: Cycles::from_ms(1.0),
            period: Some(Cycles::from_ms(1.0)),
        }])),
    );
    k.run_for(Cycles::from_ms(20.0));
    assert_eq!(k.thread(t).priority, 24, "RT priority must stay fixed");
    assert!(k.thread(t).waits_satisfied > 5);
}
