//! Behavioral tests of the simulated kernel: the WDM scheduling hierarchy
//! rules from §4.1 of the paper, exercised end to end.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::prelude::*;

/// Records every instrumentation event.
#[derive(Default)]
struct Recorder {
    isrs: Vec<IsrEnter>,
    dpcs: Vec<DpcStart>,
    resumes: Vec<ThreadResume>,
}

impl Observer for Recorder {
    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.isrs.push(*e);
    }
    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.dpcs.push(*e);
    }
    fn on_thread_resume(&mut self, e: &ThreadResume) {
        self.resumes.push(*e);
    }
}

fn recorded_kernel() -> (Kernel, Rc<RefCell<Recorder>>) {
    let k = Kernel::new(KernelConfig::default());
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let mut k = k;
    k.add_observer(rec.clone());
    (k, rec)
}

#[test]
fn pit_ticks_at_configured_rate() {
    let (mut k, rec) = recorded_kernel();
    k.run_for(Cycles::from_ms(50.0));
    // 1 kHz PIT: one ISR per millisecond.
    let pit = k.pit_vector();
    let ticks = rec.borrow().isrs.iter().filter(|e| e.vector == pit).count();
    assert!(
        (49..=51).contains(&ticks),
        "expected ~50 ticks, got {ticks}"
    );
}

#[test]
fn pit_isr_latency_small_on_idle_system() {
    let (mut k, rec) = recorded_kernel();
    k.run_for(Cycles::from_ms(20.0));
    for e in &rec.borrow().isrs {
        let lat = e.started - e.asserted;
        // Only the fixed dispatch cost on an idle machine (2 us default).
        assert_eq!(lat, k.config().isr_dispatch_cost);
    }
}

#[test]
fn cli_window_delays_interrupt_dispatch() {
    let (mut k, rec) = recorded_kernel();
    let label = k.intern("BADDRV", "_SpinWithCli");
    // One 3 ms cli window starting at 4.5 ms: the 5, 6 and 7 ms ticks stay
    // pending until it ends at 7.5 ms.
    k.add_env_source(EnvSource::new(
        "cli-burst",
        samplers::fixed(Cycles::from_ms(4.5)),
        EnvAction::Cli {
            duration: samplers::fixed(Cycles::from_ms(3.0)),
            label,
        },
    ));
    k.run_for(Cycles::from_ms(8.5));
    let max_lat = rec
        .borrow()
        .isrs
        .iter()
        .map(|e| (e.started - e.asserted).0)
        .max()
        .unwrap();
    // At least one tick had to wait for most of the cli window.
    assert!(
        Cycles(max_lat).as_ms() > 1.5,
        "cli window should stretch interrupt latency, max was {} ms",
        Cycles(max_lat).as_ms()
    );
    // The 6 and 7 ms ticks assert while the 5 ms tick is still pending, so
    // they coalesce into it: a maskable sampler loses every tick but one
    // per cli window.
    assert_eq!(k.interrupts().vector(k.pit_vector()).coalesced_count, 2);
}

#[test]
fn dpc_runs_after_isr_and_before_threads() {
    let (mut k, rec) = recorded_kernel();
    let slot = k.alloc_slots(2);
    let busy_label = k.intern("APP", "_SpinForever");
    // A CPU-hog thread at normal priority.
    let _hog = k.create_thread(
        "hog",
        8,
        Box::new(LoopSeq::new(vec![Step::Busy {
            cycles: Cycles::from_ms(10.0),
            label: busy_label,
        }])),
    );
    // Timer-driven DPC every millisecond.
    let dpc = k.create_dpc(
        "tick",
        Box::new(OpSeq::new(vec![Step::ReadTsc(slot), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    let armer = k.create_thread(
        "armer",
        24,
        Box::new(OpSeq::new(vec![Step::SetTimer {
            timer,
            due: Cycles::from_ms(1.0),
            period: Some(Cycles::from_ms(1.0)),
        }])),
    );
    let _ = armer;
    k.run_for(Cycles::from_ms(30.0));
    let rec = rec.borrow();
    assert!(
        rec.dpcs.len() >= 25,
        "periodic DPC should run ~30 times, got {}",
        rec.dpcs.len()
    );
    // Despite the hog, every DPC ran promptly: the DPC level preempts
    // threads outright.
    for d in &rec.dpcs {
        let lat = (d.started - d.queued).as_ms();
        assert!(lat < 0.1, "DPC latency {lat} ms too large on this load");
    }
}

#[test]
fn dpc_fifo_latency_accumulates_queue_time() {
    let (mut k, rec) = recorded_kernel();
    let heavy_label = k.intern("NIC", "_HeavyDpc");
    let slot = k.alloc_slots(1);
    // Two DPCs queued back to back from one ISR: the second waits for the
    // first (5 ms of work).
    let heavy = k.create_dpc(
        "heavy",
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles::from_ms(5.0),
                label: heavy_label,
            },
            Step::Return,
        ])),
    );
    let light = k.create_dpc(
        "light",
        Box::new(OpSeq::new(vec![Step::ReadTsc(slot), Step::Return])),
    );
    let isr = k.install_vector(
        "nic",
        Irql(12),
        Box::new(OpSeq::new(vec![
            Step::QueueDpc(heavy),
            Step::QueueDpc(light),
            Step::Return,
        ])),
    );
    k.assert_interrupt(isr);
    k.run_for(Cycles::from_ms(10.0));
    let rec = rec.borrow();
    assert_eq!(rec.dpcs.len(), 2);
    let heavy_lat = (rec.dpcs[0].started - rec.dpcs[0].queued).as_ms();
    let light_lat = (rec.dpcs[1].started - rec.dpcs[1].queued).as_ms();
    assert!(heavy_lat < 0.1, "first DPC runs promptly: {heavy_lat} ms");
    assert!(
        light_lat > 4.9,
        "second DPC waits behind the 5 ms DPC: {light_lat} ms"
    );
}

#[test]
fn event_signal_from_dpc_wakes_rt_thread_with_latency() {
    let (mut k, rec) = recorded_kernel();
    let evt = k.create_event(false);
    let slot = k.alloc_slots(1);
    // Measurement-style thread: wait, read TSC, loop.
    let waiter = k.create_thread(
        "waiter",
        RT_HIGH_PRIORITY,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(evt)),
            Step::ReadTsc(slot),
        ])),
    );
    let dpc = k.create_dpc(
        "signal",
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
    let rec = rec.borrow();
    let resumes: Vec<&ThreadResume> = rec.resumes.iter().filter(|r| r.thread == waiter).collect();
    assert!(
        resumes.len() >= 15,
        "waiter should wake ~19 times, got {}",
        resumes.len()
    );
    let cfg = k.config();
    let floor = cfg.dispatch_cost.0 + cfg.context_switch_cost.0;
    for r in resumes {
        let lat = r.started - r.readied;
        assert!(
            lat.0 >= floor,
            "thread latency must include dispatch+switch cost"
        );
        assert!(lat.as_ms() < 0.5, "idle-system thread latency is small");
    }
}

#[test]
fn section_blocks_thread_dispatch_but_not_dpcs() {
    let (mut k, rec) = recorded_kernel();
    let vmm = k.intern("VMM", "_mmFindContig");
    let evt = k.create_event(false);
    let slot = k.alloc_slots(1);
    let waiter = k.create_thread(
        "waiter",
        RT_HIGH_PRIORITY,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(evt)),
            Step::ReadTsc(slot),
        ])),
    );
    let dpc = k.create_dpc(
        "signal",
        Box::new(OpSeq::new(vec![Step::SetEvent(evt), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    let _armer = k.create_thread(
        "armer",
        16,
        Box::new(OpSeq::new(vec![Step::SetTimer {
            timer,
            due: Cycles::from_ms(4.0),
            period: Some(Cycles::from_ms(4.0)),
        }])),
    );
    // A 3 ms non-preemptible section every 5 ms.
    k.add_env_source(EnvSource::new(
        "vmm-sections",
        samplers::fixed(Cycles::from_ms(5.0)),
        EnvAction::Section {
            duration: samplers::fixed(Cycles::from_ms(3.0)),
            label: vmm,
        },
    ));
    k.run_for(Cycles::from_ms(60.0));
    let rec = rec.borrow();
    // DPCs still ran on schedule...
    assert!(rec.dpcs.len() >= 10, "DPCs starve: {}", rec.dpcs.len());
    let max_dpc = rec
        .dpcs
        .iter()
        .map(|d| (d.started - d.queued).as_ms())
        .fold(0.0f64, f64::max);
    assert!(max_dpc < 1.0, "sections must not delay DPCs: {max_dpc} ms");
    // ...but the thread saw long dispatch latencies.
    let max_thread = rec
        .resumes
        .iter()
        .filter(|r| r.thread == waiter)
        .map(|r| (r.started - r.readied).as_ms())
        .fold(0.0f64, f64::max);
    assert!(
        max_thread > 1.5,
        "sections should stretch thread latency: {max_thread} ms"
    );
}

#[test]
fn higher_priority_thread_preempts_lower() {
    let (mut k, rec) = recorded_kernel();
    let spin = k.intern("APP", "_Spin");
    let evt = k.create_event(false);
    let slot = k.alloc_slots(1);
    let _hog = k.create_thread(
        "hog",
        20,
        Box::new(LoopSeq::new(vec![Step::Busy {
            cycles: Cycles::from_ms(100.0),
            label: spin,
        }])),
    );
    let hi = k.create_thread(
        "hi",
        28,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(evt)),
            Step::ReadTsc(slot),
        ])),
    );
    let dpc = k.create_dpc(
        "signal",
        Box::new(OpSeq::new(vec![Step::SetEvent(evt), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    let _armer = k.create_thread(
        "armer",
        24,
        Box::new(OpSeq::new(vec![Step::SetTimer {
            timer,
            due: Cycles::from_ms(2.0),
            period: Some(Cycles::from_ms(2.0)),
        }])),
    );
    k.run_for(Cycles::from_ms(20.0));
    let rec = rec.borrow();
    let lats: Vec<f64> = rec
        .resumes
        .iter()
        .filter(|r| r.thread == hi)
        .map(|r| (r.started - r.readied).as_ms())
        .collect();
    assert!(lats.len() >= 8, "hi thread should wake repeatedly");
    for l in &lats {
        assert!(
            *l < 0.2,
            "priority-28 thread preempts the spinning 20: {l} ms"
        );
    }
}

#[test]
fn equal_priority_thread_waits_for_quantum() {
    // The NT RT-24 work-item effect: a readied priority-24 thread must wait
    // while another 24 runs, until the peer's quantum expires.
    let cfg = KernelConfig {
        quantum: Cycles::from_ms(20.0),
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(cfg);
    let rec = Rc::new(RefCell::new(Recorder::default()));
    k.add_observer(rec.clone());
    let spin = k.intern("WORKQ", "_ExpWorkerThread");
    let evt = k.create_event(false);
    let slot = k.alloc_slots(1);
    let _peer = k.create_thread(
        "workitem-peer",
        24,
        Box::new(LoopSeq::new(vec![Step::Busy {
            cycles: Cycles::from_ms(200.0),
            label: spin,
        }])),
    );
    let meas = k.create_thread(
        "meas",
        24,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(evt)),
            Step::ReadTsc(slot),
        ])),
    );
    let dpc = k.create_dpc(
        "signal",
        Box::new(OpSeq::new(vec![Step::SetEvent(evt), Step::Return])),
    );
    let timer = k.create_timer(Some(dpc));
    let _armer = k.create_thread(
        "armer",
        28,
        Box::new(OpSeq::new(vec![Step::SetTimer {
            timer,
            due: Cycles::from_ms(5.0),
            period: Some(Cycles::from_ms(5.0)),
        }])),
    );
    k.run_for(Cycles::from_ms(80.0));
    let rec = rec.borrow();
    let lats: Vec<f64> = rec
        .resumes
        .iter()
        .filter(|r| r.thread == meas)
        .map(|r| (r.started - r.readied).as_ms())
        .collect();
    // The first Wait may be satisfied by a latched signal (no block, no
    // resume record); later rounds block and then wait out the peer's
    // 20 ms quantum.
    assert!(!lats.is_empty(), "measurement thread never resumed");
    for l in &lats {
        assert!(
            *l > 5.0 && *l < 21.0,
            "equal-priority wait should be bounded by the quantum: {l} ms"
        );
    }
}

#[test]
fn sleep_expires_at_tick_granularity() {
    let (mut k, rec) = recorded_kernel();
    let slot = k.alloc_slots(2);
    let t = k.create_thread(
        "sleeper",
        24,
        Box::new(OpSeq::new(vec![
            Step::ReadTsc(slot),
            Step::Sleep(Cycles::from_ms(2.5)),
            Step::ReadTsc(Slot(slot.0 + 1)),
        ])),
    );
    k.run_for(Cycles::from_ms(10.0));
    let woke = k.slot(Slot(slot.0 + 1)) - k.slot(slot);
    let woke_ms = Cycles(woke).as_ms();
    // 2.5 ms sleep on a 1 ms tick: wakes at the 3 ms tick.
    assert!(
        (2.5..4.0).contains(&woke_ms),
        "sleep should expire at the next tick: {woke_ms} ms"
    );
    // A sleep expiry is a wake like any other: the sleeper resumes exactly
    // once, readied by the 3 ms tick's clock ISR at the end of its body.
    let cfg = k.config();
    let tick = Instant(3 * cfg.pit_period().0);
    let rec = rec.borrow();
    let resumes: Vec<&ThreadResume> = rec.resumes.iter().filter(|r| r.thread == t).collect();
    assert_eq!(resumes.len(), 1, "one resume per wake");
    assert_eq!(
        resumes[0].readied,
        tick + cfg.isr_dispatch_cost + cfg.pit_isr_cost,
        "readied inside the 3 ms tick's clock ISR"
    );
}

#[test]
fn cycle_accounting_is_conserved() {
    let (mut k, _rec) = recorded_kernel();
    let spin = k.intern("APP", "_Spin");
    let _hog = k.create_thread(
        "hog",
        8,
        Box::new(LoopSeq::new(vec![Step::Busy {
            cycles: Cycles::from_ms(3.0),
            label: spin,
        }])),
    );
    k.add_env_source(EnvSource::new(
        "cli",
        samplers::fixed(Cycles::from_ms(7.0)),
        EnvAction::Cli {
            duration: samplers::fixed(Cycles::from_us(50.0)),
            label: spin,
        },
    ));
    k.run_for(Cycles::from_ms(100.0));
    let acct = k.account;
    assert_eq!(
        acct.total(),
        k.now().0,
        "every cycle must be attributed to exactly one level"
    );
    assert!(acct.isr > 0 && acct.thread > 0 && acct.cli > 0);
}

#[test]
fn returned_thread_parks_and_stops_scheduling() {
    let mut k = Kernel::new(KernelConfig::default());
    let spin = k.intern("APP", "_Spin");
    let t = k.create_thread(
        "oneshot",
        24,
        Box::new(OpSeq::new(vec![Step::Busy {
            cycles: Cycles::from_ms(1.0),
            label: spin,
        }])),
    );
    k.run_for(Cycles::from_ms(5.0));
    // The program's implicit `Return` parks the thread for good.
    assert_eq!(k.thread(t).state, ThreadState::Waiting);
    // CPU went idle after the 1 ms of work (minus overheads).
    assert!(k.account.idle > Cycles::from_ms(3.0).0);
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed: u64| -> (u64, u64, Vec<u64>) {
        let cfg = KernelConfig {
            seed,
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        k.add_observer(rec.clone());
        let l = k.intern("NIC", "_Isr");
        let dpc = k.create_dpc(
            "d",
            Box::new(OpSeq::new(vec![
                Step::Busy {
                    cycles: Cycles::from_us(200.0),
                    label: l,
                },
                Step::Return,
            ])),
        );
        let v = k.install_vector(
            "nic",
            Irql(12),
            Box::new(OpSeq::new(vec![Step::QueueDpc(dpc), Step::Return])),
        );
        k.add_env_source(EnvSource::new(
            "nic-arrivals",
            samplers::uniform(Cycles::from_us(100.0), Cycles::from_ms(2.0)),
            EnvAction::AssertInterrupt(v),
        ));
        k.run_for(Cycles::from_ms(50.0));
        let rec = rec.borrow();
        (
            rec.isrs.len() as u64,
            rec.dpcs.len() as u64,
            rec.dpcs.iter().map(|d| (d.started - d.queued).0).collect(),
        )
    };
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "same seed must reproduce the identical trace");
    assert_ne!(a.2, c.2, "different seeds should differ");
}

/// The IRP's observer is the paper's control application: it waits on
/// the IRP's completion event and, once woken, reads the system buffer
/// the completing driver filled.
#[test]
fn irp_completion_reaches_observer() {
    let mut k = Kernel::new(KernelConfig::default());
    let done = k.create_event(false);
    let irp = k.create_irp(3, Some(done));
    let asb0 = k.irp(irp).asb_slot(0);
    let seen = k.alloc_slots(1);
    let mut waited = false;
    let _app = k.create_thread(
        "control-app",
        28,
        Box::new(FnProgram::new(move |ctx: &mut StepCtx<'_>| {
            if !waited {
                waited = true;
                return Step::Wait(WaitObject::Event(done));
            }
            let v = ctx.board.read(asb0);
            ctx.board.write(seen, v);
            Step::Return
        })),
    );
    let _t = k.create_thread(
        "completer",
        24,
        Box::new(OpSeq::new(vec![
            Step::ReadTsc(asb0),
            Step::CompleteIrp(irp),
        ])),
    );
    k.run_for(Cycles::from_ms(2.0));
    assert!(k.slot(seen) > 0, "ASB[0] carries the timestamp");
    assert_eq!(k.slot(seen), k.slot(asb0));
    assert_eq!(k.irp(irp).completion_count, 1);
}
