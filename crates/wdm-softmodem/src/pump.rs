//! The periodic datapump: a deadline-monitored computation at a
//! configurable modality (DPC or kernel thread).
//!
//! This is the tool the paper describes in §6.1: "a tool that models
//! periodic computation at configurable modalities (e.g., threads, DPCs)
//! and priorities within modalities, and reports the number of deadlines
//! that have been missed. With this tool we can model a soft modem…and use
//! \[it\] to validate our quality of service predictions."
//!
//! Model: modem hardware fills one buffer every `period`; each buffer must
//! receive `compute` of CPU before its deadline `arrival + tolerance`
//! (tolerance = `(n-1) * period` for an n-buffer ring). Arrivals ride a
//! dedicated device interrupt; the datapump body runs either directly in
//! the device DPC or in a real-time kernel thread signaled from that DPC —
//! exactly the two WDM choices the paper contrasts.

use std::{cell::RefCell, collections::VecDeque, rc::Rc};

use wdm_sim::{
    env::{samplers, EnvAction, EnvSource},
    ids::{EventId, WaitObject},
    irql::Irql,
    kernel::Kernel,
    labels::Label,
    step::{Program, Step, StepCtx},
    time::{Cycles, Instant},
};

/// Execution modality of the datapump body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modality {
    /// Process buffers in the device DPC ("interrupt-level" processing).
    Dpc,
    /// Process buffers in a kernel thread at the given real-time priority,
    /// signaled from the device DPC.
    Thread(u8),
}

/// Shared accounting between the ISR, the pump body and the harness.
#[derive(Debug)]
pub struct PumpState {
    /// Buffer fill period.
    pub period: Cycles,
    /// CPU work per buffer.
    pub compute: Cycles,
    /// Allowed lateness: deadline = arrival + tolerance.
    pub tolerance: Cycles,
    /// Hardware fill grid: arrival k happens at `k * period`.
    next_arrival: Instant,
    /// Fill times awaiting processing.
    pending: VecDeque<Instant>,
    /// Buffers processed before their deadline.
    pub completed: u64,
    /// Buffers processed after their deadline (underruns).
    pub missed: u64,
}

impl PumpState {
    fn new(period: Cycles, compute: Cycles, tolerance: Cycles) -> PumpState {
        PumpState {
            period,
            compute,
            tolerance,
            next_arrival: Instant::ZERO + period,
            pending: VecDeque::new(),
            completed: 0,
            missed: 0,
        }
    }

    /// Pushes every hardware fill at or before `now` (handles coalesced
    /// interrupts: a delayed ISR must account for all elapsed fills).
    fn catch_up(&mut self, now: Instant) {
        while self.next_arrival <= now {
            self.pending.push_back(self.next_arrival);
            self.next_arrival = self.next_arrival + self.period;
        }
    }

    /// Buffers filled so far.
    pub fn filled(&self) -> u64 {
        self.completed + self.missed + self.pending.len() as u64
    }
}

/// Shared handle to the pump state.
pub type PumpHandle = Rc<RefCell<PumpState>>;

/// The modem ISR: catch up the fill grid, hand off to the DPC.
struct ModemIsr {
    state: PumpHandle,
    label: Label,
    isr_cost: Cycles,
    dpc: wdm_sim::ids::DpcId,
    phase: u8,
}

impl Program for ModemIsr {
    fn begin(&mut self, _ctx: &mut StepCtx<'_>) {
        self.phase = 0;
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                self.state.borrow_mut().catch_up(ctx.now);
                Step::Busy {
                    cycles: self.isr_cost,
                    label: self.label,
                }
            }
            1 => {
                self.phase = 2;
                Step::QueueDpc(self.dpc)
            }
            _ => Step::Return,
        }
    }
}

/// The datapump body as a DPC routine: drain all pending buffers.
struct PumpDpc {
    state: PumpHandle,
    label: Label,
    /// Arrival of the buffer currently being computed.
    in_flight: Option<Instant>,
    /// In thread modality the DPC only signals the thread.
    signal: Option<EventId>,
    /// Whether this activation has sent its signal yet.
    signaled: bool,
}

impl Program for PumpDpc {
    fn begin(&mut self, _ctx: &mut StepCtx<'_>) {
        debug_assert!(self.in_flight.is_none(), "buffer left in flight");
        self.signaled = false;
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if let Some(e) = self.signal {
            // Thread modality: wake the pump thread and return.
            if !self.signaled {
                self.signaled = true;
                return Step::SetEvent(e);
            }
            return Step::Return;
        }
        let mut st = self.state.borrow_mut();
        if let Some(arrival) = self.in_flight.take() {
            // Compute finished at ctx.now: deadline check.
            if ctx.now > arrival + st.tolerance {
                st.missed += 1;
            } else {
                st.completed += 1;
            }
        }
        match st.pending.pop_front() {
            Some(arrival) => {
                self.in_flight = Some(arrival);
                let compute = st.compute;
                drop(st);
                Step::Busy {
                    cycles: compute,
                    label: self.label,
                }
            }
            None => Step::Return,
        }
    }
}

/// The datapump body as a kernel thread: wait, drain, repeat.
struct PumpThread {
    state: PumpHandle,
    label: Label,
    event: EventId,
    in_flight: Option<Instant>,
}

impl Program for PumpThread {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        let mut st = self.state.borrow_mut();
        if let Some(arrival) = self.in_flight.take() {
            if ctx.now > arrival + st.tolerance {
                st.missed += 1;
            } else {
                st.completed += 1;
            }
        }
        match st.pending.pop_front() {
            Some(arrival) => {
                self.in_flight = Some(arrival);
                let compute = st.compute;
                drop(st);
                Step::Busy {
                    cycles: compute,
                    label: self.label,
                }
            }
            None => {
                drop(st);
                Step::Wait(WaitObject::Event(self.event))
            }
        }
    }
}

/// An installed datapump.
pub struct Datapump {
    /// Shared accounting.
    pub state: PumpHandle,
    /// The modality it runs in.
    pub modality: Modality,
    /// The device vector.
    pub vector: wdm_sim::ids::VectorId,
}

impl Datapump {
    /// Installs a datapump with the given buffer period, per-buffer compute
    /// and latency tolerance (`(n-1) * period` for an n-buffer design).
    pub fn install(
        k: &mut Kernel,
        modality: Modality,
        period: Cycles,
        compute: Cycles,
        tolerance: Cycles,
    ) -> Datapump {
        assert!(compute < period, "datapump must fit in its cycle");
        let state: PumpHandle = Rc::new(RefCell::new(PumpState::new(period, compute, tolerance)));
        let isr_label = k.intern("SOFTMODEM", "_LineIsr");
        let pump_label = k.intern("SOFTMODEM", "_Datapump");
        let (dpc_body, event): (PumpDpc, Option<EventId>) = match modality {
            Modality::Dpc => (
                PumpDpc {
                    state: state.clone(),
                    label: pump_label,
                    in_flight: None,
                    signal: None,
                    signaled: false,
                },
                None,
            ),
            Modality::Thread(_) => {
                let e = k.create_event(false);
                (
                    PumpDpc {
                        state: state.clone(),
                        label: pump_label,
                        in_flight: None,
                        signal: Some(e),
                        signaled: false,
                    },
                    Some(e),
                )
            }
        };
        let dpc = k.create_dpc("softmodem-dpc", Box::new(dpc_body));
        if let Modality::Thread(priority) = modality {
            k.create_thread(
                "softmodem-pump",
                priority,
                Box::new(PumpThread {
                    state: state.clone(),
                    label: pump_label,
                    event: event.expect("thread modality has an event"),
                    in_flight: None,
                }),
            );
        }
        let vector = k.install_vector(
            "softmodem",
            Irql(13),
            Box::new(ModemIsr {
                state: state.clone(),
                label: isr_label,
                isr_cost: Cycles(1_200), // ~4 us line ISR
                dpc,
                phase: 0,
            }),
        );
        // The line interrupt fires exactly once per buffer period.
        k.add_env_source(EnvSource::new(
            "softmodem-line",
            samplers::fixed(period),
            EnvAction::AssertInterrupt(vector),
        ));
        Datapump {
            state,
            modality,
            vector,
        }
    }

    /// Observed mean time between underruns, in seconds of simulated time.
    pub fn observed_mttf_s(&self, sim_time: Cycles, cpu_hz: u64) -> f64 {
        let missed = self.state.borrow().missed;
        if missed == 0 {
            f64::INFINITY
        } else {
            sim_time.as_ms_at(cpu_hz) / 1000.0 / missed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::config::KernelConfig;

    fn install_pump(modality: Modality, period_ms: f64, tol_ms: f64) -> (Kernel, Datapump) {
        let mut k = Kernel::new(KernelConfig::default());
        let period = Cycles::from_ms(period_ms);
        let compute = Cycles::from_ms(period_ms * 0.25);
        let tol = Cycles::from_ms(tol_ms);
        let pump = Datapump::install(&mut k, modality, period, compute, tol);
        (k, pump)
    }

    #[test]
    fn dpc_pump_processes_all_buffers_on_idle_machine() {
        let (mut k, pump) = install_pump(Modality::Dpc, 8.0, 8.0);
        k.run_for(Cycles::from_ms(2_000.0));
        let st = pump.state.borrow();
        assert!(
            (240..=251).contains(&st.completed),
            "expected ~250 buffers, got {}",
            st.completed
        );
        assert_eq!(st.missed, 0, "idle machine must not underrun");
    }

    #[test]
    fn thread_pump_processes_all_buffers_on_idle_machine() {
        let (mut k, pump) = install_pump(Modality::Thread(28), 8.0, 8.0);
        k.run_for(Cycles::from_ms(2_000.0));
        let st = pump.state.borrow();
        assert!(st.completed >= 240, "got {}", st.completed);
        assert_eq!(st.missed, 0);
    }

    #[test]
    fn blocked_dispatch_causes_underruns_for_thread_pump_only() {
        // Massive scheduler blocking: sections of 30 ms every 40 ms. The
        // thread pump (tolerance 8 ms) must miss; the DPC pump must not.
        let run = |modality| {
            let (mut k, pump) = install_pump(modality, 8.0, 8.0);
            let vmm = k.intern("VMM", "_Block");
            k.add_env_source(EnvSource::new(
                "blocker",
                samplers::fixed(Cycles::from_ms(40.0)),
                EnvAction::Section {
                    duration: samplers::fixed(Cycles::from_ms(30.0)),
                    label: vmm,
                },
            ));
            k.run_for(Cycles::from_ms(4_000.0));
            let st = pump.state.borrow();
            (st.completed, st.missed)
        };
        let (dpc_done, dpc_missed) = run(Modality::Dpc);
        let (thr_done, thr_missed) = run(Modality::Thread(28));
        assert_eq!(dpc_missed, 0, "DPCs preempt sections: {dpc_done} done");
        assert!(
            thr_missed > 20,
            "thread pump must underrun under blocking: {thr_missed} misses, {thr_done} done"
        );
    }

    #[test]
    fn coalesced_interrupts_do_not_lose_buffers() {
        // Interrupts blocked by long cli windows: fills must still all be
        // accounted for via the catch-up grid.
        let (mut k, pump) = install_pump(Modality::Dpc, 4.0, 16.0);
        let l = k.intern("BAD", "_Cli");
        k.add_env_source(EnvSource::new(
            "cli",
            samplers::fixed(Cycles::from_ms(20.0)),
            EnvAction::Cli {
                duration: samplers::fixed(Cycles::from_ms(10.0)),
                label: l,
            },
        ));
        k.run_for(Cycles::from_ms(1_000.0));
        let st = pump.state.borrow();
        let total = st.completed + st.missed;
        assert!(
            (230..=251).contains(&total),
            "all ~250 fills must be processed, got {total}"
        );
    }

    #[test]
    fn observed_mttf_infinite_without_misses() {
        let (mut k, pump) = install_pump(Modality::Dpc, 8.0, 24.0);
        k.run_for(Cycles::from_ms(500.0));
        assert_eq!(
            pump.observed_mttf_s(Cycles::from_ms(500.0), 300_000_000),
            f64::INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "fit in its cycle")]
    fn oversized_compute_rejected() {
        let mut k = Kernel::new(KernelConfig::default());
        let _ = Datapump::install(
            &mut k,
            Modality::Dpc,
            Cycles::from_ms(4.0),
            Cycles::from_ms(5.0),
            Cycles::from_ms(4.0),
        );
    }
}
