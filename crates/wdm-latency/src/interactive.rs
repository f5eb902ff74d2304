//! Interactive event latency — the Endo et al. contrast (paper §1.2).
//!
//! Endo, Wang, Chen and Seltzer measured *interactive* latencies
//! (keystrokes, mouse clicks) on Windows NT and Windows 95, where 50–150 ms
//! is "generally regarded as being adequately responsive". The paper's
//! point: multimedia and low-latency drivers tolerate only 4–40 ms, a regime
//! interactive metrics say nothing about.
//!
//! This probe measures the interactive pipeline — input interrupt → input
//! DPC → normal-priority UI thread repaint — under the stress loads, so the
//! two regimes can be compared side by side: interactive latency stays
//! comfortably inside its 50–150 ms budget on both OSs even where the
//! real-time metrics differ by orders of magnitude.

use std::{cell::RefCell, rc::Rc};

use wdm_osmodel::dist::{poisson_arrivals, Dist};
use wdm_sim::{
    dpc::DpcImportance,
    env::{EnvAction, EnvSource},
    ids::{ThreadId, WaitObject},
    irql::Irql,
    kernel::Kernel,
    object::EventKind,
    observer::{Interest, Observer, ThreadResume},
    step::{OpSeq, Program, Step, StepCtx},
    time::Cycles,
};

use crate::{stage::SampleStage, worstcase::LatencySeries};

/// The interactive-latency recorder.
pub struct InteractiveRecords {
    ui_thread: ThreadId,
    /// Input-event signal to first UI-thread instruction.
    pub dispatch: LatencySeries,
    /// Raw-sample staging (DESIGN.md §14); sid 0 is `dispatch`.
    stage: SampleStage,
}

impl InteractiveRecords {
    /// Drains the staged samples into `dispatch`. Idempotent; call after
    /// running, before reading the series.
    pub fn flush_staged(&mut self) {
        if self.stage.is_empty() {
            return;
        }
        self.stage.partition();
        self.stage.fold_into(0, &mut self.dispatch);
        self.stage.reset();
    }
}

impl Observer for InteractiveRecords {
    fn interest(&self) -> Interest {
        Interest::THREAD_RESUME
    }

    fn on_thread_resume(&mut self, e: &ThreadResume) {
        if e.thread != self.ui_thread {
            return;
        }
        // Cycle-domain end to end: the sample never round-trips through ms
        // (the histogram re-derives cycles internally; DESIGN.md §12).
        if self.stage.push(0, e.started, e.started - e.readied) {
            self.flush_staged();
        }
    }
}

/// The UI thread: wait for input, repaint (a burst of normal-priority CPU).
struct UiThread {
    event: wdm_sim::ids::EventId,
    repaint: Dist,
    cpu_hz: u64,
    label: wdm_sim::labels::Label,
    phase: u8,
}

impl Program for UiThread {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                Step::Wait(WaitObject::Event(self.event))
            }
            _ => {
                self.phase = 0;
                Step::Busy {
                    cycles: Cycles::from_ms_at(self.repaint.sample(ctx.rng), self.cpu_hz),
                    label: self.label,
                }
            }
        }
    }
}

/// An installed interactive probe.
pub struct InteractiveProbe {
    /// Recorded latencies; read after running.
    pub records: Rc<RefCell<InteractiveRecords>>,
    /// The UI thread.
    pub ui_thread: ThreadId,
}

impl InteractiveProbe {
    /// Installs the probe: an input device at `events_hz` (keystroke/click
    /// rate) driving a priority-8 UI thread whose repaint costs 2–20 ms.
    pub fn install(k: &mut Kernel, events_hz: f64) -> InteractiveProbe {
        let cpu = k.config().cpu_hz;
        let isr_l = k.intern("I8042PRT", "_KeyboardIsr");
        let ui_l = k.intern("USER32", "_WndProcRepaint");
        let event = k.create_event(EventKind::Synchronization, false);
        let dpc = k.create_dpc(
            "input-dpc",
            DpcImportance::Medium,
            Box::new(OpSeq::new(vec![Step::SetEvent(event), Step::Return])),
        );
        let vector = k.install_vector(
            "kbd",
            Irql(8),
            Box::new(OpSeq::new(vec![
                Step::Busy {
                    cycles: Cycles::from_us_at(5.0, cpu),
                    label: isr_l,
                },
                Step::QueueDpc(dpc),
                Step::Return,
            ])),
        );
        k.add_env_source(EnvSource::new(
            "keystrokes",
            poisson_arrivals(events_hz, cpu),
            EnvAction::AssertInterrupt(vector),
        ));
        let ui_thread = k.create_thread(
            "ui-thread",
            8,
            Box::new(UiThread {
                event,
                repaint: Dist::LogNormal {
                    median: 5.0,
                    sigma: 0.6,
                    cap: 25.0,
                },
                cpu_hz: cpu,
                label: ui_l,
                phase: 0,
            }),
        );
        let mut stage = SampleStage::new(60 * cpu);
        stage.register_series(1);
        let records = Rc::new(RefCell::new(InteractiveRecords {
            ui_thread,
            dispatch: LatencySeries::new("interactive dispatch", cpu),
            stage,
        }));
        k.add_observer(records.clone());
        InteractiveProbe { records, ui_thread }
    }
}

/// The Shneiderman adequacy band the paper cites for low-level input.
pub const ADEQUATE_MS: (f64, f64) = (50.0, 150.0);

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_osmodel::personality::{OsKind, OsPersonality};

    fn measure(os: OsKind) -> (u64, f64, f64) {
        let p = OsPersonality::of(os);
        let mut k = p.build_kernel(9);
        p.install_background(&mut k, &wdm_osmodel::LoadFactors::idle());
        let probe = InteractiveProbe::install(&mut k, 10.0);
        k.run_for(Cycles::from_ms_at(20_000.0, k.config().cpu_hz));
        probe.records.borrow_mut().flush_staged();
        let r = probe.records.borrow();
        (
            r.dispatch.hist.count(),
            r.dispatch.hist.mean_ms(),
            r.dispatch.hist.max_ms(),
        )
    }

    #[test]
    fn interactive_latency_is_far_inside_the_adequate_band() {
        for os in [OsKind::Nt4, OsKind::Win98] {
            let (n, mean, max) = measure(os);
            assert!(n > 100, "{}: too few events: {n}", os.name());
            assert!(
                mean < ADEQUATE_MS.0 / 5.0,
                "{}: interactive mean {mean} ms should be tiny",
                os.name()
            );
            assert!(
                max < ADEQUATE_MS.1,
                "{}: even the max ({max} ms) fits the interactive budget",
                os.name()
            );
        }
    }
}
