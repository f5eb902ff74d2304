//! The WDM latency measurement tool (paper §2.2, Figure 3).
//!
//! A faithful transcription of the paper's pseudocode into simulator
//! programs:
//!
//! - **Driver I/O read routine** (`LatRead`, §2.2.2): runs in the control
//!   application's thread; reads the TSC into `ASB[0]` and arms the timer.
//! - **Timer DPC** (`LatDpcRoutine`, §2.2.3): queued by the PIT ISR when the
//!   timer expires; reads the TSC into `ASB[1]` and signals the event.
//! - **Measurement thread** (`LatThreadFunc`, §2.2.4): a kernel thread at a
//!   real-time priority; waits on the event, reads the TSC into `ASB[2]`
//!   and completes the IRP back to the control application.
//! - **Control application**: computes the latencies from the system buffer
//!   and issues the next read.
//!
//! Alongside the faithful tool, [`TruthCollector`] records the *exact*
//! latencies from simulator instrumentation (the luxury the paper's authors
//! did not have: they estimate the hardware timestamp as `ASB[0] + delay`,
//! accepting ±1 PIT period of error, §2.2). Comparing the two quantifies
//! the estimation error of the paper's method.

use std::{cell::RefCell, collections::VecDeque, rc::Rc};

use wdm_sim::{
    ids::{DpcId, EventId, IrpId, ThreadId, TimerId, VectorId, WaitObject},
    kernel::Kernel,
    observer::{DpcStart, IsrEnter, Objects, Observer, Subscription, ThreadResume},
    step::{Program, Step, StepCtx},
    time::{Cycles, Instant},
};

use crate::{stage::SampleStage, worstcase::LatencySeries};

/// Latencies computed by the control application from the system buffer,
/// exactly as the paper's tool reports them. Only the priority-28 tool
/// records them: no cell reads the priority-24 tool's pair.
#[derive(Debug)]
pub struct ToolResults {
    /// `ASB[2] - ASB[1]`: DPC to thread (the paper's thread latency).
    pub dpc_to_thread: LatencySeries,
    /// `ASB[1] - (ASB[0] + delay)`: estimated interrupt+DPC latency, with
    /// the ±1 tick resolution the paper accepts (clamped at zero).
    pub est_int_to_dpc: LatencySeries,
    /// Measurement rounds completed.
    pub rounds: u64,
    /// Raw-sample staging (DESIGN.md §14); sids 0 and 1 map to the two
    /// series above in declaration order.
    stage: SampleStage,
}

impl ToolResults {
    fn new(name: &str, cpu_hz: u64) -> ToolResults {
        let mut stage = SampleStage::new(60 * cpu_hz);
        stage.register_series(2);
        ToolResults {
            dpc_to_thread: LatencySeries::new(&format!("{name}: DPC->thread"), cpu_hz),
            est_int_to_dpc: LatencySeries::new(&format!("{name}: est int->DPC"), cpu_hz),
            rounds: 0,
            stage,
        }
    }

    /// Drains every staged sample into its series. Idempotent; must run
    /// before any series is read (the session flushes at measurement end).
    pub fn flush_staged(&mut self) {
        if self.stage.is_empty() {
            return;
        }
        self.stage.partition();
        self.stage.fold_into(0, &mut self.dpc_to_thread);
        self.stage.fold_into(1, &mut self.est_int_to_dpc);
        self.stage.reset();
    }

    /// Completed stage flushes (bench accounting).
    pub fn batch_flushes(&self) -> u64 {
        self.stage.batch_flushes()
    }

    /// Samples that went through the stage (bench accounting).
    pub fn staged_samples(&self) -> u64 {
        self.stage.staged_samples()
    }

    /// High-water mark of staged triples (the stage-occupancy gauge).
    pub fn peak_staged(&self) -> usize {
        self.stage.peak_staged()
    }
}

/// `LatThreadFunc`: wait, stamp, complete (paper §2.2.4).
struct LatThreadFunc {
    event: EventId,
    asb2: wdm_sim::ids::Slot,
    irp: IrpId,
    phase: u8,
}

impl Program for LatThreadFunc {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        let s = match self.phase {
            0 => Step::Wait(WaitObject::Event(self.event)),
            1 => Step::ReadTsc(self.asb2),
            _ => Step::CompleteIrp(self.irp),
        };
        self.phase = (self.phase + 1) % 3;
        s
    }
}

/// The control application: drive reads, compute latencies.
struct ControlApp {
    timer: TimerId,
    delay: Cycles,
    completion: EventId,
    asb0: wdm_sim::ids::Slot,
    asb1: wdm_sim::ids::Slot,
    asb2: wdm_sim::ids::Slot,
    /// `None` for a tool whose latencies nothing reads: it still runs the
    /// same four-phase loop and bookkeeping, so the simulation is the same.
    results: Option<Rc<RefCell<ToolResults>>>,
    phase: u8,
}

impl Program for ControlApp {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.phase {
            // LatRead, running in our thread context: stamp ASB[0]...
            0 => {
                self.phase = 1;
                Step::ReadTsc(self.asb0)
            }
            // ...and set the single-shot timer.
            1 => {
                self.phase = 2;
                Step::SetTimer {
                    timer: self.timer,
                    due: self.delay,
                    period: None,
                }
            }
            // Overlapped wait for IRP completion (ReadFileEx style).
            2 => {
                self.phase = 3;
                Step::Wait(WaitObject::Event(self.completion))
            }
            // Completion: compute and record, then loop.
            _ => {
                self.phase = 0;
                if let Some(results) = &self.results {
                    let t0 = ctx.board.read(self.asb0);
                    let t1 = ctx.board.read(self.asb1);
                    let t2 = ctx.board.read(self.asb2);
                    let est_expiry = t0 + self.delay.0;
                    let mut r = results.borrow_mut();
                    r.rounds += 1;
                    // Timestamps are TSC cycle counts; they stay in the
                    // integer domain end to end (DESIGN.md §12). The raw
                    // pairs stage here and fold at flush time (§14).
                    let full = r.stage.push(0, ctx.now, Cycles(t2.saturating_sub(t1)))
                        | r.stage
                            .push(1, ctx.now, Cycles(t1.saturating_sub(est_expiry)));
                    if full {
                        r.flush_staged();
                    }
                }
                // A tiny bit of user-mode bookkeeping CPU.
                Step::Busy {
                    cycles: Cycles(600),
                    label: wdm_sim::labels::Label::KERNEL,
                }
            }
        }
    }
}

/// Handles to one installed measurement tool instance.
pub struct LatencyTool {
    /// Tool name ("rt28", "rt24").
    pub name: String,
    /// The measurement thread's priority.
    pub priority: u8,
    /// The measurement kernel thread.
    pub thread: ThreadId,
    /// The timer DPC.
    pub dpc: DpcId,
    /// The single-shot timer.
    pub timer: TimerId,
    /// The synchronization event between DPC and thread.
    pub event: EventId,
    /// The recurring IRP.
    pub irp: IrpId,
    /// Latencies computed by the control application; `Some` only for a
    /// tool installed with `record` set.
    pub results: Option<Rc<RefCell<ToolResults>>>,
}

impl LatencyTool {
    /// Installs a measurement tool: timer + DPC + RT thread + control app.
    ///
    /// `period_ms` is the `ARBITRARY_DELAY` between reads; the paper runs
    /// the PIT at 1 kHz and measures once per expiry. With `record` unset
    /// the control application runs the same loop but keeps no results.
    pub fn install(
        k: &mut Kernel,
        name: &str,
        priority: u8,
        period_ms: f64,
        record: bool,
    ) -> LatencyTool {
        let cpu_hz = k.config().cpu_hz;
        let completion = k.create_event(false);
        let irp = k.create_irp(3, Some(completion));
        let asb0 = k.irp(irp).asb_slot(0);
        let asb1 = k.irp(irp).asb_slot(1);
        let asb2 = k.irp(irp).asb_slot(2);
        let event = k.create_event(false);
        // LatDpcRoutine (§2.2.3): stamp ASB[1], signal the thread.
        let dpc = k.create_dpc(
            format!("{name}-lat-dpc"),
            Box::new(wdm_sim::step::OpSeq::new(vec![
                Step::ReadTsc(asb1),
                Step::SetEvent(event),
                Step::Return,
            ])),
        );
        let timer = k.create_timer(Some(dpc));
        let thread = k.create_thread(
            format!("{name}-lat-thread"),
            priority,
            Box::new(LatThreadFunc {
                event,
                asb2,
                irp,
                phase: 0,
            }),
        );
        let results = record.then(|| Rc::new(RefCell::new(ToolResults::new(name, cpu_hz))));
        let _control = k.create_thread(
            format!("{name}-control-app"),
            9, // A normal-priority user process.
            Box::new(ControlApp {
                timer,
                delay: Cycles::from_ms_at(period_ms, cpu_hz),
                completion,
                asb0,
                asb1,
                asb2,
                results: results.clone(),
                phase: 0,
            }),
        );
        LatencyTool {
            name: name.to_string(),
            priority,
            thread,
            dpc,
            timer,
            event,
            irp,
            results,
        }
    }
}

/// The priority-28 tool's DPC chain: every stage of the tick -> DPC path.
pub struct DpcTruth {
    /// The PIT interrupt latency of the tick that queued the DPC — one
    /// sample per measurement round, so Table 3's "H/W Int. to S/W ISR"
    /// row is consistent event-for-event with the DPC rows.
    pub round_int: LatencySeries,
    /// Queue to start (the paper's DPC latency).
    pub lat: LatencySeries,
    /// Hardware assert to DPC start (DPC interrupt latency).
    pub int: LatencySeries,
    /// PIT ISR start to DPC start ("S/W ISR to DPC", Table 3).
    pub isr_to_dpc: LatencySeries,
}

/// A measurement thread's chain. The recent activations of the DPC that
/// signals the thread tie each wakeup to the tick behind it.
pub struct ThreadTruth {
    thread: ThreadId,
    /// The DPC whose `SetEvent` readies the thread.
    dpc: DpcId,
    /// That DPC's recent (queued, started) activations.
    ring: VecDeque<(Instant, Instant)>,
    /// Stage series id of `lat`; `int` takes the next one.
    sid: u16,
    /// Readied (KeSetEvent) to first instruction (thread latency).
    pub lat: LatencySeries,
    /// Hardware assert to first instruction (thread interrupt latency).
    pub int: LatencySeries,
}

impl ThreadTruth {
    fn new(tool: &LatencyTool, sid: u16, cpu_hz: u64) -> ThreadTruth {
        ThreadTruth {
            thread: tool.thread,
            dpc: tool.dpc,
            ring: VecDeque::with_capacity(RING),
            sid,
            lat: LatencySeries::new("thread latency", cpu_hz),
            int: LatencySeries::new("thread interrupt latency", cpu_hz),
        }
    }
}

// Stage series ids of the collector's nine series, in the order
// `TruthCollector::flush_staged` folds them.
const PIT_INT: u16 = 0;
const DPC_LAT: u16 = 1;
const DPC_INT: u16 = 2;
const ROUND_INT: u16 = 3;
const ISR_TO_DPC: u16 = 4;
const THREAD_28: u16 = 5;
const THREAD_24: u16 = 7;

/// Exact latency series from simulator instrumentation, for the session's
/// two tools.
///
/// Uses ring buffers of recent PIT and DPC events to associate each stage
/// of the ISR -> DPC -> thread chain with the hardware assertion that
/// caused it, even when stages are delayed past subsequent ticks. It
/// records only the series a cell returns: every PIT tick, the
/// priority-28 DPC's chain and both threads' chains. The priority-24 DPC
/// records nothing; its activation ring serves its thread's chain.
pub struct TruthCollector {
    pit_vector: VectorId,
    pit_ring: VecDeque<(Instant, Instant)>, // (asserted, isr started)
    /// PIT interrupt latency (hardware assert to first ISR instruction),
    /// sampled on **every** tick.
    pub pit_int: LatencySeries,
    /// The priority-28 tool's DPC chain.
    pub dpc28: DpcTruth,
    /// The priority-28 tool's thread chain.
    pub thread28: ThreadTruth,
    /// The priority-24 tool's thread chain.
    pub thread24: ThreadTruth,
    /// Raw-sample staging shared by the nine series.
    stage: SampleStage,
}

/// Entries each ring of recent events keeps.
const RING: usize = 256;

/// Appends `entry` to a ring of recent events, dropping the oldest once the
/// ring holds [`RING`] entries.
fn push_recent(ring: &mut VecDeque<(Instant, Instant)>, entry: (Instant, Instant)) {
    if ring.len() == RING {
        ring.pop_front();
    }
    ring.push_back(entry);
}

/// Latest PIT (assertion, ISR start) pair asserted at or before `t`.
fn pit_entry_before(ring: &VecDeque<(Instant, Instant)>, t: Instant) -> Option<(Instant, Instant)> {
    ring.iter()
        .rev()
        .find(|&&(asserted, _)| asserted <= t)
        .copied()
}

/// Latest PIT ISR start at or before `t`.
fn pit_start_before(ring: &VecDeque<(Instant, Instant)>, t: Instant) -> Option<Instant> {
    ring.iter()
        .rev()
        .find(|&&(_, started)| started <= t)
        .map(|&(_, s)| s)
}

impl TruthCollector {
    /// Creates a collector for the kernel's PIT and the session's two
    /// tools.
    pub fn new(k: &Kernel, rt28: &LatencyTool, rt24: &LatencyTool) -> TruthCollector {
        let hz = k.config().cpu_hz;
        let mut stage = SampleStage::new(60 * hz);
        stage.register_series(9);
        TruthCollector {
            pit_vector: k.pit_vector(),
            pit_ring: VecDeque::with_capacity(RING),
            pit_int: LatencySeries::new("PIT interrupt latency", hz),
            dpc28: DpcTruth {
                round_int: LatencySeries::new("interrupt latency (per round)", hz),
                lat: LatencySeries::new("DPC latency", hz),
                int: LatencySeries::new("DPC interrupt latency", hz),
                isr_to_dpc: LatencySeries::new("ISR to DPC", hz),
            },
            thread28: ThreadTruth::new(rt28, THREAD_28, hz),
            thread24: ThreadTruth::new(rt24, THREAD_24, hz),
            stage,
        }
    }

    /// Drains every staged sample into its series. Idempotent; must run
    /// before any series is read or moved out.
    pub fn flush_staged(&mut self) {
        if self.stage.is_empty() {
            return;
        }
        self.stage.partition();
        let d = &mut self.dpc28;
        let series = [
            &mut self.pit_int,
            &mut d.lat,
            &mut d.int,
            &mut d.round_int,
            &mut d.isr_to_dpc,
            &mut self.thread28.lat,
            &mut self.thread28.int,
            &mut self.thread24.lat,
            &mut self.thread24.int,
        ];
        for (sid, s) in (PIT_INT..).zip(series) {
            self.stage.fold_into(sid, s);
        }
        self.stage.reset();
    }

    /// Completed stage flushes (bench accounting).
    pub fn batch_flushes(&self) -> u64 {
        self.stage.batch_flushes()
    }

    /// Samples that went through the stage (bench accounting).
    pub fn staged_samples(&self) -> u64 {
        self.stage.staged_samples()
    }

    /// High-water mark of staged triples (the stage-occupancy gauge).
    pub fn peak_staged(&self) -> usize {
        self.stage.peak_staged()
    }
}

impl Observer for TruthCollector {
    /// The PIT vector, the two tools' DPCs and their two threads.
    fn subscription(&self) -> Subscription {
        Subscription {
            isr_enter: Objects::Only(vec![self.pit_vector]),
            dpc_start: Objects::Only(vec![self.thread28.dpc, self.thread24.dpc]),
            thread_resume: Objects::Only(vec![self.thread28.thread, self.thread24.thread]),
            resume_blame: Objects::None,
        }
    }

    fn on_isr_enter(&mut self, e: &IsrEnter) {
        debug_assert_eq!(e.vector, self.pit_vector, "routed the PIT only");
        let full = self.stage.push(PIT_INT, e.started, e.started - e.asserted);
        push_recent(&mut self.pit_ring, (e.asserted, e.started));
        if full {
            self.flush_staged();
        }
    }

    fn on_dpc_start(&mut self, e: &DpcStart) {
        let (queued, started) = (e.queued, e.started);
        if e.dpc == self.thread24.dpc {
            push_recent(&mut self.thread24.ring, (queued, started));
            return;
        }
        debug_assert_eq!(e.dpc, self.thread28.dpc, "routed the tool DPCs only");
        push_recent(&mut self.thread28.ring, (queued, started));
        let mut full = self.stage.push(DPC_LAT, started, started - queued);
        if let Some((asserted, isr_started)) = pit_entry_before(&self.pit_ring, queued) {
            full |= self.stage.push(DPC_INT, started, started - asserted);
            full |= self.stage.push(ROUND_INT, started, isr_started - asserted);
        }
        if let Some(isr_started) = pit_start_before(&self.pit_ring, queued) {
            full |= self.stage.push(ISR_TO_DPC, started, started - isr_started);
        }
        if full {
            self.flush_staged();
        }
    }

    fn on_thread_resume(&mut self, e: &ThreadResume) {
        let t = if e.thread == self.thread28.thread {
            &self.thread28
        } else {
            debug_assert_eq!(
                e.thread, self.thread24.thread,
                "routed the tool threads only"
            );
            &self.thread24
        };
        let mut full = self.stage.push(t.sid, e.started, e.started - e.readied);
        // The signal came from inside the DPC's execution: find the DPC
        // activation that readied us, then the PIT assert that queued it.
        let queued = t
            .ring
            .iter()
            .rev()
            .find(|&&(_, started)| started <= e.readied)
            .map(|&(q, _)| q);
        if let Some((asserted, _)) = queued.and_then(|q| pit_entry_before(&self.pit_ring, q)) {
            full |= self.stage.push(t.sid + 1, e.started, e.started - asserted);
        }
        if full {
            self.flush_staged();
        }
    }
}

/// A complete measurement session: the paper's tool pair (priority 28 and
/// 24 threads) plus exact instrumentation.
pub struct MeasurementSession {
    /// High real-time priority tool (Win32 priority 28).
    pub rt28: LatencyTool,
    /// Default real-time priority tool (Win32 priority 24).
    pub rt24: LatencyTool,
    /// Exact latency series from simulator instrumentation.
    pub truth: Rc<RefCell<TruthCollector>>,
}

impl MeasurementSession {
    /// Installs both tools and the truth collector.
    pub fn install(k: &mut Kernel, period_ms: f64) -> MeasurementSession {
        let rt28 = LatencyTool::install(k, "rt28", 28, period_ms, true);
        let rt24 = LatencyTool::install(k, "rt24", 24, period_ms, false);
        let truth = Rc::new(RefCell::new(TruthCollector::new(k, &rt28, &rt24)));
        k.add_observer(truth.clone());
        MeasurementSession { rt28, rt24, truth }
    }

    /// [`Self::install`] behind a recording flag that must be `true`:
    /// staging is the only recording path. Kept only because perfbench's
    /// set-up replica (`perfbench/src/pass.rs`) still passes
    /// [`crate::session::MeasureOptions::batch_record`] here.
    pub fn install_with(k: &mut Kernel, period_ms: f64, batch_record: bool) -> MeasurementSession {
        assert!(batch_record, "staged recording is the only recording path");
        MeasurementSession::install(k, period_ms)
    }

    /// The priority-28 tool's results — the session's only recording
    /// tool.
    pub fn rt28_results(&self) -> &RefCell<ToolResults> {
        self.rt28.results.as_deref().expect("the rt28 tool records")
    }

    /// Drains every staged sample in the session into its series. Call
    /// after running and before reading any series or count.
    pub fn flush(&self) {
        self.rt28_results().borrow_mut().flush_staged();
        self.truth.borrow_mut().flush_staged();
    }

    /// Completed stage flushes across the session's collectors (bench
    /// accounting; the denominator of perfbench's
    /// `latency.samples_per_flush`).
    pub fn batch_flushes(&self) -> u64 {
        self.rt28_results().borrow().batch_flushes() + self.truth.borrow().batch_flushes()
    }

    /// Samples staged across the session's collectors (bench accounting;
    /// the numerator of perfbench's `latency.samples_per_flush`).
    pub fn staged_samples(&self) -> u64 {
        self.rt28_results().borrow().staged_samples() + self.truth.borrow().staged_samples()
    }

    /// Largest high-water mark among the session's staging buffers — the
    /// source of the `latency.stage.peak` gauge (max-wins across shards).
    pub fn peak_staged(&self) -> usize {
        let rt28 = self.rt28_results().borrow().peak_staged();
        rt28.max(self.truth.borrow().peak_staged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::config::KernelConfig;

    #[test]
    fn tool_measures_on_idle_machine() {
        let mut k = Kernel::new(KernelConfig::default());
        let session = MeasurementSession::install(&mut k, 1.0);
        k.run_for(Cycles::from_ms(500.0));
        session.flush();
        let r28 = session.rt28_results().borrow();
        assert!(
            r28.rounds > 100,
            "tool should complete many rounds: {}",
            r28.rounds
        );
        // Idle machine: thread latency well under a quarter millisecond.
        assert!(r28.dpc_to_thread.hist.max_ms() < 0.25);
        let truth = session.truth.borrow();
        assert!(truth.pit_int.hist.count() > 400);
        let tl = &truth.thread28.lat;
        assert!(tl.hist.count() > 100);
        assert!(tl.hist.max_ms() < 0.25);
    }

    #[test]
    fn estimated_latency_close_to_truth_within_tick() {
        let mut k = Kernel::new(KernelConfig::default());
        let session = MeasurementSession::install(&mut k, 1.0);
        k.run_for(Cycles::from_ms(500.0));
        session.flush();
        let r = session.rt28_results().borrow();
        let truth = session.truth.borrow();
        let est = r.est_int_to_dpc.hist.mean_ms();
        let exact = truth.dpc28.int.hist.mean_ms();
        // The paper accepts +/- one PIT period (1 ms) of estimation error.
        assert!(
            (est - exact).abs() <= 1.0,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn rt24_no_worse_than_rt28_on_idle() {
        let mut k = Kernel::new(KernelConfig::default());
        let session = MeasurementSession::install(&mut k, 1.0);
        k.run_for(Cycles::from_ms(300.0));
        session.flush();
        let truth = session.truth.borrow();
        let l28 = truth.thread28.lat.hist.max_ms();
        let l24 = truth.thread24.lat.hist.max_ms();
        // With no load there is nothing at priority 24 to hide behind,
        // though the rt28 tool's own activity can add a hair.
        assert!(l24 < l28 + 0.2, "idle: 24 ({l24}) ~ 28 ({l28})");
    }

    #[test]
    fn collectors_stage_only_the_series_a_cell_returns() {
        // Every staged sample lands in a series the cell keeps: the
        // collector's nine (the priority-24 DPC stages nothing) and the
        // priority-28 tool's two ASB series. The priority-24 tool keeps no
        // results at all.
        let mut k = Kernel::new(KernelConfig::default());
        let session = MeasurementSession::install(&mut k, 1.0);
        k.run_for(Cycles::from_ms(500.0));
        session.flush();
        let truth = session.truth.borrow();
        let d = &truth.dpc28;
        let truth_series = [
            &truth.pit_int,
            &d.round_int,
            &d.lat,
            &d.int,
            &d.isr_to_dpc,
            &truth.thread28.lat,
            &truth.thread28.int,
            &truth.thread24.lat,
            &truth.thread24.int,
        ];
        let recorded: u64 = truth_series.iter().map(|s| s.hist.count()).sum();
        assert!(truth.thread24.int.hist.count() > 100, "rt24 chain records");
        assert_eq!(truth.staged_samples(), recorded);
        let r28 = session.rt28_results().borrow();
        assert!(r28.rounds > 100);
        assert_eq!(
            r28.staged_samples(),
            r28.dpc_to_thread.hist.count() + r28.est_int_to_dpc.hist.count()
        );
        assert!(session.rt24.results.is_none(), "rt24 records nothing");
        assert_eq!(session.staged_samples(), recorded + r28.staged_samples());
    }
}
