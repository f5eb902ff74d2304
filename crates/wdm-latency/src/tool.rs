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

use std::{
    cell::RefCell,
    collections::{HashMap, VecDeque},
    hash::{BuildHasherDefault, Hasher},
    rc::Rc,
};

use wdm_sim::{
    dpc::DpcImportance,
    ids::{DpcId, EventId, IrpId, ThreadId, TimerId, VectorId, WaitObject},
    kernel::Kernel,
    object::EventKind,
    observer::{DpcStart, Interest, IsrEnter, Observer, ThreadResume},
    step::{Program, Step, StepCtx},
    time::{Cycles, Instant},
};

use crate::{stage::SampleStage, worstcase::LatencySeries};

/// Latencies computed by the control application from the system buffer,
/// exactly as the paper's tool reports them.
#[derive(Debug)]
pub struct ToolResults {
    /// `ASB[2] - ASB[1]`: DPC to thread (the paper's thread latency).
    pub dpc_to_thread: LatencySeries,
    /// `ASB[1] - (ASB[0] + delay)`: estimated interrupt+DPC latency, with
    /// the ±1 tick resolution the paper accepts (clamped at zero).
    pub est_int_to_dpc: LatencySeries,
    /// `ASB[2] - (ASB[0] + delay)`: estimated interrupt-to-thread latency.
    pub est_int_to_thread: LatencySeries,
    /// Measurement rounds completed.
    pub rounds: u64,
    /// Raw-sample staging (DESIGN.md §13); sids 0..3 map to the three
    /// series above in declaration order.
    stage: SampleStage,
    /// Batched recording on (the default). Off = the per-sample reference
    /// path (`--no-batch-record`); bit-identical output either way because
    /// every series accumulator is order-free exact integer state
    /// (DESIGN.md §14).
    batch: bool,
}

impl ToolResults {
    fn new(name: &str, cpu_hz: u64, batch: bool) -> ToolResults {
        let mut stage = SampleStage::new(60 * cpu_hz);
        stage.register_series(3);
        ToolResults {
            dpc_to_thread: LatencySeries::new(&format!("{name}: DPC->thread"), cpu_hz),
            est_int_to_dpc: LatencySeries::new(&format!("{name}: est int->DPC"), cpu_hz),
            est_int_to_thread: LatencySeries::new(&format!("{name}: est int->thread"), cpu_hz),
            rounds: 0,
            stage,
            batch,
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
        self.stage.fold_into(2, &mut self.est_int_to_thread);
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
    results: Rc<RefCell<ToolResults>>,
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
                let t0 = ctx.board.read(self.asb0);
                let t1 = ctx.board.read(self.asb1);
                let t2 = ctx.board.read(self.asb2);
                let est_expiry = t0 + self.delay.0;
                let mut r = self.results.borrow_mut();
                r.rounds += 1;
                // Timestamps are TSC cycle counts; they stay in the integer
                // domain end to end (DESIGN.md §12). The batched path stages
                // raw triples and folds at flush time (§13); the reference
                // path folds per sample. Identical digests either way.
                if r.batch {
                    let full = r.stage.push(0, ctx.now, Cycles(t2.saturating_sub(t1)))
                        | r.stage.push(1, ctx.now, Cycles(t1.saturating_sub(est_expiry)))
                        | r.stage.push(2, ctx.now, Cycles(t2.saturating_sub(est_expiry)));
                    if full {
                        r.flush_staged();
                    }
                } else {
                    r.dpc_to_thread
                        .record_cycles(ctx.now, Cycles(t2.saturating_sub(t1)));
                    r.est_int_to_dpc
                        .record_cycles(ctx.now, Cycles(t1.saturating_sub(est_expiry)));
                    r.est_int_to_thread
                        .record_cycles(ctx.now, Cycles(t2.saturating_sub(est_expiry)));
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
    /// Latencies computed by the control application.
    pub results: Rc<RefCell<ToolResults>>,
}

impl LatencyTool {
    /// Installs a measurement tool: timer + DPC + RT thread + control app.
    ///
    /// `period_ms` is the `ARBITRARY_DELAY` between reads; the paper runs
    /// the PIT at 1 kHz and measures once per expiry.
    pub fn install(k: &mut Kernel, name: &str, priority: u8, period_ms: f64) -> LatencyTool {
        LatencyTool::install_with(k, name, priority, period_ms, true)
    }

    /// [`Self::install`] with an explicit batched-recording toggle
    /// (`--no-batch-record` passes `false` for the per-sample reference
    /// path).
    pub fn install_with(
        k: &mut Kernel,
        name: &str,
        priority: u8,
        period_ms: f64,
        batch: bool,
    ) -> LatencyTool {
        let cpu_hz = k.config().cpu_hz;
        let completion = k.create_event(EventKind::Synchronization, false);
        let irp = k.create_irp(3, Some(completion));
        let asb0 = k.irp(irp).asb_slot(0);
        let asb1 = k.irp(irp).asb_slot(1);
        let asb2 = k.irp(irp).asb_slot(2);
        let event = k.create_event(EventKind::Synchronization, false);
        // LatDpcRoutine (§2.2.3): stamp ASB[1], signal the thread.
        let dpc = k.create_dpc(
            &format!("{name}-lat-dpc"),
            DpcImportance::Medium,
            Box::new(wdm_sim::step::OpSeq::new(vec![
                Step::ReadTsc(asb1),
                Step::SetEvent(event),
                Step::Return,
            ])),
        );
        let timer = k.create_timer(Some(dpc));
        let thread = k.create_thread(
            &format!("{name}-lat-thread"),
            priority,
            Box::new(LatThreadFunc {
                event,
                asb2,
                irp,
                phase: 0,
            }),
        );
        let results = Rc::new(RefCell::new(ToolResults::new(name, cpu_hz, batch)));
        let _control = k.create_thread(
            &format!("{name}-control-app"),
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

/// Pass-through hasher for the collector's id-keyed maps.
///
/// `DpcId`/`ThreadId` are small dense indices; the observer callbacks look
/// them up on every measured event, so the default SipHash is a measurable
/// share of a long simulation's wall clock. The id itself is already a
/// perfectly good hash.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = v as u64;
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A `HashMap` keyed by simulator ids, hashed by identity.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Per-DPC truth series: every stage of the tick -> DPC chain, plus the
/// ring of recent activations that associates thread wakeups with the
/// assertion that caused them. One map entry per watched DPC — the
/// observer callbacks fire on every measured event, so the four series
/// share a single lookup instead of one hash probe each.
pub struct DpcTruth {
    /// Recent (queued, started) activations.
    ring: VecDeque<(Instant, Instant)>,
    /// First of four consecutive stage series ids: `lat`, `int`,
    /// `round_int`, `isr_to_dpc` in that order.
    sid: u16,
    /// The PIT interrupt latency of the tick that queued this DPC — one
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

/// Per-thread truth series, keyed by the DPC that signals the thread.
pub struct ThreadTruth {
    /// The DPC whose `SetEvent` readies this thread.
    from_dpc: DpcId,
    /// First of two consecutive stage series ids: `lat`, `int`.
    sid: u16,
    /// Readied (KeSetEvent) to first instruction (thread latency).
    pub lat: LatencySeries,
    /// Hardware assert to first instruction (thread interrupt latency).
    pub int: LatencySeries,
}

/// Exact latency series from simulator instrumentation.
///
/// Uses ring buffers of recent PIT and DPC events to associate each stage
/// of the ISR -> DPC -> thread chain with the hardware assertion that
/// caused it, even when stages are delayed past subsequent ticks.
pub struct TruthCollector {
    cpu_hz: u64,
    pit_vector: VectorId,
    pit_ring: VecDeque<(Instant, Instant)>, // (asserted, isr started)
    /// Watched DPCs and their latency chains.
    pub dpcs: IdMap<DpcId, DpcTruth>,
    /// Watched threads and their latency chains.
    pub threads: IdMap<ThreadId, ThreadTruth>,
    /// PIT interrupt latency (hardware assert to first ISR instruction),
    /// sampled on **every** tick.
    pub pit_int: LatencySeries,
    /// Raw-sample staging shared by every watched series; sid 0 is
    /// `pit_int`, the rest are handed out by `watch_dpc`/`watch_thread`.
    stage: SampleStage,
    /// Batched recording on (see [`ToolResults`]).
    batch: bool,
}

const RING: usize = 256;

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
    /// Creates a collector for the given kernel's PIT.
    pub fn new(k: &Kernel) -> TruthCollector {
        TruthCollector::new_with(k, true)
    }

    /// [`Self::new`] with an explicit batched-recording toggle.
    pub fn new_with(k: &Kernel, batch: bool) -> TruthCollector {
        let cpu_hz = k.config().cpu_hz;
        let mut stage = SampleStage::new(60 * cpu_hz);
        let pit_sid = stage.register_series(1);
        debug_assert_eq!(pit_sid, 0, "pit_int claims sid 0");
        TruthCollector {
            cpu_hz,
            pit_vector: k.pit_vector(),
            pit_ring: VecDeque::with_capacity(RING),
            dpcs: IdMap::default(),
            threads: IdMap::default(),
            pit_int: LatencySeries::new("PIT interrupt latency", cpu_hz),
            stage,
            batch,
        }
    }

    /// Drains every staged sample into its series. Idempotent; must run
    /// before any series is read or removed from the maps.
    pub fn flush_staged(&mut self) {
        if self.stage.is_empty() {
            return;
        }
        self.stage.partition();
        // Per-series runs are independent, so map iteration order cannot
        // affect any series' contents.
        self.stage.fold_into(0, &mut self.pit_int);
        for d in self.dpcs.values_mut() {
            self.stage.fold_into(d.sid, &mut d.lat);
            self.stage.fold_into(d.sid + 1, &mut d.int);
            self.stage.fold_into(d.sid + 2, &mut d.round_int);
            self.stage.fold_into(d.sid + 3, &mut d.isr_to_dpc);
        }
        for t in self.threads.values_mut() {
            self.stage.fold_into(t.sid, &mut t.lat);
            self.stage.fold_into(t.sid + 1, &mut t.int);
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

    /// Watches a measurement tool's DPC and thread.
    pub fn watch_tool(&mut self, tool: &LatencyTool) {
        self.watch_dpc(tool.dpc);
        self.watch_thread(tool.thread, tool.dpc);
    }

    /// Watches a DPC's latency chain.
    pub fn watch_dpc(&mut self, dpc: DpcId) {
        let hz = self.cpu_hz;
        let stage = &mut self.stage;
        self.dpcs.entry(dpc).or_insert_with(|| DpcTruth {
            ring: VecDeque::with_capacity(RING),
            sid: stage.register_series(4),
            round_int: LatencySeries::new("interrupt latency (per round)", hz),
            lat: LatencySeries::new("DPC latency", hz),
            int: LatencySeries::new("DPC interrupt latency", hz),
            isr_to_dpc: LatencySeries::new("ISR to DPC", hz),
        });
    }

    /// Watches a thread signaled by `from_dpc`.
    pub fn watch_thread(&mut self, t: ThreadId, from_dpc: DpcId) {
        let hz = self.cpu_hz;
        let stage = &mut self.stage;
        self.threads.entry(t).or_insert_with(|| ThreadTruth {
            from_dpc,
            sid: stage.register_series(2),
            lat: LatencySeries::new("thread latency", hz),
            int: LatencySeries::new("thread interrupt latency", hz),
        });
    }

}

impl Observer for TruthCollector {
    fn interest(&self) -> Interest {
        Interest::ISR_ENTER | Interest::DPC_START | Interest::THREAD_RESUME
    }

    fn on_isr_enter(&mut self, e: &IsrEnter) {
        if e.vector != self.pit_vector {
            return;
        }
        let full = if self.batch {
            self.stage.push(0, e.started, e.started - e.asserted)
        } else {
            self.pit_int.record_cycles(e.started, e.started - e.asserted);
            false
        };
        if self.pit_ring.len() == RING {
            self.pit_ring.pop_front();
        }
        self.pit_ring.push_back((e.asserted, e.started));
        if full {
            self.flush_staged();
        }
    }

    fn on_dpc_start(&mut self, e: &DpcStart) {
        let Some(d) = self.dpcs.get_mut(&e.dpc) else {
            return;
        };
        if d.ring.len() == RING {
            d.ring.pop_front();
        }
        d.ring.push_back((e.queued, e.started));
        let queued = e.queued;
        let started = e.started;
        let mut full = false;
        if self.batch {
            full |= self.stage.push(d.sid, started, started - queued);
            if let Some((asserted, isr_started)) = pit_entry_before(&self.pit_ring, queued) {
                full |= self.stage.push(d.sid + 1, started, started - asserted);
                full |= self.stage.push(d.sid + 2, started, isr_started - asserted);
            }
            if let Some(isr_started) = pit_start_before(&self.pit_ring, queued) {
                full |= self.stage.push(d.sid + 3, started, started - isr_started);
            }
        } else {
            d.lat.record_cycles(started, started - queued);
            if let Some((asserted, isr_started)) = pit_entry_before(&self.pit_ring, queued) {
                d.int.record_cycles(started, started - asserted);
                d.round_int.record_cycles(started, isr_started - asserted);
            }
            if let Some(isr_started) = pit_start_before(&self.pit_ring, queued) {
                d.isr_to_dpc.record_cycles(started, started - isr_started);
            }
        }
        if full {
            self.flush_staged();
        }
    }

    fn on_thread_resume(&mut self, e: &ThreadResume) {
        let Some(t) = self.threads.get_mut(&e.thread) else {
            return;
        };
        let mut full = false;
        if self.batch {
            full |= self.stage.push(t.sid, e.started, e.started - e.readied);
        } else {
            t.lat.record_cycles(e.started, e.started - e.readied);
        }
        let from_dpc = t.from_dpc;
        // The signal came from inside the DPC's execution: find the DPC
        // activation that readied us, then the PIT assert that queued it.
        let queued = self
            .dpcs
            .get(&from_dpc)
            .and_then(|d| d.ring.iter().rev().find(|&&(_, started)| started <= e.readied))
            .map(|&(q, _)| q);
        if let Some(q) = queued {
            if let Some((asserted, _)) = pit_entry_before(&self.pit_ring, q) {
                let t = self.threads.get_mut(&e.thread).expect("watched above");
                if self.batch {
                    full |= self.stage.push(t.sid + 1, e.started, e.started - asserted);
                } else {
                    t.int.record_cycles(e.started, e.started - asserted);
                }
            }
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
        MeasurementSession::install_with(k, period_ms, true)
    }

    /// [`Self::install`] with an explicit batched-recording toggle
    /// (`--no-batch-record` passes `false`).
    pub fn install_with(k: &mut Kernel, period_ms: f64, batch: bool) -> MeasurementSession {
        let rt28 = LatencyTool::install_with(k, "rt28", 28, period_ms, batch);
        let rt24 = LatencyTool::install_with(k, "rt24", 24, period_ms, batch);
        let mut truth = TruthCollector::new_with(k, batch);
        truth.watch_tool(&rt28);
        truth.watch_tool(&rt24);
        let truth = Rc::new(RefCell::new(truth));
        k.add_observer(truth.clone());
        MeasurementSession { rt28, rt24, truth }
    }

    /// Drains every staged sample in the session into its series. Call
    /// after running and before reading any series or count.
    pub fn flush(&self) {
        self.rt28.results.borrow_mut().flush_staged();
        self.rt24.results.borrow_mut().flush_staged();
        self.truth.borrow_mut().flush_staged();
    }

    /// Completed stage flushes across the session's collectors (bench
    /// accounting; the denominator of perfbench's
    /// `latency.samples_per_flush`).
    pub fn batch_flushes(&self) -> u64 {
        self.rt28.results.borrow().batch_flushes()
            + self.rt24.results.borrow().batch_flushes()
            + self.truth.borrow().batch_flushes()
    }

    /// Samples staged across the session's collectors (bench accounting;
    /// the numerator of perfbench's `latency.samples_per_flush`).
    pub fn staged_samples(&self) -> u64 {
        self.rt28.results.borrow().staged_samples()
            + self.rt24.results.borrow().staged_samples()
            + self.truth.borrow().staged_samples()
    }

    /// Largest high-water mark among the session's staging buffers — the
    /// source of the `latency.stage.peak` gauge (max-wins across shards).
    pub fn peak_staged(&self) -> usize {
        self.rt28
            .results
            .borrow()
            .peak_staged()
            .max(self.rt24.results.borrow().peak_staged())
            .max(self.truth.borrow().peak_staged())
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
        let r28 = session.rt28.results.borrow();
        assert!(
            r28.rounds > 100,
            "tool should complete many rounds: {}",
            r28.rounds
        );
        // Idle machine: thread latency well under a quarter millisecond.
        assert!(r28.dpc_to_thread.hist.max_ms() < 0.25);
        let truth = session.truth.borrow();
        assert!(truth.pit_int.hist.count() > 400);
        let tl = &truth.threads[&session.rt28.thread].lat;
        assert!(tl.hist.count() > 100);
        assert!(tl.hist.max_ms() < 0.25);
    }

    #[test]
    fn estimated_latency_close_to_truth_within_tick() {
        let mut k = Kernel::new(KernelConfig::default());
        let session = MeasurementSession::install(&mut k, 1.0);
        k.run_for(Cycles::from_ms(500.0));
        session.flush();
        let r = session.rt28.results.borrow();
        let truth = session.truth.borrow();
        let est = r.est_int_to_dpc.hist.mean_ms();
        let exact = truth.dpcs[&session.rt28.dpc].int.hist.mean_ms();
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
        let l28 = truth.threads[&session.rt28.thread].lat.hist.max_ms();
        let l24 = truth.threads[&session.rt24.thread].lat.hist.max_ms();
        // With no load there is nothing at priority 24 to hide behind,
        // though the rt28 tool's own activity can add a hair.
        assert!(l24 < l28 + 0.2, "idle: 24 ({l24}) ~ 28 ({l28})");
    }
}
