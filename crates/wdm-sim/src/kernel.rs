//! The simulated WDM kernel: a single CPU executing the scheduling
//! hierarchy of the paper's §4.1.
//!
//! The hierarchy, from most to least privileged:
//!
//! 1. **Interrupt service routines** at DIRQL..HIGH — preempt everything
//!    below their IRQL; delayed only by interrupt-disabled (`cli`) windows
//!    and higher-IRQL activity.
//! 2. **Deferred procedure calls** at DISPATCH — run after all ISRs retire,
//!    FIFO, never preempting one another.
//! 3. **Real-time priority threads** (16–31) and **normal threads** (1–15)
//!    — fixed-priority preemptive with round-robin quanta.
//!
//! On Windows 98 the hierarchy is complicated by legacy non-preemptible
//! kernel sections that block thread dispatch while letting ISRs and DPCs
//! run; those are modeled as *section* frames injected by environment
//! sources (see [`crate::env`]).
//!
//! The kernel is a discrete-event simulator: simulated code is a set of
//! [`Program`]s yielding [`Step`]s, and the main loop advances the TSC to
//! the next decision point (hardware event, busy-chunk completion, quantum
//! expiry). Everything is deterministic given the configuration seed.

use std::{any::Any, cell::RefCell, collections::VecDeque, rc::Rc};

use rand::{rngs::StdRng, RngCore, SeedableRng};

use crate::{
    arena::{ThreadTable, TimerTable},
    calendar::Calendar,
    config::KernelConfig,
    dpc::DpcQueue,
    env::{EnvAction, EnvSource},
    flight::{CalendarPopKind, FlightEvent, FlightRecorder},
    ids::{DpcId, EventId, IrpId, SemId, Slot, SourceId, ThreadId, TimerId, VectorId, WaitObject},
    interrupt::InterruptController,
    irp::Irp,
    irql::Irql,
    labels::{Label, SymbolTable},
    object::{KEvent, KSemaphore},
    observer::{
        BlameBreakdown, DpcStart, Interest, IsrEnter, Objects, Observer, ResumeBlame, ThreadResume,
    },
    sched::ReadyQueues,
    step::{Blackboard, ExecState, Program, Step, StepCtx},
    thread::{Tcb, ThreadState},
    time::{Cycles, Instant},
    timer::{KTimer, Pit},
};

/// A DPC object: a routine plus queueing metadata.
pub struct DpcObject {
    /// Debug name.
    pub name: String,
    /// The routine; taken out while executing.
    program: Option<Box<dyn Program>>,
    /// Executions so far.
    pub run_count: u64,
}

/// ISR body for a vector: a user program, or the kernel's internal clock
/// ISR for the PIT vector.
enum IsrBody {
    User { program: Option<Box<dyn Program>> },
    Pit,
}

/// One level of the preemption stack above the running thread.
struct Frame {
    kind: FrameKind,
    exec: ExecState,
    /// Effective IRQL of the stack up to and including this frame,
    /// snapshotted at push time. Valid for the frame's whole lifetime: the
    /// fold over the stack is a monotone max over a PASSIVE base, and
    /// frames below never change. Makes the decision loop's per-iteration
    /// [`Kernel::irql`] O(1).
    irql: Irql,
}

enum FrameKind {
    /// An interrupt being serviced. `phase`: 0 = entry overhead, 1 = body,
    /// 2 = exit overhead.
    Isr {
        vector: VectorId,
        /// The vector's IRQL, cached at dispatch so the per-iteration
        /// effective-IRQL walk needs no interrupt-controller lookup.
        irql: Irql,
        asserted: Instant,
        interrupted: Label,
        program: Option<Box<dyn Program>>,
        is_pit: bool,
        phase: u8,
    },
    /// The DPC drain loop at DISPATCH level.
    DpcDrain { current: Option<CurrentDpc> },
    /// An interrupt-disabled window.
    Cli,
    /// A non-preemptible kernel section: blocks thread dispatch only.
    Section,
}

struct CurrentDpc {
    dpc: DpcId,
    program: Option<Box<dyn Program>>,
    queued: Instant,
    started: bool,
}

/// Cycle accounting by scheduling-hierarchy level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAccount {
    /// Cycles in ISRs (entry/exit overhead included).
    pub isr: u64,
    /// Cycles in DPCs (dispatch overhead included).
    pub dpc: u64,
    /// Cycles in interrupt-disabled windows injected by the environment.
    pub cli: u64,
    /// Cycles in non-preemptible kernel sections.
    pub section: u64,
    /// Cycles in threads (dispatch/switch overhead included).
    pub thread: u64,
    /// Idle cycles.
    pub idle: u64,
}

impl CycleAccount {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.isr + self.dpc + self.cli + self.section + self.thread + self.idle
    }

    /// Adds another run's accounting level-wise (merging independent
    /// simulation shards of one logical collection).
    pub fn absorb(&mut self, other: &CycleAccount) {
        self.isr += other.isr;
        self.dpc += other.dpc;
        self.cli += other.cli;
        self.section += other.section;
        self.thread += other.thread;
        self.idle += other.idle;
    }
}

/// Snapshot of the blame ledgers at the instant a watched thread was
/// readied, after its wakeup boost, kept in the kernel's mark table (a
/// fixed-size copy, no allocation). The resume emit subtracts it from the
/// live ledgers to produce the exact [`BlameBreakdown`] for the window.
///
/// Of the per-priority ledger it keeps only the two sums the breakdown
/// reads, split at the readied priority: a readied thread's priority
/// cannot change before its resume fires, because only a quantum expiry
/// decays it and the resume is emitted when the thread's dispatch
/// overhead completes, before its first quantum check.
#[derive(Debug, Clone, Copy)]
struct BlameMark {
    account: CycleAccount,
    overhead: u64,
    /// Program cycles of priorities above `priority`.
    above: u64,
    /// Program cycles of priorities at or below `priority`.
    at_or_below: u64,
    priority: u8,
}

type ObserverRc = Rc<RefCell<dyn Observer>>;

/// One hooked kind's delivery routes: for each object id (vector, DPC or
/// thread), the observers subscribed to it, in registration order.
#[derive(Default)]
struct Routes {
    /// Observers subscribed to every object of the kind, in registration
    /// order: the route an object created later starts with.
    every: Vec<ObserverRc>,
    by_object: Vec<Vec<ObserverRc>>,
}

impl Routes {
    /// Opens the route of a newly created object.
    fn add_object(&mut self) {
        self.by_object.push(self.every.clone());
    }

    /// Appends `obs` to the routes of the objects `objects` names.
    ///
    /// # Panics
    ///
    /// If an id names no object of the kind.
    fn subscribe(&mut self, obs: &ObserverRc, objects: Objects<usize>, kind: &str) {
        match objects {
            Objects::None => {}
            Objects::All => {
                self.every.push(obs.clone());
                for route in &mut self.by_object {
                    route.push(obs.clone());
                }
            }
            Objects::Only(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                let n = self.by_object.len();
                for id in ids {
                    assert!(
                        id < n,
                        "subscription names {kind} {id} but the kernel has {n} {kind}s"
                    );
                    self.by_object[id].push(obs.clone());
                }
            }
        }
    }
}

/// Shared handle to an observer; keep a clone to read results after a run.
pub type ObserverHandle<T> = Rc<RefCell<T>>;

/// The simulated machine and kernel.
pub struct Kernel {
    config: KernelConfig,
    now: Instant,
    rng: StdRng,
    symbols: SymbolTable,
    board: Blackboard,
    ic: InterruptController,
    isr_bodies: Vec<IsrBody>,
    /// All time-based wakeups: PIT tick, env arrivals, timer deadlines,
    /// thread sleeps (see [`crate::calendar`]).
    calendar: Calendar,
    pit_vector: VectorId,
    pit_label: Label,
    dpcs: Vec<DpcObject>,
    dpc_queue: DpcQueue,
    timers: TimerTable,
    events: Vec<KEvent>,
    sems: Vec<KSemaphore>,
    irps: Vec<Irp>,
    threads: ThreadTable,
    ready: ReadyQueues,
    current_thread: Option<ThreadId>,
    frames: Vec<Frame>,
    pending_sections: VecDeque<(Cycles, Label)>,
    /// Environment sources. Always `Some` except transiently inside
    /// [`Kernel::fire_env`], which takes the slot to split borrows without
    /// allocating a placeholder source per arrival.
    env: Vec<Option<EnvSource>>,
    /// Per-kind delivery routes, indexed by [`Interest::index`]: each
    /// object's subscribed observers (Rc clones, built at
    /// [`Kernel::add_observer`] and at object creation). Delivery walks
    /// the event's object route only. The flight recorder is never here.
    routes: [Routes; Interest::KINDS],
    /// The flight recorder, recognised at [`Kernel::add_observer`]: the
    /// emit sites push into its ring directly, with no virtual call.
    flight: Option<Rc<RefCell<FlightRecorder>>>,
    /// Union of every registered observer's kinds, the recorder's
    /// included. A hooked kind outside this union costs one branch: no
    /// event value, no route lookup, no ring push.
    interest_union: Interest,
    /// Blame ledger marks by thread. Only a thread with a non-empty
    /// [`Interest::RESUME_BLAME`] route (a watched thread) is ever
    /// marked, at ready time; its resume takes the mark.
    blame_marks: Vec<Option<BlameMark>>,
    resched: bool,
    current_label: Label,
    /// Cycle accounting by hierarchy level.
    pub account: CycleAccount,
    /// Total thread context switches.
    pub context_switches: u64,
    /// Busy chunks that were charged more cycles than they had remaining.
    /// Always zero in a correct run; debug builds also assert on it.
    pub busy_overruns: u64,
    /// Decision-loop iterations executed by [`Kernel::run_until`], one per
    /// time advance. A cheap proxy for simulation work, reported as
    /// `sim_events_per_s` by the repository benchmark (`perfbench/`).
    pub sim_events: u64,
    /// Program steps pulled by the ISR/DPC/thread step functions.
    pub steps_executed: u64,
    /// Calls of those step functions. A thread call runs one step; an ISR
    /// or DPC call runs service steps back to back until a `Busy` step or
    /// `Return`, so `steps_executed / step_dispatches` (perfbench's
    /// `kernel.steps_per_dispatch`) counts only those service-step runs.
    pub step_dispatches: u64,
    /// Event deliveries routed to at least one observer: one per event
    /// whose object route is non-empty, however many observers it holds.
    /// `tests/observer_interest.rs` asserts this counts exactly the routed
    /// events, stays zero for event kinds outside the registered interest
    /// union, and ignores the flight recorder, which the kernel feeds
    /// without a route.
    pub notify_takes: u64,
    /// Dispatch/context-switch overhead cycles, maintained only while an
    /// observer arms [`Interest::RESUME_BLAME`]. Together with
    /// `blame_prio_cycles` this splits `account.thread` exactly, so a
    /// resume window's blame components sum bit-exactly to its latency
    /// (DESIGN.md §15). One branch per charge site when disarmed.
    blame_overhead_cycles: u64,
    /// Thread *program* cycles by the running thread's priority, the other
    /// half of the armed-only `account.thread` split.
    blame_prio_cycles: [u64; 32],
    /// Virtual-time flame sampling period in cycles; 0 = disarmed. When
    /// armed, every simulated-time advance attributes the sample points
    /// (multiples of the period) it crosses to the executing label —
    /// purely observational, so digests are unchanged.
    flame_period: u64,
    /// Virtual samples per label (dense by [`Label`] index).
    flame_counts: Vec<u64>,
    /// Reusable buffer for threads released by a signal; kept empty
    /// between signals so SetEvent/ReleaseSemaphore never allocate.
    wake_scratch: Vec<ThreadId>,
    /// Reusable buffer for due calendar entries popped inside the clock
    /// ISR; kept empty between ticks so `clock_tick_work` never allocates.
    due_scratch: Vec<u32>,
}

impl Kernel {
    /// Builds a kernel from a configuration. The PIT vector is installed
    /// automatically at CLOCK level.
    pub fn new(config: KernelConfig) -> Kernel {
        let mut symbols = SymbolTable::new();
        let pit_label = symbols.intern("HAL", "_HalpClockInterrupt");
        let mut ic = InterruptController::new();
        let pit_vector = ic.install("PIT", Irql::CLOCK);
        let pit = Pit::from_hz(config.pit_hz, config.cpu_hz);
        let seed = config.seed;
        let dpc_discipline = config.dpc_discipline;
        let mut routes: [Routes; Interest::KINDS] = Default::default();
        routes[Interest::ISR_ENTER.index()].add_object(); // The PIT vector.
        Kernel {
            config,
            now: Instant::ZERO,
            rng: StdRng::seed_from_u64(seed),
            symbols,
            board: Blackboard::new(),
            ic,
            isr_bodies: vec![IsrBody::Pit],
            calendar: Calendar::new(pit),
            pit_vector,
            pit_label,
            dpcs: Vec::new(),
            dpc_queue: DpcQueue::new(dpc_discipline),
            timers: TimerTable::default(),
            events: Vec::new(),
            sems: Vec::new(),
            irps: Vec::new(),
            threads: ThreadTable::default(),
            ready: ReadyQueues::new(),
            current_thread: None,
            frames: Vec::new(),
            pending_sections: VecDeque::new(),
            env: Vec::new(),
            routes,
            flight: None,
            interest_union: Interest::NONE,
            blame_marks: Vec::new(),
            resched: false,
            current_label: Label::IDLE,
            account: CycleAccount::default(),
            context_switches: 0,
            busy_overruns: 0,
            sim_events: 0,
            steps_executed: 0,
            step_dispatches: 0,
            notify_takes: 0,
            blame_overhead_cycles: 0,
            blame_prio_cycles: [0; 32],
            flame_period: 0,
            flame_counts: Vec::new(),
            wake_scratch: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Construction-time API
    // ------------------------------------------------------------------

    /// Interns a `module!function` label.
    pub fn intern(&mut self, module: &str, function: &str) -> Label {
        self.symbols.intern(module, function)
    }

    /// Interns a call chain (outermost caller first), returning the
    /// innermost label. The cause tool renders the full chain (§6.1).
    pub fn intern_chain(&mut self, chain: &[(&str, &str)]) -> Label {
        self.symbols.intern_chain(chain)
    }

    /// Read access to the symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Allocates blackboard slots.
    pub fn alloc_slots(&mut self, n: usize) -> Slot {
        self.board.alloc(n)
    }

    /// Reads a blackboard slot.
    pub fn slot(&self, s: Slot) -> u64 {
        self.board.read(s)
    }

    /// Creates a synchronization event object.
    pub fn create_event(&mut self, signaled: bool) -> EventId {
        let id = EventId(self.events.len());
        self.events.push(KEvent::new(signaled));
        id
    }

    /// Creates a semaphore object.
    pub fn create_semaphore(&mut self, initial: u32, limit: u32) -> SemId {
        let id = SemId(self.sems.len());
        self.sems.push(KSemaphore::new(initial, limit));
        id
    }

    /// Creates a kernel timer, optionally bound to a DPC queued at expiry.
    pub fn create_timer(&mut self, dpc: Option<DpcId>) -> TimerId {
        TimerId(self.timers.push(dpc))
    }

    /// Creates a DPC object.
    pub fn create_dpc(&mut self, name: &str, program: Box<dyn Program>) -> DpcId {
        let id = DpcId(self.dpcs.len());
        self.dpcs.push(DpcObject {
            name: name.to_string(),
            program: Some(program),
            run_count: 0,
        });
        self.routes[Interest::DPC_START.index()].add_object();
        id
    }

    /// Creates a kernel thread, initially ready.
    pub fn create_thread(
        &mut self,
        name: &str,
        priority: u8,
        program: Box<dyn Program>,
    ) -> ThreadId {
        let id = ThreadId(self.threads.push(name, priority, program));
        self.routes[Interest::THREAD_RESUME.index()].add_object();
        self.routes[Interest::RESUME_BLAME.index()].add_object();
        self.blame_marks.push(None);
        self.ready.push_back(id, priority);
        self.resched = true;
        id
    }

    /// Installs a device interrupt vector with a user ISR.
    pub fn install_vector(&mut self, name: &str, irql: Irql, isr: Box<dyn Program>) -> VectorId {
        let id = self.ic.install(name, irql);
        debug_assert_eq!(id.0, self.isr_bodies.len());
        self.isr_bodies.push(IsrBody::User { program: Some(isr) });
        self.routes[Interest::ISR_ENTER.index()].add_object();
        id
    }

    /// Adds an environment source and schedules its first arrival.
    pub fn add_env_source(&mut self, mut src: EnvSource) -> SourceId {
        let gap = src.next_gap(&mut self.rng);
        let id = SourceId(self.env.len());
        self.env.push(Some(src));
        self.schedule_env(id.0, self.now + gap);
        id
    }

    /// Enables or disables an environment source (Figure 5 toggles the
    /// virus scanner this way).
    pub fn set_source_enabled(&mut self, id: SourceId, enabled: bool) {
        self.env[id.0].as_mut().expect("source in flight").enabled = enabled;
    }

    /// Creates an IRP with an `asb_len`-slot system buffer.
    pub fn create_irp(&mut self, asb_len: usize, completion_event: Option<EventId>) -> IrpId {
        let asb = self.board.alloc(asb_len);
        let id = IrpId(self.irps.len());
        self.irps.push(Irp::new(asb, asb_len, completion_event));
        id
    }

    /// Read access to an IRP.
    pub fn irp(&self, id: IrpId) -> &Irp {
        &self.irps[id.0]
    }

    /// Registers an observer. Keep a clone of the handle to read results.
    ///
    /// The observer's [`crate::observer::Subscription`] is read here, once;
    /// it must not change afterwards. An event reaches the observer only
    /// if the subscription names its kind and its object (vector, DPC or
    /// thread), and kinds outside the union of all subscriptions are
    /// skipped before the event value is even built. A [`FlightRecorder`]
    /// is recognised here and fed directly by the emit sites instead of
    /// through the routes.
    ///
    /// # Panics
    ///
    /// If a flight recorder is already attached, or if the subscription
    /// lists an id that names no existing object of its kind.
    pub fn add_observer<T: Observer + 'static>(&mut self, obs: ObserverHandle<T>) {
        let subscription = obs.borrow().subscription();
        self.interest_union |= subscription.interest();
        let any: Rc<dyn Any> = obs.clone();
        if let Ok(rec) = any.downcast::<RefCell<FlightRecorder>>() {
            assert!(self.flight.is_none(), "one flight recorder per kernel");
            self.flight = Some(rec);
            return;
        }
        let obs: ObserverRc = obs;
        let names = ["vector", "dpc", "thread", "thread"];
        for (i, objects) in subscription.into_kinds().into_iter().enumerate() {
            self.routes[i].subscribe(&obs, objects, names[i]);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The machine configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The PIT vector id (CLOCK level).
    pub fn pit_vector(&self) -> VectorId {
        self.pit_vector
    }

    /// Read access to a thread's cold record (name, program, stats). The
    /// hot scheduling fields live in SoA columns; use
    /// [`Kernel::thread_state`] / [`Kernel::thread_priority`] for those.
    pub fn thread(&self, id: ThreadId) -> &Tcb {
        &self.threads[id.0]
    }

    /// A thread's scheduling state.
    pub fn thread_state(&self, id: ThreadId) -> ThreadState {
        self.threads.state[id.0]
    }

    /// A thread's current (possibly boosted) priority.
    pub fn thread_priority(&self, id: ThreadId) -> u8 {
        self.threads.priority[id.0]
    }

    /// Number of created threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Read access to a DPC object.
    pub fn dpc(&self, id: DpcId) -> &DpcObject {
        &self.dpcs[id.0]
    }

    /// Number of created DPC objects.
    pub fn num_dpcs(&self) -> usize {
        self.dpcs.len()
    }

    /// Read access to a timer.
    pub fn timer(&self, id: TimerId) -> &KTimer {
        &self.timers[id.0]
    }

    /// Read access to an event.
    pub fn event(&self, id: EventId) -> &KEvent {
        &self.events[id.0]
    }

    /// Read access to an environment source.
    pub fn env_source(&self, id: SourceId) -> &EnvSource {
        self.env[id.0].as_ref().expect("source in flight")
    }

    /// Read access to the interrupt controller.
    pub fn interrupts(&self) -> &InterruptController {
        &self.ic
    }

    /// Label charged for the most recently executed cycles.
    pub fn current_label(&self) -> Label {
        self.current_label
    }

    // ------------------------------------------------------------------
    // External stimuli (tests and drivers between runs)
    // ------------------------------------------------------------------

    /// Asserts a device interrupt now.
    pub fn assert_interrupt(&mut self, v: VectorId) {
        let now = self.now;
        self.ic.assert_line(v, now);
    }

    /// Releases a semaphore from outside the simulation.
    pub fn release_semaphore(&mut self, s: SemId, count: u32) {
        self.do_release_semaphore(s, count);
    }

    /// Arms a timer from outside the simulation (test harness use). Same
    /// semantics as `Step::SetTimer` minus the service-call charge.
    pub fn set_timer(&mut self, timer: TimerId, due: Cycles, period: Option<Cycles>) {
        self.do_set_timer(timer, due, period);
    }

    /// Fingerprint of the RNG stream position: the next value the
    /// generator *would* produce, read from a clone so the stream itself
    /// is not advanced. Equal fingerprints before/after an operation prove
    /// it made no RNG draws.
    pub fn rng_fingerprint(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// Due calendar entries processed so far (pops, stale skips and
    /// due-count visits inside the clock ISR). Grows with *due* events
    /// only — `tests/calendar_equivalence.rs` asserts armed far-future
    /// timers and sleepers do not inflate it.
    pub fn calendar_tick_work(&self) -> u64 {
        self.calendar.tick_work()
    }

    /// Snapshots the kernel's counters into the unified metrics registry
    /// under the `sim.` namespace. Purely observational: reads counters the
    /// kernel maintains anyway, so taking a snapshot never perturbs the
    /// simulation. The cause tool and harness layer their own namespaces
    /// (`latency.`, `harness.`) on top.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        let mut m = crate::metrics::MetricsSnapshot::new();
        m.counter("sim.events", self.sim_events);
        m.counter("sim.steps_executed", self.steps_executed);
        m.counter("sim.step_dispatches", self.step_dispatches);
        m.counter("sim.notify_takes", self.notify_takes);
        m.counter("sim.calendar_tick_work", self.calendar_tick_work());
        m.counter("sim.context_switches", self.context_switches);
        m.counter("sim.busy_overruns", self.busy_overruns);
        m.counter("sim.cycles.isr", self.account.isr);
        m.counter("sim.cycles.dpc", self.account.dpc);
        m.counter("sim.cycles.cli", self.account.cli);
        m.counter("sim.cycles.section", self.account.section);
        m.counter("sim.cycles.thread", self.account.thread);
        m.counter("sim.cycles.idle", self.account.idle);
        m.gauge(
            "sim.calendar.peak_entries",
            self.calendar.peak_entries() as f64,
        );
        m
    }

    // ------------------------------------------------------------------
    // Virtual-time flame sampling (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Arms the deterministic virtual-time flame sampler: every multiple
    /// of `cycles` simulated time crosses counts one sample against the
    /// label executing at that instant. 0 disarms. Purely observational:
    /// run digests are unchanged.
    pub fn set_flame_period(&mut self, cycles: u64) {
        self.flame_period = cycles;
    }

    /// Virtual flame samples per label, dense by [`Label`] index.
    pub fn flame_counts(&self) -> &[u64] {
        &self.flame_counts
    }

    /// Renders the flame samples as collapsed-stack lines — `;`-joined
    /// frame paths, outermost caller first, with their sample counts —
    /// the format `inferno`/`flamegraph.pl` consume. Deterministic:
    /// one line per sampled label, in label-index order.
    pub fn flame_collapsed(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (i, &n) in self.flame_counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let mut frames = Vec::new();
            let mut cur = Some(Label(i as u32));
            let mut depth = 0;
            while let Some(l) = cur {
                frames.push(self.symbols.render(l));
                cur = self.symbols.parent(l);
                depth += 1;
                if depth > 32 {
                    break; // Cyclic registration guard, as in render_chain.
                }
            }
            frames.reverse();
            out.push((frames.join(";"), n));
        }
        out
    }

    /// Counts the sample points in `(from, to]` against `label`. Floor
    /// arithmetic telescopes over adjacent spans, so however a busy chunk
    /// is subdivided by preemptions the total is conserved.
    #[inline]
    fn flame_charge(&mut self, from: Instant, to: Instant, label: Label) {
        let p = self.flame_period;
        debug_assert!(p != 0, "flame_charge while disarmed");
        let k = to.0 / p - from.0 / p;
        if k > 0 {
            let i = label.0 as usize;
            if i >= self.flame_counts.len() {
                self.flame_counts.resize(i + 1, 0);
            }
            self.flame_counts[i] += k;
        }
    }

    /// The per-priority ledger's program cycles above `priority` and at or
    /// below it.
    fn blame_split(&self, priority: u8) -> (u64, u64) {
        let (low, high) = self.blame_prio_cycles.split_at(usize::from(priority) + 1);
        (high.iter().sum(), low.iter().sum())
    }

    /// Builds the exact blame decomposition for a resume window from the
    /// ledger deltas since `mark` (taken when the thread was readied).
    fn build_resume_blame(&self, t: ThreadId, readied: Instant, mark: &BlameMark) -> ResumeBlame {
        let a = &self.account;
        let m = &mark.account;
        let priority = self.threads.priority[t.0];
        debug_assert_eq!(
            priority, mark.priority,
            "a readied thread's priority moved before its resume"
        );
        // Priorities above the resumed thread's preempted it; the rest ran
        // as peers. Each ledger entry only grows, so the difference of two
        // integer sums is the sum of the per-priority deltas.
        let (above, at_or_below) = self.blame_split(priority);
        let preempt = above - mark.above;
        let quantum = at_or_below - mark.at_or_below;
        ResumeBlame {
            thread: t,
            priority,
            readied,
            started: self.now,
            breakdown: BlameBreakdown {
                isr: a.isr - m.isr,
                dpc: a.dpc - m.dpc,
                masked: (a.cli - m.cli) + (a.section - m.section),
                dispatch: self.blame_overhead_cycles - mark.overhead,
                preempt,
                quantum,
                idle: a.idle - m.idle,
            },
        }
    }

    // ------------------------------------------------------------------
    // The main loop
    // ------------------------------------------------------------------

    /// Runs the simulation for a duration.
    pub fn run_for(&mut self, d: Cycles) {
        let end = self.now + d;
        self.run_until(end);
    }

    /// Runs the simulation until an absolute time.
    pub fn run_until(&mut self, t_end: Instant) {
        while self.now < t_end {
            self.sim_events += 1;
            // Horizon for this iteration: one calendar peek covers the PIT
            // tick and the next environment arrival. Timer and sleep
            // deadlines are tick-granular (they fire *inside* the clock
            // ISR, never between ticks), so the PIT tick already bounds
            // them. Nothing below can move the calendar — ticks and
            // arrivals pop only in `fire_due_events`, and `SetTimer` feeds
            // the heaps `next_wakeup` does not read — so the advance below
            // never steps over a wakeup (DESIGN.md §7).
            //
            // The same peek doubles as the due-event gate: `fire_due_events`
            // pops only entries due at or before `now`, so when the nearest
            // wakeup is still in the future it would pop nothing and only a
            // re-peek would follow. Most iterations end on a busy-chunk
            // completion before the horizon, so this single-peek path is
            // the common case.
            let wake = self.calendar.next_wakeup();
            let horizon = if wake <= self.now {
                // Deliver hardware events that are due.
                self.fire_due_events();
                t_end.min(self.calendar.next_wakeup())
            } else {
                t_end.min(wake)
            };
            // Materialize what the CPU runs next; the outcome says whether
            // a frame or a thread owns the busy chunk (or the CPU is idle).
            let activity = self.ensure_activity();
            debug_assert_eq!(
                horizon,
                t_end.min(self.calendar.next_wakeup()),
                "calendar moved under a decision-loop iteration"
            );
            let mut next = horizon;
            match activity {
                Activity::Idle => {}
                Activity::Frame(b) => next = next.min(b),
                Activity::Thread(b) => {
                    next = next.min(b);
                    // Quantum expiry bounds program work (dispatch overhead
                    // is kernel time and does not tick the quantum). The
                    // running thread's chunk is guaranteed `Busy` here, so
                    // this is the only check `quantum_end` needs.
                    let t = self.current_thread.expect("thread activity");
                    if !self.threads.in_overhead[t.0] {
                        next = next.min(self.now + self.threads.quantum_remaining[t.0]);
                    }
                }
            }
            debug_assert!(next >= self.now, "time must not run backwards");
            self.advance_to(next);
        }
    }

    /// Delivers PIT ticks and environment arrivals that are due at `now`.
    fn fire_due_events(&mut self) {
        while let Some(t) = self.calendar.pop_due_tick(self.now) {
            self.ic.assert_line(self.pit_vector, t);
            self.record_pop(CalendarPopKind::Tick, 0);
        }
        while let Some(idx) = self.calendar.pop_due_env(self.now) {
            self.fire_env(idx);
            self.record_pop(CalendarPopKind::Env, idx as u32);
        }
    }

    /// Records a processed calendar pop in the flight ring, if one is
    /// attached. Purely observational: never a RNG draw or a
    /// simulation-state write.
    #[inline]
    fn record_pop(&self, kind: CalendarPopKind, index: u32) {
        let at = self.now;
        self.record(FlightEvent::Pop { kind, index, at });
    }

    fn schedule_env(&mut self, idx: usize, at: Instant) {
        self.calendar.schedule_env(idx, at);
    }

    fn fire_env(&mut self, idx: usize) {
        let now = self.now;
        // Apply the action (only when enabled), then reschedule. The slot
        // is taken (not swapped with a freshly built placeholder source) to
        // split borrows without a per-arrival String + closure allocation;
        // every path below restores it before drawing the next gap, so the
        // RNG call order is identical to the old swap-based code.
        let fire = self.env[idx].as_ref().expect("source in flight").enabled;
        if fire {
            let mut src = self.env[idx].take().expect("source in flight");
            src.fire_count += 1;
            match &mut src.action {
                EnvAction::Cli { duration, label } => {
                    let d = duration(&mut self.rng);
                    let l = *label;
                    self.push_cli(d, l);
                }
                EnvAction::Section { duration, label } => {
                    let d = duration(&mut self.rng);
                    self.pending_sections.push_back((d, *label));
                }
                EnvAction::AssertInterrupt(v) => {
                    self.ic.assert_line(*v, now);
                }
                EnvAction::ReleaseSemaphore(s, n) => {
                    let (s, n) = (*s, *n);
                    self.env[idx] = Some(src);
                    self.do_release_semaphore(s, n);
                    let gap = self.next_env_gap(idx);
                    self.schedule_env(idx, now + gap);
                    return;
                }
            }
            self.env[idx] = Some(src);
        }
        let gap = self.next_env_gap(idx);
        self.schedule_env(idx, now + gap);
    }

    /// Draws the next inter-arrival gap for a source (split-borrow helper).
    fn next_env_gap(&mut self, idx: usize) -> Cycles {
        let src = self.env[idx].as_mut().expect("source in flight");
        src.next_gap(&mut self.rng)
    }

    /// Pushes an interrupt-disabled window on top of whatever runs.
    fn push_cli(&mut self, d: Cycles, label: Label) {
        let kind = FrameKind::Cli;
        let irql = frame_irql(self.irql(), &kind);
        self.frames.push(Frame {
            kind,
            exec: ExecState::Busy {
                remaining: d,
                label,
            },
            irql,
        });
    }

    /// Advances the clock to `next`, charging cycles to the active busy
    /// chunk (or idle). The only place simulated time moves: the cycle
    /// account, the quantum, the blame ledgers, the flame sampler and
    /// `current_label` are all charged here.
    fn advance_to(&mut self, next: Instant) {
        let delta = next - self.now;
        if delta.is_zero() {
            self.now = next;
            return;
        }
        // Label the span for the flame sampler; idle residue samples as
        // the idle loop without touching `current_label` (which keeps its
        // "most recently executed" semantics for the cause tool).
        let mut span_label = Label::IDLE;
        // Identify the active busy chunk: top frame or current thread.
        if let Some(top) = self.frames.last_mut() {
            if let ExecState::Busy { remaining, label } = &mut top.exec {
                if *remaining < delta {
                    debug_assert!(false, "frame busy overrun");
                    self.busy_overruns += 1;
                }
                *remaining = remaining.saturating_sub(delta);
                self.current_label = *label;
                span_label = *label;
                match top.kind {
                    FrameKind::Isr { .. } => self.account.isr += delta.0,
                    FrameKind::DpcDrain { .. } => self.account.dpc += delta.0,
                    FrameKind::Cli => self.account.cli += delta.0,
                    FrameKind::Section => self.account.section += delta.0,
                }
            } else {
                // A frame awaiting its next step consumes no time; reaching
                // here means the decision point was external (PIT/env).
                self.account.idle += delta.0;
            }
        } else if let Some(t) = self.current_thread {
            let i = t.0;
            if let ExecState::Busy { remaining, label } = &mut self.threads.exec[i] {
                if *remaining < delta {
                    debug_assert!(false, "thread busy overrun");
                    self.busy_overruns += 1;
                }
                *remaining = remaining.saturating_sub(delta);
                self.current_label = *label;
                span_label = *label;
                if !self.threads.in_overhead[i] {
                    self.threads.quantum_remaining[i] =
                        self.threads.quantum_remaining[i].saturating_sub(delta);
                }
                self.account.thread += delta.0;
                // Blame armed: split the thread charge into dispatch
                // overhead vs program work by the running priority, so a
                // resume window's components reconstruct it exactly.
                if self.wants(Interest::RESUME_BLAME) {
                    if self.threads.in_overhead[i] {
                        self.blame_overhead_cycles += delta.0;
                    } else {
                        self.blame_prio_cycles[self.threads.priority[i] as usize] += delta.0;
                    }
                }
            } else {
                self.account.idle += delta.0;
            }
        } else {
            self.current_label = Label::IDLE;
            self.account.idle += delta.0;
        }
        if self.flame_period != 0 {
            self.flame_charge(self.now, next, span_label);
        }
        self.now = next;
    }

    /// Materializes the next runnable activity, processing completed busy
    /// chunks, dispatching interrupts, draining DPCs and scheduling threads.
    ///
    /// Returns the absolute completion time of the resulting busy chunk and
    /// whether a frame or a thread owns it, or [`Activity::Idle`].
    fn ensure_activity(&mut self) -> Activity {
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(
                guard < 1_000_000,
                "ensure_activity livelock: a program is spinning without consuming time"
            );

            // 1. Interrupt dispatch, highest IRQL first. A cli window
            // runs at HIGH, above every vector: nothing dispatches until it
            // closes.
            let irql = self.irql();
            if let Some(v) = self.ic.next_dispatchable(irql) {
                self.push_isr(v);
                continue;
            }

            // 2. DPC drain runs at DISPATCH level: it preempts threads AND
            // non-preemptible sections (which are PASSIVE-level code that
            // only blocks the *dispatcher*), but never ISRs, Cli windows or
            // an already-running drain.
            if !self.dpc_queue.is_empty() && irql < Irql::DISPATCH {
                let kind = FrameKind::DpcDrain { current: None };
                let irql = frame_irql(self.irql(), &kind);
                self.frames.push(Frame {
                    kind,
                    exec: ExecState::NeedStep,
                    irql,
                });
                continue;
            }

            // 3. Run the top frame if present.
            if !self.frames.is_empty() {
                match self.frame_progress() {
                    FrameOutcome::Running(end) => return Activity::Frame(end),
                    FrameOutcome::Changed => continue,
                }
            }

            // 4. Pending non-preemptible sections start at thread level
            // (the frames are empty here, after step 3).
            if let Some((d, l)) = self.pending_sections.pop_front() {
                let kind = FrameKind::Section;
                let irql = frame_irql(self.irql(), &kind);
                self.frames.push(Frame {
                    kind,
                    exec: ExecState::Busy {
                        remaining: d,
                        label: l,
                    },
                    irql,
                });
                continue;
            }

            // 5. Thread scheduling.
            if self.resched {
                self.do_dispatch();
            }
            let Some(t) = self.current_thread else {
                if self.ready.is_empty() {
                    return Activity::Idle;
                }
                self.resched = true;
                continue;
            };
            match self.thread_progress(t) {
                ThreadOutcome::Running(end) => return Activity::Thread(end),
                ThreadOutcome::Changed => continue,
            }
        }
    }

    /// The effective IRQL: everything the decision loop needs about
    /// interrupt masking. A cli window runs at HIGH, and every vector sits
    /// at or below HIGH ([`InterruptController::install`]), so HIGH masks
    /// every vector and the DPC drain alike.
    ///
    /// O(1): the top frame carries the IRQL of the whole stack (see
    /// [`Frame::irql`]); with no frames, threads run at PASSIVE. The loop
    /// runs this every iteration.
    fn irql(&self) -> Irql {
        match self.frames.last() {
            Some(f) => {
                debug_assert_eq!(f.irql, self.irql_walk(), "stale frame IRQL snapshot");
                f.irql
            }
            None => Irql::PASSIVE,
        }
    }

    /// Reference fold over the whole stack, kept to cross-check the cached
    /// snapshots in debug builds (`debug_assert` still type-checks its
    /// arguments in release, so this is not `cfg`-gated).
    fn irql_walk(&self) -> Irql {
        self.frames
            .iter()
            .fold(Irql::PASSIVE, |irql, f| frame_irql(irql, &f.kind))
    }

    fn push_isr(&mut self, v: VectorId) {
        let asserted = self.ic.acknowledge(v);
        let interrupted = self.current_label;
        let is_pit = v == self.pit_vector;
        let program = match &mut self.isr_bodies[v.0] {
            IsrBody::User { program } => program.take(),
            IsrBody::Pit => None,
        };
        let cost = self.config.isr_dispatch_cost;
        let irql = self.ic.vector(v).irql;
        let kind = FrameKind::Isr {
            vector: v,
            irql,
            asserted,
            interrupted,
            program,
            is_pit,
            phase: 0,
        };
        let irql = frame_irql(self.irql(), &kind);
        self.frames.push(Frame {
            kind,
            exec: ExecState::Busy {
                remaining: cost,
                label: Label::KERNEL,
            },
            irql,
        });
    }

    // --------------------------------------------------------------
    // Frame execution
    // --------------------------------------------------------------

    fn frame_progress(&mut self) -> FrameOutcome {
        let top = self
            .frames
            .last_mut()
            .expect("frame_progress needs a frame");
        // A busy chunk still running?
        if let ExecState::Busy { remaining, .. } = top.exec {
            if !remaining.is_zero() {
                return FrameOutcome::Running(self.now + remaining);
            }
        }
        // Busy complete (or NeedStep): advance the frame's state machine.
        match &mut top.kind {
            FrameKind::Cli | FrameKind::Section => {
                // Single busy chunk; done.
                self.frames.pop();
                FrameOutcome::Changed
            }
            FrameKind::Isr { .. } => self.isr_progress(),
            FrameKind::DpcDrain { .. } => self.dpc_progress(),
        }
    }

    fn isr_progress(&mut self) -> FrameOutcome {
        // Work out the transition without holding the frame borrow across
        // kernel calls.
        let idx = self.frames.len() - 1;
        let (vector, asserted, interrupted, is_pit, phase) = {
            let Frame {
                kind:
                    FrameKind::Isr {
                        vector,
                        asserted,
                        interrupted,
                        is_pit,
                        phase,
                        ..
                    },
                ..
            } = &self.frames[idx]
            else {
                unreachable!("isr_progress on a non-ISR frame")
            };
            (*vector, *asserted, *interrupted, *is_pit, *phase)
        };
        match phase {
            0 => {
                // Entry overhead done: the ISR's first instruction runs now.
                if self.wants(Interest::ISR_ENTER) {
                    let e = IsrEnter {
                        vector,
                        asserted,
                        started: self.now,
                        interrupted_label: interrupted,
                    };
                    self.record(FlightEvent::Isr(e));
                    self.notify(Interest::ISR_ENTER, vector.0, |o, k| o.on_isr_enter(k), &e);
                }
                if is_pit {
                    // The clock ISR body: fixed cost plus per-due-timer work.
                    let due = self.due_timer_count();
                    let body = Cycles(
                        self.config.pit_isr_cost.0 + self.config.timer_expiry_cost.0 * due as u64,
                    );
                    let label = self.pit_label;
                    let f = &mut self.frames[idx];
                    set_isr_phase(f, 1);
                    f.exec = ExecState::Busy {
                        remaining: body,
                        label,
                    };
                } else {
                    let f = &mut self.frames[idx];
                    set_isr_phase(f, 1);
                    f.exec = ExecState::NeedStep;
                    self.begin_frame_program(idx);
                }
                FrameOutcome::Changed
            }
            1 => {
                if is_pit {
                    // Clock ISR body done: fire timers and wake sleepers, then
                    // pay the exit overhead.
                    self.clock_tick_work();
                    let cost = self.config.isr_exit_cost;
                    let f = &mut self.frames[idx];
                    set_isr_phase(f, 2);
                    f.exec = ExecState::Busy {
                        remaining: cost,
                        label: Label::KERNEL,
                    };
                    FrameOutcome::Changed
                } else {
                    // User ISR: pull steps until busy or return.
                    self.run_frame_steps(idx)
                }
            }
            _ => {
                // Exit overhead done: retire the frame, returning the ISR
                // program to its vector for the next interrupt.
                let f = self.frames.pop().expect("ISR frame vanished");
                if let FrameKind::Isr {
                    vector,
                    program: Some(p),
                    ..
                } = f.kind
                {
                    if let IsrBody::User { program, .. } = &mut self.isr_bodies[vector.0] {
                        *program = Some(p);
                    }
                }
                FrameOutcome::Changed
            }
        }
    }

    fn dpc_progress(&mut self) -> FrameOutcome {
        let idx = self.frames.len() - 1;
        // Is a DPC currently active in this drain?
        let has_current = {
            let Frame {
                kind: FrameKind::DpcDrain { current },
                ..
            } = &self.frames[idx]
            else {
                unreachable!("dpc_progress on a non-DPC frame")
            };
            current.is_some()
        };
        if !has_current {
            match self.dpc_queue.pop() {
                None => {
                    self.frames.pop();
                    FrameOutcome::Changed
                }
                Some(entry) => {
                    let program = self.dpcs[entry.dpc.0].program.take();
                    let cost = self.config.dpc_dispatch_cost;
                    let f = &mut self.frames[idx];
                    let FrameKind::DpcDrain { current } = &mut f.kind else {
                        unreachable!()
                    };
                    *current = Some(CurrentDpc {
                        dpc: entry.dpc,
                        program,
                        queued: entry.queued_at,
                        started: false,
                    });
                    f.exec = ExecState::Busy {
                        remaining: cost,
                        label: Label::KERNEL,
                    };
                    FrameOutcome::Changed
                }
            }
        } else {
            // Dispatch overhead or body step finished.
            let (dpc, queued, started) = {
                let Frame {
                    kind: FrameKind::DpcDrain { current: Some(c) },
                    ..
                } = &self.frames[idx]
                else {
                    unreachable!()
                };
                (c.dpc, c.queued, c.started)
            };
            if !started {
                if self.wants(Interest::DPC_START) {
                    let e = DpcStart {
                        dpc,
                        queued,
                        started: self.now,
                    };
                    self.record(FlightEvent::Dpc(e));
                    self.notify(Interest::DPC_START, dpc.0, |o, k| o.on_dpc_start(k), &e);
                }
                self.dpcs[dpc.0].run_count += 1;
                {
                    let Frame {
                        kind: FrameKind::DpcDrain { current: Some(c) },
                        exec,
                        ..
                    } = &mut self.frames[idx]
                    else {
                        unreachable!()
                    };
                    c.started = true;
                    *exec = ExecState::NeedStep;
                }
                self.begin_frame_program(idx);
                FrameOutcome::Changed
            } else {
                self.run_frame_steps(idx)
            }
        }
    }

    /// Calls `begin` on the program owned by frame `idx` (if any).
    fn begin_frame_program(&mut self, idx: usize) {
        let mut program = self.take_frame_program(idx);
        if let Some(p) = program.as_mut() {
            let mut ctx = StepCtx {
                now: self.now,
                board: &mut self.board,
                rng: &mut self.rng,
            };
            p.begin(&mut ctx);
        }
        self.put_frame_program(idx, program);
    }

    fn take_frame_program(&mut self, idx: usize) -> Option<Box<dyn Program>> {
        match &mut self.frames[idx].kind {
            FrameKind::Isr { program, .. } => program.take(),
            FrameKind::DpcDrain {
                current: Some(c), ..
            } => c.program.take(),
            _ => None,
        }
    }

    fn put_frame_program(&mut self, idx: usize, program: Option<Box<dyn Program>>) {
        match &mut self.frames[idx].kind {
            FrameKind::Isr { program: p, .. } => *p = program,
            FrameKind::DpcDrain {
                current: Some(c), ..
            } => c.program = program,
            _ => {}
        }
    }

    /// Pulls steps from the frame's program until a `Busy` step, which
    /// parks in the frame for the decision loop to run, or `Return`.
    /// Service steps in between take effect at the current instant, back
    /// to back and with no service charge: nothing a service step does
    /// (queue a DPC, ready a thread, arm a timer) can preempt code running
    /// at or above DISPATCH.
    fn run_frame_steps(&mut self, idx: usize) -> FrameOutcome {
        let mut program = self.take_frame_program(idx);
        let Some(p) = program.as_mut() else {
            // No program (should not happen for user frames): retire.
            self.retire_frame_body(idx);
            return FrameOutcome::Changed;
        };
        self.step_dispatches += 1;
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 100_000, "ISR/DPC program spinning without time");
            let mut ctx = StepCtx {
                now: self.now,
                board: &mut self.board,
                rng: &mut self.rng,
            };
            let step = p.step(&mut ctx);
            self.steps_executed += 1;
            match step {
                Step::Busy { cycles, label } => {
                    self.frames[idx].exec = ExecState::Busy {
                        remaining: cycles,
                        label,
                    };
                    self.put_frame_program(idx, program);
                    return FrameOutcome::Changed;
                }
                Step::Return => {
                    self.put_frame_program(idx, program);
                    self.retire_frame_body(idx);
                    return FrameOutcome::Changed;
                }
                Step::Wait(_) | Step::Sleep(_) => {
                    panic!("blocking step in ISR/DPC context (IRQL >= DISPATCH)")
                }
                other => self.apply_service_step(other),
            }
        }
    }

    /// Ends the body of the frame at `idx` after its program returned.
    fn retire_frame_body(&mut self, idx: usize) {
        match &mut self.frames[idx].kind {
            FrameKind::Isr { phase, .. } => {
                *phase = 2;
                self.frames[idx].exec = ExecState::Busy {
                    remaining: self.config.isr_exit_cost,
                    label: Label::KERNEL,
                };
            }
            FrameKind::DpcDrain { current } => {
                // Return the program to the DPC object and move to the
                // next.
                if let Some(c) = current.take() {
                    self.dpcs[c.dpc.0].program = c.program;
                }
                self.frames[idx].exec = ExecState::NeedStep;
            }
            _ => {
                self.frames.pop();
            }
        }
    }

    // --------------------------------------------------------------
    // Thread execution
    // --------------------------------------------------------------

    fn thread_progress(&mut self, t: ThreadId) -> ThreadOutcome {
        // Charge pending dispatch/switch overhead first, stashing any
        // interrupted program busy chunk.
        {
            let i = t.0;
            let d = self.threads.pending_overhead[i];
            if !d.is_zero() {
                self.threads.pending_overhead[i] = Cycles::ZERO;
                self.threads.in_overhead[i] = true;
                let saved = self.threads.exec[i];
                self.threads[i].saved_exec = Some(saved);
                self.threads.exec[i] = ExecState::Busy {
                    remaining: d,
                    label: Label::KERNEL,
                };
            }
        }
        match self.threads.exec[t.0] {
            ExecState::Busy { remaining, .. } if !remaining.is_zero() => {
                // Overhead does not count against the quantum; program work
                // does, and an exhausted quantum preempts mid-chunk. The
                // expiry helper is a no-op while quantum remains, so gate
                // the call on the (hot) non-zero check.
                if !self.threads.in_overhead[t.0]
                    && self.threads.quantum_remaining[t.0].is_zero()
                    && self.maybe_expire_quantum(t)
                {
                    return ThreadOutcome::Changed;
                }
                ThreadOutcome::Running(self.now + remaining)
            }
            ExecState::Busy { .. } => {
                // Chunk complete.
                let i = t.0;
                if self.threads.in_overhead[i] {
                    self.threads.in_overhead[i] = false;
                    let saved = self.threads[i]
                        .saved_exec
                        .take()
                        .unwrap_or(ExecState::NeedStep);
                    self.threads.exec[i] = saved;
                    // Dispatch complete: if the thread was readied from a
                    // wait, its first post-wait instruction runs now.
                    if let Some(readied) = self.threads[i].readied_at.take() {
                        // The ring push lands before `RESUME_BLAME` is
                        // delivered: a blame capture's window includes
                        // this resume.
                        if self.wants(Interest::THREAD_RESUME) {
                            let e = ThreadResume {
                                thread: t,
                                priority: self.threads.priority[i],
                                readied,
                                started: self.now,
                            };
                            self.record(FlightEvent::Resume(e));
                            self.notify(
                                Interest::THREAD_RESUME,
                                i,
                                |o, k| o.on_thread_resume(k),
                                &e,
                            );
                        }
                        // Only watched threads carry a mark.
                        if self.wants(Interest::RESUME_BLAME) {
                            if let Some(mark) = self.blame_marks[i].take() {
                                let e = self.build_resume_blame(t, readied, &mark);
                                debug_assert_eq!(
                                    e.breakdown.total(),
                                    (e.started - e.readied).0,
                                    "blame components must sum to the latency"
                                );
                                self.notify(
                                    Interest::RESUME_BLAME,
                                    i,
                                    |o, k| o.on_resume_blame(k),
                                    &e,
                                );
                            }
                        }
                    }
                } else {
                    self.threads.exec[i] = ExecState::NeedStep;
                }
                // Quantum check at chunk boundaries.
                self.maybe_expire_quantum(t);
                ThreadOutcome::Changed
            }
            ExecState::NeedStep => {
                if self.maybe_expire_quantum(t) {
                    return ThreadOutcome::Changed;
                }
                self.run_thread_step(t)
            }
        }
    }

    /// Handles quantum exhaustion: round-robin to a same-priority peer.
    /// Returns true if the thread was descheduled.
    fn maybe_expire_quantum(&mut self, t: ThreadId) -> bool {
        let i = t.0;
        if !self.threads.quantum_remaining[i].is_zero() {
            return false;
        }
        let priority = self.threads.priority[i];
        let descheduled =
            if self.ready.len_at(priority) > 0 || self.ready.highest_priority() > Some(priority) {
                self.threads.state[i] = ThreadState::Ready;
                self.threads.quantum_remaining[i] = self.config.quantum;
                // Wakeup boosts decay one level per expired quantum.
                if self.threads.priority[i] > self.threads[i].base_priority {
                    self.threads.priority[i] -= 1;
                }
                let priority = self.threads.priority[i];
                self.ready.push_back(t, priority);
                self.current_thread = None;
                self.resched = true;
                true
            } else {
                // No competition: refresh the quantum in place, decaying any
                // boost.
                self.threads.quantum_remaining[i] = self.config.quantum;
                if self.threads.priority[i] > self.threads[i].base_priority {
                    self.threads.priority[i] -= 1;
                }
                false
            };
        self.record(FlightEvent::Quantum {
            thread: t,
            priority: self.threads.priority[i],
            descheduled,
            at: self.now,
        });
        descheduled
    }

    /// Runs one step of the thread's program. Every step returns to the
    /// decision loop: a `Busy` step parks in the thread, a kernel call is
    /// charged as a service chunk, and a blocking step deschedules.
    fn run_thread_step(&mut self, t: ThreadId) -> ThreadOutcome {
        self.step_dispatches += 1;
        let mut program = self.threads[t.0]
            .program
            .take()
            .expect("a runnable thread owns its program");
        let mut ctx = StepCtx {
            now: self.now,
            board: &mut self.board,
            rng: &mut self.rng,
        };
        // Deliver `begin` once.
        if !self.threads[t.0].started {
            self.threads[t.0].started = true;
            program.begin(&mut ctx);
        }
        let step = program.step(&mut ctx);
        self.threads[t.0].program = Some(program);
        self.steps_executed += 1;
        match step {
            Step::Busy { cycles, label } => {
                self.threads.exec[t.0] = ExecState::Busy {
                    remaining: cycles,
                    label,
                };
                ThreadOutcome::Running(self.now + cycles)
            }
            Step::Wait(obj) => {
                if self.try_acquire(obj) {
                    self.threads[t.0].waits_satisfied += 1;
                    self.charge_service(t)
                } else {
                    self.block_thread(t, Some(obj), None);
                    ThreadOutcome::Changed
                }
            }
            Step::Sleep(d) => {
                let deadline = self.now + d;
                self.block_thread(t, None, Some(deadline));
                ThreadOutcome::Changed
            }
            Step::Return => {
                // Returned from the thread function: park the thread.
                self.block_thread(t, None, None);
                ThreadOutcome::Changed
            }
            other => {
                self.apply_service_step(other);
                self.charge_service(t)
            }
        }
    }

    /// Charges the per-call kernel service cost to the running thread and
    /// yields back to the main loop. Guarantees forward progress for
    /// programs made of instantaneous kernel calls.
    fn charge_service(&mut self, t: ThreadId) -> ThreadOutcome {
        self.threads.exec[t.0] = ExecState::Busy {
            remaining: self.config.service_call_cost,
            label: Label::KERNEL,
        };
        ThreadOutcome::Changed
    }

    fn block_thread(&mut self, t: ThreadId, obj: Option<WaitObject>, deadline: Option<Instant>) {
        let i = t.0;
        self.threads.state[i] = ThreadState::Waiting;
        self.threads.wait_deadline[i] = deadline;
        if let Some(d) = deadline {
            self.threads.deadline_gen[i] += 1;
            let gen = self.threads.deadline_gen[i];
            self.calendar.arm_wait(i as u32, d, gen);
        }
        match obj {
            Some(WaitObject::Event(e)) => self.events[e.0].enqueue_waiter(t),
            Some(WaitObject::Semaphore(s)) => self.sems[s.0].enqueue_waiter(t),
            None => {}
        }
        self.current_thread = None;
        self.resched = true;
    }

    fn try_acquire(&mut self, obj: WaitObject) -> bool {
        match obj {
            WaitObject::Event(e) => self.events[e.0].try_acquire(),
            WaitObject::Semaphore(s) => self.sems[s.0].try_acquire(),
        }
    }

    // --------------------------------------------------------------
    // Kernel services shared by all contexts
    // --------------------------------------------------------------

    fn apply_service_step(&mut self, step: Step) {
        match step {
            Step::ReadTsc(slot) => {
                let now = self.now.0;
                self.board.write(slot, now);
            }
            Step::QueueDpc(d) => {
                let now = self.now;
                self.dpc_queue.insert(d, now);
            }
            Step::SetEvent(e) => self.do_set_event(e),
            Step::SetTimer { timer, due, period } => self.do_set_timer(timer, due, period),
            Step::CompleteIrp(irp) => {
                self.irps[irp.0].complete();
                if let Some(e) = self.irps[irp.0].completion_event {
                    self.do_set_event(e);
                }
            }
            other => unreachable!("apply_service_step got {other:?}"),
        }
    }

    fn do_set_timer(&mut self, timer: TimerId, due: Cycles, period: Option<Cycles>) {
        let now = self.now;
        // Re-arming orphans the previous calendar entry, if any.
        if self.timers.due[timer.0].is_some() {
            self.calendar.timer_invalidated(&self.timers.due_gen);
        }
        self.timers.set(timer.0, now, due, period);
        let deadline = self.timers.due[timer.0].expect("set arms the timer");
        self.calendar
            .arm_timer(timer.0 as u32, deadline, self.timers.due_gen[timer.0]);
    }

    fn do_set_event(&mut self, e: EventId) {
        // Take the scratch buffer so ready_thread (which may signal
        // nothing further, but could in principle re-enter) sees an empty
        // field; release order is unchanged from the allocating version.
        let mut released = std::mem::take(&mut self.wake_scratch);
        self.events[e.0].set_into(&mut released);
        for &t in &released {
            self.ready_thread(t);
        }
        released.clear();
        self.wake_scratch = released;
    }

    fn do_release_semaphore(&mut self, s: SemId, n: u32) {
        let mut released = std::mem::take(&mut self.wake_scratch);
        self.sems[s.0].release_into(n, &mut released);
        for &t in &released {
            self.ready_thread(t);
        }
        released.clear();
        self.wake_scratch = released;
    }

    /// Makes a waiting thread ready and requests a dispatch if it outranks
    /// the running thread.
    fn ready_thread(&mut self, t: ThreadId) {
        let now = self.now;
        let boost = self.config.dynamic_boost;
        let i = t.0;
        debug_assert_eq!(
            self.threads.state[i],
            ThreadState::Waiting,
            "readying a non-waiting thread"
        );
        self.threads.state[i] = ThreadState::Ready;
        // Only a sleep arms a deadline, and only its expiry wakes it: the
        // expiry path consumes the deadline before calling here.
        debug_assert!(
            self.threads.wait_deadline[i].is_none(),
            "signal woke a sleeper"
        );
        {
            let tcb = &mut self.threads[i];
            tcb.readied_at = Some(now);
            tcb.waits_satisfied += 1;
        }
        // NT dispatcher: dynamic-band threads get a wakeup boost; the
        // real-time band never does.
        let base = self.threads[i].base_priority;
        if boost > 0 && base < crate::thread::RT_BAND_START {
            self.threads.priority[i] = (base + boost).min(15).max(self.threads.priority[i]);
        }
        let priority = self.threads.priority[i];
        // Blame armed on a watched thread: snapshot the cycle ledgers at
        // ready time, split at the boosted priority the resume will carry.
        // The resume emit takes the deltas, which sum bit-exactly to the
        // window because every elapsed cycle lands in exactly one ledger
        // bucket (DESIGN.md §15). Plain copies — no allocation.
        if self.wants(Interest::RESUME_BLAME)
            && !self.routes[Interest::RESUME_BLAME.index()].by_object[i].is_empty()
        {
            let (above, at_or_below) = self.blame_split(priority);
            self.blame_marks[i] = Some(BlameMark {
                account: self.account,
                overhead: self.blame_overhead_cycles,
                above,
                at_or_below,
                priority,
            });
        }
        self.ready.push_back(t, priority);
        let current_priority = self.current_thread.map(|c| self.threads.priority[c.0]);
        if current_priority.is_none() || Some(priority) > current_priority {
            self.resched = true;
        }
    }

    /// Scheduler decision at thread level.
    fn do_dispatch(&mut self) {
        self.resched = false;
        let highest = self.ready.highest_priority();
        match (self.current_thread, highest) {
            (_, None) => {}
            (Some(c), Some(h)) => {
                let cp = self.threads.priority[c.0];
                if h > cp {
                    // Preempt: the current thread keeps its turn (head) and
                    // its remaining quantum.
                    self.threads.state[c.0] = ThreadState::Ready;
                    self.ready.push_front(c, cp);
                    self.switch_in(Some(c));
                }
            }
            (None, Some(_)) => self.switch_in(None),
        }
    }

    /// Pops the best ready thread and switches to it.
    fn switch_in(&mut self, from: Option<ThreadId>) {
        let next = self
            .ready
            .pop_highest()
            .expect("switch_in with empty ready queues");
        {
            let i = next.0;
            self.threads.state[i] = ThreadState::Running;
            self.threads[i].dispatch_count += 1;
            if self.threads.quantum_remaining[i].is_zero() {
                self.threads.quantum_remaining[i] = self.config.quantum;
            }
            let mut overhead = self.config.dispatch_cost;
            if from != Some(next) {
                overhead += self.config.context_switch_cost;
            }
            self.threads.pending_overhead[i] = overhead;
        }
        self.current_thread = Some(next);
        self.context_switches += 1;
        self.record(FlightEvent::Switch {
            from,
            to: next,
            at: self.now,
        });
    }

    // --------------------------------------------------------------
    // Clock tick work (runs in the PIT ISR body)
    // --------------------------------------------------------------

    fn due_timer_count(&mut self) -> usize {
        let now = self.now;
        self.calendar.due_timer_count(now, &self.timers.due_gen)
    }

    /// Fires due timers (queueing their DPCs) and wakes expired sleepers.
    /// Runs at the end of the clock ISR body.
    ///
    /// Only *due* calendar entries are popped — O(due), not
    /// O(timers + threads). The due batch arrives sorted ascending by
    /// object index, which is the order the old full scans fired in, so
    /// wake order (and with it RNG call order and run digests) is
    /// unchanged. Batch-collecting before acting is equivalent to the old
    /// interleaved scan: firing timer j cannot change whether timer i is
    /// due, and waking thread j cannot change thread i's deadline.
    fn clock_tick_work(&mut self) {
        let now = self.now;
        // Timers, ascending timer index.
        let mut due = std::mem::take(&mut self.due_scratch);
        self.calendar
            .take_due_timers(now, &self.timers.due_gen, &mut due);
        for &ti in &due {
            let i = ti as usize;
            debug_assert!(
                self.timers.is_due(i, now),
                "stale entry survived validation"
            );
            let dpc = self.timers.fire(i, now);
            if let Some(d) = dpc {
                self.dpc_queue.insert(d, now);
            }
            // A periodic timer re-armed itself inside `fire`; push the new
            // deadline. (Like the old per-index scan, it fires at most
            // once per tick even if the new deadline is already due.)
            if let Some(next_due) = self.timers.due[i] {
                let gen = self.timers.due_gen[i];
                self.calendar.arm_timer(ti, next_due, gen);
            }
            self.record_pop(CalendarPopKind::Timer, ti);
        }
        // Sleeps, ascending thread index.
        due.clear();
        self.calendar
            .take_due_waits(now, &self.threads.deadline_gen, &mut due);
        for &ti in &due {
            let i = ti as usize;
            debug_assert_eq!(
                self.threads.state[i],
                ThreadState::Waiting,
                "armed deadline on a non-waiting thread"
            );
            debug_assert!(matches!(self.threads.wait_deadline[i], Some(d) if d <= now));
            self.threads.wait_deadline[i] = None;
            self.threads.deadline_gen[i] += 1;
            self.ready_thread(ThreadId(i));
            self.record_pop(CalendarPopKind::Wait, ti);
        }
        due.clear();
        self.due_scratch = due;
    }

    /// True if any registered observer or the flight recorder consumes
    /// events of `kind`. Call sites check this before building the event,
    /// so a kind nobody wants costs exactly one branch.
    #[inline]
    fn wants(&self, kind: Interest) -> bool {
        self.interest_union.contains(kind)
    }

    /// Writes `e` into the flight recorder, if one is attached. Inlined,
    /// so an emit site with no recorder pays one branch and builds nothing:
    /// the event's fields are stored through the reference the out-of-line
    /// `FlightRecorder::slot` returns, so they cannot be hoisted above the
    /// branch.
    #[inline(always)]
    fn record(&self, e: FlightEvent) {
        if let Some(f) = &self.flight {
            *f.borrow_mut().slot(e.at()) = e;
        }
    }

    /// Invokes `f` on every observer subscribed to `object` for `kind`, in
    /// registration order, walking the object's route (built at
    /// [`Kernel::add_observer`] and at object creation) in place. Callers
    /// gate on [`Kernel::wants`] first; `notify_takes` counts every walk
    /// of a non-empty route so `tests/observer_interest.rs` can assert it
    /// equals the routed deliveries.
    #[inline]
    fn notify<E, F: Fn(&mut dyn Observer, &E)>(
        &mut self,
        kind: Interest,
        object: usize,
        f: F,
        e: &E,
    ) {
        let route = &self.routes[kind.index()].by_object[object];
        if route.is_empty() {
            return;
        }
        self.notify_takes += 1;
        for o in route {
            f(&mut *o.borrow_mut(), e);
        }
    }
}

fn set_isr_phase(f: &mut Frame, phase: u8) {
    if let FrameKind::Isr { phase: p, .. } = &mut f.kind {
        *p = phase;
    }
}

/// The IRQL of a stack after pushing a `kind` frame on a stack at
/// `below`. Cli masks interrupts outright by raising to HIGH, the IRQL
/// lattice top, so every kind is a max-fold.
fn frame_irql(below: Irql, kind: &FrameKind) -> Irql {
    match kind {
        FrameKind::Isr { irql, .. } => below.max(*irql),
        FrameKind::DpcDrain { .. } => below.max(Irql::DISPATCH),
        FrameKind::Cli => Irql::HIGH,
        FrameKind::Section => below,
    }
}

/// What the decision loop materialized: the owner of the next busy chunk
/// (and its absolute completion time), or an idle CPU. Distinguishing frame
/// from thread activity lets `run_until` skip the quantum-expiry bound
/// whenever no thread program is on the CPU.
enum Activity {
    /// Nothing runnable: the CPU idles until the next hardware event.
    Idle,
    /// An ISR/DPC/cli/section frame busy chunk ends at the given time.
    Frame(Instant),
    /// The current thread's busy chunk ends at the given time.
    Thread(Instant),
}

enum FrameOutcome {
    /// The frame is running a busy chunk that ends at the given time.
    Running(Instant),
    /// The frame state changed; re-evaluate the stack.
    Changed,
}

enum ThreadOutcome {
    Running(Instant),
    Changed,
}

impl core::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("frames", &self.frames.len())
            .field("dpc_queue", &self.dpc_queue.len())
            .finish_non_exhaustive()
    }
}
