//! Kernel instrumentation hooks.
//!
//! The paper instruments the OS "non-invasively" with the Pentium TSC:
//! timestamps at ISR entry, DPC start and thread resume, plus an IDT hook
//! that samples the interrupted context on every clock interrupt (§2.2,
//! §2.3). Observers receive exactly those events. The latency measurement
//! tools and the latency cause tool in `wdm-latency` are observers.

use crate::{
    ids::{DpcId, ThreadId, VectorId},
    labels::Label,
    time::Instant,
};

/// Which calendar heap a due entry popped from (see [`crate::calendar`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalendarPopKind {
    /// A PIT tick became due and asserted the clock vector.
    Tick,
    /// An environment-source arrival fired.
    Env,
    /// A kernel timer deadline fired inside the clock ISR.
    Timer,
    /// A thread's sleep expired inside the clock ISR. (Traces print it as
    /// `"wait"`; the name is pinned by the committed trace hashes.)
    Wait,
}

/// Emitted when a due calendar entry is popped and acted on.
#[derive(Debug, Clone, Copy)]
pub struct CalendarPop {
    /// Which heap the entry came from.
    pub kind: CalendarPopKind,
    /// Object index within that heap's domain (env source, timer or thread
    /// index; 0 for ticks, which carry no object).
    pub index: u32,
    /// When the pop was processed (simulated time).
    pub at: Instant,
}

/// Emitted when a running thread's quantum reaches zero and the scheduler
/// refreshes it — round-robining to a peer or continuing in place.
#[derive(Debug, Clone, Copy)]
pub struct QuantumExpiry {
    /// The thread whose quantum expired.
    pub thread: ThreadId,
    /// Its priority after any wakeup-boost decay this expiry applied.
    pub priority: u8,
    /// True if the thread was descheduled in favor of a ready peer; false
    /// if it had no competition and kept the CPU with a fresh quantum.
    pub descheduled: bool,
    /// When the expiry was processed.
    pub at: Instant,
}

/// Emitted when an ISR begins executing its first instruction.
#[derive(Debug, Clone, Copy)]
pub struct IsrEnter {
    /// Which vector.
    pub vector: VectorId,
    /// When the hardware asserted the interrupt at the processor.
    pub asserted: Instant,
    /// When the ISR's first instruction ran. `started - asserted` is the
    /// paper's interrupt latency.
    pub started: Instant,
    /// What was executing when the interrupt finally got dispatched — the
    /// sample the paper's IDT hook records.
    pub interrupted_label: Label,
}

/// Emitted when a DPC begins executing.
#[derive(Debug, Clone, Copy)]
pub struct DpcStart {
    /// Which DPC object.
    pub dpc: DpcId,
    /// When `KeInsertQueueDpc` ran. `started - queued` is DPC latency.
    pub queued: Instant,
    /// When the DPC's first instruction ran.
    pub started: Instant,
}

/// Emitted when a woken thread executes its first instruction. Every wake
/// emits one: a wait satisfied by a signal, and a sleep that expired on a
/// clock tick. A thread's first dispatch after creation is not a wake.
#[derive(Debug, Clone, Copy)]
pub struct ThreadResume {
    /// Which thread.
    pub thread: ThreadId,
    /// The thread's priority at resume time.
    pub priority: u8,
    /// When it was readied: by the signaling code (e.g. `KeSetEvent` in a
    /// DPC), or by the clock ISR for an expired sleep. For a signaled
    /// wait, `started - readied` is the paper's thread latency.
    pub readied: Instant,
    /// When the thread executed its first instruction after the wake,
    /// context switch included.
    pub started: Instant,
}

/// Cycle-exact decomposition of one thread-resume latency window.
///
/// Every cycle the kernel advances is charged to exactly one
/// [`crate::kernel::CycleAccount`] bucket, and — while blame is armed —
/// thread cycles are further split into dispatch overhead and a
/// per-priority table. The breakdown is the delta of those ledgers over
/// `[readied, started]`, so the components **sum bit-exactly to the
/// sample's latency in cycles** by construction (no timeline walk, no
/// rounding). DESIGN.md §15.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlameBreakdown {
    /// Cycles spent in ISRs (entry/exit overhead included).
    pub isr: u64,
    /// Cycles spent in DPC routines and the DPC drain loop.
    pub dpc: u64,
    /// Cycles the environment held interrupts off or a non-preemptible
    /// kernel section blocked dispatch (IRQL-masked wait).
    pub masked: u64,
    /// Scheduler dispatch and context-switch overhead cycles.
    pub dispatch: u64,
    /// Cycles a strictly higher-priority thread held the CPU (preemption).
    pub preempt: u64,
    /// Cycles an equal- or lower-priority thread held the CPU — peers
    /// finishing their quantum ahead of the blamed thread.
    pub quantum: u64,
    /// Idle cycles inside the window (decision-loop residue; normally 0).
    pub idle: u64,
}

impl BlameBreakdown {
    /// Sum of all components — exactly `started - readied` in cycles.
    pub fn total(&self) -> u64 {
        self.isr + self.dpc + self.masked + self.dispatch + self.preempt + self.quantum + self.idle
    }
}

/// Emitted alongside [`ThreadResume`] when blame attribution is armed:
/// the same latency window plus its exact component decomposition.
#[derive(Debug, Clone, Copy)]
pub struct ResumeBlame {
    /// Which thread.
    pub thread: ThreadId,
    /// The thread's priority at resume time.
    pub priority: u8,
    /// When the signaling code readied it.
    pub readied: Instant,
    /// When it executed its first post-wait instruction.
    pub started: Instant,
    /// Where every cycle of `started - readied` went.
    pub breakdown: BlameBreakdown,
}

/// Bitmask of event kinds an [`Observer`] consumes — one bit per hook.
///
/// The kernel folds every registered observer's mask into a union at
/// [`crate::kernel::Kernel::add_observer`] time. An event kind with no
/// interested observer costs one branch in the hot loop: no event struct is
/// built and no observer list is walked. Within a delivery, only observers
/// whose mask contains the kind are called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// No event kinds.
    pub const NONE: Interest = Interest(0);
    /// [`Observer::on_isr_enter`].
    pub const ISR_ENTER: Interest = Interest(1 << 0);
    /// [`Observer::on_dpc_start`].
    pub const DPC_START: Interest = Interest(1 << 1);
    /// [`Observer::on_thread_resume`].
    pub const THREAD_RESUME: Interest = Interest(1 << 2);
    /// [`Observer::on_context_switch`].
    pub const CONTEXT_SWITCH: Interest = Interest(1 << 3);
    /// [`Observer::on_calendar_pop`].
    pub const CALENDAR_POP: Interest = Interest(1 << 4);
    /// [`Observer::on_quantum_expiry`].
    pub const QUANTUM_EXPIRY: Interest = Interest(1 << 5);
    /// [`Observer::on_resume_blame`]. Arming this bit also turns on the
    /// kernel's per-priority thread-cycle ledger (the only event kind with
    /// a recording side; still one branch per charge site when off).
    pub const RESUME_BLAME: Interest = Interest(1 << 6);
    /// Every event kind (the default for observers that do not narrow).
    pub const ALL: Interest = Interest(0b0111_1111);

    /// The number of distinct event kinds (bits in [`Interest::ALL`]).
    pub const KINDS: usize = 7;

    /// True if this mask includes any kind of `other`.
    pub const fn contains(self, other: Interest) -> bool {
        self.0 & other.0 != 0
    }

    /// True if no kinds are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The kind index of a single-kind mask (its bit position) — the key
    /// into the kernel's per-kind observer lists. Only meaningful for the
    /// single-bit constants above.
    pub const fn index(self) -> usize {
        debug_assert!(self.0.count_ones() == 1, "index() needs a single kind");
        self.0.trailing_zeros() as usize
    }

    /// The single-kind mask at `i` — the inverse of [`Interest::index`].
    pub const fn kind_at(i: usize) -> Interest {
        debug_assert!(i < Interest::KINDS);
        Interest(1 << i)
    }
}

impl core::ops::BitOr for Interest {
    type Output = Interest;

    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

impl core::ops::BitOrAssign for Interest {
    fn bitor_assign(&mut self, rhs: Interest) {
        self.0 |= rhs.0;
    }
}

impl core::ops::BitAnd for Interest {
    type Output = Interest;

    fn bitand(self, rhs: Interest) -> Interest {
        Interest(self.0 & rhs.0)
    }
}

/// Receives kernel instrumentation events.
///
/// All methods default to no-ops so observers implement only what they need.
pub trait Observer {
    /// Which event kinds this observer consumes. Sniffed once, at
    /// [`crate::kernel::Kernel::add_observer`] time.
    ///
    /// Defaults to [`Interest::ALL`] so hand-written observers keep seeing
    /// everything. Override with the exact set of implemented hooks to keep
    /// high-rate kinds (context switches above all) off the hot path; the
    /// kernel will never call a hook outside the declared mask.
    fn interest(&self) -> Interest {
        Interest::ALL
    }

    /// An ISR entered. Fires for every vector, including the PIT.
    fn on_isr_enter(&mut self, _e: &IsrEnter) {}

    /// A DPC started executing.
    fn on_dpc_start(&mut self, _e: &DpcStart) {}

    /// A woken thread ran its first instruction: a signaled wait or an
    /// expired sleep (see [`ThreadResume`]).
    fn on_thread_resume(&mut self, _e: &ThreadResume) {}

    /// A context switch occurred (for throughput/overhead accounting).
    fn on_context_switch(&mut self, _from: Option<ThreadId>, _to: ThreadId, _now: Instant) {}

    /// A due calendar entry popped (tick, env arrival, timer expiry or
    /// sleep wake). High-rate; consume only from tracing/metrics sinks.
    fn on_calendar_pop(&mut self, _e: &CalendarPop) {}

    /// A thread's quantum expired (round-robin or in-place refresh).
    fn on_quantum_expiry(&mut self, _e: &QuantumExpiry) {}

    /// A thread resumed, with the exact blame decomposition of its wait.
    /// Only fires for observers that arm [`Interest::RESUME_BLAME`].
    fn on_resume_blame(&mut self, _e: &ResumeBlame) {}

    /// The threads whose resumes this observer wants decomposed, read once
    /// at [`crate::kernel::Kernel::add_observer`] time and only when the
    /// mask arms [`Interest::RESUME_BLAME`]. `None` (the default) means
    /// every thread, including threads created later. The kernel snapshots
    /// the blame ledgers at ready time and delivers
    /// [`Observer::on_resume_blame`] only for the union of the registered
    /// sets; the ledgers themselves charge every cycle either way, so a
    /// watched window decomposes bit-identically. Every listed id must
    /// name an existing thread.
    fn resume_blame_threads(&self) -> Option<Vec<ThreadId>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Observer for Nop {}

    #[test]
    fn default_methods_are_noops() {
        let mut n = Nop;
        n.on_isr_enter(&IsrEnter {
            vector: VectorId(0),
            asserted: Instant(0),
            started: Instant(1),
            interrupted_label: Label::IDLE,
        });
        n.on_dpc_start(&DpcStart {
            dpc: DpcId(0),
            queued: Instant(0),
            started: Instant(1),
        });
        n.on_thread_resume(&ThreadResume {
            thread: ThreadId(0),
            priority: 24,
            readied: Instant(0),
            started: Instant(1),
        });
        n.on_context_switch(None, ThreadId(0), Instant(2));
        n.on_calendar_pop(&CalendarPop {
            kind: CalendarPopKind::Tick,
            index: 0,
            at: Instant(3),
        });
        n.on_quantum_expiry(&QuantumExpiry {
            thread: ThreadId(0),
            priority: 24,
            descheduled: false,
            at: Instant(4),
        });
        n.on_resume_blame(&ResumeBlame {
            thread: ThreadId(0),
            priority: 24,
            readied: Instant(0),
            started: Instant(5),
            breakdown: BlameBreakdown::default(),
        });
    }

    #[test]
    fn blame_breakdown_totals_components() {
        let b = BlameBreakdown {
            isr: 1,
            dpc: 2,
            masked: 4,
            dispatch: 8,
            preempt: 16,
            quantum: 32,
            idle: 64,
        };
        assert_eq!(b.total(), 127);
        assert_eq!(BlameBreakdown::default().total(), 0);
    }

    #[test]
    fn default_interest_is_all() {
        assert_eq!(Nop.interest(), Interest::ALL);
        assert_eq!(Nop.resume_blame_threads(), None, "default: every thread");
    }

    #[test]
    fn interest_mask_algebra() {
        let m = Interest::ISR_ENTER | Interest::DPC_START;
        assert!(m.contains(Interest::ISR_ENTER));
        assert!(m.contains(Interest::DPC_START));
        assert!(!m.contains(Interest::THREAD_RESUME));
        assert!(!m.contains(Interest::CONTEXT_SWITCH));
        assert!(Interest::NONE.is_empty());
        assert!(!Interest::NONE.contains(Interest::ALL));
        assert!(Interest::ALL.contains(Interest::RESUME_BLAME));
        assert!(Interest::ALL.contains(Interest::CALENDAR_POP));
        assert!(Interest::ALL.contains(Interest::QUANTUM_EXPIRY));
        assert!(!m.contains(Interest::CALENDAR_POP));
        assert!(!(Interest::CALENDAR_POP | Interest::QUANTUM_EXPIRY).contains(Interest::ISR_ENTER));
        let mut u = Interest::NONE;
        u |= Interest::THREAD_RESUME;
        assert!(u.contains(Interest::THREAD_RESUME) && !u.contains(Interest::ISR_ENTER));
        assert_eq!(m & Interest::ALL, m);
        assert_eq!(m & Interest::DPC_START, Interest::DPC_START);
        assert!((m & Interest::THREAD_RESUME).is_empty());
    }

    #[test]
    fn kind_indices_roundtrip() {
        let kinds = [
            Interest::ISR_ENTER,
            Interest::DPC_START,
            Interest::THREAD_RESUME,
            Interest::CONTEXT_SWITCH,
            Interest::CALENDAR_POP,
            Interest::QUANTUM_EXPIRY,
            Interest::RESUME_BLAME,
        ];
        assert_eq!(kinds.len(), Interest::KINDS);
        for (i, k) in kinds.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(Interest::kind_at(i), k);
            assert!(Interest::ALL.contains(k));
        }
    }
}
