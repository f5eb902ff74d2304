//! Kernel instrumentation hooks.
//!
//! The paper instruments the OS "non-invasively" with the Pentium TSC:
//! timestamps at ISR entry, DPC start and thread resume, plus an IDT hook
//! that samples the interrupted context on every clock interrupt (§2.2,
//! §2.3). Observers receive exactly those events, plus the exact blame
//! decomposition of a resume ([`ResumeBlame`]). The latency measurement
//! tools and the latency cause tool in `wdm-latency` are observers.
//!
//! [`IsrEnter`], [`DpcStart`] and [`ThreadResume`] are the only description
//! of their events: each kernel emit site builds one value, pushes a copy
//! into the flight ring when a recorder is attached
//! (`FlightEvent::{Isr, Dpc, Resume}` wrap it, see [`crate::flight`]) and
//! hands `&e` to the observers, so a trace holds exactly what the hooks
//! saw. The kinds only the ring records (context switches, calendar pops,
//! quantum expiries) have no hook.
//!
//! An observer pays only for the objects it reads: its [`Subscription`]
//! names, per hooked kind, the vectors, DPCs or threads whose events it
//! consumes, and the kernel hands each event only to the observers
//! subscribed to its object.

use crate::{
    ids::{DpcId, ThreadId, VectorId},
    labels::Label,
    time::Instant,
};

/// Emitted when an ISR begins executing its first instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Bitmask of hooked event kinds — one bit per hook.
///
/// An observer's kinds are those its [`Subscription`] names objects for
/// ([`Subscription::interest`]). The kernel folds every registered
/// observer's kinds into a union at
/// [`crate::kernel::Kernel::add_observer`] time. An event kind with no
/// subscribed observer costs one branch in the hot loop: no event struct
/// is built and no route is looked up.
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
    /// [`Observer::on_resume_blame`]. Arming this bit also turns on the
    /// kernel's per-priority thread-cycle ledger (the only event kind with
    /// a recording side; still one branch per charge site when off).
    pub const RESUME_BLAME: Interest = Interest(1 << 3);
    /// Every event kind.
    pub const ALL: Interest = Interest(0b1111);

    /// The number of distinct event kinds (bits in [`Interest::ALL`]).
    pub const KINDS: usize = 4;

    /// True if this mask includes any kind of `other`.
    pub const fn contains(self, other: Interest) -> bool {
        self.0 & other.0 != 0
    }

    /// True if no kinds are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The kind index of a single-kind mask (its bit position) — the key
    /// into the kernel's per-kind route tables. Only meaningful for the
    /// single-bit constants above.
    pub const fn index(self) -> usize {
        debug_assert!(self.0.count_ones() == 1, "index() needs a single kind");
        self.0.trailing_zeros() as usize
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

/// The objects of one hooked kind whose events an observer reads: the
/// vectors of ISR entries, the DPCs of DPC starts, the threads of
/// resumes and resume blames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Objects<Id> {
    /// No object: the observer does not consume the kind.
    None,
    /// Every object, including objects created after the observer
    /// attaches.
    All,
    /// Exactly these objects. Each must exist when the observer attaches;
    /// an id listed twice still delivers each of its events once.
    Only(Vec<Id>),
}

/// What an observer consumes: per hooked kind, the objects whose events
/// it reads. Read once, at [`crate::kernel::Kernel::add_observer`] time.
///
/// The kernel hands each event only to the observers subscribed to its
/// object, in registration order, so an observer never pays for an
/// object it does not read (DESIGN.md §10). A kernel routes to at most
/// 64 observers besides its flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    /// Vectors whose ISR entries reach [`Observer::on_isr_enter`].
    pub isr_enter: Objects<VectorId>,
    /// DPCs whose starts reach [`Observer::on_dpc_start`].
    pub dpc_start: Objects<DpcId>,
    /// Threads whose resumes reach [`Observer::on_thread_resume`].
    pub thread_resume: Objects<ThreadId>,
    /// Threads whose resumes are decomposed and reach
    /// [`Observer::on_resume_blame`]. Any object here arms the kernel's
    /// blame ledgers; only these threads get a ledger mark at ready time.
    pub resume_blame: Objects<ThreadId>,
}

impl Subscription {
    /// No kind, no object.
    pub const NONE: Subscription = Subscription {
        isr_enter: Objects::None,
        dpc_start: Objects::None,
        thread_resume: Objects::None,
        resume_blame: Objects::None,
    };

    /// Every kind, every object, present and future: the trait default.
    pub const ALL: Subscription = Subscription {
        isr_enter: Objects::All,
        dpc_start: Objects::All,
        thread_resume: Objects::All,
        resume_blame: Objects::All,
    };

    /// The kinds this subscription names objects for — a kind declared
    /// with an empty [`Objects::Only`] list counts.
    pub fn interest(&self) -> Interest {
        let bit = |named: bool, kind: Interest| if named { kind } else { Interest::NONE };
        bit(self.isr_enter != Objects::None, Interest::ISR_ENTER)
            | bit(self.dpc_start != Objects::None, Interest::DPC_START)
            | bit(self.thread_resume != Objects::None, Interest::THREAD_RESUME)
            | bit(self.resume_blame != Objects::None, Interest::RESUME_BLAME)
    }

    /// The objects per kind as raw ids, indexed by [`Interest::index`].
    pub(crate) fn into_kinds(self) -> [Objects<usize>; Interest::KINDS] {
        fn raw<Id>(o: Objects<Id>, id: impl Fn(Id) -> usize) -> Objects<usize> {
            match o {
                Objects::None => Objects::None,
                Objects::All => Objects::All,
                Objects::Only(ids) => Objects::Only(ids.into_iter().map(id).collect()),
            }
        }
        [
            raw(self.isr_enter, |v| v.0),
            raw(self.dpc_start, |d| d.0),
            raw(self.thread_resume, |t| t.0),
            raw(self.resume_blame, |t| t.0),
        ]
    }
}

/// Receives kernel instrumentation events.
///
/// All methods default to no-ops so observers implement only what they need.
pub trait Observer {
    /// Which kinds this observer consumes and, per kind, the objects it
    /// reads. Read once, at [`crate::kernel::Kernel::add_observer`] time.
    ///
    /// Defaults to [`Subscription::ALL`] so hand-written observers keep
    /// seeing everything. Override with the exact kinds and objects the
    /// hooks read: the kernel never calls a hook for a kind or an object
    /// outside the subscription.
    fn subscription(&self) -> Subscription {
        Subscription::ALL
    }

    /// An ISR entered, on a vector the subscription names.
    fn on_isr_enter(&mut self, _e: &IsrEnter) {}

    /// A DPC the subscription names started executing.
    fn on_dpc_start(&mut self, _e: &DpcStart) {}

    /// A woken thread the subscription names ran its first instruction: a
    /// signaled wait or an expired sleep (see [`ThreadResume`]).
    fn on_thread_resume(&mut self, _e: &ThreadResume) {}

    /// A thread the subscription names for [`Subscription::resume_blame`]
    /// resumed, with the exact blame decomposition of its wait.
    fn on_resume_blame(&mut self, _e: &ResumeBlame) {}
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
        assert_eq!(Nop.subscription(), Subscription::ALL);
        assert_eq!(Nop.subscription().interest(), Interest::ALL);
        assert!(Subscription::NONE.interest().is_empty());
        let pit_only = Subscription {
            isr_enter: Objects::Only(vec![VectorId(0)]),
            resume_blame: Objects::Only(Vec::new()),
            ..Subscription::NONE
        };
        assert_eq!(
            pit_only.interest(),
            Interest::ISR_ENTER | Interest::RESUME_BLAME
        );
        assert_eq!(
            pit_only.into_kinds(),
            [
                Objects::Only(vec![0]),
                Objects::None,
                Objects::None,
                Objects::Only(Vec::new()),
            ]
        );
    }

    #[test]
    fn interest_mask_algebra() {
        let m = Interest::ISR_ENTER | Interest::DPC_START;
        assert!(m.contains(Interest::ISR_ENTER));
        assert!(m.contains(Interest::DPC_START));
        assert!(!m.contains(Interest::THREAD_RESUME));
        assert!(!m.contains(Interest::RESUME_BLAME));
        assert!(Interest::NONE.is_empty());
        assert!(!Interest::NONE.contains(Interest::ALL));
        assert!(Interest::ALL.contains(Interest::RESUME_BLAME));
        assert!(!(Interest::THREAD_RESUME | Interest::RESUME_BLAME).contains(Interest::ISR_ENTER));
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
            Interest::RESUME_BLAME,
        ];
        assert_eq!(kinds.len(), Interest::KINDS);
        // `Subscription::into_kinds` orders the kinds by the index the
        // kernel keys its route tables with.
        let every = |i| {
            let mut s = Subscription::NONE;
            match i {
                0 => s.isr_enter = Objects::All,
                1 => s.dpc_start = Objects::All,
                2 => s.thread_resume = Objects::All,
                _ => s.resume_blame = Objects::All,
            }
            s
        };
        for (i, k) in kinds.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(Interest::ALL.contains(k));
            assert_eq!(every(i).interest(), k);
            let routed = every(i).into_kinds().map(|o| o == Objects::All);
            assert_eq!(routed, std::array::from_fn(|j| j == i));
        }
    }
}
