//! Kernel threads.
//!
//! WDM exposes 31 usable priorities: 1–15 are timesliced "normal" dynamic
//! priorities, 16–31 are the real-time band (paper §2.2 glossary: "WDM has
//! 16 real-time priorities, 16 through 31. 24 is the default."). The paper
//! measures thread latency for kernel threads at real-time default (24) and
//! high (28) priority.
//!
//! A [`Tcb`] is one thread's whole record: the scheduling fields the
//! decision loop reads every event (state, priority, quantum, the active
//! busy chunk, the sleep deadline) and the rest (name, program box, wait
//! bookkeeping, stats). The kernel keeps one `Vec<Tcb>` indexed by
//! `ThreadId`; threads are never deallocated. Threads always run at
//! PASSIVE level.

use std::borrow::Cow;

use crate::{
    step::{ExecState, Program},
    time::{Cycles, Instant},
};

/// Default real-time priority for kernel threads.
pub const RT_DEFAULT_PRIORITY: u8 = 24;
/// The "high real-time" priority used by the paper's measurements.
pub const RT_HIGH_PRIORITY: u8 = 28;
/// First priority of the real-time band.
pub const RT_BAND_START: u8 = 16;
/// Highest usable priority.
pub const MAX_PRIORITY: u8 = 31;

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// On a ready queue.
    Ready,
    /// Currently owning the CPU (at most one thread).
    Running,
    /// Blocked on a dispatcher object, sleeping, or parked after its
    /// program returned.
    Waiting,
}

/// A thread control block.
pub struct Tcb {
    /// Debug name.
    pub name: Cow<'static, str>,
    /// Scheduling state.
    pub state: ThreadState,
    /// Current (possibly boosted) priority, 1..=31.
    pub priority: u8,
    /// Base priority boosts decay back to.
    pub base_priority: u8,
    /// Remaining quantum in cycles. Only program work ticks it, in
    /// `Kernel::advance_to`; dispatch overhead does not.
    pub(crate) quantum_remaining: Cycles,
    /// Whether the current busy chunk is dispatch overhead rather than
    /// program work (overhead does not tick the quantum).
    pub(crate) in_overhead: bool,
    /// Context-switch overhead still to be charged before the program runs.
    pub(crate) pending_overhead: Cycles,
    /// Execution progress: interrupted busy chunks survive preemption here.
    pub(crate) exec: ExecState,
    /// Absolute deadline of a sleep, cleared when it expires.
    pub(crate) wait_deadline: Option<Instant>,
    /// The thread's code. Taken out while the kernel steps it.
    pub program: Option<Box<dyn Program>>,
    /// Whether `begin` has been delivered to the program.
    pub started: bool,
    /// When the thread was most recently made ready after a wait; the basis
    /// for the paper's thread latency measurement.
    pub readied_at: Option<Instant>,
    /// Program progress stashed while dispatch overhead runs.
    pub saved_exec: Option<ExecState>,
    /// Number of times the thread was dispatched.
    pub dispatch_count: u64,
    /// Number of waits satisfied.
    pub waits_satisfied: u64,
}

impl Tcb {
    /// Creates a ready thread at `priority`, which is also the base
    /// priority boosts decay back to.
    ///
    /// # Panics
    ///
    /// If `priority` is outside `1..=31`.
    pub fn new(name: impl Into<Cow<'static, str>>, priority: u8, program: Box<dyn Program>) -> Tcb {
        assert!(
            (1..=MAX_PRIORITY).contains(&priority),
            "thread priority must be 1..=31"
        );
        Tcb {
            name: name.into(),
            state: ThreadState::Ready,
            priority,
            base_priority: priority,
            quantum_remaining: Cycles::ZERO,
            in_overhead: false,
            pending_overhead: Cycles::ZERO,
            exec: ExecState::NeedStep,
            wait_deadline: None,
            program: Some(program),
            started: false,
            readied_at: None,
            saved_exec: None,
            dispatch_count: 0,
            waits_satisfied: 0,
        }
    }
}

impl core::fmt::Debug for Tcb {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tcb")
            .field("name", &self.name)
            .field("base_priority", &self.base_priority)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{LoopSeq, Step};

    fn dummy() -> Box<dyn Program> {
        Box::new(LoopSeq::new(vec![Step::Sleep(Cycles(1))]))
    }

    #[test]
    fn new_thread_is_ready_at_passive() {
        let t = Tcb::new("worker", 24, dummy());
        assert_eq!(t.state, ThreadState::Ready);
        assert!(t.priority >= RT_BAND_START);
        assert_eq!(t.name, "worker");
    }

    #[test]
    fn cold_record_defaults() {
        let t = Tcb::new("worker", RT_DEFAULT_PRIORITY, dummy());
        assert_eq!(t.base_priority, RT_DEFAULT_PRIORITY);
        assert!(t.program.is_some());
        assert!(!t.started);
        assert_eq!(t.dispatch_count, 0);
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn rejects_priority_zero() {
        let _ = Tcb::new("bad", 0, dummy());
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn rejects_priority_over_31() {
        let _ = Tcb::new("bad", 32, dummy());
    }
}
