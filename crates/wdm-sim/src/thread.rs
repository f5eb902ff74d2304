//! Kernel threads.
//!
//! WDM exposes 31 usable priorities: 1–15 are timesliced "normal" dynamic
//! priorities, 16–31 are the real-time band (paper §2.2 glossary: "WDM has
//! 16 real-time priorities, 16 through 31. 24 is the default."). The paper
//! measures thread latency for kernel threads at real-time default (24) and
//! high (28) priority.
//!
//! [`Tcb`] holds only the *cold* per-thread record — name, program box,
//! wait bookkeeping, APC queues, stats. The scheduling-hot fields the
//! decision loop reads every event (state, priority, IRQL, quantum, the
//! active busy chunk, wait deadlines) live in the parallel columns of
//! [`crate::arena::ThreadTable`].

use crate::{
    ids::WaitObject,
    labels::Label,
    step::{ExecState, Program},
    time::Instant,
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
    /// Blocked on a dispatcher object or sleeping.
    Waiting,
    /// Exited; never scheduled again.
    Terminated,
}

/// The cold part of a thread control block (see module docs: the hot
/// scheduling columns live in [`crate::arena::ThreadTable`]).
pub struct Tcb {
    /// Debug name.
    pub name: String,
    /// Base priority boosts decay back to.
    pub base_priority: u8,
    /// The thread's code. Taken out while the kernel steps it.
    pub program: Option<Box<dyn Program>>,
    /// Whether `begin` has been delivered to the program.
    pub started: bool,
    /// What the thread is blocked on, if waiting on an object.
    pub wait: Option<WaitObject>,
    /// Whether the last timed wait expired rather than being satisfied.
    pub last_wait_timed_out: bool,
    /// When the thread was most recently made ready after a wait; the basis
    /// for the paper's thread latency measurement.
    pub readied_at: Option<Instant>,
    /// Program progress stashed while dispatch overhead runs.
    pub saved_exec: Option<ExecState>,
    /// Label attributed while the kernel runs thread-side bookkeeping.
    pub label: Label,
    /// Pending APCs, FIFO.
    pub apcs: std::collections::VecDeque<crate::ids::ApcId>,
    /// The APC routine currently executing in this thread, if any.
    pub active_apc: Option<(crate::ids::ApcId, Box<dyn Program>)>,
    /// Multi-object wait set the thread is blocked on, if any.
    pub wait_set: Option<crate::ids::WaitSetId>,
    /// Index of the object that satisfied the last `WaitAny`.
    pub last_wait_index: usize,
    /// Number of times the thread was dispatched.
    pub dispatch_count: u64,
    /// Number of waits satisfied.
    pub waits_satisfied: u64,
    /// Blame-ledger snapshot taken when the thread was last readied, set
    /// only while an observer arms `Interest::RESUME_BLAME` (inline copy,
    /// no allocation).
    pub(crate) blame_mark: Option<crate::kernel::BlameMark>,
}

impl Tcb {
    /// Creates the cold record for a new thread; `priority` seeds the base
    /// priority boosts decay back to. Range checking and the hot-column
    /// defaults are handled by [`crate::arena::ThreadTable::push`].
    pub fn new(name: &str, priority: u8, program: Box<dyn Program>) -> Tcb {
        Tcb {
            name: name.to_string(),
            base_priority: priority,
            program: Some(program),
            started: false,
            wait: None,
            last_wait_timed_out: false,
            readied_at: None,
            saved_exec: None,
            label: Label::KERNEL,
            apcs: std::collections::VecDeque::new(),
            active_apc: None,
            wait_set: None,
            last_wait_index: 0,
            dispatch_count: 0,
            waits_satisfied: 0,
            blame_mark: None,
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

    #[test]
    fn cold_record_defaults() {
        let t = Tcb::new(
            "worker",
            RT_DEFAULT_PRIORITY,
            Box::new(LoopSeq::new(vec![Step::Yield])),
        );
        assert_eq!(t.base_priority, RT_DEFAULT_PRIORITY);
        assert!(t.program.is_some());
        assert!(!t.started);
        assert_eq!(t.dispatch_count, 0);
    }
}
