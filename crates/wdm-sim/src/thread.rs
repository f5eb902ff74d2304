//! Kernel threads.
//!
//! WDM exposes 31 usable priorities: 1–15 are timesliced "normal" dynamic
//! priorities, 16–31 are the real-time band (paper §2.2 glossary: "WDM has
//! 16 real-time priorities, 16 through 31. 24 is the default."). The paper
//! measures thread latency for kernel threads at real-time default (24) and
//! high (28) priority.
//!
//! [`Tcb`] holds only the *cold* per-thread record — name, program box,
//! wait bookkeeping, stats. The scheduling-hot fields the decision loop
//! reads every event (state, priority, quantum, the active busy chunk,
//! sleep deadlines) live in the parallel columns of
//! [`crate::arena::ThreadTable`]. Threads always run at PASSIVE level.

use std::borrow::Cow;

use crate::{
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
    /// Blocked on a dispatcher object, sleeping, or parked after its
    /// program returned.
    Waiting,
}

/// The cold part of a thread control block (see module docs: the hot
/// scheduling columns live in [`crate::arena::ThreadTable`]).
pub struct Tcb {
    /// Debug name.
    pub name: Cow<'static, str>,
    /// Base priority boosts decay back to.
    pub base_priority: u8,
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
    /// Creates the cold record for a new thread; `priority` seeds the base
    /// priority boosts decay back to. Range checking and the hot-column
    /// defaults are handled by [`crate::arena::ThreadTable::push`].
    pub fn new(name: impl Into<Cow<'static, str>>, priority: u8, program: Box<dyn Program>) -> Tcb {
        Tcb {
            name: name.into(),
            base_priority: priority,
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
    use crate::{
        step::{LoopSeq, Step},
        time::Cycles,
    };

    #[test]
    fn cold_record_defaults() {
        let t = Tcb::new(
            "worker",
            RT_DEFAULT_PRIORITY,
            Box::new(LoopSeq::new(vec![Step::Sleep(Cycles(1))])),
        );
        assert_eq!(t.base_priority, RT_DEFAULT_PRIORITY);
        assert!(t.program.is_some());
        assert!(!t.started);
        assert_eq!(t.dispatch_count, 0);
    }
}
