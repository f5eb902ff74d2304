//! Struct-of-arrays kernel tables for threads and timers.
//!
//! The decision loop reads a handful of scheduling fields — state,
//! priority, quantum, the active busy chunk — on **every** simulated
//! event, while the rest of a TCB (name, program box, stats) is touched
//! only on the slow paths. Keeping the hot fields in dense
//! parallel columns packs the whole scheduler working set into a few cache
//! lines regardless of how fat the cold records get, and hands the borrow
//! checker disjoint fields where the old all-in-one structs forced whole-
//! record `&mut` borrows.
//!
//! Indices are stable for the life of the kernel (threads and timers are
//! never deallocated), so `ThreadId`/`TimerId` index the columns directly.
//! The
//! generation columns (`deadline_gen`, `due_gen`) are what the event
//! calendar validates its lazily-invalidated deadline entries against; the
//! calendar borrows just those slices, not the tables (see
//! [`crate::calendar::Calendar`]).

use std::{
    borrow::Cow,
    ops::{Index, IndexMut},
};

use crate::{
    ids::DpcId,
    step::{ExecState, Program},
    thread::{Tcb, ThreadState, MAX_PRIORITY, RT_BAND_START},
    time::{Cycles, Instant},
    timer::KTimer,
};

/// The kernel's thread table: hot scheduling columns plus cold [`Tcb`]
/// records, all indexed by `ThreadId`.
///
/// Invariant: every column has exactly `len()` entries; row `i` of every
/// column describes the same thread.
#[derive(Default)]
pub struct ThreadTable {
    /// Scheduling state (read by the dispatcher every decision).
    pub state: Vec<ThreadState>,
    /// Current (possibly boosted) priority, 1..=31.
    pub priority: Vec<u8>,
    /// Remaining quantum in cycles. Only program work ticks it, in
    /// `Kernel::advance_to`; dispatch overhead does not.
    pub quantum_remaining: Vec<Cycles>,
    /// Whether the current busy chunk is dispatch overhead rather than
    /// program work (overhead does not tick the quantum).
    pub in_overhead: Vec<bool>,
    /// Context-switch overhead still to be charged before the program runs.
    pub pending_overhead: Vec<Cycles>,
    /// Execution progress: interrupted busy chunks survive preemption here.
    pub exec: Vec<ExecState>,
    /// Absolute deadline of a sleep.
    pub wait_deadline: Vec<Option<Instant>>,
    /// Generation of `wait_deadline`: bumped on every transition so the
    /// event calendar can lazily invalidate stale deadline entries.
    pub deadline_gen: Vec<u64>,
    cold: Vec<Tcb>,
}

impl ThreadTable {
    /// Appends a ready thread at the given priority; returns its index.
    pub fn push(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        priority: u8,
        program: Box<dyn Program>,
    ) -> usize {
        assert!(
            (1..=MAX_PRIORITY).contains(&priority),
            "thread priority must be 1..=31"
        );
        let i = self.cold.len();
        self.state.push(ThreadState::Ready);
        self.priority.push(priority);
        self.quantum_remaining.push(Cycles::ZERO);
        self.in_overhead.push(false);
        self.pending_overhead.push(Cycles::ZERO);
        self.exec.push(ExecState::NeedStep);
        self.wait_deadline.push(None);
        self.deadline_gen.push(0);
        self.cold.push(Tcb::new(name, priority, program));
        i
    }

    /// Number of threads ever created.
    pub fn len(&self) -> usize {
        self.cold.len()
    }

    /// True when no threads exist.
    pub fn is_empty(&self) -> bool {
        self.cold.is_empty()
    }

    /// True if thread `i` is in the real-time priority band.
    pub fn is_realtime(&self, i: usize) -> bool {
        self.priority[i] >= RT_BAND_START
    }
}

impl Index<usize> for ThreadTable {
    type Output = Tcb;
    fn index(&self, i: usize) -> &Tcb {
        &self.cold[i]
    }
}

impl IndexMut<usize> for ThreadTable {
    fn index_mut(&mut self, i: usize) -> &mut Tcb {
        &mut self.cold[i]
    }
}

/// The kernel's timer table: hot deadline columns plus cold [`KTimer`]
/// records, indexed by `TimerId`.
///
/// `due`/`due_gen` live here (not in `KTimer`) because the clock ISR path
/// and the calendar validity checks walk them densely every tick, while
/// the period, DPC and stats behind [`Index`] are per-expiry.
#[derive(Default)]
pub struct TimerTable {
    /// Absolute due time if armed.
    pub due: Vec<Option<Instant>>,
    /// Generation of `due`: bumped on every set and fire so the event
    /// calendar can lazily invalidate stale deadline entries.
    pub due_gen: Vec<u64>,
    cold: Vec<KTimer>,
}

impl TimerTable {
    /// Appends an unarmed timer, optionally bound to a DPC; returns its
    /// index.
    pub fn push(&mut self, dpc: Option<DpcId>) -> usize {
        let i = self.cold.len();
        self.due.push(None);
        self.due_gen.push(0);
        self.cold.push(KTimer::new(dpc));
        i
    }

    /// Number of timers ever created.
    pub fn len(&self) -> usize {
        self.cold.len()
    }

    /// True when no timers exist.
    pub fn is_empty(&self) -> bool {
        self.cold.is_empty()
    }

    /// Arms timer `i` (`KeSetTimerEx`). Re-arming replaces the previous
    /// due time.
    pub fn set(&mut self, i: usize, now: Instant, due_in: Cycles, period: Option<Cycles>) {
        self.due[i] = Some(now + due_in);
        self.due_gen[i] += 1;
        self.cold[i].period = period;
    }

    /// True if timer `i` is due at or before `now`.
    pub fn is_due(&self, i: usize, now: Instant) -> bool {
        matches!(self.due[i], Some(d) if d <= now)
    }

    /// Fires timer `i`: bumps stats and re-arms periodic timers. Returns
    /// the DPC to queue, if any.
    pub fn fire(&mut self, i: usize, now: Instant) -> Option<DpcId> {
        debug_assert!(self.is_due(i, now));
        let t = &mut self.cold[i];
        t.fire_count += 1;
        self.due_gen[i] += 1;
        match t.period {
            Some(p) => {
                // Periodic timers re-arm relative to the *due* time, not
                // the firing tick, so they do not drift.
                let due = self.due[i].expect("fired timer must have been armed");
                self.due[i] = Some(due + p);
            }
            None => self.due[i] = None,
        }
        t.dpc
    }
}

impl Index<usize> for TimerTable {
    type Output = KTimer;
    fn index(&self, i: usize) -> &KTimer {
        &self.cold[i]
    }
}

impl IndexMut<usize> for TimerTable {
    fn index_mut(&mut self, i: usize) -> &mut KTimer {
        &mut self.cold[i]
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
        let mut t = ThreadTable::default();
        let i = t.push("worker", 24, dummy());
        assert_eq!(t.state[i], ThreadState::Ready);
        assert!(t.is_realtime(i));
        assert_eq!(t[i].name, "worker");
    }

    #[test]
    fn realtime_band_boundary() {
        let mut t = ThreadTable::default();
        let lo = t.push("n", 15, dummy());
        let hi = t.push("r", 16, dummy());
        assert!(!t.is_realtime(lo));
        assert!(t.is_realtime(hi));
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn rejects_priority_zero() {
        let _ = ThreadTable::default().push("bad", 0, dummy());
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn rejects_priority_over_31() {
        let _ = ThreadTable::default().push("bad", 32, dummy());
    }

    #[test]
    fn columns_stay_parallel() {
        let mut t = ThreadTable::default();
        for p in 1..=8 {
            t.push(format!("t{p}"), p, dummy());
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.state.len(), 8);
        assert_eq!(t.priority.len(), 8);
        assert_eq!(t.exec.len(), 8);
        assert_eq!(t.deadline_gen.len(), 8);
    }

    #[test]
    fn timer_set_fire_oneshot() {
        let mut tt = TimerTable::default();
        let i = tt.push(Some(DpcId(3)));
        tt.set(i, Instant(1000), Cycles(500), None);
        assert!(!tt.is_due(i, Instant(1499)));
        assert!(tt.is_due(i, Instant(1500)));
        assert_eq!(tt.fire(i, Instant(1500)), Some(DpcId(3)));
        assert_eq!(tt.due[i], None);
        assert_eq!(tt[i].fire_count, 1);
    }

    #[test]
    fn periodic_timer_rearms_without_drift() {
        let mut tt = TimerTable::default();
        let i = tt.push(None);
        tt.set(i, Instant(0), Cycles(100), Some(Cycles(100)));
        // Fired late (at 130), but the next due time stays on the grid.
        assert!(tt.is_due(i, Instant(130)));
        tt.fire(i, Instant(130));
        assert_eq!(tt.due[i], Some(Instant(200)));
    }

    #[test]
    fn generations_bump_on_every_transition() {
        let mut tt = TimerTable::default();
        let i = tt.push(None);
        tt.set(i, Instant(0), Cycles(10), None); // gen 1
        tt.fire(i, Instant(10)); // gen 2
        tt.set(i, Instant(20), Cycles(10), None); // gen 3
        tt.set(i, Instant(25), Cycles(10), None); // gen 4: re-arm
        assert_eq!(tt.due_gen[i], 4);
        assert_eq!(tt.due[i], Some(Instant(35)));
    }
}
