//! Deferred Procedure Calls and the DPC queue.
//!
//! WDM ISRs are supposed to be short; real work is deferred to a DPC that
//! the kernel runs at DISPATCH level after all ISRs have retired but before
//! any thread runs (paper §2.2: "DPCs execute after all ISRs but before
//! paging and threads"). DPCs are queued FIFO at the default (Medium)
//! importance every driver here uses, and never preempt one another.
//!
//! Because of the FIFO discipline, the paper's *DPC latency* includes the
//! aggregate execution time of every DPC ahead in the queue — this module is
//! therefore directly responsible for the DPC latency tail.

use std::collections::VecDeque;

use crate::{ids::DpcId, time::Instant};

/// Queue discipline. WDM uses FIFO; LIFO is provided for the ablation
/// study in DESIGN.md §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpcDiscipline {
    /// First-in first-out (the WDM behavior).
    Fifo,
    /// Last-in first-out (ablation only).
    Lifo,
}

/// A queued DPC entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpcEntry {
    /// Which DPC object was queued.
    pub dpc: DpcId,
    /// When `KeInsertQueueDpc` ran — the start of the DPC latency interval.
    pub queued_at: Instant,
}

/// The processor's DPC queue.
#[derive(Debug)]
pub struct DpcQueue {
    entries: VecDeque<DpcEntry>,
    discipline: DpcDiscipline,
    /// Total DPCs ever enqueued, for stats.
    pub enqueued_total: u64,
}

impl DpcQueue {
    /// Creates an empty queue with the given discipline.
    pub fn new(discipline: DpcDiscipline) -> DpcQueue {
        DpcQueue {
            entries: VecDeque::new(),
            discipline,
            enqueued_total: 0,
        }
    }

    /// Inserts a DPC according to the queue discipline.
    ///
    /// Returns `false` if the DPC was already queued (WDM: a DPC object can
    /// be in the queue at most once; `KeInsertQueueDpc` fails the second
    /// insert).
    pub fn insert(&mut self, dpc: DpcId, now: Instant) -> bool {
        if self.entries.iter().any(|e| e.dpc == dpc) {
            return false;
        }
        self.enqueued_total += 1;
        let entry = DpcEntry {
            dpc,
            queued_at: now,
        };
        match self.discipline {
            DpcDiscipline::Fifo => self.entries.push_back(entry),
            DpcDiscipline::Lifo => self.entries.push_front(entry),
        }
        true
    }

    /// Removes and returns the next DPC to run.
    pub fn pop(&mut self) -> Option<DpcEntry> {
        self.entries.pop_front()
    }

    /// Number of queued DPCs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no DPCs are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> DpcQueue {
        DpcQueue::new(DpcDiscipline::Fifo)
    }

    #[test]
    fn fifo_order_for_medium() {
        let mut queue = q();
        assert!(queue.insert(DpcId(1), Instant(10)));
        assert!(queue.insert(DpcId(2), Instant(20)));
        assert_eq!(queue.pop().unwrap().dpc, DpcId(1));
        assert_eq!(queue.pop().unwrap().dpc, DpcId(2));
        assert!(queue.pop().is_none());
    }

    #[test]
    fn double_insert_fails() {
        let mut queue = q();
        assert!(queue.insert(DpcId(1), Instant(10)));
        assert!(!queue.insert(DpcId(1), Instant(20)));
        assert_eq!(queue.len(), 1);
        // The original enqueue timestamp survives.
        assert_eq!(queue.pop().unwrap().queued_at, Instant(10));
        // After popping, the DPC can be queued again.
        assert!(queue.insert(DpcId(1), Instant(30)));
    }

    #[test]
    fn lifo_ablation_reverses_order() {
        let mut queue = DpcQueue::new(DpcDiscipline::Lifo);
        queue.insert(DpcId(1), Instant(10));
        queue.insert(DpcId(2), Instant(20));
        assert_eq!(queue.pop().unwrap().dpc, DpcId(2));
        assert_eq!(queue.pop().unwrap().dpc, DpcId(1));
    }

    #[test]
    fn queue_counts_total_enqueues() {
        let mut queue = q();
        queue.insert(DpcId(1), Instant(0));
        queue.pop();
        queue.insert(DpcId(1), Instant(1));
        assert_eq!(queue.enqueued_total, 2);
    }
}
