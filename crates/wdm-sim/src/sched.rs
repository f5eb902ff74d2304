//! Ready queues for the fixed-priority preemptive scheduler.
//!
//! One FIFO queue per priority level plus a non-empty bitmap, the classic
//! NT dispatcher-database layout. Higher priority always wins; equal
//! priority round-robins. Threads readied by a signal go to the *tail* of
//! their queue; threads preempted by a higher-priority thread go back to the
//! *head* (they keep their turn), matching NT semantics.

use std::collections::VecDeque;

use crate::{ids::ThreadId, thread::MAX_PRIORITY};

/// The per-priority ready queues.
#[derive(Debug)]
pub struct ReadyQueues {
    queues: Vec<VecDeque<ThreadId>>,
    nonempty: u32,
}

impl ReadyQueues {
    /// Creates empty queues for priorities 0..=31 (0 unused).
    pub fn new() -> ReadyQueues {
        ReadyQueues {
            queues: (0..=MAX_PRIORITY as usize)
                .map(|_| VecDeque::new())
                .collect(),
            nonempty: 0,
        }
    }

    /// Enqueues a readied thread at the tail of its priority queue.
    #[inline]
    pub fn push_back(&mut self, t: ThreadId, priority: u8) {
        self.queues[priority as usize].push_back(t);
        self.nonempty |= 1 << priority;
    }

    /// Enqueues a preempted thread at the head of its priority queue.
    pub fn push_front(&mut self, t: ThreadId, priority: u8) {
        self.queues[priority as usize].push_front(t);
        self.nonempty |= 1 << priority;
    }

    /// Highest non-empty priority, if any thread is ready.
    ///
    /// One `lzcnt` over the non-empty bitmap — the batched step loop
    /// consults this through `ensure_activity` once per decision-loop
    /// iteration, so it must stay branch-light.
    #[inline]
    pub fn highest_priority(&self) -> Option<u8> {
        if self.nonempty == 0 {
            None
        } else {
            Some(31 - self.nonempty.leading_zeros() as u8)
        }
    }

    /// Dequeues the next thread to run: head of the highest queue.
    pub fn pop_highest(&mut self) -> Option<ThreadId> {
        let p = self.highest_priority()? as usize;
        let t = self.queues[p].pop_front();
        if self.queues[p].is_empty() {
            self.nonempty &= !(1 << p);
        }
        t
    }

    /// Number of ready threads at a given priority.
    pub fn len_at(&self, priority: u8) -> usize {
        self.queues[priority as usize].len()
    }

    /// Total ready threads.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True if no threads are ready.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nonempty == 0
    }
}

impl Default for ReadyQueues {
    fn default() -> ReadyQueues {
        ReadyQueues::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_priority_wins() {
        let mut rq = ReadyQueues::new();
        rq.push_back(ThreadId(1), 8);
        rq.push_back(ThreadId(2), 24);
        rq.push_back(ThreadId(3), 16);
        assert_eq!(rq.highest_priority(), Some(24));
        assert_eq!(rq.pop_highest(), Some(ThreadId(2)));
        assert_eq!(rq.pop_highest(), Some(ThreadId(3)));
        assert_eq!(rq.pop_highest(), Some(ThreadId(1)));
        assert_eq!(rq.pop_highest(), None);
        assert!(rq.is_empty());
    }

    #[test]
    fn equal_priority_is_fifo() {
        let mut rq = ReadyQueues::new();
        rq.push_back(ThreadId(1), 24);
        rq.push_back(ThreadId(2), 24);
        assert_eq!(rq.pop_highest(), Some(ThreadId(1)));
        assert_eq!(rq.pop_highest(), Some(ThreadId(2)));
    }

    #[test]
    fn preempted_thread_keeps_its_turn() {
        let mut rq = ReadyQueues::new();
        rq.push_back(ThreadId(1), 24);
        rq.push_front(ThreadId(2), 24); // preempted: back to the head
        assert_eq!(rq.pop_highest(), Some(ThreadId(2)));
    }

    #[test]
    fn len_accounting() {
        let mut rq = ReadyQueues::new();
        rq.push_back(ThreadId(1), 5);
        rq.push_back(ThreadId(2), 5);
        rq.push_back(ThreadId(3), 9);
        assert_eq!(rq.len_at(5), 2);
        assert_eq!(rq.len(), 3);
    }

    #[test]
    fn priority_31_is_representable() {
        let mut rq = ReadyQueues::new();
        rq.push_back(ThreadId(9), 31);
        assert_eq!(rq.highest_priority(), Some(31));
        assert_eq!(rq.pop_highest(), Some(ThreadId(9)));
    }
}
