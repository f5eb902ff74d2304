//! Dispatcher objects: events and semaphores.
//!
//! WDM threads block on *dispatcher objects*. The paper's measurement
//! drivers use a **synchronization event** — an event that auto-clears after
//! satisfying a single wait (§2.2 glossary) — which is what makes the
//! DPC → thread handoff a clean one-shot signal. Counted semaphores carry
//! the work-item queue's posts to its worker threads.

use std::collections::VecDeque;

use crate::ids::ThreadId;

/// A kernel synchronization event: satisfying one wait resets it.
#[derive(Debug)]
pub struct KEvent {
    /// Whether the event is currently signaled.
    pub signaled: bool,
    /// Threads blocked on the event, FIFO.
    pub waiters: VecDeque<ThreadId>,
}

impl KEvent {
    /// Creates an event in the given initial state.
    pub fn new(signaled: bool) -> KEvent {
        KEvent {
            signaled,
            waiters: VecDeque::new(),
        }
    }

    /// Signals the event, appending the thread released by the signal to
    /// `released` (a caller-owned scratch buffer, so the per-signal hot
    /// path never allocates).
    ///
    /// Releases at most one waiter, and stays non-signaled if it released
    /// one.
    pub fn set_into(&mut self, released: &mut Vec<ThreadId>) {
        if let Some(t) = self.waiters.pop_front() {
            self.signaled = false;
            released.push(t);
        } else {
            self.signaled = true;
        }
    }

    /// [`Self::set_into`] returning a fresh vector (test convenience).
    pub fn set(&mut self) -> Vec<ThreadId> {
        let mut released = Vec::new();
        self.set_into(&mut released);
        released
    }

    /// Attempts to satisfy a wait immediately, without blocking.
    ///
    /// Returns `true` if the wait is satisfied, consuming the signal.
    pub fn try_acquire(&mut self) -> bool {
        std::mem::take(&mut self.signaled)
    }

    /// Enqueues a thread to wait on the event.
    pub fn enqueue_waiter(&mut self, t: ThreadId) {
        self.waiters.push_back(t);
    }
}

/// A kernel semaphore object.
#[derive(Debug)]
pub struct KSemaphore {
    /// Current count; waits are satisfied while positive.
    pub count: u32,
    /// Maximum count; releases beyond it saturate.
    pub limit: u32,
    /// Threads blocked on the semaphore, FIFO.
    pub waiters: VecDeque<ThreadId>,
}

impl KSemaphore {
    /// Creates a semaphore with the given initial count and limit.
    pub fn new(initial: u32, limit: u32) -> KSemaphore {
        assert!(limit >= 1, "semaphore limit must be at least 1");
        assert!(initial <= limit, "initial count exceeds limit");
        KSemaphore {
            count: initial,
            limit,
            waiters: VecDeque::new(),
        }
    }

    /// Releases the semaphore by `n`, appending the threads released to
    /// `released` (a caller-owned scratch buffer, so the per-release hot
    /// path never allocates).
    pub fn release_into(&mut self, n: u32, released: &mut Vec<ThreadId>) {
        let mut budget = n.min(self.limit - self.count + self.waiters.len() as u32);
        while budget > 0 {
            match self.waiters.pop_front() {
                Some(t) => {
                    released.push(t);
                    budget -= 1;
                }
                None => break,
            }
        }
        self.count = (self.count + budget).min(self.limit);
    }

    /// [`Self::release_into`] returning a fresh vector (test convenience).
    pub fn release(&mut self, n: u32) -> Vec<ThreadId> {
        let mut released = Vec::new();
        self.release_into(n, &mut released);
        released
    }

    /// Attempts to satisfy a wait immediately, decrementing the count.
    pub fn try_acquire(&mut self) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Enqueues a thread to wait on the semaphore.
    pub fn enqueue_waiter(&mut self, t: ThreadId) {
        self.waiters.push_back(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_event_autoclears_on_single_release() {
        let mut e = KEvent::new(false);
        e.enqueue_waiter(ThreadId(1));
        e.enqueue_waiter(ThreadId(2));
        let released = e.set();
        assert_eq!(released, vec![ThreadId(1)]);
        assert!(!e.signaled, "auto-clear after satisfying one wait");
        assert_eq!(e.waiters.len(), 1);
    }

    #[test]
    fn sync_event_set_with_no_waiters_latches() {
        let mut e = KEvent::new(false);
        assert!(e.set().is_empty());
        assert!(e.signaled);
        // The latched signal satisfies exactly one try_acquire.
        assert!(e.try_acquire());
        assert!(!e.try_acquire());
    }

    #[test]
    fn semaphore_counts_and_releases_fifo() {
        let mut s = KSemaphore::new(1, 4);
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.enqueue_waiter(ThreadId(5));
        s.enqueue_waiter(ThreadId(6));
        let released = s.release(1);
        assert_eq!(released, vec![ThreadId(5)]);
        assert_eq!(s.count, 0, "release consumed by a waiter");
        let released = s.release(3);
        assert_eq!(released, vec![ThreadId(6)]);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn semaphore_release_saturates_at_limit() {
        let mut s = KSemaphore::new(0, 2);
        let released = s.release(10);
        assert!(released.is_empty());
        assert_eq!(s.count, 2);
    }

    #[test]
    #[should_panic(expected = "initial count exceeds limit")]
    fn semaphore_rejects_bad_initial() {
        let _ = KSemaphore::new(3, 2);
    }
}
