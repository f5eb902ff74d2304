//! Model-based property tests: the kernel's core data structures checked
//! against simple reference implementations.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use wdm_sim::{
    dpc::{DpcDiscipline, DpcQueue},
    ids::{DpcId, ThreadId, VectorId},
    interrupt::InterruptController,
    irql::Irql,
    object::{KEvent, KSemaphore},
    sched::ReadyQueues,
    time::Instant,
};

/// Operations on the ready queues.
#[derive(Debug, Clone, Copy)]
enum RqOp {
    PushBack(u8, u8), // (thread id, priority 1..=31)
    PushFront(u8, u8),
    Pop,
}

fn rq_op() -> impl Strategy<Value = RqOp> {
    prop_oneof![
        (0u8..40, 1u8..=31).prop_map(|(t, p)| RqOp::PushBack(t, p)),
        (0u8..40, 1u8..=31).prop_map(|(t, p)| RqOp::PushFront(t, p)),
        Just(RqOp::Pop),
    ]
}

proptest! {
    /// ReadyQueues behaves like a reference priority-of-FIFOs model.
    #[test]
    fn ready_queues_match_reference(ops in prop::collection::vec(rq_op(), 1..200)) {
        let mut rq = ReadyQueues::new();
        // Reference: BTreeMap<priority, Vec<thread>> with front = index 0.
        let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        // Queued threads: a thread queues at most once.
        let mut queued: BTreeSet<u8> = BTreeSet::new();
        for op in ops {
            match op {
                RqOp::PushBack(t, p) => {
                    if !queued.insert(t) {
                        continue;
                    }
                    rq.push_back(ThreadId(t as usize), p);
                    model.entry(p).or_default().push(t);
                }
                RqOp::PushFront(t, p) => {
                    if !queued.insert(t) {
                        continue;
                    }
                    rq.push_front(ThreadId(t as usize), p);
                    model.entry(p).or_default().insert(0, t);
                }
                RqOp::Pop => {
                    let expect = model
                        .iter_mut()
                        .next_back()
                        .filter(|(_, v)| !v.is_empty())
                        .map(|(_, v)| v.remove(0));
                    model.retain(|_, v| !v.is_empty());
                    let got = rq.pop_highest().map(|t| t.0 as u8);
                    prop_assert_eq!(got, expect);
                    if let Some(t) = got {
                        queued.remove(&t);
                    }
                }
            }
            // Invariant: highest_priority agrees with the model.
            let expect_hi = model.keys().next_back().copied();
            prop_assert_eq!(rq.highest_priority(), expect_hi);
            prop_assert_eq!(rq.len(), model.values().map(Vec::len).sum::<usize>());
        }
    }

    /// DPC queue: FIFO (LIFO under the ablation), never two entries for
    /// the same DPC.
    #[test]
    fn dpc_queue_discipline_properties(
        inserts in prop::collection::vec(0usize..12, 1..60),
        lifo in prop::bool::ANY,
    ) {
        let discipline = if lifo { DpcDiscipline::Lifo } else { DpcDiscipline::Fifo };
        let mut q = DpcQueue::new(discipline);
        let mut model: Vec<usize> = Vec::new();
        for (i, dpc) in inserts.into_iter().enumerate() {
            let inserted = q.insert(DpcId(dpc), Instant(i as u64));
            prop_assert_eq!(inserted, !model.contains(&dpc), "double-insert must fail");
            if inserted {
                if lifo {
                    model.insert(0, dpc);
                } else {
                    model.push(dpc);
                }
            }
        }
        // Drain and compare order.
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e.dpc.0);
        }
        prop_assert_eq!(drained, model);
    }

    /// Interrupt controller: the dispatched vector is always the pending
    /// one with the highest IRQL above the mask.
    #[test]
    fn interrupt_controller_priority(
        irqls in prop::collection::vec(3u8..=28, 2..10),
        asserts in prop::collection::vec(prop::bool::ANY, 2..10),
        mask in 0u8..=28,
    ) {
        let mut ic = InterruptController::new();
        let vectors: Vec<VectorId> = irqls
            .iter()
            .map(|&q| ic.install("v", Irql(q)))
            .collect();
        for (v, &a) in vectors.iter().zip(&asserts) {
            if a {
                ic.assert_line(*v, Instant(1));
            }
        }
        let got = ic.next_dispatchable(Irql(mask));
        let expect = vectors
            .iter()
            .zip(&irqls)
            .zip(&asserts)
            .filter(|&((_, &q), &a)| a && q > mask)
            .max_by_key(|((v, &q), _)| (q, std::cmp::Reverse(v.0)))
            .map(|((v, _), _)| *v);
        prop_assert_eq!(got, expect);
    }

    /// Synchronization events release at most one waiter per signal and
    /// never lose a signal.
    #[test]
    fn event_signal_conservation(
        waiters in prop::collection::vec(0usize..20, 0..10),
        signals in 1usize..8,
    ) {
        let mut e = KEvent::new(false);
        let mut unique = waiters.clone();
        unique.sort_unstable();
        unique.dedup();
        for &w in &unique {
            e.enqueue_waiter(ThreadId(w));
        }
        let mut released = 0usize;
        for _ in 0..signals {
            released += e.set().len();
        }
        prop_assert_eq!(released, unique.len().min(signals));
        // Every signal either released a waiter or latched; the latch holds
        // at most one.
        prop_assert_eq!(e.signaled, released < signals);
    }

    /// Semaphore: count + released never exceeds initial + releases, and
    /// the count never exceeds the limit.
    #[test]
    fn semaphore_conservation(
        initial in 0u32..4,
        limit in 4u32..10,
        waiters in 0usize..6,
        releases in prop::collection::vec(1u32..4, 0..8),
    ) {
        let mut s = KSemaphore::new(initial, limit);
        let mut acquired = 0u32;
        while s.try_acquire() {
            acquired += 1;
        }
        prop_assert_eq!(acquired, initial);
        for w in 0..waiters {
            s.enqueue_waiter(ThreadId(w));
        }
        let mut woken = 0usize;
        let mut released_total = 0u32;
        for r in releases {
            woken += s.release(r).len();
            released_total += r;
        }
        prop_assert!(woken as u32 <= released_total);
        prop_assert!(s.count <= limit);
        prop_assert!(woken <= waiters);
    }
}
