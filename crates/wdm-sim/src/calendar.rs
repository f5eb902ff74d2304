//! The event calendar: deadline-indexed wakeup queues for the simulator.
//!
//! Every time-based wakeup in the kernel routes through one [`Calendar`]:
//! the PIT tick, environment-source arrivals, KTimer expiries and thread
//! sleeps. The main loop's decision point is then a single
//! [`Calendar::next_wakeup`] peek, and the clock ISR pops only *due*
//! entries instead of scanning every timer and every thread.
//!
//! # Ordering invariant
//!
//! The calendar must reproduce the fire order of the linear scans it
//! replaces **exactly**, because the simulator promises byte-identical
//! output at seed parity. Within one clock tick the old scans fired due
//! timers in ascending timer index and then expired sleeps in ascending
//! thread index — *not* in deadline order. [`DeadlineHeap`]
//! therefore only uses deadlines to find what is due; the due batch is
//! sorted by object index before the kernel acts on it.
//!
//! # Lazy cancellation
//!
//! Re-`KeSetTimer` on an armed timer would need an O(n) heap search to
//! remove its stale entry eagerly. Instead each armed object carries a
//! *generation* counter, bumped on every deadline transition; a heap entry
//! records the generation at arm time and is simply skipped at pop time if
//! the generations no longer match. A stale counter triggers an in-place
//! compaction when stale entries dominate, bounding memory without
//! perturbing fire order or the RNG call sequence. Sleep deadlines never go
//! stale: nothing wakes a sleeper early.

use std::{cmp::Reverse, collections::BinaryHeap};

use crate::{time::Instant, timer::Pit};

/// One armed deadline: the object's index and the generation its deadline
/// field carried when the entry was pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    deadline: Instant,
    idx: u32,
    gen: u64,
}

impl Entry {
    /// Heap key. Deadline first; index and generation only make the order
    /// total (the kernel re-sorts due batches by index anyway).
    fn key(&self) -> (u64, u32, u64) {
        (self.deadline.0, self.idx, self.gen)
    }
}

/// A binary min-heap of `(deadline, index, generation)` entries with lazy
/// invalidation.
///
/// The caller supplies a validity predicate (`FnMut(idx, gen) -> bool`)
/// comparing an entry's recorded generation against the object's current
/// one; entries that fail it are discarded as they surface. The protocol:
/// every push pairs with the object's current generation, and every
/// generation bump that orphans a live entry is reported via
/// [`DeadlineHeap::note_stale`] so compaction stays amortized O(1).
#[derive(Debug, Default)]
pub struct DeadlineHeap {
    entries: Vec<Entry>,
    /// Live entries whose generation no longer matches their object.
    stale: usize,
    /// Due entries processed (pops, stale skips, count visits).
    /// `tests/calendar_equivalence.rs` asserts this scales with due events,
    /// not with the number of armed far-future entries.
    examined: u64,
}

impl DeadlineHeap {
    /// Creates an empty heap.
    pub fn new() -> DeadlineHeap {
        DeadlineHeap::default()
    }

    /// Number of entries, stale ones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are stored (stale or otherwise).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Due entries processed so far (pops, stale skips, count visits).
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Arms `idx` at `deadline` with the object's current generation.
    pub fn push(&mut self, deadline: Instant, idx: u32, gen: u64) {
        self.entries.push(Entry { deadline, idx, gen });
        self.sift_up(self.entries.len() - 1);
    }

    /// Records that a previously pushed, not-yet-popped entry has been
    /// invalidated by a generation bump on its object.
    pub fn note_stale(&mut self) {
        self.stale += 1;
        debug_assert!(
            self.stale <= self.entries.len(),
            "more stale entries than entries"
        );
    }

    /// Pops every valid entry with `deadline <= now` into `out`, then
    /// sorts `out` ascending by object index — the order the old linear
    /// scans fired in. Stale entries that surface are discarded.
    pub fn pop_due_into(
        &mut self,
        now: Instant,
        mut valid: impl FnMut(u32, u64) -> bool,
        out: &mut Vec<u32>,
    ) {
        while let Some(&e) = self.entries.first() {
            if e.deadline > now {
                break;
            }
            self.pop_root();
            self.examined += 1;
            if valid(e.idx, e.gen) {
                out.push(e.idx);
            } else {
                debug_assert!(self.stale > 0, "stale pop without a note_stale");
                self.stale = self.stale.saturating_sub(1);
            }
        }
        out.sort_unstable();
        debug_assert!(
            out.windows(2).all(|w| w[0] != w[1]),
            "one object must hold at most one valid entry"
        );
    }

    /// Counts valid entries with `deadline <= now` without popping: a
    /// depth-first walk that descends only through due nodes, so the cost
    /// is O(due), not O(len). Recursion depth is bounded by the heap's
    /// tree height.
    pub fn count_due(&mut self, now: Instant, mut valid: impl FnMut(u32, u64) -> bool) -> usize {
        self.count_from(0, now, &mut valid)
    }

    fn count_from(
        &mut self,
        i: usize,
        now: Instant,
        valid: &mut impl FnMut(u32, u64) -> bool,
    ) -> usize {
        match self.entries.get(i) {
            Some(e) if e.deadline <= now => {
                self.examined += 1;
                let here = usize::from(valid(e.idx, e.gen));
                here + self.count_from(2 * i + 1, now, valid)
                    + self.count_from(2 * i + 2, now, valid)
            }
            _ => 0,
        }
    }

    /// Compacts the heap in place once stale entries dominate. Amortized
    /// O(1) per invalidation; allocation-free (`Vec::retain` + re-heapify
    /// reuse the buffer).
    pub fn maintain(&mut self, mut valid: impl FnMut(u32, u64) -> bool) {
        if self.stale < 32 || self.stale * 2 < self.entries.len() {
            return;
        }
        self.entries.retain(|e| valid(e.idx, e.gen));
        self.stale = 0;
        for i in (0..self.entries.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    fn pop_root(&mut self) {
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        self.entries.pop();
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i].key() >= self.entries[parent].key() {
                break;
            }
            self.entries.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < n && self.entries[l].key() < self.entries[min].key() {
                min = l;
            }
            if r < n && self.entries[r].key() < self.entries[min].key() {
                min = r;
            }
            if min == i {
                break;
            }
            self.entries.swap(i, min);
            i = min;
        }
    }
}

/// All time-based wakeup sources, unified behind one `next_wakeup` peek.
///
/// Timer and sleep deadlines deliberately do **not** contribute to
/// [`Calendar::next_wakeup`]: KTimers are tick-granular (they fire during
/// the first clock ISR at/after their due time, never between ticks), so
/// the PIT tick already bounds them and adding them would create spurious
/// decision points — changing `sim_events` and with it the byte-identical
/// run digests.
#[derive(Debug)]
pub struct Calendar {
    /// The programmable interval timer.
    pub pit: Pit,
    /// Environment arrivals: `Reverse((time, seq, source index))`; `seq`
    /// makes same-instant arrivals fire in schedule order.
    env: BinaryHeap<Reverse<(u64, u64, usize)>>,
    env_seq: u64,
    /// Armed KTimer deadlines, validated against the timer table's
    /// `due_gen` column.
    timers: DeadlineHeap,
    /// Thread sleep deadlines, validated against the thread table's
    /// `deadline_gen` column.
    waits: DeadlineHeap,
    /// Peak total armed entries across all three queues (stale entries
    /// included — they occupy memory). Source for the
    /// `sim.calendar.peak_entries` gauge.
    peak_entries: usize,
}

impl Calendar {
    /// Creates a calendar around the given PIT.
    pub fn new(pit: Pit) -> Calendar {
        Calendar {
            pit,
            env: BinaryHeap::new(),
            env_seq: 0,
            timers: DeadlineHeap::new(),
            waits: DeadlineHeap::new(),
            peak_entries: 0,
        }
    }

    /// Peak total armed entries across the env/timer/wait queues so far.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Folds the current occupancy into the peak; called after each arm.
    fn note_peak(&mut self) {
        let occupancy = self.env.len() + self.timers.len() + self.waits.len();
        self.peak_entries = self.peak_entries.max(occupancy);
    }

    /// The next hardware wakeup: the earlier of the PIT tick and the next
    /// environment arrival.
    ///
    /// Both inputs advance only inside `fire_due_events` (PIT ticks via
    /// [`Calendar::pop_due_tick`], arrivals via [`Calendar::pop_due_env`]),
    /// never while simulated code executes steps. The kernel's decision loop
    /// relies on that: the value read at the top of an iteration bounds
    /// that iteration's time advance (DESIGN.md §7).
    #[inline]
    pub fn next_wakeup(&self) -> Instant {
        let mut next = self.pit.next_tick;
        if let Some(&Reverse((t, _, _))) = self.env.peek() {
            next = next.min(Instant(t));
        }
        next
    }

    /// Consumes one due PIT tick, returning its scheduled time.
    pub fn pop_due_tick(&mut self, now: Instant) -> Option<Instant> {
        if self.pit.next_tick <= now {
            let t = self.pit.next_tick;
            self.pit.advance();
            Some(t)
        } else {
            None
        }
    }

    /// Consumes one due environment arrival, returning its source index.
    pub fn pop_due_env(&mut self, now: Instant) -> Option<usize> {
        match self.env.peek() {
            Some(&Reverse((t, _, idx))) if Instant(t) <= now => {
                self.env.pop();
                Some(idx)
            }
            _ => None,
        }
    }

    /// Schedules an environment source's next arrival.
    pub fn schedule_env(&mut self, idx: usize, at: Instant) {
        self.env_seq += 1;
        self.env.push(Reverse((at.0, self.env_seq, idx)));
        self.note_peak();
    }

    /// Arms a timer's calendar entry at its current generation.
    pub fn arm_timer(&mut self, idx: u32, deadline: Instant, gen: u64) {
        self.timers.push(deadline, idx, gen);
        self.note_peak();
    }

    /// Arms a thread-sleep calendar entry at its current generation.
    pub fn arm_wait(&mut self, idx: u32, deadline: Instant, gen: u64) {
        self.waits.push(deadline, idx, gen);
        self.note_peak();
    }

    /// Records that an armed timer's live entry went stale (re-set), then
    /// compacts if stale entries dominate. `due_gen` is the timer table's
    /// generation column (an entry is live iff its recorded generation
    /// still matches).
    pub fn timer_invalidated(&mut self, due_gen: &[u64]) {
        self.timers.note_stale();
        self.timers.maintain(|i, g| due_gen[i as usize] == g);
    }

    /// Number of timers due at `now`: an O(due) prefix count over the
    /// timer heap (the clock ISR body cost model multiplies by this).
    pub fn due_timer_count(&mut self, now: Instant, due_gen: &[u64]) -> usize {
        self.timers.count_due(now, |i, g| due_gen[i as usize] == g)
    }

    /// Pops the timers due at `now` into `out`, ascending by timer index.
    pub fn take_due_timers(&mut self, now: Instant, due_gen: &[u64], out: &mut Vec<u32>) {
        self.timers
            .pop_due_into(now, |i, g| due_gen[i as usize] == g, out);
    }

    /// Pops the threads whose sleep expired at `now` into `out`, ascending
    /// by thread index.
    pub fn take_due_waits(&mut self, now: Instant, deadline_gen: &[u64], out: &mut Vec<u32>) {
        self.waits
            .pop_due_into(now, |i, g| deadline_gen[i as usize] == g, out);
    }

    /// Total due entries processed across both deadline heaps — pops,
    /// stale skips and count visits. `tests/calendar_equivalence.rs`
    /// asserts this grows with *due* events only: a kernel carrying 1000
    /// armed far-future timers and sleepers must report the same
    /// per-second delta as one without them.
    pub fn tick_work(&self) -> u64 {
        self.timers.examined() + self.waits.examined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Cycles;

    /// Validity oracle for plain heap tests: entries are valid iff their
    /// generation matches the slot's current one.
    struct Gens(Vec<u64>);

    impl Gens {
        fn valid(&self) -> impl FnMut(u32, u64) -> bool + '_ {
            |i, g| self.0[i as usize] == g
        }
    }

    #[test]
    fn pops_due_in_index_order_not_deadline_order() {
        let gens = Gens(vec![0; 4]);
        let mut h = DeadlineHeap::new();
        // Index 3 is due *earlier* than index 1, but the batch comes out
        // sorted by index, matching the old linear scan.
        h.push(Instant(50), 3, 0);
        h.push(Instant(10), 1, 0);
        h.push(Instant(30), 2, 0);
        h.push(Instant(999), 0, 0); // not due
        let mut out = Vec::new();
        h.pop_due_into(Instant(60), gens.valid(), &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn stale_entries_are_skipped() {
        let mut gens = Gens(vec![0; 2]);
        let mut h = DeadlineHeap::new();
        h.push(Instant(10), 0, 0);
        h.push(Instant(20), 1, 0);
        // Re-arm slot 0 later: old entry goes stale, new one pushed.
        gens.0[0] = 1;
        h.note_stale();
        h.push(Instant(40), 0, 1);
        let mut out = Vec::new();
        h.pop_due_into(Instant(30), gens.valid(), &mut out);
        assert_eq!(out, vec![1], "stale slot-0 entry must not fire");
        out.clear();
        h.pop_due_into(Instant(40), gens.valid(), &mut out);
        assert_eq!(out, vec![0], "the re-armed entry fires at its new time");
    }

    #[test]
    fn count_due_is_exact_under_staleness() {
        let mut gens = Gens(vec![0; 8]);
        let mut h = DeadlineHeap::new();
        for i in 0..8u32 {
            h.push(Instant(10 + u64::from(i)), i, 0);
        }
        // Invalidate three of the due ones.
        for i in [1usize, 4, 6] {
            gens.0[i] = 1;
            h.note_stale();
        }
        assert_eq!(h.count_due(Instant(14), gens.valid()), 3); // 0, 2, 3
        assert_eq!(h.count_due(Instant(1000), gens.valid()), 5);
        assert_eq!(h.count_due(Instant(9), gens.valid()), 0);
    }

    #[test]
    fn maintain_compacts_without_changing_results() {
        let mut gens = Gens(vec![0; 100]);
        let mut h = DeadlineHeap::new();
        for i in 0..100u32 {
            h.push(Instant(1000 + u64::from(i)), i, 0);
        }
        for i in 0..80usize {
            gens.0[i] = 1;
            h.note_stale();
        }
        h.maintain(gens.valid());
        assert_eq!(h.len(), 20, "compaction drops stale entries");
        let mut out = Vec::new();
        h.pop_due_into(Instant(2000), gens.valid(), &mut out);
        assert_eq!(out, (80..100).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_env_orders_by_time_then_seq() {
        let mut c = Calendar::new(Pit::new(Cycles(1_000_000)));
        c.schedule_env(7, Instant(500));
        c.schedule_env(3, Instant(500));
        c.schedule_env(1, Instant(200));
        assert_eq!(c.next_wakeup(), Instant(200));
        assert_eq!(c.pop_due_env(Instant(500)), Some(1));
        assert_eq!(
            c.pop_due_env(Instant(500)),
            Some(7),
            "ties fire in schedule order"
        );
        assert_eq!(c.pop_due_env(Instant(500)), Some(3));
        assert_eq!(c.pop_due_env(Instant(500)), None);
    }

    #[test]
    fn peak_entries_is_a_high_water_mark() {
        let mut c = Calendar::new(Pit::new(Cycles(100)));
        assert_eq!(c.peak_entries(), 0);
        c.schedule_env(0, Instant(10));
        c.arm_timer(0, Instant(20), 0);
        c.arm_wait(0, Instant(30), 0);
        assert_eq!(c.peak_entries(), 3);
        assert_eq!(c.pop_due_env(Instant(10)), Some(0));
        c.schedule_env(0, Instant(40));
        assert_eq!(c.peak_entries(), 3, "draining must not lower the peak");
        c.arm_timer(1, Instant(50), 0);
        assert_eq!(c.peak_entries(), 4, "a new high water raises it");
    }

    #[test]
    fn calendar_tick_pops_advance_pit() {
        let mut c = Calendar::new(Pit::new(Cycles(100)));
        assert_eq!(c.pop_due_tick(Instant(99)), None);
        assert_eq!(c.pop_due_tick(Instant(100)), Some(Instant(100)));
        assert_eq!(c.pop_due_tick(Instant(100)), None);
        assert_eq!(c.next_wakeup(), Instant(200));
        assert_eq!(c.pit.tick_count, 1);
    }
}
