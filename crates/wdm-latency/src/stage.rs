//! Struct-of-arrays sample staging for batched series recording.
//!
//! Observers on the measurement hot path do not fold each latency sample
//! into its [`LatencySeries`] as it arrives; they append a raw
//! `(now_cycles, latency_cycles, series_id)` triple to a [`SampleStage`]
//! and fold whole batches at flush time. The flush partitions the columns
//! by series id (a counting sort into fixed scratch columns) and hands
//! each series one dense run, which it folds with the hoisted-check batch
//! loops in [`crate::histogram`] and [`crate::worstcase`].
//!
//! Digest contract: under the exact accumulators (DESIGN.md §14) every
//! per-series fold is associative and commutative — integer bin counts,
//! `u64` extremes, `u128` epoch sums, per-block maxima — so the partition
//! does **not** need to preserve arrival order; the scatter runs end-first
//! (provably unordered: each run comes out reversed) and staged recording
//! is still bit-identical to per-sample recording. The
//! `batch_record_equivalence` and `stats_order_invariance` proptest
//! oracles enforce this.
//!
//! Flush points: capacity (the columns never reallocate in steady state),
//! a minute-block boundary (keeps batches inside one block so the
//! block-maxima fold is a pure max-reduce), and measurement end (every
//! read site drains the stage before looking at a series).

use wdm_sim::time::{Cycles, Instant};

use crate::worstcase::LatencySeries;

/// Soft capacity: a flush is requested once this many triples are staged.
/// 256 triples = 4.5 KiB of columns — L1-resident together with the scratch.
const STAGE_CAPACITY: usize = 256;

/// Extra column headroom past the soft capacity: an observer may push a
/// few more triples for the event it is mid-way through before it reaches
/// a point where flushing is borrow-safe.
const STAGE_SLACK: usize = 8;

/// A fixed-capacity struct-of-arrays buffer of raw latency samples.
#[derive(Debug)]
pub struct SampleStage {
    /// Observation timestamps (cycles), in arrival order.
    now: Vec<u64>,
    /// Latency samples (cycles), parallel to `now`.
    lat: Vec<u64>,
    /// Series id per sample, parallel to `now`.
    sid: Vec<u16>,
    /// Soft capacity: pushes at or past this request a flush. The columns
    /// hold [`STAGE_SLACK`] more before they would reallocate.
    soft_cap: usize,
    /// Scratch columns the flush partitions into (same capacity).
    part_now: Vec<u64>,
    part_lat: Vec<u64>,
    /// Per-series sample count within the staged batch.
    counts: Vec<u32>,
    /// Per-series run start within the partitioned scratch (prefix sums of
    /// `counts`); doubles as the scatter cursor during partitioning.
    starts: Vec<u32>,
    /// High-water mark of staged triples, observed at flush time (the
    /// columns are fullest right before a drain). Feeds the
    /// `latency.stage.peak` gauge.
    peak_staged: usize,
    /// One minute in cycles — the block-boundary flush trigger. 0 disables
    /// the boundary trigger (stages that feed block-free sinks).
    block_len: u64,
    /// End of the minute the most recent sample fell in.
    cur_block_end: u64,
    /// Completed flushes (drained batches).
    batch_flushes: u64,
    /// Total triples ever staged.
    staged_samples: u64,
}

impl SampleStage {
    /// Creates a stage with the default capacity. `block_len` is the
    /// minute-block length in cycles (`60 * cpu_hz`); pass 0 to disable
    /// the block-boundary flush trigger.
    pub fn new(block_len: u64) -> SampleStage {
        SampleStage::with_capacity(block_len, STAGE_CAPACITY)
    }

    /// Creates a stage with an explicit soft capacity (tests).
    pub fn with_capacity(block_len: u64, capacity: usize) -> SampleStage {
        assert!(capacity > 0, "stage capacity must be positive");
        let cap = capacity + STAGE_SLACK;
        SampleStage {
            now: Vec::with_capacity(cap),
            lat: Vec::with_capacity(cap),
            sid: Vec::with_capacity(cap),
            soft_cap: capacity,
            part_now: vec![0; cap],
            part_lat: vec![0; cap],
            counts: Vec::new(),
            starts: Vec::new(),
            peak_staged: 0,
            block_len,
            cur_block_end: block_len,
            batch_flushes: 0,
            staged_samples: 0,
        }
    }

    /// Registers `n` consecutive series and returns the first id. All ids
    /// a stage will see must be registered before the first push (series
    /// registration is the only allocating operation; it happens at
    /// observer attach time, never in steady state).
    pub fn register_series(&mut self, n: usize) -> u16 {
        let base = self.counts.len();
        self.counts.resize(base + n, 0);
        self.starts.resize(base + n, 0);
        u16::try_from(base).expect("series id space is u16")
    }

    /// Appends one raw sample. Returns `true` when the caller should
    /// flush: the soft capacity is reached or the sample crossed a
    /// minute-block boundary. Up to `STAGE_SLACK` further pushes may
    /// follow a `true` before the flush actually happens.
    #[inline]
    pub fn push(&mut self, sid: u16, now: Instant, lat: Cycles) -> bool {
        debug_assert!((sid as usize) < self.counts.len(), "unregistered series");
        debug_assert!(self.now.len() < self.now.capacity(), "stage overflow");
        self.now.push(now.0);
        self.lat.push(lat.0);
        self.sid.push(sid);
        let mut want_flush = self.now.len() >= self.soft_cap;
        if self.block_len != 0 && now.0 >= self.cur_block_end {
            self.cur_block_end = (now.0 / self.block_len + 1) * self.block_len;
            want_flush = true;
        }
        want_flush
    }

    /// True when no samples are staged.
    pub fn is_empty(&self) -> bool {
        self.now.is_empty()
    }

    /// Partitions the staged columns by series id into the scratch
    /// columns. After this, [`Self::run`] exposes each series' samples as
    /// one dense run. Call [`Self::reset`] once every run is folded.
    ///
    /// The scatter runs **end-first**: the prefix sums are run *end*
    /// positions and each sample decrements its cursor before storing, so
    /// the cursors land exactly on the run starts with no rewind pass —
    /// and each run comes out in reversed arrival order, which the
    /// order-independent folds are free to accept (DESIGN.md §14).
    pub fn partition(&mut self) {
        self.counts.fill(0);
        for &s in &self.sid {
            self.counts[s as usize] += 1;
        }
        let mut acc = 0u32;
        for (end, &count) in self.starts.iter_mut().zip(&self.counts) {
            acc += count;
            *end = acc;
        }
        for k in 0..self.now.len() {
            let s = self.sid[k] as usize;
            self.starts[s] -= 1;
            let dst = self.starts[s] as usize;
            self.part_now[dst] = self.now[k];
            self.part_lat[dst] = self.lat[k];
        }
    }

    /// One series' partitioned run: parallel `(now, latency)` columns in
    /// reversed arrival order (see [`Self::partition`]). Valid between
    /// [`Self::partition`] and [`Self::reset`].
    pub fn run(&self, sid: u16) -> (&[u64], &[u64]) {
        let a = self.starts[sid as usize] as usize;
        let b = a + self.counts[sid as usize] as usize;
        (&self.part_now[a..b], &self.part_lat[a..b])
    }

    /// Folds one series' partitioned run into its [`LatencySeries`].
    pub fn fold_into(&self, sid: u16, series: &mut LatencySeries) {
        let (nows, lats) = self.run(sid);
        series.record_cycles_batch(nows, lats);
    }

    /// Clears the staged columns after a flush and counts the batch (the
    /// lifetime sample total advances here, once per batch, rather than
    /// on the per-push hot path).
    pub fn reset(&mut self) {
        self.staged_samples += self.now.len() as u64;
        self.peak_staged = self.peak_staged.max(self.now.len());
        self.now.clear();
        self.lat.clear();
        self.sid.clear();
        self.batch_flushes += 1;
    }

    /// Completed flushes.
    pub fn batch_flushes(&self) -> u64 {
        self.batch_flushes
    }

    /// Total triples staged over the stage's lifetime, counted at flush:
    /// triples still in the columns appear after the next [`Self::reset`].
    pub fn staged_samples(&self) -> u64 {
        self.staged_samples
    }

    /// High-water mark of staged triples: the fullest the columns ever got
    /// at a drain point, including triples not yet drained. Bounded by the
    /// soft capacity plus the private push slack (`STAGE_SLACK`) by
    /// construction.
    pub fn peak_staged(&self) -> usize {
        self.peak_staged.max(self.now.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages the shared five-sample, three-series fixture.
    fn stage_fixture(st: &mut SampleStage) -> (u16, u16) {
        let a = st.register_series(1);
        let b = st.register_series(2); // Two-series block.
        st.push(a, Instant(1), Cycles(10));
        st.push(b + 1, Instant(2), Cycles(20));
        st.push(a, Instant(3), Cycles(30));
        st.push(b, Instant(4), Cycles(40));
        st.push(a, Instant(5), Cycles(50));
        (a, b)
    }

    #[test]
    fn peak_staged_is_a_high_water_mark() {
        let mut st = SampleStage::with_capacity(0, 16);
        let s = st.register_series(1);
        assert_eq!(st.peak_staged(), 0);
        for t in 0..5u64 {
            st.push(s, Instant(t), Cycles(1));
        }
        // Undrained triples count toward the peak immediately.
        assert_eq!(st.peak_staged(), 5);
        st.partition();
        st.reset();
        // Draining does not lower the mark; a smaller batch doesn't either.
        assert_eq!(st.peak_staged(), 5);
        st.push(s, Instant(10), Cycles(1));
        st.partition();
        st.reset();
        assert_eq!(st.peak_staged(), 5);
        // A fuller batch raises it.
        for t in 0..9u64 {
            st.push(s, Instant(20 + t), Cycles(1));
        }
        st.partition();
        st.reset();
        assert_eq!(st.peak_staged(), 9);
    }

    #[test]
    fn v2_partition_yields_dense_unordered_runs() {
        // The end-first scatter reverses each run — asserted here exactly
        // so a silent change back to a (slower) stable sort is caught —
        // and the run *contents* per series are what matters downstream.
        let mut st = SampleStage::with_capacity(0, 16);
        let (a, b) = stage_fixture(&mut st);
        st.partition();
        assert_eq!(st.run(a), (&[5u64, 3, 1][..], &[50u64, 30, 10][..]));
        assert_eq!(st.run(b), (&[4u64][..], &[40u64][..]));
        assert_eq!(st.run(b + 1), (&[2u64][..], &[20u64][..]));
        st.reset();
        assert!(st.is_empty());
        assert_eq!(st.batch_flushes(), 1);
        assert_eq!(st.staged_samples(), 5);
    }

    #[test]
    fn v2_fold_of_unordered_runs_matches_per_sample_recording() {
        // End-to-end through the stage: the reversed runs must fold to
        // bit-identical series state vs recording each sample directly.
        let cpu = 300_000_000u64;
        let mut st = SampleStage::with_capacity(0, 16);
        let s = st.register_series(1);
        let samples = [(1u64, 700u64), (90_000_000, 12), (170_000_000, 9_000_000)];
        let mut direct = LatencySeries::new("t", cpu);
        for &(t, c) in &samples {
            st.push(s, Instant(t), Cycles(c));
            direct.record_cycles(Instant(t), Cycles(c));
        }
        st.partition();
        let mut staged = LatencySeries::new("t", cpu);
        st.fold_into(s, &mut staged);
        assert_eq!(staged.hist.counts(), direct.hist.counts());
        assert_eq!(staged.hist.rate_epochs(), direct.hist.rate_epochs());
        assert_eq!(
            staged.hist.mean_ms().to_bits(),
            direct.hist.mean_ms().to_bits()
        );
        assert_eq!(
            staged.hist.max_ms().to_bits(),
            direct.hist.max_ms().to_bits()
        );
    }

    #[test]
    fn capacity_and_block_boundary_request_flushes() {
        let mut st = SampleStage::with_capacity(100, 4);
        let s = st.register_series(1);
        assert!(!st.push(s, Instant(1), Cycles(1)));
        assert!(!st.push(s, Instant(2), Cycles(1)));
        assert!(!st.push(s, Instant(3), Cycles(1)));
        assert!(st.push(s, Instant(4), Cycles(1)), "soft capacity reached");
        st.partition();
        st.reset();
        // Crossing a 100-cycle block requests a flush even when near-empty.
        assert!(st.push(s, Instant(150), Cycles(1)), "block boundary");
        assert!(!st.push(s, Instant(160), Cycles(1)), "same block again");
        assert!(st.push(s, Instant(320), Cycles(1)), "skipped a block");
    }

    #[test]
    fn empty_runs_fold_as_noops() {
        let mut st = SampleStage::with_capacity(0, 8);
        let s = st.register_series(2);
        st.push(s + 1, Instant(1), Cycles(7));
        st.partition();
        let mut series = LatencySeries::new("t", 300_000_000);
        st.fold_into(s, &mut series);
        assert_eq!(series.hist.count(), 0);
        st.fold_into(s + 1, &mut series);
        assert_eq!(series.hist.count(), 1);
    }
}
