//! Worst-case extraction: expected hourly/daily/weekly maxima (Table 3).
//!
//! The paper characterizes Windows 98 "in terms of three expected worst
//! case values: hourly, daily and weekly" (§4.3), where a day and week are
//! defined by the heavy-user usage models of §3.1, and collection time is
//! compressed relative to usage time.
//!
//! Two estimators are combined:
//!
//! - **Block maxima**: when enough collection time exists, the expected
//!   max over a window is the mean of per-window maxima.
//! - **Tail quantiles**: when the simulated run is shorter than the target
//!   window, the expected max over `n` samples is approximated by the
//!   `1 - 1/n` quantile of the empirical distribution, with a log-log
//!   tail extrapolation beyond the observed support (capped at 3x the
//!   observed maximum so a sparse tail cannot explode the estimate).

use wdm_sim::time::{Cycles, Instant};

use crate::histogram::LatencyHistogram;

/// Running per-block maxima of a timestamped latency series.
///
/// Samples arrive as cycle counts at one clock rate, bound by the first
/// sample or merge. The running maximum of the *hot* block stays a `u64`
/// and converts to ms only when the block completes: because cycles→ms
/// conversion is monotone, `max` commutes with it, so the block value is
/// bit-identical to converting each sample up front (DESIGN.md §12).
///
/// A block's value is determined only by the samples whose timestamps fall
/// in it — `max` is associative and commutative — so sample order is
/// free: late samples for an already-completed block fold straight into
/// its slot in `maxima`, producing exactly what streaming them in
/// timestamp order would have (DESIGN.md §14). The hot-block cache only
/// makes the common monotone stream cheap (two compares, no division).
#[derive(Debug, Clone)]
pub struct BlockMaxima {
    block_len: Cycles,
    /// Start of the hot block: always `maxima.len() * block_len`, i.e. the
    /// hot block is the one right after the completed prefix.
    cur_start: Instant,
    cur_block_end: Instant,
    /// Running max of the hot block's samples, in cycles.
    cur_max_c: u64,
    /// The clock rate every sample is recorded at; 0 until bound.
    cpu_hz: u64,
    cur_nonempty: bool,
    /// Completed block maxima, dense from block 0: `maxima[b]` is the max
    /// over `[b * block_len, (b + 1) * block_len)`, `0.0` for sample-free
    /// blocks.
    maxima: Vec<f64>,
}

impl BlockMaxima {
    /// Creates a tracker with the given block length.
    pub fn new(block_len: Cycles) -> BlockMaxima {
        assert!(!block_len.is_zero(), "block length must be non-zero");
        BlockMaxima {
            block_len,
            cur_start: Instant::ZERO,
            cur_block_end: Instant::ZERO + block_len,
            cur_max_c: 0,
            cpu_hz: 0,
            cur_nonempty: false,
            maxima: Vec::new(),
        }
    }

    /// Binds the tracker to `cpu_hz`; a second rate panics.
    fn bind_rate(&mut self, cpu_hz: u64) {
        if self.cpu_hz != cpu_hz {
            assert!(
                self.cpu_hz == 0,
                "block maxima record at one clock rate ({} Hz, then {cpu_hz} Hz)",
                self.cpu_hz
            );
            self.cpu_hz = cpu_hz;
        }
    }

    /// Closes the hot block: converts its maximum, pushes the block value,
    /// and resets for the next block.
    fn flush_block(&mut self) {
        self.maxima.push(if self.cur_nonempty {
            Cycles(self.cur_max_c).as_ms_at(self.cpu_hz)
        } else {
            0.0
        });
        self.cur_max_c = 0;
        self.cur_nonempty = false;
        self.cur_start = self.cur_block_end;
        self.cur_block_end = self.cur_block_end + self.block_len;
    }

    /// Completes the hot block plus any skipped sample-free blocks so the
    /// block containing `now` becomes the hot one. One division, only on
    /// the rare block-crossing path.
    fn advance_to(&mut self, now: Instant) {
        debug_assert!(now >= self.cur_block_end);
        self.flush_block();
        let b = (now.0 / self.block_len.0) as usize;
        if self.maxima.len() < b {
            self.maxima.resize(b, 0.0);
            self.cur_start = Instant(self.block_len.0 * b as u64);
            self.cur_block_end = self.cur_start + self.block_len;
        }
    }

    /// Folds one sample observed at `now` into the block its timestamp
    /// selects: one `u64` compare for the hot block; a late sample for a
    /// completed block converts immediately (max commutes with the
    /// conversion, so the slot value is unchanged by the fold point).
    #[inline]
    fn fold(&mut self, now: Instant, c: u64) {
        if now >= self.cur_block_end {
            self.advance_to(now);
        } else if now < self.cur_start {
            let b = (now.0 / self.block_len.0) as usize;
            let ms = Cycles(c).as_ms_at(self.cpu_hz);
            if ms > self.maxima[b] {
                self.maxima[b] = ms;
            }
            return;
        }
        if c > self.cur_max_c {
            self.cur_max_c = c;
        }
        self.cur_nonempty = true;
    }

    /// Records a sample of `c` cycles at `cpu_hz`, observed at `now`.
    pub fn record_cycles(&mut self, now: Instant, c: Cycles, cpu_hz: u64) {
        self.bind_rate(cpu_hz);
        self.fold(now, c.0);
    }

    /// Folds a batch of samples, all at `cpu_hz`, in **any order** — the
    /// stage's unordered per-series folds land here. Bit-identical to
    /// calling [`Self::record_cycles`] once per element in timestamp
    /// order: each sample folds into the block its timestamp selects, and
    /// block values are order-free maxima (DESIGN.md §14).
    pub fn record_cycles_batch(&mut self, nows: &[u64], cycles: &[u64], cpu_hz: u64) {
        debug_assert_eq!(nows.len(), cycles.len(), "columns must align");
        if nows.is_empty() {
            return;
        }
        self.bind_rate(cpu_hz);
        for (&t, &c) in nows.iter().zip(cycles) {
            self.fold(Instant(t), c);
        }
    }

    /// Completed block maxima (the in-progress block is excluded).
    pub fn maxima(&self) -> &[f64] {
        &self.maxima
    }

    /// The block length this tracker was created with.
    pub fn block_len(&self) -> Cycles {
        self.block_len
    }

    /// Flushes completed blocks until `block_count` blocks exist, exactly
    /// as a later sample at `block_count * block_len` would (trailing empty
    /// blocks flush as `0.0`). Used at a shard boundary: a shard covering a
    /// whole number of blocks closes them all so that [`Self::merge`]
    /// concatenation reproduces the streaming order. A no-op when
    /// `block_count` blocks are already complete.
    pub fn close_through(&mut self, block_count: usize) {
        if self.maxima.len() >= block_count {
            return;
        }
        self.flush_block();
        if self.maxima.len() < block_count {
            self.maxima.resize(block_count, 0.0);
            self.cur_start = Instant(self.block_len.0 * block_count as u64);
            self.cur_block_end = self.cur_start + self.block_len;
        }
    }

    /// Appends `other`'s blocks after this tracker's, as if `other`'s
    /// samples had streamed in time-shifted to start where this tracker's
    /// window ends.
    ///
    /// Exactness contract: the receiver must be *closed* at a block
    /// boundary (see [`Self::close_through`]) — its window is then exactly
    /// `maxima.len()` whole blocks, and because the flush rule is
    /// translation-invariant, concatenating the completed maxima and
    /// adopting `other`'s in-progress block reproduces bit-for-bit what one
    /// tracker fed the concatenated sample stream would hold. An unbound
    /// receiver takes `other`'s clock rate; two bound rates must agree.
    pub fn merge(&mut self, other: &BlockMaxima) {
        assert_eq!(
            self.block_len, other.block_len,
            "block lengths must match to merge"
        );
        assert!(
            !self.cur_nonempty && self.cur_max_c == 0,
            "merge receiver must be closed at a block boundary \
             (call close_through first)"
        );
        debug_assert_eq!(
            other.cur_block_end.0,
            other.block_len.0 * (other.maxima.len() as u64 + 1),
            "block end tracks completed count"
        );
        if other.cpu_hz != 0 {
            self.bind_rate(other.cpu_hz);
        }
        self.maxima.extend_from_slice(&other.maxima);
        self.cur_max_c = other.cur_max_c;
        self.cur_nonempty = other.cur_nonempty;
        // The hot block always sits right after the completed prefix, so
        // `cur_start` is `maxima.len() * block_len` — restore that
        // invariant for the concatenated window.
        self.cur_start = Instant(self.block_len.0 * self.maxima.len() as u64);
        self.cur_block_end = self.cur_start + self.block_len;
    }

    /// Expected maximum over windows of `k` consecutive blocks: the mean of
    /// per-window maxima. Returns `None` if no complete window exists.
    pub fn expected_max_over(&self, k: usize) -> Option<f64> {
        assert!(k > 0, "window must span at least one block");
        if self.maxima.len() < k {
            return None;
        }
        let windows: Vec<f64> = self
            .maxima
            .chunks_exact(k)
            .map(|w| w.iter().cloned().fold(0.0, f64::max))
            .collect();
        Some(windows.iter().sum::<f64>() / windows.len() as f64)
    }
}

/// A timestamped latency series: distribution plus block maxima.
#[derive(Debug, Clone)]
pub struct LatencySeries {
    /// The log-binned distribution.
    pub hist: LatencyHistogram,
    /// Per-minute maxima (in collection time).
    pub blocks: BlockMaxima,
    /// What the series measures, for reports.
    pub name: String,
    /// Clock rate the samples are recorded at.
    cpu_hz: u64,
}

/// One simulated minute, the block-maxima granularity.
const BLOCK_MINUTES: f64 = 1.0;

impl LatencySeries {
    /// Creates a series on the Figure 4 axis, with one-minute blocks at the
    /// given CPU clock.
    pub fn new(name: &str, cpu_hz: u64) -> LatencySeries {
        LatencySeries {
            hist: LatencyHistogram::fig4(),
            blocks: BlockMaxima::new(Cycles::from_ms_at(BLOCK_MINUTES * 60_000.0, cpu_hz)),
            name: name.to_string(),
            cpu_hz,
        }
    }

    /// Records one sample of `c` cycles observed at `now`, at the clock
    /// rate the series was created with: integer binning plus a `u64`
    /// block-max compare.
    pub fn record_cycles(&mut self, now: Instant, c: Cycles) {
        self.hist.record_cycles(c, self.cpu_hz);
        self.blocks.record_cycles(now, c, self.cpu_hz);
    }

    /// Folds a staged batch of cycle-domain samples (parallel `now` /
    /// latency columns) at the series' clock rate. Bit-identical to
    /// per-sample [`Self::record_cycles`] calls in timestamp order, in any
    /// batch order, because every accumulator is order-free (DESIGN.md
    /// §14): histogram and block-maxima state are independent, so folding
    /// the whole column into each in turn reproduces the interleaved
    /// per-sample updates exactly.
    pub fn record_cycles_batch(&mut self, nows: &[u64], cycles: &[u64]) {
        self.hist.record_cycles_batch(cycles, self.cpu_hz);
        self.blocks.record_cycles_batch(nows, cycles, self.cpu_hz);
    }

    /// Closes the block-maxima window after `whole_minutes` of collection
    /// (blocks are one minute, `BLOCK_MINUTES`): flushes every block the
    /// window completed, including trailing sample-free minutes. Called at
    /// a shard boundary before [`Self::merge`].
    pub fn close_blocks(&mut self, whole_minutes: usize) {
        debug_assert_eq!(BLOCK_MINUTES, 1.0, "blocks are whole minutes");
        self.blocks.close_through(whole_minutes);
    }

    /// Appends another series measured over the shard window immediately
    /// after this one: bin-wise histogram add plus block-maxima
    /// concatenation. Exact when the receiver was closed at a whole-block
    /// boundary — see [`BlockMaxima::merge`].
    pub fn merge(&mut self, other: &LatencySeries) {
        self.hist.merge(&other.hist);
        self.blocks.merge(&other.blocks);
    }

    /// Expected maximum latency over `window_hours` of collection time,
    /// given that `collected_hours` were actually simulated.
    ///
    /// Uses block maxima when the window fits in the collected data,
    /// otherwise scales the sample count and extrapolates the tail.
    pub fn expected_max_ms(&self, window_hours: f64, collected_hours: f64) -> f64 {
        let blocks_per_window = (window_hours * 60.0 / BLOCK_MINUTES).round().max(1.0) as usize;
        if let Some(m) = self.blocks.expected_max_over(blocks_per_window) {
            return m;
        }
        // Not enough collection time: estimate the count of samples a full
        // window would contain and take the corresponding tail quantile.
        if self.hist.count() == 0 || collected_hours <= 0.0 {
            return 0.0;
        }
        let rate_per_hour = self.hist.count() as f64 / collected_hours;
        let n_window = (rate_per_hour * window_hours).max(1.0);
        let p = 1.0 / n_window;
        self.extrapolated_quantile(p)
    }

    /// Tail quantile with log-log extrapolation beyond the observed support.
    pub fn extrapolated_quantile(&self, p: f64) -> f64 {
        let count = self.hist.count();
        if count == 0 {
            return 0.0;
        }
        let p_min = 1.0 / count as f64;
        if p >= p_min {
            return self.hist.quantile_exceeding(p);
        }
        // Fit a line through (ln q, ln p) at p1 = 32/n and p2 = 2/n and
        // extend it to the requested p; saturate at 3x the observed max.
        let p1 = (32.0 * p_min).min(0.5);
        let p2 = (2.0 * p_min).min(0.9);
        let q1 = self.hist.quantile_exceeding(p1).max(1e-6);
        let q2 = self.hist.quantile_exceeding(p2).max(q1 * 1.000001);
        let slope = (q2.ln() - q1.ln()) / (p2.ln() - p1.ln());
        let q = (q2.ln() + slope * (p.ln() - p2.ln())).exp();
        q.min(self.hist.max_ms() * 3.0).max(self.hist.max_ms())
    }
}

/// The three Table 3 horizons for one series, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCases {
    /// Expected max in one hour of continuous usage.
    pub hourly: f64,
    /// Expected max over a heavy-user day.
    pub daily: f64,
    /// Expected max over a heavy-user week.
    pub weekly: f64,
}

/// Computes Table 3 horizons for a series.
///
/// `collected_hours` is simulated collection time. The window arguments are
/// the usage model's equivalent **collection** times for one usage hour,
/// day and week: stress loads are time-compressed (§3.1), so one usage hour
/// is `1/compression` collection hours.
pub fn worst_cases(
    series: &LatencySeries,
    collected_hours: f64,
    hour_window: f64,
    day_window: f64,
    week_window: f64,
) -> WorstCases {
    debug_assert!(hour_window <= day_window && day_window <= week_window);
    WorstCases {
        hourly: series.expected_max_ms(hour_window, collected_hours),
        daily: series.expected_max_ms(day_window, collected_hours),
        weekly: series.expected_max_ms(week_window, collected_hours),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1 kHz clock: one cycle is exactly one millisecond, so block
    /// values read as the cycle counts recorded.
    const KHZ: u64 = 1_000;

    /// Records `ms` into a series as the nearest cycle count at its rate.
    fn sample_ms(s: &mut LatencySeries, now: Instant, ms: f64) {
        let c = Cycles::from_ms_at(ms, s.cpu_hz);
        s.record_cycles(now, c);
    }

    #[test]
    fn block_maxima_splits_blocks() {
        let mut b = BlockMaxima::new(Cycles(100));
        b.record_cycles(Instant(10), Cycles(1), KHZ);
        b.record_cycles(Instant(50), Cycles(3), KHZ);
        b.record_cycles(Instant(150), Cycles(2), KHZ); // Next block.
        b.record_cycles(Instant(350), Cycles(5), KHZ); // Skips one empty block.
        assert_eq!(b.maxima(), &[3.0, 2.0, 0.0]);
    }

    #[test]
    fn close_through_flushes_partial_and_empty_blocks() {
        let mut b = BlockMaxima::new(Cycles(100));
        b.record_cycles(Instant(10), Cycles(4), KHZ);
        // Flushes block 0, opens block 1.
        b.record_cycles(Instant(120), Cycles(2), KHZ);
        // Close a 5-block window: block 1 carries the in-progress 2.0,
        // blocks 2-4 were sample-free.
        b.close_through(5);
        assert_eq!(b.maxima(), &[4.0, 2.0, 0.0, 0.0, 0.0]);
        // Closing again is a no-op.
        b.close_through(3);
        assert_eq!(b.maxima().len(), 5);
    }

    #[test]
    fn close_through_on_empty_shard_yields_zero_blocks() {
        let mut b = BlockMaxima::new(Cycles(100));
        b.close_through(3);
        assert_eq!(b.maxima(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn merge_matches_streaming_the_concatenated_samples() {
        let len = Cycles(100);
        // Shard A covers 3 whole blocks, shard B is open-ended.
        let a_samples = [(10, 1), (150, 7)];
        let b_samples = [(30, 2), (250, 5), (260, 9)];
        let mut a = BlockMaxima::new(len);
        for (t, c) in a_samples {
            a.record_cycles(Instant(t), Cycles(c), KHZ);
        }
        a.close_through(3);
        let mut b = BlockMaxima::new(len);
        for (t, c) in b_samples {
            b.record_cycles(Instant(t), Cycles(c), KHZ);
        }
        a.merge(&b);
        // Reference: one tracker fed both streams, B shifted by 3 blocks.
        let mut streamed = BlockMaxima::new(len);
        for (t, c) in a_samples {
            streamed.record_cycles(Instant(t), Cycles(c), KHZ);
        }
        for (t, c) in b_samples {
            streamed.record_cycles(Instant(t + 300), Cycles(c), KHZ);
        }
        assert_eq!(a.maxima(), streamed.maxima());
        // The in-progress block must also agree: a later sample flushes
        // the same value from both.
        let mut merged_tail = a;
        let mut streamed_tail = streamed;
        merged_tail.record_cycles(Instant(10_000), Cycles(0), KHZ);
        streamed_tail.record_cycles(Instant(10_000), Cycles(0), KHZ);
        assert_eq!(merged_tail.maxima(), streamed_tail.maxima());
    }

    #[test]
    fn merge_of_empty_closed_shards_is_all_zeros() {
        let mut a = BlockMaxima::new(Cycles(100));
        a.close_through(2);
        let mut b = BlockMaxima::new(Cycles(100));
        b.close_through(1);
        a.merge(&b);
        assert_eq!(a.maxima(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "closed at a block boundary")]
    fn merge_rejects_an_open_receiver() {
        let mut a = BlockMaxima::new(Cycles(100));
        a.record_cycles(Instant(10), Cycles(1), KHZ); // In-progress block, never closed.
        let b = BlockMaxima::new(Cycles(100));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "block lengths must match")]
    fn merge_rejects_mismatched_block_lengths() {
        let mut a = BlockMaxima::new(Cycles(100));
        let b = BlockMaxima::new(Cycles(200));
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "block maxima record at one clock rate")]
    fn block_maxima_reject_a_second_clock_rate() {
        let mut b = BlockMaxima::new(Cycles(100));
        b.record_cycles(Instant(10), Cycles(1), KHZ);
        b.record_cycles(Instant(20), Cycles(1), 2 * KHZ);
    }

    #[test]
    fn series_merge_combines_hist_and_blocks() {
        let cpu = 300_000_000u64;
        let block = Cycles::from_ms_at(60_000.0, cpu);
        let mut a = LatencySeries::new("t", cpu);
        sample_ms(&mut a, Instant(block.0 / 2), 1.0);
        a.close_blocks(1);
        let mut b = LatencySeries::new("t", cpu);
        sample_ms(&mut b, Instant(block.0 / 2), 8.0);
        sample_ms(&mut b, Instant(block.0 + 1), 3.0); // Flushes b's block 0.
        a.merge(&b);
        assert_eq!(a.hist.count(), 3);
        assert_eq!(a.hist.max_ms(), 8.0);
        assert_eq!(a.blocks.maxima(), &[1.0, 8.0]);
    }

    #[test]
    fn expected_max_over_windows() {
        let mut b = BlockMaxima::new(Cycles(10));
        for (i, c) in [1, 5, 2, 4, 9, 3].into_iter().enumerate() {
            b.record_cycles(Instant(i as u64 * 10 + 5), Cycles(c), KHZ);
        }
        // Close the 6th block.
        b.record_cycles(Instant(65), Cycles(0), KHZ);
        // Windows of 2: max(1,5)=5, max(2,4)=4, max(9,3)=9 -> mean 6.
        assert_eq!(b.expected_max_over(2), Some(6.0));
        assert_eq!(b.expected_max_over(7), None);
    }

    #[test]
    fn series_block_path_used_when_data_sufficient() {
        let cpu = 300_000_000u64;
        let mut s = LatencySeries::new("test", cpu);
        // 3 hours of samples at one per second, all 1.0 ms except one 8 ms
        // spike per hour.
        for sec in 0..(3 * 3600) {
            let now = Instant(Cycles::from_ms_at(sec as f64 * 1000.0, cpu).0);
            let v = if sec % 3600 == 1800 { 8.0 } else { 1.0 };
            sample_ms(&mut s, now, v);
        }
        let hourly = s.expected_max_ms(1.0, 3.0);
        assert!(
            (hourly - 8.0).abs() < 1.0,
            "hourly max should find the spike: {hourly}"
        );
    }

    #[test]
    fn series_quantile_path_used_when_data_short() {
        let cpu = 300_000_000u64;
        let mut s = LatencySeries::new("test", cpu);
        // 6 simulated minutes at 1 kHz: 360k samples, heavy tail.
        for i in 0..360_000u64 {
            let now = Instant(Cycles::from_ms_at(i as f64, cpu).0);
            // 1 in 10k samples is a 10 ms spike; the rest are 0.1 ms.
            let v = if i % 10_000 == 0 { 10.0 } else { 0.1 };
            sample_ms(&mut s, now, v);
        }
        // Weekly window (4 h) exceeds the 0.1 h collected: quantile path.
        let weekly = s.expected_max_ms(4.0, 0.1);
        assert!(
            weekly >= 10.0,
            "weekly estimate must reach the observed tail: {weekly}"
        );
        assert!(weekly <= 30.0, "extrapolation is capped: {weekly}");
    }

    #[test]
    fn worst_cases_are_monotone() {
        let cpu = 300_000_000u64;
        let mut s = LatencySeries::new("t", cpu);
        let mut x = 0.0;
        for i in 0..100_000u64 {
            let now = Instant(Cycles::from_ms_at(i as f64, cpu).0);
            // A slowly diversifying series.
            x = (x + 0.37) % 7.0;
            sample_ms(&mut s, now, 0.05 + x * x * 0.1);
        }
        let wc = worst_cases(&s, 100_000.0 / 3_600_000.0, 0.1, 0.8, 4.0);
        assert!(wc.hourly <= wc.daily + 1e-9);
        assert!(wc.daily <= wc.weekly + 1e-9);
    }

    #[test]
    fn record_cycles_flushes_bit_identical_block_maxima() {
        // Each block value must equal, to the bit, the max of its samples
        // converted one by one: max commutes with the monotone cycles->ms
        // conversion.
        let cpu = 300_000_000u64;
        let block = Cycles(1_000_000);
        let mut by_cycles = BlockMaxima::new(block);
        let mut by_ms = [0.0f64; 10];
        let mut c = 7u64;
        for i in 0..50_000u64 {
            // Deterministic scatter over several blocks, including zeros.
            c = c
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sample = if i % 97 == 0 { 0 } else { c % 5_000_000 };
            let now = Instant(i * 137);
            by_cycles.record_cycles(now, Cycles(sample), cpu);
            let b = (now.0 / block.0) as usize;
            by_ms[b] = by_ms[b].max(Cycles(sample).as_ms_at(cpu));
        }
        by_cycles.close_through(10);
        assert_eq!(by_cycles.maxima().len(), by_ms.len());
        for (a, b) in by_cycles.maxima().iter().zip(&by_ms) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn out_of_order_samples_match_the_sorted_stream_bit_for_bit() {
        // Block values are order-free maxima: any permutation of the
        // timestamped stream — including samples landing in long-completed
        // blocks — must leave identical maxima.
        let cpu = 300_000_000u64;
        let len = Cycles(1_000);
        let samples: [(u64, u64); 8] = [
            (100, 5_000),
            (4_500, 9_000),
            (150, 7_000), // Back into block 0 after block 4 opened.
            (2_200, 1),
            (950, 0), // Zero sample, block 0.
            (4_999, 2_000),
            (3_100, 8_000),
            (250, 6_999),
        ];
        let mut sorted = samples;
        sorted.sort_by_key(|&(t, _)| t);
        let mut in_order = BlockMaxima::new(len);
        for (t, c) in sorted {
            in_order.record_cycles(Instant(t), Cycles(c), cpu);
        }
        let mut scattered = BlockMaxima::new(len);
        for (t, c) in samples {
            scattered.record_cycles(Instant(t), Cycles(c), cpu);
        }
        let mut batched = BlockMaxima::new(len);
        let nows: Vec<u64> = samples.iter().map(|&(t, _)| t).collect();
        let cycles: Vec<u64> = samples.iter().map(|&(_, c)| c).collect();
        batched.record_cycles_batch(&nows, &cycles, cpu);
        for b in [&mut scattered, &mut batched] {
            b.close_through(6);
        }
        in_order.close_through(6);
        for other in [&scattered, &batched] {
            assert_eq!(in_order.maxima().len(), other.maxima().len());
            for (a, b) in in_order.maxima().iter().zip(other.maxima()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn extrapolation_never_below_observed_max() {
        let cpu = 300_000_000u64;
        let mut s = LatencySeries::new("t", cpu);
        for i in 0..1000u64 {
            let now = Instant(Cycles::from_ms_at(i as f64, cpu).0);
            sample_ms(&mut s, now, if i == 500 { 20.0 } else { 0.2 });
        }
        let q = s.extrapolated_quantile(1e-7);
        assert!(q >= 20.0);
        assert!(q <= 60.0);
    }
}
