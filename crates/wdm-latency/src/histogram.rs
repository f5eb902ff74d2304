//! Log-binned latency distributions.
//!
//! The paper presents latency data as log-log plots (Figure 4): logarithmic
//! bins on the time axis (0.125, 0.25, 0.5, … 128 ms) against percent of
//! samples on a log scale down to 0.0001 %. "Windows 98 OS latency
//! distributions are highly non-symmetric, with a very long tail on one
//! side" (§4.2) — the binning is designed to show that tail.

use wdm_sim::time::Cycles;

/// The Figure 4 time axis: bin upper edges in milliseconds.
///
/// Bin `i` covers `(EDGES[i-1], EDGES[i]]`; an underflow bin covers
/// everything at or below `EDGES[0]`'s lower neighbor, and an overflow bin
/// anything above the last edge.
pub const FIG4_EDGES_MS: [f64; 11] = [
    0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
];

/// A latency histogram with logarithmic bins over cycle samples recorded
/// at one clock rate, as the paper's tool stamps every stage with one
/// CPU's time-stamp counter.
///
/// Every accumulator is an integer: bin counts, the exact `u128` cycle
/// sum, and the `u64` extremes. Integer addition and `max`/`min` are
/// associative and commutative, so the state — and every summary derived
/// from it — is independent of sample order, batch splits and merge order
/// (DESIGN.md §14). The ms conversion happens only at read time.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Bin upper edges, in ms, strictly increasing. Borrowed: every
    /// series of a job shares one axis.
    edges_ms: &'static [f64],
    /// `counts[0]` = samples <= edges[0]; `counts[i]` = samples in
    /// `(edges[i-1], edges[i]]`; last = overflow.
    counts: Vec<u64>,
    count: u64,
    /// Exact sum of every sample, in cycles. `u128` gives orders of
    /// magnitude of headroom over a simulated week at the highest
    /// representable clock rate (see the overflow-audit test).
    sum_cycles: u128,
    /// Largest and smallest sample, in cycles; `0` and `u64::MAX` (never
    /// observable: the accessors check `count`) while empty. Because
    /// `Cycles::as_ms_at` is weakly monotone, converting these at read
    /// time is bit-identical to comparing per-sample ms values
    /// (DESIGN.md §12).
    max_c: u64,
    min_c: u64,
    /// Cycle-valued bin edges: `edges_cycles[i]` is the smallest cycle
    /// count whose ms conversion at `cycles_hz` lands *above* `edges_ms[i]`
    /// (see DESIGN.md §12), so `partition_point(|&ce| ce <= c)` over these
    /// is provably identical to `partition_point(|&e| e < as_ms_at(c))`
    /// over the ms edges. Edges with no representable exceeding cycle
    /// count (a suffix, since edges increase) are dropped; samples beyond
    /// them can never out-bin the truncated axis.
    edges_cycles: Vec<u64>,
    /// Binade index over `edges_cycles`: entry `b` is the number of cycle
    /// edges whose bit length is < `b`. A sample of bit length `b` is >=
    /// every edge of smaller bit length and < every edge of larger one, so
    /// its bin is `binade_start[b]` plus a linear scan of the (usually
    /// zero or one) edges sharing its binade — O(1) instead of a binary
    /// search, branch-predictable on the hot record path.
    binade_start: [u32; 66],
    /// The clock rate every sample is recorded at: 0 until the first
    /// sample or merge binds it, which also builds `edges_cycles`.
    cycles_hz: u64,
}

impl LatencyHistogram {
    /// Creates a histogram over the Figure 4 axis.
    pub fn fig4() -> LatencyHistogram {
        LatencyHistogram::with_edges(&FIG4_EDGES_MS)
    }

    /// Creates a histogram with custom bin edges (ms, strictly
    /// increasing).
    pub fn with_edges(edges_ms: &'static [f64]) -> LatencyHistogram {
        assert!(!edges_ms.is_empty(), "need at least one bin edge");
        assert!(
            edges_ms.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be strictly increasing"
        );
        LatencyHistogram {
            edges_ms,
            counts: vec![0; edges_ms.len() + 1],
            count: 0,
            sum_cycles: 0,
            max_c: 0,
            min_c: u64::MAX,
            edges_cycles: Vec::new(),
            binade_start: [0; 66],
            cycles_hz: 0,
        }
    }

    /// Records a sample given in cycles at the given clock rate, binning
    /// with a pure `u64` comparison against precomputed cycle edges. The
    /// first sample binds the rate; a later sample at another rate panics.
    ///
    /// The whole record path is integer: the raw count adds into the exact
    /// `u128` sum and updates the `u64` extremes, and the ms conversion
    /// waits for the accessors. The equivalence with the ms-domain
    /// definition is argued in DESIGN.md §12/§14 and enforced by the
    /// `binning_oracle` and `stats_order_invariance` proptests.
    #[inline]
    pub fn record_cycles(&mut self, c: Cycles, cpu_hz: u64) {
        if self.cycles_hz != cpu_hz {
            self.bind_rate(cpu_hz);
        }
        let idx = cycle_bin(&self.binade_start, &self.edges_cycles, c.0);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_cycles += c.0 as u128;
        self.max_c = self.max_c.max(c.0);
        self.min_c = self.min_c.min(c.0);
    }

    /// Folds a dense batch of cycle samples recorded at one clock rate.
    /// Bit-identical to calling [`Self::record_cycles`] once per element —
    /// even for a *permuted* batch, since every accumulator is an
    /// associative integer op (DESIGN.md §14): the fold runs branch-light
    /// 8-wide chunks over the column with register-resident `u64` extremes
    /// and a single `u128` sum update per batch.
    pub fn record_cycles_batch(&mut self, cycles: &[u64], cpu_hz: u64) {
        if cycles.is_empty() {
            return;
        }
        if self.cycles_hz != cpu_hz {
            self.bind_rate(cpu_hz);
        }
        let mut max_c = self.max_c;
        let mut min_c = self.min_c;
        // Pure integer fold, split into two passes over the column so
        // neither fights the other for execution ports: the first is a
        // branch-free min/max/sum reduction the compiler can vectorize
        // (the u128 widening only happens once per 8-lane chunk, off
        // the lane-local u64 carry chain), the second is binning only.
        // Staged batches are ~1 KiB columns, so the second pass reads
        // L1-resident data; order-independence of every accumulator
        // (DESIGN.md §14) is what makes the split legal at all.
        let mut sum_c: u128 = 0;
        let mut chunks = cycles.chunks_exact(8);
        for ch in &mut chunks {
            let mut lane: u64 = 0;
            let mut carry: u128 = 0;
            for &c in ch {
                max_c = max_c.max(c);
                min_c = min_c.min(c);
                let (s, o) = lane.overflowing_add(c);
                lane = s;
                carry += (o as u128) << 64;
            }
            sum_c += lane as u128 + carry;
        }
        for &c in chunks.remainder() {
            max_c = max_c.max(c);
            min_c = min_c.min(c);
            sum_c += c as u128;
        }
        let mut idx_chunks = cycles.chunks_exact(8);
        for ch in &mut idx_chunks {
            let mut idx = [0usize; 8];
            for (k, &c) in ch.iter().enumerate() {
                idx[k] = cycle_bin(&self.binade_start, &self.edges_cycles, c);
            }
            for &i in &idx {
                self.counts[i] += 1;
            }
        }
        for &c in idx_chunks.remainder() {
            let idx = cycle_bin(&self.binade_start, &self.edges_cycles, c);
            self.counts[idx] += 1;
        }
        self.sum_cycles += sum_c;
        self.max_c = max_c;
        self.min_c = min_c;
        self.count += cycles.len() as u64;
    }

    /// Binds the histogram to `cpu_hz` and derives its cycle edges: for
    /// each ms edge the smallest `c` with `Cycles(c).as_ms_at(cpu_hz) >
    /// edge`, found by binary search over the *actual* float conversion so
    /// float rounding is honored exactly rather than re-derived. Runs once
    /// per histogram, at the first sample or merge.
    #[cold]
    fn bind_rate(&mut self, cpu_hz: u64) {
        assert!(
            self.cycles_hz == 0,
            "a histogram records at one clock rate ({} Hz, then {cpu_hz} Hz)",
            self.cycles_hz
        );
        self.cycles_hz = cpu_hz;
        for &edge in self.edges_ms {
            match cycle_edge_for(edge, cpu_hz) {
                Some(ce) => self.edges_cycles.push(ce),
                // No representable cycle count converts above this edge;
                // the remaining (larger) edges can't be exceeded either.
                None => break,
            }
        }
        // The binade index: bucket count per bit length, then a prefix sum
        // so `binade_start[b]` counts edges of bit length < b.
        for &ce in &self.edges_cycles {
            let b = (64 - ce.leading_zeros()) as usize;
            self.binade_start[b + 1] += 1;
        }
        for b in 1..66 {
            self.binade_start[b] += self.binade_start[b - 1];
        }
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample (ms), 0 if empty.
    pub fn max_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            Cycles(self.max_c).as_ms_at(self.cycles_hz)
        }
    }

    /// Smallest sample (ms), 0 if empty (never the converted `u64::MAX`
    /// identity).
    pub fn min_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            Cycles(self.min_c).as_ms_at(self.cycles_hz)
        }
    }

    /// Mean (ms), 0 if empty: the exact cycle sum converted once, here,
    /// with the formula of `Cycles::as_ms_at` widened to the `u128` sum.
    /// It depends only on the integer state, so it is permutation- and
    /// merge-order-independent.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_cycles as f64 * 1e3 / self.cycles_hz as f64 / self.count as f64
    }

    /// Exact sum of every sample, in cycles (the oracles compare it).
    pub fn sum_cycles(&self) -> u128 {
        self.sum_cycles
    }

    /// Bin edges (ms).
    pub fn edges_ms(&self) -> &'static [f64] {
        self.edges_ms
    }

    /// Raw bin counts (underflow, bins…, overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Percent of samples in each bin (same layout as [`Self::counts`]).
    pub fn percents(&self) -> Vec<f64> {
        let n = self.count.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 * 100.0 / n).collect()
    }

    /// Fraction of samples strictly above `ms` (the survival function),
    /// computed exactly at bin edges and by log-linear interpolation inside
    /// bins.
    pub fn survival(&self, ms: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let (max_ms, min_ms) = (self.max_ms(), self.min_ms());
        if ms >= max_ms {
            return 0.0;
        }
        let n = self.count as f64;
        // Cumulative counts above each edge.
        let mut above = self.count;
        let mut prev_edge = 0.0f64;
        for (i, &edge) in self.edges_ms.iter().enumerate() {
            let in_bin = self.counts[i];
            if ms <= prev_edge {
                return above as f64 / n;
            }
            if ms <= edge {
                // Interpolate within (prev_edge, min(edge, max)] assuming
                // log-uniform spread of the bin's mass. Clamping the bin's
                // upper limit to the observed maximum matters when most of
                // the mass sits in the top bin.
                let lo = prev_edge.max(min_ms.min(edge)).max(1e-9);
                let hi = edge.min(max_ms).max(lo * 1.0000001);
                let f = ((ms.max(lo)).min(hi).ln() - lo.ln()) / (hi.ln() - lo.ln());
                let remaining_in_bin = in_bin as f64 * (1.0 - f.clamp(0.0, 1.0));
                return (above as f64 - in_bin as f64 + remaining_in_bin) / n;
            }
            above -= in_bin;
            prev_edge = edge;
        }
        // In the overflow bin: between the last edge and max.
        let lo = *self.edges_ms.last().expect("non-empty edges");
        let hi = max_ms.max(lo * 1.0000001);
        let f = ((ms.max(lo)).ln() - lo.ln()) / (hi.ln() - lo.ln());
        above as f64 * (1.0 - f.clamp(0.0, 1.0)) / n
    }

    /// The latency exceeded with probability `p` (a high quantile), by
    /// inverse of [`Self::survival`] on the binned data. For `p` below
    /// `1/count` the observed maximum is returned (no extrapolation).
    pub fn quantile_exceeding(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        if self.count == 0 {
            return 0.0;
        }
        let max_ms = self.max_ms();
        if p <= 1.0 / self.count as f64 {
            return max_ms;
        }
        let n = self.count as f64;
        let target = p * n; // Samples that may exceed the answer.
        let mut above = self.count as f64;
        let mut prev_edge = 0.0f64;
        for (i, &edge) in self.edges_ms.iter().enumerate() {
            let in_bin = self.counts[i] as f64;
            let above_after = above - in_bin;
            if above_after <= target {
                // The quantile is inside this bin; log-interpolate, with the
                // bin's upper limit clamped to the observed maximum.
                let lo = prev_edge.max(1e-9);
                let hi = edge.min(max_ms).max(lo * 1.0000001);
                if in_bin <= 0.0 {
                    return hi;
                }
                let f = (above - target) / in_bin;
                return (lo.ln() + f.clamp(0.0, 1.0) * (hi.ln() - lo.ln()))
                    .exp()
                    .min(max_ms);
            }
            above = above_after;
            prev_edge = edge;
        }
        max_ms
    }

    /// Merges another histogram with identical edges into this one. An
    /// unbound receiver takes `other`'s clock rate; two bound rates must
    /// agree.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.edges_ms, other.edges_ms, "bin edges must match");
        if other.cycles_hz != 0 && other.cycles_hz != self.cycles_hz {
            self.bind_rate(other.cycles_hz);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_cycles += other.sum_cycles;
        self.max_c = self.max_c.max(other.max_c);
        self.min_c = self.min_c.min(other.min_c);
    }
}

/// Bin index for a cycle sample: binade lookup, then a scan of the edges
/// sharing the sample's bit length — equivalent to
/// `partition_point(|&ce| ce <= c)` over the full edge list (every
/// smaller-binade edge is <= c, every larger-binade edge is > c). For the
/// Figure 4 axis the edges double, so the scan is at most one comparison.
/// A free function (not a method) so the batch fold can call it while
/// `counts` is mutably borrowed.
#[inline]
fn cycle_bin(binade_start: &[u32; 66], edges_cycles: &[u64], c: u64) -> usize {
    let b = (64 - c.leading_zeros()) as usize;
    let lo = binade_start[b] as usize;
    let hi = binade_start[b + 1] as usize;
    let mut idx = lo;
    for &ce in &edges_cycles[lo..hi] {
        idx += usize::from(ce <= c);
    }
    idx
}

/// The smallest cycle count whose ms conversion at `cpu_hz` exceeds
/// `edge_ms`, or `None` if no representable `u64` does.
///
/// The rounded inverse conversion `edge_ms * cpu_hz / 1e3` lands within a
/// few float roundings of the answer, so the search brackets the answer
/// by galloping away from it (steps of 1, 2, 4, … cycles) and bisects
/// only inside that bracket. `Cycles::as_ms_at` is monotone
/// non-decreasing, so the result is the one a binary search over all of
/// `u64` finds, in a handful of conversions instead of 64.
fn cycle_edge_for(edge_ms: f64, cpu_hz: u64) -> Option<u64> {
    let above = |c: u64| Cycles(c).as_ms_at(cpu_hz) > edge_ms;
    if above(0) {
        return Some(0);
    }
    if Cycles(u64::MAX).as_ms_at(cpu_hz) <= edge_ms {
        return None;
    }
    // Invariant: !above(lo) and above(hi); the checks above settle the
    // ends of `u64`, and stopping at `u64::MAX` also ends the climb for
    // a NaN edge. The float-to-int cast saturates.
    let guess = (edge_ms * cpu_hz as f64 / 1e3).round() as u64;
    let (mut lo, mut hi);
    let mut step = 1u64;
    if above(guess) {
        hi = guess;
        loop {
            let c = hi.saturating_sub(step);
            if !above(c) {
                lo = c;
                break;
            }
            hi = c;
            step = step.saturating_mul(2);
        }
    } else {
        lo = guess;
        loop {
            let c = lo.saturating_add(step);
            if c == u64::MAX || above(c) {
                hi = c;
                break;
            }
            lo = c;
            step = step.saturating_mul(2);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::time::DEFAULT_CPU_HZ as HZ;

    /// Records `ms` as the nearest cycle count at 300 MHz. A whole number
    /// of microseconds converts back to the same `f64`.
    fn record(h: &mut LatencyHistogram, ms: f64) {
        h.record_cycles(Cycles::from_ms(ms), HZ);
    }

    #[test]
    fn binning_matches_edges() {
        let mut h = LatencyHistogram::fig4();
        record(&mut h, 0.1); // underflow bin 0 (<= 0.125)
        record(&mut h, 0.125); // still bin 0 (inclusive upper edge)
        record(&mut h, 0.2); // bin 1
        record(&mut h, 100.0); // bin 10
        record(&mut h, 500.0); // overflow
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[10], 1);
        assert_eq!(h.counts()[11], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ms(), 500.0);
        assert_eq!(h.min_ms(), 0.1);
    }

    #[test]
    fn empty_histogram_summary_is_finite() {
        let h = LatencyHistogram::fig4();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ms(), 0.0, "empty min must not be +inf");
        assert_eq!(h.max_ms(), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
        assert!(
            h.min_ms().is_finite() && h.max_ms().is_finite() && h.mean_ms().is_finite(),
            "every summary stat of an empty histogram must serialize cleanly"
        );
        assert_eq!(h.survival(1.0), 0.0);
    }

    #[test]
    fn percents_sum_to_100() {
        let mut h = LatencyHistogram::fig4();
        for i in 0..1000 {
            record(&mut h, 0.05 + (i as f64) * 0.01);
        }
        let total: f64 = h.percents().iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn survival_is_monotone_decreasing() {
        let mut h = LatencyHistogram::fig4();
        for i in 1..=10_000 {
            record(&mut h, i as f64 * 0.01); // 0.01 .. 100 ms uniform
        }
        let mut prev = 1.0;
        for ms in [0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 99.0] {
            let s = h.survival(ms);
            assert!(s <= prev + 1e-12, "survival must decrease: {ms} -> {s}");
            assert!((0.0..=1.0).contains(&s));
            prev = s;
        }
        assert_eq!(h.survival(100.0), 0.0);
    }

    #[test]
    fn survival_roughly_matches_uniform_data() {
        let mut h = LatencyHistogram::fig4();
        for i in 1..=100_000 {
            record(&mut h, i as f64 * 0.001); // uniform 0.001..100
        }
        // P(X > 50) should be ~0.5.
        let s = h.survival(50.0);
        assert!((s - 0.5).abs() < 0.1, "survival(50) = {s}");
    }

    #[test]
    fn quantile_inverts_survival() {
        let mut h = LatencyHistogram::fig4();
        for i in 1..=100_000u64 {
            record(&mut h, i as f64 * 0.001); // uniform 0.001..100 ms
        }
        for p in [0.2, 0.05, 0.01] {
            let q = h.quantile_exceeding(p);
            let s = h.survival(q);
            assert!(
                (s - p).abs() / p < 0.5,
                "survival(quantile({p}) = {q}) = {s}, expected ~{p}"
            );
        }
    }

    #[test]
    fn quantile_saturates_at_observed_max() {
        let mut h = LatencyHistogram::fig4();
        for _ in 0..100 {
            record(&mut h, 1.0);
        }
        record(&mut h, 30.0);
        assert_eq!(h.quantile_exceeding(1e-9), 30.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::fig4();
        let mut b = LatencyHistogram::fig4();
        record(&mut a, 0.3);
        record(&mut b, 3.0);
        record(&mut b, 300.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ms(), 300.0);
        // 0.3 ms falls in (0.25, 0.5], bin index 2.
        assert_eq!(a.counts()[2], 1);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LatencyHistogram::fig4();
        record(&mut a, 0.3);
        record(&mut a, 5.0);
        let before: Vec<u64> = a.counts().to_vec();
        let empty = LatencyHistogram::fig4();
        // Non-empty <- empty: nothing changes, min must not pick up the
        // empty histogram's `u64::MAX` identity.
        a.merge(&empty);
        assert_eq!(a.counts(), &before[..]);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ms(), 0.3);
        assert_eq!(a.max_ms(), 5.0);
        // Empty <- non-empty: adopts the other's stats and clock rate.
        let mut b = LatencyHistogram::fig4();
        b.merge(&a);
        assert_eq!(b.counts(), a.counts());
        assert_eq!(b.min_ms(), 0.3);
        assert_eq!(b.mean_ms(), a.mean_ms());
        record(&mut b, 0.3);
        assert_eq!(b.counts()[2], 2, "the adopted rate's edges bin new samples");
        // Empty <- empty stays cleanly empty.
        let mut c = LatencyHistogram::fig4();
        c.merge(&LatencyHistogram::fig4());
        assert_eq!(c.count(), 0);
        assert_eq!(c.min_ms(), 0.0);
        assert!(c.min_ms().is_finite());
    }

    #[test]
    fn merge_of_single_bin_histograms() {
        let mut a = LatencyHistogram::with_edges(&[1.0]);
        record(&mut a, 0.5);
        let mut b = LatencyHistogram::with_edges(&[1.0]);
        record(&mut b, 1.0);
        record(&mut b, 7.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ms(), 7.0);
    }

    #[test]
    fn merge_accumulates_the_saturated_overflow_tail() {
        // Both shards have every sample above the last edge: the overflow
        // bin must add, and the max/quantile must track the global extreme.
        let mut a = LatencyHistogram::fig4();
        let mut b = LatencyHistogram::fig4();
        for _ in 0..50 {
            record(&mut a, 200.0);
            record(&mut b, 400.0);
        }
        a.merge(&b);
        let overflow = FIG4_EDGES_MS.len();
        assert_eq!(a.counts()[overflow], 100);
        assert_eq!(a.max_ms(), 400.0);
        assert_eq!(a.quantile_exceeding(1e-9), 400.0);
    }

    #[test]
    #[should_panic(expected = "bin edges must match")]
    fn merge_rejects_mismatched_edges() {
        let mut a = LatencyHistogram::with_edges(&[1.0, 2.0]);
        let b = LatencyHistogram::with_edges(&[1.0, 3.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_edges() {
        let _ = LatencyHistogram::with_edges(&[1.0, 0.5]);
    }

    #[test]
    fn record_cycles_converts() {
        let mut h = LatencyHistogram::fig4();
        h.record_cycles(Cycles(300_000), 300_000_000); // 1 ms
        assert_eq!(h.counts()[3], 1); // (0.5, 1.0] bin
    }

    #[test]
    fn every_exact_edge_lands_in_its_own_bin() {
        // Bin i covers (edges[i-1], edges[i]]: a sample exactly on an edge
        // belongs to that edge's bin, never the next one.
        let mut h = LatencyHistogram::fig4();
        for &e in &FIG4_EDGES_MS {
            record(&mut h, e);
        }
        for (i, &c) in h.counts().iter().enumerate() {
            let expected = u64::from(i < FIG4_EDGES_MS.len());
            assert_eq!(c, expected, "bin {i}");
        }
        assert_eq!(h.count(), FIG4_EDGES_MS.len() as u64);
    }

    #[test]
    fn binning_matches_linear_scan_reference() {
        // The integer binning must agree with a naive linear scan of the
        // ms edges, including one cycle either side of every edge, zero
        // and the overflow region.
        let edges = FIG4_EDGES_MS;
        let mut samples = vec![0u64, 1, Cycles::from_ms(1e6).0];
        for &e in &edges {
            let c = Cycles::from_ms(e).0;
            samples.extend([c - 1, c, c + 1]);
        }
        for c in samples {
            let mut h = LatencyHistogram::fig4();
            h.record_cycles(Cycles(c), HZ);
            let ms = Cycles(c).as_ms_at(HZ);
            let reference = edges.iter().position(|&e| ms <= e).unwrap_or(edges.len());
            assert_eq!(h.counts()[reference], 1, "sample {c} cycles");
            assert_eq!(h.count(), 1);
        }
    }

    #[test]
    fn overflow_bin_catches_everything_above_the_last_edge() {
        let mut h = LatencyHistogram::fig4();
        let last_edge = Cycles::from_ms(128.0);
        h.record_cycles(last_edge, HZ); // exactly the last edge: last real bin
        h.record_cycles(Cycles(last_edge.0 + 1), HZ); // just above: overflow
        record(&mut h, 1e9); // far above: overflow
        let last = FIG4_EDGES_MS.len() - 1;
        assert_eq!(h.counts()[last], 1);
        assert_eq!(h.counts()[last + 1], 2);
        assert_eq!(h.max_ms(), 1e9);
    }

    #[test]
    fn zero_sample_lands_in_the_underflow_bin() {
        let mut h = LatencyHistogram::fig4();
        h.record_cycles(Cycles(0), HZ);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.min_ms(), 0.0);
    }

    #[test]
    fn record_cycles_round_trips_each_bin_edge() {
        // Cycles -> bin must hit the bin the ms-domain definition picks
        // for the converted value, at a realistic clock rate.
        let cpu_hz = 300_000_000u64;
        for (i, &e) in FIG4_EDGES_MS.iter().enumerate() {
            let cycles = Cycles((e * cpu_hz as f64 / 1e3) as u64);
            let mut h = LatencyHistogram::fig4();
            h.record_cycles(cycles, cpu_hz);
            let bin = FIG4_EDGES_MS.partition_point(|&x| x < cycles.as_ms_at(cpu_hz));
            assert_eq!(h.counts()[bin], 1, "edge {i} ({e} ms)");
        }
    }

    #[test]
    fn single_bin_histogram_degenerates_cleanly() {
        let mut h = LatencyHistogram::with_edges(&[1.0]);
        record(&mut h, 0.5); // bin 0
        record(&mut h, 1.0); // bin 0 (inclusive edge)
        record(&mut h, 2.0); // overflow
        assert_eq!(h.counts(), &[2, 1]);
    }

    /// The edge-dense cycle sample sweep shared by the path-equivalence
    /// tests below.
    fn dense_sweep(cpu_hz: u64) -> Vec<u64> {
        let mut samples: Vec<u64> = vec![0, 1, 2, 17, u64::MAX / 2, u64::MAX];
        for &e in &FIG4_EDGES_MS {
            let c = (e * cpu_hz as f64 / 1e3) as u64;
            samples.extend([c.saturating_sub(1), c, c + 1, c + 2]);
        }
        let mut c = 1u64;
        while c < 10_u64.pow(12) {
            samples.push(c);
            c = c * 5 / 3 + 1;
        }
        samples
    }

    #[test]
    fn v2_matches_ms_path_except_the_deferred_mean() {
        // Bins and extremes equal the ms-domain definitions over the
        // converted samples to the bit; the mean is the exact cycle sum
        // converted once, so it equals that conversion to the bit and a
        // per-sample ms sum only to rounding slack.
        let cpu_hz = 300_000_000u64;
        let mut h = LatencyHistogram::fig4();
        let samples = dense_sweep(cpu_hz);
        let mut ref_counts = vec![0u64; FIG4_EDGES_MS.len() + 1];
        let (mut ref_sum, mut ms_sum) = (0u128, 0.0f64);
        let (mut ref_max, mut ref_min) = (0.0f64, f64::INFINITY);
        for &c in &samples {
            h.record_cycles(Cycles(c), cpu_hz);
            let ms = Cycles(c).as_ms_at(cpu_hz);
            ref_counts[FIG4_EDGES_MS.partition_point(|&e| e < ms)] += 1;
            ref_sum += c as u128;
            ms_sum += ms;
            ref_max = ref_max.max(ms);
            ref_min = ref_min.min(ms);
        }
        assert_eq!(h.counts(), &ref_counts[..]);
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.max_ms().to_bits(), ref_max.to_bits());
        assert_eq!(h.min_ms().to_bits(), ref_min.to_bits());
        assert_eq!(h.sum_cycles(), ref_sum, "the cycle sum must be exact");
        let n = samples.len() as f64;
        let expected_mean = ref_sum as f64 * 1e3 / cpu_hz as f64 / n;
        assert_eq!(h.mean_ms().to_bits(), expected_mean.to_bits());
        let stream_mean = ms_sum / n;
        let rel = (h.mean_ms() - stream_mean).abs() / stream_mean;
        assert!(rel < 1e-9, "exact vs stream-order mean drift {rel}");
    }

    #[test]
    fn v2_batch_fold_is_bit_identical_under_permutation() {
        // The 8-wide batch fold, a per-sample loop, and any permutation of
        // either must leave identical state: every v2 accumulator is an
        // associative, commutative integer op.
        let cpu_hz = 300_000_000u64;
        let samples = dense_sweep(cpu_hz);
        let mut reversed = samples.clone();
        reversed.reverse();
        let mut batched = LatencyHistogram::fig4();
        batched.record_cycles_batch(&samples, cpu_hz);
        let mut rev_batched = LatencyHistogram::fig4();
        rev_batched.record_cycles_batch(&reversed, cpu_hz);
        let mut streamed = LatencyHistogram::fig4();
        for &c in &reversed {
            streamed.record_cycles(Cycles(c), cpu_hz);
        }
        for other in [&rev_batched, &streamed] {
            assert_eq!(batched.counts(), other.counts());
            assert_eq!(batched.count(), other.count());
            assert_eq!(batched.sum_cycles(), other.sum_cycles());
            assert_eq!(batched.max_ms().to_bits(), other.max_ms().to_bits());
            assert_eq!(batched.min_ms().to_bits(), other.min_ms().to_bits());
            assert_eq!(batched.mean_ms().to_bits(), other.mean_ms().to_bits());
        }
    }

    #[test]
    fn v2_merge_is_order_independent() {
        // Three shards (one of them empty) merged in every order into an
        // empty receiver must produce identical state and summaries.
        let shards: [&[u64]; 4] = [
            &[100, 2_000_000, 17],
            &[5, 900_000],
            &[],
            &[u64::MAX, 0, 42],
        ];
        let build = |order: &[usize]| {
            let mut acc = LatencyHistogram::fig4();
            for &i in order {
                let mut h = LatencyHistogram::fig4();
                h.record_cycles_batch(shards[i], HZ);
                acc.merge(&h);
            }
            acc
        };
        let a = build(&[0, 1, 2, 3]);
        assert_eq!(a.count(), 8);
        for order in [[3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1], [0, 3, 1, 2]] {
            let b = build(&order);
            assert_eq!(a.counts(), b.counts(), "{order:?}");
            assert_eq!(a.sum_cycles(), b.sum_cycles(), "{order:?}");
            assert_eq!(a.mean_ms().to_bits(), b.mean_ms().to_bits(), "{order:?}");
            assert_eq!(a.max_ms().to_bits(), b.max_ms().to_bits(), "{order:?}");
            assert_eq!(a.min_ms().to_bits(), b.min_ms().to_bits(), "{order:?}");
        }
    }

    #[test]
    fn epoch_sums_cannot_saturate_within_a_simulated_week() {
        // Overflow audit for the u128 cycle sum: a week of samples at an
        // absurd ceiling — 10^9 samples/s, every sample the maximum
        // representable u64 cycle count — stays orders of magnitude below
        // u128::MAX, so the unchecked `+=` on the record path can never
        // wrap in any realistic (or unrealistic) run.
        const WEEK_S: u128 = 7 * 24 * 60 * 60;
        const SAMPLES_PER_S: u128 = 1_000_000_000;
        let worst_week = WEEK_S
            .checked_mul(SAMPLES_PER_S)
            .and_then(|n| n.checked_mul(u64::MAX as u128))
            .expect("worst-case week must be representable");
        assert!(
            worst_week < u128::MAX / 1000,
            "need >=3 orders of magnitude headroom, got {worst_week:e}"
        );
        // And the count field: u64 holds ~584 years of 10^9/s samples.
        assert!((WEEK_S * SAMPLES_PER_S) < u64::MAX as u128);
    }

    #[test]
    #[should_panic(expected = "a histogram records at one clock rate")]
    fn a_second_clock_rate_panics() {
        let mut h = LatencyHistogram::fig4();
        h.record_cycles(Cycles(300_000), 300_000_000);
        h.record_cycles(Cycles(300_000), 600_000_000);
    }

    #[test]
    #[should_panic(expected = "a histogram records at one clock rate")]
    fn merge_rejects_a_second_clock_rate() {
        let mut a = LatencyHistogram::fig4();
        let mut b = LatencyHistogram::fig4();
        a.record_cycles(Cycles(1_000), 300_000_000);
        b.record_cycles(Cycles(2_000), 600_000_000);
        a.merge(&b);
    }

    /// The binary search over all of `u64` that `cycle_edge_for`'s
    /// bracketed search must agree with.
    fn cycle_edge_by_full_search(edge_ms: f64, cpu_hz: u64) -> Option<u64> {
        if Cycles(0).as_ms_at(cpu_hz) > edge_ms {
            return Some(0);
        }
        if Cycles(u64::MAX).as_ms_at(cpu_hz) <= edge_ms {
            return None;
        }
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if Cycles(mid).as_ms_at(cpu_hz) > edge_ms {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    #[test]
    fn bracketed_cycle_edge_matches_the_full_search() {
        // Clock rates from 1 Hz to 10 GHz: a geometric sweep with each
        // rate's neighbours, plus the simulator's rates.
        let mut rates = vec![299_999_999u64, 300_000_000, 300_000_001, 1_000_000_000];
        let mut hz = 1.0f64;
        while hz <= 1e10 {
            let r = hz as u64;
            rates.extend([r.saturating_sub(1).max(1), r, r + 1]);
            hz *= 1.37;
        }
        rates.push(10_000_000_000);
        for &hz in &rates {
            for &edge in &FIG4_EDGES_MS {
                assert_eq!(
                    cycle_edge_for(edge, hz),
                    cycle_edge_by_full_search(edge, hz),
                    "{edge} ms at {hz} Hz"
                );
            }
        }
        // An edge below zero: every count exceeds it. An edge past the
        // last representable count: none does. A NaN edge still ends.
        for hz in [1u64, 300_000_000, 10_000_000_000, u64::MAX] {
            assert_eq!(cycle_edge_for(-1.0, hz), Some(0));
            assert_eq!(cycle_edge_by_full_search(-1.0, hz), Some(0));
            let beyond = Cycles(u64::MAX).as_ms_at(hz) * 2.0;
            assert_eq!(cycle_edge_for(beyond, hz), None);
            assert_eq!(cycle_edge_by_full_search(beyond, hz), None);
            let nan = cycle_edge_by_full_search(f64::NAN, hz);
            assert_eq!(cycle_edge_for(f64::NAN, hz), nan);
        }
    }

    #[test]
    fn cycle_edge_is_the_smallest_exceeding_cycle_count() {
        for hz in [1u64, 999, 300_000_000, 1_000_000_000, u64::MAX] {
            for edge in [0.125f64, 1.0, 128.0] {
                if let Some(ce) = cycle_edge_for(edge, hz) {
                    assert!(Cycles(ce).as_ms_at(hz) > edge, "hz={hz} edge={edge}");
                    if ce > 0 {
                        assert!(
                            Cycles(ce - 1).as_ms_at(hz) <= edge,
                            "hz={hz} edge={edge}: {ce} not minimal"
                        );
                    }
                }
            }
        }
        // 1 Hz clock: one cycle is 1000 ms, so every fig4 edge maps to the
        // first cycle and everything non-zero lands in the overflow bin.
        let mut h = LatencyHistogram::fig4();
        h.record_cycles(Cycles(1), 1);
        assert_eq!(*h.counts().last().unwrap(), 1);
    }
}
