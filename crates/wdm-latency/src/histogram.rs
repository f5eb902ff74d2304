//! Log-binned latency distributions.
//!
//! The paper presents latency data as log-log plots (Figure 4): logarithmic
//! bins on the time axis (0.125, 0.25, 0.5, … 128 ms) against percent of
//! samples on a log scale down to 0.0001 %. "Windows 98 OS latency
//! distributions are highly non-symmetric, with a very long tail on one
//! side" (§4.2) — the binning is designed to show that tail.

use wdm_sim::time::Cycles;

/// Exact cycle-domain accumulator for one clock-rate epoch.
///
/// Samples recorded while the clock runs at `cpu_hz` contribute their raw
/// cycle counts to `sum_cycles`. Integer addition is associative and
/// commutative, so the per-epoch sums — and every summary statistic
/// derived from them — are independent of sample order, batch splits, and
/// merge order (DESIGN.md §14). The ms conversion happens once per epoch
/// at accessor time, never per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateEpoch {
    /// Clock rate the epoch's samples were recorded under.
    pub cpu_hz: u64,
    /// Exact sum of the epoch's samples, in cycles. `u128` gives orders of
    /// magnitude of headroom over a simulated week at the highest
    /// representable clock rate (see the overflow-audit test).
    pub sum_cycles: u128,
    /// Samples in the epoch.
    pub count: u64,
}

/// The Figure 4 time axis: bin upper edges in milliseconds.
///
/// Bin `i` covers `(EDGES[i-1], EDGES[i]]`; an underflow bin covers
/// everything at or below `EDGES[0]`'s lower neighbor, and an overflow bin
/// anything above the last edge.
pub const FIG4_EDGES_MS: [f64; 11] = [
    0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
];

/// A latency histogram with logarithmic bins.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Bin upper edges, in ms, strictly increasing.
    edges_ms: Vec<f64>,
    /// `counts[0]` = samples <= edges[0]; `counts[i]` = samples in
    /// `(edges[i-1], edges[i]]`; last = overflow.
    counts: Vec<u64>,
    count: u64,
    /// Stream-order f64 sum of [`Self::record_ms`] samples only — the
    /// cycle paths sum exactly in `epochs` instead, and [`Self::mean_ms`]
    /// combines the two.
    sum_ms: f64,
    /// Exact per-clock-rate cycle sums, kept sorted by `cpu_hz` so the
    /// accessor-time fold order is canonical regardless of the order rates
    /// were first seen.
    epochs: Vec<RateEpoch>,
    /// Index into `epochs` for the current `cycles_hz`; refreshed at
    /// every rate change and merge so the hot paths index directly.
    cur_epoch: usize,
    /// Extremes folded to ms: samples from [`Self::record_ms`], plus any
    /// cycle-domain extremes folded in at a clock-rate change or merge.
    max_ms: f64,
    min_ms: f64,
    /// Pending cycle-domain extremes, valid at `cycles_hz`, live only when
    /// `cyc_pending`. [`Self::record_cycles`] tracks max/min with pure
    /// `u64` compares here; the ms conversion happens once, at fold time.
    /// Because `Cycles::as_ms_at` is weakly monotone, max/min commute with
    /// the conversion, so the folded result is bit-identical to comparing
    /// per-sample ms values (DESIGN.md §12).
    max_c: u64,
    min_c: u64,
    cyc_pending: bool,
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
    /// Clock rate `edges_cycles` was derived for; 0 = not yet built.
    /// Rebuilt lazily whenever a sample arrives at a different rate.
    cycles_hz: u64,
    /// Samples recorded through the integer [`Self::record_cycles`] fast
    /// path (vs the float [`Self::record_ms`] path).
    fast_bin_samples: u64,
}

impl LatencyHistogram {
    /// Creates a histogram over the Figure 4 axis.
    pub fn fig4() -> LatencyHistogram {
        LatencyHistogram::with_edges(&FIG4_EDGES_MS)
    }

    /// Creates a histogram with custom bin edges (ms, strictly
    /// increasing).
    pub fn with_edges(edges_ms: &[f64]) -> LatencyHistogram {
        assert!(!edges_ms.is_empty(), "need at least one bin edge");
        assert!(
            edges_ms.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be strictly increasing"
        );
        LatencyHistogram {
            edges_ms: edges_ms.to_vec(),
            counts: vec![0; edges_ms.len() + 1],
            count: 0,
            sum_ms: 0.0,
            epochs: Vec::new(),
            cur_epoch: 0,
            max_ms: 0.0,
            min_ms: f64::INFINITY,
            max_c: 0,
            min_c: u64::MAX,
            cyc_pending: false,
            edges_cycles: Vec::new(),
            binade_start: [0; 66],
            cycles_hz: 0,
            fast_bin_samples: 0,
        }
    }

    /// Records one latency sample given in ms: the plain definition of the
    /// binning that [`Self::record_cycles`] reproduces in the cycle domain
    /// (the `binning_oracle` proptest checks one against the other).
    pub fn record_ms(&mut self, ms: f64) {
        debug_assert!(ms >= 0.0 && ms.is_finite(), "latency must be finite");
        // The first edge >= ms; `edges.len()` (the overflow bin) when every
        // edge is below the sample.
        let idx = self.edges_ms.partition_point(|&e| e < ms);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
        if ms < self.min_ms {
            self.min_ms = ms;
        }
    }

    /// Records a sample given in cycles at the given clock rate, binning
    /// with a pure `u64` comparison against precomputed cycle edges and
    /// tracking max/min as raw cycle counts.
    ///
    /// The raw cycle count sums into the rate's [`RateEpoch`] — an exact
    /// `u128` addition, deferring the ms conversion to accessor time — so
    /// the whole record path is integer and order-independent. Max/min
    /// defer too: `Cycles::as_ms_at` is weakly monotone, so converting the
    /// cycle extremes at fold time yields bit-identical results to
    /// [`Self::record_ms`] `(c.as_ms_at(cpu_hz))` per sample. The
    /// equivalence arguments are in DESIGN.md §12/§14 and enforced by the
    /// `binning_oracle` and `stats_order_invariance` proptests.
    #[inline]
    pub fn record_cycles(&mut self, c: Cycles, cpu_hz: u64) {
        if self.cycles_hz != cpu_hz {
            // Pending extremes are valid at the *old* rate; fold before
            // the rate switches underneath them.
            self.fold_cycle_extremes();
            self.build_cycle_edges(cpu_hz);
            self.cur_epoch = self.epoch_index(cpu_hz);
        }
        let idx = cycle_bin(&self.binade_start, &self.edges_cycles, c.0);
        self.counts[idx] += 1;
        self.count += 1;
        self.epoch_add(c.0 as u128, 1);
        if c.0 > self.max_c {
            self.max_c = c.0;
        }
        if c.0 < self.min_c {
            self.min_c = c.0;
        }
        self.cyc_pending = true;
        self.fast_bin_samples += 1;
    }

    /// Folds a dense batch of cycle samples recorded at one clock rate.
    /// Bit-identical to calling [`Self::record_cycles`] once per element —
    /// even for a *permuted* batch, since every accumulator is an
    /// associative integer op (DESIGN.md §14): the fold runs branch-light
    /// 8-wide chunks over the column with register-resident `u64` extremes
    /// and a single `u128` epoch-sum update per batch.
    pub fn record_cycles_batch(&mut self, cycles: &[u64], cpu_hz: u64) {
        if cycles.is_empty() {
            return;
        }
        if self.cycles_hz != cpu_hz {
            self.fold_cycle_extremes();
            self.build_cycle_edges(cpu_hz);
            self.cur_epoch = self.epoch_index(cpu_hz);
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
        self.epoch_add(sum_c, cycles.len() as u64);
        self.max_c = max_c;
        self.min_c = min_c;
        self.count += cycles.len() as u64;
        self.fast_bin_samples += cycles.len() as u64;
        self.cyc_pending = true;
    }

    /// Finds (or inserts, keeping the vec sorted by rate) the epoch for
    /// `cpu_hz`, returning its index. Sorted order makes the accessor-time
    /// fold canonical no matter the order rates were first seen in.
    fn epoch_index(&mut self, cpu_hz: u64) -> usize {
        match self.epochs.binary_search_by_key(&cpu_hz, |e| e.cpu_hz) {
            Ok(i) => i,
            Err(i) => {
                self.epochs.insert(
                    i,
                    RateEpoch {
                        cpu_hz,
                        sum_cycles: 0,
                        count: 0,
                    },
                );
                i
            }
        }
    }

    /// Adds exact cycle-domain samples to the epoch for the current clock
    /// rate. `cur_epoch` is normally kept fresh by the
    /// rate-change branches, but it is re-derived here when stale — after
    /// a merge shifted indices, or when no rate-change branch ever ran
    /// (the degenerate first-call-at-rate-zero case).
    #[inline]
    fn epoch_add(&mut self, sum_cycles: u128, count: u64) {
        let hz = self.cycles_hz;
        if !matches!(self.epochs.get(self.cur_epoch), Some(e) if e.cpu_hz == hz) {
            self.cur_epoch = self.epoch_index(hz);
        }
        let e = &mut self.epochs[self.cur_epoch];
        e.sum_cycles += sum_cycles;
        e.count += count;
    }

    /// Folds the pending cycle-domain extremes into the ms fields at the
    /// rate they were recorded under, and resets them to their identities.
    /// Idempotent; a no-op when nothing is pending (in particular before
    /// the first sample, when `cycles_hz` is still 0).
    fn fold_cycle_extremes(&mut self) {
        if self.cyc_pending {
            self.max_ms = self.max_ms.max(Cycles(self.max_c).as_ms_at(self.cycles_hz));
            self.min_ms = self.min_ms.min(Cycles(self.min_c).as_ms_at(self.cycles_hz));
            self.max_c = 0;
            self.min_c = u64::MAX;
            self.cyc_pending = false;
        }
    }

    /// Derives the cycle-valued edges for `cpu_hz`: for each ms edge the
    /// smallest `c` with `Cycles(c).as_ms_at(cpu_hz) > edge`, found by
    /// binary search over the *actual* float conversion so float rounding
    /// is honored exactly rather than re-derived.
    fn build_cycle_edges(&mut self, cpu_hz: u64) {
        self.cycles_hz = cpu_hz;
        self.edges_cycles.clear();
        for &edge in &self.edges_ms {
            match cycle_edge_for(edge, cpu_hz) {
                Some(ce) => self.edges_cycles.push(ce),
                // No representable cycle count converts above this edge;
                // the remaining (larger) edges can't be exceeded either.
                None => break,
            }
        }
        // Rebuild the binade index: bucket count per bit length, then a
        // prefix sum so `binade_start[b]` counts edges of bit length < b.
        self.binade_start = [0; 66];
        for &ce in &self.edges_cycles {
            let b = (64 - ce.leading_zeros()) as usize;
            self.binade_start[b + 1] += 1;
        }
        for b in 1..66 {
            self.binade_start[b] += self.binade_start[b - 1];
        }
    }

    /// Samples recorded through the integer fast path.
    pub fn fast_bin_samples(&self) -> u64 {
        self.fast_bin_samples
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample (ms), 0 if empty. Combines the folded ms extreme
    /// with any pending cycle-domain extreme (converted at its rate).
    pub fn max_ms(&self) -> f64 {
        if self.cyc_pending {
            self.max_ms.max(Cycles(self.max_c).as_ms_at(self.cycles_hz))
        } else {
            self.max_ms
        }
    }

    /// Smallest sample (ms), 0 if empty.
    ///
    /// The field keeps `+inf` internally as the running-minimum identity;
    /// the accessor masks it so empty histograms serialize as `0.0` rather
    /// than `inf` (which is not valid JSON).
    pub fn min_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else if self.cyc_pending {
            self.min_ms.min(Cycles(self.min_c).as_ms_at(self.cycles_hz))
        } else {
            self.min_ms
        }
    }

    /// Mean (ms), 0 if empty.
    ///
    /// Folds the exact per-epoch cycle sums to ms *here* — one
    /// multiply-divide per epoch, in canonical ascending-rate order — and
    /// combines them with the float-path `sum_ms`. For a histogram fed only
    /// through the cycle paths `sum_ms` is exactly `0.0` and `0.0 + x == x`
    /// bit-for-bit (x is never `-0.0`), so the mean depends only on the
    /// integer epoch state: permutation- and merge-order-independent.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut sum = self.sum_ms;
        for e in &self.epochs {
            // Same formula as `Cycles::as_ms_at`, widened to the epoch sum.
            sum += e.sum_cycles as f64 * 1e3 / e.cpu_hz as f64;
        }
        sum / self.count as f64
    }

    /// Exact per-clock-rate cycle sums (the accumulator state), sorted by
    /// rate. Empty for histograms fed only through [`Self::record_ms`].
    pub fn rate_epochs(&self) -> &[RateEpoch] {
        &self.epochs
    }

    /// Bin edges (ms).
    pub fn edges_ms(&self) -> &[f64] {
        &self.edges_ms
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

    /// Merges another histogram with identical edges into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.edges_ms, other.edges_ms, "bin edges must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        // Float-path samples still merge as an f64 sum; the cycle paths
        // merge through the epochs below — exact u128 additions per rate,
        // so the cycle-domain mean no longer depends on merge order (the
        // old `sum_ms += other.sum_ms` carried the cycle sums too, and a
        // different shard order meant different last-ulp bits).
        self.sum_ms += other.sum_ms;
        for oe in &other.epochs {
            let i = self.epoch_index(oe.cpu_hz);
            self.epochs[i].sum_cycles += oe.sum_cycles;
            self.epochs[i].count += oe.count;
        }
        // Insertions may have shifted `cur_epoch`; the record paths
        // re-validate it against `cycles_hz` before use, so no fixup here.
        // Fold our pending cycle extremes, then take `other`'s through its
        // accessors (which fold read-only); `other.max_ms()` is 0 when
        // empty, matching the field's identity, and `min_ms()`'s empty
        // masking is sidestepped by checking its count.
        self.fold_cycle_extremes();
        self.max_ms = self.max_ms.max(other.max_ms());
        if other.count > 0 {
            self.min_ms = self.min_ms.min(other.min_ms());
        }
        self.fast_bin_samples += other.fast_bin_samples;
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
/// `edge_ms`, or `None` if no representable `u64` does. Binary search over
/// the monotone non-decreasing `Cycles::as_ms_at`.
fn cycle_edge_for(edge_ms: f64, cpu_hz: u64) -> Option<u64> {
    if Cycles(0).as_ms_at(cpu_hz) > edge_ms {
        return Some(0);
    }
    if Cycles(u64::MAX).as_ms_at(cpu_hz) <= edge_ms {
        return None;
    }
    // Invariant: as_ms_at(lo) <= edge < as_ms_at(hi).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_matches_edges() {
        let mut h = LatencyHistogram::fig4();
        h.record_ms(0.1); // underflow bin 0 (<= 0.125)
        h.record_ms(0.125); // still bin 0 (inclusive upper edge)
        h.record_ms(0.2); // bin 1
        h.record_ms(100.0); // bin 10
        h.record_ms(500.0); // overflow
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
            h.record_ms(0.05 + (i as f64) * 0.01);
        }
        let total: f64 = h.percents().iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn survival_is_monotone_decreasing() {
        let mut h = LatencyHistogram::fig4();
        for i in 1..=10_000 {
            h.record_ms(i as f64 * 0.01); // 0.01 .. 100 ms uniform
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
            h.record_ms(i as f64 * 0.001); // uniform 0.001..100
        }
        // P(X > 50) should be ~0.5.
        let s = h.survival(50.0);
        assert!((s - 0.5).abs() < 0.1, "survival(50) = {s}");
    }

    #[test]
    fn quantile_inverts_survival() {
        let mut h = LatencyHistogram::fig4();
        for i in 1..=100_000u64 {
            h.record_ms(i as f64 * 0.001); // uniform 0.001..100 ms
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
            h.record_ms(1.0);
        }
        h.record_ms(30.0);
        assert_eq!(h.quantile_exceeding(1e-9), 30.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::fig4();
        let mut b = LatencyHistogram::fig4();
        a.record_ms(0.3);
        b.record_ms(3.0);
        b.record_ms(300.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ms(), 300.0);
        // 0.3 ms falls in (0.25, 0.5], bin index 2.
        assert_eq!(a.counts()[2], 1);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LatencyHistogram::fig4();
        a.record_ms(0.3);
        a.record_ms(5.0);
        let before: Vec<u64> = a.counts().to_vec();
        let empty = LatencyHistogram::fig4();
        // Non-empty <- empty: nothing changes, min must not pick up the
        // empty histogram's +inf identity.
        a.merge(&empty);
        assert_eq!(a.counts(), &before[..]);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ms(), 0.3);
        assert_eq!(a.max_ms(), 5.0);
        // Empty <- non-empty: adopts the other's stats exactly.
        let mut b = LatencyHistogram::fig4();
        b.merge(&a);
        assert_eq!(b.counts(), a.counts());
        assert_eq!(b.min_ms(), 0.3);
        assert_eq!(b.mean_ms(), a.mean_ms());
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
        a.record_ms(0.5);
        let mut b = LatencyHistogram::with_edges(&[1.0]);
        b.record_ms(1.0);
        b.record_ms(7.0);
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
            a.record_ms(200.0);
            b.record_ms(400.0);
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
            h.record_ms(e);
        }
        for (i, &c) in h.counts().iter().enumerate() {
            let expected = u64::from(i < FIG4_EDGES_MS.len());
            assert_eq!(c, expected, "bin {i}");
        }
        assert_eq!(h.count(), FIG4_EDGES_MS.len() as u64);
    }

    #[test]
    fn binning_matches_linear_scan_reference() {
        // The partition_point binning must agree with the naive linear
        // scan it replaced, including just-below/just-above edge samples,
        // zero and the overflow region.
        let edges = FIG4_EDGES_MS;
        let mut samples = vec![0.0, 1e-12, 127.999, 128.0, 128.001, 1e6];
        for &e in &edges {
            samples.extend([e * (1.0 - 1e-12), e, e * (1.0 + 1e-12)]);
        }
        for ms in samples {
            let mut h = LatencyHistogram::fig4();
            h.record_ms(ms);
            let reference = edges
                .iter()
                .position(|&e| ms <= e)
                .unwrap_or(edges.len());
            assert_eq!(h.counts()[reference], 1, "sample {ms}");
            assert_eq!(h.count(), 1);
        }
    }

    #[test]
    fn overflow_bin_catches_everything_above_the_last_edge() {
        let mut h = LatencyHistogram::fig4();
        h.record_ms(128.0); // exactly the last edge: last real bin
        h.record_ms(128.0000001); // just above: overflow
        h.record_ms(1e9); // far above: overflow
        let last = FIG4_EDGES_MS.len() - 1;
        assert_eq!(h.counts()[last], 1);
        assert_eq!(h.counts()[last + 1], 2);
        assert_eq!(h.max_ms(), 1e9);
    }

    #[test]
    fn zero_sample_lands_in_the_underflow_bin() {
        let mut h = LatencyHistogram::fig4();
        h.record_ms(0.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.min_ms(), 0.0);
    }

    #[test]
    fn record_cycles_round_trips_each_bin_edge() {
        // Cycles -> ms -> bin must hit the same bin as recording the edge
        // value directly, at a realistic clock rate.
        let cpu_hz = 300_000_000u64;
        for (i, &e) in FIG4_EDGES_MS.iter().enumerate() {
            let cycles = Cycles((e * cpu_hz as f64 / 1e3) as u64);
            let mut by_cycles = LatencyHistogram::fig4();
            by_cycles.record_cycles(cycles, cpu_hz);
            let mut by_ms = LatencyHistogram::fig4();
            by_ms.record_ms(cycles.as_ms_at(cpu_hz));
            assert_eq!(by_cycles.counts(), by_ms.counts(), "edge {i} ({e} ms)");
        }
    }

    #[test]
    fn single_bin_histogram_degenerates_cleanly() {
        let mut h = LatencyHistogram::with_edges(&[1.0]);
        h.record_ms(0.5); // bin 0
        h.record_ms(1.0); // bin 0 (inclusive edge)
        h.record_ms(2.0); // overflow
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
        // Bins, counts, and extremes stay bit-identical to the ms path
        // (those are order-free); the mean is computed from the exact
        // epoch sum and must equal the reference u128 fold exactly, and
        // agree with the stream-order f64 mean to within relative rounding
        // slack (last-ulp drift is the documented stream-order difference).
        let cpu_hz = 300_000_000u64;
        let mut fast = LatencyHistogram::fig4();
        let mut slow = LatencyHistogram::fig4();
        let samples = dense_sweep(cpu_hz);
        let mut ref_sum: u128 = 0;
        for &c in &samples {
            fast.record_cycles(Cycles(c), cpu_hz);
            slow.record_ms(Cycles(c).as_ms_at(cpu_hz));
            ref_sum += c as u128;
        }
        assert_eq!(fast.counts(), slow.counts());
        assert_eq!(fast.count(), slow.count());
        assert_eq!(fast.max_ms().to_bits(), slow.max_ms().to_bits());
        assert_eq!(fast.min_ms().to_bits(), slow.min_ms().to_bits());
        let epochs = fast.rate_epochs();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].cpu_hz, cpu_hz);
        assert_eq!(epochs[0].sum_cycles, ref_sum, "epoch sum must be exact");
        assert_eq!(epochs[0].count, samples.len() as u64);
        let expected_mean =
            ref_sum as f64 * 1e3 / cpu_hz as f64 / samples.len() as f64;
        assert_eq!(fast.mean_ms().to_bits(), expected_mean.to_bits());
        let rel = (fast.mean_ms() - slow.mean_ms()).abs() / slow.mean_ms();
        assert!(rel < 1e-9, "v2 vs stream-order mean drift {rel}");
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
            assert_eq!(batched.rate_epochs(), other.rate_epochs());
            assert_eq!(batched.max_ms().to_bits(), other.max_ms().to_bits());
            assert_eq!(batched.min_ms().to_bits(), other.min_ms().to_bits());
            assert_eq!(batched.mean_ms().to_bits(), other.mean_ms().to_bits());
        }
    }

    #[test]
    fn v2_merge_is_order_independent_across_rate_epochs() {
        // Three shards recorded at two different clock rates, merged in
        // every order (including into an empty receiver), must produce
        // bit-identical summaries and identical epoch state.
        let shards: [(&[u64], u64); 3] = [
            (&[100, 2_000_000, 17], 300_000_000),
            (&[5, 900_000], 600_000_000),
            (&[u64::MAX, 0, 42], 300_000_000),
        ];
        let build = |order: &[usize]| {
            let mut acc = LatencyHistogram::fig4();
            for &i in order {
                let (cs, hz) = shards[i];
                let mut h = LatencyHistogram::fig4();
                h.record_cycles_batch(cs, hz);
                acc.merge(&h);
            }
            acc
        };
        let a = build(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let b = build(&order);
            assert_eq!(a.counts(), b.counts(), "{order:?}");
            assert_eq!(a.rate_epochs(), b.rate_epochs(), "{order:?}");
            assert_eq!(a.mean_ms().to_bits(), b.mean_ms().to_bits(), "{order:?}");
            assert_eq!(a.max_ms().to_bits(), b.max_ms().to_bits(), "{order:?}");
            assert_eq!(a.min_ms().to_bits(), b.min_ms().to_bits(), "{order:?}");
        }
        // Merging shifts epoch indices; recording afterward must still land
        // in the right epoch (cur_epoch re-validation).
        let mut acc = build(&[1, 0, 2]);
        acc.record_cycles(Cycles(7), 600_000_000);
        let e = acc
            .rate_epochs()
            .iter()
            .find(|e| e.cpu_hz == 600_000_000)
            .expect("600 MHz epoch");
        assert_eq!(e.count, 3);
        assert_eq!(e.sum_cycles, 5 + 900_000 + 7);
    }

    #[test]
    fn epoch_sums_cannot_saturate_within_a_simulated_week() {
        // Overflow audit for the u128 epoch sums: a week of samples at an
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
    fn cycle_edges_rebuild_when_the_clock_rate_changes() {
        let mut h = LatencyHistogram::fig4();
        h.record_cycles(Cycles(300_000), 300_000_000); // 1 ms at 300 MHz
        h.record_cycles(Cycles(300_000), 600_000_000); // 0.5 ms at 600 MHz
        assert_eq!(h.counts()[3], 1); // (0.5, 1.0]
        assert_eq!(h.counts()[2], 1); // (0.25, 0.5]
        assert_eq!(h.fast_bin_samples(), 2);
    }

    #[test]
    fn merge_sums_fast_bin_samples() {
        let mut a = LatencyHistogram::fig4();
        let mut b = LatencyHistogram::fig4();
        a.record_cycles(Cycles(1_000), 300_000_000);
        b.record_cycles(Cycles(2_000), 300_000_000);
        b.record_ms(0.5);
        a.merge(&b);
        assert_eq!(a.fast_bin_samples(), 2);
        assert_eq!(a.count(), 3);
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
