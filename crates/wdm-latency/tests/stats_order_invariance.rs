//! Property oracle for the v2 exact accumulators (DESIGN.md §14): every
//! summary statistic is **order-independent**.
//!
//! The v2 statistics pipeline keeps only associative, commutative state —
//! integer bin counts, exact `u128` cycle sums per rate epoch, and f64
//! min/max folds — so any permutation of the sample stream, any batch
//! split of it, and any whole-minute shard split must produce summaries,
//! histograms, and block maxima that are equal *to the bit*, not merely
//! approximately. That exactness is what licenses the unordered stage
//! partition and the sharded cells in the bench harness: the digest files
//! pin one canonical output, and these properties prove no batch schedule
//! or shard plan can produce another.
//!
//! Streams include clock-rate changes mid-stream and the domain extremes
//! (0 and `u64::MAX` cycle samples), per the accumulator contract.

use proptest::prelude::*;

use wdm_latency::histogram::LatencyHistogram;
use wdm_latency::worstcase::LatencySeries;
use wdm_sim::time::{Cycles, Instant};

/// Latency samples in cycles: extremes plus everyday magnitudes.
fn latency() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(1u64),
        0u64..100_000_000,
        0u64..500,
    ]
}

/// Clock rates whose 60-second blocks leave room for multi-minute streams.
fn clock_rate() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(1_000u64),
        Just(999u64),
        Just(300_000_000u64),
        1u64..4_000_000_000,
    ]
}

/// Reorders `items` by the (key, index) argsort of `keys` — a uniform-ish
/// permutation driven entirely by proptest draws.
fn permute<T: Clone>(items: &[T], keys: &[u64]) -> Vec<T> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
    order.into_iter().map(|i| items[i].clone()).collect()
}

/// Splits `samples` into chunks at the (clamped, sorted) cut points.
fn chunked<'a, T>(samples: &'a [T], cut_points: &[usize]) -> Vec<&'a [T]> {
    let mut cuts: Vec<usize> = cut_points.iter().map(|&c| c.min(samples.len())).collect();
    cuts.sort_unstable();
    let mut chunks = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0usize;
    for cut in cuts {
        chunks.push(&samples[prev..cut]);
        prev = cut;
    }
    chunks.push(&samples[prev..]);
    chunks
}

/// Bit-level histogram equality: bins, count, and every summary statistic.
fn assert_hists_bit_equal(a: &LatencyHistogram, b: &LatencyHistogram) {
    prop_assert_eq!(a.counts(), b.counts());
    prop_assert_eq!(a.count(), b.count());
    prop_assert_eq!(a.max_ms().to_bits(), b.max_ms().to_bits());
    prop_assert_eq!(a.min_ms().to_bits(), b.min_ms().to_bits());
    prop_assert_eq!(a.mean_ms().to_bits(), b.mean_ms().to_bits());
    prop_assert_eq!(a.rate_epochs(), b.rate_epochs());
}

/// Bit-level series equality: histogram plus the block-maxima vector.
fn assert_series_bit_equal(a: &LatencySeries, b: &LatencySeries) {
    assert_hists_bit_equal(&a.hist, &b.hist);
    prop_assert_eq!(a.blocks.maxima().len(), b.blocks.maxima().len());
    for (x, y) in a.blocks.maxima().iter().zip(b.blocks.maxima()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    /// Histogram layer: a stream with per-sample clock rates, recorded in
    /// the original order, in a random permutation, and as the permuted
    /// stream batched into its maximal equal-rate runs, must agree to the
    /// bit on every observable — the epoch sums make even the mean exact.
    #[test]
    fn histogram_summaries_are_permutation_and_batch_invariant(
        lats in prop::collection::vec(latency(), 0..200),
        keys in prop::collection::vec(0u64..1_000_000, 0..200),
        hz_a in clock_rate(),
        hz_b in clock_rate(),
        stride in 1usize..8,
    ) {
        // Attach rates in a striped pattern so the stream changes clock
        // rate mid-stream (and permutations interleave the rates freely).
        let samples: Vec<(u64, u64)> = lats
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, if (i / stride) % 2 == 0 { hz_a } else { hz_b }))
            .collect();
        let mut in_order = LatencyHistogram::fig4();
        for &(c, hz) in &samples {
            in_order.record_cycles(Cycles(c), hz);
        }

        let shuffled = permute(&samples, &keys);
        let mut permuted = LatencyHistogram::fig4();
        for &(c, hz) in &shuffled {
            permuted.record_cycles(Cycles(c), hz);
        }
        assert_hists_bit_equal(&permuted, &in_order);

        // Batch the permuted stream as maximal equal-rate runs.
        let mut batched = LatencyHistogram::fig4();
        let mut run: Vec<u64> = Vec::new();
        let mut run_hz = 0u64;
        for &(c, hz) in &shuffled {
            if hz != run_hz && !run.is_empty() {
                batched.record_cycles_batch(&run, run_hz);
                run.clear();
            }
            run_hz = hz;
            run.push(c);
        }
        if !run.is_empty() {
            batched.record_cycles_batch(&run, run_hz);
        }
        assert_hists_bit_equal(&batched, &in_order);
    }

    /// Series layer: timestamped samples recorded per-sample in time
    /// order, per-sample in a random permutation, and batched under random
    /// splits of the *permuted* stream, all close to bit-identical
    /// histograms and block maxima.
    #[test]
    fn series_state_is_permutation_and_batch_split_invariant(
        raw in prop::collection::vec((0u64..8, 0.0f64..1.0, latency()), 0..150),
        keys in prop::collection::vec(0u64..1_000_000, 0..150),
        cut_points in prop::collection::vec(0usize..150, 0..6),
        cpu_hz in clock_rate(),
    ) {
        let block = 60 * cpu_hz.min(u64::MAX / 61);
        // (minute, fraction) -> absolute timestamps across several blocks.
        let samples: Vec<(u64, u64)> = raw
            .iter()
            .map(|&(m, f, c)| (m * block + (f * (block - 1) as f64) as u64, c))
            .collect();
        let mut in_time_order = samples.clone();
        in_time_order.sort_by_key(|&(t, _)| t);

        let mut reference = LatencySeries::new("ref", cpu_hz);
        for &(t, c) in &in_time_order {
            reference.record_cycles(Instant(t), Cycles(c));
        }
        let shuffled = permute(&samples, &keys);
        let mut permuted = LatencySeries::new("perm", cpu_hz);
        for &(t, c) in &shuffled {
            permuted.record_cycles(Instant(t), Cycles(c));
        }
        let mut batched = LatencySeries::new("batch", cpu_hz);
        for chunk in chunked(&shuffled, &cut_points) {
            let nows: Vec<u64> = chunk.iter().map(|s| s.0).collect();
            let lats: Vec<u64> = chunk.iter().map(|s| s.1).collect();
            batched.record_cycles_batch(&nows, &lats);
        }
        for s in [&mut reference, &mut permuted, &mut batched] {
            s.close_blocks(9);
        }
        assert_series_bit_equal(&permuted, &reference);
        assert_series_bit_equal(&batched, &reference);
    }

    /// Shard-merge layer: one stream split into whole-minute shard windows
    /// (each shard recording on its own local clock) plus an open tail
    /// shard. Merging the shards in time order — the tail's open hot block
    /// carried over by the last merge — must equal the single series that
    /// saw the concatenated stream.
    #[test]
    fn shard_merges_commute_and_match_the_unsharded_stream(
        raw in prop::collection::vec((0u64..4, 0.0f64..1.0, latency()), 0..120),
        cpu_hz in clock_rate(),
    ) {
        const SHARDS: usize = 4; // 3 closed one-minute shards + open tail.
        let block = 60 * cpu_hz.min(u64::MAX / 61);
        let mut local: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SHARDS];
        let mut absolute: Vec<(u64, u64)> = Vec::new();
        for &(m, f, c) in &raw {
            let off = (f * (block - 1) as f64) as u64;
            local[m as usize].push((off, c));
            absolute.push((m * block + off, c));
        }
        absolute.sort_by_key(|&(t, _)| t);
        for shard in &mut local {
            shard.sort_by_key(|&(t, _)| t);
        }

        let mut unsharded = LatencySeries::new("one", cpu_hz);
        for &(t, c) in &absolute {
            unsharded.record_cycles(Instant(t), Cycles(c));
        }
        let shards: Vec<LatencySeries> = local
            .iter()
            .enumerate()
            .map(|(i, samples)| {
                let mut s = LatencySeries::new("shard", cpu_hz);
                for &(t, c) in samples {
                    s.record_cycles(Instant(t), Cycles(c));
                }
                if i < SHARDS - 1 {
                    s.close_blocks(1); // Whole-minute closed shard.
                }
                s
            })
            .collect();

        let mut sequential = shards[0].clone();
        for s in &shards[1..] {
            sequential.merge(s);
        }

        // Close both trailing windows identically before the bit compare
        // (the unsharded stream may have an open hot block at a different
        // minute than the merged one).
        for s in [&mut unsharded, &mut sequential] {
            s.close_blocks(SHARDS + 1);
        }
        assert_series_bit_equal(&sequential, &unsharded);
    }
}
