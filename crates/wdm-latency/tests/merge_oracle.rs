//! Property oracle for the shard-merge layer (DESIGN.md §9).
//!
//! The sharded harness splits one cell's collection window into whole-block
//! time shards, measures each independently, and merges. The contract that
//! makes every downstream renderer work unchanged is *exactness*: merging
//! per-shard results must equal streaming the concatenated sample stream
//! through one collector. These properties check that claim over random
//! sample streams and random whole-block shard splits, for both halves of a
//! [`LatencySeries`]:
//!
//! - **Histogram**: bin counts, totals, extremes, the exact cycle sum and
//!   hence the mean are bit-exact (every accumulator is an integer).
//! - **Block maxima**: the completed-block vector and the in-progress block
//!   are bit-exact (maxima only compare and copy, never accumulate).

use proptest::prelude::*;

use wdm_latency::{histogram::LatencyHistogram, worstcase::BlockMaxima};
use wdm_sim::time::{Cycles, Instant};

/// Simulated block length in cycles (arbitrary; one "minute").
const BLOCK: u64 = 1_000;

/// The clock every sample is recorded at.
const HZ: u64 = 300_000_000;

/// Latencies in cycles: 0.01 to 200 ms at [`HZ`].
const LATENCY: std::ops::Range<u64> = 3_000..60_000_000;

/// One shard: a whole number of blocks plus samples inside that window.
#[derive(Debug, Clone)]
struct Shard {
    blocks: u64,
    /// (offset within the shard window, latency cycles), time-sorted.
    samples: Vec<(u64, u64)>,
}

fn shards_from(raw: Vec<(u64, Vec<(u64, u64)>)>) -> Vec<Shard> {
    raw.into_iter()
        .map(|(blocks, mut samples)| {
            let blocks = 1 + blocks % 4;
            for s in &mut samples {
                // Strictly inside the shard window (samples at the exact
                // boundary instant belong to the next shard by convention).
                s.0 %= blocks * BLOCK;
            }
            samples.sort_by_key(|&(t, _)| t);
            Shard { blocks, samples }
        })
        .collect()
}

proptest! {
    #[test]
    fn merged_shards_equal_streaming_the_concatenated_stream(
        raw in prop::collection::vec(
            (0u64..4, prop::collection::vec((0u64..4_000, LATENCY), 0..40)),
            1..6,
        ),
    ) {
        let shards = shards_from(raw);

        // Merged path: independent collector per shard, closed at its
        // whole-block end, then folded left in time order.
        let mut merged_hist: Option<LatencyHistogram> = None;
        let mut merged_blocks: Option<BlockMaxima> = None;
        for sh in &shards {
            let mut h = LatencyHistogram::fig4();
            let mut b = BlockMaxima::new(Cycles(BLOCK));
            for &(t, c) in &sh.samples {
                h.record_cycles(Cycles(c), HZ);
                b.record_cycles(Instant(t), Cycles(c), HZ);
            }
            b.close_through(sh.blocks as usize);
            match (&mut merged_hist, &mut merged_blocks) {
                (Some(mh), Some(mb)) => {
                    mh.merge(&h);
                    mb.merge(&b);
                }
                _ => {
                    merged_hist = Some(h);
                    merged_blocks = Some(b);
                }
            }
        }
        let merged_hist = merged_hist.expect("at least one shard");
        let merged_blocks = merged_blocks.expect("at least one shard");

        // Streaming reference: one collector over the concatenated stream,
        // each shard's samples shifted by the blocks before it, closed at
        // the total whole-block end.
        let mut ref_hist = LatencyHistogram::fig4();
        let mut ref_blocks = BlockMaxima::new(Cycles(BLOCK));
        let mut base = 0u64;
        for sh in &shards {
            for &(t, c) in &sh.samples {
                ref_hist.record_cycles(Cycles(c), HZ);
                ref_blocks.record_cycles(Instant(base + t), Cycles(c), HZ);
            }
            base += sh.blocks * BLOCK;
        }
        let total_blocks: u64 = shards.iter().map(|s| s.blocks).sum();
        ref_blocks.close_through(total_blocks as usize);

        // Histogram: every accumulator is an integer, so all bit-exact.
        prop_assert_eq!(merged_hist.counts(), ref_hist.counts());
        prop_assert_eq!(merged_hist.count(), ref_hist.count());
        prop_assert_eq!(merged_hist.sum_cycles(), ref_hist.sum_cycles());
        prop_assert_eq!(merged_hist.max_ms().to_bits(), ref_hist.max_ms().to_bits());
        prop_assert_eq!(merged_hist.min_ms().to_bits(), ref_hist.min_ms().to_bits());
        prop_assert_eq!(merged_hist.mean_ms().to_bits(), ref_hist.mean_ms().to_bits());

        // Block maxima: completed vector bit-exact (values are copied,
        // never accumulated), and the closed window covers every whole
        // block of the concatenated stream.
        prop_assert_eq!(merged_blocks.maxima(), ref_blocks.maxima());
        prop_assert_eq!(merged_blocks.maxima().len() as u64, total_blocks);

        // The in-progress block agrees too: one extra probe sample far in
        // the future must flush identical values from both.
        let mut merged_probe = merged_blocks;
        let mut ref_probe = ref_blocks;
        let far = Instant((total_blocks + 10) * BLOCK);
        merged_probe.record_cycles(far, Cycles(1_500), HZ);
        ref_probe.record_cycles(far, Cycles(1_500), HZ);
        prop_assert_eq!(merged_probe.maxima(), ref_probe.maxima());
    }

    #[test]
    fn close_then_merge_never_loses_or_invents_samples(
        raw in prop::collection::vec(
            (0u64..4, prop::collection::vec((0u64..4_000, LATENCY), 0..40)),
            1..6,
        ),
    ) {
        let shards = shards_from(raw);
        let total: usize = shards.iter().map(|s| s.samples.len()).sum();
        let mut h = LatencyHistogram::fig4();
        for sh in &shards {
            let mut part = LatencyHistogram::fig4();
            for &(_, c) in &sh.samples {
                part.record_cycles(Cycles(c), HZ);
            }
            h.merge(&part);
        }
        prop_assert_eq!(h.count(), total as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), total as u64);
    }
}
