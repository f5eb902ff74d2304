//! Property oracle for staged series recording (DESIGN.md §14).
//!
//! The staged pipeline — observers append raw `(now, latency, series)`
//! triples to a [`SampleStage`] and fold whole batches at flush time —
//! must be *bit-identical* to recording each sample through the
//! per-sample `record_cycles` folds: same bin counts, same `to_bits`
//! summary statistics (the exact cycle sum makes every fold order-free),
//! and the exact same block-maxima vector (boundaries are walked inside
//! the batch fold, not approximated).
//!
//! Three layers are pinned, bottom up:
//!
//! - `LatencyHistogram::record_cycles_batch` against per-sample
//!   `record_cycles`, under arbitrary batch cuts;
//! - `BlockMaxima::record_cycles_batch` against per-sample
//!   `record_cycles`, with batches straddling block boundaries and
//!   trailing empty blocks;
//! - the full [`SampleStage`] flush loop (counting-sort partition +
//!   per-series fold) against interleaved per-sample recording into the
//!   same set of series, with a tiny soft capacity so partial final
//!   flushes and block-boundary flushes both occur.
//!
//! Samples include 0 and `u64::MAX` latencies and timestamps that skip
//! whole minutes, per the staging contract.

use proptest::prelude::*;

use wdm_latency::histogram::LatencyHistogram;
use wdm_latency::worstcase::{BlockMaxima, LatencySeries};
use wdm_latency::SampleStage;
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

/// Timestamp deltas as block-length fractions: zero (bursts), small steps
/// inside one minute, steps that cross a boundary mid-batch, and jumps
/// that skip whole empty minutes.
fn delta_frac() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        0.0f64..0.0625,
        0.5f64..2.0,
        Just(3.0f64),
    ]
}

/// Clock rates kept small enough that `60 * cpu_hz` block lengths leave
/// room for multi-minute streams in `u64` timestamps.
fn clock_rate() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(1_000u64),
        Just(999u64),
        Just(300_000_000u64),
        Just(1_000_000_000u64),
        1u64..4_000_000_000,
    ]
}

/// Raw per-sample draws: `(delta_frac, latency, series_pick)`. The test
/// body turns these into non-decreasing timestamps on its block scale.
fn raw_stream(max_len: usize) -> impl Strategy<Value = Vec<(f64, u64, u16)>> {
    prop::collection::vec((delta_frac(), latency(), 0u16..3), 0..max_len)
}

/// Materializes timestamps: cumulative `delta_frac * block_len` cycles.
fn build_stream(raw: &[(f64, u64, u16)], block_len: u64) -> Vec<(u64, u64, u16)> {
    let mut now = 0u64;
    raw.iter()
        .map(|&(frac, lat, sid)| {
            now = now.saturating_add((frac * block_len as f64) as u64);
            (now, lat, sid)
        })
        .collect()
}

/// Splits `samples` into chunks at the (clamped, sorted) cut points,
/// with whatever remains after the last cut as a partial tail batch.
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

fn assert_hists_agree(batched: &LatencyHistogram, streamed: &LatencyHistogram) {
    prop_assert_eq!(batched.counts(), streamed.counts());
    prop_assert_eq!(batched.count(), streamed.count());
    prop_assert_eq!(batched.sum_cycles(), streamed.sum_cycles());
    prop_assert_eq!(batched.max_ms().to_bits(), streamed.max_ms().to_bits());
    prop_assert_eq!(batched.min_ms().to_bits(), streamed.min_ms().to_bits());
    prop_assert_eq!(batched.mean_ms().to_bits(), streamed.mean_ms().to_bits());
}

fn assert_maxima_agree(batched: &BlockMaxima, streamed: &BlockMaxima) {
    prop_assert_eq!(batched.maxima().len(), streamed.maxima().len());
    for (a, b) in batched.maxima().iter().zip(streamed.maxima()) {
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
}

fn assert_series_agree(batched: &LatencySeries, streamed: &LatencySeries) {
    assert_hists_agree(&batched.hist, &streamed.hist);
    assert_maxima_agree(&batched.blocks, &streamed.blocks);
}

proptest! {
    /// Histogram layer: arbitrary batch cuts.
    #[test]
    fn histogram_batch_fold_matches_streaming(
        lats in prop::collection::vec(latency(), 0..200),
        cut_points in prop::collection::vec(0usize..200, 0..6),
        cpu_hz in clock_rate(),
    ) {
        let mut batched = LatencyHistogram::fig4();
        let mut streamed = LatencyHistogram::fig4();
        for chunk in chunked(&lats, &cut_points) {
            batched.record_cycles_batch(chunk, cpu_hz);
            for &c in chunk {
                streamed.record_cycles(Cycles(c), cpu_hz);
            }
        }
        assert_hists_agree(&batched, &streamed);
    }

    /// Block-maxima layer: batches straddle minute boundaries (the fold
    /// must flush exactly where the streaming rule would), and a final
    /// `close_through` proves the in-progress block state also agrees.
    #[test]
    fn block_maxima_batch_fold_matches_streaming(
        raw in raw_stream(150),
        cut_points in prop::collection::vec(0usize..150, 0..6),
        cpu_hz in clock_rate(),
    ) {
        let block = 60_000u64;
        let samples = build_stream(&raw, block);
        let mut batched = BlockMaxima::new(Cycles(block));
        let mut streamed = BlockMaxima::new(Cycles(block));
        for chunk in chunked(&samples, &cut_points) {
            let nows: Vec<u64> = chunk.iter().map(|s| s.0).collect();
            let lats: Vec<u64> = chunk.iter().map(|s| s.1).collect();
            batched.record_cycles_batch(&nows, &lats, cpu_hz);
            for &(n, c, _) in chunk {
                streamed.record_cycles(Instant(n), Cycles(c), cpu_hz);
            }
        }
        assert_maxima_agree(&batched, &streamed);
        // Drain the in-progress block the same way on both sides: the
        // open-block state (max and nonempty flag) must also agree.
        let target = batched.maxima().len() + 2;
        batched.close_through(target);
        streamed.close_through(target);
        assert_maxima_agree(&batched, &streamed);
    }

    /// Full pipeline: interleaved multi-series triples staged through a
    /// tiny-capacity [`SampleStage`] (flush on request + partial final
    /// flush) against direct per-sample recording into twin series.
    #[test]
    fn stage_flush_loop_matches_per_sample_recording(
        cpu_hz in clock_rate(),
        raw in raw_stream(120),
        capacity in 1usize..9,
    ) {
        const N: usize = 3;
        let block_len = 60 * cpu_hz;
        let samples = build_stream(&raw, block_len);
        let mut staged: Vec<LatencySeries> = (0..N)
            .map(|i| LatencySeries::new(&format!("s{i}"), cpu_hz))
            .collect();
        let mut direct: Vec<LatencySeries> = (0..N)
            .map(|i| LatencySeries::new(&format!("s{i}"), cpu_hz))
            .collect();

        let mut stage = SampleStage::with_capacity(block_len, capacity);
        let base = stage.register_series(N);
        let flush = |stage: &mut SampleStage, staged: &mut Vec<LatencySeries>| {
            stage.partition();
            for (i, s) in staged.iter_mut().enumerate() {
                stage.fold_into(base + i as u16, s);
            }
            stage.reset();
        };

        for &(now, lat, sid) in &samples {
            let now = Instant(now);
            direct[sid as usize].record_cycles(now, Cycles(lat));
            if stage.push(base + sid, now, Cycles(lat)) {
                flush(&mut stage, &mut staged);
            }
        }
        if !stage.is_empty() {
            flush(&mut stage, &mut staged); // Partial final flush.
        }

        prop_assert_eq!(stage.staged_samples(), samples.len() as u64);
        for (b, s) in staged.iter().zip(&direct) {
            assert_series_agree(b, s);
        }
    }
}
