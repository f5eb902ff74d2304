//! Property oracle for integer cycle-domain binning (DESIGN.md §12).
//!
//! `LatencyHistogram::record_cycles` bins by comparing raw cycle counts
//! against precomputed integer bin edges, where edge `i` is the smallest
//! cycle count whose ms conversion exceeds the ms edge. The contract is
//! that this is *observably identical* to the ms-domain definition:
//! convert each sample with `Cycles::as_ms_at` and take
//! `edges_ms.partition_point(|&e| e < ms)`. Bin counts, count, max and
//! min must match that definition to the bit; the mean must equal the
//! exact cycle sum converted once (DESIGN.md §14).
//!
//! These properties check that claim over random bin axes, random clock
//! rates (including degenerate 1 Hz and saturating `u64::MAX` Hz), random
//! cycle samples, and adversarial samples sitting exactly on (and one
//! cycle either side of) every bin edge.

use proptest::prelude::*;

use wdm_latency::histogram::LatencyHistogram;
use wdm_sim::time::Cycles;

/// Independent re-derivation of the integer edge rule: the smallest cycle
/// count whose ms conversion at `cpu_hz` exceeds `edge_ms` (`None` if no
/// representable count does). Deliberately re-implemented here rather than
/// exported from the library so the oracle checks the rule, not the code.
fn smallest_exceeding_cycle(edge_ms: f64, cpu_hz: u64) -> Option<u64> {
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

/// Random strictly-increasing ms bin axes spanning ~8 decades.
fn axes() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1e-4f64..1e4, 1..12).prop_map(|mut v| {
        v.sort_by(f64::total_cmp);
        v.dedup();
        v
    })
}

/// Clock rates: the simulator's defaults, degenerate extremes, and
/// arbitrary values in between.
fn clock_rate() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(1u64),
        Just(999u64),
        Just(300_000_000u64),
        Just(1_000_000_000u64),
        Just(u64::MAX),
        1u64..u64::MAX,
    ]
}

/// Records every sample at `cpu_hz` and asserts the histogram equals the
/// ms-domain definition computed here, sample by sample.
fn assert_matches_ms_definition(edges: &[f64], cpu_hz: u64, samples: &[u64]) {
    // A histogram borrows its axis for the life of the program, so each
    // random axis is leaked: a few bytes per case.
    let mut h = LatencyHistogram::with_edges(edges.to_vec().leak());
    let mut counts = vec![0u64; edges.len() + 1];
    let (mut max, mut min, mut sum) = (0.0f64, f64::INFINITY, 0u128);
    for &c in samples {
        h.record_cycles(Cycles(c), cpu_hz);
        let ms = Cycles(c).as_ms_at(cpu_hz);
        counts[edges.partition_point(|&e| e < ms)] += 1;
        max = max.max(ms);
        min = min.min(ms);
        sum += c as u128;
    }
    prop_assert_eq!(h.counts(), &counts[..]);
    prop_assert_eq!(h.count(), samples.len() as u64);
    prop_assert_eq!(h.max_ms().to_bits(), max.to_bits());
    prop_assert_eq!(h.min_ms().to_bits(), min.to_bits());
    prop_assert_eq!(h.sum_cycles(), sum);
    let mean = sum as f64 * 1e3 / cpu_hz as f64 / samples.len() as f64;
    prop_assert_eq!(h.mean_ms().to_bits(), mean.to_bits());
}

proptest! {
    #[test]
    fn cycle_binning_matches_ms_binning_on_random_axes(
        edges in axes(),
        cpu_hz in clock_rate(),
        raw in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        // The raw draws, the domain extremes, and every edge's boundary
        // neighborhood (the exact cycle where the bin flips, one below,
        // one above).
        let mut samples = raw;
        samples.extend([0, u64::MAX]);
        for &e in &edges {
            if let Some(ce) = smallest_exceeding_cycle(e, cpu_hz) {
                samples.extend([ce.saturating_sub(1), ce, ce.saturating_add(1)]);
            }
        }
        assert_matches_ms_definition(&edges, cpu_hz, &samples);
    }
}
