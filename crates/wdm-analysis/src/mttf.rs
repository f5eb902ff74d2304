//! Mean time to buffer underrun for a soft modem datapump (Figures 6–7).
//!
//! From the paper's §5: "The plots are derived from our tables of latency
//! data by calculating the slack time for each amount of buffering (i.e.,
//! t*(n-1) – c, where n is the number of buffers, t is the buffer size in
//! milliseconds and c is the compute time for 1 buffer). This number is
//! used to index into the latency table to determine the frequency with
//! which such latencies occur, and this frequency is divided by an
//! approximation of the cycle time (for simplicity, (n-1)*t)."
//!
//! The datapump is assumed to need 25 % of a 300 MHz Pentium II during data
//! transfer, so `c = 0.25 * t`. The calculation is exact for double
//! buffering and a good approximation for small n.

use wdm_latency::histogram::LatencyHistogram;

/// The paper's datapump compute fraction: 25 % of a cycle.
pub const DATAPUMP_CPU_FRACTION: f64 = 0.25;

/// Parameters of an MTTF evaluation.
#[derive(Debug, Clone, Copy)]
pub struct MttfParams {
    /// Number of buffers `n` (2 = double buffering, the paper's baseline).
    pub buffers: u32,
    /// Datapump compute fraction of a buffer period (`c = frac * t`).
    pub compute_fraction: f64,
}

impl Default for MttfParams {
    fn default() -> MttfParams {
        MttfParams {
            buffers: 2,
            compute_fraction: DATAPUMP_CPU_FRACTION,
        }
    }
}

/// Mean time to buffer underrun, in seconds, for `buffering_ms` of total
/// buffering (`(n-1) * t`), given the service latency distribution.
///
/// Returns `f64::INFINITY` when no observed latency reaches the slack time
/// (the failure mode was never seen in the collected data — the paper's
/// plots simply run off the top of the 10,000 s axis there).
pub fn mttf_seconds(latency: &LatencyHistogram, buffering_ms: f64, params: &MttfParams) -> f64 {
    assert!(params.buffers >= 2, "need at least double buffering");
    assert!(
        (0.0..1.0).contains(&params.compute_fraction),
        "compute fraction must be in [0, 1)"
    );
    if buffering_ms <= 0.0 || latency.count() == 0 {
        return 0.0;
    }
    // Total buffering B = (n-1) * t, so t = B / (n-1) and c = frac * t.
    let t = buffering_ms / (params.buffers - 1) as f64;
    let c = params.compute_fraction * t;
    let slack_ms = buffering_ms - c;
    if slack_ms <= 0.0 {
        return 0.0;
    }
    let p = latency.survival(slack_ms);
    if p <= 0.0 {
        return f64::INFINITY;
    }
    // One service opportunity per cycle, cycle time ~ (n-1)*t = B.
    let cycle_s = buffering_ms / 1000.0;
    cycle_s / p
}

/// A full MTTF curve: (buffering ms, MTTF seconds) pairs over the paper's
/// Figure 6/7 x-axis.
pub fn mttf_curve(
    latency: &LatencyHistogram,
    buffering_ms: &[f64],
    params: &MttfParams,
) -> Vec<(f64, f64)> {
    buffering_ms
        .iter()
        .map(|&b| (b, mttf_seconds(latency, b, params)))
        .collect()
}

/// The Figure 6 x-axis: 4 to 64 ms of buffering in 4 ms steps.
pub fn fig6_axis() -> Vec<f64> {
    (1..=16).map(|i| i as f64 * 4.0).collect()
}

/// The Figure 7 x-axis: 2 to 32 ms of buffering in 2 ms steps.
pub fn fig7_axis() -> Vec<f64> {
    (1..=16).map(|i| i as f64 * 2.0).collect()
}

/// Reference marks on the MTTF axis (Figures 6–7): 1 min, 10 min, 1 hour.
pub const MTTF_MARKS_S: [(f64, &str); 3] = [(60.0, "1 min"), (600.0, "10 min"), (3600.0, "1 hour")];

/// Smallest buffering (from `axis`) whose MTTF meets `target_s`, if any.
pub fn buffering_for_mttf(
    latency: &LatencyHistogram,
    axis: &[f64],
    params: &MttfParams,
    target_s: f64,
) -> Option<f64> {
    axis.iter()
        .copied()
        .find(|&b| mttf_seconds(latency, b, params) >= target_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::time::{Cycles, DEFAULT_CPU_HZ};

    /// A latency table where P(X > x) decays by 10x per 4 ms.
    fn synthetic_hist() -> LatencyHistogram {
        let mut h = LatencyHistogram::fig4();
        // 100k samples: exponential-ish tail out to 24 ms.
        for i in 0..100_000u64 {
            // Survival 10^(-x/4): invert for sample i/n = 1 - 10^(-x/4).
            let u = (i as f64 + 0.5) / 100_000.0;
            let x = -4.0 * (1.0 - u).log10();
            h.record_cycles(Cycles::from_ms(x.min(24.0)), DEFAULT_CPU_HZ);
        }
        h
    }

    #[test]
    fn mttf_increases_with_buffering() {
        let h = synthetic_hist();
        let p = MttfParams::default();
        let curve = mttf_curve(&h, &fig6_axis(), &p);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "MTTF must not decrease with more buffering: {:?}",
                curve
            );
        }
    }

    #[test]
    fn mttf_matches_hand_computation() {
        let h = synthetic_hist();
        let p = MttfParams::default();
        // B = 8 ms, n=2: t=8, c=2, slack=6 ms. P ~ 10^-1.5 ~ 0.0316.
        let m = mttf_seconds(&h, 8.0, &p);
        let expected = 0.008 / 10f64.powf(-1.5);
        assert!(
            (m - expected).abs() / expected < 0.5,
            "mttf {m} vs expected {expected}"
        );
    }

    #[test]
    fn infinite_when_tail_never_reached() {
        let mut h = LatencyHistogram::fig4();
        for _ in 0..1000 {
            h.record_cycles(Cycles::from_ms(0.5), DEFAULT_CPU_HZ);
        }
        // Slack 30 ms >> max 0.5 ms.
        assert_eq!(
            mttf_seconds(&h, 40.0, &MttfParams::default()),
            f64::INFINITY
        );
    }

    #[test]
    fn zero_when_no_slack() {
        let h = synthetic_hist();
        // With n=2 and 25% compute, slack is always positive for B>0; force
        // a high compute fraction to kill it.
        let p = MttfParams {
            buffers: 2,
            compute_fraction: 0.999,
        };
        // slack = B - 0.999B ~ 0.001B: tiny but positive, so not zero; use
        // B=0 for the degenerate case.
        assert_eq!(mttf_seconds(&h, 0.0, &p), 0.0);
    }

    #[test]
    fn more_buffers_shrink_per_buffer_compute() {
        let h = synthetic_hist();
        let double = MttfParams {
            buffers: 2,
            compute_fraction: 0.25,
        };
        let quad = MttfParams {
            buffers: 4,
            compute_fraction: 0.25,
        };
        // Same total buffering: with n=4 each buffer is smaller, compute per
        // buffer shrinks, slack grows, MTTF improves.
        let m2 = mttf_seconds(&h, 12.0, &double);
        let m4 = mttf_seconds(&h, 12.0, &quad);
        assert!(m4 >= m2, "quad {m4} vs double {m2}");
    }

    #[test]
    fn buffering_search_finds_threshold() {
        let h = synthetic_hist();
        let p = MttfParams::default();
        let b = buffering_for_mttf(&h, &fig6_axis(), &p, 3600.0);
        assert!(b.is_some());
        let b = b.unwrap();
        assert!(mttf_seconds(&h, b, &p) >= 3600.0);
        assert!(mttf_seconds(&h, b - 4.0, &p) < 3600.0);
    }

    #[test]
    fn axes_match_paper() {
        assert_eq!(fig6_axis().first(), Some(&4.0));
        assert_eq!(fig6_axis().last(), Some(&64.0));
        assert_eq!(fig7_axis().last(), Some(&32.0));
    }
}
