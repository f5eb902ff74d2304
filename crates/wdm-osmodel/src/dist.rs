//! Duration distributions for stochastic OS and workload behavior.
//!
//! The paper's central observation is that Windows service times are "highly
//! non-deterministic": worst cases are orders of magnitude above the average
//! (§1.3). We model foreign ISR/DPC work, interrupt-disabled windows and
//! Windows 98 kernel sections with heavy-tailed distributions — log-normal
//! and bounded Pareto — capped at physically plausible maxima so weekly
//! worst cases stay finite, as the measured Table 3 shows they do.
//!
//! All parameters are in **milliseconds**; conversion to cycles happens when
//! a distribution is turned into a [`Sampler`] for the simulator.
//!
//! Hot paths never interpret the [`Dist`] enum per draw: scenario build time
//! lowers every distribution through [`Dist::compile`] into a
//! [`CompiledSampler`] with precomputed constants. The lowered sampler is
//! draw-for-draw bit-identical to the interpreted closure (same RNG
//! consumption, same f64 operation order), so the committed digests pin
//! both (see DESIGN.md §12).

use rand::{rngs::StdRng, Rng};
use wdm_sim::{env::Sampler, time::Cycles};

/// How distributions are lowered into samplers. There is one lowering;
/// the enum survives only because `perfbench/src/kernels.rs` calls
/// `Dist::compile(hz, SamplerMode::Exact)`, and changes to the benchmark
/// land on their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerMode {
    /// Bit-identical to the interpreted `Dist::sample` path: per-draw
    /// `exp`/`ln`/`powf` preserved so the committed digests do not move.
    Exact,
}

/// A duration distribution with parameters in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower bound (ms).
        lo: f64,
        /// Upper bound (ms).
        hi: f64,
    },
    /// Exponential with the given mean; the natural inter-arrival
    /// distribution for Poisson event sources.
    Exponential {
        /// Mean (ms).
        mean: f64,
    },
    /// Log-normal parameterized by its median and log-space sigma, truncated
    /// at `cap` (use `f64::INFINITY` for no cap). The workhorse for OS
    /// service-time tails.
    LogNormal {
        /// Median (ms): `exp(mu)`.
        median: f64,
        /// Log-space standard deviation; 1.5–2.5 gives the multi-decade
        /// tails seen in Figure 4.
        sigma: f64,
        /// Truncation point (ms).
        cap: f64,
    },
    /// Bounded Pareto on `[xmin, cap]` with shape `alpha`; heavier tails
    /// than log-normal for the same body.
    ParetoBounded {
        /// Scale / minimum (ms).
        xmin: f64,
        /// Shape; smaller is heavier. Must be positive and not 1.0 exactly.
        alpha: f64,
        /// Upper bound (ms).
        cap: f64,
    },
    /// A weighted mixture of component distributions. Weights need not sum
    /// to one; they are normalized. The standard model for "usually fast,
    /// occasionally awful" kernel paths.
    Mixture(Vec<(f64, Dist)>),
}

impl Dist {
    /// Draws one value in milliseconds.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
            Dist::Exponential { mean } => {
                // Inverse CDF; guard the log away from zero.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -mean * u.ln()
            }
            Dist::LogNormal { median, sigma, cap } => {
                let z = sample_standard_normal(rng);
                (median * (sigma * z).exp()).min(*cap)
            }
            Dist::ParetoBounded { xmin, alpha, cap } => {
                // Inverse CDF of the bounded Pareto.
                let u: f64 = rng.gen_range(0.0..1.0);
                let l = xmin.powf(*alpha);
                let h = cap.powf(*alpha);
                let x = (-(u * h - u * l - h) / (h * l)).powf(-1.0 / alpha);
                x.clamp(*xmin, *cap)
            }
            Dist::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                let mut pick = rng.gen_range(0.0..total);
                for (w, d) in parts {
                    if pick < *w {
                        return d.sample(rng);
                    }
                    pick -= w;
                }
                parts
                    .last()
                    .expect("mixture must have at least one component")
                    .1
                    .sample(rng)
            }
        }
    }

    /// Returns the distribution with all durations scaled by `k`.
    ///
    /// Scaling a Poisson *rate* by `k` means scaling its inter-arrival
    /// `Exponential` mean by `1/k`; use [`Dist::scaled`] on durations and
    /// adjust rates explicitly.
    pub fn scaled(&self, k: f64) -> Dist {
        assert!(k > 0.0, "scale factor must be positive");
        match self {
            Dist::Constant(v) => Dist::Constant(v * k),
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Dist::Exponential { mean } => Dist::Exponential { mean: mean * k },
            Dist::LogNormal { median, sigma, cap } => Dist::LogNormal {
                median: median * k,
                sigma: *sigma,
                cap: cap * k,
            },
            Dist::ParetoBounded { xmin, alpha, cap } => Dist::ParetoBounded {
                xmin: xmin * k,
                alpha: *alpha,
                cap: cap * k,
            },
            Dist::Mixture(parts) => {
                Dist::Mixture(parts.iter().map(|(w, d)| (*w, d.scaled(k))).collect())
            }
        }
    }

    /// Approximate mean in milliseconds (analytic where closed-form,
    /// ignoring truncation for the log-normal, which slightly overestimates).
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { mean } => *mean,
            Dist::LogNormal { median, sigma, .. } => median * (sigma * sigma / 2.0).exp(),
            Dist::ParetoBounded { xmin, alpha, cap } => {
                // Mean of the bounded Pareto on [L, H] with shape a:
                // E[X] = L^a / (1 - (L/H)^a) * a/(a-1) * (L^(1-a) - H^(1-a)).
                let (l, h, a) = (*xmin, *cap, *alpha);
                if (a - 1.0).abs() < 1e-9 {
                    (h / l).ln() * l * h / (h - l)
                } else {
                    let norm = l.powf(a) / (1.0 - (l / h).powf(a));
                    norm * a / (a - 1.0) * (l.powf(1.0 - a) - h.powf(1.0 - a))
                }
            }
            Dist::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                parts.iter().map(|(w, d)| w / total * d.mean()).sum()
            }
        }
    }

    /// Converts to a cycle-valued sampler for the simulator at `cpu_hz`.
    ///
    /// The draws are bit-identical to interpreting `self.sample(rng)` and
    /// converting with [`Cycles::from_ms_at`].
    pub fn sampler(&self, cpu_hz: u64) -> Sampler {
        let c = self.compile_exact(cpu_hz);
        Box::new(move |rng: &mut StdRng| c.draw(rng))
    }

    /// Lowers the distribution into a [`CompiledSampler`] at `cpu_hz`.
    ///
    /// Mixture weights are validated here (finite, non-negative, positive
    /// total) so a malformed mixture fails at scenario build time with a
    /// clear message instead of a `gen_range(0.0..0.0)` panic mid-run.
    pub fn compile(&self, cpu_hz: u64, _mode: SamplerMode) -> CompiledSampler {
        self.compile_exact(cpu_hz)
    }

    fn compile_exact(&self, cpu_hz: u64) -> CompiledSampler {
        match self {
            Dist::Constant(v) => CompiledSampler::Constant(Cycles::from_ms_at(v.max(0.0), cpu_hz)),
            Dist::Uniform { lo, hi } => CompiledSampler::Uniform {
                lo: *lo,
                hi: *hi,
                cpu_hz,
            },
            Dist::Exponential { mean } => CompiledSampler::Exponential {
                mean: *mean,
                cpu_hz,
            },
            Dist::LogNormal { median, sigma, cap } => CompiledSampler::LogNormal {
                median: *median,
                sigma: *sigma,
                cap: *cap,
                cpu_hz,
            },
            Dist::ParetoBounded { xmin, alpha, cap } => {
                // The interpreted path recomputes these two `powf` per draw;
                // they depend only on the parameters.
                let l = xmin.powf(*alpha);
                let h = cap.powf(*alpha);
                CompiledSampler::Pareto {
                    xmin: *xmin,
                    cap: *cap,
                    l,
                    h,
                    hl: h * l,
                    inv: -1.0 / alpha,
                    cpu_hz,
                }
            }
            Dist::Mixture(parts) => {
                let total = validate_mixture(parts);
                CompiledSampler::Mixture {
                    total,
                    parts: parts
                        .iter()
                        .map(|(w, d)| (*w, d.compile_exact(cpu_hz)))
                        .collect(),
                }
            }
        }
    }
}

/// Validates mixture weights and returns their total, summed in iteration
/// order (bit-identical to the interpreted per-draw sum).
fn validate_mixture(parts: &[(f64, Dist)]) -> f64 {
    assert!(
        !parts.is_empty(),
        "mixture must have at least one component"
    );
    for (w, _) in parts {
        assert!(
            w.is_finite() && *w >= 0.0,
            "mixture weight must be finite and non-negative, got {w}"
        );
    }
    let total: f64 = parts.iter().map(|(w, _)| w).sum();
    assert!(
        total > 0.0,
        "mixture weights must sum to a positive total, got {total}"
    );
    total
}

/// A distribution lowered at scenario build time: flat dispatch, constants
/// precomputed, no per-draw `Dist` interpretation or heap traffic.
///
/// Every variant preserves the interpreted path's f64 operation order and
/// RNG consumption exactly.
#[derive(Debug, Clone)]
pub enum CompiledSampler {
    /// Precomputed cycle count; consumes no randomness.
    Constant(Cycles),
    /// Uniform over `[lo, hi]` ms.
    Uniform {
        /// Lower bound (ms).
        lo: f64,
        /// Upper bound (ms).
        hi: f64,
        /// Clock rate for ms→cycles conversion.
        cpu_hz: u64,
    },
    /// Exponential via inverse CDF (`-mean * ln u`).
    Exponential {
        /// Mean (ms).
        mean: f64,
        /// Clock rate for ms→cycles conversion.
        cpu_hz: u64,
    },
    /// Log-normal via Box–Muller, truncated at `cap`.
    LogNormal {
        /// Median (ms).
        median: f64,
        /// Log-space standard deviation.
        sigma: f64,
        /// Truncation point (ms).
        cap: f64,
        /// Clock rate for ms→cycles conversion.
        cpu_hz: u64,
    },
    /// Bounded Pareto with the parameter powers precomputed.
    Pareto {
        /// Scale / minimum (ms).
        xmin: f64,
        /// Upper bound (ms).
        cap: f64,
        /// `xmin^alpha`.
        l: f64,
        /// `cap^alpha`.
        h: f64,
        /// `h * l`.
        hl: f64,
        /// `-1 / alpha`.
        inv: f64,
        /// Clock rate for ms→cycles conversion.
        cpu_hz: u64,
    },
    /// Mixture: subtract-walk selection with the weight total precomputed
    /// once (the interpreted path re-sums it per draw).
    Mixture {
        /// Sum of the component weights, in component order.
        total: f64,
        /// `(weight, compiled component)` pairs.
        parts: Vec<(f64, CompiledSampler)>,
    },
}

impl CompiledSampler {
    /// Draws one cycle-valued sample.
    #[inline]
    pub fn draw(&self, rng: &mut StdRng) -> Cycles {
        match self {
            CompiledSampler::Constant(c) => *c,
            CompiledSampler::Uniform { lo, hi, cpu_hz } => {
                let x: f64 = rng.gen_range(*lo..=*hi);
                Cycles::from_ms_at(x.max(0.0), *cpu_hz)
            }
            CompiledSampler::Exponential { mean, cpu_hz } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                Cycles::from_ms_at((-mean * u.ln()).max(0.0), *cpu_hz)
            }
            CompiledSampler::LogNormal {
                median,
                sigma,
                cap,
                cpu_hz,
            } => {
                let z = sample_standard_normal(rng);
                let x = (median * (sigma * z).exp()).min(*cap);
                Cycles::from_ms_at(x.max(0.0), *cpu_hz)
            }
            CompiledSampler::Pareto {
                xmin,
                cap,
                l,
                h,
                hl,
                inv,
                cpu_hz,
            } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let x = (-(u * h - u * l - h) / hl).powf(*inv);
                Cycles::from_ms_at(x.clamp(*xmin, *cap).max(0.0), *cpu_hz)
            }
            CompiledSampler::Mixture { total, parts } => {
                let mut pick = rng.gen_range(0.0..*total);
                for (w, d) in parts {
                    if pick < *w {
                        return d.draw(rng);
                    }
                    pick -= w;
                }
                parts
                    .last()
                    .expect("mixture must have at least one component")
                    .1
                    .draw(rng)
            }
        }
    }

    /// Fills `out` with consecutive draws, matching the variant once for
    /// the whole batch instead of once per sample. Consumes the RNG in
    /// exactly the order of `out.len()` sequential [`Self::draw`] calls,
    /// so interleaving batched and single draws on one RNG is
    /// stream-identical — which is also why mixture selection cannot be
    /// prefetched (the selection draw and the component draw interleave).
    ///
    /// Harnesses that own their RNG (benches, proptest oracles, the
    /// allocation test) use this to keep sampler dispatch off their inner
    /// loops; kernel env sources draw one gap at a time against the shared
    /// kernel RNG and must not batch.
    pub fn draw_batch(&self, rng: &mut StdRng, out: &mut [Cycles]) {
        match self {
            CompiledSampler::Constant(c) => out.fill(*c),
            CompiledSampler::Uniform { lo, hi, cpu_hz } => {
                for slot in out.iter_mut() {
                    let x: f64 = rng.gen_range(*lo..=*hi);
                    *slot = Cycles::from_ms_at(x.max(0.0), *cpu_hz);
                }
            }
            CompiledSampler::Exponential { mean, cpu_hz } => {
                for slot in out.iter_mut() {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    *slot = Cycles::from_ms_at((-mean * u.ln()).max(0.0), *cpu_hz);
                }
            }
            CompiledSampler::LogNormal {
                median,
                sigma,
                cap,
                cpu_hz,
            } => {
                for slot in out.iter_mut() {
                    let z = sample_standard_normal(rng);
                    let x = (median * (sigma * z).exp()).min(*cap);
                    *slot = Cycles::from_ms_at(x.max(0.0), *cpu_hz);
                }
            }
            CompiledSampler::Pareto {
                xmin,
                cap,
                l,
                h,
                hl,
                inv,
                cpu_hz,
            } => {
                for slot in out.iter_mut() {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let x = (-(u * h - u * l - h) / hl).powf(*inv);
                    *slot = Cycles::from_ms_at(x.clamp(*xmin, *cap).max(0.0), *cpu_hz);
                }
            }
            // Selection and component draws interleave on the one RNG, so
            // mixtures fall back to the per-sample path slot by slot.
            CompiledSampler::Mixture { .. } => {
                for slot in out.iter_mut() {
                    *slot = self.draw(rng);
                }
            }
        }
    }
}

/// Inter-arrival sampler for a Poisson process of the given rate (events per
/// second of simulated time).
pub fn poisson_arrivals(rate_hz: f64, cpu_hz: u64) -> Sampler {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    Dist::Exponential {
        mean: 1000.0 / rate_hz,
    }
    .sampler(cpu_hz)
}

/// Inter-arrival sampler for a two-state Markov-modulated Poisson process:
/// bursts of `on_rate_hz` arrivals lasting ~`mean_on_ms`, separated by
/// quiet periods of `off_rate_hz` lasting ~`mean_off_ms`.
///
/// The paper's §3.1.1 observes that "long spurts of system activity ...
/// because of, for example, file copying" are what actually stretch
/// latencies — a plain Poisson stream underestimates that clustering.
pub fn bursty_arrivals(
    on_rate_hz: f64,
    off_rate_hz: f64,
    mean_on_ms: f64,
    mean_off_ms: f64,
    cpu_hz: u64,
) -> Sampler {
    assert!(
        on_rate_hz > 0.0 && off_rate_hz > 0.0,
        "rates must be positive"
    );
    assert!(
        mean_on_ms > 0.0 && mean_off_ms > 0.0,
        "phases must be positive"
    );
    // Phase state lives inside the closure: remaining time in the current
    // phase, and whether we're in a burst.
    let mut in_burst = false;
    let mut phase_left_ms = 0.0f64;
    Box::new(move |rng: &mut StdRng| {
        let mut gap_ms = 0.0f64;
        loop {
            if phase_left_ms <= 0.0 {
                // Enter the next phase with an exponential duration.
                in_burst = !in_burst;
                let mean = if in_burst { mean_on_ms } else { mean_off_ms };
                phase_left_ms = Dist::Exponential { mean }.sample(rng);
            }
            let rate = if in_burst { on_rate_hz } else { off_rate_hz };
            let candidate = Dist::Exponential {
                mean: 1000.0 / rate,
            }
            .sample(rng);
            if candidate <= phase_left_ms {
                phase_left_ms -= candidate;
                gap_ms += candidate;
                return Cycles::from_ms_at(gap_ms, cpu_hz);
            }
            // No arrival within this phase: consume it and roll the next.
            gap_ms += phase_left_ms;
            phase_left_ms = 0.0;
        }
    })
}

/// Box–Muller standard normal.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(3.5);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 3.5);
        }
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::Uniform { lo: 1.0, hi: 3.0 };
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample(&mut r);
            assert!((1.0..=3.0).contains(&x));
        }
        assert!((sample_mean(&d, 20_000) - 2.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::Exponential { mean: 5.0 };
        assert!((sample_mean(&d, 100_000) - 5.0).abs() < 0.15);
        assert!((d.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_median_and_cap() {
        let d = Dist::LogNormal {
            median: 1.0,
            sigma: 2.0,
            cap: 50.0,
        };
        let mut r = rng();
        let mut samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[25_000];
        assert!(
            (median - 1.0).abs() < 0.1,
            "median should be ~1.0, got {median}"
        );
        assert!(samples.iter().all(|&x| x <= 50.0), "cap must bind");
        // With sigma=2 the tail is long: some samples land at the cap.
        assert!(*samples.last().unwrap() > 40.0);
    }

    #[test]
    fn pareto_bounds_and_tail() {
        let d = Dist::ParetoBounded {
            xmin: 0.1,
            alpha: 1.3,
            cap: 20.0,
        };
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&x| (0.1..=20.0).contains(&x)));
        let over_5 = samples.iter().filter(|&&x| x > 5.0).count();
        // Heavy tail: a visible fraction above 50x the minimum.
        assert!(over_5 > 50, "bounded Pareto tail too thin: {over_5}");
    }

    #[test]
    fn mixture_weights_respected() {
        let d = Dist::Mixture(vec![
            (9.0, Dist::Constant(1.0)),
            (1.0, Dist::Constant(100.0)),
        ]);
        let mut r = rng();
        let n = 50_000;
        let big = (0..n).filter(|_| d.sample(&mut r) > 50.0).count();
        let frac = big as f64 / n as f64;
        assert!(
            (frac - 0.1).abs() < 0.01,
            "10% of draws should hit the rare branch, got {frac}"
        );
        assert!((d.mean() - (0.9 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn scaled_scales_durations() {
        let d = Dist::Uniform { lo: 1.0, hi: 2.0 }.scaled(3.0);
        assert_eq!(d, Dist::Uniform { lo: 3.0, hi: 6.0 });
        let m = Dist::Mixture(vec![(1.0, Dist::Constant(2.0))]).scaled(0.5);
        assert!((m.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_converts_to_cycles() {
        let d = Dist::Constant(1.0);
        let mut s = d.sampler(300_000_000);
        let mut r = rng();
        assert_eq!(s(&mut r), Cycles(300_000));
    }

    #[test]
    fn poisson_arrival_rate() {
        let mut s = poisson_arrivals(1000.0, 300_000_000);
        let mut r = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s(&mut r).0).sum();
        let mean_gap_ms = Cycles(total / n).as_ms();
        assert!(
            (mean_gap_ms - 1.0).abs() < 0.05,
            "1 kHz arrivals should average 1 ms gaps, got {mean_gap_ms}"
        );
    }

    #[test]
    fn bursty_arrivals_have_long_run_rate_between_phases() {
        let mut s = bursty_arrivals(2_000.0, 20.0, 50.0, 450.0, 300_000_000);
        let mut r = rng();
        let n = 50_000;
        let total: u64 = (0..n).map(|_| s(&mut r).0).sum();
        let secs = Cycles(total).as_ms() / 1000.0;
        let rate = n as f64 / secs;
        // Long-run rate = (2000*50 + 20*450) / 500 = 218/s.
        assert!(
            (150.0..300.0).contains(&rate),
            "long-run MMPP rate should be ~218/s, got {rate}"
        );
    }

    #[test]
    fn bursty_arrivals_cluster() {
        // Compare the coefficient of variation against a plain Poisson
        // process of the same long-run rate: bursts inflate it well past 1.
        let cv = |gaps: &[f64]| {
            let n = gaps.len() as f64;
            let mean = gaps.iter().sum::<f64>() / n;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
            var.sqrt() / mean
        };
        let mut r = rng();
        let mut bursty = bursty_arrivals(2_000.0, 10.0, 20.0, 480.0, 300_000_000);
        let gaps: Vec<f64> = (0..30_000)
            .map(|_| Cycles(bursty(&mut r).0).as_ms())
            .collect();
        let cv_bursty = cv(&gaps);
        let mut poisson = poisson_arrivals(100.0, 300_000_000);
        let gaps: Vec<f64> = (0..30_000)
            .map(|_| Cycles(poisson(&mut r).0).as_ms())
            .collect();
        let cv_poisson = cv(&gaps);
        assert!(
            cv_bursty > cv_poisson * 1.5,
            "bursty CV {cv_bursty} should far exceed Poisson CV {cv_poisson}"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "normal mean drifted: {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal variance drifted: {var}");
    }

    #[test]
    fn pareto_mean_formula_close_to_empirical() {
        let d = Dist::ParetoBounded {
            xmin: 0.5,
            alpha: 1.5,
            cap: 30.0,
        };
        let emp = sample_mean(&d, 200_000);
        let ana = d.mean();
        assert!(
            (emp - ana).abs() / ana < 0.1,
            "analytic {ana} vs empirical {emp}"
        );
    }

    /// Every distribution shape the scenarios use, including the nested
    /// mixtures from the NT workitem model.
    fn zoo() -> Vec<Dist> {
        vec![
            Dist::Constant(0.7),
            Dist::Constant(-1.0),
            Dist::Uniform { lo: 0.2, hi: 4.5 },
            Dist::Exponential { mean: 2.5 },
            Dist::LogNormal {
                median: 0.35,
                sigma: 0.95,
                cap: 30.0,
            },
            Dist::LogNormal {
                median: 1.0,
                sigma: 2.0,
                cap: f64::INFINITY,
            },
            Dist::ParetoBounded {
                xmin: 0.1,
                alpha: 1.3,
                cap: 20.0,
            },
            Dist::Mixture(vec![
                (
                    0.90,
                    Dist::LogNormal {
                        median: 0.15,
                        sigma: 0.8,
                        cap: 2.0,
                    },
                ),
                (
                    0.06,
                    Dist::LogNormal {
                        median: 1.6,
                        sigma: 0.6,
                        cap: 6.0,
                    },
                ),
                (
                    0.04,
                    Dist::Mixture(vec![
                        (1.0, Dist::Constant(0.01)),
                        (3.0, Dist::Exponential { mean: 0.4 }),
                    ]),
                ),
            ]),
        ]
    }

    #[test]
    fn compiled_exact_is_bit_identical_to_interpreter() {
        use rand::RngCore;
        let hz = 300_000_000;
        for d in zoo() {
            let compiled = d.compile(hz, SamplerMode::Exact);
            let mut r_compiled = rng();
            let mut r_interp = rng();
            for i in 0..10_000 {
                let a = compiled.draw(&mut r_compiled);
                let b = Cycles::from_ms_at(d.sample(&mut r_interp).max(0.0), hz);
                assert_eq!(a, b, "draw {i} diverged for {d:?}");
            }
            // The two RNGs must also have consumed identical amounts of
            // randomness — equal values alone could mask a stream skew.
            assert_eq!(
                r_compiled.next_u64(),
                r_interp.next_u64(),
                "RNG streams desynced for {d:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mixture_fails_at_compile() {
        Dist::Mixture(vec![]).compile(300_000_000, SamplerMode::Exact);
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn zero_weight_mixture_fails_at_compile() {
        Dist::Mixture(vec![(0.0, Dist::Constant(1.0))]).compile(300_000_000, SamplerMode::Exact);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_mixture_fails_at_compile() {
        Dist::Mixture(vec![
            (-1.0, Dist::Constant(1.0)),
            (2.0, Dist::Constant(2.0)),
        ])
        .compile(300_000_000, SamplerMode::Exact);
    }

    #[test]
    fn draw_batch_is_stream_identical_to_sequential_draws() {
        let dists = [
            Dist::Constant(0.25),
            Dist::Uniform { lo: 0.1, hi: 2.0 },
            Dist::Exponential { mean: 1.5 },
            Dist::LogNormal {
                median: 1.0,
                sigma: 0.8,
                cap: 40.0,
            },
            Dist::ParetoBounded {
                xmin: 0.05,
                alpha: 1.2,
                cap: 200.0,
            },
            Dist::Mixture(vec![
                (0.7, Dist::Constant(0.1)),
                (0.3, Dist::Exponential { mean: 3.0 }),
            ]),
        ];
        for d in &dists {
            let s = d.compile(300_000_000, SamplerMode::Exact);
            // Odd length + interleaving exercises the RNG-order claim:
            // batch, single draw, batch again, on one stream.
            let mut a = rng();
            let mut batched = vec![Cycles(0); 37];
            s.draw_batch(&mut a, &mut batched[..17]);
            let mid = s.draw(&mut a);
            s.draw_batch(&mut a, &mut batched[17..]);
            let mut b = rng();
            for (k, want) in batched.iter().enumerate() {
                if k == 17 {
                    assert_eq!(s.draw(&mut b), mid, "{d:?} mid");
                }
                assert_eq!(s.draw(&mut b), *want, "{d:?} draw {k}");
            }
        }
    }
}
