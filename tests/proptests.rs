//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use wdm_repro::analysis::mttf::{mttf_seconds, MttfParams};
use wdm_repro::analysis::sched::{response_time_analysis, PeriodicTask};
use wdm_repro::latency::histogram::LatencyHistogram;
use wdm_repro::latency::worstcase::BlockMaxima;
use wdm_repro::osmodel::Dist;
use wdm_repro::sim::prelude::*;

/// A Figure 4 histogram of `samples_ms`, each recorded as the nearest
/// cycle count at the default 300 MHz clock.
fn hist_of(samples_ms: &[f64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::fig4();
    for &ms in samples_ms {
        h.record_cycles(Cycles::from_ms(ms), DEFAULT_CPU_HZ);
    }
    h
}

proptest! {
    /// Histogram: counts are conserved and percents sum to 100.
    #[test]
    fn histogram_conserves_mass(samples in prop::collection::vec(0.0f64..500.0, 1..500)) {
        let h = hist_of(&samples);
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), samples.len() as u64);
        let total: f64 = h.percents().iter().sum();
        prop_assert!((total - 100.0).abs() < 1e-6);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        // Recording rounds each sample to a whole cycle (1/300 us), so the
        // max is off by at most half a cycle.
        prop_assert!((h.max_ms() - max).abs() < 2e-6);
    }

    /// Histogram: survival is a monotone non-increasing function in [0, 1].
    #[test]
    fn survival_is_monotone(
        samples in prop::collection::vec(0.001f64..200.0, 2..400),
        probes in prop::collection::vec(0.0f64..250.0, 2..20),
    ) {
        let h = hist_of(&samples);
        let mut probes = probes;
        probes.sort_by(f64::total_cmp);
        let mut prev = 1.0;
        for &p in &probes {
            let s = h.survival(p);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(s <= prev + 1e-9, "survival({p}) = {s} rose above {prev}");
            prev = s;
        }
    }

    /// Histogram: quantiles stay within the observed sample range.
    #[test]
    fn quantiles_stay_in_range(
        samples in prop::collection::vec(0.001f64..200.0, 2..400),
        p in 0.0001f64..0.9,
    ) {
        let h = hist_of(&samples);
        let q = h.quantile_exceeding(p);
        prop_assert!(q <= h.max_ms() + 1e-9, "quantile {q} above max {}", h.max_ms());
        prop_assert!(q >= 0.0);
    }

    /// Block maxima: the mean of window maxima never exceeds the global max
    /// and never falls below the mean of block values used.
    #[test]
    fn block_maxima_bounded(values in prop::collection::vec(0u64..30_000_000, 10..200)) {
        let mut b = BlockMaxima::new(Cycles(100));
        for (i, &v) in values.iter().enumerate() {
            b.record_cycles(Instant(i as u64 * 100 + 50), Cycles(v), DEFAULT_CPU_HZ);
        }
        // Close the last block.
        b.close_through(values.len());
        let global_max = Cycles(values.iter().copied().max().unwrap_or(0)).as_ms();
        for k in 1..=3usize {
            if let Some(m) = b.expected_max_over(k) {
                prop_assert!(m <= global_max + 1e-9);
                prop_assert!(m >= 0.0);
            }
        }
    }

    /// Distributions: samples respect their caps and bounds.
    #[test]
    fn dist_samples_respect_bounds(
        seed in 0u64..1000,
        median in 0.01f64..5.0,
        sigma in 0.1f64..2.0,
    ) {
        use rand::SeedableRng;
        let cap = median * 20.0;
        let d = Dist::LogNormal { median, sigma, cap };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            prop_assert!(x > 0.0 && x <= cap);
        }
        let p = Dist::ParetoBounded { xmin: median, alpha: 1.3, cap };
        for _ in 0..200 {
            let x = p.sample(&mut rng);
            prop_assert!(x >= median * 0.999 && x <= cap * 1.001);
        }
    }

    /// MTTF: monotone non-decreasing in buffering.
    #[test]
    fn mttf_monotone_in_buffering(samples in prop::collection::vec(0.01f64..40.0, 50..300)) {
        let h = hist_of(&samples);
        let params = MttfParams::default();
        let mut prev = 0.0f64;
        for b in [4.0, 8.0, 16.0, 32.0, 64.0] {
            let m = mttf_seconds(&h, b, &params);
            prop_assert!(m >= prev || m.is_infinite(), "MTTF fell at {b} ms");
            if m.is_infinite() {
                break;
            }
            prev = m;
        }
    }

    /// Response-time analysis: response >= compute + blocking for every
    /// schedulable task, and adding blocking never helps.
    #[test]
    fn response_times_sane(
        t1 in 5.0f64..50.0,
        c1 in 0.5f64..4.0,
        t2 in 50.0f64..200.0,
        c2 in 1.0f64..20.0,
        blocking in 0.0f64..5.0,
    ) {
        let tasks = vec![
            PeriodicTask::new("a", t1, c1.min(t1 * 0.8)),
            PeriodicTask::new("b", t2, c2.min(t2 * 0.5)),
        ];
        let rs = response_time_analysis(&tasks, blocking);
        for r in &rs {
            if let Some(resp) = r.response_ms {
                prop_assert!(resp + 1e-9 >= r.task.compute_ms + blocking);
            }
        }
        let rs0 = response_time_analysis(&tasks, 0.0);
        for (with, without) in rs.iter().zip(&rs0) {
            if let (Some(a), Some(b)) = (with.response_ms, without.response_ms) {
                prop_assert!(a + 1e-9 >= b, "blocking reduced response time");
            }
        }
    }

    /// Kernel: cycle accounting is conserved for arbitrary small loads.
    #[test]
    fn kernel_accounting_conserved(
        seed in 0u64..500,
        burst_us in 50.0f64..2000.0,
        rate_ms in 0.5f64..5.0,
    ) {
        let cfg = KernelConfig {
            seed,
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        let l = k.intern("T", "_Spin");
        let _t = k.create_thread(
            "spin",
            10,
            Box::new(LoopSeq::new(vec![
                Step::Busy { cycles: Cycles::from_us(burst_us), label: l },
                Step::Sleep(Cycles::from_ms(1.0)),
            ])),
        );
        let dpc = k.create_dpc(
            "d",
            Box::new(OpSeq::new(vec![
                Step::Busy { cycles: Cycles::from_us(100.0), label: l },
                Step::Return,
            ])),
        );
        let v = k.install_vector(
            "dev",
            Irql(12),
            Box::new(OpSeq::new(vec![Step::QueueDpc(dpc), Step::Return])),
        );
        k.add_env_source(EnvSource::new(
            "arrivals",
            samplers::fixed(Cycles::from_ms(rate_ms)),
            EnvAction::AssertInterrupt(v),
        ));
        k.run_for(Cycles::from_ms(50.0));
        prop_assert_eq!(k.account.total(), k.now().0);
    }

    /// Kernel fuzz: random (valid) thread programs drawing every thread
    /// step, devices and environment sources never panic, never stall time
    /// and always conserve cycle accounting.
    #[test]
    fn kernel_survives_random_programs(
        seed in 0u64..10_000,
        ops in prop::collection::vec((0u8..9, 1u64..3_000), 2..20),
        dev_rate_ms in 0.2f64..4.0,
        cli_every_ms in 1.0f64..10.0,
        post_every_ms in 0.5f64..5.0,
        n_threads in 1usize..4,
    ) {
        let cfg = KernelConfig {
            seed,
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        let l = k.intern("FUZZ", "_Op");
        let evt = k.create_event(false);
        let sem = k.create_semaphore(0, 64);
        let dpc = k.create_dpc(
            "fuzz-dpc",
            Box::new(OpSeq::new(vec![
                Step::Busy { cycles: Cycles::from_us(40.0), label: l },
                Step::SetEvent(evt),
                Step::Return,
            ])),
        );
        let timer = k.create_timer(Some(dpc));
        let irp = k.create_irp(1, Some(evt));
        let asb = k.irp(irp).asb_slot(0);
        // Translate opcodes into a valid thread-step program.
        let steps: Vec<Step> = ops
            .iter()
            .map(|&(code, arg)| match code {
                0 => Step::Busy { cycles: Cycles(arg * 100 + 1), label: l },
                1 => Step::ReadTsc(asb),
                2 => Step::Sleep(Cycles::from_us((arg % 2_000 + 10) as f64)),
                3 => Step::Wait(WaitObject::Event(evt)),
                4 => Step::Wait(WaitObject::Semaphore(sem)),
                5 => Step::SetEvent(evt),
                6 => Step::SetTimer {
                    timer,
                    due: Cycles::from_us(arg as f64),
                    period: (arg % 2 == 0).then(|| Cycles::from_us((arg % 700 + 300) as f64)),
                },
                7 => Step::CompleteIrp(irp),
                _ => Step::QueueDpc(dpc),
            })
            .collect();
        for i in 0..n_threads {
            let prio = 4 + ((seed as usize + i) % 20) as u8; // 4..=23
            k.create_thread(
                format!("fuzz-{i}"),
                prio,
                Box::new(LoopSeq::new(steps.clone())),
            );
        }
        let v = k.install_vector(
            "fuzz-dev",
            Irql(11),
            Box::new(OpSeq::new(vec![
                Step::Busy { cycles: Cycles::from_us(15.0), label: l },
                Step::QueueDpc(dpc),
                Step::Return,
            ])),
        );
        k.add_env_source(EnvSource::new(
            "fuzz-arrivals",
            samplers::fixed(Cycles::from_ms(dev_rate_ms)),
            EnvAction::AssertInterrupt(v),
        ));
        k.add_env_source(EnvSource::new(
            "fuzz-cli",
            samplers::fixed(Cycles::from_ms(cli_every_ms)),
            EnvAction::Cli {
                duration: samplers::fixed(Cycles::from_us(200.0)),
                label: l,
            },
        ));
        // Work-item posts satisfy the semaphore waits.
        k.add_env_source(EnvSource::new(
            "fuzz-posts",
            samplers::fixed(Cycles::from_ms(post_every_ms)),
            EnvAction::ReleaseSemaphore(sem, 1),
        ));
        let horizon = Cycles::from_ms(40.0);
        k.run_for(horizon);
        prop_assert_eq!(k.now().0, horizon.0, "time must reach the horizon");
        prop_assert_eq!(k.account.total(), k.now().0, "accounting conserved");
    }

    /// Kernel: same seed, same result; event count deterministic.
    #[test]
    fn kernel_deterministic(seed in 0u64..200) {
        let run = || {
            let cfg = KernelConfig {
                seed,
                ..KernelConfig::default()
            };
            let mut k = Kernel::new(cfg);
            let l = k.intern("T", "_W");
            let _t = k.create_thread(
                "w",
                10,
                Box::new(LoopSeq::new(vec![
                    Step::Busy { cycles: Cycles::from_us(300.0), label: l },
                    Step::Sleep(Cycles::from_ms(2.0)),
                ])),
            );
            k.run_for(Cycles::from_ms(20.0));
            (k.account, k.context_switches)
        };
        prop_assert_eq!(run(), run());
    }
}
