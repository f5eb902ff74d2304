//! OS personalities: Windows NT 4.0 vs Windows 98.
//!
//! Both OSs expose the same WDM surface (that is the paper's premise —
//! carefully written drivers are binary portable), but their *timing
//! behavior* differs structurally (paper §4.1):
//!
//! - **NT 4.0**: every level of the scheduling hierarchy is fully
//!   preemptible by the levels above it. The latency a driver sees comes
//!   from short HAL/driver `cli` windows, foreign ISR/DPC work, and — for
//!   default-RT-priority threads — interference from the kernel work-item
//!   queue, which is serviced by a real-time *default* priority (24) system
//!   thread.
//! - **Windows 98**: the WDM layer sits on top of the legacy Windows 95 VMM
//!   and its schedulers. Long non-preemptible kernel sections (memory
//!   manager, VxD paths — the `VMM!_mmFindContig` style functions that the
//!   paper's cause tool catches in Table 4) block thread dispatch for
//!   multi-millisecond stretches, and legacy VxD drivers do substantially
//!   more work at raised IRQL.
//!
//! A personality is (a) a [`KernelConfig`] with calibrated fixed costs and
//! (b) a set of stochastic *background* activities installed as environment
//! sources, whose rates/durations the active workload scales.

use wdm_sim::{
    config::KernelConfig,
    env::{EnvAction, EnvSource},
    ids::SourceId,
    kernel::Kernel,
    time::Cycles,
};

use crate::dist::{poisson_arrivals, Dist};

/// Which operating system is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsKind {
    /// Windows NT 4.0, Service Pack 3.
    Nt4,
    /// Windows 98 (FAT32, Plus! 98 pack without the virus scanner).
    Win98,
    /// Windows 2000 (NT 5.0) Beta — the paper's §6.1 notes the authors
    /// "continue to monitor the performance of Beta releases of Windows
    /// 2000"; this personality models its incremental improvements over
    /// NT 4.0 (shorter interrupt-off paths, cheaper dispatch, trimmed
    /// work-item bursts).
    Win2000,
}

impl OsKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            OsKind::Nt4 => "Windows NT 4.0",
            OsKind::Win98 => "Windows 98",
            OsKind::Win2000 => "Windows 2000 (beta)",
        }
    }

    /// The paper's two headline OSs, in presentation order. Windows 2000
    /// is an extension (§6.1) and is compared via `repro win2000`.
    pub const ALL: [OsKind; 2] = [OsKind::Nt4, OsKind::Win98];

    /// All modeled OSs including the Windows 2000 beta.
    pub const ALL_WITH_W2K: [OsKind; 3] = [OsKind::Nt4, OsKind::Win98, OsKind::Win2000];
}

/// Intensity knobs a workload applies to the OS background behavior.
///
/// `1.0` everywhere is the idle desktop. The stress loads of §3.1 multiply
/// these up; see `wdm-workloads`.
#[derive(Debug, Clone, Copy)]
pub struct LoadFactors {
    /// Rate multiplier for interrupt-disabled windows (driver activity).
    pub cli_rate: f64,
    /// Duration multiplier for interrupt-disabled windows.
    pub cli_scale: f64,
    /// Rate multiplier for non-preemptible kernel sections (Win98 only).
    pub section_rate: f64,
    /// Duration multiplier for those sections.
    pub section_scale: f64,
    /// Rate multiplier for kernel work-item posts (NT only).
    pub workitem_rate: f64,
}

impl LoadFactors {
    /// The idle-desktop baseline.
    pub fn idle() -> LoadFactors {
        LoadFactors {
            cli_rate: 1.0,
            cli_scale: 1.0,
            section_rate: 1.0,
            section_scale: 1.0,
            workitem_rate: 1.0,
        }
    }
}

/// An OS personality: calibrated kernel costs plus background activity.
#[derive(Debug, Clone)]
pub struct OsPersonality {
    /// Which OS this is.
    pub kind: OsKind,
    /// Fixed kernel path costs.
    pub kernel: KernelConfig,
    /// Background `cli` window arrival rate at idle (per second).
    pub cli_rate_hz: f64,
    /// `cli` window durations (ms).
    pub cli_duration: Dist,
    /// Non-preemptible section arrival rate at idle (per second); zero on
    /// NT, whose dispatcher is never blocked by legacy code.
    pub section_rate_hz: f64,
    /// Section durations (ms). The heavy tail here *is* the Windows 98
    /// thread-latency story.
    pub section_duration: Dist,
    /// Multiplier applied to workload device ISR durations (legacy VxD
    /// drivers do more interrupt-context work on 98).
    pub driver_isr_scale: f64,
    /// Multiplier applied to workload device DPC durations.
    pub driver_dpc_scale: f64,
    /// Whether the kernel work-item queue (serviced at RT default priority)
    /// exists. True on NT 4.0.
    pub has_workitem_queue: bool,
    /// Work-item execution durations (ms).
    pub workitem_duration: Dist,
    /// Work-item post rate at idle (per second).
    pub workitem_rate_hz: f64,
}

impl OsPersonality {
    /// The Windows NT 4.0 personality.
    pub fn nt4() -> OsPersonality {
        let kernel = KernelConfig {
            // NT's HAL keeps interrupts off only for short, bounded paths.
            isr_dispatch_cost: Cycles(600),     // ~2 us
            isr_exit_cost: Cycles(300),         // ~1 us
            pit_isr_cost: Cycles(900),          // ~3 us
            dpc_dispatch_cost: Cycles(450),     // ~1.5 us
            dispatch_cost: Cycles(900),         // ~3 us dispatcher decision
            context_switch_cost: Cycles(4_500), // ~15 us incl. cache refill
            service_call_cost: Cycles(60),      // ~0.2 us kernel call
            quantum: Cycles::from_ms(20.0),
            ..KernelConfig::default()
        };
        OsPersonality {
            kind: OsKind::Nt4,
            kernel,
            cli_rate_hz: 40.0,
            // Short cli windows: tens of microseconds, capped well under a
            // millisecond. NT's weekly interrupt-latency worst cases stay
            // roughly an order of magnitude below Windows 98's (§4.2).
            cli_duration: Dist::LogNormal {
                median: 0.012,
                sigma: 0.9,
                cap: 0.15,
            },
            section_rate_hz: 0.0,
            section_duration: Dist::Constant(0.0),
            // NT-native WDM drivers keep ISRs minimal and split deferred
            // work into short DPCs; the workload specs carry the neutral
            // durations, scaled down here and up for Win98's VxDs.
            driver_isr_scale: 0.8,
            driver_dpc_scale: 0.5,
            has_workitem_queue: true,
            // Work items: usually sub-millisecond, occasionally a few ms of
            // filesystem or PnP work.
            workitem_duration: Dist::Mixture(vec![
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
            ]),
            workitem_rate_hz: 15.0,
        }
    }

    /// The Windows 98 personality.
    pub fn win98() -> OsPersonality {
        let kernel = KernelConfig {
            // Longer entry/exit through the VMM interrupt reflection paths.
            isr_dispatch_cost: Cycles(1_500),   // ~5 us
            isr_exit_cost: Cycles(900),         // ~3 us
            pit_isr_cost: Cycles(1_500),        // ~5 us
            dpc_dispatch_cost: Cycles(900),     // ~3 us
            dispatch_cost: Cycles(1_800),       // ~6 us
            context_switch_cost: Cycles(6_000), // ~20 us
            service_call_cost: Cycles(120),     // ~0.4 us through the VMM
            quantum: Cycles::from_ms(20.0),
            ..KernelConfig::default()
        };
        OsPersonality {
            kind: OsKind::Win98,
            kernel,
            cli_rate_hz: 60.0,
            // VxD drivers and the VMM disable interrupts for much longer:
            // the body sits at tens of microseconds but the tail reaches
            // past a millisecond. The cap (x the workload's cli duration
            // scale) sets the weekly worst case in Table 3's first row.
            cli_duration: Dist::LogNormal {
                median: 0.02,
                sigma: 0.8,
                cap: 1.5,
            },
            // Non-preemptible VMM sections: the dominant cause of the
            // Windows 98 thread-latency tail (Table 4 traces show
            // VMM!_mmCalcFrameBadness / _mmFindContig during episodes).
            // sigma = 1.0 puts the cap at ~4.3 log-sd above the median, so
            // cap-scale sections happen about once per usage week at the
            // paper's workload rates.
            section_rate_hz: 8.0,
            section_duration: Dist::LogNormal {
                median: 0.35,
                sigma: 0.95,
                cap: 30.0,
            },
            driver_isr_scale: 2.5,
            driver_dpc_scale: 2.5,
            has_workitem_queue: false,
            workitem_duration: Dist::Constant(0.0),
            workitem_rate_hz: 0.0,
        }
    }

    /// The Windows 2000 beta personality: NT 4.0 with the incremental
    /// latency improvements observed in the NT 5.0 betas — shorter
    /// interrupt-off HAL paths, a cheaper dispatcher, and work items split
    /// into smaller pieces.
    pub fn win2000() -> OsPersonality {
        let mut p = OsPersonality::nt4();
        p.kind = OsKind::Win2000;
        p.kernel.dispatch_cost = Cycles(600); // ~2 us
        p.kernel.context_switch_cost = Cycles(3_600); // ~12 us
        p.cli_duration = Dist::LogNormal {
            median: 0.010,
            sigma: 0.85,
            cap: 0.10,
        };
        p.workitem_duration = Dist::Mixture(vec![
            (
                0.94,
                Dist::LogNormal {
                    median: 0.12,
                    sigma: 0.8,
                    cap: 1.5,
                },
            ),
            (
                0.06,
                Dist::LogNormal {
                    median: 1.2,
                    sigma: 0.6,
                    cap: 4.0,
                },
            ),
        ]);
        p
    }

    /// Builds a personality by kind.
    pub fn of(kind: OsKind) -> OsPersonality {
        match kind {
            OsKind::Nt4 => OsPersonality::nt4(),
            OsKind::Win98 => OsPersonality::win98(),
            OsKind::Win2000 => OsPersonality::win2000(),
        }
    }

    /// Creates a kernel configured for this OS with the given seed.
    pub fn build_kernel(&self, seed: u64) -> Kernel {
        let mut cfg = self.kernel.clone();
        cfg.seed = seed;
        Kernel::new(cfg)
    }

    /// Installs the OS background activity, scaled by the workload factors.
    ///
    /// Returns the installed source ids (cli windows, then sections if any)
    /// so callers can toggle them.
    pub fn install_background(&self, k: &mut Kernel, f: &LoadFactors) -> Vec<SourceId> {
        let cpu = self.kernel.cpu_hz;
        let mut ids = Vec::new();
        let cli_rate = self.cli_rate_hz * f.cli_rate;
        if cli_rate > 0.0 {
            let label = k.intern(self.cli_module(), "_DisableInterrupts");
            let duration = self.cli_duration.scaled(f.cli_scale).sampler(cpu);
            ids.push(k.add_env_source(EnvSource::new(
                "os-cli-windows",
                poisson_arrivals(cli_rate, cpu),
                EnvAction::Cli { duration, label },
            )));
        }
        let sect_rate = self.section_rate_hz * f.section_rate;
        if sect_rate > 0.0 {
            let label = k.intern("VMM", "_mmFindContig");
            let duration = self.section_duration.scaled(f.section_scale).sampler(cpu);
            ids.push(k.add_env_source(EnvSource::new(
                "vmm-sections",
                poisson_arrivals(sect_rate, cpu),
                EnvAction::Section { duration, label },
            )));
        }
        ids
    }

    fn cli_module(&self) -> &'static str {
        match self.kind {
            OsKind::Nt4 | OsKind::Win2000 => "HAL",
            OsKind::Win98 => "VMM",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn personalities_differ_structurally() {
        let nt = OsPersonality::nt4();
        let w98 = OsPersonality::win98();
        assert!(nt.has_workitem_queue && !w98.has_workitem_queue);
        assert_eq!(nt.section_rate_hz, 0.0);
        assert!(w98.section_rate_hz > 0.0);
        assert!(w98.driver_isr_scale > nt.driver_isr_scale);
        assert!(w98.kernel.context_switch_cost > nt.kernel.context_switch_cost);
    }

    #[test]
    fn of_matches_kind() {
        for kind in OsKind::ALL_WITH_W2K {
            assert_eq!(OsPersonality::of(kind).kind, kind);
        }
        assert_eq!(OsKind::Nt4.name(), "Windows NT 4.0");
    }

    #[test]
    fn win2000_improves_on_nt4() {
        let nt4 = OsPersonality::nt4();
        let w2k = OsPersonality::win2000();
        assert!(w2k.kernel.dispatch_cost < nt4.kernel.dispatch_cost);
        assert!(w2k.kernel.context_switch_cost < nt4.kernel.context_switch_cost);
        assert!(w2k.has_workitem_queue, "work items still exist on W2K");
        assert_eq!(w2k.section_rate_hz, 0.0, "no VMM sections on NT kernels");
    }

    #[test]
    fn build_kernel_uses_seed_and_config() {
        let p = OsPersonality::win98();
        let k = p.build_kernel(99);
        assert_eq!(k.config().seed, 99);
        assert_eq!(k.config().isr_dispatch_cost, Cycles(1_500));
    }

    #[test]
    fn background_sources_install() {
        let p = OsPersonality::win98();
        let mut k = p.build_kernel(1);
        let ids = p.install_background(&mut k, &LoadFactors::idle());
        assert_eq!(ids.len(), 2, "Win98 installs cli + sections");
        let p = OsPersonality::nt4();
        let mut k = p.build_kernel(1);
        let ids = p.install_background(&mut k, &LoadFactors::idle());
        assert_eq!(ids.len(), 1, "NT installs cli only");
    }

    #[test]
    fn background_fires_under_run() {
        let p = OsPersonality::win98();
        let mut k = p.build_kernel(5);
        let ids = p.install_background(&mut k, &LoadFactors::idle());
        k.run_for(Cycles::from_ms(2_000.0));
        let cli_fires = k.env_source(ids[0]).fire_count;
        let sect_fires = k.env_source(ids[1]).fire_count;
        // 60 Hz and 8 Hz over 2 seconds.
        assert!((60..=200).contains(&cli_fires), "cli fires: {cli_fires}");
        assert!(
            (4..=40).contains(&sect_fires),
            "section fires: {sect_fires}"
        );
        assert!(k.account.cli > 0 && k.account.section > 0);
    }
}
