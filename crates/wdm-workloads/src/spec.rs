//! Workload specifications: the four application stress loads of §3.1.
//!
//! Each load is described OS-neutrally: device interrupt activity, CPU-bound
//! application tasks, UI/file event rates and intensity factors applied to
//! the OS background behavior. The numbers are calibrated so the measured
//! latency distributions reproduce the *shape* of Figure 4 and Table 3 (see
//! EXPERIMENTS.md for paper-vs-measured values).

use wdm_osmodel::{dist::Dist, personality::LoadFactors};

/// The four stress-load categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Business Winstone 97: eight office productivity applications.
    Business,
    /// High-End Winstone 97: CAD, photo editing, a C++ compiler.
    Workstation,
    /// 3D games (Freespace Descent, Unreal class).
    Games,
    /// Web browsing with enhanced audio/video over a fast LAN.
    Web,
}

impl WorkloadKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Business => "Business Apps",
            WorkloadKind::Workstation => "Workstation Apps",
            WorkloadKind::Games => "3D Games",
            WorkloadKind::Web => "Web Browsing",
        }
    }

    /// All four, in the paper's presentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Business,
        WorkloadKind::Workstation,
        WorkloadKind::Games,
        WorkloadKind::Web,
    ];
}

/// How a device's interrupts arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless arrivals at the given rate (per second).
    Poisson(f64),
    /// Two-state bursty arrivals (§3.1.1: "long spurts of system
    /// activity... file copying" are what stretch latencies).
    Bursty {
        /// Rate during a burst (per second).
        on_rate_hz: f64,
        /// Rate between bursts (per second).
        off_rate_hz: f64,
        /// Mean burst length (ms).
        mean_on_ms: f64,
        /// Mean quiet length (ms).
        mean_off_ms: f64,
    },
}

/// A simulated device: an interrupt arrival process plus ISR/DPC work.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Debug name ("ide", "nic", "audio", ...).
    pub name: &'static str,
    /// Device IRQL (3..=26).
    pub irql: u8,
    /// Interrupt arrival process.
    pub arrival: ArrivalSpec,
    /// In-ISR work (ms); the OS personality scales this (legacy VxD
    /// drivers do more at raised IRQL on 98).
    pub isr_ms: Dist,
    /// Deferred (DPC) work (ms), if the device uses a DPC.
    pub dpc_ms: Option<Dist>,
}

/// A CPU-bound application task.
#[derive(Debug, Clone)]
pub struct CpuTaskSpec {
    /// Debug name ("winword", "compiler", "renderer", ...).
    pub name: &'static str,
    /// Thread priority (normal band 1..=15 for applications).
    pub priority: u8,
    /// CPU burst per iteration (ms).
    pub burst_ms: Dist,
    /// Wait between bursts (ms): I/O, vsync, think time.
    pub idle_ms: Dist,
}

/// A complete workload specification.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which load this is.
    pub kind: WorkloadKind,
    /// Interrupting devices.
    pub devices: Vec<DeviceSpec>,
    /// Application threads.
    pub tasks: Vec<CpuTaskSpec>,
    /// Intensity factors applied to OS background behavior.
    pub factors: LoadFactors,
    /// UI event rate (per second) — drives sound schemes. Winstone's
    /// MS-Test replay generates these far faster than a human.
    pub ui_events_hz: f64,
    /// File operation rate (per second) — drives the virus scanner.
    pub file_ops_hz: f64,
}

impl WorkloadSpec {
    /// Builds the specification for a load category.
    pub fn of(kind: WorkloadKind) -> WorkloadSpec {
        match kind {
            WorkloadKind::Business => business(),
            WorkloadKind::Workstation => workstation(),
            WorkloadKind::Games => games(),
            WorkloadKind::Web => web(),
        }
    }
}

/// Business Winstone 97: bursty disk traffic from install/run/uninstall
/// cycles and "save as" copies, light UI-paced CPU work, lots of UI events
/// (MS-Test drives input at >10x human speed).
fn business() -> WorkloadSpec {
    WorkloadSpec {
        kind: WorkloadKind::Business,
        devices: vec![
            DeviceSpec {
                name: "ide",
                irql: 14,
                // File copies ("save as", install/uninstall) come in
                // spurts: ~1.2 kHz bursts of ~60 ms between quiet spells.
                arrival: ArrivalSpec::Bursty {
                    on_rate_hz: 1_200.0,
                    off_rate_hz: 40.0,
                    mean_on_ms: 60.0,
                    mean_off_ms: 540.0,
                },
                isr_ms: Dist::LogNormal {
                    median: 0.010,
                    sigma: 0.7,
                    cap: 0.12,
                },
                dpc_ms: Some(Dist::LogNormal {
                    median: 0.06,
                    sigma: 1.0,
                    cap: 0.35,
                }),
            },
            DeviceSpec {
                name: "input",
                irql: 8,
                arrival: ArrivalSpec::Poisson(40.0),
                isr_ms: Dist::Constant(0.006),
                dpc_ms: None,
            },
        ],
        tasks: vec![
            CpuTaskSpec {
                name: "office-app",
                priority: 9,
                burst_ms: Dist::LogNormal {
                    median: 2.0,
                    sigma: 0.9,
                    cap: 40.0,
                },
                idle_ms: Dist::Exponential { mean: 4.0 },
            },
            CpuTaskSpec {
                name: "shell",
                priority: 8,
                burst_ms: Dist::Exponential { mean: 0.8 },
                idle_ms: Dist::Exponential { mean: 12.0 },
            },
        ],
        factors: LoadFactors {
            cli_rate: 2.0,
            cli_scale: 1.0,
            section_rate: 2.0,
            section_scale: 1.0,
            workitem_rate: 2.0,
        },
        ui_events_hz: 18.0,
        file_ops_hz: 60.0,
    }
}

/// High-End Winstone 97: CPU/disk-bound much more of the time; heavier
/// per-operation work (compiles, filters) and more paging traffic.
fn workstation() -> WorkloadSpec {
    WorkloadSpec {
        kind: WorkloadKind::Workstation,
        devices: vec![
            DeviceSpec {
                name: "ide",
                irql: 14,
                // Compiles and photo filters hammer the disk in spurts.
                arrival: ArrivalSpec::Bursty {
                    on_rate_hz: 1_600.0,
                    off_rate_hz: 100.0,
                    mean_on_ms: 80.0,
                    mean_off_ms: 520.0,
                },
                isr_ms: Dist::LogNormal {
                    median: 0.012,
                    sigma: 0.8,
                    cap: 0.2,
                },
                dpc_ms: Some(Dist::LogNormal {
                    median: 0.09,
                    sigma: 1.1,
                    cap: 0.5,
                }),
            },
            DeviceSpec {
                name: "input",
                irql: 8,
                arrival: ArrivalSpec::Poisson(15.0),
                isr_ms: Dist::Constant(0.006),
                dpc_ms: None,
            },
        ],
        tasks: vec![
            CpuTaskSpec {
                name: "cad",
                priority: 9,
                burst_ms: Dist::LogNormal {
                    median: 8.0,
                    sigma: 1.0,
                    cap: 120.0,
                },
                idle_ms: Dist::Exponential { mean: 3.0 },
            },
            CpuTaskSpec {
                name: "compiler",
                priority: 8,
                burst_ms: Dist::LogNormal {
                    median: 5.0,
                    sigma: 0.8,
                    cap: 60.0,
                },
                idle_ms: Dist::Exponential { mean: 2.0 },
            },
        ],
        factors: LoadFactors {
            cli_rate: 3.0,
            cli_scale: 4.0,
            section_rate: 3.0,
            section_scale: 1.0,
            workitem_rate: 4.0,
        },
        ui_events_hz: 8.0,
        file_ops_hz: 140.0,
    }
}

/// 3D games: the most interrupt-hostile load — high-rate audio/video DMA,
/// graphics driver work at raised IRQL, long DPC chains on 98.
fn games() -> WorkloadSpec {
    WorkloadSpec {
        kind: WorkloadKind::Games,
        devices: vec![
            DeviceSpec {
                name: "audio",
                irql: 12,
                arrival: ArrivalSpec::Poisson(190.0),
                isr_ms: Dist::LogNormal {
                    median: 0.015,
                    sigma: 0.8,
                    cap: 0.3,
                },
                dpc_ms: Some(Dist::LogNormal {
                    median: 0.15,
                    sigma: 1.0,
                    cap: 0.45,
                }),
            },
            DeviceSpec {
                name: "gfx",
                irql: 11,
                arrival: ArrivalSpec::Poisson(75.0),
                isr_ms: Dist::LogNormal {
                    median: 0.025,
                    sigma: 0.9,
                    cap: 0.5,
                },
                dpc_ms: Some(Dist::LogNormal {
                    median: 0.2,
                    sigma: 1.0,
                    cap: 0.6,
                }),
            },
            DeviceSpec {
                name: "ide",
                irql: 14,
                arrival: ArrivalSpec::Poisson(60.0),
                isr_ms: Dist::LogNormal {
                    median: 0.012,
                    sigma: 0.8,
                    cap: 0.15,
                },
                dpc_ms: Some(Dist::LogNormal {
                    median: 0.08,
                    sigma: 1.0,
                    cap: 0.4,
                }),
            },
        ],
        tasks: vec![CpuTaskSpec {
            name: "game-engine",
            priority: 10,
            burst_ms: Dist::LogNormal {
                median: 11.0,
                sigma: 0.5,
                cap: 40.0,
            },
            idle_ms: Dist::Exponential { mean: 1.5 },
        }],
        factors: LoadFactors {
            cli_rate: 7.0,
            cli_scale: 9.3,
            section_rate: 4.0,
            section_scale: 2.8,
            workitem_rate: 3.0,
        },
        ui_events_hz: 2.0,
        file_ops_hz: 25.0,
    }
}

/// Web browsing over fast Ethernet: network interrupt storms during
/// downloads, decoder bursts, and (on 98) severe scheduler blocking in the
/// legacy network/browser stack.
fn web() -> WorkloadSpec {
    WorkloadSpec {
        kind: WorkloadKind::Web,
        devices: vec![
            DeviceSpec {
                name: "nic",
                irql: 12,
                arrival: ArrivalSpec::Poisson(420.0),
                isr_ms: Dist::LogNormal {
                    median: 0.008,
                    sigma: 0.7,
                    cap: 0.1,
                },
                dpc_ms: Some(Dist::LogNormal {
                    median: 0.05,
                    sigma: 1.0,
                    cap: 0.3,
                }),
            },
            DeviceSpec {
                name: "ide",
                irql: 14,
                arrival: ArrivalSpec::Poisson(90.0),
                isr_ms: Dist::LogNormal {
                    median: 0.010,
                    sigma: 0.7,
                    cap: 0.12,
                },
                dpc_ms: Some(Dist::LogNormal {
                    median: 0.06,
                    sigma: 1.0,
                    cap: 0.35,
                }),
            },
        ],
        tasks: vec![
            CpuTaskSpec {
                name: "browser",
                priority: 9,
                burst_ms: Dist::LogNormal {
                    median: 4.0,
                    sigma: 1.0,
                    cap: 80.0,
                },
                idle_ms: Dist::Exponential { mean: 5.0 },
            },
            CpuTaskSpec {
                name: "media-player",
                priority: 10,
                burst_ms: Dist::LogNormal {
                    median: 6.0,
                    sigma: 0.6,
                    cap: 30.0,
                },
                idle_ms: Dist::Exponential { mean: 8.0 },
            },
        ],
        factors: LoadFactors {
            cli_rate: 2.5,
            cli_scale: 2.3,
            section_rate: 3.5,
            section_scale: 2.8,
            workitem_rate: 3.0,
        },
        ui_events_hz: 6.0,
        file_ops_hz: 45.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build() {
        for kind in WorkloadKind::ALL {
            let w = WorkloadSpec::of(kind);
            assert_eq!(w.kind, kind);
            assert!(!w.devices.is_empty());
            assert!(!w.tasks.is_empty());
        }
    }

    #[test]
    fn games_are_the_most_interrupt_hostile() {
        let g = WorkloadSpec::of(WorkloadKind::Games).factors;
        for other in [
            WorkloadKind::Business,
            WorkloadKind::Workstation,
            WorkloadKind::Web,
        ] {
            let f = WorkloadSpec::of(other).factors;
            assert!(
                g.cli_scale >= f.cli_scale,
                "games must have the longest cli windows (Table 3 int latency)"
            );
        }
    }

    #[test]
    fn web_and_games_have_heavy_section_scaling() {
        // Table 3: both reach 84 ms weekly thread latency on Win98.
        let web = WorkloadSpec::of(WorkloadKind::Web).factors;
        let biz = WorkloadSpec::of(WorkloadKind::Business).factors;
        assert!(web.section_scale > biz.section_scale);
    }

    #[test]
    fn device_irqls_are_in_dirql_band() {
        for kind in WorkloadKind::ALL {
            for d in WorkloadSpec::of(kind).devices {
                assert!((3..=26).contains(&d.irql), "{} irql {}", d.name, d.irql);
            }
        }
    }

    #[test]
    fn task_priorities_are_normal_band() {
        for kind in WorkloadKind::ALL {
            for t in WorkloadSpec::of(kind).tasks {
                assert!((1..=15).contains(&t.priority));
            }
        }
    }
}
