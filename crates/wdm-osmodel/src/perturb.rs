//! Optional perturbation modules: the Plus! 98 virus scanner and the
//! Windows sound schemes.
//!
//! The paper found both had "significant impacts on thread latency" on
//! Windows 98 (§4.3–4.4):
//!
//! - with the **virus scanner** active, 16 ms thread latencies occur *two
//!   orders of magnitude* more frequently (once per ~1,000 waits instead of
//!   once per ~165,000) — Figure 5;
//! - the **default sound scheme** plays a sound on every UI event (Winstone
//!   drives UI events far faster than a human), dragging `SYSAUDIO`,
//!   `KMIXER` and VMM contiguous-allocation paths through the kernel at
//!   raised IRQL — the Table 4 episode traces.
//!
//! Both are modeled as additional environment sources with distinctive
//! module!function labels so the latency cause tool can attribute them.

use wdm_sim::{
    env::{EnvAction, EnvSource},
    ids::SourceId,
    kernel::Kernel,
};

use crate::dist::{poisson_arrivals, Dist};

/// Handle to an installed virus scanner perturbation.
#[derive(Debug, Clone, Copy)]
pub struct VirusScanner {
    /// The scan-burst source; toggle with `Kernel::set_source_enabled`.
    pub source: SourceId,
}

impl VirusScanner {
    /// Installs the scanner hooked to file activity at `file_ops_hz`.
    ///
    /// Each intercepted operation occasionally triggers a long scan in a
    /// non-preemptible filter path. Durations are tuned so that 16 ms thread
    /// latencies become ~100x more frequent (Figure 5's separation).
    pub fn install(k: &mut Kernel, file_ops_hz: f64) -> VirusScanner {
        let cpu = k.config().cpu_hz;
        let label = k.intern("PLUSPACK", "_AvScanBuffer");
        // Most intercepts are cheap; a few percent hit the full scan path
        // that monopolizes the kernel for 8-20 ms.
        let duration = Dist::Mixture(vec![
            (
                0.93,
                Dist::LogNormal {
                    median: 0.8,
                    sigma: 0.8,
                    cap: 6.0,
                },
            ),
            (
                0.07,
                Dist::LogNormal {
                    median: 12.0,
                    sigma: 0.35,
                    cap: 22.0,
                },
            ),
        ]);
        let source = k.add_env_source(EnvSource::new(
            "virus-scanner",
            poisson_arrivals(file_ops_hz.max(1e-9), cpu),
            EnvAction::Section {
                duration: duration.sampler(cpu),
                label,
            },
        ));
        VirusScanner { source }
    }

    /// Enables or disables the scanner (Figure 5 compares both states).
    pub fn set_enabled(&self, k: &mut Kernel, enabled: bool) {
        k.set_source_enabled(self.source, enabled);
    }
}

/// Which sound scheme is selected (§4.4: testing used "default" and "no
/// sound").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoundScheme {
    /// No sounds: UI events cost nothing extra.
    None,
    /// The default scheme: a sound per dialog popup, menu traversal, etc.
    Default,
}

/// Handle to an installed sound-scheme perturbation.
#[derive(Debug, Clone)]
pub struct SoundSchemePerturbation {
    /// Sources installed (empty for [`SoundScheme::None`]).
    pub sources: Vec<SourceId>,
}

impl SoundSchemePerturbation {
    /// Installs the scheme driven by `ui_events_hz` UI events per second.
    ///
    /// Each sound playback walks the audio topology (`SYSAUDIO`), mixes
    /// (`KMIXER`) and occasionally allocates contiguous memory in the VMM at
    /// raised IRQL — the exact functions the paper's cause tool caught.
    pub fn install(
        k: &mut Kernel,
        scheme: SoundScheme,
        ui_events_hz: f64,
    ) -> SoundSchemePerturbation {
        if scheme == SoundScheme::None || ui_events_hz <= 0.0 {
            return SoundSchemePerturbation { sources: vec![] };
        }
        let cpu = k.config().cpu_hz;
        let mut sources = Vec::new();
        // Topology walk + mix: moderate non-preemptible work per event.
        let sysaudio = k.intern_chain(&[
            ("WINMM", "_PlaySound"),
            ("SYSAUDIO", "_ProcessTopologyConnection"),
        ]);
        sources.push(
            k.add_env_source(EnvSource::new(
                "sound-topology",
                poisson_arrivals(ui_events_hz, cpu),
                EnvAction::Section {
                    duration: Dist::LogNormal {
                        median: 0.6,
                        sigma: 0.7,
                        cap: 5.0,
                    }
                    .sampler(cpu),
                    label: sysaudio,
                },
            )),
        );
        // Contiguous-frame allocation in the VMM: rarer, longer, at raised
        // IRQL (modeled as cli so it also stretches interrupt latency).
        let mmcalc = k.intern_chain(&[
            ("NTKERN", "_ExAllocatePool"),
            ("VMM", "_mmFindContig"),
            ("VMM", "_mmCalcFrameBadness"),
        ]);
        sources.push(
            k.add_env_source(EnvSource::new(
                "sound-mm-alloc",
                poisson_arrivals(ui_events_hz * 0.25, cpu),
                EnvAction::Section {
                    duration: Dist::LogNormal {
                        median: 2.2,
                        sigma: 0.8,
                        cap: 14.0,
                    }
                    .sampler(cpu),
                    label: mmcalc,
                },
            )),
        );
        // KMIXER buffer mixing as short cli windows.
        let kmixer = k.intern_chain(&[
            ("SYSAUDIO", "_ProcessTopologyConnection"),
            ("KMIXER", "_MixBuffers"),
        ]);
        sources.push(
            k.add_env_source(EnvSource::new(
                "sound-kmixer",
                poisson_arrivals(ui_events_hz * 2.0, cpu),
                EnvAction::Cli {
                    duration: Dist::LogNormal {
                        median: 0.05,
                        sigma: 0.9,
                        cap: 0.8,
                    }
                    .sampler(cpu),
                    label: kmixer,
                },
            )),
        );
        SoundSchemePerturbation { sources }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::{config::KernelConfig, time::Cycles};

    #[test]
    fn scanner_injects_sections() {
        let mut k = Kernel::new(KernelConfig::default());
        let vs = VirusScanner::install(&mut k, 50.0);
        k.run_for(Cycles::from_ms(1_000.0));
        assert!(k.env_source(vs.source).fire_count > 20);
        assert!(k.account.section > 0);
    }

    #[test]
    fn scanner_toggle_stops_injection() {
        let mut k = Kernel::new(KernelConfig::default());
        let vs = VirusScanner::install(&mut k, 50.0);
        vs.set_enabled(&mut k, false);
        k.run_for(Cycles::from_ms(1_000.0));
        assert_eq!(k.env_source(vs.source).fire_count, 0);
        assert_eq!(k.account.section, 0);
    }

    #[test]
    fn no_sound_scheme_installs_nothing() {
        let mut k = Kernel::new(KernelConfig::default());
        let s = SoundSchemePerturbation::install(&mut k, SoundScheme::None, 100.0);
        assert!(s.sources.is_empty());
    }

    #[test]
    fn default_scheme_installs_labeled_sources() {
        let mut k = Kernel::new(KernelConfig::default());
        let s = SoundSchemePerturbation::install(&mut k, SoundScheme::Default, 20.0);
        assert_eq!(s.sources.len(), 3);
        k.run_for(Cycles::from_ms(500.0));
        let total: u64 = s
            .sources
            .iter()
            .map(|&id| k.env_source(id).fire_count)
            .sum();
        assert!(total > 10, "sound scheme should fire: {total}");
        // The symbol table knows the Table 4 functions.
        let rendered: Vec<String> = (0..k.symbols().len())
            .map(|i| k.symbols().render(wdm_sim::labels::Label(i as u32)))
            .collect();
        assert!(rendered
            .iter()
            .any(|s| s == "SYSAUDIO!_ProcessTopologyConnection"));
        assert!(rendered.iter().any(|s| s == "VMM!_mmCalcFrameBadness"));
    }
}
