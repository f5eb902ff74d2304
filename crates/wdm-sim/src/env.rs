//! Environment event sources.
//!
//! The stress loads of the paper (§3.1) and the OS personalities inject
//! activity into the kernel from "outside": device interrupt arrivals,
//! interrupt-disabled (`cli`) windows in foreign code, non-preemptible
//! kernel sections (the Windows 98 VMM paths that block thread dispatch),
//! and work-item posts to worker threads. Each source is an arrival
//! process: when it fires, its action is applied and the next arrival is
//! sampled.

use std::borrow::Cow;

use rand::rngs::StdRng;

use crate::{
    ids::{SemId, VectorId},
    labels::Label,
    time::Cycles,
};

/// Samples a duration or inter-arrival gap. Stateful closures are welcome —
/// bursty processes keep their phase inside the closure.
pub type Sampler = Box<dyn FnMut(&mut StdRng) -> Cycles>;

/// What an environment source does when it fires.
pub enum EnvAction {
    /// Disable interrupts for a sampled duration, attributed to `label`.
    /// Models `cli`/`sti` windows in drivers and the HAL; the direct cause
    /// of interrupt latency.
    Cli {
        /// Window length sampler.
        duration: Sampler,
        /// Attribution for the cause tool.
        label: Label,
    },
    /// Enter a non-preemptible kernel section for a sampled duration:
    /// ISRs and DPCs still run, but no thread dispatch can occur until it
    /// ends. Models the Windows 98 legacy VMM paths (paper §4.4, Table 4).
    Section {
        /// Section length sampler.
        duration: Sampler,
        /// Attribution for the cause tool.
        label: Label,
    },
    /// Assert a device interrupt line.
    AssertInterrupt(VectorId),
    /// Release a semaphore (e.g. post a work item).
    ReleaseSemaphore(SemId, u32),
}

impl core::fmt::Debug for EnvAction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EnvAction::Cli { label, .. } => write!(f, "Cli({label:?})"),
            EnvAction::Section { label, .. } => write!(f, "Section({label:?})"),
            EnvAction::AssertInterrupt(v) => write!(f, "AssertInterrupt({v})"),
            EnvAction::ReleaseSemaphore(s, n) => write!(f, "ReleaseSemaphore({s}, {n})"),
        }
    }
}

/// An arrival process feeding the kernel with environment events.
pub struct EnvSource {
    /// Debug name ("ide-interrupts", "vmm-sections", ...).
    pub name: Cow<'static, str>,
    /// Inter-arrival gap sampler.
    pub arrival: Sampler,
    /// Action applied at each arrival.
    pub action: EnvAction,
    /// Whether the source is currently firing. Disabled sources keep
    /// rescheduling (cheaply) but apply no action, so they can be toggled
    /// mid-run (the virus scanner in Figure 5 is toggled this way).
    pub enabled: bool,
    /// Number of times the source fired while enabled.
    pub fire_count: u64,
}

impl EnvSource {
    /// Creates an enabled source.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        arrival: Sampler,
        action: EnvAction,
    ) -> EnvSource {
        EnvSource {
            name: name.into(),
            arrival,
            action,
            enabled: true,
            fire_count: 0,
        }
    }

    /// Samples the next inter-arrival gap.
    pub fn next_gap(&mut self, rng: &mut StdRng) -> Cycles {
        // Clamp to 1 cycle so a degenerate sampler cannot stall time.
        Cycles((self.arrival)(rng).0.max(1))
    }
}

impl core::fmt::Debug for EnvSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EnvSource")
            .field("name", &self.name)
            .field("action", &self.action)
            .field("enabled", &self.enabled)
            .field("fire_count", &self.fire_count)
            .finish()
    }
}

/// Convenience samplers for fixed and uniform gaps. Richer distributions
/// (exponential, lognormal, bounded Pareto) live in `wdm-osmodel::dist`.
pub mod samplers {
    use super::*;
    use rand::Rng;

    /// Always returns the same duration.
    pub fn fixed(c: Cycles) -> Sampler {
        Box::new(move |_| c)
    }

    /// Uniform in `[lo, hi]` cycles.
    pub fn uniform(lo: Cycles, hi: Cycles) -> Sampler {
        assert!(lo <= hi, "uniform sampler bounds inverted");
        Box::new(move |rng: &mut StdRng| Cycles(rng.gen_range(lo.0..=hi.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_sampler_is_constant() {
        let mut s = samplers::fixed(Cycles(100));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s(&mut rng), Cycles(100));
        assert_eq!(s(&mut rng), Cycles(100));
    }

    #[test]
    fn uniform_sampler_stays_in_bounds() {
        let mut s = samplers::uniform(Cycles(10), Cycles(20));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = s(&mut rng);
            assert!(v >= Cycles(10) && v <= Cycles(20));
        }
    }

    #[test]
    fn next_gap_clamps_zero() {
        let mut src = EnvSource::new(
            "z",
            samplers::fixed(Cycles(0)),
            EnvAction::AssertInterrupt(VectorId(0)),
        );
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(src.next_gap(&mut rng), Cycles(1));
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn uniform_rejects_inverted_bounds() {
        let _ = samplers::uniform(Cycles(5), Cycles(1));
    }
}
