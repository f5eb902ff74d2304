//! Cross-validation of the MTTF predictions (paper §6.1).
//!
//! The paper promises to "use the tool to validate our quality of service
//! predictions in this paper". This module does exactly that: for a given
//! OS x workload cell it (a) predicts the datapump's mean time to underrun
//! from the measured latency distribution via `wdm-analysis`, and (b) runs
//! the actual datapump inside the same stress scenario and counts real
//! underruns.

use wdm_analysis::mttf::{mttf_seconds, MttfParams};
use wdm_latency::session::{measure_scenario, MeasureOptions};
use wdm_osmodel::personality::OsKind;
use wdm_sim::time::Cycles;
use wdm_workloads::{build_scenario, ScenarioOptions, WorkloadKind};

use crate::pump::{Datapump, Modality};

/// One prediction-vs-observation comparison.
#[derive(Debug, Clone, Copy)]
pub struct ValidationPoint {
    /// Total buffering `(n-1)*t` in ms.
    pub buffering_ms: f64,
    /// Datapump period `t` in ms.
    pub period_ms: f64,
    /// MTTF predicted from the latency distribution (s).
    pub predicted_mttf_s: f64,
    /// MTTF observed by direct simulation (s); infinite if no miss.
    pub observed_mttf_s: f64,
    /// Raw observed misses.
    pub misses: u64,
    /// Buffers processed.
    pub processed: u64,
}

impl ValidationPoint {
    /// True when prediction and observation agree within a factor of
    /// `tolerance` (or both are effectively unbounded).
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        let (p, o) = (self.predicted_mttf_s, self.observed_mttf_s);
        if !p.is_finite() || !o.is_finite() {
            // Treat "no failure observed" and "beyond the horizon" as
            // agreement when the other side is also large.
            let finite = p.min(o);
            return !finite.is_finite() || finite > 30.0;
        }
        let ratio = if p > o { p / o } else { o / p };
        ratio <= tolerance
    }
}

/// Predicts and measures the datapump MTTF for one configuration.
///
/// `buffering_ms` is the latency tolerance `(n-1)*t`; double buffering is
/// assumed (`n = 2`, so `t = buffering_ms`), matching the paper's plots.
pub fn validate_mttf(
    os: OsKind,
    workload: WorkloadKind,
    modality: Modality,
    buffering_ms: f64,
    seed: u64,
    sim_hours: f64,
) -> ValidationPoint {
    let params = MttfParams::default();
    let period_ms = buffering_ms / (params.buffers - 1) as f64;

    // (a) Prediction from the measured latency distribution.
    let m = measure_scenario(os, workload, seed, sim_hours, &MeasureOptions::default());
    let hist = match modality {
        Modality::Dpc => &m.int_to_dpc.hist,
        Modality::Thread(_) => &m.thread_int_28.hist,
    };
    let predicted = mttf_seconds(hist, buffering_ms, &params);

    // (b) Direct simulation of the datapump inside the same stress load.
    let mut scenario = build_scenario(os, workload, seed + 1, &ScenarioOptions::default());
    let cpu = scenario.kernel.config().cpu_hz;
    let period = Cycles::from_ms_at(period_ms, cpu);
    let compute = Cycles::from_ms_at(period_ms * params.compute_fraction, cpu);
    let tolerance = Cycles::from_ms_at(buffering_ms, cpu);
    let pump = Datapump::install(&mut scenario.kernel, modality, period, compute, tolerance);
    let sim = Cycles::from_ms_at(sim_hours * 3_600_000.0, cpu);
    scenario.kernel.run_for(sim);
    let observed = pump.observed_mttf_s(sim, cpu);
    let st = pump.state.borrow();

    ValidationPoint {
        buffering_ms,
        period_ms,
        predicted_mttf_s: predicted,
        observed_mttf_s: observed,
        misses: st.missed,
        processed: st.completed + st.missed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn win98_thread_pump_with_thin_buffering_fails_fast() {
        let v = validate_mttf(
            OsKind::Win98,
            WorkloadKind::Games,
            Modality::Thread(28),
            8.0,
            21,
            10.0 / 3600.0,
        );
        assert!(v.processed > 1000, "pump must run: {}", v.processed);
        assert!(
            v.misses > 0,
            "8 ms of buffering on 98 under games must underrun"
        );
        assert!(
            v.predicted_mttf_s < 120.0,
            "prediction should be pessimistic"
        );
    }

    #[test]
    fn nt_dpc_pump_is_clean_even_with_thin_buffering() {
        let v = validate_mttf(
            OsKind::Nt4,
            WorkloadKind::Business,
            Modality::Dpc,
            6.0,
            21,
            10.0 / 3600.0,
        );
        // "The worst case latencies for Windows NT are uniformly below the
        // minimum modem slack time of 3 milliseconds" (§5.1).
        assert_eq!(v.misses, 0, "NT DPC pump must not underrun");
    }

    #[test]
    fn dpc_prediction_and_observation_roughly_agree() {
        let v = validate_mttf(
            OsKind::Win98,
            WorkloadKind::Games,
            Modality::Dpc,
            8.0,
            3,
            20.0 / 3600.0,
        );
        // Order-of-magnitude agreement is what the methodology claims; the
        // DPC datapump's compute runs at DISPATCH level, so the analytic
        // model's assumption (delay = dispatch latency) holds well.
        assert!(
            v.agrees_within(25.0),
            "predicted {} s vs observed {} s ({} misses / {} buffers)",
            v.predicted_mttf_s,
            v.observed_mttf_s,
            v.misses,
            v.processed
        );
    }

    #[test]
    fn thread_prediction_is_optimistic_under_blocking() {
        // Reproduction finding: for the *thread* modality on Windows 98 the
        // paper's analytic MTTF overestimates reliability, because the
        // datapump's own compute is also stretched by non-preemptible
        // kernel sections — a delay source the dispatch-latency
        // distribution does not capture. Use the games load at thin
        // buffering so misses are frequent enough on both sides for the
        // comparison to be statistically stable.
        let v = validate_mttf(
            OsKind::Win98,
            WorkloadKind::Games,
            Modality::Thread(28),
            12.0,
            3,
            15.0 / 3600.0,
        );
        assert!(
            v.misses > 5,
            "games at 12 ms buffering must miss repeatedly: {} misses",
            v.misses
        );
        assert!(
            v.observed_mttf_s <= v.predicted_mttf_s * 2.0,
            "observed {} s should not beat the analytic bound {} s",
            v.observed_mttf_s,
            v.predicted_mttf_s
        );
    }
}
