//! Integration tests for the measurement tooling under realistic load:
//! tool cadence, and the stability of worst-case estimates across
//! collection durations.

use wdm_latency::{
    session::{measure_scenario, MeasureOptions},
    tool::MeasurementSession,
};
use wdm_osmodel::personality::{OsKind, OsPersonality};
use wdm_sim::time::Cycles;
use wdm_workloads::WorkloadKind;

#[test]
fn tool_cadence_tracks_the_period() {
    // At a 1 ms period on an unloaded NT machine, the tool should complete
    // close to one round per PIT tick... minus the re-arm round trip, which
    // skips every other tick (arm at tick k, expire at tick k+1).
    let p = OsPersonality::nt4();
    let mut k = p.build_kernel(4);
    let session = MeasurementSession::install(&mut k, 1.0);
    k.run_for(Cycles::from_ms_at(2_000.0, k.config().cpu_hz));
    let rounds = session.rt28_results().borrow().rounds;
    assert!(
        (900..=2_000).contains(&rounds),
        "expected ~1000 rounds in 2 s, got {rounds}"
    );
}

#[test]
fn tool_cadence_degrades_under_win98_thread_stalls() {
    // On Windows 98 under games, long thread stalls hold the IRP open and
    // the cadence drops below the idle rate — the same gating the paper's
    // tool had.
    let idle = {
        let p = OsPersonality::win98();
        let mut k = p.build_kernel(4);
        let s = MeasurementSession::install(&mut k, 1.0);
        k.run_for(Cycles::from_ms_at(5_000.0, k.config().cpu_hz));
        let r = s.rt28_results().borrow().rounds;
        r
    };
    let loaded = {
        let m = measure_scenario(
            OsKind::Win98,
            WorkloadKind::Games,
            4,
            5.0 / 3600.0,
            &MeasureOptions::default(),
        );
        m.waits_28
    };
    assert!(
        loaded < idle,
        "load must reduce tool cadence: idle {idle} vs loaded {loaded}"
    );
}

#[test]
fn worst_case_estimates_shrink_with_more_data() {
    // A methodology property: with the same underlying process, the hourly
    // estimate from a long run (block maxima) should not wildly exceed the
    // tail-extrapolated estimate from a short run.
    let short = measure_scenario(
        OsKind::Win98,
        WorkloadKind::Business,
        12,
        2.0 / 60.0,
        &MeasureOptions::default(),
    );
    let long = measure_scenario(
        OsKind::Win98,
        WorkloadKind::Business,
        12,
        10.0 / 60.0,
        &MeasureOptions::default(),
    );
    let (h, _, _) = short.usage.windows();
    let e_short = short
        .thread_int_28
        .expected_max_ms(h, short.collected_hours);
    let e_long = long.thread_int_28.expected_max_ms(h, long.collected_hours);
    let ratio = (e_short / e_long).max(e_long / e_short);
    assert!(
        ratio < 6.0,
        "hourly estimates unstable across durations: {e_short} vs {e_long}"
    );
}
