//! Integration tests for the measurement tooling and perturbation modules:
//! the cause tool (Table 4), the virus scanner (Figure 5), the soft modem
//! datapump, and the scenario composition surface.

use wdm_repro::latency::session::{measure_scenario, MeasureOptions};
use wdm_repro::osmodel::{OsKind, SoundScheme};
use wdm_repro::sim::time::Cycles;
use wdm_repro::softmodem::{Datapump, Modality};
use wdm_repro::workloads::{build_scenario, ScenarioOptions, WorkloadKind};

/// Table 4: with the default sound scheme on Windows 98, the cause tool
/// captures episodes naming the audio/VMM functions.
#[test]
fn cause_tool_blames_sound_scheme_functions() {
    let mut opts = MeasureOptions {
        cause_threshold_ms: Some(6.0),
        ..MeasureOptions::default()
    };
    opts.scenario.sound_scheme = SoundScheme::Default;
    let m = measure_scenario(OsKind::Win98, WorkloadKind::Business, 77, 2.0 / 60.0, &opts);
    assert!(
        !m.episodes.is_empty(),
        "the default sound scheme must cause >6 ms episodes"
    );
    let all = m.episodes.join("\n");
    assert!(
        all.contains("SYSAUDIO") || all.contains("KMIXER") || all.contains("VMM"),
        "episodes must name audio-path modules:\n{all}"
    );
    assert!(all.contains("total samples in episode"));
}

/// Figure 5: the virus scanner makes 16 ms thread latencies at least an
/// order of magnitude more frequent.
#[test]
fn virus_scanner_separates_by_orders_of_magnitude() {
    let hours = 3.0 / 60.0;
    let base = measure_scenario(
        OsKind::Win98,
        WorkloadKind::Business,
        55,
        hours,
        &MeasureOptions::default(),
    );
    let mut opts = MeasureOptions::default();
    opts.scenario.virus_scanner = true;
    let scanned = measure_scenario(OsKind::Win98, WorkloadKind::Business, 55, hours, &opts);
    let p_base = base.thread_lat_24.hist.survival(16.0);
    let p_scan = scanned.thread_lat_24.hist.survival(16.0);
    assert!(
        p_scan > 1e-4,
        "scanner should push 16 ms latencies into view: {p_scan:.2e}"
    );
    assert!(
        p_scan > p_base * 10.0,
        "separation too small: {p_scan:.2e} vs {p_base:.2e}"
    );
}

/// §5.1: on NT the modem datapump never underruns at modem buffer sizes,
/// in either modality, even under the games load.
#[test]
fn nt_softmodem_is_clean_in_both_modalities() {
    for modality in [Modality::Dpc, Modality::Thread(28)] {
        let mut s = build_scenario(
            OsKind::Nt4,
            WorkloadKind::Games,
            13,
            &ScenarioOptions::default(),
        );
        let cpu = s.kernel.config().cpu_hz;
        let pump = Datapump::install(
            &mut s.kernel,
            modality,
            Cycles::from_ms_at(8.0, cpu),
            Cycles::from_ms_at(2.0, cpu),
            Cycles::from_ms_at(8.0, cpu),
        );
        s.kernel.run_for(Cycles::from_ms_at(60_000.0, cpu));
        let st = pump.state.borrow();
        assert!(st.completed > 5_000, "pump must run: {}", st.completed);
        assert_eq!(
            st.missed, 0,
            "NT worst cases sit below modem slack (modality {modality:?})"
        );
    }
}

/// On Windows 98 the same thread-based datapump with thin buffering does
/// underrun under games — the motivating contrast of §5.1.
#[test]
fn win98_thread_softmodem_underruns_under_games() {
    let mut s = build_scenario(
        OsKind::Win98,
        WorkloadKind::Games,
        13,
        &ScenarioOptions::default(),
    );
    let cpu = s.kernel.config().cpu_hz;
    let pump = Datapump::install(
        &mut s.kernel,
        Modality::Thread(28),
        Cycles::from_ms_at(8.0, cpu),
        Cycles::from_ms_at(2.0, cpu),
        Cycles::from_ms_at(8.0, cpu),
    );
    s.kernel.run_for(Cycles::from_ms_at(120_000.0, cpu));
    let st = pump.state.borrow();
    assert!(
        st.missed > 0,
        "8 ms buffering on 98 under games should underrun ({} done)",
        st.completed
    );
}

/// Scenario surface: toggling the scanner mid-run changes injection.
#[test]
fn scanner_toggle_mid_run() {
    let opts = ScenarioOptions {
        virus_scanner: true,
        sound_scheme: SoundScheme::None,
    };
    let mut s = build_scenario(OsKind::Win98, WorkloadKind::Business, 3, &opts);
    let vs = s.virus_scanner.expect("installed");
    s.kernel.run_for(Cycles::from_ms(5_000.0));
    let fires_on = s.kernel.env_source(vs.source).fire_count;
    vs.set_enabled(&mut s.kernel, false);
    s.kernel.run_for(Cycles::from_ms(5_000.0));
    let fires_after = s.kernel.env_source(vs.source).fire_count;
    assert!(fires_on > 0);
    assert_eq!(fires_on, fires_after, "disabled scanner must stop firing");
}

/// Every OS x workload cell runs and produces well-formed measurements.
#[test]
fn all_cells_produce_well_formed_measurements() {
    for os in OsKind::ALL {
        for w in WorkloadKind::ALL {
            let m = measure_scenario(os, w, 9, 0.5 / 60.0, &MeasureOptions::default());
            assert!(
                m.int_to_isr_all_ticks.hist.count() > 10_000,
                "{} {}",
                os.name(),
                w.name()
            );
            assert!(
                m.int_to_isr.hist.count() > 1_000,
                "{} {}",
                os.name(),
                w.name()
            );
            assert!(m.thread_lat_28.hist.count() > 1_000);
            assert!(m.thread_lat_24.hist.count() > 1_000);
            assert!(m.account.total() > 0);
            assert!(m.ops_completed > 0);
            // Latencies are finite and positive.
            assert!(m.int_to_dpc.hist.max_ms() < 1_000.0);
            assert!(m.thread_int_28.hist.min_ms() >= 0.0);
        }
    }
}
