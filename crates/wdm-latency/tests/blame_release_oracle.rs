//! Release oracle for the blame recorder's flight ring (DESIGN.md §15).
//!
//! After each watched resume a blame recorder releases every ring event
//! stamped before the earliest of its watched threads' latest resumes
//! minus the window pad; a ring exported whole never releases. On every
//! cell of the OS × workload grid, under each trigger, the two rings must
//! give the same episodes (windows included) and the same summary, the
//! releasing ring must stay small, and the exported ring must fill exactly
//! as a ring that never releases does.

use std::{cell::RefCell, rc::Rc};

use wdm_latency::{
    session::FlightOptions, BlameEpisode, BlameOptions, BlameRecorder, BlameSummary, BlameTrigger,
    MeasurementSession,
};
use wdm_osmodel::personality::OsKind;
use wdm_sim::{flight::FlightRecorder, time::Cycles};
use wdm_workloads::{build_scenario, ScenarioOptions, WorkloadKind};

/// Simulated minutes per cell: long enough that every cell pushes more
/// events than the bound below.
const MINUTES: f64 = 0.05;
/// The most events a releasing ring may hold at once in any cell.
const RELEASED_PEAK_BOUND: u64 = 4096;

/// What one armed cell leaves behind.
struct Armed {
    episodes: Vec<BlameEpisode>,
    summary: BlameSummary,
    peak: u64,
    total: u64,
}

/// Runs one cell with the production recorders of `measure_scenario`,
/// over a releasing or an exported ring.
fn run_cell(os: OsKind, w: WorkloadKind, opts: BlameOptions, exported: bool) -> Armed {
    let mut sc = build_scenario(os, w, 1999, &ScenarioOptions::default());
    let session = MeasurementSession::install(&mut sc.kernel, 1.0);
    let capacity = FlightOptions::default().capacity;
    let ring = if exported {
        FlightRecorder::exported(capacity)
    } else {
        FlightRecorder::new(capacity)
    };
    let flight = Rc::new(RefCell::new(ring));
    sc.kernel.add_observer(flight.clone());
    let rec = Rc::new(RefCell::new(BlameRecorder::new(
        &sc.kernel,
        vec![(session.rt24.thread, "rt24"), (session.rt28.thread, "rt28")],
        opts,
        Some(flight.clone()),
    )));
    sc.kernel.add_observer(rec.clone());
    let hz = sc.kernel.config().cpu_hz;
    sc.kernel
        .run_for(Cycles::from_ms_at(MINUTES * 60_000.0, hz));
    let rec = rec.borrow();
    let ring = flight.borrow();
    assert_eq!(ring.total, ring.len() as u64 + ring.dropped + ring.released);
    Armed {
        episodes: rec.episodes.clone(),
        summary: rec.summary,
        peak: ring.peak_depth(),
        total: ring.total,
    }
}

/// Everything an episode carries, comparable.
fn key(e: &BlameEpisode) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        e.ordinal,
        e.tag,
        e.priority,
        e.readied,
        e.started,
        e.latency_cycles,
        e.latency_ms.to_bits(),
        e.breakdown,
        &e.window,
    )
}

/// Checks every cell under `trigger` and returns each cell's summary.
fn released_equals_exported(trigger: BlameTrigger) -> Vec<BlameSummary> {
    let opts = BlameOptions {
        trigger,
        ..BlameOptions::default()
    };
    let capacity = FlightOptions::default().capacity as u64;
    let mut summaries = Vec::new();
    for os in OsKind::ALL {
        for w in WorkloadKind::ALL {
            let cell = format!("{os:?} x {w:?}, {trigger:?}");
            let released = run_cell(os, w, opts, false);
            let exported = run_cell(os, w, opts, true);
            assert_eq!(
                released.episodes.iter().map(key).collect::<Vec<_>>(),
                exported.episodes.iter().map(key).collect::<Vec<_>>(),
                "{cell}: episodes"
            );
            assert_eq!(released.summary, exported.summary, "{cell}: summary");
            assert_eq!(released.total, exported.total, "{cell}: same events pushed");
            assert!(
                released.total > RELEASED_PEAK_BOUND,
                "{cell}: the bound is tighter than the run ({} events)",
                released.total
            );
            assert!(
                released.peak <= RELEASED_PEAK_BOUND,
                "{cell}: releasing ring peaked at {}",
                released.peak
            );
            assert_eq!(
                exported.peak,
                exported.total.min(capacity),
                "{cell}: exported ring"
            );
            let s = &released.summary;
            assert_eq!(
                s.triggered,
                released.episodes.len() as u64 + s.evicted,
                "{cell}: every trigger is retained or evicted"
            );
            assert!(released.episodes.len() <= opts.max_episodes, "{cell}");
            assert!(
                released.episodes.iter().all(|e| !e.window.is_empty()),
                "{cell}: windows captured"
            );
            summaries.push(released.summary);
        }
    }
    summaries
}

#[test]
fn topk_episodes_are_identical_over_a_released_ring() {
    released_equals_exported(BlameTrigger::TopK);
}

/// The heavy trigger: nearly every watched resume fires, so retention
/// and eviction run constantly while the store stays at its cap.
#[test]
fn threshold_episodes_are_identical_over_a_released_ring() {
    let max_episodes = BlameOptions::default().max_episodes as u64;
    for s in released_equals_exported(BlameTrigger::ThresholdMs(0.001)) {
        assert!(s.triggered > max_episodes && s.evicted > 0, "{s:?}");
    }
}

#[test]
fn blockmax_episodes_are_identical_over_a_released_ring() {
    released_equals_exported(BlameTrigger::BlockMax);
}
