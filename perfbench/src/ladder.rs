//! The ablation ladder: `Kernel::run_for` over the same simulated window
//! of every grid cell, with one more layer attached per rung.
//!
//! - rung 0: the workload only (`build_scenario`);
//! - rung 1: + the `MeasurementSession`, as `measure_scenario` installs it;
//! - rung 2: + the flight recorder and `BlameRecorder`, armed as
//!   `measure_scenario` arms them for `repro blame`.
//!
//! Only `run_for` is timed; set-up and the final flush are timed apart.

use std::hint::black_box;
use std::time::Instant;

use wdm_bench::cells::cell_seed;
use wdm_latency::session::MeasureOptions;
use wdm_latency::BlameOptions;
use wdm_sim::time::Cycles;
use wdm_workloads::build_scenario;

use crate::pass::{attach, SetupTimes};
use crate::spans::Tracer;
use crate::workload::{cell_label, grid_cells};

/// Host time and simulated events of one rung, summed over cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    /// Host seconds inside `run_for`.
    pub run_s: f64,
    /// Simulated events.
    pub events: u64,
}

impl Rung {
    /// Host nanoseconds per simulated event.
    pub fn ns_per_event(&self) -> f64 {
        self.run_s * 1e9 / self.events.max(1) as f64
    }
}

/// Blame counts of one cell at rung 2.
#[derive(Debug, Clone)]
pub struct CellBlame {
    /// Cell label.
    pub label: String,
    /// Triggered samples, each one a flight-ring capture.
    pub captures: u64,
    /// Episodes retained by the top-K store.
    pub retained: u64,
}

/// The ladder's result.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Rungs 0, 1, 2.
    pub rungs: [Rung; 3],
    /// Host seconds of the final `MeasurementSession::flush` at rung 1.
    pub flush_s: f64,
    /// Per-cell blame counts at rung 2.
    pub blame: Vec<CellBlame>,
    /// Largest flight-ring occupancy at rung 2.
    pub ring_peak: u64,
}

/// Runs the ladder over the 8 cells at `minutes` per cell. Cell seeds
/// follow the production grid's, so rung 2 simulates exactly what an
/// armed grid of the same window and seed simulates.
pub fn run(seed: u64, minutes: f64) -> Ladder {
    let bare = MeasureOptions::default();
    let armed_opts = MeasureOptions {
        blame: Some(BlameOptions::default()),
        ..MeasureOptions::default()
    };
    let mut rungs = [Rung::default(); 3];
    let mut flush_s = 0.0;
    let mut blame = Vec::new();
    let mut ring_peak = 0;
    for (os, w) in grid_cells() {
        let s = cell_seed(seed, os, w);
        for (ix, rung) in rungs.iter_mut().enumerate() {
            let mut sc = build_scenario(os, w, s, &bare.scenario);
            let opts = if ix == 2 { &armed_opts } else { &bare };
            let (session, armed) = match ix {
                0 => (None, None),
                _ => {
                    let (session, armed) =
                        attach(&mut sc, opts, &mut SetupTimes::default(), &mut Tracer::new(false));
                    (Some(session), armed)
                }
            };
            // The same expression `measure_scenario` uses, bit for bit.
            let hours = minutes / 60.0;
            let window = Cycles::from_ms_at(hours * 3_600_000.0, sc.kernel.config().cpu_hz);
            let t = Instant::now();
            sc.kernel.run_for(black_box(window));
            rung.run_s += t.elapsed().as_secs_f64();
            rung.events += sc.kernel.sim_events;
            if let Some(session) = &session {
                let t = Instant::now();
                session.flush();
                if ix == 1 {
                    flush_s += t.elapsed().as_secs_f64();
                }
            }
            if let Some((flight, rec)) = armed {
                let rec = rec.borrow();
                blame.push(CellBlame {
                    label: cell_label(os, w),
                    captures: rec.summary.triggered,
                    retained: rec.episodes.len() as u64,
                });
                ring_peak = ring_peak.max(flight.borrow().peak_depth());
            }
        }
    }
    assert!(
        rungs.iter().all(|r| r.events > 0),
        "every rung simulated events"
    );
    assert_eq!(
        rungs[1].events, rungs[2].events,
        "forensics is read-only: rungs 1 and 2 simulate the same events"
    );
    Ladder {
        rungs,
        flush_s,
        blame,
        ring_peak,
    }
}
