//! One end-to-end pass of a workload through the production entry point,
//! plus a timed replica of the per-job set-up that entry point performs.

use std::hint::black_box;
use std::time::Instant;
use std::{cell::RefCell, rc::Rc};

use wdm_bench::cells::{cell_shards, measure_all_timed, summary_digest, RunConfig, TimedCells};
use wdm_bench::{figures, tables};
use wdm_latency::session::{MeasureOptions, ScenarioMeasurement};
use wdm_latency::{BlameRecorder, MeasurementSession};
use wdm_sim::flight::FlightRecorder;
use wdm_workloads::{build_scenario, Scenario};

use crate::out::{fnv64, hex};
use crate::spans::Tracer;
use crate::workload::{cell_label, grid_cells};

/// What one cell produced, reduced to what the correctness gate compares.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// `nt4_business` etc.
    pub label: String,
    /// FNV-1a of the cell's `summary_digest` line.
    pub digest: u64,
    /// FNV-1a of the retained blame-episode payloads (latency, summary,
    /// trace), in retention order.
    pub episodes: u64,
}

impl CellOutcome {
    /// Reduces a measured cell.
    pub fn of(m: &ScenarioMeasurement) -> CellOutcome {
        let mut payload = Vec::new();
        for (lat, meta, trace) in &m.blame_episodes {
            payload.extend_from_slice(&lat.to_le_bytes());
            payload.extend_from_slice(meta.as_bytes());
            payload.extend_from_slice(trace.as_bytes());
        }
        CellOutcome {
            label: cell_label(m.os, m.workload),
            digest: fnv64(summary_digest(m).as_bytes()),
            episodes: fnv64(&payload),
        }
    }

    /// The outcome as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cell\":\"{}\",\"digest\":\"{}\",\"episodes\":\"{}\"}}",
            self.label,
            hex(self.digest),
            hex(self.episodes)
        )
    }
}

/// Host time of the set-up replica, summed over jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `build_scenario` (workload programs and samplers lowered here).
    pub build_scenario_s: f64,
    /// `MeasurementSession::install_with`.
    pub session_install_s: f64,
    /// Flight recorder and blame recorder attach (forensics only).
    pub forensics_attach_s: f64,
    /// Jobs set up (cells x shards).
    pub jobs: usize,
}

impl SetupTimes {
    /// Total set-up host time.
    pub fn total_s(&self) -> f64 {
        self.build_scenario_s + self.session_install_s + self.forensics_attach_s
    }
}

/// One pass: the production grid, its rendered artifacts and digests.
pub struct Pass {
    /// Host wall clock from the grid call to checked digests.
    pub wall_s: f64,
    /// Host wall clock of the simulation phase (the grid fan-out).
    pub sim_s: f64,
    /// Host wall clock of the whole `measure_all_timed` call.
    pub grid_call_s: f64,
    /// Simulated events over every job.
    pub sim_events: u64,
    /// Set-up replica timings.
    pub setup: SetupTimes,
    /// The grid's timing record (per-cell counters, shard walls).
    pub timed: TimedCells,
    /// Per-cell outcomes, production order.
    pub cells: Vec<CellOutcome>,
}

/// Set-up replica repetitions per pass (odd, so the median is one of them).
pub const SETUP_REPS: usize = 25;

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// The flight and blame recorders of an armed scenario.
pub type Armed = (Rc<RefCell<FlightRecorder>>, Rc<RefCell<BlameRecorder>>);

/// Attaches to a freshly built scenario what `measure_scenario` attaches
/// before its first simulated event under `opts`: the measurement session
/// and, when forensics is on, the flight and blame recorders. Each part is
/// timed into `st` and spanned into `tr`.
pub fn attach(
    sc: &mut Scenario,
    opts: &MeasureOptions,
    st: &mut SetupTimes,
    tr: &mut Tracer,
) -> (MeasurementSession, Option<Armed>) {
    let session = tr.span("setup.session_install", |_| {
        timed(&mut st.session_install_s, || {
            MeasurementSession::install_with(&mut sc.kernel, opts.period_ms, opts.batch_record)
        })
    });
    let armed = opts.blame.map(|b| {
        tr.span("setup.forensics_attach", |_| {
            timed(&mut st.forensics_attach_s, || {
                let cap = opts.flight.unwrap_or_default().capacity;
                let flight = Rc::new(RefCell::new(FlightRecorder::new(cap)));
                sc.kernel.add_observer(flight.clone());
                let rec = Rc::new(RefCell::new(BlameRecorder::new(
                    &sc.kernel,
                    vec![(session.rt24.thread, "rt24"), (session.rt28.thread, "rt28")],
                    b,
                    Some(flight.clone()),
                )));
                sc.kernel.add_observer(rec.clone());
                (flight, rec)
            })
        })
    });
    (session, armed)
}

/// Repeats, job by job, the set-up `measure_scenario` performs before its
/// first simulated event, with the same options, and times each part.
/// The scenarios are dropped unrun.
pub fn setup_replica(cfg: &RunConfig, tr: &mut Tracer) -> SetupTimes {
    let mut st = SetupTimes::default();
    for (os, w) in grid_cells() {
        let opts = cfg.measure_opts(os, w);
        for spec in cell_shards(cfg, os, w) {
            let mut sc = tr.span("setup.build_scenario", |_| {
                timed(&mut st.build_scenario_s, || {
                    build_scenario(os, w, spec.seed, &opts.scenario)
                })
            });
            black_box(attach(&mut sc, &opts, &mut st, tr));
            black_box(&sc.kernel);
            st.jobs += 1;
        }
    }
    st
}

/// Runs one pass of `cfg`: grid, render, digests, then the set-up replica
/// [`SETUP_REPS`] times (outside `wall_s`). Spans go to `tr` when it records.
pub fn run_pass(cfg: &RunConfig, tr: &mut Tracer) -> Pass {
    let t0 = Instant::now();
    let (timed, grid_call_s, cells) = tr.span("pass", |tr| {
        let g = Instant::now();
        let timed = tr.span("simulate", |_| measure_all_timed(cfg));
        let grid_call_s = g.elapsed().as_secs_f64();
        let all: Vec<&ScenarioMeasurement> =
            timed.cells.nt.iter().chain(&timed.cells.win98).collect();
        let t3 = tr.span("render.table3", |_| tables::table3(black_box(&timed.cells)));
        let f4 = tr.span("render.figure4", |_| {
            figures::figure4(black_box(&timed.cells))
        });
        assert!(
            t3.contains("Table 3") && f4.contains("Figure 4"),
            "artifacts rendered"
        );
        let cells: Vec<CellOutcome> = tr.span("render.digest", |_| {
            all.iter().map(|m| CellOutcome::of(m)).collect()
        });
        tr.span("check", |_| {
            let expected: Vec<String> = grid_cells()
                .into_iter()
                .map(|(os, w)| cell_label(os, w))
                .collect();
            let got: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(
                got, expected,
                "the grid returns every cell in production order"
            );
        });
        (timed, grid_call_s, cells)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    // Set-up takes well under a millisecond per grid, so it repeats and
    // the pass keeps the repetition with the median total.
    let mut reps: Vec<SetupTimes> = (0..SETUP_REPS)
        .map(|_| tr.span("setup", |tr| setup_replica(cfg, tr)))
        .collect();
    reps.sort_by(|a, b| a.total_s().total_cmp(&b.total_s()));
    let setup = reps[SETUP_REPS / 2];
    let sim_events = timed.timings.iter().map(|t| t.sim_events).sum();
    Pass {
        wall_s,
        sim_s: timed.total_wall_s,
        grid_call_s,
        sim_events,
        setup,
        timed,
        cells,
    }
}

/// The `summary_digest` lines of one grid run, production order.
pub fn digest_lines(cfg: &RunConfig) -> Vec<String> {
    let t = measure_all_timed(cfg);
    t.cells
        .nt
        .iter()
        .chain(&t.cells.win98)
        .map(summary_digest)
        .collect()
}

/// Per-cell outcomes of one grid run.
pub fn outcomes(cfg: &RunConfig) -> Vec<CellOutcome> {
    let t = measure_all_timed(cfg);
    t.cells
        .nt
        .iter()
        .chain(&t.cells.win98)
        .map(CellOutcome::of)
        .collect()
}
