//! The `repro timing` artifact: harness self-measurement.
//!
//! Runs the 8-cell grid three times — once on a single worker as the
//! serial reference, once fanned out over the requested worker count, and
//! once serially with program compilation off (the interpreted reference
//! path) — verifies the three runs are observably identical (see
//! [`crate::cells::summary_digest`]), and emits a `BENCH_cells.json`
//! report with per-cell wall-clock cost, total wall clock for the runs,
//! the measured thread speedup, the compiled-vs-interpreted event rates,
//! the simulator event rate and the measurement-path sample rate.

use crate::cells::{
    measure_all_timed, shard_imbalance, summary_digest, Duration, RunConfig, TimedCells,
};

/// Everything the `timing` artifact measured.
pub struct TimingReport {
    /// Serial (1-worker) reference run.
    pub serial: TimedCells,
    /// Parallel run at the requested thread count.
    pub parallel: TimedCells,
    /// Serial run with program compilation off: the interpreted reference
    /// path's cost, for the compiled-vs-interpreted rate comparison.
    pub interpreted: TimedCells,
    /// Whether the serial, parallel and interpreted runs produced
    /// identical summaries (they must).
    pub identical: bool,
    /// Wall-clock attempts per side; each cell reports its fastest attempt
    /// (see `best_timed`).
    pub repeats: usize,
}

impl TimingReport {
    /// Serial wall clock over parallel wall clock.
    pub fn speedup(&self) -> f64 {
        self.serial.total_wall_s / self.parallel.total_wall_s.max(1e-9)
    }

    /// Interpreted serial wall clock over (compiled) serial wall clock:
    /// the single-core payoff of program compilation.
    pub fn compile_speedup(&self) -> f64 {
        self.interpreted.total_wall_s / self.serial.total_wall_s.max(1e-9)
    }

    /// Latency samples recorded per serial wall-clock second: the
    /// throughput of the cycle-domain measurement fast path.
    pub fn measure_events_per_sec(&self) -> f64 {
        let samples: u64 = self.serial.timings.iter().map(|t| t.samples_recorded).sum();
        samples as f64 / self.serial.total_wall_s.max(1e-9)
    }

    /// Staging-buffer flushes across the serial run's cells (0 with
    /// batched recording off).
    pub fn batch_flushes(&self) -> u64 {
        self.serial.timings.iter().map(|t| t.batch_flushes).sum()
    }

    /// Mean staged samples folded per flush across the serial run.
    pub fn samples_per_flush(&self) -> f64 {
        let staged: u64 = self.serial.timings.iter().map(|t| t.staged_samples).sum();
        staged as f64 / self.batch_flushes().max(1) as f64
    }

    /// Staged samples per serial wall-clock second: the rate raw triples
    /// move through the SoA staging buffers (DESIGN.md §13).
    pub fn staged_samples_per_sec(&self) -> f64 {
        let staged: u64 = self.serial.timings.iter().map(|t| t.staged_samples).sum();
        staged as f64 / self.serial.total_wall_s.max(1e-9)
    }

    /// Grid-wide fan-out balance: max/mean over every shard wall of the
    /// parallel run (1.0 = perfectly balanced 8 x K job list).
    pub fn grid_imbalance(&self) -> f64 {
        let walls: Vec<f64> = self
            .parallel
            .timings
            .iter()
            .flat_map(|t| t.shard_wall_s.iter().copied())
            .collect();
        shard_imbalance(&walls)
    }
}

/// Wall-clock attempts per side. Quick grids repeat so a single page fault
/// or scheduler hiccup cannot bias the reported speedup; full-collection
/// runs are hours long and both too expensive to repeat and too long for
/// noise to matter.
fn repeats_for(d: Duration) -> usize {
    match d {
        Duration::Minutes(_) => 3,
        Duration::FullCollection => 1,
    }
}

fn digests(t: &TimedCells) -> Vec<String> {
    t.cells
        .nt
        .iter()
        .chain(&t.cells.win98)
        .map(summary_digest)
        .collect()
}

/// Runs the grid at `threads`, best-of-`repeats` wall clock. Every repeat
/// must be observably identical (same digests) — anything else is a
/// determinism bug, not timing noise.
///
/// Noise rejection is per cell: host noise (page faults, scheduler
/// hiccups, a neighbor stealing the core) only ever makes a cell *slower*
/// than the machine's true rate, so each cell keeps its fastest attempt —
/// the standard minimum estimator. The repeats are digest-identical, so
/// the attempts differ only in wall clock and mixing them is coherent. The
/// grid total keeps the fastest whole attempt's elapsed wall (the parallel
/// side's critical path); serial sides (`threads <= 1`) then tighten it to
/// the sum of the per-cell bests, which is what their cells actually cost
/// back to back.
fn best_timed(cfg: &RunConfig, threads: usize, repeats: usize) -> TimedCells {
    let mut best: Option<TimedCells> = None;
    let mut reference: Option<Vec<String>> = None;
    for _ in 0..repeats.max(1) {
        let t = measure_all_timed(&RunConfig { threads, ..*cfg });
        let d = digests(&t);
        match &reference {
            Some(first) => assert_eq!(&d, first, "timing repeats must be observably identical"),
            None => reference = Some(d),
        }
        best = Some(match best.take() {
            None => t,
            Some(mut b) => {
                b.total_wall_s = b.total_wall_s.min(t.total_wall_s);
                for (have, new) in b.timings.iter_mut().zip(t.timings) {
                    if new.wall_s < have.wall_s {
                        *have = new;
                    }
                }
                b
            }
        });
    }
    let mut b = best.expect("repeats >= 1");
    if threads <= 1 {
        b.total_wall_s = b.timings.iter().map(|t| t.wall_s).sum();
    }
    b
}

/// Runs the grid serially and in parallel (each best-of-N wall clock) and
/// compares the outputs. `repeats_override` (the `--repeats` flag) replaces
/// the duration-based default attempt count when given.
pub fn run(cfg: &RunConfig, repeats_override: Option<usize>) -> TimingReport {
    let repeats = repeats_override.unwrap_or_else(|| repeats_for(cfg.duration));
    let serial = best_timed(cfg, 1, repeats);
    let parallel = best_timed(cfg, cfg.threads, repeats);
    // The interpreted pass re-runs the serial grid with compilation off —
    // its digests joining the identity check is what keeps the walker and
    // the interpreter observably interchangeable release over release.
    let interpreted = best_timed(
        &RunConfig {
            compile: false,
            ..*cfg
        },
        1,
        repeats,
    );
    let identical =
        digests(&serial) == digests(&parallel) && digests(&serial) == digests(&interpreted);
    TimingReport {
        serial,
        parallel,
        interpreted,
        identical,
        repeats,
    }
}

/// Carried verbatim in every `BENCH_cells.json` so a reader (human or
/// regression tool) comparing two timing artifacts is warned that the
/// absolute rates depend on which machine — and which thermal/load phase
/// of that machine — produced each artifact. Only the *ratios within one
/// artifact* (speedup, compiled-vs-interpreted) are host-phase-controlled,
/// because their sides ran in one process. See EXPERIMENTS.md.
pub const HOST_PHASE_NOTE: &str = "absolute events_per_sec values are \
    host- and phase-dependent; compare ratios (speedup, compile_speedup) \
    within one artifact, never absolute rates across artifacts";

/// Renders the report as the `BENCH_cells.json` document.
pub fn render_json(cfg: &RunConfig, r: &TimingReport) -> String {
    let mut cells = String::new();
    for (i, ((t, s), n)) in r
        .parallel
        .timings
        .iter()
        .zip(&r.serial.timings)
        .zip(&r.interpreted.timings)
        .enumerate()
    {
        assert_eq!(
            (t.os, t.workload),
            (s.os, s.workload),
            "serial and parallel timings must list cells in the same order"
        );
        assert_eq!(
            (t.os, t.workload),
            (n.os, n.workload),
            "interpreted timings must list cells in the same order"
        );
        if i > 0 {
            cells.push_str(",\n");
        }
        // `serial_*` is the 1-worker reference for the same cell;
        // `speedup` is the per-cell serial/parallel wall ratio, the delta
        // regression tooling tracks across commits.
        // `batch_steps_per_dispatch` is steps executed per entry into the
        // kernel's inner step loop — >1 shows the batched fast-forward is
        // engaging for the cell. `compile_steps_per_dispatch` is the
        // compiled subset of the same ratio — >0 shows the superblock
        // walker is engaging; `interpreted_events_per_sec` is the same
        // cell's serial rate with compilation off.
        // `shards` / `shard_wall_s` / `shard_imbalance` describe how the
        // cell's window split for the 8 x K fan-out and how evenly its
        // pieces cost out. `samples_recorded` / `measure_events_per_sec`
        // are the serial cell's latency-sample count and rate through the
        // cycle-domain measurement fast path (DESIGN.md §12).
        // `batch_flushes` /
        // `samples_per_flush` / `staged_samples_per_sec` describe the
        // serial cell's SoA staging traffic (DESIGN.md §13; zeros under
        // `--no-batch-record`).
        let shard_walls = t
            .shard_wall_s
            .iter()
            .map(|&w| json_f64(w))
            .collect::<Vec<_>>()
            .join(", ");
        cells.push_str(&format!(
            "    {{\"os\": {}, \"workload\": {}, \"wall_s\": {}, \"sim_events\": {}, \
             \"events_per_sec\": {}, \"batch_steps_per_dispatch\": {}, \
             \"compile_steps_per_dispatch\": {}, \
             \"shards\": {}, \"shard_wall_s\": [{}], \"shard_imbalance\": {}, \
             \"serial_wall_s\": {}, \
             \"serial_events_per_sec\": {}, \"interpreted_events_per_sec\": {}, \
             \"samples_recorded\": {}, \"measure_events_per_sec\": {}, \
             \"batch_flushes\": {}, \"samples_per_flush\": {}, \
             \"staged_samples_per_sec\": {}, \
             \"speedup\": {}}}",
            json_str(t.os.name()),
            json_str(t.workload.name()),
            json_f64(t.wall_s),
            t.sim_events,
            json_f64(t.sim_events as f64 / t.wall_s.max(1e-9)),
            json_f64(t.steps_executed as f64 / t.step_dispatches.max(1) as f64),
            json_f64(t.compiled_steps as f64 / t.step_dispatches.max(1) as f64),
            t.shards(),
            shard_walls,
            json_f64(t.shard_imbalance()),
            json_f64(s.wall_s),
            json_f64(s.sim_events as f64 / s.wall_s.max(1e-9)),
            json_f64(n.sim_events as f64 / n.wall_s.max(1e-9)),
            s.samples_recorded,
            json_f64(s.samples_recorded as f64 / s.wall_s.max(1e-9)),
            s.batch_flushes,
            json_f64(s.staged_samples as f64 / s.batch_flushes.max(1) as f64),
            json_f64(s.staged_samples as f64 / s.wall_s.max(1e-9)),
            json_f64(s.wall_s / t.wall_s.max(1e-9))
        ));
    }
    let total_events: u64 = r.parallel.timings.iter().map(|t| t.sim_events).sum();
    let total_steps: u64 = r.parallel.timings.iter().map(|t| t.steps_executed).sum();
    let total_compiled: u64 = r.parallel.timings.iter().map(|t| t.compiled_steps).sum();
    let total_dispatches: u64 = r.parallel.timings.iter().map(|t| t.step_dispatches).sum();
    let total_samples: u64 = r.serial.timings.iter().map(|t| t.samples_recorded).sum();
    format!(
        "{{\n  \"artifact\": \"BENCH_cells\",\n  \"duration\": {},\n  \"seed\": {},\n  \
         \"threads\": {},\n  \"host_cores\": {},\n  \
         \"shards\": {},\n  \"repeats\": {},\n  \"compiled\": {},\n  \
         \"host_phase_note\": {},\n  \"shard_imbalance\": {},\n  \
         \"serial_wall_s\": {},\n  \"parallel_wall_s\": {},\n  \
         \"interpreted_serial_wall_s\": {},\n  \
         \"speedup\": {},\n  \"compile_speedup\": {},\n  \
         \"identical\": {},\n  \
         \"total_sim_events\": {},\n  \
         \"events_per_sec\": {},\n  \"serial_events_per_sec\": {},\n  \
         \"interpreted_serial_events_per_sec\": {},\n  \
         \"samples_recorded\": {},\n  \"measure_events_per_sec\": {},\n  \
         \"batch_flushes\": {},\n  \"samples_per_flush\": {},\n  \
         \"staged_samples_per_sec\": {},\n  \
         \"batch_steps_per_dispatch\": {},\n  \
         \"compile_steps_per_dispatch\": {},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        json_str(&format!("{:?}", cfg.duration)),
        cfg.seed,
        r.parallel.threads,
        crate::parallel::host_cores(),
        cfg.shards,
        r.repeats,
        cfg.compile,
        json_str(HOST_PHASE_NOTE),
        json_f64(r.grid_imbalance()),
        json_f64(r.serial.total_wall_s),
        json_f64(r.parallel.total_wall_s),
        json_f64(r.interpreted.total_wall_s),
        json_f64(r.speedup()),
        json_f64(r.compile_speedup()),
        r.identical,
        total_events,
        json_f64(total_events as f64 / r.parallel.total_wall_s.max(1e-9)),
        json_f64(total_events as f64 / r.serial.total_wall_s.max(1e-9)),
        json_f64(total_events as f64 / r.interpreted.total_wall_s.max(1e-9)),
        total_samples,
        json_f64(r.measure_events_per_sec()),
        r.batch_flushes(),
        json_f64(r.samples_per_flush()),
        json_f64(r.staged_samples_per_sec()),
        json_f64(total_steps as f64 / total_dispatches.max(1) as f64),
        json_f64(total_compiled as f64 / total_dispatches.max(1) as f64),
        cells
    )
}

/// Renders a human-readable summary for stdout alongside the JSON.
pub fn render_summary(r: &TimingReport) -> String {
    let total_jobs: usize = r.parallel.timings.iter().map(|t| t.shards()).sum();
    let mut out = format!(
        "Harness timing: 8 cells ({} shard jobs), best of {}: serial {:.2} s \
         vs {} threads {:.2} s ({:.2}x speedup, shard imbalance {:.2}) \
         vs interpreted serial {:.2} s ({:.2}x from compilation), \
         measure path {:.0} samples/s ({:.0} staged/flush), outputs {}\n\n",
        total_jobs,
        r.repeats,
        r.serial.total_wall_s,
        r.parallel.threads,
        r.parallel.total_wall_s,
        r.speedup(),
        r.grid_imbalance(),
        r.interpreted.total_wall_s,
        r.compile_speedup(),
        r.measure_events_per_sec(),
        r.samples_per_flush(),
        if r.identical {
            "identical"
        } else {
            "DIFFERENT (BUG)"
        }
    );
    out += &format!(
        "{:<16}{:<18}{:>10}{:>16}{:>14}{:>16}{:>14}{:>9}{:>12}{:>12}\n",
        "OS",
        "workload",
        "wall s",
        "sim events",
        "events/s",
        "serial ev/s",
        "interp ev/s",
        "speedup",
        "steps/disp",
        "comp/disp"
    );
    for ((t, s), n) in r
        .parallel
        .timings
        .iter()
        .zip(&r.serial.timings)
        .zip(&r.interpreted.timings)
    {
        out += &format!(
            "{:<16}{:<18}{:>10.2}{:>16}{:>14.0}{:>16.0}{:>14.0}{:>8.2}x{:>12.2}{:>12.2}\n",
            t.os.name(),
            t.workload.name(),
            t.wall_s,
            t.sim_events,
            t.sim_events as f64 / t.wall_s.max(1e-9),
            s.sim_events as f64 / s.wall_s.max(1e-9),
            n.sim_events as f64 / n.wall_s.max(1e-9),
            s.wall_s / t.wall_s.max(1e-9),
            t.steps_executed as f64 / t.step_dispatches.max(1) as f64,
            t.compiled_steps as f64 / t.step_dispatches.max(1) as f64
        );
    }
    out
}

/// Minimal JSON string escaping (names here are plain ASCII).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite f64 to JSON number (wall clocks and rates are always finite).
fn json_f64(x: f64) -> String {
    debug_assert!(x.is_finite());
    format!("{x:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Duration;

    #[test]
    fn timing_report_runs_and_renders() {
        let cfg = RunConfig {
            duration: Duration::Minutes(0.02),
            seed: 5,
            threads: 2,
            shards: 1,
            trace: false,
            compile: true,
            batch_record: true,
            blame: None,
            flame_hz: None,
        };
        let r = run(&cfg, None);
        assert!(
            r.identical,
            "serial, parallel and interpreted summaries must match"
        );
        assert_eq!(r.parallel.timings.len(), 8);
        assert_eq!(r.serial.timings.len(), 8);
        assert_eq!(r.interpreted.timings.len(), 8);
        let json = render_json(&cfg, &r);
        assert!(json.contains("\"artifact\": \"BENCH_cells\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"compiled\": true"));
        assert_eq!(json.matches("\"workload\":").count(), 8);
        // Shard metadata: one grid aggregate plus one entry per cell. A
        // 0.02-minute window cannot split, so every cell reports 1 shard
        // and perfect balance.
        assert!(json.contains("\"repeats\": 3"));
        assert_eq!(json.matches("\"shards\":").count(), 8 + 1);
        assert_eq!(json.matches("\"shard_wall_s\":").count(), 8);
        assert_eq!(json.matches("\"shard_imbalance\":").count(), 8 + 1);
        assert!(json.contains("\"shards\": 1"));
        for t in &r.parallel.timings {
            assert_eq!(t.shards(), 1);
            assert_eq!(t.shard_imbalance(), 1.0);
        }
        // Every cell carries its serial reference and per-cell speedup.
        assert_eq!(json.matches("\"serial_wall_s\":").count(), 8 + 1);
        assert_eq!(json.matches("\"serial_events_per_sec\":").count(), 8 + 1);
        assert_eq!(json.matches("\"speedup\":").count(), 8 + 1);
        // Per-cell batch/compile factors plus grid-wide aggregates, and
        // the host core count the speedup should be judged against.
        assert_eq!(json.matches("\"batch_steps_per_dispatch\":").count(), 8 + 1);
        assert_eq!(json.matches("\"compile_steps_per_dispatch\":").count(), 8 + 1);
        assert_eq!(json.matches("\"interpreted_events_per_sec\":").count(), 8);
        assert_eq!(
            json.matches("\"interpreted_serial_events_per_sec\":").count(),
            1
        );
        assert_eq!(json.matches("\"interpreted_serial_wall_s\":").count(), 1);
        assert_eq!(json.matches("\"compile_speedup\":").count(), 1);
        assert_eq!(json.matches("\"host_cores\":").count(), 1);
        // The host-phase caveat rides in the aggregate block; the
        // measurement-path rate has one aggregate plus per-cell entries.
        assert_eq!(json.matches("\"host_phase_note\":").count(), 1);
        assert!(json.contains("compare ratios"));
        assert_eq!(json.matches("\"samples_recorded\":").count(), 8 + 1);
        assert_eq!(json.matches("\"measure_events_per_sec\":").count(), 8 + 1);
        // Staging traffic: per-cell entries plus one grid aggregate each.
        assert_eq!(json.matches("\"batch_flushes\":").count(), 8 + 1);
        assert_eq!(json.matches("\"samples_per_flush\":").count(), 8 + 1);
        assert_eq!(json.matches("\"staged_samples_per_sec\":").count(), 8 + 1);
        // Every serial cell records samples through the fast path, stages
        // them all, and drains them in at least one (final) flush.
        for s in &r.serial.timings {
            assert!(
                s.samples_recorded > 0,
                "{} / {} cell recorded no latency samples",
                s.os.name(),
                s.workload.name()
            );
            assert!(
                s.batch_flushes > 0,
                "{} / {} cell never flushed its stage",
                s.os.name(),
                s.workload.name()
            );
            // Every counted series is fed through a stage, and the stages
            // also feed series the measurement does not keep (the RT-24
            // tool's results), so staged >= recorded.
            assert!(
                s.staged_samples >= s.samples_recorded,
                "{} / {} cell recorded samples outside the stage: {} staged, {} recorded",
                s.os.name(),
                s.workload.name(),
                s.staged_samples,
                s.samples_recorded
            );
        }
        // Batching must actually engage: every cell executes more than one
        // step per dispatch into the kernel's inner loop. Compilation must
        // engage on the compiled passes and stay out of the interpreted
        // one.
        for t in r.parallel.timings.iter().chain(&r.serial.timings) {
            assert!(
                t.steps_executed as f64 / t.step_dispatches.max(1) as f64 > 1.0,
                "{} / {} cell must batch: {} steps in {} dispatches",
                t.os.name(),
                t.workload.name(),
                t.steps_executed,
                t.step_dispatches
            );
            assert!(
                t.compiled_steps > 0,
                "{} / {} cell must run compiled steps",
                t.os.name(),
                t.workload.name()
            );
        }
        for t in &r.interpreted.timings {
            assert_eq!(
                t.compiled_steps,
                0,
                "{} / {} interpreted cell must not compile",
                t.os.name(),
                t.workload.name()
            );
        }
        let text = render_summary(&r);
        assert!(text.contains("identical"));
        assert!(text.contains("serial ev/s"));
        assert!(text.contains("interp ev/s"));
        assert!(text.contains("samples/s"));
        assert!(text.contains("staged/flush"));
        assert!(text.contains("steps/disp"));
        assert!(text.contains("comp/disp"));
    }

    #[test]
    fn json_escaping_handles_quotes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
