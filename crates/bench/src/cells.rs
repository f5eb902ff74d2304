//! Measurement-cell management: one cell = one OS x workload run.
//!
//! The expensive part of every figure/table is collecting the latency
//! distributions; this module runs the 8 cells once (at quick or full
//! paper-equivalent durations) so the renderers can share them.

use wdm_latency::session::{measure_scenario, FlightOptions, MeasureOptions, ScenarioMeasurement};
use wdm_osmodel::personality::OsKind;
use wdm_workloads::{UsageModel, WorkloadKind};

use crate::{progress, spans};

/// How long to simulate each cell.
#[derive(Debug, Clone, Copy)]
pub enum Duration {
    /// A fixed number of simulated minutes per cell (quick mode).
    Minutes(f64),
    /// The paper's full collection time per workload (§3.1): 4 h Business,
    /// 6 h Workstation, 12.5 h Games, 8 h Web.
    FullCollection,
}

impl Duration {
    /// Simulated hours for a workload under this policy.
    pub fn hours_for(&self, w: WorkloadKind) -> f64 {
        match self {
            Duration::Minutes(m) => m / 60.0,
            Duration::FullCollection => UsageModel::of(w).collect_hours_per_week(),
        }
    }

    /// Simulated minutes for a workload (the shard planner's unit: block
    /// maxima use one-minute blocks, so shard boundaries fall on minutes).
    pub fn minutes_for(&self, w: WorkloadKind) -> f64 {
        match self {
            Duration::Minutes(m) => *m,
            Duration::FullCollection => UsageModel::of(w).collect_hours_per_week() * 60.0,
        }
    }
}

/// Run configuration shared by all harnesses.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Per-cell duration policy.
    pub duration: Duration,
    /// Base RNG seed; each cell perturbs it deterministically.
    pub seed: u64,
    /// Worker threads for independent simulation runs; 0 = one per
    /// available core. Any value produces byte-identical output — each run
    /// seeds from the job alone and results are collected in job order.
    pub threads: usize,
    /// Time shards per cell (>= 1). Each cell's collection window splits
    /// into up to this many independent whole-minute simulations, fanned
    /// out alongside the cells themselves and merged exactly (DESIGN.md
    /// §9). `1` is the classic single-simulation path, bit-identical to
    /// the pre-shard harness; a given `shards` value is bit-identical at
    /// every thread count.
    pub shards: usize,
    /// Attach a flight recorder to every cell and keep its Chrome trace
    /// events in the measurements. Read-only instrumentation: every
    /// measured value and `summary_digest` stay bit-identical with this on
    /// or off (CI asserts it).
    pub trace: bool,
    /// Arm tail-episode forensics on every cell (`repro blame`): blame
    /// decomposition plus a bounded episode store of flight-ring captures
    /// (DESIGN.md §15). Digest-neutral: the episode payloads ride their
    /// own fields and `summary_digest` never reads them (CI's digest-smoke
    /// job asserts the digests stay bit-identical with this armed).
    pub blame: Option<wdm_latency::BlameOptions>,
    /// Arm the virtual-time flame sampler at this rate in samples per
    /// simulated second (`repro flame`). Digest-neutral like `blame`.
    pub flame_hz: Option<f64>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            duration: Duration::Minutes(2.0),
            seed: 1999, // OSDI '99.
            threads: 0,
            shards: 1,
            trace: false,
            blame: None,
            flame_hz: None,
        }
    }
}

impl RunConfig {
    /// The measurement-tool options for one cell under this config —
    /// defaults plus a flight recorder (pid'd per cell) when tracing.
    pub fn measure_opts(&self, os: OsKind, w: WorkloadKind) -> MeasureOptions {
        MeasureOptions {
            flight: self.trace.then(|| FlightOptions {
                pid: cell_pid(os, w),
                ..FlightOptions::default()
            }),
            blame: self.blame,
            flame_hz: self.flame_hz,
            ..MeasureOptions::default()
        }
    }
}

/// Stable Chrome trace-event process id for a cell. Pid 1 is the harness
/// itself ([`crate::spans`]); cells follow in grid order so the combined
/// trace groups one process per cell.
pub fn cell_pid(os: OsKind, w: WorkloadKind) -> u64 {
    let os_ix = match os {
        OsKind::Nt4 => 0,
        OsKind::Win98 => 1,
        OsKind::Win2000 => 2,
    };
    let w_ix = WorkloadKind::ALL.iter().position(|&x| x == w).unwrap() as u64;
    2 + os_ix * WorkloadKind::ALL.len() as u64 + w_ix
}

/// Deterministic per-cell seed.
pub fn cell_seed(base: u64, os: OsKind, w: WorkloadKind) -> u64 {
    let os_ix = match os {
        OsKind::Nt4 => 1,
        OsKind::Win98 => 2,
        OsKind::Win2000 => 3,
    };
    let w_ix = WorkloadKind::ALL.iter().position(|&x| x == w).unwrap() as u64;
    base.wrapping_mul(1_000_003) ^ (os_ix * 97) ^ (w_ix * 1009)
}

/// Deterministic per-shard seed: an splitmix64-style finalizer over the
/// cell seed and shard index. Used only when a cell actually splits
/// (`shards > 1`), so every shard's RNG stream is independent of the other
/// shards *and* of the unsharded cell stream (shard 0 is not the prefix of
/// a `--shards 1` run; the two are statistically, not bitwise, comparable).
pub fn shard_seed(cell_seed: u64, shard_ix: usize) -> u64 {
    let mut z = cell_seed ^ (shard_ix as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `minutes` of collection into at most `shards` pieces whose
/// boundaries all fall on whole minutes (the block-maxima granularity, so
/// per-shard blocks concatenate exactly). Whole minutes distribute as
/// evenly as possible, earlier shards taking the remainder; a fractional
/// tail rides on the last shard. Windows shorter than two whole minutes
/// cannot split and return a single shard.
pub fn shard_plan(minutes: f64, shards: usize) -> Vec<f64> {
    let whole = (minutes + 1e-9).floor() as usize;
    let k = shards.max(1).min(whole.max(1));
    if k <= 1 {
        return vec![minutes];
    }
    let (q, r) = (whole / k, whole % k);
    let mut plan: Vec<f64> = (0..k).map(|i| (q + usize::from(i < r)) as f64).collect();
    *plan.last_mut().expect("k >= 1") += (minutes - whole as f64).max(0.0);
    plan
}

/// One independent simulation job: a whole cell, or one time shard of it.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// RNG seed for this shard's simulation.
    pub seed: u64,
    /// Simulated hours this shard collects.
    pub hours: f64,
    /// Whole minutes to close the block-maxima windows at after the run
    /// (`None` on the classic single-shard path, which leaves the final
    /// in-progress block open exactly as the pre-shard harness did).
    pub close_minutes: Option<usize>,
}

/// The shard jobs for one cell under `cfg`, in time order. A single entry
/// (with the cell's own seed and no block closing) when the cell does not
/// split — that path is bit-identical to the pre-shard harness.
pub fn cell_shards(cfg: &RunConfig, os: OsKind, w: WorkloadKind) -> Vec<ShardSpec> {
    let base = cell_seed(cfg.seed, os, w);
    let plan = shard_plan(cfg.duration.minutes_for(w), cfg.shards);
    if plan.len() <= 1 {
        return vec![ShardSpec {
            seed: base,
            hours: cfg.duration.hours_for(w),
            close_minutes: None,
        }];
    }
    plan.iter()
        .enumerate()
        .map(|(i, &m)| ShardSpec {
            seed: shard_seed(base, i),
            hours: m / 60.0,
            close_minutes: Some((m + 1e-9).floor() as usize),
        })
        .collect()
}

/// Runs one shard job with the given tool options.
pub fn measure_shard(
    spec: &ShardSpec,
    os: OsKind,
    w: WorkloadKind,
    opts: &MeasureOptions,
) -> ScenarioMeasurement {
    let mut m = measure_scenario(os, w, spec.seed, spec.hours, opts);
    if let Some(minutes) = spec.close_minutes {
        m.close_blocks(minutes);
    }
    m
}

/// Measures one cell under `cfg`'s tool options, honoring `cfg.shards`
/// (shards run serially here; [`measure_all_timed`] fans them out).
pub fn measure_cell(cfg: &RunConfig, os: OsKind, w: WorkloadKind) -> ScenarioMeasurement {
    let specs = cell_shards(cfg, os, w);
    let opts = cfg.measure_opts(os, w);
    let shards = specs
        .iter()
        .map(|s| measure_shard(s, os, w, &opts))
        .collect();
    assemble_cell(cfg, &specs, shards)
}

/// Merges one cell's shard measurements (one per spec, time order) into the
/// cell measurement through [`ScenarioMeasurement::merge_shard_at`], each
/// shard at the whole-minute offset the shards before it closed, then
/// re-ranks the blame episodes ([`finish_blame`]). An open tail shard is
/// simply the last merge.
fn assemble_cell(
    cfg: &RunConfig,
    specs: &[ShardSpec],
    shards: Vec<ScenarioMeasurement>,
) -> ScenarioMeasurement {
    assert_eq!(specs.len(), shards.len(), "one measurement per shard spec");
    let mut shards = shards.into_iter();
    let mut m = shards.next().expect("a cell has at least one shard");
    // Each shard starts where the shards before it closed their blocks.
    let mut offset = 0;
    for (before, shard) in specs.iter().zip(shards) {
        offset += before.close_minutes.unwrap_or(0);
        m.merge_shard_at(offset, shard);
    }
    finish_blame(&mut m, cfg);
    m
}

/// Re-ranks a merged cell's per-shard episode retentions into the cell's
/// global top-K: stable sort by latency descending (ties keep shard/time
/// order, so the earlier episode wins exactly as in the per-shard store),
/// then truncate to the per-cell cap. Each shard already kept at most the
/// cap, so the concatenation holds every global top-K candidate. Episodes
/// the truncation drops count as evicted, so `triggered == retained +
/// evicted` holds at any shard count.
pub fn finish_blame(m: &mut ScenarioMeasurement, cfg: &RunConfig) {
    if let Some(opts) = cfg.blame {
        let cap = opts.capacity();
        m.blame_episodes.sort_by_key(|e| std::cmp::Reverse(e.0));
        let dropped = m.blame_episodes.len().saturating_sub(cap) as u64;
        m.blame_episodes.truncate(cap);
        let evicted = m
            .metrics
            .counter_value("latency.blame.evicted")
            .unwrap_or(0);
        m.metrics
            .counter("latency.blame.evicted", evicted + dropped);
        m.metrics
            .counter("latency.blame.retained", m.blame_episodes.len() as u64);
    }
}

/// All 8 cells (2 OSs x 4 workloads), NT first, paper workload order.
pub struct AllCells {
    /// NT 4.0 cells in workload order.
    pub nt: Vec<ScenarioMeasurement>,
    /// Windows 98 cells in workload order.
    pub win98: Vec<ScenarioMeasurement>,
}

/// Measures all 8 cells, fanned out over `cfg.threads` workers.
pub fn measure_all(cfg: &RunConfig) -> AllCells {
    measure_all_timed(cfg).cells
}

/// Wall-clock cost and work counters of one measured cell, the per-cell
/// input of the repository benchmark's ledger (`perfbench/`).
pub struct CellTiming {
    /// Which OS ran.
    pub os: OsKind,
    /// Which stress load ran.
    pub workload: WorkloadKind,
    /// Host wall-clock seconds the cell took (summed over its shards: the
    /// cell's total compute, not its critical path).
    pub wall_s: f64,
    /// Simulator decision-loop iterations the cell executed.
    pub sim_events: u64,
    /// Program steps the cell's kernel executed.
    pub steps_executed: u64,
    /// Calls of the kernel's step functions (one step per thread call; an
    /// ISR or DPC call runs its service steps back to back). Perfbench
    /// reports `steps_executed / step_dispatches` over the grid as
    /// `kernel.steps_per_dispatch`.
    pub step_dispatches: u64,
    /// Always 0: the kernel has one step executor, the interpreter. Kept
    /// because perfbench still reports `compiled_steps / steps_executed`
    /// as `compile.compiled_step_share`.
    pub compiled_steps: u64,
    /// Latency samples recorded across the cell's 11 measurement series.
    /// Perfbench reports `samples_recorded / sim_events` over the grid as
    /// `latency.samples_per_event`.
    pub samples_recorded: u64,
    /// Staging-buffer flushes across the cell's collectors (summed exactly
    /// over shards via the `latency.batch_flushes` counter).
    pub batch_flushes: u64,
    /// Samples that went through the staging buffers; equal to
    /// `samples_recorded`, since only returned series are staged.
    /// Perfbench reports `staged_samples / batch_flushes` over the grid as
    /// `latency.samples_per_flush`.
    pub staged_samples: u64,
    /// Wall-clock seconds of each shard, time order (one entry on the
    /// unsharded path). Perfbench reports the max/mean over every shard
    /// of the grid ([`shard_imbalance`]) as `fanout.imbalance`, so
    /// load-balance losses in the 8 x K fan-out are visible.
    pub shard_wall_s: Vec<f64>,
}

impl CellTiming {
    /// Shards this cell actually split into.
    pub fn shards(&self) -> usize {
        self.shard_wall_s.len()
    }

    /// Max shard wall over mean shard wall (1.0 = perfectly balanced; the
    /// scheduler can hide anything below `shards / busy_workers`).
    pub fn shard_imbalance(&self) -> f64 {
        shard_imbalance(&self.shard_wall_s)
    }
}

/// Max/mean ratio of a wall-clock list (1.0 for empty or single entries).
pub fn shard_imbalance(walls: &[f64]) -> f64 {
    if walls.len() <= 1 {
        return 1.0;
    }
    let max = walls.iter().cloned().fold(0.0, f64::max);
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    max / mean.max(1e-12)
}

/// The 8 cells plus harness timing metadata: the input of the repository
/// benchmark (`perfbench/`) and of `repro trace`.
pub struct TimedCells {
    /// The measurements, paper order.
    pub cells: AllCells,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole grid.
    pub total_wall_s: f64,
    /// Per-cell timings, NT first, paper workload order.
    pub timings: Vec<CellTiming>,
}

/// Measures all 8 cells and records per-cell wall-clock cost.
///
/// Every cell expands into its shard jobs first, so the worker pool sees the
/// flat 8 x K job list (shards are independent simulations just like cells —
/// each seeds from its [`ShardSpec`] alone). Results come back in job order
/// and each cell's shards merge in time order, the same merge
/// [`measure_cell`] runs, so the output is byte-identical at any thread
/// count.
pub fn measure_all_timed(cfg: &RunConfig) -> TimedCells {
    let cells: Vec<(OsKind, WorkloadKind, Vec<ShardSpec>)> = [OsKind::Nt4, OsKind::Win98]
        .into_iter()
        .flat_map(|os| WorkloadKind::ALL.into_iter().map(move |w| (os, w)))
        .map(|(os, w)| (os, w, cell_shards(cfg, os, w)))
        .collect();
    // (cell index, shard index), cell-major: each cell's shards in time order.
    let jobs: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(ci, (_, _, specs))| (0..specs.len()).map(move |si| (ci, si)))
        .collect();
    let threads = crate::parallel::effective_threads(cfg.threads, jobs.len());
    let t0 = std::time::Instant::now();
    let _grid = spans::span("measure grid");
    let results = crate::parallel::parallel_map(jobs.len(), threads, |i| {
        let (ci, si) = jobs[i];
        let (os, w, ref specs) = cells[ci];
        let scope = format!("cell {:?}/{:?} shard {}/{}", os, w, si + 1, specs.len());
        progress::detail(&scope, "measuring");
        let _span = spans::span(&scope);
        let t = std::time::Instant::now();
        let m = measure_shard(&specs[si], os, w, &cfg.measure_opts(os, w));
        let wall_s = t.elapsed().as_secs_f64();
        progress::detail(&scope, &format!("done in {wall_s:.2}s"));
        (m, wall_s)
    });
    let total_wall_s = t0.elapsed().as_secs_f64();
    drop(_grid);

    let _merge = spans::span("merge shards");
    let mut results = results.into_iter();
    let mut timings = Vec::with_capacity(cells.len());
    let mut nt = Vec::new();
    let mut win98 = Vec::new();
    for (os, workload, specs) in cells {
        let (shards, shard_wall_s): (Vec<_>, Vec<f64>) = results.by_ref().take(specs.len()).unzip();
        let mut m = assemble_cell(cfg, &specs, shards);
        timings.push(CellTiming {
            os,
            workload,
            wall_s: shard_wall_s.iter().sum(),
            sim_events: m.sim_events,
            steps_executed: m.steps_executed,
            step_dispatches: m.step_dispatches,
            compiled_steps: 0,
            samples_recorded: m.samples_recorded(),
            batch_flushes: m
                .metrics
                .counter_value("latency.batch_flushes")
                .unwrap_or(0),
            staged_samples: m
                .metrics
                .counter_value("latency.staged_samples")
                .unwrap_or(0),
            shard_wall_s,
        });
        match os {
            OsKind::Nt4 => nt.push(m),
            _ => win98.push(m),
        }
    }
    TimedCells {
        cells: AllCells { nt, win98 },
        threads,
        total_wall_s,
        timings,
    }
}

/// A complete, exact textual digest of a measurement's summary statistics:
/// per-series sample counts, bin counts and extreme values (as exact f64
/// bits), plus the run's counters. Two runs are observably identical for
/// every renderer in this crate iff their digests match — `repro digest`,
/// the determinism tests and perfbench's correctness gate compare these
/// across thread counts and flag sets.
pub fn summary_digest(m: &ScenarioMeasurement) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(
        out,
        "{:?}/{:?} hours={}",
        m.os,
        m.workload,
        m.collected_hours.to_bits()
    );
    let mut series = |name: &str, s: &wdm_latency::worstcase::LatencySeries| {
        let _ = write!(
            out,
            " {name}:count={},max={},min={},mean={},bins={:?}",
            s.hist.count(),
            s.hist.max_ms().to_bits(),
            s.hist.min_ms().to_bits(),
            s.hist.mean_ms().to_bits(),
            s.hist.counts()
        );
    };
    series("int_to_isr", &m.int_to_isr);
    series("int_to_isr_all", &m.int_to_isr_all_ticks);
    series("isr_to_dpc", &m.isr_to_dpc);
    series("int_to_dpc", &m.int_to_dpc);
    series("dpc_lat", &m.dpc_lat);
    series("thr_lat_28", &m.thread_lat_28);
    series("thr_int_28", &m.thread_int_28);
    series("thr_lat_24", &m.thread_lat_24);
    series("thr_int_24", &m.thread_int_24);
    series("tool_d2t_28", &m.tool_dpc_to_thread_28);
    series("tool_est_i2d", &m.tool_est_int_to_dpc);
    let _ = write!(
        out,
        " ops={} waits24={} waits28={} sim_events={} episodes={}",
        m.ops_completed,
        m.waits_24,
        m.waits_28,
        m.sim_events,
        m.episodes.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_collection_hours_match_paper() {
        let d = Duration::FullCollection;
        assert!((d.hours_for(WorkloadKind::Business) - 4.0).abs() < 1e-9);
        assert!((d.hours_for(WorkloadKind::Games) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for os in OsKind::ALL {
            for w in WorkloadKind::ALL {
                assert!(seen.insert(cell_seed(7, os, w)));
            }
        }
    }

    #[test]
    fn quick_cell_measures() {
        let cfg = RunConfig {
            duration: Duration::Minutes(0.05),
            seed: 3,
            ..RunConfig::default()
        };
        let m = measure_cell(&cfg, OsKind::Nt4, WorkloadKind::Web);
        // Every-tick series sees ~3k samples in 3 s; the per-round series
        // is bounded by tool cadence.
        assert!(m.int_to_isr_all_ticks.hist.count() > 1000);
        assert!(m.int_to_isr.hist.count() > 200);
    }

    #[test]
    fn shard_plan_covers_the_window_on_whole_minute_boundaries() {
        for &(minutes, shards) in &[
            (4.0, 4),
            (5.0, 2),
            (7.3, 3),
            (12.5 * 60.0, 8),
            (1.0, 4),
            (0.2, 4),
        ] {
            let plan = shard_plan(minutes, shards);
            assert!(plan.len() <= shards.max(1));
            let total: f64 = plan.iter().sum();
            assert!((total - minutes).abs() < 1e-6, "plan {plan:?} loses time");
            // Every boundary between shards falls on a whole minute.
            let mut edge = 0.0;
            for &m in &plan[..plan.len() - 1] {
                edge += m;
                assert!((edge - edge.round()).abs() < 1e-6, "edge {edge} not whole");
                assert!(m >= 1.0 - 1e-9, "empty shard in {plan:?}");
            }
        }
    }

    #[test]
    fn sub_minute_windows_never_split() {
        assert_eq!(shard_plan(0.2, 16), vec![0.2]);
        assert_eq!(shard_plan(1.0, 3), vec![1.0]);
    }

    #[test]
    fn shard_seeds_are_distinct_from_each_other_and_the_cell_seed() {
        let base = cell_seed(1999, OsKind::Nt4, WorkloadKind::Business);
        let mut seen = std::collections::HashSet::from([base]);
        for i in 0..64 {
            assert!(seen.insert(shard_seed(base, i)));
        }
    }

    #[test]
    fn single_shard_spec_is_the_legacy_path() {
        let cfg = RunConfig {
            duration: Duration::Minutes(0.2),
            seed: 1999,
            threads: 1,
            shards: 8,
            ..RunConfig::default()
        };
        // Sub-minute window: exactly one shard with the cell's own seed and
        // no block closing, i.e. the pre-shard harness.
        let specs = cell_shards(&cfg, OsKind::Win98, WorkloadKind::Games);
        assert_eq!(specs.len(), 1);
        assert_eq!(
            specs[0].seed,
            cell_seed(1999, OsKind::Win98, WorkloadKind::Games)
        );
        assert_eq!(specs[0].close_minutes, None);
    }

    #[test]
    fn sharded_cell_measures_and_totals_the_window() {
        let cfg = RunConfig {
            duration: Duration::Minutes(2.0),
            seed: 5,
            threads: 1,
            shards: 2,
            ..RunConfig::default()
        };
        let specs = cell_shards(&cfg, OsKind::Nt4, WorkloadKind::Business);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].close_minutes, Some(1));
        let m = measure_cell(&cfg, OsKind::Nt4, WorkloadKind::Business);
        assert!((m.collected_hours - 2.0 / 60.0).abs() < 1e-9);
        // Two closed one-minute shards concatenate to two completed blocks.
        assert_eq!(m.int_to_isr_all_ticks.blocks.maxima().len(), 2);
        assert!(m.int_to_isr_all_ticks.hist.count() > 1000);
    }

    #[test]
    fn sharded_blame_counts_every_dropped_episode() {
        let cfg = RunConfig {
            duration: Duration::Minutes(2.0),
            seed: 5,
            threads: 1,
            shards: 2,
            blame: Some(wdm_latency::BlameOptions::default()),
            ..RunConfig::default()
        };
        assert_eq!(cell_shards(&cfg, OsKind::Nt4, WorkloadKind::Games).len(), 2);
        let m = measure_cell(&cfg, OsKind::Nt4, WorkloadKind::Games);
        let c = |name: &str| m.metrics.counter_value(name).expect(name);
        let retained = m.blame_episodes.len() as u64;
        // Each shard kept its own top 4; the re-rank keeps 4 of those 8
        // and must count the other 4 as evicted.
        assert_eq!(retained, 4);
        assert_eq!(c("latency.blame.retained"), retained);
        assert_eq!(
            c("latency.blame.triggered"),
            retained + c("latency.blame.evicted")
        );
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(shard_imbalance(&[]), 1.0);
        assert_eq!(shard_imbalance(&[3.0]), 1.0);
        assert!((shard_imbalance(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }
}
