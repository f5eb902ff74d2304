//! The three benchmark workloads and the run configuration each one
//! hands to the production grid entry point.

use wdm_bench::cells::{Duration, RunConfig};
use wdm_latency::BlameOptions;
use wdm_osmodel::personality::OsKind;
use wdm_workloads::WorkloadKind;

/// The window of the committed digest baseline (`artifacts/CELL_digests.txt`).
pub const COMMITTED_MINUTES: f64 = 0.2;
/// The seed of the committed digest baseline (the `repro` default).
pub const COMMITTED_SEED: u64 = 1999;

/// A benchmark workload: one closed-loop batch job over the 8-cell grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper grid, unsharded, on one worker.
    GridSerial,
    /// The same grid in whole-minute shards fanned out over two workers.
    GridSharded,
    /// The grid with `repro blame`'s default trigger armed.
    ForensicsArmed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GridSerial,
        Workload::GridSharded,
        Workload::ForensicsArmed,
    ];

    /// The workload's name as `BENCHMARK.json` declares it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSerial => "grid_serial",
            Workload::GridSharded => "grid_sharded",
            Workload::ForensicsArmed => "forensics_armed",
        }
    }

    /// Parses a declared workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Simulated minutes per cell. `quick` is the tiny window the
    /// benchmark's own tests use.
    pub fn minutes(self, quick: bool) -> f64 {
        match (self, quick) {
            (Workload::GridSerial, false) => 2.0,
            (Workload::GridSharded, false) => 3.0,
            (Workload::ForensicsArmed, false) => 0.1,
            (Workload::GridSerial, true) => 0.05,
            // Two whole minutes is the shortest window that still shards.
            (Workload::GridSharded, true) => 2.0,
            (Workload::ForensicsArmed, true) => 0.02,
        }
    }

    /// Time shards per cell.
    pub fn shards(self, quick: bool) -> usize {
        match self {
            Workload::GridSharded => self.minutes(quick) as usize,
            _ => 1,
        }
    }

    /// Worker threads; never more than the two cores the benchmark is
    /// sized for.
    pub fn threads(self) -> usize {
        match self {
            Workload::GridSharded => 2,
            _ => 1,
        }
    }

    /// The workload's production run configuration: default options
    /// except its window, shards, threads and forensics.
    pub fn config(self, seed: u64, quick: bool) -> RunConfig {
        RunConfig {
            duration: Duration::Minutes(self.minutes(quick)),
            seed,
            threads: self.threads(),
            shards: self.shards(quick),
            blame: (self == Workload::ForensicsArmed).then(BlameOptions::default),
            ..RunConfig::default()
        }
    }

    /// The workload's configuration on the committed digest window. A
    /// sub-minute window never shards, so every workload must reproduce
    /// `artifacts/CELL_digests.txt` here (forensics armed included).
    pub fn committed_config(self) -> RunConfig {
        RunConfig {
            duration: Duration::Minutes(COMMITTED_MINUTES),
            ..self.config(COMMITTED_SEED, false)
        }
    }
}

/// The 8 grid cells in production order: NT first, paper workload order.
pub fn grid_cells() -> Vec<(OsKind, WorkloadKind)> {
    [OsKind::Nt4, OsKind::Win98]
        .into_iter()
        .flat_map(|os| WorkloadKind::ALL.into_iter().map(move |w| (os, w)))
        .collect()
}

/// Stable lowercase cell label, e.g. `nt4_business`.
pub fn cell_label(os: OsKind, w: WorkloadKind) -> String {
    format!("{os:?}_{w:?}").to_lowercase()
}
