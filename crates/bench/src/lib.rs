#![warn(missing_docs)]

//! # wdm-bench — harnesses regenerating every table and figure
//!
//! One module per artifact family:
//!
//! - [`cells`] — shared OS x workload measurement runs;
//! - [`tables`] — Tables 1–4;
//! - [`figures`] — Figures 4–7;
//! - [`extras`] — the throughput check (§4.2), MTTF cross-validation
//!   (§6.1), schedulability analysis (§5.2) and the DESIGN.md ablations;
//! - [`parallel`] — deterministic scoped-thread fan-out for independent
//!   runs;
//! - [`progress`] — `--quiet`/`--verbose`-aware stderr reporting;
//! - [`spans`] — harness self-instrumentation spans for the trace;
//! - [`tracecmd`] — the `repro trace` / `repro metrics` artifacts
//!   (`TRACE_*.json`, `METRICS_cells.json`);
//! - [`forensics`] — the `repro blame` / `repro flame` artifacts
//!   (`BLAME_cells.json`, `TRACE_blame_*.json`, `FLAME_cells.folded`).
//!
//! The `repro` binary is the CLI. Host timing lives in `perfbench/`, the
//! repository benchmark, which links [`cells`] directly.

pub mod cells;
pub mod extras;
pub mod figures;
pub mod forensics;
pub mod output;
pub mod parallel;
pub mod progress;
pub mod spans;
pub mod tables;
pub mod tracecmd;

pub use cells::{measure_all, measure_all_timed, AllCells, Duration, RunConfig, TimedCells};
