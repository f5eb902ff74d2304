#![warn(missing_docs)]

//! # wdm-latency — the paper's latency measurement methodology
//!
//! The primary contribution of *"A Comparison of Windows Driver Model
//! Latency Performance on Windows NT and Windows 98"*: microbenchmarks that
//! measure the **distribution of individual OS service times under load**,
//! rather than averages on an idle system.
//!
//! - [`tool`] — the WDM measurement drivers of §2.2 (Figure 3): a PIT-driven
//!   timer whose DPC signals real-time threads at priority 28 and 24, with
//!   timestamps returned through IRPs; plus a ground-truth collector using
//!   simulator instrumentation.
//! - [`histogram`] / [`worstcase`] — log-binned distributions (the Figure 4
//!   axes) and expected hourly/daily/weekly worst cases (Table 3).
//! - [`cause`] — the latency *cause* tool of §2.3: an IDT hook sampling the
//!   interrupted context every tick, dumping a circular buffer on long
//!   latencies, and symbolizing the samples into episode traces (Table 4).
//! - [`blame`] — tail-episode forensics (DESIGN.md §15): cycle-exact blame
//!   decomposition of triggered latency samples, with a bounded episode
//!   store of flight-ring captures rendered as Perfetto traces.
//! - [`report`] — text renderers for the figures and tables.
//! - [`session`] — one-call measurement of a composed scenario: the
//!   harness used by `repro`, perfbench and the examples.

pub mod blame;
pub mod cause;
pub mod histogram;
pub mod interactive;
pub mod microbench;
pub mod report;
pub mod session;
pub mod stage;
pub mod tool;
pub mod worstcase;

pub use blame::{BlameEpisode, BlameOptions, BlameRecorder, BlameSummary, BlameTrigger};
pub use cause::{CauseTool, Episode};
pub use histogram::LatencyHistogram;
pub use interactive::InteractiveProbe;
pub use microbench::{render_comparison, run_microbench, Microbench};
pub use session::{measure_scenario, ScenarioMeasurement};
pub use stage::SampleStage;
pub use tool::{LatencyTool, MeasurementSession, ToolResults, TruthCollector};
pub use worstcase::{worst_cases, LatencySeries, WorstCases};
