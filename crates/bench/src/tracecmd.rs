//! The `repro trace` and `repro metrics` artifacts.
//!
//! `trace` re-runs the 8-cell grid with a flight recorder attached to each
//! cell and the harness span sink enabled, then writes Chrome trace-event
//! JSON: one `TRACE_<os>_<workload>.json` per cell plus a combined
//! `TRACE_cells.json` holding every cell (pid 2+) *and* the harness's own
//! cell/shard/merge spans (pid 1) so shard imbalance is visible in the
//! same timeline. The files load directly in Perfetto.
//!
//! `metrics` runs the grid untraced and renders every cell's unified
//! [`wdm_sim::metrics::MetricsSnapshot`] as `METRICS_cells.json`. Metrics
//! are merged exactly across shards (counters sum, histograms add
//! bin-wise), so the file is identical for any `--shards`-compatible
//! streamed run and deterministic enough for CI to diff against a
//! committed reference.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use wdm_sim::flight::write_chrome_document;

use crate::{
    cells::{measure_all_timed, AllCells, Duration, RunConfig, TimedCells},
    spans,
};

/// `nt4_business`-style file-name stem for a cell.
pub fn cell_stem(m: &wdm_latency::session::ScenarioMeasurement) -> String {
    format!("{:?}_{:?}", m.os, m.workload).to_lowercase()
}

/// Renders `METRICS_cells.json`: run parameters plus each cell's metrics
/// snapshot, NT first, paper workload order.
pub fn render_metrics_json(cfg: &RunConfig, cells: &AllCells) -> String {
    let minutes = match cfg.duration {
        Duration::Minutes(m) => m,
        Duration::FullCollection => -1.0, // sentinel: full §3.1 durations
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"minutes_per_cell\": {minutes},\n"));
    out.push_str(&format!("  \"shards\": {},\n", cfg.shards));
    out.push_str("  \"cells\": [\n");
    let all: Vec<_> = cells.nt.iter().chain(&cells.win98).collect();
    for (i, m) in all.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"os\": \"{:?}\", \"workload\": \"{:?}\", \"metrics\": {}}}{}\n",
            m.os,
            m.workload,
            m.metrics.to_json("    "),
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the traced grid and writes the per-cell and combined trace files
/// into `dir`. Returns the paths written, cell files first.
pub fn run_trace(cfg: &RunConfig, dir: &Path) -> io::Result<(TimedCells, Vec<PathBuf>)> {
    spans::enable();
    let traced = RunConfig {
        trace: true,
        ..*cfg
    };
    let t = measure_all_timed(&traced);
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let cells = || t.cells.nt.iter().chain(&t.cells.win98);
    for m in cells() {
        let path = dir.join(format!("TRACE_{}.json", cell_stem(m)));
        write_trace(&path, &m.trace_events)?;
        written.push(path);
    }
    let harness = spans::drain();
    let path = dir.join("TRACE_cells.json");
    write_trace(&path, cells().flat_map(|m| &m.trace_events).chain(&harness))?;
    written.push(path);
    Ok((t, written))
}

/// Streams `events` to `path` as one trace document: the cells' rendered
/// events are written where they lie, never joined or copied.
fn write_trace<'a>(path: &Path, events: impl IntoIterator<Item = &'a String>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_chrome_document(&mut w, events)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RunConfig {
        RunConfig {
            duration: Duration::Minutes(0.05),
            seed: 7,
            threads: 1,
            ..RunConfig::default()
        }
    }

    #[test]
    fn metrics_json_lists_all_cells_with_sim_counters() {
        let t = measure_all_timed(&tiny_cfg());
        let j = render_metrics_json(&tiny_cfg(), &t.cells);
        assert_eq!(j.matches("\"metrics\":").count(), 8);
        assert!(j.contains("\"sim.events\""));
        assert!(j.contains("\"latency.ops_completed\""));
        assert!(j.contains("\"latency.hist.thread_lat_28_ms\""));
        assert!(j.contains("\"os\": \"Nt4\"") && j.contains("\"os\": \"Win98\""));
        let depth = j.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "balanced json");
    }

    #[test]
    fn traced_grid_writes_per_cell_and_combined_files() {
        let dir = std::env::temp_dir().join(format!("wdm_trace_test_{}", std::process::id()));
        let (t, files) = run_trace(&tiny_cfg(), &dir).expect("trace run");
        assert_eq!(files.len(), 9, "8 cell files + combined");
        for m in t.cells.nt.iter().chain(&t.cells.win98) {
            assert!(!m.trace_events.is_empty(), "recorder captured events");
        }
        let combined = std::fs::read_to_string(dir.join("TRACE_cells.json")).unwrap();
        assert!(combined.starts_with("{\"traceEvents\":["));
        assert!(combined.contains("\"repro harness\""));
        assert!(combined.contains("\"ph\":\"X\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
