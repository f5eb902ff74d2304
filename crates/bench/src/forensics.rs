//! The `repro blame` and `repro flame` artifacts (DESIGN.md §15).
//!
//! `blame` re-runs the 8-cell grid with tail-episode forensics armed and
//! writes `BLAME_cells.json` — run parameters, per-cell blame counters
//! (merged exactly across shards through the metrics registry), and the
//! retained episodes' summary records — plus one
//! `TRACE_blame_<os>_<workload>_<k>.json` Perfetto document per retained
//! episode, with the episode window highlighted on its own track.
//!
//! `flame` re-runs the grid with the virtual-time sampling profiler armed
//! and writes `FLAME_cells.folded`: collapsed stacks in the
//! `stack;frames count` format consumed by inferno / flamegraph.pl, with
//! each cell's stacks rooted at its `<os>_<workload>` stem so one file
//! holds the whole grid.
//!
//! Both artifacts are digest-neutral: the forensic payloads ride their own
//! measurement fields and CI's digest-smoke job diffs `repro digest`
//! bit-for-bit against the committed baseline with forensics armed.

use std::io;
use std::path::{Path, PathBuf};

use wdm_latency::BlameTrigger;

use crate::{
    cells::{measure_all, AllCells, Duration, RunConfig},
    tracecmd::cell_stem,
};

/// The blame counters mirrored into `BLAME_cells.json`, in file order.
const COMPONENTS: [&str; 7] = [
    "isr", "dpc", "masked", "dispatch", "preempt", "quantum", "idle",
];

/// `"topk"` / `"threshold"` / `"blockmax"` — the trigger name used in both
/// the CLI (`--blame-mode`) and `BLAME_cells.json`.
pub fn trigger_name(t: BlameTrigger) -> &'static str {
    match t {
        BlameTrigger::TopK => "topk",
        BlameTrigger::ThresholdMs(_) => "threshold",
        BlameTrigger::BlockMax => "blockmax",
    }
}

/// Renders `BLAME_cells.json`: run parameters plus each cell's blame
/// aggregates and retained episode summaries, NT first, paper workload
/// order. The per-episode `meta` objects are the episodes' own summary
/// JSON, embedded verbatim.
pub fn render_blame_json(cfg: &RunConfig, cells: &AllCells) -> String {
    let opts = cfg.blame.expect("blame artifact runs with forensics armed");
    let minutes = match cfg.duration {
        Duration::Minutes(m) => m,
        Duration::FullCollection => -1.0, // sentinel: full §3.1 durations
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"minutes_per_cell\": {minutes},\n"));
    out.push_str(&format!("  \"shards\": {},\n", cfg.shards));
    out.push_str(&format!(
        "  \"trigger\": \"{}\",\n",
        trigger_name(opts.trigger)
    ));
    out.push_str(&format!("  \"max_episodes\": {},\n", opts.max_episodes));
    out.push_str("  \"cells\": [\n");
    let all: Vec<_> = cells.nt.iter().chain(&cells.win98).collect();
    for (i, m) in all.iter().enumerate() {
        let c = |name: &str| m.metrics.counter_value(name).unwrap_or(0);
        out.push_str(&format!(
            "    {{\"os\": \"{:?}\", \"workload\": \"{:?}\",\n",
            m.os, m.workload
        ));
        out.push_str(&format!(
            "     \"watched_resumes\": {}, \"triggered\": {}, \"evicted\": {}, \
             \"retained\": {},\n",
            c("latency.blame.watched_resumes"),
            c("latency.blame.triggered"),
            c("latency.blame.evicted"),
            m.blame_episodes.len(),
        ));
        let comps: Vec<String> = COMPONENTS
            .iter()
            .map(|k| format!("\"{k}\": {}", c(&format!("latency.blame.{k}_cycles"))))
            .collect();
        out.push_str(&format!(
            "     \"blame_cycles\": {{{}}},\n",
            comps.join(", ")
        ));
        out.push_str("     \"episodes\": [");
        let metas: Vec<&str> = m
            .blame_episodes
            .iter()
            .map(|(_, meta, _)| meta.as_str())
            .collect();
        out.push_str(&metas.join(", "));
        out.push_str(&format!(
            "]}}{}\n",
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the blame-armed grid and writes `BLAME_cells.json` plus one trace
/// document per retained episode into `dir`. Returns the cells and the
/// paths written, the summary file first.
pub fn run_blame(cfg: &RunConfig, dir: &Path) -> io::Result<(AllCells, Vec<PathBuf>)> {
    let cells = measure_all(cfg);
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let path = dir.join("BLAME_cells.json");
    std::fs::write(&path, render_blame_json(cfg, &cells))?;
    written.push(path);
    for m in cells.nt.iter().chain(&cells.win98) {
        for (k, (_, _, trace)) in m.blame_episodes.iter().enumerate() {
            let path = dir.join(format!("TRACE_blame_{}_{}.json", cell_stem(m), k));
            std::fs::write(&path, trace)?;
            written.push(path);
        }
    }
    Ok((cells, written))
}

/// Renders `FLAME_cells.folded`: every cell's collapsed virtual-time
/// stacks, rooted at the cell stem (`nt4_business;isr vec12 42`). Cells in
/// paper order, stacks in lexicographic order within a cell — the whole
/// file is deterministic and diffs cleanly.
pub fn render_flame_folded(cells: &AllCells) -> String {
    let mut out = String::new();
    for m in cells.nt.iter().chain(&cells.win98) {
        let stem = cell_stem(m);
        for (stack, count) in &m.flame {
            out.push_str(&format!("{stem};{stack} {count}\n"));
        }
    }
    out
}

/// Runs the flame-armed grid and writes `FLAME_cells.folded` into `dir`.
pub fn run_flame(cfg: &RunConfig, dir: &Path) -> io::Result<(AllCells, Vec<PathBuf>)> {
    assert!(
        cfg.flame_hz.is_some(),
        "flame artifact runs with the sampler armed"
    );
    let cells = measure_all(cfg);
    std::fs::create_dir_all(dir)?;
    let path = dir.join("FLAME_cells.folded");
    std::fs::write(&path, render_flame_folded(&cells))?;
    Ok((cells, vec![path]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_latency::BlameOptions;
    use wdm_sim::metrics::MetricValue;

    fn tiny_cfg() -> RunConfig {
        RunConfig {
            duration: Duration::Minutes(0.05),
            seed: 7,
            threads: 1,
            blame: Some(BlameOptions::default()),
            flame_hz: Some(8000.0),
            ..RunConfig::default()
        }
    }

    #[test]
    fn blame_json_lists_cells_with_exact_component_sums() {
        let cells = measure_all(&tiny_cfg());
        let j = render_blame_json(&tiny_cfg(), &cells);
        assert_eq!(j.matches("\"blame_cycles\":").count(), 8);
        assert!(j.contains("\"trigger\": \"topk\""));
        assert!(
            j.contains("\"breakdown_cycles\":"),
            "episode metas embedded"
        );
        let depth = j.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "balanced json");
        // Some cell retained at least one episode under the default top-K.
        assert!(cells
            .nt
            .iter()
            .chain(&cells.win98)
            .any(|m| !m.blame_episodes.is_empty()));
        // With no trace export, every cell's ring keeps only what an episode
        // window can still read: a few hundred events, not its capacity.
        for m in cells.nt.iter().chain(&cells.win98) {
            match m.metrics.get("sim.flight.ring_peak") {
                Some(MetricValue::Gauge(v)) => assert!(*v <= 4096.0, "ring peak {v}"),
                other => panic!("ring gauge missing: {other:?}"),
            }
        }
    }

    #[test]
    fn flame_folded_is_cell_rooted_and_positive() {
        let cells = measure_all(&tiny_cfg());
        let folded = render_flame_folded(&cells);
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack count");
            assert!(stack.contains(';'), "cell-rooted: {line}");
            assert!(count.parse::<u64>().expect("count") > 0);
        }
        assert!(folded.contains("nt4_business;"));
        assert!(folded.contains("win98_games;"));
    }

    #[test]
    fn blame_files_write_one_trace_per_retained_episode() {
        let dir = std::env::temp_dir().join(format!("wdm_blame_test_{}", std::process::id()));
        let (cells, files) = run_blame(&tiny_cfg(), &dir).expect("blame run");
        let retained: usize = cells
            .nt
            .iter()
            .chain(&cells.win98)
            .map(|m| m.blame_episodes.len())
            .sum();
        assert_eq!(files.len(), 1 + retained);
        for f in &files[1..] {
            let doc = std::fs::read_to_string(f).unwrap();
            assert!(doc.starts_with("{\"traceEvents\":["));
            assert!(doc.contains("\"episode window\""));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
