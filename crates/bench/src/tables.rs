//! Regeneration of the paper's tables.
//!
//! - **Table 1**: latency tolerances (analytic, `wdm-analysis`).
//! - **Table 2**: the test system configuration (`wdm-osmodel`).
//! - **Table 3**: Windows 98 hourly/daily/weekly worst cases, 7 service
//!   rows x 4 workloads.
//! - **Table 4**: latency cause tool episode traces.

use wdm_latency::{
    report::{render_table3, Table3Row},
    session::{measure_scenario, MeasureOptions, ScenarioMeasurement},
    worstcase::{worst_cases, WorstCases},
};
use wdm_osmodel::{machine, personality::OsKind, perturb::SoundScheme};
use wdm_workloads::WorkloadKind;

use crate::cells::{cell_seed, AllCells, RunConfig};

/// Renders Table 1.
pub fn table1() -> String {
    format!(
        "Table 1: Range of Latency Tolerances for Several Multimedia and\n\
         Signal Processing Applications\n\n{}",
        wdm_analysis::tolerance::render_table1()
    )
}

/// Renders Table 2.
pub fn table2() -> String {
    let mut out = format!(
        "Table 2: Test System Configuration (simulated)\n\n{}\n",
        machine::render_table2()
    );
    out += "Simulator parameters:\n";
    for os in OsKind::ALL {
        out += &format!("  {}\n", machine::render_sim_config(os));
    }
    out
}

/// The seven Table 3 service rows for one workload cell. "+" rows are the
/// deltas between adjacent absolute rows, as the paper presents them.
fn table3_cells(m: &ScenarioMeasurement) -> [WorstCases; 7] {
    let (h, d, w) = m.usage.windows();
    let wc = |s| worst_cases(s, m.collected_hours, h, d, w);
    let isr = wc(&m.int_to_isr);
    let dpc = wc(&m.int_to_dpc);
    let thr_hi = wc(&m.thread_int_28);
    let thr_med = wc(&m.thread_int_24);
    let delta = |a: &WorstCases, b: &WorstCases| WorstCases {
        hourly: (b.hourly - a.hourly).max(0.0),
        daily: (b.daily - a.daily).max(0.0),
        weekly: (b.weekly - a.weekly).max(0.0),
    };
    [
        isr,
        delta(&isr, &dpc),
        dpc,
        delta(&dpc, &thr_hi),
        thr_hi,
        delta(&dpc, &thr_med),
        thr_med,
    ]
}

/// Row labels in the paper's order.
pub const TABLE3_SERVICES: [&str; 7] = [
    "H/W Int. to S/W ISR",
    "S/W ISR to DPC (+)",
    "H/W Interrupt to DPC",
    "DPC to kernel RT thread (High) (+)",
    "H/W Int. to kernel RT thread (High)",
    "DPC to kernel RT thread (Med.) (+)",
    "H/W Int. to kernel RT thread (Med.)",
];

/// The paper's Table 3 weekly values for the absolute rows, for the
/// EXPERIMENTS.md comparison: (service row index, per-workload values).
pub const PAPER_TABLE3_WEEKLY: [(usize, [f64; 4]); 4] = [
    (0, [1.6, 6.3, 12.2, 3.5]),    // int -> ISR
    (2, [2.0, 6.9, 14.0, 3.8]),    // int -> DPC
    (4, [33.0, 31.0, 84.0, 84.0]), // int -> thread (high)
    (6, [33.0, 31.0, 84.0, 84.0]), // int -> thread (med)
];

/// Builds Table 3 from the Windows 98 cells.
pub fn table3(cells: &AllCells) -> String {
    let per_cell: Vec<[WorstCases; 7]> = cells.win98.iter().map(table3_cells).collect();
    let rows: Vec<Table3Row> = TABLE3_SERVICES
        .iter()
        .enumerate()
        .map(|(i, &service)| Table3Row {
            service: service.to_string(),
            cells: per_cell.iter().map(|c| c[i]).collect(),
        })
        .collect();
    let names: Vec<&str> = cells.win98.iter().map(|m| m.workload.name()).collect();
    format!(
        "Table 3: Windows 98 Interrupt and Thread Latencies with no Sound\n\
         Scheme on a PC 99 Minimum System (simulated)\n\n{}",
        render_table3(&names, &rows)
    )
}

/// Companion table for NT 4.0 (not in the paper as a table, but implied by
/// Figure 4); included for the OS comparison.
pub fn table3_nt(cells: &AllCells) -> String {
    let per_cell: Vec<[WorstCases; 7]> = cells.nt.iter().map(table3_cells).collect();
    let rows: Vec<Table3Row> = TABLE3_SERVICES
        .iter()
        .enumerate()
        .map(|(i, &service)| Table3Row {
            service: service.to_string(),
            cells: per_cell.iter().map(|c| c[i]).collect(),
        })
        .collect();
    let names: Vec<&str> = cells.nt.iter().map(|m| m.workload.name()).collect();
    format!(
        "Companion: Windows NT 4.0 worst cases (same methodology)\n\n{}",
        render_table3(&names, &rows)
    )
}

/// Runs the Table 4 experiment: Business apps on Windows 98 with the
/// default sound scheme, cause tool armed.
pub fn table4(cfg: &RunConfig) -> String {
    let hours = cfg.duration.hours_for(WorkloadKind::Business);
    let seed = cell_seed(cfg.seed, OsKind::Win98, WorkloadKind::Business) ^ 0x7AB1E4;
    let mut opts = MeasureOptions {
        cause_threshold_ms: Some(6.0),
        ..MeasureOptions::default()
    };
    opts.scenario.sound_scheme = SoundScheme::Default;
    let m = measure_scenario(OsKind::Win98, WorkloadKind::Business, seed, hours, &opts);
    let mut out = String::from(
        "Table 4: Thread Latency Cause Tool Output, Windows 98 with Business\n\
         Apps and the Default Sound Scheme (episodes over 6 ms)\n\n",
    );
    if m.episodes.is_empty() {
        out.push_str("(no episodes captured in this run — increase duration)\n");
    }
    for e in m.episodes.iter().take(4) {
        out.push_str(e);
        out.push('\n');
    }
    out += &format!("episodes captured: {}\n", m.episodes.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{measure_all, Duration};

    fn quick_cfg() -> RunConfig {
        RunConfig {
            duration: Duration::Minutes(0.1),
            seed: 5,
            ..RunConfig::default()
        }
    }

    #[test]
    fn table1_and_2_render() {
        assert!(table1().contains("ADSL"));
        let t2 = table2();
        assert!(t2.contains("FAT32"));
        assert!(t2.contains("Windows NT 4.0"));
    }

    #[test]
    fn table3_has_all_rows_and_workloads() {
        let cells = measure_all(&quick_cfg());
        let t = table3(&cells);
        for s in TABLE3_SERVICES {
            assert!(t.contains(s), "missing row {s}");
        }
        assert!(t.contains("3D Games"));
        let nt = table3_nt(&cells);
        assert!(nt.contains("NT 4.0"));
    }

    #[test]
    fn table4_captures_episodes_with_sound_scheme() {
        let cfg = RunConfig {
            duration: Duration::Minutes(1.0),
            seed: 11,
            ..RunConfig::default()
        };
        let t = table4(&cfg);
        assert!(t.contains("episodes captured"));
        // With the default sound scheme on 98, 6 ms episodes are common.
        assert!(
            t.contains("samples in"),
            "expected at least one episode trace:\n{t}"
        );
    }
}
