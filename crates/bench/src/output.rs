//! Machine-readable data files for the figures.
//!
//! `repro <artifact> --out <dir>` writes tab-separated files alongside the
//! textual rendering, one per figure panel/curve, ready for gnuplot or any
//! plotting tool: the first column is the bin midpoint / x value, one
//! column per series.

use std::{fs, io::Write as _, path::Path};

use wdm_analysis::mttf::{fig6_axis, fig7_axis, mttf_seconds, MttfParams};
use wdm_latency::{histogram::LatencyHistogram, session::ScenarioMeasurement};

use crate::{cells::AllCells, figures::Figure5};

/// Selects which histogram of a measurement a panel plots.
type HistPick<'a> = &'a dyn Fn(&ScenarioMeasurement) -> &LatencyHistogram;

/// Writes one log-log distribution panel: bin edges vs percent-of-samples.
fn write_panel(path: &Path, series: &[(&str, &LatencyHistogram)]) -> std::io::Result<()> {
    let mut f = fs::File::create(path)?;
    write!(f, "bin_upper_ms")?;
    for (name, _) in series {
        write!(f, "\t{}", name.replace(' ', "_"))?;
    }
    writeln!(f)?;
    let edges = series[0].1.edges_ms();
    let percents: Vec<Vec<f64>> = series.iter().map(|(_, h)| h.percents()).collect();
    for bin in 0..=edges.len() {
        let x = if bin == edges.len() {
            edges[edges.len() - 1] * 2.0 // Overflow bin pseudo-edge.
        } else {
            edges[bin]
        };
        write!(f, "{x}")?;
        for p in &percents {
            write!(f, "\t{:.6}", p[bin])?;
        }
        writeln!(f)?;
    }
    Ok(())
}

/// Writes the six Figure 4 panels as `figure4_<panel>.tsv`.
pub fn write_figure4(cells: &AllCells, dir: &Path) -> std::io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let panels: [(&str, HistPick<'_>, &[ScenarioMeasurement]); 6] = [
        ("nt4_dpc_int", &|m| &m.int_to_dpc.hist, &cells.nt),
        ("win98_int_dpc", &|m| &m.int_to_dpc.hist, &cells.win98),
        ("nt4_thread_rt28", &|m| &m.thread_lat_28.hist, &cells.nt),
        (
            "win98_thread_rt28",
            &|m| &m.thread_lat_28.hist,
            &cells.win98,
        ),
        ("nt4_thread_rt24", &|m| &m.thread_lat_24.hist, &cells.nt),
        (
            "win98_thread_rt24",
            &|m| &m.thread_lat_24.hist,
            &cells.win98,
        ),
    ];
    for (name, pick, ms) in panels {
        let series: Vec<(&str, &LatencyHistogram)> =
            ms.iter().map(|m| (m.workload.name(), pick(m))).collect();
        let file = dir.join(format!("figure4_{name}.tsv"));
        write_panel(&file, &series)?;
        written.push(file.display().to_string());
    }
    Ok(written)
}

/// Writes Figure 5's two distributions.
pub fn write_figure5(f5: &Figure5, dir: &Path) -> std::io::Result<String> {
    fs::create_dir_all(dir)?;
    let file = dir.join("figure5_virus_scanner.tsv");
    write_panel(
        &file,
        &[
            ("without_scanner", &f5.without.thread_lat_24.hist),
            ("with_scanner", &f5.with.thread_lat_24.hist),
        ],
    )?;
    Ok(file.display().to_string())
}

/// Writes the Figure 6/7 MTTF curves: buffering vs MTTF seconds per
/// workload.
pub fn write_figures_6_7(cells: &AllCells, dir: &Path) -> std::io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let params = MttfParams::default();
    let mut written = Vec::new();
    let curves: [(&str, Vec<f64>, HistPick<'_>); 2] = [
        ("figure6_dpc_datapump", fig6_axis(), &|m| &m.int_to_dpc.hist),
        ("figure7_thread_datapump", fig7_axis(), &|m| {
            &m.thread_int_28.hist
        }),
    ];
    for (name, axis, pick) in curves {
        let file = dir.join(format!("{name}.tsv"));
        let mut f = fs::File::create(&file)?;
        write!(f, "buffering_ms")?;
        for m in &cells.win98 {
            write!(f, "\t{}", m.workload.name().replace(' ', "_"))?;
        }
        writeln!(f)?;
        for &b in &axis {
            write!(f, "{b}")?;
            for m in &cells.win98 {
                let v = mttf_seconds(pick(m), b, &params);
                write!(f, "\t{}", if v.is_finite() { v } else { 1e9 })?;
            }
            writeln!(f)?;
        }
        written.push(file.display().to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{measure_all, Duration, RunConfig};
    use crate::figures;

    #[test]
    fn tsv_files_are_written_and_well_formed() {
        let cfg = RunConfig {
            duration: Duration::Minutes(0.05),
            seed: 5,
            ..RunConfig::default()
        };
        let cells = measure_all(&cfg);
        let dir = std::env::temp_dir().join("wdm_repro_tsv_test");
        let _ = fs::remove_dir_all(&dir);
        let f4 = write_figure4(&cells, &dir).expect("figure4 tsv");
        assert_eq!(f4.len(), 6);
        let mttf = write_figures_6_7(&cells, &dir).expect("mttf tsv");
        assert_eq!(mttf.len(), 2);
        let f5 = figures::figure5(&cfg);
        let p5 = write_figure5(&f5, &dir).expect("figure5 tsv");
        // Every file parses as a rectangular TSV with a header.
        for path in f4.iter().chain(mttf.iter()).chain([&p5]) {
            let content = fs::read_to_string(path).expect("readable");
            let mut lines = content.lines();
            let header_cols = lines.next().expect("header").split('\t').count();
            assert!(header_cols >= 3, "{path}: header too narrow");
            let mut rows = 0;
            for line in lines {
                assert_eq!(line.split('\t').count(), header_cols, "{path}: ragged row");
                rows += 1;
            }
            assert!(rows >= 10, "{path}: too few rows");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
