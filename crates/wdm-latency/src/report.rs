//! Text rendering of latency distributions and comparisons.
//!
//! Produces the Figure 4 log-log series (bin -> percent of samples) and
//! Table 3-style worst-case rows as plain text/Markdown, matching the rows
//! and columns the paper reports.

use crate::{
    histogram::LatencyHistogram,
    worstcase::{LatencySeries, WorstCases},
};

/// Renders a Figure 4 style series: one line per bin with the percentage
/// of samples, log-log friendly. The `mean` here is the first place the
/// v2 exact cycle sum meets a float: `mean_ms` converts the `u128` sum at
/// accessor time (DESIGN.md §14), so the rendered value is identical no
/// matter what order the samples arrived in.
pub fn render_distribution(name: &str, h: &LatencyHistogram) -> String {
    let mut out = format!(
        "{name}  (n = {}, min = {:.4} ms, mean = {:.4} ms, max = {:.3} ms)\n",
        h.count(),
        h.min_ms(),
        h.mean_ms(),
        h.max_ms()
    );
    out.push_str("  bin (ms)        %-of-samples\n");
    let percents = h.percents();
    let edges = h.edges_ms();
    let fmt_pct = |p: f64| {
        if p == 0.0 {
            "      -".to_string()
        } else {
            format!("{p:>10.4}%")
        }
    };
    out.push_str(&format!(
        "  <= {:<10} {}\n",
        edges[0],
        fmt_pct(percents[0])
    ));
    for i in 1..edges.len() {
        out.push_str(&format!(
            "  {:>6} - {:<6} {}\n",
            edges[i - 1],
            edges[i],
            fmt_pct(percents[i])
        ));
    }
    out.push_str(&format!(
        "  >  {:<10} {}\n",
        edges[edges.len() - 1],
        fmt_pct(percents[edges.len()])
    ));
    out
}

/// A row of a Figure 4 panel: one workload's distribution.
pub struct PanelSeries<'a> {
    /// Workload name ("Business Apps", ...).
    pub workload: &'a str,
    /// Its distribution.
    pub hist: &'a LatencyHistogram,
}

/// Renders one Figure 4 panel: workloads side by side, bins down the rows.
pub fn render_panel(title: &str, series: &[PanelSeries<'_>]) -> String {
    let mut out = format!("=== {title} ===\n");
    if series.is_empty() {
        out.push_str("(no series)\n");
        return out;
    }
    let edges = series[0].hist.edges_ms();
    out.push_str(&format!("{:<16}", "bin (ms)"));
    for s in series {
        out.push_str(&format!("{:>18}", s.workload));
    }
    out.push('\n');
    let all_percents: Vec<Vec<f64>> = series.iter().map(|s| s.hist.percents()).collect();
    let cell = |p: f64| {
        if p == 0.0 {
            format!("{:>18}", "-")
        } else {
            format!("{:>17.4}%", p)
        }
    };
    for bin in 0..=edges.len() {
        let label = if bin == 0 {
            format!("<= {}", edges[0])
        } else if bin == edges.len() {
            format!("> {}", edges[edges.len() - 1])
        } else {
            format!("{} - {}", edges[bin - 1], edges[bin])
        };
        out.push_str(&format!("{label:<16}"));
        for p in &all_percents {
            out.push_str(&cell(p[bin]));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<16}", "n"));
    for s in series {
        out.push_str(&format!("{:>18}", s.hist.count()));
    }
    out.push('\n');
    out
}

/// One Table 3 row: a named OS service's worst cases across workloads.
pub struct Table3Row {
    /// Service name ("H/W Int. to S/W ISR", ...).
    pub service: String,
    /// Worst cases per workload, in the paper's column order.
    pub cells: Vec<WorstCases>,
}

/// Renders Table 3: services down the rows, workloads (hr/day/wk) across.
pub fn render_table3(workloads: &[&str], rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "Observed Hourly, Daily and Weekly Worst Case Latencies (in ms.)\n",
    );
    out.push_str(&format!("{:<34}", "OS Service"));
    for w in workloads {
        out.push_str(&format!("{:>30}", w));
    }
    out.push('\n');
    out.push_str(&format!("{:<34}", ""));
    for _ in workloads {
        out.push_str(&format!("{:>10}{:>10}{:>10}", "Max/Hr", "Max/Day", "Max/Wk"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<34}", row.service));
        for c in &row.cells {
            out.push_str(&format!(
                "{:>10.1}{:>10.1}{:>10.1}",
                c.hourly, c.daily, c.weekly
            ));
        }
        out.push('\n');
    }
    out
}

/// Renders a one-line summary of a series (for quick comparisons).
pub fn summarize(s: &LatencySeries) -> String {
    format!(
        "{:<40} n={:>9}  mean={:>8.4}ms  p99.9={:>8.3}ms  max={:>8.3}ms",
        s.name,
        s.hist.count(),
        s.hist.mean_ms(),
        s.hist.quantile_exceeding(0.001),
        s.hist.max_ms()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::time::{Cycles, Instant, DEFAULT_CPU_HZ};

    fn sample_hist() -> LatencyHistogram {
        let mut h = LatencyHistogram::fig4();
        for i in 0..1000 {
            let ms = 0.05 + (i % 40) as f64 * 0.1;
            h.record_cycles(Cycles::from_ms(ms), DEFAULT_CPU_HZ);
        }
        h
    }

    #[test]
    fn distribution_renders_all_bins() {
        let h = sample_hist();
        let r = render_distribution("test", &h);
        assert!(r.contains("n = 1000"));
        // 2 headers + underflow + 10 interior bins + overflow = 14 lines.
        assert_eq!(r.lines().count(), 14);
    }

    #[test]
    fn panel_renders_workload_columns() {
        let h1 = sample_hist();
        let h2 = sample_hist();
        let r = render_panel(
            "Windows 98 Interrupt + DPC Latency",
            &[
                PanelSeries {
                    workload: "Business Apps",
                    hist: &h1,
                },
                PanelSeries {
                    workload: "3D Games",
                    hist: &h2,
                },
            ],
        );
        assert!(r.contains("Business Apps"));
        assert!(r.contains("3D Games"));
        assert!(r.contains("<= 0.125"));
        assert!(r.contains("> 128"));
    }

    #[test]
    fn table3_layout() {
        let wc = WorstCases {
            hourly: 1.0,
            daily: 1.5,
            weekly: 2.0,
        };
        let r = render_table3(
            &["Office Apps", "3D Games"],
            &[Table3Row {
                service: "H/W Int. to S/W ISR".into(),
                cells: vec![wc, wc],
            }],
        );
        assert!(r.contains("H/W Int. to S/W ISR"));
        assert!(r.contains("Max/Wk"));
        assert_eq!(r.matches("1.0").count(), 2);
    }

    #[test]
    fn summarize_shows_quantiles() {
        let mut s = LatencySeries::new("thread latency", 300_000_000);
        for i in 0..10_000u64 {
            let ms = 0.1 + (i % 100) as f64 * 0.01;
            s.record_cycles(Instant(i * 300_000), Cycles::from_ms(ms));
        }
        let line = summarize(&s);
        assert!(line.contains("thread latency"));
        assert!(line.contains("n="));
    }
}
