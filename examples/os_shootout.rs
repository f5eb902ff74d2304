//! The paper's headline experiment in miniature: the same WDM measurement
//! driver on Windows NT 4.0 and Windows 98 under the same stress load.
//!
//! Run with: `cargo run --release --example os_shootout [workload] [minutes]`
//! where workload is one of business|workstation|games|web (default games).

use wdm_repro::latency::report::{render_panel, PanelSeries};
use wdm_repro::latency::session::{measure_scenario, MeasureOptions};
use wdm_repro::osmodel::OsKind;
use wdm_repro::workloads::WorkloadKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = match args.get(1).map(String::as_str) {
        Some("business") => WorkloadKind::Business,
        Some("workstation") => WorkloadKind::Workstation,
        Some("web") => WorkloadKind::Web,
        _ => WorkloadKind::Games,
    };
    let minutes: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2.0);
    println!(
        "{} on both OSs, {minutes} simulated minutes each\n",
        workload.name()
    );

    let hours = minutes / 60.0;
    let nt = measure_scenario(OsKind::Nt4, workload, 7, hours, &MeasureOptions::default());
    let w98 = measure_scenario(
        OsKind::Win98,
        workload,
        7,
        hours,
        &MeasureOptions::default(),
    );

    println!(
        "{}",
        render_panel(
            "DPC interrupt latency (ms)",
            &[
                PanelSeries {
                    workload: "Windows NT 4.0",
                    hist: &nt.int_to_dpc.hist,
                },
                PanelSeries {
                    workload: "Windows 98",
                    hist: &w98.int_to_dpc.hist,
                },
            ],
        )
    );
    println!(
        "{}",
        render_panel(
            "RT-28 kernel thread latency (ms)",
            &[
                PanelSeries {
                    workload: "Windows NT 4.0",
                    hist: &nt.thread_lat_28.hist,
                },
                PanelSeries {
                    workload: "Windows 98",
                    hist: &w98.thread_lat_28.hist,
                },
            ],
        )
    );

    let nt_dpc = nt.int_to_dpc.hist.quantile_exceeding(0.0001);
    let nt_thr = nt.thread_lat_28.hist.quantile_exceeding(0.0001);
    let w98_dpc = w98.int_to_dpc.hist.quantile_exceeding(0.0001);
    let w98_thr = w98.thread_lat_28.hist.quantile_exceeding(0.0001);
    println!("p99.99 latencies (ms):");
    println!("                       NT 4.0     Win98    ratio");
    println!(
        "  DPC interrupt     {:>9.3} {:>9.3} {:>7.1}x",
        nt_dpc,
        w98_dpc,
        w98_dpc / nt_dpc.max(1e-9)
    );
    println!(
        "  RT-28 thread      {:>9.3} {:>9.3} {:>7.1}x",
        nt_thr,
        w98_thr,
        w98_thr / nt_thr.max(1e-9)
    );
    println!(
        "\nthroughput: NT {} ops vs 98 {} ops ({:+.1}%)",
        nt.ops_completed,
        w98.ops_completed,
        (nt.ops_completed as f64 - w98.ops_completed as f64) / w98.ops_completed as f64 * 100.0
    );
    println!(
        "\nThe paper's conclusion in one line: throughput is nearly identical,\n\
         but an NT high-RT-priority thread out-services even a Windows 98 DPC."
    );
}
