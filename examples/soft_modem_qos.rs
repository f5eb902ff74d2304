//! Soft modem quality of service (paper §5.1, Figures 6–7).
//!
//! Computes the mean time to buffer underrun for a soft modem datapump as a
//! function of buffering, then cross-validates one point against a direct
//! simulation of the datapump (paper §6.1).
//!
//! Run with: `cargo run --release --example soft_modem_qos [minutes]`

use wdm_repro::analysis::mttf::{fig6_axis, mttf_seconds, MttfParams};
use wdm_repro::latency::session::{measure_scenario, MeasureOptions};
use wdm_repro::osmodel::OsKind;
use wdm_repro::softmodem::{validate_mttf, Modality};
use wdm_repro::workloads::WorkloadKind;

fn main() {
    let minutes: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let hours = minutes / 60.0;
    let workload = WorkloadKind::Games;
    println!(
        "soft modem QoS on Windows 98 while playing 3D games\n\
         (datapump = 25% of a cycle; {minutes} simulated minutes of data)\n"
    );

    let m = measure_scenario(
        OsKind::Win98,
        workload,
        11,
        hours,
        &MeasureOptions::default(),
    );
    let params = MttfParams::default();

    println!("buffering ms    DPC-based MTTF      thread-based MTTF");
    for b in fig6_axis() {
        let dpc = mttf_seconds(&m.int_to_dpc.hist, b, &params);
        let thr = mttf_seconds(&m.thread_int_28.hist, b, &params);
        let f = |x: f64| {
            if x.is_infinite() {
                ">10000 s".to_string()
            } else {
                format!("{x:>7.1} s")
            }
        };
        println!("{b:<15} {:>15} {:>22}", f(dpc), f(thr));
    }

    println!("\ncross-validation at 12 ms of buffering (direct datapump simulation):");
    for modality in [Modality::Dpc, Modality::Thread(28)] {
        let v = validate_mttf(OsKind::Win98, workload, modality, 12.0, 11, hours);
        println!(
            "  {:<11} predicted {:>9} observed {:>9} ({} misses / {} buffers)",
            match modality {
                Modality::Dpc => "DPC:",
                Modality::Thread(_) => "thread@28:",
            },
            fmt_s(v.predicted_mttf_s),
            fmt_s(v.observed_mttf_s),
            v.misses,
            v.processed
        );
    }
    use wdm_repro::analysis::mttf::buffering_for_mttf;
    let hour_dpc = buffering_for_mttf(&m.int_to_dpc.hist, &fig6_axis(), &params, 3600.0);
    let hour_thr = buffering_for_mttf(&m.thread_int_28.hist, &fig6_axis(), &params, 3600.0);
    let fmt_b = |b: Option<f64>| {
        b.map(|x| format!("{x} ms"))
            .unwrap_or_else(|| ">64 ms".into())
    };
    println!(
        "\nReading the curves like the paper's §5.1: an hour between misses\n\
         during games needs {} of buffering DPC-based and {} thread-based\n\
         (the paper reads ~20 ms and ~48 ms off its Figures 6-7).",
        fmt_b(hour_dpc),
        fmt_b(hour_thr)
    );
}

fn fmt_s(x: f64) -> String {
    if x.is_infinite() {
        ">horizon".into()
    } else {
        format!("{x:.1} s")
    }
}
