//! The latency cause tool (paper §2.3, Table 4): find out *which code* was
//! running during long thread latencies — without OS source access.
//!
//! Reproduces the paper's investigation: Business apps on Windows 98 with
//! the default sound scheme enabled; episodes over the threshold dump the
//! IDT-hook circular buffer and are symbolized into module!function traces.
//!
//! Run with: `cargo run --release --example latency_cause [threshold_ms]`

use wdm_repro::latency::session::{measure_scenario, MeasureOptions};
use wdm_repro::osmodel::{OsKind, SoundScheme};
use wdm_repro::workloads::WorkloadKind;

fn main() {
    let threshold: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6.0);
    println!(
        "hunting for Windows 98 thread latencies over {threshold} ms\n\
         (Business apps, default sound scheme, 2 simulated minutes)\n"
    );
    let mut opts = MeasureOptions {
        cause_threshold_ms: Some(threshold),
        ..MeasureOptions::default()
    };
    opts.scenario.sound_scheme = SoundScheme::Default;

    let m = measure_scenario(OsKind::Win98, WorkloadKind::Business, 23, 2.0 / 60.0, &opts);

    if m.episodes.is_empty() {
        println!("no episodes captured; lower the threshold or run longer");
        return;
    }
    for episode in m.episodes.iter().take(3) {
        println!("{episode}");
    }
    println!(
        "({} episodes total; the SYSAUDIO/KMIXER/VMM functions in the traces\n\
         are the sound scheme walking the audio topology and allocating\n\
         contiguous frames at raised IRQL — exactly the paper's Table 4.)",
        m.episodes.len()
    );
}
