//! lmbench/hbench-style OS microbenchmarks — and why they mislead.
//!
//! §1.2 of the paper criticizes traditional microbenchmarks: they "measure
//! the average cost over thousands of invocations of the OS service on an
//! otherwise unloaded system", so they "have not been very useful in
//! assessing the OS and hardware overhead that an application or driver
//! will actually receive in practice".
//!
//! This module implements exactly such a suite on the simulated kernels —
//! context switch time, interrupt dispatch, DPC dispatch, timer-event
//! round trip, all *averages on an idle machine* — so the paper's argument
//! can be demonstrated quantitatively: the unloaded averages of Windows NT
//! 4.0 and Windows 98 sit within a small factor of each other, while the
//! loaded tail latencies (Figure 4) differ by orders of magnitude.

use wdm_osmodel::personality::{OsKind, OsPersonality};
use wdm_sim::{
    ids::WaitObject,
    object::EventKind,
    step::{LoopSeq, Step},
    time::Cycles,
};

use crate::tool::MeasurementSession;

/// Unloaded-average service costs, lmbench style (microseconds).
#[derive(Debug, Clone, Copy)]
pub struct Microbench {
    /// Which OS was measured.
    pub os: OsKind,
    /// Thread context switch (event ping-pong between two threads).
    pub ctx_switch_us: f64,
    /// Hardware interrupt to first ISR instruction.
    pub int_dispatch_us: f64,
    /// DPC queue to first DPC instruction.
    pub dpc_dispatch_us: f64,
    /// Timer expiry to waiting-thread resume (the full WDM service chain).
    pub timer_to_thread_us: f64,
}

/// Runs the suite on an idle machine with the OS personality's fixed costs
/// (no workload, no perturbations — the classic microbenchmark setup).
pub fn run_microbench(os: OsKind, seed: u64) -> Microbench {
    let personality = OsPersonality::of(os);

    // Run 1: context-switch ping-pong on its own machine (the lmbench
    // `lat_ctx` analogue) — two RT threads alternately signal each other,
    // saturating the CPU with pure switch traffic.
    let ctx_switch_us = {
        let mut k = personality.build_kernel(seed);
        let e_ab = k.create_event(EventKind::Synchronization, true);
        let e_ba = k.create_event(EventKind::Synchronization, false);
        let _ping = k.create_thread(
            "ping",
            17,
            Box::new(LoopSeq::new(vec![
                Step::Wait(WaitObject::Event(e_ab)),
                Step::SetEvent(e_ba),
            ])),
        );
        let pong = k.create_thread(
            "pong",
            17,
            Box::new(LoopSeq::new(vec![
                Step::Wait(WaitObject::Event(e_ba)),
                Step::SetEvent(e_ab),
            ])),
        );
        k.run_for(Cycles::from_ms_at(2_000.0, k.config().cpu_hz));
        // Each pong wait satisfaction implies two switches (to ping and
        // back); divide the thread-level cycles by the switch count.
        let pongs = k.thread(pong).waits_satisfied.max(1);
        Cycles(k.account.thread / (2 * pongs)).as_ms_at(k.config().cpu_hz) * 1000.0
    };

    // Run 2: the timer -> ISR -> DPC -> thread chain on an otherwise idle
    // machine, via the standard measurement session.
    let mut k = personality.build_kernel(seed ^ 0xB16B00B5);
    let session = MeasurementSession::install(&mut k, 1.0);
    k.run_for(Cycles::from_ms_at(5_000.0, k.config().cpu_hz));
    session.flush();
    let truth = session.truth.borrow();
    let us = |ms: f64| ms * 1000.0;
    Microbench {
        os,
        ctx_switch_us,
        int_dispatch_us: us(truth.pit_int.hist.mean_ms()),
        dpc_dispatch_us: us(truth.dpc28.lat.hist.mean_ms()),
        timer_to_thread_us: us(truth.thread28.int.hist.mean_ms()),
    }
}

/// Renders the NT-vs-98 microbenchmark comparison with the paper's caveat.
pub fn render_comparison(results: &[Microbench]) -> String {
    let mut out = String::from(
        "lmbench-style unloaded averages (the metrics the paper's §1.2\n\
         argues are insufficient):\n\n",
    );
    out += &format!(
        "{:<22}{:>16}{:>16}{:>16}{:>18}\n",
        "OS", "ctx switch", "int dispatch", "DPC dispatch", "timer->thread"
    );
    for r in results {
        out += &format!(
            "{:<22}{:>13.2} us{:>13.2} us{:>13.2} us{:>15.2} us\n",
            r.os.name(),
            r.ctx_switch_us,
            r.int_dispatch_us,
            r.dpc_dispatch_us,
            r.timer_to_thread_us
        );
    }
    if results.len() >= 2 {
        let worst_ratio = |f: fn(&Microbench) -> f64| {
            let vals: Vec<f64> = results.iter().map(f).collect();
            let max = vals.iter().cloned().fold(f64::MIN, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            max / min.max(1e-9)
        };
        out += &format!(
            "\nLargest unloaded-average ratio across OSs: {:.1}x (ctx switch \
             {:.1}x, int {:.1}x, DPC {:.1}x).\n",
            [
                worst_ratio(|r| r.ctx_switch_us),
                worst_ratio(|r| r.int_dispatch_us),
                worst_ratio(|r| r.dpc_dispatch_us),
                worst_ratio(|r| r.timer_to_thread_us),
            ]
            .into_iter()
            .fold(f64::MIN, f64::max),
            worst_ratio(|r| r.ctx_switch_us),
            worst_ratio(|r| r.int_dispatch_us),
            worst_ratio(|r| r.dpc_dispatch_us),
        );
        out += "Compare Figure 4 / Table 3: under load the weekly worst-case\n\
                thread latencies differ by one to two orders of magnitude.\n\
                Averages on an idle system do not predict real-time service.\n";
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_averages_are_close_across_oses() {
        let nt = run_microbench(OsKind::Nt4, 5);
        let w98 = run_microbench(OsKind::Win98, 5);
        // The paper's point: these numbers are boring. Ratios stay small.
        for (a, b) in [
            (nt.ctx_switch_us, w98.ctx_switch_us),
            (nt.int_dispatch_us, w98.int_dispatch_us),
            (nt.dpc_dispatch_us, w98.dpc_dispatch_us),
            (nt.timer_to_thread_us, w98.timer_to_thread_us),
        ] {
            let ratio = (a / b).max(b / a);
            assert!(
                ratio < 4.0,
                "unloaded averages should be within a small factor: {a} vs {b}"
            );
        }
    }

    #[test]
    fn microbench_values_are_plausible() {
        let m = run_microbench(OsKind::Nt4, 7);
        assert!(m.ctx_switch_us > 1.0 && m.ctx_switch_us < 200.0);
        assert!(m.int_dispatch_us > 0.5 && m.int_dispatch_us < 100.0);
        assert!(m.dpc_dispatch_us > 0.5 && m.dpc_dispatch_us < 100.0);
        assert!(m.timer_to_thread_us > m.int_dispatch_us);
    }

    #[test]
    fn comparison_renders() {
        let nt = run_microbench(OsKind::Nt4, 5);
        let w98 = run_microbench(OsKind::Win98, 5);
        let r = render_comparison(&[nt, w98]);
        assert!(r.contains("ctx switch"));
        assert!(r.contains("orders of magnitude"));
    }
}
