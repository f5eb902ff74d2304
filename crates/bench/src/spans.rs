//! Harness self-instrumentation: wall-clock spans for the combined trace.
//!
//! `repro trace` wants shard imbalance and merge cost visible next to the
//! simulated cells, so the harness records its own phases — grid fan-out,
//! per-shard measurement, merge, render — as Chrome trace-event spans
//! under pid [`HARNESS_PID`]. Timestamps are host wall-clock microseconds
//! from the first [`enable`] call (the simulated cells use simulated time;
//! Perfetto shows them as separate processes, which is the point: the
//! harness rows explain where the *host* time went).
//!
//! Recording is off by default and [`span`] is a no-op returning an inert
//! guard, so the ordinary (untraced) harness pays one atomic load per
//! phase and allocates nothing.

use std::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Mutex, OnceLock,
};
use std::time::Instant;

use wdm_sim::flight::{json_f64, json_str};

/// The trace-event process id the harness's own spans live under (cells
/// take pid 2+, see [`crate::cells::cell_pid`]).
pub const HARNESS_PID: u64 = 1;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread trace track, assigned on first span from that thread. A
    /// thread_name metadata record rides along so worker rows are labeled.
    static TID: u64 = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("worker-{tid}"));
        push_event(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{HARNESS_PID},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_str(&name)
        ));
        tid
    };
}

fn push_event(e: String) {
    EVENTS.lock().expect("span sink poisoned").push(e);
}

fn now_us() -> f64 {
    EPOCH
        .get()
        .map(|e| e.elapsed().as_secs_f64() * 1e6)
        .unwrap_or(0.0)
}

/// Turns span recording on (idempotent). The first call pins the epoch all
/// timestamps are relative to.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// True if spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An in-flight harness phase; the span is emitted when dropped.
#[must_use = "the span measures until this guard drops"]
pub struct Span {
    name: Option<String>,
    t0: f64,
}

/// Opens a span named `name` on the calling thread's track. Inert (no
/// allocation, no lock) unless [`enable`] was called.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span {
            name: None,
            t0: 0.0,
        };
    }
    Span {
        name: Some(name.to_string()),
        t0: now_us(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else { return };
        if !enabled() {
            return;
        }
        let dur = now_us() - self.t0;
        let tid = TID.with(|t| *t);
        push_event(format!(
            "{{\"ph\":\"X\",\"name\":{},\"cat\":\"harness\",\"pid\":{HARNESS_PID},\
             \"tid\":{tid},\"ts\":{},\"dur\":{}}}",
            json_str(&name),
            json_f64(self.t0),
            json_f64(dur),
        ));
    }
}

/// Takes every recorded span (plus a `process_name` metadata record) out
/// of the sink, leaving it empty for a subsequent run.
pub fn drain() -> Vec<String> {
    let mut out = vec![format!(
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{HARNESS_PID},\"tid\":0,\
         \"args\":{{\"name\":\"repro harness\"}}}}"
    )];
    out.append(&mut EVENTS.lock().expect("span sink poisoned"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_span_records_and_drains() {
        // Other lib tests share the global sink (and may run measure_all
        // concurrently), so assert presence rather than exact counts.
        enable();
        {
            let _s = span("phase \"x\"");
        }
        let events = drain();
        assert!(events[0].contains("process_name"));
        let recorded = events.iter().any(|e| e.contains("phase \\\"x\\\""));
        assert!(recorded, "span must be recorded once enabled: {events:?}");
        assert!(events.iter().any(|e| e.contains("thread_name")));
        assert!(
            events
                .iter()
                .skip(1)
                .all(|e| e.contains(&format!("\"pid\":{HARNESS_PID}"))),
            "harness events all live under the harness pid"
        );
    }
}
