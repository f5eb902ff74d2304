//! Flight recorder: a span-oriented trace sink with Chrome trace export.
//!
//! [`FlightRecorder`] is an [`Observer`] that keeps the most recent kernel
//! instrumentation events in a bounded ring, covering the full event
//! vocabulary (calendar pops and quantum expiries included) and exporting
//! **Chrome trace-event JSON** that loads directly in Perfetto /
//! `chrome://tracing`. The paper explains long latencies with a
//! cause tool that samples what the machine was doing (§2.3); the flight
//! recorder is the always-on equivalent: attach it to a cell, re-run the
//! minute, and read the timeline.
//!
//! Determinism contract: the recorder is strictly read-only. It draws no
//! randomness, mutates no kernel state, and when it is not attached (or its
//! interest mask is narrowed to [`Interest::NONE`]) each potential event
//! costs exactly one masked branch in the kernel hot loop — the same
//! `notify_takes` proof that covers every other observer.

use std::collections::VecDeque;

use crate::{
    ids::ThreadId,
    kernel::Kernel,
    observer::{
        CalendarPop, CalendarPopKind, DpcStart, Interest, IsrEnter, Observer, QuantumExpiry,
        ThreadResume,
    },
    time::Instant,
};

/// One recorded kernel event, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEvent {
    /// An ISR entered (assert → first instruction is the latency span).
    Isr {
        /// Vector index.
        vector: usize,
        /// Hardware assertion time.
        asserted: Instant,
        /// First ISR instruction time.
        started: Instant,
    },
    /// A DPC started (queue → first instruction is the latency span).
    Dpc {
        /// DPC index.
        dpc: usize,
        /// Queue time.
        queued: Instant,
        /// First DPC instruction time.
        started: Instant,
    },
    /// A thread resumed from a signaled wait (ready → run is the span).
    Resume {
        /// The thread.
        thread: ThreadId,
        /// Its priority at resume.
        priority: u8,
        /// When it was readied.
        readied: Instant,
        /// When it ran.
        started: Instant,
    },
    /// A context switch; consecutive switches bound thread-run spans.
    Switch {
        /// Outgoing thread, if any (`None` = leaving idle).
        from: Option<ThreadId>,
        /// Incoming thread.
        to: ThreadId,
        /// When.
        at: Instant,
    },
    /// A due calendar entry popped.
    Pop {
        /// Which heap.
        kind: CalendarPopKind,
        /// Object index within that heap's domain.
        index: u32,
        /// When.
        at: Instant,
    },
    /// A thread's quantum expired.
    Quantum {
        /// The thread.
        thread: ThreadId,
        /// Priority after boost decay.
        priority: u8,
        /// True if round-robined to a peer.
        descheduled: bool,
        /// When.
        at: Instant,
    },
}

impl FlightEvent {
    /// The event's timestamp (completion side).
    pub fn at(&self) -> Instant {
        match *self {
            FlightEvent::Isr { started, .. } => started,
            FlightEvent::Dpc { started, .. } => started,
            FlightEvent::Resume { started, .. } => started,
            FlightEvent::Switch { at, .. } => at,
            FlightEvent::Pop { at, .. } => at,
            FlightEvent::Quantum { at, .. } => at,
        }
    }
}

/// Chrome trace-event track ids within one process (cell). Offsets keep
/// thread, vector and DPC tracks from colliding while staying stable across
/// runs, so two traces of the same cell diff cleanly.
const TID_SCHEDULER: u64 = 0;
const TID_THREAD_BASE: u64 = 1;
const TID_VECTOR_BASE: u64 = 1000;
const TID_DPC_BASE: u64 = 2000;

/// A bounded ring of recent kernel events with Chrome trace export.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    interest: Interest,
    /// Total events observed, evicted ones included.
    pub total: u64,
    /// Events evicted to honor the capacity bound.
    pub dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events of every kind
    /// it implements (all but IRP completions).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_interest(
            capacity,
            Interest::ISR_ENTER
                | Interest::DPC_START
                | Interest::THREAD_RESUME
                | Interest::CONTEXT_SWITCH
                | Interest::CALENDAR_POP
                | Interest::QUANTUM_EXPIRY,
        )
    }

    /// A recorder narrowed to `interest`. [`Interest::NONE`] yields a fully
    /// masked recorder the kernel never takes for — the configuration
    /// `tests/observer_interest.rs` uses to prove attachment is free.
    pub fn with_interest(capacity: usize, interest: Interest) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            interest,
            total: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, e: FlightEvent) {
        // The kernel stamps every event with its `now`, so arrival order is
        // time order; `events_in` binary-searches on it.
        debug_assert!(
            self.ring.back().is_none_or(|b| b.at() <= e.at()),
            "flight ring must stay time-ordered"
        );
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(e);
        self.total += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Peak ring occupancy so far — the source for the
    /// `sim.flight.ring_peak` gauge. The ring only ever grows toward its
    /// capacity (eviction happens on push), so the peak is the smaller of
    /// the total observed and the capacity.
    pub fn peak_depth(&self) -> u64 {
        self.total.min(self.capacity as u64)
    }

    /// Copies out the retained events whose timestamp falls in
    /// `[lo, hi]`, oldest first — the episode-capture window of the blame
    /// tool. The ring is time-ordered (asserted in `push`), so two binary
    /// searches find the window's ends and only the window is copied:
    /// O(log ring + window). Empty when `lo > hi`.
    pub fn events_in(&self, lo: Instant, hi: Instant) -> Vec<FlightEvent> {
        if lo > hi {
            return Vec::new();
        }
        let start = self.ring.partition_point(|e| e.at() < lo);
        let end = self.ring.partition_point(|e| e.at() <= hi);
        self.ring.range(start..end).copied().collect()
    }

    /// Renders the retained events as Chrome trace-event JSON objects, one
    /// serialized object per element (no enclosing array). `k` supplies
    /// names and the clock rate, `pid` groups the events into one Perfetto
    /// process — the harness assigns one pid per cell. Combine with
    /// [`chrome_document`] to produce a loadable file.
    ///
    /// Span synthesis: ISR/DPC/resume events become complete (`"ph":"X"`)
    /// latency spans on per-object tracks; consecutive context switches
    /// bound thread-run spans on per-thread tracks; calendar pops and
    /// quantum expiries become instants (`"ph":"i"`) on the scheduler
    /// track. Metadata (`process_name`, `thread_name`) rides first.
    pub fn chrome_events(&self, k: &Kernel, pid: u64, process_name: &str) -> Vec<String> {
        let events: Vec<FlightEvent> = self.ring.iter().copied().collect();
        chrome_events_slice(k, pid, process_name, &events)
    }
}

/// Renders an arbitrary time-ordered event slice as Chrome trace-event
/// JSON objects — the span-synthesis core of
/// [`FlightRecorder::chrome_events`], exposed so episode captures (bounded
/// windows copied out of the ring) render identically to full rings.
pub fn chrome_events_slice(
    k: &Kernel,
    pid: u64,
    process_name: &str,
    events: &[FlightEvent],
) -> Vec<String> {
    {
        let hz = k.config().cpu_hz as f64;
        let us = |t: Instant| t.0 as f64 * 1e6 / hz;
        let mut out = Vec::with_capacity(events.len() + 16);

        out.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(process_name)
        ));
        let mut meta = |tid: u64, name: &str| {
            out.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_str(name)
            ));
        };
        meta(TID_SCHEDULER, "scheduler");
        for i in 0..k.num_threads() {
            let name = format!("thread {}", k.thread(ThreadId(i)).name);
            meta(TID_THREAD_BASE + i as u64, &name);
        }
        for v in 0..k.interrupts().len() {
            let name = format!("vector {}", k.interrupts().vector(crate::ids::VectorId(v)).name);
            meta(TID_VECTOR_BASE + v as u64, &name);
        }
        for d in 0..k.num_dpcs() {
            let name = format!("dpc {}", k.dpc(crate::ids::DpcId(d)).name);
            meta(TID_DPC_BASE + d as u64, &name);
        }

        // Thread-run spans: a switch to T opens T's run, the next switch
        // closes it. A run still open at the last retained event is closed
        // there so Perfetto never sees an unbounded span.
        let mut running: Option<(ThreadId, Instant)> = None;
        let last_at = events.last().map(|e| e.at());
        let close_run = |out: &mut Vec<String>, t: ThreadId, from: Instant, to: Instant| {
            out.push(format!(
                "{{\"ph\":\"X\",\"name\":\"run\",\"cat\":\"thread\",\"pid\":{pid},\
                 \"tid\":{},\"ts\":{},\"dur\":{}}}",
                TID_THREAD_BASE + t.0 as u64,
                json_f64(us(from)),
                json_f64(us(to) - us(from)),
            ));
        };

        for e in events {
            match *e {
                FlightEvent::Isr {
                    vector,
                    asserted,
                    started,
                } => out.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"isr latency\",\"cat\":\"isr\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"vector\":{vector}}}}}",
                    TID_VECTOR_BASE + vector as u64,
                    json_f64(us(asserted)),
                    json_f64(us(started) - us(asserted)),
                )),
                FlightEvent::Dpc { dpc, queued, started } => out.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"dpc latency\",\"cat\":\"dpc\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"dpc\":{dpc}}}}}",
                    TID_DPC_BASE + dpc as u64,
                    json_f64(us(queued)),
                    json_f64(us(started) - us(queued)),
                )),
                FlightEvent::Resume {
                    thread,
                    priority,
                    readied,
                    started,
                } => out.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"wake latency\",\"cat\":\"thread\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"priority\":{priority}}}}}",
                    TID_THREAD_BASE + thread.0 as u64,
                    json_f64(us(readied)),
                    json_f64(us(started) - us(readied)),
                )),
                FlightEvent::Switch { from: _, to, at } => {
                    if let Some((prev, since)) = running.take() {
                        close_run(&mut out, prev, since, at);
                    }
                    running = Some((to, at));
                }
                FlightEvent::Pop { kind, index, at } => out.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"pop {}\",\"cat\":\"calendar\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{{\"index\":{index}}}}}",
                    pop_kind_name(kind),
                    TID_SCHEDULER,
                    json_f64(us(at)),
                )),
                FlightEvent::Quantum {
                    thread,
                    priority,
                    descheduled,
                    at,
                } => out.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"quantum expiry\",\"cat\":\"scheduler\",\
                     \"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{},\
                     \"args\":{{\"priority\":{priority},\"descheduled\":{descheduled}}}}}",
                    TID_THREAD_BASE + thread.0 as u64,
                    json_f64(us(at)),
                )),
            }
        }
        if let (Some((t, since)), Some(end)) = (running, last_at) {
            if end > since {
                close_run(&mut out, t, since, end);
            }
        }
        out
    }
}

fn pop_kind_name(kind: CalendarPopKind) -> &'static str {
    match kind {
        CalendarPopKind::Tick => "tick",
        CalendarPopKind::Env => "env",
        CalendarPopKind::Timer => "timer",
        CalendarPopKind::Wait => "wait",
    }
}

/// Wraps serialized trace-event objects (from one or more recorders and the
/// harness's own spans) into a complete Chrome trace-event document.
pub fn chrome_document(events: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// JSON string literal with the escapes our names can need.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite f64 as a JSON number (trace timestamps are always finite).
pub fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "trace timestamps must be finite");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Observer for FlightRecorder {
    fn interest(&self) -> Interest {
        self.interest
    }

    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.push(FlightEvent::Isr {
            vector: e.vector.0,
            asserted: e.asserted,
            started: e.started,
        });
    }

    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.push(FlightEvent::Dpc {
            dpc: e.dpc.0,
            queued: e.queued,
            started: e.started,
        });
    }

    fn on_thread_resume(&mut self, e: &ThreadResume) {
        self.push(FlightEvent::Resume {
            thread: e.thread,
            priority: e.priority,
            readied: e.readied,
            started: e.started,
        });
    }

    fn on_context_switch(&mut self, from: Option<ThreadId>, to: ThreadId, now: Instant) {
        self.push(FlightEvent::Switch { from, to, at: now });
    }

    fn on_calendar_pop(&mut self, e: &CalendarPop) {
        self.push(FlightEvent::Pop {
            kind: e.kind,
            index: e.index,
            at: e.at,
        });
    }

    fn on_quantum_expiry(&mut self, e: &QuantumExpiry) {
        self.push(FlightEvent::Quantum {
            thread: e.thread,
            priority: e.priority,
            descheduled: e.descheduled,
            at: e.at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{config::KernelConfig, kernel::Kernel, time::Cycles};
    use std::{cell::RefCell, rc::Rc};

    fn run_kernel_with(capacity: usize, ms: f64) -> (Kernel, Rc<RefCell<FlightRecorder>>) {
        let mut k = Kernel::new(KernelConfig::default());
        let rec = Rc::new(RefCell::new(FlightRecorder::new(capacity)));
        k.add_observer(rec.clone());
        k.run_for(Cycles::from_ms(ms));
        (k, rec)
    }

    #[test]
    fn records_and_caps_with_drop_count() {
        let (_k, rec) = run_kernel_with(32, 100.0);
        let r = rec.borrow();
        assert_eq!(r.len(), 32);
        assert!(r.total > 32, "PIT alone beats capacity: {}", r.total);
        assert_eq!(r.dropped, r.total - 32);
    }

    #[test]
    fn captures_calendar_pops() {
        let (_k, rec) = run_kernel_with(4096, 50.0);
        let r = rec.borrow();
        assert!(
            r.events()
                .any(|e| matches!(e, FlightEvent::Pop { kind: CalendarPopKind::Tick, .. })),
            "PIT ticks must appear as calendar pops"
        );
    }

    #[test]
    fn events_are_time_ordered() {
        let (_k, rec) = run_kernel_with(4096, 50.0);
        let r = rec.borrow();
        let times: Vec<u64> = r.events().map(|e| e.at().0).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chrome_events_are_valid_json_objects() {
        let (k, rec) = run_kernel_with(4096, 50.0);
        let events = rec.borrow().chrome_events(&k, 7, "test cell");
        assert!(!events.is_empty());
        for e in &events {
            assert!(e.starts_with('{') && e.ends_with('}'), "not an object: {e}");
            assert!(e.contains("\"pid\":7"));
            assert!(e.contains("\"ph\":\""));
            // Balanced braces — a cheap structural check without a parser.
            let depth = e.chars().fold(0i64, |d, c| match c {
                '{' => d + 1,
                '}' => d - 1,
                _ => d,
            });
            assert_eq!(depth, 0, "unbalanced braces: {e}");
        }
        assert!(events[0].contains("process_name"));
        assert!(events.iter().any(|e| e.contains("\"ph\":\"X\"")));
        assert!(events.iter().any(|e| e.contains("\"ph\":\"i\"")));
        let doc = chrome_document(&events);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn masked_recorder_sees_nothing() {
        let mut k = Kernel::new(KernelConfig::default());
        let rec = Rc::new(RefCell::new(FlightRecorder::with_interest(
            64,
            Interest::NONE,
        )));
        k.add_observer(rec.clone());
        k.run_for(Cycles::from_ms(50.0));
        assert_eq!(rec.borrow().total, 0);
        assert_eq!(k.notify_takes, 0, "masked recorder must cost zero takes");
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(3.25), "3.25");
    }

    #[test]
    fn json_str_escapes_edge_cases() {
        assert_eq!(json_str(""), "\"\"");
        assert_eq!(json_str("plain name"), "\"plain name\"");
        assert_eq!(json_str("q\"q"), "\"q\\\"q\"");
        assert_eq!(json_str("b\\b"), "\"b\\\\b\"");
        assert_eq!(json_str("\\\""), "\"\\\\\\\"\"");
        assert_eq!(json_str("\n\t\r"), "\"\\n\\t\\r\"");
        assert_eq!(json_str("\u{0}"), "\"\\u0000\"");
        assert_eq!(json_str("\u{1}x\u{1f}"), "\"\\u0001x\\u001f\"");
        // Non-ASCII passes through unescaped (JSON allows raw UTF-8).
        assert_eq!(json_str("µ/señal"), "\"µ/señal\"");
    }

    #[test]
    fn empty_ring_renders_metadata_only() {
        let k = Kernel::new(KernelConfig::default());
        let rec = FlightRecorder::new(8);
        assert!(rec.is_empty());
        assert_eq!(rec.peak_depth(), 0);
        let events = rec.chrome_events(&k, 1, "empty cell");
        assert!(!events.is_empty(), "metadata still rides first");
        assert!(events.iter().all(|e| e.contains("\"ph\":\"M\"")));
        let doc = chrome_document(&events);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
        // The slice renderer agrees on an explicitly empty window.
        let none = chrome_events_slice(&k, 1, "empty cell", &[]);
        assert_eq!(none, events);
    }

    #[test]
    fn events_in_copies_the_window() {
        // A wrapped ring, so the retained window starts mid-stream.
        let (_k, rec) = run_kernel_with(32, 200.0);
        let r = rec.borrow();
        assert_eq!(r.len(), 32);
        assert!(r.total > 8 * 32, "ring wrapped: {} events", r.total);
        // Reference: the linear filter over the whole ring.
        let oracle = |lo: Instant, hi: Instant| -> Vec<FlightEvent> {
            r.events()
                .filter(|e| e.at() >= lo && e.at() <= hi)
                .copied()
                .collect()
        };
        let times: Vec<Instant> = r.events().map(|e| e.at()).collect();
        let near = |t: Instant| [Instant(t.0 - 1), t, Instant(t.0 + 1)];
        // Every window between two retained timestamps, each end nudged by
        // ±1 cycle; `lo > hi` pairs included, which must come back empty.
        for &a in &times {
            for &b in &times {
                for lo in near(a) {
                    for hi in near(b) {
                        assert_eq!(r.events_in(lo, hi), oracle(lo, hi), "[{lo:?}, {hi:?}]");
                    }
                }
            }
        }
        let (first, last) = (times[0], times[times.len() - 1]);
        assert_eq!(r.events_in(first, last).len(), r.len());
        // Wholly before the oldest and after the newest retained event.
        let (before, after) = (Instant(first.0 - 1), Instant(last.0 + 1));
        assert!(r.events_in(Instant(0), before).is_empty());
        assert!(r.events_in(after, Instant(u64::MAX)).is_empty());
        // An inverted window is empty, not a panic inside `range`.
        assert!(r.events_in(last, first).is_empty());
        assert!(r.events_in(Instant(u64::MAX), Instant(0)).is_empty());
    }

    #[test]
    fn peak_depth_tracks_capacity_bound() {
        let (_k, rec) = run_kernel_with(32, 100.0);
        let r = rec.borrow();
        assert_eq!(r.peak_depth(), 32, "saturated ring peaks at capacity");
        let (_k2, rec2) = run_kernel_with(1 << 20, 1.0);
        let r2 = rec2.borrow();
        assert!(r2.total < 1 << 20);
        assert_eq!(r2.peak_depth(), r2.total, "unsaturated ring peaks at total");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }
}
