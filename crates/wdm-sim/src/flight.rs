//! Flight recorder: a span-oriented trace sink with Chrome trace export.
//!
//! [`FlightRecorder`] keeps the most recent kernel instrumentation events
//! in a bounded ring and exports them as **Chrome trace-event JSON** that
//! loads directly in Perfetto / `chrome://tracing`. The paper explains
//! long latencies with a cause tool that samples what the machine was
//! doing (§2.3); the flight recorder is the always-on equivalent: attach it
//! to a cell, re-run the minute, and read the timeline.
//!
//! The recorder is a **kernel-fed sink** that records every event kind. It
//! is attached with [`Kernel::add_observer`] like any observer, but the
//! kernel recognises it there and keeps it out of the `dyn Observer`
//! lists; a kernel holds at most one. ISR entries, DPC starts and thread
//! resumes are the observers' own values ([`IsrEnter`], [`DpcStart`],
//! [`ThreadResume`]): their emit sites build one value, push a copy into
//! the ring and hand `&e` to the hooks, so the ring stores exactly what
//! the hooks saw. Context switches, calendar pops and quantum expiries
//! have no hook; only the ring records them. The recorder's [`Observer`]
//! impl carries only [`Observer::subscription`], which names every object
//! of the three shared kinds so the kernel's one interest gate covers
//! their sites.
//!
//! The ring is a `VecDeque` of the [`FlightEvent`] values themselves, so
//! every event round-trips exactly (DESIGN.md §15). It starts empty and
//! doubles as it fills; its capacity bounds the events it keeps and
//! reserves nothing, so a ring that never holds more than a few hundred
//! events allocates for at most twice that. The kernel writes each event
//! in place, into the slot `FlightRecorder::slot` appends. A reader that
//! knows no later query can reach an event may drop it early with
//! [`FlightRecorder::release_before`], as the blame recorder does after
//! each watched resume. The ring is time-ordered, so a binary search
//! finds the cut and the older events drain in one step. A recorder whose
//! whole ring is exported ([`FlightRecorder::exported`]) ignores releases.
//! Releases and capacity evictions both take the oldest events, so the
//! retained events are always a suffix of what a ring that never releases
//! would hold.
//!
//! Determinism contract: the recorder is strictly read-only. It draws no
//! randomness and mutates no kernel state. With no recorder attached each
//! potential event costs exactly one branch in the kernel hot loop, and
//! no event is built.

use std::collections::VecDeque;
use std::io::{self, Write};

use crate::{
    ids::{DpcId, ThreadId, VectorId},
    kernel::Kernel,
    observer::{DpcStart, IsrEnter, Objects, Observer, Subscription, ThreadResume},
    time::Instant,
};

/// Which calendar heap a due entry popped from (see [`crate::calendar`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalendarPopKind {
    /// A PIT tick became due and asserted the clock vector.
    Tick,
    /// An environment-source arrival fired.
    Env,
    /// A kernel timer deadline fired inside the clock ISR.
    Timer,
    /// A thread's sleep expired inside the clock ISR. (Traces print it as
    /// `"wait"`; the name is pinned by the committed trace hashes.)
    Wait,
}

/// One recorded kernel event, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEvent {
    /// An ISR entered (assert → first instruction is the latency span).
    Isr(IsrEnter),
    /// A DPC started (queue → first instruction is the latency span).
    Dpc(DpcStart),
    /// A woken thread ran: a signaled wait or an expired sleep (ready →
    /// run is the span).
    Resume(ThreadResume),
    /// A context switch; consecutive switches bound thread-run spans.
    Switch {
        /// Outgoing thread, if any (`None` = leaving idle).
        from: Option<ThreadId>,
        /// Incoming thread.
        to: ThreadId,
        /// When.
        at: Instant,
    },
    /// A due calendar entry popped: a tick, an env arrival, a timer expiry
    /// or a sleep wake.
    Pop {
        /// Which heap.
        kind: CalendarPopKind,
        /// Object index within that heap's domain.
        index: u32,
        /// When.
        at: Instant,
    },
    /// A thread's quantum expired (round-robin or in-place refresh).
    Quantum {
        /// The thread.
        thread: ThreadId,
        /// Priority after boost decay.
        priority: u8,
        /// True if descheduled for a ready peer; false if it kept the CPU
        /// with a fresh quantum.
        descheduled: bool,
        /// When.
        at: Instant,
    },
}

impl FlightEvent {
    /// The event's timestamp (completion side).
    pub fn at(&self) -> Instant {
        match *self {
            FlightEvent::Isr(e) => e.started,
            FlightEvent::Dpc(e) => e.started,
            FlightEvent::Resume(e) => e.started,
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
#[cfg_attr(test, derive(Clone, PartialEq))]
pub struct FlightRecorder {
    /// Retained events, oldest first. Starts empty and doubles as it fills,
    /// so it allocates for at most max(4, twice its peak occupancy) events.
    ring: VecDeque<FlightEvent>,
    /// Most events retained at once; at this bound a new event evicts the
    /// oldest.
    capacity: usize,
    /// The whole ring is exported, so [`Self::release_before`] is a no-op.
    exported: bool,
    /// High-water mark of `ring.len()`.
    peak: usize,
    /// Total events observed, evicted and released ones included.
    pub total: u64,
    /// Events evicted to honor the capacity bound.
    pub dropped: u64,
    /// Events dropped by [`Self::release_before`]; `total == len() +
    /// dropped + released`.
    pub released: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events of every kind,
    /// less any a reader releases.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            ring: VecDeque::new(),
            capacity,
            exported: false,
            peak: 0,
            total: 0,
            dropped: 0,
            released: 0,
        }
    }

    /// A recorder whose whole ring is exported (a cell trace): it keeps the
    /// most recent `capacity` events and ignores [`Self::release_before`].
    pub fn exported(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            exported: true,
            ..FlightRecorder::new(capacity)
        }
    }

    /// Appends a slot stamped `at`, evicting the oldest event at capacity,
    /// and returns it for the caller to write the event into. Called by
    /// the kernel's emit sites only, behind their recorder branch. Kept out
    /// of line: the caller's stores go through the returned reference, so
    /// no event is built before the branch, and each emit site stays one
    /// call.
    #[inline(never)]
    pub(crate) fn slot(&mut self, at: Instant) -> &mut FlightEvent {
        // The kernel stamps every event with its `now`, so arrival order is
        // time order; `events_in` and `release_before` rely on it.
        debug_assert!(
            self.ring.back().is_none_or(|e| e.at() <= at),
            "flight ring must stay time-ordered"
        );
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightEvent::Pop {
            kind: CalendarPopKind::Tick,
            index: 0,
            at,
        });
        self.peak = self.peak.max(self.ring.len());
        self.total += 1;
        self.ring.back_mut().expect("a slot was just appended")
    }

    /// Drops every retained event stamped before `t`; a no-op on an
    /// exported recorder. A caller releases only what no later query can
    /// read: [`Self::events_in`] then returns what it would have without
    /// the release. The ring is time-ordered (asserted in `slot`), so a
    /// binary search finds the cut: O(log ring).
    pub fn release_before(&mut self, t: Instant) {
        if self.exported {
            return;
        }
        let n = self.ring.partition_point(|e| e.at() < t);
        self.ring.drain(..n);
        self.released += n as u64;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        self.ring.iter().copied()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no event is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Peak ring occupancy so far — the source for the
    /// `sim.flight.ring_peak` gauge. For a ring that never releases it is
    /// the smaller of the total observed and the capacity.
    pub fn peak_depth(&self) -> u64 {
        self.peak as u64
    }

    /// Copies out the retained events whose timestamp falls in
    /// `[lo, hi]`, oldest first — the episode-capture window of the blame
    /// tool. The ring is time-ordered (asserted in `slot`), so two binary
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
        let events: Vec<FlightEvent> = self.events().collect();
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
            let name = format!("vector {}", k.interrupts().vector(VectorId(v)).name);
            meta(TID_VECTOR_BASE + v as u64, &name);
        }
        for d in 0..k.num_dpcs() {
            let name = format!("dpc {}", k.dpc(DpcId(d)).name);
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
                FlightEvent::Isr(e) => out.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"isr latency\",\"cat\":\"isr\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"vector\":{}}}}}",
                    TID_VECTOR_BASE + e.vector.0 as u64,
                    json_f64(us(e.asserted)),
                    json_f64(us(e.started) - us(e.asserted)),
                    e.vector.0,
                )),
                FlightEvent::Dpc(e) => out.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"dpc latency\",\"cat\":\"dpc\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"dpc\":{}}}}}",
                    TID_DPC_BASE + e.dpc.0 as u64,
                    json_f64(us(e.queued)),
                    json_f64(us(e.started) - us(e.queued)),
                    e.dpc.0,
                )),
                FlightEvent::Resume(e) => out.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"wake latency\",\"cat\":\"thread\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"priority\":{}}}}}",
                    TID_THREAD_BASE + e.thread.0 as u64,
                    json_f64(us(e.readied)),
                    json_f64(us(e.started) - us(e.readied)),
                    e.priority,
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
    let mut out = Vec::new();
    write_chrome_document(&mut out, events).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("trace events are strings")
}

/// Writes the document [`chrome_document`] returns into `w`, one event at
/// a time, so a caller can stream events it already holds to a file
/// without joining or copying them.
pub fn write_chrome_document<W, I>(w: &mut W, events: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut events = events.into_iter().peekable();
    while let Some(e) = events.next() {
        w.write_all(e.as_ref().as_bytes())?;
        if events.peek().is_some() {
            w.write_all(b",")?;
        }
        w.write_all(b"\n")?;
    }
    w.write_all(b"],\"displayTimeUnit\":\"ms\"}\n")
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

/// Only the subscription: the kernel recognises a recorder at
/// [`Kernel::add_observer`] time and pushes into its ring directly, so it
/// implements no event hook. The subscription names every object of the
/// kinds the ring shares with the hooks, so their emit sites keep one
/// gate; the ring-only kinds are pushed whenever a recorder is attached.
impl Observer for FlightRecorder {
    fn subscription(&self) -> Subscription {
        Subscription {
            isr_enter: Objects::All,
            dpc_start: Objects::All,
            thread_resume: Objects::All,
            resume_blame: Objects::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{config::KernelConfig, kernel::Kernel, labels::Label, time::Cycles};
    use std::{cell::RefCell, rc::Rc};

    impl FlightRecorder {
        /// Appends `e` as an emit site does.
        fn push(&mut self, e: FlightEvent) {
            *self.slot(e.at()) = e;
        }
    }

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
            r.events().any(|e| matches!(
                e,
                FlightEvent::Pop {
                    kind: CalendarPopKind::Tick,
                    ..
                }
            )),
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

    /// Checks `events_in` against the linear filter over the whole ring for
    /// every window between two retained timestamps, each end nudged by
    /// ±1 cycle, `lo > hi` pairs included (which must come back empty).
    fn assert_events_in_matches_filter(r: &FlightRecorder) {
        let oracle = |lo: Instant, hi: Instant| -> Vec<FlightEvent> {
            r.events()
                .filter(|e| e.at() >= lo && e.at() <= hi)
                .collect()
        };
        let times: Vec<Instant> = r.events().map(|e| e.at()).collect();
        let near = |t: Instant| [Instant(t.0 - 1), t, Instant(t.0 + 1)];
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
        assert_eq!(r.events_in(first, last), r.events().collect::<Vec<_>>());
        // Wholly before the oldest and after the newest retained event.
        let (before, after) = (Instant(first.0 - 1), Instant(last.0 + 1));
        assert!(r.events_in(Instant(0), before).is_empty());
        assert!(r.events_in(after, Instant(u64::MAX)).is_empty());
        // An inverted window is empty, not a panic inside the slicing.
        assert!(r.events_in(last, first).is_empty());
        assert!(r.events_in(Instant(u64::MAX), Instant(0)).is_empty());
    }

    #[test]
    fn events_in_copies_the_window() {
        // A ring that has cycled past its bound, so the retained window
        // starts mid-stream.
        let (_k, rec) = run_kernel_with(32, 200.0);
        let r = rec.borrow();
        assert_eq!(r.len(), 32);
        assert!(r.total > 8 * 32, "ring cycled: {} events", r.total);
        assert_events_in_matches_filter(&r);

        // A ring of every variant whose events run past the end of its
        // buffer and on from the start, the split landing inside the window.
        let mut r = FlightRecorder::new(20);
        for e in (1..4).flat_map(|round| samples(round << 40)) {
            r.push(e);
        }
        let (_, newer) = r.ring.as_slices();
        assert!(r.dropped > 0 && !newer.is_empty(), "ring split mid-slice");
        assert_events_in_matches_filter(&r);

        // A releasing ring below its capacity, checked at every push where
        // its events are split across the end of its buffer.
        let mut r = FlightRecorder::new(1 << 10);
        let stream: Vec<FlightEvent> = (0..4u64)
            .flat_map(|round| samples((1 << 40) + round * (1 << 36)))
            .collect();
        let mut checked = 0;
        for (n, &e) in stream.iter().enumerate() {
            r.push(e);
            if n % 5 == 4 {
                r.release_before(stream[n - 3].at());
            }
            let (_, newer) = r.ring.as_slices();
            if !newer.is_empty() {
                assert!(r.released > 0 && r.ring.capacity() < r.capacity);
                assert_events_in_matches_filter(&r);
                checked += 1;
            }
        }
        assert!(checked > 0, "the releasing ring split below its capacity");
    }

    #[test]
    fn release_before_drops_exactly_the_older_events() {
        let stream = samples(1 << 40);
        let fill = |mut r: FlightRecorder| {
            for &e in &stream {
                r.push(e);
            }
            r
        };
        let mut r = fill(FlightRecorder::new(64));
        let mut exported = fill(FlightRecorder::exported(64));
        // A floor before every event, then every stamp in order, some
        // shared by several events: a release at `t` keeps the events
        // stamped `t`.
        for t in std::iter::once(Instant(0)).chain(stream.iter().map(FlightEvent::at)) {
            r.release_before(t);
            exported.release_before(t);
            let kept: Vec<FlightEvent> = stream.iter().copied().filter(|e| e.at() >= t).collect();
            assert_eq!(r.events().collect::<Vec<_>>(), kept, "release before {t:?}");
            assert_eq!(r.total, r.len() as u64 + r.dropped + r.released);
            assert_eq!(
                exported.events().collect::<Vec<_>>(),
                stream,
                "exported keeps all"
            );
        }
        r.release_before(Instant(u64::MAX));
        assert!(r.is_empty());
        assert_eq!(r.released, stream.len() as u64);
        assert_eq!(
            r.peak_depth(),
            stream.len() as u64,
            "the peak outlives release"
        );
        assert_eq!((exported.released, exported.len()), (0, stream.len()));
    }

    /// One instance of every event variant and pop kind, time ordered from
    /// `t0`. Several share a timestamp.
    fn samples(t0: u64) -> Vec<FlightEvent> {
        let t = |dt: u64| Instant(t0 + dt);
        let isr = |vector, label| {
            FlightEvent::Isr(IsrEnter {
                vector: VectorId(vector),
                asserted: t(3),
                started: t(10),
                interrupted_label: Label(label),
            })
        };
        let dpc = |dpc, queued, started| {
            FlightEvent::Dpc(DpcStart {
                dpc: DpcId(dpc),
                queued: t(queued),
                started: t(started),
            })
        };
        let resume = |thread, priority| {
            FlightEvent::Resume(ThreadResume {
                thread: ThreadId(thread),
                priority,
                readied: t(116),
                started: t(516),
            })
        };
        let switch = |from: Option<usize>, to, at| FlightEvent::Switch {
            from: from.map(ThreadId),
            to: ThreadId(to),
            at: t(at),
        };
        let pop = |kind, index, at| FlightEvent::Pop {
            kind,
            index,
            at: t(at),
        };
        let quantum = |thread, priority, descheduled, at| FlightEvent::Quantum {
            thread: ThreadId(thread),
            priority,
            descheduled,
            at: t(at),
        };
        vec![
            isr(3, 5),
            isr(0, 0),
            dpc(7, 13, 13),
            dpc(2, 0, 16),
            resume(5, 31),
            resume(1, 24),
            switch(None, 2, 518),
            switch(Some(0), 0, 518),
            switch(Some(2), 1, 520),
            pop(CalendarPopKind::Tick, 0, 524),
            pop(CalendarPopKind::Env, 1, 524),
            pop(CalendarPopKind::Timer, 2, 524),
            pop(CalendarPopKind::Wait, 3, 524),
            pop(CalendarPopKind::Timer, 9, 525),
            quantum(4, 0, true, 534),
            quantum(1, 31, false, 543),
        ]
    }

    /// The release the ring had before its binary search, one pop per
    /// released event: the reference `release_before` must match.
    fn release_by_pops(r: &mut FlightRecorder, t: Instant) {
        if r.exported {
            return;
        }
        while r.ring.front().is_some_and(|e| e.at() < t) {
            r.ring.pop_front();
            r.released += 1;
        }
    }

    #[test]
    fn every_variant_round_trips() {
        // Several rounds of every variant through a ring that cycles every
        // few events and one that cycles once a round, each plain, releasing
        // (every fifth push, up to the event before it, as a blame
        // recorder's floor trails the newest event) and exported. A `Vec`
        // model keeps the same suffix of the stream, a twin ring released
        // one pop per event keeps the same state, event for event, and the
        // ring never allocates more than twice its peak occupancy.
        let stream: Vec<FlightEvent> = (0..4u64)
            .flat_map(|round| samples((1 << 40) + round * (1 << 36)))
            .collect();
        for capacity in [3, 64] {
            for (releasing, exported) in [(false, false), (true, false), (true, true)] {
                let ring = if exported {
                    FlightRecorder::exported
                } else {
                    FlightRecorder::new
                };
                let (mut r, mut popped) = (ring(capacity), ring(capacity));
                let mut model: Vec<FlightEvent> = Vec::new();
                let mut split_growths = 0;
                for (n, &e) in stream.iter().enumerate() {
                    let full = r.len() == r.ring.capacity() && r.len() < capacity;
                    split_growths += usize::from(full && !r.ring.as_slices().1.is_empty());
                    r.push(e);
                    popped.push(e);
                    model.push(e);
                    if model.len() > capacity {
                        model.remove(0);
                    }
                    let case = format!("cap {capacity}, releasing {releasing}, push {n}");
                    // Growing no further than twice the peak keeps a
                    // releasing ring's footprint at its occupancy, not its
                    // capacity.
                    assert!(
                        r.ring.capacity() as u64 <= (2 * r.peak_depth()).max(4),
                        "{case}: allocated {} slots at peak {}",
                        r.ring.capacity(),
                        r.peak_depth()
                    );
                    if releasing && n % 5 == 4 {
                        let t = stream[n - 1].at();
                        r.release_before(t);
                        release_by_pops(&mut popped, t);
                        if !exported {
                            model.retain(|e| e.at() >= t);
                        }
                    }
                    assert_eq!(r, popped, "{case}");
                    assert_eq!(r.events().collect::<Vec<_>>(), model, "{case}");
                    assert_eq!(r.total, r.len() as u64 + r.dropped + r.released);
                }
                assert_eq!(r.total, stream.len() as u64);
                if releasing && !exported {
                    assert!(r.released > 0, "cap {capacity}: releases took events");
                } else {
                    assert_eq!(r.released, 0);
                    assert_eq!(r.dropped, (stream.len() - capacity) as u64);
                }
                if releasing && !exported && capacity == 64 {
                    assert!(split_growths > 0, "grew from a split ring");
                }
                // Every cut of the final ring, oldest stamp to past the
                // newest, on copies of it and its twin.
                let past = Instant(u64::MAX);
                for t in stream.iter().map(FlightEvent::at).chain([past]) {
                    let (mut a, mut b) = (r.clone(), popped.clone());
                    a.release_before(t);
                    release_by_pops(&mut b, t);
                    assert_eq!(a, b, "cap {capacity}, cut {t:?}");
                }
            }
        }
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
