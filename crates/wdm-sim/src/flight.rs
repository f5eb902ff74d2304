//! Flight recorder: a span-oriented trace sink with Chrome trace export.
//!
//! [`FlightRecorder`] keeps the most recent kernel instrumentation events
//! in a bounded ring, covering the full event vocabulary (calendar pops and
//! quantum expiries included) and exporting **Chrome trace-event JSON**
//! that loads directly in Perfetto / `chrome://tracing`. The paper explains
//! long latencies with a cause tool that samples what the machine was
//! doing (§2.3); the flight recorder is the always-on equivalent: attach it
//! to a cell, re-run the minute, and read the timeline.
//!
//! The recorder is a **kernel-fed sink**. It is attached with
//! [`Kernel::add_observer`] like any observer, but the kernel recognises it
//! there and keeps it out of the `dyn Observer` lists: the six emit sites
//! push straight into the ring, gated by the recorder's own interest mask.
//! Its [`Observer`] impl carries only [`Observer::interest`], so every
//! event has exactly one delivery path.
//!
//! Each retained event is one 16-byte slot: its timestamp plus a packed
//! word (layout below). An event with a field the word cannot hold is kept
//! whole in an overflow map keyed by its arrival ordinal, pruned when the
//! ring evicts its slot, so every event round-trips exactly (DESIGN.md
//! §15).
//!
//! Determinism contract: the recorder is strictly read-only. It draws no
//! randomness and mutates no kernel state. With no recorder attached (or
//! one narrowed to [`Interest::NONE`]) each potential event costs exactly
//! one masked branch in the kernel hot loop.

use std::collections::BTreeMap;

use crate::{
    ids::ThreadId,
    kernel::Kernel,
    observer::{CalendarPopKind, Interest, Observer},
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
    /// A woken thread ran: a signaled wait or an expired sleep (ready →
    /// run is the span).
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

// Slot word layout, least significant bit first:
//   kind (3) | flag (1) | priority or pop kind (8) | object index (20) | span (32)
// The span is `at - start` for ISR/DPC/resume events and `from + 1`
// (0 = idle) for switches; the flag is a quantum expiry's `descheduled`.
const KIND_MASK: u64 = 0b111;
const FLAG_BIT: u64 = 1 << 3;
const PRIO_SHIFT: u32 = 4;
const INDEX_SHIFT: u32 = 12;
/// Object indices at or above this limit escape to the overflow map.
const INDEX_LIMIT: usize = 1 << 20;
const SPAN_SHIFT: u32 = 32;

const KIND_ISR: u64 = 0;
const KIND_DPC: u64 = 1;
const KIND_RESUME: u64 = 2;
const KIND_SWITCH: u64 = 3;
const KIND_POP: u64 = 4;
const KIND_QUANTUM: u64 = 5;
/// The event lives whole in the overflow map under the slot's ordinal.
const KIND_ESCAPED: u64 = 7;

/// Pop kinds by their packed code (`CalendarPopKind as u8`).
const POP_KINDS: [CalendarPopKind; 4] = [
    CalendarPopKind::Tick,
    CalendarPopKind::Env,
    CalendarPopKind::Timer,
    CalendarPopKind::Wait,
];

/// One ring slot: the event's timestamp and its packed description.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: u64,
    word: u64,
}

impl Slot {
    /// Packs `e`, or `None` when one of its fields does not fit the word.
    fn pack(e: &FlightEvent) -> Option<Slot> {
        let word = |kind: u64, flag: bool, prio: u8, index: usize, span: u64| {
            let flag = if flag { FLAG_BIT } else { 0 };
            (index < INDEX_LIMIT && span <= u64::from(u32::MAX)).then_some(
                kind | flag
                    | u64::from(prio) << PRIO_SHIFT
                    | (index as u64) << INDEX_SHIFT
                    | span << SPAN_SHIFT,
            )
        };
        let at = e.at().0;
        let span = |start: Instant| at.checked_sub(start.0);
        let word = match *e {
            FlightEvent::Isr {
                vector, asserted, ..
            } => word(KIND_ISR, false, 0, vector, span(asserted)?),
            FlightEvent::Dpc { dpc, queued, .. } => word(KIND_DPC, false, 0, dpc, span(queued)?),
            FlightEvent::Resume {
                thread,
                priority,
                readied,
                ..
            } => word(KIND_RESUME, false, priority, thread.0, span(readied)?),
            FlightEvent::Switch { from, to, .. } => {
                let from = match from {
                    None => 0,
                    Some(f) => u64::try_from(f.0).ok()?.checked_add(1)?,
                };
                word(KIND_SWITCH, false, 0, to.0, from)
            }
            FlightEvent::Pop { kind, index, .. } => {
                word(KIND_POP, false, kind as u8, usize::try_from(index).ok()?, 0)
            }
            FlightEvent::Quantum {
                thread,
                priority,
                descheduled,
                ..
            } => word(KIND_QUANTUM, descheduled, priority, thread.0, 0),
        }?;
        Some(Slot { at, word })
    }

    fn escaped(self) -> bool {
        self.word & KIND_MASK == KIND_ESCAPED
    }

    /// The event a non-escaped slot packs.
    fn unpack(self) -> FlightEvent {
        let w = self.word;
        let at = Instant(self.at);
        let prio = (w >> PRIO_SHIFT) as u8;
        let index = (w >> INDEX_SHIFT) as usize & (INDEX_LIMIT - 1);
        let span = w >> SPAN_SHIFT;
        let start = Instant(self.at - span);
        match w & KIND_MASK {
            KIND_ISR => FlightEvent::Isr {
                vector: index,
                asserted: start,
                started: at,
            },
            KIND_DPC => FlightEvent::Dpc {
                dpc: index,
                queued: start,
                started: at,
            },
            KIND_RESUME => FlightEvent::Resume {
                thread: ThreadId(index),
                priority: prio,
                readied: start,
                started: at,
            },
            KIND_SWITCH => FlightEvent::Switch {
                from: span.checked_sub(1).map(|f| ThreadId(f as usize)),
                to: ThreadId(index),
                at,
            },
            KIND_POP => FlightEvent::Pop {
                kind: POP_KINDS[usize::from(prio)],
                index: index as u32,
                at,
            },
            KIND_QUANTUM => FlightEvent::Quantum {
                thread: ThreadId(index),
                priority: prio,
                descheduled: w & FLAG_BIT != 0,
                at,
            },
            _ => unreachable!("escaped slots decode through the overflow map"),
        }
    }
}

/// A bounded ring of recent kernel events with Chrome trace export.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Slot `n % capacity` holds arrival ordinal `n`. Grows to `capacity`
    /// (reserved up front, so pushes never reallocate), then overwrites the
    /// oldest slot in place.
    slots: Vec<Slot>,
    capacity: usize,
    /// Where the next event lands.
    next: usize,
    /// Events too wide for a slot word, by arrival ordinal; an entry lives
    /// exactly as long as its escaped slot.
    overflow: BTreeMap<u64, FlightEvent>,
    interest: Interest,
    /// Total events observed, evicted ones included.
    pub total: u64,
    /// Events evicted to honor the capacity bound.
    pub dropped: u64,
}

/// Every event kind a slot can encode: all but resume blame.
fn recordable_kinds() -> Interest {
    Interest::ISR_ENTER
        | Interest::DPC_START
        | Interest::THREAD_RESUME
        | Interest::CONTEXT_SWITCH
        | Interest::CALENDAR_POP
        | Interest::QUANTUM_EXPIRY
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events of every kind
    /// it can encode (all but resume blame).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_interest(capacity, recordable_kinds())
    }

    /// A recorder narrowed to `interest`, less the kinds it cannot encode.
    /// [`Interest::NONE`] yields a fully masked recorder the kernel never
    /// pushes to — the configuration `tests/observer_interest.rs` uses to
    /// prove attachment is free.
    pub fn with_interest(capacity: usize, interest: Interest) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            slots: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            overflow: BTreeMap::new(),
            interest: interest & recordable_kinds(),
            total: 0,
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest at capacity. Called by the
    /// kernel's emit sites only.
    pub(crate) fn push(&mut self, e: FlightEvent) {
        // The kernel stamps every event with its `now`, so arrival order is
        // time order; `events_in` binary-searches on it.
        debug_assert!(
            self.newest().is_none_or(|b| b.at <= e.at().0),
            "flight ring must stay time-ordered"
        );
        let ordinal = self.total;
        let slot = Slot::pack(&e).unwrap_or_else(|| {
            self.overflow.insert(ordinal, e);
            Slot {
                at: e.at().0,
                word: KIND_ESCAPED,
            }
        });
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            if self.slots[self.next].escaped() {
                self.overflow.remove(&(ordinal - self.capacity as u64));
            }
            self.slots[self.next] = slot;
            self.dropped += 1;
        }
        self.next += 1;
        if self.next == self.capacity {
            self.next = 0;
        }
        self.total += 1;
    }

    fn newest(&self) -> Option<Slot> {
        let i = self
            .next
            .checked_sub(1)
            .unwrap_or(self.slots.len().wrapping_sub(1));
        self.slots.get(i).copied()
    }

    /// The retained slots, oldest first, as the ring's two contiguous runs.
    fn halves(&self) -> (&[Slot], &[Slot]) {
        if self.slots.len() < self.capacity {
            (&self.slots, &[])
        } else {
            let (newer, older) = self.slots.split_at(self.next);
            (older, newer)
        }
    }

    /// Arrival ordinal of the oldest retained event.
    fn first_ordinal(&self) -> u64 {
        self.total - self.slots.len() as u64
    }

    fn decode(&self, s: Slot, ordinal: u64) -> FlightEvent {
        if s.escaped() {
            self.overflow[&ordinal]
        } else {
            s.unpack()
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        let (older, newer) = self.halves();
        older
            .iter()
            .chain(newer)
            .zip(self.first_ordinal()..)
            .map(|(&s, ordinal)| self.decode(s, ordinal))
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
    /// searches per contiguous half find the window's ends and only the
    /// window is decoded: O(log ring + window). Empty when `lo > hi`.
    pub fn events_in(&self, lo: Instant, hi: Instant) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let (older, newer) = self.halves();
        let mut ordinal = self.first_ordinal();
        for half in [older, newer] {
            let start = half.partition_point(|s| s.at < lo.0);
            let end = half.partition_point(|s| s.at <= hi.0);
            out.extend(
                half[start..end]
                    .iter()
                    .zip(ordinal + start as u64..)
                    .map(|(&s, o)| self.decode(s, o)),
            );
            ordinal += half.len() as u64;
        }
        out
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
            let name = format!(
                "vector {}",
                k.interrupts().vector(crate::ids::VectorId(v)).name
            );
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
                FlightEvent::Dpc {
                    dpc,
                    queued,
                    started,
                } => out.push(format!(
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

/// Only the mask: the kernel recognises a recorder at
/// [`Kernel::add_observer`] time and pushes into its ring directly, so it
/// implements no event hook.
impl Observer for FlightRecorder {
    fn interest(&self) -> Interest {
        self.interest
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
        // A wrapped ring, so the retained window starts mid-stream.
        let (_k, rec) = run_kernel_with(32, 200.0);
        let r = rec.borrow();
        assert_eq!(r.len(), 32);
        assert!(r.total > 8 * 32, "ring wrapped: {} events", r.total);
        assert_events_in_matches_filter(&r);

        // A wrapped ring whose retained slots include escaped events, with
        // the wrap point landing inside the window.
        let mut r = FlightRecorder::new(24);
        for (e, _) in samples(1 << 40).into_iter().chain(samples(1 << 41)) {
            r.push(e);
        }
        assert!(r.dropped > 0 && r.next != 0, "ring wrapped mid-slice");
        assert!(
            r.slots.iter().any(|s| s.escaped()),
            "escaped slots retained"
        );
        assert_events_in_matches_filter(&r);
    }

    /// One instance of every event variant and every slot escape, time
    /// ordered from `t0`, each with whether it must escape to the overflow
    /// map. Several share a timestamp.
    fn samples(t0: u64) -> Vec<(FlightEvent, bool)> {
        let limit = INDEX_LIMIT;
        let wide = 1u64 << 32;
        let mut t = t0;
        let mut at = |dt: u64| {
            t += dt;
            Instant(t)
        };
        let before = |at: Instant, span: u64| Instant(at.0 - span);
        let mut out = Vec::new();
        let isr = |vector, at: Instant, span| FlightEvent::Isr {
            vector,
            asserted: before(at, span),
            started: at,
        };
        let a = at(10);
        out.push((isr(3, a, 1_234), false));
        out.push((isr(limit - 1, a, u64::from(u32::MAX)), false));
        out.push((isr(limit, at(5), 7), true));
        out.push((isr(0, at(wide + 9), wide), true));
        let a = at(1);
        out.push((
            FlightEvent::Isr {
                vector: 1,
                asserted: Instant(a.0 + 1),
                started: a,
            },
            true,
        ));
        let a = at(3);
        out.push((
            FlightEvent::Dpc {
                dpc: 7,
                queued: before(a, 0),
                started: a,
            },
            false,
        ));
        let a = at(wide + 3);
        out.push((
            FlightEvent::Dpc {
                dpc: 2,
                queued: before(a, wide + 1),
                started: a,
            },
            true,
        ));
        let resume = |thread, priority, at: Instant| FlightEvent::Resume {
            thread: ThreadId(thread),
            priority,
            readied: before(at, 400),
            started: at,
        };
        out.push((resume(5, 31, at(500)), false));
        out.push((resume(limit - 1, u8::MAX, at(500)), false));
        out.push((resume(limit, 24, at(500)), true));
        let switch = |from: Option<usize>, to, at| FlightEvent::Switch {
            from: from.map(ThreadId),
            to: ThreadId(to),
            at,
        };
        let a = at(2);
        out.push((switch(None, 2, a), false));
        out.push((switch(Some(0), 0, a), false));
        out.push((switch(Some(u32::MAX as usize - 1), limit - 1, at(2)), false));
        out.push((switch(Some(u32::MAX as usize), 1, at(2)), true));
        out.push((switch(Some(usize::MAX), 1, at(2)), true));
        out.push((switch(None, limit, at(2)), true));
        let a = at(4);
        for (n, kind) in POP_KINDS.into_iter().enumerate() {
            out.push((
                FlightEvent::Pop {
                    kind,
                    index: n as u32,
                    at: a,
                },
                false,
            ));
        }
        out.push((
            FlightEvent::Pop {
                kind: CalendarPopKind::Timer,
                index: limit as u32 - 1,
                at: at(1),
            },
            false,
        ));
        out.push((
            FlightEvent::Pop {
                kind: CalendarPopKind::Env,
                index: u32::MAX,
                at: at(1),
            },
            true,
        ));
        let quantum = |thread, priority, descheduled, at| FlightEvent::Quantum {
            thread: ThreadId(thread),
            priority,
            descheduled,
            at,
        };
        out.push((quantum(4, 0, true, at(9)), false));
        out.push((quantum(limit - 1, 31, false, at(9)), false));
        out.push((quantum(limit, 12, true, at(9)), true));
        out
    }

    #[test]
    fn slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn pop_kind_codes_round_trip() {
        for kind in POP_KINDS {
            assert_eq!(POP_KINDS[kind as usize], kind);
        }
    }

    #[test]
    fn every_variant_and_escape_round_trips() {
        let one_round = samples(1 << 40);
        for (e, escapes) in &one_round {
            assert_eq!(Slot::pack(e).is_none(), *escapes, "{e:?}");
            if let Some(s) = Slot::pack(e) {
                assert_eq!(s.unpack(), *e);
            }
        }
        // Several rounds through a ring that wraps every few events and one
        // that wraps once a round: escaped slots get evicted, and their
        // overflow entries must go with them.
        let stream: Vec<FlightEvent> = (0..4u64)
            .flat_map(|round| samples((1 << 40) + round * (1 << 36)))
            .map(|(e, _)| e)
            .collect();
        for capacity in [3, 64] {
            let mut r = FlightRecorder::new(capacity);
            for (n, &e) in stream.iter().enumerate() {
                r.push(e);
                let kept = &stream[(n + 1).saturating_sub(capacity)..=n];
                assert_eq!(
                    r.events().collect::<Vec<_>>(),
                    kept,
                    "cap {capacity}, push {n}"
                );
                let escaped = r.slots.iter().filter(|s| s.escaped()).count();
                assert_eq!(r.overflow.len(), escaped, "overflow pruned with its slots");
                assert!(r.overflow.keys().all(|&o| o >= r.first_ordinal()));
            }
            assert_eq!(r.total, stream.len() as u64);
            assert_eq!(r.dropped, (stream.len() - capacity) as u64);
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
