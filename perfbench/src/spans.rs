//! In-memory host-time spans recorded around the benchmark's calls into
//! each layer. A span carries its name, start, end and parent; the spans
//! stay in memory and are written out once, when the benchmark ends. A
//! span's self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span, times in nanoseconds from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `setup.build_scenario`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans; a disabled tracer only runs the closures.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(ix);
        let r = f(self);
        self.open.pop();
        self.spans[ix].end_ns = self.now_ns();
        r
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children of one span run one after another on one thread, so their
/// durations never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time summed by span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    by
}

/// Total duration by span name, in seconds.
pub fn total_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by = BTreeMap::new();
    for s in spans {
        *by.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
    }
    by
}

/// The spans as a JSON document: one object per span with its self time.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(i, (s, own))| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns
            )
        })
        .collect();
    format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            busy(50_000);
            t.span("a", |t| {
                busy(50_000);
                t.span("a.inner", |_| busy(50_000));
            });
            t.span("b", |_| busy(50_000));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        let own = self_times_ns(spans);
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(
            own.iter().sum::<u64>(),
            root,
            "self times sum to the root span"
        );
        assert!(own.iter().all(|&o| o >= 50_000));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("root", |t| t.span("child", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
