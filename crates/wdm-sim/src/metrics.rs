//! Unified metrics registry.
//!
//! Every layer of the reproduction keeps counters — the kernel's
//! `sim_events`/`notify_takes`/`busy_overruns`, the calendar's tick work,
//! the cause tool's episode counts — and until now each traveled through
//! its own ad-hoc field. [`MetricsSnapshot`] names them uniformly
//! (`sim.events`, `latency.episodes`, ...) so one cell's metrics are one
//! value, mergeable **exactly** across shards next to the PR-4 measurement
//! merge and serializable as hand-rolled JSON (the workspace carries no
//! serde).
//!
//! Merge rules, CI-checkable and proptest-proven in
//! `wdm-latency/tests/metrics_merge_oracle.rs`:
//! - **Counter**: sum (saturating, like the measurement counters).
//! - **Gauge**: max wins (used for point-in-time values where a sum is
//!   meaningless, e.g. a peak queue depth). Max is order-independent —
//!   "last shard wins" was not, so a gauge cannot depend on how the
//!   merges are ordered or grouped.
//! - **Histogram**: bin-wise count sum; edges must be identical, merging
//!   mismatched shapes is a logic error and panics.
//!
//! Every rule is commutative and associative, so a cell's merged snapshot
//! is the same however its shard merges are grouped or ordered (the
//! bench harness merges them in time order; `metrics_merge_oracle.rs`
//! checks merged == streamed and fold-shape independence). New metric
//! kinds must keep the commutative-merge contract.

use std::collections::BTreeMap;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone count; shards sum.
    Counter(u64),
    /// Point-in-time value; the largest merged shard wins.
    Gauge(f64),
    /// Bucketed distribution; shards merge bin-wise over identical edges.
    Histogram {
        /// Upper bucket edges (the last bucket is unbounded above).
        edges: Vec<f64>,
        /// Per-bucket counts; `counts.len() == edges.len() + 1`.
        counts: Vec<u64>,
    },
}

/// A point-in-time capture of named metrics, sorted by name.
///
/// Backed by a `BTreeMap` so iteration (and therefore JSON output) is
/// deterministic regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Records a counter (overwrites any previous value under the name).
    pub fn counter(&mut self, name: &str, value: u64) {
        self.entries
            .insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Records a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.entries
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Records a histogram. `counts` must have one more element than
    /// `edges` (the overflow bucket).
    pub fn histogram(&mut self, name: &str, edges: Vec<f64>, counts: Vec<u64>) {
        assert_eq!(
            counts.len(),
            edges.len() + 1,
            "histogram {name}: counts must be edges + overflow"
        );
        self.entries
            .insert(name.to_string(), MetricValue::Histogram { edges, counts });
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// The counter's value, or `None` if absent or not a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another shard's snapshot into this one, exactly: counters
    /// sum (saturating), gauges keep the larger value, histograms add
    /// bin-wise. Each rule is commutative and associative, so the result
    /// is independent of shard merge order. A name present on only one
    /// side is kept as-is; a name whose *kind* differs between sides is a
    /// logic error and panics.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (name, theirs) in &other.entries {
            match self.entries.get_mut(name) {
                None => {
                    self.entries.insert(name.clone(), theirs.clone());
                }
                Some(mine) => match (mine, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.saturating_add(*b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                        *a = a.max(*b);
                    }
                    (
                        MetricValue::Histogram { edges: ea, counts: ca },
                        MetricValue::Histogram { edges: eb, counts: cb },
                    ) => {
                        assert_eq!(ea, eb, "metric {name}: histogram edges differ across shards");
                        for (a, b) in ca.iter_mut().zip(cb) {
                            *a = a.saturating_add(*b);
                        }
                    }
                    _ => panic!("metric {name}: kind differs across shards"),
                },
            }
        }
    }

    /// Renders the snapshot as a JSON object, one metric per key. Counters
    /// and gauges are bare numbers; histograms are
    /// `{"edges":[...],"counts":[...]}`. `indent` is prepended to each
    /// line so callers can nest the object in a larger document.
    pub fn to_json(&self, indent: &str) -> String {
        use crate::flight::{json_f64, json_str};
        let mut out = String::from("{");
        let mut first = true;
        for (name, v) in &self.entries {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(indent);
            out.push_str("  ");
            out.push_str(&json_str(name));
            out.push_str(": ");
            match v {
                MetricValue::Counter(c) => out.push_str(&c.to_string()),
                MetricValue::Gauge(g) => out.push_str(&json_f64(*g)),
                MetricValue::Histogram { edges, counts } => {
                    out.push_str("{\"edges\": [");
                    for (i, e) in edges.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&json_f64(*e));
                    }
                    out.push_str("], \"counts\": [");
                    for (i, c) in counts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&c.to_string());
                    }
                    out.push_str("]}");
                }
            }
        }
        if !first {
            out.push('\n');
            out.push_str(indent);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_gauges_max_histograms_binwise() {
        let mut a = MetricsSnapshot::new();
        a.counter("sim.events", 10);
        a.gauge("queue.depth", 3.0);
        a.histogram("lat", vec![1.0, 2.0], vec![5, 1, 0]);

        let mut b = MetricsSnapshot::new();
        b.counter("sim.events", 32);
        b.gauge("queue.depth", 7.0);
        b.histogram("lat", vec![1.0, 2.0], vec![2, 2, 9]);
        b.counter("only.b", 1);

        a.merge_from(&b);
        assert_eq!(a.counter_value("sim.events"), Some(42));
        assert_eq!(a.get("queue.depth"), Some(&MetricValue::Gauge(7.0)));
        assert_eq!(
            a.get("lat"),
            Some(&MetricValue::Histogram {
                edges: vec![1.0, 2.0],
                counts: vec![7, 3, 9],
            })
        );
        assert_eq!(a.counter_value("only.b"), Some(1));
    }

    #[test]
    fn gauge_merge_keeps_peak_regardless_of_order() {
        // The donor being *smaller* is the case last-wins got wrong.
        let mut a = MetricsSnapshot::new();
        a.gauge("queue.depth", 7.0);
        let mut b = MetricsSnapshot::new();
        b.gauge("queue.depth", 3.0);
        a.merge_from(&b);
        assert_eq!(a.get("queue.depth"), Some(&MetricValue::Gauge(7.0)));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let snap = |c: u64, g: f64, h: [u64; 3]| {
            let mut s = MetricsSnapshot::new();
            s.counter("c", c);
            s.gauge("g", g);
            s.histogram("h", vec![1.0, 2.0], h.to_vec());
            s
        };
        let (x, y, z) = (snap(1, 5.0, [1, 0, 0]), snap(2, 9.0, [0, 2, 0]), snap(4, 7.0, [0, 0, 3]));

        // (x + y) + z
        let mut left = x.clone();
        left.merge_from(&y);
        left.merge_from(&z);
        // x + (y + z)
        let mut yz = y.clone();
        yz.merge_from(&z);
        let mut right = x.clone();
        right.merge_from(&yz);
        // z + y + x (reversed)
        let mut rev = z.clone();
        rev.merge_from(&y);
        rev.merge_from(&x);

        assert_eq!(left, right);
        assert_eq!(left, rev);
        assert_eq!(left.counter_value("c"), Some(7));
        assert_eq!(left.get("g"), Some(&MetricValue::Gauge(9.0)));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MetricsSnapshot::new();
        a.counter("x", 5);
        let before = a.clone();
        a.merge_from(&MetricsSnapshot::new());
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "edges differ")]
    fn mismatched_histogram_edges_panic() {
        let mut a = MetricsSnapshot::new();
        a.histogram("h", vec![1.0], vec![0, 0]);
        let mut b = MetricsSnapshot::new();
        b.histogram("h", vec![2.0], vec![0, 0]);
        a.merge_from(&b);
    }

    #[test]
    #[should_panic(expected = "kind differs")]
    fn mismatched_kind_panics() {
        let mut a = MetricsSnapshot::new();
        a.counter("m", 1);
        let mut b = MetricsSnapshot::new();
        b.gauge("m", 1.0);
        a.merge_from(&b);
    }

    #[test]
    fn json_is_sorted_and_wellformed() {
        let mut s = MetricsSnapshot::new();
        s.counter("b.count", 2);
        s.gauge("a.gauge", 1.5);
        s.histogram("c.hist", vec![0.5], vec![1, 2]);
        let j = s.to_json("    ");
        let a = j.find("a.gauge").unwrap();
        let b = j.find("b.count").unwrap();
        let c = j.find("c.hist").unwrap();
        assert!(a < b && b < c, "keys must be name-sorted: {j}");
        assert!(j.contains("\"a.gauge\": 1.5"));
        assert!(j.contains("\"b.count\": 2"));
        assert!(j.contains("{\"edges\": [0.5], \"counts\": [1, 2]}"));
        let depth = j.chars().fold(0i64, |d, ch| match ch {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    #[should_panic(expected = "counts must be edges + overflow")]
    fn histogram_shape_checked() {
        let mut s = MetricsSnapshot::new();
        s.histogram("h", vec![1.0], vec![1]);
    }
}
