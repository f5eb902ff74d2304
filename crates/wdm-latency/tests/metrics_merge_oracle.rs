//! Property oracle for the unified metrics registry's shard merge
//! (DESIGN.md §10).
//!
//! `METRICS_cells.json` is assembled by merging per-shard
//! [`MetricsSnapshot`]s along the same path that merges the measurement
//! series, so it inherits the same exactness contract: the merged registry
//! must equal one registry fed the concatenated stream. Counters are sums,
//! histograms are bin-wise sums over identical edges, gauges are
//! max-wins — all three checked here over random shard splits,
//! plus associativity (fold order cannot matter for the deterministic
//! artifact) and a live end-to-end check through
//! [`ScenarioMeasurement::merge_shard_at`].

use proptest::prelude::*;

use wdm_latency::session::{measure_scenario, MeasureOptions, ScenarioMeasurement};
use wdm_osmodel::personality::OsKind;
use wdm_sim::metrics::{MetricValue, MetricsSnapshot};
use wdm_workloads::WorkloadKind;

/// Deterministic bucket edges shared by every generated histogram (the
/// real registry's histograms all use the fixed Figure-4 log bins).
const EDGES: [f64; 4] = [0.1, 1.0, 10.0, 100.0];

/// One shard's worth of raw metric observations.
#[derive(Debug, Clone)]
struct RawShard {
    counters: Vec<(u8, u64)>,
    gauge: Option<f64>,
    hist_counts: Vec<u64>,
}

fn snapshot_of(s: &RawShard) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new();
    for &(which, v) in &s.counters {
        m.counter(&format!("c.{}", which % 4), v);
    }
    if let Some(g) = s.gauge {
        m.gauge("g.depth", g);
    }
    m.histogram("h.lat", EDGES.to_vec(), s.hist_counts.clone());
    m
}

/// The raw generator tuple: counter writes, a (present?, value) gauge pair
/// (the vendored proptest has no `prop::option`), and 5 histogram bins.
type RawTuple = (Vec<(u8, u64)>, (bool, f64), Vec<u64>);

fn raw_shards(raw: Vec<RawTuple>) -> Vec<RawShard> {
    raw.into_iter()
        .map(|(counters, (has_gauge, gauge), hist_counts)| RawShard {
            counters,
            gauge: has_gauge.then_some(gauge),
            hist_counts,
        })
        .collect()
}

proptest! {
    #[test]
    fn merged_shards_equal_the_streamed_registry(
        raw in prop::collection::vec(
            (
                prop::collection::vec((0u8..4, 0u64..1_000_000), 0..6),
                (prop::bool::ANY, -100.0f64..100.0),
                prop::collection::vec(0u64..1_000_000, 5..6),
            ),
            1..6,
        ),
    ) {
        let shards = raw_shards(raw);

        // Merged path: one snapshot per shard, folded left in time order.
        let mut merged = snapshot_of(&shards[0]);
        for s in &shards[1..] {
            merged.merge_from(&snapshot_of(s));
        }

        // Streaming reference: accumulate the raw observations directly.
        // Counters within one shard overwrite (same name set twice keeps
        // the last write, exactly like the snapshot), shards then sum.
        let mut ref_counters = std::collections::BTreeMap::new();
        let mut ref_gauge = None;
        let mut ref_hist = [0u64; 5];
        for s in &shards {
            let mut last: std::collections::BTreeMap<String, u64> = Default::default();
            for &(which, v) in &s.counters {
                last.insert(format!("c.{}", which % 4), v);
            }
            for (name, v) in last {
                *ref_counters.entry(name).or_insert(0u64) += v;
            }
            if let Some(g) = s.gauge {
                ref_gauge = Some(match ref_gauge {
                    Some(prev) => g.max(prev),
                    None => g,
                });
            }
            for (a, b) in ref_hist.iter_mut().zip(&s.hist_counts) {
                *a += b;
            }
        }

        for (name, want) in &ref_counters {
            prop_assert_eq!(
                merged.counter_value(name),
                Some(*want),
                "counter {} must sum across shards", name
            );
        }
        match (merged.get("g.depth"), ref_gauge) {
            (Some(MetricValue::Gauge(g)), Some(want)) => {
                prop_assert_eq!(g.to_bits(), want.to_bits(), "gauge is max-wins");
            }
            (None, None) => {}
            (got, want) => prop_assert!(false, "gauge mismatch: {:?} vs {:?}", got, want),
        }
        match merged.get("h.lat") {
            Some(MetricValue::Histogram { edges, counts }) => {
                prop_assert_eq!(edges.as_slice(), EDGES.as_slice());
                prop_assert_eq!(counts.as_slice(), ref_hist.as_slice());
            }
            other => prop_assert!(false, "histogram missing: {:?}", other),
        }
    }

    #[test]
    fn merge_fold_is_associative(
        raw in prop::collection::vec(
            (
                prop::collection::vec((0u8..4, 0u64..1_000_000), 0..6),
                (prop::bool::ANY, -100.0f64..100.0),
                prop::collection::vec(0u64..1_000_000, 5..6),
            ),
            3..6,
        ),
    ) {
        let snaps: Vec<MetricsSnapshot> =
            raw_shards(raw).iter().map(snapshot_of).collect();

        // Left fold: ((a + b) + c) + ...
        let mut left = snaps[0].clone();
        for s in &snaps[1..] {
            left.merge_from(s);
        }
        // Right-leaning fold: a + (b + (c + ...)).
        let mut right = snaps.last().unwrap().clone();
        for s in snaps[..snaps.len() - 1].iter().rev() {
            let mut acc = s.clone();
            acc.merge_from(&right);
            right = acc;
        }
        prop_assert_eq!(left, right, "shard merge must not depend on fold shape");
    }
}

/// End-to-end: the metrics riding [`ScenarioMeasurement::merge_shard_at`]
/// agree with the struct counters they mirror, and the merged histograms
/// agree with the merged series.
#[test]
fn measurement_merge_keeps_metrics_consistent_with_counters() {
    let one_minute = 1.0 / 60.0;
    let run = |seed: u64| {
        let mut m = measure_scenario(
            OsKind::Nt4,
            WorkloadKind::Business,
            seed,
            one_minute,
            &MeasureOptions::default(),
        );
        m.close_blocks(1);
        m
    };
    let mut m = run(31);
    m.merge_shard_at(1, run(32));
    assert_eq!(
        m.metrics.counter_value("latency.ops_completed"),
        Some(m.ops_completed),
        "merged metric tracks the merged counter"
    );
    assert_eq!(
        m.metrics.counter_value("latency.waits_28"),
        Some(m.waits_28)
    );
    assert_eq!(m.metrics.counter_value("sim.events"), Some(m.sim_events));
    match m.metrics.get("latency.hist.thread_lat_28_ms") {
        Some(MetricValue::Histogram { edges, counts }) => {
            assert_eq!(edges.as_slice(), m.thread_lat_28.hist.edges_ms());
            assert_eq!(counts.as_slice(), m.thread_lat_28.hist.counts());
        }
        other => panic!("histogram metric missing: {other:?}"),
    }
}

/// The occupancy gauges (stage high-water, calendar heap peak, flight
/// ring depth) are per-shard high-water marks: the merged value must be
/// the max across shards, in either merge order.
#[test]
fn occupancy_gauges_merge_max_wins_in_either_order() {
    let one_minute = 1.0 / 60.0;
    let run = |seed: u64| {
        let mut m = measure_scenario(
            OsKind::Win98,
            WorkloadKind::Games,
            seed,
            one_minute,
            &MeasureOptions {
                blame: Some(wdm_latency::BlameOptions::default()),
                ..MeasureOptions::default()
            },
        );
        m.close_blocks(1);
        m
    };
    let gauge = |m: &ScenarioMeasurement, name: &str| -> f64 {
        match m.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("{name} missing or wrong kind: {other:?}"),
        }
    };
    let (a, b) = (run(41), run(42));
    let names = [
        "latency.stage.peak",
        "sim.calendar.peak_entries",
        "sim.flight.ring_peak",
    ];
    let want: Vec<f64> = names
        .iter()
        .map(|name| {
            let (ga, gb) = (gauge(&a, name), gauge(&b, name));
            assert!(
                ga > 0.0 && gb > 0.0,
                "{name} must be observed on both shards"
            );
            ga.max(gb)
        })
        .collect();
    let mut ab = a;
    ab.merge_shard_at(1, b);
    let mut ba = run(42);
    ba.merge_shard_at(1, run(41));
    for (name, want) in names.iter().zip(want) {
        assert_eq!(gauge(&ab, name).to_bits(), want.to_bits(), "{name}");
        assert_eq!(gauge(&ba, name).to_bits(), want.to_bits(), "{name}");
    }
}
