//! One-call measurement of a composed scenario.
//!
//! Mirrors the paper's lab procedure (§3.1): launch the stress load, start
//! the latency measurement tools, collect for a period of (simulated) time,
//! and return every latency series needed for Figure 4, Table 3, Figure 5
//! and Table 4.

use std::{cell::RefCell, collections::BTreeMap, rc::Rc};

use wdm_osmodel::personality::OsKind;
use wdm_sim::{
    flight::FlightRecorder, kernel::CycleAccount, metrics::MetricsSnapshot, time::Cycles,
};
use wdm_workloads::{build_scenario, ScenarioOptions, UsageModel, WorkloadKind};

use crate::{
    blame::{BlameOptions, BlameRecorder},
    cause::CauseTool,
    tool::MeasurementSession,
    worstcase::LatencySeries, //
};

/// One retained tail episode as it rides a [`ScenarioMeasurement`] between
/// shards: the sample's latency (cycles, the global top-K sort key), its
/// summary JSON, and its rendered trace document. Rendered inside the
/// shard while its kernel is alive — names don't survive the kernel.
pub type BlameEpisodePayload = (u64, String, String);

/// Everything measured from one OS x workload cell.
pub struct ScenarioMeasurement {
    /// Which OS ran.
    pub os: OsKind,
    /// Which stress load ran.
    pub workload: WorkloadKind,
    /// Simulated collection time in hours.
    pub collected_hours: f64,
    /// The workload's usage model (for Table 3 scaling).
    pub usage: UsageModel,
    /// Hardware interrupt to first PIT ISR instruction (interrupt latency),
    /// one sample per measurement round — the paper's tool cadence, and the
    /// basis of Table 3's first row.
    pub int_to_isr: LatencySeries,
    /// The same interrupt latency sampled on *every* PIT tick (~1 kHz), the
    /// simulator-truth superset.
    pub int_to_isr_all_ticks: LatencySeries,
    /// PIT ISR start to measurement DPC start.
    pub isr_to_dpc: LatencySeries,
    /// Hardware interrupt to measurement DPC start (DPC interrupt latency).
    pub int_to_dpc: LatencySeries,
    /// DPC queue to DPC start (pure DPC latency).
    pub dpc_lat: LatencySeries,
    /// KeSetEvent to first thread instruction, priority 28.
    pub thread_lat_28: LatencySeries,
    /// Hardware interrupt to first thread instruction, priority 28.
    pub thread_int_28: LatencySeries,
    /// KeSetEvent to first thread instruction, priority 24.
    pub thread_lat_24: LatencySeries,
    /// Hardware interrupt to first thread instruction, priority 24.
    pub thread_int_24: LatencySeries,
    /// The driver-computed (ASB-based) thread latency for priority 28 —
    /// what the paper's own tool reports.
    pub tool_dpc_to_thread_28: LatencySeries,
    /// The driver-estimated interrupt+DPC latency (±1 tick resolution).
    pub tool_est_int_to_dpc: LatencySeries,
    /// Application operations completed (the throughput score of §4.2).
    pub ops_completed: u64,
    /// Cycle accounting by hierarchy level.
    pub account: CycleAccount,
    /// Rendered cause-tool episodes (present when a threshold was set).
    pub episodes: Vec<String>,
    /// Number of waits the priority-24 measurement thread completed (used
    /// for Figure 5's "per wait" frequencies).
    pub waits_24: u64,
    /// Number of waits the priority-28 measurement thread completed.
    pub waits_28: u64,
    /// Simulator decision-loop iterations the run executed (the
    /// repository benchmark reports their rate as `sim_events_per_s`).
    pub sim_events: u64,
    /// Program steps the kernel executed.
    pub steps_executed: u64,
    /// Calls of the kernel's step functions. A thread call runs one step;
    /// an ISR or DPC call runs its service steps back to back, so
    /// `steps_executed / step_dispatches`, which perfbench reports as
    /// `kernel.steps_per_dispatch`, counts only those service-step runs.
    pub step_dispatches: u64,
    /// Unified metrics snapshot (`sim.*` kernel counters plus `latency.*`
    /// measurement counters/histograms); merged exactly across shards.
    pub metrics: MetricsSnapshot,
    /// Chrome trace-event JSON objects from the flight recorder, when
    /// [`MeasureOptions::flight`] was set. Rendered while the kernel is
    /// alive so names resolve; shards concatenate in time order.
    pub trace_events: Vec<String>,
    /// Retained blame episodes, when [`MeasureOptions::blame`] was set
    /// (arrival order within the shard; shards append in time order and
    /// the cell assembler re-applies the top-K bound globally).
    /// Deliberately a separate field from `episodes`: cause-tool episode
    /// counts are part of the pinned cell digest and forensics must stay
    /// digest-neutral.
    pub blame_episodes: Vec<BlameEpisodePayload>,
    /// Virtual-time flame samples by collapsed stack (`;`-joined frames,
    /// outermost first), when [`MeasureOptions::flame_hz`] was set. Keyed
    /// by rendered symbol strings — label ids are per-kernel and do not
    /// survive shard merges. `u64` sums, so merges are exact and
    /// order-independent.
    pub flame: BTreeMap<String, u64>,
}

impl ScenarioMeasurement {
    /// Every latency series, in a fixed order, mutably. The shard-merge
    /// layer iterates this so a series added to the struct cannot be
    /// silently dropped from merges (keep it in sync with the fields).
    fn series_mut(&mut self) -> [&mut LatencySeries; 11] {
        [
            &mut self.int_to_isr,
            &mut self.int_to_isr_all_ticks,
            &mut self.isr_to_dpc,
            &mut self.int_to_dpc,
            &mut self.dpc_lat,
            &mut self.thread_lat_28,
            &mut self.thread_int_28,
            &mut self.thread_lat_24,
            &mut self.thread_int_24,
            &mut self.tool_dpc_to_thread_28,
            &mut self.tool_est_int_to_dpc,
        ]
    }

    /// Closes every series' block-maxima window after `whole_minutes` of
    /// collection (see [`LatencySeries::close_blocks`]). Call on a shard
    /// measurement whose window spans that many whole minutes, before
    /// merging it into the cell total.
    pub fn close_blocks(&mut self, whole_minutes: usize) {
        for s in self.series_mut() {
            s.close_blocks(whole_minutes);
        }
    }

    /// Merges the next time shard of the same OS x workload cell, whose
    /// window starts `offset_minutes` into the cell, into this one.
    ///
    /// Shards merge in time order: every series here must already hold
    /// exactly `offset_minutes` closed blocks (each earlier shard closed at
    /// its whole-minute boundary via [`Self::close_blocks`]). The merge is
    /// exact, not approximate: histograms add bin-wise, block maxima
    /// concatenate (an open tail shard's hot block carries over — see
    /// [`crate::worstcase::BlockMaxima::merge`]), every counter sums, and
    /// the episode, trace and blame payloads append. Every downstream
    /// renderer sees the union of the shards' samples as if one session had
    /// collected them.
    pub fn merge_shard_at(&mut self, offset_minutes: usize, other: ScenarioMeasurement) {
        assert_eq!(self.os, other.os, "shards must share the OS");
        assert_eq!(
            self.workload, other.workload,
            "shards must share the workload"
        );
        let mut o = other;
        self.collected_hours += o.collected_hours;
        for (a, b) in self.series_mut().into_iter().zip(o.series_mut()) {
            assert_eq!(
                a.blocks.maxima().len(),
                offset_minutes,
                "shards merge in time order"
            );
            a.merge(b);
        }
        self.ops_completed += o.ops_completed;
        self.account.absorb(&o.account);
        self.episodes.append(&mut o.episodes);
        self.waits_24 += o.waits_24;
        self.waits_28 += o.waits_28;
        self.sim_events += o.sim_events;
        self.steps_executed += o.steps_executed;
        self.step_dispatches += o.step_dispatches;
        self.metrics.merge_from(&o.metrics);
        self.trace_events.append(&mut o.trace_events);
        self.blame_episodes.append(&mut o.blame_episodes);
        for (stack, n) in o.flame {
            *self.flame.entry(stack).or_insert(0) += n;
        }
    }

    /// Total latency samples recorded across every series — the
    /// denominator-free measurement volume perfbench reports per event as
    /// `latency.samples_per_event`.
    pub fn samples_recorded(&mut self) -> u64 {
        self.series_mut().iter().map(|s| s.hist.count()).sum()
    }
}

/// Flight-recorder attachment for a measurement run.
#[derive(Debug, Clone, Copy)]
pub struct FlightOptions {
    /// Ring capacity — the recorder keeps the most recent this-many events.
    pub capacity: usize,
    /// Chrome trace-event process id the cell's events are grouped under
    /// (the harness assigns one pid per cell).
    pub pid: u64,
}

impl Default for FlightOptions {
    fn default() -> FlightOptions {
        FlightOptions {
            capacity: 65_536,
            pid: 2,
        }
    }
}

/// Extra knobs for a measurement run.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOptions {
    /// Scenario composition (virus scanner, sound scheme).
    pub scenario: ScenarioOptions,
    /// Measurement period in ms (the tool's `ARBITRARY_DELAY`).
    pub period_ms: f64,
    /// Capture cause-tool episodes for priority-24 thread latencies above
    /// this threshold (ms).
    pub cause_threshold_ms: Option<f64>,
    /// Attach a flight recorder and export its ring as Chrome trace events
    /// in [`ScenarioMeasurement::trace_events`]. Never changes measured
    /// values: the recorder is read-only and draws no randomness.
    pub flight: Option<FlightOptions>,
    /// Always `true`: staging (DESIGN.md §14) is the only recording path,
    /// and [`measure_scenario`] never reads this. Kept only because
    /// perfbench's set-up replica (`perfbench/src/pass.rs`) passes it to
    /// [`MeasurementSession::install_with`].
    pub batch_record: bool,
    /// Arm tail-episode forensics on the rt24/rt28 measurement threads
    /// (DESIGN.md §15). A flight recorder is attached implicitly when
    /// [`Self::flight`] is unset, so episode windows are never empty.
    /// Digest-neutral: the recorder is read-only.
    pub blame: Option<BlameOptions>,
    /// Arm the virtual-time flame sampler at this rate (samples per
    /// simulated second); fills [`ScenarioMeasurement::flame`].
    /// Digest-neutral: sampling is pure observation of the label spans.
    pub flame_hz: Option<f64>,
}

impl Default for MeasureOptions {
    fn default() -> MeasureOptions {
        MeasureOptions {
            scenario: ScenarioOptions::default(),
            period_ms: 1.0,
            cause_threshold_ms: None,
            flight: None,
            batch_record: true,
            blame: None,
            flame_hz: None,
        }
    }
}

/// Runs the full measurement procedure for one OS x workload cell.
pub fn measure_scenario(
    os: OsKind,
    workload: WorkloadKind,
    seed: u64,
    sim_hours: f64,
    opts: &MeasureOptions,
) -> ScenarioMeasurement {
    assert!(sim_hours > 0.0, "must simulate a positive duration");
    let mut scenario = build_scenario(os, workload, seed, &opts.scenario);
    let session = MeasurementSession::install(&mut scenario.kernel, opts.period_ms);
    let cause = opts.cause_threshold_ms.map(|thr| {
        let t = Rc::new(RefCell::new(CauseTool::new(
            &scenario.kernel,
            session.rt24.thread,
            thr,
            1024,
        )));
        scenario.kernel.add_observer(t.clone());
        t
    });
    // Blame capture needs a ring to snapshot; arm a default-sized one when
    // forensics is on and the caller didn't ask for trace export.
    let flight_opts = opts
        .flight
        .or_else(|| opts.blame.map(|_| FlightOptions::default()));
    let flight = flight_opts.map(|f| {
        let r = Rc::new(RefCell::new(FlightRecorder::new(f.capacity)));
        scenario.kernel.add_observer(r.clone());
        (r, f.pid)
    });
    let blame = opts.blame.map(|b| {
        let r = Rc::new(RefCell::new(BlameRecorder::new(
            &scenario.kernel,
            vec![(session.rt24.thread, "rt24"), (session.rt28.thread, "rt28")],
            b,
            flight.as_ref().map(|(r, _)| r.clone()),
        )));
        scenario.kernel.add_observer(r.clone());
        r
    });
    if let Some(hz) = opts.flame_hz {
        assert!(hz > 0.0, "flame rate must be positive");
        let period = (scenario.kernel.config().cpu_hz as f64 / hz)
            .round()
            .max(1.0) as u64;
        scenario.kernel.set_flame_period(period);
    }

    scenario.kernel.run_for(Cycles::from_ms_at(
        sim_hours * 3_600_000.0,
        scenario.kernel.config().cpu_hz,
    ));

    // Drain the staging buffers before any series is read or moved: the
    // final (partial) batch folds here, the last flush point of §14.
    session.flush();
    let batch_flushes = session.batch_flushes();
    let staged_samples = session.staged_samples();
    // Read before `r28` takes its long-lived mutable borrow below.
    let stage_peak = session.peak_staged();

    // Move the collected series out of the session rather than cloning:
    // hours-long cells hold millions of histogram bins and block maxima per
    // series, and the session is dropped right after this anyway. The
    // collector keeps running until `scenario` drops, so the vacated slots
    // are backfilled with cheap empty series of the same name.
    let cpu_hz = scenario.kernel.config().cpu_hz;
    let mut truth = session.truth.borrow_mut();
    let episodes = cause
        .map(|c| {
            c.borrow()
                .episodes
                .iter()
                .map(|e| e.render(scenario.kernel.symbols()))
                .collect()
        })
        .unwrap_or_default();
    let mut r28 = session.rt28_results().borrow_mut();
    let take = |s: &mut LatencySeries| {
        let name = s.name.clone();
        std::mem::replace(s, LatencySeries::new(&name, cpu_hz))
    };
    // Render trace events while the kernel is alive so thread/vector/DPC
    // names resolve; the recorder ring is dropped with the scenario.
    // A blame-implied recorder renders no export — the caller did not ask
    // for a cell trace, only for episode windows.
    let trace_events = if opts.flight.is_some() {
        flight
            .as_ref()
            .map(|(r, pid)| {
                let name = format!("{:?} x {:?} (seed {seed})", os, workload);
                r.borrow().chrome_events(&scenario.kernel, *pid, &name)
            })
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    // Episode reports and traces render here too, for the same reason.
    let blame_pid = flight_opts.map(|f| f.pid).unwrap_or(2);
    let blame_episodes: Vec<BlameEpisodePayload> = blame
        .as_ref()
        .map(|r| {
            r.borrow()
                .episodes
                .iter()
                .map(|ep| {
                    (
                        ep.latency_cycles,
                        ep.meta_json(),
                        ep.render_trace(&scenario.kernel, blame_pid),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let flame: BTreeMap<String, u64> = if opts.flame_hz.is_some() {
        scenario.kernel.flame_collapsed().into_iter().collect()
    } else {
        BTreeMap::new()
    };
    let flight_peak = flight.as_ref().map(|(r, _)| r.borrow().peak_depth());
    let metrics = scenario.kernel.metrics_snapshot();
    let mut m = ScenarioMeasurement {
        os,
        workload,
        collected_hours: sim_hours,
        usage: scenario.usage,
        int_to_isr: take(&mut truth.dpc28.round_int),
        int_to_isr_all_ticks: take(&mut truth.pit_int),
        isr_to_dpc: take(&mut truth.dpc28.isr_to_dpc),
        int_to_dpc: take(&mut truth.dpc28.int),
        dpc_lat: take(&mut truth.dpc28.lat),
        thread_lat_28: take(&mut truth.thread28.lat),
        thread_int_28: take(&mut truth.thread28.int),
        thread_lat_24: take(&mut truth.thread24.lat),
        thread_int_24: take(&mut truth.thread24.int),
        tool_dpc_to_thread_28: take(&mut r28.dpc_to_thread),
        tool_est_int_to_dpc: take(&mut r28.est_int_to_dpc),
        ops_completed: scenario.total_ops(),
        account: scenario.kernel.account,
        episodes,
        waits_24: scenario.kernel.thread(session.rt24.thread).waits_satisfied,
        waits_28: scenario.kernel.thread(session.rt28.thread).waits_satisfied,
        sim_events: scenario.kernel.sim_events,
        steps_executed: scenario.kernel.steps_executed,
        step_dispatches: scenario.kernel.step_dispatches,
        metrics,
        trace_events,
        blame_episodes,
        flame,
    };
    // Measurement-layer metrics ride the same registry as the kernel's:
    // counters sum across shards exactly like the struct fields they
    // mirror, histograms merge bin-wise over the shared log-binned edges.
    m.metrics.counter("latency.ops_completed", m.ops_completed);
    m.metrics
        .counter("latency.episodes", m.episodes.len() as u64);
    m.metrics.counter("latency.waits_24", m.waits_24);
    m.metrics.counter("latency.waits_28", m.waits_28);
    // Stage flushes ride the registry so shard merges sum them exactly,
    // like every other counter (perfbench derives
    // `latency.samples_per_flush` from them).
    m.metrics.counter("latency.batch_flushes", batch_flushes);
    m.metrics.counter("latency.staged_samples", staged_samples);
    // Occupancy gauges: high-water marks merge max-wins across shards
    // (PR-6 gauge semantics), so the cell value is the worst shard's peak.
    m.metrics.gauge("latency.stage.peak", stage_peak as f64);
    if let Some(peak) = flight_peak {
        m.metrics.gauge("sim.flight.ring_peak", peak as f64);
    }
    if let Some(b) = &blame {
        let r = b.borrow();
        let s = &r.summary;
        m.metrics
            .counter("latency.blame.watched_resumes", s.watched_resumes);
        m.metrics.counter("latency.blame.triggered", s.triggered);
        m.metrics.counter("latency.blame.evicted", s.evicted);
        m.metrics
            .counter("latency.blame.retained", r.episodes.len() as u64);
        let t = &s.totals;
        for (name, v) in [
            ("latency.blame.isr_cycles", t.isr),
            ("latency.blame.dpc_cycles", t.dpc),
            ("latency.blame.masked_cycles", t.masked),
            ("latency.blame.dispatch_cycles", t.dispatch),
            ("latency.blame.preempt_cycles", t.preempt),
            ("latency.blame.quantum_cycles", t.quantum),
            ("latency.blame.idle_cycles", t.idle),
        ] {
            m.metrics.counter(name, v);
        }
        m.metrics.histogram(
            "latency.blame.hist.triggered_ms",
            r.triggered_hist.edges_ms().to_vec(),
            r.triggered_hist.counts().to_vec(),
        );
    }
    let hists = [
        ("latency.hist.int_to_isr_ms", &m.int_to_isr),
        ("latency.hist.dpc_lat_ms", &m.dpc_lat),
        ("latency.hist.thread_lat_28_ms", &m.thread_lat_28),
        ("latency.hist.thread_lat_24_ms", &m.thread_lat_24),
    ]
    .map(|(name, s)| (name, s.hist.edges_ms().to_vec(), s.hist.counts().to_vec()));
    for (name, edges, counts) in hists {
        m.metrics.histogram(name, edges, counts);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_short_cell() {
        let m = measure_scenario(
            OsKind::Nt4,
            WorkloadKind::Business,
            11,
            3.0 / 3600.0, // 3 simulated seconds
            &MeasureOptions::default(),
        );
        assert!(
            m.int_to_isr_all_ticks.hist.count() > 2000,
            "PIT at 1 kHz for 3 s"
        );
        assert!(m.int_to_isr.hist.count() > 200, "per-round series");
        assert!(m.thread_lat_28.hist.count() > 500);
        assert!(m.ops_completed > 0);
        assert!(m.episodes.is_empty());
    }

    #[test]
    fn shard_merge_sums_counters_and_concatenates_blocks() {
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
        let a = run(21);
        let b = run(22);
        let (a_hours, a_ops, a_events, a_waits) =
            (a.collected_hours, a.ops_completed, a.sim_events, a.waits_28);
        let (a_count, b_count) = (a.thread_lat_28.hist.count(), b.thread_lat_28.hist.count());
        assert_eq!(a.thread_lat_28.blocks.maxima().len(), 1, "one whole minute");
        let (b_hours, b_ops, b_events, b_waits, b_acct) = (
            b.collected_hours,
            b.ops_completed,
            b.sim_events,
            b.waits_28,
            b.account,
        );
        let mut m = a;
        m.merge_shard_at(1, b);
        assert!((m.collected_hours - (a_hours + b_hours)).abs() < 1e-12);
        assert_eq!(m.ops_completed, a_ops + b_ops);
        assert_eq!(m.sim_events, a_events + b_events);
        assert_eq!(m.waits_28, a_waits + b_waits);
        assert_eq!(m.thread_lat_28.hist.count(), a_count + b_count);
        assert_eq!(
            m.thread_lat_28.blocks.maxima().len(),
            2,
            "shard blocks concatenate"
        );
        assert!(
            m.account.total() > b_acct.total(),
            "accounting sums over shards"
        );
    }

    #[test]
    #[should_panic(expected = "shards merge in time order")]
    fn shard_merge_rejects_a_gap_in_the_timeline() {
        // Two shards, each closed after one minute: the second belongs at
        // offset 1. Claiming offset 2 would leave minute 1 unaccounted for.
        let run = |seed: u64| {
            let mut m = measure_scenario(
                OsKind::Nt4,
                WorkloadKind::Business,
                seed,
                3.0 / 3600.0,
                &MeasureOptions::default(),
            );
            m.close_blocks(1);
            m
        };
        let mut a = run(21);
        a.merge_shard_at(2, run(22));
    }

    #[test]
    fn cause_tool_captures_on_win98() {
        let m = measure_scenario(
            OsKind::Win98,
            WorkloadKind::Games,
            11,
            5.0 / 3600.0,
            &MeasureOptions {
                cause_threshold_ms: Some(2.0),
                ..MeasureOptions::default()
            },
        );
        assert!(
            !m.episodes.is_empty(),
            "games on 98 should produce >2 ms episodes"
        );
        assert!(m.episodes[0].contains("samples in"));
    }

    #[test]
    fn forensics_capture_payloads_and_stay_digest_neutral() {
        use wdm_sim::metrics::MetricValue;
        let hours = 3.0 / 3600.0;
        let base = measure_scenario(
            OsKind::Win98,
            WorkloadKind::Games,
            11,
            hours,
            &MeasureOptions::default(),
        );
        let armed = measure_scenario(
            OsKind::Win98,
            WorkloadKind::Games,
            11,
            hours,
            &MeasureOptions {
                blame: Some(crate::blame::BlameOptions::default()),
                flame_hz: Some(8000.0),
                ..MeasureOptions::default()
            },
        );
        // Everything the cell digest reads is bit-identical with forensics
        // armed (the simulation trajectory is untouched).
        assert_eq!(armed.sim_events, base.sim_events);
        assert_eq!(armed.steps_executed, base.steps_executed);
        assert_eq!(armed.ops_completed, base.ops_completed);
        assert_eq!(armed.waits_24, base.waits_24);
        assert_eq!(armed.waits_28, base.waits_28);
        assert_eq!(armed.episodes.len(), base.episodes.len());
        assert_eq!(
            armed.thread_lat_24.hist.counts(),
            base.thread_lat_24.hist.counts()
        );
        assert_eq!(
            armed.thread_lat_24.hist.mean_ms().to_bits(),
            base.thread_lat_24.hist.mean_ms().to_bits()
        );
        // Forensic payloads are present and well-formed.
        assert!(!armed.blame_episodes.is_empty(), "top-K keeps episodes");
        for (lat, meta, trace) in &armed.blame_episodes {
            assert!(*lat > 0);
            assert!(meta.starts_with("{\"ordinal\":"));
            assert!(meta.contains("\"breakdown_cycles\":{"));
            assert!(trace.starts_with("{\"traceEvents\":["));
            assert!(trace.contains("\"cat\":\"blame\""));
        }
        assert!(!armed.flame.is_empty(), "flame sampler collected stacks");
        assert!(armed.flame.values().all(|&n| n > 0));
        // Blame aggregates ride the metrics registry...
        let watched = armed
            .metrics
            .counter_value("latency.blame.watched_resumes")
            .expect("blame counters present");
        assert!(watched > 0);
        assert!(matches!(
            armed.metrics.get("latency.blame.hist.triggered_ms"),
            Some(MetricValue::Histogram { .. })
        ));
        // ...alongside the occupancy gauges (satellite: real gauges).
        for g in ["latency.stage.peak", "sim.flight.ring_peak"] {
            match armed.metrics.get(g) {
                Some(MetricValue::Gauge(v)) => assert!(*v > 0.0, "{g} must be positive"),
                other => panic!("{g} missing or wrong kind: {other:?}"),
            }
        }
        // The bare run has the stage gauge too (it is unconditional) but
        // no blame counters and no flight gauge.
        assert!(matches!(
            base.metrics.get("latency.stage.peak"),
            Some(MetricValue::Gauge(_))
        ));
        assert!(base.metrics.get("latency.blame.triggered").is_none());
        assert!(base.metrics.get("sim.flight.ring_peak").is_none());
        assert!(base.blame_episodes.is_empty());
        assert!(base.flame.is_empty());
    }

    #[test]
    fn nt_beats_win98_on_thread_latency_tail() {
        let hours = 5.0 / 3600.0;
        let nt = measure_scenario(
            OsKind::Nt4,
            WorkloadKind::Business,
            5,
            hours,
            &MeasureOptions::default(),
        );
        let w98 = measure_scenario(
            OsKind::Win98,
            WorkloadKind::Business,
            5,
            hours,
            &MeasureOptions::default(),
        );
        let nt_p999 = nt.thread_lat_28.hist.quantile_exceeding(0.001);
        let w98_p999 = w98.thread_lat_28.hist.quantile_exceeding(0.001);
        assert!(
            w98_p999 > nt_p999 * 2.0,
            "Win98 thread tail ({w98_p999} ms) must dominate NT ({nt_p999} ms)"
        );
    }
}
