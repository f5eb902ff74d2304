//! Parallel-harness determinism: the measurement grid must be observably
//! identical at any worker count.
//!
//! Every run seeds from its cell alone (`cell_seed`), so fanning the grid
//! out over scoped worker threads must not change a single statistic. The
//! digest compares everything the renderers can observe: per-series sample
//! counts, per-bin counts, and exact (bit-level) min/max/mean.

use wdm_bench::cells::{measure_all_timed, summary_digest, Duration, RunConfig, TimedCells};
use wdm_sim::prelude::*;

/// The 0.05-minute grid at `seed 1999`, unsharded, on `threads` workers.
fn quick(threads: usize) -> RunConfig {
    RunConfig {
        duration: Duration::Minutes(0.05),
        seed: 1999,
        threads,
        ..RunConfig::default()
    }
}

/// One summary digest per cell, NT first, paper workload order.
fn digests(t: &TimedCells) -> Vec<String> {
    t.cells
        .nt
        .iter()
        .chain(&t.cells.win98)
        .map(summary_digest)
        .collect()
}

fn grid_digests_at(cfg: &RunConfig) -> Vec<String> {
    let t = measure_all_timed(cfg);
    assert_eq!(t.cells.nt.len(), 4, "NT cells in workload order");
    assert_eq!(t.cells.win98.len(), 4, "Win98 cells in workload order");
    assert_eq!(t.timings.len(), 8);
    digests(&t)
}

fn grid_digests(threads: usize) -> Vec<String> {
    grid_digests_at(&quick(threads))
}

#[test]
fn cell_grid_is_identical_across_thread_counts() {
    let serial = grid_digests(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            grid_digests(threads),
            serial,
            "grid summaries diverged at {threads} threads"
        );
    }
}

#[test]
fn auto_thread_count_matches_serial() {
    assert_eq!(grid_digests(0), grid_digests(1));
}

#[test]
fn sharded_grid_is_identical_across_thread_counts() {
    // 2.5 minutes splits into a closed one-minute shard and an open
    // 1.5-minute tail: 16 jobs. The merged output must not depend on which
    // worker ran which shard.
    let sharded = |threads| RunConfig {
        duration: Duration::Minutes(2.5),
        shards: 2,
        ..quick(threads)
    };
    let serial = grid_digests_at(&sharded(1));
    for threads in [2, 16] {
        assert_eq!(
            grid_digests_at(&sharded(threads)),
            serial,
            "sharded grid diverged at {threads} threads"
        );
    }
}

#[test]
fn tracing_leaves_the_grid_bit_identical() {
    // The flight recorder is a pure observer: attaching it must not move a
    // single sample, so the summary digest — bit-exact min/max/mean and
    // per-bin counts — is identical with tracing on or off.
    let plain = measure_all_timed(&quick(2));
    let traced = measure_all_timed(&RunConfig {
        trace: true,
        ..quick(2)
    });
    assert_eq!(
        digests(&plain),
        digests(&traced),
        "attaching the flight recorder perturbed the measured grid"
    );
    // Guard against a vacuous pass: the traced cells really recorded.
    assert!(
        traced
            .cells
            .nt
            .iter()
            .chain(&traced.cells.win98)
            .all(|m| !m.trace_events.is_empty()),
        "traced run produced no flight-recorder events"
    );
    assert!(
        plain
            .cells
            .nt
            .iter()
            .chain(&plain.cells.win98)
            .all(|m| m.trace_events.is_empty()),
        "untraced run must not carry trace events"
    );
}

#[test]
fn forensics_armed_grid_is_digest_neutral_and_thread_deterministic() {
    // DESIGN.md §15: blame capture and the flame sampler are pure
    // observation, so (1) every digest bit matches the bare run, and
    // (2) the forensic payloads themselves — episode metadata, trace
    // documents, collapsed stacks — are identical at any thread count
    // (per-shard stores slot positionally before the global top-K).
    let bare = RunConfig {
        duration: Duration::Minutes(2.0),
        shards: 2,
        ..quick(1)
    };
    let armed = RunConfig {
        blame: Some(wdm_latency::BlameOptions::default()),
        flame_hz: Some(8000.0),
        ..bare
    };
    let plain = measure_all_timed(&bare);
    let serial = measure_all_timed(&armed);
    let fanned = measure_all_timed(&RunConfig {
        threads: 8,
        ..armed
    });
    assert_eq!(
        digests(&plain),
        digests(&serial),
        "arming forensics perturbed the measured grid"
    );
    assert_eq!(digests(&serial), digests(&fanned));
    let payloads = |t: &TimedCells| -> Vec<_> {
        t.cells
            .nt
            .iter()
            .chain(&t.cells.win98)
            .map(|m| (m.blame_episodes.clone(), m.flame.clone()))
            .collect()
    };
    assert_eq!(
        payloads(&serial),
        payloads(&fanned),
        "forensic payloads diverged across thread counts"
    );
    // Guard against a vacuous pass: the armed run really captured.
    assert!(
        serial
            .cells
            .nt
            .iter()
            .chain(&serial.cells.win98)
            .any(|m| !m.blame_episodes.is_empty()),
        "armed run retained no episodes"
    );
    assert!(
        serial
            .cells
            .nt
            .iter()
            .chain(&serial.cells.win98)
            .all(|m| !m.flame.is_empty()),
        "armed run collected no flame stacks"
    );
    assert!(
        plain
            .cells
            .nt
            .iter()
            .chain(&plain.cells.win98)
            .all(|m| m.blame_episodes.is_empty() && m.flame.is_empty()),
        "bare run must carry no forensic payloads"
    );
}

#[test]
fn shard_count_changes_the_stream_but_not_the_window() {
    use wdm_bench::cells::measure_cell;
    use wdm_osmodel::personality::OsKind;
    use wdm_workloads::WorkloadKind;

    let unsharded = RunConfig {
        duration: Duration::Minutes(2.0),
        ..quick(1)
    };
    let sharded = RunConfig {
        shards: 2,
        ..unsharded
    };
    let a = measure_cell(&unsharded, OsKind::Nt4, WorkloadKind::Business);
    let b = measure_cell(&sharded, OsKind::Nt4, WorkloadKind::Business);
    // Sharding re-seeds each piece, so the streams differ (statistically
    // equivalent, not bitwise) — exactness holds across thread counts for
    // a fixed K, not across K.
    assert_ne!(summary_digest(&a), summary_digest(&b));
    // But both cover the same simulated window with live data.
    assert!((a.collected_hours - b.collected_hours).abs() < 1e-12);
    assert!(b.int_to_isr_all_ticks.hist.count() > 1000);
    assert_eq!(b.int_to_isr_all_ticks.blocks.maxima().len(), 2);
}

/// A timer-heavy kernel: DPC timers at staggered one-shot/periodic
/// deadlines under constant re-arm churn, threads woken by their own
/// timers' DPCs, sleepers, and RNG-driven environment noise. This is the
/// stress case for the event calendar's lazy-invalidation path; its digest
/// folds in everything the calendar can perturb (event count, fire counts,
/// dispatch counts, accounting).
fn timer_heavy_digest(seed: u64) -> String {
    use std::fmt::Write;

    let mut k = Kernel::new(KernelConfig {
        seed,
        ..KernelConfig::default()
    });
    let mut timers = Vec::new();
    let mut threads = Vec::new();

    // DPC-carrying timers at staggered periods.
    for i in 0..24usize {
        let slot = k.alloc_slots(1);
        let dpc = k.create_dpc(
            format!("cal-dpc-{i}"),
            Box::new(OpSeq::new(vec![Step::ReadTsc(slot), Step::Return])),
        );
        timers.push(k.create_timer(Some(dpc)));
    }
    // Waiter timers, each with a DPC that sets its waiter's event.
    let mut wakes = Vec::new();
    for w in 0..8usize {
        let wake = k.create_event(false);
        let dpc = k.create_dpc(
            format!("wake-dpc-{w}"),
            Box::new(OpSeq::new(vec![Step::SetEvent(wake), Step::Return])),
        );
        timers.push(k.create_timer(Some(dpc)));
        wakes.push(wake);
    }

    // Orchestrator: arms the DPC timers (mixed one-shot/periodic), then
    // loops a re-arm churn over them — every re-arm of a still-armed timer
    // is a lazy calendar invalidation.
    let mut steps = Vec::new();
    for (i, &t) in timers.iter().take(24).enumerate() {
        let period = (i % 3 == 0).then(|| Cycles::from_ms(1.0 + (i % 7) as f64 * 0.5));
        steps.push(Step::SetTimer {
            timer: t,
            due: Cycles::from_ms(0.3 + i as f64 * 0.37),
            period,
        });
    }
    for (i, &t) in timers.iter().take(24).enumerate() {
        steps.push(Step::Busy {
            cycles: Cycles::from_us(40.0 + i as f64),
            label: Label::KERNEL,
        });
        steps.push(Step::SetTimer {
            timer: t,
            due: Cycles::from_ms(0.9 + (i % 5) as f64 * 0.81),
            period: None,
        });
    }
    // Sleep between churn rounds so lower-priority waiters get the CPU.
    steps.push(Step::Sleep(Cycles::from_ms(1.9)));
    threads.push(k.create_thread("orchestrator", 20, Box::new(LoopSeq::new(steps))));

    // Waiters arming their own one-shot timers and blocking until its DPC
    // sets their event.
    for (w, (&t, &wake)) in timers.iter().skip(24).zip(&wakes).enumerate() {
        let slot = k.alloc_slots(1);
        threads.push(k.create_thread(
            format!("timer-waiter-{w}"),
            24,
            Box::new(LoopSeq::new(vec![
                Step::SetTimer {
                    timer: t,
                    due: Cycles::from_ms(0.7 + w as f64 * 0.61),
                    period: None,
                },
                Step::Wait(WaitObject::Event(wake)),
                Step::ReadTsc(slot),
            ])),
        ));
    }

    for w in 0..3usize {
        threads.push(k.create_thread(
            format!("sleeper-{w}"),
            5,
            Box::new(LoopSeq::new(vec![Step::Sleep(Cycles::from_ms(
                2.1 + w as f64 * 1.13,
            ))])),
        ));
    }

    // Environment noise so the digest also witnesses the RNG stream.
    let cli_label = k.intern("VXD", "cli_window");
    k.add_env_source(EnvSource::new(
        "cli-noise",
        samplers::uniform(Cycles::from_ms(2.0), Cycles::from_ms(9.0)),
        EnvAction::Cli {
            duration: samplers::uniform(Cycles::from_us(5.0), Cycles::from_us(60.0)),
            label: cli_label,
        },
    ));

    k.run_for(Cycles::from_ms(150.0));

    let mut out = String::new();
    let _ = write!(
        out,
        "now={} events={} cs={}",
        k.now().0,
        k.sim_events,
        k.context_switches
    );
    let a = k.account;
    let _ = write!(
        out,
        " acct={}/{}/{}/{}/{}/{}",
        a.isr, a.dpc, a.cli, a.section, a.thread, a.idle
    );
    for &t in &timers {
        let _ = write!(out, " t{}={}", t.0, k.timer(t).fire_count);
    }
    for &t in &threads {
        let tcb = k.thread(t);
        let _ = write!(
            out,
            " th{}={},{}",
            t.0, tcb.dispatch_count, tcb.waits_satisfied
        );
    }
    out
}

#[test]
fn timer_heavy_scenario_replays_identically() {
    let a = timer_heavy_digest(1999);
    let b = timer_heavy_digest(1999);
    assert_eq!(a, b, "timer-heavy run must be bit-reproducible");
    // Guard against a vacuous scenario: timers actually fired, and a
    // different seed shifts the digest.
    assert!(a
        .split(" t")
        .skip(1)
        .any(|f| { f.split('=').nth(1).and_then(|v| v.parse::<u64>().ok()) > Some(0) }));
    assert_ne!(a, timer_heavy_digest(2000), "seed must reach the digest");
}

#[test]
fn digests_are_sensitive_to_the_seed() {
    // Guard against a vacuous digest: a different seed must change it.
    assert_ne!(
        grid_digests(1),
        grid_digests_at(&RunConfig {
            seed: 2000,
            ..quick(1)
        }),
        "digest must reflect the measured data"
    );
}

#[test]
fn every_cell_records_through_the_stage() {
    // Non-vacuity per cell: every latency sample passes through a flushed
    // stage, the one recording path (§14). Only series a cell returns are
    // staged, so staged == recorded.
    for t in &measure_all_timed(&quick(2)).timings {
        let cell = format!("{} / {}", t.os.name(), t.workload.name());
        assert!(t.samples_recorded > 0, "{cell}: no latency samples");
        assert!(t.batch_flushes > 0, "{cell}: stage never flushed");
        assert_eq!(
            t.staged_samples, t.samples_recorded,
            "{cell}: staged samples must all land in returned series"
        );
    }
}
