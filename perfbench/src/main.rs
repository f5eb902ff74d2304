//! `perfbench`: the measuring half of the repository benchmark.
//! `perfbench/run.py` builds it, runs it, checks its outputs and prints
//! the result; see `perfbench/README.md`.
//!
//! ```text
//! perfbench pass  --workload W --seed N [--quick]
//! perfbench gate  --workload W --seed N [--quick]
//! perfbench trace --workload W --seed N --seconds S --spans FILE [--quick]
//! ```
//!
//! Each mode prints one JSON object on its last stdout line.

mod kernels;
mod ladder;
mod out;
mod pass;
mod spans;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use wdm_bench::cells::{shard_imbalance, RunConfig};
use wdm_sim::metrics::MetricValue;

use out::{median, num, Metrics};
use pass::{run_pass, CellOutcome, Pass};
use spans::Tracer;
use workload::Workload;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: Option<String>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv
        .first()
        .cloned()
        .ok_or("missing mode: pass, gate or trace")?;
    let mut workload = None;
    let mut seed = 1999;
    let mut seconds = 10.0;
    let mut spans = None;
    let mut quick = false;
    let mut i = 1;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                i += 1;
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                i += 1;
            }
            "--spans" => {
                spans = Some(value()?);
                i += 1;
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        spans,
        quick,
    })
}

fn cells_json(cells: &[CellOutcome]) -> String {
    let rows: Vec<String> = cells.iter().map(CellOutcome::to_json).collect();
    format!("[{}]", rows.join(","))
}

/// High-water resident memory of this process in MB: `VmHWM` of
/// `/proc/self/status`. Unlike the parent's `wait4` rusage, it covers only
/// the memory mapped since exec, not the spawning process's.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// One untraced pass: the end-to-end figures and the cells to check.
fn mode_pass(a: &Args) -> String {
    let cfg = a.workload.config(a.seed, a.quick);
    let p = run_pass(&cfg, &mut Tracer::new(false));
    // Shard walls in job order: cell by cell, shards in time order.
    let job_walls: Vec<String> = p
        .timed
        .timings
        .iter()
        .flat_map(|t| t.shard_wall_s.iter().map(|w| num(*w)))
        .collect();
    format!(
        "{{\"wall_s\":{},\"sim_s\":{},\"sim_events\":{},\"setup_s\":{},\"peak_rss_mb\":{},\"threads\":{},\"job_walls\":[{}],\"cells\":{}}}",
        num(p.wall_s),
        num(p.sim_s),
        p.sim_events,
        num(p.setup.total_s()),
        num(peak_rss_mb()),
        p.timed.threads,
        job_walls.join(","),
        cells_json(&p.cells)
    )
}

/// The reference runs the gate compares against: the committed digest
/// window under the workload's configuration and, for the armed workload,
/// the same window run bare. Also the host calibration of this run.
fn mode_gate(a: &Args) -> String {
    let lines = pass::digest_lines(&a.workload.committed_config());
    let quoted: Vec<String> = lines.iter().map(|l| wdm_sim::flight::json_str(l)).collect();
    let cfg = a.workload.config(a.seed, a.quick);
    let bare = if cfg.blame.is_some() {
        cells_json(&pass::outcomes(&RunConfig { blame: None, ..cfg }))
    } else {
        "null".to_string()
    };
    format!(
        "{{\"committed\":[{}],\"bare\":{bare},\"calib_ns\":{}}}",
        quoted.join(","),
        num(kernels::calib_ns())
    )
}

fn sum_counter(p: &Pass, name: &str) -> u64 {
    let c = &p.timed.cells;
    c.nt.iter()
        .chain(&c.win98)
        .map(|m| m.metrics.counter_value(name).unwrap_or(0))
        .sum()
}

fn max_gauge(p: &Pass, name: &str) -> f64 {
    let c = &p.timed.cells;
    c.nt.iter()
        .chain(&c.win98)
        .filter_map(|m| match m.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// The traced run: kernels, ladder, then interleaved untraced/traced
/// passes until `--seconds` is spent. Prints every per-layer metric.
fn mode_trace(a: &Args) -> String {
    let started = Instant::now();
    let cfg = a.workload.config(a.seed, a.quick);
    let mut m = Metrics::default();
    m.put("host.calib_ns", kernels::calib_ns(), "ns");

    let calendar_ns = kernels::calendar_push_pop_ns();
    let (draw_ns, draw_batch_ns) = kernels::dist_draw_ns();
    let stage_ns = kernels::stage_ns_per_sample();
    let (hist_ns, block_ns) = kernels::batch_fold_ns();
    let merge_us = kernels::merge_us_per_shard(a.seed);
    let events_in_us = kernels::events_in_us(a.seed);
    let ladder = ladder::run(a.seed, Workload::ForensicsArmed.minutes(a.quick));

    // Untraced and traced passes alternate, so host drift hits both.
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<(f64, Pass, Tracer)> = Vec::new();
    let min_pairs = if a.quick { 1 } else { 2 };
    while traced.len() < min_pairs || started.elapsed().as_secs_f64() < a.seconds {
        let t = Instant::now();
        let _ = run_pass(&cfg, &mut Tracer::new(false));
        plain.push(t.elapsed().as_secs_f64());
        let mut tr = Tracer::new(true);
        let t = Instant::now();
        let p = run_pass(&cfg, &mut tr);
        traced.push((t.elapsed().as_secs_f64(), p, tr));
    }

    let span_ms = |name: &str| {
        let per: Vec<f64> = traced
            .iter()
            .map(|(_, _, tr)| {
                spans::total_seconds_by_name(tr.spans())
                    .get(name)
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        median(&per) * 1e3
    };
    let med =
        |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|(_, p, _)| f(p)).collect::<Vec<_>>());
    let p0 = &traced[0].1;
    let events = p0.sim_events as f64;
    let t = &p0.timed.timings;
    let steps: u64 = t.iter().map(|c| c.steps_executed).sum();
    let dispatches: u64 = t.iter().map(|c| c.step_dispatches).sum();
    let compiled: u64 = t.iter().map(|c| c.compiled_steps).sum();
    let samples: u64 = t.iter().map(|c| c.samples_recorded).sum();
    let staged: u64 = t.iter().map(|c| c.staged_samples).sum();
    let flushes: u64 = t.iter().map(|c| c.batch_flushes).sum();
    let [r0, r1, r2] = ladder.rungs;

    m.put(
        "setup.build_scenario_ms",
        med(&|p| p.setup.build_scenario_s) * 1e3,
        "ms",
    );
    m.put(
        "setup.session_install_ms",
        med(&|p| p.setup.session_install_s) * 1e3,
        "ms",
    );
    m.put(
        "setup.forensics_attach_ms",
        med(&|p| p.setup.forensics_attach_s) * 1e3,
        "ms",
    );
    m.put("setup.jobs", p0.setup.jobs as f64, "count");

    m.put("calendar.push_pop_ns", calendar_ns, "ns");
    m.put(
        "calendar.tick_work_per_event",
        sum_counter(p0, "sim.calendar_tick_work") as f64 / events,
        "ratio",
    );
    m.put(
        "calendar.peak_entries",
        max_gauge(p0, "sim.calendar.peak_entries"),
        "count",
    );

    m.put("kernel.ns_per_event", r0.ns_per_event(), "ns");
    m.put("kernel.steps_per_event", steps as f64 / events, "ratio");
    m.put(
        "kernel.steps_per_dispatch",
        steps as f64 / dispatches.max(1) as f64,
        "ratio",
    );
    m.put(
        "compile.compiled_step_share",
        compiled as f64 / steps.max(1) as f64,
        "ratio",
    );
    m.put(
        "kernel.switches_per_event",
        sum_counter(p0, "sim.context_switches") as f64 / events,
        "ratio",
    );

    m.put("dist.draw_ns", draw_ns, "ns");
    m.put("dist.draw_batch_ns", draw_batch_ns, "ns");

    m.put(
        "session.ns_per_event",
        (r1.run_s - r0.run_s) * 1e9 / r1.events as f64,
        "ns",
    );
    m.put("session.share", (r1.run_s - r0.run_s) / r1.run_s, "ratio");
    m.put(
        "observer.takes_per_event",
        sum_counter(p0, "sim.notify_takes") as f64 / events,
        "ratio",
    );

    m.put("stage.ns_per_sample", stage_ns, "ns");
    m.put("histogram.batch_ns_per_sample", hist_ns, "ns");
    m.put("worstcase.batch_ns_per_sample", block_ns, "ns");
    m.put(
        "latency.samples_per_event",
        samples as f64 / events,
        "ratio",
    );
    m.put(
        "latency.samples_per_flush",
        staged as f64 / flushes.max(1) as f64,
        "ratio",
    );
    m.put("latency.flush_ms", ladder.flush_s * 1e3, "ms");

    m.put(
        "merge.ms_per_shard",
        med(&|p| (p.grid_call_s - p.sim_s) * 1e3 / p.setup.jobs as f64),
        "ms",
    );
    m.put("merge.kernel_us", merge_us, "us");
    let walls = |p: &Pass| -> Vec<f64> {
        p.timed
            .timings
            .iter()
            .flat_map(|c| c.shard_wall_s.iter().copied())
            .collect()
    };
    m.put(
        "fanout.imbalance",
        med(&|p| shard_imbalance(&walls(p))),
        "ratio",
    );
    m.put(
        "fanout.efficiency",
        med(&|p| walls(p).iter().sum::<f64>() / (p.timed.threads as f64 * p.sim_s)),
        "ratio",
    );

    let captures: u64 = ladder.blame.iter().map(|b| b.captures).sum();
    let retained: u64 = ladder.blame.iter().map(|b| b.retained).sum();
    m.put(
        "forensics.ns_per_event",
        (r2.run_s - r1.run_s) * 1e9 / r2.events as f64,
        "ns",
    );
    m.put("forensics.share", (r2.run_s - r1.run_s) / r2.run_s, "ratio");
    m.put("flight.events_in_us", events_in_us, "us");
    m.put("blame.captures", captures as f64, "count");
    m.put("blame.retained", retained as f64, "count");
    m.put(
        "blame.capture_yield",
        retained as f64 / captures.max(1) as f64,
        "ratio",
    );
    m.put("flight.ring_peak", ladder.ring_peak as f64, "count");
    for b in &ladder.blame {
        m.put(
            format!("blame.captures.{}", b.label),
            b.captures as f64,
            "count",
        );
        m.put(
            format!("blame.retained.{}", b.label),
            b.retained as f64,
            "count",
        );
    }

    m.put("render.table3_ms", span_ms("render.table3"), "ms");
    m.put("render.figure4_ms", span_ms("render.figure4"), "ms");
    m.put("render.digest_ms", span_ms("render.digest"), "ms");

    for (i, r) in ladder.rungs.iter().enumerate() {
        m.put(
            format!("ladder.rung{i}_ns_per_event"),
            r.ns_per_event(),
            "ns",
        );
    }
    m.put("ladder.rung0_share", r0.run_s / r2.run_s, "ratio");
    m.put(
        "ladder.rung1_share",
        (r1.run_s - r0.run_s) / r2.run_s,
        "ratio",
    );
    m.put(
        "ladder.rung2_share",
        (r2.run_s - r1.run_s) / r2.run_s,
        "ratio",
    );

    let traced_walls: Vec<f64> = traced.iter().map(|(w, _, _)| *w).collect();
    let self_sums: Vec<f64> = traced
        .iter()
        .map(|(_, _, tr)| spans::self_seconds_by_name(tr.spans()).values().sum())
        .collect();
    m.put("trace.wall_s", median(&traced_walls), "s");
    m.put("trace.untraced_wall_s", median(&plain), "s");
    m.put(
        "trace.overhead_s",
        median(&traced_walls) - median(&plain),
        "s",
    );
    m.put("trace.self_sum_s", median(&self_sums), "s");

    if let Some(path) = &a.spans {
        let docs: Vec<String> = traced
            .iter()
            .map(|(w, _, tr)| {
                format!(
                    "{{\"wall_ns\":{},\"trace\":{}}}",
                    (w * 1e9) as u64,
                    spans::to_json(tr.spans()).trim_end()
                )
            })
            .collect();
        let doc = format!(
            "{{\"workload\":\"{}\",\"passes\":[\n{}\n]}}\n",
            a.workload.name(),
            docs.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
    }

    let passes: Vec<String> = traced
        .iter()
        .map(|(_, p, _)| cells_json(&p.cells))
        .collect();
    format!(
        "{{\"metrics\":{},\"passes\":[{}]}}",
        m.to_json(),
        passes.join(",")
    )
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = match a.mode.as_str() {
        "pass" => mode_pass(&a),
        "gate" => mode_gate(&a),
        "trace" => mode_trace(&a),
        other => {
            eprintln!("perfbench: unknown mode {other}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}
