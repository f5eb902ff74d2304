//! `repro` — regenerate the tables and figures of the OSDI '99 paper
//! *"A Comparison of Windows Driver Model Latency Performance on Windows NT
//! and Windows 98"* on the simulated substrate.
//!
//! ```text
//! repro <artifact> [--minutes N | --full] [--seed S] [--threads T]
//!                  [--shards K] [--out DIR] [--trace]
//!                  [--blame-mode topk|threshold|blockmax]
//!                  [--blame-threshold-ms T] [--blame-top K]
//!                  [--flame-hz HZ] [--quiet | --verbose]
//!
//! artifacts:
//!   table1 table2 table3 table4 figure4 figure5 figure6 figure7
//!   throughput validate-mttf sched feasibility win2000 microbench
//!   interactive stability ablations digest trace metrics
//!   blame flame all
//! ```
//!
//! `--full` collects for the paper's §3.1 durations (4–12.5 simulated hours
//! per cell); the default is 2 simulated minutes per cell, which reproduces
//! the shape but under-samples the weekly tails. `--threads` fans
//! independent runs out over worker threads (0 or omitted = one per core);
//! output is byte-identical at any thread count. `--shards K` splits each
//! cell's window into up to K independent whole-minute simulations so the
//! fan-out has 8 x K jobs to balance (DESIGN.md §9); a given K is
//! byte-identical at every thread count, and `--shards 1` (the default) is
//! bit-identical to the unsharded harness. `--trace` attaches a flight
//! recorder to every cell, the `--blame-*` flags and `--flame-hz` tune the
//! forensics of `blame` and `flame` (DESIGN.md §15), and `--quiet` /
//! `--verbose` set how much progress reaches stderr; none of them changes a
//! measured value.

use wdm_bench::{
    cells::{measure_all, summary_digest, Duration, RunConfig},
    extras, figures, forensics, output, progress, tables, tracecmd,
};

const USAGE: &str = "usage: repro <artifact> [--minutes N | --full] [--seed S] [--threads T] [--shards K] [--out DIR] [--trace] [--blame-mode topk|threshold|blockmax] [--blame-threshold-ms T] [--blame-top K] [--flame-hz HZ] [--quiet | --verbose]

artifacts:
  table1 table2 table3 table4 figure4 figure5 figure6 figure7
  throughput validate-mttf sched feasibility win2000 microbench
  interactive stability ablations digest trace metrics
  blame flame all

options:
  --minutes N   simulated minutes per cell (positive number; default 2)
  --full        the paper's full per-workload collection times (\u{a7}3.1)
  --seed S      base RNG seed (non-negative integer; default 1999)
  --threads T   worker threads for independent runs (0 = one per core)
  --shards K    time shards per cell, on whole-minute boundaries (default 1)
  --out DIR     also write TSV/JSON artifacts into DIR
  --trace       attach a flight recorder to every cell (output unchanged;
                the 'trace' artifact implies this and writes TRACE_*.json)
  --blame-mode topk|threshold|blockmax
                which latency samples trigger a forensic capture (DESIGN.md
                \u{a7}15): the K largest per cell (default), samples at or above
                --blame-threshold-ms, or new per-cell running maxima. The
                'blame' artifact arms forensics; these flags tune it.
                Digest-neutral: measured values never change
  --blame-threshold-ms T
                trigger threshold for --blame-mode threshold (default 1.0)
  --blame-top K retained episodes per cell (default 4)
  --flame-hz HZ virtual-time sampling rate for the 'flame' artifact in
                samples per simulated second (default 8000)
  --quiet       suppress progress lines on stderr
  --verbose     per-shard progress lines on stderr";

/// Reports a bad invocation and exits with status 2 (no panic backtrace).
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Reports a runtime failure (I/O, serialization) and exits with status 1.
/// Prints regardless of `--quiet`: errors are not progress.
fn fatal(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("repro: error: {what}: {err}");
    std::process::exit(1);
}

/// Writes `text` to stdout, ending the run through [`fatal`] (exit 1) when
/// stdout is a closed pipe or a full device, where `print!` would panic.
fn out(text: &str) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        fatal("writing to stdout", e);
    }
}

/// Pulls the value of `--flag value`, failing on a missing or malformed
/// value.
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    what: &str,
) -> Result<T, String> {
    *i += 1;
    let raw = args
        .get(*i)
        .ok_or_else(|| format!("{what} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value '{raw}' for {what}"))
}

/// A parsed command line. Every numeric field already passed its range
/// check; the artifact name is checked when it is dispatched.
struct Cli {
    artifact: String,
    duration: Duration,
    seed: u64,
    threads: usize,
    shards: usize,
    trace: bool,
    blame_mode: Option<String>,
    blame_threshold_ms: f64,
    blame_top: usize,
    flame_hz: Option<f64>,
    out_dir: Option<std::path::PathBuf>,
    verbosity: Option<progress::Verbosity>,
    /// `--help` or `-h` was seen; arguments after it are not parsed.
    help: bool,
}

impl Cli {
    /// The harness configuration this command line asks for.
    fn run_config(&self) -> RunConfig {
        // The 'blame' artifact arms forensics; --blame-* flags tune the
        // trigger (and a bare `repro blame` captures the default per-cell
        // top-K).
        let blame = (self.artifact == "blame" || self.blame_mode.is_some()).then(|| {
            let trigger = match self.blame_mode.as_deref() {
                Some("threshold") => {
                    wdm_latency::BlameTrigger::ThresholdMs(self.blame_threshold_ms)
                }
                Some("blockmax") => wdm_latency::BlameTrigger::BlockMax,
                _ => wdm_latency::BlameTrigger::TopK,
            };
            wdm_latency::BlameOptions {
                trigger,
                max_episodes: self.blame_top,
            }
        });
        RunConfig {
            duration: self.duration,
            seed: self.seed,
            threads: self.threads,
            shards: self.shards,
            trace: self.trace,
            blame,
            // The 'flame' artifact arms the sampler at its default rate; an
            // explicit --flame-hz arms it for any artifact (digest included
            // — CI proves sampling is digest-neutral that way).
            flame_hz: if self.artifact == "flame" {
                Some(self.flame_hz.unwrap_or(8000.0))
            } else {
                self.flame_hz
            },
        }
    }
}

/// Parses `repro`'s arguments (program name excluded). An `Err` carries
/// the message to print above the usage text before exiting 2.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        artifact: String::new(),
        duration: Duration::Minutes(2.0),
        seed: 1999,
        threads: 0,
        shards: 1,
        trace: false,
        blame_mode: None,
        blame_threshold_ms: 1.0,
        blame_top: 4,
        flame_hz: None,
        out_dir: None,
        verbosity: None,
        help: false,
    };
    let mut artifact = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--minutes" => {
                let m: f64 = flag_value(args, &mut i, "--minutes")?;
                if !(m.is_finite() && m > 0.0) {
                    return Err("--minutes must be a positive number".into());
                }
                cli.duration = Duration::Minutes(m);
            }
            "--full" => cli.duration = Duration::FullCollection,
            "--seed" => cli.seed = flag_value(args, &mut i, "--seed")?,
            "--threads" => cli.threads = flag_value(args, &mut i, "--threads")?,
            "--shards" => {
                cli.shards = flag_value(args, &mut i, "--shards")?;
                if cli.shards < 1 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--trace" => cli.trace = true,
            "--blame-mode" => {
                let raw: String = flag_value(args, &mut i, "--blame-mode")?;
                match raw.as_str() {
                    "topk" | "threshold" | "blockmax" => cli.blame_mode = Some(raw),
                    _ => {
                        return Err(format!(
                            "invalid value '{raw}' for --blame-mode (expected 'topk', \
                             'threshold', or 'blockmax')"
                        ))
                    }
                }
            }
            "--blame-threshold-ms" => {
                let ms: f64 = flag_value(args, &mut i, "--blame-threshold-ms")?;
                if !(ms.is_finite() && ms > 0.0) {
                    return Err("--blame-threshold-ms must be a positive number".into());
                }
                cli.blame_threshold_ms = ms;
            }
            "--blame-top" => {
                cli.blame_top = flag_value(args, &mut i, "--blame-top")?;
                if cli.blame_top < 1 {
                    return Err("--blame-top must be at least 1".into());
                }
            }
            "--flame-hz" => {
                let hz: f64 = flag_value(args, &mut i, "--flame-hz")?;
                if !(hz.is_finite() && hz > 0.0) {
                    return Err("--flame-hz must be a positive number".into());
                }
                cli.flame_hz = Some(hz);
            }
            "--quiet" => {
                if cli.verbosity == Some(progress::Verbosity::Verbose) {
                    return Err("--quiet and --verbose are mutually exclusive".into());
                }
                cli.verbosity = Some(progress::Verbosity::Quiet);
            }
            "--verbose" => {
                if cli.verbosity == Some(progress::Verbosity::Quiet) {
                    return Err("--quiet and --verbose are mutually exclusive".into());
                }
                cli.verbosity = Some(progress::Verbosity::Verbose);
            }
            "--out" => {
                i += 1;
                let dir = args.get(i).ok_or("--out requires a directory")?;
                if dir.is_empty() || dir.starts_with('-') {
                    return Err(format!("invalid directory '{dir}' for --out"));
                }
                cli.out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--help" | "-h" => {
                cli.help = true;
                break;
            }
            a if !a.starts_with('-') && artifact.is_none() => {
                artifact = Some(a.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    cli.artifact = artifact.unwrap_or_else(|| "all".to_string());
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|msg| usage_error(&msg));
    if cli.help {
        out(&format!("{USAGE}\n"));
        return;
    }
    if let Some(v) = cli.verbosity {
        progress::set_verbosity(v);
    }
    let cfg = cli.run_config();
    let Cli {
        artifact,
        duration,
        seed,
        threads,
        out_dir,
        ..
    } = cli;
    let minutes = match duration {
        Duration::Minutes(m) => m,
        Duration::FullCollection => 30.0,
    };

    // Artifacts that need the 8 measured cells share one run.
    let needs_cells = matches!(
        artifact.as_str(),
        "table3"
            | "figure4"
            | "figure6"
            | "figure7"
            | "throughput"
            | "sched"
            | "feasibility"
            | "digest"
            | "metrics"
            | "all"
    );
    let cells = if needs_cells {
        progress::note(
            "grid",
            &format!("measuring 8 OS x workload cells ({duration:?}, seed {seed})..."),
        );
        Some(measure_all(&cfg))
    } else {
        None
    };
    let cells = cells.as_ref();

    match artifact.as_str() {
        "table1" => out(&tables::table1()),
        "table2" => out(&tables::table2()),
        "table3" => {
            out(&tables::table3(cells.unwrap()));
            out("\n");
            out(&tables::table3_nt(cells.unwrap()));
        }
        "table4" => out(&tables::table4(&cfg)),
        "figure4" => {
            out(&figures::figure4(cells.unwrap()));
            if let Some(dir) = &out_dir {
                let files = output::write_figure4(cells.unwrap(), dir)
                    .unwrap_or_else(|e| fatal("writing figure4 TSVs", e));
                for f in files {
                    progress::note("out", &format!("wrote {f}"));
                }
            }
        }
        "figure5" => {
            let f = figures::figure5(&cfg);
            out(&figures::render_figure5(&f));
            if let Some(dir) = &out_dir {
                let path = output::write_figure5(&f, dir)
                    .unwrap_or_else(|e| fatal("writing figure5 TSV", e));
                progress::note("out", &format!("wrote {path}"));
            }
        }
        "figure6" | "figure7" => {
            out(&figures::figures_6_7(cells.unwrap()));
            if let Some(dir) = &out_dir {
                let files = output::write_figures_6_7(cells.unwrap(), dir)
                    .unwrap_or_else(|e| fatal("writing figure 6/7 TSVs", e));
                for f in files {
                    progress::note("out", &format!("wrote {f}"));
                }
            }
        }
        "throughput" => out(&extras::throughput(cells.unwrap())),
        "validate-mttf" => out(&extras::validate(&cfg)),
        "win2000" => out(&extras::win2000(&cfg)),
        "microbench" => out(&extras::microbench(&cfg)),
        "interactive" => out(&extras::interactive(&cfg)),
        "stability" => out(&extras::stability(&cfg, 5)),
        "sched" => out(&extras::sched(cells.unwrap())),
        "feasibility" => out(&extras::feasibility(cells.unwrap())),
        "ablations" => out(&extras::ablations(minutes.min(5.0), seed, threads)),
        "digest" => {
            // One exact digest line per cell, NT first, paper workload
            // order. CI diffs this against a committed reference to prove
            // the harness still reproduces the recorded runs bit-for-bit.
            let cells = cells.unwrap();
            for m in cells.nt.iter().chain(&cells.win98) {
                out(&format!("{}\n", summary_digest(m)));
            }
        }
        "trace" => {
            let dir = out_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
            progress::note(
                "grid",
                &format!(
                    "tracing 8 OS x workload cells ({duration:?}, seed {seed}) \
                     into {}...",
                    dir.display()
                ),
            );
            let (_cells, files) =
                tracecmd::run_trace(&cfg, &dir).unwrap_or_else(|e| fatal("writing trace files", e));
            for f in &files {
                progress::note("out", &format!("wrote {}", f.display()));
            }
        }
        "blame" => {
            let dir = out_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
            progress::note(
                "grid",
                &format!(
                    "blame-profiling 8 OS x workload cells ({duration:?}, seed {seed}) \
                     into {}...",
                    dir.display()
                ),
            );
            let (_cells, files) = forensics::run_blame(&cfg, &dir)
                .unwrap_or_else(|e| fatal("writing blame files", e));
            for f in &files {
                progress::note("out", &format!("wrote {}", f.display()));
            }
        }
        "flame" => {
            let dir = out_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
            progress::note(
                "grid",
                &format!(
                    "flame-profiling 8 OS x workload cells ({duration:?}, seed {seed}) \
                     into {}...",
                    dir.display()
                ),
            );
            let (_cells, files) = forensics::run_flame(&cfg, &dir)
                .unwrap_or_else(|e| fatal("writing flame files", e));
            for f in &files {
                progress::note("out", &format!("wrote {}", f.display()));
            }
        }
        "metrics" => {
            let json = tracecmd::render_metrics_json(&cfg, cells.unwrap());
            out(&json);
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fatal("creating output directory", e));
                let path = dir.join("METRICS_cells.json");
                std::fs::write(&path, &json)
                    .unwrap_or_else(|e| fatal("writing METRICS_cells.json", e));
                progress::note("out", &format!("wrote {}", path.display()));
            }
        }
        "all" => {
            let cells = cells.unwrap();
            let hr = "\n================================================================\n\n";
            out(&tables::table1());
            out(hr);
            out(&tables::table2());
            out(hr);
            out(&figures::figure4(cells));
            out(hr);
            out(&tables::table3(cells));
            out("\n");
            out(&tables::table3_nt(cells));
            out(hr);
            let f5 = figures::figure5(&cfg);
            out(&figures::render_figure5(&f5));
            out(hr);
            out(&tables::table4(&cfg));
            out(hr);
            out(&figures::figures_6_7(cells));
            out(hr);
            out(&extras::throughput(cells));
            out(hr);
            out(&extras::validate(&cfg));
            out(hr);
            out(&extras::sched(cells));
            out(hr);
            out(&extras::feasibility(cells));
            out(hr);
            out(&extras::win2000(&cfg));
            out(hr);
            out(&extras::microbench(&cfg));
            out(hr);
            out(&extras::interactive(&cfg));
            out(hr);
            out(&extras::ablations(minutes.min(5.0), seed, threads));
            if let Some(dir) = &out_dir {
                let f4 = output::write_figure4(cells, dir)
                    .unwrap_or_else(|e| fatal("writing figure4 TSVs", e));
                let f67 = output::write_figures_6_7(cells, dir)
                    .unwrap_or_else(|e| fatal("writing figure 6/7 TSVs", e));
                let p5 = output::write_figure5(&f5, dir)
                    .unwrap_or_else(|e| fatal("writing figure5 TSV", e));
                for f in f4.iter().chain(&f67).chain(std::iter::once(&p5)) {
                    progress::note("out", &format!("wrote {f}"));
                }
            }
        }
        other => usage_error(&format!("unknown artifact '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Space-separated token pools: every flag `parse_args` knows, the
    // retired flags and the artifact names.
    const FLAGS: &str = "--minutes --full --seed --threads --shards --out --trace \
        --blame-mode --blame-threshold-ms --blame-top --flame-hz --quiet --verbose --help -h";
    const RETIRED: &str = "--no-compile --sampler-mode --repeats --stats-v1 --no-batch-record";
    const ARTIFACTS: &str = "table1 table2 table3 table4 figure4 figure5 figure6 figure7 \
        throughput validate-mttf sched feasibility win2000 microbench interactive stability \
        ablations digest trace metrics blame flame all";
    /// Hostile and valid flag values (the empty string included).
    const VALUES: &[&str] = &[
        "0",
        "-1",
        "nan",
        "inf",
        "1e309",
        "18446744073709551616",
        "",
        "-x",
        "0.5",
        "3",
        "topk",
        "threshold",
        "blockmax",
    ];

    /// Argv cases per run: `parse_args` costs microseconds, so the sweep
    /// is far wider than the `proptest!` default of 64 cases.
    const CASES: u64 = 200_000;

    fn pick(pool: Vec<&'static str>) -> impl Strategy<Value = String> {
        (0..pool.len()).prop_map(move |i| pool[i].to_string())
    }

    fn words(pool: &'static str) -> Vec<&'static str> {
        pool.split_whitespace().collect()
    }

    fn finite_positive(x: f64) -> bool {
        x.is_finite() && x > 0.0
    }

    #[test]
    fn parse_args_never_panics_and_accepts_only_valid_values() {
        let argv = prop::collection::vec(
            prop_oneof![
                pick(words(FLAGS)),
                pick(words(RETIRED)),
                pick(VALUES.to_vec()),
                pick(words(ARTIFACTS)),
            ],
            0..9,
        );
        let mut accepted = 0;
        for case in 0..CASES {
            let args = argv.generate(&mut proptest::test_rng("parse_args", case));
            // Tokens after `--help` are never parsed, so a retired flag
            // only counts before the first one.
            let parsed = args
                .iter()
                .position(|a| a == "--help" || a == "-h")
                .map_or(&args[..], |h| &args[..h]);
            let Ok(cli) = parse_args(&args) else {
                continue;
            };
            accepted += 1;
            prop_assert!(
                !parsed.iter().any(|a| words(RETIRED).contains(&a.as_str())),
                "{args:?}: a retired flag was accepted"
            );
            if let Duration::Minutes(m) = cli.duration {
                prop_assert!(finite_positive(m), "{args:?}: --minutes {m}");
            }
            prop_assert!(cli.shards >= 1, "{args:?}: --shards {}", cli.shards);
            prop_assert!(
                cli.blame_top >= 1,
                "{args:?}: --blame-top {}",
                cli.blame_top
            );
            prop_assert!(
                finite_positive(cli.blame_threshold_ms),
                "{args:?}: --blame-threshold-ms {}",
                cli.blame_threshold_ms
            );
            if let Some(hz) = cli.flame_hz {
                prop_assert!(finite_positive(hz), "{args:?}: --flame-hz {hz}");
            }
            // Building the harness configuration must not panic either.
            let _ = cli.run_config();
        }
        prop_assert!(accepted > CASES / 100, "only {accepted} argvs parsed");
    }
}
