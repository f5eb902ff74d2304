//! Integration tests for `repro`'s argument validation: every degenerate,
//! malformed or retired flag must exit 2 with the usage text on stderr
//! before any simulation work starts, and a failed stdout must end the run
//! with exit 1.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_usage_rejection(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("usage: repro"),
        "{args:?} must print usage, got: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr must mention '{needle}', got: {stderr}"
    );
}

#[test]
fn zero_and_negative_numeric_flags_exit_2_with_usage() {
    assert_usage_rejection(&["digest", "--minutes", "0"], "--minutes");
    assert_usage_rejection(&["digest", "--minutes", "-1"], "--minutes");
    assert_usage_rejection(&["digest", "--minutes", "nan"], "--minutes");
    assert_usage_rejection(&["digest", "--minutes", "inf"], "--minutes");
    assert_usage_rejection(&["digest", "--shards", "0"], "--shards");
}

#[test]
fn malformed_values_exit_2_with_usage() {
    assert_usage_rejection(&["digest", "--threads", "lots"], "--threads");
    assert_usage_rejection(&["digest", "--seed", "-3"], "--seed");
    assert_usage_rejection(&["digest", "--seed", "1999x"], "--seed");
    assert_usage_rejection(&["digest", "--shards", "two"], "--shards");
}

#[test]
fn missing_values_exit_2_with_usage() {
    assert_usage_rejection(&["digest", "--minutes"], "--minutes");
    assert_usage_rejection(&["digest", "--seed"], "--seed");
    assert_usage_rejection(&["digest", "--out"], "--out");
}

#[test]
fn unknown_flags_and_artifacts_exit_2_with_usage() {
    assert_usage_rejection(&["digest", "--frobnicate"], "--frobnicate");
    assert_usage_rejection(&["no-such-artifact"], "no-such-artifact");
    assert_usage_rejection(&["digest", "--quiet", "--verbose"], "exclusive");
}

#[test]
fn retired_and_unknown_stats_flags_exit_2_with_usage() {
    // The one-release `--stats-v1` escape hatch is retired along with the
    // whole `--stats-*` family; any survivor in a script must fail loudly
    // rather than silently measuring in the wrong mode.
    assert_usage_rejection(&["digest", "--stats-v1"], "--stats-v1");
    assert_usage_rejection(&["digest", "--stats-v2"], "--stats-v2");
    assert_usage_rejection(&["digest", "--stats-v0"], "--stats-v0");
    assert_usage_rejection(&["digest", "--stats-legacy"], "--stats-legacy");
    assert_usage_rejection(&["digest", "--stats-v1=1"], "--stats-v1=1");
}

#[test]
fn retired_sampler_flag_exits_2_with_usage() {
    // Exact is the only sampler lowering, so the flag is unknown under
    // either of its old values: a stale script fails loudly.
    assert_usage_rejection(&["digest", "--sampler-mode", "table"], "--sampler-mode");
    assert_usage_rejection(&["digest", "--sampler-mode", "exact"], "--sampler-mode");
}

#[test]
fn retired_compile_flag_exits_2_with_usage() {
    // The interpreter is the only step executor and staging the only
    // recording path, so the flags that used to select the other paths
    // are unknown: a stale script fails loudly.
    assert_usage_rejection(&["digest", "--no-compile"], "--no-compile");
    assert_usage_rejection(&["digest", "--no-batch-record"], "--no-batch-record");
}

#[test]
fn retired_timing_artifact_exits_2_with_usage() {
    // Host timing lives in the repository benchmark alone; the old
    // artifact and its attempt-count flag are unknown, so a stale script
    // fails loudly.
    assert_usage_rejection(&["timing"], "timing");
    assert_usage_rejection(&["digest", "--repeats", "3"], "--repeats");
}

#[test]
fn degenerate_windows_run_to_exit_0() {
    // A window too short for the Win98 Business RT-28 series to record a
    // sample leaves the schedulability analysis nothing to amortize; the
    // run must say so and finish, not trip an assertion.
    for args in [
        ["sched", "--minutes", "0.00002", "--quiet"],
        ["all", "--minutes", "0.00002", "--quiet"],
        ["all", "--minutes", "1e-9", "--quiet"],
    ] {
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("no RT-28 thread latency samples"),
            "{args:?} must report the empty series"
        );
    }
}

#[test]
fn closed_stdout_exits_1_without_panicking() {
    // A reader that goes away (`repro ... | head`) or a full device must
    // end the run as a runtime error, not a panic (an abort under the
    // release profile).
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .stdout(writer)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("writing to stdout"), "stderr: {stderr}");
}

#[test]
fn malformed_blame_and_flame_flags_exit_2_with_usage() {
    assert_usage_rejection(&["blame", "--blame-mode", "biggest"], "--blame-mode");
    assert_usage_rejection(&["blame", "--blame-top", "0"], "--blame-top");
    assert_usage_rejection(
        &["blame", "--blame-threshold-ms", "-2"],
        "--blame-threshold-ms",
    );
    assert_usage_rejection(&["flame", "--flame-hz", "0"], "--flame-hz");
    assert_usage_rejection(&["flame", "--flame-hz", "nan"], "--flame-hz");
}

#[test]
fn armed_forensics_digest_is_bit_identical() {
    // DESIGN.md §15: blame capture and the flame sampler are pure
    // observation — digests with forensics armed are byte-equal to the
    // bare run.
    let base = repro(&["digest", "--minutes", "0.02", "--quiet"]);
    let armed = repro(&[
        "digest",
        "--minutes",
        "0.02",
        "--quiet",
        "--blame-mode",
        "blockmax",
    ]);
    assert!(base.status.success() && armed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&base.stdout),
        String::from_utf8_lossy(&armed.stdout),
        "armed blame capture must digest identically"
    );
}
