//! Schedulability analysis on a non-real-time OS (paper §5.2, ref \[4\]).
//!
//! Classic fixed-priority analysis (Liu & Layland utilization bound,
//! response-time analysis) extended with the paper's **pseudo worst case**:
//! on Windows the true worst-case latency is orders of magnitude above the
//! average, so instead of the absolute worst case one "chooses the worst
//! case latency as a function of the permissible error rate: for example,
//! one dropped buffer every five or ten minutes for low latency audio, one
//! dropped buffer per hour for a soft modem" and feeds that value into a
//! standard schedulability tool (PERTS in the paper).

use wdm_latency::histogram::LatencyHistogram;

/// A periodic task for rate-monotonic analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicTask {
    /// Name for reports.
    pub name: String,
    /// Period = deadline (ms).
    pub period_ms: f64,
    /// Worst-case compute per period (ms).
    pub compute_ms: f64,
}

impl PeriodicTask {
    /// Creates a task; period and compute must be positive.
    pub fn new(name: &str, period_ms: f64, compute_ms: f64) -> PeriodicTask {
        assert!(period_ms > 0.0 && compute_ms > 0.0, "positive parameters");
        assert!(compute_ms <= period_ms, "utilization above 1 is hopeless");
        PeriodicTask {
            name: name.to_string(),
            period_ms,
            compute_ms,
        }
    }

    /// Task utilization.
    pub fn utilization(&self) -> f64 {
        self.compute_ms / self.period_ms
    }
}

/// The Liu & Layland bound: `n (2^{1/n} - 1)`.
pub fn rma_utilization_bound(n: usize) -> f64 {
    assert!(n >= 1, "need at least one task");
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// The pseudo worst-case latency: the smallest latency exceeded at most
/// once per `permissible_error_interval_s` of operation, given that the
/// service is exercised `events_per_second` times per second.
///
/// This is the paper's amortization: one dropped buffer per hour for a soft
/// modem with a 1 kHz service rate corresponds to the `1/(3600*1000)`
/// exceedance quantile.
pub fn pseudo_worst_case_ms(
    latency: &LatencyHistogram,
    permissible_error_interval_s: f64,
    events_per_second: f64,
) -> f64 {
    assert!(permissible_error_interval_s > 0.0 && events_per_second > 0.0);
    let n_events = permissible_error_interval_s * events_per_second;
    latency.quantile_exceeding(1.0 / n_events.max(1.0))
}

/// Result of response-time analysis for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTime {
    /// The task analyzed.
    pub task: PeriodicTask,
    /// Worst-case response time (ms), or `None` if the iteration diverged
    /// past the period (unschedulable).
    pub response_ms: Option<f64>,
    /// Whether the task meets its deadline.
    pub schedulable: bool,
}

/// Fixed-priority response-time analysis with a blocking term.
///
/// Tasks are sorted rate-monotonically (shorter period = higher priority).
/// `blocking_ms` models OS interference below the task's control — here,
/// the pseudo worst-case dispatch latency from the measured distributions.
pub fn response_time_analysis(tasks: &[PeriodicTask], blocking_ms: f64) -> Vec<ResponseTime> {
    assert!(blocking_ms >= 0.0, "blocking cannot be negative");
    let mut sorted: Vec<PeriodicTask> = tasks.to_vec();
    sorted.sort_by(|a, b| a.period_ms.total_cmp(&b.period_ms));
    let mut results = Vec::with_capacity(sorted.len());
    for (i, task) in sorted.iter().enumerate() {
        let higher = &sorted[..i];
        let mut r = task.compute_ms + blocking_ms;
        let mut response = None;
        for _ in 0..1000 {
            let interference: f64 = higher
                .iter()
                .map(|h| (r / h.period_ms).ceil() * h.compute_ms)
                .sum();
            let next = task.compute_ms + blocking_ms + interference;
            if (next - r).abs() < 1e-9 {
                response = Some(next);
                break;
            }
            if next > task.period_ms {
                r = next;
                // Past the deadline: keep iterating briefly in case of
                // convergence above, but the task is unschedulable.
                if next > task.period_ms * 16.0 {
                    break;
                }
                continue;
            }
            r = next;
        }
        let schedulable = matches!(response, Some(r) if r <= task.period_ms);
        results.push(ResponseTime {
            task: task.clone(),
            response_ms: response,
            schedulable,
        });
    }
    results
}

/// Convenience: is the whole task set schedulable under the blocking term?
pub fn is_schedulable(tasks: &[PeriodicTask], blocking_ms: f64) -> bool {
    response_time_analysis(tasks, blocking_ms)
        .iter()
        .all(|r| r.schedulable)
}

/// Renders a §5.2-style report: pseudo worst cases at several error rates
/// and the verdict for a task set.
pub fn render_sched_report(
    latency: &LatencyHistogram,
    events_per_second: f64,
    tasks: &[PeriodicTask],
) -> String {
    let mut out = String::from("Pseudo worst-case dispatch latency vs permissible error rate:\n");
    for (interval, label) in [
        (300.0, "1 drop / 5 min (low latency audio)"),
        (3600.0, "1 drop / hour (soft modem)"),
        (86_400.0, "1 drop / day (high reliability)"),
    ] {
        let l = pseudo_worst_case_ms(latency, interval, events_per_second);
        out.push_str(&format!("  {label:<40} -> {l:>8.3} ms\n"));
    }
    let blocking = pseudo_worst_case_ms(latency, 3600.0, events_per_second);
    out.push_str(&format!(
        "\nResponse-time analysis with blocking = {blocking:.3} ms (1 drop/hour):\n"
    ));
    for r in response_time_analysis(tasks, blocking) {
        out.push_str(&format!(
            "  {:<16} T={:>7.1} ms  C={:>6.2} ms  R={:>8}  {}\n",
            r.task.name,
            r.task.period_ms,
            r.task.compute_ms,
            r.response_ms
                .map(|x| format!("{x:.2} ms"))
                .unwrap_or_else(|| "diverged".into()),
            if r.schedulable {
                "OK"
            } else {
                "MISSES DEADLINE"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::time::{Cycles, DEFAULT_CPU_HZ};

    fn flat_hist(vals: &[(f64, u64)]) -> LatencyHistogram {
        let mut h = LatencyHistogram::fig4();
        for &(v, n) in vals {
            for _ in 0..n {
                h.record_cycles(Cycles::from_ms(v), DEFAULT_CPU_HZ);
            }
        }
        h
    }

    #[test]
    fn liu_layland_bounds() {
        assert!((rma_utilization_bound(1) - 1.0).abs() < 1e-12);
        assert!((rma_utilization_bound(2) - 0.8284).abs() < 1e-3);
        // As n grows the bound approaches ln 2.
        assert!((rma_utilization_bound(1000) - std::f64::consts::LN_2).abs() < 1e-3);
    }

    #[test]
    fn response_time_classic_example() {
        // A textbook set: (T=50, C=12), (T=40, C=10), (T=30, C=10).
        let tasks = vec![
            PeriodicTask::new("t1", 50.0, 12.0),
            PeriodicTask::new("t2", 40.0, 10.0),
            PeriodicTask::new("t3", 30.0, 10.0),
        ];
        let rs = response_time_analysis(&tasks, 0.0);
        // Highest priority (T=30) responds in C=10.
        assert_eq!(rs[0].response_ms, Some(10.0));
        // T=40 task: 10 + 10 = 20.
        assert_eq!(rs[1].response_ms, Some(20.0));
        // T=50 task: 12 + 2*10 + 2*10 = 52 > 50 -> converges at 52, misses.
        assert!(!rs[2].schedulable);
        assert!(rs[0].schedulable && rs[1].schedulable);
    }

    #[test]
    fn blocking_term_can_break_schedulability() {
        let tasks = vec![PeriodicTask::new("modem", 8.0, 2.0)];
        assert!(is_schedulable(&tasks, 0.0));
        assert!(is_schedulable(&tasks, 5.9));
        assert!(!is_schedulable(&tasks, 6.1));
    }

    #[test]
    fn pseudo_worst_case_tracks_error_rate() {
        // 1 in 1000 samples at 10 ms, the rest at 0.1 ms.
        let h = flat_hist(&[(0.1, 99_900), (10.0, 100)]);
        // Permitting an error every 10 events -> small quantile.
        let lenient = pseudo_worst_case_ms(&h, 10.0, 1.0);
        // Permitting an error every 100k events -> must cover the tail.
        let strict = pseudo_worst_case_ms(&h, 100_000.0, 1.0);
        assert!(lenient < 1.0, "lenient {lenient}");
        assert!(strict >= 10.0, "strict {strict}");
    }

    #[test]
    fn report_renders() {
        let h = flat_hist(&[(0.1, 1000), (3.0, 10)]);
        let tasks = vec![
            PeriodicTask::new("datapump", 8.0, 2.0),
            PeriodicTask::new("audio", 16.0, 3.0),
        ];
        let r = render_sched_report(&h, 1000.0, &tasks);
        assert!(r.contains("soft modem"));
        assert!(r.contains("datapump"));
        assert!(r.contains("Response-time analysis"));
    }

    #[test]
    #[should_panic(expected = "utilization above 1")]
    fn overutilized_task_rejected() {
        let _ = PeriodicTask::new("bad", 5.0, 6.0);
    }
}
