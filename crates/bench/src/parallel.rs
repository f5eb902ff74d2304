//! Deterministic scoped-thread fan-out for independent measurement runs.
//!
//! Every expensive harness in this crate is a list of *independent*
//! simulations: the 8 OS x workload cells, the stability seed grid, the
//! figure-5 scanner on/off pair. Each run derives its seed from the job
//! alone (see [`crate::cells::cell_seed`]), so running them on N worker
//! threads and collecting results by job index produces output that is
//! byte-identical to the serial order at any thread count.

use std::sync::{
    atomic::{AtomicUsize, Ordering},
    Mutex,
};

/// Resolves a requested worker count against a job count.
///
/// `requested == 0` means auto (`std::thread::available_parallelism`);
/// the result is clamped to `[1, jobs]` so short grids never spawn idle
/// workers.
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let n = if requested == 0 {
        host_cores()
    } else {
        requested
    };
    n.clamp(1, jobs.max(1))
}

/// Cores the host exposes (`std::thread::available_parallelism`), 1 when
/// unknown.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `job(0..n)` on `threads` scoped workers and returns the results in
/// job-index order.
///
/// Workers claim job indices from a shared atomic counter and write each
/// result into its own slot, so scheduling order cannot reorder or drop
/// results — the only nondeterminism parallelism introduces is which
/// worker runs which job, and that is invisible in the output. A panic in
/// any job propagates when the scope joins.
pub fn parallel_map<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if threads == 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    let job = &job;
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The simulation runs outside the lock; only the slot
                // store is serialized (one lock per job, not per event).
                let r = job(i);
                slots.lock().unwrap()[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every job index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_job_order_at_any_thread_count() {
        let serial = parallel_map(17, 1, |i| i * i);
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map(17, threads, |i| i * i), serial);
        }
    }

    #[test]
    fn handles_empty_and_single_job_grids() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn effective_threads_clamps_to_jobs() {
        assert_eq!(effective_threads(16, 8), 8);
        assert_eq!(effective_threads(3, 8), 3);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, 64) >= 1);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(parallel_map(2, 64, |i| i), vec![0, 1]);
    }
}
