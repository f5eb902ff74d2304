//! The NT kernel work-item queue.
//!
//! On NT 4.0 the WDM "kernel work item" queue is serviced by a system
//! thread running at real-time *default* priority (24). The paper singles
//! this out as the reason a priority-24 measurement thread sees an order of
//! magnitude worse latency than a priority-28 one on NT (§4.2): when a work
//! item is executing, a freshly-readied priority-24 thread must wait for the
//! worker to block or exhaust its quantum, while a 28 preempts it instantly.
//!
//! The worker is a simulated system thread draining a semaphore-protected
//! queue of sampled work durations; an environment source posts items.

use std::{cell::RefCell, collections::VecDeque, rc::Rc};

use wdm_sim::{
    env::{EnvAction, EnvSource, Sampler},
    ids::{SemId, SourceId, ThreadId, WaitObject},
    kernel::Kernel,
    step::{Program, Step, StepCtx},
    thread::RT_DEFAULT_PRIORITY,
    time::Cycles,
};

use crate::dist::{poisson_arrivals, Dist};

/// Shared queue of pending work-item durations.
type WorkFifo = Rc<RefCell<VecDeque<Cycles>>>;

/// The `ExWorkerThread` program: wait for a post, run the item, repeat.
struct WorkerProgram {
    sem: SemId,
    fifo: WorkFifo,
    label: wdm_sim::labels::Label,
}

impl Program for WorkerProgram {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if let Some(d) = self.fifo.borrow_mut().pop_front() {
            return Step::Busy {
                cycles: d,
                label: self.label,
            };
        }
        Step::Wait(WaitObject::Semaphore(self.sem))
    }
}

/// Handle to an installed work-item queue.
#[derive(Debug, Clone)]
pub struct WorkItemQueue {
    /// The worker system thread (priority 24).
    pub worker: ThreadId,
    /// The posting environment source.
    pub source: SourceId,
    /// The wake semaphore.
    pub sem: SemId,
    fifo: WorkFifo,
}

impl WorkItemQueue {
    /// Installs the queue: worker thread + posting source.
    ///
    /// `rate_hz` is the post rate; `duration` samples per-item execution
    /// time in milliseconds.
    pub fn install(k: &mut Kernel, rate_hz: f64, duration: Dist) -> WorkItemQueue {
        let cpu = k.config().cpu_hz;
        let fifo: WorkFifo = Rc::new(RefCell::new(VecDeque::new()));
        let sem = k.create_semaphore(0, u32::MAX / 2);
        let label = k.intern("NTOSKRNL", "_ExpWorkerThread");
        let worker = k.create_thread(
            "ExWorkerThread",
            RT_DEFAULT_PRIORITY,
            Box::new(WorkerProgram {
                sem,
                fifo: fifo.clone(),
                label,
            }),
        );
        // The posting source: each arrival enqueues one sampled duration and
        // releases the semaphore. We wrap the duration sampler so the
        // enqueue happens when the arrival gap is *consumed*, i.e. at the
        // moment of the post.
        let mut dur_sampler = duration.sampler(cpu);
        let mut arrival = poisson_arrivals(rate_hz.max(1e-9), cpu);
        let fifo_for_post = fifo.clone();
        let wrapped: Sampler = Box::new(move |rng| {
            // Called once per (re)scheduling: queue the item the *previous*
            // arrival delivered. The very first call precedes any post and
            // enqueues one extra item at startup, which is harmless warmup.
            fifo_for_post.borrow_mut().push_back(dur_sampler(rng));
            arrival(rng)
        });
        let source = k.add_env_source(EnvSource::new(
            "workitem-posts",
            wrapped,
            EnvAction::ReleaseSemaphore(sem, 1),
        ));
        WorkItemQueue {
            worker,
            source,
            sem,
            fifo,
        }
    }

    /// Items waiting to run (excluding one possibly executing).
    pub fn backlog(&self) -> usize {
        self.fifo.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::config::KernelConfig;

    #[test]
    fn worker_drains_posts() {
        let mut k = Kernel::new(KernelConfig::default());
        let q = WorkItemQueue::install(
            &mut k,
            50.0,
            Dist::Constant(0.5), // 0.5 ms per item
        );
        k.run_for(Cycles::from_ms(1_000.0));
        let worker = k.thread(q.worker);
        // ~50 items posted over the second; the worker must have run most.
        assert!(
            worker.waits_satisfied >= 20,
            "worker barely ran: {} waits",
            worker.waits_satisfied
        );
        assert!(q.backlog() < 10, "backlog should stay bounded");
    }

    #[test]
    fn worker_occupies_priority_24() {
        let mut k = Kernel::new(KernelConfig::default());
        let q = WorkItemQueue::install(&mut k, 100.0, Dist::Constant(2.0));
        k.run_for(Cycles::from_ms(500.0));
        assert_eq!(k.thread(q.worker).priority, RT_DEFAULT_PRIORITY);
        // 100 posts/s x 2 ms = ~20% CPU in the worker.
        let frac = k.account.thread as f64 / k.now().0 as f64;
        assert!(frac > 0.1, "worker should consume visible CPU: {frac}");
    }
}
