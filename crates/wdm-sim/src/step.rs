//! The execution model: programs emit steps, the kernel executes them.
//!
//! Simulated code — ISR bodies, DPC routines and thread functions — is
//! expressed as a [`Program`]: a state machine that yields one [`Step`] at a
//! time. `Busy` steps consume simulated CPU (and may be preempted according
//! to the WDM rules for the context they run in); all other steps are
//! kernel-service calls that take effect at the simulated instant they are
//! reached. This mirrors how the paper's measurement drivers are written:
//! straight-line code whose only interesting events are timestamp reads and
//! kernel calls (§2.2.1–2.2.5).

use rand::rngs::StdRng;

use crate::{
    ids::{DpcId, EventId, IrpId, Slot, TimerId, WaitObject},
    labels::Label,
    time::{Cycles, Instant},
};

/// One operation yielded by a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Consume CPU for `cycles`, attributed to `label`.
    ///
    /// Preemptible by anything the current context can be preempted by.
    Busy {
        /// CPU to consume.
        cycles: Cycles,
        /// Attribution for the cause tool.
        label: Label,
    },
    /// Read the time-stamp counter into a blackboard slot (`GetCycleCount`).
    ReadTsc(Slot),
    /// Queue a DPC (`KeInsertQueueDpc`).
    QueueDpc(DpcId),
    /// Signal an event (`KeSetEvent`).
    SetEvent(EventId),
    /// Arm a kernel timer (`KeSetTimer`/`KeSetTimerEx`).
    ///
    /// The timer fires at the first PIT tick at or after `due` from now;
    /// `period` of `Some` re-arms it each expiry (periodic timers, new in
    /// NT 4.0 per the paper's glossary).
    SetTimer {
        /// The timer to arm.
        timer: TimerId,
        /// Relative due time.
        due: Cycles,
        /// Re-arm interval for periodic timers.
        period: Option<Cycles>,
    },
    /// Complete an IRP (`IoCompleteRequest`): signals the IRP's completion
    /// event and notifies the owning control application.
    CompleteIrp(IrpId),
    /// Block on a dispatcher object (`KeWaitForSingleObject`, INFINITE).
    ///
    /// Thread context only.
    Wait(WaitObject),
    /// Sleep for a duration (`KeDelayExecutionThread`). Thread context only.
    Sleep(Cycles),
    /// End of this activation (ISR/DPC return). In thread context this
    /// parks the thread in `Waiting` for good: nothing ever wakes it.
    Return,
}

/// Context handed to a program at each step.
///
/// Exposes the pieces of machine state straight-line driver code could see:
/// the clock, its own data buffers (the blackboard) and a source of
/// randomness for synthetic workloads.
pub struct StepCtx<'a> {
    /// Current simulated time (what RDTSC would return).
    pub now: Instant,
    /// Shared data slots (used for IRP system buffers and driver globals).
    pub board: &'a mut Blackboard,
    /// Deterministic per-kernel RNG for stochastic programs.
    pub rng: &'a mut StdRng,
}

/// A state machine producing the instruction stream of simulated code.
pub trait Program {
    /// Called when an activation starts: thread start, ISR dispatch, or DPC
    /// execution. Programs that run repeatedly reset themselves here.
    fn begin(&mut self, _ctx: &mut StepCtx<'_>) {}

    /// Produces the next operation to execute.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step;
}

/// Execution progress of an activity (ISR, DPC, section or thread).
///
/// The kernel advances simulated time in `Busy` chunks; when a chunk
/// completes the activity either asks its program for the next step
/// (`NeedStep`) or retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecState {
    /// The activity's program must be asked for its next step.
    NeedStep,
    /// The activity is consuming CPU.
    Busy {
        /// Cycles still to run.
        remaining: Cycles,
        /// Attribution for the cause tool.
        label: Label,
    },
}

/// Shared `u64` cells: driver globals and IRP system buffers.
///
/// The paper's drivers communicate timestamps to the control application via
/// `IRP->AssociatedIrp.SystemBuffer`; here both sides read and write
/// blackboard slots.
#[derive(Debug, Default)]
pub struct Blackboard {
    cells: Vec<u64>,
}

impl Blackboard {
    /// Creates an empty blackboard.
    pub fn new() -> Blackboard {
        Blackboard::default()
    }

    /// Allocates `n` zero-initialized slots, returning the first.
    ///
    /// Slots are contiguous: `Slot(base.0 + i)` for `i < n`.
    pub fn alloc(&mut self, n: usize) -> Slot {
        let base = self.cells.len();
        self.cells.resize(base + n, 0);
        Slot(base)
    }

    /// Reads a slot.
    pub fn read(&self, s: Slot) -> u64 {
        self.cells[s.0]
    }

    /// Writes a slot.
    pub fn write(&mut self, s: Slot, v: u64) {
        self.cells[s.0] = v;
    }

    /// Number of allocated slots.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no slots are allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A program that replays a fixed sequence of steps once per activation.
///
/// Suitable for ISR and DPC bodies, which in WDM are run-to-completion.
/// After the sequence is exhausted the program yields [`Step::Return`].
///
/// Consecutive [`Step::Busy`] entries are deliberately *not* merged at
/// construction time: each step is one simulated event, so merging would
/// change `sim_events` and the label the interrupt path attributes to a
/// preempted chunk. The kernel instead fast-forwards whole runs of busy
/// steps at execution time when no preemption can land between them
/// (see DESIGN.md §8), which is observationally identical.
#[derive(Debug, Clone)]
pub struct OpSeq {
    steps: Vec<Step>,
    next: usize,
}

impl OpSeq {
    /// Creates a sequence program from steps.
    pub fn new(steps: Vec<Step>) -> OpSeq {
        OpSeq { steps, next: 0 }
    }
}

impl Program for OpSeq {
    fn begin(&mut self, _ctx: &mut StepCtx<'_>) {
        self.next = 0;
    }

    #[inline]
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        match self.steps.get(self.next) {
            Some(&s) => {
                self.next += 1;
                s
            }
            None => Step::Return,
        }
    }
}

/// A program that cycles through a fixed sequence of steps forever.
///
/// Suitable for simple worker threads.
#[derive(Debug, Clone)]
pub struct LoopSeq {
    steps: Vec<Step>,
    next: usize,
}

impl LoopSeq {
    /// Creates a looping program from steps. `steps` must be non-empty.
    pub fn new(steps: Vec<Step>) -> LoopSeq {
        assert!(!steps.is_empty(), "LoopSeq requires at least one step");
        LoopSeq { steps, next: 0 }
    }
}

impl Program for LoopSeq {
    #[inline]
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        let s = self.steps[self.next];
        self.next = (self.next + 1) % self.steps.len();
        s
    }
}

/// A program defined by a closure, for ad-hoc stochastic bodies.
pub struct FnProgram<F: FnMut(&mut StepCtx<'_>) -> Step> {
    f: F,
}

impl<F: FnMut(&mut StepCtx<'_>) -> Step> FnProgram<F> {
    /// Wraps a closure as a program. The closure is invoked once per step.
    pub fn new(f: F) -> FnProgram<F> {
        FnProgram { f }
    }
}

impl<F: FnMut(&mut StepCtx<'_>) -> Step> Program for FnProgram<F> {
    #[inline]
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        (self.f)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn blackboard_alloc_and_rw() {
        let mut b = Blackboard::new();
        assert!(b.is_empty());
        let s0 = b.alloc(3);
        assert_eq!(s0, Slot(0));
        let s1 = b.alloc(2);
        assert_eq!(s1, Slot(3));
        b.write(Slot(4), 99);
        assert_eq!(b.read(Slot(4)), 99);
        assert_eq!(b.read(Slot(0)), 0);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn opseq_replays_then_returns() {
        let mut b = Blackboard::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = StepCtx {
            now: Instant::ZERO,
            board: &mut b,
            rng: &mut rng,
        };
        let busy = Step::Busy {
            cycles: Cycles(10),
            label: Label::KERNEL,
        };
        let mut p = OpSeq::new(vec![busy, Step::SetEvent(EventId(0))]);
        p.begin(&mut ctx);
        assert_eq!(p.step(&mut ctx), busy);
        assert_eq!(p.step(&mut ctx), Step::SetEvent(EventId(0)));
        assert_eq!(p.step(&mut ctx), Step::Return);
        assert_eq!(p.step(&mut ctx), Step::Return);
        // A new activation replays from the start.
        p.begin(&mut ctx);
        assert_eq!(p.step(&mut ctx), busy);
    }

    #[test]
    fn loopseq_cycles() {
        let mut b = Blackboard::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = StepCtx {
            now: Instant::ZERO,
            board: &mut b,
            rng: &mut rng,
        };
        let a = Step::ReadTsc(Slot(0));
        let s = Step::Sleep(Cycles(5));
        let mut p = LoopSeq::new(vec![a, s]);
        assert_eq!(p.step(&mut ctx), a);
        assert_eq!(p.step(&mut ctx), s);
        assert_eq!(p.step(&mut ctx), a);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn loopseq_rejects_empty() {
        let _ = LoopSeq::new(vec![]);
    }

    #[test]
    fn fn_program_sees_ctx() {
        let mut b = Blackboard::new();
        let slot = b.alloc(1);
        b.write(slot, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = StepCtx {
            now: Instant(123),
            board: &mut b,
            rng: &mut rng,
        };
        let mut p = FnProgram::new(|c: &mut StepCtx<'_>| {
            let v = c.board.read(Slot(0));
            Step::Sleep(Cycles(v + c.now.0))
        });
        assert_eq!(p.step(&mut ctx), Step::Sleep(Cycles(130)));
    }
}
