#![warn(missing_docs)]

//! # wdm-sim — a discrete-event simulator of a WDM-style kernel
//!
//! The hardware/OS substrate for reproducing *"A Comparison of Windows
//! Driver Model Latency Performance on Windows NT and Windows 98"*
//! (Cota-Robles & Held, OSDI 1999). It models the paper's test machine —
//! a 300 MHz Pentium II with a time-stamp counter and a programmable
//! interval timer — executing the WDM scheduling hierarchy:
//!
//! 1. interrupt service routines at device IRQLs,
//! 2. the FIFO DPC queue at DISPATCH level,
//! 3. fixed-priority preemptive threads (real-time band 16–31).
//!
//! Simulated code is written as [`step::Program`]s that yield [`step::Step`]s;
//! the kernel advances a cycle-accurate clock between hardware events,
//! busy-chunk completions and quantum expiries. The OS personalities (NT 4.0
//! vs Windows 98) and application stress loads are layered on top by the
//! `wdm-osmodel` and `wdm-workloads` crates through [`env::EnvSource`]s and
//! [`config::KernelConfig`] parameters.
//!
//! ## Example
//!
//! ```
//! use std::{cell::RefCell, rc::Rc};
//! use wdm_sim::prelude::*;
//!
//! // Count DPC latencies with an observer.
//! #[derive(Default)]
//! struct DpcWatch(Vec<u64>);
//! impl Observer for DpcWatch {
//!     fn on_dpc_start(&mut self, e: &DpcStart) {
//!         self.0.push((e.started - e.queued).0);
//!     }
//! }
//!
//! let mut k = Kernel::new(KernelConfig::default());
//! let slot = k.alloc_slots(1);
//! let dpc = k.create_dpc(
//!     "tick-dpc",
//!     Box::new(OpSeq::new(vec![Step::ReadTsc(slot), Step::Return])),
//! );
//! let timer = k.create_timer(Some(dpc));
//! let watch = Rc::new(RefCell::new(DpcWatch::default()));
//! k.add_observer(watch.clone());
//! // Drive the timer via a thread program.
//! let t = k.create_thread(
//!     "armer",
//!     24,
//!     Box::new(OpSeq::new(vec![Step::SetTimer {
//!         timer,
//!         due: Cycles::from_ms(1.0),
//!         period: Some(Cycles::from_ms(1.0)),
//!     }])),
//! );
//! let _ = t;
//! k.run_for(Cycles::from_ms(10.0));
//! assert!(!watch.borrow().0.is_empty());
//! ```

pub mod calendar;
pub mod config;
pub mod dpc;
pub mod env;
pub mod flight;
pub mod ids;
pub mod interrupt;
pub mod irp;
pub mod irql;
pub mod kernel;
pub mod labels;
pub mod metrics;
pub mod object;
pub mod observer;
pub mod sched;
pub mod step;
pub mod thread;
pub mod time;
pub mod timer;

/// One-stop imports for building simulations.
pub mod prelude {
    pub use crate::{
        config::KernelConfig,
        dpc::DpcDiscipline,
        env::{samplers, EnvAction, EnvSource, Sampler},
        flight::{
            chrome_document, chrome_events_slice, CalendarPopKind, FlightEvent, FlightRecorder,
        },
        ids::{
            DpcId, EventId, IrpId, SemId, Slot, SourceId, ThreadId, TimerId, VectorId, WaitObject,
        },
        interrupt::InterruptController,
        irql::Irql,
        kernel::{CycleAccount, Kernel, ObserverHandle},
        labels::{Label, SymbolTable},
        metrics::{MetricValue, MetricsSnapshot},
        observer::{
            BlameBreakdown, DpcStart, Interest, IsrEnter, Objects, Observer, ResumeBlame,
            Subscription, ThreadResume,
        },
        step::{Blackboard, FnProgram, LoopSeq, OpSeq, Program, Step, StepCtx},
        thread::{ThreadState, RT_DEFAULT_PRIORITY, RT_HIGH_PRIORITY},
        time::{Cycles, Instant, DEFAULT_CPU_HZ},
    };
}
