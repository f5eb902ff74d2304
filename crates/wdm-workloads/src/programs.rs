//! Reusable simulated-code building blocks for workload activity.
//!
//! Device ISRs, device DPCs and application threads are small [`Program`]
//! state machines whose busy durations are drawn from `wdm-osmodel`
//! distributions at each activation. Distributions are lowered once at
//! construction into [`CompiledSampler`]s so the per-activation draw does
//! no distribution dispatch or unit conversion (DESIGN.md §12).

use wdm_sim::{
    ids::{DpcId, Slot},
    labels::Label,
    step::{Program, Step, StepCtx},
};
use wdm_osmodel::dist::{CompiledSampler, Dist, SamplerMode};

/// A device interrupt service routine: a sampled busy chunk, then
/// optionally queue the device's DPC (the WDM pattern: short ISR, deferred
/// work).
pub struct DeviceIsr {
    dur: CompiledSampler,
    label: Label,
    dpc: Option<DpcId>,
    phase: u8,
}

impl DeviceIsr {
    /// Creates the ISR. `dur` is the in-ISR work in milliseconds.
    pub fn new(dur: Dist, cpu_hz: u64, label: Label, dpc: Option<DpcId>) -> DeviceIsr {
        DeviceIsr {
            dur: dur.compile(cpu_hz, SamplerMode::Exact),
            label,
            dpc,
            phase: 0,
        }
    }
}

impl Program for DeviceIsr {
    fn begin(&mut self, _ctx: &mut StepCtx<'_>) {
        self.phase = 0;
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                Step::Busy {
                    cycles: self.dur.draw(ctx.rng),
                    label: self.label,
                }
            }
            1 => {
                self.phase = 2;
                match self.dpc {
                    Some(d) => Step::QueueDpc(d),
                    None => Step::Return,
                }
            }
            _ => Step::Return,
        }
    }
}

/// A device DPC: one sampled busy chunk of deferred work.
pub struct DeviceDpc {
    dur: CompiledSampler,
    label: Label,
    done: bool,
}

impl DeviceDpc {
    /// Creates the DPC routine. `dur` is deferred work in milliseconds.
    pub fn new(dur: Dist, cpu_hz: u64, label: Label) -> DeviceDpc {
        DeviceDpc {
            dur: dur.compile(cpu_hz, SamplerMode::Exact),
            label,
            done: false,
        }
    }
}

impl Program for DeviceDpc {
    fn begin(&mut self, _ctx: &mut StepCtx<'_>) {
        self.done = false;
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        if self.done {
            return Step::Return;
        }
        self.done = true;
        Step::Busy {
            cycles: self.dur.draw(ctx.rng),
            label: self.label,
        }
    }
}

/// An application thread alternating CPU bursts with blocking waits
/// (think time / I/O completion), counting completed operations in a
/// blackboard slot — the throughput metric of §4.2.
pub struct AppTask {
    burst: CompiledSampler,
    idle: CompiledSampler,
    label: Label,
    ops_slot: Slot,
    phase: u8,
}

impl AppTask {
    /// Creates the task. `burst` and `idle` are per-iteration CPU work and
    /// wait time in milliseconds; each completed burst counts one op into
    /// `ops_slot`.
    pub fn new(burst: Dist, idle: Dist, cpu_hz: u64, label: Label, ops_slot: Slot) -> AppTask {
        AppTask {
            burst: burst.compile(cpu_hz, SamplerMode::Exact),
            idle: idle.compile(cpu_hz, SamplerMode::Exact),
            label,
            ops_slot,
            phase: 0,
        }
    }
}

impl Program for AppTask {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                Step::Busy {
                    cycles: self.burst.draw(ctx.rng),
                    label: self.label,
                }
            }
            _ => {
                self.phase = 0;
                // The burst finished: count the op, then rest.
                let ops = ctx.board.read(self.ops_slot);
                ctx.board.write(self.ops_slot, ops + 1);
                Step::Sleep(self.idle.draw(ctx.rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::prelude::*;

    #[test]
    fn device_isr_queues_dpc_each_activation() {
        let mut k = Kernel::new(KernelConfig::default());
        let l = k.intern("IDE", "_Isr");
        let dl = k.intern("IDE", "_Dpc");
        let cpu = k.config().cpu_hz;
        let dpc = k.create_dpc(
            "ide-dpc",
            Box::new(DeviceDpc::new(Dist::Constant(0.2), cpu, dl)),
        );
        let v = k.install_vector(
            "ide",
            Irql(14),
            Box::new(DeviceIsr::new(Dist::Constant(0.02), cpu, l, Some(dpc))),
        );
        k.add_env_source(EnvSource::new(
            "ide-arrivals",
            samplers::fixed(Cycles::from_ms(2.0)),
            EnvAction::AssertInterrupt(v),
        ));
        k.run_for(Cycles::from_ms(20.0));
        assert!(
            k.dpc(dpc).run_count >= 8,
            "DPC should run per interrupt: {}",
            k.dpc(dpc).run_count
        );
    }

    #[test]
    fn app_task_counts_ops() {
        let mut k = Kernel::new(KernelConfig::default());
        let l = k.intern("WINWORD", "_Main");
        let cpu = k.config().cpu_hz;
        let slot = k.alloc_slots(1);
        let _t = k.create_thread(
            "word",
            8,
            Box::new(AppTask::new(
                Dist::Constant(1.0),
                Dist::Constant(1.0),
                cpu,
                l,
                slot,
            )),
        );
        k.run_for(Cycles::from_ms(100.0));
        let ops = k.slot(slot);
        // ~2 ms per iteration (1 busy + 1 sleep, tick-granular wake).
        assert!(
            (30..=60).contains(&ops),
            "expected ~40-50 ops, got {ops}"
        );
    }
}
