//! Scenario composition: OS personality x workload -> a ready-to-run kernel.
//!
//! This is the equivalent of the paper's lab setup: install the OS
//! (Table 2), start the stress applications (§3.1), optionally add the
//! virus scanner or a sound scheme (§4.3–4.4), and hand the machine to the
//! measurement tools in `wdm-latency`.

use wdm_osmodel::{
    dist::{bursty_arrivals, poisson_arrivals},
    personality::{OsKind, OsPersonality},
    perturb::{SoundScheme, SoundSchemePerturbation, VirusScanner},
    workitem::WorkItemQueue,
};
use wdm_sim::{
    env::{EnvAction, EnvSource},
    ids::{Slot, SourceId, ThreadId},
    irql::Irql,
    kernel::Kernel,
};

use crate::{
    programs::{AppTask, DeviceDpc, DeviceIsr},
    spec::{WorkloadKind, WorkloadSpec},
    usage::UsageModel,
};

/// Optional extras for a scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOptions {
    /// Install the Plus! 98 virus scanner (Figure 5). Meaningful on either
    /// OS but the paper studies it on Windows 98.
    pub virus_scanner: bool,
    /// Sound scheme (Table 4 uses Default; the headline data uses None).
    pub sound_scheme: SoundScheme,
}

impl Default for ScenarioOptions {
    fn default() -> ScenarioOptions {
        ScenarioOptions {
            virus_scanner: false,
            sound_scheme: SoundScheme::None,
        }
    }
}

/// A composed, ready-to-run machine.
pub struct Scenario {
    /// The simulated machine. Add measurement tools, then `run_for`.
    pub kernel: Kernel,
    /// Which OS was installed.
    pub os: OsKind,
    /// Which stress load is running.
    pub workload: WorkloadKind,
    /// The usage model for worst-case scaling.
    pub usage: UsageModel,
    /// Per-task operation counters (throughput metric).
    pub ops_slots: Vec<(&'static str, Slot)>,
    /// Application threads.
    pub app_threads: Vec<ThreadId>,
    /// NT kernel work-item queue, when present.
    pub workitem: Option<WorkItemQueue>,
    /// Virus scanner handle, when installed.
    pub virus_scanner: Option<VirusScanner>,
    /// Sound scheme sources, when installed.
    pub sound_scheme: SoundSchemePerturbation,
    /// OS background sources (cli windows, VMM sections).
    pub background: Vec<SourceId>,
}

impl Scenario {
    /// Total application operations completed so far (throughput score).
    pub fn total_ops(&self) -> u64 {
        self.ops_slots
            .iter()
            .map(|&(_, s)| self.kernel.slot(s))
            .sum()
    }
}

/// Composes a scenario: OS + workload + options, seeded deterministically.
pub fn build_scenario(
    os: OsKind,
    workload: WorkloadKind,
    seed: u64,
    opts: &ScenarioOptions,
) -> Scenario {
    let personality = OsPersonality::of(os);
    let spec = WorkloadSpec::of(workload);
    let mut k = personality.build_kernel(seed);
    let cpu = k.config().cpu_hz;

    // OS background activity, scaled by the workload.
    let background = personality.install_background(&mut k, &spec.factors);

    // Devices: vector + DPC + Poisson arrival source. Durations are scaled
    // by the personality (legacy drivers do more interrupt-context work).
    for d in &spec.devices {
        let module = d.name.to_uppercase();
        let isr_label = k.intern(&module, "_Isr");
        let dpc = d.dpc_ms.as_ref().map(|dist| {
            let dpc_label = k.intern(&module, "_DpcForIsr");
            k.create_dpc(
                format!("{}-dpc", d.name),
                Box::new(DeviceDpc::new(
                    dist.scaled(personality.driver_dpc_scale),
                    cpu,
                    dpc_label,
                )),
            )
        });
        let v = k.install_vector(
            d.name,
            Irql(d.irql),
            Box::new(DeviceIsr::new(
                d.isr_ms.scaled(personality.driver_isr_scale),
                cpu,
                isr_label,
                dpc,
            )),
        );
        let arrivals = match d.arrival {
            crate::spec::ArrivalSpec::Poisson(rate) => poisson_arrivals(rate, cpu),
            crate::spec::ArrivalSpec::Bursty {
                on_rate_hz,
                off_rate_hz,
                mean_on_ms,
                mean_off_ms,
            } => bursty_arrivals(on_rate_hz, off_rate_hz, mean_on_ms, mean_off_ms, cpu),
        };
        k.add_env_source(EnvSource::new(
            format!("{}-arrivals", d.name),
            arrivals,
            EnvAction::AssertInterrupt(v),
        ));
    }

    // Application tasks.
    let mut ops_slots = Vec::new();
    let mut app_threads = Vec::new();
    for t in &spec.tasks {
        let slot = k.alloc_slots(1);
        let label = k.intern(&t.name.to_uppercase(), "_Main");
        let tid = k.create_thread(
            t.name,
            t.priority,
            Box::new(AppTask::new(
                t.burst_ms.clone(),
                t.idle_ms.clone(),
                cpu,
                label,
                slot,
            )),
        );
        ops_slots.push((t.name, slot));
        app_threads.push(tid);
    }

    // NT kernel work-item queue.
    let workitem = if personality.has_workitem_queue {
        Some(WorkItemQueue::install(
            &mut k,
            personality.workitem_rate_hz * spec.factors.workitem_rate,
            personality.workitem_duration.clone(),
        ))
    } else {
        None
    };

    // Optional perturbations.
    let virus_scanner = if opts.virus_scanner {
        Some(VirusScanner::install(&mut k, spec.file_ops_hz))
    } else {
        None
    };
    let sound_scheme =
        SoundSchemePerturbation::install(&mut k, opts.sound_scheme, spec.ui_events_hz);

    Scenario {
        kernel: k,
        os,
        workload,
        usage: UsageModel::of(workload),
        ops_slots,
        app_threads,
        workitem,
        virus_scanner,
        sound_scheme,
        background,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::time::Cycles;

    #[test]
    fn scenarios_build_for_all_cells() {
        for os in OsKind::ALL {
            for w in WorkloadKind::ALL {
                let s = build_scenario(os, w, 1, &ScenarioOptions::default());
                assert_eq!(s.os, os);
                assert_eq!(s.workload, w);
                assert_eq!(s.workitem.is_some(), os == OsKind::Nt4);
            }
        }
    }

    #[test]
    fn scenario_runs_and_does_work() {
        let mut s = build_scenario(
            OsKind::Win98,
            WorkloadKind::Business,
            7,
            &ScenarioOptions::default(),
        );
        s.kernel.run_for(Cycles::from_ms(2_000.0));
        assert!(
            s.total_ops() > 50,
            "apps should complete ops: {}",
            s.total_ops()
        );
        let acct = s.kernel.account;
        assert!(acct.isr > 0 && acct.dpc > 0 && acct.section > 0);
        assert_eq!(acct.total(), s.kernel.now().0);
    }

    #[test]
    fn nt_scenario_has_workitems_not_sections() {
        let mut s = build_scenario(
            OsKind::Nt4,
            WorkloadKind::Workstation,
            7,
            &ScenarioOptions::default(),
        );
        s.kernel.run_for(Cycles::from_ms(2_000.0));
        assert_eq!(s.kernel.account.section, 0, "NT has no VMM sections");
        let q = s.workitem.as_ref().unwrap();
        assert!(s.kernel.thread(q.worker).waits_satisfied > 0);
    }

    #[test]
    fn options_install_perturbations() {
        let opts = ScenarioOptions {
            virus_scanner: true,
            sound_scheme: SoundScheme::Default,
        };
        let mut s = build_scenario(OsKind::Win98, WorkloadKind::Business, 7, &opts);
        assert!(s.virus_scanner.is_some());
        assert_eq!(s.sound_scheme.sources.len(), 3);
        s.kernel.run_for(Cycles::from_ms(1_000.0));
        let vs = s.virus_scanner.as_ref().unwrap();
        assert!(s.kernel.env_source(vs.source).fire_count > 0);
    }

    #[test]
    fn same_seed_reproduces_ops() {
        let run = |seed| {
            let mut s = build_scenario(
                OsKind::Win98,
                WorkloadKind::Games,
                seed,
                &ScenarioOptions::default(),
            );
            s.kernel.run_for(Cycles::from_ms(1_000.0));
            s.total_ops()
        };
        assert_eq!(run(3), run(3));
    }
}
