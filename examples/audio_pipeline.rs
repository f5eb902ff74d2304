//! The Figure 1/2 processing chain: ISR catches DMA, queues a DPC; the DPC
//! renders audio data and signals thread 1; thread 1 copies and signals
//! thread 2; thread 2 mixes/splits the streams.
//!
//! Measures every hop of the chain — interrupt latency, DPC latency,
//! thread latency and thread-to-thread context switch time — on both OSs,
//! exactly the decomposition of the paper's Figures 1 and 2.
//!
//! Run with: `cargo run --release --example audio_pipeline [minutes]`

use std::{cell::RefCell, rc::Rc};

use wdm_repro::osmodel::{OsKind, OsPersonality};
use wdm_repro::sim::prelude::*;

/// Timestamp slots for each hop of one pipeline round.
#[derive(Clone, Copy)]
struct Stamps {
    isr: Slot,
    dpc: Slot,
    t1: Slot,
}

struct ChainStats {
    rounds: u64,
    sum_dpc_us: f64,
    sum_t1_us: f64,
    sum_switch_us: f64,
    max_end_to_end_us: f64,
}

fn build(os: OsKind, seed: u64) -> (Kernel, Stamps, Rc<RefCell<ChainStats>>, VectorId) {
    let p = OsPersonality::of(os);
    let mut k = p.build_kernel(seed);
    let cpu = k.config().cpu_hz;
    let base = k.alloc_slots(3);
    let stamps = Stamps {
        isr: Slot(base.0),
        dpc: Slot(base.0 + 1),
        t1: Slot(base.0 + 2),
    };
    let e1 = k.create_event(false);
    let e2 = k.create_event(false);
    let isr_l = k.intern("AUDIODRV", "_DmaIsr");
    let dpc_l = k.intern("AUDIODRV", "_RenderDpc");
    let t1_l = k.intern("AUDIODRV", "_CopyThread");
    let t2_l = k.intern("KMIXER", "_MixThread");

    let stats = Rc::new(RefCell::new(ChainStats {
        rounds: 0,
        sum_dpc_us: 0.0,
        sum_t1_us: 0.0,
        sum_switch_us: 0.0,
        max_end_to_end_us: 0.0,
    }));

    // DPC: render audio data, stamp, signal thread 1 (Figure 2).
    let dpc = k.create_dpc(
        "render",
        Box::new(OpSeq::new(vec![
            Step::ReadTsc(stamps.dpc),
            Step::Busy {
                cycles: Cycles::from_us(120.0),
                label: dpc_l,
            },
            Step::SetEvent(e1),
            Step::Return,
        ])),
    );
    // ISR: catch DMA, stamp, queue DPC (Figure 1).
    let vector = k.install_vector(
        "audio-dma",
        Irql(12),
        Box::new(OpSeq::new(vec![
            Step::ReadTsc(stamps.isr),
            Step::Busy {
                cycles: Cycles::from_us(6.0),
                label: isr_l,
            },
            Step::QueueDpc(dpc),
            Step::Return,
        ])),
    );
    // Thread 1: read DMA, copy data to buffer, signal thread 2.
    let _t1 = k.create_thread(
        "copy-thread",
        26,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(e1)),
            Step::ReadTsc(stamps.t1),
            Step::Busy {
                cycles: Cycles::from_us(150.0),
                label: t1_l,
            },
            Step::SetEvent(e2),
        ])),
    );
    // Thread 2: read buffer, mix or split data streams; computes the hop
    // latencies for the completed round.
    struct Mixer {
        stamps: Stamps,
        stats: Rc<RefCell<ChainStats>>,
        e2: EventId,
        label: Label,
        cpu_hz: u64,
        phase: u8,
    }
    impl Program for Mixer {
        fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Step::Wait(WaitObject::Event(self.e2))
                }
                _ => {
                    self.phase = 0;
                    let us =
                        |c: u64| wdm_repro::sim::time::Cycles(c).as_ms_at(self.cpu_hz) * 1000.0;
                    let isr = ctx.board.read(self.stamps.isr);
                    let dpc = ctx.board.read(self.stamps.dpc);
                    let t1 = ctx.board.read(self.stamps.t1);
                    let now = ctx.now.0;
                    let mut s = self.stats.borrow_mut();
                    s.rounds += 1;
                    s.sum_dpc_us += us(dpc.saturating_sub(isr));
                    s.sum_t1_us += us(t1.saturating_sub(dpc));
                    s.sum_switch_us += us(now.saturating_sub(t1));
                    let e2e = us(now.saturating_sub(isr));
                    if e2e > s.max_end_to_end_us {
                        s.max_end_to_end_us = e2e;
                    }
                    Step::Busy {
                        cycles: Cycles::from_us(80.0),
                        label: self.label,
                    }
                }
            }
        }
    }
    let _t2 = k.create_thread(
        "mix-thread",
        26,
        Box::new(Mixer {
            stamps,
            stats: stats.clone(),
            e2,
            label: t2_l,
            cpu_hz: cpu,
            phase: 0,
        }),
    );
    // DMA buffer completes every 10 ms (a 10 ms audio period).
    k.add_env_source(EnvSource::new(
        "dma-period",
        samplers::fixed(Cycles::from_ms_at(10.0, cpu)),
        EnvAction::AssertInterrupt(vector),
    ));
    (k, stamps, stats, vector)
}

fn main() {
    let minutes: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    println!(
        "audio pipeline (Figure 1/2 chain): ISR -> DPC -> copy thread -> mix\n\
         thread, 10 ms DMA period, {minutes} simulated minute(s) per OS\n"
    );
    println!(
        "{:<22}{:>9}{:>14}{:>14}{:>16}{:>16}",
        "OS", "rounds", "ISR->DPC", "DPC->thr1", "thr1->thr2 sw", "max end-to-end"
    );
    for os in OsKind::ALL {
        let (mut k, _stamps, stats, _v) = build(os, 42);
        k.run_for(wdm_repro::sim::time::Cycles::from_ms_at(
            minutes * 60_000.0,
            k.config().cpu_hz,
        ));
        let s = stats.borrow();
        let n = s.rounds.max(1) as f64;
        println!(
            "{:<22}{:>9}{:>11.1} us{:>11.1} us{:>13.1} us{:>13.1} us",
            os.name(),
            s.rounds,
            s.sum_dpc_us / n,
            s.sum_t1_us / n,
            s.sum_switch_us / n,
            s.max_end_to_end_us
        );
    }
    println!(
        "\nThe 'thr1 -> thr2' column is the paper's thread context switch\n\
         time (Figure 1): the handoff between two cooperating threads,\n\
         including the switch itself."
    );
}
