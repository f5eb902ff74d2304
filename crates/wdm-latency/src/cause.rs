//! The latency cause tool (paper §2.3, Table 4).
//!
//! The paper's tool patches the IDT entry for the PIT interrupt: on every
//! tick the hook records (instruction pointer, code segment, timestamp)
//! into a circular buffer and jumps to the OS ISR. The thread latency tool
//! is modified to report only latencies over a threshold and to dump the
//! buffer when one occurs; post-mortem analysis resolves samples to
//! module+function names with symbol files, producing "episode" traces like
//! Table 4 — all without OS source code.
//!
//! Here the hook rides the simulator's ISR-entry event, which carries the
//! label of the interrupted code (the analogue of the sampled instruction
//! pointer); symbolization uses the kernel's symbol table.

use std::collections::VecDeque;

use wdm_sim::{
    ids::{ThreadId, VectorId},
    kernel::Kernel,
    labels::{Label, SymbolTable},
    observer::{IsrEnter, Objects, Observer, Subscription, ThreadResume},
    time::{Cycles, Instant},
};

/// One sample from the hooked PIT interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookSample {
    /// When the hook ran.
    pub at: Instant,
    /// The interrupted code (the sampled instruction pointer, symbolized).
    pub label: Label,
}

/// A captured long-latency episode: the buffer contents spanning the
/// latency window.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Ordinal (Table 4: "latency episode number N").
    pub number: usize,
    /// The observed thread latency (ms).
    pub latency_ms: f64,
    /// When the thread was readied.
    pub readied: Instant,
    /// When it finally ran.
    pub started: Instant,
    /// Hook samples that fell inside the window.
    pub samples: Vec<HookSample>,
}

impl Episode {
    /// Aggregates samples per module+function, Table 4 style: sorted by
    /// first appearance.
    pub fn sample_counts(&self) -> Vec<(Label, usize)> {
        let mut order: Vec<Label> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for s in &self.samples {
            match order.iter().position(|&l| l == s.label) {
                Some(i) => counts[i] += 1,
                None => {
                    order.push(s.label);
                    counts.push(1);
                }
            }
        }
        order.into_iter().zip(counts).collect()
    }

    /// Renders the episode in the paper's Table 4 format. Labels interned
    /// with call chains render the full chain (the §6.1 "call trees"
    /// enhancement).
    pub fn render(&self, symbols: &SymbolTable) -> String {
        let mut out = format!("Analysis of latency episode number {}\n", self.number);
        for (label, n) in self.sample_counts() {
            let site = if symbols.parent(label).is_some() {
                format!(
                    "{} ({})",
                    symbols.function(label),
                    symbols.render_chain(label)
                )
            } else {
                symbols.function(label).to_string()
            };
            out.push_str(&format!(
                "{:>2} samples in {} function {}\n",
                n,
                symbols.module(label),
                site
            ));
        }
        out.push_str("-------------------------------------------------\n");
        out.push_str(&format!(
            "{} total samples in episode (latency {:.1} ms)\n",
            self.samples.len(),
            self.latency_ms
        ));
        out
    }
}

/// Maximum episodes a [`CauseTool`] keeps (post-mortem analysis is manual
/// in the paper; keep a bounded set).
const MAX_EPISODES: usize = 64;

/// The cause tool: IDT hook + threshold-triggered episode capture.
pub struct CauseTool {
    pit_vector: VectorId,
    watched_thread: ThreadId,
    threshold_ms: f64,
    cpu_hz: u64,
    /// One PIT tick: the window padding on each side of an episode.
    pad: Cycles,
    buffer: VecDeque<HookSample>,
    capacity: usize,
    /// Captured episodes.
    pub episodes: Vec<Episode>,
}

impl CauseTool {
    /// Creates the tool watching a measurement thread's latencies, sampling
    /// on the PIT hook (the paper's §2.3 configuration).
    pub fn new(
        k: &Kernel,
        watched_thread: ThreadId,
        threshold_ms: f64,
        capacity: usize,
    ) -> CauseTool {
        CauseTool {
            pit_vector: k.pit_vector(),
            watched_thread,
            threshold_ms,
            cpu_hz: k.config().cpu_hz,
            pad: k.config().pit_period(),
            buffer: VecDeque::with_capacity(capacity),
            capacity,
            episodes: Vec::new(),
        }
    }

    /// Samples currently in the circular buffer.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }
}

impl Observer for CauseTool {
    /// The PIT hook and the watched thread's resumes.
    fn subscription(&self) -> Subscription {
        Subscription {
            isr_enter: Objects::Only(vec![self.pit_vector]),
            thread_resume: Objects::Only(vec![self.watched_thread]),
            ..Subscription::NONE
        }
    }

    fn on_isr_enter(&mut self, e: &IsrEnter) {
        debug_assert_eq!(e.vector, self.pit_vector, "routed the PIT only");
        // The hook runs before the OS ISR: record the interrupted context.
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back(HookSample {
            at: e.started,
            label: e.interrupted_label,
        });
    }

    fn on_thread_resume(&mut self, e: &ThreadResume) {
        debug_assert_eq!(
            e.thread, self.watched_thread,
            "routed the watched thread only"
        );
        let latency_ms = (e.started - e.readied).as_ms_at(self.cpu_hz);
        if latency_ms < self.threshold_ms || self.episodes.len() >= MAX_EPISODES {
            return;
        }
        // Dump the buffer: samples within the latency window, padded by one
        // tick on each side so the surrounding context is visible.
        let lo = Instant(e.readied.0.saturating_sub(self.pad.0));
        let hi = e.started + self.pad;
        let samples: Vec<HookSample> = self
            .buffer
            .iter()
            .filter(|s| s.at >= lo && s.at <= hi)
            .cloned()
            .collect();
        self.episodes.push(Episode {
            number: self.episodes.len(),
            latency_ms,
            readied: e.readied,
            started: e.started,
            samples,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::{cell::RefCell, rc::Rc};
    use wdm_sim::{
        config::KernelConfig,
        env::{samplers, EnvAction, EnvSource},
        ids::WaitObject,
        step::{LoopSeq, OpSeq, Step},
    };

    /// A machine where a VMM section reliably delays a measurement
    /// thread: returns the kernel, the measurement thread, a thread that
    /// never waits, and the section's label.
    fn section_machine() -> (Kernel, ThreadId, ThreadId, Label) {
        let mut k = Kernel::new(KernelConfig::default());
        let vmm = k.intern("VMM", "_mmCalcFrameBadness");
        let evt = k.create_event(false);
        let slot = k.alloc_slots(1);
        let waiter = k.create_thread(
            "meas",
            28,
            Box::new(LoopSeq::new(vec![
                Step::Wait(WaitObject::Event(evt)),
                Step::ReadTsc(slot),
            ])),
        );
        let dpc = k.create_dpc(
            "sig",
            Box::new(OpSeq::new(vec![Step::SetEvent(evt), Step::Return])),
        );
        let timer = k.create_timer(Some(dpc));
        let armer = k.create_thread(
            "armer",
            16,
            Box::new(OpSeq::new(vec![Step::SetTimer {
                timer,
                due: Cycles::from_ms(10.0),
                period: Some(Cycles::from_ms(10.0)),
            }])),
        );
        // A 6 ms VMM section every 10 ms, phase-aligned to land on signals.
        k.add_env_source(EnvSource::new(
            "vmm",
            samplers::fixed(Cycles::from_ms(9.5)),
            EnvAction::Section {
                duration: samplers::fixed(Cycles::from_ms(6.0)),
                label: vmm,
            },
        ));
        (k, waiter, armer, vmm)
    }

    /// The episode attributes the section's delay to the section.
    #[test]
    fn episode_attributes_blame_to_section_label() {
        let (mut k, waiter, _, vmm) = section_machine();
        let tool = Rc::new(RefCell::new(CauseTool::new(&k, waiter, 2.0, 128)));
        k.add_observer(tool.clone());
        k.run_for(Cycles::from_ms(200.0));
        let tool = tool.borrow();
        assert!(
            !tool.episodes.is_empty(),
            "long latencies should be captured"
        );
        let ep = &tool.episodes[0];
        assert!(ep.latency_ms >= 2.0);
        let counts = ep.sample_counts();
        assert!(
            counts.iter().any(|&(l, _)| l == vmm),
            "the VMM section must appear in the trace"
        );
        let rendered = ep.render(k.symbols());
        assert!(rendered.contains("VMM function _mmCalcFrameBadness"));
        assert!(rendered.contains("total samples in episode"));
    }

    #[test]
    fn buffer_is_circular() {
        let k = Kernel::new(KernelConfig::default());
        let mut tool = CauseTool::new(&k, ThreadId(0), 1.0, 4);
        for i in 0..10u64 {
            tool.on_isr_enter(&IsrEnter {
                vector: k.pit_vector(),
                asserted: Instant(i),
                started: Instant(i),
                interrupted_label: Label::IDLE,
            });
        }
        assert_eq!(tool.buffer_len(), 4);
    }

    #[test]
    fn below_threshold_is_ignored() {
        let k = Kernel::new(KernelConfig::default());
        let mut tool = CauseTool::new(&k, ThreadId(3), 5.0, 16);
        tool.on_thread_resume(&ThreadResume {
            thread: ThreadId(3),
            priority: 28,
            readied: Instant(0),
            started: Instant(Cycles::from_ms(1.0).0), // 1 ms < 5 ms threshold
        });
        assert!(tool.episodes.is_empty());
    }

    /// The measurement thread's long latencies never reach a tool that
    /// watches a thread which never waits: its route carries no resume.
    #[test]
    fn other_threads_are_ignored() {
        let (mut k, waiter, armer, _) = section_machine();
        let tool = |t| Rc::new(RefCell::new(CauseTool::new(&k, t, 0.5, 128)));
        let (measuring, idle) = (tool(waiter), tool(armer));
        k.add_observer(measuring.clone());
        k.add_observer(idle.clone());
        k.run_for(Cycles::from_ms(200.0));
        assert!(!measuring.borrow().episodes.is_empty());
        let idle = idle.borrow();
        assert!(idle.episodes.is_empty());
        assert_eq!(idle.buffer_len(), measuring.borrow().buffer_len());
    }

    /// The window pad is one PIT tick of the kernel's own configuration:
    /// at 100 Hz an episode keeps a hook sample 5 ms before the readying,
    /// and drops one 12 ms before it.
    #[test]
    fn window_pad_is_one_pit_tick() {
        let k = Kernel::new(KernelConfig {
            pit_hz: 100,
            ..KernelConfig::default()
        });
        let one_ms = k.config().cpu_hz / 1000;
        let mut tool = CauseTool::new(&k, ThreadId(0), 1.0, 16);
        let readied = Instant(50 * one_ms);
        let sample = |before_ms: u64, label| HookSample {
            at: Instant(readied.0 - before_ms * one_ms),
            label,
        };
        let (outside, inside) = (sample(12, Label::IDLE), sample(5, Label::KERNEL));
        for s in [outside, inside] {
            tool.on_isr_enter(&IsrEnter {
                vector: k.pit_vector(),
                asserted: s.at,
                started: s.at,
                interrupted_label: s.label,
            });
        }
        tool.on_thread_resume(&ThreadResume {
            thread: ThreadId(0),
            priority: 24,
            readied,
            started: Instant(readied.0 + 2 * one_ms),
        });
        assert_eq!(tool.episodes.len(), 1);
        assert_eq!(tool.episodes[0].samples, vec![inside]);
    }
}
