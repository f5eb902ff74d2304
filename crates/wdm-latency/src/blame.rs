//! Tail-episode forensics: triggered flight capture with cycle-exact
//! blame attribution (DESIGN.md §15).
//!
//! The cause tool ([`crate::cause`]) reproduces the paper's §2.3
//! methodology: sample the interrupted context on every tick and dump the
//! buffer on a long latency. This module is the simulator-native
//! complement the paper could not build without OS source: the kernel's
//! cycle accounting charges every advance of simulated time to exactly
//! one bucket, so a resume window's delay can be **decomposed exactly** —
//! ISR execution, DPC execution, IRQL-masked windows, scheduler dispatch,
//! higher-priority preemption, quantum/peer execution, idle residue — with
//! the invariant that the components sum bit-for-bit to the measured
//! latency in cycles (proven by the `blame_exactness` proptest oracle).
//!
//! A triggered sample that the bounded per-cell episode store admits
//! (largest-K retention with counted eviction, decided before any copy)
//! additionally snapshots the flight ring around the episode window,
//! rendered post-run as a Perfetto trace with the episode window
//! highlighted on its own track.
//!
//! A window reads `[readied − pad, started + pad]`, the pad being one PIT
//! tick, and at capture nothing after `started` exists yet. A watched
//! thread is readied again only after it resumes, so once every watched
//! thread has resumed, no later window starts before the earliest of
//! their latest resumes minus the pad. After each watched resume, and
//! after that resume's own capture, the recorder releases every ring
//! event stamped before that floor: the ring holds a few hundred events
//! instead of filling its capacity, and every window is what a ring that
//! never releases would give (DESIGN.md §15).
//!
//! Determinism contract: the recorder is read-only — it draws no
//! randomness and mutates no kernel state — so arming it never changes a
//! digest; disarmed, the `Interest::RESUME_BLAME` bit stays clear and the
//! kernel's masked-interest branch is the only cost. Armed, the kernel
//! snapshots its ledgers and decomposes resumes only for the watched
//! threads, the recorder's `Subscription::resume_blame`.

use std::{cell::RefCell, rc::Rc};

use wdm_sim::{
    flight::{
        chrome_document, chrome_events_slice, json_f64, json_str, FlightEvent, FlightRecorder,
    },
    ids::ThreadId,
    kernel::Kernel,
    observer::{BlameBreakdown, Objects, Observer, ResumeBlame, Subscription},
    time::{Cycles, Instant},
};

use crate::histogram::LatencyHistogram;

/// Dedicated Chrome trace track for the episode-window highlight span
/// (clear of the thread/vector/DPC track ranges in `wdm_sim::flight`).
const TID_EPISODE: u64 = 3000;

/// When a watched resume sample becomes an episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlameTrigger {
    /// Every sample triggers, so the store keeps the largest
    /// [`BlameOptions::max_episodes`] seen (the default forensic posture:
    /// the tail is what needs explaining, and the cap bounds memory).
    TopK,
    /// Every sample at or above an absolute threshold (ms) triggers; the
    /// store still retains only the largest [`BlameOptions::max_episodes`].
    ThresholdMs(f64),
    /// Every new running maximum triggers — the "worst so far" trace the
    /// paper's block-maxima methodology implies.
    BlockMax,
}

/// Configuration for a [`BlameRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlameOptions {
    /// Trigger mode.
    pub trigger: BlameTrigger,
    /// The one bound on retained episodes, per shard and per merged cell
    /// alike (largest-K, counted eviction).
    pub max_episodes: usize,
}

impl Default for BlameOptions {
    fn default() -> BlameOptions {
        BlameOptions {
            trigger: BlameTrigger::TopK,
            max_episodes: 4,
        }
    }
}

/// One triggered tail episode: the sample, its exact decomposition, and
/// the flight-ring window captured around it.
#[derive(Debug, Clone)]
pub struct BlameEpisode {
    /// Arrival ordinal among this recorder's triggered samples.
    pub ordinal: usize,
    /// Which watched series the sample belongs to (e.g. `rt24`).
    pub tag: &'static str,
    /// Thread priority at resume.
    pub priority: u8,
    /// When the thread was readied.
    pub readied: Instant,
    /// When it finally ran.
    pub started: Instant,
    /// The measured latency in cycles (`started - readied`).
    pub latency_cycles: u64,
    /// The same latency in ms at the cell's clock rate.
    pub latency_ms: f64,
    /// Exact decomposition; `breakdown.total() == latency_cycles`.
    pub breakdown: BlameBreakdown,
    /// Flight-ring events inside the padded episode window (empty when no
    /// flight recorder was attached).
    pub window: Vec<FlightEvent>,
}

impl BlameEpisode {
    /// Renders the episode as a text report, cause-tool style. The format
    /// is pinned by a byte-for-byte golden test: downstream tooling greps
    /// these lines.
    pub fn render_report(&self) -> String {
        let b = &self.breakdown;
        let mut out = format!(
            "Blame analysis of latency episode number {} ({}, priority {})\n",
            self.ordinal, self.tag, self.priority
        );
        out.push_str(&format!(
            "window [{}, {}] cycles, latency {:.3} ms, {} flight events\n",
            self.readied.0,
            self.started.0,
            self.latency_ms,
            self.window.len()
        ));
        for (name, v) in [
            ("isr", b.isr),
            ("dpc", b.dpc),
            ("masked", b.masked),
            ("dispatch", b.dispatch),
            ("preempt", b.preempt),
            ("quantum", b.quantum),
            ("idle", b.idle),
        ] {
            out.push_str(&format!("{name:>9} {v:>16} cycles\n"));
        }
        out.push_str("-------------------------------------------------\n");
        out.push_str(&format!(
            "{:>9} {:>16} cycles = measured latency\n",
            "total",
            b.total()
        ));
        out
    }

    /// The episode's summary as one JSON object (a `BLAME_cells.json`
    /// entry). Keys are emitted in a fixed order so shard-identical runs
    /// serialize identically.
    pub fn meta_json(&self) -> String {
        let b = &self.breakdown;
        format!(
            "{{\"ordinal\":{},\"series\":{},\"priority\":{},\"readied_cycles\":{},\
             \"started_cycles\":{},\"latency_cycles\":{},\"latency_ms\":{},\
             \"flight_events\":{},\"breakdown_cycles\":{{\"isr\":{},\"dpc\":{},\
             \"masked\":{},\"dispatch\":{},\"preempt\":{},\"quantum\":{},\"idle\":{}}}}}",
            self.ordinal,
            json_str(self.tag),
            self.priority,
            self.readied.0,
            self.started.0,
            self.latency_cycles,
            json_f64(self.latency_ms),
            self.window.len(),
            b.isr,
            b.dpc,
            b.masked,
            b.dispatch,
            b.preempt,
            b.quantum,
            b.idle,
        )
    }

    /// Renders the captured window as a complete Chrome trace document
    /// with the episode span highlighted on a dedicated track. Must run
    /// while the kernel is alive so thread/vector/DPC names resolve.
    pub fn render_trace(&self, k: &Kernel, pid: u64) -> String {
        let name = format!("blame episode {} ({})", self.ordinal, self.tag);
        let mut events = chrome_events_slice(k, pid, &name, &self.window);
        let hz = k.config().cpu_hz as f64;
        let us = |t: Instant| t.0 as f64 * 1e6 / hz;
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{TID_EPISODE},\
             \"args\":{{\"name\":\"episode window\"}}}}"
        ));
        let b = &self.breakdown;
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":{},\"cat\":\"blame\",\"pid\":{pid},\
             \"tid\":{TID_EPISODE},\"ts\":{},\"dur\":{},\"args\":{{\
             \"latency_cycles\":{},\"isr\":{},\"dpc\":{},\"masked\":{},\
             \"dispatch\":{},\"preempt\":{},\"quantum\":{},\"idle\":{}}}}}",
            json_str(&format!("episode {} latency", self.ordinal)),
            json_f64(us(self.readied)),
            json_f64(us(self.started) - us(self.readied)),
            self.latency_cycles,
            b.isr,
            b.dpc,
            b.masked,
            b.dispatch,
            b.preempt,
            b.quantum,
            b.idle,
        ));
        chrome_document(&events)
    }
}

/// Aggregate blame state over every watched resume (not just triggered
/// ones): the per-component cycle sums behind the `latency.blame.*`
/// counters. Plain `u64` sums, so shard merges are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlameSummary {
    /// Watched resume windows decomposed.
    pub watched_resumes: u64,
    /// Samples that fired the trigger.
    pub triggered: u64,
    /// Triggered samples not retained (store full of larger episodes).
    pub evicted: u64,
    /// Component cycle sums over all watched windows.
    pub totals: BlameBreakdown,
}

/// The forensics observer: decomposes every watched resume, triggers on
/// tail samples, and captures the flight ring around each episode the
/// store admits.
pub struct BlameRecorder {
    /// Watched measurement threads with their series tags.
    watched: Vec<(ThreadId, &'static str)>,
    /// Latest resume of each watched thread, by `watched` index.
    latest: Vec<Option<Instant>>,
    opts: BlameOptions,
    cpu_hz: u64,
    /// One PIT tick: the window padding on each side of an episode.
    pad: Cycles,
    /// Shared flight ring to snapshot on admission and release after each
    /// watched resume; `None` records episodes with empty windows (blame
    /// decomposition still works).
    flight: Option<Rc<RefCell<FlightRecorder>>>,
    /// Running maximum for [`BlameTrigger::BlockMax`].
    running_max: Option<u64>,
    /// Triggered-sample ordinal counter (evicted ones keep their number).
    next_ordinal: usize,
    /// Retained episodes, arrival order.
    pub episodes: Vec<BlameEpisode>,
    /// Aggregates over every watched resume.
    pub summary: BlameSummary,
    /// Figure 4-binned distribution of the *triggered* samples.
    pub triggered_hist: LatencyHistogram,
}

impl BlameRecorder {
    /// Creates the recorder watching `watched` threads. `flight`, when
    /// given, is the same recorder attached to the kernel: the blame tool
    /// copies episode windows out of its ring and releases the events no
    /// later window can read (an exported ring ignores the release). A
    /// releasing ring serves this one blame recorder: another's windows
    /// could start before this one's floor.
    pub fn new(
        k: &Kernel,
        watched: Vec<(ThreadId, &'static str)>,
        opts: BlameOptions,
        flight: Option<Rc<RefCell<FlightRecorder>>>,
    ) -> BlameRecorder {
        assert!(opts.max_episodes > 0, "need room for at least one episode");
        BlameRecorder {
            latest: vec![None; watched.len()],
            watched,
            opts,
            cpu_hz: k.config().cpu_hz,
            pad: k.config().pit_period(),
            flight,
            running_max: None,
            next_ordinal: 0,
            episodes: Vec::new(),
            summary: BlameSummary::default(),
            triggered_hist: LatencyHistogram::fig4(),
        }
    }

    /// Whether `latency_cycles` fires the trigger, updating trigger state.
    fn fires(&mut self, latency_cycles: u64, latency_ms: f64) -> bool {
        match self.opts.trigger {
            BlameTrigger::TopK => true, // Store retention does the work.
            BlameTrigger::ThresholdMs(t) => latency_ms >= t,
            BlameTrigger::BlockMax => {
                let new_max = self.running_max.is_none_or(|m| latency_cycles > m);
                if new_max {
                    self.running_max = Some(latency_cycles);
                }
                new_max
            }
        }
    }

    /// Largest-K admission of a triggered sample, decided from its latency
    /// alone so a rejected arrival never touches the flight ring. When the
    /// store is full the smallest episode goes (ties evict the later
    /// arrival, so earlier episodes win deterministically), and a sample
    /// no larger than the retained minimum is itself evicted on arrival;
    /// either way one eviction is counted. Returns whether the arrival is
    /// to be stored.
    fn admit(&mut self, latency_cycles: u64) -> bool {
        if self.episodes.len() < self.opts.max_episodes {
            return true;
        }
        self.summary.evicted += 1;
        let (min_i, min_ep) = self
            .episodes
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.latency_cycles, std::cmp::Reverse(e.ordinal)))
            .expect("store is non-empty at capacity");
        if latency_cycles <= min_ep.latency_cycles {
            return false;
        }
        self.episodes.remove(min_i);
        true
    }

    /// Folds one watched resume into the summary and, when it triggers and
    /// the store admits it, captures its episode.
    fn record(&mut self, e: &ResumeBlame, tag: &'static str) {
        let latency_cycles = (e.started - e.readied).0;
        debug_assert_eq!(
            e.breakdown.total(),
            latency_cycles,
            "kernel blame components must sum to the latency"
        );
        self.summary.watched_resumes += 1;
        let t = &mut self.summary.totals;
        let b = &e.breakdown;
        t.isr += b.isr;
        t.dpc += b.dpc;
        t.masked += b.masked;
        t.dispatch += b.dispatch;
        t.preempt += b.preempt;
        t.quantum += b.quantum;
        t.idle += b.idle;

        let latency_ms = (e.started - e.readied).as_ms_at(self.cpu_hz);
        if !self.fires(latency_cycles, latency_ms) {
            return;
        }
        self.summary.triggered += 1;
        self.triggered_hist
            .record_cycles(Cycles(latency_cycles), self.cpu_hz);
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        if !self.admit(latency_cycles) {
            return;
        }
        // Snapshot the flight ring around the window, one tick of padding
        // each side (the cause tool's convention).
        let lo = Instant(e.readied.0.saturating_sub(self.pad.0));
        let window = self
            .flight
            .as_ref()
            .map(|f| f.borrow().events_in(lo, e.started + self.pad))
            .unwrap_or_default();
        self.episodes.push(BlameEpisode {
            ordinal,
            tag,
            priority: e.priority,
            readied: e.readied,
            started: e.started,
            latency_cycles,
            latency_ms,
            breakdown: e.breakdown,
            window,
        });
    }
}

impl Observer for BlameRecorder {
    /// Only the watched measurement threads: the kernel skips the ledger
    /// snapshot and the decomposition for every other resume.
    fn subscription(&self) -> Subscription {
        Subscription {
            resume_blame: Objects::Only(self.watched.iter().map(|&(t, _)| t).collect()),
            ..Subscription::NONE
        }
    }

    fn on_resume_blame(&mut self, e: &ResumeBlame) {
        let i = self
            .watched
            .iter()
            .position(|&(t, _)| t == e.thread)
            .expect("the kernel routes only watched threads");
        self.latest[i] = Some(e.started);
        self.record(e, self.watched[i].1);
        // Release after the capture: this resume's own window may start
        // before the new floor. `None` sorts first, so nothing is released
        // until every watched thread has resumed once.
        if let (Some(flight), Some(Some(earliest))) = (&self.flight, self.latest.iter().min()) {
            flight
                .borrow_mut()
                .release_before(Instant(earliest.0.saturating_sub(self.pad.0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_sim::{
        config::KernelConfig,
        env::{samplers, EnvAction, EnvSource},
        ids::WaitObject,
        step::{LoopSeq, OpSeq, Step},
    };

    fn fake_episode() -> BlameEpisode {
        BlameEpisode {
            ordinal: 3,
            tag: "rt24",
            priority: 24,
            readied: Instant(600_000),
            started: Instant(1_650_000),
            latency_cycles: 1_050_000,
            latency_ms: 3.5,
            breakdown: BlameBreakdown {
                isr: 50_000,
                dpc: 400_000,
                masked: 100_000,
                dispatch: 150_000,
                preempt: 300_000,
                quantum: 40_000,
                idle: 10_000,
            },
            window: Vec::new(),
        }
    }

    /// Golden report fixture, byte for byte: downstream tooling parses
    /// these lines, so the format is pinned here.
    #[test]
    fn report_format_is_pinned() {
        let expected = "\
Blame analysis of latency episode number 3 (rt24, priority 24)
window [600000, 1650000] cycles, latency 3.500 ms, 0 flight events
      isr            50000 cycles
      dpc           400000 cycles
   masked           100000 cycles
 dispatch           150000 cycles
  preempt           300000 cycles
  quantum            40000 cycles
     idle            10000 cycles
-------------------------------------------------
    total          1050000 cycles = measured latency
";
        assert_eq!(fake_episode().render_report(), expected);
    }

    #[test]
    fn meta_json_has_fixed_key_order_and_exact_sums() {
        let j = fake_episode().meta_json();
        assert!(j.starts_with("{\"ordinal\":3,\"series\":\"rt24\",\"priority\":24,"));
        assert!(j.contains("\"latency_cycles\":1050000"));
        assert!(j.contains(
            "\"breakdown_cycles\":{\"isr\":50000,\"dpc\":400000,\"masked\":100000,\
             \"dispatch\":150000,\"preempt\":300000,\"quantum\":40000,\"idle\":10000}"
        ));
        let depth = j.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced braces: {j}");
    }

    #[test]
    fn largest_k_retention_evicts_smallest_with_stable_ties() {
        let k = Kernel::new(KernelConfig::default());
        let mut rec = BlameRecorder::new(
            &k,
            vec![(ThreadId(0), "rt24")],
            BlameOptions {
                trigger: BlameTrigger::TopK,
                max_episodes: 2,
            },
            None,
        );
        let resume = |readied: u64, lat: u64| ResumeBlame {
            thread: ThreadId(0),
            priority: 24,
            readied: Instant(readied),
            started: Instant(readied + lat),
            breakdown: BlameBreakdown {
                idle: lat,
                ..BlameBreakdown::default()
            },
        };
        rec.on_resume_blame(&resume(0, 500));
        rec.on_resume_blame(&resume(1000, 300));
        rec.on_resume_blame(&resume(2000, 400)); // evicts the 300
        rec.on_resume_blame(&resume(3000, 400)); // tie with stored 400: rejected
        rec.on_resume_blame(&resume(4000, 100)); // below the min: rejected
        let lats: Vec<u64> = rec.episodes.iter().map(|e| e.latency_cycles).collect();
        assert_eq!(lats, vec![500, 400]);
        assert_eq!(rec.episodes[1].ordinal, 2, "the earlier 400 is retained");
        assert_eq!(rec.summary.triggered, 5);
        assert_eq!(rec.summary.evicted, 3);
        assert_eq!(rec.summary.watched_resumes, 5);
        assert_eq!(rec.triggered_hist.count(), 5);
    }

    #[test]
    #[should_panic(expected = "need room for at least one episode")]
    fn topk_zero_is_rejected_at_construction() {
        let k = Kernel::new(KernelConfig::default());
        let _ = BlameRecorder::new(
            &k,
            vec![(ThreadId(0), "rt24")],
            BlameOptions {
                trigger: BlameTrigger::TopK,
                max_episodes: 0,
            },
            None,
        );
    }

    #[test]
    fn threshold_and_blockmax_triggers() {
        let k = Kernel::new(KernelConfig::default());
        let cpu_hz = k.config().cpu_hz;
        let one_ms = cpu_hz / 1000;
        let resume = |readied: u64, lat: u64| ResumeBlame {
            thread: ThreadId(0),
            priority: 24,
            readied: Instant(readied),
            started: Instant(readied + lat),
            breakdown: BlameBreakdown {
                idle: lat,
                ..BlameBreakdown::default()
            },
        };
        let mut thr = BlameRecorder::new(
            &k,
            vec![(ThreadId(0), "rt24")],
            BlameOptions {
                trigger: BlameTrigger::ThresholdMs(2.0),
                max_episodes: 8,
            },
            None,
        );
        thr.on_resume_blame(&resume(0, one_ms)); // 1 ms: below
        thr.on_resume_blame(&resume(one_ms * 10, one_ms * 3)); // 3 ms: fires
        assert_eq!(thr.summary.watched_resumes, 2);
        assert_eq!(thr.summary.triggered, 1);
        assert_eq!(thr.episodes.len(), 1);

        let mut bm = BlameRecorder::new(
            &k,
            vec![(ThreadId(0), "rt24")],
            BlameOptions {
                trigger: BlameTrigger::BlockMax,
                max_episodes: 8,
            },
            None,
        );
        bm.on_resume_blame(&resume(0, 100)); // first: new max
        bm.on_resume_blame(&resume(1000, 50)); // no
        bm.on_resume_blame(&resume(2000, 100)); // tie: no
        bm.on_resume_blame(&resume(3000, 200)); // new max
        assert_eq!(bm.summary.triggered, 2);
        let lats: Vec<u64> = bm.episodes.iter().map(|e| e.latency_cycles).collect();
        assert_eq!(lats, vec![100, 200]);
    }

    /// Both waiters resume on every DPC, but only the watched one's
    /// resumes reach the recorder.
    #[test]
    fn unwatched_threads_are_ignored() {
        let (mut k, [rt24, rt28]) = two_waiter_kernel();
        let rec = Rc::new(RefCell::new(BlameRecorder::new(
            &k,
            vec![(rt24, "rt24")],
            BlameOptions::default(),
            None,
        )));
        let log = Rc::new(RefCell::new(ResumeLog::default()));
        k.add_observer(rec.clone());
        k.add_observer(log.clone());
        k.run_for(Cycles::from_ms(20.0));
        let count = |t| log.borrow().events.iter().filter(|e| e.thread == t).count() as u64;
        assert!(count(rt28) > 0, "the unwatched waiter resumed");
        assert_eq!(rec.borrow().summary.watched_resumes, count(rt24));
    }

    /// Every resume-blame event the kernel delivers, all threads.
    #[derive(Default)]
    struct ResumeLog {
        events: Vec<ResumeBlame>,
    }

    impl Observer for ResumeLog {
        fn subscription(&self) -> Subscription {
            Subscription {
                resume_blame: Objects::All,
                ..Subscription::NONE
            }
        }
        fn on_resume_blame(&mut self, e: &ResumeBlame) {
            self.events.push(*e);
        }
    }

    /// Two RT waiters woken by one timer DPC (the priority-28 one preempts
    /// the 24) plus a normal-priority hog; returns the kernel and the
    /// waiters.
    fn two_waiter_kernel() -> (Kernel, [ThreadId; 2]) {
        let mut k = Kernel::new(KernelConfig::default());
        let work = k.intern("APP", "_Work");
        let (a, b) = (k.create_event(false), k.create_event(false));
        let waiter = |k: &mut Kernel, name, priority, evt, busy| {
            k.create_thread(
                name,
                priority,
                Box::new(LoopSeq::new(vec![
                    Step::Wait(WaitObject::Event(evt)),
                    Step::Busy {
                        cycles: Cycles(busy),
                        label: work,
                    },
                ])),
            )
        };
        let rt24 = waiter(&mut k, "rt24", 24, a, 40_001);
        let rt28 = waiter(&mut k, "rt28", 28, b, 90_001);
        k.create_thread(
            "hog",
            8,
            Box::new(LoopSeq::new(vec![
                Step::Busy {
                    cycles: Cycles(70_001),
                    label: work,
                },
                Step::Sleep(Cycles(110_001)),
            ])),
        );
        let dpc = k.create_dpc(
            "sig",
            Box::new(OpSeq::new(vec![
                Step::SetEvent(b),
                Step::SetEvent(a),
                Step::Return,
            ])),
        );
        let timer = k.create_timer(Some(dpc));
        k.set_timer(timer, Cycles::from_ms(1.0), Some(Cycles::from_ms(1.0)));
        (k, [rt24, rt28])
    }

    /// The kernel decomposes only the recorder's watched threads, and the
    /// watched windows come out bit-identical to an all-threads ledger's.
    #[test]
    fn watched_only_recorder_matches_all_threads_log() {
        let run_ms = Cycles::from_ms(60.0);
        let (mut k, threads) = two_waiter_kernel();
        let log = Rc::new(RefCell::new(ResumeLog::default()));
        k.add_observer(log.clone());
        k.run_for(run_ms);
        let all = log.borrow().events.clone();
        for watched in threads {
            let (mut k, _) = two_waiter_kernel();
            let rec = Rc::new(RefCell::new(BlameRecorder::new(
                &k,
                vec![(watched, "rt")],
                BlameOptions {
                    trigger: BlameTrigger::ThresholdMs(0.0),
                    max_episodes: usize::MAX,
                },
                None,
            )));
            assert_eq!(
                rec.borrow().subscription(),
                Subscription {
                    resume_blame: Objects::Only(vec![watched]),
                    ..Subscription::NONE
                }
            );
            k.add_observer(rec.clone());
            k.run_for(run_ms);
            let want: Vec<_> = all
                .iter()
                .filter(|e| e.thread == watched)
                .map(|e| (e.priority, e.readied, e.started, e.breakdown))
                .collect();
            let rec = rec.borrow();
            let got: Vec<_> = rec
                .episodes
                .iter()
                .map(|e| (e.priority, e.readied, e.started, e.breakdown))
                .collect();
            assert!(want.len() > 20, "watched thread resumed: {}", want.len());
            assert!(want.len() < all.len(), "other threads resumed too");
            assert_eq!(got, want);
            assert_eq!(rec.summary.watched_resumes, want.len() as u64);
            assert_eq!(
                k.notify_takes,
                want.len() as u64,
                "one delivery per watched resume"
            );
        }
    }

    /// A waiter woken by a signaler between ticks of a 100 Hz PIT, run
    /// for 100 ms with every resume captured over `ring`.
    fn hundred_hz_episodes(
        ring: FlightRecorder,
    ) -> (Vec<BlameEpisode>, Rc<RefCell<FlightRecorder>>) {
        let mut k = Kernel::new(KernelConfig {
            pit_hz: 100,
            ..KernelConfig::default()
        });
        let one_ms = k.config().cpu_hz / 1000;
        let work = k.intern("APP", "_Work");
        let evt = k.create_event(false);
        let waiter = k.create_thread(
            "meas",
            24,
            Box::new(LoopSeq::new(vec![
                Step::Wait(WaitObject::Event(evt)),
                Step::Busy {
                    cycles: Cycles(one_ms / 10),
                    label: work,
                },
            ])),
        );
        // The previous wake's context switches land ~2.4 ms before each
        // readying: inside a 10 ms pad, outside a 1 ms one.
        k.create_thread(
            "signaler",
            8,
            Box::new(LoopSeq::new(vec![
                Step::Busy {
                    cycles: Cycles(23 * one_ms / 10),
                    label: work,
                },
                Step::SetEvent(evt),
            ])),
        );
        let flight = Rc::new(RefCell::new(ring));
        k.add_observer(flight.clone());
        let rec = Rc::new(RefCell::new(BlameRecorder::new(
            &k,
            vec![(waiter, "rt24")],
            BlameOptions {
                trigger: BlameTrigger::ThresholdMs(0.0),
                max_episodes: usize::MAX,
            },
            Some(flight.clone()),
        )));
        k.add_observer(rec.clone());
        k.run_for(Cycles::from_ms(100.0));
        let episodes = rec.borrow().episodes.clone();
        (episodes, flight)
    }

    /// The window pad is one PIT tick of the kernel's own configuration,
    /// for the capture window and the release floor alike: at 100 Hz an
    /// episode window reaches 10 ms back from the readying, and a
    /// releasing ring still gives every window whole.
    #[test]
    fn window_pad_is_one_pit_tick() {
        let (episodes, ring) = hundred_hz_episodes(FlightRecorder::exported(1 << 16));
        let ring = ring.borrow();
        let one_ms = KernelConfig::default().cpu_hz / 1000;
        let pad = 10 * one_ms;
        assert_eq!(ring.dropped, 0);
        assert!(episodes.len() > 20, "{} episodes", episodes.len());
        let mut beyond_one_ms = 0;
        for ep in &episodes {
            let lo = Instant(ep.readied.0.saturating_sub(pad));
            // Events stamped `started` may still land after the capture.
            let before: Vec<FlightEvent> = ep
                .window
                .iter()
                .copied()
                .filter(|e| e.at() < ep.started)
                .collect();
            assert_eq!(before, ring.events_in(lo, Instant(ep.started.0 - 1)));
            beyond_one_ms += usize::from(before[0].at().0 + one_ms < ep.readied.0);
        }
        assert!(beyond_one_ms > 0, "some window reaches past 1 ms");

        let (released, ring) = hundred_hz_episodes(FlightRecorder::new(1 << 16));
        assert!(ring.borrow().released > 0);
        let windows =
            |eps: &[BlameEpisode]| eps.iter().map(|e| e.window.clone()).collect::<Vec<_>>();
        assert_eq!(windows(&released), windows(&episodes));
    }

    /// End-to-end on a live kernel: a DPC-signaled wake with a competing
    /// masked window produces episodes whose components sum exactly and
    /// whose flight windows render as loadable trace documents.
    #[test]
    fn live_capture_decomposes_exactly_and_renders() {
        let mut k = Kernel::new(KernelConfig::default());
        let vmm = k.intern("VMM", "_mmCalcFrameBadness");
        let evt = k.create_event(false);
        let slot = k.alloc_slots(1);
        let waiter = k.create_thread(
            "meas",
            24,
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
        let _armer = k.create_thread(
            "armer",
            16,
            Box::new(OpSeq::new(vec![Step::SetTimer {
                timer,
                due: Cycles::from_ms(10.0),
                period: Some(Cycles::from_ms(10.0)),
            }])),
        );
        k.add_env_source(EnvSource::new(
            "vmm",
            samplers::fixed(Cycles::from_ms(9.5)),
            EnvAction::Section {
                duration: samplers::fixed(Cycles::from_ms(6.0)),
                label: vmm,
            },
        ));
        let flight = Rc::new(RefCell::new(FlightRecorder::new(4096)));
        k.add_observer(flight.clone());
        let rec = Rc::new(RefCell::new(BlameRecorder::new(
            &k,
            vec![(waiter, "rt24")],
            BlameOptions::default(),
            Some(flight),
        )));
        k.add_observer(rec.clone());
        k.run_for(Cycles::from_ms(200.0));
        let rec = rec.borrow();
        assert!(rec.summary.watched_resumes > 0);
        assert!(!rec.episodes.is_empty());
        let s = &rec.summary.totals;
        assert!(s.masked > 0, "the 6 ms section must show up as masked time");
        for ep in &rec.episodes {
            assert_eq!(ep.breakdown.total(), ep.latency_cycles);
            assert!(!ep.window.is_empty(), "flight window captured");
            let report = ep.render_report();
            assert!(report.contains("= measured latency"));
            let doc = ep.render_trace(&k, 5);
            assert!(doc.starts_with("{\"traceEvents\":["));
            assert!(doc.contains("episode window"));
            assert!(doc.contains("\"cat\":\"blame\""));
        }
        // The largest retained episode carries the section-dominated tail.
        let worst = rec
            .episodes
            .iter()
            .max_by_key(|e| e.latency_cycles)
            .expect("non-empty");
        assert!(worst.breakdown.masked > 0);
    }
}
