//! Kernel timers and the programmable interval timer tick.
//!
//! WDM timers (`KTIMER`) are tick-granular: `KeSetTimer` arms a due time,
//! and the timer actually *fires* during the first PIT clock interrupt at or
//! after that due time. The paper raises the PIT from its 67–100 Hz default
//! to 1 kHz so its measurement timer expires every millisecond (§2.2). A
//! timer may carry an associated DPC, queued at expiry from the clock ISR —
//! exactly the PIT ISR → DPC hop in Figure 3.
//!
//! A [`KTimer`] is one timer's whole record: its due time, the generation
//! the event calendar validates the timer's lazily cancelled entries
//! against (see [`crate::calendar`]), its period, DPC and stats, and the
//! `set`/`is_due`/`fire` state machine over them. The kernel keeps one
//! `Vec<KTimer>` indexed by `TimerId`.

use crate::{
    ids::DpcId,
    time::{Cycles, Instant},
};

/// A kernel timer object.
#[derive(Debug)]
pub struct KTimer {
    /// Absolute due time if armed.
    pub(crate) due: Option<Instant>,
    /// Generation of `due`: bumped on every set and fire, so the event
    /// calendar can lazily invalidate stale deadline entries.
    pub(crate) generation: u64,
    /// Re-arm interval for periodic timers (NT 4.0 added these).
    pub period: Option<Cycles>,
    /// DPC queued when the timer fires, if any.
    pub dpc: Option<DpcId>,
    /// Total expirations, for stats.
    pub fire_count: u64,
}

impl KTimer {
    /// Creates an unarmed timer, optionally bound to a DPC.
    pub fn new(dpc: Option<DpcId>) -> KTimer {
        KTimer {
            due: None,
            generation: 0,
            period: None,
            dpc,
            fire_count: 0,
        }
    }

    /// Arms the timer (`KeSetTimerEx`). Re-arming replaces the previous
    /// due time.
    pub(crate) fn set(&mut self, now: Instant, due_in: Cycles, period: Option<Cycles>) {
        self.due = Some(now + due_in);
        self.generation += 1;
        self.period = period;
    }

    /// True if the timer is due at or before `now`.
    pub(crate) fn is_due(&self, now: Instant) -> bool {
        matches!(self.due, Some(d) if d <= now)
    }

    /// Fires the timer: bumps stats and re-arms a periodic timer. Returns
    /// the DPC to queue, if any.
    pub(crate) fn fire(&mut self, now: Instant) -> Option<DpcId> {
        debug_assert!(self.is_due(now));
        self.fire_count += 1;
        self.generation += 1;
        // Periodic timers re-arm relative to the *due* time, not the
        // firing tick, so they do not drift.
        self.due = self
            .period
            .map(|p| self.due.expect("fired timer must have been armed") + p);
        self.dpc
    }
}

/// The programmable interval timer.
///
/// Generates the clock interrupt at a fixed frequency. Both OSs default to
/// 67–100 Hz; the paper reprograms it to 1 kHz.
#[derive(Debug, Clone, Copy)]
pub struct Pit {
    /// Tick period in cycles.
    pub period: Cycles,
    /// Next tick time.
    pub next_tick: Instant,
    /// Ticks delivered so far.
    pub tick_count: u64,
}

impl Pit {
    /// Creates a PIT with the given period, first tick one period in.
    pub fn new(period: Cycles) -> Pit {
        assert!(!period.is_zero(), "PIT period must be non-zero");
        Pit {
            period,
            next_tick: Instant::ZERO + period,
            tick_count: 0,
        }
    }

    /// Creates a PIT from a frequency in Hz at a given CPU clock.
    pub fn from_hz(hz: u64, cpu_hz: u64) -> Pit {
        assert!(hz > 0, "PIT frequency must be positive");
        Pit::new(Cycles(cpu_hz / hz))
    }

    /// Advances past the tick at `now`, scheduling the next one.
    pub fn advance(&mut self) {
        self.tick_count += 1;
        self.next_tick = self.next_tick + self.period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_timer_is_unarmed_and_quiet() {
        let t = KTimer::new(Some(DpcId(3)));
        assert_eq!(t.dpc, Some(DpcId(3)));
        assert_eq!(t.period, None);
        assert_eq!(t.fire_count, 0);
    }

    #[test]
    fn timer_set_fire_oneshot() {
        let mut t = KTimer::new(Some(DpcId(3)));
        t.set(Instant(1000), Cycles(500), None);
        assert!(!t.is_due(Instant(1499)));
        assert!(t.is_due(Instant(1500)));
        assert_eq!(t.fire(Instant(1500)), Some(DpcId(3)));
        assert_eq!(t.due, None);
        assert_eq!(t.fire_count, 1);
    }

    #[test]
    fn periodic_timer_rearms_without_drift() {
        let mut t = KTimer::new(None);
        t.set(Instant(0), Cycles(100), Some(Cycles(100)));
        // Fired late (at 130), but the next due time stays on the grid.
        assert!(t.is_due(Instant(130)));
        t.fire(Instant(130));
        assert_eq!(t.due, Some(Instant(200)));
    }

    #[test]
    fn generations_bump_on_every_transition() {
        let mut t = KTimer::new(None);
        t.set(Instant(0), Cycles(10), None); // gen 1
        t.fire(Instant(10)); // gen 2
        t.set(Instant(20), Cycles(10), None); // gen 3
        t.set(Instant(25), Cycles(10), None); // gen 4: re-arm
        assert_eq!(t.generation, 4);
        assert_eq!(t.due, Some(Instant(35)));
    }

    #[test]
    fn pit_period_math() {
        // 1 kHz at 300 MHz = 300k cycles per tick.
        let pit = Pit::from_hz(1000, 300_000_000);
        assert_eq!(pit.period, Cycles(300_000));
        assert_eq!(pit.next_tick, Instant(300_000));
    }

    #[test]
    fn pit_advance() {
        let mut pit = Pit::new(Cycles(100));
        pit.advance();
        pit.advance();
        assert_eq!(pit.tick_count, 2);
        assert_eq!(pit.next_tick, Instant(300));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn pit_rejects_zero_period() {
        let _ = Pit::new(Cycles(0));
    }
}
