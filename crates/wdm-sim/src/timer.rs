//! Kernel timers and the programmable interval timer tick.
//!
//! WDM timers (`KTIMER`) are tick-granular: `KeSetTimer` arms a due time,
//! and the timer actually *fires* during the first PIT clock interrupt at or
//! after that due time. The paper raises the PIT from its 67–100 Hz default
//! to 1 kHz so its measurement timer expires every millisecond (§2.2). A
//! timer may carry an associated DPC, queued at expiry from the clock ISR —
//! exactly the PIT ISR → DPC hop in Figure 3.
//!
//! [`KTimer`] holds only the *cold* per-timer record. The due time and its
//! validity generation — walked by the clock ISR and the event calendar
//! every tick — live in the parallel columns of
//! [`crate::arena::TimerTable`], which also owns the set/fire state machine
//! spanning both halves.

use crate::{
    ids::DpcId,
    time::{Cycles, Instant},
};

/// The cold part of a kernel timer object (see module docs: the due-time
/// columns live in [`crate::arena::TimerTable`]).
#[derive(Debug)]
pub struct KTimer {
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
            period: None,
            dpc,
            fire_count: 0,
        }
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
