//! Interrupt request levels (IRQLs).
//!
//! WDM serializes processor activity by IRQL: code running at a given level
//! can only be preempted by activity at a strictly higher level. The values
//! below follow the uniprocessor x86 layout used by Windows NT 4.0, which
//! Windows 98's WDM layer mirrors (paper §4.1).

/// An interrupt request level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Irql(pub u8);

impl Irql {
    /// Normal thread execution. All interrupts enabled.
    pub const PASSIVE: Irql = Irql(0);
    /// Asynchronous procedure calls.
    pub const APC: Irql = Irql(1);
    /// DPC dispatching and the thread scheduler.
    pub const DISPATCH: Irql = Irql(2);
    /// Lowest device IRQL (DIRQL band is 3..=26).
    pub const DIRQL_MIN: Irql = Irql(3);
    /// Highest device IRQL.
    pub const DIRQL_MAX: Irql = Irql(26);
    /// Profiling interrupt.
    pub const PROFILE: Irql = Irql(27);
    /// Clock (PIT) interrupt. "Extremely high IRQL" in the paper's words.
    pub const CLOCK: Irql = Irql(28);
    /// Highest level; effectively interrupts-off.
    pub const HIGH: Irql = Irql(31);
}

impl core::fmt::Display for Irql {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Irql::PASSIVE => write!(f, "PASSIVE"),
            Irql::APC => write!(f, "APC"),
            Irql::DISPATCH => write!(f, "DISPATCH"),
            Irql::PROFILE => write!(f, "PROFILE"),
            Irql::CLOCK => write!(f, "CLOCK"),
            Irql::HIGH => write!(f, "HIGH"),
            Irql(n) => write!(f, "DIRQL({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_preemption_rules() {
        assert!(Irql::PASSIVE < Irql::APC);
        assert!(Irql::APC < Irql::DISPATCH);
        assert!(Irql::DISPATCH < Irql::DIRQL_MIN);
        assert!(Irql::DIRQL_MAX < Irql::PROFILE);
        assert!(Irql::PROFILE < Irql::CLOCK);
        assert!(Irql::CLOCK < Irql::HIGH);
    }

    #[test]
    fn display_names() {
        assert_eq!(Irql::CLOCK.to_string(), "CLOCK");
        assert_eq!(Irql(5).to_string(), "DIRQL(5)");
    }
}
