//! The interrupt controller: vectors, assertion and masking.
//!
//! Models a PIC-style controller in front of a single CPU. Each vector has
//! an IRQL; an asserted vector is *dispatched* (its ISR frame is pushed)
//! when the CPU's effective IRQL drops below the vector's level. A cli
//! window runs at HIGH, which no vector exceeds. The delay from assertion
//! to the first ISR instruction is the paper's **interrupt latency**
//! (§2.1): it "encompasses the maximum time during which interrupts are
//! disabled as well as the bus latency necessary to resolve the
//! interrupt".

use crate::{
    ids::VectorId,
    irql::Irql,
    time::Instant, //
};

/// Per-vector interrupt state.
#[derive(Debug)]
pub struct Vector {
    /// The device IRQL this vector interrupts at.
    pub irql: Irql,
    /// Earliest unserviced assertion time, if the line is pending.
    ///
    /// Edge-triggered model: re-assertions while pending are coalesced and
    /// the original assertion time is kept, which is the conservative choice
    /// for latency measurement.
    pub pending_since: Option<Instant>,
    /// Human-readable name ("PIT", "IDE", "NIC", ...).
    pub name: String,
    /// Total assertions observed.
    pub assert_count: u64,
    /// Assertions coalesced because the line was already pending.
    pub coalesced_count: u64,
}

/// The interrupt controller: all installed vectors.
#[derive(Debug, Default)]
pub struct InterruptController {
    vectors: Vec<Vector>,
    /// Ids of the lines currently pending, unordered. The simulator's
    /// decision loop polls [`Self::next_dispatchable`] every iteration;
    /// scanning this (usually empty, rarely more than one entry) shortlist
    /// instead of every installed vector keeps that poll O(pending).
    pending: Vec<VectorId>,
}

impl InterruptController {
    /// Creates an empty controller.
    pub fn new() -> InterruptController {
        InterruptController::default()
    }

    /// Installs a vector at the given IRQL, returning its id.
    ///
    /// # Panics
    ///
    /// If `irql` is not in `DISPATCH < irql <= HIGH`. The upper bound is
    /// what makes a cli window (which runs at HIGH) mask every vector.
    pub fn install(&mut self, name: &str, irql: Irql) -> VectorId {
        assert!(
            irql > Irql::DISPATCH,
            "interrupt vectors must be above DISPATCH level"
        );
        assert!(
            irql <= Irql::HIGH,
            "interrupt vectors must be at or below HIGH level"
        );
        let id = VectorId(self.vectors.len());
        self.vectors.push(Vector {
            irql,
            pending_since: None,
            name: name.to_string(),
            assert_count: 0,
            coalesced_count: 0,
        });
        id
    }

    /// Asserts a vector at time `now`.
    ///
    /// Returns `true` if this created a new pending assertion, `false` if it
    /// coalesced with an already-pending one.
    pub fn assert_line(&mut self, v: VectorId, now: Instant) -> bool {
        let vec = &mut self.vectors[v.0];
        vec.assert_count += 1;
        if vec.pending_since.is_some() {
            vec.coalesced_count += 1;
            false
        } else {
            vec.pending_since = Some(now);
            self.pending.push(v);
            true
        }
    }

    /// Highest-IRQL pending vector strictly above `current_irql`, if any.
    ///
    /// Ties between same-IRQL vectors go to the lowest vector id (fixed
    /// priority, like PIC cascading).
    #[inline]
    pub fn next_dispatchable(&self, current_irql: Irql) -> Option<VectorId> {
        // The shortlist is unordered, but the selection — highest IRQL,
        // ties to the lowest vector id — is order-independent, so the
        // result is identical to a full ordered scan of the vectors.
        let mut best: Option<(Irql, VectorId)> = None;
        for &id in &self.pending {
            let v = &self.vectors[id.0];
            debug_assert!(v.pending_since.is_some(), "stale pending shortlist");
            if v.irql > current_irql {
                let better = match best {
                    None => true,
                    Some((bi, bid)) => v.irql > bi || (v.irql == bi && id < bid),
                };
                if better {
                    best = Some((v.irql, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Acknowledges (begins servicing) a pending vector, clearing the line
    /// and returning the original assertion time.
    pub fn acknowledge(&mut self, v: VectorId) -> Instant {
        let since = self.vectors[v.0]
            .pending_since
            .take()
            .expect("acknowledge of a non-pending vector");
        let pos = self
            .pending
            .iter()
            .position(|&p| p == v)
            .expect("pending shortlist out of sync");
        self.pending.swap_remove(pos);
        since
    }

    /// Read access to a vector.
    pub fn vector(&self, v: VectorId) -> &Vector {
        &self.vectors[v.0]
    }

    /// Number of installed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if no vectors are installed.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_assert() {
        let mut ic = InterruptController::new();
        let pit = ic.install("PIT", Irql::CLOCK);
        let ide = ic.install("IDE", Irql(14));
        assert!(ic.assert_line(ide, Instant(100)));
        assert_eq!(ic.next_dispatchable(Irql::PASSIVE), Some(ide));
        assert!(ic.assert_line(pit, Instant(105)));
        // The CLOCK-level PIT outranks the device vector.
        assert_eq!(ic.next_dispatchable(Irql::PASSIVE), Some(pit));
        // At CLOCK level nothing is dispatchable.
        assert_eq!(ic.next_dispatchable(Irql::CLOCK), None);
        // At DIRQL 14 only the PIT is dispatchable.
        assert_eq!(ic.next_dispatchable(Irql(14)), Some(pit));
    }

    #[test]
    fn acknowledge_clears_and_returns_assert_time() {
        let mut ic = InterruptController::new();
        let v = ic.install("NIC", Irql(12));
        ic.assert_line(v, Instant(42));
        assert_eq!(ic.acknowledge(v), Instant(42));
        assert_eq!(ic.next_dispatchable(Irql::PASSIVE), None);
    }

    #[test]
    fn reassertion_coalesces_keeping_first_time() {
        let mut ic = InterruptController::new();
        let v = ic.install("NIC", Irql(12));
        assert!(ic.assert_line(v, Instant(10)));
        assert!(!ic.assert_line(v, Instant(20)));
        assert_eq!(ic.acknowledge(v), Instant(10));
        assert_eq!(ic.vector(v).assert_count, 2);
        assert_eq!(ic.vector(v).coalesced_count, 1);
    }

    #[test]
    fn equal_irql_ties_break_by_vector_id() {
        let mut ic = InterruptController::new();
        let a = ic.install("A", Irql(10));
        let b = ic.install("B", Irql(10));
        ic.assert_line(b, Instant(1));
        ic.assert_line(a, Instant(2));
        assert_eq!(ic.next_dispatchable(Irql::PASSIVE), Some(a));
    }

    #[test]
    #[should_panic(expected = "above DISPATCH")]
    fn rejects_sub_dispatch_vector() {
        let mut ic = InterruptController::new();
        ic.install("bad", Irql::DISPATCH);
    }

    #[test]
    #[should_panic(expected = "at or below HIGH")]
    fn rejects_vector_above_high() {
        let mut ic = InterruptController::new();
        ic.install("bad", Irql(Irql::HIGH.0 + 1));
    }

    #[test]
    #[should_panic(expected = "non-pending")]
    fn acknowledge_requires_pending() {
        let mut ic = InterruptController::new();
        let v = ic.install("NIC", Irql(12));
        ic.acknowledge(v);
    }
}
