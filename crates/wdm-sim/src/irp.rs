//! I/O request packets.
//!
//! Each user-mode call to a Win32 driver interface generates an IRP that is
//! passed to the driver; the paper's measurement drivers return latency
//! samples to their control application through
//! `IRP->AssociatedIrp.SystemBuffer` and `IoCompleteRequest` (§2.2). Here an
//! IRP owns a run of blackboard slots as its system buffer; completing it
//! notifies observers (the control application) with the buffer contents.

use crate::ids::{EventId, Slot};

/// An I/O request packet.
#[derive(Debug)]
pub struct Irp {
    /// First slot of the system buffer (`AssociatedIrp.SystemBuffer`).
    pub asb: Slot,
    /// Buffer length in slots.
    pub asb_len: usize,
    /// Optional event signaled at completion (overlapped I/O style).
    pub completion_event: Option<EventId>,
    /// Completions so far (one per measurement round the driver returns).
    pub completion_count: u64,
}

impl Irp {
    /// Creates an IRP over the given buffer.
    pub fn new(asb: Slot, asb_len: usize, completion_event: Option<EventId>) -> Irp {
        Irp {
            asb,
            asb_len,
            completion_event,
            completion_count: 0,
        }
    }

    /// The `i`-th slot of the system buffer, mirroring `IRP->ASB[i]`.
    pub fn asb_slot(&self, i: usize) -> Slot {
        assert!(i < self.asb_len, "system buffer index out of range");
        Slot(self.asb.0 + i)
    }

    /// Records one completion (`IoCompleteRequest`).
    pub fn complete(&mut self) {
        self.completion_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asb_slot_indexing() {
        let irp = Irp::new(Slot(10), 3, None);
        assert_eq!(irp.asb_slot(0), Slot(10));
        assert_eq!(irp.asb_slot(2), Slot(12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn asb_slot_bounds_checked() {
        let irp = Irp::new(Slot(10), 3, None);
        let _ = irp.asb_slot(3);
    }

    #[test]
    fn completion_cycle() {
        let mut irp = Irp::new(Slot(0), 1, Some(EventId(4)));
        assert_eq!(irp.completion_count, 0);
        irp.complete();
        assert_eq!(irp.completion_count, 1);
        irp.complete();
        assert_eq!(irp.completion_count, 2);
        assert_eq!(irp.completion_event, Some(EventId(4)));
    }
}
