//! Typed identifiers for kernel objects.
//!
//! All kernel objects live in slab-style vectors inside
//! [`crate::kernel::Kernel`]; these newtypes keep references to them from
//! being mixed up. They are plain indices, cheap to copy.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub usize);

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

define_id!(
    /// A hardware interrupt vector installed in the simulated IDT.
    VectorId
);
define_id!(
    /// A Deferred Procedure Call object (`KDPC`).
    DpcId
);
define_id!(
    /// A kernel thread (`KTHREAD`).
    ThreadId
);
define_id!(
    /// A kernel synchronization event object (`KEVENT`).
    EventId
);
define_id!(
    /// A kernel semaphore object (`KSEMAPHORE`).
    SemId
);
define_id!(
    /// A kernel timer object (`KTIMER`).
    TimerId
);
define_id!(
    /// An I/O request packet.
    IrpId
);
define_id!(
    /// A slot in the shared blackboard (used for `AssociatedIrp.SystemBuffer`).
    Slot
);
define_id!(
    /// A device interrupt arrival process installed by a workload.
    SourceId
);
/// Anything a thread can block on with `KeWaitForSingleObject`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitObject {
    /// A kernel event.
    Event(EventId),
    /// A kernel semaphore.
    Semaphore(SemId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ThreadId(3).to_string(), "ThreadId#3");
        assert_eq!(DpcId(0).to_string(), "DpcId#0");
    }

    #[test]
    fn ids_are_comparable() {
        assert!(EventId(1) < EventId(2));
        assert_eq!(Slot(7), Slot(7));
    }
}
