//! Execution labels and the synthetic symbol table.
//!
//! Every cycle the simulated CPU executes is attributed to a
//! `module!function` pair, mirroring what the paper's latency cause tool
//! recovers from instruction-pointer samples plus MSDN symbol files (§2.3).
//! Labels are interned into a [`SymbolTable`] so they are cheap to copy and
//! compare; the cause tool resolves them back to names for episode reports
//! like Table 4.
//!
//! Interning is a linear scan of the interned names with `&str` compares:
//! a kernel interns a few dozen labels, all at set-up, so a scan beats
//! hashing an owned key, and only a new label allocates. Labels are
//! numbered in first-interned order, which flame and trace output keep.

/// An interned `module!function` execution label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl Label {
    /// The idle loop; used when nothing else is runnable.
    pub const IDLE: Label = Label(0);
    /// Kernel-internal bookkeeping (dispatch, context switch paths).
    pub const KERNEL: Label = Label(1);
}

/// Interns `module!function` names and resolves [`Label`]s back to them.
///
/// The table is pre-seeded with [`Label::IDLE`] and [`Label::KERNEL`].
#[derive(Debug)]
pub struct SymbolTable {
    names: Vec<(String, String)>,
    parents: Vec<Option<Label>>,
}

impl SymbolTable {
    /// Creates a table containing only the built-in labels.
    pub fn new() -> SymbolTable {
        let mut t = SymbolTable {
            names: Vec::new(),
            parents: Vec::new(),
        };
        let idle = t.intern("HAL", "_IdleLoop");
        let kernel = t.intern("NTOSKRNL", "_KiDispatch");
        debug_assert_eq!(idle, Label::IDLE);
        debug_assert_eq!(kernel, Label::KERNEL);
        t
    }

    /// Interns a `module!function` pair, returning its label.
    ///
    /// Interning the same pair twice returns the same label, and touches
    /// no heap.
    pub fn intern(&mut self, module: &str, function: &str) -> Label {
        self.intern_with_parent(module, function, None)
    }

    /// Interns a label with a known caller, building a synthetic call
    /// chain. The paper's §6.1 wants the cause tool's hook to "walk the
    /// stack so as to generate call trees instead of isolated instruction
    /// pointer samples"; parent links are the simulator's stand-in for the
    /// walked stack.
    pub fn intern_with_parent(
        &mut self,
        module: &str,
        function: &str,
        parent: Option<Label>,
    ) -> Label {
        let found = self
            .names
            .iter()
            .position(|(m, f)| f == function && m == module);
        if let Some(i) = found {
            if let Some(p) = parent {
                self.parents[i].get_or_insert(p);
            }
            return Label(i as u32);
        }
        let l = Label(self.names.len() as u32);
        self.names.push((module.to_owned(), function.to_owned()));
        self.parents.push(parent);
        l
    }

    /// Interns a call chain (outermost caller first), returning the label
    /// of the innermost function.
    pub fn intern_chain(&mut self, chain: &[(&str, &str)]) -> Label {
        assert!(!chain.is_empty(), "chain needs at least one frame");
        let mut parent = None;
        let mut leaf = Label::KERNEL;
        for (module, function) in chain {
            leaf = self.intern_with_parent(module, function, parent);
            parent = Some(leaf);
        }
        leaf
    }

    /// Caller of a label, if a chain was registered.
    pub fn parent(&self, l: Label) -> Option<Label> {
        self.parents[l.0 as usize]
    }

    /// Renders the full call chain, innermost first, `a <- b <- c` style.
    pub fn render_chain(&self, l: Label) -> String {
        let mut out = self.render(l);
        let mut cur = self.parent(l);
        let mut depth = 0;
        while let Some(p) = cur {
            out.push_str(" <- ");
            out.push_str(&self.render(p));
            cur = self.parent(p);
            depth += 1;
            if depth > 32 {
                out.push_str(" <- ...");
                break; // Cyclic registration guard.
            }
        }
        out
    }

    /// Module name of a label, e.g. `"VMM"`.
    pub fn module(&self, l: Label) -> &str {
        &self.names[l.0 as usize].0
    }

    /// Function name of a label, e.g. `"_mmCalcFrameBadness"`.
    pub fn function(&self, l: Label) -> &str {
        &self.names[l.0 as usize].1
    }

    /// Full `module!function` rendering.
    pub fn render(&self, l: Label) -> String {
        let (m, f) = &self.names[l.0 as usize];
        format!("{m}!{f}")
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if only the built-in labels are present.
    pub fn is_empty(&self) -> bool {
        // The two built-ins are always present.
        self.names.len() <= 2
    }
}

impl Default for SymbolTable {
    fn default() -> SymbolTable {
        SymbolTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_preinterned() {
        let t = SymbolTable::new();
        assert_eq!(t.render(Label::IDLE), "HAL!_IdleLoop");
        assert_eq!(t.render(Label::KERNEL), "NTOSKRNL!_KiDispatch");
        assert_eq!(t.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("VMM", "_mmFindContig");
        let b = t.intern("VMM", "_mmFindContig");
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn chains_render_innermost_first() {
        let mut t = SymbolTable::new();
        let leaf = t.intern_chain(&[
            ("NTKERN", "_ExAllocatePool"),
            ("VMM", "_PageAllocate"),
            ("VMM", "_mmFindContig"),
        ]);
        assert_eq!(t.render(leaf), "VMM!_mmFindContig");
        assert_eq!(
            t.render_chain(leaf),
            "VMM!_mmFindContig <- VMM!_PageAllocate <- NTKERN!_ExAllocatePool"
        );
        // A plain label has no chain.
        let plain = t.intern("HAL", "_Stall");
        assert_eq!(t.render_chain(plain), "HAL!_Stall");
    }

    #[test]
    fn reinterning_keeps_first_parent() {
        let mut t = SymbolTable::new();
        let a = t.intern("M", "_A");
        let b = t.intern_with_parent("M", "_B", Some(a));
        let c = t.intern("M", "_C");
        let b2 = t.intern_with_parent("M", "_B", Some(c));
        assert_eq!(b, b2);
        assert_eq!(t.parent(b), Some(a), "first registration wins");
    }

    #[test]
    fn labels_number_in_first_interned_order() {
        let mut t = SymbolTable::new();
        let b = t.intern("B", "_b");
        let a = t.intern("A", "_a");
        let c = t.intern_chain(&[("A", "_a"), ("C", "_c")]);
        assert_eq!([b, a, c], [Label(2), Label(3), Label(4)]);
        assert_eq!(t.intern("B", "_b"), b);
        assert_eq!(t.intern("HAL", "_IdleLoop"), Label::IDLE);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn distinct_functions_get_distinct_labels() {
        let mut t = SymbolTable::new();
        let a = t.intern("VMM", "_mmFindContig");
        let b = t.intern("VMM", "_mmCalcFrameBadness");
        let c = t.intern("KMIXER", "_mmFindContig");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.module(c), "KMIXER");
        assert_eq!(t.function(b), "_mmCalcFrameBadness");
    }
}
