//! The test system configuration (paper Table 2).
//!
//! Purely descriptive: renders the simulated machine/OS configuration the
//! way the paper tabulates it, with the per-OS rows that differ. The `repro
//! -- table2` harness prints this.

use crate::personality::OsKind;

/// One row of the Table 2 configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigRow {
    /// Row label ("Processor & speed", ...).
    pub item: &'static str,
    /// Value on Windows NT 4.0.
    pub nt4: String,
    /// Value on Windows 98.
    pub win98: String,
}

impl ConfigRow {
    /// Whether the two OS columns differ (the paper shades these rows).
    pub fn differs(&self) -> bool {
        self.nt4 != self.win98
    }
}

/// The full simulated test system configuration.
pub fn system_configuration() -> Vec<ConfigRow> {
    let same = |item: &'static str, v: &str| ConfigRow {
        item,
        nt4: v.to_string(),
        win98: v.to_string(),
    };
    vec![
        ConfigRow {
            item: "OS version",
            nt4: "Windows NT 4.0 Service Pack 3 w. 11/97 rollup hotfix".into(),
            win98: "Windows 98, Plus! 98 Pack w/o opt. Virus Scanner".into(),
        },
        ConfigRow {
            item: "Filesystem",
            nt4: "NTFS".into(),
            win98: "FAT32".into(),
        },
        ConfigRow {
            item: "IDE Driver",
            nt4: "Intel PIIX Bus Master IDE Drvr ver. 2.01.3".into(),
            win98: "Default with DMA set ON".into(),
        },
        same("Processor & speed", "Pentium II 300 MHz (simulated)"),
        same("Motherboard", "Atlanta (Intel 440 LX)"),
        same("BIOS ver.", "4A4LL0X0.86A.0012.P02"),
        same("Memory", "32 MB SDRAM"),
        same("Hard Drive", "Maxtor DiamondMax 6.4 GB UDMA"),
        same("CD-ROM Drive", "Sony CDU 711E 32x"),
        same("AGP Graphics", "ATI Xpert@Work"),
        same("Resolution", "1024 x 768 x 32 bit (3D games 800 x 600)"),
        ConfigRow {
            item: "Audio solution",
            nt4: "Ensoniq PCI sound card".into(),
            win98: "Phillips DSS 350 USB speakers".into(),
        },
        same("Network (Web only)", "Intel EtherExpress Pro 100 PCI NIC"),
    ]
}

/// Renders the configuration as a Markdown table matching the paper.
pub fn render_table2() -> String {
    let mut out = String::from("| Item | Windows NT 4.0 | Windows 98 |\n|---|---|---|\n");
    for row in system_configuration() {
        let marker = if row.differs() { " *" } else { "" };
        out.push_str(&format!(
            "| {}{} | {} | {} |\n",
            row.item, marker, row.nt4, row.win98
        ));
    }
    out.push_str("\n(* rows differ between the two systems, as shaded in the paper)\n");
    out
}

/// Simulator-relevant machine constants for an [`OsKind`], rendered for
/// reports.
pub fn render_sim_config(kind: OsKind) -> String {
    let p = crate::personality::OsPersonality::of(kind);
    format!(
        "{}: cpu {} MHz, PIT {} Hz, quantum {:.1} ms, ctx switch {:.1} us, \
         cli {:.0}/s, sections {:.0}/s, work items {}",
        kind.name(),
        p.kernel.cpu_hz / 1_000_000,
        p.kernel.pit_hz,
        p.kernel.cycles_as_ms(p.kernel.quantum),
        p.kernel.cycles_as_ms(p.kernel.context_switch_cost) * 1000.0,
        p.cli_rate_hz,
        p.section_rate_hz,
        if p.has_workitem_queue { "yes" } else { "no" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differing_rows_match_paper() {
        let rows = system_configuration();
        let diff: Vec<&str> = rows
            .iter()
            .filter(|r| r.differs())
            .map(|r| r.item)
            .collect();
        assert_eq!(
            diff,
            vec!["OS version", "Filesystem", "IDE Driver", "Audio solution"]
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let t = render_table2();
        assert!(t.contains("Pentium II 300 MHz"));
        assert!(t.contains("NTFS"));
        assert!(t.contains("FAT32"));
        assert_eq!(t.matches('\n').count(), system_configuration().len() + 4);
    }

    #[test]
    fn sim_config_renders() {
        let s = render_sim_config(OsKind::Win98);
        assert!(s.contains("Windows 98"));
        assert!(s.contains("300 MHz"));
    }
}
