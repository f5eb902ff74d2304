//! Latency tolerance of buffered real-time applications (Table 1).
//!
//! "Before an application or driver misses a deadline all buffered data
//! must be consumed. If an application has n buffers each of length t, then
//! we say that its latency tolerance is (n-1) * t" (§1).

/// Latency tolerance of an `n`-buffer pipeline with `t`-ms buffers.
pub fn latency_tolerance_ms(n: u32, t_ms: f64) -> f64 {
    assert!(n >= 1, "need at least one buffer");
    assert!(t_ms >= 0.0, "buffer length must be non-negative");
    (n - 1) as f64 * t_ms
}

/// One Table 1 row: a low-latency streaming application class.
#[derive(Debug, Clone, PartialEq)]
pub struct ToleranceRow {
    /// Application class.
    pub name: &'static str,
    /// Buffer size range in ms `(min, max)`.
    pub buffer_ms: (f64, f64),
    /// Buffer count range `(min, max)`.
    pub buffers: (u32, u32),
    /// The tolerance range the paper quotes (ms), for comparison.
    pub paper_tolerance_ms: (f64, f64),
}

impl ToleranceRow {
    /// Tolerance range per the paper's footnote formula: roughly
    /// `(n_max - 1) * t_min` to `(n_min - 1) * t_max`.
    pub fn tolerance_range_ms(&self) -> (f64, f64) {
        let a = latency_tolerance_ms(self.buffers.1, self.buffer_ms.0);
        let b = latency_tolerance_ms(self.buffers.0, self.buffer_ms.1);
        (a.min(b), a.max(b))
    }

    /// The absolute extremes of `(n-1)*t` over both ranges.
    pub fn tolerance_extremes_ms(&self) -> (f64, f64) {
        let lo = latency_tolerance_ms(self.buffers.0, self.buffer_ms.0);
        let hi = latency_tolerance_ms(self.buffers.1, self.buffer_ms.1);
        (lo, hi)
    }
}

/// The Table 1 application classes.
pub fn table1() -> Vec<ToleranceRow> {
    vec![
        ToleranceRow {
            name: "ADSL",
            buffer_ms: (2.0, 4.0),
            buffers: (2, 6),
            paper_tolerance_ms: (4.0, 10.0),
        },
        ToleranceRow {
            name: "Modem",
            buffer_ms: (4.0, 16.0),
            buffers: (2, 6),
            paper_tolerance_ms: (12.0, 20.0),
        },
        ToleranceRow {
            name: "RT audio",
            buffer_ms: (8.0, 24.0),
            buffers: (2, 8),
            paper_tolerance_ms: (20.0, 60.0),
        },
        ToleranceRow {
            name: "RT video",
            buffer_ms: (33.0, 50.0),
            buffers: (2, 3),
            paper_tolerance_ms: (33.0, 100.0),
        },
    ]
}

/// Renders Table 1 with both the paper's quoted range and the computed one.
pub fn render_table1() -> String {
    let mut out =
        String::from("Application     Buffer ms (t)   Buffers (n)   Tolerance (n-1)*t ms\n");
    for row in table1() {
        let (lo, hi) = row.tolerance_range_ms();
        out.push_str(&format!(
            "{:<15} {:>4} to {:<7} {:>2} to {:<8} {:>4.0} to {:<4.0} (paper: {:.0} to {:.0})\n",
            row.name,
            row.buffer_ms.0,
            row.buffer_ms.1,
            row.buffers.0,
            row.buffers.1,
            lo,
            hi,
            row.paper_tolerance_ms.0,
            row.paper_tolerance_ms.1,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_formula() {
        assert_eq!(latency_tolerance_ms(2, 6.0), 6.0);
        assert_eq!(latency_tolerance_ms(3, 6.0), 12.0);
        assert_eq!(latency_tolerance_ms(1, 100.0), 0.0);
    }

    #[test]
    fn adsl_matches_paper_exactly() {
        let rows = table1();
        let adsl = &rows[0];
        // (6-1)*2 = 10 and (2-1)*4 = 4: the paper's 4 to 10 ms.
        assert_eq!(adsl.tolerance_range_ms(), (4.0, 10.0));
    }

    #[test]
    fn computed_ranges_overlap_paper_ranges() {
        for row in table1() {
            let (clo, chi) = row.tolerance_range_ms();
            let (plo, phi) = row.paper_tolerance_ms;
            assert!(
                clo <= phi && plo <= chi,
                "{}: computed ({clo}, {chi}) vs paper ({plo}, {phi}) disjoint",
                row.name
            );
        }
    }

    #[test]
    fn adsl_and_video_are_at_opposite_ends() {
        // §1: "the two most processor-intensive applications, ADSL and
        // video, are at opposite ends of the latency tolerance spectrum."
        let rows = table1();
        let adsl_hi = rows[0].tolerance_range_ms().1;
        let video_hi = rows[3].tolerance_extremes_ms().1;
        assert!(adsl_hi <= 10.0 && video_hi >= 100.0);
    }

    #[test]
    fn render_has_all_rows() {
        let t = render_table1();
        for name in ["ADSL", "Modem", "RT audio", "RT video"] {
            assert!(t.contains(name));
        }
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_buffers_rejected() {
        let _ = latency_tolerance_ms(0, 4.0);
    }
}
