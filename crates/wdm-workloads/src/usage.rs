//! Heavy-user usage models (§3.1).
//!
//! The paper converts hours of *collected* data into expected hourly, daily
//! and weekly worst cases for a heavy user, exploiting the time compression
//! of MS-Test-driven benchmarks and the fast LAN. Each workload's model
//! states how many hours of collection correspond to one usage "day" and
//! how many days make a week.

use crate::spec::WorkloadKind;

/// How collected time maps to heavy-user exposure for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageModel {
    /// Hours of collection equivalent to one usage day.
    pub collect_hours_per_day: f64,
    /// Usage days per week.
    pub days_per_week: f64,
    /// The compression argument: ratio of benchmark input speed to human
    /// input speed (1.0 = real time).
    pub compression: f64,
}

impl UsageModel {
    /// The paper's model for a workload (§3.1.1–3.1.3).
    pub fn of(kind: WorkloadKind) -> UsageModel {
        match kind {
            // 4 hours of Winstone == a 40-hour work week (>=10x MS-Test
            // compression): 0.8 h/day, 5-day week.
            WorkloadKind::Business => UsageModel {
                collect_hours_per_day: 0.8,
                days_per_week: 5.0,
                compression: 10.0,
            },
            // 6 hours == a 30-hour engineering week at 5x compression:
            // 1.2 h/day, 5-day week.
            WorkloadKind::Workstation => UsageModel {
                collect_hours_per_day: 1.2,
                days_per_week: 5.0,
                compression: 5.0,
            },
            // Game demos run in real time: 12.5 hours == a week of 2-3 h/day
            // play across ~5 sessions; we use 2.5 h/day over 5 days.
            WorkloadKind::Games => UsageModel {
                collect_hours_per_day: 2.5,
                days_per_week: 5.0,
                compression: 1.0,
            },
            // 8 hours of LAN browsing == a week of 3-4 h/day modem browsing
            // at ~4x effective compression: ~1.14 h/day, 7-day week.
            WorkloadKind::Web => UsageModel {
                collect_hours_per_day: 8.0 / 7.0,
                days_per_week: 7.0,
                compression: 4.0,
            },
        }
    }

    /// Collection hours equivalent to one usage week.
    pub fn collect_hours_per_week(&self) -> f64 {
        self.collect_hours_per_day * self.days_per_week
    }

    /// Collection hours equivalent to one hour of continuous usage (the
    /// basis of Table 3's "Max Per Hr" column): `1/compression`.
    pub fn collect_hours_per_usage_hour(&self) -> f64 {
        1.0 / self.compression
    }

    /// The (hour, day, week) windows in collection hours, for
    /// `wdm_latency::worstcase::worst_cases`.
    pub fn windows(&self) -> (f64, f64, f64) {
        (
            self.collect_hours_per_usage_hour()
                .min(self.collect_hours_per_day),
            self.collect_hours_per_day,
            self.collect_hours_per_week(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekly_collection_hours_match_paper() {
        assert!(
            (UsageModel::of(WorkloadKind::Business).collect_hours_per_week() - 4.0).abs() < 1e-9
        );
        assert!(
            (UsageModel::of(WorkloadKind::Workstation).collect_hours_per_week() - 6.0).abs() < 1e-9
        );
        assert!((UsageModel::of(WorkloadKind::Games).collect_hours_per_week() - 12.5).abs() < 1e-9);
        assert!((UsageModel::of(WorkloadKind::Web).collect_hours_per_week() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn compression_ratios_match_paper() {
        assert_eq!(UsageModel::of(WorkloadKind::Business).compression, 10.0);
        assert_eq!(UsageModel::of(WorkloadKind::Workstation).compression, 5.0);
        assert_eq!(UsageModel::of(WorkloadKind::Games).compression, 1.0);
        assert_eq!(UsageModel::of(WorkloadKind::Web).compression, 4.0);
    }
}
