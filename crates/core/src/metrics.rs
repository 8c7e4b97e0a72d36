//! The study's metrics (§4.1): Hits, Active ASes, Aliases, and the
//! Performance Ratio.

/// Metrics of one TGA run after scanning and dealiasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Dealiased responsive addresses discovered (§4.1 "Hits").
    pub hits: usize,
    /// Distinct ASes containing at least one hit ("Active ASes").
    pub ases: usize,
    /// Discovered addresses classified as aliased (removed from hits).
    pub aliases: usize,
    /// Unique addresses the TGA generated (≤ budget).
    pub generated: usize,
    /// Probe packets spent: generation feedback + evaluation scan +
    /// output dealiasing.
    pub probe_packets: u64,
}

impl RunMetrics {
    /// Hit rate over *generated* (pre-dealias) candidates — the §4.1
    /// definition: aliased candidates still count in the denominator,
    /// because the TGA spent budget generating them.
    pub fn hit_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.hits as f64 / self.generated as f64
        }
    }
}

/// The paper's Performance Ratio (§4.1):
/// `(metric_changed − metric_original) / metric_original`.
///
/// 0 = no change, 1.0 = doubled, −1.0 = halved-to-zero direction. (The
/// paper's formula text displays a stray `3×`, but its worked examples —
/// "if it doubles performance, it is 1.0" — fix the constant at 1, which
/// we follow.) Returns 0 when the original is 0 and the changed value is
/// too; `+∞`-like cases are clamped to the changed value itself so plots
/// stay finite.
pub fn performance_ratio(changed: f64, original: f64) -> f64 {
    if original == 0.0 {
        if changed == 0.0 {
            0.0
        } else {
            changed // degenerate baseline: report the raw gain, finite
        }
    } else {
        (changed - original) / original
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_no_change_is_zero() {
        assert_eq!(performance_ratio(100.0, 100.0), 0.0);
    }

    #[test]
    fn ratio_of_double_is_one() {
        assert_eq!(performance_ratio(200.0, 100.0), 1.0);
    }

    #[test]
    fn ratio_of_half_is_minus_half() {
        assert_eq!(performance_ratio(50.0, 100.0), -0.5);
    }

    #[test]
    fn ratio_of_total_loss_is_minus_one() {
        assert_eq!(performance_ratio(0.0, 100.0), -1.0);
    }

    #[test]
    fn zero_baseline_is_finite() {
        assert_eq!(performance_ratio(0.0, 0.0), 0.0);
        assert!(performance_ratio(5.0, 0.0).is_finite());
    }

    #[test]
    fn hit_rate() {
        let m = RunMetrics {
            hits: 25,
            aliases: 50,
            generated: 100,
            ..RunMetrics::default()
        };
        assert!((m.hit_rate() - 0.25).abs() < 1e-12, "aliases stay in: /100");
        assert_eq!(RunMetrics::default().hit_rate(), 0.0);
    }
}
