//! Order statistics over repetition samples.

/// Median, extremes and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Min–max spread as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarize `samples`; the median of an even count is the mean of the
/// two middle values.
///
/// # Panics
/// Panics on an empty slice: every metric has at least one repetition.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize: no samples");
    let v = sorted(samples);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        median,
        min: v[0],
        max: v[n - 1],
        n,
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile: no samples");
    let v = sorted(samples);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let odd = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(
            odd,
            Summary {
                median: 2.0,
                min: 1.0,
                max: 3.0,
                n: 3
            }
        );
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            even,
            Summary {
                median: 2.5,
                min: 1.0,
                max: 4.0,
                n: 4
            }
        );
        assert_eq!(summarize(&[7.5]).median, 7.5);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert!((summarize(&[9.0, 10.0, 11.0]).spread() - 0.2).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
