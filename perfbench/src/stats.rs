//! Order statistics for host timings.

/// Samples that must lie beyond a percentile before it describes a tail
/// rather than a handful of individual sessions.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the rank.
    #[must_use]
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample with at
/// least `p` % of the sample at or below it.  `None` for an empty sample.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_the_samples_beyond() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p95 = percentile(&samples, 95.0).unwrap();
        assert_eq!(p95.value, 190.0);
        assert_eq!(p95.samples, 200);
        assert_eq!(p95.beyond, 10);
        assert!(p95.supported());

        // One sample fewer leaves only nine beyond the 95th percentile.
        let p95 = percentile(&samples[1..], 95.0).unwrap();
        assert_eq!(p95.samples, 199);
        assert_eq!(p95.beyond, 9);
        assert!(!p95.supported());

        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!(p50.value, 100.0);
        assert_eq!(p50.beyond, 100);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        let one = percentile(&[7.5], 95.0).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.5, 1, 0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0).unwrap().value, 3.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
