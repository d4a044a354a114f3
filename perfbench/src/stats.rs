//! Order statistics of timing samples and the failure tally.

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail statistic: the highest percentile that still has [`Tail::MIN_BEYOND`]
/// samples beyond it, with the numbers needed to judge it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// Its percentile, `100 · rank / samples` for the 1-based rank of `value`.
    pub percentile: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
    /// Samples ranked strictly above `value`.
    pub beyond: usize,
}

impl Tail {
    /// Samples that must lie beyond a tail for it to count as measured.
    pub const MIN_BEYOND: usize = 10;

    /// The 11th-largest sample: the highest percentile with ten samples beyond it.
    /// With fewer than 21 samples that percentile would fall below the median, so
    /// the upper median rank is used instead and `beyond` reports how few samples
    /// back it.
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "tail of no samples");
        let sorted = sorted(samples);
        let n = sorted.len();
        let upper_median_rank = n / 2 + 1;
        let rank = n.saturating_sub(Self::MIN_BEYOND).max(upper_median_rank);
        Self {
            value: sorted[rank - 1],
            percentile: 100.0 * rank as f64 / n as f64,
            samples: n,
            beyond: n - rank,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    sorted
}

/// Operations or cells attempted and failed in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units of work started.
    pub attempted: u64,
    /// Units that did not complete, were unstable, or returned an error.
    pub failed: u64,
}

impl Tally {
    /// Counts `units` units of work, `failed` of which failed.
    pub fn record(&mut self, units: u64, failed: u64) {
        assert!(failed <= units, "more failures than units of work");
        self.attempted += units;
        self.failed += failed;
    }

    /// The share of attempted units that failed (0 before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let tail = Tail::of(&samples);
        assert_eq!(tail.value, 30.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.samples, 40);
        assert_eq!(tail.percentile, 75.0);

        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let tail = Tail::of(&samples);
        assert_eq!(
            (tail.value, tail.beyond, tail.percentile),
            (990.0, 10, 99.0)
        );
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_upper_median() {
        let tail = Tail::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((tail.value, tail.beyond, tail.samples), (3.0, 2, 5));
        assert_eq!(tail.percentile, 60.0);
        // Never below the median: with 16 samples rank 6 would be, so rank 9 it is.
        let samples: Vec<f64> = (1..=16).map(f64::from).collect();
        let tail = Tail::of(&samples);
        assert_eq!((tail.value, tail.beyond), (9.0, 7));
        assert!(tail.value >= median(&samples));
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(Tail::of(&samples).beyond, 10);
        let one = Tail::of(&[7.0]);
        assert_eq!((one.value, one.beyond, one.percentile), (7.0, 0, 100.0));
    }

    #[test]
    fn failed_frac_counts_failed_units_against_attempted_ones() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        tally.record(48, 0);
        tally.record(48, 3);
        tally.record(4, 1);
        assert_eq!(
            tally,
            Tally {
                attempted: 100,
                failed: 4
            }
        );
        assert_eq!(tally.failed_frac(), 0.04);
    }

    #[test]
    #[should_panic(expected = "more failures than units")]
    fn a_tally_rejects_more_failures_than_units() {
        Tally::default().record(1, 2);
    }
}
