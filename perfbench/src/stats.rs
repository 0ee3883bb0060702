//! Sample summaries: medians and the tail-percentile rule.

/// Candidate tail percentiles in tenths of a percent, highest first
/// (integers, so nearest ranks are exact).
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail percentile is only reported with at least this many samples
/// above it, so one slow outlier cannot be the whole tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Timing samples of one operation kind, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// `(percentile, value)` of the highest candidate percentile that has
    /// at least [`TAIL_MIN_BEYOND`] samples above it; `None` below 20
    /// samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let (pct, rank) = tail_rank(v.len())?;
        Some((pct, v[rank - 1]))
    }
}

/// Nearest-rank position (1-based) of the highest candidate percentile
/// with at least [`TAIL_MIN_BEYOND`] of `n` samples strictly after it.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    TAIL_PERMILLE.iter().find_map(|&permille| {
        let rank = (permille * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then_some((permille as f64 / 10.0, rank))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        // Pushed out of order: the summaries must sort.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples(5).median(), Some(3.0));
        assert_eq!(samples(4).median(), Some(2.5));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: even p50 (rank 10) leaves only 9 above it.
        assert_eq!(tail_rank(19), None);
        assert_eq!(samples(19).tail(), None);
        // 20 samples: p50 is rank 10 with exactly 10 above.
        assert_eq!(tail_rank(20), Some((50.0, 10)));
        assert_eq!(samples(20).tail(), Some((50.0, 10.0)));
        // 40 samples: p75 is rank 30 with 10 above; p90 would leave 4.
        assert_eq!(tail_rank(40), Some((75.0, 30)));
        // 110 samples: p90 is rank 99 (11 above); p95 would leave 5.
        assert_eq!(tail_rank(110), Some((90.0, 99)));
        // 1000 samples: p99 is rank 990 (10 above); p99.9 would leave 1.
        assert_eq!(tail_rank(1000), Some((99.0, 990)));
        assert_eq!(samples(1000).tail(), Some((99.0, 990.0)));
        // 10000 samples reach p99.9.
        assert_eq!(tail_rank(10_000), Some((99.9, 9990)));
    }
}
