//! Order statistics and failure accounting shared by every workload.
//!
//! Latency samples are `f64` milliseconds (or microseconds; the unit
//! is the caller's). A failed or refused operation is recorded as
//! [`f64::INFINITY`]: it counts against the attempted total and ranks
//! above every completed operation, so it misses any percentile it
//! lands on instead of silently shrinking the sample.

/// Percentile levels a tail figure may be reported at, lowest first.
/// It stops at p90: on a shared 2-CPU host the p99 of a microsecond
/// round trip is set by interference from outside the system (one run
/// in ten read 7x its usual value), while p90 repeats within a few
/// percent.
pub const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest [`TAIL_LADDER`] level that leaves at least ten samples
/// ranked beyond it in a sample of `n`; `None` below twenty samples.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// Nearest-rank percentile of `samples` (any order). Failed samples
/// are infinite, so the result is infinite when the rank lands on one.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The middle value (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Operations attempted and failed. A failure is an operation that
/// returned an error, was refused, or produced output a check rejected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not complete with correct output.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and returns its latency sample:
    /// `elapsed` when `ok`, otherwise infinity.
    pub fn record(&mut self, ok: bool, elapsed: f64) -> f64 {
        self.attempted += 1;
        if ok {
            elapsed
        } else {
            self.failed += 1;
            f64::INFINITY
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Geometric mean of positive values (`None` if empty).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_is_highest_with_ten_samples_beyond() {
        assert_eq!(tail_level(0), None);
        assert_eq!(tail_level(19), None);
        // 20 samples: the median has exactly ten ranked beyond it.
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(39), Some(50.0));
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(60), Some(75.0));
        assert_eq!(tail_level(99), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(1000), Some(90.0));
        assert_eq!(tail_level(1_000_000), Some(90.0));
        for n in 20..3000 {
            let p = tail_level(n).expect("twenty or more samples");
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_and_miss_the_percentile() {
        let mut tally = Tally::default();
        let mut samples = Vec::new();
        for i in 0..90 {
            samples.push(tally.record(true, f64::from(i)));
        }
        // An error line and a refused connection: failed, not fast.
        for _ in 0..10 {
            samples.push(tally.record(false, 0.001));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 100,
                failed: 10
            }
        );
        assert_eq!(percentile(&samples, 50.0), Some(49.0));
        assert_eq!(percentile(&samples, 90.0), Some(89.0));
        // Anything past the completed share lands on a failure.
        assert_eq!(percentile(&samples, 91.0), Some(f64::INFINITY));
        assert_eq!(percentile(&samples, 99.0), Some(f64::INFINITY));

        let mut total = Tally::default();
        total.absorb(tally);
        total.absorb(tally);
        assert_eq!(total.failed, 20);
        assert_eq!(total.attempted, 200);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 0.5]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
