//! Order statistics of latency samples.

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of sorted samples (`p` in `(0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// 0-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples beyond percentile `p` among `n` (nearest rank).
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that leaves
/// at least ten of `n` samples beyond it; the median when none does.
///
/// A run reports its tails at the percentile this rule gives for the
/// fewest samples its workload yields on a slow host, not for the count
/// it happens to reach. A faster engine then reports the same statistic
/// rather than a higher percentile of it.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is the 990th, with exactly ten beyond.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples: p99 has only nine beyond, so p95.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(beyond(999, 95.0), 49);
        // 50 samples: p90 leaves five, p75 leaves twelve.
        assert_eq!(tail_percentile(50), 75.0);
        // 21 samples: the median leaves ten; fewer fall back to it too.
        assert_eq!(tail_percentile(21), 50.0);
        assert_eq!(tail_percentile(9), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn a_pinned_tail_reads_the_same_percentile_at_any_sample_count() {
        // Pinned from a slow host's 300 samples, p95 stays the statistic
        // when a faster engine completes ten times as many.
        let p = tail_percentile(300);
        assert_eq!(p, 95.0);
        assert_eq!(percentile(&ramp(300), p), 285.0);
        assert_eq!(percentile(&ramp(3000), p), 2850.0);
        assert_eq!(tail_percentile(3000), 99.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
