//! Percentiles: the nearest-rank rule and the tail-percentile pick.

/// The `p`-quantile of an ascending sample by the rule the repository's
/// `LatencyStats` uses: index `round((n - 1) * p)`, so every reported value
/// is one that occurred. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// Whether `n` samples leave at least ten beyond the `p`-quantile.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0 - 1e-9
}

/// The highest percentile in [`TAILS`] with at least ten samples beyond it,
/// so a reported tail always rests on ten or more observations. `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&p| supports(n, p))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sorts a sample in place (ascending) and returns it, for the percentile
/// helpers. NaN never occurs in a benchmark sample; it sorts last if it does.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule_on_known_vectors() {
        let odd = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&odd, 0.5), Some(3.0));
        assert_eq!(percentile(&odd, 0.99), Some(5.0));
        // Even size: the upper middle element, never a midpoint.
        let even = sorted(vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!(percentile(&even, 0.5), Some(30.0));
        let hundred = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile(&hundred, 0.5), Some(51.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_samples_beyond_the_percentile() {
        assert!(supports(20, 0.5) && !supports(19, 0.5));
        assert!(supports(100, 0.9) && !supports(99, 0.9));
        assert!(supports(1_000, 0.99) && !supports(999, 0.99));
    }

    #[test]
    fn tail_pick_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(99_999), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        assert_eq!(tail_percentile(10_000_000), Some(0.9999));
    }
}
