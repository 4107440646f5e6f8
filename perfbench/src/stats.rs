//! Summary statistics used by every metric: median, nearest-rank
//! percentiles, the tail rule, and the harmonic mean for rates.

/// Median of `xs` (mean of the two middle values for even counts); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    s[nearest_rank(s.len(), p)]
}

/// The tail value reported beside a median: the highest percentile that
/// still has at least ten samples above it. Returns `(percentile, value)`,
/// or `None` with fewer than eleven samples. With 1000 samples this is the
/// nearest-rank p99.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if xs.len() <= BEYOND {
        return None;
    }
    let s = sorted(xs);
    let idx = s.len() - 1 - BEYOND;
    let pct = 100.0 * (idx + 1) as f64 / s.len() as f64;
    Some((pct, s[idx]))
}

/// Harmonic mean of positive rates: the rate of the whole sample when each
/// item carries the same amount of work. `0.0` when empty or when any rate
/// is not positive.
pub fn harmonic_mean(rates: &[f64]) -> f64 {
    if rates.is_empty() || rates.iter().any(|&r| r <= 0.0 || !r.is_finite()) {
        return 0.0;
    }
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// Mean of the samples between the first and third quartile (inclusive
/// of the nearest ranks): robust to outliers like a median, but moving
/// smoothly, not in jumps, when the samples mix two modes. `0.0` when
/// empty.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let lo = s.len() / 4;
    let hi = s.len() - lo;
    s[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// `(max - min) / median`, the spread reported beside repeated counts.
pub fn relative_range(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    (hi - lo) / m
}

fn nearest_rank(len: usize, p: f64) -> usize {
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=1000: the p99 nearest-rank value is 990, with 10 above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!(v, 990.0);
        assert!((pct - 99.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(percentile(&xs, 99.0), 990.0);
    }

    #[test]
    fn tail_of_small_samples_drops_to_a_lower_percentile() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!(v, 40.0);
        assert!((pct - 80.0).abs() < 1e-9);
        assert!(tail(&xs[..10]).is_none());
        assert_eq!(tail(&xs[..11]).unwrap().1, 1.0);
    }

    #[test]
    fn harmonic_mean_weights_slow_items_by_their_time() {
        // Two searches over the same edge count, at 100 and 300 MTEPS:
        // the whole takes 1/100 + 1/300 per edge pair, i.e. 150 MTEPS.
        assert!((harmonic_mean(&[100.0, 300.0]) - 150.0).abs() < 1e-9);
        assert_eq!(harmonic_mean(&[5.0]), 5.0);
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        // A mix of two modes: the median sits on one of them, the
        // interquartile mean between them.
        let mix = [10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0];
        assert_eq!(median(&mix), 20.0);
        assert_eq!(interquartile_mean(&mix), 16.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn relative_range_is_scale_free() {
        assert!((relative_range(&[99.0, 100.0, 101.0]) - 0.02).abs() < 1e-12);
        assert_eq!(relative_range(&[7.0, 7.0]), 0.0);
    }
}
