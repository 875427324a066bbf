//! Order statistics over timing samples, and the sample-count rule for tail
//! percentiles.

/// Smallest sample count at which the `pct`-th percentile (`1..=99`) has at
/// least ten samples beyond it, the minimum a tail percentile is reported on.
pub fn samples_needed(pct: u32) -> usize {
    assert!((1..100).contains(&pct), "percentile must lie in 1..=99");
    (1000usize).div_ceil(100 - pct as usize)
}

/// The percentile a gated tail latency is reported at for `n` samples: p90
/// when it has ten samples beyond it, else the median. p99 is not gated: on
/// a shared two-core host it follows the host's own stalls, and it moved by
/// half between runs of identical code.
pub fn tail_pct(n: usize) -> u32 {
    if n >= samples_needed(90) {
        90
    } else {
        50
    }
}

/// The tail latency of `samples`, at [`tail_pct`].
pub fn tail(samples: &[f64]) -> f64 {
    quantile(samples, f64::from(tail_pct(samples.len())) / 100.0)
}

/// Linear-interpolation quantile (numpy's default) of unsorted samples;
/// `NaN` when there are none. Infinite samples (failed operations) sort last.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    // Equal ends also keep two failed (infinite) samples from giving NaN.
    if lo == hi || sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile distance as a share of the median: the spread reported
/// beside each stage's median.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        assert_eq!(samples_needed(99), 1000);
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(50), 20);
        assert_eq!(samples_needed(97), 334);
        assert_eq!(tail_pct(1000), 90);
        assert_eq!(tail_pct(100), 90);
        assert_eq!(tail_pct(99), 50);
        assert_eq!(tail_pct(3), 50);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((tail(&xs) - 899.1).abs() < 1e-9);
        assert_eq!(tail(&xs[..11]), 5.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 1.0], 0.5), 2.5);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!(median(&[]).is_nan());
        assert!((spread(&xs) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn failed_operations_sort_last() {
        let xs = [1.0, f64::INFINITY, 2.0, 3.0];
        assert_eq!(quantile(&xs, 1.0), f64::INFINITY);
        assert_eq!(
            quantile(&[1.0, f64::INFINITY, f64::INFINITY], 0.9),
            f64::INFINITY
        );
        assert_eq!(median(&xs), 2.5);
    }
}
