//! Order statistics for the benchmark's reports.

/// Median of `xs` (mean of the middle pair for an even count). `None`
/// when `xs` is empty, so a metric without samples is reported as absent
/// instead of as 0.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Geometric mean of positive values; `None` when empty or when any value
/// is not positive (a zero time would make every geomean zero).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Percentile levels a tail is reported at, highest first.
const TAIL_LEVELS: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The highest percentile in [`TAIL_LEVELS`] that has at least [`BEYOND`]
/// samples beyond it, as `(level, value)`. `None` when even the median
/// has fewer than ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAIL_LEVELS
        .iter()
        .find_map(|&level| percentile(xs, level).map(|v| (level, v)))
}

/// The value at percentile `level` by nearest rank, if it has at least
/// [`BEYOND`] samples strictly beyond its rank; otherwise `None`.
pub fn percentile(xs: &[f64], level: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((level / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_matches_closed_form_and_rejects_zeros() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond it.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        // 999 samples: p99 would leave 9 beyond, so p98 is the highest.
        assert_eq!(tail(&xs[..999]), Some((98.0, 980.0)));
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&xs[..20]), Some((50.0, 10.0)));
        assert_eq!(tail(&xs[..19]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs), Some((99.5, 1990.0)));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), None);
    }
}
