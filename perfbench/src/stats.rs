//! Order statistics over timing samples.

/// Sort a copy of `xs` ascending (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// Nearest-rank quantile `q` in `[0, 1]` of ascending `sorted` samples.
/// Empty input gives 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the samples (the upper median for an even count, so the
/// value is always one that was measured).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    s[s.len() / 2]
}

/// The tail statistic the benchmark reports: the highest percentile,
/// capped at p99, that still has at least ten samples beyond it. With
/// 1000 or more samples that is p99; with `n` in 11..1000 it is the
/// sample with exactly ten larger ones. Returns `(value, percentile)`,
/// or `None` below 11 samples, where no such percentile exists.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 11 {
        return None;
    }
    if n >= 1000 {
        return Some((quantile(&s, 0.99), 99.0));
    }
    Some((s[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// Length in seconds of the windows [`windowed_quantile`] aims for.
pub const WINDOW_S: f64 = 0.45;

/// The median over time windows of each window's `q` quantile of
/// `(t, x)` samples. The samples' time span is cut into an odd number,
/// at least five, of equal windows of about [`WINDOW_S`]; empty windows
/// are skipped.
pub fn windowed_quantile(samples: &[(f64, f64)], q: f64) -> f64 {
    let span = samples.iter().map(|&(t, _)| t).fold(0.0, f64::max);
    let mut windows = ((span / WINDOW_S).round() as usize).max(5);
    windows |= 1;
    let mut cut: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, x) in samples {
        let w = ((t / span.max(f64::MIN_POSITIVE)) * windows as f64) as usize;
        cut[w.min(windows - 1)].push(x);
    }
    let per: Vec<f64> = cut
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(&sorted(w), q))
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let (v, pct) = tail(&xs).expect("20 samples");
        assert_eq!(v, 10.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(pct, 50.0);
        assert!(tail(&xs[..10]).is_none());
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((1980.0, 99.0)));
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_quantile() {
        let mut xs: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64 / 1000.0, 1.0)).collect();
        // A stall covering the first tenth of the span.
        for s in xs.iter_mut().take(100) {
            s.1 = 50.0;
        }
        assert_eq!(windowed_quantile(&xs, 0.99), 1.0);
        assert_eq!(
            quantile(&sorted(&xs.iter().map(|s| s.1).collect::<Vec<_>>()), 0.99),
            50.0
        );
    }

    #[test]
    fn quantiles_are_measured_values() {
        let s = sorted(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(quantile(&s, 0.5), 2.0);
        assert_eq!(quantile(&s, 0.99), 4.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
