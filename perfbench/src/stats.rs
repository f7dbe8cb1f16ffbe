//! Order statistics over raw samples.
//!
//! Every timing the benchmark reports is kept as raw samples and
//! summarised here: the median plus the highest standard percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, together
//! with the sample count. Nothing is bucketed. The median is the sample
//! at its nearest rank; the tail is the Harrell–Davis estimate at its
//! level ([`harrell_davis`]), a weighted mean of the samples around that
//! rank, because the single sample at a tail rank moves from run to run
//! with whichever few slow ops land next to it.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail levels, highest first.
const TAIL_LEVELS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q * n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a level outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile level {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of level `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest level in [`TAIL_LEVELS`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank, or
/// `None` when even the median has too few.
pub fn tail_level(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LEVELS
        .into_iter()
        .find(|&q| n.saturating_sub(rank(n, q)) >= TAIL_MIN_BEYOND)
}

/// Median and tail of one series of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail level reported (see [`tail_level`]); 0 when there are
    /// too few samples for any.
    pub tail_q: f64,
    /// The Harrell–Davis estimate at `tail_q` (the maximum when `tail_q`
    /// is 0).
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_q = tail_level(n).unwrap_or(0.0);
        let tail = if tail_q > 0.0 {
            harrell_davis(&sorted, tail_q)
        } else {
            sorted[n - 1]
        };
        Some(Summary {
            n,
            p50: percentile(&sorted, 0.5),
            tail_q,
            tail,
            mean: sorted.iter().sum::<f64>() / n as f64,
        })
    }
}

/// Harrell–Davis estimate of the `q` quantile of an ascending slice
/// (Harrell and Davis, Biometrika 69(3), 1982): the mean of the order
/// statistics weighted by the Beta(q(n+1), (1-q)(n+1)) probability of
/// each rank's interval `((i-1)/n, i/n]`. The weights sum to 1, so the
/// estimate lies between the smallest and the largest sample.
///
/// # Panics
///
/// Panics on an empty slice or a level outside `(0, 1)`.
pub fn harrell_davis(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q < 1.0, "quantile level {q} outside (0, 1)");
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        estimate += (cdf - below) * x;
        below = cdf;
    }
    estimate
}

/// Regularised incomplete beta function `I_x(a, b)`: the Beta(a, b)
/// distribution function at `x`, by its continued fraction (evaluated on
/// the side where it converges quickly).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_continued_fraction(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_continued_fraction(1.0 - x, b, a) / b
    }
}

/// The continued fraction of `I_x(a, b)`, by the modified Lentz method.
fn beta_continued_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let floor = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / floor(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / floor(1.0 + even * d);
        c = floor(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / floor(1.0 + odd * d);
        c = floor(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0`: the Lanczos approximation (g = 7, nine
/// terms), with the reflection formula below 1/2.
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    use std::f64::consts::PI;
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let series = C
        .iter()
        .enumerate()
        .skip(1)
        .fold(C[0], |s, (i, c)| s + c / (x + i as f64));
    let t = x + G + 0.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Median of a (possibly unsorted) series; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // Ranks round up: the 0.5 level of 3 samples is the 2nd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(tail_level(1000), Some(0.99));
        // 999 samples: rank 990, only 9 beyond, so p95 is the tail.
        assert_eq!(tail_level(999), Some(0.95));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(100), Some(0.9));
        // p95 of 200 is rank 190: 10 beyond.
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn summary_reports_the_allowed_tail() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail_q, 0.99);
        // Harrell–Davis on 0..1000 at 0.99: E[ceil(1000 X)] - 1 with
        // X ~ Beta(990.99, 10.01), about 989.5.
        assert!((s.tail - 989.5).abs() < 0.05, "{}", s.tail);
        assert!((s.mean - 499.5).abs() < 1e-12);

        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(few.tail_q, 0.0);
        assert_eq!(few.tail, 3.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn incomplete_beta_and_ln_gamma() {
        // I_0.5(2, 3) = (C(4,2) + C(4,3) + C(4,4)) / 16.
        assert!((beta_cdf(0.5, 2.0, 3.0) - 0.6875).abs() < 1e-13);
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-13);
        let (x, a, b) = (0.97, 900.5, 20.25);
        assert!((beta_cdf(x, a, b) + beta_cdf(1.0 - x, b, a) - 1.0).abs() < 1e-12);
        assert_eq!(beta_cdf(0.0, 2.0, 3.0), 0.0);
        assert_eq!(beta_cdf(1.0, 2.0, 3.0), 1.0);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        assert!((ln_gamma(0.25) - 3.625_609_908_221_908_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_weights_the_ranks_around_the_level() {
        assert_eq!(harrell_davis(&[4.0; 50], 0.99), 4.0);
        assert!((harrell_davis(&[1.0, 2.0, 3.0], 0.5) - 2.0).abs() < 1e-12);
        assert_eq!(harrell_davis(&[7.0], 0.9), 7.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // E[ceil(n X)] with X ~ Beta(q(n+1), (1-q)(n+1)) is about q n + 1/2.
        assert!((harrell_davis(&v, 0.5) - 500.5).abs() < 0.05);
        assert!((harrell_davis(&v, 0.99) - 990.5).abs() < 0.05);
        // Two clusters meeting at the p99 rank: the single sample there
        // jumps between them, the estimate stays between them.
        let mut clusters = vec![1.0; 990];
        clusters.extend([100.0; 10]);
        let hd = harrell_davis(&clusters, 0.99);
        assert!(hd > 1.0 && hd < 100.0, "{hd}");
        let mut prev = f64::MIN;
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let e = harrell_davis(&v, q);
            assert!(e >= prev && (1.0..=1000.0).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
