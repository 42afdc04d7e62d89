//! Order statistics used by the runner and by `compare`.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Smallest value; 0 when empty.
pub fn min<'a>(xs: impl IntoIterator<Item = &'a f64>) -> f64 {
    xs.into_iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest value; 0 when empty.
pub fn max<'a>(xs: impl IntoIterator<Item = &'a f64>) -> f64 {
    xs.into_iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the estimator the acceptance check of the benchmark contract uses.
/// Needs at least two values; fewer return `(x, x)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the contract compares against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / med.abs()
    }
}

/// 1-based nearest rank of percentile `p` among `n` ≥ 1 samples. The
/// small slack keeps 99.9 % of 10 000 at rank 9 990, not one above it
/// (`99.9 / 100 * 10000` is not exactly 9990 in binary).
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (`p` in 0–100); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    s[nearest_rank(s.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The tail percentiles a latency may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The percentile rule: the highest percentile of [`TAIL_LADDER`] that
/// still has at least ten samples beyond it, or `None` when even the
/// lowest rung does not (then only the median is reportable).
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Coefficient of variation (population); 0 for fewer than two values.
pub fn coeff_of_variation(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / mean
}
