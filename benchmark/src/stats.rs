//! Order statistics over per-pass samples.

/// Median of `xs`: the middle value, or the mean of the two middle
/// values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`. Reporting the same
/// definition a comparison script computes keeps the printed spread
/// and the judged spread identical. Like Python, a single sample is its
/// own quartiles, and small samples extrapolate past the extremes.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistics of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
