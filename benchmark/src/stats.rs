//! Order statistics over a handful of repetitions.

/// `(q1, median, q3)` of `values`, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread computed here equals the one the driver computes. One value is
/// its own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        // i*m < j*4 only where j was clamped up to 1; Python's negative
        // delta extrapolates there, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&v);
        close(q1, 2.75);
        close(m, 5.5);
        close(q3, 8.25);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, m, q3) = quartiles(&[3.0, 1.0, 2.0]);
        close(q1, 1.0);
        close(m, 2.0);
        close(q3, 3.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, m, q3) = quartiles(&[20.0, 10.0]);
        close(q1, 7.5);
        close(m, 15.0);
        close(q3, 22.5);
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
    }

    #[test]
    fn single_value_and_median() {
        assert_eq!(quartiles(&[4.5]), (4.5, 4.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }
}
