//! Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
//! (the exclusive method), so `--repeat` reproduces the driver's spreads.

/// `(q1, median, q3)` of at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, ld) = (4usize, data.len());
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn matches_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }
}
