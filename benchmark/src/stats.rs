//! The order statistics the harness reports.
//!
//! A whole-run timing needs the whole run to be undisturbed while a
//! short cell needs only a few undisturbed slots somewhere in it, so a
//! workload's time is the sum over its cells of a low order statistic
//! of each cell's samples across many rounds. The samples are in
//! reference seconds (see `calib`), whose residual noise is two-sided,
//! hence the low quartile and not the minimum.

/// Element-wise minimum of `b` into `a`, growing `a` to `b`'s length.
pub fn min_into(a: &mut Vec<f64>, b: &[f64]) {
    if a.len() < b.len() {
        a.resize(b.len(), f64::INFINITY);
    }
    for (x, &y) in a.iter_mut().zip(b) {
        *x = x.min(y);
    }
}

/// The minimum of a sample set.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so a spread computed here equals one the driver computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The first quartile of `values`: the per-cell estimate for times in
/// reference seconds, whose residual noise is two-sided — a kernel call
/// that was itself disturbed makes the cell between look *fast* — so
/// the minimum would chase it. With fewer than four values it is their
/// minimum: the exclusive method extrapolates below the smallest of two
/// samples, and an estimate must be a time some execution took.
pub fn low_quartile(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return min(values);
    }
    quartiles(values).map(|q| q[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_quartile_is_the_minimum_of_fewer_than_four() {
        assert_eq!(low_quartile(&[]), None);
        assert_eq!(low_quartile(&[0.4]), Some(0.4));
        // quantiles([1, 6], n=4)[0] would be -0.25: no execution took that.
        assert_eq!(low_quartile(&[6.0, 1.0]), Some(1.0));
        assert_eq!(low_quartile(&[3.0, 1.0, 2.0]), Some(1.0));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(low_quartile(&v), Some(2.75));
    }

    #[test]
    fn low_quartile_never_falls_below_the_fastest_sample() {
        // One fast outlier among slow samples, at every length.
        for n in 1..=24 {
            let v: Vec<f64> = (0..n).map(|i| if i == 0 { 1.0 } else { 9.0 }).collect();
            let q = low_quartile(&v).unwrap();
            assert!(q >= min(&v).unwrap(), "{n} samples: {q}");
        }
    }

    #[test]
    fn min_into_grows_and_keeps_the_smaller() {
        let mut a = vec![3.0];
        min_into(&mut a, &[4.0, 2.0]);
        assert_eq!(a, vec![3.0, 2.0]);
        min_into(&mut a, &[1.0]);
        assert_eq!(a, vec![1.0, 2.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
