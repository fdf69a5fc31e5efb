//! Order statistics over latency samples.

/// Linear-interpolated quantile of ascending `sorted` (`0 ≤ q ≤ 1`); 0 for
/// an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Fewest samples a tail should have beyond its percentile; a run with
/// fewer still reports the same percentile, and says so.
pub const MIN_BEYOND: usize = 10;

/// The tail of a latency sample at the fixed percentile `pct`, and how
/// many samples lie beyond it.
pub fn tail(values: &[f64], pct: f64) -> (f64, usize) {
    let v = sorted(values);
    let value = quantile(&v, pct / 100.0);
    (value, v.iter().filter(|&&x| x > value).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_stays_at_its_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, beyond) = tail(&v, 90.0);
        assert!((value - 90.1).abs() < 1e-9);
        assert_eq!(beyond, 10);
        // Too few samples beyond p99: the percentile does not move.
        let (value, beyond) = tail(&v, 99.0);
        assert!((value - 99.01).abs() < 1e-9);
        assert_eq!(beyond, 1);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
