//! The estimators every reported number goes through.
//!
//! Interference on a shared box only ever subtracts speed, so a rate is
//! the **upper quartile** of its windows and a duration the **lower
//! quartile** of its repetitions, and a gated latency the **1st
//! percentile** of its thousands of samples ([`Samples::undisturbed_us`]);
//! latency quantiles are exact order statistics of the raw samples (a
//! histogram's bucket midpoint can read identically on two runs, which
//! hides real movement).

/// The three quartile cut points of `values`, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the rule the
/// benchmark driver applies to the numbers this program prints.
///
/// # Panics
///
/// Panics on fewer than two values or on a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let m = v.len();
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    cuts
}

/// First quartile: the estimator for a duration.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values)[0]
}

/// Median.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Third quartile: the estimator for a rate.
pub fn upper_quartile(values: &[f64]) -> f64 {
    quartiles(values)[2]
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Raw latency samples of one phase, in nanoseconds.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self(Vec::with_capacity(n))
    }

    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// What one call costs when nothing disturbs it: a ladder rung is a
    /// duration repeated, so it is read at its lower quartile. (On the one
    /// pinned CPU a submitter's spin-then-park on its reply channel sometimes
    /// shares the CPU with the worker and doubles a frame's time; medians
    /// of the in-process rungs read 683–1386 µs where the lower quartiles
    /// read 609–642 µs.)
    pub fn lower_quartile_us(&mut self) -> f64 {
        self.quantile_us(0.25)
    }

    /// What one operation costs when the box leaves it alone: the 1st
    /// percentile of a phase's samples (every gated phase has at least
    /// 4 000, so at least 40 samples lie below it). Interference only ever
    /// adds time, to a share of the operations that changes from one run to
    /// the next: over ten runs of one binary the median round trip spread
    /// by 6–10 % on the static tables and 17–30 % on `churn_rounds_1k`, the
    /// lower quartile by 7–10 %, the 5th percentile by 1–9 %, the 1st by
    /// 1–5 %. A change to the program moves the whole distribution and so
    /// moves this; the box moves only what lies to the right of it.
    pub fn undisturbed_us(&mut self) -> f64 {
        self.quantile_us(0.01)
    }

    /// The `q`-quantile (0..=1) in microseconds: the exact order statistic
    /// at rank `q·(n−1)`, linearly interpolated between neighbours.
    ///
    /// # Panics
    ///
    /// Panics when no sample was recorded.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of an empty phase");
        self.0.sort_unstable();
        let rank = q.clamp(0.0, 1.0) * (self.0.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(self.0.len() - 1);
        let frac = rank - lo as f64;
        (self.0[lo] as f64 * (1.0 - frac) + self.0[hi] as f64 * frac) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    // Expected values are what `statistics.quantiles(v, n=4)` prints.
    #[test]
    fn quartiles_of_five() {
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        close(q[0], 1.5);
        close(q[1], 3.0);
        close(q[2], 4.5);
    }

    #[test]
    fn quartiles_of_ten() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        close(q[0], 2.75);
        close(q[1], 5.5);
        close(q[2], 8.25);
    }

    #[test]
    fn quartiles_of_fourteen() {
        let v: Vec<f64> = (1..=14).map(|i| f64::from(i * i)).collect();
        let q = quartiles(&v);
        close(q[0], 14.25);
        close(q[1], 56.5);
        close(q[2], 126.75);
    }

    #[test]
    fn quartiles_with_ties() {
        let q = quartiles(&[7.0, 7.0, 7.0, 7.0, 9.0, 7.0, 7.0, 3.0]);
        close(q[0], 7.0);
        close(q[1], 7.0);
        close(q[2], 7.0);
        close(iqr_share(&[2.0, 2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn one_slow_window_does_not_move_a_rate() {
        let quiet = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.4,
        ];
        let mut disturbed = quiet;
        disturbed[3] = 60.0;
        let (a, b) = (upper_quartile(&quiet), upper_quartile(&disturbed));
        assert!((a - b).abs() / a < 0.005, "{a} vs {b}");
    }

    #[test]
    fn sample_quantiles_are_exact_order_statistics() {
        let mut s = Samples::default();
        for ns in (1..=101u64).rev() {
            s.push(ns * 1000);
        }
        close(s.quantile_us(0.5), 51.0);
        close(s.quantile_us(0.99), 100.0);
        close(s.quantile_us(0.0), 1.0);
        close(s.quantile_us(1.0), 101.0);
        close(s.undisturbed_us(), 2.0);
        assert_eq!(s.count(), 101);
    }
}
