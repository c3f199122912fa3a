//! Summary statistics for Monte-Carlo device-variation studies and the
//! architectural refresh-interference experiments.

use crate::{NumericError, Result};

/// Online mean/variance accumulator (Welford's algorithm): numerically
/// stable, single pass, O(1) memory.
///
/// ```
/// use tcam_numeric::stats::Running;
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     r.push(x);
/// }
/// assert_eq!(r.mean(), 5.0);
/// assert!((r.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    ///
    /// NaN propagates *consistently*: once a NaN sample is pushed, `mean`,
    /// variance, `min`, and `max` are all NaN from then on. (`f64::min` /
    /// `f64::max` silently prefer the non-NaN operand, which used to leave
    /// the extrema looking healthy while the moments were poisoned — a
    /// half-NaN summary that hid bad trials.)
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = propagating_min(self.min, x);
        self.max = propagating_max(self.max, x);
    }

    /// Sample count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by n); 0 when fewer than 1 sample.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (divide by n−1); 0 when fewer than 2 samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest sample seen; +∞ when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen; −∞ when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = propagating_min(self.min, other.min);
        self.max = propagating_max(self.max, other.max);
    }
}

/// `min` that propagates NaN instead of preferring the non-NaN operand.
fn propagating_min(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.min(b)
    }
}

/// `max` that propagates NaN instead of preferring the non-NaN operand.
fn propagating_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// A sample set validated and sorted **once**, answering any number of
/// quantile queries without the per-call clone + sort that the free
/// [`percentile`] function pays. Bench summaries that report p50/p90/p99/…
/// over the same distribution should build one of these.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSamples {
    sorted: Vec<f64>,
}

impl SortedSamples {
    /// Validates, copies, and sorts the samples.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for an empty slice or a
    /// non-finite sample.
    pub fn new(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(NumericError::InvalidInput("empty sample set".into()));
        }
        if samples.iter().any(|v| !v.is_finite()) {
            return Err(NumericError::InvalidInput("samples must be finite".into()));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ok(Self { sorted })
    }

    /// Percentile by linear interpolation between order statistics (the
    /// R-7 definition used by numpy's default).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for `q` outside `[0, 100]`.
    pub fn percentile(&self, q: f64) -> Result<f64> {
        if !(0.0..=100.0).contains(&q) {
            return Err(NumericError::InvalidInput(format!(
                "percentile {q} outside [0, 100]"
            )));
        }
        let s = &self.sorted;
        let h = (s.len() - 1) as f64 * q / 100.0;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        Ok(s[lo] + (s[hi] - s[lo]) * (h - lo as f64))
    }

    /// Several percentiles in one call, in input order.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if any `q` is outside
    /// `[0, 100]`.
    pub fn percentiles(&self, qs: &[f64]) -> Result<Vec<f64>> {
        qs.iter().map(|&q| self.percentile(q)).collect()
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false — construction rejects empty sample sets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The sorted samples.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.sorted
    }
}

/// Percentile of a sample set by linear interpolation between order
/// statistics (the "exclusive" R-7 definition used by numpy's default).
///
/// One-shot convenience over [`SortedSamples`]: clones and sorts per call,
/// so loops asking for several quantiles of the same data should build a
/// [`SortedSamples`] instead.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for an empty slice, a non-finite
/// sample, or `q` outside `[0, 100]`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64> {
    SortedSamples::new(samples)?.percentile(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_known_dataset() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert_eq!(r.mean(), 5.0);
        assert!((r.population_variance() - 4.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.push(1.0);
        let before = a;
        a.merge(&Running::new());
        assert_eq!(a, before);
        let mut e = Running::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&s, 100.0).unwrap(), 4.0);
        assert_eq!(percentile(&s, 50.0).unwrap(), 2.5);
    }

    #[test]
    fn percentile_validation() {
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0], -1.0).is_err());
        assert!(percentile(&[1.0], 101.0).is_err());
        assert!(percentile(&[f64::NAN], 50.0).is_err());
    }

    #[test]
    fn nan_poisons_every_summary_field() {
        let mut r = Running::new();
        r.push(1.0);
        r.push(f64::NAN);
        r.push(2.0);
        assert_eq!(r.count(), 3);
        assert!(r.mean().is_nan());
        assert!(r.population_variance().is_nan());
        assert!(r.min().is_nan(), "min must not hide the NaN sample");
        assert!(r.max().is_nan(), "max must not hide the NaN sample");
    }

    #[test]
    fn nan_propagates_through_merge_both_ways() {
        let mut clean = Running::new();
        clean.push(1.0);
        clean.push(2.0);
        let mut tainted = Running::new();
        tainted.push(f64::NAN);
        let mut a = clean;
        a.merge(&tainted);
        assert!(a.min().is_nan() && a.max().is_nan() && a.mean().is_nan());
        let mut b = tainted;
        b.merge(&clean);
        assert!(b.min().is_nan() && b.max().is_nan() && b.mean().is_nan());
    }

    /// Property: for any sample sequence, either no NaN was pushed and all
    /// summary fields are finite-consistent, or a NaN was pushed and *every*
    /// summary field is NaN — never a half-NaN summary.
    #[test]
    fn nan_consistency_property() {
        let mut rng = crate::rng::SplitMix64::new(0x5eed_57a7);
        for _ in 0..200 {
            let len = 1 + (rng.next_u64() % 20) as usize;
            let nan_at = if rng.next_u64().is_multiple_of(2) {
                Some((rng.next_u64() % len as u64) as usize)
            } else {
                None
            };
            let mut r = Running::new();
            for i in 0..len {
                if Some(i) == nan_at {
                    r.push(f64::NAN);
                } else {
                    r.push(rng.next_f64() * 20.0 - 10.0);
                }
            }
            let fields = [r.mean(), r.population_variance(), r.min(), r.max()];
            if nan_at.is_some() {
                assert!(fields.iter().all(|v| v.is_nan()), "half-NaN: {fields:?}");
            } else {
                assert!(fields.iter().all(|v| v.is_finite()), "bad: {fields:?}");
            }
            assert_eq!(r.count(), len as u64);
        }
    }

    #[test]
    fn sorted_samples_matches_one_shot_percentile() {
        let mut rng = crate::rng::SplitMix64::new(42);
        let samples: Vec<f64> = (0..97).map(|_| rng.next_f64() * 100.0).collect();
        let sorted = SortedSamples::new(&samples).unwrap();
        for q in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let one_shot = percentile(&samples, q).unwrap();
            let reused = sorted.percentile(q).unwrap();
            assert_eq!(one_shot.to_bits(), reused.to_bits(), "q = {q}");
        }
        assert_eq!(
            sorted.percentiles(&[50.0, 99.0]).unwrap(),
            vec![
                sorted.percentile(50.0).unwrap(),
                sorted.percentile(99.0).unwrap()
            ]
        );
        assert_eq!(sorted.len(), 97);
        assert!(!sorted.is_empty());
        assert_eq!(sorted.min(), sorted.as_slice()[0]);
        assert_eq!(sorted.max(), *sorted.as_slice().last().unwrap());
    }

    #[test]
    fn sorted_samples_validation() {
        assert!(SortedSamples::new(&[]).is_err());
        assert!(SortedSamples::new(&[f64::NAN]).is_err());
        assert!(SortedSamples::new(&[f64::INFINITY]).is_err());
        let s = SortedSamples::new(&[1.0]).unwrap();
        assert!(s.percentile(-0.1).is_err());
        assert!(s.percentile(100.1).is_err());
    }
}
