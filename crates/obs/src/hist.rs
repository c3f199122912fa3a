//! The workspace's one histogram type.
//!
//! [`LatencyHistogram`] is an HDR-style log-linear histogram: values are
//! bucketed by magnitude (power of two) with 64 linear sub-buckets per
//! magnitude, giving ~1.6 % relative bucket width over the full `u64`
//! nanosecond range in a fixed 30 KiB footprint and O(1) recording — cheap
//! enough to record every lookup at millions per second. Quantiles come
//! from a cumulative walk and are reported as the containing bucket's
//! **midpoint**, clamped to the exact tracked maximum, so the worst-case
//! quantile error is half a bucket (~0.8 % relative, plus one count of
//! rank granularity).
//!
//! This type started life inside `tcam-serve`; it moved here so the
//! serving, solver, and bench layers all share one implementation (and
//! one set of correctness tests).

/// Linear sub-buckets per power-of-two magnitude (2⁶ → ~1.6 % resolution).
const SUB_BITS: u32 = 6;
const SUBS: u64 = 1 << SUB_BITS;
/// Bucket count covering every `u64` value: magnitudes `SUB_BITS..=63`
/// each contribute `SUBS` buckets on top of the exact linear range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUBS as usize;

/// A log-linear latency histogram (see module docs). Values are in
/// nanoseconds by convention, but any `u64` works.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket containing `v`. Total function over `u64`;
/// monotone non-decreasing in `v`. Inverse of [`value_of`] in the
/// round-trip sense `value_of(bucket_of(v)) <= v`.
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros());
    let shift = msb - u64::from(SUB_BITS);
    let sub = (v >> shift) - SUBS;
    ((shift + 1) * SUBS + sub) as usize
}

/// Lowest value mapping into `bucket` — the bucket's inclusive lower
/// bound. Monotone non-decreasing in `bucket`.
#[must_use]
pub fn value_of(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < SUBS {
        return b;
    }
    let shift = b / SUBS - 1;
    let sub = b % SUBS;
    (SUBS + sub) << shift
}

/// Width of `bucket` in representable values (1 for the exact linear
/// range, doubling every magnitude above it).
#[must_use]
pub fn bucket_width(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < 2 * SUBS {
        return 1;
    }
    1u64 << (b / SUBS - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Records `v` with multiplicity `n` in O(1) — the batched serving
    /// path measures one latency per drained batch and attributes it to
    /// every key in the batch, keeping `count()` equal to the lookup
    /// counter without a clock read per key. No-op when `n` is 0.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-th percentile (0–100), reported as the containing bucket's
    /// **midpoint** clamped to the tracked maximum; 0 when empty.
    ///
    /// # Error bound
    ///
    /// Buckets are ~1.6 % wide (2⁻⁶ relative), so the midpoint is within
    /// half a bucket — ~0.8 % relative — of the true order statistic.
    /// (The previous lower-bound convention had a one-sided ~1.6 % error;
    /// the midpoint halves it and centres it.) The top quantile is exact:
    /// when the target order statistic is the last one, the tracked
    /// maximum is returned, so `quantile(100.0) == max()` always, and no
    /// quantile ever exceeds the maximum.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 100]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=100.0).contains(&q), "quantile {q} outside [0, 100]");
        if self.count == 0 {
            return 0;
        }
        // Rank of the target order statistic, at least 1.
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = value_of(bucket) + bucket_width(bucket) / 2;
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Preserves totals exactly:
    /// the merged count, sum, and max equal those of recording both
    /// streams into one histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_numeric::rng::SplitMix64;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0usize;
        for exp in 0..63u32 {
            for v in [1u64 << exp, (1u64 << exp) + 1, (1u64 << exp) * 3 / 2] {
                let b = bucket_of(v);
                assert!(b >= last || v < SUBS * 2, "bucket order at {v}");
                last = last.max(b);
                let lo = value_of(b);
                assert!(lo <= v, "lower bound {lo} > {v}");
                // Relative error bounded by one sub-bucket (~1/64).
                assert!(
                    (v - lo) as f64 <= v as f64 / SUBS as f64 + 1.0,
                    "bucket too wide at {v}: lo {lo}"
                );
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUBS * 2 {
            assert_eq!(value_of(bucket_of(v)), v);
            assert_eq!(bucket_width(bucket_of(v)), 1);
        }
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut rng = SplitMix64::new(0xC0DE);
        let mut bulk = LatencyHistogram::new();
        let mut loop_rec = LatencyHistogram::new();
        for _ in 0..200 {
            let v = rng.next_u64() >> (rng.below(40) as u32);
            let n = rng.below(17);
            bulk.record_n(v, n);
            for _ in 0..n {
                loop_rec.record(v);
            }
        }
        bulk.record_n(42, 0); // no-op
        assert_eq!(bulk, loop_rec);
    }

    /// Property: over SplitMix64-sampled `u64`s spanning every magnitude,
    /// `bucket_of`/`value_of` round-trip as a monotone Galois pair:
    /// `floor(b) <= v < floor(b) + width(b)`, and sorting values sorts
    /// buckets.
    #[test]
    fn bucket_roundtrip_property() {
        let mut rng = SplitMix64::new(0x0b5e_7e57);
        let mut draws: Vec<u64> = Vec::with_capacity(4096);
        for _ in 0..4096 {
            // Spread draws across the full log range.
            let shift = rng.next_u64() % 64;
            draws.push(rng.next_u64() >> shift);
        }
        draws.extend([0, 1, SUBS - 1, SUBS, 2 * SUBS, u64::MAX]);
        for &v in &draws {
            let b = bucket_of(v);
            let lo = value_of(b);
            let w = bucket_width(b);
            assert!(lo <= v, "floor {lo} > {v}");
            assert!(
                v - lo < w,
                "value {v} outside bucket [{lo}, {lo}+{w}) (bucket {b})"
            );
            // The floor is a fixed point: it maps back to the same bucket.
            assert_eq!(bucket_of(lo), b, "floor of bucket {b} not a fixed point");
        }
        draws.sort_unstable();
        for pair in draws.windows(2) {
            assert!(
                bucket_of(pair[0]) <= bucket_of(pair[1]),
                "bucket_of not monotone at {} <= {}",
                pair[0],
                pair[1]
            );
        }
    }

    /// Property: `merge` preserves count, sum, and max exactly, and yields
    /// the same quantiles as recording the combined stream directly.
    #[test]
    fn merge_preserves_totals_property() {
        let mut rng = SplitMix64::new(0x9e3e_1212);
        for trial in 0..50 {
            let mut a = LatencyHistogram::new();
            let mut b = LatencyHistogram::new();
            let mut whole = LatencyHistogram::new();
            let n = 1 + (rng.next_u64() % 300) as usize;
            for _ in 0..n {
                let shift = rng.next_u64() % 50;
                let v = rng.next_u64() >> shift;
                if rng.next_u64().is_multiple_of(2) {
                    a.record(v);
                } else {
                    b.record(v);
                }
                whole.record(v);
            }
            let (ca, sa, ma) = (a.count(), a.sum(), a.max());
            let (cb, sb, mb) = (b.count(), b.sum(), b.max());
            a.merge(&b);
            assert_eq!(a.count(), ca + cb, "trial {trial}: count not additive");
            assert_eq!(a.sum(), sa + sb, "trial {trial}: sum not additive");
            assert_eq!(a.max(), ma.max(mb), "trial {trial}: max not preserved");
            assert_eq!(a.count(), whole.count());
            assert_eq!(a.sum(), whole.sum());
            assert_eq!(a.max(), whole.max());
            for q in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    a.quantile(q),
                    whole.quantile(q),
                    "trial {trial}: quantile({q}) diverged after merge"
                );
            }
        }
    }

    /// Regression: the median of a known uniform distribution is reported
    /// within the bucket resolution. The old lower-bound convention
    /// systematically under-read (p50 of uniform 1..=1000 came back 500
    /// only because that value sits on a bucket floor; mid-bucket medians
    /// read up to 1.6 % low). The midpoint pins the error to half a
    /// bucket.
    #[test]
    fn quantile_midpoint_regression() {
        // Uniform 1..=1000: true median 500 (rank 500 of 1000).
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(50.0);
        // Bucket containing 500 is [500, 504) (width 4): midpoint 502.
        assert_eq!(p50, 502);
        assert!(
            (p50 as f64 - 500.0).abs() / 500.0 <= 0.016,
            "p50 {p50} outside the ~1.6 % resolution bound"
        );

        // A mid-bucket median: uniform over one wide bucket. 10_000 sits
        // in a width-128 bucket [9984, 10112); record values straddling
        // the middle and check the midpoint lands within half a bucket.
        let mut h = LatencyHistogram::new();
        for v in 9984..10112u64 {
            h.record(v);
        }
        let p50 = h.quantile(50.0);
        let true_median = 10047;
        assert!(
            (p50 as f64 - true_median as f64).abs() <= 64.0 + 1.0,
            "p50 {p50} further than half a bucket from {true_median}"
        );

        // Scale-free: the bound holds across magnitudes.
        for scale in [1u64, 1 << 10, 1 << 20, 1 << 40] {
            let mut h = LatencyHistogram::new();
            for i in 1..=999u64 {
                h.record(i * scale);
            }
            let p50 = h.quantile(50.0) as f64;
            let truth = (500 * scale) as f64;
            assert!(
                (p50 - truth).abs() / truth <= 0.016,
                "scale {scale}: p50 {p50} vs {truth}"
            );
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(50.0);
        let p99 = h.quantile(99.0);
        assert!((495..=505).contains(&p50), "p50 {p50}");
        assert!((975..=998).contains(&p99), "p99 {p99}");
        assert!(p99 > p50);
        assert_eq!(h.quantile(100.0), 1000);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn top_quantile_is_exact_max() {
        // A max that falls strictly inside a wide bucket: lower-bound
        // reporting under-read the tail; midpoint reporting could
        // over-read it. The explicit max clamp keeps p100 exact.
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record(1015);
        assert_eq!(h.quantile(100.0), 1015);
        assert_eq!(h.quantile(100.0), h.max());
    }

    #[test]
    fn quantiles_never_exceed_max_property() {
        let mut rng = SplitMix64::new(0x5eed_7e1e);
        for trial in 0..200 {
            let mut h = LatencyHistogram::new();
            let n = 1 + (rng.next_u64() % 64) as usize;
            let mut true_max = 0u64;
            for _ in 0..n {
                let shift = rng.next_u64() % 50;
                let v = rng.next_u64() >> (14 + shift);
                h.record(v);
                true_max = true_max.max(v);
            }
            assert_eq!(h.max(), true_max, "trial {trial}");
            assert_eq!(
                h.quantile(100.0),
                true_max,
                "trial {trial}: p100 must be the exact max"
            );
            // Monotonicity and bounds survive midpoint reporting + clamp.
            let p50 = h.quantile(50.0);
            let p999 = h.quantile(99.9);
            assert!(p50 <= p999 && p999 <= true_max, "trial {trial}");
        }
    }
}
