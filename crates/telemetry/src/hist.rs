//! Fixed-footprint power-of-two histogram.
//!
//! Sixty-five inline buckets — one for zero, one per `ilog2` class of a
//! `u64` — so a histogram is a flat value type with no heap storage at
//! all: observing is a shift, an increment and three scalar updates.
//! That makes it safe to record from inside the allocation-disciplined
//! timing hot loop, and cheap enough to keep one per profiled quantity
//! (the ROB/IQ/LQ/SQ occupancies).

use crate::json::JsonValue;

/// Number of buckets: value `0`, then one bucket per power-of-two class
/// `[2^k, 2^(k+1))` for `k` in `0..64`.
pub const NUM_BUCKETS: usize = 65;

/// Power-of-two histogram with exact count/sum/min/max sidecars.
///
/// Bucket resolution is coarse (factor of two), which is exactly what
/// occupancy and latency *distributions* need; the exact moments come
/// from the sidecars. Percentiles are therefore upper bounds of the
/// bucket in which the requested rank falls.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: `0` for zero, `1 + ilog2(v)` otherwise.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            1 + v.ilog2() as usize
        }
    }

    /// Inclusive upper bound of a bucket (the value reported for ranks
    /// falling inside it).
    fn bucket_high(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Records one sample. Allocation-free.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (wrapping, which no simulated
    /// quantity approaches).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `p`-th percentile rank
    /// (`0 < p <= 100`); `0` when empty. Exact for the min/max ends,
    /// within a factor of two elsewhere — the resolution this histogram
    /// trades for its fixed footprint.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_high(idx).min(self.max);
            }
        }
        self.max
    }

    /// The standard `(p50, p90, p99)` summary triple every renderer
    /// shows — one bucket walk per quantile via [`Histogram::percentile`].
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
        )
    }

    /// JSON summary: `{count, sum, min, max, mean, p50, p90, p99}` — the
    /// shape the `--json` export and the perf snapshots embed.
    pub fn to_json(&self) -> JsonValue {
        let (p50, p90, p99) = self.quantiles();
        JsonValue::Obj(vec![
            ("count".into(), JsonValue::Int(self.count)),
            ("sum".into(), JsonValue::Int(self.sum)),
            ("min".into(), JsonValue::Int(self.min())),
            ("max".into(), JsonValue::Int(self.max)),
            ("mean".into(), JsonValue::Num(self.mean())),
            ("p50".into(), JsonValue::Int(p50)),
            ("p90".into(), JsonValue::Int(p90)),
            ("p99".into(), JsonValue::Int(p99)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_classes_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn moments_are_exact() {
        let mut h = Histogram::new();
        for v in [5, 1, 9, 3] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 18);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 9);
        assert!((h.mean() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_bound_the_true_rank_within_a_bucket() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        // p100 is the exact max; lower percentiles are bucket upper
        // bounds, never below the true value's bucket.
        assert_eq!(h.percentile(100.0), 100);
        let (p50, p90, p99) = h.quantiles();
        assert!((50..=63).contains(&p50), "p50={p50}");
        assert!((90..=100).contains(&p90), "p90={p90}");
        assert!((99..=100).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile(1.0), 1);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
