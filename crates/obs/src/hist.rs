//! Log-bucketed histogram: the workspace's one histogram, behind the
//! cumulative aggregator, the rolling windows ([`crate::window`]), journal
//! `hist_bucket` records, `PI_OBS=summary` and `pi obs-report`.
//!
//! A finite positive value lands in bucket `floor(SUB * log2(v))`, `SUB`
//! (16) sub-buckets per octave, so each bucket spans a ratio of
//! `2^(1/16) ≈ 1.044` across the full f64 range in a sparse map of
//! occupied buckets. Zero, negative and non-finite values share one
//! underflow bucket. Merging is bucket-wise addition, so the aggregate is
//! independent of per-thread merge order.
//!
//! Latency quantiles are why the resolution is sub-binary: a 2x bucket
//! quantized to its midpoint can be ~41% off, while geometric
//! interpolation inside a 1/16-octave bucket bounds the worst-case
//! quantile error to under ~4.5%. That is tight enough for the verify.sh
//! gate that compares the served 60 s-window p99 against the client-side
//! pi-load p99 at 15%, with room for real client/server measurement skew.

use std::collections::BTreeMap;

/// Sub-buckets per power of two.
const SUB: i32 = 16;

/// Bucket index for zero/negative/non-finite values.
const UNDERFLOW: i32 = i32::MIN;

/// A sparse log-bucketed histogram with 16 sub-buckets per octave.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Hist {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
}

/// A materialized histogram bucket: counts of values in `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bucket {
    /// Inclusive lower bound (0 for the underflow bucket).
    pub lo: f64,
    /// Exclusive upper bound (0 for the underflow bucket).
    pub hi: f64,
    /// Number of recorded values in the bucket.
    pub count: u64,
}

fn index(v: f64) -> i32 {
    if !v.is_finite() || v <= 0.0 {
        return UNDERFLOW;
    }
    let i = (f64::from(SUB) * v.log2()).floor();
    // Keep 2^(i/SUB) representable when materializing bounds.
    let cap = f64::from(SUB) * 1020.0;
    i.clamp(-cap, cap) as i32
}

fn bucket(i: i32, count: u64) -> Bucket {
    if i == UNDERFLOW {
        return Bucket {
            lo: 0.0,
            hi: 0.0,
            count,
        };
    }
    Bucket {
        lo: (f64::from(i) / f64::from(SUB)).exp2(),
        hi: (f64::from(i + 1) / f64::from(SUB)).exp2(),
        count,
    }
}

/// Approximate `q`-quantile of `count` values held in `buckets`
/// (ascending value order, underflow first), with geometric interpolation
/// inside the bucket containing the q-th value. Returns 0 when `count` is
/// 0 or the q-th value lies in the underflow bucket. [`Hist::quantile`]
/// and `pi obs-report` (over journaled buckets) both answer through this.
#[must_use]
pub fn quantile(buckets: impl IntoIterator<Item = Bucket>, count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for b in buckets {
        let before = seen;
        seen += b.count;
        if seen >= target {
            if b.hi <= 0.0 {
                return 0.0;
            }
            // Position of the target rank within the bucket, applied on
            // the log scale the buckets live on.
            let frac = (target - before) as f64 / b.count as f64;
            return b.lo * (b.hi / b.lo).powf(frac.clamp(0.0, 1.0));
        }
    }
    0.0
}

impl Hist {
    /// Records one value.
    pub fn record(&mut self, v: f64) {
        *self.buckets.entry(index(v)).or_insert(0) += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
        }
    }

    /// Adds all of `other`'s buckets into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (i, c) in &other.buckets {
            *self.buckets.entry(*i).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite recorded values. Bucket counts are exact and
    /// merge-order independent; the sum is a float accumulated in merge
    /// order, so treat it as observational (means, Prometheus `_sum`), not
    /// as a bit-pinned result.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Occupied buckets in ascending value order.
    #[must_use]
    pub fn buckets(&self) -> Vec<Bucket> {
        self.iter().collect()
    }

    fn iter(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.buckets.iter().map(|(i, c)| bucket(*i, *c))
    }

    /// Approximate quantile; see [`quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(self.iter(), self.count, q)
    }

    /// Exclusive upper bound of the highest occupied bucket (0 when empty).
    #[must_use]
    pub fn max_bound(&self) -> f64 {
        self.buckets
            .iter()
            .next_back()
            .map_or(0.0, |(i, c)| bucket(*i, *c).hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_sixteen_per_octave() {
        let mut h = Hist::default();
        h.record(1.0); // [1, 2^(1/16))
        h.record(1.04); // [1, 2^(1/16))
        h.record(1.5); // [2^(9/16), 2^(10/16))
        h.record(2.0); // [2, 2^(17/16))
        h.record(0.0); // underflow
        h.record(-4.0); // underflow
        assert_eq!(h.count(), 6);
        let b = h.buckets();
        assert_eq!(b.len(), 4);
        assert_eq!((b[0].lo, b[0].hi, b[0].count), (0.0, 0.0, 2));
        assert_eq!(
            (b[1].lo, b[1].hi, b[1].count),
            (1.0, (1.0f64 / 16.0).exp2(), 2)
        );
        assert_eq!(b[2].count, 1);
        assert!(b[2].lo <= 1.5 && 1.5 < b[2].hi);
        assert_eq!(b[2].lo, (9.0f64 / 16.0).exp2());
        assert_eq!((b[3].lo, b[3].count), (2.0, 1));
        assert_eq!(h.max_bound(), b[3].hi);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(2.0);
        b.record(2.0);
        b.record(-1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        let buckets = a.buckets();
        assert_eq!(
            (buckets[0].lo, buckets[0].hi, buckets[0].count),
            (0.0, 0.0, 1)
        );
        assert_eq!(buckets[1].count, 2);
        assert!(buckets[1].lo <= 2.0 && 2.0 < buckets[1].hi);
        assert!((a.sum() - 103.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Hist::default();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!(p50 <= p95);
        assert!((p50 / 500.0 - 1.0).abs() < 0.05, "p50 {p50}");
        assert!((p95 / 950.0 - 1.0).abs() < 0.05, "p95 {p95}");
        assert!(h.max_bound() >= 1000.0);
    }

    #[test]
    fn point_mass_quantile_lands_within_one_sub_bucket() {
        let mut h = Hist::default();
        for _ in 0..1000 {
            h.record(1000.0);
        }
        // All mass at one point: the interpolated quantile must land within
        // one sub-bucket ratio (2^(1/16) ≈ 1.044) of the true value.
        let p99 = h.quantile(0.99);
        assert!((p99 / 1000.0 - 1.0).abs() < 0.05, "p99 {p99}");
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Hist::default();
        h.record(f64::MIN_POSITIVE);
        h.record(f64::MAX);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 4);
        for b in h.buckets() {
            assert!(b.lo.is_finite() && b.hi.is_finite());
        }
        assert!(h.quantile(0.99).is_finite());
    }
}
