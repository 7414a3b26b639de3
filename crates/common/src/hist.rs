//! Lock-free log-scale latency histogram (fixed-bucket, HDR-style).
//!
//! The bucketing scheme mirrors HdrHistogram with a fixed precision of
//! [`SUB_BITS`] significant bits: values below `2^SUB_BITS` land in
//! linear unit buckets, and every higher octave `[2^k, 2^(k+1))` is
//! split into `2^SUB_BITS` equal sub-buckets. With `SUB_BITS = 4` that
//! is 16 sub-buckets per octave, bounding relative quantile error at
//! `1/16 ≈ 6.25%` — plenty for p50/p95/p99 reporting — while keeping
//! the whole table at [`BUCKETS`] (976) atomics, small enough to sit in
//! L2 and to merge cheaply.
//!
//! All mutation is a handful of relaxed atomic adds, so recording from
//! many threads never blocks and never loses counts (satellite: the
//! 8-thread hammer test in `btrim-obs`). Reads (`snapshot`) are racy by
//! design, exactly like [`crate::ShardedCounter::load`]: a snapshot
//! taken mid-record may see the count without the sum or vice versa,
//! which only perturbs the reported mean by one sample.

use crate::atomics::Relaxed;

/// Sub-bucket precision: each octave is split into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS; // 16

/// Total bucket count: 16 unit buckets for values `< 16`, plus 16
/// sub-buckets for each of the 60 octaves `[2^4, 2^64)`.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_COUNT + SUB_COUNT;

/// Map a recorded value to its bucket index.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS here
    let sub = (value >> (msb - SUB_BITS)) as usize & (SUB_COUNT - 1);
    (msb - SUB_BITS + 1) as usize * SUB_COUNT + sub
}

/// Inclusive lower bound of a bucket: the smallest value that maps to it.
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let octave = (index / SUB_COUNT - 1) as u32 + SUB_BITS;
    let sub = (index % SUB_COUNT) as u64;
    (1u64 << octave) + (sub << (octave - SUB_BITS))
}

/// Inclusive upper bound of a bucket: the largest value that maps to it.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_lower_bound(index + 1) - 1
}

/// A mergeable, lock-free latency histogram.
///
/// Values are whatever unit the caller picks (the engine records
/// nanoseconds). Boxed bucket storage keeps the struct cheap to embed
/// behind an `Arc` without blowing up the owner's size.
pub struct LatencyHistogram {
    buckets: Box<[Relaxed<u64>; BUCKETS]>,
    count: Relaxed<u64>,
    sum: Relaxed<u64>,
    max: Relaxed<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        // An atomic is not Copy, so build the array through a Vec.
        let v: Vec<Relaxed<u64>> = (0..BUCKETS).map(|_| Relaxed::new(0)).collect();
        let buckets: Box<[Relaxed<u64>; BUCKETS]> = v.into_boxed_slice().try_into().ok().unwrap();
        Self {
            buckets,
            count: Relaxed::new(0),
            sum: Relaxed::new(0),
            max: Relaxed::new(0),
        }
    }

    /// Record one value. Three relaxed adds and a relaxed fetch-max.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1);
        self.count.fetch_add(1);
        self.sum.fetch_add(value);
        self.max.fetch_max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load()
    }

    /// Add every bucket of `other` into `self`. Concurrent records into
    /// either side during the merge are counted at most once, never lost.
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for i in 0..BUCKETS {
            let n = other.buckets[i].load();
            if n != 0 {
                self.buckets[i].fetch_add(n);
            }
        }
        self.count.fetch_add(other.count.load());
        self.sum.fetch_add(other.sum.load());
        self.max.fetch_max(other.max.load());
    }

    /// Reset all buckets to zero. Not atomic with respect to concurrent
    /// records; intended for quiesced use (tests, epoch boundaries).
    pub fn reset(&self) {
        for bucket in self.buckets.iter() {
            bucket.store(0);
        }
        self.count.store(0);
        self.sum.store(0);
        self.max.store(0);
    }

    /// Take a point-in-time copy of the bucket table for offline
    /// analysis (quantiles, summaries, JSON export).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|bucket| bucket.load()).collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(),
            sum: self.sum.load(),
            max: self.max.load(),
        }
    }

    /// Convenience: snapshot and summarize in one call.
    pub fn summary(&self) -> HistSummary {
        self.snapshot().summary()
    }
}

/// Immutable copy of a histogram's state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`, reported as the upper bound of
    /// the bucket holding the q-th sample (so the estimate never
    /// understates and is monotone in `q`). Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        // Use the bucket sum, not `count`: a racy snapshot may have seen
        // `count` ticked before the bucket add landed.
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q=0 maps to the first.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let ub = bucket_upper_bound(i);
                // Never report past the observed maximum.
                return if self.max != 0 { ub.min(self.max) } else { ub };
            }
        }
        self.max
    }

    pub fn summary(&self) -> HistSummary {
        let count = self.count;
        HistSummary {
            count,
            mean: self.sum.checked_div(count).unwrap_or(0),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// Percentile digest of a histogram, in the recorded unit (nanoseconds
/// for the engine's operation classes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub mean: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_unit_range() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
    }

    #[test]
    fn bounds_bracket_every_index() {
        // Every bucket's bounds round-trip through bucket_index.
        for i in 0..BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn bounds_are_contiguous() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper_bound(i) + 1, bucket_lower_bound(i + 1));
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn extreme_values() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_of_uniform_stream() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.50);
        // Bucketed estimate: within one sub-bucket (~6.25%) above truth.
        assert!((500..=540).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.summary().max, 1000);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn merge_equals_combined_stream() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for v in [3u64, 17, 900, 1 << 40, 5] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 250_000, 16, 15] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        let sa = a.snapshot();
        let sb = both.snapshot();
        assert_eq!(sa.buckets, sb.buckets);
        assert_eq!(sa.count, sb.count);
        assert_eq!(sa.sum, sb.sum);
        assert_eq!(sa.max, sb.max);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The total count always equals the sum over the bucket table
        /// (nothing recorded is ever dropped or double-counted).
        #[test]
        fn count_equals_bucket_sum(values in proptest::collection::vec(any::<u64>(), 0..512)) {
            let h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        }

        /// Quantile estimates never decrease as q grows, and stay
        /// within [min-bucket-bound, observed max].
        #[test]
        fn quantiles_are_monotone(values in proptest::collection::vec(any::<u64>(), 1..512)) {
            let h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
            let mut prev = 0u64;
            for &q in &qs {
                let est = s.quantile(q);
                prop_assert!(est >= prev, "quantile({}) = {} < {}", q, est, prev);
                prop_assert!(est <= s.max);
                prev = est;
            }
            prop_assert_eq!(s.quantile(1.0), *values.iter().max().unwrap());
        }

        /// Every recorded value lies inside the bounds of the bucket it
        /// maps to, and the bounds round-trip through bucket_index.
        #[test]
        fn bucket_bounds_bracket_values(values in proptest::collection::vec(any::<u64>(), 1..512)) {
            for &v in &values {
                let i = bucket_index(v);
                prop_assert!(i < BUCKETS);
                prop_assert!(bucket_lower_bound(i) <= v, "lb({}) > {}", i, v);
                prop_assert!(v <= bucket_upper_bound(i), "{} > ub({})", v, i);
                prop_assert_eq!(bucket_index(bucket_lower_bound(i)), i);
                prop_assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            }
        }

        /// merge(a, b) is indistinguishable from recording both streams
        /// into a single histogram.
        #[test]
        fn merge_matches_combined_recording(
            xs in proptest::collection::vec(any::<u64>(), 0..256),
            ys in proptest::collection::vec(any::<u64>(), 0..256),
        ) {
            let a = LatencyHistogram::new();
            let b = LatencyHistogram::new();
            let combined = LatencyHistogram::new();
            for &v in &xs {
                a.record(v);
                combined.record(v);
            }
            for &v in &ys {
                b.record(v);
                combined.record(v);
            }
            a.merge_from(&b);
            let sa = a.snapshot();
            let sc = combined.snapshot();
            prop_assert_eq!(sa.buckets, sc.buckets);
            prop_assert_eq!(sa.count, sc.count);
            prop_assert_eq!(sa.sum, sc.sum);
            prop_assert_eq!(sa.max, sc.max);
            // And the derived summaries agree too.
            prop_assert_eq!(a.summary(), combined.summary());
        }
    }
}
