//! Fixed-boundary log2 latency histograms.
//!
//! Bucket boundaries are a compile-time function of the value, so two
//! histograms fed the same samples — in any order, from any number of
//! shards or threads — have identical bucket counts and therefore merge
//! deterministically by per-bucket addition. That is the property the
//! workload harness relies on to replace its hand-rolled latency vectors
//! without breaking record reproducibility.
//!
//! # Bucket layout
//!
//! Values below 64 get exact single-value buckets. From 64 up, each
//! power-of-two octave is split into [`SUB`] equal sub-buckets, so the
//! relative bucket width is at most `1/32` (~3.1%) everywhere. The full
//! `u64` range is covered by [`BUCKETS`] buckets; recorded quantiles are
//! exact nearest-rank answers up to that bucket resolution.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave.
pub const SUB: u64 = 32;
/// `log2(SUB)`.
pub const SUB_BITS: u32 = 5;
/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = 1920;

/// Bucket index of `value`; monotone in `value`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < 2 * SUB {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        (shift as usize) * SUB as usize + (value >> shift) as usize
    }
}

/// Inclusive `[lower, upper]` value range of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index < 2 * SUB as usize {
        (index as u64, index as u64)
    } else {
        let shift = (index / SUB as usize - 1) as u32;
        let mantissa = SUB + (index % SUB as usize) as u64;
        let lower = mantissa << shift;
        (lower, lower + ((1u64 << shift) - 1))
    }
}

/// A lock-free histogram: one atomic counter per fixed bucket.
///
/// Recording is two relaxed `fetch_add`s; reads happen through
/// [`Histogram::snapshot`]. Under concurrent recording a snapshot is a
/// consistent per-bucket view (`count` is derived from the buckets), while
/// `sum` may trail by in-flight samples.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A sparse, serialisable copy of the current bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push(BucketCount {
                    index: index as u32,
                    count: n,
                });
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index (see [`bucket_bounds`]).
    pub index: u32,
    /// Samples recorded in this bucket.
    pub count: u64,
}

/// An immutable, serialisable view of a [`Histogram`].
///
/// Snapshots merge deterministically ([`HistogramSnapshot::merge`]) and
/// answer nearest-rank quantile queries exactly up to bucket resolution.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// True if no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest possible value of the highest non-empty bucket, 0 if empty.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        self.sorted_buckets()
            .last()
            .map_or(0, |bucket| bucket_bounds(bucket.index as usize).1)
    }

    /// Fold `other` into `self` by per-bucket addition.
    ///
    /// Merging is associative and commutative: any grouping of
    /// shard/thread-local histograms over the same samples produces the
    /// same merged snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut dense = vec![0u64; BUCKETS];
        for bucket in self.buckets.iter().chain(other.buckets.iter()) {
            dense[bucket.index as usize] += bucket.count;
        }
        self.count += other.count;
        // Sums wrap, matching the live histogram's atomic fetch_add.
        self.sum = self.sum.wrapping_add(other.sum);
        self.buckets = dense
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(index, &count)| BucketCount {
                index: index as u32,
                count,
            })
            .collect();
    }

    /// Nearest-rank `p`-quantile, reported as the upper bound of the
    /// bucket holding the ranked sample; 0 if the histogram is empty.
    ///
    /// The rank convention is the nearest-rank percentile of a sorted
    /// sample: `rank = ceil(p * count)` clamped to `[1, count]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u64 {
        self.quantile_bounds(p).1
    }

    /// Inclusive `[lower, upper]` value range of the bucket holding the
    /// nearest-rank `p`-quantile; `(0, 0)` if empty.
    ///
    /// The exact sorted-percentile answer over the same samples is
    /// guaranteed to lie inside these bounds.
    #[must_use]
    pub fn quantile_bounds(&self, p: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = {
            let raw = (p * self.count as f64).ceil() as u64;
            raw.clamp(1, self.count)
        };
        let mut cumulative = 0u64;
        for bucket in self.sorted_buckets() {
            cumulative += bucket.count;
            if cumulative >= rank {
                return bucket_bounds(bucket.index as usize);
            }
        }
        // Unreachable when counts are consistent; fall back to the top
        // bucket rather than panicking on a hand-built snapshot.
        self.sorted_buckets()
            .last()
            .map_or((0, 0), |bucket| bucket_bounds(bucket.index as usize))
    }

    /// Buckets ascending by index (deserialised snapshots may be unsorted).
    fn sorted_buckets(&self) -> Vec<BucketCount> {
        let mut buckets = self.buckets.clone();
        buckets.sort_by_key(|bucket| bucket.index);
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_invert_it() {
        let mut probes: Vec<u64> = (0..200)
            .chain((6..64).flat_map(|e| {
                let base = 1u64 << e;
                [base - 1, base, base + 1, base + base / 3]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        probes.sort_unstable();
        let mut last = 0usize;
        for (position, &value) in probes.iter().enumerate() {
            let index = bucket_index(value);
            assert!(index < BUCKETS);
            let (lower, upper) = bucket_bounds(index);
            assert!(
                lower <= value && value <= upper,
                "{value} outside [{lower}, {upper}] of bucket {index}"
            );
            if position > 0 {
                assert!(index >= last, "bucket_index not monotone at {value}");
            }
            last = index;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn buckets_tile_the_range_exactly() {
        let mut expected_lower = 0u64;
        for index in 0..BUCKETS {
            let (lower, upper) = bucket_bounds(index);
            assert_eq!(lower, expected_lower, "gap or overlap at bucket {index}");
            assert!(upper >= lower);
            if index + 1 < BUCKETS {
                expected_lower = upper + 1;
            } else {
                assert_eq!(upper, u64::MAX);
            }
        }
    }

    #[test]
    fn relative_width_is_bounded() {
        for index in 2 * SUB as usize..BUCKETS {
            let (lower, upper) = bucket_bounds(index);
            let width = upper - lower + 1;
            assert!(
                width <= lower / SUB,
                "bucket {index}: width {width} vs lower {lower}"
            );
        }
    }

    #[test]
    fn quantiles_walk_nearest_rank() {
        let histogram = Histogram::new();
        for value in 1..=100u64 {
            histogram.record(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 100);
        assert_eq!(snapshot.sum, 5050);
        // Values 1..=63 land in exact buckets: the p50 (rank 50) is exact.
        assert_eq!(snapshot.quantile_bounds(0.5), (50, 50));
        // Rank 99 = value 99 lands in the [96, 98]/[99, 101]-style octave
        // buckets: exact answer must sit inside the reported bounds.
        let (lower, upper) = snapshot.quantile_bounds(0.99);
        assert!((lower..=upper).contains(&99));
        assert_eq!(snapshot.quantile(1.0), snapshot.max_value());
    }

    #[test]
    fn merge_matches_single_feed() {
        let all = Histogram::new();
        let left = Histogram::new();
        let right = Histogram::new();
        for value in [0u64, 1, 63, 64, 65, 1000, 1_000_000, u64::MAX] {
            all.record(value);
            if value % 2 == 0 {
                left.record(value);
            } else {
                right.record(value);
            }
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn empty_snapshot_answers_zero() {
        let snapshot = Histogram::new().snapshot();
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.quantile(0.5), 0);
        assert_eq!(snapshot.max_value(), 0);
    }
}
