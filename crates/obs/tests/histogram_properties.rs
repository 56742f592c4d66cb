//! Property tests for the log2 histogram: deterministic merge and
//! quantile agreement with exact sorted-percentile computation.

use fedfl_obs::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, Metric, Recorder, Registry,
};
use proptest::prelude::*;

/// The nearest-rank percentile over raw samples, the exact answer the
/// histogram's quantiles must bracket.
fn exact_percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn feed(samples: &[u64]) -> HistogramSnapshot {
    let histogram = Histogram::new();
    for &sample in samples {
        histogram.record(sample);
    }
    histogram.snapshot()
}

proptest! {
    /// Splitting samples across any number of shard-local histograms, in
    /// any order, and merging in any grouping, is identical to one
    /// histogram fed everything.
    #[test]
    fn merge_is_order_and_partition_independent(
        samples in prop::collection::vec(0u64..u64::MAX, 1..200),
        cut_a in 0usize..200,
        cut_b in 0usize..200,
    ) {
        let single = feed(&samples);

        // Partition into three shard-local histograms.
        let cut_a = cut_a.min(samples.len());
        let cut_b = cut_b.min(samples.len()).max(cut_a);
        let (head, tail) = samples.split_at(cut_a);
        let (mid, tail) = tail.split_at(cut_b - cut_a);

        // Reverse one shard: per-sample order must not matter.
        let mut reversed_mid: Vec<u64> = mid.to_vec();
        reversed_mid.reverse();

        // Merge grouping 1: ((head ⊕ mid) ⊕ tail).
        let mut left = feed(head);
        left.merge(&feed(&reversed_mid));
        left.merge(&feed(tail));

        // Merge grouping 2: (tail ⊕ (mid ⊕ head)) — different association
        // and commutation.
        let mut inner = feed(mid);
        inner.merge(&feed(head));
        let mut right = feed(tail);
        right.merge(&inner);

        prop_assert_eq!(&left, &single);
        prop_assert_eq!(&right, &single);
        prop_assert_eq!(left.count, samples.len() as u64);
    }

    /// The recorded quantile brackets the exact sorted-percentile answer
    /// within one bucket boundary, for the same nearest-rank convention
    /// the workload reports use.
    #[test]
    fn quantiles_match_exact_percentile_within_one_bucket(
        samples in prop::collection::vec(0u64..1_000_000_000_000, 1..300),
        p in 0.01f64..1.0,
    ) {
        let snapshot = feed(&samples);
        let exact = exact_percentile(&samples, p);
        let (lower, upper) = snapshot.quantile_bounds(p);
        prop_assert!(
            lower <= exact && exact <= upper,
            "exact {} outside bucket [{}, {}] at p={}",
            exact, lower, upper, p
        );
        // The reported point answer is the bucket upper bound.
        prop_assert_eq!(snapshot.quantile(p), upper);
        // One bucket boundary: the reported value's bucket is the exact
        // answer's bucket.
        prop_assert_eq!(bucket_index(upper), bucket_index(exact));
    }

    /// Bucket index and bounds are mutually consistent everywhere.
    #[test]
    fn bucket_bounds_invert_bucket_index(value in any::<u64>()) {
        let index = bucket_index(value);
        let (lower, upper) = bucket_bounds(index);
        prop_assert!(lower <= value && value <= upper);
        // Relative width bound: upper/lower < 1 + 1/32 above the exact range.
        if lower >= 64 {
            prop_assert!(upper - lower < lower / 32 + 1);
        }
    }
}

/// Thread-local histograms merged across real threads equal a single
/// histogram fed the union — the shard-worker use case.
#[test]
fn threaded_merge_matches_single_feed() {
    let samples: Vec<u64> = (0..10_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let single = feed(&samples);

    let chunks: Vec<Vec<u64>> = samples.chunks(1013).map(<[u64]>::to_vec).collect();
    let merged = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| scope.spawn(|| feed(chunk)))
            .collect();
        let mut merged = HistogramSnapshot::default();
        for handle in handles {
            merged.merge(&handle.join().expect("histogram thread"));
        }
        merged
    });
    assert_eq!(merged, single);
}

/// Concurrent recording into one shared registry loses nothing.
#[test]
fn concurrent_registry_recording_is_lossless() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for thread in 0..4u64 {
            let registry = &registry;
            scope.spawn(move || {
                for i in 0..1000u64 {
                    registry.add(Metric::SolverProbeEvaluations, 1);
                    registry.observe(Metric::SolverSolveNs, thread * 1000 + i);
                }
            });
        }
    });
    assert_eq!(registry.counter(Metric::SolverProbeEvaluations), 4000);
    assert_eq!(registry.histogram(Metric::SolverSolveNs).count, 4000);
}
