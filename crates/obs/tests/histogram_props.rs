//! Property tests for `Histogram::merge`.
//!
//! The sweep pipeline relies on two facts when it pools per-run
//! histograms into sweep-level percentiles: (1) merging is exactly the
//! same as having recorded the whole stream into one histogram — bucket
//! counts are additive and min/max/sum/count fold losslessly, so *how*
//! runs are partitioned across workers can never change a pooled
//! percentile; (2) a merged quantile never leaves the envelope of its
//! inputs' quantiles — the merged CDF is a pointwise convex combination
//! of the input CDFs, so p50/p99 are monotone under merge.

use dds_obs::Histogram;
use proptest::prelude::*;

fn from_samples(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Samples spanning the exact range, the bucketed mid range, and huge
/// magnitudes, so splits cross bucket-resolution boundaries.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..32, 32u64..10_000, (0u32..63).prop_map(|b| 1u64 << b),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Splitting a stream anywhere and merging the parts reproduces the
    /// whole-stream histogram exactly (full structural equality: bucket
    /// counts, count, sum, min, max).
    #[test]
    fn merge_of_splits_equals_whole_stream(
        samples in proptest::collection::vec(sample(), 0..200),
        cut in 0usize..200,
    ) {
        let cut = cut.min(samples.len());
        let whole = from_samples(&samples);
        let mut merged = from_samples(&samples[..cut]);
        merged.merge(&from_samples(&samples[cut..]));
        prop_assert_eq!(merged, whole);
    }

    /// Merging in any number of chunks is equivalent to one stream — the
    /// generalization `fold_sweep` actually relies on (one histogram per
    /// run, pooled in seed order).
    #[test]
    fn chunked_merge_equals_whole_stream(
        chunks in proptest::collection::vec(
            proptest::collection::vec(sample(), 0..40),
            0..8,
        ),
    ) {
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let whole = from_samples(&all);
        let mut merged = Histogram::new();
        for chunk in &chunks {
            merged.merge(&from_samples(chunk));
        }
        prop_assert_eq!(merged, whole);
    }

    /// A merged quantile stays within the envelope of the inputs'
    /// quantiles: min(qa, qb) <= q(merge) <= max(qa, qb) for p50 and p99.
    #[test]
    fn quantiles_are_monotone_under_merge(
        a in proptest::collection::vec(sample(), 1..150),
        b in proptest::collection::vec(sample(), 1..150),
    ) {
        let ha = from_samples(&a);
        let hb = from_samples(&b);
        let mut merged = ha.clone();
        merged.merge(&hb);
        for p in [50.0, 99.0] {
            let (qa, qb, qm) = (ha.percentile(p), hb.percentile(p), merged.percentile(p));
            prop_assert!(
                qa.min(qb) <= qm && qm <= qa.max(qb),
                "p{p}: merged {qm} outside [{}, {}]",
                qa.min(qb),
                qa.max(qb)
            );
        }
    }

    /// Merging an empty histogram is the identity.
    #[test]
    fn merging_empty_is_identity(samples in proptest::collection::vec(sample(), 0..100)) {
        let h = from_samples(&samples);
        let mut merged = h.clone();
        merged.merge(&Histogram::new());
        prop_assert_eq!(&merged, &h);
        let mut other_way = Histogram::new();
        other_way.merge(&h);
        prop_assert_eq!(other_way, h);
    }
}
