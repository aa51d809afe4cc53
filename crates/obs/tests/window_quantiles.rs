//! Windowed-quantile merge math: rotation fixtures pinning exact bucket
//! counts, and a property test checking that quantiles read from the
//! merged sub-windows agree with quantiles of the concatenated raw
//! samples to within one power-of-two bucket.

use nwhy_obs::window::{bucket_upper_bound, WindowedHist, SUB_WINDOWS};
use proptest::prelude::*;

/// The pow2 bucket index a value lands in (same law as the histograms).
fn bucket_of(v: u64) -> usize {
    64 - v.leading_zeros() as usize
}

#[test]
fn fixture_bucket_counts_across_three_rotations() {
    let w = WindowedHist::new(50);
    // epoch 0 (ticks 0..50): 5, 5, 9
    w.observe(0, 5);
    w.observe(10, 5);
    w.observe(49, 9);
    // epoch 1: 70 (bucket 7), 2 (bucket 2)
    w.observe(50, 70);
    w.observe(99, 2);
    // epoch 2: 1024 (bucket 11)
    w.observe(100, 1024);
    let m = w.merged(149);
    assert_eq!(m.count, 6);
    assert_eq!(m.sum, 5 + 5 + 9 + 70 + 2 + 1024);
    assert_eq!(m.buckets[bucket_of(5)], 2);
    assert_eq!(m.buckets[bucket_of(9)], 1);
    assert_eq!(m.buckets[bucket_of(2)], 1);
    assert_eq!(m.buckets[bucket_of(70)], 1);
    assert_eq!(m.buckets[bucket_of(1024)], 1);
    assert_eq!(m.max, 1024);
}

#[test]
fn fixture_full_ring_rotation_displaces_oldest_epoch_exactly() {
    let w = WindowedHist::new(10);
    // One observation of value 2^e in each of epochs 0..8 — nine epochs,
    // one more than the ring holds.
    for epoch in 0..=SUB_WINDOWS as u64 {
        w.observe(epoch * 10, 1u64 << epoch);
    }
    let m = w.merged(SUB_WINDOWS as u64 * 10);
    // Epoch 0's sample (value 1) was displaced when epoch 8 reclaimed
    // its slot; epochs 1..=8 survive.
    assert_eq!(m.count, SUB_WINDOWS as u64);
    assert_eq!(m.buckets[bucket_of(1)], 0, "epoch 0 displaced");
    for epoch in 1..=SUB_WINDOWS {
        assert_eq!(
            m.buckets[bucket_of(1u64 << epoch)],
            1,
            "epoch {epoch} sample must survive"
        );
    }
    assert_eq!(m.max, 1u64 << SUB_WINDOWS);
}

#[test]
fn fixture_reader_rotation_without_new_writes() {
    // Reads far in the future must see an empty window even though no
    // write ever rotated the slots.
    let w = WindowedHist::new(10);
    w.observe(0, 999);
    assert_eq!(w.merged(5).count, 1);
    assert_eq!(w.merged(10_000).count, 0);
    assert_eq!(w.merged(10_000).quantile(0.5), None);
}

/// Samples paired with a tick offset inside the trailing window.
fn arb_samples() -> impl Strategy<Value = Vec<(u64, u64)>> {
    // (tick within one window width, value < 2^32)
    proptest::collection::vec((0u64..80, 0u64..(1 << 32)), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Window-merged quantiles equal quantiles of the concatenated raw
    /// samples to within one pow2 bucket. (The merge preserves bucket
    /// counts exactly, so the bucket indices in fact match exactly; the
    /// one-bucket tolerance is the contract the satellite pins.)
    #[test]
    fn prop_merged_quantiles_match_concatenated_samples(samples in arb_samples()) {
        let w = WindowedHist::new(10); // window = 80 ticks ⊇ all samples
        for &(tick, value) in &samples {
            w.observe(tick, value);
        }
        let m = w.merged(79);
        prop_assert_eq!(m.count, samples.len() as u64);

        let mut sorted: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            // lint: sample counts stay far below 2^53
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let merged = m.quantile(q).expect("non-empty window");
            let diff = bucket_of(merged).abs_diff(bucket_of(exact));
            prop_assert!(
                diff <= 1,
                "q={q}: merged {merged} (bucket {}) vs exact {exact} (bucket {})",
                bucket_of(merged),
                bucket_of(exact)
            );
            // The merged answer is the bucket's inclusive upper bound
            // capped at the max, so it never under-reports the exact
            // sample...
            prop_assert!(merged >= exact || bucket_of(merged) == bucket_of(exact));
            // ...and never reports more than the exact max.
            prop_assert!(merged <= m.max);
        }
    }

    /// max is exact (not bucketed) and the p100 quantile never exceeds
    /// the bucket bound above it.
    #[test]
    fn prop_max_is_exact(samples in arb_samples()) {
        let w = WindowedHist::new(10);
        for &(tick, value) in &samples {
            w.observe(tick, value);
        }
        let m = w.merged(79);
        let true_max = samples.iter().map(|&(_, v)| v).max().unwrap();
        prop_assert_eq!(m.max, true_max);
        let p100 = m.quantile(1.0).expect("non-empty");
        prop_assert!(p100 >= true_max);
        prop_assert!(p100 <= bucket_upper_bound(bucket_of(true_max)));
    }
}
