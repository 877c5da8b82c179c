//! Percentile selection under the at-least-ten-beyond rule, and Jain's
//! fairness index.

use perfbench::meter::Histogram;
use perfbench::stats::{beyond, highest_supported, jain_index, median, percentile, summarize};

#[test]
fn nearest_rank_counts_what_lies_beyond() {
    // 100 samples: p99 is the 99th, one sample beyond it.
    assert_eq!(beyond(100, 99.0), 1);
    assert_eq!(beyond(100, 90.0), 10);
    assert_eq!(beyond(100, 50.0), 50);
    assert_eq!(beyond(1, 50.0), 0);
}

#[test]
fn the_highest_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(highest_supported(0), None);
    assert_eq!(highest_supported(10), None, "the median of 10 has 5 beyond");
    assert_eq!(highest_supported(19), None, "the median of 19 has 9 beyond");
    assert_eq!(highest_supported(20), Some(50.0));
    assert_eq!(highest_supported(99), Some(50.0));
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(999), Some(90.0));
    assert_eq!(highest_supported(1000), Some(99.0));
    assert_eq!(highest_supported(10_000), Some(99.9));
    assert_eq!(highest_supported(1_000_000), Some(99.999));
}

#[test]
fn pooled_histogram_percentiles_track_the_exact_ones() {
    let mut h = Histogram::new();
    let values: Vec<u64> = (0..10_000u64).map(|i| (i * 7919) % 10_000 * 37).collect();
    for &v in &values {
        h.record(v);
    }
    let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sorted.sort_by(f64::total_cmp);
    for p in [50.0, 90.0, 99.0, 99.9] {
        let exact = percentile(&sorted, p);
        let approx = h.supported(p).expect("10k samples support p99.9");
        assert!(
            (approx - exact).abs() <= exact / 1024.0 + 1.0,
            "p{p}: {approx} vs {exact}"
        );
    }
    assert_eq!(
        h.supported(99.99),
        None,
        "only one sample lies beyond p99.99 of 10k"
    );
    // Exact below 1024 ns.
    let mut small = Histogram::new();
    for v in 0..100 {
        small.record(v);
    }
    assert_eq!(small.percentile(50.0), Some(49.0));
}

#[test]
fn summaries_report_median_high_percentile_and_count() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = summarize(&v);
    assert_eq!(s.median, 50.5);
    assert_eq!(s.high_p, Some(90.0));
    assert_eq!(s.high, 90.0);
    assert_eq!(s.n, 100);
    // Too few samples for any percentile: the maximum stands in.
    let s = summarize(&[3.0, 1.0, 2.0]);
    assert_eq!(s.high_p, None);
    assert_eq!(s.high, 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn jain_index_spans_one_over_n_to_one() {
    assert_eq!(jain_index([5, 5, 5, 5]), 1.0);
    assert_eq!(jain_index([7]), 1.0);
    assert!((jain_index([1, 0, 0, 0]) - 0.25).abs() < 1e-12);
    // (1+2+3)^2 / (3 * (1+4+9)) = 36/42
    assert!((jain_index([1, 2, 3]) - 36.0 / 42.0).abs() < 1e-12);
    assert_eq!(jain_index([0, 0]), 0.0);
    assert_eq!(jain_index(std::iter::empty()), 0.0);
}
