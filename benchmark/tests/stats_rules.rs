//! The percentile rule and the order statistics `compare` relies on.

use cublastp_benchmark::stats::{
    highest_reportable_percentile, median, percentile, quartiles, samples_beyond, spread,
};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // served_mix at r_mid: ≥ 110 interactive and ≥ 1000 bulk samples.
    assert_eq!(highest_reportable_percentile(110), Some(90.0));
    assert_eq!(highest_reportable_percentile(1000), Some(99.0));
    // One sample short of ten beyond p99 drops to p95.
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(highest_reportable_percentile(999), Some(95.0));
    assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
    assert_eq!(highest_reportable_percentile(40), Some(75.0));
    // Too few for any tail: only the median is reportable.
    assert_eq!(highest_reportable_percentile(39), None);
    assert_eq!(highest_reportable_percentile(0), None);
}

#[test]
fn samples_beyond_counts_strictly_above_the_rank() {
    assert_eq!(samples_beyond(100, 90.0), 10);
    assert_eq!(samples_beyond(100, 99.0), 1);
    assert_eq!(samples_beyond(0, 50.0), 0);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 90.0), 90.0);
    assert_eq!(percentile(&xs, 99.0), 99.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), (2.75, 8.25));
    assert_eq!(median(&xs), 5.5);
    assert!((spread(&xs) - 1.0).abs() < 1e-12);
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
}
