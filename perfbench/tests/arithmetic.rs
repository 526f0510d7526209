//! The benchmark's own arithmetic: quantiles, summaries, span self time
//! and the failure count.

use perfbench::oracle::Tally;
use perfbench::spans::{self_time, Span};
use perfbench::stats::{
    at_reference_speed, error_frac, latency_quantile, median, nearest_rank, quartiles, stddev,
    Better, Summary,
};

#[test]
fn nearest_rank_of_one_value_is_that_value_at_every_q() {
    for q in [0.0, 0.5, 0.9, 1.0] {
        assert_eq!(nearest_rank(&[7.0], q), Some(7.0));
    }
}

#[test]
fn nearest_rank_of_two_values_switches_just_above_the_middle() {
    let v = [1.0, 2.0];
    // ⌈q·n⌉ − 1: q = 0 and q = 0.5 pick index 0, anything above index 1.
    assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&v, 0.5), Some(1.0));
    assert_eq!(nearest_rank(&v, 0.51), Some(2.0));
    assert_eq!(nearest_rank(&v, 0.9), Some(2.0));
    assert_eq!(nearest_rank(&v, 1.0), Some(2.0));
}

#[test]
fn nearest_rank_at_the_ends_is_min_and_max() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
    assert_eq!(nearest_rank(&v, 0.9), Some(90.0));
    assert_eq!(nearest_rank(&[], 0.5), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0]), Some(5.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Values printed by `statistics.quantiles(v, n=4)` in Python 3.11.
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
    assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn summary_picks_best_by_direction() {
    let v = [2.0, 4.0, 3.0];
    let lower = Summary::of(&v, Better::Lower).expect("values");
    let higher = Summary::of(&v, Better::Higher).expect("values");
    assert_eq!((lower.best, lower.median, lower.n), (2.0, 3.0, 3));
    assert_eq!(lower.quartiles, (2.0, 4.0));
    assert_eq!(higher.best, 4.0);
    assert!((lower.stddev - 1.0).abs() < 1e-12);
    assert_eq!(stddev(&[1.0]), 0.0);
}

fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name: "t",
        op: 0,
        start,
        end,
        failed: false,
    }
}

#[test]
fn self_time_with_nested_children() {
    // root [0,100] ⊃ a [10,40] ⊃ a1 [20,30]; root ⊃ b [50,90].
    let spans = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 10, 40),
        span(3, Some(2), 20, 30),
        span(4, Some(1), 50, 90),
    ];
    let own: Vec<u64> = spans.iter().map(|s| self_time(s, &spans)).collect();
    assert_eq!(own, vec![30, 20, 10, 40]);
    assert_eq!(
        own.iter().sum::<u64>(),
        100,
        "self times add up to the root"
    );
}

#[test]
fn self_time_with_back_to_back_and_overlapping_children() {
    let back_to_back = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 0, 50),
        span(3, Some(1), 50, 100),
    ];
    assert_eq!(self_time(&back_to_back[0], &back_to_back), 0);
    // Parallel children covering [10,80] count once; a child reaching
    // past the parent is clipped to it.
    let overlapping = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 10, 60),
        span(3, Some(1), 40, 80),
        span(4, Some(1), 95, 120),
    ];
    assert_eq!(self_time(&overlapping[0], &overlapping), 100 - 70 - 5);
}

#[test]
fn error_frac_counts_a_wrong_output_as_failed() {
    let tally = Tally::default();
    assert!(tally.record(Ok(())));
    assert!(!tally.record(Err("body differs from the primed body".into())));
    assert_eq!((tally.attempted(), tally.failed()), (2, 1));
    assert_eq!(error_frac(tally.attempted(), tally.failed()), 0.5);
    assert_eq!(error_frac(0, 0), 0.0);
    assert_eq!(tally.errors().len(), 1);
}

#[test]
fn a_failed_request_ranks_slower_than_any_other() {
    let lat = [(1.0, true), (2.0, true), (3.0, false)];
    assert_eq!(latency_quantile(&lat, 0.5), Some(2.0));
    assert_eq!(latency_quantile(&lat, 0.9), Some(f64::INFINITY));
}

#[test]
fn latency_at_reference_speed_scales_by_the_median_probe_round() {
    // The probe ran at half the reference speed (median 40 ms against
    // 20 ms), so a 300 ms op would have taken 150 ms on the reference host.
    let probe = [38.0, 40.0, 90.0];
    assert_eq!(at_reference_speed(300.0, &probe, 20.0), Some(150.0));
    assert_eq!(at_reference_speed(300.0, &[20.0], 20.0), Some(300.0));
    assert_eq!(at_reference_speed(300.0, &[], 20.0), None);
    assert_eq!(at_reference_speed(300.0, &[0.0], 20.0), None);
}
