//! The recovery detector on synthetic delivery sequences with known
//! bursts.

use perfbench::recovery::RecoveryDetector;

#[test]
fn in_order_delivery_with_gaps_is_not_disorder() {
    let mut d = RecoveryDetector::new(2, 4);
    for (t, seq) in [(1, 0), (2, 1), (3, 5), (4, 9)] {
        assert!(!d.delivered(0, seq, t), "gaps are loss, not reordering");
    }
    assert_eq!(d.disorder(), 0);
    assert!(d.recoveries(u64::MAX).is_empty());
}

#[test]
fn recovery_runs_from_burst_end_to_the_last_disorder_of_the_slowest_flow() {
    let mut d = RecoveryDetector::new(3, 4);
    // Clean stretch.
    d.delivered(0, 0, 10);
    d.delivered(1, 0, 11);
    d.burst_started(100);
    // During the burst flow 0 jumps ahead (its next packet on the dark
    // channel was lost and a later one stands in).
    d.delivered(0, 5, 120);
    d.burst_ended(200);
    // After the burst: flow 0 delivers the stragglers it skipped …
    assert!(d.delivered(0, 2, 250));
    assert!(d.delivered(0, 3, 260));
    // … and flow 1 is disordered until later (the slowest flow).
    d.delivered(1, 4, 270);
    assert!(d.delivered(1, 1, 340));
    // Then FIFO holds again.
    assert!(!d.delivered(0, 6, 400));
    assert!(!d.delivered(1, 5, 410));
    assert_eq!(d.disorder(), 3);
    assert_eq!(d.recoveries(u64::MAX), vec![(140, 1)]);
}

#[test]
fn a_burst_without_disorder_recovers_in_zero_time() {
    let mut d = RecoveryDetector::new(1, 4);
    d.burst_started(50);
    d.burst_ended(60);
    d.delivered(0, 0, 70);
    d.delivered(0, 1, 80);
    assert_eq!(d.recoveries(u64::MAX), vec![(0, 0)]);
}

#[test]
fn disorder_is_charged_to_the_latest_burst_and_unended_bursts_are_skipped() {
    let mut d = RecoveryDetector::new(1, 4);
    d.delivered(0, 10, 5);
    d.burst_started(100);
    d.burst_ended(110);
    assert!(d.delivered(0, 3, 150));
    d.burst_started(500);
    d.burst_ended(520);
    assert!(d.delivered(0, 4, 530));
    assert!(d.delivered(0, 5, 560));
    d.burst_started(900);
    assert!(d.delivered(0, 6, 950));
    // Third burst never ended: no recovery to report for it.
    assert_eq!(d.recoveries(u64::MAX), vec![(40, 0), (40, 0)]);
    // A cutoff before the second burst's end keeps only the first.
    assert_eq!(d.recoveries(515), vec![(40, 0)]);
    assert_eq!(d.unattributed(), 0);
}

#[test]
fn disorder_before_any_burst_is_unattributed() {
    let mut d = RecoveryDetector::new(1, 2);
    d.delivered(0, 3, 1);
    assert!(d.delivered(0, 1, 2));
    assert_eq!(d.unattributed(), 1);
}
