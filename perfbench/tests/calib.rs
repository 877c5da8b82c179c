//! Host-speed calibration: the scale arithmetic and a live sample.

use perfbench::calib::{time_scale, Calibrator, REFERENCE_SAMPLE_NS};

#[test]
fn the_scale_is_the_reference_over_the_median_sample() {
    assert_eq!(time_scale(&[]), 1.0, "no samples, no scaling");
    assert_eq!(time_scale(&[REFERENCE_SAMPLE_NS]), 1.0);
    // A host twice as slow as the reference halves the times.
    let slow = 2.0 * REFERENCE_SAMPLE_NS;
    assert_eq!(time_scale(&[slow, 10.0 * slow, 0.1 * slow]), 0.5);
}

#[test]
fn a_sample_times_its_work_and_stops_at_capacity() {
    let mut c = Calibrator::new(2).expect("loopback sockets");
    for _ in 0..3 {
        c.sample().expect("calibration work");
    }
    assert_eq!(c.samples().len(), 2, "samples beyond capacity are dropped");
    assert!(c.samples().iter().all(|&ns| ns > 0.0));
    c.clear();
    assert!(c.samples().is_empty());
}
