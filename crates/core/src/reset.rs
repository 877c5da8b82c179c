//! Self-stabilization and endpoint identity — the §5 fault-model closure.
//!
//! Marker recovery (Theorem 5.1) assumes the only errors are detectable
//! packet loss and corruption. The paper closes the remaining gap in two
//! sentences: *"It is also possible to make the marker algorithm
//! self-stabilizing (i.e., robust against any error in the state) by
//! periodically running a snapshot and then doing a reset. We deal with
//! sender or receiver node crashes by doing a reset."* The reset itself
//! is the epoch'd handshake with a [`Flush`](crate::handshake::Flush)
//! payload (see [`crate::handshake`]); this module holds the two triggers:
//!
//! - [`DesyncDetector`] — the "snapshot" reduced to what logical reception
//!   actually needs: the receiver already computes every packet's implicit
//!   number, so persistent disagreement shows up as persistent
//!   out-of-order delivery. The detector watches a sliding window of
//!   deliveries and trips when the out-of-order fraction stays above a
//!   threshold — arbitrary state corruption (not just loss) then leads to
//!   a reset, which restores FIFO from *any* state: self-stabilization.
//! - [`fresh_incarnation`] — the per-process nonce a peer compares across
//!   probe acks to tell a restarted endpoint (a crash) from a quiet one.

/// The self-stabilization trigger: a sliding-window health monitor.
///
/// Loss-induced desynchronization is healed by markers within one marker
/// interval, so two symptoms distinguish *state* corruption (which only a
/// reset can heal) from ordinary loss:
///
/// 1. **sustained out-of-order delivery** — the OOO fraction stays above
///    `threshold` for `patience` consecutive windows (loss-induced
///    disorder clears between loss episodes);
/// 2. **unbounded buffer growth** — the receiver's per-channel buffers
///    have a rising low-water mark across `patience` consecutive windows.
///    A corrupted simulation consumes channels at the wrong rates and
///    falls ever further behind; healthy buffers drain to (near) empty
///    every marker interval.
///
/// Either symptom trips the detector.
#[derive(Debug, Clone)]
pub struct DesyncDetector {
    window: u32,
    threshold: f64,
    patience: u32,
    /// Deliveries seen in the current window.
    seen: u32,
    /// Out-of-order deliveries in the current window.
    ooo: u32,
    /// Consecutive bad windows so far.
    bad_windows: u32,
    max_id: Option<u64>,
    /// Lowest backlog observed in the current window.
    low_water: u64,
    /// Low-water mark of the previous window.
    prev_low_water: Option<u64>,
    /// Consecutive windows with a rising low-water mark.
    growth_windows: u32,
    trips: u64,
}

impl DesyncDetector {
    /// A detector evaluating windows of `window` deliveries, tripping after
    /// `patience` consecutive windows whose OOO fraction exceeds
    /// `threshold`.
    ///
    /// # Panics
    /// Panics on a zero window or patience, or a threshold outside (0, 1).
    pub fn new(window: u32, threshold: f64, patience: u32) -> Self {
        assert!(window > 0 && patience > 0);
        assert!(threshold > 0.0 && threshold < 1.0);
        Self {
            window,
            threshold,
            patience,
            seen: 0,
            ooo: 0,
            bad_windows: 0,
            max_id: None,
            low_water: u64::MAX,
            prev_low_water: None,
            growth_windows: 0,
            trips: 0,
        }
    }

    /// Record a delivered send-order id; returns `true` when a reset should
    /// be initiated. Equivalent to [`observe`](Self::observe) with a zero
    /// backlog (OOO signal only).
    pub fn on_delivery(&mut self, id: u64) -> bool {
        self.observe(id, 0)
    }

    /// Record a delivery together with the receiver's current total
    /// buffered-arrival count; returns `true` when a reset should be
    /// initiated (either sustained disorder or sustained backlog growth).
    pub fn observe(&mut self, id: u64, backlog: u64) -> bool {
        match self.max_id {
            Some(max) if id < max => self.ooo += 1,
            _ => self.max_id = Some(id),
        }
        self.low_water = self.low_water.min(backlog);
        self.seen += 1;
        if self.seen < self.window {
            return false;
        }
        // Window boundary: evaluate both signals.
        let frac = self.ooo as f64 / self.seen as f64;
        let low = self.low_water;
        self.seen = 0;
        self.ooo = 0;
        self.low_water = u64::MAX;

        if frac > self.threshold {
            self.bad_windows += 1;
        } else {
            self.bad_windows = 0;
        }
        // Rising low-water mark: the buffers never drained back to the
        // previous floor and climbed meaningfully.
        let growing = match self.prev_low_water {
            Some(prev) => low > prev + self.window as u64 / 4,
            None => false,
        };
        if growing {
            self.growth_windows += 1;
        } else {
            self.growth_windows = 0;
        }
        self.prev_low_water = Some(low);

        if self.bad_windows >= self.patience || self.growth_windows >= self.patience {
            self.bad_windows = 0;
            self.growth_windows = 0;
            self.trips += 1;
            return true;
        }
        false
    }

    /// Reset the detector's own state (call after the protocol reset
    /// completes, so old disorder does not double-trip).
    pub fn acknowledge_reset(&mut self) {
        self.seen = 0;
        self.ooo = 0;
        self.bad_windows = 0;
        self.max_id = None;
        self.low_water = u64::MAX;
        self.prev_low_water = None;
        self.growth_windows = 0;
    }

    /// Times the detector has requested a reset.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// A fresh, nonzero endpoint incarnation: unique per process start (and
/// per call), so a peer comparing incarnations across probe acks can tell
/// a restarted endpoint from a merely quiet one. Mixes wall-clock nanos
/// with a process-wide counter; deterministic tests should pin their own
/// value instead.
pub fn fresh_incarnation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mixed = nanos
        .rotate_left(17)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed));
    mixed.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_incarnations_are_nonzero_and_distinct() {
        let a = fresh_incarnation();
        let b = fresh_incarnation();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn detector_ignores_transient_disorder() {
        let mut d = DesyncDetector::new(10, 0.3, 2);
        // One bad window, then clean ones: never trips.
        let mut tripped = false;
        for i in 0..10u64 {
            tripped |= d.on_delivery(if i % 2 == 0 { 100 - i } else { i });
        }
        for i in 200..260u64 {
            tripped |= d.on_delivery(i);
        }
        assert!(!tripped);
        assert_eq!(d.trips(), 0);
    }

    #[test]
    fn detector_trips_on_sustained_disorder() {
        let mut d = DesyncDetector::new(10, 0.3, 2);
        // Persistently interleaved pairs: ~50% OOO forever.
        let mut tripped_at = None;
        for i in 0..100u64 {
            let id = if i % 2 == 0 { i + 1 } else { i - 1 };
            if d.on_delivery(id) {
                tripped_at = Some(i);
                break;
            }
        }
        let at = tripped_at.expect("must trip");
        // Two windows of 10 = trips by delivery ~19.
        assert!(at < 40, "tripped too late: {at}");
    }

    /// The backlog signal: in-order deliveries with ever-growing buffers
    /// (a starved-channel corruption) must trip even though OOO is zero.
    #[test]
    fn detector_trips_on_backlog_growth_alone() {
        let mut d = DesyncDetector::new(10, 0.3, 2);
        let mut tripped_at = None;
        for i in 0..200u64 {
            // Perfectly ordered ids, but backlog climbs 2 per delivery and
            // never drains.
            if d.observe(i, 2 * i) {
                tripped_at = Some(i);
                break;
            }
        }
        let at = tripped_at.expect("backlog growth must trip");
        assert!(at < 60, "tripped too late: {at}");
    }

    /// Sawtooth backlog (fills during a burst, drains back to empty — the
    /// healthy marker-recovery pattern) must not trip, provided the drain
    /// period fits inside `patience x window` (size the detector to the
    /// marker interval; here period 20 vs a 2x10 horizon).
    #[test]
    fn detector_tolerates_draining_backlog() {
        let mut d = DesyncDetector::new(10, 0.3, 2);
        for i in 0..400u64 {
            let backlog = (i % 20) * 3; // returns to zero every 2 windows
            assert!(!d.observe(i, backlog), "sawtooth tripped at {i}");
        }
    }

    #[test]
    fn detector_rearms_after_acknowledged_reset() {
        let mut d = DesyncDetector::new(10, 0.3, 1);
        let mut trips = 0;
        for i in 0..20u64 {
            let id = if i % 2 == 0 { i + 1 } else { i - 1 };
            if d.on_delivery(id) {
                trips += 1;
                d.acknowledge_reset();
            }
        }
        assert!(trips >= 1);
        // Clean traffic after reset: no further trips.
        for i in 1000..1100u64 {
            assert!(!d.on_delivery(i));
        }
    }
}
