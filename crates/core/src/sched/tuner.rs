//! The quantum controller: maps per-channel rate estimates to SRR/DRR
//! quanta.
//!
//! The paper fixes quanta for the life of the stripe; the adaptive
//! control plane retunes them as channel rates drift. The selection
//! objective follows the DRR convexity/optimization literature
//! (Mukherjee et al., arXiv:2503.23366): the latency and fairness
//! bounds of a deficit scheduler grow with the quantum sizes — for SRR
//! the §3 deviation bound is `max_packet + 2·max_quantum` (see
//! [`crate::fairness::srr_bound`]) — so among all quantum vectors whose
//! shares match the estimated rate shares, the optimum is the one with
//! the **smallest maximum quantum**. That problem is trivially convex
//! and its solution is closed-form: anchor the slowest channel at the
//! configured minimum quantum and scale the rest proportionally,
//! compressing (and accepting bounded share distortion) only when the
//! fastest channel would exceed the configured maximum.
//!
//! A deadband keeps estimator jitter from spamming retunes: a proposal
//! within `deadband_ppm` of the quanta in force is suppressed. Each
//! accepted proposal is then applied *live* through the epoch'd
//! announce/ack protocol in [`crate::handshake`] — sender and receiver
//! switch at the same round, so the WRR deviation bound (Tabatabaee et
//! al., arXiv:2202.08381 sharpens the classical one) holds across the
//! change.

/// Parts-per-million scale for the deadband knob.
pub const PPM: u64 = 1_000_000;

/// Maps rate estimates to quantum vectors under a min/max envelope.
#[derive(Debug, Clone)]
pub struct QuantumTuner {
    min_quantum: i64,
    max_quantum: i64,
    deadband_ppm: u64,
}

impl QuantumTuner {
    /// A tuner proposing quanta in `[min_quantum, max_quantum]`, with
    /// retunes suppressed while every proposed quantum is within
    /// `deadband_ppm` (parts per million, relative) of the one in
    /// force. `min_quantum` should be at least the MTU — an SRR
    /// quantum below the largest packet stalls the round — and
    /// `max_quantum` caps the fairness/delay bound.
    ///
    /// # Panics
    /// Panics unless `0 < min_quantum <= max_quantum`.
    pub fn new(min_quantum: i64, max_quantum: i64, deadband_ppm: u64) -> Self {
        assert!(min_quantum > 0, "minimum quantum must be positive");
        assert!(
            max_quantum >= min_quantum,
            "quantum envelope inverted: [{min_quantum}, {max_quantum}]"
        );
        Self {
            min_quantum,
            max_quantum,
            deadband_ppm,
        }
    }

    /// The envelope floor.
    pub fn min_quantum(&self) -> i64 {
        self.min_quantum
    }

    /// The envelope ceiling (what [`crate::fairness::srr_bound`] should
    /// be evaluated at when asserting the deviation bound).
    pub fn max_quantum(&self) -> i64 {
        self.max_quantum
    }

    /// Compute the optimal quanta for `rates`, ignoring the deadband.
    /// `out` is cleared and filled (caller-owned storage — the control
    /// plane stays allocation-free in steady state).
    ///
    /// Channels whose estimate is non-positive (unprimed, idle, or
    /// masked out) are floored at one thousandth of the fastest rate:
    /// they keep the minimum quantum and stay schedulable, and
    /// membership — not tuning — is the mechanism that removes truly
    /// dead channels.
    pub fn target_into(&self, rates: &[f64], out: &mut Vec<i64>) {
        out.clear();
        let r_max = rates.iter().cloned().fold(0.0f64, f64::max);
        if r_max <= 0.0 {
            // Nothing measured anywhere: equal minimum quanta.
            out.extend(std::iter::repeat_n(self.min_quantum, rates.len()));
            return;
        }
        let floor = r_max / 1000.0;
        let r_min = rates
            .iter()
            .map(|&r| if r > floor { r } else { floor })
            .fold(f64::INFINITY, f64::min);
        // Minimize the max quantum: slowest channel sits at min_quantum…
        let mut scale = self.min_quantum as f64 / r_min;
        // …unless the fastest would blow the ceiling; then the delay
        // constraint binds and shares compress.
        if r_max * scale > self.max_quantum as f64 {
            scale = self.max_quantum as f64 / r_max;
        }
        out.extend(rates.iter().map(|&r| {
            let r = if r > floor { r } else { floor };
            ((r * scale).round() as i64).clamp(self.min_quantum, self.max_quantum)
        }));
    }

    /// Propose a retune: the optimal quanta for `rates` if they differ
    /// from `current` by more than the deadband on any channel, else
    /// `None`. `out` is cleared and filled only on `Some`.
    ///
    /// # Panics
    /// Panics if `rates.len() != current.len()`.
    pub fn propose_into(&self, rates: &[f64], current: &[i64], out: &mut Vec<i64>) -> bool {
        assert_eq!(
            rates.len(),
            current.len(),
            "one rate estimate per channel quantum"
        );
        self.target_into(rates, out);
        let worth_it = out.iter().zip(current).any(|(&q, &cur)| {
            let diff = (q - cur).unsigned_abs() * PPM;
            diff > self.deadband_ppm * cur.unsigned_abs().max(1)
        });
        if !worth_it {
            out.clear();
        }
        worth_it
    }

    /// Allocating convenience wrapper over
    /// [`propose_into`](Self::propose_into).
    pub fn propose(&self, rates: &[f64], current: &[i64]) -> Option<Vec<i64>> {
        let mut out = Vec::new();
        self.propose_into(rates, current, &mut out).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_rates_yield_proportional_quanta() {
        let t = QuantumTuner::new(1500, 64_000, 0);
        let q = t.propose(&[4e6, 2e6, 1e6], &[1500, 1500, 1500]).unwrap();
        assert_eq!(q, vec![6000, 3000, 1500], "slowest anchors at min");
    }

    #[test]
    fn ceiling_binds_and_compresses_shares() {
        let t = QuantumTuner::new(1500, 6000, 0);
        let q = t.propose(&[8e6, 1e6], &[1500, 1500]).unwrap();
        assert_eq!(q[0], 6000, "fastest pinned to the ceiling");
        assert_eq!(q[1], 1500, "slowest floored, ratio compressed");
    }

    #[test]
    fn deadband_suppresses_estimator_jitter() {
        let t = QuantumTuner::new(1500, 64_000, 50_000); // 5%
        let current = [6000, 3000, 1500];
        // 2% drift on the fastest channel: inside the deadband.
        assert_eq!(t.propose(&[4.08e6, 2e6, 1e6], &current), None);
        // A real 2:1:1 shift: outside.
        let q = t.propose(&[2e6, 1e6, 1e6], &current).unwrap();
        assert_eq!(q, vec![3000, 1500, 1500]);
    }

    #[test]
    fn unprimed_rates_propose_equal_minimums() {
        let t = QuantumTuner::new(1500, 64_000, 0);
        let mut out = Vec::new();
        t.target_into(&[0.0, 0.0], &mut out);
        assert_eq!(out, vec![1500, 1500]);
    }

    #[test]
    fn dead_channel_keeps_the_floor_quantum() {
        let t = QuantumTuner::new(1500, 10_000_000, 0);
        let mut out = Vec::new();
        t.target_into(&[4e6, 0.0], &mut out);
        assert_eq!(out[1], 1500, "idle channel floored, not starved");
        // The floor also caps the blow-up: 1000x, not infinity.
        assert_eq!(out[0], 1_500_000);
    }

    #[test]
    fn propose_into_reuses_storage() {
        let t = QuantumTuner::new(1500, 64_000, 0);
        let mut out = Vec::with_capacity(8);
        assert!(t.propose_into(&[2e6, 1e6], &[1500, 1500], &mut out));
        let cap = out.capacity();
        assert!(!t.propose_into(&[2e6, 1e6], &[3000, 1500], &mut out));
        assert!(out.is_empty(), "suppressed proposal leaves out empty");
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn identical_rates_match_current_equal_quanta() {
        let t = QuantumTuner::new(1500, 64_000, 10_000);
        assert_eq!(t.propose(&[5e6; 4], &[1500; 4]), None);
    }
}
