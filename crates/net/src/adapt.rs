//! Adaptive quantum control: estimators + tuner, bundled for the
//! reactor to drive.
//!
//! The pieces are all elsewhere — per-channel online estimators in
//! [`crate::est`], the rate→quantum objective in
//! [`stripe_core::sched::tuner`], the epoch'd announce/ack protocol in
//! [`stripe_core::handshake`] — and this module is the glue that makes
//! them a control loop:
//!
//! 1. every reactor poll feeds each channel's cumulative
//!    [`TxEvidence`] and probe timestamps into its
//!    [`ChannelEstimator`];
//! 2. on a periodic estimation tick, rate estimates become shares
//!    ([`rate_shares`]), shares become a
//!    quantum proposal ([`QuantumTuner::propose_into`]), and a proposal
//!    that clears the deadband is handed to the failover driver, which
//!    runs it as an epoch'd retune
//!    ([`FailoverDriver::retune`](stripe_transport::FailoverDriver::retune))
//!    alongside its membership and reset handshakes — one retransmit
//!    clock, one precedence table;
//! 3. a proposal the driver accepts becomes the quanta in force
//!    ([`commit`](AdaptiveTuner::commit)); one it refuses (a reset is in
//!    flight) is simply proposed again on a later tick.
//!
//! At most one retune is in flight at a time: the reactor asks for a
//! proposal only when the driver has none outstanding, so sender and
//! receiver never juggle two pending quanta schedules.

use stripe_core::sched::tuner::QuantumTuner;
use stripe_core::types::ChannelId;
use stripe_link::TxEvidence;
use stripe_netsim::{SimDuration, SimTime};

use crate::est::{rate_shares, ChannelEstimator};
use crate::reactor::Periodic;

/// Tuning for the adaptive control loop.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// EWMA gain for the goodput/loss estimators.
    pub gain: f64,
    /// Smallest quantum the tuner may assign (floor of the envelope).
    pub min_quantum: i64,
    /// Largest quantum the tuner may assign (the fairness bound of
    /// Theorem 3.2 scales with the largest quantum, so this caps the
    /// reordering the tuner can introduce).
    pub max_quantum: i64,
    /// Relative deadband in parts-per-million: proposals within this
    /// of the quanta in force are suppressed (no retune churn).
    pub deadband_ppm: u64,
    /// Estimation/retune cadence. The retune handshake's lead and
    /// retransmit timing are the failover driver's
    /// ([`FailoverConfig`](stripe_transport::FailoverConfig)).
    pub interval: SimDuration,
}

impl AdaptiveConfig {
    /// A config derived from the estimation interval: 256..=16384 byte
    /// quantum envelope, 10% deadband.
    pub fn with_interval(interval: SimDuration) -> Self {
        Self {
            gain: crate::est::DEFAULT_GAIN,
            min_quantum: 256,
            max_quantum: 16 * 1024,
            deadband_ppm: 100_000,
            interval,
        }
    }
}

/// Counters for the adaptive loop, under the workspace snapshot
/// convention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveSnapshot {
    /// Transmit-evidence samples absorbed across all channels.
    pub tx_samples: u64,
    /// RTT samples absorbed across all channels.
    pub rtt_samples: u64,
    /// Proposals suppressed by the deadband (loop converged).
    pub suppressed: u64,
}

/// The adaptive control loop's state: one estimator per channel, the
/// quantum tuner, and the quanta in force. The reactor owns the wiring
/// (see [`PathReactor::poll`]); this type owns the decisions.
///
/// [`PathReactor::poll`]: crate::reactor::PathReactor::poll
#[derive(Debug)]
pub struct AdaptiveTuner {
    ests: Vec<ChannelEstimator>,
    tuner: QuantumTuner,
    /// Quanta in force. Starts as the scheduler's initial quanta so the
    /// deadband compares against reality.
    quanta: Vec<i64>,
    /// Scratch: per-channel rate shares.
    shares: Vec<f64>,
    /// Scratch: the tuner's latest proposal.
    proposal: Vec<i64>,
    tick: Periodic,
    stats: AdaptiveSnapshot,
}

impl AdaptiveTuner {
    /// An adaptive loop over `initial_quanta.len()` channels, starting
    /// from the quanta the scheduler was built with (the deadband
    /// measures proposals against them).
    ///
    /// # Panics
    /// Panics on an empty or non-positive initial quanta vector, or a
    /// nonsensical envelope (see [`QuantumTuner::new`]).
    pub fn new(initial_quanta: &[i64], cfg: AdaptiveConfig, now: SimTime) -> Self {
        assert!(!initial_quanta.is_empty(), "at least one channel");
        assert!(
            initial_quanta.iter().all(|&q| q > 0),
            "initial quanta must be positive"
        );
        Self {
            ests: initial_quanta
                .iter()
                .map(|_| ChannelEstimator::new(cfg.gain))
                .collect(),
            tuner: QuantumTuner::new(cfg.min_quantum, cfg.max_quantum, cfg.deadband_ppm),
            quanta: initial_quanta.to_vec(),
            shares: Vec::with_capacity(initial_quanta.len()),
            proposal: Vec::with_capacity(initial_quanta.len()),
            tick: Periodic::new(now, cfg.interval),
            stats: AdaptiveSnapshot::default(),
        }
    }

    /// Absorb one cumulative transmit-evidence reading for `channel`.
    pub fn on_tx_evidence(&mut self, channel: ChannelId, now_ns: u64, ev: TxEvidence) {
        let before = self.ests[channel].tx_samples();
        self.ests[channel].on_tx_sample(now_ns, ev);
        self.stats.tx_samples += self.ests[channel].tx_samples() - before;
    }

    /// A probe left on `channel` carrying `nonce`.
    pub fn on_probe_sent(&mut self, channel: ChannelId, nonce: u64, now_ns: u64) {
        self.ests[channel].on_probe_sent(nonce, now_ns);
    }

    /// A probe ack arrived on `channel` carrying `nonce`.
    pub fn on_probe_ack(&mut self, channel: ChannelId, nonce: u64, now_ns: u64) {
        let before = self.ests[channel].rtt_samples();
        self.ests[channel].on_probe_ack(nonce, now_ns);
        self.stats.rtt_samples += self.ests[channel].rtt_samples() - before;
    }

    /// Whether a retune is due at `now`: the estimation tick fired, no
    /// retune is `in_flight`, and the tuner's proposal clears the
    /// deadband. The proposal is then [`proposal`](Self::proposal) until
    /// [`commit`](Self::commit)ted.
    pub fn due(&mut self, now: SimTime, in_flight: bool) -> bool {
        self.tick.fire(now) && !in_flight && self.propose()
    }

    /// Run the estimators through the tuner. True when a retune past
    /// the deadband is warranted (the proposal is parked in scratch for
    /// [`commit`](Self::commit)).
    fn propose(&mut self) -> bool {
        // No retune until every channel has a live rate estimate: the
        // equal-share fallback would otherwise drag all quanta to the
        // envelope floor before the first real measurement.
        if !self.ests.iter().all(|e| e.primed()) {
            return false;
        }
        // An idle path (all rates zero) proposes nothing either: the
        // all-minimum target it would produce says "no information",
        // not "shrink every quantum".
        if !self.ests.iter().any(|e| e.goodput_bps() > 0.0) {
            return false;
        }
        rate_shares(&self.ests, &mut self.shares);
        if self
            .tuner
            .propose_into(&self.shares, &self.quanta, &mut self.proposal)
        {
            true
        } else {
            self.stats.suppressed += 1;
            false
        }
    }

    /// The latest proposal (meaningful after [`due`](Self::due) returned
    /// true).
    pub fn proposal(&self) -> &[i64] {
        &self.proposal
    }

    /// The driver accepted the proposal: it becomes the quanta in force,
    /// the baseline the deadband measures the next proposal against.
    pub fn commit(&mut self) {
        self.quanta.clone_from(&self.proposal);
    }

    /// The quanta currently in force (or being announced).
    pub fn quanta(&self) -> &[i64] {
        &self.quanta
    }

    /// The per-channel estimators (inspection).
    pub fn estimators(&self) -> &[ChannelEstimator] {
        &self.ests
    }

    /// Adaptive-loop counters.
    pub fn stats(&self) -> AdaptiveSnapshot {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evidence(frames: u64, bytes: u64) -> TxEvidence {
        TxEvidence {
            frames,
            bytes,
            dropped: 0,
        }
    }

    fn cfg_ms(interval_ms: u64) -> AdaptiveConfig {
        AdaptiveConfig::with_interval(SimDuration::from_millis(interval_ms))
    }

    /// Feed a clean 4:2:1 rate split; the first due tick proposes a
    /// proportional retune, committing it makes it the quanta in force,
    /// and the converged loop then suppresses.
    #[test]
    fn converges_to_proposed_retune() {
        let mut ad = AdaptiveTuner::new(&[1500, 1500, 1500], cfg_ms(10), SimTime::ZERO);
        // Two samples per channel prime every estimator: rates 4:2:1.
        for step in 0..2u64 {
            let t = step * 1_000_000_000;
            ad.on_tx_evidence(0, t, evidence(step * 400, step * 400_000));
            ad.on_tx_evidence(1, t, evidence(step * 200, step * 200_000));
            ad.on_tx_evidence(2, t, evidence(step * 100, step * 100_000));
        }
        assert!(!ad.due(SimTime::from_millis(5), false));
        assert!(ad.due(SimTime::from_millis(10), false));
        // Proportional: slowest at the floor, others scaled 4:2:1.
        assert_eq!(ad.proposal(), &[1024, 512, 256]);
        assert_eq!(
            ad.quanta(),
            &[1500, 1500, 1500],
            "not in force until committed"
        );
        ad.commit();
        assert_eq!(ad.quanta(), &[1024, 512, 256]);
        // The loop has converged: the next tick suppresses.
        assert!(!ad.due(SimTime::from_millis(20), false));
        assert_eq!(ad.stats().suppressed, 1);
    }

    /// No retune fires while any channel's estimator is unprimed — the
    /// equal-share fallback must not drag quanta to the floor.
    #[test]
    fn unprimed_estimators_hold_fire() {
        let mut ad = AdaptiveTuner::new(&[1500, 1500], cfg_ms(10), SimTime::ZERO);
        // Only channel 0 ever reports.
        ad.on_tx_evidence(0, 0, evidence(0, 0));
        ad.on_tx_evidence(0, 1_000_000_000, evidence(100, 100_000));
        assert!(!ad.due(SimTime::from_millis(10), false));
        assert_eq!(ad.quanta(), &[1500, 1500]);
    }

    /// While a retune is in flight, ticks propose nothing: at most one
    /// quanta schedule is ever pending.
    #[test]
    fn in_flight_retune_holds_fire() {
        let mut ad = AdaptiveTuner::new(&[1500, 1500], cfg_ms(10), SimTime::ZERO);
        for step in 0..2u64 {
            let t = step * 1_000_000_000;
            ad.on_tx_evidence(0, t, evidence(step * 400, step * 400_000));
            ad.on_tx_evidence(1, t, evidence(step * 100, step * 100_000));
        }
        assert!(!ad.due(SimTime::from_millis(10), true));
        assert!(ad.due(SimTime::from_millis(20), false));
    }
}
