//! Causal Fair Queuing schedulers — the `(s0, f, g)` machines of §3.
//!
//! A *Causal* Fair Queuing (CFQ) algorithm is one whose backlogged behaviour
//! is characterized by an initial state `s0` and two functions: `f(s)`
//! selects the queue/channel to serve, and `g(s, p)` updates the state after
//! packet `p` is served. Causality — the decision depends only on what was
//! already transmitted — is exactly what lets a receiver *simulate* the
//! sender (§4), so it is the admission ticket into this module.
//!
//! The same state machine serves three roles in the protocol:
//!
//! - at the **sender**, run forward as a load-sharing algorithm
//!   ([`crate::sender::StripingSender`]);
//! - at the **receiver**, run as the resequencing simulation
//!   ([`crate::receiver::LogicalReceiver`]);
//! - in its **original** fair-queuing direction over multiple queues
//!   ([`crate::fq`]), which is how the paper demonstrates the duality.

mod drr;
mod rfq;
mod sprinkler;
mod srr;
pub mod tuner;

pub use drr::Drr;
pub use rfq::Rfq;
pub use sprinkler::Sprinkler;
pub use srr::{CostModel, Srr};
pub use tuner::QuantumTuner;

use crate::types::ChannelId;

/// The implicit per-channel packet number of §5: the pair `(round, deficit
/// counter)` the scheduler will hold when the *next* packet is served on a
/// given channel.
///
/// Both sender and receiver can compute these numbers from local state alone;
/// they are never carried on data packets. Marker packets carry a
/// `ChannelMark` so the receiver can adopt the sender's numbering after loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelMark {
    /// Global round number `G` in which the next packet on the channel will
    /// be served.
    pub round: u64,
    /// Value of the channel's deficit counter at the start of that service
    /// (for [`Rfq`] this field instead carries the draw index; see its docs).
    pub dc: i64,
}

/// A causal fair-queuing algorithm, viewed as a channel selector.
///
/// Implementations must be deterministic functions of their own history (the
/// sequence of `advance`/`skip_current`/`apply_mark` calls): two instances
/// constructed identically and fed identical call sequences must make
/// identical decisions. The receiver's correctness (Theorem 4.1) rests on
/// this.
pub trait CausalScheduler: std::fmt::Debug {
    /// Number of channels being striped over.
    fn channels(&self) -> usize;

    /// `f(s)`: the channel the next packet is assigned to (sender) or
    /// expected from (receiver).
    fn current(&self) -> ChannelId;

    /// The global round number `G`: incremented each time the round-robin
    /// scan wraps past the last channel. Randomized schedulers expose a
    /// monotone analogue (see [`Rfq`]).
    fn round(&self) -> u64;

    /// `g(s, p)`: account for a packet of `wire_len` bytes served on the
    /// current channel, advancing to the next channel when its service
    /// allocation is exhausted.
    fn advance(&mut self, wire_len: usize);

    /// Move past the current channel *without* serving it.
    ///
    /// Only the receiver invokes this, to enforce condition C1 of §5: when a
    /// marker reveals that the next packet on the current channel belongs to
    /// a future round, the channel is skipped until the global round catches
    /// up. The skipped channel's deficit counter is left untouched — it will
    /// be overwritten by the marker's value when service resumes.
    fn skip_current(&mut self);

    /// Compute the implicit number `(round, dc)` of the next packet that
    /// will be served on channel `c`, from the current state. This is what
    /// the sender places in a marker for channel `c`.
    fn mark_for(&self, c: ChannelId) -> ChannelMark;

    /// Adopt a marker's deficit-counter value for channel `c`.
    ///
    /// The receiver engine calls this only once its global round equals the
    /// mark's round and `c` is the current channel, so implementations can
    /// simply overwrite local state.
    fn apply_mark(&mut self, c: ChannelId, m: ChannelMark);

    /// Return to the initial state `s0`. Used when a striping group is
    /// re-initialized after an endpoint reset (§5: "when either the sender
    /// or the receiver goes down and comes up, it reinitializes the
    /// channel").
    fn reset(&mut self);

    /// Schedule a quantum change taking effect at the start of
    /// `effective_round` (the first credit of that round uses the new
    /// quanta). Both ends must schedule the same change — that is what the
    /// epoch'd retune in [`crate::handshake`] carries. The
    /// default is a no-op for schedulers without per-channel quanta.
    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        let _ = (effective_round, quanta);
    }

    /// Schedule a membership change: from the start of `effective_round`
    /// the scan visits exactly the channels with `live[c] == true`,
    /// skipping the rest entirely. Both ends must schedule the same change
    /// at the same round — that is what the
    /// [`crate::control::Control::Membership`] message carries. A channel
    /// re-entering the set restarts from a zero deficit on both ends, so
    /// the simulations stay in lockstep through shrink *and* grow.
    ///
    /// The default is a no-op for schedulers without membership support
    /// (every channel stays live forever).
    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        let _ = (effective_round, live);
    }

    /// Whether channel `c` is in the current striping set. Schedulers
    /// without membership support report every channel live.
    fn live(&self, c: ChannelId) -> bool {
        let _ = c;
        true
    }

    /// Assign a whole batch of packets at once: for each wire length in
    /// `lens`, push the channel the scheduler assigns it to onto `out` and
    /// advance past it. Equivalent to `current()` + `advance(len)` per
    /// packet — implementations may only specialize the *mechanics* (the
    /// [`Srr`] fast path hoists the per-packet dispatch and bounds checks),
    /// never the decisions, because the receiver simulation replays them
    /// one packet at a time (Theorem 4.1).
    ///
    /// `out` is appended to, not cleared: callers own the buffer and its
    /// capacity, which is what keeps the batch datapath allocation-free in
    /// steady state.
    fn assign_batch(&mut self, lens: &[usize], out: &mut Vec<ChannelId>) {
        for &len in lens {
            out.push(self.current());
            self.advance(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must be object-safe: engines and experiments hold
    /// `Box<dyn CausalScheduler>` when comparing schemes.
    #[test]
    fn trait_is_object_safe() {
        let s: Box<dyn CausalScheduler> = Box::new(Srr::equal(2, 500));
        assert_eq!(s.channels(), 2);
    }
}
