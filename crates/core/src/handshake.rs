//! The epoch'd handshake: one announce/ack machine for membership, live
//! retune, and the §5 reset.
//!
//! The paper defines one control exchange — *"we deal with sender or
//! receiver node crashes by doing a reset"*: the sender floods a request
//! stamped with a new epoch, the receiver applies it once per epoch and
//! acks on the reverse path of the channel it arrived on, the sender
//! retransmits to the channels still awaiting an ack and completes when
//! none is left. Epochs make duplicated, reordered, and stale control
//! traffic harmless. Shrinking or growing the striping set and switching
//! per-channel quanta need exactly the same agreement — both ends must
//! change at the same stream point or their SRR simulations diverge — so
//! all three ride this one machine and differ only in the payload:
//!
//! | payload     | announcement                  | ack                       | receiver applies                    |
//! |-------------|-------------------------------|---------------------------|-------------------------------------|
//! | `Vec<bool>` | [`Control::Membership`]       | [`Control::MembershipAck`]| `schedule_mask` at the round        |
//! | `Vec<i64>`  | [`Control::QuantumAnnounce`]  | [`Control::QuantumAck`]   | `schedule_quanta` at the round      |
//! | [`Flush`]   | [`Control::ResetRequest`]     | [`Control::ResetAck`]     | flush, reinitialize to `s0`         |
//!
//! [`EpochHandshake`] is the sender half and [`EpochResponder`] the
//! receiver half. Each payload keeps its own epoch space, so the three
//! handshakes never mistake each other's traffic. The wire is unchanged:
//! the generalization is in-process only.
//!
//! A re-entering channel restarts from a zero deficit on both ends (see
//! `Srr::schedule_mask`), and a retune is a same-membership epoch change:
//! because both ends switch at the same round boundary, each round is
//! played entirely under one quanta vector or the other and the Theorem
//! 3.2 fairness bound holds across the switch.
//!
//! # Overlap precedence
//!
//! Handshakes can overlap: a channel dies while a retune is in flight, or
//! a peer restart forces a reset in the middle of a grow. The sender side
//! (the failover driver, which owns all three handshakes) resolves every
//! overlap by one table — rows are what is in flight, columns what
//! arrives:
//!
//! | in flight \ arrives | shrink / grow                              | retune                                  | reset                                                 |
//! |---------------------|--------------------------------------------|-----------------------------------------|-------------------------------------------------------|
//! | shrink / grow       | supersedes: new epoch, old mask abandoned   | runs alongside (separate epochs)        | abandons the mask; resume re-announces the live mask   |
//! | retune              | retune keeps awaiting its flood set         | not begun until the retune completes    | abandons the retune; resume re-announces quanta in force |
//! | reset               | deferred to resume (a death re-floods the reset over the survivors) | refused until resume | supersedes: new epoch over the live channels |
//!
//! *Resume* is the step after a reset completes: both ends have flushed
//! back to their initial masks and quanta, so the sender re-announces the
//! live mask **and** the quanta in force under fresh epochs. On the
//! receiver a flush re-arms the mask and quanta responders, so a stale
//! pre-reset announcement that lands after the flush may still be
//! applied — but only until the resume announcement (a newer epoch)
//! replaces it, since each scheduler holds one pending change per kind.
//!
//! A handshake over no live channel is the *parked* state of a total
//! blackout: the epoch advances, nothing is awaited, nothing reaches the
//! wire, and the next announcement re-teaches the receiver from scratch.

use std::marker::PhantomData;

use crate::control::{epoch_newer, Control, Epoch};
use crate::types::ChannelId;

/// A malformed membership mask, reported instead of panicking so a
/// failover driver can surface it through its own diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipError {
    /// More channels than the 16-bit wire mask can carry.
    TooManyChannels {
        /// How many channels were given.
        got: usize,
    },
    /// A live vector that does not cover every channel of the set.
    MaskLength {
        /// The striping-set width.
        expected: usize,
        /// The length of the vector that was given.
        got: usize,
    },
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyChannels { got } => {
                write!(f, "wire mask holds at most 16 channels, got {got}")
            }
            Self::MaskLength { expected, got } => {
                write!(
                    f,
                    "mask must cover every channel: expected {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for MembershipError {}

/// Pack a live vector into the 16-bit wire mask (bit `c` = channel `c`),
/// or report [`MembershipError::TooManyChannels`] if it cannot fit.
pub fn vec_to_mask(live: &[bool]) -> Result<u16, MembershipError> {
    if live.len() > 16 {
        return Err(MembershipError::TooManyChannels { got: live.len() });
    }
    Ok(live
        .iter()
        .enumerate()
        .fold(0u16, |m, (c, &l)| if l { m | (1 << c) } else { m }))
}

/// Unpack a 16-bit wire mask into a live vector over `channels` channels.
pub fn mask_to_vec(mask: u16, channels: usize) -> Vec<bool> {
    (0..channels).map(|c| mask & (1 << c) != 0).collect()
}

/// What an epoch'd handshake carries, and how it maps onto the wire.
pub trait Payload: Clone + Default + PartialEq + std::fmt::Debug {
    /// The announcement of this payload under `epoch`, taking effect at
    /// `effective_round`.
    fn announcement(&self, epoch: Epoch, effective_round: u64) -> Control;
    /// The receiver's acknowledgement of `epoch`.
    fn ack(epoch: Epoch) -> Control;
    /// Unpack an announcement of this kind for a `channels`-wide set:
    /// `(epoch, effective_round, payload)`, or `None` for another kind of
    /// message or a malformed one.
    fn unpack(ctl: &Control, channels: usize) -> Option<(Epoch, u64, Self)>;
}

/// The §5 reset's payload: flush every buffer and reinitialize to `s0`.
/// It applies on receipt, so its effective round is always 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flush;

/// A live mask: bit `c` set means channel `c` stays in the striping set.
impl Payload for Vec<bool> {
    fn announcement(&self, epoch: Epoch, effective_round: u64) -> Control {
        Control::Membership {
            epoch,
            live_mask: vec_to_mask(self).expect("channel cap enforced at construction"),
            effective_round,
        }
    }
    fn ack(epoch: Epoch) -> Control {
        Control::MembershipAck { epoch }
    }
    fn unpack(ctl: &Control, channels: usize) -> Option<(Epoch, u64, Self)> {
        let Control::Membership {
            epoch,
            live_mask,
            effective_round,
        } = *ctl
        else {
            return None;
        };
        // Empty masks and bits naming channels that do not exist.
        if live_mask == 0 || (channels < 16 && live_mask >> channels != 0) {
            return None;
        }
        Some((epoch, effective_round, mask_to_vec(live_mask, channels)))
    }
}

/// A per-channel quanta vector (a live retune).
impl Payload for Vec<i64> {
    fn announcement(&self, epoch: Epoch, effective_round: u64) -> Control {
        Control::QuantumAnnounce {
            epoch,
            effective_round,
            quanta: self.clone(),
        }
    }
    fn ack(epoch: Epoch) -> Control {
        Control::QuantumAck { epoch }
    }
    fn unpack(ctl: &Control, channels: usize) -> Option<(Epoch, u64, Self)> {
        let Control::QuantumAnnounce {
            epoch,
            effective_round,
            quanta,
        } = ctl
        else {
            return None;
        };
        // Wrong arity for the set; non-positive quanta are belt and braces
        // over the codec's own check.
        if quanta.len() != channels || quanta.iter().any(|&q| q <= 0) {
            return None;
        }
        Some((*epoch, *effective_round, quanta.clone()))
    }
}

impl Payload for Flush {
    fn announcement(&self, epoch: Epoch, _effective_round: u64) -> Control {
        Control::ResetRequest { epoch }
    }
    fn ack(epoch: Epoch) -> Control {
        Control::ResetAck { epoch }
    }
    fn unpack(ctl: &Control, _channels: usize) -> Option<(Epoch, u64, Self)> {
        match *ctl {
            Control::ResetRequest { epoch } => Some((epoch, 0, Flush)),
            _ => None,
        }
    }
}

/// Outcome of feeding an ack to an [`EpochHandshake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeProgress {
    /// Acks still outstanding on some channel.
    Pending,
    /// Every awaited channel has acked: the handshake is done.
    Complete,
    /// Stale epoch, a channel that was not awaited, or nothing in flight.
    Ignored,
}

/// Sender half of an epoch'd handshake.
///
/// [`begin`](Self::begin) an announcement, send
/// [`message`](Self::message) to every channel in
/// [`awaiting_channels`](Self::awaiting_channels), feed acks to
/// [`on_ack`](Self::on_ack). The caller owns retransmission timing: while
/// [`in_progress`](Self::in_progress) holds, resend on a timer.
#[derive(Debug, Clone)]
pub struct EpochHandshake<P> {
    epoch: Epoch,
    payload: P,
    effective_round: u64,
    awaiting: Vec<bool>,
    completed: u64,
}

impl<P: Payload> EpochHandshake<P> {
    /// A sender for `channels` channels at epoch 0 with nothing announced
    /// and nothing in flight.
    ///
    /// # Panics
    /// Panics on zero channels or more than 16 (the wire-mask cap).
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0 && channels <= 16, "1..=16 channels");
        Self {
            epoch: 0,
            payload: P::default(),
            effective_round: 0,
            awaiting: vec![false; channels],
            completed: 0,
        }
    }

    /// Start announcing `payload`, taking effect at `effective_round`,
    /// over the channels live in `over` — the only ones that can carry it,
    /// so the only ones awaited. Bumps the epoch and supersedes any
    /// handshake in flight. With nothing live the epoch still advances but
    /// nothing is awaited: the parked state.
    pub fn begin(
        &mut self,
        payload: P,
        over: &[bool],
        effective_round: u64,
    ) -> Result<(), MembershipError> {
        if over.len() != self.awaiting.len() {
            return Err(MembershipError::MaskLength {
                expected: self.awaiting.len(),
                got: over.len(),
            });
        }
        self.epoch = self.epoch.wrapping_add(1);
        self.payload = payload;
        self.effective_round = effective_round;
        self.awaiting.copy_from_slice(over);
        Ok(())
    }

    /// The in-flight announcement as one shared message, or `None` when
    /// nothing is in flight.
    pub fn message(&self) -> Option<Control> {
        self.in_progress()
            .then(|| self.payload.announcement(self.epoch, self.effective_round))
    }

    /// Channels still awaiting the current announcement's ack.
    pub fn awaiting_channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.awaiting
            .iter()
            .enumerate()
            .filter(|(_, &w)| w)
            .map(|(c, _)| c)
    }

    /// The current announcement addressed to every channel still awaiting
    /// its ack; empty when nothing is in flight.
    pub fn retransmit(&self) -> Vec<(ChannelId, Control)> {
        match self.message() {
            Some(msg) => self.awaiting_channels().map(|c| (c, msg.clone())).collect(),
            None => Vec::new(),
        }
    }

    /// An ack for `epoch` arrived on `channel`.
    pub fn on_ack(&mut self, channel: ChannelId, epoch: Epoch) -> HandshakeProgress {
        if epoch != self.epoch || !self.awaiting.get(channel).copied().unwrap_or(false) {
            return HandshakeProgress::Ignored;
        }
        self.awaiting[channel] = false;
        if self.in_progress() {
            HandshakeProgress::Pending
        } else {
            self.completed += 1;
            HandshakeProgress::Complete
        }
    }

    /// Stop awaiting acks: a reset superseded this handshake (see the
    /// precedence table). The payload stays recorded as the one in force.
    pub fn abandon(&mut self) {
        self.awaiting.fill(false);
    }

    /// Whether an announcement is still awaiting acks.
    pub fn in_progress(&self) -> bool {
        self.awaiting.iter().any(|&w| w)
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The most recently announced payload (empty before the first).
    pub fn payload(&self) -> &P {
        &self.payload
    }

    /// Handshakes fully acknowledged.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

impl EpochHandshake<Vec<bool>> {
    /// Announce a new live mask (flooded over the mask itself) and return
    /// the `(channel, message)` pairs to transmit.
    pub fn announce(
        &mut self,
        live: &[bool],
        effective_round: u64,
    ) -> Result<Vec<(ChannelId, Control)>, MembershipError> {
        self.begin(live.to_vec(), live, effective_round)?;
        Ok(self.retransmit())
    }

    /// The most recently announced live mask.
    pub fn live(&self) -> &[bool] {
        &self.payload
    }
}

impl EpochHandshake<Flush> {
    /// Begin a reset over every channel and return the requests to send.
    /// Data must pause until the handshake completes.
    pub fn start_reset(&mut self) -> Vec<(ChannelId, Control)> {
        let all = vec![true; self.awaiting.len()];
        self.begin(Flush, &all, 0).expect("mask sized from the set");
        self.retransmit()
    }
}

/// What an [`EpochResponder`] wants done with an incoming announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeAction<P> {
    /// A new epoch: apply `payload` at `effective_round` *and* send `ack`
    /// back on `channel`, the one the announcement arrived on.
    Apply {
        /// Channel to send the ack on.
        channel: ChannelId,
        /// Round at which the payload takes effect.
        effective_round: u64,
        /// What to apply.
        payload: P,
        /// The ack message.
        ack: Control,
    },
    /// A duplicate of the current epoch (a retransmission, or the same
    /// flood arriving on another channel): re-ack, do not re-apply.
    AckOnly {
        /// Channel to send the ack on.
        channel: ChannelId,
        /// The ack message.
        ack: Control,
    },
    /// Stale (older epoch), malformed, or another kind: drop silently.
    Ignore,
}

impl<P> HandshakeAction<P> {
    /// Run `apply(effective_round, payload)` on a first sighting and
    /// return the ack to send back, if any.
    pub fn reply(self, apply: impl FnOnce(u64, P)) -> Option<(ChannelId, Control)> {
        match self {
            Self::Apply {
                channel,
                effective_round,
                payload,
                ack,
            } => {
                apply(effective_round, payload);
                Some((channel, ack))
            }
            Self::AckOnly { channel, ack } => Some((channel, ack)),
            Self::Ignore => None,
        }
    }
}

/// Receiver half of an epoch'd handshake: applies each newer epoch once,
/// re-acks duplicates, drops stale and malformed announcements, and
/// compares epochs circularly so wraparound is harmless.
#[derive(Debug, Clone, Default)]
pub struct EpochResponder<P> {
    epoch: Epoch,
    applied: u64,
    _payload: PhantomData<fn() -> P>,
}

impl<P: Payload> EpochResponder<P> {
    /// A responder that has applied nothing yet: whatever epoch it hears
    /// first is new to it.
    pub fn new() -> Self {
        Self::default()
    }

    /// `ctl` arrived on `channel`; `channels` is the striping-set width,
    /// used to reject announcements naming channels that do not exist.
    pub fn on_announce(
        &mut self,
        channel: ChannelId,
        ctl: &Control,
        channels: usize,
    ) -> HandshakeAction<P> {
        let Some((epoch, effective_round, payload)) = P::unpack(ctl, channels) else {
            return HandshakeAction::Ignore;
        };
        let ack = P::ack(epoch);
        if self.applied == 0 || epoch_newer(epoch, self.epoch) {
            self.epoch = epoch;
            self.applied += 1;
            HandshakeAction::Apply {
                channel,
                effective_round,
                payload,
                ack,
            }
        } else if epoch == self.epoch {
            HandshakeAction::AckOnly { channel, ack }
        } else {
            HandshakeAction::Ignore
        }
    }

    /// The newest epoch applied so far.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }
}

impl EpochResponder<Vec<bool>> {
    /// A [`Control::Membership`] with these fields arrived on `channel`.
    pub fn on_membership(
        &mut self,
        channel: ChannelId,
        epoch: Epoch,
        live_mask: u16,
        effective_round: u64,
        channels: usize,
    ) -> HandshakeAction<Vec<bool>> {
        let ctl = Control::Membership {
            epoch,
            live_mask,
            effective_round,
        };
        self.on_announce(channel, &ctl, channels)
    }
}

impl EpochResponder<Flush> {
    /// A [`Control::ResetRequest`] for `epoch` arrived on `channel`.
    pub fn on_request(&mut self, channel: ChannelId, epoch: Epoch) -> HandshakeAction<Flush> {
        self.on_announce(channel, &Control::ResetRequest { epoch }, 0)
    }

    /// Flushes performed: one per new epoch, never one per channel.
    pub fn flushes(&self) -> u64 {
        self.applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one generic check per payload kind. `payload(over)` builds the
    /// payload to flood over `over` (a mask is flooded over itself).
    macro_rules! for_each_payload {
        ($check:ident) => {
            $check(|over: &[bool]| over.to_vec());
            $check(|over: &[bool]| vec![1500i64; over.len()]);
            $check(|_: &[bool]| Flush);
        };
    }

    fn awaited<P: Payload>(s: &EpochHandshake<P>) -> Vec<ChannelId> {
        s.awaiting_channels().collect()
    }

    #[test]
    fn stale_duplicate_and_out_of_range_acks_are_ignored() {
        fn check<P: Payload>(payload: impl Fn(&[bool]) -> P) {
            let mut s = EpochHandshake::<P>::new(2);
            assert_eq!(
                s.on_ack(0, 0),
                HandshakeProgress::Ignored,
                "nothing in flight"
            );
            assert!(s.retransmit().is_empty());
            let over = [true, true];
            s.begin(payload(&over), &over, 10).unwrap();
            assert_eq!(s.on_ack(0, 0), HandshakeProgress::Ignored, "stale epoch");
            assert_eq!(s.on_ack(7, 1), HandshakeProgress::Ignored, "no channel 7");
            assert_eq!(s.on_ack(0, 1), HandshakeProgress::Pending);
            assert_eq!(s.on_ack(0, 1), HandshakeProgress::Ignored, "duplicate");
            assert_eq!(s.on_ack(1, 1), HandshakeProgress::Complete);
            assert_eq!(s.on_ack(1, 1), HandshakeProgress::Ignored);
            assert_eq!(s.completed(), 1);
        }
        for_each_payload!(check);
    }

    /// The masked flood: only live channels are sent to and awaited, an
    /// ack from a dead channel is a no-op, and the handshake completes on
    /// the live subset alone (waiting on a dead channel would wedge it).
    #[test]
    fn masked_handshake_completes_on_live_subset() {
        fn check<P: Payload>(payload: impl Fn(&[bool]) -> P) {
            let mut s = EpochHandshake::<P>::new(3);
            let over = [true, false, true];
            s.begin(payload(&over), &over, 42).unwrap();
            let msgs = s.retransmit();
            assert_eq!(msgs.iter().map(|(c, _)| *c).collect::<Vec<_>>(), vec![0, 2]);
            assert!(msgs.iter().all(|(_, m)| Some(m) == s.message().as_ref()));
            assert_eq!(s.on_ack(0, 1), HandshakeProgress::Pending);
            assert_eq!(s.on_ack(1, 1), HandshakeProgress::Ignored, "never awaited");
            assert_eq!(awaited(&s), vec![2], "retransmits cover the rest only");
            assert_eq!(s.on_ack(2, 1), HandshakeProgress::Complete);
            assert!(!s.in_progress());
            assert!(s.retransmit().is_empty());
        }
        for_each_payload!(check);
    }

    /// Total blackout: a handshake over no live channel is the legal
    /// parked state — the epoch advances, nothing is awaited, nothing hits
    /// the wire, and the next announcement starts from scratch.
    #[test]
    fn all_dead_flood_parks_with_no_wire_traffic() {
        fn check<P: Payload>(payload: impl Fn(&[bool]) -> P) {
            let mut s = EpochHandshake::<P>::new(2);
            let dead = [false, false];
            s.begin(payload(&dead), &dead, 7)
                .expect("legal parked state");
            assert!(s.retransmit().is_empty(), "no channel can carry the news");
            assert_eq!(s.message(), None);
            assert!(!s.in_progress());
            assert_eq!(s.epoch(), 1);
            let over = [true, false];
            s.begin(payload(&over), &over, 9).unwrap();
            assert_eq!(awaited(&s), vec![0]);
            assert_eq!(s.on_ack(0, 2), HandshakeProgress::Complete);
        }
        for_each_payload!(check);
    }

    /// A newer announcement before the old one completes: new epoch, every
    /// live channel awaited again, acks for the old epoch ignored. Abandon
    /// (reset precedence) stops awaiting but keeps the payload.
    #[test]
    fn superseding_announce_restarts_the_handshake() {
        fn check<P: Payload>(payload: impl Fn(&[bool]) -> P) {
            let mut s = EpochHandshake::<P>::new(2);
            let over = [true, true];
            s.begin(payload(&over), &over, 10).unwrap();
            assert_eq!(s.on_ack(0, 1), HandshakeProgress::Pending);
            s.begin(payload(&over), &over, 20).unwrap();
            assert_eq!(s.epoch(), 2);
            assert_eq!(awaited(&s), vec![0, 1]);
            assert_eq!(s.on_ack(1, 1), HandshakeProgress::Ignored);
            assert_eq!(s.on_ack(0, 2), HandshakeProgress::Pending);
            s.abandon();
            assert!(!s.in_progress());
            assert_eq!(s.on_ack(1, 2), HandshakeProgress::Ignored);
            assert_eq!(s.completed(), 0);
        }
        for_each_payload!(check);
    }

    /// Lossy end to end: one channel's announcement is lost, a retransmit
    /// reaches only the channel still awaiting, duplicates re-ack without
    /// re-applying, and the receiver applies exactly once per epoch.
    #[test]
    fn responder_applies_once_per_epoch_and_reacks_duplicates() {
        fn check<P: Payload>(payload: impl Fn(&[bool]) -> P) {
            let mut s = EpochHandshake::<P>::new(2);
            let mut r = EpochResponder::<P>::new();
            let over = [true, true];
            s.begin(payload(&over), &over, 42).unwrap();
            let msgs = s.retransmit();
            let mut applied = 0;
            // Channel 1's copy is lost; channel 0's applies and acks.
            let HandshakeAction::Apply { channel, ack, .. } = r.on_announce(0, &msgs[0].1, 2)
            else {
                panic!("first sighting must apply");
            };
            applied += 1;
            assert_eq!((channel, ack), (0, P::ack(1)));
            assert_eq!(s.on_ack(0, 1), HandshakeProgress::Pending);
            let retry = s.retransmit();
            assert_eq!(retry.iter().map(|(c, _)| *c).collect::<Vec<_>>(), vec![1]);
            for (c, m) in retry.iter().chain(&msgs) {
                match r.on_announce(*c, m, 2) {
                    HandshakeAction::Apply { .. } => applied += 1,
                    HandshakeAction::AckOnly { channel, ack } => {
                        assert_eq!(channel, *c);
                        let _ = s.on_ack(channel, 1);
                        assert_eq!(ack, P::ack(1));
                    }
                    HandshakeAction::Ignore => panic!("current epoch must ack"),
                }
            }
            assert_eq!(applied, 1, "one application per epoch, not per channel");
            assert!(!s.in_progress());
            // An older epoch after a newer one: silent drop.
            let mut r2 = EpochResponder::<P>::new();
            r2.on_announce(0, &payload(&over).announcement(5, 0), 2);
            let stale = payload(&over).announcement(4, 0);
            assert_eq!(r2.on_announce(0, &stale, 2), HandshakeAction::Ignore);
            assert_eq!(r2.epoch(), 5);
        }
        for_each_payload!(check);
    }

    #[test]
    fn responder_survives_epoch_wraparound() {
        fn check<P: Payload>(payload: impl Fn(&[bool]) -> P) {
            let over = [true, true];
            let mut r = EpochResponder::<P>::new();
            r.on_announce(0, &payload(&over).announcement(u32::MAX, 0), 2);
            assert_eq!(r.epoch(), u32::MAX);
            // The wrapped successor is newer.
            let next = payload(&over).announcement(0, 5);
            assert!(matches!(
                r.on_announce(0, &next, 2),
                HandshakeAction::Apply { .. }
            ));
            assert_eq!(r.epoch(), 0);
        }
        for_each_payload!(check);
    }

    /// Malformed announcements, and other kinds of message, are dropped.
    #[test]
    fn malformed_announcements_are_dropped() {
        let mut r = EpochResponder::<Vec<bool>>::new();
        let other = Control::QuantumAck { epoch: 1 };
        assert_eq!(r.on_announce(0, &other, 2), HandshakeAction::Ignore);
        assert_eq!(r.on_membership(0, 1, 0, 0, 2), HandshakeAction::Ignore);
        // Bit 3 set but only 2 channels exist.
        assert_eq!(r.on_membership(0, 1, 0b1000, 0, 2), HandshakeAction::Ignore);
        let mut r = EpochResponder::<Vec<i64>>::new();
        for quanta in [vec![500], vec![500, 500, 500], vec![500, 0]] {
            let ctl = quanta.announcement(1, 0);
            assert_eq!(r.on_announce(0, &ctl, 2), HandshakeAction::Ignore);
        }
    }

    #[test]
    fn reset_floods_every_channel_and_flushes_once() {
        let mut s = EpochHandshake::<Flush>::new(3);
        let mut r = EpochResponder::<Flush>::new();
        let reqs = s.start_reset();
        assert_eq!(reqs.len(), 3);
        for (c, msg) in reqs {
            let Control::ResetRequest { epoch } = msg else {
                panic!("wrong message type");
            };
            let (channel, ack) = r.on_request(c, epoch).reply(|_, _| ()).unwrap();
            assert_eq!(ack, Control::ResetAck { epoch });
            s.on_ack(channel, epoch);
        }
        assert!(!s.in_progress());
        assert_eq!(s.completed(), 1);
        assert_eq!(r.flushes(), 1, "one flush per epoch, not per channel");
    }

    #[test]
    fn mask_helpers_roundtrip_and_reject_bad_lengths() {
        let v = vec![true, false, true, true];
        assert_eq!(vec_to_mask(&v), Ok(0b1101));
        assert_eq!(mask_to_vec(0b1101, 4), v);
        assert_eq!(
            vec_to_mask(&[true; 17]),
            Err(MembershipError::TooManyChannels { got: 17 })
        );
        let mut s = EpochHandshake::<Vec<bool>>::new(3);
        assert_eq!(
            s.announce(&[true, false], 10),
            Err(MembershipError::MaskLength {
                expected: 3,
                got: 2
            })
        );
        // The failed announce changed nothing.
        assert_eq!(s.epoch(), 0);
        assert!(!s.in_progress());
        let msgs = s.announce(&[true, false, true], 42).unwrap();
        assert_eq!(
            msgs[0].1,
            Control::Membership {
                epoch: 1,
                live_mask: 0b101,
                effective_round: 42
            }
        );
        assert_eq!(s.live(), &[true, false, true]);
    }
}
