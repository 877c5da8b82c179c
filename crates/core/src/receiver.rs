//! Logical reception — the resequencing engine of §4 and §5.
//!
//! The receiver separates *physical* reception (a packet arrives on a
//! channel and is appended to that channel's buffer) from *logical*
//! reception (the packet is removed from a buffer and delivered upward).
//! Logical reception is driven by a simulation of the sender's causal
//! scheduler: the receiver always knows which channel the next packet
//! *logically* arrives on, blocks on that channel's buffer, and services it
//! exactly as the sender's scheduler did. With no loss this reproduces the
//! sender's input order bit-for-bit (Theorem 4.1) — whatever the skew
//! between channels.
//!
//! Loss desynchronizes the simulation; the receiver then delivers a
//! shifted — possibly misordered — sequence until a marker arrives. The §5
//! recovery rule implemented here:
//!
//! - A marker on channel `c` carries `(r, d)`: the round and DC of the next
//!   data packet the sender put on `c` after the marker. The receiver
//!   records it as channel `c`'s *pending mark* (the paper's `r_c`).
//! - **Condition C1**: while `r_c` exceeds the receiver's global round `G`,
//!   the receiver has arrived at `c` "too early" (it lost packets and ran
//!   ahead); it skips `c` in the scan until `G` catches up, then adopts `d`
//!   as the channel's DC and resumes normal service.

use std::collections::VecDeque;

use crate::marker::Marker;
use crate::sched::CausalScheduler;
use crate::types::{ChannelId, WireLen};

/// What physically arrives on a channel: an unmodified data packet or a
/// marker (distinguished by a lower-layer codepoint, never by touching the
/// data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arrival<P> {
    /// An application data packet.
    Data(P),
    /// A synchronization marker.
    Marker(Marker),
}

/// Receiver counters, under the workspace-wide snapshot convention: every
/// endpoint exposes `fn stats(&self) -> …Snapshot` whose drop counters are
/// named `dropped_<cause>` (see `PathSnapshot` in `stripe-transport` for
/// the sender-side sibling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverSnapshot {
    /// Data packets delivered upward.
    pub delivered: u64,
    /// Markers observed (popped from channel buffers).
    pub markers_seen: u64,
    /// Marks adopted into the scheduler state.
    pub marks_applied: u64,
    /// Channel visits skipped under condition C1.
    pub skips: u64,
    /// Arrivals dropped because a channel buffer was full.
    pub dropped_overflow: u64,
    /// Channel visits skipped because the channel is leaving the striping
    /// set (membership announced, nothing buffered to serve).
    pub membership_skips: u64,
    /// Membership changes applied to the simulation.
    pub memberships_applied: u64,
    /// Data packets salvaged from a dead channel's buffer and delivered
    /// out of simulation order.
    pub drained_dead: u64,
    /// Stall episodes reported by [`LogicalReceiver::stalled`].
    pub stalls: u64,
}

/// A reusable batch of logically received packets: the receive-side
/// counterpart of the sender's `TxBatch`. Drain the receiver into one with
/// [`LogicalReceiver::poll_into`]; the buffer is cleared on each refill but
/// keeps its capacity, so a steady-state consumer allocates nothing.
#[derive(Debug, Clone)]
pub struct RxBatch<P> {
    pkts: Vec<P>,
}

impl<P> RxBatch<P> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { pkts: Vec::new() }
    }

    /// An empty batch with room for `cap` packets before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            pkts: Vec::with_capacity(cap),
        }
    }

    /// Packets currently in the batch.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// The packets, in delivery order.
    pub fn as_slice(&self) -> &[P] {
        &self.pkts
    }

    /// Iterate the packets in delivery order.
    pub fn iter(&self) -> std::slice::Iter<'_, P> {
        self.pkts.iter()
    }

    /// Move the packets out, leaving the capacity in place.
    pub fn drain(&mut self) -> std::vec::Drain<'_, P> {
        self.pkts.drain(..)
    }

    /// Discard the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.pkts.clear();
    }
}

impl<P> Default for RxBatch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, P> IntoIterator for &'a RxBatch<P> {
    type Item = &'a P;
    type IntoIter = std::slice::Iter<'a, P>;
    fn into_iter(self) -> Self::IntoIter {
        self.pkts.iter()
    }
}

/// Tracking for one stall episode: how long the receiver has been blocked
/// on a starved channel while other channels have traffic waiting.
#[derive(Debug, Clone, Copy)]
struct StallState {
    channel: ChannelId,
    since_ns: u64,
    reported: bool,
}

/// The logical-reception resequencer.
///
/// `push` arrivals as they physically appear on each channel (in per-channel
/// FIFO order — the channel contract), then `poll` until it returns `None`
/// to drain every packet that is logically deliverable so far.
#[derive(Debug, Clone)]
pub struct LogicalReceiver<S: CausalScheduler, P> {
    sched: S,
    bufs: Vec<VecDeque<Arrival<P>>>,
    /// Pending mark per channel: the paper's `r_c` (plus the DC to adopt).
    pending: Vec<Option<crate::sched::ChannelMark>>,
    /// The live mask last announced by the sender (`true` = staying in the
    /// set). Leads the scheduler's own mask until the effective round.
    target_live: Vec<bool>,
    /// Packets salvaged from dead channels, awaiting delivery.
    drained: VecDeque<P>,
    cap_per_channel: usize,
    stall_timeout_ns: Option<u64>,
    stall: Option<StallState>,
    stats: ReceiverSnapshot,
}

impl<S: CausalScheduler, P: WireLen> LogicalReceiver<S, P> {
    /// Create a receiver simulating `sched` (which must be an identically
    /// configured, fresh copy of the sender's scheduler), with at most
    /// `cap_per_channel` buffered arrivals per channel.
    pub fn new(sched: S, cap_per_channel: usize) -> Self {
        assert!(cap_per_channel > 0, "buffers must hold at least one packet");
        let n = sched.channels();
        Self {
            sched,
            bufs: (0..n).map(|_| VecDeque::new()).collect(),
            pending: vec![None; n],
            target_live: vec![true; n],
            drained: VecDeque::new(),
            cap_per_channel,
            stall_timeout_ns: None,
            stall: None,
            stats: ReceiverSnapshot::default(),
        }
    }

    /// Physical reception: append an arrival to channel `c`'s buffer.
    ///
    /// Returns `false` (and drops the arrival) if the buffer is full —
    /// finite buffers are part of the channel model; the §6.3 credit scheme
    /// exists to prevent exactly this.
    pub fn push(&mut self, c: ChannelId, a: Arrival<P>) -> bool {
        if self.bufs[c].len() >= self.cap_per_channel {
            self.stats.dropped_overflow += 1;
            return false;
        }
        self.bufs[c].push_back(a);
        true
    }

    /// Pre-size every channel ring (and the salvage queue) for `per_channel`
    /// arrivals, so steady-state operation below that depth never grows a
    /// buffer. The batch datapath's zero-allocation guarantee assumes a
    /// warmed receiver.
    pub fn reserve(&mut self, per_channel: usize) {
        for b in &mut self.bufs {
            b.reserve(per_channel.saturating_sub(b.len()));
        }
        self.drained.reserve(per_channel);
    }

    /// Logical reception in bulk: deliver every packet that is deliverable
    /// right now into `out` (cleared first, capacity kept) and return how
    /// many were delivered. Equivalent to calling [`poll`](Self::poll)
    /// until it returns `None`.
    pub fn poll_into(&mut self, out: &mut RxBatch<P>) -> usize {
        out.pkts.clear();
        while let Some(p) = self.poll() {
            out.pkts.push(p);
        }
        out.pkts.len()
    }

    /// Logical reception: deliver the next in-order packet, or `None` if the
    /// receiver is blocked waiting for an arrival on the expected channel.
    ///
    /// Packets salvaged from a channel the scheduler has masked out (see
    /// [`LogicalReceiver::apply_membership`]) are delivered first — out of
    /// simulation order, but quasi-FIFO tolerates that and it beats
    /// dropping data that already arrived.
    pub fn poll(&mut self) -> Option<P> {
        self.drain_dead();
        if let Some(p) = self.drained.pop_front() {
            self.stats.delivered += 1;
            self.stall = None;
            return Some(p);
        }
        loop {
            let c = self.sched.current();

            // Membership skip: the sender announced `c` is leaving the set,
            // so its in-flight packets for the rounds before the mask takes
            // effect are presumed lost with the channel. Anything already
            // buffered is still served in order; an empty buffer is skipped
            // instead of blocked on.
            if !self.target_live[c] && self.bufs[c].is_empty() {
                self.sched.skip_current();
                self.stats.membership_skips += 1;
                continue;
            }

            // Condition C1: honour a pending mark for the expected channel.
            if let Some(m) = self.pending[c] {
                if m.round > self.sched.round() {
                    // Arrived too early at `c` (losses made us run ahead):
                    // skip it this round.
                    self.sched.skip_current();
                    self.stats.skips += 1;
                    continue;
                }
                self.sched.apply_mark(c, m);
                self.pending[c] = None;
                self.stats.marks_applied += 1;
            }

            match self.bufs[c].front() {
                None => return None, // block on the expected channel
                Some(Arrival::Marker(_)) => {
                    let Some(Arrival::Marker(mk)) = self.bufs[c].pop_front() else {
                        unreachable!("front() said marker");
                    };
                    self.stats.markers_seen += 1;
                    // Newest marker wins: it reflects fresher sender state.
                    self.pending[c] = Some(mk.mark);
                }
                Some(Arrival::Data(_)) => {
                    let Some(Arrival::Data(p)) = self.bufs[c].pop_front() else {
                        unreachable!("front() said data");
                    };
                    self.sched.advance(p.wire_len());
                    self.stats.delivered += 1;
                    self.stall = None;
                    return Some(p);
                }
            }
        }
    }

    /// Move anything buffered on a channel the scheduler has masked out
    /// into the salvage queue: its data will never be logically scheduled
    /// again, so deliver it out of order rather than strand it. Stale
    /// markers and pending marks for the channel are discarded.
    fn drain_dead(&mut self) {
        for c in 0..self.bufs.len() {
            if self.sched.live(c) || self.bufs[c].is_empty() {
                continue;
            }
            while let Some(a) = self.bufs[c].pop_front() {
                match a {
                    Arrival::Data(p) => {
                        self.drained.push_back(p);
                        self.stats.drained_dead += 1;
                    }
                    Arrival::Marker(_) => self.stats.markers_seen += 1,
                }
            }
            self.pending[c] = None;
        }
    }

    /// Apply a received membership change (from a
    /// [`Control::Membership`](crate::control::Control::Membership)): from
    /// `effective_round` the simulation visits exactly the channels with
    /// `live[c] == true`, matching the sender's scheduler. Until that round
    /// the departing channels' buffers are served if non-empty and skipped
    /// if empty (their in-flight packets died with the channel). Safe to
    /// call as soon as the message arrives.
    pub fn apply_membership(&mut self, effective_round: u64, live: &[bool]) {
        assert_eq!(
            live.len(),
            self.bufs.len(),
            "membership update must cover every channel"
        );
        self.target_live = live.to_vec();
        self.sched.schedule_mask(effective_round, live);
        self.stats.memberships_applied += 1;
    }

    /// Arm the stall detector: [`LogicalReceiver::stalled`] reports a
    /// channel once the receiver has been blocked on it for `timeout_ns`
    /// while traffic waits on other channels.
    pub fn set_stall_timeout(&mut self, timeout_ns: u64) {
        self.stall_timeout_ns = Some(timeout_ns);
    }

    /// Liveness probe for the layer above: `Some(c)` when the receiver has
    /// been blocked on channel `c`'s empty buffer for at least the
    /// configured timeout *while other channels have arrivals waiting* —
    /// the signature of a dead channel head-of-line blocking the stripe.
    /// Returns `None` when no timeout is configured
    /// ([`LogicalReceiver::set_stall_timeout`]), when delivery is flowing,
    /// or when the whole stripe is simply idle.
    ///
    /// Call periodically with a monotone clock; each stall episode bumps
    /// [`ReceiverSnapshot::stalls`] once.
    pub fn stalled(&mut self, now_ns: u64) -> Option<ChannelId> {
        let timeout = self.stall_timeout_ns?;
        let c = self.sched.current();
        let starved = self.bufs[c].is_empty() && self.buffered_total() > 0;
        if !starved {
            self.stall = None;
            return None;
        }
        let st = match &mut self.stall {
            Some(st) if st.channel == c => st,
            _ => {
                self.stall = Some(StallState {
                    channel: c,
                    since_ns: now_ns,
                    reported: false,
                });
                self.stall.as_mut().expect("just set")
            }
        };
        if now_ns.saturating_sub(st.since_ns) >= timeout {
            if !st.reported {
                st.reported = true;
                self.stats.stalls += 1;
            }
            Some(c)
        } else {
            None
        }
    }

    /// Which channel the receiver is currently blocked on (the next logical
    /// arrival), useful for diagnostics.
    pub fn expected_channel(&self) -> ChannelId {
        self.sched.current()
    }

    /// Number of arrivals buffered on channel `c` awaiting logical
    /// reception.
    pub fn buffered(&self, c: ChannelId) -> usize {
        self.bufs[c].len()
    }

    /// Total arrivals buffered across all channels.
    pub fn buffered_total(&self) -> usize {
        self.bufs.iter().map(VecDeque::len).sum()
    }

    /// Counters.
    pub fn stats(&self) -> ReceiverSnapshot {
        self.stats
    }

    /// The simulation scheduler (read-only).
    pub fn scheduler(&self) -> &S {
        &self.sched
    }

    /// Apply a received quantum renegotiation: the simulation switches
    /// quanta at the same round the sender does (from a
    /// [`Control::QuantumAnnounce`](crate::control::Control::QuantumAnnounce)).
    /// Safe to call as soon as the message arrives — the round gate inside
    /// the scheduler handles the timing.
    pub fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        self.sched.schedule_quanta(effective_round, quanta);
    }

    /// Reset to initial state, discarding buffers (endpoint restart, §5).
    pub fn reset(&mut self) {
        self.sched.reset();
        for b in &mut self.bufs {
            b.clear();
        }
        for p in &mut self.pending {
            *p = None;
        }
        for l in &mut self.target_live {
            *l = true;
        }
        self.drained.clear();
        self.stall = None;
        self.stats = ReceiverSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Srr;
    use crate::sender::{MarkerConfig, StripingSender};
    use crate::types::TestPacket;

    fn pump<S: CausalScheduler + Clone>(
        sched: S,
        cfg: MarkerConfig,
        lens: impl IntoIterator<Item = usize>,
        lose: impl Fn(u64, ChannelId) -> bool,
    ) -> (Vec<u64>, ReceiverSnapshot) {
        let mut tx = StripingSender::new(sched.clone(), cfg);
        let mut rx = LogicalReceiver::new(sched, 4096);
        let mut out = Vec::new();
        for (id, len) in lens.into_iter().enumerate() {
            let id = id as u64;
            let d = tx.send(len);
            if !lose(id, d.channel) {
                rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
            }
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        (out, rx.stats())
    }

    /// Theorem 4.1: without loss, output order equals input order, whatever
    /// the sizes.
    #[test]
    fn lossless_delivery_is_fifo() {
        let lens = (0..500).map(|i| 40 + (i * 97) % 1460);
        let (out, _) = pump(
            Srr::equal(3, 1500),
            MarkerConfig::disabled(),
            lens,
            |_, _| false,
        );
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    /// Theorem 4.1 holds for weighted channels too.
    #[test]
    fn lossless_fifo_with_weighted_channels() {
        let lens = (0..500).map(|i| 64 + (i * 131) % 1400);
        let (out, _) = pump(
            Srr::weighted(&[1500, 4500, 3000]),
            MarkerConfig::disabled(),
            lens,
            |_, _| false,
        );
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    /// The round-robin loss example of §4: with packet 1 lost and no
    /// markers, delivery is permanently shifted on the lossy channel.
    #[test]
    fn single_loss_without_markers_misorders_forever() {
        // RR over 2 channels; lose the very first packet (id 0, channel 0).
        let (out, _) = pump(
            Srr::rr(2),
            MarkerConfig::disabled(),
            std::iter::repeat_n(100, 12),
            |id, _| id == 0,
        );
        // Receiver pairs packet 2 with channel 0's next arrival: sequence
        // becomes 2,1,4,3,... exactly the paper's permanent reordering.
        assert_eq!(out, vec![2, 1, 4, 3, 6, 5, 8, 7, 10, 9]);
    }

    /// Figures 8–13: two equal channels, unit-size packets, packet 7 (our
    /// id 6) lost; a marker restores synchronization and FIFO delivery.
    #[test]
    fn figure_8_to_13_walkthrough() {
        let (out, stats) = pump(
            Srr::rr(2),
            MarkerConfig::every_rounds(3),
            std::iter::repeat_n(100, 24),
            |id, _| id == 6,
        );
        // Deliveries eventually return to consecutive order.
        let tail = &out[out.len() - 8..];
        let first = tail[0];
        let expect: Vec<u64> = (first..first + 8).collect();
        assert_eq!(tail, &expect[..], "full delivery: {out:?}");
        assert!(stats.skips >= 1, "C1 skip must have fired");
        assert!(stats.marks_applied >= 1);
    }

    /// After losses stop and one marker per channel arrives, delivery is
    /// FIFO again (Theorem 5.1) — bursty loss case.
    #[test]
    fn marker_recovery_after_burst_loss() {
        let lens = (0..2000).map(|i| 60 + (i * 53) % 1200);
        let (out, stats) = pump(
            Srr::equal(4, 1500),
            MarkerConfig::every_rounds(4),
            lens,
            |id, _| (300..420).contains(&id), // a 120-packet burst vanishes
        );
        // The tail after recovery must be strictly consecutive.
        assert!(out.len() > 1700);
        let tail = &out[out.len() - 1000..];
        for w in tail.windows(2) {
            assert_eq!(w[1], w[0] + 1, "tail not FIFO: ...{w:?}...");
        }
        assert!(stats.skips > 0);
    }

    /// Losing *everything* on one channel for a while must not deadlock the
    /// receiver: markers unblock it.
    #[test]
    fn dead_channel_does_not_deadlock() {
        let lens = std::iter::repeat_n(500, 2000);
        let (out, _) = pump(
            Srr::equal(2, 1500),
            MarkerConfig::every_rounds(2),
            lens,
            |id, ch| ch == 1 && id < 1000, // channel 1 black-holes early on
        );
        // Everything sent after the blackout must eventually be delivered.
        assert!(out.iter().any(|&id| id >= 1995), "delivered: {}", out.len());
        let tail = &out[out.len() - 200..];
        for w in tail.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 2);
        assert!(rx.push(1, Arrival::Data(TestPacket::new(0, 10))));
        assert!(rx.push(1, Arrival::Data(TestPacket::new(1, 10))));
        assert!(!rx.push(1, Arrival::Data(TestPacket::new(2, 10))));
        assert_eq!(rx.stats().dropped_overflow, 1);
    }

    /// `poll_into` drains exactly what repeated `poll` would, reusing the
    /// batch buffer across refills.
    #[test]
    fn poll_into_matches_repeated_poll() {
        let sched = Srr::equal(2, 1000);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(4));
        let mut rx_batch = LogicalReceiver::new(sched.clone(), 4096);
        let mut rx_legacy = LogicalReceiver::new(sched, 4096);
        let mut batch = RxBatch::with_capacity(64);
        let mut got_batch = Vec::new();
        let mut got_legacy = Vec::new();
        for id in 0..600u64 {
            let len = 60 + (id as usize * 113) % 1200;
            let d = tx.send(len);
            for rx in [&mut rx_batch, &mut rx_legacy] {
                rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
                for (c, mk) in &d.markers {
                    rx.push(*c, Arrival::Marker(*mk));
                }
            }
            rx_batch.poll_into(&mut batch);
            got_batch.extend(batch.iter().map(|p| p.id));
            while let Some(p) = rx_legacy.poll() {
                got_legacy.push(p.id);
            }
        }
        assert_eq!(got_batch, got_legacy);
        assert_eq!(got_batch, (0..600).collect::<Vec<_>>());
        assert_eq!(rx_batch.stats(), rx_legacy.stats());
    }

    #[test]
    fn blocked_receiver_reports_expected_channel() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 8);
        // Data waiting on channel 1, but channel 0 is logically next.
        rx.push(1, Arrival::Data(TestPacket::new(1, 100)));
        assert_eq!(rx.poll(), None);
        assert_eq!(rx.expected_channel(), 0);
        assert_eq!(rx.buffered(1), 1);
        // The expected packet arrives: both drain in order.
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        assert_eq!(rx.poll().map(|p| p.id), Some(0));
        assert_eq!(rx.poll().map(|p| p.id), Some(1));
        assert_eq!(rx.poll(), None);
    }

    /// Quantum renegotiation mid-stream, carried by the epoch'd retune
    /// handshake: both ends switch at the same round and FIFO delivery
    /// holds throughout — no loss, no reorder.
    #[test]
    fn fifo_across_quantum_renegotiation() {
        use crate::control::Control;
        use crate::handshake::{EpochHandshake, EpochResponder};
        let sched = Srr::weighted(&[1500, 1500]);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(8));
        let mut rx = LogicalReceiver::new(sched, 4096);
        let mut retune = EpochHandshake::<Vec<i64>>::new(2);
        let mut responder = EpochResponder::<Vec<i64>>::new();
        let mut out = Vec::new();
        let mut announced = false;
        for id in 0..2000u64 {
            let len = 100 + (id as usize * 97) % 1300;
            // Partway in, channel 1's rate "triples": renegotiate.
            // The epoch'd retune: the sender schedules the change locally
            // and floods it; the first copy applies, the rest re-ack.
            if !announced && tx.scheduler().round() == 20 {
                announced = true;
                let round = tx.scheduler().round() + 4;
                retune
                    .begin(vec![1500, 4500], &[true, true], round)
                    .unwrap();
                tx.schedule_quanta(round, retune.payload());
                for (c, ctl) in retune.retransmit() {
                    let apply = |eff, quanta: Vec<i64>| rx.schedule_quanta(eff, &quanta);
                    if let Some((ch, Control::QuantumAck { epoch })) =
                        responder.on_announce(c, &ctl, 2).reply(apply)
                    {
                        retune.on_ack(ch, epoch);
                    }
                }
                assert!(!retune.in_progress(), "every live channel acked");
            }
            let d = tx.send(len);
            rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        assert!(announced, "renegotiation never triggered");
        assert_eq!(out, (0..2000).collect::<Vec<_>>());
        // And the shares did shift: channel 1 carried ~3x after the change.
        let acct = tx.accountant();
        assert!(acct.bytes(1) > 2 * acct.bytes(0), "{:?}", acct);
    }

    /// Membership shrink mid-stream: channel 1 dies (all its packets are
    /// lost), both ends apply the same mask at the same round, and
    /// delivery continues on the survivors without deadlock — losing only
    /// the in-flight packets that died with the channel.
    #[test]
    fn membership_shrink_degrades_without_deadlock() {
        let sched = Srr::equal(3, 1500);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(4));
        let mut rx = LogicalReceiver::new(sched, 4096);
        let mut out = Vec::new();
        let mut dead = false;
        for id in 0..3000u64 {
            let len = 80 + (id as usize * 61) % 1300;
            // At round 30 the sender learns channel 1 died at round 25:
            // everything on channel 1 since then was lost in flight.
            if !dead && tx.scheduler().round() >= 30 {
                dead = true;
                let eff = tx.scheduler().round() + 2;
                tx.schedule_mask(eff, &[true, false, true]);
                rx.apply_membership(eff, &[true, false, true]);
            }
            let d = tx.send(len);
            let lost = d.channel == 1 && dead;
            // Model in-flight loss: once we decide ch1 is dying, its data
            // and markers stop arriving (the scheduler still assigns to it
            // until the mask's effective round).
            if !lost {
                rx.push(d.channel, Arrival::Data(TestPacket::new(id, len)));
            }
            for (c, mk) in d.markers {
                if c != 1 || !dead {
                    rx.push(c, Arrival::Marker(mk));
                }
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        assert!(dead);
        let stats = rx.stats();
        assert!(stats.membership_skips > 0, "{stats:?}");
        assert_eq!(stats.memberships_applied, 1);
        // Everything not sent on the dead channel after the cut arrives.
        assert!(out.contains(&2999), "delivered {} packets", out.len());
        // The tail (after degradation settles) is strictly consecutive
        // on the surviving channels: quasi-FIFO holds at N-1.
        let tail = &out[out.len() - 500..];
        for w in tail.windows(2) {
            assert!(w[1] > w[0], "tail misordered: {w:?}");
        }
    }

    /// Growing the set back: after a shrink, the same handshake with the
    /// bit restored reintegrates the channel and exact FIFO resumes.
    #[test]
    fn membership_grow_reintegrates_channel() {
        let sched = Srr::equal(2, 1000);
        let mut tx = StripingSender::new(sched.clone(), MarkerConfig::every_rounds(4));
        let mut rx = LogicalReceiver::new(sched, 4096);
        // Shrink to channel 0 only, effective immediately-ish.
        let eff = tx.scheduler().round() + 1;
        tx.schedule_mask(eff, &[true, false]);
        rx.apply_membership(eff, &[true, false]);
        let mut out = Vec::new();
        for id in 0..200u64 {
            let d = tx.send(500);
            rx.push(d.channel, Arrival::Data(TestPacket::new(id, 500)));
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        assert!(out.iter().all(|&id| id < 200));
        // Recover: grow back to both channels.
        let eff = tx.scheduler().round() + 2;
        tx.schedule_mask(eff, &[true, true]);
        rx.apply_membership(eff, &[true, true]);
        for id in 200..1200u64 {
            let d = tx.send(500);
            rx.push(d.channel, Arrival::Data(TestPacket::new(id, 500)));
            for (c, mk) in d.markers {
                rx.push(c, Arrival::Marker(mk));
            }
            while let Some(p) = rx.poll() {
                out.push(p.id);
            }
        }
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        // No loss anywhere in this run: exact FIFO end to end.
        assert_eq!(out, (0..1200).collect::<Vec<_>>());
        // And the reintegrated channel is actually carrying load again.
        assert!(tx.accountant().bytes(1) > 0);
    }

    /// Data already buffered on a channel when its mask takes effect is
    /// salvaged (delivered out of order), not stranded.
    #[test]
    fn dead_channel_buffer_is_drained_not_stranded() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 8);
        // Shrink to channel 0, effective immediately (round clamps
        // internally); serving channel 0 past a wrap makes it bite.
        rx.apply_membership(0, &[true, false]);
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        rx.push(0, Arrival::Data(TestPacket::new(1, 100)));
        let mut out = Vec::new();
        while let Some(p) = rx.poll() {
            out.push(p.id);
        }
        assert_eq!(out, vec![0, 1]);
        // A straggler arrives on the now-dead channel: salvaged, not
        // stranded.
        rx.push(1, Arrival::Data(TestPacket::new(7, 100)));
        assert_eq!(rx.poll().map(|p| p.id), Some(7));
        assert_eq!(rx.stats().drained_dead, 1);
        assert_eq!(rx.buffered_total(), 0);
    }

    /// The stall probe: blocked on an empty channel while others queue up
    /// reports after the timeout, once per episode, and clears on delivery.
    #[test]
    fn stalled_reports_starved_channel_after_timeout() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 64);
        // No timeout configured: never reports.
        assert_eq!(rx.stalled(1_000_000), None);
        rx.set_stall_timeout(1_000_000); // 1ms
                                         // Idle stripe (nothing buffered anywhere): not a stall.
        assert_eq!(rx.stalled(0), None);
        assert_eq!(rx.stalled(5_000_000), None);
        // Channel 0 is expected but silent; channel 1 queues up.
        rx.push(1, Arrival::Data(TestPacket::new(1, 100)));
        assert_eq!(rx.poll(), None);
        assert_eq!(rx.stalled(10_000_000), None); // episode starts now
        assert_eq!(rx.stalled(10_500_000), None); // not yet
        assert_eq!(rx.stalled(11_000_000), Some(0)); // timed out
        assert_eq!(rx.stalled(12_000_000), Some(0)); // still stalled
        assert_eq!(rx.stats().stalls, 1, "one episode, one count");
        // The missing packet shows up: stall clears.
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        assert!(rx.poll().is_some());
        assert_eq!(rx.stalled(13_000_000), None);
        assert_eq!(rx.stats().stalls, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut rx: LogicalReceiver<_, TestPacket> = LogicalReceiver::new(Srr::rr(2), 8);
        rx.push(0, Arrival::Data(TestPacket::new(0, 100)));
        rx.poll();
        rx.reset();
        assert_eq!(rx.stats(), ReceiverSnapshot::default());
        assert_eq!(rx.buffered_total(), 0);
        assert_eq!(rx.expected_channel(), 0);
    }
}
