//! The real-socket striping sender: [`NetStripedPath`] is the
//! [`StripedPath`] of the kernel-network world — implemented, since the
//! multi-flow redesign, as the *single-flow special case* of
//! [`StripeServer`].
//!
//! The path owns a one-flow server in legacy-frame mode: flow 0, an
//! unbounded flow queue, untagged version-1 frames on the wire. A
//! [`send_batch`](NetStripedPath::send_batch) enqueues the burst on the
//! single flow and pumps it to completion; with one flow, the server's
//! inter-flow DRR degenerates to strict FIFO and everything observable —
//! channel decisions, marker interleaving points, GSO pad targets, the
//! single end-of-batch flush, the [`PathSnapshot`] counters, and the
//! bytes on the wire — is identical to the dedicated single-flow
//! datapath this type used to be. The PR 2–6 test suites run against
//! this wrapper unmodified.
//!
//! The contract, unchanged:
//!
//! - `arrival: Some(now)` in a [`Transmission`] means "handed to the
//!   network at this instant". The real arrival time is unknowable; the
//!   far end finds out when the frame shows up. `None` still means the
//!   frame never left
//!   ([`TxError::QueueFull`](stripe_link::TxError::QueueFull)
//!   backpressure and friends).
//! - The batch path encodes into recycled buffers and offers each
//!   same-channel run through [`DatagramLink::send_run_owned`] — the
//!   zero-copy `sendmmsg` seam, with one end-of-batch flush submitting
//!   each channel's whole accumulated burst as one `mmsghdr` batch. A
//!   steady-state sender performs **zero heap allocations per packet**.
//! - [`ControlPath`] is implemented, so the PR-1
//!   [`FailoverDriver`](stripe_transport::FailoverDriver) drives
//!   liveness probes and membership handshakes over real sockets
//!   unchanged.
//!
//! [`StripedPath`]: stripe_transport::StripedPath

use stripe_core::control::Control;
use stripe_core::receiver::Arrival;
use stripe_core::sched::CausalScheduler;
use stripe_core::sender::{MarkerConfig, StripingSender};
use stripe_core::types::{ChannelId, WireLen};
use stripe_link::DatagramLink;
use stripe_netsim::SimTime;
use stripe_transport::{ControlPath, ControlTransmission, PathSnapshot, Transmission, TxBatch};

use crate::server::{FlowHandle, PumpEvent, StripeServer};

/// Builder for [`NetStripedPath`], mirroring
/// [`StripedPathBuilder`](stripe_transport::StripedPathBuilder).
#[derive(Debug)]
pub struct NetStripedPathBuilder<S: CausalScheduler, L: DatagramLink> {
    sched: Option<S>,
    markers: MarkerConfig,
    links: Vec<L>,
    integrity: bool,
}

impl<S: CausalScheduler, L: DatagramLink> Default for NetStripedPathBuilder<S, L> {
    fn default() -> Self {
        Self {
            sched: None,
            markers: MarkerConfig::disabled(),
            links: Vec::new(),
            integrity: false,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> NetStripedPathBuilder<S, L> {
    /// The causal scheduler driving channel selection. Required.
    pub fn scheduler(mut self, sched: S) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Marker emission policy. Defaults to [`MarkerConfig::disabled`].
    pub fn markers(mut self, cfg: MarkerConfig) -> Self {
        self.markers = cfg;
        self
    }

    /// The member links, one per scheduler channel. Required.
    pub fn links(mut self, links: Vec<L>) -> Self {
        self.links = links;
        self
    }

    /// Append a single member link.
    pub fn link(mut self, link: L) -> Self {
        self.links.push(link);
        self
    }

    /// Emit data frames with a CRC-8 trailer
    /// ([`KIND_DATA_SUMMED`](crate::frame::KIND_DATA_SUMMED)) so the far
    /// end detects payload corruption instead of delivering flipped bits
    /// (§5's "detectable corruption" assumption made literal). Costs one
    /// byte per frame plus the checksum pass; defaults to off, so the
    /// headline datapath pays nothing.
    pub fn integrity(mut self, on: bool) -> Self {
        self.integrity = on;
        self
    }
}

impl<S: CausalScheduler + Clone, L: DatagramLink> NetStripedPathBuilder<S, L> {
    /// Assemble the path: a one-flow [`StripeServer`] in legacy-frame
    /// mode with flow 0 pre-opened.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied or if the link count differs
    /// from the scheduler's channel count.
    pub fn build(self) -> NetStripedPath<S, L> {
        let sched = self.sched.expect("NetStripedPathBuilder needs a scheduler");
        assert_eq!(
            self.links.len(),
            sched.channels(),
            "one link per scheduler channel"
        );
        let mut server = StripeServer::builder()
            .scheduler(sched)
            .markers(self.markers)
            .links(self.links)
            .integrity(self.integrity)
            .legacy_frames(true)
            .max_flows(1)
            .park_capacity(0)
            .queue_frames(usize::MAX)
            .build();
        let handle = server.open_flow().expect("a fresh server admits flow 0");
        NetStripedPath {
            server,
            handle,
            events: Vec::new(),
        }
    }
}

/// A striping sender bound to real datagram channels — flow 0 of a
/// one-flow [`StripeServer`].
#[derive(Debug)]
pub struct NetStripedPath<S: CausalScheduler, L: DatagramLink> {
    server: StripeServer<S, L>,
    handle: FlowHandle,
    /// Recycled pump-event scratch (steady state allocates nothing).
    events: Vec<PumpEvent>,
}

impl<S: CausalScheduler, L: DatagramLink> NetStripedPath<S, L> {
    /// Start building a path: `NetStripedPath::builder().scheduler(…)
    /// .markers(…).links(…).build()`.
    pub fn builder() -> NetStripedPathBuilder<S, L> {
        NetStripedPathBuilder::default()
    }

    /// The striped *payload* MTU: the minimum member frame MTU minus the
    /// frame header (§6.1's minimum-MTU rule, net of framing).
    pub fn max_payload(&self) -> usize {
        self.server.max_payload()
    }

    /// Stripe a whole burst at `now` into a caller-owned batch with zero
    /// steady-state heap allocation: `pkts` is drained (capacity stays
    /// with the caller) and `out` is cleared and refilled in offer order
    /// — each data packet, then each marker batch right after the packet
    /// it follows. Channel decisions and marker points are identical to
    /// the simulated path's `send_batch` for the same scheduler state.
    ///
    /// `arrival: Some(now)` means the frame was handed to the network
    /// (or parked in the link's bounded backlog for the next flush);
    /// `None` plus `error` means it never left.
    pub fn send_batch<P: WireLen + AsRef<[u8]>>(
        &mut self,
        now: SimTime,
        pkts: &mut Vec<P>,
        out: &mut TxBatch<P>,
    ) {
        out.clear();
        if self.server.parked() {
            // Total blackout or §5 reset in flight: fail the whole burst
            // fast instead of queueing into a parked flow. Same shape as
            // the simulated path — no arrival, `LinkDown` per packet.
            for pkt in pkts.drain(..) {
                out.push(Transmission {
                    channel: 0,
                    arrival: None,
                    item: Arrival::Data(pkt),
                    error: Some(stripe_link::TxError::LinkDown),
                });
            }
            return;
        }
        for pkt in pkts.iter() {
            self.server
                .enqueue(self.handle, pkt.as_ref())
                .expect("the single flow's queue is unbounded");
        }
        // One flow: the DRR degenerates to FIFO, so the pump serves this
        // exact burst in order, markers interleaved at the SRR's
        // boundaries, one flush at the end — the legacy batch, restated.
        self.server.pump_into(now, usize::MAX, &mut self.events);
        let mut pkt_iter = pkts.drain(..);
        for ev in self.events.drain(..) {
            match ev {
                PumpEvent::Data { channel, error, .. } => {
                    let pkt = pkt_iter.next().expect("one packet per data event");
                    out.push(Transmission {
                        channel,
                        arrival: if error.is_none() { Some(now) } else { None },
                        item: Arrival::Data(pkt),
                        error,
                    });
                }
                PumpEvent::Marker {
                    channel,
                    marker,
                    error,
                    ..
                } => {
                    out.push(Transmission {
                        channel,
                        arrival: if error.is_none() { Some(now) } else { None },
                        item: Arrival::Marker(marker),
                        error,
                    });
                }
            }
        }
        debug_assert!(pkt_iter.next().is_none(), "every packet was served");
    }

    /// Emit a full marker batch into a caller-owned buffer (timer-driven
    /// markers during idle periods). `out` is cleared first.
    pub fn send_markers_into<P>(&mut self, now: SimTime, out: &mut TxBatch<P>) {
        out.clear();
        self.server.send_idle_markers_into(now, &mut self.events);
        for ev in self.events.drain(..) {
            if let PumpEvent::Marker {
                channel,
                marker,
                error,
                ..
            } = ev
            {
                out.push(Transmission {
                    channel,
                    arrival: if error.is_none() { Some(now) } else { None },
                    item: Arrival::Marker(marker),
                    error,
                });
            }
        }
    }

    /// Try to drain every link's local backlog (after kernel
    /// backpressure). Returns the total number of frames that left.
    pub fn flush(&mut self) -> usize {
        self.server.flush()
    }

    /// Frames parked across all link backlogs.
    pub fn backlog(&self) -> usize {
        self.server.backlog()
    }

    /// Loss/overhead counters (shared shape with the simulated path).
    pub fn stats(&self) -> PathSnapshot {
        self.server.stats().path
    }

    /// The member links.
    pub fn links(&self) -> &[L] {
        self.server.links()
    }

    /// Mutable access to the member links (the reactor's receive sweep).
    pub fn links_mut(&mut self) -> &mut [L] {
        self.server.links_mut()
    }

    /// Take the links back out, consuming the path — endpoint teardown
    /// wants its sockets (and their final counters) returned.
    pub fn into_links(self) -> Vec<L> {
        self.server.into_links()
    }

    /// The sender engine (fairness ledgers, marker counts) — flow 0's.
    pub fn sender(&self) -> &StripingSender<S> {
        self.server
            .flow_sender(self.handle)
            .expect("flow 0 never closes")
    }

    /// Mutable access to the sender engine (membership, resets).
    pub fn sender_mut(&mut self) -> &mut StripingSender<S> {
        self.server
            .flow_sender_mut(self.handle)
            .expect("flow 0 never closes")
    }

    /// Is the path parked (total blackout or §5 reset in flight)? Data
    /// sends fail fast with `LinkDown`; control still flows.
    pub fn parked(&self) -> bool {
        self.server.parked()
    }

    /// The underlying one-flow server.
    pub fn server(&self) -> &StripeServer<S, L> {
        &self.server
    }
}

impl<S: CausalScheduler, L: DatagramLink> ControlPath for NetStripedPath<S, L> {
    fn channels(&self) -> usize {
        ControlPath::channels(&self.server)
    }

    fn current_round(&self) -> u64 {
        ControlPath::current_round(&self.server)
    }

    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        ControlPath::schedule_mask(&mut self.server, effective_round, live);
    }

    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        ControlPath::schedule_quanta(&mut self.server, effective_round, quanta);
    }

    fn reset_engine(&mut self) {
        self.server.reset_flows();
    }

    fn transmit_control(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: Control,
    ) -> ControlTransmission {
        ControlPath::transmit_control(&mut self.server, now, c, ctl)
    }

    fn transmit_control_ref(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> ControlTransmission {
        ControlPath::transmit_control_ref(&mut self.server, now, c, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, Frame, FRAME_HEADER_LEN};
    use bytes::Bytes;
    use stripe_core::sched::Srr;
    use stripe_link::{datagram_pair, TestDatagramLink, TxError};

    fn two_channel_path(
        markers: MarkerConfig,
    ) -> (NetStripedPath<Srr, TestDatagramLink>, Vec<TestDatagramLink>) {
        let (a0, b0) = datagram_pair(1503, 1024);
        let (a1, b1) = datagram_pair(1503, 1024);
        let path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(markers)
            .links(vec![a0, a1])
            .build();
        (path, vec![b0, b1])
    }

    fn drain(link: &mut TestDatagramLink) -> Vec<Vec<u8>> {
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        while let Some(n) = link.recv_frame(&mut buf) {
            out.push(buf[..n].to_vec());
        }
        out
    }

    /// Channel decisions must match a bare scheduler fed the same
    /// lengths — the net path shares the sim path's engine exactly.
    #[test]
    fn channel_decisions_match_bare_scheduler() {
        let (mut path, mut peers) = two_channel_path(MarkerConfig::disabled());
        let mut bare = Srr::equal(2, 1500);
        let lens = [550usize, 200, 1400, 150, 300, 900, 60, 1200];
        let mut pkts: Vec<Bytes> = lens.iter().map(|&l| Bytes::from(vec![0xAA; l])).collect();
        let mut out = TxBatch::new();
        path.send_batch(SimTime::ZERO, &mut pkts, &mut out);
        assert_eq!(out.len(), lens.len());
        for (t, &len) in out.iter().zip(&lens) {
            let expect = bare.current();
            bare.advance(len);
            assert_eq!(t.channel, expect);
            assert_eq!(t.arrival, Some(SimTime::ZERO));
        }
        // And the frames really left: payload bytes arrive framed.
        let per_ch: usize = peers.iter_mut().map(|p| drain(p).len()).sum();
        assert_eq!(per_ch, lens.len());
    }

    /// Frames decode back to the exact payloads, in per-channel order,
    /// with markers interleaved at the emission points.
    #[test]
    fn frames_carry_payloads_and_markers() {
        let (mut path, mut peers) = two_channel_path(MarkerConfig::every_rounds(2));
        // 100 × 100 B = 10000 B ≈ 3.3 rounds of the 2 × 1500 B quantum:
        // comfortably past round 2, where the first marker batch is due.
        let mut pkts: Vec<Bytes> = (0..100u8).map(|i| Bytes::from(vec![i; 100])).collect();
        let mut out = TxBatch::new();
        path.send_batch(SimTime::ZERO, &mut pkts, &mut out);
        assert!(path.stats().markers_sent > 0, "markers must have fired");
        let mut data = 0;
        let mut markers = 0;
        for p in &mut peers {
            for f in drain(p) {
                match frame::decode(&f).expect("well-formed frame") {
                    Frame::Data(body) => {
                        assert_eq!(body.len(), 100);
                        assert!(body.iter().all(|&b| b == body[0]));
                        data += 1;
                    }
                    Frame::Control(Control::Marker(_)) => markers += 1,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        }
        assert_eq!(data, 100);
        assert_eq!(markers as u64, path.stats().markers_sent);
    }

    /// Backpressure surfaces as QueueFull transmissions with no arrival,
    /// counted under dropped_queue — same contract as the sim path.
    #[test]
    fn queue_full_reported_per_packet() {
        let (a0, _b0) = datagram_pair(1503, 2);
        let (a1, _b1) = datagram_pair(1503, 2);
        let mut path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![a0, a1])
            .build();
        let mut pkts: Vec<Bytes> = (0..10).map(|_| Bytes::from(vec![0u8; 1400])).collect();
        let mut out = TxBatch::new();
        path.send_batch(SimTime::ZERO, &mut pkts, &mut out);
        let failed = out.iter().filter(|t| t.error.is_some()).count();
        assert!(failed > 0, "tiny queues must overflow");
        assert_eq!(path.stats().dropped_queue as usize, failed);
        for t in out.iter().filter(|t| t.error.is_some()) {
            assert_eq!(t.arrival, None);
            assert_eq!(t.error, Some(TxError::QueueFull));
        }
    }

    /// Steady state: batches reuse every scratch buffer, so repeated
    /// sends at the same batch size push the high-water mark once.
    #[test]
    fn idle_markers_cover_live_channels() {
        let (mut path, mut peers) = two_channel_path(MarkerConfig::every_rounds(8));
        let mut out: TxBatch<Bytes> = TxBatch::new();
        path.send_markers_into(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        for (c, p) in peers.iter_mut().enumerate() {
            let frames = drain(p);
            assert_eq!(frames.len(), 1);
            match frame::decode(&frames[0]) {
                Some(Frame::Control(Control::Marker(mk))) => assert_eq!(mk.channel, c),
                other => panic!("expected marker, got {other:?}"),
            }
        }
    }

    /// The ControlPath surface transmits real control frames.
    #[test]
    fn control_path_sends_decodable_frames() {
        let (mut path, mut peers) = two_channel_path(MarkerConfig::disabled());
        let t = ControlPath::transmit_control(
            &mut path,
            SimTime::from_nanos(5),
            1,
            Control::Probe { nonce: 77 },
        );
        assert_eq!(t.arrival, Some(SimTime::from_nanos(5)));
        assert_eq!(t.channel, 1);
        let frames = drain(&mut peers[1]);
        assert_eq!(frames.len(), 1);
        assert_eq!(
            frame::decode(&frames[0]),
            Some(Frame::Control(Control::Probe { nonce: 77 }))
        );
        assert_eq!(path.stats().control_sent, 1);
    }

    #[test]
    fn max_payload_subtracts_header_from_min_mtu() {
        let (path, _peers) = two_channel_path(MarkerConfig::disabled());
        assert_eq!(path.max_payload(), 1500);
    }

    /// Integrity mode: every data frame goes out summed, round-trips
    /// through `try_decode`, and a flipped payload bit is caught as
    /// `Corrupt` rather than delivered.
    #[test]
    fn integrity_mode_emits_summed_frames() {
        let (a0, b0) = datagram_pair(1504, 1024);
        let (a1, b1) = datagram_pair(1504, 1024);
        let mut path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![a0, a1])
            .integrity(true)
            .build();
        assert_eq!(
            path.max_payload(),
            1504 - FRAME_HEADER_LEN - frame::SUM_TRAILER_LEN
        );
        let mut pkts: Vec<Bytes> = (0..8u8).map(|i| Bytes::from(vec![i; 64])).collect();
        let mut out = TxBatch::new();
        path.send_batch(SimTime::ZERO, &mut pkts, &mut out);
        let mut peers = [b0, b1];
        let mut data = 0;
        for p in &mut peers {
            for mut f in drain(p) {
                assert_eq!(f[2], frame::KIND_DATA_SUMMED, "summed kind on the wire");
                let Ok(Frame::Data(body)) = frame::try_decode(&f) else {
                    panic!("summed frame must decode");
                };
                assert_eq!(body.len(), 64);
                data += 1;
                // One flipped payload bit is detected, not delivered.
                f[FRAME_HEADER_LEN] ^= 0x10;
                assert_eq!(frame::try_decode(&f), Err(frame::DecodeError::Corrupt));
            }
        }
        assert_eq!(data, 8);
    }
}
