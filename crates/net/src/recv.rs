//! The real-socket logical receiver: physical reception off N datagram
//! links into the shared resequencing engine — implemented, since the
//! multi-flow redesign, as *flow 0* of a
//! [`FlowDemux`].
//!
//! [`NetLogicalReceiver`] wraps a demux whose population is capped at
//! one flow, pre-instantiated at build. Version-1 (untagged) frames
//! route to flow 0 by definition of the codec, so a legacy sender's
//! traffic lands exactly where it always did: data and markers into the
//! flow's resequencer, probes/membership answered on the reverse path
//! of the same link. Behaviour, counters, and the zero-allocation story
//! are unchanged from the dedicated single-flow receiver — the PR 2–6
//! test suites run against this wrapper unmodified.
//!
//! The zero-allocation story: every datagram lands in a buffer taken
//! from a [`BufPool`]; data payloads travel through the resequencer as
//! [`PooledBuf`] views (no copy); the consumer hands storage back via
//! [`recycle`](NetLogicalReceiver::recycle). Control frames give their
//! buffer back immediately after decode. Steady state, nothing
//! allocates — measured by the `alloc_counting` integration test.
//!
//! [`BufPool`]: crate::pool::BufPool

use stripe_core::receiver::{ReceiverSnapshot, RxBatch};
use stripe_core::sched::CausalScheduler;
use stripe_core::types::ChannelId;
use stripe_link::DatagramLink;
use stripe_netsim::SimTime;

use crate::demux::{FlowDemux, FlowSink};
use crate::pool::{BufPool, PooledBuf};

/// Receive-side network counters, complementing the resequencer's own
/// [`ReceiverSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetRxSnapshot {
    /// Frames received across all channels.
    pub frames: u64,
    /// Data frames routed into the resequencer.
    pub data_frames: u64,
    /// Control frames (markers included) decoded.
    pub control_frames: u64,
    /// Frames dropped because they failed to decode (bad magic, version,
    /// kind, or control body) — the real-world stand-in for checksum
    /// discard.
    pub dropped_malformed: u64,
    /// Structurally valid data frames whose CRC-8 trailer did not match
    /// the payload (see [`crate::frame::KIND_DATA_SUMMED`]): bit-flipped
    /// in flight, caught, never delivered.
    pub dropped_corrupt: u64,
    /// Control replies transmitted on the reverse path.
    pub replies_sent: u64,
    /// Control replies that could not be transmitted (backpressure).
    pub replies_lost: u64,
    /// §5 flushes performed in response to sender reset requests.
    pub resets: u64,
    /// Desync alerts escalated to the sender (armed detector only).
    pub desync_alerts_sent: u64,
}

/// Builder for [`NetLogicalReceiver`].
#[derive(Debug)]
pub struct NetLogicalReceiverBuilder<S: CausalScheduler, L: DatagramLink> {
    sched: Option<S>,
    links: Vec<L>,
    cap_per_channel: usize,
    pool_initial: usize,
    stall_timeout_ns: Option<u64>,
    incarnation: Option<u64>,
    desync: Option<stripe_core::reset::DesyncDetector>,
}

impl<S: CausalScheduler, L: DatagramLink> Default for NetLogicalReceiverBuilder<S, L> {
    fn default() -> Self {
        Self {
            sched: None,
            links: Vec::new(),
            cap_per_channel: 1 << 14,
            pool_initial: 64,
            stall_timeout_ns: None,
            incarnation: None,
            desync: None,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> NetLogicalReceiverBuilder<S, L> {
    /// The simulation scheduler — an identically configured, fresh copy
    /// of the sender's. Required.
    pub fn scheduler(mut self, sched: S) -> Self {
        self.sched = Some(sched);
        self
    }

    /// The member links, one per scheduler channel, connected to the
    /// sender's. Required.
    pub fn links(mut self, links: Vec<L>) -> Self {
        self.links = links;
        self
    }

    /// Append a single member link.
    pub fn link(mut self, link: L) -> Self {
        self.links.push(link);
        self
    }

    /// Per-channel resequencer buffer depth. Defaults to 16384.
    pub fn capacity_per_channel(mut self, cap: usize) -> Self {
        self.cap_per_channel = cap;
        self
    }

    /// Receive buffers to pre-allocate in the pool. Defaults to 64.
    pub fn pool_buffers(mut self, n: usize) -> Self {
        self.pool_initial = n;
        self
    }

    /// Arm the head-of-line stall detector (see
    /// [`stripe_core::receiver::LogicalReceiver::set_stall_timeout`]).
    pub fn stall_timeout_ns(mut self, timeout_ns: u64) -> Self {
        self.stall_timeout_ns = Some(timeout_ns);
        self
    }

    /// Pin the incarnation nonce reported in probe acks (see
    /// [`FlowDemuxBuilder::incarnation`](crate::demux::FlowDemuxBuilder::incarnation)).
    /// Defaults to a fresh [`stripe_core::reset::fresh_incarnation`].
    pub fn incarnation(mut self, incarnation: u64) -> Self {
        self.incarnation = Some(incarnation);
        self
    }

    /// Arm the self-stabilization monitor (see
    /// [`FlowDemuxBuilder::desync_detector`](crate::demux::FlowDemuxBuilder::desync_detector)).
    pub fn desync_detector(mut self, detector: stripe_core::reset::DesyncDetector) -> Self {
        self.desync = Some(detector);
        self
    }
}

impl<S: CausalScheduler + Clone, L: DatagramLink> NetLogicalReceiverBuilder<S, L> {
    /// Assemble the receiver: a one-flow [`FlowDemux`] with flow 0
    /// pre-instantiated. Pool buffers are sized to the largest link MTU
    /// so any frame fits.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied or the link count differs
    /// from the scheduler's channel count.
    pub fn build(self) -> NetLogicalReceiver<S, L> {
        let sched = self
            .sched
            .expect("NetLogicalReceiverBuilder needs a scheduler");
        let mut demux_builder = FlowDemux::builder()
            .scheduler(sched)
            .links(self.links)
            .capacity_per_channel(self.cap_per_channel)
            .pool_buffers(self.pool_initial)
            .max_flows(1);
        if let Some(t) = self.stall_timeout_ns {
            demux_builder = demux_builder.stall_timeout_ns(t);
        }
        if let Some(inc) = self.incarnation {
            demux_builder = demux_builder.incarnation(inc);
        }
        if let Some(det) = self.desync {
            demux_builder = demux_builder.desync_detector(det);
        }
        let mut demux = demux_builder.build();
        assert!(demux.touch_flow(0), "a fresh demux admits flow 0");
        NetLogicalReceiver { demux }
    }
}

/// Physical reception over real sockets, feeding the shared logical
/// resequencer — flow 0 of a one-flow [`FlowDemux`].
#[derive(Debug)]
pub struct NetLogicalReceiver<S: CausalScheduler, L: DatagramLink> {
    demux: FlowDemux<S, L>,
}

impl<S: CausalScheduler, L: DatagramLink> NetLogicalReceiver<S, L> {
    /// Start building: `NetLogicalReceiver::builder().scheduler(…)
    /// .links(…).build()`.
    pub fn builder() -> NetLogicalReceiverBuilder<S, L> {
        NetLogicalReceiverBuilder::default()
    }

    /// Drain every logically deliverable packet into `out` (cleared
    /// first, capacity kept). Returns the number delivered. Hand each
    /// consumed packet's storage back with [`recycle`](Self::recycle).
    pub fn poll_into(&mut self, out: &mut RxBatch<PooledBuf>) -> usize {
        self.demux.poll_flow_into(0, out)
    }

    /// Deliver the next in-order packet, if any.
    pub fn poll(&mut self) -> Option<PooledBuf> {
        self.demux.poll_flow(0)
    }

    /// Return a consumed packet's storage to the receive pool — the
    /// step that closes the zero-allocation cycle.
    pub fn recycle(&mut self, pkt: PooledBuf) {
        self.demux.recycle(pkt);
    }

    /// Pre-size the resequencer rings and the pool for steady-state
    /// operation at `per_channel` buffered arrivals (see
    /// [`stripe_core::receiver::LogicalReceiver::reserve`]).
    pub fn reserve(&mut self, per_channel: usize) {
        self.demux.reserve_flow(0, per_channel);
    }

    /// The head-of-line stall probe (see
    /// [`stripe_core::receiver::LogicalReceiver::stalled`]).
    pub fn stalled(&mut self, now: SimTime) -> Option<ChannelId> {
        self.demux.flow_stalled(0, now)
    }

    /// Network-side counters.
    pub fn net_stats(&self) -> NetRxSnapshot {
        let s = self.demux.net_stats();
        NetRxSnapshot {
            frames: s.frames,
            data_frames: s.data_frames,
            control_frames: s.control_frames,
            dropped_malformed: s.dropped_malformed,
            dropped_corrupt: s.dropped_corrupt,
            replies_sent: s.replies_sent,
            replies_lost: s.replies_lost,
            resets: s.resets,
            desync_alerts_sent: s.desync_alerts_sent,
        }
    }

    /// Per-channel undecodable-frame counts (indexed by channel id).
    pub fn malformed_by_channel(&self) -> &[u64] {
        self.demux.malformed_by_channel()
    }

    /// Per-channel checksum-discard counts (indexed by channel id).
    pub fn corrupt_by_channel(&self) -> &[u64] {
        self.demux.corrupt_by_channel()
    }

    /// Resequencer counters.
    pub fn stats(&self) -> ReceiverSnapshot {
        self.demux.flow_stats(0).expect("flow 0 always exists")
    }

    /// The wrapped resequencer — flow 0's replica.
    pub fn sink(&self) -> &FlowSink<S> {
        self.demux.flow_sink(0).expect("flow 0 always exists")
    }

    /// The member links.
    pub fn links(&self) -> &[L] {
        self.demux.links()
    }

    /// Mutable access to the member links.
    pub fn links_mut(&mut self) -> &mut [L] {
        self.demux.links_mut()
    }

    /// The incarnation nonce this receiver reports in probe acks.
    pub fn incarnation(&self) -> u64 {
        self.demux.incarnation()
    }

    /// Take the links back out, consuming the receiver — the in-process
    /// endpoint-restart move: sockets survive, every resequencer state,
    /// responder epoch, and the incarnation die with the old instance.
    pub fn into_links(self) -> Vec<L> {
        self.demux.into_links()
    }

    /// The receive buffer pool (for high-water-mark inspection).
    pub fn pool(&self) -> &BufPool {
        self.demux.pool()
    }

    /// The underlying one-flow demux.
    pub fn demux(&self) -> &FlowDemux<S, L> {
        &self.demux
    }
}

impl<S: CausalScheduler + Clone, L: DatagramLink> NetLogicalReceiver<S, L> {
    /// One readiness pass at `now`: drain every channel's socket in
    /// batches (the `recvmmsg` seam), route each frame, transmit any
    /// control replies on the reverse path. Returns the number of frames
    /// received.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.demux.sweep(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, Frame, FRAME_HEADER_LEN};
    use crate::path::NetStripedPath;
    use bytes::Bytes;
    use stripe_core::control::Control;
    use stripe_core::sched::Srr;
    use stripe_core::sender::MarkerConfig;
    use stripe_link::{datagram_pair, TestDatagramLink, TxError};
    use stripe_transport::TxBatch;

    fn linked_pair(
        markers: MarkerConfig,
    ) -> (
        NetStripedPath<Srr, TestDatagramLink>,
        NetLogicalReceiver<Srr, TestDatagramLink>,
    ) {
        let (a0, b0) = datagram_pair(2048, 4096);
        let (a1, b1) = datagram_pair(2048, 4096);
        let path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(markers)
            .links(vec![a0, a1])
            .build();
        let rx = NetLogicalReceiver::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .incarnation(9)
            .build();
        (path, rx)
    }

    /// Lossless end to end over in-memory datagram links: exact FIFO
    /// (Theorem 4.1), payload bytes intact.
    #[test]
    fn lossless_fifo_end_to_end() {
        let (mut path, mut rx) = linked_pair(MarkerConfig::every_rounds(4));
        let mut pkts = Vec::new();
        let mut out = TxBatch::new();
        let mut batch = RxBatch::new();
        let mut got = Vec::new();
        for burst in 0..40u64 {
            for k in 0..10u64 {
                let id = burst * 10 + k;
                let len = 40 + (id as usize * 97) % 1200;
                let mut payload = vec![0u8; len];
                payload[..8].copy_from_slice(&id.to_be_bytes());
                pkts.push(Bytes::from(payload));
            }
            path.send_batch(SimTime::from_millis(burst), &mut pkts, &mut out);
            rx.sweep(SimTime::from_millis(burst));
            rx.poll_into(&mut batch);
            for pb in batch.drain() {
                got.push(u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap()));
                rx.recycle(pb);
            }
        }
        assert_eq!(got, (0..400).collect::<Vec<_>>());
        assert_eq!(rx.net_stats().dropped_malformed, 0);
        assert_eq!(rx.stats().dropped_overflow, 0);
    }

    /// Probes arriving at the receiver are answered with acks on the
    /// reverse path of the same channel.
    #[test]
    fn probe_is_acked_on_reverse_path() {
        let (mut path, mut rx) = linked_pair(MarkerConfig::disabled());
        use stripe_transport::ControlPath;
        ControlPath::transmit_control(
            &mut path,
            SimTime::ZERO,
            1,
            Control::Probe { nonce: 0xBEEF },
        );
        rx.sweep(SimTime::ZERO);
        assert_eq!(rx.net_stats().replies_sent, 1);
        // The ack is waiting on the sender's channel-1 socket.
        let mut buf = [0u8; 2048];
        let n = path.links_mut()[1].recv_frame(&mut buf).expect("ack frame");
        assert_eq!(
            frame::decode(&buf[..n]),
            Some(Frame::Control(Control::ProbeAck {
                nonce: 0xBEEF,
                incarnation: 9
            }))
        );
    }

    /// Malformed datagrams are counted and dropped without disturbing
    /// the stream.
    #[test]
    fn malformed_frames_dropped_and_counted() {
        let (mut path, mut rx) = linked_pair(MarkerConfig::disabled());
        // Inject garbage straight onto the wire, then a real packet.
        if let Some(e) = rx.links_mut()[0].send_frame(&[1, 2, 3]).err() {
            panic!("{e:?}")
        }
        // (send_frame on the *receiver's* link goes sender-ward; inject
        // on the path's peer instead by sending from the path side.)
        let mut pkts = vec![Bytes::from(vec![0x42u8; 64])];
        let mut out = TxBatch::new();
        path.send_batch(SimTime::ZERO, &mut pkts, &mut out);
        rx.sweep(SimTime::ZERO);
        assert_eq!(rx.net_stats().data_frames, 1);
        let mut batch = RxBatch::new();
        rx.poll_into(&mut batch);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.as_slice()[0].as_slice(), &[0x42u8; 64][..]);
    }

    /// A bit-flipped summed frame is caught by its CRC-8 trailer and
    /// dropped — counted per channel, never delivered — while clean
    /// summed frames flow through untouched.
    #[test]
    fn corrupt_summed_frames_are_discarded_not_delivered() {
        let (a0, b0) = datagram_pair(2048, 4096);
        let (a1, b1) = datagram_pair(2048, 4096);
        let mut path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![a0, a1])
            .integrity(true)
            .build();
        let mut rx = NetLogicalReceiver::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .build();
        // A summed frame with one payload bit flipped, injected on
        // channel 0's wire.
        let mut evil = Vec::new();
        frame::encode_data_summed_into(&[0x55u8; 32], &mut evil);
        evil[FRAME_HEADER_LEN + 4] ^= 0x01;
        path.links_mut()[0].send_frame(&evil).unwrap();
        // Followed by clean traffic.
        let mut pkts = vec![Bytes::from(vec![0x66u8; 32])];
        let mut out = TxBatch::new();
        path.send_batch(SimTime::ZERO, &mut pkts, &mut out);
        rx.sweep(SimTime::ZERO);

        let s = rx.net_stats();
        assert_eq!(s.dropped_corrupt, 1, "flip caught by the trailer");
        assert_eq!(s.dropped_malformed, 0);
        assert_eq!(rx.corrupt_by_channel()[0], 1, "blamed on its channel");
        assert_eq!(rx.corrupt_by_channel()[1], 0);
        assert_eq!(s.data_frames, 1, "the clean frame still routed");
        let mut batch = RxBatch::new();
        rx.poll_into(&mut batch);
        // Only the clean payload is ever deliverable, trailer stripped.
        for pb in batch.drain() {
            assert_eq!(pb.as_slice(), &[0x66u8; 32][..]);
            rx.recycle(pb);
        }
    }

    /// The pool's high-water mark stops growing once the working set is
    /// warm: receive, deliver, recycle, repeat.
    #[test]
    fn pool_stops_growing_in_steady_state() {
        let (mut path, mut rx) = linked_pair(MarkerConfig::every_rounds(4));
        let mut pkts = Vec::new();
        let mut out = TxBatch::new();
        let mut batch = RxBatch::new();
        for burst in 0..5u64 {
            for _ in 0..16 {
                pkts.push(Bytes::from(vec![7u8; 300]));
            }
            path.send_batch(SimTime::from_millis(burst), &mut pkts, &mut out);
            rx.sweep(SimTime::from_millis(burst));
            rx.poll_into(&mut batch);
            for pb in batch.drain() {
                rx.recycle(pb);
            }
        }
        let warm = rx.pool().allocated();
        for burst in 5..50u64 {
            for _ in 0..16 {
                pkts.push(Bytes::from(vec![7u8; 300]));
            }
            path.send_batch(SimTime::from_millis(burst), &mut pkts, &mut out);
            rx.sweep(SimTime::from_millis(burst));
            rx.poll_into(&mut batch);
            for pb in batch.drain() {
                rx.recycle(pb);
            }
        }
        assert_eq!(rx.pool().allocated(), warm, "pool grew past warmup");
    }

    /// Reply backpressure is counted, not panicked on.
    #[test]
    fn reply_backpressure_counted() {
        let (a0, b0) = datagram_pair(2048, 0); // zero-capacity reverse queue
        let path_links = vec![a0];
        let mut path = NetStripedPath::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(path_links)
            .build();
        let mut rx = NetLogicalReceiver::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(vec![b0])
            .build();
        use stripe_transport::ControlPath;
        let t =
            ControlPath::transmit_control(&mut path, SimTime::ZERO, 0, Control::Probe { nonce: 1 });
        // The probe itself could not enter the zero-capacity queue.
        assert_eq!(t.error, Some(TxError::QueueFull));
        rx.sweep(SimTime::ZERO);
        assert_eq!(rx.net_stats().frames, 0);
    }
}
