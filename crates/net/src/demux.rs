//! The multi-flow receive side: one socket sweep demultiplexing
//! flow-tagged frames into per-flow resequencers.
//!
//! [`FlowDemux`] is the receive-side twin of
//! [`StripeServer`](crate::server::StripeServer). It owns the N links
//! and a slab of per-flow replicas — each an independent
//! [`FlowSink`] whose scheduler is a fresh clone of the shared
//! prototype, exactly as the sender clones its own prototype per flow.
//! Flow lookup on the hot path is one slab index: O(1) per frame.
//!
//! Replicas are created *lazily*, on the first frame naming a flow id
//! (data or marker — both carry the varint tag). At creation the demux
//! applies the last announced membership mask one round ahead, the same
//! rule [`StripeServer::open_flow`](crate::server::StripeServer::open_flow)
//! uses, so both fresh simulations start in lockstep. Population is
//! bounded by [`max_flows`](FlowDemuxBuilder::max_flows); frames naming
//! flows past the cap are counted `dropped_admission` and discarded.
//!
//! Global control (probes and the epoch'd membership, retune, and reset
//! handshakes) arrives as untagged version-1 frames and is handled once
//! at the demux — applied to *every* replica — so the failover plane
//! stays flow-agnostic: an epoch change is one announcement, not one per
//! flow, and the replicas carry no handshake state of their own.
//!
//! Buffers cycle through one shared [`BufPool`] for all flows; data
//! payloads travel as zero-copy [`PooledBuf`] views and come back via
//! [`recycle`](FlowDemux::recycle). Steady state allocates nothing.

use stripe_core::control::Control;
use stripe_core::handshake::{EpochResponder, Flush};
use stripe_core::receiver::{Arrival, LogicalReceiver, ReceiverSnapshot, RxBatch};
use stripe_core::sched::CausalScheduler;
use stripe_core::types::ChannelId;
use stripe_link::DatagramLink;
use stripe_netsim::SimTime;

use crate::frame::{self, Frame};
use crate::pool::{BufPool, PooledBuf};
use crate::server::FlowId;

/// Demux-wide receive counters (per-flow resequencer counters live in
/// each flow's [`ReceiverSnapshot`], see [`FlowDemux::flow_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowDemuxSnapshot {
    /// Frames received across all channels and flows.
    pub frames: u64,
    /// Data frames routed into some flow's resequencer.
    pub data_frames: u64,
    /// Control frames (markers included) decoded.
    pub control_frames: u64,
    /// Frames that failed to decode (bad magic, version, kind, varint,
    /// or control body).
    pub dropped_malformed: u64,
    /// Summed data frames whose CRC-8 trailer did not match.
    pub dropped_corrupt: u64,
    /// Frames naming a flow the demux refused to create (population at
    /// [`max_flows`](FlowDemuxBuilder::max_flows)).
    pub dropped_admission: u64,
    /// Flow replicas currently instantiated.
    pub flows_active: u64,
    /// Control replies transmitted on the reverse path.
    pub replies_sent: u64,
    /// Control replies that could not be transmitted (backpressure).
    pub replies_lost: u64,
    /// §5 flushes performed in response to sender reset requests: every
    /// replica reinitialized, remembered mask/quanta forgotten.
    pub resets: u64,
    /// Desync alerts escalated to the sender (armed detector only).
    pub desync_alerts_sent: u64,
}

/// Builder for [`FlowDemux`] — same vocabulary as the other builders:
/// `scheduler` / `links` / capacity knobs.
#[derive(Debug)]
pub struct FlowDemuxBuilder<S: CausalScheduler, L: DatagramLink> {
    proto: Option<S>,
    links: Vec<L>,
    cap_per_channel: usize,
    pool_initial: usize,
    stall_timeout_ns: Option<u64>,
    max_flows: usize,
    incarnation: Option<u64>,
    desync: Option<stripe_core::reset::DesyncDetector>,
}

impl<S: CausalScheduler, L: DatagramLink> Default for FlowDemuxBuilder<S, L> {
    fn default() -> Self {
        Self {
            proto: None,
            links: Vec::new(),
            cap_per_channel: 1 << 14,
            pool_initial: 64,
            stall_timeout_ns: None,
            max_flows: 1 << 16,
            incarnation: None,
            desync: None,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> FlowDemuxBuilder<S, L> {
    /// The *prototype* simulation scheduler: every flow replica gets an
    /// identically configured fresh clone — matching the sender's
    /// per-flow clones. Required.
    pub fn scheduler(mut self, proto: S) -> Self {
        self.proto = Some(proto);
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

    /// Per-channel resequencer buffer depth, per flow. Defaults to
    /// 16384 (rings grow lazily, so idle flows cost almost nothing).
    pub fn capacity_per_channel(mut self, cap: usize) -> Self {
        self.cap_per_channel = cap;
        self
    }

    /// Receive buffers to pre-allocate in the shared pool. Defaults
    /// to 64.
    pub fn pool_buffers(mut self, n: usize) -> Self {
        self.pool_initial = n;
        self
    }

    /// Arm each flow's head-of-line stall detector (see
    /// [`stripe_core::receiver::LogicalReceiver::set_stall_timeout`]).
    pub fn stall_timeout_ns(mut self, timeout_ns: u64) -> Self {
        self.stall_timeout_ns = Some(timeout_ns);
        self
    }

    /// Cap on instantiated flow replicas; frames naming flows past it
    /// are dropped (`dropped_admission`). Defaults to 65536.
    pub fn max_flows(mut self, n: usize) -> Self {
        self.max_flows = n;
        self
    }

    /// Pin the incarnation nonce this endpoint reports in probe acks.
    /// Defaults to a fresh [`fresh_incarnation`] value, so a sender
    /// comparing acks across a process restart sees the change and
    /// drives the §5 reset.
    ///
    /// [`fresh_incarnation`]: stripe_core::reset::fresh_incarnation
    pub fn incarnation(mut self, incarnation: u64) -> Self {
        self.incarnation = Some(incarnation);
        self
    }

    /// Arm the self-stabilization monitor: each sweep samples the total
    /// buffered-arrival backlog into `detector`, and a trip (sustained
    /// backlog growth — the §5 "silent state corruption" symptom on an
    /// opaque-payload path) floods a
    /// [`Control::DesyncAlert`] to the sender on every channel.
    pub fn desync_detector(mut self, detector: stripe_core::reset::DesyncDetector) -> Self {
        self.desync = Some(detector);
        self
    }

    /// Assemble the demux with no flows instantiated. Pool buffers are
    /// sized to the largest link MTU.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied or the link count differs
    /// from the scheduler's channel count.
    pub fn build(self) -> FlowDemux<S, L> {
        let proto = self.proto.expect("FlowDemuxBuilder needs a scheduler");
        assert_eq!(
            self.links.len(),
            proto.channels(),
            "one link per scheduler channel"
        );
        let buf_len = self
            .links
            .iter()
            .map(|l| l.mtu())
            .max()
            .expect("non-empty links");
        let channels = self.links.len();
        FlowDemux {
            proto,
            links: self.links,
            pool: BufPool::new(buf_len, self.pool_initial),
            cap_per_channel: self.cap_per_channel,
            stall_timeout_ns: self.stall_timeout_ns,
            max_flows: self.max_flows,
            flows: Vec::new(),
            flow_pool: Vec::new(),
            last_mask: None,
            last_quanta: None,
            membership: EpochResponder::new(),
            retune: EpochResponder::new(),
            reset_resp: EpochResponder::new(),
            incarnation: self
                .incarnation
                .unwrap_or_else(stripe_core::reset::fresh_incarnation),
            desync: self.desync,
            desync_tick: 0,
            ctl_buf: Vec::new(),
            recv_bufs: Vec::new(),
            recv_lens: Vec::new(),
            stats: FlowDemuxSnapshot::default(),
            malformed_by_channel: vec![0; channels],
            corrupt_by_channel: vec![0; channels],
        }
    }
}

/// One flow's replica: the resequencer a [`FlowDemux`] routes that
/// flow's data and markers into.
#[derive(Debug)]
pub struct FlowSink<S: CausalScheduler> {
    rx: LogicalReceiver<S, PooledBuf>,
}

impl<S: CausalScheduler> FlowSink<S> {
    /// The flow's resequencer.
    pub fn receiver(&self) -> &LogicalReceiver<S, PooledBuf> {
        &self.rx
    }
}

/// Flow-aware physical reception over real sockets. See the module docs.
#[derive(Debug)]
pub struct FlowDemux<S: CausalScheduler, L: DatagramLink> {
    /// Prototype scheduler, cloned per flow replica.
    proto: S,
    links: Vec<L>,
    pool: BufPool,
    cap_per_channel: usize,
    stall_timeout_ns: Option<u64>,
    max_flows: usize,
    /// The flow slab: O(1) lookup by flow id, `None` in untouched slots.
    flows: Vec<Option<FlowSink<S>>>,
    /// Closed flows' replicas, reset and reused by the next
    /// instantiation — the receive half of the sender's flow pool, so
    /// open/close churn cycles replicas without touching the allocator.
    flow_pool: Vec<FlowSink<S>>,
    /// Last applied membership mask, replayed onto replicas created
    /// after an epoch change (mirrors the sender's `open_flow` rule).
    last_mask: Option<Vec<bool>>,
    /// Last applied quanta, replayed onto replicas created after a live
    /// retune (mirrors the sender's `open_flow` rule).
    last_quanta: Option<Vec<i64>>,
    /// Demux-level membership responder: one epoch, all flows.
    membership: EpochResponder<Vec<bool>>,
    /// Demux-level retune responder: one epoch, all flows.
    retune: EpochResponder<Vec<i64>>,
    /// Demux-level §5 reset responder: one epoch, all flows. Survives
    /// the flush it gates (a retransmitted request must ack, not
    /// re-flush).
    reset_resp: EpochResponder<Flush>,
    /// Reported in every probe ack; a restart produces a fresh one.
    incarnation: u64,
    /// The armed self-stabilization monitor, if any.
    desync: Option<stripe_core::reset::DesyncDetector>,
    /// Monotone sweep counter feeding the detector's window clock.
    desync_tick: u64,
    ctl_buf: Vec<u8>,
    recv_bufs: Vec<Vec<u8>>,
    recv_lens: Vec<usize>,
    stats: FlowDemuxSnapshot,
    /// Per-channel undecodable-frame counts.
    malformed_by_channel: Vec<u64>,
    /// Per-channel checksum-discard counts.
    corrupt_by_channel: Vec<u64>,
}

impl<S: CausalScheduler + Clone, L: DatagramLink> FlowDemux<S, L> {
    /// Instantiate flow `id`'s replica now if absent (it is normally
    /// created lazily by the first tagged frame). Returns `false` when
    /// the population cap refuses it.
    pub fn touch_flow(&mut self, id: FlowId) -> bool {
        self.ensure_flow(id)
    }

    fn ensure_flow(&mut self, id: FlowId) -> bool {
        let idx = id as usize;
        if idx < self.flows.len() && self.flows[idx].is_some() {
            return true;
        }
        if self.stats.flows_active as usize >= self.max_flows {
            return false;
        }
        if self.flows.len() <= idx {
            self.flows.resize_with(idx + 1, || None);
        }
        // Reuse a closed flow's replica when one is pooled (it was reset
        // at close, so it is indistinguishable from a fresh build).
        let mut rx = match self.flow_pool.pop() {
            Some(f) => f.rx,
            None => {
                let mut rx = LogicalReceiver::new(self.proto.clone(), self.cap_per_channel);
                if let Some(t) = self.stall_timeout_ns {
                    rx.set_stall_timeout(t);
                }
                rx
            }
        };
        if let Some(mask) = &self.last_mask {
            // Same rule as the sender's open_flow: a flow born after an
            // epoch change schedules the current mask one round ahead of
            // its fresh scheduler, keeping both simulations in lockstep.
            let eff = rx.scheduler().round() + 1;
            rx.apply_membership(eff, mask);
        }
        if let Some(quanta) = &self.last_quanta {
            // Same replay rule for quanta after a live retune.
            let eff = rx.scheduler().round() + 1;
            rx.schedule_quanta(eff, quanta);
        }
        self.flows[idx] = Some(FlowSink { rx });
        self.stats.flows_active += 1;
        true
    }

    /// One readiness pass at `now`: drain every channel's socket in
    /// batches (the `recvmmsg` seam), route each frame to its flow,
    /// answer global control on the reverse path. Returns the number of
    /// frames received.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let _ = now; // reserved for receive-timestamp plumbing
        while self.recv_bufs.len() < Self::RECV_RUN {
            self.recv_bufs.push(self.pool.take());
            self.recv_lens.push(0);
        }
        let mut received = 0;
        for c in 0..self.links.len() {
            loop {
                let got = self.links[c].recv_run(&mut self.recv_bufs, &mut self.recv_lens);
                for i in 0..got {
                    let buf = std::mem::replace(&mut self.recv_bufs[i], self.pool.take());
                    let n = self.recv_lens[i];
                    received += 1;
                    self.stats.frames += 1;
                    self.route_frame(c, buf, n);
                }
                if got < Self::RECV_RUN {
                    break;
                }
            }
        }
        self.sample_desync();
        received
    }

    /// Feed the armed desync detector one sweep's worth of evidence: the
    /// total buffered-arrival backlog across every replica. Healthy
    /// backlogs drain to (near) empty every marker interval; a corrupted
    /// simulation consumes channels at the wrong rates and its backlog
    /// floor only climbs. A trip floods a [`Control::DesyncAlert`] on
    /// every channel — the sender deduplicates and drives the §5 reset.
    fn sample_desync(&mut self) {
        let Some(det) = self.desync.as_mut() else {
            return;
        };
        let backlog: u64 = self
            .flows
            .iter()
            .flatten()
            .map(|f| f.rx.buffered_total() as u64)
            .sum();
        self.desync_tick += 1;
        if det.observe(self.desync_tick, backlog) {
            let alert = Control::DesyncAlert {
                incarnation: self.incarnation,
            };
            for c in 0..self.links.len() {
                self.reply(c, &alert);
            }
            self.stats.desync_alerts_sent += 1;
        }
    }

    /// Route one received frame to its flow's resequencer (data and
    /// markers) or through the demux-level responders (global control).
    fn route_frame(&mut self, c: ChannelId, buf: Vec<u8>, n: usize) {
        match frame::try_decode_flow(&buf[..n]) {
            Ok((flow, Frame::Data(body))) => {
                let len = body.len();
                let offset = frame::body_offset(&buf[..n]).expect("decoded frame has a body");
                if !self.ensure_flow(flow) {
                    self.stats.dropped_admission += 1;
                    self.pool.put(buf);
                    return;
                }
                self.stats.data_frames += 1;
                let pb = PooledBuf::new(buf, offset, len);
                let rx = &mut self.flows[flow as usize].as_mut().expect("ensured").rx;
                // On overflow the resequencer drops the arrival (counted
                // in that flow's snapshot); the buffer is freed with it.
                let _ = rx.push(c, Arrival::Data(pb));
            }
            Ok((flow, Frame::Control(Control::Marker(mk)))) => {
                self.stats.control_frames += 1;
                self.pool.put(buf);
                if !self.ensure_flow(flow) {
                    self.stats.dropped_admission += 1;
                    return;
                }
                let rx = &mut self.flows[flow as usize].as_mut().expect("ensured").rx;
                rx.push(c, Arrival::Marker(mk));
            }
            Ok((_, Frame::Control(ctl))) => {
                self.stats.control_frames += 1;
                self.pool.put(buf);
                self.on_global_control(c, &ctl);
            }
            Err(frame::DecodeError::Corrupt) => {
                self.stats.dropped_corrupt += 1;
                self.corrupt_by_channel[c] += 1;
                self.pool.put(buf);
            }
            Err(frame::DecodeError::Malformed) => {
                self.stats.dropped_malformed += 1;
                self.malformed_by_channel[c] += 1;
                self.pool.put(buf);
            }
        }
    }

    /// Handle an untagged control frame once, for every flow: probes are
    /// acked, and each handshake's responder decides; an applied mask or
    /// quanta vector reaches every replica and is remembered for future
    /// ones, an applied flush resets them all.
    fn on_global_control(&mut self, c: ChannelId, ctl: &Control) {
        let n = self.links.len();
        let reply = match ctl {
            Control::Probe { nonce } => Some((
                c,
                Control::ProbeAck {
                    nonce: *nonce,
                    incarnation: self.incarnation,
                },
            )),
            Control::Membership { .. } => {
                self.membership.on_announce(c, ctl, n).reply(|eff, live| {
                    for f in self.flows.iter_mut().flatten() {
                        f.rx.apply_membership(eff, &live);
                    }
                    self.last_mask = Some(live);
                })
            }
            Control::QuantumAnnounce { .. } => {
                self.retune.on_announce(c, ctl, n).reply(|eff, quanta| {
                    for f in self.flows.iter_mut().flatten() {
                        f.rx.schedule_quanta(eff, &quanta);
                    }
                    self.last_quanta = Some(quanta);
                })
            }
            Control::ResetRequest { .. } => self
                .reset_resp
                .on_announce(c, ctl, n)
                .reply(|_, Flush| self.flush()),
            _ => None,
        };
        if let Some((channel, ack)) = reply {
            self.reply(channel, &ack);
        }
    }

    /// §5 flush: every replica restarts its simulation and the epoch'd
    /// responders forget their state — the sender is (or believes we
    /// are) starting over, so remembered masks and quanta are stale.
    fn flush(&mut self) {
        for f in self.flows.iter_mut().flatten() {
            f.rx.reset();
        }
        self.last_mask = None;
        self.last_quanta = None;
        self.membership = EpochResponder::new();
        self.retune = EpochResponder::new();
        if let Some(det) = self.desync.as_mut() {
            det.acknowledge_reset();
        }
        self.stats.resets += 1;
    }

    fn reply(&mut self, c: ChannelId, ctl: &Control) {
        frame::encode_control_into(ctl, &mut self.ctl_buf);
        match self.links[c].send_frame(&self.ctl_buf) {
            Ok(()) => self.stats.replies_sent += 1,
            Err(_) => self.stats.replies_lost += 1,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> FlowDemux<S, L> {
    /// Start building: `FlowDemux::builder().scheduler(…).links(…)
    /// .build()`.
    pub fn builder() -> FlowDemuxBuilder<S, L> {
        FlowDemuxBuilder::default()
    }

    /// Frames per [`DatagramLink::recv_run`] call in a sweep.
    const RECV_RUN: usize = 32;

    /// Tear down flow `id`'s replica, freeing its resequencer state.
    /// Call when the application knows the flow is finished (the sender
    /// closed it): the slot becomes reusable, and a later frame naming
    /// the same id instantiates a *fresh* replica instead of continuing
    /// the old simulation — which is what keeps a recycled flow id from
    /// delivering against a stale scheduler state. Undelivered packets
    /// still buffered for the flow are dropped with it. Returns whether
    /// a replica existed.
    pub fn close_flow(&mut self, id: FlowId) -> bool {
        match self.flows.get_mut(id as usize).and_then(|f| f.take()) {
            Some(mut f) => {
                f.rx.reset();
                self.flow_pool.push(f);
                self.stats.flows_active -= 1;
                true
            }
            None => false,
        }
    }

    /// Drain flow `id`'s deliverable packets into `out` (cleared first).
    /// Returns the number delivered; 0 for uninstantiated flows.
    pub fn poll_flow_into(&mut self, id: FlowId, out: &mut RxBatch<PooledBuf>) -> usize {
        match self.flows.get_mut(id as usize).and_then(|f| f.as_mut()) {
            Some(f) => f.rx.poll_into(out),
            None => {
                out.clear();
                0
            }
        }
    }

    /// Deliver flow `id`'s next in-order packet, if any.
    pub fn poll_flow(&mut self, id: FlowId) -> Option<PooledBuf> {
        self.flows
            .get_mut(id as usize)
            .and_then(|f| f.as_mut())?
            .rx
            .poll()
    }

    /// Flow `id`'s head-of-line stall probe (see
    /// [`stripe_core::receiver::LogicalReceiver::stalled`]).
    pub fn flow_stalled(&mut self, id: FlowId, now: SimTime) -> Option<ChannelId> {
        self.flows
            .get_mut(id as usize)
            .and_then(|f| f.as_mut())?
            .rx
            .stalled(now.as_nanos())
    }

    /// Return a consumed packet's storage to the shared receive pool.
    pub fn recycle(&mut self, pkt: PooledBuf) {
        self.pool.put(pkt.into_inner());
    }

    /// Pre-size flow `id`'s resequencer rings (see
    /// [`stripe_core::receiver::LogicalReceiver::reserve`]). No-op for
    /// uninstantiated flows.
    pub fn reserve_flow(&mut self, id: FlowId, per_channel: usize) {
        if let Some(f) = self.flows.get_mut(id as usize).and_then(|f| f.as_mut()) {
            f.rx.reserve(per_channel);
        }
    }

    /// Flow `id`'s resequencer counters, if instantiated.
    pub fn flow_stats(&self, id: FlowId) -> Option<ReceiverSnapshot> {
        self.flows
            .get(id as usize)
            .and_then(|f| f.as_ref())
            .map(|f| f.rx.stats())
    }

    /// Flow `id`'s replica, if instantiated.
    pub fn flow_sink(&self, id: FlowId) -> Option<&FlowSink<S>> {
        self.flows.get(id as usize).and_then(|f| f.as_ref())
    }

    /// One past the highest instantiated flow id (slab length) — the
    /// iteration bound for per-flow polling.
    pub fn flow_slots(&self) -> usize {
        self.flows.len()
    }

    /// Demux-wide counters.
    pub fn net_stats(&self) -> FlowDemuxSnapshot {
        self.stats
    }

    /// Per-channel undecodable-frame counts (indexed by channel id).
    pub fn malformed_by_channel(&self) -> &[u64] {
        &self.malformed_by_channel
    }

    /// Per-channel checksum-discard counts (indexed by channel id).
    pub fn corrupt_by_channel(&self) -> &[u64] {
        &self.corrupt_by_channel
    }

    /// The incarnation nonce this demux reports in probe acks.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The member links.
    pub fn links(&self) -> &[L] {
        &self.links
    }

    /// Mutable access to the member links.
    pub fn links_mut(&mut self) -> &mut [L] {
        &mut self.links
    }

    /// Take the links back out, consuming the demux — an in-process
    /// endpoint restart keeps its sockets (the kernel side of the
    /// channels survives) while every replica, responder epoch, and the
    /// incarnation die with the old instance.
    pub fn into_links(self) -> Vec<L> {
        self.links
    }

    /// The shared receive buffer pool (for high-water-mark inspection).
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StripeServer;
    use stripe_core::sched::Srr;
    use stripe_core::sender::MarkerConfig;
    use stripe_link::{datagram_pair, TestDatagramLink};

    fn linked(
        flows_cap: usize,
    ) -> (
        StripeServer<Srr, TestDatagramLink>,
        FlowDemux<Srr, TestDatagramLink>,
    ) {
        let (a0, b0) = datagram_pair(2048, 1 << 12);
        let (a1, b1) = datagram_pair(2048, 1 << 12);
        let srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .build();
        let demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .max_flows(flows_cap)
            .incarnation(7)
            .build();
        (srv, demux)
    }

    /// Interleaved flows arrive FIFO *per flow*, payloads intact and
    /// never cross-delivered.
    #[test]
    fn per_flow_fifo_across_interleaving() {
        let (mut srv, mut demux) = linked(16);
        let flows: Vec<_> = (0..3).map(|_| srv.open_flow().unwrap()).collect();
        let mut events = Vec::new();
        for round in 0..50u64 {
            for (fi, h) in flows.iter().enumerate() {
                let mut payload = vec![fi as u8; 64 + (round as usize % 7) * 100];
                payload[1..9].copy_from_slice(&round.to_be_bytes());
                srv.enqueue(*h, &payload).unwrap();
            }
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
            demux.sweep(SimTime::from_millis(round));
        }
        let mut batch = RxBatch::new();
        for (fi, h) in flows.iter().enumerate() {
            let mut seen = Vec::new();
            demux.poll_flow_into(h.id(), &mut batch);
            for pb in batch.drain() {
                let bytes = pb.as_slice();
                assert_eq!(bytes[0] as usize, fi, "cross-flow delivery");
                seen.push(u64::from_be_bytes(bytes[1..9].try_into().unwrap()));
                demux.recycle(pb);
            }
            assert_eq!(seen, (0..50).collect::<Vec<_>>(), "flow {fi} not FIFO");
        }
        assert_eq!(demux.net_stats().flows_active, 3);
        assert_eq!(demux.net_stats().dropped_malformed, 0);
    }

    /// Flows past the demux population cap are counted, dropped, and do
    /// not disturb admitted flows.
    #[test]
    fn admission_cap_bounds_replicas() {
        let (mut srv, mut demux) = linked(2);
        let flows: Vec<_> = (0..4).map(|_| srv.open_flow().unwrap()).collect();
        let mut events = Vec::new();
        for h in &flows {
            srv.enqueue(*h, &[9; 100]).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let s = demux.net_stats();
        assert_eq!(s.flows_active, 2);
        assert_eq!(s.dropped_admission, 2);
        assert_eq!(s.data_frames, 2);
        let mut batch = RxBatch::new();
        assert_eq!(demux.poll_flow_into(flows[0].id(), &mut batch), 1);
    }

    /// A quantum announcement reaching the demux is applied to every
    /// replica, remembered for late-created ones, and acked exactly once
    /// per epoch on the reverse path.
    #[test]
    fn quantum_announce_fans_out_and_acks_once_per_epoch() {
        use stripe_transport::ControlPath;
        let (mut srv, mut demux) = linked(8);
        let f0 = srv.open_flow().unwrap();
        srv.enqueue(f0, &[1; 100]).unwrap();
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO); // replica 0 exists now
        let announce = Control::QuantumAnnounce {
            epoch: 1,
            effective_round: 50,
            quanta: vec![4000, 1000],
        };
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 0, announce.clone());
        // The same flood on the other channel: ack only, no re-apply.
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 1, announce);
        demux.sweep(SimTime::ZERO);
        assert_eq!(demux.net_stats().replies_sent, 2);
        let mut buf = [0u8; 2048];
        for c in 0..2 {
            let n = srv.links_mut()[c].recv_frame(&mut buf).expect("ack");
            assert_eq!(
                frame::decode(&buf[..n]),
                Some(Frame::Control(Control::QuantumAck { epoch: 1 }))
            );
        }
        // A replica created after the retune inherits the quanta: its
        // simulation must match a sender flow that replayed the same
        // schedule, so frames keep resequencing FIFO. Exercise it by
        // running a fresh flow through the tuned demux.
        ControlPath::schedule_quanta(&mut srv, 50, &[4000, 1000]);
        let f1 = srv.open_flow().unwrap();
        for round in 0..30u64 {
            let mut payload = vec![7u8; 200 + (round as usize % 5) * 137];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f1, &payload).unwrap();
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
            demux.sweep(SimTime::from_millis(round));
        }
        let mut batch = RxBatch::new();
        let mut seen = Vec::new();
        demux.poll_flow_into(f1.id(), &mut batch);
        for pb in batch.drain() {
            seen.push(u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap()));
            demux.recycle(pb);
        }
        assert_eq!(seen, (0..30).collect::<Vec<_>>(), "tuned flow not FIFO");
    }

    /// Closing a replica frees its slot; a later frame naming the same
    /// id gets a *fresh* simulation, so a recycled flow id delivers FIFO
    /// from scratch instead of against stale scheduler state.
    #[test]
    fn closed_flow_slot_restarts_fresh() {
        let (mut srv, mut demux) = linked(8);
        let f0 = srv.open_flow().unwrap();
        let mut events = Vec::new();
        for _ in 0..20 {
            srv.enqueue(f0, &[5; 300]).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let mut batch = RxBatch::new();
        assert_eq!(demux.poll_flow_into(f0.id(), &mut batch), 20);
        for pb in batch.drain() {
            demux.recycle(pb);
        }
        // Sender closes; app tells the demux. The replica (mid-round
        // scheduler state and all) is gone.
        srv.close_flow(f0).unwrap();
        assert!(demux.close_flow(f0.id()));
        assert!(!demux.close_flow(f0.id()), "double close finds nothing");
        assert_eq!(demux.net_stats().flows_active, 0);
        // The same id reused by a fresh sender flow resequences FIFO.
        let f0b = srv.open_flow().unwrap();
        assert_eq!(f0b.id(), f0.id());
        for round in 0..20u64 {
            let mut payload = vec![6u8; 64 + (round as usize % 7) * 100];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f0b, &payload).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let mut seen = Vec::new();
        demux.poll_flow_into(f0b.id(), &mut batch);
        for pb in batch.drain() {
            seen.push(u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap()));
            demux.recycle(pb);
        }
        assert_eq!(seen, (0..20).collect::<Vec<_>>(), "reused id not FIFO");
    }

    /// The retired type-4 control body (an epoch-less quantum update) is
    /// malformed now: counted and dropped, never applied or answered.
    #[test]
    fn retired_quantum_update_is_counted_malformed_not_applied() {
        let (mut srv, mut demux) = linked(4);
        let f0 = srv.open_flow().unwrap();
        srv.enqueue(f0, &[1; 100]).unwrap();
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO); // replica 0 exists now
        let mut legacy = vec![
            frame::FRAME_MAGIC,
            frame::FRAME_VERSION,
            frame::KIND_CONTROL,
        ];
        legacy.extend_from_slice(&[4, 0, 0, 0, 0, 0, 0, 0, 0, 2]); // round 0, 2 quanta
        for q in [4000i64, 1000] {
            legacy.extend_from_slice(&q.to_be_bytes());
        }
        srv.links_mut()[0].send_frame(&legacy).unwrap();
        // Twenty rounds of data after it: a scheduled change would apply.
        for round in 0..20u64 {
            srv.enqueue(f0, &[2; 900]).unwrap();
            srv.pump_into(SimTime::from_millis(round), usize::MAX, &mut events);
        }
        demux.sweep(SimTime::ZERO);
        let s = demux.net_stats();
        assert_eq!((s.dropped_malformed, s.replies_sent), (1, 0));
        assert_eq!(demux.malformed_by_channel(), &[1, 0]);
        let mut batch = RxBatch::new();
        assert_eq!(demux.poll_flow_into(f0.id(), &mut batch), 21);
        let sched = demux.flow_sink(f0.id()).unwrap().receiver().scheduler();
        assert!(sched.round() > 2);
        assert_eq!((sched.quantum(0), sched.quantum(1)), (1500, 1500));
    }

    /// A probe reaching the demux is acked on the reverse path exactly
    /// as the single-flow receiver does.
    #[test]
    fn probe_acked_at_demux_level() {
        use stripe_transport::ControlPath;
        let (mut srv, mut demux) = linked(4);
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 1, Control::Probe { nonce: 0xABCD });
        demux.sweep(SimTime::ZERO);
        assert_eq!(demux.net_stats().replies_sent, 1);
        let mut buf = [0u8; 2048];
        let n = srv.links_mut()[1].recv_frame(&mut buf).expect("ack");
        assert_eq!(
            frame::decode(&buf[..n]),
            Some(Frame::Control(Control::ProbeAck {
                nonce: 0xABCD,
                incarnation: 7
            }))
        );
    }

    /// A reset request flushes every replica exactly once per epoch,
    /// forgets remembered mask/quanta, and acks on the reverse path —
    /// a retransmitted request acks again without a second flush.
    #[test]
    fn reset_request_flushes_replicas_once_per_epoch() {
        use stripe_transport::ControlPath;
        let (mut srv, mut demux) = linked(8);
        let f0 = srv.open_flow().unwrap();
        let mut events = Vec::new();
        for _ in 0..10 {
            srv.enqueue(f0, &[3; 400]).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        // Packets are buffered/deliverable before the reset…
        let req = Control::ResetRequest { epoch: 1 };
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 0, req.clone());
        ControlPath::transmit_control(&mut srv, SimTime::ZERO, 1, req);
        demux.sweep(SimTime::ZERO);
        // …and gone after it: the flush dropped them with the replica
        // state, and the retransmitted request did not flush twice.
        let mut batch = RxBatch::new();
        assert_eq!(demux.poll_flow_into(f0.id(), &mut batch), 0);
        assert_eq!(demux.net_stats().resets, 1);
        let mut buf = [0u8; 2048];
        let mut acks = 0;
        for c in 0..2 {
            while let Some(n) = srv.links_mut()[c].recv_frame(&mut buf) {
                if let Some(Frame::Control(Control::ResetAck { epoch })) = frame::decode(&buf[..n])
                {
                    assert_eq!(epoch, 1);
                    acks += 1;
                }
            }
        }
        assert_eq!(acks, 2, "one ack per request, flush or no flush");
        // Delivery restarts cleanly under the new epoch.
        for round in 0..12u64 {
            let mut payload = vec![4u8; 120];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f0, &payload).unwrap();
        }
        // The sender flow's engine must flush too (the failover driver does this
        // via `ControlPath::reset_engine`); mirror it here.
        srv.reset_flows();
        for round in 0..12u64 {
            let mut payload = vec![4u8; 120];
            payload[1..9].copy_from_slice(&round.to_be_bytes());
            srv.enqueue(f0, &payload).unwrap();
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        demux.sweep(SimTime::ZERO);
        let mut seen = Vec::new();
        demux.poll_flow_into(f0.id(), &mut batch);
        for pb in batch.drain() {
            seen.push(u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap()));
            demux.recycle(pb);
        }
        assert_eq!(seen, (0..12).collect::<Vec<_>>(), "post-reset not FIFO");
    }

    /// A channel going dark mid-burst head-of-line blocks every flow:
    /// each armed stall detector must report the dark channel once the
    /// timeout elapses, and clear once markers walk the replicas past
    /// the hole after the blackout lifts.
    #[test]
    fn every_flow_stall_detector_fires_during_blackout_and_clears() {
        let (a0, b0) = datagram_pair(2048, 1 << 12);
        let (a1, b1) = datagram_pair(2048, 1 << 12);
        let mut srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .build();
        let mut demux = FlowDemux::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .max_flows(8)
            .incarnation(7)
            .stall_timeout_ns(1_000_000)
            .build();
        let flows: Vec<_> = (0..3).map(|_| srv.open_flow().unwrap()).collect();
        let mut events = Vec::new();
        let mut batch = RxBatch::new();

        // Channel 0 goes dark; a burst per flow straddles the hole.
        for h in &flows {
            for round in 0..16u64 {
                let mut payload = vec![0u8; 300];
                payload[1..9].copy_from_slice(&round.to_be_bytes());
                srv.enqueue(*h, &payload).unwrap();
            }
        }
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let mut buf = [0u8; 2048];
        while demux.links_mut()[0].recv_frame(&mut buf).is_some() {}
        demux.sweep(SimTime::ZERO);
        for h in &flows {
            demux.poll_flow_into(h.id(), &mut batch);
            for pb in batch.drain() {
                demux.recycle(pb);
            }
        }
        // Before the timeout: blocked but silent.
        for h in &flows {
            assert_eq!(
                demux.flow_stalled(h.id(), SimTime::from_micros(500)),
                None,
                "stall reported before the timeout"
            );
        }
        // After it: every flow names the dark channel.
        for h in &flows {
            assert_eq!(
                demux.flow_stalled(h.id(), SimTime::from_micros(1_500)),
                Some(0),
                "flow {} missed the head-of-line stall",
                h.id()
            );
            assert_eq!(demux.flow_stats(h.id()).unwrap().stalls, 1);
        }

        // Blackout over: idle markers walk every replica past the lost
        // frames, the buffered tail delivers, and the stall clears.
        srv.send_idle_markers_into(SimTime::from_micros(2_000), &mut events);
        demux.sweep(SimTime::from_micros(2_000));
        for h in &flows {
            demux.poll_flow_into(h.id(), &mut batch);
            let mut last = None;
            for pb in batch.drain() {
                let round = u64::from_be_bytes(pb.as_slice()[1..9].try_into().unwrap());
                if let Some(prev) = last {
                    assert!(round > prev, "post-recovery inversion on flow {}", h.id());
                }
                last = Some(round);
                demux.recycle(pb);
            }
            assert!(
                last.is_some(),
                "flow {} delivered nothing after recovery",
                h.id()
            );
            assert_eq!(
                demux.flow_stalled(h.id(), SimTime::from_micros(9_000)),
                None,
                "stall must clear once delivery resumes"
            );
        }
    }
}
