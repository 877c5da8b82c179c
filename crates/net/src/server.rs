//! The multi-flow stripe server: thousands of logical flows multiplexed
//! over one shared set of datagram channels.
//!
//! One [`StripeServer`] owns N links and a slab of flows. Each open flow
//! gets its own [`StripingSender`] (per-flow SRR deficit state and
//! marker clock — the receiver simulates each flow independently) and a
//! bounded queue of pre-encoded frames. Two schedulers compose:
//!
//! - **inter-flow**: a [`Drr`] ring picks which flow sends next and for
//!   how many bytes (its quantum), giving backlogged flows a weighted
//!   fair share of the aggregate regardless of packet sizes;
//! - **intra-flow**: the flow's own SRR picks which *channel* carries
//!   each of those frames, exactly as a single-flow path would.
//!
//! On the wire every data frame and marker is a version-2 flow-tagged
//! frame (see [`crate::frame::FRAME_VERSION_FLOW`]); global control —
//! probes, membership, quantum updates — stays untagged version 1, so
//! failover, lifecycle, and epoch'd membership remain flow-agnostic and
//! byte-identical to the single-flow protocol. A server built with
//! [`legacy_frames`](StripeServerBuilder::legacy_frames) emits version-1
//! frames for everything, which is how
//! [`NetStripedPath`](crate::path::NetStripedPath) is the one-flow
//! special case of this type.
//!
//! Admission is bounded: past
//! [`max_flows`](StripeServerBuilder::max_flows) new flows are *parked*
//! (open, but not yet allowed to send) until an active flow closes;
//! past [`park_capacity`](StripeServerBuilder::park_capacity) opens are
//! rejected outright. Per-flow queues are bounded too
//! ([`queue_frames`](StripeServerBuilder::queue_frames)), surfacing
//! backpressure to the producer of that one flow instead of letting it
//! starve the rest.
//!
//! The zero-allocation story matches the single-flow path: frames are
//! encoded once at [`enqueue`](StripeServer::enqueue) into recycled
//! buffers, handed to links by storage transfer
//! ([`DatagramLink::send_run_owned`]), and the swapped-back recycled
//! storage returns to the server's pool. Steady state allocates nothing
//! per packet.

use std::collections::VecDeque;

use stripe_core::control::Control;
use stripe_core::sched::{CausalScheduler, Drr};
use stripe_core::sender::{MarkerConfig, StripingSender};
use stripe_core::types::ChannelId;
use stripe_core::Marker;
use stripe_link::{DatagramLink, TxError};
use stripe_netsim::SimTime;
use stripe_transport::{ControlPath, ControlTransmission, PathSnapshot};

use crate::frame;

/// Dense flow identifier — the varint that rides every version-2 frame.
/// Slots are recycled on close; a [`FlowHandle`] carries a generation to
/// keep stale handles from touching a reused slot.
pub type FlowId = u32;

/// A capability to send on one open flow. Obtained from
/// [`StripeServer::open_flow`]; invalidated by
/// [`StripeServer::close_flow`] (any later use reports
/// [`FlowError::Closed`], even if the slot was reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowHandle {
    id: FlowId,
    gen: u32,
}

impl FlowHandle {
    /// The wire-visible flow id.
    pub fn id(&self) -> FlowId {
        self.id
    }
}

/// Why a flow operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowError {
    /// `open_flow` past both the active cap and the parking lot.
    AdmissionRejected,
    /// The flow is parked (admitted but waiting for an active slot);
    /// it cannot send yet.
    Parked,
    /// The flow's bounded frame queue is full — per-flow backpressure.
    Backpressure {
        /// How many of the flow's queued frames must be pumped out before
        /// an enqueue can succeed (always at least 1). A producer can use
        /// it to size its retry: wait until `queue_len` has dropped by
        /// this many, or just until the next pump.
        resume_hint: usize,
    },
    /// The handle does not name an open flow (closed, or never valid).
    Closed,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::AdmissionRejected => f.write_str("admission rejected: flow caps exhausted"),
            FlowError::Parked => f.write_str("flow is parked awaiting an active slot"),
            FlowError::Backpressure { resume_hint } => {
                write!(f, "flow queue full ({resume_hint} frame(s) must drain)")
            }
            FlowError::Closed => f.write_str("stale flow handle"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Per-flow counters, under the workspace snapshot convention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowSnapshot {
    /// Frames accepted into the flow queue.
    pub enqueued: u64,
    /// Frames handed to links (errored hand-offs included, as in
    /// [`PathSnapshot::sent`]).
    pub sent: u64,
    /// Enqueues refused because the flow queue was full.
    pub dropped_backpressure: u64,
    /// Frames dropped at a full link transmit queue.
    pub dropped_queue: u64,
    /// Frames the link refused for any other reason.
    pub dropped_lost: u64,
    /// Markers transmitted for this flow.
    pub markers_sent: u64,
    /// Markers that never left.
    pub markers_lost: u64,
}

/// Server-wide counters: flow population, admission drops, and the
/// aggregate datapath [`PathSnapshot`] summed over every flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StripeServerSnapshot {
    /// Flows currently open and schedulable.
    pub flows_active: u64,
    /// Flows currently parked (admitted, awaiting an active slot).
    pub flows_parked: u64,
    /// Flows ever opened (parked included).
    pub flows_opened: u64,
    /// Flows closed.
    pub flows_closed: u64,
    /// `open_flow` calls rejected with both caps exhausted.
    pub dropped_admission: u64,
    /// Enqueues refused across all flows (per-flow backpressure).
    pub dropped_backpressure: u64,
    /// Aggregate datapath counters (same shape as the single-flow path).
    pub path: PathSnapshot,
}

/// One event produced by [`StripeServer::pump_into`]: a frame or marker
/// offered to a link, in offer order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpEvent {
    /// A data frame left (or failed to leave) on `channel`.
    Data {
        /// The flow it belongs to.
        flow: FlowId,
        /// The channel its SRR chose.
        channel: ChannelId,
        /// Why it never left, if it didn't.
        error: Option<TxError>,
    },
    /// A marker rode (or failed to ride) `channel`.
    Marker {
        /// The flow whose marker clock fired.
        flow: FlowId,
        /// The channel the marker describes.
        channel: ChannelId,
        /// The marker itself.
        marker: Marker,
        /// Why it never left, if it didn't.
        error: Option<TxError>,
    },
}

/// One frame parked in a flow queue: encoded bytes plus the payload
/// length the schedulers account in (the receiver simulates with
/// payload lengths, so the sender must too).
#[derive(Debug)]
struct QueuedFrame {
    buf: Vec<u8>,
    payload_len: usize,
}

/// Per-flow state: the flow's own striping engine and pending frames.
#[derive(Debug)]
struct FlowState<S: CausalScheduler> {
    gen: u32,
    tx: StripingSender<S>,
    queue: VecDeque<QueuedFrame>,
    stats: FlowSnapshot,
    parked: bool,
}

/// Builder for [`StripeServer`] — the multi-flow extension of the
/// [`NetStripedPathBuilder`](crate::path::NetStripedPathBuilder)
/// vocabulary (`scheduler` / `markers` / `links` / `integrity`), plus
/// the flow-admission knobs.
#[derive(Debug)]
pub struct StripeServerBuilder<S: CausalScheduler, L: DatagramLink> {
    proto: Option<S>,
    markers: MarkerConfig,
    links: Vec<L>,
    integrity: bool,
    legacy_frames: bool,
    max_flows: usize,
    park_capacity: usize,
    queue_frames: usize,
    flow_quantum: i64,
}

impl<S: CausalScheduler, L: DatagramLink> Default for StripeServerBuilder<S, L> {
    fn default() -> Self {
        Self {
            proto: None,
            markers: MarkerConfig::disabled(),
            links: Vec::new(),
            integrity: false,
            legacy_frames: false,
            max_flows: 1 << 16,
            park_capacity: 1 << 10,
            queue_frames: 256,
            flow_quantum: 1 << 14,
        }
    }
}

impl<S: CausalScheduler, L: DatagramLink> StripeServerBuilder<S, L> {
    /// The *prototype* channel scheduler: every flow gets an identically
    /// configured fresh clone of it. Required.
    pub fn scheduler(mut self, proto: S) -> Self {
        self.proto = Some(proto);
        self
    }

    /// Per-flow marker emission policy. Defaults to
    /// [`MarkerConfig::disabled`].
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

    /// Emit checksummed data frames (CRC-8 trailer), as in
    /// [`NetStripedPathBuilder::integrity`](crate::path::NetStripedPathBuilder::integrity).
    pub fn integrity(mut self, on: bool) -> Self {
        self.integrity = on;
        self
    }

    /// Emit untagged version-1 frames instead of flow-tagged version-2
    /// ones. Only meaningful for a single-flow server talking to a
    /// legacy receiver — this is how [`NetStripedPath`] stays
    /// byte-identical to PR 3–6 on the wire.
    ///
    /// [`NetStripedPath`]: crate::path::NetStripedPath
    pub fn legacy_frames(mut self, on: bool) -> Self {
        self.legacy_frames = on;
        self
    }

    /// Active-flow cap: flows opened past it are parked. Defaults to
    /// 65536.
    pub fn max_flows(mut self, n: usize) -> Self {
        self.max_flows = n;
        self
    }

    /// Parking-lot capacity: opens past `max_flows + park_capacity` are
    /// rejected (`dropped_admission`). Defaults to 1024.
    pub fn park_capacity(mut self, n: usize) -> Self {
        self.park_capacity = n;
        self
    }

    /// Per-flow queue bound, in frames; an enqueue past it reports
    /// [`FlowError::Backpressure`]. Defaults to 256.
    pub fn queue_frames(mut self, n: usize) -> Self {
        self.queue_frames = n;
        self
    }

    /// DRR quantum: payload bytes a backlogged flow may send per
    /// inter-flow turn. Defaults to 16 KiB.
    ///
    /// # Panics
    /// Panics (in `build`) if non-positive.
    pub fn flow_quantum(mut self, q: i64) -> Self {
        self.flow_quantum = q;
        self
    }

    /// Assemble the server with no flows open.
    ///
    /// # Panics
    /// Panics if no scheduler was supplied, the link count differs from
    /// the scheduler's channel count, `max_flows` is zero, or the flow
    /// quantum is non-positive.
    pub fn build(self) -> StripeServer<S, L> {
        let proto = self.proto.expect("StripeServerBuilder needs a scheduler");
        assert_eq!(
            self.links.len(),
            proto.channels(),
            "one link per scheduler channel"
        );
        assert!(self.max_flows > 0, "max_flows must be at least 1");
        let channels = self.links.len();
        StripeServer {
            links: self.links,
            proto,
            markers: self.markers,
            integrity: self.integrity,
            legacy_frames: self.legacy_frames,
            max_flows: self.max_flows,
            park_capacity: self.park_capacity,
            queue_frames: self.queue_frames,
            drr: Drr::new(self.flow_quantum),
            flows: Vec::new(),
            gens: Vec::new(),
            free_ids: Vec::new(),
            parked_order: VecDeque::new(),
            mask: vec![true; channels],
            mask_dirty: false,
            path_parked: false,
            last_quanta: Vec::new(),
            quanta_dirty: false,
            stats: StripeServerSnapshot::default(),
            buf_pool: Vec::new(),
            flow_pool: Vec::new(),
            turn_bufs: Vec::new(),
            turn_lens: Vec::new(),
            turn_frame_lens: Vec::new(),
            scratch_channels: Vec::new(),
            scratch_markers: Vec::new(),
            scratch_idle: Vec::new(),
            run_results: Vec::new(),
            last_data_len: vec![0; channels],
            ctl_buf: Vec::new(),
        }
    }
}

/// A multi-flow striping server bound to real datagram channels. See the
/// module docs for the architecture.
#[derive(Debug)]
pub struct StripeServer<S: CausalScheduler, L: DatagramLink> {
    links: Vec<L>,
    /// Prototype scheduler, cloned per flow.
    proto: S,
    markers: MarkerConfig,
    integrity: bool,
    legacy_frames: bool,
    max_flows: usize,
    park_capacity: usize,
    queue_frames: usize,
    /// Inter-flow scheduler over slab indices.
    drr: Drr,
    /// The flow slab: O(1) lookup by flow id, `None` in free slots.
    flows: Vec<Option<FlowState<S>>>,
    /// Per-slot generation, bumped on close so stale handles miss.
    gens: Vec<u32>,
    free_ids: Vec<FlowId>,
    /// FIFO of parked flows awaiting an active slot.
    parked_order: VecDeque<FlowId>,
    /// Latest channel live mask — applied to flows created after an
    /// epoch change (the receiver applies the same mask when it lazily
    /// creates the matching replica, so both simulations agree).
    mask: Vec<bool>,
    mask_dirty: bool,
    /// Path-wide park: every channel is dead (total blackout) or a §5
    /// reset is gating resume. Distinct from per-flow admission parking
    /// — here *no* flow may send, enqueues see backpressure, and the
    /// flows' schedulers freeze on their last live mask (a scheduler
    /// must never scan an empty mask). Control still flows, so probes
    /// can observe recovery. Cleared by the next non-empty mask.
    path_parked: bool,
    /// Latest per-channel quanta — applied to flows created after a live
    /// retune, mirroring `mask`/`mask_dirty` (the receiver replays the
    /// same quanta when it lazily creates the matching replica).
    last_quanta: Vec<i64>,
    quanta_dirty: bool,
    stats: StripeServerSnapshot,
    // Scratch, all recycled: the steady state allocates nothing.
    buf_pool: Vec<Vec<u8>>,
    /// Closed flows' state, reset and reused by the next open: under
    /// open/close churn the slab reaches a high-water mark of engines
    /// and queues and then cycles them without touching the allocator.
    flow_pool: Vec<FlowState<S>>,
    turn_bufs: Vec<Vec<u8>>,
    turn_lens: Vec<usize>,
    turn_frame_lens: Vec<usize>,
    scratch_channels: Vec<ChannelId>,
    scratch_markers: Vec<(usize, ChannelId, Marker)>,
    scratch_idle: Vec<(ChannelId, Marker)>,
    run_results: Vec<Result<(), TxError>>,
    /// Wire length of the last data frame sent per channel this pump —
    /// the GSO pad target for markers (see the single-flow path).
    last_data_len: Vec<usize>,
    ctl_buf: Vec<u8>,
}

impl<S: CausalScheduler + Clone, L: DatagramLink> StripeServer<S, L> {
    /// Open a new flow: clone the prototype scheduler, apply the current
    /// membership mask, and admit the flow — active if a slot is free,
    /// parked otherwise.
    pub fn open_flow(&mut self) -> Result<FlowHandle, FlowError> {
        let park = self.stats.flows_active as usize >= self.max_flows;
        if park && self.stats.flows_parked as usize >= self.park_capacity {
            self.stats.dropped_admission += 1;
            return Err(FlowError::AdmissionRejected);
        }
        let id = self.free_ids.pop().unwrap_or_else(|| {
            self.flows.push(None);
            self.gens.push(0);
            (self.flows.len() - 1) as FlowId
        });
        // Reuse a closed flow's engine and queue when one is pooled: a
        // reset sender is indistinguishable from a fresh clone, and the
        // churn path (open → traffic → close → open …) stays off the
        // allocator once the slab's high-water mark is reached.
        let mut f = match self.flow_pool.pop() {
            Some(mut f) => {
                f.tx.reset();
                f.stats = FlowSnapshot::default();
                f
            }
            None => FlowState {
                gen: 0,
                tx: StripingSender::new(self.proto.clone(), self.markers),
                queue: VecDeque::new(),
                stats: FlowSnapshot::default(),
                parked: false,
            },
        };
        if self.mask_dirty {
            // Same rule the receiver uses when it lazily creates this
            // flow's replica: schedule the mask one round ahead of the
            // fresh scheduler. Both sides clamp identically, so the
            // simulations stay in lockstep; any race with an in-flight
            // epoch change is healed by markers.
            let eff = f.tx.scheduler().round() + 1;
            f.tx.schedule_mask(eff, &self.mask);
        }
        if self.quanta_dirty {
            // Same replay rule for quanta: a flow born after a retune
            // starts under the tuned quanta from its first full round.
            let eff = f.tx.scheduler().round() + 1;
            f.tx.schedule_quanta(eff, &self.last_quanta);
        }
        f.gen = self.gens[id as usize];
        f.parked = park;
        self.flows[id as usize] = Some(f);
        if park {
            self.parked_order.push_back(id);
            self.stats.flows_parked += 1;
        } else {
            self.drr.register(id as usize);
            self.stats.flows_active += 1;
        }
        self.stats.flows_opened += 1;
        Ok(FlowHandle {
            id,
            gen: self.gens[id as usize],
        })
    }
}

impl<S: CausalScheduler, L: DatagramLink> StripeServer<S, L> {
    /// Start building: `StripeServer::builder().scheduler(…).links(…)
    /// .build()`.
    pub fn builder() -> StripeServerBuilder<S, L> {
        StripeServerBuilder::default()
    }

    fn state_of(&self, h: FlowHandle) -> Result<&FlowState<S>, FlowError> {
        self.flows
            .get(h.id as usize)
            .and_then(|s| s.as_ref())
            .filter(|f| f.gen == h.gen)
            .ok_or(FlowError::Closed)
    }

    /// Close a flow: drop its queued frames, free its slot, and unpark
    /// the oldest waiting flow if this one held an active slot.
    pub fn close_flow(&mut self, h: FlowHandle) -> Result<(), FlowError> {
        self.state_of(h)?;
        let mut f = self.flows[h.id as usize].take().expect("validated");
        for q in f.queue.drain(..) {
            self.buf_pool.push(q.buf);
        }
        self.gens[h.id as usize] = self.gens[h.id as usize].wrapping_add(1);
        self.free_ids.push(h.id);
        self.stats.flows_closed += 1;
        let parked = f.parked;
        self.flow_pool.push(f);
        if parked {
            self.stats.flows_parked -= 1;
            self.parked_order.retain(|&p| p != h.id);
            return Ok(());
        }
        self.drr.unregister(h.id as usize);
        self.stats.flows_active -= 1;
        // Hand the freed slot to the oldest parked flow.
        while let Some(pid) = self.parked_order.pop_front() {
            if let Some(pf) = self.flows[pid as usize].as_mut() {
                if pf.parked {
                    pf.parked = false;
                    self.drr.register(pid as usize);
                    self.stats.flows_parked -= 1;
                    self.stats.flows_active += 1;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Whether the flow is parked (admitted but not yet schedulable).
    pub fn is_parked(&self, h: FlowHandle) -> Result<bool, FlowError> {
        self.state_of(h).map(|f| f.parked)
    }

    /// Frames currently queued on the flow.
    pub fn queue_len(&self, h: FlowHandle) -> Result<usize, FlowError> {
        self.state_of(h).map(|f| f.queue.len())
    }

    /// Whether the next [`enqueue`](Self::enqueue) on this flow would be
    /// refused — parked, or its queue at the bound. Lets a producer probe
    /// backpressure without paying for an encode-and-refuse round trip.
    pub fn would_block(&self, h: FlowHandle) -> Result<bool, FlowError> {
        self.state_of(h)
            .map(|f| self.path_parked || f.parked || f.queue.len() >= self.queue_frames)
    }

    /// Queue one payload on a flow: the frame is encoded here, once,
    /// into a recycled buffer (flow-tagged version 2, or version 1 under
    /// [`legacy_frames`](StripeServerBuilder::legacy_frames)), and waits
    /// for [`pump_into`](Self::pump_into) to schedule it. A full queue
    /// reports [`FlowError::Backpressure`] without touching the payload.
    pub fn enqueue(&mut self, h: FlowHandle, payload: &[u8]) -> Result<(), FlowError> {
        let f = self.state_of(h)?;
        if self.path_parked {
            // Blackout/reset park: bounded buffers stop admitting. The
            // hint is 1 — "try again after the next unpark", there is no
            // queue position to wait out.
            self.stats.dropped_backpressure += 1;
            let f = self.flows[h.id as usize].as_mut().expect("validated");
            f.stats.dropped_backpressure += 1;
            return Err(FlowError::Backpressure { resume_hint: 1 });
        }
        if f.parked {
            return Err(FlowError::Parked);
        }
        if f.queue.len() >= self.queue_frames {
            let resume_hint = f.queue.len() + 1 - self.queue_frames;
            self.stats.dropped_backpressure += 1;
            let f = self.flows[h.id as usize].as_mut().expect("validated");
            f.stats.dropped_backpressure += 1;
            return Err(FlowError::Backpressure { resume_hint });
        }
        let mut buf = self.buf_pool.pop().unwrap_or_default();
        match (self.legacy_frames, self.integrity) {
            (true, false) => frame::encode_data_into(payload, &mut buf),
            (true, true) => frame::encode_data_summed_into(payload, &mut buf),
            (false, false) => frame::encode_data_flow_into(h.id, payload, &mut buf),
            (false, true) => frame::encode_data_summed_flow_into(h.id, payload, &mut buf),
        }
        let f = self.flows[h.id as usize].as_mut().expect("validated");
        f.queue.push_back(QueuedFrame {
            buf,
            payload_len: payload.len(),
        });
        f.stats.enqueued += 1;
        self.drr.activate(h.id as usize);
        Ok(())
    }

    /// Drive the two-level scheduler: DRR turns across backlogged flows,
    /// each turn striping up to one quantum of that flow's frames
    /// through its own SRR onto the shared links. At most `budget` data
    /// frames leave. Events land in `events` (cleared first) in offer
    /// order; one flush per link submits everything the links deferred.
    /// Returns the number of data frames served.
    pub fn pump_into(&mut self, now: SimTime, budget: usize, events: &mut Vec<PumpEvent>) -> usize {
        let _ = now; // reserved for pacing
        events.clear();
        if self.path_parked {
            return 0;
        }
        for v in &mut self.last_data_len {
            *v = 0;
        }
        let mut served_total = 0usize;
        while served_total < budget {
            let Some(fid) = self.drr.begin_turn() else {
                break;
            };
            let flow_id = fid as FlowId;
            // Phase 1: pop the affordable prefix of the flow queue.
            self.turn_bufs.clear();
            self.turn_lens.clear();
            self.turn_frame_lens.clear();
            let mut budget_left = budget - served_total;
            {
                let f = self.flows[fid].as_mut().expect("active flow in ring");
                while budget_left > 0 {
                    let Some(front) = f.queue.front() else { break };
                    let cost = front.payload_len as i64;
                    if self.drr.deficit(fid) < cost {
                        break;
                    }
                    self.drr.charge(fid, cost);
                    let q = f.queue.pop_front().expect("front just checked");
                    self.turn_lens.push(q.payload_len);
                    self.turn_frame_lens.push(q.buf.len());
                    self.turn_bufs.push(q.buf);
                    budget_left -= 1;
                }
                // Phase 2: the flow's own SRR assigns channels/markers.
                f.tx.send_batch(
                    &self.turn_lens,
                    &mut self.scratch_channels,
                    &mut self.scratch_markers,
                );
            }
            // Phase 3: offer same-channel runs, breaking at marker
            // boundaries — identical run discipline to the single-flow
            // path, so per-channel FIFO (and hence marker recovery)
            // holds per flow.
            let n = self.turn_bufs.len();
            let (mut fq, mut fl, mut fms, mut fml) = (0u64, 0u64, 0u64, 0u64);
            let mut m = 0;
            let mut i = 0;
            while i < n {
                let ch = self.scratch_channels[i];
                let boundary = self.scratch_markers.get(m).map(|&(at, _, _)| at);
                let mut j = i + 1;
                while j < n && self.scratch_channels[j] == ch && boundary.is_none_or(|b| j <= b) {
                    j += 1;
                }
                self.run_results.clear();
                self.links[ch].send_run_owned(&mut self.turn_bufs[i..j], &mut self.run_results);
                for k in 0..(j - i) {
                    let error = self.run_results[k].err();
                    match error {
                        Some(TxError::QueueFull) => {
                            self.stats.path.dropped_queue += 1;
                            fq += 1;
                        }
                        Some(_) => {
                            self.stats.path.dropped_lost += 1;
                            fl += 1;
                        }
                        None => {}
                    }
                    events.push(PumpEvent::Data {
                        flow: flow_id,
                        channel: ch,
                        error,
                    });
                }
                self.last_data_len[ch] = self.turn_frame_lens[j - 1];
                while m < self.scratch_markers.len() && self.scratch_markers[m].0 < j {
                    let (_, c, mk) = self.scratch_markers[m];
                    m += 1;
                    let pad_to = if self.links[c].coalesce_hint() {
                        self.last_data_len[c]
                    } else {
                        0
                    };
                    let error = self.transmit_marker_frame(flow_id, c, mk, true, pad_to);
                    fms += 1;
                    if error.is_some() {
                        fml += 1;
                    }
                    events.push(PumpEvent::Marker {
                        flow: flow_id,
                        channel: c,
                        marker: mk,
                        error,
                    });
                }
                i = j;
            }
            served_total += n;
            self.stats.path.sent += n as u64;
            // Recycle the storage the links swapped back.
            self.buf_pool.append(&mut self.turn_bufs);
            let f = self.flows[fid].as_mut().expect("still open");
            f.stats.sent += n as u64;
            f.stats.dropped_queue += fq;
            f.stats.dropped_lost += fl;
            f.stats.markers_sent += fms;
            f.stats.markers_lost += fml;
            let backlogged = !f.queue.is_empty();
            self.drr.end_turn(fid, backlogged);
        }
        // One flush per link per pump: deferring links submit their
        // whole accumulated burst as mmsg batches here.
        for l in &mut self.links {
            l.flush();
        }
        served_total
    }

    /// Emit every open active flow's due marker batch immediately
    /// (timer-driven markers during idle periods). Events land in
    /// `events` (cleared first).
    pub fn send_idle_markers_into(&mut self, now: SimTime, events: &mut Vec<PumpEvent>) {
        let _ = now;
        events.clear();
        if self.path_parked {
            return;
        }
        for fid in 0..self.flows.len() {
            {
                let Some(f) = self.flows[fid].as_mut() else {
                    continue;
                };
                if f.parked {
                    continue;
                }
                self.scratch_idle.clear();
                f.tx.make_markers_into(&mut self.scratch_idle);
            }
            let mut lost = 0u64;
            for k in 0..self.scratch_idle.len() {
                let (c, mk) = self.scratch_idle[k];
                // Idle markers have no adjacent data to pad-match.
                let error = self.transmit_marker_frame(fid as FlowId, c, mk, false, 0);
                if error.is_some() {
                    lost += 1;
                }
                events.push(PumpEvent::Marker {
                    flow: fid as FlowId,
                    channel: c,
                    marker: mk,
                    error,
                });
            }
            let sent = self.scratch_idle.len() as u64;
            let f = self.flows[fid].as_mut().expect("still open");
            f.stats.markers_sent += sent;
            f.stats.markers_lost += lost;
        }
    }

    /// Encode and send one marker frame for `flow` on channel `c`.
    /// Deferred markers join the channel's parked burst (flushed at pump
    /// end); eager ones go out now. `pad_to > 0` requests the padded
    /// encoding stretched to that wire length (GSO-train preservation),
    /// ignored when it would not fit.
    fn transmit_marker_frame(
        &mut self,
        flow: FlowId,
        c: ChannelId,
        mk: Marker,
        deferred: bool,
        pad_to: usize,
    ) -> Option<TxError> {
        self.stats.path.markers_sent += 1;
        let ctl = Control::Marker(mk);
        let natural = if self.legacy_frames {
            frame::control_frame_len(&ctl)
        } else {
            frame::control_flow_frame_len(flow, &ctl)
        };
        if pad_to >= natural + frame::PAD_LEN_PREFIX && pad_to <= self.links[c].mtu() {
            if self.legacy_frames {
                frame::encode_control_padded_into(&ctl, pad_to, &mut self.ctl_buf);
            } else {
                frame::encode_control_padded_flow_into(flow, &ctl, pad_to, &mut self.ctl_buf);
            }
        } else if self.legacy_frames {
            frame::encode_control_into(&ctl, &mut self.ctl_buf);
        } else {
            frame::encode_control_flow_into(flow, &ctl, &mut self.ctl_buf);
        }
        let r = if deferred {
            self.links[c].send_frame_deferred(&self.ctl_buf)
        } else {
            self.links[c].send_frame(&self.ctl_buf)
        };
        if let Err(e) = r {
            self.stats.path.markers_lost += 1;
            return Some(e);
        }
        None
    }

    fn transmit_control_impl(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> (Option<SimTime>, Option<TxError>) {
        self.stats.path.control_sent += 1;
        // Global control stays untagged version 1: the failover plane is
        // flow-agnostic and byte-compatible with single-flow peers.
        frame::encode_control_into(ctl, &mut self.ctl_buf);
        match self.links[c].send_frame(&self.ctl_buf) {
            Ok(()) => (Some(now), None),
            Err(e) => {
                self.stats.path.control_lost += 1;
                (None, Some(e))
            }
        }
    }

    /// The striped *payload* MTU: minimum member frame MTU net of the
    /// worst-case framing overhead for this server's wire dialect.
    pub fn max_payload(&self) -> usize {
        let min_mtu = self.links.iter().map(|l| l.mtu()).min().expect("non-empty");
        let id_bound = (self.max_flows + self.park_capacity).saturating_sub(1) as u32;
        let mut overhead = if self.legacy_frames {
            frame::FRAME_HEADER_LEN
        } else {
            frame::FRAME_HEADER_LEN + frame::flow_id_len(id_bound)
        };
        if self.integrity {
            overhead += frame::SUM_TRAILER_LEN;
        }
        min_mtu.saturating_sub(overhead)
    }

    /// Try to drain every link's local backlog. Returns frames flushed.
    pub fn flush(&mut self) -> usize {
        self.links.iter_mut().map(|l| l.flush()).sum()
    }

    /// Frames parked across all link backlogs.
    pub fn backlog(&self) -> usize {
        self.links.iter().map(|l| l.backlog()).sum()
    }

    /// Server-wide counters.
    pub fn stats(&self) -> StripeServerSnapshot {
        self.stats
    }

    /// One flow's counters.
    pub fn flow_stats(&self, h: FlowHandle) -> Result<FlowSnapshot, FlowError> {
        self.state_of(h).map(|f| f.stats)
    }

    /// One flow's striping engine (fairness ledgers, marker counts).
    pub fn flow_sender(&self, h: FlowHandle) -> Result<&StripingSender<S>, FlowError> {
        self.state_of(h).map(|f| &f.tx)
    }

    /// Mutable access to one flow's striping engine.
    pub fn flow_sender_mut(&mut self, h: FlowHandle) -> Result<&mut StripingSender<S>, FlowError> {
        self.state_of(h)?;
        Ok(&mut self.flows[h.id as usize].as_mut().expect("validated").tx)
    }

    /// Is the server path-parked (total blackout, or a §5 reset gating
    /// resume)? While parked, enqueues report backpressure and pumps
    /// serve nothing; control still flows.
    pub fn parked(&self) -> bool {
        self.path_parked
    }

    /// Flush every flow's sender-side engine after a completed §5
    /// reset: schedulers, fairness ledgers, and marker clocks restart
    /// from zero, and pre-reset queued frames are discarded (the
    /// receiver flushed its replicas when it acked — old-epoch state
    /// must not leak into the new one). Flow handles stay valid; the
    /// post-reset re-announce re-teaches the current mask and quanta.
    pub fn reset_flows(&mut self) {
        for f in self.flows.iter_mut().flatten() {
            f.tx.reset();
            for q in f.queue.drain(..) {
                f.stats.dropped_lost += 1;
                self.buf_pool.push(q.buf);
            }
        }
        // Fresh engines start all-live on their original quanta, so the
        // replay state for late-opened flows resets with them.
        for m in &mut self.mask {
            *m = true;
        }
        self.mask_dirty = false;
        self.last_quanta.clear();
        self.quanta_dirty = false;
    }

    /// The member links.
    pub fn links(&self) -> &[L] {
        &self.links
    }

    /// Mutable access to the member links.
    pub fn links_mut(&mut self) -> &mut [L] {
        &mut self.links
    }

    /// Take the links back out, consuming the server.
    pub fn into_links(self) -> Vec<L> {
        self.links
    }
}

impl<S: CausalScheduler, L: DatagramLink> ControlPath for StripeServer<S, L> {
    fn channels(&self) -> usize {
        self.links.len()
    }

    fn current_round(&self) -> u64 {
        // The most advanced flow bounds how far any simulation has run;
        // announcing relative to it keeps the effective round in every
        // flow's future (laggards clamp to their own next boundary).
        self.flows
            .iter()
            .flatten()
            .map(|f| f.tx.scheduler().round())
            .max()
            .unwrap_or_else(|| self.proto.round())
    }

    fn schedule_mask(&mut self, effective_round: u64, live: &[bool]) {
        if !live.iter().any(|&l| l) {
            // The park contract (see [`ControlPath::schedule_mask`]):
            // an all-dead mask parks the whole server. The per-flow
            // schedulers never see it — they freeze on their last live
            // mask — and the stored replay mask stays non-empty so a
            // flow opened mid-blackout starts from the last live state.
            self.path_parked = true;
            return;
        }
        self.path_parked = false;
        self.mask.clear();
        self.mask.extend_from_slice(live);
        self.mask_dirty = live.iter().any(|&l| !l);
        for f in self.flows.iter_mut().flatten() {
            f.tx.schedule_mask(effective_round, live);
        }
    }

    fn schedule_quanta(&mut self, effective_round: u64, quanta: &[i64]) {
        self.last_quanta.clear();
        self.last_quanta.extend_from_slice(quanta);
        self.quanta_dirty = true;
        for f in self.flows.iter_mut().flatten() {
            f.tx.schedule_quanta(effective_round, quanta);
        }
    }

    fn reset_engine(&mut self) {
        self.reset_flows();
    }

    fn transmit_control(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: Control,
    ) -> ControlTransmission {
        let (arrival, error) = self.transmit_control_impl(now, c, &ctl);
        ControlTransmission {
            channel: c,
            arrival,
            duplicate: None,
            ctl,
            error,
        }
    }

    fn transmit_control_ref(
        &mut self,
        now: SimTime,
        c: ChannelId,
        ctl: &Control,
    ) -> ControlTransmission {
        let (arrival, error) = self.transmit_control_impl(now, c, ctl);
        ControlTransmission {
            channel: c,
            arrival,
            duplicate: None,
            ctl: ctl.clone(),
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use stripe_core::sched::Srr;
    use stripe_link::{datagram_pair, TestDatagramLink};

    fn server(
        max_flows: usize,
        park: usize,
        queue: usize,
    ) -> (StripeServer<Srr, TestDatagramLink>, Vec<TestDatagramLink>) {
        let (a0, b0) = datagram_pair(2048, 1 << 12);
        let (a1, b1) = datagram_pair(2048, 1 << 12);
        let srv = StripeServer::builder()
            .scheduler(Srr::equal(2, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(vec![a0, a1])
            .max_flows(max_flows)
            .park_capacity(park)
            .queue_frames(queue)
            .flow_quantum(2048)
            .build();
        (srv, vec![b0, b1])
    }

    fn drain(link: &mut TestDatagramLink) -> Vec<Vec<u8>> {
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        while let Some(n) = link.recv_frame(&mut buf) {
            out.push(buf[..n].to_vec());
        }
        out
    }

    #[test]
    fn frames_carry_their_flow_id() {
        let (mut srv, mut peers) = server(16, 4, 64);
        let f0 = srv.open_flow().unwrap();
        let f1 = srv.open_flow().unwrap();
        assert_ne!(f0.id(), f1.id());
        for _ in 0..6 {
            srv.enqueue(f0, &[0xAA; 200]).unwrap();
            srv.enqueue(f1, &[0xBB; 200]).unwrap();
        }
        let mut events = Vec::new();
        let served = srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        assert_eq!(served, 12);
        let mut by_flow = [0usize; 2];
        for p in &mut peers {
            for f in drain(p) {
                match frame::try_decode_flow(&f).expect("well-formed") {
                    (id, Frame::Data(body)) => {
                        assert_eq!(body.len(), 200);
                        let want = if id == f0.id() { 0xAA } else { 0xBB };
                        assert!(body.iter().all(|&b| b == want), "cross-flow bytes");
                        by_flow[id as usize] += 1;
                    }
                    (_, Frame::Control(Control::Marker(_))) => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(by_flow, [6, 6]);
        assert_eq!(srv.stats().path.sent, 12);
        assert_eq!(srv.flow_stats(f0).unwrap().sent, 6);
    }

    #[test]
    fn admission_parks_then_rejects() {
        let (mut srv, _peers) = server(1, 1, 64);
        let active = srv.open_flow().unwrap();
        let parked = srv.open_flow().unwrap();
        assert!(!srv.is_parked(active).unwrap());
        assert!(srv.is_parked(parked).unwrap());
        assert_eq!(srv.open_flow(), Err(FlowError::AdmissionRejected));
        let s = srv.stats();
        assert_eq!(
            (s.flows_active, s.flows_parked, s.dropped_admission),
            (1, 1, 1)
        );
        // A parked flow cannot send…
        assert_eq!(srv.enqueue(parked, &[1, 2, 3]), Err(FlowError::Parked));
        // …until an active slot frees.
        srv.close_flow(active).unwrap();
        assert!(!srv.is_parked(parked).unwrap());
        srv.enqueue(parked, &[1, 2, 3]).unwrap();
        let s = srv.stats();
        assert_eq!((s.flows_active, s.flows_parked), (1, 0));
    }

    #[test]
    fn queue_bound_backpressures_one_flow_only() {
        let (mut srv, _peers) = server(8, 0, 2);
        let f0 = srv.open_flow().unwrap();
        let f1 = srv.open_flow().unwrap();
        assert_eq!(srv.would_block(f0), Ok(false));
        srv.enqueue(f0, &[0; 10]).unwrap();
        srv.enqueue(f0, &[0; 10]).unwrap();
        assert_eq!(srv.would_block(f0), Ok(true));
        assert_eq!(
            srv.enqueue(f0, &[0; 10]),
            Err(FlowError::Backpressure { resume_hint: 1 })
        );
        // The sibling flow is untouched by f0's backpressure.
        assert_eq!(srv.would_block(f1), Ok(false));
        srv.enqueue(f1, &[0; 10]).unwrap();
        assert_eq!(srv.stats().dropped_backpressure, 1);
        assert_eq!(srv.flow_stats(f0).unwrap().dropped_backpressure, 1);
        assert_eq!(srv.flow_stats(f1).unwrap().dropped_backpressure, 0);
        // Draining the queue clears the signal.
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        assert_eq!(srv.would_block(f0), Ok(false));
        srv.enqueue(f0, &[0; 10]).unwrap();
    }

    /// A retune fans out to every open flow, and flows opened afterwards
    /// inherit the tuned quanta — both simulations (sender and the
    /// receiver's lazily created replica) replay the same schedule.
    #[test]
    fn retune_fans_out_and_late_flows_inherit_quanta() {
        let (mut srv, mut peers) = server(8, 0, 4096);
        let f0 = srv.open_flow().unwrap();
        // 4:1 in channel 0's favour, effective as soon as each flow's
        // clamp allows.
        ControlPath::schedule_quanta(&mut srv, 0, &[4000, 1000]);
        let f1 = srv.open_flow().unwrap(); // born after the retune
        for _ in 0..50 {
            srv.enqueue(f0, &[3; 500]).unwrap();
            srv.enqueue(f1, &[4; 500]).unwrap();
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let on0 = drain(&mut peers[0]).len();
        let on1 = drain(&mut peers[1]).len();
        // Round 1 still runs under the prototype's equal quanta (the
        // change clamps to the next boundary); everything after splits
        // 4:1, so channel 0 must carry well over half.
        assert!(
            on0 > on1 * 2,
            "channel split {on0}:{on1} does not reflect 4:1 quanta"
        );
    }

    #[test]
    fn stale_handles_miss_recycled_slots() {
        let (mut srv, _peers) = server(4, 0, 8);
        let f0 = srv.open_flow().unwrap();
        srv.close_flow(f0).unwrap();
        assert_eq!(srv.enqueue(f0, &[1]), Err(FlowError::Closed));
        assert_eq!(srv.close_flow(f0), Err(FlowError::Closed));
        // The slot is reused with a new generation; the old handle
        // still misses.
        let f0b = srv.open_flow().unwrap();
        assert_eq!(f0b.id(), f0.id());
        assert_ne!(f0b, f0);
        assert_eq!(srv.enqueue(f0, &[1]), Err(FlowError::Closed));
        srv.enqueue(f0b, &[1]).unwrap();
    }

    /// Two equally weighted backlogged flows split the served bytes
    /// about evenly even with very different packet sizes.
    #[test]
    fn drr_shares_bytes_fairly_across_flows() {
        let (mut srv, _peers) = server(8, 0, 4096);
        let big = srv.open_flow().unwrap();
        let small = srv.open_flow().unwrap();
        for _ in 0..200 {
            srv.enqueue(big, &[7; 1200]).unwrap();
        }
        for _ in 0..2400 {
            srv.enqueue(small, &[8; 100]).unwrap();
        }
        let mut events = Vec::new();
        // Pump a limited budget so both stay backlogged throughout.
        srv.pump_into(SimTime::ZERO, 1000, &mut events);
        let served_big = srv.flow_stats(big).unwrap().sent as i64 * 1200;
        let served_small = srv.flow_stats(small).unwrap().sent as i64 * 100;
        assert!(served_big > 0 && served_small > 0);
        let gap = (served_big - served_small).abs();
        assert!(gap <= 2048 + 1200, "byte gap {gap} past the DRR bound");
    }

    #[test]
    fn legacy_frames_mode_is_version_one_on_the_wire() {
        let (a0, mut b0) = datagram_pair(2048, 256);
        let mut srv: StripeServer<Srr, TestDatagramLink> = StripeServer::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(vec![a0])
            .legacy_frames(true)
            .build();
        let f = srv.open_flow().unwrap();
        srv.enqueue(f, &[9; 50]).unwrap();
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let frames = drain(&mut b0);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0][1], frame::FRAME_VERSION);
        assert_eq!(frame::decode(&frames[0]), Some(Frame::Data(&[9; 50][..])));
    }

    /// A flow opened while a channel is masked out must not stripe onto
    /// the dead channel once its first round completes.
    #[test]
    fn late_flow_inherits_membership_mask() {
        let (mut srv, mut peers) = server(8, 0, 4096);
        ControlPath::schedule_mask(&mut srv, 0, &[true, false]);
        let f = srv.open_flow().unwrap();
        for _ in 0..40 {
            srv.enqueue(f, &[3; 500]).unwrap();
        }
        let mut events = Vec::new();
        srv.pump_into(SimTime::ZERO, usize::MAX, &mut events);
        let on_dead = drain(&mut peers[1]).len();
        // Round 1 may still visit the channel (the mask clamps to the
        // next boundary); everything after must avoid it.
        assert!(on_dead <= 3, "{on_dead} frames on the masked channel");
        assert!(drain(&mut peers[0]).len() >= 37);
    }
}
