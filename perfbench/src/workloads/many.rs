//! `many_flows`: 10k flows of 64 B payloads — the smallest size, where
//! per-packet cost dominates — through `StripeServer` → loopback →
//! `FlowDemux`. A closed loop visits the flows a window of 125
//! consecutive flow ids at a time, the windows in a seeded order; each
//! visited flow with nothing in flight sends one packet. DRR, per-flow
//! SRR, the flow slab and per-flow demux routing do most of the work;
//! kernel copies are small.
//!
//! Windows of consecutive ids keep each iteration's flow state close in
//! memory, as a server that batches by flow would; a fully shuffled
//! visit order instead measures the host's memory latency, which on a
//! shared machine drifts by more than any bound a change could be held
//! to.

use std::ops::Range;

use stripe_core::receiver::RxBatch;
use stripe_core::sched::Srr;
use stripe_net::{
    FlowDemux, FlowError, FlowHandle, PooledBuf, PumpEvent, StripeServer, UdpChannel,
};
use stripe_netsim::SimTime;

use super::{
    markers, permutation, pump_all, refused, scheduler, server_counters, socket_facts,
    verify_delivery, Check, Counters, SocketFacts, Workload, CHANNELS,
};
use crate::links::{loopback_pairs, BenchLink};
use crate::meter::Meter;
use crate::now_ns;
use crate::payload::{Filler, Stamp};
use crate::span;
use crate::stats::jain_index;
use crate::trace::{self, Name};

/// Flows open on the server.
pub const FLOWS: usize = 10_000;
/// Flows visited per iteration (divides [`FLOWS`]).
pub const WINDOW_FLOWS: usize = 125;
/// Windows in one rotation over every flow.
const WINDOWS: usize = FLOWS / WINDOW_FLOWS;
/// Payload bytes.
pub const PAYLOAD: usize = 64;
/// Rotations over every flow while warming up.
const WARM_ROTATIONS: usize = 2;
/// Warm-up surges: packets per flow (at most the per-flow queue bound).
const SURGE_DEPTH: usize = 64;
/// Warm-up surges: flows per surge.
const SURGE_FLOWS: usize = 32;
/// Warm-up surges run.
const SURGES: usize = 4;
/// Payload slots: one window, or one warm-up surge.
const SLOTS: usize = if WINDOW_FLOWS > SURGE_FLOWS * SURGE_DEPTH {
    WINDOW_FLOWS
} else {
    SURGE_FLOWS * SURGE_DEPTH
};
/// Packets pushed through one flow while warming up, so the marker path
/// fires (a flow's first marker is due 4 rounds ≈ 375 packets in).
const WARM_MARKER_PACKETS: usize = 512;

/// The `many_flows` stack; `T` turns the benchmark's spans on.
pub struct Many<L: BenchLink, const T: bool> {
    server: StripeServer<Srr, L>,
    demux: FlowDemux<Srr, L>,
    handles: Vec<FlowHandle>,
    order: Vec<u32>,
    cursor: usize,
    filler: Filler,
    /// One payload slot per window entry, stamped before the enqueue loop.
    slots: Vec<u8>,
    chosen: Vec<u32>,
    events: Vec<PumpEvent>,
    batch: RxBatch<PooledBuf>,
    held: Vec<(u32, PooledBuf)>,
    next_seq: Vec<u64>,
    expect: Vec<u64>,
    in_flight: Vec<u32>,
    delivered: Vec<u64>,
    phase_base: Vec<u64>,
    offered: u64,
    check: Check,
    polls: u64,
    poll_hits: u64,
    buffered_max: u64,
}

impl<L: BenchLink, const T: bool> Many<L, T> {
    /// Bind the sockets, build the stack and open every flow on both
    /// ends, wrapping each channel with `wrap`.
    pub fn build(seed: u64, wrap: fn(UdpChannel) -> L) -> Self {
        let (tx, rx) = loopback_pairs(CHANNELS);
        let mut server = StripeServer::builder()
            .scheduler(scheduler())
            .markers(markers())
            .links(tx.into_iter().map(wrap).collect())
            .max_flows(FLOWS)
            .queue_frames(SURGE_DEPTH)
            .build();
        let handles: Vec<FlowHandle> = (0..FLOWS)
            .map(|_| server.open_flow().expect("under the admission cap"))
            .collect();
        let mut demux = FlowDemux::builder()
            .scheduler(scheduler())
            .links(rx.into_iter().map(wrap).collect())
            .pool_buffers(1 << 11)
            .max_flows(FLOWS)
            .build();
        for (f, h) in handles.iter().enumerate() {
            assert_eq!(h.id() as usize, f, "a fresh server numbers flows densely");
            assert!(demux.touch_flow(h.id()), "under the demux cap");
            demux.reserve_flow(h.id(), 4);
        }
        let filler = Filler::new(seed, PAYLOAD);
        let mut slots = vec![0; SLOTS * PAYLOAD];
        for slot in slots.chunks_exact_mut(PAYLOAD) {
            filler.prime(slot);
        }
        Self {
            server,
            demux,
            handles,
            order: permutation(WINDOWS, seed),
            cursor: 0,
            filler,
            slots,
            chosen: Vec::with_capacity(SLOTS),
            events: Vec::with_capacity(2 * SLOTS),
            batch: RxBatch::with_capacity(SLOTS),
            held: Vec::with_capacity(SLOTS),
            next_seq: vec![0; FLOWS],
            expect: vec![0; FLOWS],
            in_flight: vec![0; FLOWS],
            delivered: vec![0; FLOWS],
            phase_base: vec![0; FLOWS],
            offered: 0,
            check: Check::default(),
            polls: 0,
            poll_hits: 0,
            buffered_max: 0,
        }
    }

    /// The flows of the window this iteration visits.
    fn window(&self) -> Range<u32> {
        let first = (self.order[self.cursor] as usize * WINDOW_FLOWS) as u32;
        first..first + WINDOW_FLOWS as u32
    }

    /// Stamp one payload per idle flow in the window into the slots.
    fn fill_window(&mut self, now: u64) {
        self.chosen.clear();
        for f in self.window() {
            if self.in_flight[f as usize] == 0 {
                self.stamp(f, self.next_seq[f as usize], now);
            }
        }
    }

    /// Stamp the next slot with flow `f`'s packet `seq`.
    fn stamp(&mut self, f: u32, seq: u64, now: u64) {
        let k = self.chosen.len();
        let s = Stamp {
            flow: f,
            seq,
            due_ns: now,
            sent_ns: now,
        };
        self.filler
            .restamp(&mut self.slots[k * PAYLOAD..(k + 1) * PAYLOAD], &s);
        self.chosen.push(f);
    }

    fn enqueue_chosen(&mut self) {
        for (k, &f) in self.chosen.iter().enumerate() {
            let slot = &self.slots[k * PAYLOAD..(k + 1) * PAYLOAD];
            match self.server.enqueue(self.handles[f as usize], slot) {
                Ok(()) => {
                    self.next_seq[f as usize] += 1;
                    self.in_flight[f as usize] += 1;
                    self.offered += 1;
                }
                // Closed loop: the flow simply sends on a later visit.
                Err(FlowError::Backpressure { .. }) => {}
                Err(_) => self.check.refused += 1,
            }
        }
    }

    /// Poll flow `f`, moving what it delivers into `held`.
    fn poll_one(&mut self, f: u32) {
        let got = self.demux.poll_flow_into(f, &mut self.batch);
        self.polls += 1;
        self.poll_hits += u64::from(got > 0);
        for pb in self.batch.drain() {
            self.held.push((f, pb));
        }
    }

    fn poll_window(&mut self) {
        for f in self.window() {
            self.poll_one(f);
        }
    }

    fn verify_held(&mut self, m: &mut Meter) {
        let now = now_ns();
        for (f, pb) in &self.held {
            let i = *f as usize;
            self.in_flight[i] = self.in_flight[i].saturating_sub(1);
            if verify_delivery(
                &mut self.check,
                m,
                pb.as_slice(),
                *f,
                Some(&mut self.expect[i]),
                now,
            )
            .is_some()
            {
                self.delivered[i] += 1;
            }
        }
    }

    fn recycle_held(&mut self) {
        for (_, pb) in self.held.drain(..) {
            self.demux.recycle(pb);
        }
    }

    fn sample_buffered(&mut self) {
        let mut held = 0u64;
        for f in self.window() {
            if let Some(sink) = self.demux.flow_sink(f) {
                held += sink.receiver().buffered_total() as u64;
            }
        }
        self.buffered_max = self.buffered_max.max(held);
    }

    /// Send `SURGE_DEPTH` packets on each of `flows` in one pump and wait
    /// until all are delivered.
    fn surge(&mut self, flows: Range<u32>, m: &mut Meter) {
        let now = now_ns();
        self.chosen.clear();
        for f in flows.clone() {
            for k in 0..SURGE_DEPTH as u64 {
                self.stamp(f, self.next_seq[f as usize] + k, now);
            }
        }
        self.enqueue_chosen();
        pump_all(&mut self.server, &mut self.events);
        self.check.refused += refused(&self.events);
        while flows.clone().any(|f| self.in_flight[f as usize] > 0) {
            self.demux.sweep(SimTime::from_nanos(now_ns()));
            for f in flows.clone() {
                self.poll_one(f);
            }
            self.verify_held(m);
            self.recycle_held();
        }
    }
}

impl<L: BenchLink, const T: bool> Workload for Many<L, T> {
    fn step(&mut self, m: &mut Meter) {
        if T {
            trace::next_burst();
        }
        let now = now_ns();
        span!(T, Name::Gen, self.fill_window(now));
        span!(T, Name::ServerEnqueue, self.enqueue_chosen());
        span!(
            T,
            Name::ServerPump,
            pump_all(&mut self.server, &mut self.events)
        );
        span!(T, Name::Gen, self.check.refused += refused(&self.events));
        span!(
            T,
            Name::DemuxSweep,
            self.demux.sweep(SimTime::from_nanos(now_ns()))
        );
        if T {
            span!(T, Name::Gen, self.sample_buffered());
        }
        span!(T, Name::DemuxPoll, self.poll_window());
        span!(T, Name::Gen, self.verify_held(m));
        span!(T, Name::DemuxPoll, self.recycle_held());
        self.cursor = (self.cursor + 1) % WINDOWS;
    }

    fn warm(&mut self, m: &mut Meter) {
        // Warm-up traffic uses the highest flow ids: their two-byte id
        // varint makes the longest frames, so every recycled frame buffer
        // reaches the capacity any later frame needs.
        let top = FLOWS as u32;
        // One flow far enough into its SRR rounds to emit markers, so
        // marker scratch on both ends is sized.
        for _ in 0..WARM_MARKER_PACKETS / SURGE_DEPTH {
            self.surge(top - 1..top, m);
        }
        // Pumps far larger than any measured iteration (which offers at
        // most one packet per flow of a window), so every link queue,
        // recycled frame store and the receive pool reach their
        // high-water marks. Each surge moves its flows' SRR about two
        // thirds of a round on, so successive surges load every channel.
        for _ in 0..SURGES {
            self.surge(top - SURGE_FLOWS as u32..top, m);
        }
        // Then every flow's own queue and resequencer rings.
        for _ in 0..WARM_ROTATIONS * WINDOWS {
            self.step(m);
        }
    }

    fn begin_phase(&mut self) {
        self.phase_base.copy_from_slice(&self.delivered);
        self.buffered_max = 0;
    }

    fn drain_step(&mut self, m: &mut Meter, kick: bool) {
        if kick {
            self.server
                .send_idle_markers_into(SimTime::from_nanos(now_ns()), &mut self.events);
        }
        self.server.flush();
        self.demux.sweep(SimTime::from_nanos(now_ns()));
        for f in 0..FLOWS as u32 {
            if self.in_flight[f as usize] > 0 {
                self.poll_one(f);
            }
        }
        self.verify_held(m);
        self.recycle_held();
    }

    fn quiescent(&self) -> bool {
        self.check.arrived() + self.check.refused >= self.offered && self.server.backlog() == 0
    }

    fn counters(&self) -> Counters {
        let own = Counters {
            offered: self.offered,
            check: self.check,
            disorder: 0,
            polls: self.polls,
            poll_hits: self.poll_hits,
            ..Counters::default()
        };
        server_counters(&self.server, &self.demux, FLOWS as u32, own)
    }

    fn jain(&self) -> f64 {
        jain_index(
            self.delivered
                .iter()
                .zip(&self.phase_base)
                .map(|(d, b)| d - b),
        )
    }

    fn buffered_max(&self) -> u64 {
        self.buffered_max
    }

    fn socket_facts(&mut self) -> SocketFacts {
        socket_facts(self.server.links(), self.demux.links_mut())
    }
}
