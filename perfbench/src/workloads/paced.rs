//! `paced_lossy`: an open loop at a fixed offered rate — about a tenth of
//! what the datapath saturates at — over 16 flows of 256 B payloads.
//! Seeded loss bursts, scripted by data-frame index through `ChaosPlan`
//! so the pattern depends on the seed and never on timing, drop data
//! frames of one channel at a time, each burst on a channel the seed
//! picks. Each packet is timed from when it was due. The
//! only workload where the resequencer holds packets, markers do
//! recovery work, and latency means something.

use stripe_core::receiver::RxBatch;
use stripe_core::sched::Srr;
use stripe_net::{
    ChaosPlan, FlowDemux, FlowHandle, ImpairedLink, PooledBuf, PumpEvent, StripeServer, UdpChannel,
};
use stripe_netsim::SimTime;

use super::{
    markers, pump_all, refused, scheduler, server_counters, socket_facts, verify_delivery, Check,
    Counters, SocketFacts, Workload, CHANNELS, MARKER_ROUNDS, QUANTUM,
};
use crate::links::{loopback_pairs, BenchLink, Sockets};
use crate::meter::Meter;
use crate::now_ns;
use crate::payload::{splitmix, Filler, Stamp};
use crate::recovery::RecoveryDetector;
use crate::span;
use crate::stats::jain_index;
use crate::trace::{self, Name};

/// Flows sharing the channels.
pub const FLOWS: usize = 16;
/// Payload bytes.
pub const PAYLOAD: usize = 256;
/// Offered rate, packets per second.
pub const RATE_PPS: u64 = 40_000;
/// Spacing of due times.
pub const PERIOD_NS: u64 = 1_000_000_000 / RATE_PPS;
/// Packets generated per iteration at most (a stalled generator catches
/// up over several iterations, each late packet timed from its due time).
const MAX_GEN: usize = 256;
/// Warm-up surges: packets per flow.
const SURGE_DEPTH: usize = 64;
/// Warm-up surges run.
const SURGES: usize = 4;
/// Payload slots: one iteration's packets, or one warm-up surge.
const SLOTS: usize = if MAX_GEN > FLOWS * SURGE_DEPTH {
    MAX_GEN
} else {
    FLOWS * SURGE_DEPTH
};
/// Loss bursts: lengths in data frames of the burst's channel.
const BURST_FRAMES: (u64, u64) = (12, 20);
/// Loss bursts: clean data frames per channel between bursts. A flow's
/// marker interval is about 375 frames on one channel, so each burst has
/// recovered well before the next, and a 10 s run sees about 80 bursts.
const GAP_FRAMES: (u64, u64) = (1000, 1400);
/// Generated packets while warming up (lossless).
const WARM_PACKETS: u64 = 8_000;
/// Most bursts one phase can record.
const MAX_BURSTS: usize = 1 << 14;

/// Theorem 5.1's marker term at the offered rate: the time one flow takes
/// to send `MARKER_ROUNDS` SRR rounds (all channels' quanta) of payload.
pub fn marker_interval_ms() -> f64 {
    let round_bytes = (CHANNELS as i64 * QUANTUM) as f64;
    let flow_bytes_per_s = (RATE_PPS as f64 / FLOWS as f64) * PAYLOAD as f64;
    MARKER_ROUNDS as f64 * round_bytes / flow_bytes_per_s * 1e3
}

/// The `paced_lossy` stack; `T` turns the benchmark's spans on.
pub struct Paced<L: BenchLink, const T: bool> {
    server: StripeServer<Srr, ImpairedLink<L>>,
    demux: FlowDemux<Srr, L>,
    handles: Vec<FlowHandle>,
    filler: Filler,
    slots: Vec<u8>,
    chosen: Vec<u32>,
    flow_rng: u64,
    loss_rng: u64,
    /// Pacing origin: packet `index` is due at `t0 + index * PERIOD_NS`.
    t0: u64,
    index: u64,
    next_seq: Vec<u64>,
    delivered: Vec<u64>,
    phase_base: Vec<u64>,
    detector: RecoveryDetector,
    /// The channel whose data frames the armed burst drops. Each burst
    /// draws its own: how long the others wait for a lost frame depends
    /// on its channel's place in the SRR round, so a fixed channel per
    /// seed would make the latency tail depend on the seed.
    dark: usize,
    /// The armed loss window, in dark-channel data-frame indices.
    window: Option<(u64, u64)>,
    in_burst: bool,
    events: Vec<PumpEvent>,
    batch: RxBatch<PooledBuf>,
    held: Vec<(u32, PooledBuf)>,
    offered: u64,
    check: Check,
    polls: u64,
    poll_hits: u64,
    buffered_max: u64,
}

impl<L: BenchLink, const T: bool> Paced<L, T> {
    /// Bind the sockets, build the stack and open the flows, wrapping each
    /// channel with `wrap` (inside the sender's chaos layer).
    pub fn build(seed: u64, wrap: fn(UdpChannel) -> L) -> Self {
        let (tx, rx) = loopback_pairs(CHANNELS);
        let loss_rng = seed ^ 0x1055_b075_7000_0001;
        let tx: Vec<ImpairedLink<L>> = tx
            .into_iter()
            .enumerate()
            .map(|(c, l)| ImpairedLink::new(wrap(l), ChaosPlan::none(), seed ^ c as u64))
            .collect();
        let mut server = StripeServer::builder()
            .scheduler(scheduler())
            .markers(markers())
            .links(tx)
            .max_flows(FLOWS)
            .build();
        let handles: Vec<FlowHandle> = (0..FLOWS)
            .map(|_| server.open_flow().expect("under the admission cap"))
            .collect();
        let mut demux = FlowDemux::builder()
            .scheduler(scheduler())
            .links(rx.into_iter().map(wrap).collect())
            .pool_buffers(1 << 12)
            .max_flows(FLOWS)
            .build();
        for (f, h) in handles.iter().enumerate() {
            assert_eq!(h.id() as usize, f, "a fresh server numbers flows densely");
            assert!(demux.touch_flow(h.id()), "under the demux cap");
            demux.reserve_flow(h.id(), 1 << 9);
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
            filler,
            slots,
            chosen: Vec::with_capacity(SLOTS),
            flow_rng: seed ^ 0xf10e_5e1e_c700_0002,
            loss_rng,
            t0: now_ns(),
            index: 0,
            next_seq: vec![0; FLOWS],
            delivered: vec![0; FLOWS],
            phase_base: vec![0; FLOWS],
            detector: RecoveryDetector::new(FLOWS, MAX_BURSTS),
            dark: 0,
            window: None,
            in_burst: false,
            events: Vec::with_capacity(2 * SLOTS),
            batch: RxBatch::with_capacity(SLOTS),
            held: Vec::with_capacity(SLOTS),
            offered: 0,
            check: Check::default(),
            polls: 0,
            poll_hits: 0,
            buffered_max: 0,
        }
    }

    fn due(&self, index: u64) -> u64 {
        self.t0 + index * PERIOD_NS
    }

    /// Stamp every packet due by `now` (at most [`MAX_GEN`]).
    fn generate(&mut self, now: u64, m: &mut Meter) {
        self.chosen.clear();
        while self.chosen.len() < MAX_GEN && self.due(self.index) <= now {
            let due = self.due(self.index);
            let f = (splitmix(&mut self.flow_rng) % FLOWS as u64) as u32;
            self.stamp(f, due, now);
            m.lateness(now - due);
            self.index += 1;
        }
    }

    /// Stamp the next slot with flow `f`'s next packet.
    fn stamp(&mut self, f: u32, due: u64, now: u64) {
        let k = self.chosen.len();
        let s = Stamp {
            flow: f,
            seq: self.next_seq[f as usize],
            due_ns: due,
            sent_ns: now,
        };
        self.next_seq[f as usize] += 1;
        self.filler
            .restamp(&mut self.slots[k * PAYLOAD..(k + 1) * PAYLOAD], &s);
        self.chosen.push(f);
    }

    /// Send `SURGE_DEPTH` packets on every flow in one pump and wait for
    /// them: a pump far larger than any paced iteration, so link queues,
    /// recycled frame stores and the receive pool reach their high-water
    /// marks during set-up. Each surge moves every flow's SRR about two
    /// thirds of a round on, so successive surges load every channel.
    fn surge(&mut self, m: &mut Meter) {
        let now = now_ns();
        self.chosen.clear();
        for f in 0..FLOWS as u32 {
            for _ in 0..SURGE_DEPTH {
                self.stamp(f, now, now);
            }
        }
        self.enqueue_chosen();
        pump_all(&mut self.server, &mut self.events);
        self.check.refused += refused(&self.events);
        while self.check.arrived() + self.check.refused < self.offered {
            self.receive(m);
        }
    }

    /// Open loop: a refused enqueue is a failed send, never retried.
    fn enqueue_chosen(&mut self) {
        for (k, &f) in self.chosen.iter().enumerate() {
            let slot = &self.slots[k * PAYLOAD..(k + 1) * PAYLOAD];
            match self.server.enqueue(self.handles[f as usize], slot) {
                Ok(()) => self.offered += 1,
                Err(_) => self.check.refused += 1,
            }
        }
    }

    /// Note burst starts and ends from the dark channel's send index, and
    /// arm the next burst once one ends.
    fn track_loss(&mut self, now: u64) {
        let Some((from, to)) = self.window else {
            return;
        };
        let seen = self.server.links()[self.dark].chaos().seen_data;
        if !self.in_burst && seen > from {
            self.detector.burst_started(now);
            self.in_burst = true;
        }
        if self.in_burst && seen >= to {
            self.detector.burst_ended(now);
            self.in_burst = false;
            self.arm_after(to);
        }
    }

    /// Arm the next burst on a freshly drawn channel, a drawn gap after
    /// data frame `index`. SRR spreads data frames evenly, so every
    /// channel's frame count is within a round of `index` when the
    /// previous burst's channel reaches it.
    fn arm_after(&mut self, index: u64) {
        let draw = |rng: &mut u64, (lo, hi): (u64, u64)| lo + splitmix(rng) % (hi - lo + 1);
        self.server.links_mut()[self.dark].set_loss_window(0, 0);
        self.dark = (splitmix(&mut self.loss_rng) % CHANNELS as u64) as usize;
        let from = index + draw(&mut self.loss_rng, GAP_FRAMES);
        let to = from + draw(&mut self.loss_rng, BURST_FRAMES);
        self.server.links_mut()[self.dark].set_loss_window(from, to);
        self.window = Some((from, to));
    }

    fn poll_one(&mut self, f: u32) {
        let got = self.demux.poll_flow_into(f, &mut self.batch);
        self.polls += 1;
        self.poll_hits += u64::from(got > 0);
        for pb in self.batch.drain() {
            self.held.push((f, pb));
        }
    }

    fn verify_held(&mut self, m: &mut Meter) {
        let now = now_ns();
        for (f, pb) in &self.held {
            if let Some(s) = verify_delivery(&mut self.check, m, pb.as_slice(), *f, None, now) {
                self.detector.delivered(*f, s.seq, now);
                self.delivered[*f as usize] += 1;
            }
        }
    }

    fn receive(&mut self, m: &mut Meter) {
        span!(
            T,
            Name::DemuxSweep,
            self.demux.sweep(SimTime::from_nanos(now_ns()))
        );
        if T {
            span!(T, Name::Gen, {
                let held: usize = (0..FLOWS as u32)
                    .filter_map(|f| self.demux.flow_sink(f))
                    .map(|s| s.receiver().buffered_total())
                    .sum();
                self.buffered_max = self.buffered_max.max(held as u64);
            });
        }
        span!(T, Name::DemuxPoll, {
            for f in 0..FLOWS as u32 {
                self.poll_one(f);
            }
        });
        span!(T, Name::Gen, self.verify_held(m));
        span!(T, Name::DemuxPoll, {
            for (_, pb) in self.held.drain(..) {
                self.demux.recycle(pb);
            }
        });
    }
}

impl<L: BenchLink, const T: bool> Workload for Paced<L, T> {
    fn step(&mut self, m: &mut Meter) {
        if T {
            trace::next_burst();
        }
        let mut now = now_ns();
        let due = self.due(self.index);
        if due > now {
            // Spin rather than sleep: a sleep overshoots by a host-dependent
            // timer slack, which would set how many packets each iteration
            // carries. The spin is counted as idle and kept out of the
            // per-packet CPU figure.
            let woke = span!(T, Name::Idle, {
                let mut t = now;
                while t < due {
                    std::hint::spin_loop();
                    t = now_ns();
                }
                t
            });
            m.idle_ns += woke - now;
            now = woke;
        }
        span!(T, Name::Gen, self.generate(now, m));
        span!(T, Name::ServerEnqueue, self.enqueue_chosen());
        span!(
            T,
            Name::ServerPump,
            pump_all(&mut self.server, &mut self.events)
        );
        span!(T, Name::Gen, {
            self.check.refused += refused(&self.events);
            self.track_loss(now_ns());
        });
        self.receive(m);
    }

    fn warm(&mut self, m: &mut Meter) {
        for _ in 0..SURGES {
            self.surge(m);
        }
        self.t0 = now_ns();
        self.index = 0;
        while self.index < WARM_PACKETS {
            self.step(m);
        }
    }

    fn begin_phase(&mut self) {
        self.resume();
        self.phase_base.copy_from_slice(&self.delivered);
        self.buffered_max = 0;
        let seen = self.server.links().iter().map(|l| l.chaos().seen_data);
        let seen = seen.max().unwrap_or(0);
        self.in_burst = false;
        self.arm_after(seen);
    }

    fn resume(&mut self) {
        // Owed packets are not made up after a pause: pacing restarts now.
        self.t0 = now_ns() - self.index * PERIOD_NS;
    }

    fn end_phase(&mut self) {
        self.server.links_mut()[self.dark].set_loss_window(0, 0);
        self.window = None;
        self.in_burst = false;
    }

    fn drain_step(&mut self, m: &mut Meter, kick: bool) {
        if kick {
            self.server
                .send_idle_markers_into(SimTime::from_nanos(now_ns()), &mut self.events);
        }
        self.server.flush();
        self.receive(m);
    }

    fn quiescent(&self) -> bool {
        let lost = Sockets::of(self.server.links()).chaos_dropped;
        self.check.arrived() + self.check.refused + lost >= self.offered
            && self.server.backlog() == 0
    }

    fn counters(&self) -> Counters {
        let own = Counters {
            offered: self.offered,
            check: self.check,
            disorder: self.detector.disorder(),
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

    fn recovery(&self) -> Option<&RecoveryDetector> {
        Some(&self.detector)
    }
}
