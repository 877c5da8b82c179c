//! The three workloads. Each drives both ends from one thread over 4
//! loopback channel pairs, verifies every delivered payload, and keeps
//! an exact ledger of what it offered.
//!
//! - [`bulk::Bulk`] — `bulk_1flow`: one flow, 1200 B payloads,
//!   closed-loop bursts through the one-flow wrappers, lossless.
//! - [`many::Many`] — `many_flows`: 10k flows, 64 B payloads, closed loop
//!   over a seeded rotating window of flows through server and demux.
//! - [`paced::Paced`] — `paced_lossy`: an open loop at a fixed rate over
//!   16 flows, 256 B payloads, seeded loss bursts on one channel.

pub mod bulk;
pub mod many;
pub mod paced;

use stripe_core::sched::Srr;
use stripe_core::sender::MarkerConfig;
use stripe_net::{FlowDemux, PumpEvent, StripeServer};
use stripe_netsim::SimTime;

use crate::links::{BenchLink, Sockets};
use crate::meter::Meter;
use crate::now_ns;
use crate::payload::{self, Stamp};
use crate::recovery::RecoveryDetector;

/// Striped channels (loopback socket pairs).
pub const CHANNELS: usize = 4;
/// SRR quantum per channel, bytes.
pub const QUANTUM: i64 = 1500;
/// Markers every this many SRR rounds, per flow.
pub const MARKER_ROUNDS: u64 = 4;

/// The scheduler every stack stripes with.
pub fn scheduler() -> Srr {
    Srr::equal(CHANNELS, QUANTUM)
}

/// The marker policy every stack uses.
pub fn markers() -> MarkerConfig {
    MarkerConfig::every_rounds(MARKER_ROUNDS)
}

/// Correctness tallies. Any nonzero field but `delivered` and
/// `disorder` fails the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Payloads delivered and verified.
    pub delivered: u64,
    /// Payloads that failed their checksum.
    pub corrupt: u64,
    /// Payloads delivered on a flow other than the one they were sent on.
    pub cross_flow: u64,
    /// Lossless workloads: deliveries out of per-flow sequence order.
    pub fifo: u64,
    /// Sends the datapath refused (enqueue or link errors).
    pub refused: u64,
}

impl Check {
    /// Violations: everything that makes a run incorrect.
    pub fn failures(&self) -> u64 {
        self.corrupt + self.cross_flow + self.fifo + self.refused
    }

    /// Payloads that came out of the receiver, verified or not.
    pub fn arrived(&self) -> u64 {
        self.delivered + self.corrupt + self.cross_flow
    }
}

/// Everything a phase differences to get per-layer figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Packets offered to the datapath.
    pub offered: u64,
    /// Correctness tallies.
    pub check: Check,
    /// Out-of-order deliveries (lossy workload; 0 elsewhere).
    pub disorder: u64,
    /// Socket, link-call and chaos counters, both ends.
    pub sockets: Sockets,
    /// Markers the sender emitted.
    pub markers_sent: u64,
    /// Enqueues refused by per-flow backpressure (closed loops retry).
    pub backpressure: u64,
    /// Flow polls issued.
    pub polls: u64,
    /// Flow polls that delivered at least one packet.
    pub poll_hits: u64,
    /// Resequencer: channel visits skipped under condition C1.
    pub skips: u64,
    /// Resequencer: marks adopted.
    pub marks_applied: u64,
    /// Resequencer: arrivals dropped at a full channel buffer.
    pub dropped_overflow: u64,
}

impl Counters {
    /// Difference against an earlier reading of the same stack.
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            offered: self.offered - e.offered,
            check: Check {
                delivered: self.check.delivered - e.check.delivered,
                corrupt: self.check.corrupt - e.check.corrupt,
                cross_flow: self.check.cross_flow - e.check.cross_flow,
                fifo: self.check.fifo - e.check.fifo,
                refused: self.check.refused - e.check.refused,
            },
            disorder: self.disorder - e.disorder,
            sockets: self.sockets.since(e.sockets),
            markers_sent: self.markers_sent - e.markers_sent,
            backpressure: self.backpressure - e.backpressure,
            polls: self.polls - e.polls,
            poll_hits: self.poll_hits - e.poll_hits,
            skips: self.skips - e.skips,
            marks_applied: self.marks_applied - e.marks_applied,
            dropped_overflow: self.dropped_overflow - e.dropped_overflow,
        }
    }
}

/// Host facts a stack's sockets report after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketFacts {
    /// Sends went through `sendmmsg` on every sending socket.
    pub batched: bool,
    /// The kernel accepted UDP GSO on every sending socket.
    pub gso: bool,
    /// Granted `SO_SNDBUF` (sending sockets).
    pub sndbuf: u64,
    /// Granted `SO_RCVBUF` (receiving sockets).
    pub rcvbuf: u64,
    /// Kernel receive-buffer drops on the receiving sockets.
    pub kernel_drops: u64,
}

/// A workload stack: one sender, one receiver, their sockets, and the
/// benchmark's generator and checker.
pub trait Workload {
    /// Drive one iteration (a burst, a window visit, or one pacing tick).
    fn step(&mut self, m: &mut Meter);
    /// Fill pools, rings and scratch to their steady-state high-water
    /// marks and leave the stack quiescent. Part of set-up.
    fn warm(&mut self, m: &mut Meter);
    /// Called before a measured phase: rebase pacing, arm loss, take
    /// per-flow baselines.
    fn begin_phase(&mut self);
    /// Called after a calibration pause between measured windows: an
    /// open loop restarts its pacing rather than sending what fell due
    /// meanwhile.
    fn resume(&mut self) {}
    /// Called after a measured phase: stop injecting loss.
    fn end_phase(&mut self) {}
    /// One drain iteration: sweep, poll and verify; with `kick`, also
    /// send idle markers so a resequencer holding packets can finish.
    fn drain_step(&mut self, m: &mut Meter, kick: bool);
    /// Whether every offered packet has been delivered or accounted for
    /// as injected loss, and nothing is queued anywhere.
    fn quiescent(&self) -> bool;
    /// Cumulative counters.
    fn counters(&self) -> Counters;
    /// Jain's index over per-flow deliveries since [`begin_phase`].
    ///
    /// [`begin_phase`]: Workload::begin_phase
    fn jain(&self) -> f64;
    /// Largest resequencer backlog seen since [`begin_phase`] (sampled
    /// in traced runs only).
    ///
    /// [`begin_phase`]: Workload::begin_phase
    fn buffered_max(&self) -> u64;
    /// Socket facts, sampling kernel drop counters (allocates).
    fn socket_facts(&mut self) -> SocketFacts;
    /// The loss-burst recovery detector, on the lossy workload.
    fn recovery(&self) -> Option<&RecoveryDetector> {
        None
    }
}

/// Socket facts of a sending and a receiving link set.
pub fn socket_facts<A: BenchLink, B: BenchLink>(tx: &[A], rx: &mut [B]) -> SocketFacts {
    let mut f = SocketFacts {
        batched: tx.iter().all(|l| l.batched()),
        gso: tx.iter().all(|l| l.gso()),
        sndbuf: tx.iter().map(|l| l.udp().sndbuf).min().unwrap_or(0),
        rcvbuf: rx.iter().map(|l| l.udp().rcvbuf).min().unwrap_or(0),
        kernel_drops: 0,
    };
    for l in rx.iter_mut() {
        f.kernel_drops += l.udp_sampled().dropped_rcvbuf;
    }
    f
}

/// Verify one delivered payload polled from flow `flow` at `now`:
/// checksum, flow id, and — when `expect` is given — exact per-flow
/// sequence order (which it then advances). Records the latency sample.
/// Returns the stamp when the payload verified.
#[inline]
pub fn verify_delivery(
    check: &mut Check,
    m: &mut Meter,
    bytes: &[u8],
    flow: u32,
    expect: Option<&mut u64>,
    now: u64,
) -> Option<Stamp> {
    let Ok(s) = payload::verify(bytes) else {
        check.corrupt += 1;
        return None;
    };
    if s.flow != flow {
        check.cross_flow += 1;
        return None;
    }
    if let Some(next) = expect {
        if s.seq != *next {
            check.fifo += 1;
        }
        *next = s.seq + 1;
    }
    check.delivered += 1;
    m.delivered(now.saturating_sub(s.due_ns), now.saturating_sub(s.sent_ns));
    Some(s)
}

/// Pump every queued frame onto the links, then flush whatever kernel
/// backpressure left queued, so nothing waits for the next iteration.
pub fn pump_all<L: BenchLink>(server: &mut StripeServer<Srr, L>, events: &mut Vec<PumpEvent>) {
    server.pump_into(SimTime::from_nanos(now_ns()), usize::MAX, events);
    if server.backlog() > 0 {
        server.flush();
    }
}

/// Frames and markers the links refused in one pump.
pub fn refused(events: &[PumpEvent]) -> u64 {
    events
        .iter()
        .filter(|ev| match ev {
            PumpEvent::Data { error, .. } | PumpEvent::Marker { error, .. } => error.is_some(),
        })
        .count() as u64
}

/// Complete a server/demux stack's counters: `c` carries the workload's
/// own ledger and poll counts; this adds sockets, sender and resequencer
/// figures for flows `0..flows`.
pub fn server_counters<A: BenchLink, B: BenchLink>(
    server: &StripeServer<Srr, A>,
    demux: &FlowDemux<Srr, B>,
    flows: u32,
    mut c: Counters,
) -> Counters {
    let s = server.stats();
    c.sockets = Sockets::of(server.links()).plus(Sockets::of(demux.links()));
    c.markers_sent = s.path.markers_sent;
    c.backpressure = s.dropped_backpressure;
    for r in (0..flows).filter_map(|f| demux.flow_stats(f)) {
        c.skips += r.skips;
        c.marks_applied += r.marks_applied;
        c.dropped_overflow += r.dropped_overflow;
    }
    c
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    let mut state = seed ^ 0x0bde_7a11_0c0f_fee5;
    for i in (1..n).rev() {
        let j = (payload::splitmix(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}
