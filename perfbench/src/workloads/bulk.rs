//! `bulk_1flow`: one flow of 1200 B payloads in closed-loop bursts of
//! 128 through `NetStripedPath` → loopback → `NetLogicalReceiver`,
//! lossless. The headline cell and the one-flow wrapper: the cost sits
//! in `udp` and kernel copies; the server's DRR is trivial and the
//! resequencer never holds.

use stripe_core::receiver::{Arrival, RxBatch};
use stripe_core::sched::Srr;
use stripe_net::{NetLogicalReceiver, NetStripedPath, PooledBuf, UdpChannel};
use stripe_netsim::SimTime;
use stripe_transport::TxBatch;

use super::{
    markers, scheduler, socket_facts, verify_delivery, Check, Counters, SocketFacts, Workload,
    CHANNELS,
};
use crate::links::{loopback_pairs, BenchLink, Sockets};
use crate::meter::Meter;
use crate::now_ns;
use crate::payload::{Filler, Stamp};
use crate::span;
use crate::stats::jain_index;
use crate::trace::{self, Name};

/// Payload bytes.
pub const PAYLOAD: usize = 1200;
/// Packets per `send_batch`.
pub const BURST: usize = 128;
/// Bursts sent while warming up.
const WARM_BURSTS: usize = 64;

/// The `bulk_1flow` stack; `T` turns the benchmark's spans on.
pub struct Bulk<L: BenchLink, const T: bool> {
    path: NetStripedPath<Srr, L>,
    rx: NetLogicalReceiver<Srr, L>,
    filler: Filler,
    pkts: Vec<Vec<u8>>,
    spare: Vec<Vec<u8>>,
    out: TxBatch<Vec<u8>>,
    batch: RxBatch<PooledBuf>,
    next_seq: u64,
    expect: u64,
    in_flight: u64,
    offered: u64,
    check: Check,
    polls: u64,
    poll_hits: u64,
    phase_base: u64,
    buffered_max: u64,
}

impl<L: BenchLink, const T: bool> Bulk<L, T> {
    /// Bind the sockets and build the stack, wrapping each channel with
    /// `wrap`.
    pub fn build(seed: u64, wrap: fn(UdpChannel) -> L) -> Self {
        let (tx, rx) = loopback_pairs(CHANNELS);
        let path = NetStripedPath::builder()
            .scheduler(scheduler())
            .markers(markers())
            .links(tx.into_iter().map(wrap).collect())
            .build();
        let mut rx = NetLogicalReceiver::builder()
            .scheduler(scheduler())
            .links(rx.into_iter().map(wrap).collect())
            .pool_buffers(1 << 10)
            .build();
        rx.reserve(1 << 12);
        Self {
            path,
            rx,
            filler: Filler::new(seed, PAYLOAD),
            pkts: Vec::with_capacity(BURST),
            spare: Vec::with_capacity(BURST * 2),
            out: TxBatch::with_capacity(BURST + 4 * CHANNELS),
            batch: RxBatch::with_capacity(1 << 12),
            next_seq: 0,
            expect: 0,
            in_flight: 0,
            offered: 0,
            check: Check::default(),
            polls: 0,
            poll_hits: 0,
            phase_base: 0,
            buffered_max: 0,
        }
    }

    fn fill(&mut self, now: u64) {
        for _ in 0..BURST {
            let s = Stamp {
                flow: 0,
                seq: self.next_seq,
                due_ns: now,
                sent_ns: now,
            };
            let mut b = self.spare.pop().unwrap_or_default();
            if b.len() == PAYLOAD {
                self.filler.restamp(&mut b, &s);
            } else {
                self.filler.write(&mut b, &s);
            }
            self.pkts.push(b);
            self.next_seq += 1;
        }
        self.offered += BURST as u64;
        self.in_flight += BURST as u64;
    }

    /// Take the payload buffers back from the batch; a packet that never
    /// left is a refused send.
    fn reclaim(&mut self) {
        for t in self.out.drain() {
            if let Arrival::Data(p) = t.item {
                if t.error.is_some() {
                    self.check.refused += 1;
                    self.in_flight -= 1;
                }
                self.spare.push(p);
            }
        }
    }

    fn receive(&mut self, m: &mut Meter) {
        span!(
            T,
            Name::RecvSweep,
            self.rx.sweep(SimTime::from_nanos(now_ns()))
        );
        if T {
            span!(T, Name::Gen, {
                let held = self.rx.sink().receiver().buffered_total() as u64;
                self.buffered_max = self.buffered_max.max(held);
            });
        }
        let got = span!(T, Name::RecvPoll, self.rx.poll_into(&mut self.batch));
        self.polls += 1;
        self.poll_hits += u64::from(got > 0);
        span!(T, Name::Gen, {
            let now = now_ns();
            for pb in self.batch.iter() {
                verify_delivery(
                    &mut self.check,
                    m,
                    pb.as_slice(),
                    0,
                    Some(&mut self.expect),
                    now,
                );
            }
            self.in_flight = self.in_flight.saturating_sub(got as u64);
        });
        span!(T, Name::RecvPoll, {
            for pb in self.batch.drain() {
                self.rx.recycle(pb);
            }
        });
    }
}

impl<L: BenchLink, const T: bool> Workload for Bulk<L, T> {
    fn step(&mut self, m: &mut Meter) {
        if T {
            trace::next_burst();
        }
        if self.in_flight == 0 {
            let now = now_ns();
            span!(T, Name::Gen, self.fill(now));
            span!(
                T,
                Name::PathSend,
                self.path
                    .send_batch(SimTime::from_nanos(now), &mut self.pkts, &mut self.out)
            );
            span!(T, Name::Gen, self.reclaim());
        } else if self.path.backlog() > 0 {
            span!(T, Name::PathSend, self.path.flush());
        }
        self.receive(m);
    }

    fn warm(&mut self, m: &mut Meter) {
        let mut bursts = 0;
        while bursts < WARM_BURSTS {
            if self.in_flight == 0 {
                bursts += 1;
            }
            self.step(m);
        }
    }

    fn begin_phase(&mut self) {
        self.phase_base = self.check.delivered;
        self.buffered_max = 0;
    }

    fn drain_step(&mut self, m: &mut Meter, kick: bool) {
        if kick {
            self.path
                .send_markers_into(SimTime::from_nanos(now_ns()), &mut self.out);
            self.out.clear();
        }
        self.path.flush();
        self.receive(m);
    }

    fn quiescent(&self) -> bool {
        self.check.arrived() + self.check.refused >= self.offered && self.path.backlog() == 0
    }

    fn counters(&self) -> Counters {
        let r = self.rx.stats();
        let s = self.path.server().stats();
        Counters {
            offered: self.offered,
            check: self.check,
            disorder: 0,
            sockets: Sockets::of(self.path.links()).plus(Sockets::of(self.rx.links())),
            markers_sent: s.path.markers_sent,
            backpressure: s.dropped_backpressure,
            polls: self.polls,
            poll_hits: self.poll_hits,
            skips: r.skips,
            marks_applied: r.marks_applied,
            dropped_overflow: r.dropped_overflow,
        }
    }

    fn jain(&self) -> f64 {
        jain_index([self.check.delivered - self.phase_base])
    }

    fn buffered_max(&self) -> u64 {
        self.buffered_max
    }

    fn socket_facts(&mut self) -> SocketFacts {
        socket_facts(self.path.links(), self.rx.links_mut())
    }
}
