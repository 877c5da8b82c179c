//! The links the workloads stripe over: loopback `UdpChannel` pairs,
//! optionally behind an `ImpairedLink` and/or a [`TracedLink`], with one
//! trait to read their counters whatever the wrapping.

use stripe_link::DatagramLink;
use stripe_net::{
    ChaosPlan, ChaosSnapshot, DropPolicy, ImpairedLink, UdpChannel, UdpChannelSnapshot,
};

use crate::trace::{LinkCalls, TracedLink};

/// Frame MTU of every channel.
pub const MTU: usize = 2048;
/// Local send-queue bound, in frames: far above any burst, so a refused
/// send means a fault, not a sizing choice.
pub const QUEUE_FRAMES: usize = 1 << 12;
/// Kernel socket buffer request per socket.
pub const SOCK_BUF: usize = 1 << 22;

/// A link the benchmark can read counters from.
pub trait BenchLink: DatagramLink {
    /// The socket's counters.
    fn udp(&self) -> UdpChannelSnapshot;
    /// The socket's counters with a fresh kernel-drop sample (reads
    /// procfs and allocates: reporting time only).
    fn udp_sampled(&mut self) -> UdpChannelSnapshot;
    /// Whether sends use `sendmmsg` (false on the per-frame fallback).
    fn batched(&self) -> bool;
    /// Whether the kernel accepted UDP GSO on this socket.
    fn gso(&self) -> bool;
    /// Call counts, when traced.
    fn calls(&self) -> LinkCalls {
        LinkCalls::default()
    }
    /// Injected impairments, when impaired.
    fn chaos(&self) -> ChaosSnapshot {
        ChaosSnapshot::default()
    }
    /// Drop this link's data frames with send index in `from..to`
    /// (impaired links only; the plan swap allocates nothing).
    fn set_loss_window(&mut self, _from: u64, _to: u64) {}
}

impl BenchLink for UdpChannel {
    fn udp(&self) -> UdpChannelSnapshot {
        self.stats()
    }
    fn udp_sampled(&mut self) -> UdpChannelSnapshot {
        self.stats_sampled()
    }
    fn batched(&self) -> bool {
        self.batched_syscalls()
    }
    fn gso(&self) -> bool {
        self.gso_offload()
    }
}

impl<L: BenchLink> BenchLink for TracedLink<L> {
    fn udp(&self) -> UdpChannelSnapshot {
        self.inner().udp()
    }
    fn udp_sampled(&mut self) -> UdpChannelSnapshot {
        self.inner_mut().udp_sampled()
    }
    fn batched(&self) -> bool {
        self.inner().batched()
    }
    fn gso(&self) -> bool {
        self.inner().gso()
    }
    fn calls(&self) -> LinkCalls {
        self.calls()
    }
}

impl<L: BenchLink> BenchLink for ImpairedLink<L> {
    fn udp(&self) -> UdpChannelSnapshot {
        self.inner().udp()
    }
    fn udp_sampled(&mut self) -> UdpChannelSnapshot {
        self.inner_mut().udp_sampled()
    }
    fn batched(&self) -> bool {
        self.inner().batched()
    }
    fn gso(&self) -> bool {
        self.inner().gso()
    }
    fn calls(&self) -> LinkCalls {
        self.inner().calls()
    }
    fn chaos(&self) -> ChaosSnapshot {
        self.snapshot()
    }
    fn set_loss_window(&mut self, from: u64, to: u64) {
        self.set_plan(ChaosPlan::none().loss(DropPolicy::Window { from, to }));
    }
}

/// `n` connected loopback channel pairs: (sending ends, receiving ends).
pub fn loopback_pairs(n: usize) -> (Vec<UdpChannel>, Vec<UdpChannel>) {
    let mut tx = Vec::with_capacity(n);
    let mut rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (a, b) = UdpChannel::builder(MTU)
            .queue_cap(QUEUE_FRAMES)
            .sndbuf(SOCK_BUF)
            .rcvbuf(SOCK_BUF)
            .pair()
            .expect("bind a loopback UDP pair");
        tx.push(a);
        rx.push(b);
    }
    (tx, rx)
}

/// Socket counters summed over a set of links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sockets {
    /// Frames handed to the kernel.
    pub sent_frames: u64,
    /// Send-direction syscalls.
    pub send_syscalls: u64,
    /// Frames received from the kernel.
    pub recv_frames: u64,
    /// Receive-direction syscalls.
    pub recv_syscalls: u64,
    /// Link call counts (traced links only).
    pub calls: LinkCalls,
    /// Data frames the chaos layer's loss plans dropped (impaired links
    /// only; the benchmark's plans drop data frames and nothing else).
    pub chaos_dropped: u64,
    /// Data frames offered to the chaos layer.
    pub chaos_seen: u64,
}

impl Sockets {
    /// Sum the counters of `links`.
    pub fn of<L: BenchLink>(links: &[L]) -> Self {
        let mut s = Sockets::default();
        for l in links {
            let u = l.udp();
            s.sent_frames += u.sent_frames;
            s.send_syscalls += u.send_syscalls;
            s.recv_frames += u.recv_frames;
            s.recv_syscalls += u.recv_syscalls;
            let c = l.calls();
            s.calls.tx_runs += c.tx_runs;
            s.calls.rx_calls += c.rx_calls;
            s.calls.rx_empty += c.rx_empty;
            let x = l.chaos();
            s.chaos_dropped += x.dropped_loss;
            s.chaos_seen += x.seen_data;
        }
        s
    }

    /// Field-wise sum.
    pub fn plus(self, o: Sockets) -> Sockets {
        Sockets {
            sent_frames: self.sent_frames + o.sent_frames,
            send_syscalls: self.send_syscalls + o.send_syscalls,
            recv_frames: self.recv_frames + o.recv_frames,
            recv_syscalls: self.recv_syscalls + o.recv_syscalls,
            calls: LinkCalls {
                tx_runs: self.calls.tx_runs + o.calls.tx_runs,
                rx_calls: self.calls.rx_calls + o.calls.rx_calls,
                rx_empty: self.calls.rx_empty + o.calls.rx_empty,
            },
            chaos_dropped: self.chaos_dropped + o.chaos_dropped,
            chaos_seen: self.chaos_seen + o.chaos_seen,
        }
    }

    /// Field-wise difference against an earlier reading.
    pub fn since(self, e: Sockets) -> Sockets {
        Sockets {
            sent_frames: self.sent_frames - e.sent_frames,
            send_syscalls: self.send_syscalls - e.send_syscalls,
            recv_frames: self.recv_frames - e.recv_frames,
            recv_syscalls: self.recv_syscalls - e.recv_syscalls,
            calls: LinkCalls {
                tx_runs: self.calls.tx_runs - e.calls.tx_runs,
                rx_calls: self.calls.rx_calls - e.calls.rx_calls,
                rx_empty: self.calls.rx_empty - e.calls.rx_empty,
            },
            chaos_dropped: self.chaos_dropped - e.chaos_dropped,
            chaos_seen: self.chaos_seen - e.chaos_seen,
        }
    }
}
