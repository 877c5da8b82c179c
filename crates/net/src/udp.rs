//! One striped channel over one kernel UDP socket.
//!
//! [`UdpChannel`] is the [`DatagramLink`] instance the real-socket
//! datapath runs on: a *connected*, non-blocking `std::net::UdpSocket`
//! per channel, so data frames, markers and control messages for channel
//! `c` all share one 5-tuple — per-flow FIFO on loopback, quasi-FIFO in
//! the wild, which is precisely the channel model the §5 marker recovery
//! tolerates. The reverse path (probe acks, membership acks, credit)
//! rides the same socket in the other direction.
//!
//! Since PR 4 the channel is **syscall-batched**: whole frame runs go to
//! the kernel as one `sendmmsg` batch and receives drain the socket in
//! `recvmmsg` batches (see [`crate::sys`]), with a portable per-frame
//! fallback behind the same API. The split of labor:
//!
//! - [`send_run`](DatagramLink::send_run) — *eager*: flush the backlog,
//!   then submit the run as mmsg batches. One syscall per
//!   [`batch`](UdpChannelBuilder::batch) frames.
//! - [`send_run_owned`](DatagramLink::send_run_owned) — *deferred*: take
//!   each frame's storage into the bounded local queue (zero copies,
//!   storage swapped against recycled buffers) and let the next
//!   [`flush`](DatagramLink::flush) — which batch senders call once per
//!   burst — drain the whole queue in mmsg batches. This is what lifts
//!   batch occupancy above the per-run packet count: SRR runs at large
//!   payloads are only 1–2 frames long, but a burst parks many frames
//!   per channel before the single flush.
//! - [`recv_run`](DatagramLink::recv_run) — drain up to a buffer-array's
//!   worth of datagrams in one `recvmmsg`.
//!
//! Backpressure mirrors the simulated links: when the kernel refuses a
//! frame (`WouldBlock`), frames park in the bounded local queue for the
//! next flush; when that queue is full too, the send reports
//! [`TxError::QueueFull`] — the same congestion signal a full simulated
//! transmit queue produces. Queue buffers are recycled, so backpressure
//! episodes allocate only up to the queue's high-water mark.
//!
//! The snapshot counts syscalls on both directions, so
//! `syscalls_per_packet` and batch occupancy are first-class, and it
//! reports the effective `SO_SNDBUF`/`SO_RCVBUF` plus a
//! [`dropped_rcvbuf`](UdpChannelSnapshot::dropped_rcvbuf) estimate of
//! kernel receive-buffer overflow — losses that were previously
//! invisible and surfaced only as §5 marker recoveries.
//!
//! **Socket-error recovery.** Hard send errors no longer funnel
//! straight into `TxError::LinkDown`; the channel runs a small
//! recovery state machine keyed on the errno:
//!
//! - `ECONNREFUSED` — a connected UDP socket echoes the peer's ICMP
//!   port-unreachable back on the *next* send. One echo is transient
//!   (the peer may be restarting), so the frame re-queues and a score
//!   (+2 per refusal) tracks persistence; past [`REFUSED_DEAD_SCORE`]
//!   the channel declares itself dead. Only *inbound* traffic — proof
//!   the peer is alive — decays the score (−1 per receive): a
//!   kernel-accepted send proves nothing about the peer, and ICMP
//!   echoes are rate-limited, so accepted sends interleaving with the
//!   refusals they provoked must never outvote them.
//! - `ENOBUFS` — kernel transmit memory, not our queue: the frame
//!   stays parked and the next [`ENOBUFS_BACKOFF`] flushes are skipped
//!   to let the NIC drain rather than hammering the syscall.
//! - `EMSGSIZE` — the path MTU shrank under us: clamp the channel MTU
//!   below the refused frame's length, demote GSO (super-datagrams are
//!   the first casualties of a shrunken path), and report the frame
//!   [`TxError::TooBig`].
//! - anything else — counted; [`HARD_DEAD_STREAK`] *consecutive* fatal
//!   errors declare the channel dead.
//!
//! A dead channel fails every send fast with `LinkDown`, drains its
//! queue (frames counted `dropped_error`, buffers recycled), and
//! reports [`DatagramLink::link_dead`] — which the sender reactor
//! feeds to the failover driver, retiring the channel through the same
//! §liveness path a silent channel takes. No `io::Error` ever bubbles
//! out of the datapath.
//!
//! **Socket recreation.** Death is no longer terminal: the lifecycle
//! machinery (see [`crate::lifecycle`]) calls
//! [`revive`](DatagramLink::revive) after the cooldown, and the channel
//! rebuilds itself from its remembered [`ChannelSpec`] — a *fresh*
//! connected socket on the **same local port** (the peer's connected
//! socket filters by 5-tuple, so the port must survive the swap) with
//! a fresh [`BatchIo`]. Every acquired penalty is scoped to the socket
//! generation and resets with it: the refusal score, the ENOBUFS
//! backoff, the fatal streak, the EMSGSIZE MTU clamp, and the GSO
//! demotion all start over, to be re-proved or re-acquired against the
//! new path. The revived channel reports itself
//! [`LifecycleState::Probing`] until the first inbound frame arrives.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};

use stripe_link::{DatagramLink, TxError};

use crate::lifecycle::LifecycleState;
use crate::sys::{self, BatchIo};

/// Refusal score at which a channel stops believing `ECONNREFUSED` is
/// transient. Refusals add 2; inbound frames (proof the peer lives)
/// subtract 1; accepted sends subtract nothing — the kernel accepting
/// a datagram says nothing about the peer, and ICMP echoes are
/// rate-limited. A truly-gone peer crosses this within a handful of
/// echoes; a restarting peer's blip decays as soon as its traffic
/// resumes.
pub const REFUSED_DEAD_SCORE: u32 = 16;

/// Consecutive unclassified hard errors before the channel is dead.
pub const HARD_DEAD_STREAK: u32 = 8;

/// Flushes skipped after the kernel reports `ENOBUFS`.
pub const ENOBUFS_BACKOFF: u32 = 4;

const ECONNREFUSED: i32 = 111;
const ENOBUFS: i32 = 105;
const EMSGSIZE: i32 = 90;

/// What a hard send error means for the recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendFailure {
    /// `ECONNREFUSED`: ICMP echo from the peer — transient until proven
    /// persistent.
    Refused,
    /// `ENOBUFS`: kernel transmit buffers exhausted — back off.
    NoBufs,
    /// `EMSGSIZE`: the path MTU shrank — clamp and demote GSO.
    MsgSize,
    /// Anything else — fatal if it keeps happening.
    Fatal,
}

fn classify_errno(errno: Option<i32>) -> SendFailure {
    match errno {
        Some(ECONNREFUSED) => SendFailure::Refused,
        Some(ENOBUFS) => SendFailure::NoBufs,
        Some(EMSGSIZE) => SendFailure::MsgSize,
        _ => SendFailure::Fatal,
    }
}

fn classify_error(e: &io::Error) -> SendFailure {
    if e.raw_os_error().is_some() {
        classify_errno(e.raw_os_error())
    } else if e.kind() == io::ErrorKind::ConnectionRefused {
        SendFailure::Refused
    } else {
        SendFailure::Fatal
    }
}

/// Counters for one UDP channel, under the workspace snapshot convention
/// (`dropped_<cause>`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpChannelSnapshot {
    /// Frames handed to the kernel.
    pub sent_frames: u64,
    /// Bytes handed to the kernel.
    pub sent_bytes: u64,
    /// Frames received from the kernel.
    pub recv_frames: u64,
    /// Bytes received from the kernel.
    pub recv_bytes: u64,
    /// Frames parked in the local queue (deferred sends and kernel
    /// backpressure).
    pub queued: u64,
    /// Frames dropped because the local queue was full.
    pub dropped_queue: u64,
    /// Frames dropped on a hard socket error.
    pub dropped_error: u64,
    /// Send-direction syscalls (`sendmmsg`, or per-frame `send` on the
    /// fallback path, including calls that reported backpressure).
    pub send_syscalls: u64,
    /// Receive-direction syscalls (`recvmmsg`/`recv`, including the ones
    /// that found the queue empty).
    pub recv_syscalls: u64,
    /// Effective `SO_SNDBUF` in bytes (0 = unknown/unsupported).
    pub sndbuf: u64,
    /// Effective `SO_RCVBUF` in bytes (0 = unknown/unsupported).
    pub rcvbuf: u64,
    /// Kernel receive-buffer overflow estimate (`/proc/net/udp` drops),
    /// populated by [`UdpChannel::stats_sampled`] — 0 until sampled.
    pub dropped_rcvbuf: u64,
    /// `ECONNREFUSED` echoes absorbed as transient (frame re-queued).
    pub transient_refused: u64,
    /// `ENOBUFS` episodes that triggered a flush backoff.
    pub enobufs_backoffs: u64,
    /// `EMSGSIZE` recoveries: MTU clamped, GSO demoted.
    pub mtu_clamps: u64,
    /// The channel's own view of its lifecycle: `Live` while flowing,
    /// `Dead` once [`UdpChannel::is_dead`], `Probing` between a socket
    /// rebuild and the first inbound frame. (The cooldown/rejoining
    /// phases live in the reactor's [`crate::lifecycle`] machine — the
    /// channel itself only knows about its socket.)
    pub lifecycle: LifecycleState,
    /// Socket generation: 0 for the original socket, +1 per successful
    /// rebuild. Penalties (refusal score, MTU clamp, GSO demotion) are
    /// scoped to one generation.
    pub generation: u64,
    /// Completed revivals: rebuilt sockets that went on to hear the
    /// peer again (`Probing` → `Live`).
    pub rejoins: u64,
    /// Socket rebuild attempts (successful or not).
    pub revive_attempts: u64,
}

impl UdpChannelSnapshot {
    /// Average frames per send syscall — the batch-occupancy figure of
    /// merit (1.0 on the per-frame path, up to the batch cap here).
    pub fn send_batch_occupancy(&self) -> f64 {
        if self.send_syscalls == 0 {
            0.0
        } else {
            self.sent_frames as f64 / self.send_syscalls as f64
        }
    }

    /// Average frames per receive syscall (empty polls included).
    pub fn recv_batch_occupancy(&self) -> f64 {
        if self.recv_syscalls == 0 {
            0.0
        } else {
            self.recv_frames as f64 / self.recv_syscalls as f64
        }
    }

    /// Total syscalls divided by total frames moved, both directions —
    /// the number this PR exists to shrink.
    pub fn syscalls_per_packet(&self) -> f64 {
        let frames = self.sent_frames + self.recv_frames;
        if frames == 0 {
            0.0
        } else {
            (self.send_syscalls + self.recv_syscalls) as f64 / frames as f64
        }
    }
}

/// Everything needed to rebuild a channel's socket from scratch: the
/// bound local endpoint, the connected peer, and the builder knobs.
/// Captured at bind/connect time, consumed by
/// [`revive`](DatagramLink::revive) for its in-place socket swap. The
/// `mtu` here is the *configured* MTU — EMSGSIZE clamps apply to the
/// live channel only, so a rebuilt socket re-probes the path from the
/// configured value.
#[derive(Debug)]
pub struct ChannelSpec {
    local: SocketAddr,
    peer: Option<SocketAddr>,
    mtu: usize,
    batch: usize,
    sndbuf: Option<usize>,
    rcvbuf: Option<usize>,
    force_fallback: bool,
}

/// Builder for [`UdpChannel`]: MTU, queue depth, mmsg batch size, kernel
/// socket buffer sizes, and the portable-fallback override.
#[derive(Debug, Clone)]
pub struct UdpChannelBuilder {
    mtu: usize,
    queue_cap: usize,
    batch: usize,
    sndbuf: Option<usize>,
    rcvbuf: Option<usize>,
    force_fallback: bool,
}

impl UdpChannelBuilder {
    /// Start from an MTU; everything else has serviceable defaults
    /// (queue 4096 frames, batch [`sys::DEFAULT_BATCH`], kernel buffer
    /// sizes left to the system).
    pub fn new(mtu: usize) -> Self {
        Self {
            mtu,
            queue_cap: 1 << 12,
            batch: sys::DEFAULT_BATCH,
            sndbuf: None,
            rcvbuf: None,
            force_fallback: false,
        }
    }

    /// Bounded local send-queue depth, in frames.
    pub fn queue_cap(mut self, frames: usize) -> Self {
        self.queue_cap = frames;
        self
    }

    /// Frames per `mmsghdr` batch (send and receive).
    pub fn batch(mut self, frames: usize) -> Self {
        self.batch = frames.max(1);
        self
    }

    /// Request `SO_SNDBUF` bytes (the kernel may round; the effective
    /// value lands in the snapshot).
    pub fn sndbuf(mut self, bytes: usize) -> Self {
        self.sndbuf = Some(bytes);
        self
    }

    /// Request `SO_RCVBUF` bytes (see [`sndbuf`](Self::sndbuf)).
    pub fn rcvbuf(mut self, bytes: usize) -> Self {
        self.rcvbuf = Some(bytes);
        self
    }

    /// Pin this channel to the portable per-frame syscall path even
    /// where `sendmmsg`/`recvmmsg` are available (the process-wide
    /// `STRIPE_NET_FALLBACK=1` does the same for every channel).
    pub fn force_fallback(mut self, yes: bool) -> Self {
        self.force_fallback = yes;
        self
    }

    /// Bind an unconnected channel to an ephemeral loopback port.
    /// Connect it with [`UdpChannel::connect`] before use.
    pub fn bind_loopback(&self) -> io::Result<UdpChannel> {
        self.bind(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Bind an unconnected channel to `addr`.
    pub fn bind(&self, addr: SocketAddr) -> io::Result<UdpChannel> {
        let sock = UdpSocket::bind(addr)?;
        sock.set_nonblocking(true)?;
        let spec = ChannelSpec {
            // The *effective* local endpoint, so a rebuild after an
            // ephemeral-port bind re-claims the same port.
            local: sock.local_addr()?,
            peer: None,
            mtu: self.mtu,
            batch: self.batch,
            sndbuf: self.sndbuf,
            rcvbuf: self.rcvbuf,
            force_fallback: self.force_fallback,
        };
        let (sndbuf, rcvbuf) = sys::configure_buffers(&sock, self.sndbuf, self.rcvbuf);
        let stats = UdpChannelSnapshot {
            sndbuf,
            rcvbuf,
            ..Default::default()
        };
        let mut io = BatchIo::new(self.batch, self.force_fallback);
        if io.batched() {
            // GRO makes the kernel deliver coalesced segment trains; the
            // BatchIo splitter must know to take receives apart again.
            io.set_gro(sys::configure_offload(&sock));
        }
        // Pre-stock one batch's worth of full-capacity queue buffers:
        // deferred sends and markers draw on this pool at rates that
        // drift with the marker phase, and lazily growing it mid-run
        // would show up as steady-state allocations.
        let recycle = (0..self.batch)
            .map(|_| Vec::with_capacity(self.mtu))
            .collect();
        Ok(UdpChannel {
            sock,
            spec,
            mtu: self.mtu,
            queue: VecDeque::new(),
            recycle,
            queue_cap: self.queue_cap,
            io,
            stats,
            refused_score: 0,
            hard_streak: 0,
            backoff_flushes: 0,
            dead: false,
        })
    }

    /// A connected pair of loopback channels — one striped channel's two
    /// endpoints, for tests, examples and benches.
    pub fn pair(&self) -> io::Result<(UdpChannel, UdpChannel)> {
        let mut a = self.bind_loopback()?;
        let mut b = self.bind_loopback()?;
        a.connect(b.local_addr()?)?;
        b.connect(a.local_addr()?)?;
        Ok((a, b))
    }
}

/// One striped channel: a connected non-blocking UDP socket plus a
/// bounded, buffer-recycling send queue, batched through
/// [`BatchIo`].
#[derive(Debug)]
pub struct UdpChannel {
    sock: UdpSocket,
    /// How to rebuild the socket from scratch (see [`ChannelSpec`]).
    spec: ChannelSpec,
    mtu: usize,
    queue: VecDeque<Vec<u8>>,
    recycle: Vec<Vec<u8>>,
    queue_cap: usize,
    io: BatchIo,
    stats: UdpChannelSnapshot,
    /// Decaying `ECONNREFUSED` score (see [`REFUSED_DEAD_SCORE`]).
    refused_score: u32,
    /// Consecutive unclassified hard errors (see [`HARD_DEAD_STREAK`]).
    hard_streak: u32,
    /// Flushes left to skip after `ENOBUFS` (see [`ENOBUFS_BACKOFF`]).
    backoff_flushes: u32,
    /// Permanently failed: every send is `LinkDown`, the reactor
    /// surfaces it to failover.
    dead: bool,
}

impl UdpChannel {
    /// Start building a channel with non-default batch, queue, or kernel
    /// buffer settings.
    pub fn builder(mtu: usize) -> UdpChannelBuilder {
        UdpChannelBuilder::new(mtu)
    }

    /// Bind an unconnected channel to an ephemeral loopback port with
    /// default batching. Connect it with [`connect`](Self::connect)
    /// before use.
    pub fn bind_loopback(mtu: usize, queue_cap: usize) -> io::Result<Self> {
        UdpChannelBuilder::new(mtu)
            .queue_cap(queue_cap)
            .bind_loopback()
    }

    /// Connect to the peer endpoint: from here on, `send`/`recv` use this
    /// single 5-tuple and stray datagrams from other sources are filtered
    /// by the kernel. The peer is remembered so a socket rebuild
    /// ([`revive`](DatagramLink::revive)) can reconnect.
    pub fn connect(&mut self, peer: SocketAddr) -> io::Result<()> {
        self.sock.connect(peer)?;
        self.spec.peer = Some(peer);
        Ok(())
    }

    /// The local socket address (to tell the peer).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// A connected pair of loopback channels with default batching.
    pub fn pair(mtu: usize, queue_cap: usize) -> io::Result<(Self, Self)> {
        UdpChannelBuilder::new(mtu).queue_cap(queue_cap).pair()
    }

    /// Counters. `dropped_rcvbuf` holds the last sampled value (see
    /// [`stats_sampled`](Self::stats_sampled)).
    pub fn stats(&self) -> UdpChannelSnapshot {
        self.stats
    }

    /// Counters with a fresh [`kernel_drops`](Self::kernel_drops) sample
    /// in `dropped_rcvbuf`. Reads procfs — call at reporting time, not
    /// per packet.
    pub fn stats_sampled(&mut self) -> UdpChannelSnapshot {
        self.stats.dropped_rcvbuf = self.kernel_drops();
        self.stats
    }

    /// Estimate of datagrams the kernel dropped on this socket's receive
    /// buffer (see [`sys::socket_drops_port`]).
    pub fn kernel_drops(&self) -> u64 {
        match self.sock.local_addr() {
            Ok(addr) => sys::socket_drops_port(addr.port()),
            Err(_) => 0,
        }
    }

    /// Whether sends/receives go through the batched mmsg syscalls
    /// (false on the portable fallback).
    pub fn batched_syscalls(&self) -> bool {
        self.io.batched()
    }

    /// Whether equal-size frame runs go out as GSO super-datagrams
    /// (demoted at runtime if the kernel rejects `UDP_SEGMENT`).
    pub fn gso_offload(&self) -> bool {
        self.io.gso_active()
    }

    /// Whether this socket receives GRO-coalesced trains (split back
    /// into frames by the receive path).
    pub fn gro_offload(&self) -> bool {
        self.io.gro()
    }

    /// A recycled buffer, or a fresh one carrying full MTU capacity.
    /// Fresh buffers MUST be pre-sized: a zero-capacity vec entering the
    /// recycle cycle would grow under some later frame encode, breaking
    /// the zero-allocations-per-packet steady state.
    fn recycled_buf(&mut self) -> Vec<u8> {
        self.recycle
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.mtu))
    }

    /// Park a frame in the bounded local queue, copying into recycled
    /// storage.
    fn enqueue(&mut self, frame: &[u8]) -> Result<(), TxError> {
        if self.queue.len() >= self.queue_cap {
            self.stats.dropped_queue += 1;
            return Err(TxError::QueueFull);
        }
        let mut buf = self.recycled_buf();
        buf.clear();
        buf.extend_from_slice(frame);
        self.queue.push_back(buf);
        self.stats.queued += 1;
        Ok(())
    }

    /// Park a frame by *taking* its storage, handing a recycled buffer
    /// back in its place — the zero-copy twin of
    /// [`enqueue`](Self::enqueue).
    fn enqueue_owned(&mut self, frame: &mut Vec<u8>) -> Result<(), TxError> {
        if self.queue.len() >= self.queue_cap {
            self.stats.dropped_queue += 1;
            return Err(TxError::QueueFull);
        }
        let replacement = self.recycled_buf();
        self.queue.push_back(std::mem::replace(frame, replacement));
        self.stats.queued += 1;
        Ok(())
    }

    /// Whether the channel has declared itself permanently failed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The kernel accepted a send: fatal streaks reset. The refusal
    /// score is *not* forgiven here — acceptance proves the local
    /// syscall path, not the peer (see [`note_alive`](Self::note_alive)).
    fn note_success(&mut self) {
        self.hard_streak = 0;
    }

    /// Inbound traffic arrived: the peer demonstrably lives, so refusal
    /// evidence decays — and a rebuilt socket that was still probing has
    /// now heard the path end to end, completing its revival.
    fn note_alive(&mut self) {
        self.refused_score = self.refused_score.saturating_sub(1);
        if self.stats.lifecycle == LifecycleState::Probing {
            self.stats.lifecycle = LifecycleState::Live;
            self.stats.rejoins += 1;
        }
    }

    /// One `ECONNREFUSED` echo. Returns `true` while still transient.
    fn note_refused(&mut self) -> bool {
        self.stats.transient_refused += 1;
        self.refused_score += 2;
        if self.refused_score >= REFUSED_DEAD_SCORE {
            self.declare_dead();
        }
        !self.dead
    }

    fn note_nobufs(&mut self) {
        self.stats.enobufs_backoffs += 1;
        self.backoff_flushes = ENOBUFS_BACKOFF;
    }

    /// `EMSGSIZE` for a frame of `frame_len` bytes: the path takes less
    /// than we believed, so believe the evidence.
    fn note_msgsize(&mut self, frame_len: usize) {
        self.stats.mtu_clamps += 1;
        let clamped = frame_len.saturating_sub(1).max(1);
        if clamped < self.mtu {
            self.mtu = clamped;
        }
        self.io.demote_gso();
    }

    /// One unclassified hard error; enough in a row kill the channel.
    fn note_fatal(&mut self) {
        self.stats.dropped_error += 1;
        self.hard_streak += 1;
        if self.hard_streak >= HARD_DEAD_STREAK {
            self.declare_dead();
        }
    }

    /// The socket has failed: fail sends fast and hand the queued
    /// frames' storage back to the recycle pool (counted, never
    /// silently). Not a point of no return since the lifecycle work:
    /// [`revive`](DatagramLink::revive) rebuilds the socket after the
    /// reactor's cooldown.
    fn declare_dead(&mut self) {
        if self.dead {
            return;
        }
        self.dead = true;
        self.stats.lifecycle = LifecycleState::Dead;
        while let Some(buf) = self.queue.pop_front() {
            self.stats.dropped_error += 1;
            self.recycle.push(buf);
        }
    }

    /// Kill the socket from outside, exactly as a fatal-errno streak
    /// would from inside: sends fail fast, the queue drains into the
    /// recycle pool, [`DatagramLink::link_dead`] raises. The chaos/ops
    /// hook the flap soak uses to force real die→rejoin cycles (the
    /// in-crate tests use the same path via `force_dead`).
    pub fn inject_socket_death(&mut self) {
        self.declare_dead();
    }

    /// Swap in a fresh connected socket on the same local port and
    /// reset every generation-scoped penalty: refusal score, fatal
    /// streak, ENOBUFS backoff, the EMSGSIZE MTU clamp, and (via the
    /// fresh [`BatchIo`]) the GSO demotion. The channel comes back in
    /// [`LifecycleState::Probing`] — alive for I/O but unproven until
    /// the first inbound frame. Reviving a channel that never died is
    /// a no-op. On error the channel stays dead (the old socket is
    /// already gone; the lifecycle backs off and retries).
    pub fn revive_socket(&mut self) -> io::Result<()> {
        if !self.dead {
            return Ok(());
        }
        self.stats.revive_attempts += 1;
        // Free our local port *first*: as long as the old (broken)
        // socket lives, rebinding its port fails. Park a throwaway
        // unbound-equivalent socket in its place so `self.sock` stays
        // valid even if the rebind fails.
        let dummy = UdpSocket::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        drop(std::mem::replace(&mut self.sock, dummy));
        let fresh = UdpSocket::bind(self.spec.local)?;
        fresh.set_nonblocking(true)?;
        let (sndbuf, rcvbuf) = sys::configure_buffers(&fresh, self.spec.sndbuf, self.spec.rcvbuf);
        self.stats.sndbuf = sndbuf;
        self.stats.rcvbuf = rcvbuf;
        // A fresh BatchIo starts with GSO enabled again: offload
        // demotion was evidence about the *old* path.
        let mut io = BatchIo::new(self.spec.batch, self.spec.force_fallback);
        if io.batched() {
            io.set_gro(sys::configure_offload(&fresh));
        }
        if let Some(peer) = self.spec.peer {
            fresh.connect(peer)?;
        }
        self.sock = fresh;
        self.io = io;
        self.mtu = self.spec.mtu;
        self.refused_score = 0;
        self.hard_streak = 0;
        self.backoff_flushes = 0;
        self.dead = false;
        self.stats.generation += 1;
        self.stats.lifecycle = LifecycleState::Probing;
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn force_dead(&mut self) {
        self.declare_dead();
    }

    #[cfg(test)]
    pub(crate) fn force_backoff(&mut self) {
        self.note_nobufs();
    }

    #[cfg(test)]
    pub(crate) fn force_refused(&mut self) {
        self.note_refused();
    }

    #[cfg(test)]
    pub(crate) fn refused_score(&self) -> u32 {
        self.refused_score
    }

    /// Offer one frame to the kernel, assuming the local queue is empty
    /// (callers preserve FIFO by checking first).
    fn try_send(&mut self, frame: &[u8]) -> Result<(), TxError> {
        self.stats.send_syscalls += 1;
        match self.sock.send(frame) {
            Ok(_) => {
                self.stats.sent_frames += 1;
                self.stats.sent_bytes += frame.len() as u64;
                self.note_success();
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.enqueue(frame),
            Err(e) => match classify_error(&e) {
                SendFailure::Refused => {
                    if self.note_refused() {
                        // Transient: this datagram didn't go out (the
                        // send call was consumed reporting the echo) —
                        // park it for the next flush.
                        self.enqueue(frame)
                    } else {
                        Err(TxError::LinkDown)
                    }
                }
                SendFailure::NoBufs => {
                    self.note_nobufs();
                    self.enqueue(frame)
                }
                SendFailure::MsgSize => {
                    self.note_msgsize(frame.len());
                    Err(TxError::TooBig)
                }
                SendFailure::Fatal => {
                    self.note_fatal();
                    Err(TxError::LinkDown)
                }
            },
        }
    }
}

impl DatagramLink for UdpChannel {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        if self.dead {
            return Err(TxError::LinkDown);
        }
        if frame.len() > self.mtu {
            return Err(TxError::TooBig);
        }
        self.flush();
        if self.dead {
            // The flush's own errors may have crossed the threshold.
            return Err(TxError::LinkDown);
        }
        if !self.queue.is_empty() {
            // Earlier frames are still parked: keep FIFO by joining them.
            return self.enqueue(frame);
        }
        self.try_send(frame)
    }

    fn send_frame_deferred(&mut self, frame: &[u8]) -> Result<(), TxError> {
        // Park behind anything already deferred — the caller's next
        // flush submits the whole accumulated burst as mmsg batches.
        // Copying here is fine: this path carries low-rate control
        // frames (markers), not the bulk data stream.
        if self.dead {
            return Err(TxError::LinkDown);
        }
        if frame.len() > self.mtu {
            return Err(TxError::TooBig);
        }
        self.enqueue(frame)
    }

    fn send_run(&mut self, frames: &[Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        // Eager batch: one backlog flush per run, then whole-run mmsg
        // submissions. Outcomes match per-frame send_frame calls.
        self.flush();
        out.reserve(frames.len());
        let n = frames.len();
        let mut i = 0;
        while i < n {
            if self.dead {
                out.push(Err(TxError::LinkDown));
                i += 1;
                continue;
            }
            if frames[i].len() > self.mtu {
                out.push(Err(TxError::TooBig));
                i += 1;
                continue;
            }
            if !self.queue.is_empty() {
                // Backpressured mid-run: keep FIFO by parking the rest.
                out.push(self.enqueue(&frames[i]));
                i += 1;
                continue;
            }
            // Maximal sub-run of sendable frames starting at i.
            let mut j = i + 1;
            while j < n && frames[j].len() <= self.mtu {
                j += 1;
            }
            let rep = self.io.send_frames(&self.sock, &frames[i..j]);
            self.stats.send_syscalls += rep.syscalls;
            for f in &frames[i..i + rep.sent] {
                self.stats.sent_frames += 1;
                self.stats.sent_bytes += f.len() as u64;
                out.push(Ok(()));
            }
            if rep.sent > 0 {
                self.note_success();
            }
            i += rep.sent;
            if i < j {
                if rep.hard_error {
                    match classify_errno(rep.errno) {
                        SendFailure::Refused => {
                            let r = if self.note_refused() {
                                self.enqueue(&frames[i])
                            } else {
                                Err(TxError::LinkDown)
                            };
                            out.push(r);
                        }
                        SendFailure::NoBufs => {
                            self.note_nobufs();
                            // Park this frame; the loop's queue check
                            // funnels the rest of the run behind it.
                            out.push(self.enqueue(&frames[i]));
                        }
                        SendFailure::MsgSize => {
                            self.note_msgsize(frames[i].len());
                            out.push(Err(TxError::TooBig));
                        }
                        SendFailure::Fatal => {
                            // This frame will never leave; subsequent
                            // frames retry the kernel, matching
                            // per-frame semantics.
                            self.note_fatal();
                            out.push(Err(TxError::LinkDown));
                        }
                    }
                    i += 1;
                } else {
                    // WouldBlock: park this frame; the loop's queue check
                    // funnels the rest of the run behind it.
                    out.push(self.enqueue(&frames[i]));
                    i += 1;
                }
            }
        }
    }

    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        // Deferred batch: take every frame's storage into the local
        // queue and let the caller's end-of-burst flush submit the whole
        // accumulated queue as mmsg batches. This is what keeps batch
        // occupancy at burst size rather than SRR run length.
        out.reserve(frames.len());
        for frame in frames.iter_mut() {
            let r = if self.dead {
                Err(TxError::LinkDown)
            } else if frame.len() > self.mtu {
                Err(TxError::TooBig)
            } else {
                self.enqueue_owned(frame)
            };
            out.push(r);
        }
    }

    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        // Must go through the GRO-aware splitter: on an offloaded socket
        // a raw recv would hand back a whole coalesced train as one blob.
        let (got, syscalls) = self.io.recv_one(&self.sock, buf);
        self.stats.recv_syscalls += syscalls;
        if let Some(n) = got {
            self.stats.recv_frames += 1;
            self.stats.recv_bytes += n as u64;
            self.note_alive();
        }
        got
    }

    fn recv_run(&mut self, bufs: &mut [Vec<u8>], lens: &mut [usize]) -> usize {
        let rep = self.io.recv_frames(&self.sock, bufs, lens);
        self.stats.recv_syscalls += rep.syscalls;
        self.stats.recv_frames += rep.received as u64;
        for &len in &lens[..rep.received] {
            self.stats.recv_bytes += len as u64;
        }
        if rep.received > 0 {
            self.note_alive();
        }
        rep.received
    }

    fn mtu(&self) -> usize {
        self.mtu
    }

    fn coalesce_hint(&self) -> bool {
        self.gso_offload()
    }

    fn flush(&mut self) -> usize {
        if self.dead {
            return 0;
        }
        if self.backoff_flushes > 0 {
            // ENOBUFS grace: give the kernel a few caller cycles to
            // drain transmit memory instead of re-hitting the syscall.
            self.backoff_flushes -= 1;
            return 0;
        }
        let mut drained = 0;
        loop {
            let (a, b) = self.queue.as_slices();
            let slice = if a.is_empty() { b } else { a };
            if slice.is_empty() {
                break;
            }
            let slice_len = slice.len();
            let rep = self.io.send_frames(&self.sock, slice);
            self.stats.send_syscalls += rep.syscalls;
            for _ in 0..rep.sent {
                let buf = self.queue.pop_front().expect("sent frames are queued");
                self.stats.sent_frames += 1;
                self.stats.sent_bytes += buf.len() as u64;
                self.recycle.push(buf);
                drained += 1;
            }
            if rep.sent > 0 {
                self.note_success();
            }
            if rep.hard_error {
                match classify_errno(rep.errno) {
                    SendFailure::Refused => {
                        // Transient: the head frame stays parked for the
                        // next flush (persistent refusal kills the
                        // channel and drains the queue via declare_dead).
                        self.note_refused();
                        break;
                    }
                    SendFailure::NoBufs => {
                        self.note_nobufs();
                        break;
                    }
                    SendFailure::MsgSize => {
                        // The head frame outgrew the path: it will never
                        // leave. Clamp, drop it, keep draining — the
                        // frames behind it may well fit.
                        let buf = self.queue.pop_front().expect("head frame exists");
                        self.note_msgsize(buf.len());
                        self.stats.dropped_error += 1;
                        self.recycle.push(buf);
                        continue;
                    }
                    SendFailure::Fatal => {
                        // The head frame will never leave; drop it
                        // rather than wedge the queue, then keep
                        // draining (unless the streak killed us).
                        let buf = self.queue.pop_front().expect("head frame exists");
                        self.note_fatal();
                        self.recycle.push(buf);
                        if self.dead {
                            break;
                        }
                        continue;
                    }
                }
            }
            if rep.sent < slice_len {
                break; // kernel backpressure: retry on the next flush
            }
        }
        drained
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn link_dead(&self) -> bool {
        self.dead
    }

    fn revive(&mut self) -> bool {
        self.revive_socket().is_ok()
    }

    fn tx_evidence(&self) -> Option<stripe_link::TxEvidence> {
        Some(stripe_link::TxEvidence {
            frames: self.stats.sent_frames,
            bytes: self.stats.sent_bytes,
            dropped: self.stats.dropped_queue + self.stats.dropped_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_moves_frames_both_ways() {
        let (mut a, mut b) = UdpChannel::pair(1500, 8).unwrap();
        a.send_frame(&[1, 2, 3]).unwrap();
        b.send_frame(&[9]).unwrap();
        let mut buf = [0u8; 1500];
        // Loopback delivery is immediate but poll to be safe.
        let n = recv_poll(&mut b, &mut buf).expect("frame a->b");
        assert_eq!(&buf[..n], &[1, 2, 3]);
        let n = recv_poll(&mut a, &mut buf).expect("frame b->a");
        assert_eq!(&buf[..n], &[9]);
        assert_eq!(a.stats().sent_frames, 1);
        assert_eq!(a.stats().recv_frames, 1);
    }

    #[test]
    fn frames_arrive_in_order_on_loopback() {
        let (mut a, mut b) = UdpChannel::pair(256, 8).unwrap();
        for i in 0..32u8 {
            a.send_frame(&[i]).unwrap();
        }
        let mut buf = [0u8; 256];
        for want in 0..32u8 {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (1, want));
        }
    }

    #[test]
    fn oversized_frame_rejected_before_the_kernel() {
        let (mut a, _b) = UdpChannel::pair(16, 4).unwrap();
        assert_eq!(a.send_frame(&[0u8; 17]), Err(TxError::TooBig));
        assert_eq!(a.stats().sent_frames, 0);
    }

    #[test]
    fn send_run_outcomes_match_per_frame() {
        let (mut a, mut b) = UdpChannel::pair(64, 4).unwrap();
        let frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run(&frames, &mut out);
        assert_eq!(out, vec![Ok(()), Ok(()), Ok(()), Ok(())]);
        let mut buf = [0u8; 64];
        for i in 0..4u8 {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (8, i));
        }
    }

    #[test]
    fn send_run_batches_syscalls_when_mmsg_is_on() {
        let (mut a, _b) = UdpChannel::builder(64).batch(8).pair().unwrap();
        let frames: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run(&frames, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
        let s = a.stats();
        assert_eq!(s.sent_frames, 16);
        if a.gso_offload() {
            assert_eq!(s.send_syscalls, 1, "equal-size run rides one GSO send");
            assert_eq!(s.send_batch_occupancy(), 16.0);
        } else if a.batched_syscalls() {
            assert_eq!(s.send_syscalls, 2, "16 frames / batch 8 = 2 syscalls");
            assert_eq!(s.send_batch_occupancy(), 8.0);
        } else {
            assert_eq!(s.send_syscalls, 16);
        }
    }

    #[test]
    fn send_run_skips_oversized_mid_run() {
        let (mut a, mut b) = UdpChannel::pair(8, 4).unwrap();
        let frames: Vec<Vec<u8>> = vec![vec![1], vec![0; 9], vec![2]];
        let mut out = Vec::new();
        a.send_run(&frames, &mut out);
        assert_eq!(out, vec![Ok(()), Err(TxError::TooBig), Ok(())]);
        let mut buf = [0u8; 8];
        for want in [1u8, 2] {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (1, want));
        }
    }

    #[test]
    fn send_run_owned_parks_until_flush() {
        let (mut a, mut b) = UdpChannel::pair(64, 8).unwrap();
        let mut frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run_owned(&mut frames, &mut out);
        assert_eq!(out, vec![Ok(()), Ok(()), Ok(()), Ok(())]);
        assert_eq!(a.backlog(), 4, "owned sends defer to flush");
        assert_eq!(a.stats().sent_frames, 0);
        assert_eq!(a.flush(), 4);
        let s = a.stats();
        assert_eq!(s.sent_frames, 4);
        if a.batched_syscalls() {
            assert_eq!(s.send_syscalls, 1, "whole backlog in one sendmmsg");
        }
        let mut buf = [0u8; 64];
        for i in 0..4u8 {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (8, i));
        }
    }

    #[test]
    fn send_run_owned_respects_queue_bound() {
        let (mut a, _b) = UdpChannel::pair(64, 2).unwrap();
        let mut frames: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run_owned(&mut frames, &mut out);
        assert_eq!(out, vec![Ok(()), Ok(()), Err(TxError::QueueFull)]);
        assert_eq!(frames[2], vec![2; 8], "rejected frame left untouched");
        assert_eq!(a.stats().dropped_queue, 1);
    }

    #[test]
    fn recv_run_drains_in_batches() {
        let (mut a, mut b) = UdpChannel::builder(64).batch(4).pair().unwrap();
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 4]).collect();
        let mut out = Vec::new();
        a.send_run(&frames, &mut out);
        let mut bufs: Vec<Vec<u8>> = (0..16).map(|_| vec![0u8; 64]).collect();
        let mut lens = [0usize; 16];
        let mut got = 0;
        for _ in 0..1000 {
            got += b.recv_run(bufs[got..].as_mut(), &mut lens[got..]);
            if got == 10 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got, 10);
        for i in 0..10 {
            assert_eq!(lens[i], 4);
            assert_eq!(bufs[i][0], i as u8);
        }
        let s = b.stats();
        assert_eq!(s.recv_frames, 10);
        assert!(s.recv_syscalls > 0);
    }

    #[test]
    fn builder_reports_effective_kernel_buffers() {
        let (a, _b) = UdpChannel::builder(1500)
            .sndbuf(1 << 16)
            .rcvbuf(1 << 16)
            .pair()
            .unwrap();
        let s = a.stats();
        if crate::sys::mmsg_compiled() {
            assert!(s.sndbuf >= 1 << 16);
            assert!(s.rcvbuf >= 1 << 16);
        } else {
            assert_eq!((s.sndbuf, s.rcvbuf), (0, 0));
        }
        assert_eq!(a.stats().dropped_rcvbuf, 0, "unsampled");
    }

    #[test]
    fn forced_fallback_channel_still_delivers() {
        let (mut a, mut b) = UdpChannel::builder(64).force_fallback(true).pair().unwrap();
        assert!(!a.batched_syscalls());
        let frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let mut out = Vec::new();
        a.send_run(&frames, &mut out);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(a.stats().send_syscalls, 4, "per-frame syscalls");
        let mut buf = [0u8; 64];
        for i in 0..4u8 {
            let n = recv_poll(&mut b, &mut buf).expect("frame");
            assert_eq!((n, buf[0]), (8, i));
        }
    }

    #[test]
    fn refused_peer_ends_in_link_dead_never_a_panic() {
        let (mut a, b) = UdpChannel::pair(256, 64).unwrap();
        drop(b); // peer gone: sends start echoing ICMP port-unreachable
        for i in 0..10_000u32 {
            let _ = a.send_frame(&[i as u8; 32]);
            let _ = a.flush();
            if a.is_dead() {
                break;
            }
        }
        let s = a.stats();
        if s.transient_refused > 0 {
            // The ICMP echo reached us (Linux loopback): the decaying
            // score must have crossed the line and retired the channel.
            assert!(a.is_dead(), "persistent refusal must kill: {s:?}");
            assert!(a.link_dead());
            assert_eq!(a.send_frame(&[1, 2, 3]), Err(TxError::LinkDown));
            assert_eq!(a.backlog(), 0, "death drains the queue");
        }
    }

    #[test]
    fn emsgsize_clamps_mtu_and_reports_too_big() {
        // Claim an MTU beyond the 65,507-byte UDP maximum: the kernel
        // answers EMSGSIZE and the channel must adapt, not die.
        let (mut a, _b) = UdpChannel::builder(70_000).queue_cap(8).pair().unwrap();
        let huge = vec![0u8; 66_000];
        let r = a.send_frame(&huge);
        let s = a.stats();
        if s.mtu_clamps > 0 {
            assert_eq!(r, Err(TxError::TooBig));
            assert!(a.mtu() < 66_000, "mtu clamped under the refused frame");
            assert!(!a.is_dead(), "EMSGSIZE is recoverable, not fatal");
            assert!(!a.gso_offload(), "GSO demoted with the clamp");
            // Frames within the clamped MTU still flow.
            a.send_frame(&[7u8; 64]).unwrap();
            assert_eq!(a.stats().sent_frames, 1);
        }
    }

    #[test]
    fn enobufs_backoff_skips_flushes_then_resumes() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        a.send_frame_deferred(&[9u8; 16]).unwrap();
        a.force_backoff();
        for _ in 0..ENOBUFS_BACKOFF {
            assert_eq!(a.flush(), 0, "backoff must skip the syscall");
            assert_eq!(a.backlog(), 1);
        }
        assert_eq!(a.flush(), 1, "backoff expired: the frame goes out");
        let mut buf = [0u8; 256];
        assert_eq!(recv_poll(&mut b, &mut buf), Some(16));
        assert_eq!(a.stats().enobufs_backoffs, 1);
    }

    #[test]
    fn dead_channel_fails_fast_and_drains_its_queue() {
        let (mut a, _b) = UdpChannel::pair(256, 64).unwrap();
        a.send_frame_deferred(&[1u8; 8]).unwrap();
        a.send_frame_deferred(&[2u8; 8]).unwrap();
        assert_eq!(a.backlog(), 2);
        a.force_dead();
        assert!(a.is_dead() && a.link_dead());
        assert_eq!(a.backlog(), 0, "queued frames drained into recycle");
        assert_eq!(a.send_frame(&[3u8; 8]), Err(TxError::LinkDown));
        assert_eq!(a.send_frame_deferred(&[3u8; 8]), Err(TxError::LinkDown));
        let mut frames = vec![vec![4u8; 8]];
        let mut out = Vec::new();
        a.send_run(&frames, &mut out);
        assert_eq!(out, vec![Err(TxError::LinkDown)]);
        out.clear();
        a.send_run_owned(&mut frames, &mut out);
        assert_eq!(out, vec![Err(TxError::LinkDown)]);
        assert_eq!(frames[0], vec![4u8; 8], "storage left untouched");
        assert_eq!(a.flush(), 0);
        let s = a.stats();
        assert_eq!(s.dropped_error, 2, "both drained frames counted");
    }

    #[test]
    fn refusal_score_decays_on_inbound_not_on_sends() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        a.force_refused();
        a.force_refused();
        assert_eq!(a.refused_score(), 4);
        // Kernel-accepted sends prove nothing about the peer: no decay.
        // (ICMP refusal echoes are rate-limited, so under sustained
        // refusal accepted sends vastly outnumber observed errors —
        // letting them forgive the score would keep a dead channel
        // alive forever.)
        for i in 0..8u8 {
            a.send_frame(&[i; 16]).unwrap();
        }
        assert_eq!(a.refused_score(), 4);
        assert!(!a.is_dead());
        // Inbound traffic is proof of life: the score decays.
        b.send_frame(&[9u8; 16]).unwrap();
        let mut buf = [0u8; 256];
        assert!(recv_poll(&mut a, &mut buf).is_some());
        assert_eq!(a.refused_score(), 3);
    }

    #[test]
    fn revive_rebuilds_the_socket_on_the_same_port() {
        let (mut a, mut b) = UdpChannel::pair(256, 64).unwrap();
        let port = a.local_addr().unwrap().port();
        a.send_frame_deferred(&[1u8; 8]).unwrap();
        a.force_dead();
        assert!(a.link_dead());
        assert_eq!(a.stats().lifecycle, LifecycleState::Dead);

        assert!(a.revive(), "loopback rebind must succeed");
        assert!(!a.link_dead());
        assert_eq!(a.local_addr().unwrap().port(), port, "same 5-tuple");
        let s = a.stats();
        assert_eq!(s.lifecycle, LifecycleState::Probing);
        assert_eq!(s.generation, 1);
        assert_eq!(s.revive_attempts, 1);
        assert_eq!(s.rejoins, 0, "unproven until the peer is heard");

        // Traffic flows both ways on the rebuilt socket, and the first
        // inbound frame completes the revival.
        a.send_frame(&[7u8; 8]).unwrap();
        let mut buf = [0u8; 256];
        assert_eq!(recv_poll(&mut b, &mut buf), Some(8));
        b.send_frame(&[9u8; 8]).unwrap();
        assert_eq!(recv_poll(&mut a, &mut buf), Some(8));
        let s = a.stats();
        assert_eq!(s.lifecycle, LifecycleState::Live);
        assert_eq!(s.rejoins, 1);
    }

    #[test]
    fn revive_resets_generation_scoped_penalties() {
        let (mut a, _b) = UdpChannel::pair(2048, 64).unwrap();
        let base_gso = a.gso_offload();
        // Acquire every penalty the old socket can carry.
        a.force_refused();
        a.force_backoff();
        a.note_msgsize(1000); // clamps mtu to 999, demotes GSO
        assert_eq!(a.mtu(), 999);
        assert!(!a.gso_offload());
        a.force_dead();

        assert!(a.revive());
        assert_eq!(a.refused_score(), 0, "refusal score is per generation");
        assert_eq!(a.mtu(), 2048, "EMSGSIZE clamp is per generation");
        assert_eq!(
            a.gso_offload(),
            base_gso,
            "GSO demotion is per generation: the fresh socket re-probes"
        );
        // The backoff reset is observable through flush not skipping.
        a.send_frame_deferred(&[3u8; 16]).unwrap();
        assert_eq!(a.flush(), 1, "no inherited ENOBUFS backoff");
    }

    #[test]
    fn reviving_a_live_channel_is_a_noop() {
        let (mut a, _b) = UdpChannel::pair(256, 8).unwrap();
        assert!(a.revive());
        let s = a.stats();
        assert_eq!((s.generation, s.revive_attempts), (0, 0));
        assert_eq!(s.lifecycle, LifecycleState::Live);
    }

    /// Loopback UDP can reorder across *sockets* but a single connected
    /// socket pair is FIFO; receives may simply lag the send by a
    /// scheduling quantum, so tests poll briefly.
    fn recv_poll(ch: &mut UdpChannel, buf: &mut [u8]) -> Option<usize> {
        for _ in 0..1000 {
            if let Some(n) = ch.recv_frame(buf) {
                return Some(n);
            }
            std::thread::yield_now();
        }
        None
    }
}
