//! The traced run: spans around every benchmark call into a layer and
//! around every link call nested inside one, kept in preallocated memory
//! and folded into per-layer totals between measured windows.
//!
//! A span records its name, start, end, parent and burst id. A layer's
//! *self* time is its spans' durations minus the part their children
//! cover ([`self_times`]). Per-packet calls such as `enqueue` are spanned
//! once per burst loop, never per packet.
//!
//! The recorder is thread-local: the benchmark drives both ends from one
//! thread, and [`TracedLink`] reaches it from inside the server's and
//! demux's own calls without the program knowing it is traced.

use std::cell::RefCell;

use stripe_link::{DatagramLink, TxError, TxEvidence};

use crate::now_ns;

/// Every span name, one per layer boundary the benchmark crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// The benchmark's own payload generation, verification, sampling.
    Gen,
    /// The benchmark waiting for the next packet to fall due.
    Idle,
    /// `NetStripedPath::send_batch` (and backlog `flush`).
    PathSend,
    /// `NetLogicalReceiver::sweep`.
    RecvSweep,
    /// `NetLogicalReceiver::poll_into` and `recycle`.
    RecvPoll,
    /// A burst loop of `StripeServer::enqueue` calls.
    ServerEnqueue,
    /// `StripeServer::pump_into` (and backlog `flush`).
    ServerPump,
    /// `FlowDemux::sweep`.
    DemuxSweep,
    /// A loop of `FlowDemux::poll_flow_into` and `recycle` calls.
    DemuxPoll,
    /// A link's send-side call: `send_frame*`, `send_run*`, `flush`.
    UdpTx,
    /// A link's receive-side call: `recv_frame`, `recv_run`.
    UdpRx,
}

/// Number of [`Name`]s.
pub const NAMES: usize = 11;

/// Parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which boundary was crossed.
    pub name: Name,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// The benchmark iteration (burst) that caused it.
    pub burst: u32,
    /// Start, in [`now_ns`] nanoseconds.
    pub start: u64,
    /// End, in [`now_ns`] nanoseconds (`start` until closed).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children of one parent never overlap — one
/// thread opens and closes them in order — so each child's overlap with
/// its parent's interval is subtracted once. `out` must be as long as
/// `spans`; parents precede their children in the buffer.
pub fn self_times(spans: &[Span], out: &mut [u64]) {
    assert_eq!(spans.len(), out.len(), "one output slot per span");
    for (o, s) in out.iter_mut().zip(spans) {
        *o = s.duration();
    }
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let covered = s.end.min(p.end).saturating_sub(s.start.max(p.start));
        let slot = &mut out[s.parent as usize];
        *slot = slot.saturating_sub(covered);
    }
}

/// Per-name totals folded from the span buffer, accumulated over the
/// windows of one traced phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fold {
    /// Sum of span durations, per [`Name`].
    pub total_ns: [u64; NAMES],
    /// Sum of span self times, per [`Name`].
    pub self_ns: [u64; NAMES],
    /// Sum of top-level span durations: the traced wall time the spans
    /// explain.
    pub top_ns: u64,
    /// Spans refused because the buffer was full (should stay 0).
    pub overflow: u64,
}

impl Fold {
    /// Fold `spans` in, using `scratch` (as long as `spans`) for their
    /// self times.
    pub fn add(&mut self, spans: &[Span], scratch: &mut [u64]) {
        self_times(spans, scratch);
        for (s, &own) in spans.iter().zip(scratch.iter()) {
            let i = s.name as usize;
            self.total_ns[i] += s.duration();
            self.self_ns[i] += own;
            if s.parent == NO_PARENT {
                self.top_ns += s.duration();
            }
        }
    }

    /// Total duration of `name`'s spans.
    pub fn total(&self, name: Name) -> u64 {
        self.total_ns[name as usize]
    }

    /// Self time of `name`'s spans.
    pub fn own(&self, name: Name) -> u64 {
        self.self_ns[name as usize]
    }
}

/// Token returned by [`enter`] for a span that was not recorded.
const NOT_RECORDED: u32 = u32::MAX;

struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    scratch: Vec<u64>,
    burst: u32,
    overflow: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            scratch: Vec::new(),
            burst: 0,
            overflow: 0,
        })
    };
}

/// Preallocate room for `capacity` spans and start recording. Allocates:
/// call before a measured phase, never inside one.
pub fn arm(capacity: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans = Vec::with_capacity(capacity);
        r.scratch = vec![0; capacity];
        r.open = Vec::with_capacity(64);
        r.burst = 0;
        r.overflow = 0;
        r.on = true;
    });
}

/// Stop recording (spans already in the buffer stay until [`fold_into`]).
pub fn disarm() {
    REC.with(|r| r.borrow_mut().on = false);
}

/// Open a span named `name` under the innermost open span.
#[inline]
pub fn enter(name: Name) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return NOT_RECORDED;
        }
        if r.spans.len() == r.spans.capacity() {
            r.overflow += 1;
            return NOT_RECORDED;
        }
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let burst = r.burst;
        let start = now_ns();
        r.spans.push(Span {
            name,
            parent,
            burst,
            start,
            end: start,
        });
        if r.open.len() < r.open.capacity() {
            r.open.push(idx);
        }
        idx
    })
}

/// Close the span `enter` returned.
#[inline]
pub fn exit(token: u32) {
    if token == NOT_RECORDED {
        return;
    }
    let end = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[token as usize].end = end;
        if r.open.last() == Some(&token) {
            r.open.pop();
        }
    });
}

/// Tag subsequent spans with a new burst id.
#[inline]
pub fn next_burst() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.burst = r.burst.wrapping_add(1);
    });
}

/// Whether the buffer is within `margin` spans of full — the measured
/// window ends early rather than drop spans.
#[inline]
pub fn near_full(margin: usize) -> bool {
    REC.with(|r| {
        let r = r.borrow();
        r.on && r.spans.len() + margin >= r.spans.capacity()
    })
}

/// Fold every recorded span into `fold` and empty the buffer. Allocation
/// free; runs between measured windows.
pub fn fold_into(fold: &mut Fold) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = &mut *r;
        debug_assert!(r.open.is_empty(), "fold with spans still open");
        let n = r.spans.len();
        fold.add(&r.spans, &mut r.scratch[..n]);
        fold.overflow += r.overflow;
        r.overflow = 0;
        r.spans.clear();
    });
}

/// Run `$body` inside a span named `$name` when `$on` (a const generic
/// in the workloads, so the bare run compiles the span away).
#[macro_export]
macro_rules! span {
    ($on:expr, $name:expr, $body:expr) => {{
        if $on {
            let tok = $crate::trace::enter($name);
            let out = $body;
            $crate::trace::exit(tok);
            out
        } else {
            $body
        }
    }};
}

/// Per-link call counts a [`TracedLink`] keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCalls {
    /// `send_run`/`send_run_owned` calls (runs offered).
    pub tx_runs: u64,
    /// Receive calls.
    pub rx_calls: u64,
    /// Receive calls that found nothing.
    pub rx_empty: u64,
}

/// A [`DatagramLink`] that delegates every method to `inner`, spanning
/// the send-side calls as `udp.tx` and the receive-side calls as
/// `udp.rx`. Wrapped around each `UdpChannel` in the traced run, it
/// times the `udp` layer from inside the server's and demux's calls.
#[derive(Debug)]
pub struct TracedLink<L> {
    inner: L,
    calls: LinkCalls,
}

impl<L> TracedLink<L> {
    /// Wrap `inner`.
    pub fn new(inner: L) -> Self {
        Self {
            inner,
            calls: LinkCalls::default(),
        }
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Mutable access to the wrapped link.
    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }

    /// Calls counted so far.
    pub fn calls(&self) -> LinkCalls {
        self.calls
    }
}

impl<L: DatagramLink> DatagramLink for TracedLink<L> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
        span!(true, Name::UdpTx, self.inner.send_frame(frame))
    }

    fn send_frame_deferred(&mut self, frame: &[u8]) -> Result<(), TxError> {
        span!(true, Name::UdpTx, self.inner.send_frame_deferred(frame))
    }

    fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
        let got = span!(true, Name::UdpRx, self.inner.recv_frame(buf));
        self.calls.rx_calls += 1;
        self.calls.rx_empty += u64::from(got.is_none());
        got
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }

    fn send_run(&mut self, frames: &[Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        self.calls.tx_runs += 1;
        span!(true, Name::UdpTx, self.inner.send_run(frames, out))
    }

    fn send_run_owned(&mut self, frames: &mut [Vec<u8>], out: &mut Vec<Result<(), TxError>>) {
        self.calls.tx_runs += 1;
        span!(true, Name::UdpTx, self.inner.send_run_owned(frames, out))
    }

    fn recv_run(&mut self, bufs: &mut [Vec<u8>], lens: &mut [usize]) -> usize {
        let got = span!(true, Name::UdpRx, self.inner.recv_run(bufs, lens));
        self.calls.rx_calls += 1;
        self.calls.rx_empty += u64::from(got == 0);
        got
    }

    fn coalesce_hint(&self) -> bool {
        self.inner.coalesce_hint()
    }

    fn flush(&mut self) -> usize {
        span!(true, Name::UdpTx, self.inner.flush())
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }

    fn link_dead(&self) -> bool {
        self.inner.link_dead()
    }

    fn revive(&mut self) -> bool {
        self.inner.revive()
    }

    fn tx_evidence(&self) -> Option<TxEvidence> {
        self.inner.tx_evidence()
    }
}
