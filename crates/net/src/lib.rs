//! Real-socket striping: the simulated SRR datapath running over N
//! kernel UDP sockets.
//!
//! Everything the simulation proved — causal scheduling, logical
//! reception, marker resynchronization, liveness-driven failover — runs
//! here unchanged over real non-blocking sockets. The crate adds only
//! what a real network demands and the simulator abstracted away:
//!
//! - [`frame`] — the canonical on-wire format: a 3-byte header
//!   (magic, version, kind) in front of either a raw payload or a
//!   [`Control`](stripe_core::control::Control) body encoded by the one
//!   shared codec. The simulator's control messages and the wire's are
//!   byte-identical by construction. Version 2 adds a varint flow ID to
//!   data and marker frames (control stays untagged); one shared entry
//!   point decodes both, landing version-1 frames on flow 0.
//! - [`udp`] — [`UdpChannel`], one connected non-blocking UDP socket
//!   per striped channel, with a bounded, buffer-recycling local queue
//!   absorbing kernel backpressure and a run-amortized
//!   (`sendmmsg`-style) batch seam.
//! - [`path`] — [`NetStripedPath`], the sender: the exact
//!   [`StripingSender`](stripe_core::sender::StripingSender) batch
//!   datapath, encoding into recycled frame buffers and handing
//!   channel-runs to the links in single calls.
//! - [`recv`] — [`NetLogicalReceiver`], the receiver: pooled buffers in
//!   from the sockets, payload views through the shared resequencer,
//!   storage recycled on consumption.
//! - [`server`] — [`StripeServer`], the multi-flow sender: thousands of
//!   logical flows over one shared channel set, per-flow state in a
//!   slab behind generation-checked [`FlowHandle`]s, DRR across flows
//!   feeding each flow's own causal SRR, bounded admission.
//!   [`NetStripedPath`] is this with one flow.
//! - [`demux`] — [`FlowDemux`], the multi-flow receiver: flow-tagged
//!   frames routed to per-flow resequencers (each simulating its own
//!   flow's SRR), one shared buffer pool, per-flow FIFO delivery.
//!   [`NetLogicalReceiver`] is this with one flow.
//! - [`reactor`] — [`PathReactor`], the poll loop: flushes backlogs,
//!   sweeps the reverse path, ticks the PR-1 failover driver — generic
//!   over any [`ReactorPath`] ([`SenderReactor`] drives the single-flow
//!   path, [`ServerReactor`] the multi-flow server). No async runtime,
//!   no threads, no new dependencies.
//! - [`clock`] — [`WallClock`], mapping `std::time::Instant` onto
//!   [`SimTime`](stripe_netsim::SimTime) nanoseconds so every
//!   timer-driven component runs on either clock.
//! - [`chaos`] — [`ImpairedLink`]/[`ChaosPlan`], the seeded impairment
//!   suite (deterministic [`DropPolicy`] loss for proving marker
//!   recovery, Bernoulli loss, reorder, duplication, corruption,
//!   jitter, partitions) with a [`ChaosSnapshot`] counting every
//!   injected event.
//! - [`lifecycle`] — [`ChannelLifecycle`], the per-channel recovery
//!   state machine (`live → dead → cooldown → probing → rejoining →
//!   live`) with exponential cooldown, bounded retries, and per-step
//!   timeouts; driven by the reactor, executed through
//!   [`DatagramLink::revive`](stripe_link::DatagramLink::revive).
//! - [`pool`] — [`BufPool`]/[`PooledBuf`], the zero-allocation receive
//!   story.
//! - [`sys`] — the linux-gated `sendmmsg`/`recvmmsg` FFI shim (std-only,
//!   two `extern "C"` declarations) with a portable per-frame fallback
//!   behind the same [`BatchIo`] API; also `SO_SNDBUF`/`SO_RCVBUF`
//!   configuration and the `/proc/net/udp` kernel-drop estimate.
//!
//! Steady state, neither direction allocates: the send side reuses its
//! scratch and frame buffers, the receive side cycles pooled buffers
//! through the resequencer and back. The `alloc_counting` integration
//! test pins this.

#![warn(missing_docs)]

pub mod adapt;
pub mod chaos;
pub mod clock;
pub mod demux;
pub mod est;
pub mod frame;
pub mod lifecycle;
pub mod path;
pub mod pool;
pub mod reactor;
pub mod recv;
pub mod server;
pub mod sys;
pub mod udp;

pub use adapt::{AdaptiveConfig, AdaptiveSnapshot, AdaptiveTuner};
pub use chaos::{ChaosPlan, ChaosSnapshot, DropPolicy, ImpairedLink};
pub use clock::WallClock;
pub use demux::{FlowDemux, FlowDemuxBuilder, FlowDemuxSnapshot, FlowSink};
pub use est::{rate_shares, ChannelEstimator, Ewma};
pub use frame::{Frame, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION};
pub use lifecycle::{
    ChannelLifecycle, LifecycleAction, LifecycleConfig, LifecycleSnapshot, LifecycleState,
};
pub use path::{NetStripedPath, NetStripedPathBuilder};
pub use pool::{BufPool, PooledBuf};
pub use reactor::{
    membership_announced, PathReactor, Periodic, ReactorPath, ReactorSnapshot, SenderReactor,
    ServerReactor,
};
pub use recv::{NetLogicalReceiver, NetLogicalReceiverBuilder, NetRxSnapshot};
pub use server::{
    FlowError, FlowHandle, FlowId, FlowSnapshot, PumpEvent, StripeServer, StripeServerBuilder,
    StripeServerSnapshot,
};
pub use sys::BatchIo;
pub use udp::{UdpChannel, UdpChannelBuilder, UdpChannelSnapshot};
