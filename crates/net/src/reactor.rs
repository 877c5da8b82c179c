//! The sender-side poll loop: flush backlogs, sweep the reverse path,
//! drive the failover control plane — no async runtime, no threads.
//!
//! The whole subsystem runs on non-blocking sockets, so somebody has to
//! come back around: retry frames the kernel refused, read probe acks
//! and membership acks off the reverse path, and hand the PR-1
//! [`FailoverDriver`] its periodic tick. [`SenderReactor`] is that
//! somebody. One [`poll`](SenderReactor::poll) is one readiness sweep;
//! the application calls it between send batches (or from a trivial
//! loop when idle). Because every timer-driven component takes `now` as
//! an argument instead of asking a clock, the same reactor code runs
//! under [`WallClock`](crate::clock::WallClock) time in production and
//! under scripted [`SimTime`]s in tests.
//!
//! Since the lifecycle work the reactor is also the recovery
//! *orchestrator*: each channel carries a
//! [`ChannelLifecycle`] machine, and
//! every poll feeds it death evidence (link flags, liveness verdicts),
//! executes its one side effect (cooldown elapsed →
//! [`DatagramLink::revive`]), and watches the failover driver for the
//! probe ack and membership-grow completion that walk the channel back
//! to live. The driver still owns *what* to announce; the lifecycle
//! owns *when to rebuild sockets* and how hard to back off.
//!
//! [`FailoverDriver`]: stripe_transport::FailoverDriver

use std::marker::PhantomData;

use stripe_core::control::Control;
use stripe_core::liveness::ChannelHealth;
use stripe_core::sched::CausalScheduler;
use stripe_link::DatagramLink;
use stripe_netsim::{SimDuration, SimTime};
use stripe_transport::{ControlPath, ControlTransmission, FailoverDriver};

use crate::adapt::AdaptiveTuner;
use crate::frame::{self, Frame};
use crate::lifecycle::{ChannelLifecycle, LifecycleAction, LifecycleConfig, LifecycleState};
use crate::path::NetStripedPath;
use crate::server::StripeServer;

/// What the reactor needs from a datapath, beyond the control-plane
/// surface it already presents as a [`ControlPath`]: direct access to
/// the member links (to sweep the reverse path and execute lifecycle
/// rebinds) and a backlog flush.
///
/// Both [`NetStripedPath`] (one flow) and [`StripeServer`] (many flows
/// over the same channel set) implement it, so one reactor — sweep,
/// death evidence, probe/rejoin lifecycle, failover tick — serves both.
/// Failover and channel lifecycle thereby stay flow-agnostic: they see
/// channels, never flows.
pub trait ReactorPath<L: DatagramLink>: ControlPath {
    /// The member links, indexed by channel id.
    fn reactor_links(&self) -> &[L];
    /// Mutable access to the member links.
    fn reactor_links_mut(&mut self) -> &mut [L];
    /// Retry parked frames toward the kernel; returns frames drained.
    fn flush_backlog(&mut self) -> usize;
}

impl<S: CausalScheduler, L: DatagramLink> ReactorPath<L> for NetStripedPath<S, L> {
    fn reactor_links(&self) -> &[L] {
        self.links()
    }
    fn reactor_links_mut(&mut self) -> &mut [L] {
        self.links_mut()
    }
    fn flush_backlog(&mut self) -> usize {
        self.flush()
    }
}

impl<S: CausalScheduler, L: DatagramLink> ReactorPath<L> for StripeServer<S, L> {
    fn reactor_links(&self) -> &[L] {
        self.links()
    }
    fn reactor_links_mut(&mut self) -> &mut [L] {
        self.links_mut()
    }
    fn flush_backlog(&mut self) -> usize {
        self.flush()
    }
}

/// A fixed-interval timer in simulation/wall time.
///
/// `fire(now)` answers "has the interval elapsed?" and, when it has,
/// re-arms past `now` — skipping missed intervals rather than bursting,
/// since a late reactor wants one tick, not a backlog of them.
#[derive(Debug, Clone, Copy)]
pub struct Periodic {
    next: SimTime,
    interval: SimDuration,
}

impl Periodic {
    /// A timer first firing at `start + interval`, then every `interval`.
    pub fn new(start: SimTime, interval: SimDuration) -> Self {
        Self {
            next: start + interval,
            interval,
        }
    }

    /// True when the timer is due at `now`; re-arms for the next interval
    /// strictly after `now`.
    pub fn fire(&mut self, now: SimTime) -> bool {
        if now < self.next {
            return false;
        }
        while self.next <= now {
            self.next += self.interval;
        }
        true
    }

    /// The next due time.
    pub fn next_due(&self) -> SimTime {
        self.next
    }
}

/// Counters for the reactor's own work (the datapath and control plane
/// keep their own snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// Readiness sweeps performed.
    pub polls: u64,
    /// Backlogged frames drained to the kernel by flushes.
    pub flushed: u64,
    /// Control frames read off the reverse path.
    pub control_in: u64,
    /// Data frames read off the reverse path (unexpected at the sender)
    /// and discarded.
    pub dropped_unexpected_data: u64,
    /// Reverse-path frames that failed to decode.
    pub dropped_malformed: u64,
    /// Failover ticks delivered.
    pub ticks: u64,
    /// Channels the link layer reported dead (socket hard errors) that
    /// the failover driver newly declared dead.
    pub link_dead_reports: u64,
    /// Channels observed recovering (first probe ack on a dead channel),
    /// i.e. membership *grow* announcements begun by the driver.
    pub grow_announcements: u64,
    /// Completed die→rejoin cycles: channels walked all the way back to
    /// live through the grow handshake.
    pub rejoins: u64,
    /// Adaptive retune announcements flooded (see [`AdaptiveTuner`]).
    pub retunes: u64,
    /// Quantum acks that advanced the retune handshake.
    pub retune_acks: u64,
    /// Retune handshakes fully acked.
    pub retunes_complete: u64,
    /// Is the datapath currently parked (total blackout, or a §5 reset
    /// awaiting acks)? Data sends fail fast; control keeps flowing.
    pub parked: bool,
    /// Transitions into total blackout (every channel dead at once).
    pub blackouts: u64,
    /// Nanoseconds spent parked, accumulated over completed parks.
    pub park_ns: u64,
    /// Peer restarts detected via incarnation changes in probe acks.
    pub restarts_detected: u64,
    /// §5 resets initiated by the failover driver.
    pub resets_started: u64,
    /// §5 resets fully acknowledged and flushed on both ends.
    pub resets_completed: u64,
    /// Receiver desync alerts read off the reverse path.
    pub desync_alerts: u64,
}

/// Whether any control transmission in a poll's report carries a
/// membership announcement — the signal the integration suites (and the
/// reactor's own tests) watch for a shrink or grow hitting the wire.
/// One shared definition so "did failover announce?" means the same
/// thing everywhere.
pub fn membership_announced(reports: &[ControlTransmission]) -> bool {
    reports
        .iter()
        .any(|r| matches!(r.ctl, Control::Membership { .. }))
}

/// Poll-driven harness around any [`ReactorPath`] datapath and its
/// failover control plane.
#[derive(Debug)]
pub struct PathReactor<P, L> {
    path: P,
    driver: Option<FailoverDriver>,
    tick: Periodic,
    /// Scratch buffers for batched reverse-path receives. The reverse
    /// path carries only low-rate control traffic, so a small batch is
    /// plenty.
    recv_bufs: Vec<Vec<u8>>,
    recv_lens: Vec<usize>,
    /// One recovery state machine per channel (see [`crate::lifecycle`]).
    lifecycle: Vec<ChannelLifecycle>,
    /// The adaptive quantum control loop, when attached (see
    /// [`attach_adaptive`](Self::attach_adaptive)).
    adaptive: Option<AdaptiveTuner>,
    /// When the current park began (blackout or reset), if one is open.
    park_since_ns: Option<u64>,
    /// Edge detector for blackout transitions.
    was_blackout: bool,
    stats: ReactorSnapshot,
    _link: PhantomData<fn() -> L>,
}

/// The single-flow reactor: a [`PathReactor`] over [`NetStripedPath`].
pub type SenderReactor<S, L> = PathReactor<NetStripedPath<S, L>, L>;

/// The multi-flow reactor: a [`PathReactor`] over [`StripeServer`].
pub type ServerReactor<S, L> = PathReactor<StripeServer<S, L>, L>;

/// Reverse-path receive batch width.
const REVERSE_RUN: usize = 8;

impl<P: ReactorPath<L>, L: DatagramLink> PathReactor<P, L> {
    /// Wrap `path`, ticking `driver` (when present) every
    /// `tick_interval` starting from `now`.
    pub fn new(
        path: P,
        driver: Option<FailoverDriver>,
        now: SimTime,
        tick_interval: SimDuration,
    ) -> Self {
        let buf_len = path
            .reactor_links()
            .iter()
            .map(|l| l.mtu())
            .max()
            .expect("path has at least one link");
        // The recovery rhythm follows the probe rhythm: cooldowns and
        // probe patience are multiples of the driver's probe interval
        // (see [`LifecycleConfig::with_probe_interval`]).
        let lifecycle_cfg = driver
            .as_ref()
            .map(|d| LifecycleConfig::with_probe_interval(d.liveness().config().probe_interval_ns))
            .unwrap_or_default();
        let channels = path.reactor_links().len();
        Self {
            path,
            driver,
            tick: Periodic::new(now, tick_interval),
            recv_bufs: (0..REVERSE_RUN).map(|_| vec![0u8; buf_len]).collect(),
            recv_lens: vec![0; REVERSE_RUN],
            lifecycle: (0..channels)
                .map(|_| ChannelLifecycle::new(lifecycle_cfg))
                .collect(),
            adaptive: None,
            park_since_ns: None,
            was_blackout: false,
            stats: ReactorSnapshot::default(),
            _link: PhantomData,
        }
    }

    /// Attach the adaptive quantum control loop: from the next poll on,
    /// every channel's transmit evidence and probe round trips feed its
    /// estimators, and estimation ticks may hand retunes to the failover
    /// driver (see [`crate::adapt`]; without a driver nothing carries
    /// them). The tuner's initial quanta must match the scheduler's, or
    /// the deadband measures against the wrong baseline.
    pub fn attach_adaptive(&mut self, tuner: AdaptiveTuner) {
        assert_eq!(
            tuner.quanta().len(),
            self.path.reactor_links().len(),
            "one quantum per channel"
        );
        self.adaptive = Some(tuner);
    }

    /// The adaptive control loop, if attached.
    pub fn adaptive(&self) -> Option<&AdaptiveTuner> {
        self.adaptive.as_ref()
    }

    /// Replace the recovery timing policy (resets every channel's
    /// machine to live — call before inducing chaos, not during).
    pub fn set_lifecycle_config(&mut self, cfg: LifecycleConfig) {
        for lc in &mut self.lifecycle {
            *lc = ChannelLifecycle::new(cfg);
        }
    }

    /// Per-channel recovery machines (state + counters).
    pub fn lifecycle(&self) -> &[ChannelLifecycle] {
        &self.lifecycle
    }

    /// One readiness sweep at `now`:
    ///
    /// 1. flush every channel's parked send backlog toward the kernel;
    /// 2. surface link-layer death reports (socket hard errors) to the
    ///    failover driver, short-circuiting the keepalive deadline;
    /// 3. drain the reverse path, feeding control to the failover driver;
    /// 4. step each channel's recovery lifecycle — cooldowns, socket
    ///    rebuilds ([`DatagramLink::revive`]), and the probe/rejoin
    ///    watches;
    /// 5. deliver the periodic failover tick when due.
    ///
    /// Returns the control transmissions the driver reported (probes
    /// sent, announcements, retransmissions) — empty in the steady state,
    /// and `Vec::new()` never allocates.
    pub fn poll(&mut self, now: SimTime) -> Vec<ControlTransmission> {
        self.stats.polls += 1;
        self.stats.flushed += self.path.flush_backlog() as u64;
        let mut reports = Vec::new();
        for c in 0..self.path.reactor_links().len() {
            self.report_link_death(c, now, &mut reports);
            loop {
                let got = self.path.reactor_links_mut()[c]
                    .recv_run(&mut self.recv_bufs, &mut self.recv_lens);
                for i in 0..got {
                    let n = self.recv_lens[i];
                    let ctl = match frame::decode(&self.recv_bufs[i][..n]) {
                        Some(Frame::Control(ctl)) => {
                            self.stats.control_in += 1;
                            ctl
                        }
                        Some(Frame::Data(_)) => {
                            self.stats.dropped_unexpected_data += 1;
                            continue;
                        }
                        None => {
                            self.stats.dropped_malformed += 1;
                            continue;
                        }
                    };
                    if let Control::DesyncAlert { .. } = ctl {
                        self.stats.desync_alerts += 1;
                    }
                    if let (Some(ad), Control::ProbeAck { nonce, .. }) =
                        (self.adaptive.as_mut(), &ctl)
                    {
                        ad.on_probe_ack(c, *nonce, now.as_nanos());
                    }
                    if let Some(driver) = self.driver.as_mut() {
                        reports.extend(driver.on_control(&mut self.path, c, &ctl, now));
                    }
                }
                if got < REVERSE_RUN {
                    break;
                }
            }
            // After the reverse sweep, so a probe ack read this very
            // poll advances the machine this very poll.
            self.step_lifecycle(c, now);
            // Sample the channel's cumulative transmit evidence into its
            // estimator (links without evidence keep the loop unprimed).
            if let Some(ad) = self.adaptive.as_mut() {
                if let Some(ev) = self.path.reactor_links()[c].tx_evidence() {
                    ad.on_tx_evidence(c, now.as_nanos(), ev);
                }
            }
        }
        if self.tick.fire(now) {
            if let Some(driver) = self.driver.as_mut() {
                self.stats.ticks += 1;
                reports.extend(driver.tick(&mut self.path, now));
            }
        }
        if let Some(driver) = self.driver.as_mut() {
            let (parked, blackout) = (driver.parked(), driver.blackout());
            self.stats.restarts_detected = driver.restarts_detected();
            self.stats.resets_started = driver.resets_started();
            self.stats.resets_completed = driver.resets_completed();
            self.stats.retune_acks = driver.retune_acks();
            self.stats.retunes_complete = driver.retune_state().completed();
            self.observe_park(parked, blackout, now);
        }
        self.step_adaptive(now, &mut reports);
        reports
    }

    /// Track park state for the snapshot: blackout rising edges count as
    /// blackouts, and completed parks accumulate their duration.
    fn observe_park(&mut self, parked: bool, blackout: bool, now: SimTime) {
        if blackout && !self.was_blackout {
            self.stats.blackouts += 1;
        }
        self.was_blackout = blackout;
        match (parked, self.park_since_ns) {
            (true, None) => self.park_since_ns = Some(now.as_nanos()),
            (false, Some(since)) => {
                self.stats.park_ns += now.as_nanos().saturating_sub(since);
                self.park_since_ns = None;
            }
            _ => {}
        }
        self.stats.parked = parked;
    }

    /// Drive the adaptive quantum loop one step: record probes the
    /// driver just sent (their acks become RTT samples), and hand a due
    /// proposal to the driver, which runs it as an epoch'd retune beside
    /// its membership and reset handshakes. A refused proposal (a reset
    /// in flight, or total blackout) is not committed; a later tick
    /// proposes again.
    fn step_adaptive(&mut self, now: SimTime, reports: &mut Vec<ControlTransmission>) {
        let (Some(ad), Some(driver)) = (self.adaptive.as_mut(), self.driver.as_mut()) else {
            return;
        };
        for r in reports.iter() {
            if let Control::Probe { nonce } = r.ctl {
                if r.error.is_none() {
                    ad.on_probe_sent(r.channel, nonce, now.as_nanos());
                }
            }
        }
        if !ad.due(now, driver.retune_state().in_progress()) {
            return;
        }
        if let Some(sent) = driver.retune(&mut self.path, ad.proposal(), now) {
            ad.commit();
            self.stats.retunes += 1;
            reports.extend(sent);
        }
    }

    /// The one dead-channel handling path: surface a link-layer death
    /// flag to the failover driver (a *newly* declared death announces
    /// the shrunken mask immediately, counted in `link_dead_reports`;
    /// repeats are idempotent) and feed the evidence to the channel's
    /// lifecycle machine.
    fn report_link_death(
        &mut self,
        c: usize,
        now: SimTime,
        reports: &mut Vec<ControlTransmission>,
    ) {
        if !self.path.reactor_links()[c].link_dead() {
            return;
        }
        if let Some(driver) = self.driver.as_mut() {
            let before = driver.liveness().deaths();
            reports.extend(driver.on_link_dead(&mut self.path, c, now));
            if driver.liveness().deaths() > before {
                self.stats.link_dead_reports += 1;
            }
        }
        self.lifecycle[c].on_dead(now.as_nanos());
    }

    /// Walk channel `c`'s recovery machine one step: pick up
    /// silence-deaths the liveness tracker declared, execute a due
    /// rebind through [`DatagramLink::revive`], and translate the
    /// driver's observations (probe ack → recovery → grow announced;
    /// grow fully acked → rejoin complete) into lifecycle transitions.
    fn step_lifecycle(&mut self, c: usize, now: SimTime) {
        let now_ns = now.as_nanos();
        // Silence-death: the socket is fine but the liveness deadline
        // passed (e.g. a partition). The link-flag path already fed
        // `on_dead` in `report_link_death`.
        if let Some(driver) = self.driver.as_ref() {
            if driver.liveness().health(c) == ChannelHealth::Dead {
                self.lifecycle[c].on_dead(now_ns);
            }
        }
        if self.lifecycle[c].advance(now_ns) == LifecycleAction::Rebind {
            if self.path.reactor_links_mut()[c].revive() {
                self.lifecycle[c].rebind_ok(now_ns);
            } else {
                self.lifecycle[c].rebind_failed(now_ns);
            }
        }
        let Some(driver) = self.driver.as_ref() else {
            return;
        };
        let lc = &mut self.lifecycle[c];
        // Recovery: the driver heard the first probe ack (liveness back
        // to Live) and has begun the epoch'd membership grow.
        let dead_side = matches!(
            lc.state(),
            LifecycleState::Dead | LifecycleState::Cooldown | LifecycleState::Probing
        );
        if dead_side
            && driver.liveness().health(c) == ChannelHealth::Live
            && !self.path.reactor_links()[c].link_dead()
        {
            lc.on_recovered(now_ns);
            self.stats.grow_announcements += 1;
        }
        // Rejoin completion: the grow announcement is fully acked (or
        // was superseded) — nothing is awaiting, the cycle closes.
        if lc.state() == LifecycleState::Rejoining && !driver.membership().in_progress() {
            lc.on_rejoin_complete(now_ns);
            self.stats.rejoins += 1;
        }
    }

    /// The wrapped path.
    pub fn path(&self) -> &P {
        &self.path
    }

    /// Mutable access to the wrapped path (to send batches through).
    pub fn path_mut(&mut self) -> &mut P {
        &mut self.path
    }

    /// The failover driver, if one is attached.
    pub fn driver(&self) -> Option<&FailoverDriver> {
        self.driver.as_ref()
    }

    /// Reactor counters.
    pub fn stats(&self) -> ReactorSnapshot {
        self.stats
    }

    /// Take the path (and driver) back out.
    pub fn into_inner(self) -> (P, Option<FailoverDriver>) {
        (self.path, self.driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recv::NetLogicalReceiver;
    use stripe_core::control::Control;
    use stripe_core::sched::Srr;
    use stripe_link::{datagram_pair, TestDatagramLink};
    use stripe_transport::FailoverConfig;

    fn reactor_pair(
        tick_ns: u64,
    ) -> (
        SenderReactor<Srr, TestDatagramLink>,
        NetLogicalReceiver<Srr, TestDatagramLink>,
    ) {
        let (a0, b0) = datagram_pair(2048, 4096);
        let (a1, b1) = datagram_pair(2048, 4096);
        let path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![a0, a1])
            .build();
        let driver = FailoverDriver::new(
            2,
            FailoverConfig::with_probe_interval(tick_ns),
            SimTime::ZERO,
        );
        let reactor = SenderReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_nanos(tick_ns),
        );
        let rx = NetLogicalReceiver::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![b0, b1])
            .build();
        (reactor, rx)
    }

    #[test]
    fn periodic_fires_once_per_interval_and_skips_missed() {
        let mut p = Periodic::new(SimTime::ZERO, SimDuration::from_millis(10));
        assert!(!p.fire(SimTime::from_millis(9)));
        assert!(p.fire(SimTime::from_millis(10)));
        assert!(!p.fire(SimTime::from_millis(11)));
        // Late by many intervals: one fire, re-armed past now.
        assert!(p.fire(SimTime::from_millis(55)));
        assert_eq!(p.next_due(), SimTime::from_millis(60));
    }

    /// A full probe round trip through real frame bytes: tick emits
    /// probes, the receiver acks them on the reverse path, the next
    /// reactor poll feeds the acks back into the liveness tracker.
    #[test]
    fn probe_round_trip_keeps_channels_live() {
        let (mut reactor, mut rx) = reactor_pair(1_000_000);
        // Walk time far past the dead deadline, polling both ends each
        // probe interval; acked channels must never be declared dead.
        let mut announced_death = false;
        for ms in 1..20u64 {
            let now = SimTime::from_millis(ms);
            let reports = reactor.poll(now);
            announced_death |= membership_announced(&reports);
            rx.sweep(now);
            reactor.poll(now); // read back this interval's acks
        }
        assert!(reactor.stats().ticks >= 19);
        assert!(reactor.stats().control_in >= 2, "acks flowed back");
        assert!(!announced_death, "acked channels must stay live");
        assert_eq!(rx.net_stats().replies_sent, rx.net_stats().control_frames);
    }

    /// One channel acked, one silent: three silent intervals kill the
    /// quiet channel and a shrunken mask is announced on the live one.
    #[test]
    fn silence_declares_death() {
        let (a0, mut b0) = datagram_pair(2048, 4096);
        let (a1, _silent_peer) = datagram_pair(2048, 4096);
        let path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(vec![a0, a1])
            .build();
        let driver = FailoverDriver::new(
            2,
            FailoverConfig::with_probe_interval(1_000_000),
            SimTime::ZERO,
        );
        let mut reactor = SenderReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_millis(1),
        );
        let mut buf = [0u8; 2048];
        let mut ctl_buf = Vec::new();
        let mut announced_death = false;
        for ms in 1..10u64 {
            let reports = reactor.poll(SimTime::from_millis(ms));
            announced_death |= membership_announced(&reports);
            // Ack channel 0's probes by hand; channel 1 stays silent.
            while let Some(n) = b0.recv_frame(&mut buf) {
                if let Some(Frame::Control(Control::Probe { nonce })) = frame::decode(&buf[..n]) {
                    crate::frame::encode_control_into(
                        &Control::ProbeAck {
                            nonce,
                            incarnation: 1,
                        },
                        &mut ctl_buf,
                    );
                    b0.send_frame(&ctl_buf).unwrap();
                }
            }
        }
        assert!(
            announced_death,
            "a dead channel must announce a shrunken mask"
        );
    }

    /// A link reporting itself dead: the very next poll announces the
    /// shrunken mask — no keepalive deadline, no probes required.
    #[test]
    fn link_dead_report_triggers_immediate_failover() {
        use stripe_link::TxError;

        /// Test link whose deadness can be flipped from outside.
        #[derive(Debug)]
        struct MortalLink {
            inner: TestDatagramLink,
            dead: bool,
        }
        impl DatagramLink for MortalLink {
            fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
                if self.dead {
                    return Err(TxError::LinkDown);
                }
                self.inner.send_frame(frame)
            }
            fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
                self.inner.recv_frame(buf)
            }
            fn mtu(&self) -> usize {
                self.inner.mtu()
            }
            fn link_dead(&self) -> bool {
                self.dead
            }
        }

        let (a0, _b0) = datagram_pair(2048, 4096);
        let (a1, _b1) = datagram_pair(2048, 4096);
        let links = vec![
            MortalLink {
                inner: a0,
                dead: false,
            },
            MortalLink {
                inner: a1,
                dead: false,
            },
        ];
        let path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(links)
            .build();
        let driver = FailoverDriver::new(
            2,
            FailoverConfig::with_probe_interval(1_000_000),
            SimTime::ZERO,
        );
        let mut reactor = SenderReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_millis(1),
        );

        // Healthy sweep: no death reported.
        reactor.poll(SimTime::from_micros(100));
        assert_eq!(reactor.stats().link_dead_reports, 0);

        // Kill channel 1 at the link layer; the next poll must announce.
        reactor.path_mut().links_mut()[1].dead = true;
        let reports = reactor.poll(SimTime::from_micros(200));
        assert!(
            membership_announced(&reports),
            "death evidence must announce a shrunken mask immediately"
        );
        let driver = reactor.driver().expect("driver attached");
        assert_eq!(driver.liveness().deaths(), 1);
        assert_eq!(driver.liveness().live_mask(), vec![true, false]);
        assert_eq!(reactor.stats().link_dead_reports, 1);
        assert_eq!(
            reactor.lifecycle()[1].state(),
            LifecycleState::Cooldown,
            "death is a lifecycle transition now, not a terminal state"
        );

        // Still-dead link on later polls: idempotent, no re-announce spam.
        let again = reactor.poll(SimTime::from_micros(300));
        assert!(
            !membership_announced(&again),
            "no duplicate announcements while the link stays dead"
        );
        assert_eq!(reactor.stats().link_dead_reports, 1);
    }

    /// The full recovery arc over in-memory links: a link dies, the
    /// lifecycle waits out the cooldown, revives it, the probe ack
    /// triggers the epoch'd grow, the grow acks complete the rejoin —
    /// and the reactor's counters narrate every step.
    #[test]
    fn revived_link_walks_back_to_live() {
        use stripe_link::TxError;

        /// Link that can die and be revived from outside.
        #[derive(Debug)]
        struct PhoenixLink {
            inner: TestDatagramLink,
            dead: bool,
        }
        impl DatagramLink for PhoenixLink {
            fn send_frame(&mut self, frame: &[u8]) -> Result<(), TxError> {
                if self.dead {
                    return Err(TxError::LinkDown);
                }
                self.inner.send_frame(frame)
            }
            fn recv_frame(&mut self, buf: &mut [u8]) -> Option<usize> {
                if self.dead {
                    return None;
                }
                self.inner.recv_frame(buf)
            }
            fn mtu(&self) -> usize {
                self.inner.mtu()
            }
            fn link_dead(&self) -> bool {
                self.dead
            }
            fn revive(&mut self) -> bool {
                self.dead = false;
                true
            }
        }

        let (a0, mut b0) = datagram_pair(2048, 4096);
        let (a1, mut b1) = datagram_pair(2048, 4096);
        let links = vec![
            PhoenixLink {
                inner: a0,
                dead: false,
            },
            PhoenixLink {
                inner: a1,
                dead: false,
            },
        ];
        let path = NetStripedPath::builder()
            .scheduler(Srr::equal(2, 1500))
            .links(links)
            .build();
        let driver = FailoverDriver::new(
            2,
            FailoverConfig::with_probe_interval(1_000_000),
            SimTime::ZERO,
        );
        let mut reactor = SenderReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_millis(1),
        );

        // Kill channel 1 at the link layer; the shrink announces.
        reactor.path_mut().links_mut()[1].dead = true;
        assert!(membership_announced(
            &reactor.poll(SimTime::from_micros(100))
        ));
        assert_eq!(reactor.lifecycle()[1].state(), LifecycleState::Cooldown);

        // Drive time forward, answering every probe and acking every
        // membership announcement on both peers by hand.
        let mut buf = [0u8; 2048];
        let mut ctl_buf = Vec::new();
        let mut grow_announced = false;
        for step in 2..120u64 {
            let now = SimTime::from_micros(step * 500);
            let reports = reactor.poll(now);
            if reactor.stats().grow_announcements > 0 {
                grow_announced |= membership_announced(&reports);
            }
            for b in [&mut b0, &mut b1] {
                while let Some(n) = b.recv_frame(&mut buf) {
                    let reply = match frame::decode(&buf[..n]) {
                        Some(Frame::Control(Control::Probe { nonce })) => Some(Control::ProbeAck {
                            nonce,
                            incarnation: 1,
                        }),
                        Some(Frame::Control(Control::Membership { epoch, .. })) => {
                            Some(Control::MembershipAck { epoch })
                        }
                        _ => None,
                    };
                    if let Some(ctl) = reply {
                        crate::frame::encode_control_into(&ctl, &mut ctl_buf);
                        let _ = b.send_frame(&ctl_buf);
                    }
                }
            }
            if reactor.lifecycle()[1].state() == LifecycleState::Live && reactor.stats().rejoins > 0
            {
                break;
            }
        }

        let stats = reactor.stats();
        assert_eq!(stats.link_dead_reports, 1);
        assert_eq!(stats.grow_announcements, 1, "one recovery, one grow");
        assert_eq!(stats.rejoins, 1, "the cycle closed");
        let driver = reactor.driver().expect("driver attached");
        assert_eq!(
            driver.liveness().live_mask(),
            vec![true, true],
            "full capacity restored"
        );
        assert!(!driver.membership().in_progress(), "grow fully acked");
        assert!(!reactor.path().links()[1].link_dead(), "link was revived");
        let snap = reactor.lifecycle()[1].snapshot();
        assert_eq!(snap.state, LifecycleState::Live);
        assert_eq!(snap.rejoins, 1);
        assert!(snap.rebind_attempts >= 1, "revive went through the link");
        assert!(grow_announced, "the grow rode the wire as a Membership");
    }

    /// Flush drains frames parked behind kernel/queue backpressure.
    #[test]
    fn poll_flushes_backlog() {
        let (a0, mut b0) = datagram_pair(256, 8);
        // Park frames directly in the link's local queue by filling the
        // peer's in-flight capacity: TestDatagramLink has unbounded
        // in-flight, so emulate by enqueueing via send while "jammed".
        let mut path = NetStripedPath::builder()
            .scheduler(Srr::equal(1, 1500))
            .links(vec![a0])
            .build();
        let mut pkts = vec![bytes::Bytes::from(vec![5u8; 32])];
        let mut out = stripe_transport::TxBatch::new();
        path.send_batch(SimTime::ZERO, &mut pkts, &mut out);
        let mut reactor =
            SenderReactor::new(path, None, SimTime::ZERO, SimDuration::from_millis(1));
        reactor.poll(SimTime::from_millis(1));
        assert_eq!(reactor.stats().polls, 1);
        let mut buf = [0u8; 256];
        assert!(b0.recv_frame(&mut buf).is_some(), "frame reached the peer");
    }
}
