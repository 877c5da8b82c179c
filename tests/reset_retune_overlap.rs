//! A §5 reset must not silently drop a live retune.
//!
//! The adaptive loop learns a hidden 4:2:1 capacity split from transmit
//! evidence over token-bucket-shaped links and retunes through the
//! failover driver's epoch'd handshake, with delivery quasi-FIFO across
//! the switch. Then the receiver raises a desync alert and the driver
//! runs the reset handshake. A completed reset flushes both ends back to their
//! initial quanta, so the resume step has to re-announce the quanta in
//! force along with the live mask. Afterwards the sender's scheduler, the
//! receiver's simulation, and `AdaptiveTuner::quanta()` must all hold the
//! tuned vector again, and delivery after the reset must be exactly FIFO.

use stripe::core::control::Control;
use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::link::{datagram_pair, DatagramLink, TestDatagramLink};
use stripe::net::{
    frame, AdaptiveConfig, AdaptiveTuner, ChaosPlan, ImpairedLink, NetLogicalReceiver,
    NetStripedPath, SenderReactor,
};
use stripe::netsim::{SimDuration, SimTime};
use stripe::transport::failover::{FailoverConfig, FailoverDriver};
use stripe::transport::TxBatch;

const N: usize = 3;

type Reactor = SenderReactor<Srr, ImpairedLink<TestDatagramLink>>;
type Receiver = NetLogicalReceiver<Srr, TestDatagramLink>;

struct Rig {
    reactor: Reactor,
    rx: Receiver,
    seq: u64,
    delivered: Vec<u64>,
    out: TxBatch<bytes::Bytes>,
    batch: RxBatch<stripe::net::PooledBuf>,
}

impl Rig {
    fn new() -> Self {
        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        for (i, rate) in [4000u64, 2000, 1000].into_iter().enumerate() {
            let (a, b) = datagram_pair(2048, 1 << 12);
            let plan = ChaosPlan::default().shape(rate, 2 * rate);
            fwd.push(ImpairedLink::new(a, plan, 0x5E7 + i as u64));
            rev.push(b);
        }
        let path = NetStripedPath::builder()
            .scheduler(Srr::equal(N, 1500))
            .markers(MarkerConfig::every_rounds(4))
            .links(fwd)
            .build();
        // Slow probes (a policed probe must never read as a death inside
        // the run); handshakes retransmit every millisecond.
        let cfg = FailoverConfig {
            retransmit_interval_ns: 1_000_000,
            ..FailoverConfig::with_probe_interval(1_000_000_000)
        };
        let driver = FailoverDriver::new(N, cfg, SimTime::ZERO);
        let mut reactor = SenderReactor::new(
            path,
            Some(driver),
            SimTime::ZERO,
            SimDuration::from_millis(1),
        );
        // A wide deadband: the first retune (equal quanta to the capacity
        // split puts the slowest channel at the 256-byte floor, an 83%
        // move) clears it; the estimator drift of the light-load phases
        // afterwards does not, so any later change of quanta is the
        // reset's doing, not the tuner's.
        let adaptive = AdaptiveConfig {
            deadband_ppm: 800_000,
            ..AdaptiveConfig::with_interval(SimDuration::from_millis(5))
        };
        reactor.attach_adaptive(AdaptiveTuner::new(&[1500; N], adaptive, SimTime::ZERO));
        let rx = NetLogicalReceiver::builder()
            .scheduler(Srr::equal(N, 1500))
            .links(rev)
            .build();
        Self {
            reactor,
            rx,
            seq: 0,
            delivered: Vec::new(),
            out: TxBatch::new(),
            batch: RxBatch::new(),
        }
    }

    /// One millisecond: offer `burst` packets, poll both ends, collect
    /// deliveries.
    fn step(&mut self, ms: u64, burst: usize) {
        let now = SimTime::from_millis(ms);
        let mut pkts: Vec<bytes::Bytes> = (0..burst)
            .map(|_| {
                let mut p = vec![0u8; 500];
                p[..8].copy_from_slice(&self.seq.to_be_bytes());
                self.seq += 1;
                bytes::Bytes::from(p)
            })
            .collect();
        self.reactor
            .path_mut()
            .send_batch(now, &mut pkts, &mut self.out);
        self.reactor.poll(now);
        self.rx.sweep(now);
        self.rx.poll_into(&mut self.batch);
        for pb in self.batch.drain() {
            let id = u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap());
            self.delivered.push(id);
            self.rx.recycle(pb);
        }
    }

    /// Quanta in force at the sender, at the receiver, and in the tuner.
    fn quanta(&self) -> [Vec<i64>; 3] {
        let of = |sched: &Srr| (0..N).map(|c| sched.quantum(c)).collect();
        [
            of(self.reactor.path().sender().scheduler()),
            of(self.rx.sink().receiver().scheduler()),
            self.reactor.adaptive().expect("attached").quanta().to_vec(),
        ]
    }

    fn agree(&self) -> bool {
        let [s, r, t] = self.quanta();
        s == t && r == t
    }
}

#[test]
fn completed_reset_keeps_the_tuned_quanta_on_both_ends() {
    let mut rig = Rig::new();
    let mut ms = 0;
    // Saturate until the loop has tuned and the retune is acked; then
    // run light (loss-free) load until the tuned split is in force on
    // both ends, and let the path go quiet.
    while ms < 40 || rig.reactor.stats().retunes_complete == 0 {
        ms += 1;
        assert!(ms < 500, "the adaptive loop never completed a retune");
        rig.step(ms, 48);
    }
    while !rig.agree() {
        ms += 1;
        assert!(ms < 1000, "the tuned split never took effect");
        rig.step(ms, 4);
    }
    for _ in 0..3 {
        ms += 1;
        rig.step(ms, 0);
    }
    let [.., tuned] = rig.quanta();
    assert!(
        tuned[0] > tuned[1] && tuned[1] > tuned[2],
        "tuned quanta {tuned:?} must order by capacity"
    );
    let ratio = tuned[0] as f64 / tuned[2] as f64;
    assert!((2.5..=6.0).contains(&ratio), "4:1 split tuned to {tuned:?}");
    assert!(
        rig.agree(),
        "both ends hold the tuned split before the reset"
    );

    // The receiver's self-check trips: the sender drives a §5 reset.
    let mut alert = Vec::new();
    let incarnation = rig.rx.incarnation();
    frame::encode_control_into(&Control::DesyncAlert { incarnation }, &mut alert);
    rig.rx.links_mut()[0].send_frame(&alert).unwrap();
    while rig.reactor.stats().resets_completed == 0 {
        ms += 1;
        assert!(ms < 1000, "the reset never completed");
        rig.step(ms, 0);
    }
    assert_eq!(rig.rx.net_stats().resets, 1, "the receiver flushed once");
    let resumed_at = rig.delivered.len();
    for _ in 0..60 {
        ms += 1;
        rig.step(ms, 4);
    }

    let [sender, receiver, tuner] = rig.quanta();
    assert_eq!(sender, tuned, "sender lost the tuned split");
    assert_eq!(receiver, tuned, "receiver lost the tuned split");
    assert_eq!(tuner, tuned, "tuner drifted from the ends");
    // Quasi-FIFO throughout: every id at most once, and the policer's
    // losses displace deliveries by no more than a marker interval or
    // two; after the reset, exact FIFO.
    let mut uniq = rig.delivered.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), rig.delivered.len(), "duplicate deliveries");
    let backjump = rig.delivered.windows(2).map(|w| w[0].saturating_sub(w[1]));
    assert!(
        backjump.max().unwrap_or(0) <= 128,
        "displacement beyond a marker interval"
    );
    let after = &rig.delivered[resumed_at..];
    assert!(after.len() > 100, "delivery resumed: {}", after.len());
    assert!(
        after.windows(2).all(|w| w[0] < w[1]),
        "post-reset delivery out of order"
    );
}
