//! The real-socket datapath over actual kernel UDP sockets on loopback:
//! Theorem 4.1 (exact FIFO without loss), Theorem 5.1 (quasi-FIFO
//! recovery within a marker interval after loss), and a differential
//! check that the net codec carries the sim's control messages
//! byte-identically.
//!
//! These tests move real datagrams through the kernel, so they pace
//! themselves: small bursts, a receive sweep after every burst (loopback
//! receive buffers are finite), and wall-clock deadlines instead of
//! fixed spin counts.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use stripe::core::control::Control;
use stripe::core::marker::Marker;
use stripe::core::receiver::RxBatch;
use stripe::core::sched::{ChannelMark, Srr};
use stripe::core::sender::MarkerConfig;
use stripe::net::frame::{self, Frame, FRAME_HEADER_LEN};
use stripe::net::{
    ChaosPlan, DropPolicy, ImpairedLink, NetLogicalReceiver, NetStripedPath, PooledBuf, UdpChannel,
    WallClock,
};
use stripe::transport::TxBatch;

const QUANTUM: i64 = 1500;

fn id_packet(id: u64, len: usize) -> bytes::Bytes {
    let mut payload = vec![0u8; len];
    payload[..8].copy_from_slice(&id.to_be_bytes());
    bytes::Bytes::from(payload)
}

fn id_of(pb: &PooledBuf) -> u64 {
    u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap())
}

/// Theorem 4.1 over the kernel: four real UDP sockets, varied packet
/// sizes, thousands of packets — delivery is *exact* FIFO with nothing
/// lost, because each connected loopback socket is a FIFO channel and
/// logical reception needs nothing more.
#[test]
fn lossless_fifo_over_real_sockets() {
    const CHANNELS: usize = 4;
    const TOTAL: u64 = 2400;
    const BURST: u64 = 8;

    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12).unwrap();
        tx_links.push(a);
        rx_links.push(b);
    }
    let mut path = NetStripedPath::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(tx_links)
        .build();
    let mut rx = NetLogicalReceiver::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(rx_links)
        .build();

    let clock = WallClock::start();
    let mut pkts = Vec::new();
    let mut out = TxBatch::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);

    let mut next_id = 0u64;
    while got.len() < TOTAL as usize {
        assert!(
            Instant::now() < deadline,
            "stalled at {} packets",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                // Sizes sweep 40..~1300 so channel runs vary in length.
                pkts.push(id_packet(next_id, 40 + (next_id as usize * 131) % 1260));
                next_id += 1;
            }
            path.send_batch(clock.now(), &mut pkts, &mut out);
            for t in out.iter() {
                assert!(t.error.is_none(), "loopback send failed: {t:?}");
            }
        }
        path.flush();
        rx.sweep(clock.now());
        rx.poll_into(&mut batch);
        for pb in batch.drain() {
            got.push(id_of(&pb));
            rx.recycle(pb);
        }
        std::thread::yield_now();
    }

    assert_eq!(got, (0..TOTAL).collect::<Vec<_>>(), "FIFO violated");
    assert_eq!(rx.net_stats().dropped_malformed, 0);
    assert_eq!(rx.stats().dropped_overflow, 0);
    assert_eq!(path.stats().dropped_queue, 0);
}

/// Theorem 5.1 over the kernel: a burst of data frames vanishes from one
/// channel mid-stream; markers resynchronize the receiver and delivery
/// is strictly in-order again well before the tail — every packet after
/// the recovery horizon arrives exactly once, in order.
#[test]
fn drop_window_recovers_within_marker_interval() {
    const CHANNELS: usize = 2;
    const TOTAL: u64 = 600;
    const BURST: u64 = 10;
    const PAYLOAD: usize = 300;
    // Data frames 50..55 on channel 0 vanish. At 5 packets per channel
    // per round that is mid-round-10; markers fire every 4 rounds, so
    // recovery must complete by round ~14 ≈ global packet 140. Assert
    // with slack: strictly ordered and gap-free from id 300 on.
    const DROP_FROM: u64 = 50;
    const DROP_TO: u64 = 55;
    const RECOVERY_HORIZON: u64 = 300;

    let (a0, b0) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let (a1, b1) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let mut path = NetStripedPath::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(vec![
            ImpairedLink::new(
                a0,
                ChaosPlan::none().loss(DropPolicy::Window {
                    from: DROP_FROM,
                    to: DROP_TO,
                }),
                0,
            ),
            ImpairedLink::new(a1, ChaosPlan::none(), 0),
        ])
        .build();
    let mut rx = NetLogicalReceiver::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(vec![b0, b1])
        .build();

    let clock = WallClock::start();
    let mut pkts = Vec::new();
    let mut out = TxBatch::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let expected = TOTAL - (DROP_TO - DROP_FROM);
    let deadline = Instant::now() + Duration::from_secs(20);

    let mut next_id = 0u64;
    while got.len() < expected as usize {
        assert!(
            Instant::now() < deadline,
            "stalled at {} packets",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                pkts.push(id_packet(next_id, PAYLOAD));
                next_id += 1;
            }
            path.send_batch(clock.now(), &mut pkts, &mut out);
        }
        path.flush();
        rx.sweep(clock.now());
        rx.poll_into(&mut batch);
        for pb in batch.drain() {
            got.push(id_of(&pb));
            rx.recycle(pb);
        }
        std::thread::yield_now();
    }

    let dropped = path.links()[0].snapshot().dropped_loss;
    assert_eq!(dropped, DROP_TO - DROP_FROM, "drop window must be exact");
    assert_eq!(
        got.len(),
        expected as usize,
        "everything not dropped arrives"
    );

    // Quasi-FIFO: the stream before the loss is exact FIFO…
    let first_disorder = got
        .windows(2)
        .position(|w| w[1] != w[0] + 1)
        .expect("a drop must perturb the sequence") as u64;
    assert!(
        first_disorder >= DROP_FROM,
        "disorder before the drop window (at delivery {first_disorder})"
    );
    // …and from the recovery horizon on it is exact FIFO again: strictly
    // ascending with no gaps all the way to the final id.
    let tail_start = got
        .iter()
        .position(|&id| id >= RECOVERY_HORIZON)
        .expect("tail must be delivered");
    let tail = &got[tail_start..];
    let want: Vec<u64> = (tail[0]..TOTAL).collect();
    assert_eq!(
        tail,
        &want[..],
        "tail not strictly in-order: recovery took longer than a marker interval"
    );
    // The marker machinery, not luck, did this.
    assert!(
        rx.stats().marks_applied > 0,
        "recovery must have exercised the marker rules: {:?}",
        rx.stats()
    );
}

/// Steady background loss: every `PERIOD`th data frame on channel 0
/// vanishes for the whole run. The receiver re-syncs on every marker
/// batch, stays quasi-FIFO throughout, and every surviving packet is
/// delivered exactly once — §5's sustained-loss regime, not just a
/// one-shot burst.
#[test]
fn periodic_loss_stays_quasi_fifo_and_resyncs_on_markers() {
    const CHANNELS: usize = 2;
    const TOTAL: u64 = 800;
    const BURST: u64 = 10;
    const PAYLOAD: usize = 300;
    const PERIOD: u64 = 10;
    // 5 frames per channel per round, markers every 4 rounds: one marker
    // interval spans ~40 global packets. Resync bounds displacement to
    // about one interval; assert with slack.
    const MAX_BACKJUMP: u64 = 150;

    let (a0, b0) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let (a1, b1) = UdpChannel::pair(2048, 1 << 12).unwrap();
    let mut path = NetStripedPath::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(vec![
            ImpairedLink::new(
                a0,
                ChaosPlan::none().loss(DropPolicy::Periodic { period: PERIOD }),
                0,
            ),
            ImpairedLink::new(a1, ChaosPlan::none(), 0),
        ])
        .build();
    let mut rx = NetLogicalReceiver::builder()
        .scheduler(Srr::equal(CHANNELS, QUANTUM))
        .links(vec![b0, b1])
        .build();

    let clock = WallClock::start();
    let mut pkts = Vec::new();
    let mut out = TxBatch::new();
    let mut mk_out: TxBatch<bytes::Bytes> = TxBatch::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);

    let mut next_id = 0u64;
    loop {
        assert!(
            Instant::now() < deadline,
            "stalled at {} packets",
            got.len()
        );
        if next_id < TOTAL {
            for _ in 0..BURST.min(TOTAL - next_id) {
                pkts.push(id_packet(next_id, PAYLOAD));
                next_id += 1;
            }
            path.send_batch(clock.now(), &mut pkts, &mut out);
        } else {
            // Stream over: idle markers heal any loss at the very tail
            // (a dropped final frame must not strand its successors).
            path.send_markers_into(clock.now(), &mut mk_out);
        }
        path.flush();
        rx.sweep(clock.now());
        rx.poll_into(&mut batch);
        for pb in batch.drain() {
            got.push(id_of(&pb));
            rx.recycle(pb);
        }
        if next_id >= TOTAL {
            let expected = TOTAL - path.links()[0].snapshot().dropped_loss;
            if got.len() as u64 >= expected {
                break;
            }
        }
        std::thread::yield_now();
    }

    let dropped = path.links()[0].snapshot().dropped_loss;
    assert!(
        dropped >= TOTAL / (PERIOD * CHANNELS as u64 * 2),
        "the periodic policy must keep firing all run ({dropped} drops)"
    );
    // Conservation: delivered exactly once, nothing invented, nothing
    // lost beyond what the drop policy took.
    let mut uniq = got.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), got.len(), "duplicate deliveries");
    assert_eq!(got.len() as u64 + dropped, TOTAL, "conservation");

    // Quasi-FIFO under sustained loss: reordering happens, but every
    // backward step stays within a marker interval or so of the head —
    // the receiver re-synchronized on each marker instead of drifting.
    let max_backjump = got
        .windows(2)
        .filter(|w| w[1] < w[0])
        .map(|w| w[0] - w[1])
        .max()
        .unwrap_or(0);
    assert!(
        max_backjump <= MAX_BACKJUMP,
        "displacement {max_backjump} exceeds a marker interval bound"
    );
    // And the resync machinery really ran, marker after marker.
    assert!(
        rx.stats().marks_applied >= TOTAL / 80,
        "markers must be applied throughout: {:?}",
        rx.stats()
    );
}

fn arb_control() -> impl Strategy<Value = Control> {
    let arb_marker = (
        0usize..16,
        any::<u64>(),
        any::<i64>(),
        prop::option::of(0u32..u32::MAX),
    )
        .prop_map(|(channel, round, dc, credit)| Marker {
            channel,
            mark: ChannelMark { round, dc },
            credit,
        });
    prop_oneof![
        arb_marker.prop_map(Control::Marker),
        any::<u32>().prop_map(|epoch| Control::ResetRequest { epoch }),
        any::<u32>().prop_map(|epoch| Control::ResetAck { epoch }),
        any::<u64>().prop_map(|nonce| Control::Probe { nonce }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(nonce, incarnation)| Control::ProbeAck { nonce, incarnation }),
        any::<u64>().prop_map(|incarnation| Control::DesyncAlert { incarnation }),
        (any::<u32>(), 1u16..=u16::MAX, any::<u64>()).prop_map(
            |(epoch, live_mask, effective_round)| Control::Membership {
                epoch,
                live_mask,
                effective_round,
            }
        ),
        any::<u32>().prop_map(|epoch| Control::MembershipAck { epoch }),
    ]
}

proptest! {
    /// Differential: a control frame built by the net codec carries the
    /// sim encoder's bytes verbatim and decodes back to the identical
    /// message — one codec, two transports.
    #[test]
    fn net_frame_carries_sim_control_bytes_verbatim(c in arb_control()) {
        let mut wire = Vec::new();
        frame::encode_control_into(&c, &mut wire);
        prop_assert_eq!(wire.len(), FRAME_HEADER_LEN + c.wire_len());
        prop_assert_eq!(&wire[FRAME_HEADER_LEN..], &c.encode()[..]);
        prop_assert!(!frame::is_data_frame(&wire));
        prop_assert_eq!(frame::decode(&wire), Some(Frame::Control(c)));
    }

    /// Data frames round-trip any payload unchanged, zero-copy.
    #[test]
    fn net_data_frames_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..1500)) {
        let mut wire = Vec::new();
        frame::encode_data_into(&payload, &mut wire);
        prop_assert_eq!(wire.len(), FRAME_HEADER_LEN + payload.len());
        prop_assert!(frame::is_data_frame(&wire));
        prop_assert_eq!(frame::decode(&wire), Some(Frame::Data(&payload[..])));
    }

    /// Arbitrary byte soup never panics the decoder and never decodes
    /// into a frame silently wrong — anything that decodes must
    /// re-encode (in its own wire kind) back to the bytes it came from.
    #[test]
    fn net_decode_is_faithful_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match frame::try_decode(&bytes) {
            Err(_) => {} // rejected loudly — never delivered
            Ok(Frame::Data(body)) => {
                let mut re = Vec::new();
                if bytes[2] == frame::KIND_DATA_SUMMED {
                    frame::encode_data_summed_into(body, &mut re);
                } else {
                    frame::encode_data_into(body, &mut re);
                }
                prop_assert_eq!(re, bytes);
            }
            Ok(Frame::Control(c)) => {
                // Padded controls carry their message at a fixed offset
                // (the pad bytes are free); plain ones re-encode whole.
                if bytes[2] == frame::KIND_CONTROL_PADDED {
                    let at = FRAME_HEADER_LEN + frame::PAD_LEN_PREFIX;
                    prop_assert_eq!(&c.encode()[..], &bytes[at..at + c.wire_len()]);
                } else {
                    let mut re = Vec::new();
                    frame::encode_control_into(&c, &mut re);
                    prop_assert_eq!(re, bytes);
                }
            }
        }
    }

    /// Fuzz the decoder with damage a real network inflicts: truncation
    /// at any byte and single-bit flips anywhere in a summed data frame.
    /// The decoder must never panic, and a flipped frame must never be
    /// delivered with a wrong payload (CRC-8 catches every single-bit
    /// flip by construction).
    #[test]
    fn net_decoder_survives_truncation_and_bit_flips(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        bit in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let mut wire = Vec::new();
        frame::encode_data_summed_into(&payload, &mut wire);
        // Truncation at any length: a loud error or a clean decode,
        // never a panic.
        let cut = cut % (wire.len() + 1);
        let _ = frame::try_decode(&wire[..cut]);
        // One flipped bit anywhere in the frame: whatever still decodes
        // as data must carry the original payload.
        let bit = bit % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        if let Ok(Frame::Data(body)) = frame::try_decode(&wire) {
            prop_assert_eq!(body, &payload[..]);
        }
    }
}
