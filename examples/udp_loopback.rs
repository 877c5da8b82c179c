//! The real-socket datapath, end to end in one process: striping a
//! numbered stream across four kernel loopback UDP sockets with the
//! `stripe::net` subsystem, inducing a deterministic loss burst, and
//! watching marker resynchronization restore in-order delivery.
//!
//! Unlike `examples/udp_striping.rs` (which hand-rolls framing on raw
//! sockets to show the mechanism), this demo uses the production
//! datapath: `NetStripedPath` for causal striping + wire framing,
//! `ImpairedLink` for reproducible loss, `NetLogicalReceiver` for pooled
//! zero-copy reception, and a single-threaded poll loop — no threads,
//! no async runtime. The delivered sequence is scored with the §6.3
//! reorder metrics.
//!
//! Run with: `cargo run --example udp_loopback`

use std::time::{Duration, Instant};

use stripe::apps::metrics::analyze;
use stripe::core::receiver::RxBatch;
use stripe::core::sched::Srr;
use stripe::core::sender::MarkerConfig;
use stripe::net::{
    ChaosPlan, DropPolicy, ImpairedLink, NetLogicalReceiver, NetStripedPath, UdpChannel, WallClock,
};
use stripe::transport::TxBatch;

const CHANNELS: usize = 4;
const PACKETS: u64 = 2000;
const PAYLOAD: usize = 512;
const BURST: u64 = 10;
// Data frames 80..85 on channel 0 vanish in flight — a loss burst early
// enough that the tail demonstrates full recovery (Theorem 5.1).
const DROP_FROM: u64 = 80;
const DROP_TO: u64 = 85;

fn main() -> std::io::Result<()> {
    // One connected socket pair per striped channel.
    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 12)?;
        tx_links.push(a);
        rx_links.push(b);
    }

    // Sender: SRR striping + periodic markers, loss injected on channel 0.
    let mut path = NetStripedPath::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(4))
        .links(
            tx_links
                .into_iter()
                .enumerate()
                .map(|(i, l)| {
                    let policy = if i == 0 {
                        DropPolicy::Window {
                            from: DROP_FROM,
                            to: DROP_TO,
                        }
                    } else {
                        DropPolicy::None
                    };
                    ImpairedLink::new(l, ChaosPlan::none().loss(policy), 0)
                })
                .collect(),
        )
        .build();

    // Receiver: an identically configured scheduler replays the sender's
    // decisions; pooled buffers make reception allocation-free.
    let mut rx = NetLogicalReceiver::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .build();

    println!("striping {PACKETS} packets across {CHANNELS} loopback UDP sockets");
    println!("dropping data frames {DROP_FROM}..{DROP_TO} on channel 0 in flight\n");

    let clock = WallClock::start();
    let mut pkts = Vec::new();
    let mut out = TxBatch::new();
    let mut batch = RxBatch::new();
    let mut got: Vec<u64> = Vec::new();
    let expected = PACKETS - (DROP_TO - DROP_FROM);
    let deadline = Instant::now() + Duration::from_secs(10);

    let mut next_id = 0u64;
    while (got.len() as u64) < expected && Instant::now() < deadline {
        if next_id < PACKETS {
            for _ in 0..BURST.min(PACKETS - next_id) {
                let mut payload = vec![0u8; PAYLOAD];
                payload[..8].copy_from_slice(&next_id.to_be_bytes());
                pkts.push(bytes::Bytes::from(payload));
                next_id += 1;
            }
            path.send_batch(clock.now(), &mut pkts, &mut out);
        }
        path.flush(); // retry anything the kernel pushed back
        rx.sweep(clock.now()); // physical reception off every socket
        rx.poll_into(&mut batch); // logical (resequenced) delivery
        for pb in batch.drain() {
            got.push(u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap()));
            rx.recycle(pb); // close the zero-alloc cycle
        }
        std::thread::yield_now();
    }

    let dropped: u64 = path.links().iter().map(|l| l.snapshot().dropped_loss).sum();
    let m = analyze(&got);
    let s = m.stats();

    println!("sent        : {PACKETS}");
    println!("dropped     : {dropped} (in flight, channel 0)");
    println!("delivered   : {}", s.delivered);
    println!("markers sent: {}", path.stats().markers_sent);
    println!("marks applied: {}", rx.stats().marks_applied);
    println!();
    println!("reorder metrics over the delivered sequence (§6.3):");
    println!("  out of order     : {}", s.out_of_order);
    println!("  ooo fraction     : {:.4}", s.ooo_fraction);
    println!("  mean displacement: {:.2}", s.mean_displacement);
    println!("  max displacement : {}", s.max_displacement);
    println!("  longest run      : {}", s.longest_in_order_run);
    if let Some(idx) = s.last_ooo_index {
        let frac = idx as f64 / s.delivered as f64;
        println!(
            "  last disorder at delivery {idx} of {} ({:.0}% mark) — the tail is clean:",
            s.delivered,
            frac * 100.0
        );
        println!("  markers resynchronized the receiver within one interval (Theorem 5.1)");
    } else {
        println!("  fully in-order delivery (Theorem 4.1)");
    }

    assert_eq!(s.delivered, expected, "every surviving packet must arrive");
    Ok(())
}
