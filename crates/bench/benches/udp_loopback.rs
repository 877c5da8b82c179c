//! Live-traffic bench: the real-socket datapath over kernel loopback
//! UDP — the first number in this repo measured through an actual
//! network stack rather than the simulator.
//!
//! For each (channels, payload) cell the bench pushes a fixed packet
//! count through `NetStripedPath` → kernel loopback → `NetLogicalReceiver`
//! and reports packets/sec, the delivered-sequence reorder rate (the
//! paper's §6.3 metric, from `stripe_apps::metrics`), allocations per
//! packet from the counting global allocator — the wall-clock proof of
//! the zero-alloc steady state — plus the syscall-batching columns the
//! mmsg datapath adds: frames per `sendmmsg`/`recvmmsg` call ("tx occ"/
//! "rx occ") and total syscalls per delivered packet ("sys/pkt"). A
//! final cell injects periodic data loss through an `ImpairedLink` to
//! show marker resynchronization holding the reorder rate down under
//! real loss.
//!
//! Every `UdpChannel` is driven from the bench thread, syscalls batched
//! via `send_run_owned` + end-of-burst `flush`.
//!
//! Writes `BENCH_udp_loopback.json` at the repo root. Set
//! `STRIPE_BENCH_SMOKE=1` for a fast CI smoke run and
//! `STRIPE_NET_FALLBACK=1` to force the portable per-frame syscall path.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stripe_apps::metrics::ReorderMetrics;
use stripe_bench::alloc::CountingAlloc;
use stripe_bench::table::Table;
use stripe_core::receiver::{Arrival, RxBatch};
use stripe_core::sched::Srr;
use stripe_core::sender::MarkerConfig;
use stripe_net::{
    ChaosPlan, DropPolicy, ImpairedLink, NetLogicalReceiver, NetStripedPath, PooledBuf, UdpChannel,
    UdpChannelSnapshot, WallClock,
};
use stripe_transport::TxBatch;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const QUANTUM: i64 = 1500;
/// Packets per send_batch. With the deferred `send_run_owned` path each
/// burst becomes ~BURST/channels frames per channel submitted in one
/// `sendmmsg`, so the burst size directly sets batch occupancy.
const BURST: usize = 128;
/// Kernel socket buffer request: large enough that a full burst plus
/// resequencer slack never overflows loopback.
const SOCK_BUF: usize = 1 << 22;

type Path = NetStripedPath<Srr, ImpairedLink<UdpChannel>>;
type Rx = NetLogicalReceiver<Srr, UdpChannel>;

/// Aggregate syscall counters across one side's links.
#[derive(Debug, Clone, Copy, Default)]
struct SyscallAgg {
    sent_frames: u64,
    send_syscalls: u64,
    recv_frames: u64,
    recv_syscalls: u64,
}

impl SyscallAgg {
    fn add(&mut self, s: &UdpChannelSnapshot) {
        self.sent_frames += s.sent_frames;
        self.send_syscalls += s.send_syscalls;
        self.recv_frames += s.recv_frames;
        self.recv_syscalls += s.recv_syscalls;
    }
    fn delta(self, earlier: SyscallAgg) -> SyscallAgg {
        SyscallAgg {
            sent_frames: self.sent_frames - earlier.sent_frames,
            send_syscalls: self.send_syscalls - earlier.send_syscalls,
            recv_frames: self.recv_frames - earlier.recv_frames,
            recv_syscalls: self.recv_syscalls - earlier.recv_syscalls,
        }
    }
}

fn tx_agg(path: &Path) -> SyscallAgg {
    let mut a = SyscallAgg::default();
    for l in path.links() {
        a.add(&l.inner().stats());
    }
    a
}

fn rx_agg(rx: &Rx) -> SyscallAgg {
    let mut a = SyscallAgg::default();
    for l in rx.links() {
        a.add(&l.stats());
    }
    a
}

struct Run {
    pkts_per_sec: f64,
    bytes_per_sec: f64,
    allocs_per_pkt: f64,
    ooo_fraction: f64,
    max_displacement: u64,
    delivered: u64,
    lost: u64,
    wall_secs: f64,
    /// Frames per sendmmsg on the striping side (batch occupancy).
    tx_occupancy: f64,
    /// Frames per recvmmsg on the receiving side.
    rx_occupancy: f64,
    /// Total (send + recv) syscalls per delivered packet.
    syscalls_per_pkt: f64,
    /// Kernel-reported receive-buffer overflow estimate (`/proc/net/udp`).
    kernel_drops: u64,
    /// Effective SO_SNDBUF/SO_RCVBUF granted by the kernel.
    sndbuf: u64,
    rcvbuf: u64,
}

/// Reusable driving state: every buffer here reaches its high-water mark
/// during warm-up and is recycled thereafter.
struct Harness {
    clock: WallClock,
    pkts: Vec<Vec<u8>>,
    send_pool: Vec<Vec<u8>>,
    out: TxBatch<Vec<u8>>,
    batch: RxBatch<PooledBuf>,
    ids: Vec<u64>,
    next_id: u64,
}

impl Harness {
    /// Send one burst of `payload`-byte packets, ids stamped in the first
    /// 8 bytes, reusing pooled send buffers.
    fn send_burst(&mut self, path: &mut Path, payload: usize, until: u64) {
        let n = (BURST as u64).min(until.saturating_sub(self.next_id)) as usize;
        for _ in 0..n {
            let mut p = self.send_pool.pop().unwrap_or_default();
            p.resize(payload, 0);
            p[..8].copy_from_slice(&self.next_id.to_be_bytes());
            self.pkts.push(p);
            self.next_id += 1;
        }
        path.send_batch(self.clock.now(), &mut self.pkts, &mut self.out);
        // Reclaim the payload buffers the batch carried out.
        for t in self.out.drain() {
            if let Arrival::Data(p) = t.item {
                self.send_pool.push(p);
            }
        }
    }

    /// One receive pass: flush backlogs, sweep the sockets, record ids.
    fn sweep(&mut self, path: &mut Path, rx: &mut Rx) {
        path.flush();
        rx.sweep(self.clock.now());
        rx.poll_into(&mut self.batch);
        for pb in self.batch.drain() {
            self.ids
                .push(u64::from_be_bytes(pb.as_slice()[..8].try_into().unwrap()));
            rx.recycle(pb);
        }
    }

    /// Block the burst loop until every link's send backlog has drained
    /// (links only backlog on kernel backpressure, rare on loopback).
    fn wait_backlog(&mut self, path: &mut Path, rx: &mut Rx) {
        while path.backlog() > 0 {
            std::thread::yield_now();
            self.sweep(path, rx);
        }
    }

    /// Sweep until `expect` ids have arrived; lost frames lower the bar as
    /// they are detected. Idle markers are re-sent periodically so losses
    /// near the stream tail cannot wedge the resequencer.
    fn drain(&mut self, path: &mut Path, rx: &mut Rx, sent: u64, deadline: Duration) {
        let t0 = Instant::now();
        let mut spins = 0u32;
        while (self.ids.len() as u64) < sent.saturating_sub(losses(path)) {
            self.sweep(path, rx);
            spins += 1;
            if spins.is_multiple_of(64) {
                path.send_markers_into(self.clock.now(), &mut self.out);
                self.out.clear();
            }
            if t0.elapsed() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
    }
}

fn losses(path: &Path) -> u64 {
    path.links().iter().map(|l| l.snapshot().dropped_loss).sum()
}

/// Drive `total` packets of `payload` bytes over `channels` loopback
/// links; `drop_period` = 0 for lossless, or N to drop one data frame
/// in every N on channel 0.
fn run_live(channels: usize, payload: usize, total: u64, drop_period: u64) -> Run {
    let (tx_links, rx_links) = loopback_pairs(channels);
    let drops: Vec<ImpairedLink<UdpChannel>> = tx_links
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let plan = if drop_period > 0 && i == 0 {
                ChaosPlan::none().loss(DropPolicy::Periodic {
                    period: drop_period,
                })
            } else {
                ChaosPlan::none()
            };
            ImpairedLink::new(l, plan, 0)
        })
        .collect();
    let mut path = NetStripedPath::builder()
        .scheduler(Srr::equal(channels, QUANTUM))
        .markers(MarkerConfig::every_rounds(4))
        .links(drops)
        .build();
    let mut rx = NetLogicalReceiver::builder()
        .scheduler(Srr::equal(channels, QUANTUM))
        .links(rx_links)
        .pool_buffers(1 << 10)
        .build();
    rx.reserve(1 << 12);

    let mut h = Harness {
        clock: WallClock::start(),
        pkts: Vec::with_capacity(BURST),
        send_pool: Vec::with_capacity(BURST * 4),
        out: TxBatch::with_capacity(BURST + 2 * channels),
        batch: RxBatch::with_capacity(4096),
        ids: Vec::with_capacity(total as usize),
        next_id: 0,
    };

    // Warm-up: pools, queues, and scratch reach their high-water marks.
    let warm = (BURST * 8) as u64;
    while h.next_id < warm {
        h.send_burst(&mut path, payload, warm);
        h.sweep(&mut path, &mut rx);
        h.wait_backlog(&mut path, &mut rx);
    }
    h.drain(&mut path, &mut rx, warm, Duration::from_secs(10));
    h.ids.clear();
    let warm_lost = losses(&path);
    let tx0 = tx_agg(&path);
    let rx0 = rx_agg(&rx);

    // Measured window.
    let end = warm + total;
    let alloc0 = CountingAlloc::allocations();
    let t0 = Instant::now();
    while h.next_id < end {
        h.send_burst(&mut path, payload, end);
        h.sweep(&mut path, &mut rx);
        h.wait_backlog(&mut path, &mut rx);
    }
    // drain() subtracts cumulative losses, so offset the target by the
    // warm-up's share: the bar becomes `total - losses_this_window`.
    h.drain(
        &mut path,
        &mut rx,
        total + warm_lost,
        Duration::from_secs(10),
    );
    let wall = t0.elapsed().as_secs_f64();
    let allocs = CountingAlloc::allocations() - alloc0;
    let tx_d = tx_agg(&path).delta(tx0);
    let rx_d = rx_agg(&rx).delta(rx0);

    let mut m = ReorderMetrics::new();
    for &id in &h.ids {
        m.record(id);
    }
    let s = m.stats();
    let delivered = h.ids.len() as u64;
    // Kernel overflow + effective buffer sizes: sampled once, after the
    // measured window (procfs reads allocate).
    let mut kernel_drops = 0u64;
    let (mut sndbuf, mut rcvbuf) = (0u64, 0u64);
    for l in path.links_mut() {
        sndbuf = l.inner_mut().stats_sampled().sndbuf;
    }
    for l in rx.links_mut() {
        let snap = l.stats_sampled();
        kernel_drops += snap.dropped_rcvbuf;
        rcvbuf = snap.rcvbuf;
    }
    Run {
        pkts_per_sec: delivered as f64 / wall,
        bytes_per_sec: (delivered as usize * payload) as f64 / wall,
        allocs_per_pkt: allocs as f64 / delivered.max(1) as f64,
        ooo_fraction: s.ooo_fraction,
        max_displacement: s.max_displacement,
        delivered,
        lost: total.saturating_sub(delivered),
        wall_secs: wall,
        tx_occupancy: tx_d.sent_frames as f64 / (tx_d.send_syscalls.max(1)) as f64,
        rx_occupancy: rx_d.recv_frames as f64 / (rx_d.recv_syscalls.max(1)) as f64,
        syscalls_per_pkt: (tx_d.send_syscalls + rx_d.recv_syscalls) as f64
            / delivered.max(1) as f64,
        kernel_drops,
        sndbuf,
        rcvbuf,
    }
}

/// Connected loopback channel pairs with the bench's socket tuning.
fn loopback_pairs(channels: usize) -> (Vec<UdpChannel>, Vec<UdpChannel>) {
    let mut tx = Vec::new();
    let mut rx = Vec::new();
    for _ in 0..channels {
        let (a, b) = UdpChannel::builder(2048)
            .queue_cap(1 << 12)
            .sndbuf(SOCK_BUF)
            .rcvbuf(SOCK_BUF)
            .pair()
            .expect("bind loopback");
        tx.push(a);
        rx.push(b);
    }
    (tx, rx)
}

fn main() {
    let smoke = std::env::var("STRIPE_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let total: u64 = if smoke { 4_096 } else { 131_072 };

    println!("== live traffic over kernel loopback UDP ==");
    println!(
        "   ({total} packets per cell, burst {BURST}, markers every 4 rounds, \
         {} syscall path)\n",
        if stripe_net::sys::fallback_forced() {
            "forced per-frame fallback"
        } else {
            "batched mmsg"
        }
    );

    let mut table = Table::new(&[
        "channels",
        "payload",
        "loss",
        "Mpkt/s",
        "MB/s",
        "alloc/pkt",
        "ooo frac",
        "max disp",
        "tx occ",
        "rx occ",
        "sys/pkt",
    ]);
    let mut json = String::from("{\n  \"bench\": \"udp_loopback\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"results\": [\n");

    let mut first = true;
    let mut headline: Option<f64> = None;
    // (channels, payload, drop_period): a lossless sweep, then real loss.
    let cells: &[(usize, usize, u64)] = &[(2, 256, 0), (4, 256, 0), (4, 1200, 0), (4, 1200, 101)];
    for &(channels, payload, drop_period) in cells {
        let r = run_live(channels, payload, total, drop_period);
        if channels == 4 && payload == 1200 && drop_period == 0 {
            headline = Some(r.pkts_per_sec);
        }
        let loss_label = if drop_period == 0 {
            "none".to_string()
        } else {
            format!("1/{drop_period}")
        };
        table.row_owned(vec![
            channels.to_string(),
            payload.to_string(),
            loss_label,
            format!("{:.3}", r.pkts_per_sec / 1e6),
            format!("{:.1}", r.bytes_per_sec / 1e6),
            format!("{:.3}", r.allocs_per_pkt),
            format!("{:.4}", r.ooo_fraction),
            r.max_displacement.to_string(),
            format!("{:.1}", r.tx_occupancy),
            format!("{:.1}", r.rx_occupancy),
            format!("{:.3}", r.syscalls_per_pkt),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"channels\": {channels}, \
             \"payload\": {payload}, \"drop_period\": {drop_period}, \
             \"pkts_per_sec\": {:.0}, \"bytes_per_sec\": {:.0}, \
             \"allocs_per_packet\": {:.4}, \"reorder_fraction\": {:.6}, \
             \"max_displacement\": {}, \"delivered\": {}, \"lost\": {}, \
             \"wall_secs\": {:.4}, \
             \"tx_batch_occupancy\": {:.2}, \"rx_batch_occupancy\": {:.2}, \
             \"syscalls_per_packet\": {:.4}, \"kernel_rcvbuf_drops\": {}, \
             \"sndbuf\": {}, \"rcvbuf\": {}}}",
            r.pkts_per_sec,
            r.bytes_per_sec,
            r.allocs_per_pkt,
            r.ooo_fraction,
            r.max_displacement,
            r.delivered,
            r.lost,
            r.wall_secs,
            r.tx_occupancy,
            r.rx_occupancy,
            r.syscalls_per_pkt,
            r.kernel_drops,
            r.sndbuf,
            r.rcvbuf
        );
    }
    json.push_str("\n  ],\n");
    let headline = headline.expect("the 4-channel/1200B lossless cell always runs");
    let _ = writeln!(json, "  \"pkts_per_sec_4ch_1200B\": {headline:.0},");
    let _ = writeln!(
        json,
        "  \"headline\": {{\"metric\": \"pkts_per_sec_4ch_1200B\", \
         \"value\": {headline:.0}, \"units\": \"packets/sec\"}}"
    );
    json.push_str("}\n");

    println!("{}", table.render());
    println!(
        "\nheadline (4 channels, 1200B, lossless): {:.2} Mpkt/s",
        headline / 1e6
    );

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_udp_loopback.json");
    std::fs::write(out_path, &json).expect("write BENCH_udp_loopback.json");
    println!("wrote {out_path}");
}
