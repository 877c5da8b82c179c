//! Pins the zero-copy claim for the SHARDED real-socket datapath: the
//! reactor-side sender framing, the SPSC ring hop to the per-channel
//! I/O workers, the batched kernel syscalls, and logical resequencing
//! together perform ZERO heap allocations per packet in steady state —
//! on every thread, since the counting allocator is process-global.
//!
//! Like the other `alloc_counting*` tests, this one owns its binary so
//! the global allocator sees only this test's traffic. Worker threads
//! are spawned (and their rings charged) during warm-up, before the
//! measured window opens.

use stripe_bench::alloc::CountingAlloc;
use stripe_core::receiver::RxBatch;
use stripe_core::sched::Srr;
use stripe_core::sender::MarkerConfig;
use stripe_net::{
    NetLogicalReceiver, NetStripedPath, PooledBuf, ShardConfig, ShardedUdpChannel, UdpChannel,
    WallClock,
};
use stripe_transport::TxBatch;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHANNELS: usize = 4;
const CHUNK: usize = 32;

#[test]
fn steady_state_sharded_datapath_allocates_nothing() {
    let mut tx_links = Vec::new();
    let mut rx_links = Vec::new();
    for _ in 0..CHANNELS {
        let (a, b) = UdpChannel::pair(2048, 1 << 10).unwrap();
        tx_links.push(ShardConfig::new().spawn(a).unwrap());
        rx_links.push(ShardConfig::new().spawn(b).unwrap());
    }
    let mut path = NetStripedPath::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .markers(MarkerConfig::every_rounds(8))
        .links(tx_links)
        .build();
    let mut rx = NetLogicalReceiver::builder()
        .scheduler(Srr::equal(CHANNELS, 1500))
        .links(rx_links)
        .pool_buffers(256)
        .build();
    rx.reserve(1 << 10);

    // One template payload; every packet is an O(1) refcounted view.
    let template = bytes::Bytes::from(vec![0x5au8; 256]);
    let mut pkts: Vec<bytes::Bytes> = Vec::with_capacity(CHUNK);
    let mut out: TxBatch<bytes::Bytes> = TxBatch::with_capacity(CHUNK + 2 * CHANNELS);
    // Workers run ahead asynchronously, so one poll_into can deliver far
    // more than a chunk (stragglers from several chunks resequence at
    // once); size the delivery batch for the worst case up front so the
    // *datapath* is what's being measured, not this Vec's growth.
    let mut got: RxBatch<PooledBuf> = RxBatch::with_capacity(4096);
    let clock = WallClock::start();
    let mut delivered = 0u64;

    let mut spin = |path: &mut NetStripedPath<Srr, ShardedUdpChannel>,
                    rx: &mut NetLogicalReceiver<Srr, ShardedUdpChannel>,
                    chunks: usize|
     -> u64 {
        let mut n = 0u64;
        for _ in 0..chunks {
            pkts.extend((0..CHUNK).map(|_| template.clone()));
            path.send_batch(clock.now(), &mut pkts, &mut out);
            // Sweep until this chunk has crossed both ring hops and the
            // kernel, so the next chunk never piles onto a full ring.
            let mut spins = 0u32;
            loop {
                path.flush();
                rx.sweep(clock.now());
                rx.poll_into(&mut got);
                if !got.is_empty() {
                    break;
                }
                spins += 1;
                assert!(spins < 10_000_000, "sharded datagrams went missing");
                std::thread::yield_now();
            }
            loop {
                n += got.len() as u64;
                for pb in got.drain() {
                    rx.recycle(pb);
                }
                rx.sweep(clock.now());
                rx.poll_into(&mut got);
                if got.is_empty() {
                    break;
                }
            }
        }
        n
    };

    // Warm-up: every ring, pool, queue, spare stash, and scratch buffer
    // reaches its high-water mark, on the workers too.
    delivered += spin(&mut path, &mut rx, 32);

    // Let the libtest harness settle: its main thread lazily allocates
    // an mpmc wait context the first time it blocks on the completion
    // channel, and that init races with the measured window below.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let before = CountingAlloc::allocations();
    delivered += spin(&mut path, &mut rx, 64);
    let allocs = CountingAlloc::allocations() - before;

    assert_eq!(
        allocs, 0,
        "steady-state sharded datapath must not touch the allocator \
         ({allocs} allocations over 64 chunks of {CHUNK} packets)"
    );
    // Drain to quiescence: the workers run ahead asynchronously, so the
    // last chunks' stragglers may still sit in a ring or the kernel when
    // the measured loop returns. Sweep until every sent packet is in or
    // nothing has moved for a whole second (quiescent), then hold the
    // exact ledger: nothing lost, nothing invented.
    let sent = ((32 + 64) * CHUNK) as u64;
    assert_eq!(path.stats().sent, sent);
    let mut idle_sweeps = 0u32;
    while delivered < sent && idle_sweeps < 1000 {
        path.flush();
        rx.sweep(clock.now());
        rx.poll_into(&mut got);
        if got.is_empty() {
            idle_sweeps += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
            continue;
        }
        idle_sweeps = 0;
        delivered += got.len() as u64;
        for pb in got.drain() {
            rx.recycle(pb);
        }
    }
    assert_eq!(delivered, sent, "sharded datapath lost or invented packets");
    assert_eq!(path.stats().dropped_queue, 0);
    assert_eq!(rx.stats().dropped_overflow, 0);
}
