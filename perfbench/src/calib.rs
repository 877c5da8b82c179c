//! Host-speed calibration for the closed-loop workloads.
//!
//! The benchmark runs on a few cores of a shared machine whose speed
//! drifts by 10–30 % over minutes as other tenants come and go; a closed
//! loop runs as fast as the host lets it, so its goodput, CPU cost and
//! latency drift with it. Before the first measured window and after
//! each one, the run times a fixed piece of work on the same kernel
//! path, over a loopback socket pair of its own that never touches the
//! striping code: single datagrams sent and received in turn,
//! alternating 64 B and 1200 B (the `many_flows` shape), then 1200 B
//! datagrams sent and received in bursts of 32 (the `bulk_1flow` shape).
//! The closed loops' end-to-end timings are scaled by
//! [`REFERENCE_SAMPLE_NS`] over the run's median sample, so they read as
//! on a host where one sample takes [`REFERENCE_SAMPLE_NS`]: host drift
//! largely cancels, while a change to the striping code moves them as
//! before. The raw figures and the scale stay in the detail line.

use std::net::UdpSocket;
use std::time::Instant;

/// Single-datagram trips per sample.
pub const TRIPS: usize = 4000;
/// Bursts per sample.
pub const BURSTS: usize = 100;
/// Datagrams per burst.
pub const BURST: usize = 32;
/// One sample's duration on the reference host, ns (about 2 % of a
/// window).
pub const REFERENCE_SAMPLE_NS: f64 = 20e6;
/// Datagram sizes the single trips alternate between: the smallest and
/// largest payloads the workloads send.
const SIZES: [usize; 2] = [64, 1200];
/// Datagram size in bursts.
const BURST_SIZE: usize = 1200;

/// A loopback socket pair that times calibration samples.
#[derive(Debug)]
pub struct Calibrator {
    tx: UdpSocket,
    rx: UdpSocket,
    out: [u8; BURST_SIZE],
    back: [u8; 2048],
    /// Nanoseconds per sample.
    samples: Vec<f64>,
}

impl Calibrator {
    /// Bind the pair and make room for `samples` samples.
    pub fn new(samples: usize) -> std::io::Result<Self> {
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        tx.connect(rx.local_addr()?)?;
        rx.connect(tx.local_addr()?)?;
        let mut c = Self {
            tx,
            rx,
            out: [0x5a; BURST_SIZE],
            back: [0; 2048],
            samples: Vec::with_capacity(samples),
        };
        // One untimed pass warms the sockets and the kernel path.
        c.work()?;
        Ok(c)
    }

    fn expect(&mut self, len: usize) -> std::io::Result<()> {
        let got = self.rx.recv(&mut self.back)?;
        if got != len {
            return Err(std::io::Error::other(format!(
                "calibration datagram of {len} B arrived as {got} B"
            )));
        }
        Ok(())
    }

    /// One sample's work.
    fn work(&mut self) -> std::io::Result<()> {
        for i in 0..TRIPS {
            let len = SIZES[i % SIZES.len()];
            self.tx.send(&self.out[..len])?;
            self.expect(len)?;
        }
        for _ in 0..BURSTS {
            for _ in 0..BURST {
                self.tx.send(&self.out)?;
            }
            for _ in 0..BURST {
                self.expect(BURST_SIZE)?;
            }
        }
        Ok(())
    }

    /// Time one sample (never allocates while there is room for it).
    pub fn sample(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        self.work()?;
        let ns = t.elapsed().as_nanos() as f64;
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(ns);
        }
        Ok(())
    }

    /// Forget every sample (keeps the capacity).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Every sample, ns.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// What a closed loop's times are multiplied by (and its rates divided
/// by): the reference sample over the median measured one, or 1 without
/// samples. Below 1 on a host slower than the reference.
pub fn time_scale(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    REFERENCE_SAMPLE_NS / crate::stats::median(samples)
}
