//! Measurement of a phase, window by window: each window's rates and
//! latency percentiles are closed into one [`WindowStat`], and end-to-end
//! figures are medians over windows, so a disturbed window moves nothing.
//! Latencies live in fine-grained histograms, merged into phase-wide
//! ones as windows close.
//!
//! Every buffer is preallocated: recording a sample or closing a window
//! never allocates.

use crate::stats::{self, MIN_BEYOND};

/// Sub-buckets per power of two: values are kept to within 1/1024.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Largest recordable value is just under 2^TOP_BIT ns (~69 s); larger
/// values land in the last bucket.
const TOP_BIT: u32 = 36;
const BUCKETS: usize = (TOP_BIT - SUB_BITS + 1) as usize * SUB;

/// A log-linear histogram of nanosecond values: exact below 1024 ns,
/// then 1024 buckets per power of two.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its buckets once).
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let ns = ns.min((1 << TOP_BIT) - 1);
        let e = 63 - ns.leading_zeros();
        let sub = ((ns >> (e - SUB_BITS)) as usize) & (SUB - 1);
        (e - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Lower edge and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let e = (i / SUB) as u32 + SUB_BITS - 1;
        let sub = (i % SUB) as u64;
        let width = 1u64 << (e - SUB_BITS);
        (((SUB as u64 + sub) * width) as f64, width as f64)
    }

    /// Count one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p`, interpolated within its bucket, or
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = stats::rank_index(self.n as usize, p) as u64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c > rank {
                let (lo, width) = Self::bounds(i);
                return Some(lo + width * (rank - below) as f64 / c as f64);
            }
            below += c;
        }
        None
    }

    /// Percentile `p` only if at least [`MIN_BEYOND`] values lie beyond
    /// it.
    pub fn supported(&self, p: f64) -> Option<f64> {
        if self.n == 0 || stats::beyond(self.n as usize, p) < MIN_BEYOND {
            return None;
        }
        self.percentile(p)
    }

    /// Add every value of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
    }

    /// Forget every value (keeps the buckets).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.n = 0;
    }
}

/// One closed window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStat {
    /// Wall time of the window.
    pub wall_ns: u64,
    /// Payload packets delivered (and verified) in the window.
    pub delivered: u64,
    /// Thread on-CPU time in the window.
    pub cpu_ns: u64,
    /// Time the benchmark spent idle, waiting for a due time.
    pub idle_ns: u64,
    /// Latency samples in the window.
    pub lat_n: u64,
    /// Median latency (due → delivered), ns; 0 without samples.
    pub lat_p50_ns: f64,
    /// 99th-percentile latency, ns; 0 unless at least 10 samples lie
    /// beyond it.
    pub lat_p99_ns: f64,
}

impl WindowStat {
    /// Delivered packets per second.
    pub fn goodput_pps(&self) -> f64 {
        self.delivered as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// On-CPU nanoseconds per delivered packet, not counting the
    /// benchmark's own idle waiting (`None` when nothing was delivered).
    pub fn cpu_ns_per_pkt(&self) -> Option<f64> {
        (self.delivered > 0)
            .then(|| self.cpu_ns.saturating_sub(self.idle_ns) as f64 / self.delivered as f64)
    }
}

/// Counts of the open window, every closed one, and the phase's pooled
/// histograms.
#[derive(Debug)]
pub struct Meter {
    /// Packets delivered in the open window.
    pub delivered: u64,
    /// Idle nanoseconds in the open window.
    pub idle_ns: u64,
    windows: Vec<WindowStat>,
    /// Latency from due time to delivery in the open window.
    window_latency: Histogram,
    /// Latency from when each packet was due to its delivery, over the
    /// closed windows.
    pub latency: Histogram,
    /// One-way delay from when each packet was handed over to its
    /// delivery.
    pub one_way: Histogram,
    /// How late the open-loop generator sent each packet.
    pub lateness: Histogram,
}

impl Meter {
    /// Room for `windows` closed windows.
    pub fn new(windows: usize) -> Self {
        Self {
            delivered: 0,
            idle_ns: 0,
            windows: Vec::with_capacity(windows),
            window_latency: Histogram::new(),
            latency: Histogram::new(),
            one_way: Histogram::new(),
            lateness: Histogram::new(),
        }
    }

    /// Record one delivery: latency from when it was due, one-way delay
    /// from when it was handed over.
    #[inline]
    pub fn delivered(&mut self, lat_ns: u64, owd_ns: u64) {
        self.delivered += 1;
        self.window_latency.record(lat_ns);
        self.one_way.record(owd_ns);
    }

    /// Record how late the generator sent one packet.
    #[inline]
    pub fn lateness(&mut self, ns: u64) {
        self.lateness.record(ns);
    }

    /// Whether another window can be closed without growing storage.
    pub fn has_room(&self) -> bool {
        self.windows.len() < self.windows.capacity()
    }

    /// Close the open window.
    pub fn close(&mut self, wall_ns: u64, cpu_ns: u64) {
        let lat = &self.window_latency;
        let w = WindowStat {
            wall_ns,
            delivered: self.delivered,
            cpu_ns,
            idle_ns: self.idle_ns,
            lat_n: lat.count(),
            lat_p50_ns: lat.percentile(50.0).unwrap_or(0.0),
            lat_p99_ns: lat.supported(99.0).unwrap_or(0.0),
        };
        if self.has_room() {
            self.windows.push(w);
        }
        self.latency.merge(&self.window_latency);
        self.window_latency.clear();
        self.delivered = 0;
        self.idle_ns = 0;
    }

    /// Every closed window.
    pub fn windows(&self) -> &[WindowStat] {
        &self.windows
    }

    /// Start a phase afresh: no windows, no samples (keeps capacity).
    pub fn reset(&mut self) {
        self.windows.clear();
        self.delivered = 0;
        self.idle_ns = 0;
        self.window_latency.clear();
        self.latency.clear();
        self.one_way.clear();
        self.lateness.clear();
    }
}
