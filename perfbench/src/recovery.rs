//! The recovery detector: how long after a loss burst ends until every
//! flow delivers in FIFO order again (Theorem 5.1's claim, measured).
//!
//! A delivery is *out of order* when its flow already delivered a higher
//! sequence number; a gap (a lost packet) is not disorder. Each disorder
//! is charged to the latest burst that started at or before it. A
//! burst's recovery time is its last disorder minus its end — the moment
//! the slowest flow's FIFO order was restored — or zero when it caused
//! none.

/// One scripted loss burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Burst {
    start_ns: u64,
    end_ns: Option<u64>,
    last_disorder_ns: Option<u64>,
    slowest_flow: u32,
}

/// Tracks bursts and per-flow order. Preallocated: recording never
/// allocates up to the burst capacity given at construction.
#[derive(Debug, Clone)]
pub struct RecoveryDetector {
    bursts: Vec<Burst>,
    /// Per flow: one past the highest sequence delivered (0 = none yet).
    next: Vec<u64>,
    disorder: u64,
    unattributed: u64,
}

impl RecoveryDetector {
    /// A detector for `flows` flows and up to `bursts` bursts.
    pub fn new(flows: usize, bursts: usize) -> Self {
        Self {
            bursts: Vec::with_capacity(bursts),
            next: vec![0; flows],
            disorder: 0,
            unattributed: 0,
        }
    }

    /// A burst started at `t_ns` (ignored past capacity).
    pub fn burst_started(&mut self, t_ns: u64) {
        if self.bursts.len() < self.bursts.capacity() {
            self.bursts.push(Burst {
                start_ns: t_ns,
                end_ns: None,
                last_disorder_ns: None,
                slowest_flow: 0,
            });
        }
    }

    /// The open burst ended at `t_ns`.
    pub fn burst_ended(&mut self, t_ns: u64) {
        if let Some(b) = self.bursts.last_mut() {
            if b.end_ns.is_none() {
                b.end_ns = Some(t_ns);
            }
        }
    }

    /// Flow `flow` delivered sequence `seq` at `t_ns`. Returns whether
    /// the delivery was out of order.
    pub fn delivered(&mut self, flow: u32, seq: u64, t_ns: u64) -> bool {
        let next = &mut self.next[flow as usize];
        if seq >= *next {
            *next = seq + 1;
            return false;
        }
        self.disorder += 1;
        match self.bursts.iter_mut().rev().find(|b| b.start_ns <= t_ns) {
            Some(b) => {
                if b.last_disorder_ns.is_none_or(|d| t_ns >= d) {
                    b.last_disorder_ns = Some(t_ns);
                    b.slowest_flow = flow;
                }
            }
            None => self.unattributed += 1,
        }
        true
    }

    /// Out-of-order deliveries so far.
    pub fn disorder(&self) -> u64 {
        self.disorder
    }

    /// Out-of-order deliveries before any burst started (a lossless
    /// stretch must have none).
    pub fn unattributed(&self) -> u64 {
        self.unattributed
    }

    /// Recovery time in nanoseconds of every burst that ended by
    /// `cutoff_ns`, in order, with the flow that recovered last.
    pub fn recoveries(&self, cutoff_ns: u64) -> Vec<(u64, u32)> {
        self.bursts
            .iter()
            .filter_map(|b| {
                let end = b.end_ns.filter(|&e| e <= cutoff_ns)?;
                let took = b.last_disorder_ns.map_or(0, |d| d.saturating_sub(end));
                Some((took, b.slowest_flow))
            })
            .collect()
    }
}
