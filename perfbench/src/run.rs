//! One benchmark run: set up, measure in windows, drain to quiescence,
//! and hand everything to the report.

use std::time::{Duration, Instant};

use stripe_net::UdpChannel;

use crate::alloc::allocations;
use crate::calib::Calibrator;
use crate::host::{self, Sched};
use crate::meter::{Histogram, Meter, WindowStat};
use crate::now_ns;
use crate::trace::{self, Fold, TracedLink};
use crate::workloads::bulk::Bulk;
use crate::workloads::many::Many;
use crate::workloads::paced::{self, Paced};
use crate::workloads::{Counters, SocketFacts, Workload};

/// Length of one measured window: long enough that every window of the
/// lossy workload holds several loss bursts, so its latency tail is
/// representative.
pub const WINDOW: Duration = Duration::from_secs(1);
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;
/// Span buffer capacity of the traced run.
const SPAN_CAP: usize = 1 << 18;
/// A traced window closes early once fewer spans than this are free —
/// more than one iteration of any workload records.
const SPAN_MARGIN: usize = 4096;
/// A drain that has not reached quiescence by now has lost packets.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One flow, 1200 B, closed-loop bursts through the one-flow wrappers.
    Bulk1Flow,
    /// 10k flows, 64 B, closed loop over a seeded rotating window.
    ManyFlows,
    /// 16 flows, 256 B, open loop at a fixed rate with seeded loss bursts.
    PacedLossy,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Bulk1Flow, Kind::ManyFlows, Kind::PacedLossy];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Bulk1Flow => "bulk_1flow",
            Kind::ManyFlows => "many_flows",
            Kind::PacedLossy => "paced_lossy",
        }
    }

    /// Whether the workload is a closed loop, which runs as fast as the
    /// host lets it, so that every untraced timing is scaled to the
    /// reference host speed (see [`crate::calib`]). The open loop's
    /// goodput is its offered rate and its latency tail is resequencer
    /// hold, both set by its schedule; only its CPU cost and median
    /// latency are scaled.
    pub fn closed_loop(self) -> bool {
        self != Kind::PacedLossy
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (split between the bare and traced phases when
    /// tracing).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the bare one.
    pub trace: bool,
}

/// What one measured phase produced.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Every closed window.
    pub windows: Vec<WindowStat>,
    /// Latency from due time to delivery, pooled over the phase.
    pub latency: Histogram,
    /// One-way delay from hand-over to delivery, pooled over the phase.
    pub one_way: Histogram,
    /// Open-loop generator lateness, pooled over the phase.
    pub lateness: Histogram,
    /// Counter deltas over the phase.
    pub delta: Counters,
    /// Allocations during the phase (must be 0).
    pub allocs: u64,
    /// Sum of window wall times.
    pub wall_ns: u64,
    /// [`now_ns`] at the end of the phase.
    pub end_ns: u64,
    /// Thread user and system CPU ticks during the phase.
    pub ticks: (u64, u64),
    /// Thread scheduler accounting during the phase.
    pub sched: Sched,
    /// Folded spans (traced phase only).
    pub fold: Fold,
    /// Jain's index over per-flow deliveries in the phase.
    pub jain: f64,
    /// Largest resequencer backlog seen (traced phase only).
    pub buffered_max: u64,
    /// Packets the loopback interface carried during the phase.
    pub loopback_packets: Option<u64>,
    /// Host-speed calibration samples, ns each, taken before the first
    /// window and after each one (untraced runs only).
    pub calib: Vec<f64>,
}

/// One stack's whole run: its measured phase and its final state.
#[derive(Debug, Clone)]
pub struct StackRun {
    /// The measured phase.
    pub phase: Phase,
    /// Cumulative counters after the drain (warm-up included).
    pub totals: Counters,
    /// Whether the drain reached quiescence, or why not.
    pub drained: Result<(), String>,
    /// Socket facts.
    pub facts: SocketFacts,
    /// Loss bursts that ended in the phase: (recovery ns, slowest flow).
    pub recoveries: Vec<(u64, u32)>,
    /// Out-of-order deliveries not attributable to any burst.
    pub unattributed: u64,
}

/// A whole run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What was run.
    pub opts: Opts,
    /// Every set-up time, seconds (untraced runs).
    pub setup_s: Vec<f64>,
    /// The bare stack.
    pub bare: StackRun,
    /// The traced stack (traced runs).
    pub traced: Option<StackRun>,
}

fn bare(c: UdpChannel) -> UdpChannel {
    c
}

/// Run the benchmark.
pub fn run(opts: &Opts) -> Outcome {
    type Traced = TracedLink<UdpChannel>;
    let seed = opts.seed;
    match (opts.kind, opts.trace) {
        (Kind::Bulk1Flow, false) => untraced(opts, || Bulk::<_, false>::build(seed, bare)),
        (Kind::Bulk1Flow, true) => traced(
            opts,
            || Bulk::<_, false>::build(seed, bare),
            || Bulk::<Traced, true>::build(seed, TracedLink::new),
        ),
        (Kind::ManyFlows, false) => untraced(opts, || Many::<_, false>::build(seed, bare)),
        (Kind::ManyFlows, true) => traced(
            opts,
            || Many::<_, false>::build(seed, bare),
            || Many::<Traced, true>::build(seed, TracedLink::new),
        ),
        (Kind::PacedLossy, false) => untraced(opts, || Paced::<_, false>::build(seed, bare)),
        (Kind::PacedLossy, true) => traced(
            opts,
            || Paced::<_, false>::build(seed, bare),
            || Paced::<Traced, true>::build(seed, TracedLink::new),
        ),
    }
}

fn windows(seconds: f64) -> usize {
    (seconds / WINDOW.as_secs_f64()).ceil() as usize
}

fn meter(seconds: f64) -> Meter {
    // Traced windows close early on a full span buffer.
    Meter::new(64 * windows(seconds) + 64)
}

/// Build, warm and drain a stack.
fn set_up<W: Workload>(build: impl Fn() -> W, m: &mut Meter) -> W {
    let mut w = build();
    w.warm(m);
    if let Err(e) = drain(&mut w, m) {
        panic!("set-up did not reach quiescence: {e}");
    }
    w
}

fn untraced<W: Workload>(opts: &Opts, build: impl Fn() -> W) -> Outcome {
    let mut m = meter(opts.seconds);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        // Close the previous set-up's sockets before timing the next.
        drop(stack.take());
        let t = Instant::now();
        stack = Some(set_up(&build, &mut m));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = stack.expect("at least one set-up");
    let mut calib =
        Calibrator::new(windows(opts.seconds) + 2).expect("calibration sockets on loopback");
    let bare = run_stack(&mut w, opts.seconds, &mut m, false, Some(&mut calib));
    Outcome {
        opts: *opts,
        setup_s,
        bare,
        traced: None,
    }
}

fn traced<A: Workload, B: Workload>(
    opts: &Opts,
    build_bare: impl Fn() -> A,
    build_traced: impl Fn() -> B,
) -> Outcome {
    let mut m = meter(opts.seconds);
    let mut a = set_up(build_bare, &mut m);
    let mut b = set_up(build_traced, &mut m);
    let half = opts.seconds / 2.0;
    let bare = run_stack(&mut a, half, &mut m, false, None);
    let traced = run_stack(&mut b, half, &mut m, true, None);
    Outcome {
        opts: *opts,
        setup_s: Vec::new(),
        bare,
        traced: Some(traced),
    }
}

fn run_stack<W: Workload>(
    w: &mut W,
    seconds: f64,
    m: &mut Meter,
    traced: bool,
    calib: Option<&mut Calibrator>,
) -> StackRun {
    let phase = measure(w, seconds, m, traced, calib);
    w.end_phase();
    let drained = drain(w, m);
    // Bursts ending in the last two marker intervals may finish
    // recovering only in the drain, which paces differently.
    let cutoff = phase
        .end_ns
        .saturating_sub((2.0 * paced::marker_interval_ms() * 1e6) as u64);
    let (recoveries, unattributed) = match w.recovery() {
        Some(d) => (d.recoveries(cutoff), d.unattributed()),
        None => (Vec::new(), 0),
    };
    StackRun {
        phase,
        totals: w.counters(),
        drained,
        facts: w.socket_facts(),
        recoveries,
        unattributed,
    }
}

/// Take a calibration sample, if calibrating, and let the workload
/// resume after the pause.
fn calibrate<W: Workload>(w: &mut W, calib: &mut Option<&mut Calibrator>) {
    if let Some(c) = calib {
        c.sample().expect("calibration sample on loopback");
        w.resume();
    }
}

/// Measure `w` for `seconds`, window by window, with a calibration
/// sample before the first window and after each one when `calib` is
/// given (outside the windows' wall and CPU time). Nothing between the
/// allocation readings allocates: samples, windows and spans all live in
/// preallocated buffers.
fn measure<W: Workload>(
    w: &mut W,
    seconds: f64,
    m: &mut Meter,
    traced: bool,
    mut calib: Option<&mut Calibrator>,
) -> Phase {
    if let Some(c) = &mut calib {
        c.clear();
    }
    m.reset();
    w.begin_phase();
    if traced {
        trace::arm(SPAN_CAP);
    }
    let mut fold = Fold::default();
    let c0 = w.counters();
    let lo0 = host::loopback_packets();
    let ticks0 = host::cpu_ticks();
    let s0 = host::sched();
    let alloc0 = allocations();
    calibrate(w, &mut calib);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut wall_ns = 0u64;
    while m.has_room() {
        let cpu0 = host::sched();
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        loop {
            w.step(m);
            let t = Instant::now();
            if t.duration_since(t0) >= WINDOW
                || t >= end
                || (traced && trace::near_full(SPAN_MARGIN))
            {
                break;
            }
        }
        let wall = t0.elapsed().as_nanos() as u64;
        let cpu1 = host::sched();
        wall_ns += wall;
        m.close(wall, cpu1.on_cpu_ns - cpu0.on_cpu_ns);
        if traced {
            trace::fold_into(&mut fold);
        }
        calibrate(w, &mut calib);
    }
    let allocs = allocations() - alloc0;
    let end_ns = now_ns();
    let s1 = host::sched();
    let ticks1 = host::cpu_ticks();
    if traced {
        trace::disarm();
    }
    let lo1 = host::loopback_packets();
    let delta = w.counters().since(&c0);
    Phase {
        windows: m.windows().to_vec(),
        latency: m.latency.clone(),
        one_way: m.one_way.clone(),
        lateness: m.lateness.clone(),
        delta,
        allocs,
        wall_ns,
        end_ns,
        ticks: (ticks1.0 - ticks0.0, ticks1.1 - ticks0.1),
        sched: Sched {
            on_cpu_ns: s1.on_cpu_ns - s0.on_cpu_ns,
            runq_ns: s1.runq_ns - s0.runq_ns,
        },
        fold,
        jain: w.jain(),
        buffered_max: w.buffered_max(),
        loopback_packets: lo0.zip(lo1).map(|(a, b)| b - a),
        calib: calib.map_or_else(Vec::new, |c| c.samples().to_vec()),
    }
}

/// Sweep until every offered packet is delivered or accounted for as
/// injected loss — no deadline cut-off: a drain that stalls for
/// [`DRAIN_LIMIT`] is a failed run, never a shortened one. Idle markers
/// go out once the first 2 ms pass without quiescence, then every 5 ms,
/// so a resequencer holding packets behind a loss can finish.
pub fn drain<W: Workload>(w: &mut W, m: &mut Meter) -> Result<(), String> {
    let start = Instant::now();
    let mut kick_at = start + Duration::from_millis(2);
    while !w.quiescent() {
        let now = Instant::now();
        if now.duration_since(start) > DRAIN_LIMIT {
            return Err(format!(
                "not quiescent after {} s: {:?}",
                DRAIN_LIMIT.as_secs(),
                w.counters().check
            ));
        }
        let kick = now >= kick_at;
        if kick {
            kick_at = now + Duration::from_millis(5);
        }
        w.drain_step(m, kick);
        std::thread::sleep(Duration::from_micros(20));
    }
    Ok(())
}
