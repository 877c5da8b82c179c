//! Turning a run into named metrics, a correctness verdict, the detail
//! line (host fingerprint, per-metric medians and percentiles, ledger)
//! and the one-line result.

use std::fmt::Write as _;

use crate::calib;
use crate::host;
use crate::meter::{Histogram, WindowStat};
use crate::run::{Kind, Outcome, Phase, StackRun, WINDOW};
use crate::stats::{self, Summary};
use crate::trace::Name;
use crate::workloads::paced;

/// `trace.unexplained_fraction` above this fails a traced run of an
/// optimized build: the spans no longer account for where the time went.
pub const UNEXPLAINED_TOLERANCE: f64 = 0.10;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-window series of a phase, for medians.
fn series(w: &[WindowStat], f: impl Fn(&WindowStat) -> Option<f64>) -> Vec<f64> {
    w.iter().filter_map(f).collect()
}

fn goodput(p: &Phase) -> Vec<f64> {
    series(&p.windows, |w| Some(w.goodput_pps()))
}

fn cpu_per_pkt(p: &Phase) -> Vec<f64> {
    series(&p.windows, WindowStat::cpu_ns_per_pkt)
}

fn lat_p50_us(p: &Phase) -> Vec<f64> {
    series(&p.windows, |w| (w.lat_n > 0).then(|| w.lat_p50_ns / 1e3))
}

fn lat_p99_us(p: &Phase) -> Vec<f64> {
    series(&p.windows, |w| {
        (w.lat_p99_ns > 0.0).then(|| w.lat_p99_ns / 1e3)
    })
}

/// Percentile `p` of a pooled histogram in `unit_ns`, 0 when the sample
/// cannot support it.
fn pooled(h: &Histogram, p: f64, unit_ns: f64) -> f64 {
    h.supported(p).map_or(0.0, |v| v / unit_ns)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order,
/// with host-speed-bound timings scaled to the reference host speed (see
/// [`Kind::closed_loop`]).
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let p = &o.bare.phase;
    let scale = calib::time_scale(&p.calib);
    // What the open loop's schedule sets is left as measured.
    let loop_scale = if o.opts.kind.closed_loop() {
        scale
    } else {
        1.0
    };
    vec![
        metric(
            "goodput_pps",
            median_or_zero(&goodput(p)) / loop_scale,
            "pkt/s",
        ),
        metric(
            "cpu_ns_per_pkt",
            median_or_zero(&cpu_per_pkt(p)) * scale,
            "ns/pkt",
        ),
        metric(
            "latency_p50_us",
            median_or_zero(&lat_p50_us(p)) * scale,
            "us",
        ),
        metric(
            "latency_p99_us",
            median_or_zero(&lat_p99_us(p)) * loop_scale,
            "us",
        ),
        metric("jain_index", p.jain, "ratio"),
        // A closed loop's set-up is mostly warm-up traffic, as bound to
        // host speed as its timings; the open loop's warm-up is paced.
        metric("setup_s", median_or_zero(&o.setup_s) * loop_scale, "s"),
    ]
}

/// Theorem 5.1's bound for `paced_lossy`: one marker interval at the
/// offered rate plus the measured median one-way delay, in ms.
pub fn recovery_bound_ms(p: &Phase) -> f64 {
    paced::marker_interval_ms() + pooled(&p.one_way, 50.0, 1e6)
}

/// Median recovery over every burst of both stacks, ms (0 without
/// bursts).
fn recovery_ms(o: &Outcome) -> f64 {
    let all: Vec<f64> = stacks(o)
        .flat_map(|s| s.recoveries.iter().map(|&(ns, _)| ns as f64 / 1e6))
        .collect();
    median_or_zero(&all)
}

fn stacks(o: &Outcome) -> impl Iterator<Item = &StackRun> {
    std::iter::once(&o.bare).chain(o.traced.as_ref())
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// Figures a workload does not exercise read 0.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let t = &o
        .traced
        .as_ref()
        .expect("per-layer metrics need a traced run")
        .phase;
    let b = &o.bare.phase;
    let d = &t.delta;
    let f = &t.fold;
    let pkts = d.check.delivered.max(1) as f64;
    let per_pkt = |ns: u64| ns as f64 / pkts;
    let s = &d.sockets;
    let wall = t.wall_ns.max(1) as f64;
    let (user, sys) = t.ticks;
    let lossy = o.opts.kind == Kind::PacedLossy;
    let recovery = recovery_ms(o);
    let bound = recovery_bound_ms(b);
    let attempted: u64 = stacks(o).map(|s| s.phase.delta.offered).sum();
    let failed = verdict(o).failed;
    let allocs = stacks(o)
        .map(|s| ratio(s.phase.allocs as f64, s.phase.delta.check.delivered as f64))
        .fold(0.0, f64::max);
    let (disorder, delivered) = stacks(o).fold((0, 0), |(x, y), s| {
        (
            x + s.phase.delta.disorder,
            y + s.phase.delta.check.delivered,
        )
    });
    let kernel_drops: u64 = stacks(o).map(|s| s.facts.kernel_drops).sum();
    vec![
        metric(
            "path.send_batch.self_ns_per_pkt",
            per_pkt(f.own(Name::PathSend)),
            "ns/pkt",
        ),
        metric(
            "recv.sweep.self_ns_per_pkt",
            per_pkt(f.own(Name::RecvSweep)),
            "ns/pkt",
        ),
        metric(
            "recv.poll.ns_per_pkt",
            per_pkt(f.total(Name::RecvPoll)),
            "ns/pkt",
        ),
        metric(
            "server.enqueue.ns_per_pkt",
            per_pkt(f.total(Name::ServerEnqueue)),
            "ns/pkt",
        ),
        metric(
            "server.pump.self_ns_per_pkt",
            per_pkt(f.own(Name::ServerPump)),
            "ns/pkt",
        ),
        metric(
            "server.pump.runs_per_pkt",
            s.calls.tx_runs as f64 / pkts,
            "1/pkt",
        ),
        metric(
            "server.pump.markers_per_pkt",
            d.markers_sent as f64 / pkts,
            "1/pkt",
        ),
        metric(
            "server.backpressure_per_pkt",
            d.backpressure as f64 / pkts,
            "1/pkt",
        ),
        metric("udp.tx.ns_per_pkt", per_pkt(f.total(Name::UdpTx)), "ns/pkt"),
        metric(
            "udp.tx.syscalls_per_pkt",
            s.send_syscalls as f64 / pkts,
            "1/pkt",
        ),
        metric(
            "udp.tx.frames_per_syscall",
            ratio(s.sent_frames as f64, s.send_syscalls as f64),
            "frames/call",
        ),
        metric("udp.rx.ns_per_pkt", per_pkt(f.total(Name::UdpRx)), "ns/pkt"),
        metric(
            "udp.rx.syscalls_per_pkt",
            s.recv_syscalls as f64 / pkts,
            "1/pkt",
        ),
        metric(
            "udp.rx.frames_per_syscall",
            ratio(s.recv_frames as f64, s.recv_syscalls as f64),
            "frames/call",
        ),
        metric(
            "udp.rx.empty_fraction",
            ratio(s.calls.rx_empty as f64, s.calls.rx_calls as f64),
            "ratio",
        ),
        metric("udp.rx.kernel_drops", kernel_drops as f64, "count"),
        metric(
            "demux.sweep.self_ns_per_pkt",
            per_pkt(f.own(Name::DemuxSweep)),
            "ns/pkt",
        ),
        metric(
            "demux.poll.ns_per_pkt",
            per_pkt(f.total(Name::DemuxPoll)),
            "ns/pkt",
        ),
        metric(
            "demux.poll.hit_fraction",
            ratio(d.poll_hits as f64, d.polls as f64),
            "ratio",
        ),
        metric("receiver.buffered_max", t.buffered_max as f64, "count"),
        metric("receiver.skips_per_pkt", d.skips as f64 / pkts, "1/pkt"),
        metric(
            "receiver.marks_applied_per_pkt",
            d.marks_applied as f64 / pkts,
            "1/pkt",
        ),
        metric(
            "receiver.dropped_overflow",
            d.dropped_overflow as f64,
            "count",
        ),
        metric(
            "chaos.dropped_fraction",
            ratio(s.chaos_dropped as f64, d.offered as f64),
            "ratio",
        ),
        metric("gen.lateness_p99_us", pooled(&t.lateness, 99.0, 1e3), "us"),
        metric(
            "bench.idle_fraction",
            f.total(Name::Idle) as f64 / wall,
            "ratio",
        ),
        metric(
            "proc.kernel_fraction",
            ratio(sys as f64, (user + sys) as f64),
            "ratio",
        ),
        metric(
            "proc.runq_wait_fraction",
            t.sched.runq_ns as f64 / wall,
            "ratio",
        ),
        metric(
            "trace.overhead_fraction",
            1.0 - ratio(median_or_zero(&goodput(t)), median_or_zero(&goodput(b))),
            "ratio",
        ),
        metric("trace.unexplained_fraction", unexplained(t), "ratio"),
        metric("allocs_per_pkt", allocs, "1/pkt"),
        metric(
            "failed_fraction",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        metric(
            "reorder_fraction",
            ratio(disorder as f64, delivered as f64),
            "ratio",
        ),
        metric("recovery_ms", if lossy { recovery } else { 0.0 }, "ms"),
        metric(
            "recovery_bound_ratio",
            if lossy { ratio(recovery, bound) } else { 0.0 },
            "ratio",
        ),
    ]
}

/// Share of the traced wall time no top-level span covers.
pub fn unexplained(t: &Phase) -> f64 {
    let wall = t.wall_ns.max(1) as f64;
    (wall - t.fold.top_ns as f64) / wall
}

/// Whether the run was correct, and what it attempted and failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Every check passed.
    pub correct: bool,
    /// Packets offered in the measured phases.
    pub attempted: u64,
    /// Failed operations: refused sends, corrupt, cross-flow or
    /// out-of-order deliveries, and packets missing from the ledger.
    pub failed: u64,
    /// Every failed check, in words.
    pub problems: Vec<String>,
}

/// Check every stack of the run.
pub fn verdict(o: &Outcome) -> Verdict {
    let mut problems = Vec::new();
    let mut failed = 0;
    let lossless = o.opts.kind != Kind::PacedLossy;
    for (label, s) in [("bare", Some(&o.bare)), ("traced", o.traced.as_ref())] {
        let Some(s) = s else { continue };
        let t = &s.totals;
        let c = &t.check;
        failed += c.failures();
        if c.failures() > 0 {
            problems.push(format!("{label}: {c:?}"));
        }
        if let Err(e) = &s.drained {
            problems.push(format!("{label}: drain failed: {e}"));
        }
        // The exact ledger: every offered packet delivered, or dropped
        // by the chaos layer and counted there. (A refused send already
        // fails the run; it also shows up here when it was offered.)
        let accounted = c.delivered + t.sockets.chaos_dropped;
        if accounted != t.offered {
            failed += accounted.abs_diff(t.offered);
            problems.push(format!(
                "{label}: ledger open: delivered {} + injected loss {} != offered {}",
                c.delivered, t.sockets.chaos_dropped, t.offered
            ));
        }
        if lossless && t.sockets.chaos_dropped > 0 {
            problems.push(format!("{label}: loss on a lossless workload"));
        }
        if s.phase.allocs > 0 {
            problems.push(format!(
                "{label}: {} allocations in the measured phase",
                s.phase.allocs
            ));
        }
        if t.dropped_overflow > 0 {
            problems.push(format!(
                "{label}: {} resequencer overflow drops",
                t.dropped_overflow
            ));
        }
        if s.unattributed > 0 {
            problems.push(format!(
                "{label}: {} out-of-order deliveries outside any loss burst",
                s.unattributed
            ));
        }
        if s.phase.delta.check.delivered == 0 {
            problems.push(format!("{label}: nothing delivered in the measured phase"));
        }
        if s.phase.fold.overflow > 0 {
            problems.push(format!("{label}: {} spans dropped", s.phase.fold.overflow));
        }
    }
    // The tolerance is for optimized builds: a debug build's own loop
    // and span overhead leaves several percent of wall time between spans.
    if let Some(t) = o.traced.as_ref().filter(|_| !cfg!(debug_assertions)) {
        let u = unexplained(&t.phase);
        if u > UNEXPLAINED_TOLERANCE {
            problems.push(format!(
                "traced: spans leave {u:.4} of wall time unexplained (tolerance {UNEXPLAINED_TOLERANCE})"
            ));
        }
    }
    let attempted = stacks(o).map(|s| s.phase.delta.offered).sum();
    Verdict {
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
    }
}

/// Minimal JSON writing for the report lines.
struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    fn new() -> Self {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.buf.push_str(", ");
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\": ", escape(k));
        &mut self.buf
    }

    fn num(mut self, k: &str, v: f64) -> Self {
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.key(k), "{v}");
        self
    }

    fn int(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    fn boolean(mut self, k: &str, v: bool) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    fn text(mut self, k: &str, v: &str) -> Self {
        let _ = write!(self.key(k), "\"{}\"", escape(v));
        self
    }

    fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k).push_str(json);
        self
    }

    fn end(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(v: &Verdict, metrics: &[Metric]) -> String {
    let mut m = Obj::new();
    for x in metrics {
        let value = Obj::new().num("value", x.value).text("unit", x.unit).end();
        m = m.raw(x.name, &value);
    }
    Obj::new()
        .boolean("correct", v.correct)
        .int("attempted", v.attempted)
        .int("failed", v.failed)
        .raw("metrics", &m.end())
        .end()
}

fn summary_json(s: Option<Summary>, unit: &str) -> String {
    match s {
        Some(s) => Obj::new()
            .num("median", s.median)
            .text(
                "high_percentile",
                &s.high_p.map_or("max".into(), |p| format!("p{p}")),
            )
            .num("high", s.high)
            .int("samples", s.n as u64)
            .text("unit", unit)
            .end(),
        None => Obj::new().int("samples", 0).text("unit", unit).end(),
    }
}

/// Median, highest supported percentile and count of a pooled
/// histogram.
fn histogram_json(h: &Histogram, unit_ns: f64, unit: &str) -> String {
    let high_p = stats::highest_supported(h.count() as usize);
    let mut o = Obj::new();
    if let Some(m) = h.percentile(50.0) {
        o = o.num("median", m / unit_ns);
    }
    if let Some(p) = high_p {
        let v = h.percentile(p).unwrap_or(0.0);
        o = o
            .text("high_percentile", &format!("p{p}"))
            .num("high", v / unit_ns);
    }
    o.int("samples", h.count()).text("unit", unit).end()
}

fn summarize(v: &[f64]) -> Option<Summary> {
    (!v.is_empty()).then(|| stats::summarize(v))
}

/// The calibration behind a phase's scaled timings.
fn host_speed_json(samples: &[f64]) -> String {
    let mut o = Obj::new().int("samples", samples.len() as u64);
    if !samples.is_empty() {
        o = o
            .num("sample_ns_median", stats::median(samples))
            .num("reference_sample_ns", calib::REFERENCE_SAMPLE_NS)
            .num("time_scale", calib::time_scale(samples));
    }
    o.end()
}

fn stack_json(s: &StackRun) -> String {
    let p = &s.phase;
    let t = &s.totals;
    let recov: Vec<f64> = s
        .recoveries
        .iter()
        .map(|&(ns, _)| ns as f64 / 1e6)
        .collect();
    Obj::new()
        .raw(
            "timings",
            &Obj::new()
                .raw(
                    "goodput_pps_per_window",
                    &summary_json(summarize(&goodput(p)), "pkt/s"),
                )
                .raw(
                    "cpu_ns_per_pkt_per_window",
                    &summary_json(summarize(&cpu_per_pkt(p)), "ns/pkt"),
                )
                .raw(
                    "latency_p50_us_per_window",
                    &summary_json(summarize(&lat_p50_us(p)), "us"),
                )
                .raw(
                    "latency_p99_us_per_window",
                    &summary_json(summarize(&lat_p99_us(p)), "us"),
                )
                .raw("latency_us", &histogram_json(&p.latency, 1e3, "us"))
                .raw("one_way_delay_us", &histogram_json(&p.one_way, 1e3, "us"))
                .raw(
                    "generator_lateness_us",
                    &histogram_json(&p.lateness, 1e3, "us"),
                )
                .raw(
                    "recovery_ms_per_burst",
                    &summary_json(summarize(&recov), "ms"),
                )
                .end(),
        )
        .raw("host_speed", &host_speed_json(&p.calib))
        .int("windows", p.windows.len() as u64)
        .num("measured_s", p.wall_ns as f64 / 1e9)
        .int("allocations", p.allocs)
        .raw(
            "ledger",
            &Obj::new()
                .int("offered", t.offered)
                .int("delivered", t.check.delivered)
                .int("refused", t.check.refused)
                .int("injected_loss", t.sockets.chaos_dropped)
                .int("corrupt", t.check.corrupt)
                .int("cross_flow", t.check.cross_flow)
                .int("fifo_violations", t.check.fifo)
                .int("out_of_order", t.disorder)
                .end(),
        )
        .raw(
            "sockets",
            &Obj::new()
                .boolean("batched_mmsg", s.facts.batched)
                .boolean("gso_accepted", s.facts.gso)
                .int("so_sndbuf", s.facts.sndbuf)
                .int("so_rcvbuf", s.facts.rcvbuf)
                .int("kernel_drops", s.facts.kernel_drops)
                .int("frames_sent_in_phase", p.delta.sockets.sent_frames)
                .int("loopback_packets_in_phase", p.loopback_packets.unwrap_or(0))
                .end(),
        )
        .text(
            "drain",
            &s.drained
                .as_ref()
                .err()
                .cloned()
                .unwrap_or_else(|| "quiescent".into()),
        )
        .end()
}

/// The detail line: fingerprint, per-stack timings and ledgers, the
/// Theorem 5.1 bound, and every failed check.
pub fn detail_line(o: &Outcome, v: &Verdict) -> String {
    let fingerprint = Obj::new()
        .int("nproc", host::nproc() as u64)
        .text("kernel", &host::kernel_release())
        .text(
            "syscall_path",
            if stripe_net::sys::fallback_forced() || !o.bare.facts.batched {
                "per-frame fallback"
            } else {
                "batched mmsg"
            },
        )
        .boolean("fallback_forced", stripe_net::sys::fallback_forced())
        .boolean("gso_accepted", o.bare.facts.gso)
        .int("so_sndbuf", o.bare.facts.sndbuf)
        .int("so_rcvbuf", o.bare.facts.rcvbuf)
        .text("traffic", "kernel loopback UDP, 4 socket pairs, one thread")
        .text(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .text("git_revision", &host::git_revision())
        .end();
    let mut out = Obj::new()
        .text("workload", o.opts.kind.name())
        .int("seed", o.opts.seed)
        .num("seconds", o.opts.seconds)
        .boolean("trace", o.opts.trace)
        .num("window_s", WINDOW.as_secs_f64())
        .raw("fingerprint", &fingerprint)
        .raw("setup_s", &summary_json(summarize(&o.setup_s), "s"))
        .raw("bare", &stack_json(&o.bare));
    if let Some(t) = &o.traced {
        out = out.raw("traced", &stack_json(t));
    }
    if o.opts.kind == Kind::PacedLossy {
        let bound = recovery_bound_ms(&o.bare.phase);
        let recovery = recovery_ms(o);
        out = out.raw(
            "theorem_5_1",
            &Obj::new()
                .num("recovery_ms", recovery)
                .num("marker_interval_ms", paced::marker_interval_ms())
                .num(
                    "one_way_delay_p50_ms",
                    pooled(&o.bare.phase.one_way, 50.0, 1e6),
                )
                .num("bound_ms", bound)
                .num("recovery_bound_ratio", ratio(recovery, bound))
                .end(),
        );
    }
    let problems = v
        .problems
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect::<Vec<_>>()
        .join(", ");
    out.raw("problems", &format!("[{problems}]")).end()
}
