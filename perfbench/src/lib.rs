//! The repository benchmark: named workloads over kernel loopback UDP
//! through the real-socket striping datapath, each run checked for
//! correctness and reported as one JSON line of named metrics.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk_1flow --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the bare datapath and prints the end-to-end
//! metrics; `--trace 1` runs the same workload once bare and once with
//! every link wrapped in [`trace::TracedLink`] and every benchmark call
//! into a layer spanned, and prints the per-layer metrics. The last line
//! of standard output is always the result object; the lines before it
//! carry the host fingerprint and the per-metric detail (median, highest
//! supported percentile, sample count).
//!
//! The benchmark touches the program only through its public calls:
//! `NetStripedPath`/`NetLogicalReceiver` (the one-flow wrappers),
//! `StripeServer`/`FlowDemux` (the multi-flow pair), and `UdpChannel`
//! and `ImpairedLink` as `DatagramLink`s. Layers, by module name:
//!
//! - `path`/`recv` — the one-flow wrappers' `send_batch`, `sweep` and
//!   `poll_into`.
//! - `server` — frame encode at `enqueue`; DRR, per-flow SRR assignment
//!   and run/marker dispatch in `pump_into`.
//! - `udp` — `sendmmsg`/`recvmmsg` and the kernel below them, timed from
//!   inside the server's and demux's own link calls.
//! - `demux` — decode, route and resequencer insert in `sweep`; logical
//!   reception and delivery in `poll_flow_into`.
//! - `receiver` — the core resequencer, read through flow stats and sink
//!   accessors.
//! - `chaos` — injected loss (`paced_lossy` only).
//! - `bench` — the benchmark's own payload generation, verification and
//!   idle waiting.

pub mod alloc;
pub mod calib;
pub mod host;
pub mod links;
pub mod meter;
pub mod payload;
pub mod recovery;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one time base
/// shared by payload stamps, spans and the recovery detector.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
