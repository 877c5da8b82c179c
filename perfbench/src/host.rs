//! Host readings: the thread's CPU accounting from procfs (read inside
//! measured phases, so allocation-free) and the fingerprint every result
//! carries.

use std::fs::File;
use std::io::Read;

/// Read a small procfs file into `buf` without allocating; returns the
/// filled prefix.
fn read_small<'a>(path: &str, buf: &'a mut [u8]) -> Option<&'a [u8]> {
    let mut f = File::open(path).ok()?;
    let mut n = 0;
    while n < buf.len() {
        match f.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(_) => return None,
        }
    }
    Some(&buf[..n])
}

/// Parse the whitespace-separated unsigned integer fields of `s`,
/// calling `f(index, value)` for each.
fn fields(s: &[u8], mut f: impl FnMut(usize, u64)) {
    for (i, tok) in s
        .split(|b| b.is_ascii_whitespace())
        .filter(|t| !t.is_empty())
        .enumerate()
    {
        let mut v = 0u64;
        let mut ok = true;
        for &b in tok {
            if b.is_ascii_digit() {
                v = v.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            } else {
                ok = false;
                break;
            }
        }
        if ok {
            f(i, v);
        }
    }
}

/// This thread's scheduler accounting: nanoseconds on a CPU and
/// nanoseconds runnable but waiting on a run queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    /// Time spent running.
    pub on_cpu_ns: u64,
    /// Time spent waiting to run.
    pub runq_ns: u64,
}

/// Sample `/proc/thread-self/schedstat` (zeros where unavailable).
pub fn sched() -> Sched {
    let mut buf = [0u8; 128];
    let mut out = Sched::default();
    if let Some(s) = read_small("/proc/thread-self/schedstat", &mut buf) {
        fields(s, |i, v| match i {
            0 => out.on_cpu_ns = v,
            1 => out.runq_ns = v,
            _ => {}
        });
    }
    out
}

/// This thread's user and system CPU time in clock ticks, from
/// `/proc/thread-self/stat` (zeros where unavailable).
pub fn cpu_ticks() -> (u64, u64) {
    let mut buf = [0u8; 1024];
    let Some(s) = read_small("/proc/thread-self/stat", &mut buf) else {
        return (0, 0);
    };
    // The command name is parenthesised and may hold spaces: count
    // fields from the last ')'. Field 0 after it is the state letter
    // (field 3 of the line), so utime and stime (fields 14 and 15) are
    // 11 and 12.
    let Some(close) = s.iter().rposition(|&b| b == b')') else {
        return (0, 0);
    };
    let (mut user, mut sys) = (0, 0);
    fields(&s[close + 1..], |i, v| match i {
        11 => user = v,
        12 => sys = v,
        _ => {}
    });
    (user, sys)
}

/// Packets the loopback interface has received, from `/proc/net/dev`.
pub fn loopback_packets() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/dev").ok()?;
    let line = text.lines().find(|l| l.trim_start().starts_with("lo:"))?;
    let rest = line.split_once(':')?.1;
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` in the working directory without running git; `unknown` when
/// the checkout is not a repository.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == refname).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The kernel release string.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}
