//! Host facts and a host reference, printed with every run and never
//! gated: on a small shared host the same code reads differently when
//! the other core is busy, and these numbers show which kind of host a
//! figure came from.

use std::hint::black_box;
use std::time::Instant;

/// Facts about the machine and the build a run measured.
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The SIMD kernel tier `KernelDispatch::detect()` picks.
    pub kernel_tier: &'static str,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Nanoseconds per step of a fixed dependent floating-point chain.
    pub compute_ns_per_op: f64,
    /// Read bandwidth of a fixed streaming sum over a 16 MiB buffer.
    pub stream_gb_s: f64,
}

impl HostFacts {
    /// Probes the host; takes well under a second.
    pub fn probe() -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_tier: mant_numerics::KernelDispatch::detect().name(),
            git_rev: git_rev(),
            compute_ns_per_op: compute_reference(),
            stream_gb_s: stream_reference(),
        }
    }

    /// One JSON object with every fact.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel_tier\": \"{}\", \"git_rev\": \"{}\", \
             \"compute_ns_per_op\": {:.4}, \"stream_gb_s\": {:.3}}}",
            self.nproc, self.kernel_tier, self.git_rev, self.compute_ns_per_op, self.stream_gb_s
        )
    }
}

/// Reads the revision from `.git` in the working directory without
/// starting a process: `HEAD` is either a hash or a ref, which is a loose
/// file or a line of `packed-refs`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&format!(".git/{name}")) {
        return hash.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A dependent multiply-add chain: latency-bound, so it tracks the core
/// clock and whether the core is shared, not the memory system.
fn compute_reference() -> f64 {
    const OPS: u64 = 20_000_000;
    let t0 = Instant::now();
    let mut x = black_box(1.0f64);
    for _ in 0..OPS {
        x = black_box(x * 0.999_999_9 + 1e-9);
    }
    black_box(x);
    t0.elapsed().as_nanos() as f64 / OPS as f64
}

/// Sums a 16 MiB buffer eight times: bandwidth-bound, so it tracks
/// contention for the memory system that other tenants share. The
/// buffer is part of every run's `VmHWM`, a constant 16 MiB.
fn stream_reference() -> f64 {
    const WORDS: usize = 2 << 20;
    const PASSES: usize = 8;
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let t0 = Instant::now();
    let mut total = 0u64;
    for _ in 0..PASSES {
        total = total.wrapping_add(black_box(&buf).iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    }
    black_box(total);
    (WORDS * PASSES * 8) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// The process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
