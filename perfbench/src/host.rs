//! Host fingerprint and roofline probes.
//!
//! Every result carries the fingerprint (CPU model, `nproc`, ISA flags,
//! `NEURODEANON_THREADS`, last-level cache and probe array size), so results
//! from different hosts are never compared silently. The probes give the
//! denominators of the `pct_*` ratios: a single-threaded streaming read over
//! an array at least four times the reported last-level cache, and a
//! multiply-add loop at the ISA this binary was built for.

use crate::Size;
use std::hint::black_box;
use std::time::Instant;

pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub isa: Vec<&'static str>,
    pub threads_env: Option<String>,
    pub par_threads: usize,
    pub llc_bytes: Option<u64>,
    /// Bytes the streaming-read probe walks: at least 4× the LLC.
    pub probe_bytes: u64,
}

const ISA_FLAGS: [&str; 5] = ["sse4_2", "avx", "avx2", "fma", "avx512f"];

/// Smallest streaming-read array, for hosts that report no cache size.
const MIN_PROBE_BYTES: u64 = 256 << 20;
/// Largest streaming-read array, so the probe stays bounded in memory.
const MAX_PROBE_BYTES: u64 = 2 << 30;
/// Streaming-read array of the tiny self-check size.
const TINY_PROBE_BYTES: u64 = 32 << 20;

impl Host {
    pub fn fingerprint(size: Size) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        };
        let flags = field("flags").unwrap_or_default();
        let llc_bytes = last_level_cache_bytes();
        let probe_bytes = match size {
            Size::Paper => llc_bytes
                .map_or(MIN_PROBE_BYTES, |llc| 4 * llc)
                .clamp(MIN_PROBE_BYTES, MAX_PROBE_BYTES),
            Size::Tiny => TINY_PROBE_BYTES,
        };
        let isa = ISA_FLAGS
            .iter()
            .copied()
            .filter(|f| flags.split_whitespace().any(|x| x == *f))
            .collect();
        Host {
            cpu_model: field("model name").unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa,
            threads_env: std::env::var("NEURODEANON_THREADS").ok(),
            par_threads: neurodeanon_linalg::par::num_threads(),
            llc_bytes,
            probe_bytes,
        }
    }

    /// `n` threads against `nproc`: the count itself, labelled when it
    /// oversubscribes the host.
    pub fn threads_label(&self, n: usize) -> String {
        if n > self.nproc {
            format!("{n} (oversubscribed: nproc {})", self.nproc)
        } else {
            n.to_string()
        }
    }

    pub fn describe(&self) -> String {
        let llc = self
            .llc_bytes
            .map_or("unknown".to_string(), |b| format!("{} KiB", b >> 10));
        format!(
            "cpu \"{}\"; nproc {}; isa [{}]; NEURODEANON_THREADS {}; par threads {}; \
             llc {llc}; read probe {} MiB; build isa {}",
            self.cpu_model,
            self.nproc,
            self.isa.join(" "),
            self.threads_env.as_deref().unwrap_or("unset"),
            self.threads_label(self.par_threads),
            self.probe_bytes >> 20,
            build_isa(),
        )
    }
}

/// Vector ISA this binary was compiled for (the program's kernels use
/// the same one).
fn build_isa() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "scalar"
    }
}

/// Size of the highest-level unified or data cache of CPU 0.
fn last_level_cache_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|v| v << 20)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Single-threaded streaming read bandwidth in GB/s: the best of three
/// passes summing an array of `bytes` with independent accumulators.
pub fn read_bandwidth_gb_s(bytes: u64) -> f64 {
    let n = (bytes / 8) as usize;
    let data = vec![1.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut acc = [0.0f64; 8];
        for chunk in black_box(&data).chunks_exact(8) {
            for k in 0..8 {
                acc[k] += chunk[k];
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    bytes as f64 / best / 1e9
}

/// Single-threaded multiply-add throughput in GFLOP/s (2 flops per
/// multiply-add) over 32 independent chains, at the build's ISA.
pub fn fma_gflop_s() -> f64 {
    const CHAINS: usize = 32;
    const ITERS: usize = 4_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut acc = [1.0f64; CHAINS];
        let a = black_box(0.999_999_9f64);
        let b = black_box(1e-9f64);
        let t = Instant::now();
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = *x * a + b;
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (2 * CHAINS * ITERS) as f64 / best / 1e9
}
