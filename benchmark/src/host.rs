//! Host calibration: the ceilings every roofline fraction in this benchmark
//! is taken against are measured on the machine, in the same invocation —
//! never constants (ROADMAP: `Update` scored 129 % against a hard-coded
//! 25 GB/s). Pure std; nothing here touches the solver.

use crate::trace::{minimum, SpanId, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Measured host ceilings plus the sizes they were measured at.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    /// Per-core L2 size in bytes (sysfs; 4 MiB assumed when unreadable).
    pub l2_bytes: usize,
    /// Last-level cache size in bytes (sysfs; 64 MiB assumed when unreadable).
    pub llc_bytes: usize,
    /// Bytes per triad array in the DRAM measurement (≥ 4 × LLC unless
    /// memory was short — see `note`).
    pub dram_array_bytes: usize,
    pub triad_gbs_dram: f64,
    pub triad_gbs_l2: f64,
    pub fma_gflops: f64,
    pub note: String,
}

/// Reads a `size` file such as `2048K` from sysfs.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// (L2 bytes, LLC bytes) of cpu0 from sysfs.
fn cache_sizes() -> (Option<usize>, Option<usize>) {
    let (mut l2, mut llc, mut llc_level) = (None, None, 0u32);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(ty), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if ty.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_cache_size(&size)) else {
            continue;
        };
        if level == 2 {
            l2 = Some(size);
        }
        if level > llc_level {
            llc_level = level;
            llc = Some(size);
        }
    }
    (l2, llc)
}

/// Memory this process may safely take: `MemAvailable`, or the cgroup limit
/// when that is lower (`/proc/meminfo` shows the host's figure in a container).
fn mem_available_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    let cgroup = [
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ]
    .iter()
    .filter_map(|p| {
        std::fs::read_to_string(p)
            .ok()?
            .trim()
            .parse::<usize>()
            .ok()
    })
    .min();
    Some(cgroup.map_or(kb << 10, |c| c.min(kb << 10)))
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// STREAM triad `a = b + s·c` over three arrays of `n` doubles, repeated
/// until `min_secs` have passed (at least `min_passes`). Returns GB/s of the
/// fastest pass (a ceiling is a best case), counting 3 × 8 × n bytes per pass
/// (STREAM's convention: the write-allocate read of `a` is not counted).
fn triad_gbs(n: usize, min_passes: usize, min_secs: f64) -> f64 {
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let s = black_box(3.0f64);
    let mut samples = Vec::new();
    let start = Instant::now();
    // One untimed pass faults the pages in.
    for pass in 0.. {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&mut a);
        if pass > 0 {
            samples.push(t0.elapsed().as_secs_f64());
        }
        if samples.len() >= min_passes && start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    (3 * 8 * n) as f64 / minimum(&samples) / 1e9
}

/// Single-core multiply-add peak: 10 independent 8-lane accumulator chains
/// (enough to cover FMA latency on two ports), 2 flops per lane-step. Uses a
/// fused multiply-add only when the build targets hardware FMA; otherwise
/// `mul_add` would be a libm call and the separate multiply and add are the
/// honest ceiling.
fn fma_gflops() -> f64 {
    const ACC: usize = 10;
    const LANES: usize = 8;
    const ITERS: usize = 4_000_000;
    let mut acc = [[1.0f64; LANES]; ACC];
    let b = black_box([1.000000001f64; LANES]);
    let c = black_box([1e-9f64; LANES]);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            for chain in acc.iter_mut() {
                for l in 0..LANES {
                    chain[l] = if cfg!(target_feature = "fma") {
                        chain[l].mul_add(b[l], c[l])
                    } else {
                        chain[l] * b[l] + c[l]
                    };
                }
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&mut acc);
        acc = [[1.0f64; LANES]; ACC];
    }
    (ITERS * ACC * LANES * 2) as f64 / best / 1e9
}

/// Runs the calibration, one span per measurement under `parent`.
pub fn calibrate(tr: &mut Tracer, parent: SpanId) -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (l2, llc) = cache_sizes();
    let mut note = String::new();
    if l2.is_none() || llc.is_none() {
        note.push_str("cache sizes unreadable from sysfs: assumed L2 4 MiB, LLC 64 MiB; ");
    }
    let l2_bytes = l2.unwrap_or(4 << 20);
    let llc_bytes = llc.unwrap_or(64 << 20);

    // DRAM triad: each array at least four times the LLC, unless that would
    // take more than a quarter of available memory for the three of them.
    let want = 4 * llc_bytes;
    let cap = mem_available_bytes().map_or(256 << 20, |m| m / 12);
    let dram_array_bytes = want.min(cap).max(32 << 20);
    if dram_array_bytes < want {
        note.push_str(&format!(
            "memory short: DRAM triad arrays {} MiB < 4 x LLC ({} MiB), figure may include cache hits; ",
            dram_array_bytes >> 20,
            want >> 20
        ));
    }
    let (triad_gbs_dram, _, _) = tr.time("host.triad_dram", parent, || {
        triad_gbs(dram_array_bytes / 8, 3, 0.0)
    });
    // L2 triad: the three arrays together fill three quarters of one L2.
    let (triad_gbs_l2, _, _) = tr.time("host.triad_l2", parent, || {
        triad_gbs(l2_bytes / 4 / 8, 200, 0.1)
    });
    let (fma_gflops, _, _) = tr.time("host.fma", parent, fma_gflops);
    Host {
        nproc,
        l2_bytes,
        llc_bytes,
        dram_array_bytes,
        triad_gbs_dram,
        triad_gbs_l2,
        fma_gflops,
        note,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size_suffixes() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(triad_gbs(1 << 14, 3, 0.0) > 0.0);
    }
}
