//! What a number needs beside it to be judged: the host, the code and the
//! load on the machine, plus the noise probes the benchmark's README
//! records (on-CPU time against wall time, run-queue wait, steal, and two
//! canaries — a memory-free ALU loop and a plain file read).

use crate::stats::median;
use std::path::Path;
use std::time::{Duration, Instant};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Hardware parallelism as the program sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(level, size)` of every unified or data cache of CPU 0, e.g.
/// `[("L1d", "48K"), ("L2", "2048K"), ("L3", "107520K")]`.
pub fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/type")),
            read(&format!("{base}/size")),
        ) else {
            continue;
        };
        let name = match kind.as_str() {
            "Data" => format!("L{level}d"),
            "Instruction" => continue,
            _ => format!("L{level}"),
        };
        out.push((name, size));
    }
    out
}

/// The kernel release.
pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into())
}

/// The 1-minute load average.
pub fn loadavg() -> Option<f64> {
    read("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The git commit of the checkout, when it is a git repository with a
/// plain `.git` directory; `None` otherwise.
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// 64-bit FNV-1a over the program's sources (`Cargo.toml`, `Cargo.lock`
/// and every file under `crates/`, in path order): it names the measured
/// code where no commit is available.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in name.as_bytes().iter().chain(&[0]).chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Process CPU time and host steal at one instant, for deltas over a
/// measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    at: Option<Instant>,
    /// User + system time of every thread of the process, dead ones
    /// included, in clock ticks.
    cpu_ticks: u64,
    /// Run-queue wait of the live threads, in ns.
    runq_ns: u64,
    /// Host-wide total and steal jiffies.
    host_total: u64,
    host_steal: u64,
}

/// Deltas between two probes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noise {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process on-CPU seconds (all threads).
    pub cpu_s: f64,
    /// Run-queue wait of the threads alive at both probes, seconds.
    pub runq_s: f64,
    /// Share of host CPU time stolen by the hypervisor.
    pub steal_frac: f64,
}

fn sum_runq() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

impl Probe {
    /// Samples the counters now.
    pub fn now() -> Probe {
        let cpu_ticks = read("/proc/self/stat")
            .and_then(|s| {
                // Fields after the parenthesised command name; utime and
                // stime are fields 14 and 15 of the whole line.
                let rest = s.rsplit_once(')')?.1.split_whitespace().collect::<Vec<_>>();
                Some(rest.get(11)?.parse::<u64>().ok()? + rest.get(12)?.parse::<u64>().ok()?)
            })
            .unwrap_or(0);
        let (host_total, host_steal) = read("/proc/stat")
            .and_then(|s| {
                let cpu: Vec<u64> = s
                    .lines()
                    .next()?
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                Some((cpu.iter().sum(), *cpu.get(7)?))
            })
            .unwrap_or((0, 0));
        Probe {
            at: Some(Instant::now()),
            cpu_ticks,
            runq_ns: sum_runq(),
            host_total,
            host_steal,
        }
    }

    /// What changed since `self`.
    pub fn since(&self) -> Noise {
        let now = Probe::now();
        // USER_HZ is 100 on every Linux ABI the benchmark targets.
        let ticks_per_s = 100.0;
        let host = now.host_total.saturating_sub(self.host_total);
        Noise {
            wall_s: self
                .at
                .map_or(0.0, |t| now.at.unwrap_or(t).duration_since(t).as_secs_f64()),
            cpu_s: now.cpu_ticks.saturating_sub(self.cpu_ticks) as f64 / ticks_per_s,
            runq_s: now.runq_ns.saturating_sub(self.runq_ns) as f64 / 1e9,
            steal_frac: if host == 0 {
                0.0
            } else {
                now.host_steal.saturating_sub(self.host_steal) as f64 / host as f64
            },
        }
    }
}

/// Median wall time in ms of a fixed register-only loop: a canary that
/// moves with CPU frequency and scheduling, not with memory contention.
pub fn alu_canary_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..10_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Median time of one [`SpeedProbe`] round on the development host
/// (2 vCPUs, L2 2 MiB, L3 105 MiB; see the README's noise record), ms.
/// Latencies are reported as they would read on a host running the probe
/// this fast.
pub const PROBE_REFERENCE_MS: f64 = 20.0;

/// A fixed piece of the benchmark's own work, timed between ops so that a
/// run knows how fast the host ran while its ops did. One round is 2M
/// steps of a register-only loop, then 100k dependent loads along a random
/// cycle through 16 MiB (past L2, inside L3): it slows down with the
/// processor and with the shared caches, as the ops do. No perfvar code
/// runs in it, so a change to the program cannot move it.
pub struct SpeedProbe {
    cycle: Vec<u32>,
}

impl SpeedProbe {
    /// Builds the 16 MiB cycle (Sattolo's shuffle, fixed seed).
    pub fn new() -> SpeedProbe {
        let n = 4 << 20;
        let mut cycle: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cycle.swap(i, (x % i as u64) as usize);
        }
        SpeedProbe { cycle }
    }

    /// Wall time of one round, ms.
    pub fn round_ms(&self) -> f64 {
        let t = Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..2_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        let mut i = std::hint::black_box(x as u32 & 0xff);
        for _ in 0..100_000 {
            i = self.cycle[i as usize];
        }
        std::hint::black_box(i);
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe::new()
    }
}

/// Median MiB/s of `std::fs::read` over `files`: a canary that moves with
/// memory bandwidth and the page cache.
pub fn read_canary_mib_per_s(files: &[std::path::PathBuf]) -> f64 {
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let bytes: usize = files
            .iter()
            .map(|f| std::fs::read(f).map_or(0, |b| std::hint::black_box(b).len()))
            .sum();
        let s = t.elapsed().max(Duration::from_nanos(1)).as_secs_f64();
        rates.push(bytes as f64 / (1024.0 * 1024.0) / s);
    }
    median(&rates).unwrap_or(0.0)
}

extern "C" {
    fn sync();
}

/// Commits every filesystem's pending writes and waits for them. On a
/// filesystem mounted with `discard`, deleted files are trimmed at the
/// commit, which stalls other writes; syncing after a deletion makes the
/// run that deleted pay for it, not whatever is timed next.
pub fn sync_filesystems() {
    // SAFETY: sync(2) takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}

/// Peak resident set size of this process so far (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
