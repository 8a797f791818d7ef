//! Host diagnostics, read from `/proc`, so a disturbed run can be
//! identified after the fact. Every reader degrades to `None` or
//! `"unknown"` where the file is missing.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/stat` (USER_HZ, 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// Hypervisor steal time summed over all CPUs, in seconds since boot.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / TICKS_PER_SECOND)
}

/// The one-minute load average.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out git revision, read from `.git` without running git;
/// `"unknown"` outside a repository.
pub fn git_revision() -> String {
    fn resolve(git: &Path) -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
            return Some(rev.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
    }
    let cwd = std::env::current_dir().unwrap_or_default();
    cwd.ancestors()
        .map(|dir| dir.join(".git"))
        .find(|git| git.is_dir())
        .and_then(|git| resolve(&git))
        .unwrap_or_else(|| "unknown".to_string())
}
