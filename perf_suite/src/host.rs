//! What the run ran on: the header of every record.

use crate::json::Json;
use std::fs;

fn proc_field(path: &str, key: &str) -> Option<String> {
    fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn kib_field(path: &str, key: &str) -> Option<f64> {
    proc_field(path, key)?
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    kib_field("/proc/self/status", "VmHWM").map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn total_ram_mib() -> f64 {
    kib_field("/proc/meminfo", "MemTotal").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Size of the largest cache `cpu0` sees, in MiB, from sysfs.
pub fn llc_mib() -> Option<f64> {
    let mut best: Option<f64> = None;
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = fs::read_to_string(format!("{base}/size")) else {
            continue;
        };
        let size = size.trim();
        let mib = if let Some(k) = size.strip_suffix('K') {
            k.parse::<f64>().ok().map(|k| k / 1024.0)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<f64>().ok()
        } else {
            size.parse::<f64>().ok().map(|b| b / (1024.0 * 1024.0))
        };
        if let Some(mib) = mib {
            best = Some(best.map_or(mib, |b| b.max(mib)));
        }
    }
    best
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; `"unknown"` outside a repository (the driver's checkout
/// is not one).
pub fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(reference) => fs::read_to_string(git.join(reference))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| format!("unborn:{reference}")),
                None => head.to_string(),
            };
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    "unknown".into()
}

pub fn describe() -> Json {
    let threads_env = std::env::var("QCEMU_THREADS").ok();
    Json::obj([
        (
            "cpu_model",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("nproc", Json::Int(nproc() as i64)),
        (
            "pool_threads",
            Json::Int(rayon::pool::default_threads() as i64),
        ),
        ("qcemu_threads", threads_env.map_or(Json::Null, Json::Str)),
        (
            "simd_backend",
            Json::str(qcemu_linalg::simd::backend_name()),
        ),
        ("llc_mib", llc_mib().map_or(Json::Null, Json::Num)),
        ("ram_mib", Json::Num(total_ram_mib())),
        ("git_commit", Json::str(git_commit())),
    ])
}
