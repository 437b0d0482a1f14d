//! On-disk persistence for the calibrated cost model.
//!
//! [`CostModel::calibrated`](crate::crossover::CostModel::calibrated)
//! micro-benchmarks every rate on first use — tens of milliseconds that
//! every short-lived process would otherwise pay again. This module
//! caches the measured rates in a small hand-rolled JSON file (std-only,
//! no serde) keyed by a **host fingerprint**, so a cached model is only
//! ever reused on the machine/build combination that measured it:
//!
//! * the schema version (bumped when rates are added or re-defined),
//! * the CPU model name from `/proc/cpuinfo` (absent on non-Linux hosts,
//!   which simply narrows the fingerprint),
//! * the available hardware parallelism,
//! * the active SIMD backend (`qcemu_linalg::simd::backend_name`), which
//!   the run-time CPU check selects (AVX2+FMA or scalar) and which sets
//!   the kernels' per-entry arithmetic cost.
//!
//! The cache lives at `$XDG_CACHE_HOME/qcemu/calibration.json` (falling
//! back to `$HOME/.cache/qcemu/calibration.json`). `QCEMU_CALIB_CACHE`
//! overrides the path; setting it to `off`, `0`, or the empty string
//! disables persistence. Every failure mode — unreadable file, schema or
//! fingerprint mismatch, non-finite or non-positive rate — falls back to
//! re-measuring; a stale cache can cost one recalibration, never a wrong
//! model. The fallback is silent but **observable**: every rejected
//! (present-but-invalid) cache file bumps [`rejected_loads`] — so a cache
//! that never hits (corrupt file, permissions churn, schema drift) shows
//! up instead of silently costing a recalibration per process forever.

use crate::crossover::{CostModel, QpeCostModel};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bumped whenever a rate is added, removed, or re-defined; folded into
/// the fingerprint so older cache files are ignored rather than parsed.
/// v2: added `mps_rate` (compressed-backend contraction rate) and
/// `block_bits` (measured segment block size).
/// v3: added `dispatch_overhead` (persistent-pool per-dispatch cost) and
/// `thread_scale` (measured sweep parallel speedup); the sweep rates are
/// also re-defined — they are now measured with the worker pool warm, so
/// v2 rates silently absorbed spawn cost this schema prices separately.
const SCHEMA_VERSION: u32 = 3;

/// Count of cache files that existed but were rejected (corrupt JSON,
/// fingerprint/schema mismatch, invalid rate). Missing files are clean
/// misses and do not count.
static REJECTED_LOADS: AtomicUsize = AtomicUsize::new(0);

/// How many calibration-cache loads found a file and refused it since
/// process start. A monotonically growing value across runs that should
/// be hitting the cache is the signature of a corrupt or stale file.
pub fn rejected_loads() -> usize {
    REJECTED_LOADS.load(Ordering::Relaxed)
}

/// FNV-1a, good enough for a cache key and dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex digest identifying (schema, CPU, thread count, SIMD backend).
pub(crate) fn host_fingerprint() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(str::to_owned)
        })
        .unwrap_or_default();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let backend = qcemu_linalg::simd::backend_name();
    let key = format!("v{SCHEMA_VERSION}|{cpu}|{threads}|{backend}");
    format!("{:016x}", fnv1a(key.as_bytes()))
}

/// Resolved cache file path, or `None` when persistence is disabled
/// (explicitly via `QCEMU_CALIB_CACHE`, or because no home directory is
/// known). Always `None` in this crate's unit-test build, so its tests
/// neither read nor write the user's cache.
pub(crate) fn cache_path() -> Option<PathBuf> {
    if cfg!(test) {
        return None;
    }
    match std::env::var("QCEMU_CALIB_CACHE") {
        Ok(v) if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => {
            let base = std::env::var_os("XDG_CACHE_HOME")
                .map(PathBuf::from)
                .filter(|p| !p.as_os_str().is_empty())
                .or_else(|| std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".cache")))?;
            Some(base.join("qcemu").join("calibration.json"))
        }
    }
}

/// What one cache-file load found.
#[derive(Debug, PartialEq)]
enum Load {
    Loaded(CostModel),
    /// No file: a clean miss.
    Missing,
    /// A file that exists but fails validation.
    Rejected,
}

/// Loads the cached model for this host, if a valid one exists. A file
/// that exists but fails validation is counted via [`rejected_loads`];
/// a missing file is a clean miss.
pub(crate) fn load_cached() -> Option<CostModel> {
    count(load_checked(&cache_path()?, &host_fingerprint()))
}

/// [`load_from`], telling a missing file from a present-but-invalid one.
fn load_checked(path: &Path, fingerprint: &str) -> Load {
    if !path.exists() {
        return Load::Missing;
    }
    match load_from(path, fingerprint) {
        Some(m) => Load::Loaded(m),
        None => Load::Rejected,
    }
}

/// Bumps [`rejected_loads`] for a rejected load; yields the model, if any.
fn count(load: Load) -> Option<CostModel> {
    match load {
        Load::Loaded(m) => Some(m),
        Load::Missing => None,
        Load::Rejected => {
            REJECTED_LOADS.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Persists `m` for this host. Failures (read-only filesystem, missing
/// home, races) are deliberately ignored: persistence is an optimisation.
pub(crate) fn store_cached(m: &CostModel) {
    if let Some(path) = cache_path() {
        let _ = store_to(&path, &host_fingerprint(), m);
    }
}

/// `"key": value` scanner for the flat single-object JSON we emit.
fn field<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = src.find(&pat)? + pat.len();
    let rest = src[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_str<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    field(src, key)?
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
}

/// A rate is only accepted if it parses as a finite, strictly positive
/// float — the single invariant the planner's divisions rely on.
fn field_rate(src: &str, key: &str) -> Option<f64> {
    field(src, key)?
        .parse::<f64>()
        .ok()
        .filter(|r| r.is_finite() && *r > 0.0)
}

/// A thread-scaling factor must be a finite speedup ≥ 1 (a serial run
/// cannot beat the pool-engaged rate it is defined against) and ≤ 4096
/// (an absurd core count flags a corrupt file).
fn field_scale(src: &str, key: &str) -> Option<f64> {
    field(src, key)?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && (1.0..=4096.0).contains(s))
}

/// A block size is only accepted in the range the segment compiler can
/// actually use (`2^1 ..= 2^30` amplitudes).
fn field_bits(src: &str, key: &str) -> Option<usize> {
    field(src, key)?
        .parse::<usize>()
        .ok()
        .filter(|b| (1..=30).contains(b))
}

fn to_json(fingerprint: &str, m: &CostModel) -> String {
    // `{:?}` on f64 is Rust's shortest round-trip representation.
    format!(
        "{{\n  \"fingerprint\": \"{fingerprint}\",\n  \
         \"entry_rate\": {:?},\n  \
         \"fused_entry_rate\": {:?},\n  \
         \"cache_rate\": {:?},\n  \
         \"table_rate\": {:?},\n  \
         \"fuse_per_gate\": {:?},\n  \
         \"mps_rate\": {:?},\n  \
         \"dispatch_overhead\": {:?},\n  \
         \"thread_scale\": {:?},\n  \
         \"block_bits\": {},\n  \
         \"gate_rate\": {:?},\n  \
         \"build_rate\": {:?},\n  \
         \"gemm_flops\": {:?},\n  \
         \"eig_flops\": {:?}\n}}\n",
        m.entry_rate,
        m.fused_entry_rate,
        m.cache_rate,
        m.table_rate,
        m.fuse_per_gate,
        m.mps_rate,
        m.dispatch_overhead,
        m.thread_scale,
        m.block_bits,
        m.qpe.gate_rate,
        m.qpe.build_rate,
        m.qpe.gemm_flops,
        m.qpe.eig_flops,
    )
}

fn load_from(path: &Path, fingerprint: &str) -> Option<CostModel> {
    let src = fs::read_to_string(path).ok()?;
    if field_str(&src, "fingerprint")? != fingerprint {
        return None;
    }
    Some(CostModel {
        entry_rate: field_rate(&src, "entry_rate")?,
        fused_entry_rate: field_rate(&src, "fused_entry_rate")?,
        cache_rate: field_rate(&src, "cache_rate")?,
        table_rate: field_rate(&src, "table_rate")?,
        fuse_per_gate: field_rate(&src, "fuse_per_gate")?,
        mps_rate: field_rate(&src, "mps_rate")?,
        dispatch_overhead: field_rate(&src, "dispatch_overhead")?,
        thread_scale: field_scale(&src, "thread_scale")?,
        block_bits: field_bits(&src, "block_bits")?,
        qpe: QpeCostModel {
            gate_rate: field_rate(&src, "gate_rate")?,
            build_rate: field_rate(&src, "build_rate")?,
            gemm_flops: field_rate(&src, "gemm_flops")?,
            eig_flops: field_rate(&src, "eig_flops")?,
        },
    })
}

fn store_to(path: &Path, fingerprint: &str, m: &CostModel) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    // Temp-file + rename keeps concurrent readers from ever seeing a
    // half-written model (rename is atomic on the same filesystem).
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, to_json(fingerprint, m))?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fresh per-test file under the workspace target dir — the tests
    /// never touch the real per-user cache location.
    fn test_path(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/calibration-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.json"))
    }

    fn model() -> CostModel {
        CostModel {
            entry_rate: 3.25e8,
            fused_entry_rate: 5.5e8,
            cache_rate: 2.125e9,
            table_rate: 4.75e7,
            fuse_per_gate: 1.5e-6,
            mps_rate: 1.75e8,
            dispatch_overhead: 3.5e-6,
            thread_scale: 2.5,
            block_bits: 13,
            qpe: QpeCostModel {
                gate_rate: 3.25e8,
                build_rate: 4.0e8,
                gemm_flops: 5.0e9,
                eig_flops: 1.0e9,
            },
        }
    }

    #[test]
    fn round_trips_exactly() {
        let path = test_path("round-trip");
        let m = model();
        store_to(&path, "fp-abc", &m).unwrap();
        assert_eq!(load_from(&path, "fp-abc"), Some(m));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_fingerprint_mismatch() {
        let path = test_path("fingerprint-mismatch");
        store_to(&path, "fp-old-host", &model()).unwrap();
        assert_eq!(load_from(&path, "fp-new-host"), None);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_corrupt_and_invalid_rates() {
        let path = test_path("corrupt");
        fs::write(&path, "not json at all").unwrap();
        assert_eq!(load_from(&path, "fp"), None);

        // A well-formed file with one non-positive rate must be refused
        // outright — a zero rate would divide the planner's costs by 0.
        let bad = to_json("fp", &model()).replace("2125000000.0", "0.0");
        assert!(bad.contains("\"cache_rate\": 0.0"), "edit must hit");
        fs::write(&path, bad).unwrap();
        assert_eq!(load_from(&path, "fp"), None);

        // Missing field: same refusal.
        let missing = to_json("fp", &model()).replace("\"table_rate\"", "\"renamed\"");
        fs::write(&path, missing).unwrap();
        assert_eq!(load_from(&path, "fp"), None);

        // An implausible block size is refused like a bad rate.
        let bad_bits = to_json("fp", &model()).replace("\"block_bits\": 13", "\"block_bits\": 99");
        fs::write(&path, bad_bits).unwrap();
        assert_eq!(load_from(&path, "fp"), None);

        // A thread-scaling factor below 1 contradicts its definition
        // (speedup over a forced single-thread run) and is refused.
        let bad_scale =
            to_json("fp", &model()).replace("\"thread_scale\": 2.5", "\"thread_scale\": 0.5");
        fs::write(&path, bad_scale).unwrap();
        assert_eq!(load_from(&path, "fp"), None);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_file_is_counted_as_rejected_but_missing_is_not() {
        // The assertions read what each call returned, not the
        // process-global counter, which a concurrent
        // `CostModel::calibrated()` may bump at any time.
        let path = test_path("rejection-counter");
        let _ = fs::remove_file(&path);

        // Clean miss: no file, no rejection.
        assert_eq!(load_checked(&path, "fp"), Load::Missing);

        // Present-but-corrupt: refused AND counted, so the silent
        // re-measure fallback stays observable.
        fs::write(&path, "{ definitely not a calibration file").unwrap();
        let rejected = load_checked(&path, "fp");
        assert_eq!(rejected, Load::Rejected);
        let before = rejected_loads();
        assert_eq!(count(rejected), None);
        assert!(rejected_loads() > before, "corrupt file must be counted");

        // A valid file loads.
        store_to(&path, "fp", &model()).unwrap();
        assert_eq!(load_checked(&path, "fp"), Load::Loaded(model()));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_miss() {
        assert_eq!(load_from(&test_path("never-written"), "fp"), None);
    }

    #[test]
    fn fingerprint_is_stable_and_hex() {
        let fp = host_fingerprint();
        assert_eq!(fp.len(), 16);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(fp, host_fingerprint());
    }
}
