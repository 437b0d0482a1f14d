//! # qcemu-bench
//!
//! Shared harness utilities for the per-figure/per-table benchmark
//! binaries (see `src/bin/`): timing, a minimal CLI-flag parser, and
//! table formatting. Each binary prints the same rows/series its paper
//! counterpart reports, plus the paper's reference numbers where useful.

use std::time::Instant;

/// Times one execution of `f` in seconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median of `reps` timings of `f` (at least one rep).
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let reps = reps.max(1);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Adaptive repetitions: roughly `budget_s` of wall time, 1..=max reps.
pub fn reps_for_budget(estimate_s: f64, budget_s: f64, max: usize) -> usize {
    if estimate_s <= 0.0 {
        return max;
    }
    ((budget_s / estimate_s) as usize).clamp(1, max)
}

/// Tiny `--flag value` parser over `std::env::args` (no dependency).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// From an explicit vector (tests).
    pub fn from_vec(raw: Vec<String>) -> Args {
        Args { raw }
    }

    /// Value of `--name <v>` or `--name=<v>`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        let eq_prefix = format!("--{name}=");
        let mut iter = self.raw.iter();
        while let Some(a) = iter.next() {
            if let Some(v) = a.strip_prefix(&eq_prefix) {
                return v.parse().ok();
            }
            if *a == flag {
                return iter.next().and_then(|v| v.parse().ok());
            }
        }
        None
    }

    /// `true` if the bare flag is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.contains(&flag)
    }
}

/// Pretty seconds: engineering-ish formatting matching the paper's
/// log-scale plots.
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s < 1e-6 {
        format!("{:.2} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} s ", s)
    }
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints a standard harness header naming the experiment.
pub fn header(title: &str, detail: &str) {
    rule(78);
    println!("{title}");
    println!("{detail}");
    rule(78);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_both_forms() {
        let a = Args::from_vec(vec!["--max-m".into(), "7".into(), "--fast".into()]);
        assert_eq!(a.get::<usize>("max-m"), Some(7));
        assert!(a.has("fast"));
        assert!(!a.has("slow"));
        let b = Args::from_vec(vec!["--max-m=9".into()]);
        assert_eq!(b.get::<usize>("max-m"), Some(9));
        assert_eq!(b.get::<usize>("missing"), None);
    }

    #[test]
    fn timing_is_positive() {
        let (t, v) = time_once(|| (0..1000).sum::<usize>());
        assert!(t >= 0.0);
        assert_eq!(v, 499_500);
        let m = time_median(3, || {
            std::hint::black_box((1..20u128).product::<u128>());
        });
        assert!(m >= 0.0);
    }

    #[test]
    fn budget_reps() {
        assert_eq!(reps_for_budget(0.1, 1.0, 100), 10);
        assert_eq!(reps_for_budget(10.0, 1.0, 100), 1);
        assert_eq!(reps_for_budget(0.0, 1.0, 7), 7);
    }

    #[test]
    fn formatting() {
        assert!(fmt_secs(1.5e-9).contains("ns"));
        assert!(fmt_secs(1.5e-5).contains("µs"));
        assert!(fmt_secs(1.5e-2).contains("ms"));
        assert!(fmt_secs(2.0).contains('s'));
    }
}
