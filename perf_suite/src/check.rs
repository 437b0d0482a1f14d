//! Output checks. Every check, error return and typed rejection is one
//! attempted operation; the ones that go wrong are the failure count.

use qcemu_linalg::C64;
use qcemu_sim::StateVector;

/// Tolerance on amplitudes against the workload's reference.
pub const STATE_TOL: f64 = 1e-9;
pub const NORM_TOL: f64 = 1e-10;
/// Batch members against their solo runs.
pub const BATCH_TOL: f64 = 1e-12;
/// Served amplitudes against the in-process run.
pub const SERVE_TOL: f64 = 1e-10;

const FINGERPRINT_LEN: usize = 16;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `problem` describes it when it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(note) = problem {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.record((!ok).then(describe));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Full comparison of `state` with the reference: amplitudes up to a
/// global phase, and unit norm.
pub fn compare_states(
    tally: &mut Tally,
    what: &str,
    state: &StateVector,
    reference: &StateVector,
    tol: f64,
) {
    let diff = state.max_diff_up_to_phase(reference);
    // `!(a <= b)` rather than `a > b`, so a NaN fails the check.
    tally.check(diff <= tol, || {
        format!("{what}: differs from the reference by {diff:.3e} (tolerance {tol:.0e})")
    });
    let norm = state.norm();
    tally.check((norm - 1.0).abs() <= NORM_TOL, || {
        format!("{what}: norm {norm:.15} is not 1")
    });
}

/// The reference's sixteen largest amplitudes. A timed sample is checked
/// against them outside the timer: moduli, and phases relative to the
/// largest one, so a global phase does not matter.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    entries: Vec<(usize, C64)>,
}

impl Fingerprint {
    pub fn of(reference: &[C64]) -> Fingerprint {
        let mut order: Vec<usize> = (0..reference.len()).collect();
        let keep = FINGERPRINT_LEN.min(order.len());
        let by_weight = |&a: &usize, &b: &usize| {
            reference[b]
                .norm_sqr()
                .total_cmp(&reference[a].norm_sqr())
                .then(a.cmp(&b))
        };
        if keep < order.len() {
            order.select_nth_unstable_by(keep, by_weight);
            order.truncate(keep);
        }
        order.sort_by(by_weight);
        Fingerprint {
            entries: order.into_iter().map(|i| (i, reference[i])).collect(),
        }
    }

    /// Largest deviation of `amps` from the fingerprint, in amplitude
    /// units, after rotating both sides so the anchor is real.
    ///
    /// `amp` is any indexed source of amplitudes: a slice, or the strided
    /// view of one batch member.
    pub fn deviation(&self, amp: impl Fn(usize) -> Option<C64>) -> f64 {
        let (anchor, anchor_ref) = self.entries[0];
        let Some(anchor_got) = amp(anchor) else {
            return f64::INFINITY;
        };
        if anchor_ref.abs() == 0.0 || anchor_got.abs() == 0.0 {
            return f64::INFINITY;
        }
        let unrotate_ref = anchor_ref.conj() * (1.0 / anchor_ref.abs());
        let unrotate_got = anchor_got.conj() * (1.0 / anchor_got.abs());
        let mut worst: f64 = 0.0;
        for &(index, expected) in &self.entries {
            let Some(got) = amp(index) else {
                return f64::INFINITY;
            };
            let deviation = (got * unrotate_got - expected * unrotate_ref).abs();
            // NaN must not hide behind `max`.
            if deviation.is_nan() {
                return f64::INFINITY;
            }
            worst = worst.max(deviation);
        }
        worst
    }

    pub fn check(&self, tally: &mut Tally, what: &str, amp: impl Fn(usize) -> Option<C64>) {
        let deviation = self.deviation(amp);
        tally.check(deviation <= STATE_TOL, || {
            format!("{what}: fingerprint off by {deviation:.3e}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcemu_linalg::c64;

    #[test]
    fn fingerprint_ignores_global_phase_and_catches_a_wrong_amplitude() {
        let reference: Vec<C64> = (0..64)
            .map(|i| c64((i as f64).sin(), (i as f64 * 0.3).cos()) * 0.1)
            .collect();
        let fp = Fingerprint::of(&reference);
        let deviation = |amps: &[C64]| fp.deviation(|i| amps.get(i).copied());
        assert_eq!(fp.entries.len(), 16);
        assert!(deviation(&reference) < 1e-15);

        let phase = C64::cis(1.234);
        let rotated: Vec<C64> = reference.iter().map(|&a| a * phase).collect();
        assert!(deviation(&rotated) < 1e-12);

        let mut wrong = reference.clone();
        wrong[fp.entries[3].0] += c64(1e-6, 0.0);
        assert!(deviation(&wrong) > 1e-8);

        let mut nan = reference.clone();
        nan[fp.entries[5].0] = c64(f64::NAN, 0.0);
        assert_eq!(deviation(&nan), f64::INFINITY);
        assert_eq!(deviation(&reference[..4]), f64::INFINITY);
    }

    #[test]
    fn fingerprint_of_a_sparse_state_keeps_its_support() {
        let mut amps = vec![C64::ZERO; 32];
        amps[7] = c64(0.6, 0.0);
        amps[19] = c64(0.0, 0.8);
        let fp = Fingerprint::of(&amps);
        assert_eq!(fp.entries[0].0, 19);
        assert_eq!(fp.entries[1].0, 7);
    }

    #[test]
    fn tally_counts_every_operation() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "bad".into());
        t.record(None);
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert_eq!(t.notes, ["bad"]);
        assert!((t.fail_ratio() - 1.0 / 3.0).abs() < 1e-15);
        let mut sum = Tally::default();
        sum.merge(t);
        assert_eq!((sum.attempted, sum.failed), (3, 1));
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }
}
