//! `CostModel::calibrated` measured on the host, in a test binary of its
//! own: the one test here turns calibration persistence off before any
//! other thread exists, so the suite neither reads nor writes the user's
//! calibration cache (`$XDG_CACHE_HOME/qcemu/calibration.json`).

use qcemu::prelude::*;
use qcemu_linalg::simd::ForcedScalar;

/// Calibration stays sane with SIMD forced off — every rate finite and
/// positive — and the `OnceLock` cache hands every thread the same model.
#[test]
fn calibrated_cost_model_is_finite_positive_and_thread_consistent() {
    // No other test runs in this binary, so no other thread reads the
    // environment while it changes.
    std::env::set_var("QCEMU_CALIB_CACHE", "off");
    let _scalar = ForcedScalar::engage();
    let models: Vec<CostModel> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(CostModel::calibrated)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let rates = |m: &CostModel| {
        [
            m.entry_rate,
            m.fused_entry_rate,
            m.cache_rate,
            m.table_rate,
            m.fuse_per_gate,
            m.qpe.gate_rate,
            m.qpe.build_rate,
            m.qpe.gemm_flops,
            m.qpe.eig_flops,
        ]
    };
    for m in &models {
        for r in rates(m) {
            assert!(r.is_finite() && r > 0.0, "bad calibrated rate {r}");
        }
    }
    let first = rates(&models[0]);
    for m in &models[1..] {
        assert_eq!(rates(m), first, "OnceLock must hand out one model");
    }
}
