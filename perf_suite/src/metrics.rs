//! The benchmark's vocabulary: workloads and metrics by name, unit,
//! direction and bound. `BENCHMARK.json` at the root of the repository
//! says the same thing to the driver; a unit test keeps the two equal.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Name and one-line reason of each workload, in suite order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "qft_stream",
        "21-qubit QFT + entangler on a random state: streaming-bound, the FFT and the sweep kernels do the work, planner and lowering almost none",
    ),
    (
        "shor_mix",
        "16-qubit Shor-style mix of arithmetic, gate run, oracle, rotation and QFTs: routing-bound, cost swings 25x with the planner's choice",
    ),
    (
        "qpe_tfim",
        "QPE of a 7-spin TFIM Trotter step to 10 bits: dense linear algebra (gemm, eig, repeated squaring) no other workload touches",
    ),
    (
        "deep_resident",
        "4000 random gates on a cache-resident 16-qubit state: dispatch- and fusion-bound, the opposite use of the layer qft_stream streams through",
    ),
    (
        "batch_sweep",
        "8-member parameter sweep on 17 qubits through the batch executor: the batch-major twin of every solo kernel",
    ),
    (
        "serve_warm",
        "2 closed-loop clients, one program structure, slope varied: every request hits the daemon's plan cache",
    ),
    (
        "serve_cold",
        "same daemon and clients, every request a structure the cache does not hold: planning and lowering paid per request",
    ),
];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("hybrid_s", "s", Lower, 0.25),
    gated("emulate_s", "s", Lower, 0.25),
    gated("simulate_s", "s", Lower, 0.25),
    gated("batch_s", "s", Lower, 0.25),
    gated("req_p50_ms", "ms", Lower, 0.25),
    gated("req_per_s", "1/s", Higher, 0.25),
    gated("peak_rss_mib", "MiB", Lower, 0.20),
];

/// Single layers, measured from outside in the traced run. Never gated.
/// A layer a workload does not exercise, and a probe a workload does not
/// run, read 0 there (README, "Per-layer metrics").
pub const PER_LAYER: &[Metric] = &[
    // Host ceilings.
    layer("host.triad_gbps", "GB/s", Higher),
    layer("host.triad_1t_gbps", "GB/s", Higher),
    layer("host.llc_mib", "MiB", Higher),
    layer("host.triad_array_mib", "MiB", Higher),
    layer("host.state_alloc_s", "s", Lower),
    // linalg::simd.
    layer("linalg.simd.butterfly_gbps", "GB/s", Higher),
    layer("linalg.simd.butterfly_scalar_gbps", "GB/s", Higher),
    layer("linalg.simd.butterfly_frac_of_triad", "ratio", Higher),
    // linalg::{gemm, eig, power}.
    layer("linalg.gemm_gflops", "GFLOP/s", Higher),
    layer("linalg.eig_s", "s", Lower),
    layer("linalg.powers_s", "s", Lower),
    // fft.
    layer("fft.inplace_s", "s", Lower),
    layer("fft.gbps_computed", "GB/s", Higher),
    layer("fft.frac_of_triad", "ratio", Higher),
    // sim::kernels.
    layer("sim.kernels.h_q0_gbps", "GB/s", Higher),
    layer("sim.kernels.h_qmid_gbps", "GB/s", Higher),
    layer("sim.kernels.h_qtop_gbps", "GB/s", Higher),
    layer("sim.kernels.cphase_gbps", "GB/s", Higher),
    layer("sim.kernels.x_gbps", "GB/s", Higher),
    layer("sim.kernels.swap_gbps", "GB/s", Higher),
    layer("sim.kernels.h_frac_of_triad", "ratio", Higher),
    layer("sim.kernels.serial_gate_ns", "ns", Lower),
    // sim::{fusion, segment} on the workload's gate content.
    layer("sim.pergate_s", "s", Lower),
    layer("sim.fused_s", "s", Lower),
    layer("sim.segmented_s", "s", Lower),
    layer("sim.segmented_1t_s", "s", Lower),
    layer("sim.fusion.compile_s", "s", Lower),
    layer("sim.segment.compile_s", "s", Lower),
    layer("sim.touched_entries", "count", Lower),
    layer("sim.segment.streamed_ratio", "ratio", Lower),
    layer("sim.amp_updates_per_s", "1/s", Higher),
    // sim::batch.
    layer("sim.batch.gate_gbps", "GB/s", Higher),
    layer("sim.batch.transpose_s", "s", Lower),
    layer("sim.batch.seq_loop_s", "s", Lower),
    layer("sim.batch.speedup_vs_seq", "ratio", Higher),
    // baselines.
    layer("baselines.qhipster_s", "s", Lower),
    layer("sim.speedup_vs_qhipster", "ratio", Higher),
    // The rayon shim's pool.
    layer("pool.dispatch_ns", "ns", Lower),
    layer("pool.tasks_dispatched", "count", Lower),
    layer("pool.parks", "count", Lower),
    layer("pool.speedup_nt", "ratio", Higher),
    // core::planner and the plan interpreter.
    layer("planner.plan_cold_s", "s", Lower),
    layer("planner.lookup_s", "s", Lower),
    layer("planner.steps", "count", Lower),
    layer("planner.steps_emulated", "count", Higher),
    layer("planner.steps_mps", "count", Lower),
    layer("planner.pred_over_meas_gmean", "ratio", Higher),
    layer("planner.pred_over_meas_worst", "ratio", Higher),
    layer("planner.hybrid_over_best_fixed", "ratio", Lower),
    layer("planner.calibrated_s", "s", Lower),
    layer("planner.calibrated_diff_steps", "count", Lower),
    layer("exec.share.fft", "ratio", Lower),
    layer("exec.share.classical", "ratio", Lower),
    layer("exec.share.qpe", "ratio", Lower),
    layer("exec.share.pergate", "ratio", Lower),
    layer("exec.share.fused", "ratio", Lower),
    layer("exec.share.segmented", "ratio", Lower),
    layer("exec.share.mps", "ratio", Lower),
    // core::{calibration, classical, qpe}, sim::dense, revarith.
    layer("calibration.measure_host_s", "s", Lower),
    layer("core.classical.map_s", "s", Lower),
    layer("core.classical.entries_per_s", "1/s", Higher),
    layer("core.qpe.squaring_s", "s", Lower),
    layer("core.qpe.eig_s", "s", Lower),
    layer("core.qpe.gate_level_s", "s", Lower),
    layer("sim.dense.build_s", "s", Lower),
    layer("revarith.synth_s", "s", Lower),
    layer("revarith.gates", "count", Lower),
    // serve.
    layer("serve.wire.encode_s", "s", Lower),
    layer("serve.wire.decode_s", "s", Lower),
    layer("serve.wire.bytes_per_req", "count", Lower),
    layer("serve.inproc_s", "s", Lower),
    layer("serve.exec_ms", "ms", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.req_p95_ms", "ms", Lower),
    layer("serve.req_p99_ms", "ms", Lower),
    layer("serve.req_max_ms", "ms", Lower),
    layer("serve.plan_hits", "count", Higher),
    layer("serve.plan_misses", "count", Lower),
    layer("serve.plan_evictions", "count", Lower),
    layer("serve.batched_share", "ratio", Higher),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.fast_lane_share", "ratio", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.exec_failures", "count", Lower),
    // The harness itself.
    layer("trace.overhead_frac", "ratio", Lower),
    layer("fail_ratio", "ratio", Lower),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in workload_names() {
            assert!(valid_name(name) && seen.insert(name), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, metric) in listed.iter().zip(catalogue) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
                assert_eq!(field("name"), metric.name);
                assert_eq!(field("unit"), metric.unit, "{}", metric.name);
                assert_eq!(field("better"), metric.better.as_str(), "{}", metric.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    metric.bound,
                    "{}",
                    metric.name
                );
            }
        }
    }
}
