//! The traced pass: every path re-run a few times decomposed into the
//! public calls it is made of, one span per layer boundary, and the
//! per-layer metrics computed from those spans and from the stand-alone
//! probes of `probes.rs`.
//!
//! Which probes run depends on the workload (README, "Per-layer
//! metrics"); a metric whose layer a workload neither exercises nor
//! probes reads 0 there.

use crate::check::Tally;
use crate::e2e::{self, Path, Reply, Rig};
use crate::host;
use crate::metrics::PER_LAYER;
use crate::probes::{self, median_of, single_threaded, time_median};
use crate::stats::{geometric_mean, median, percentile};
use crate::trace::{self, Source, Tracer};
use crate::workloads::Sizes;
use qcemu_baselines::QhipsterSim;
use qcemu_core::{
    apply_classical_map, apply_qpe, Backend, CostModel, ExecutionPlan, Executor, HighLevelOp,
    HybridExecutor, PlanInterpreter, PlanReport, QpeStrategy,
};
use qcemu_serve::{wire, EmuClient};
use qcemu_sim::{
    circuit_to_dense, fuse_circuit, qft_circuit, segment_circuit, BatchStateVector, SimConfig,
    StateVector, DEFAULT_BLOCK_BITS, DEFAULT_MAX_FUSED_QUBITS,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Decomposed repetitions of each path.
const TRACED_ITERS: usize = 5;
/// A path whose cold run took longer than this is decomposed once, not
/// `TRACED_ITERS` times.
const TRACE_ONCE_ABOVE_S: f64 = 0.5;
/// Samples of the slower layer probes.
const PROBE_REPS: usize = 3;

/// The per-layer metrics of one traced run, every catalogued name
/// present, 0 until measured.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"));
        *slot = value;
    }

    /// In catalogue order.
    pub fn in_order(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.values[m.name]))
            .collect()
    }
}

/// The layer a plan step's time belongs to.
fn backend_layer(backend: &str) -> &'static str {
    match backend.split(['(', '+']).next().unwrap_or(backend) {
        "emulate:classical" => "core.classical",
        "emulate:fft" => "fft",
        "qpe:gate-level" | "qpe:squaring" | "qpe:eigen" => "core.qpe",
        "simulate:fused" => "sim.fused",
        "simulate:segmented" => "sim.segmented",
        "simulate:mps" => "sim.mps",
        _ => "sim.pergate",
    }
}

/// The steps a report carries — (backend as displayed, op, seconds) —
/// as program spans under the call that returned the report.
fn add_steps<'a>(
    tr: &mut Tracer,
    parent: usize,
    steps: impl Iterator<Item = (String, &'a str, f64)>,
) {
    tr.program_steps(
        parent,
        steps.map(|(backend, op, seconds)| (backend_layer(&backend), op, seconds)),
    );
}

/// One decomposed run of a solo path: `plan` then
/// `PlanInterpreter::execute`, the report's steps as program spans.
/// Returns the root span's id and the report.
fn traced_solo(
    rig: &Rig,
    tr: &mut Tracer,
    tally: &mut Tally,
    path: Path,
) -> (usize, Option<PlanReport>) {
    let program = &rig.w.program;
    let input = rig.input();
    let root = tr.begin(None, "harness", path.metric());
    let (plan, interp): (Arc<ExecutionPlan>, PlanInterpreter) = match path {
        Path::Hybrid => {
            let cached = tr.scope(Some(root), "core.planner", "planner.lookup", || {
                rig.hybrid.cached_plan(program)
            });
            let plan = cached.unwrap_or_else(|| Arc::new(rig.hybrid.plan(program)));
            (plan, PlanInterpreter::new(rig.hybrid.config))
        }
        Path::Emulate => (
            Arc::new(
                tr.scope(Some(root), "core.planner", "planner.plan_emulated", || {
                    rig.emulator.plan(program)
                }),
            ),
            PlanInterpreter::new(rig.emulator.config),
        ),
        _ => (
            Arc::new(
                tr.scope(Some(root), "core.planner", "planner.plan_simulated", || {
                    rig.simulator.plan(program)
                }),
            ),
            PlanInterpreter {
                config: rig.simulator.config,
                elementary: rig.simulator.elementary_gates,
            },
        ),
    };
    let exec = tr.begin(Some(root), "core.executor", "interpreter.execute");
    let out = interp.execute(program, &plan, input);
    tr.end(exec);
    tr.end(root);
    match out {
        Ok((state, report)) => {
            let steps = report.steps.iter();
            add_steps(
                tr,
                exec,
                steps.map(|s| (s.backend.to_string(), s.op.as_str(), s.measured_s)),
            );
            rig.check_solo(tally, &format!("traced {}", path.metric()), &state);
            (root, Some(report))
        }
        Err(e) => {
            tally.record(Some(format!("traced {}: {e}", path.metric())));
            (root, None)
        }
    }
}

fn traced_batch(rig: &Rig, tr: &mut Tracer, tally: &mut Tally) -> usize {
    let input = rig.batch_input();
    let root = tr.begin(None, "harness", Path::Batch.metric());
    let exec = tr.begin(Some(root), "core.batch", "batch.run_with_report");
    let out = rig.batch.run_with_report(&rig.w.members, input);
    tr.end(exec);
    tr.end(root);
    match out {
        Ok((states, report)) => {
            let steps = report.steps.iter();
            add_steps(
                tr,
                exec,
                steps.map(|s| (s.backend.to_string(), s.op.as_str(), s.measured_s)),
            );
            rig.check_batch(tally, "traced batch_s", &states);
        }
        Err(e) => tally.record(Some(format!("traced batch_s: {e}"))),
    }
    root
}

/// Runs the traced pass of one workload. `seconds` bounds the serve
/// workloads' closed loop; everything else has fixed repetition counts.
pub fn run(
    rig: &Rig,
    sizes: &Sizes,
    seconds: f64,
    quick: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Layers {
    let mut layers = Layers::new();
    let name = rig.w.name;
    let n = rig.w.n_qubits();

    // --- traced and untraced runs of the paths, interleaved -------------
    let door = rig.front_door();
    let mut roots: [Vec<usize>; 4] = Default::default();
    let mut untraced = Vec::new();
    let mut reports = Vec::new();
    for iter in 0..TRACED_ITERS {
        tracer.iter = iter;
        for path in Path::ALL {
            if iter > 0 && rig.cold_s[path as usize] > TRACE_ONCE_ABOVE_S {
                continue;
            }
            let root = if path == Path::Batch {
                traced_batch(rig, tracer, tally)
            } else {
                let (root, report) = traced_solo(rig, tracer, tally, path);
                if let (Path::Hybrid, Some(report)) = (path, report) {
                    reports.push(report);
                }
                root
            };
            roots[path as usize].push(root);
        }
        let elapsed = rig.sample(door, tally);
        if elapsed.is_finite() {
            untraced.push(elapsed);
        }
    }
    let root_median = |path: Path| {
        let durations: Vec<f64> = roots[path as usize]
            .iter()
            .map(|&id| tracer.spans[id].duration_s())
            .collect();
        median(&durations)
    };
    let traced_door = root_median(door);
    let untraced_door = median(&untraced);
    layers.set(
        "trace.overhead_frac",
        (traced_door - untraced_door) / untraced_door,
    );

    // --- core::planner, from the hybrid path's spans and reports --------
    let plan = rig.hybrid.plan(&rig.w.program);
    layers.set("planner.steps", plan.steps().len() as f64);
    let emulated = plan
        .steps()
        .iter()
        .filter(|s| !s.backend.is_simulate())
        .count();
    layers.set("planner.steps_emulated", emulated as f64);
    let mps = plan
        .steps()
        .iter()
        .filter(|s| matches!(s.backend, Backend::SimulateMps { .. }))
        .count();
    layers.set("planner.steps_mps", mps as f64);
    layers.set(
        "planner.lookup_s",
        trace::median_duration_s(&tracer.spans, "planner.lookup"),
    );
    layers.set(
        "planner.plan_cold_s",
        time_median(PROBE_REPS, || {
            black_box(HybridExecutor::new().plan(&rig.w.program));
        }),
    );
    if let Some(first) = reports.first() {
        // Per step: predicted ÷ median measured over the iterations.
        let ratios: Vec<f64> = (0..first.steps.len())
            .map(|i| {
                let measured: Vec<f64> = reports.iter().map(|r| r.steps[i].measured_s).collect();
                first.steps[i].predicted_s / median(&measured)
            })
            .filter(|r| r.is_finite() && *r > 0.0)
            .collect();
        layers.set("planner.pred_over_meas_gmean", geometric_mean(&ratios));
        let worst = ratios
            .iter()
            .copied()
            .max_by(|a, b| a.ln().abs().total_cmp(&b.ln().abs()))
            .unwrap_or(f64::NAN);
        layers.set("planner.pred_over_meas_worst", worst);
    }
    layers.set(
        "planner.hybrid_over_best_fixed",
        root_median(Path::Hybrid) / root_median(Path::Emulate).min(root_median(Path::Simulate)),
    );
    let shares = trace::layer_self_seconds(&tracer.spans, |s| {
        s.source == Source::Program
            && tracer.spans[s.parent.expect("program spans have parents")]
                .parent
                .is_some_and(|root| roots[Path::Hybrid as usize].contains(&root))
    });
    let total: f64 = shares.values().sum();
    for (layer, metric) in [
        ("fft", "exec.share.fft"),
        ("core.classical", "exec.share.classical"),
        ("core.qpe", "exec.share.qpe"),
        ("sim.pergate", "exec.share.pergate"),
        ("sim.fused", "exec.share.fused"),
        ("sim.segmented", "exec.share.segmented"),
        ("sim.mps", "exec.share.mps"),
    ] {
        layers.set(metric, shares.get(layer).copied().unwrap_or(0.0) / total);
    }

    let program_workload = matches!(
        name,
        "qft_stream" | "shor_mix" | "qpe_tfim" | "deep_resident"
    );
    if program_workload {
        calibrated_planner(rig, &plan, &mut layers, tally);
    }

    // --- sim::{fusion, segment} and the pool, on the gate content -------
    gate_content(rig, tracer, &mut layers);

    // --- stand-alone probes, by workload --------------------------------
    let llc_mib = host::llc_mib();
    layers.set("host.llc_mib", llc_mib.unwrap_or(0.0));
    layers.set("pool.dispatch_ns", probes::pool_dispatch_ns());
    match name {
        "qft_stream" => {
            // With no sysfs to read, assume a 32 MiB last-level cache.
            let triad = probes::triad(llc_mib.unwrap_or(32.0), host::total_ram_mib(), quick);
            layers.set("host.triad_gbps", triad.gbps);
            layers.set("host.triad_1t_gbps", triad.gbps_1t);
            layers.set("host.triad_array_mib", triad.array_mib);
            layers.set("host.state_alloc_s", probes::state_alloc_s(n));
            let (native, scalar) = probes::butterfly_gbps(n);
            layers.set("linalg.simd.butterfly_gbps", native);
            layers.set("linalg.simd.butterfly_scalar_gbps", scalar);
            layers.set("linalg.simd.butterfly_frac_of_triad", native / triad.gbps);
            let (fft_s, fft_gbps) = probes::fft(n);
            layers.set("fft.inplace_s", fft_s);
            layers.set("fft.gbps_computed", fft_gbps);
            layers.set("fft.frac_of_triad", fft_gbps / triad.gbps);
            let k = probes::kernels(n);
            layers.set("sim.kernels.h_q0_gbps", k.h_q0);
            layers.set("sim.kernels.h_qmid_gbps", k.h_qmid);
            layers.set("sim.kernels.h_qtop_gbps", k.h_qtop);
            layers.set("sim.kernels.cphase_gbps", k.cphase);
            layers.set("sim.kernels.x_gbps", k.x);
            layers.set("sim.kernels.swap_gbps", k.swap);
            layers.set("sim.kernels.h_frac_of_triad", k.h_qmid / triad.gbps);
            layers.set("sim.kernels.serial_gate_ns", probes::serial_gate_ns());
            // The qHiPSTER-style baseline on the same QFT (paper Fig. 5).
            let qft = qft_circuit(n);
            let baseline = QhipsterSim::new();
            let mut state = rig.input();
            let qhipster_s = time_median(PROBE_REPS, || baseline.run(&qft, &mut state));
            let ours_s = time_median(PROBE_REPS, || state.run(&qft, &SimConfig::segmented()));
            layers.set("baselines.qhipster_s", qhipster_s);
            layers.set("sim.speedup_vs_qhipster", qhipster_s / ours_s);
        }
        "deep_resident" => {
            let (native, scalar) = probes::butterfly_gbps(n);
            layers.set("linalg.simd.butterfly_gbps", native);
            layers.set("linalg.simd.butterfly_scalar_gbps", scalar);
            layers.set("sim.kernels.serial_gate_ns", probes::serial_gate_ns());
        }
        "shor_mix" => shor_layers(rig, sizes, &mut layers, tally),
        "qpe_tfim" => qpe_layers(rig, sizes, &mut layers, tally),
        "batch_sweep" => batch_layers(rig, traced_door, &mut layers),
        _ => serve_layers(rig, seconds, tracer, &mut layers, tally),
    }
    layers.set("fail_ratio", tally.fail_ratio());
    layers
}

/// `HybridExecutor::calibrated()` against the default model: its run
/// time, and how many steps it routes differently.
fn calibrated_planner(rig: &Rig, default: &ExecutionPlan, layers: &mut Layers, tally: &mut Tally) {
    let calibrated = HybridExecutor::calibrated();
    let plan = calibrated.plan(&rig.w.program);
    let differing = plan
        .steps()
        .iter()
        .zip(default.steps())
        .filter(|(a, b)| a.backend != b.backend)
        .count();
    layers.set("planner.calibrated_diff_steps", differing as f64);
    let calibrated_s = median_of(PROBE_REPS, || {
        let input = rig.input();
        let t0 = Instant::now();
        let out = calibrated.run(&rig.w.program, input);
        let elapsed = t0.elapsed().as_secs_f64();
        match out {
            Ok(state) => rig.check_solo(tally, "calibrated hybrid", &state),
            Err(e) => tally.record(Some(format!("calibrated hybrid: {e}"))),
        }
        elapsed
    });
    layers.set("planner.calibrated_s", calibrated_s);
}

/// The workload's raw gates through `StateVector::run` under each
/// execution tier, plus the compile steps and the pool counters of one
/// segmented run.
fn gate_content(rig: &Rig, tracer: &mut Tracer, layers: &mut Layers) {
    let gates = &rig.w.gates;
    let n = rig.w.n_qubits();
    let fused_config = SimConfig::fused(DEFAULT_MAX_FUSED_QUBITS);
    let mut state = rig.input();
    let mut times: [Vec<f64>; 4] = Default::default();
    for iter in 0..PROBE_REPS {
        tracer.iter = iter;
        let root = tracer.begin(None, "harness", "sim.gate_content");
        tracer.scope(Some(root), "sim.fusion", "fuse_circuit", || {
            black_box(fuse_circuit(gates, &fused_config.fusion));
        });
        tracer.scope(Some(root), "sim.segment", "segment_circuit", || {
            black_box(segment_circuit(
                gates,
                DEFAULT_BLOCK_BITS,
                &SimConfig::segmented().fusion,
            ));
        });
        for (slot, layer, label, config) in [
            (0, "sim.pergate", "run.pergate", SimConfig::unfused()),
            (1, "sim.fused", "run.fused", fused_config),
            (2, "sim.segmented", "run.segmented", SimConfig::segmented()),
        ] {
            let id = tracer.begin(Some(root), layer, label);
            state.run(gates, &config);
            times[slot].push(tracer.end(id));
        }
        let id = tracer.begin(Some(root), "sim.segmented", "run.segmented_1t");
        single_threaded(|| state.run(gates, &SimConfig::segmented()));
        times[3].push(tracer.end(id));
        tracer.end(root);
    }
    let [pergate, fused, segmented, segmented_1t] = times.map(|t| median(&t));
    layers.set("sim.pergate_s", pergate);
    layers.set("sim.fused_s", fused);
    layers.set("sim.segmented_s", segmented);
    layers.set("sim.segmented_1t_s", segmented_1t);
    layers.set("pool.speedup_nt", segmented_1t / segmented);
    layers.set(
        "sim.fusion.compile_s",
        trace::median_duration_s(&tracer.spans, "fuse_circuit"),
    );
    layers.set(
        "sim.segment.compile_s",
        trace::median_duration_s(&tracer.spans, "segment_circuit"),
    );
    let touched = gates.touched_entries(n) as f64;
    layers.set("sim.touched_entries", touched);
    layers.set("sim.amp_updates_per_s", touched / segmented);
    let seg = segment_circuit(gates, DEFAULT_BLOCK_BITS, &SimConfig::segmented().fusion);
    let streamed = seg.streamed_entries(n) as f64;
    layers.set(
        "sim.segment.streamed_ratio",
        streamed / (streamed + seg.incache_entries(n) as f64),
    );
    let before = rayon::pool::stats();
    state.run(gates, &SimConfig::segmented());
    let after = rayon::pool::stats();
    layers.set(
        "pool.tasks_dispatched",
        (after.tasks_dispatched - before.tasks_dispatched) as f64,
    );
    layers.set("pool.parks", (after.parks - before.parks) as f64);
}

fn shor_layers(rig: &Rig, sizes: &Sizes, layers: &mut Layers, tally: &mut Tally) {
    let t0 = Instant::now();
    black_box(CostModel::measure_host());
    layers.set("calibration.measure_host_s", t0.elapsed().as_secs_f64());

    let program = &rig.w.program;
    let map = program.ops().iter().find_map(|op| match op {
        HighLevelOp::Classical(map) => Some(map),
        _ => None,
    });
    if let Some(map) = map {
        let map_s = median_of(PROBE_REPS + 2, || {
            let mut state = rig.input();
            let t0 = Instant::now();
            let out = apply_classical_map(&mut state, program, map);
            let elapsed = t0.elapsed().as_secs_f64();
            tally.check(out.is_ok(), || format!("apply_classical_map: {out:?}"));
            elapsed
        });
        layers.set("core.classical.map_s", map_s);
        layers.set(
            "core.classical.entries_per_s",
            rig.input().dim() as f64 / map_s,
        );
    }
    let m = sizes.shor_m;
    layers.set(
        "revarith.synth_s",
        time_median(PROBE_REPS + 2, || {
            black_box(qcemu_revarith::multiplier(m));
        }),
    );
    layers.set(
        "revarith.gates",
        qcemu_revarith::multiplier(m).circuit.gate_count() as f64,
    );
}

fn qpe_layers(rig: &Rig, sizes: &Sizes, layers: &mut Layers, tally: &mut Tally) {
    let program = &rig.w.program;
    let Some(HighLevelOp::Qpe(op)) = program.ops().first() else {
        return;
    };
    let target = program.register(op.target).bits();
    let phase = program.register(op.phase).bits();
    let mut strategy_s = |strategy: QpeStrategy, reps: usize| {
        median_of(reps, || {
            let mut state = rig.input();
            let t0 = Instant::now();
            let out = apply_qpe(&mut state, op, &target, &phase, strategy);
            let elapsed = t0.elapsed().as_secs_f64();
            match out {
                Ok(()) => rig.check_solo(tally, "apply_qpe", &state),
                Err(e) => tally.record(Some(format!("apply_qpe: {e}"))),
            }
            elapsed
        })
    };
    layers.set(
        "core.qpe.squaring_s",
        strategy_s(QpeStrategy::RepeatedSquaring, PROBE_REPS),
    );
    layers.set(
        "core.qpe.eig_s",
        strategy_s(QpeStrategy::Eigendecomposition, PROBE_REPS),
    );
    layers.set(
        "core.qpe.gate_level_s",
        strategy_s(QpeStrategy::GateLevel, 1),
    );
    layers.set(
        "sim.dense.build_s",
        time_median(PROBE_REPS, || {
            black_box(circuit_to_dense(&op.unitary));
        }),
    );
    let dense = probes::dense(1 << sizes.qpe_spins, sizes.qpe_bits);
    layers.set("linalg.gemm_gflops", dense.gemm_gflops);
    layers.set("linalg.eig_s", dense.eig_s);
    layers.set("linalg.powers_s", dense.powers_s);
}

fn batch_layers(rig: &Rig, batch_s: f64, layers: &mut Layers) {
    let n = rig.w.n_qubits();
    let batch = rig.w.members.len();
    layers.set("sim.batch.gate_gbps", probes::batch_gate_gbps(n, batch));
    let states: Vec<StateVector> = vec![rig.reference.clone(); batch];
    layers.set(
        "sim.batch.transpose_s",
        time_median(PROBE_REPS, || {
            black_box(BatchStateVector::from_states(&states).to_states());
        }),
    );
    // The loop the batch replaces: one solo hybrid run per member, each
    // a fresh instance that plans for itself.
    let sequential = HybridExecutor::new();
    let seq_loop_s = time_median(PROBE_REPS, || {
        for member in &rig.w.members {
            black_box(
                sequential
                    .run(member, rig.input())
                    .expect("solo member run"),
            );
        }
    });
    layers.set("sim.batch.seq_loop_s", seq_loop_s);
    layers.set("sim.batch.speedup_vs_seq", seq_loop_s / batch_s);
}

fn serve_layers(
    rig: &Rig,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let traffic = rig.w.serve.as_ref().expect("a serve workload");
    let daemon = rig.daemon.as_ref().expect("a serve workload");

    // The closed loop, shorter than in the end-to-end pass.
    let before = daemon.handle().stats();
    let (replies, _) = rig.closed_loop((seconds / 3.0).min(4.0), tally);
    let after = daemon.handle().stats();
    let latencies_ms: Vec<f64> = replies.iter().map(|r| 1e3 * r.latency_s).collect();
    let exec_ms: Vec<f64> = replies.iter().map(|r: &Reply| 1e3 * r.exec_s).collect();
    layers.set("serve.exec_ms", median(&exec_ms));
    layers.set(
        "serve.overhead_ms",
        median(&latencies_ms) - median(&exec_ms),
    );
    layers.set("serve.req_p95_ms", percentile(&latencies_ms, 95.0));
    layers.set("serve.req_p99_ms", percentile(&latencies_ms, 99.0));
    layers.set("serve.req_max_ms", percentile(&latencies_ms, 100.0));
    let delta = |f: fn(&qcemu_serve::StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let served = delta(|s| s.served).max(1.0);
    layers.set("serve.plan_hits", delta(|s| s.plan_hits));
    layers.set("serve.plan_misses", delta(|s| s.plan_misses));
    layers.set("serve.plan_evictions", delta(|s| s.plan_evictions));
    layers.set(
        "serve.batched_share",
        delta(|s| s.batched_requests) / served,
    );
    // Coalesced runs hold `batched_requests`; every other request ran alone.
    let runs = delta(|s| s.batches) + (served - delta(|s| s.batched_requests));
    layers.set("serve.mean_batch", served / runs.max(1.0));
    layers.set("serve.fast_lane_share", delta(|s| s.fast_lane) / served);
    layers.set(
        "serve.rejected",
        delta(|s| s.rejected_qubits + s.rejected_cost + s.rejected_queue_full + s.malformed),
    );
    layers.set("serve.exec_failures", delta(|s| s.exec_failures));

    // One client, its first requests decomposed: encode, then the round
    // trip with the reply's own step timings as its children.
    let requests = &traffic.clients[0];
    let decode = |payload: &[u8]| wire::decode_submit(payload).expect("own payloads decode");
    let mut client = match EmuClient::connect(daemon.handle().addr()) {
        Ok(c) => c,
        Err(e) => return tally.record(Some(format!("traced connect: {e}"))),
    };
    for (iter, request) in requests.iter().take(TRACED_ITERS).enumerate() {
        tracer.iter = iter;
        let (wire_program, options) = decode(&request.payload);
        let root = tracer.begin(None, "harness", "serve.request");
        let payload = tracer.scope(Some(root), "serve.wire", "encode_submit", || {
            wire::encode_submit(&wire_program, &options)
        });
        let submit = tracer.begin(Some(root), "serve", "submit_encoded");
        let result = client.submit_encoded(&payload);
        tracer.end(submit);
        tracer.end(root);
        match result {
            Ok(result) => {
                let steps = result.report.iter();
                add_steps(
                    tracer,
                    submit,
                    steps.map(|s| (s.backend.clone(), s.op.as_str(), s.measured_s)),
                );
                daemon.check_reply(tally, traffic.cold, request.slope, &result);
            }
            Err(e) => tally.record(Some(format!("traced request: {e}"))),
        }
    }

    // serve::wire, and the execution of one request in-process.
    let payload = &requests[0].payload;
    let (wire_program, options) = decode(payload);
    layers.set("serve.wire.bytes_per_req", payload.len() as f64);
    layers.set(
        "serve.wire.encode_s",
        time_median(50, || {
            black_box(wire::encode_submit(&wire_program, &options));
        }),
    );
    layers.set(
        "serve.wire.decode_s",
        time_median(50, || {
            black_box(decode(payload).0.to_program().expect("a valid program"));
        }),
    );
    let program = wire_program.to_program().expect("a valid program");
    let twin = e2e::daemon_twin();
    layers.set(
        "serve.inproc_s",
        time_median(20, || {
            black_box(e2e::serve_in_process(&twin, &program));
        }),
    );
}
