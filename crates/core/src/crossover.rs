//! Crossover analysis for QPE strategies (paper §3.3 + Table 2).
//!
//! "Which of these approaches is more efficient depends on the required
//! precision and the size of the matrix." Given measured (or modelled)
//! timings of the four primitive steps —
//!
//! * `t_apply_u` — one gate-level application of `U` to the state,
//! * `t_build_dense` — constructing dense `U` (O(G·2²ⁿ)),
//! * `t_gemm` — one dense `U·U` multiplication (the `zgemm` of Table 2),
//! * `t_eig` — one full eigendecomposition (the `zgeev` of Table 2),
//!
//! the advisor computes, per precision `b`,
//!
//! * simulation cost `T_sim(b) = (2^b − 1)·t_apply_u` (Eq. 7: `U` is applied
//!   `2^b − 1` times in total across the controlled powers),
//! * repeated-squaring cost `T_rs(b) = t_build + b·t_gemm`,
//! * eigendecomposition cost `T_eig = t_build + t_eig`,
//!
//! and reports the smallest `b` at which each emulation path beats
//! simulation — the lower panel of Table 2.

use crate::qpe::QpeStrategy;

/// Measured or modelled timings of the QPE primitives, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct QpeTimings {
    /// Number of qubits `U` acts on.
    pub n: usize,
    /// Gate count `G` of the circuit implementing `U`.
    pub g: usize,
    /// One gate-level application of `U` (`G` sparse gate kernels).
    pub t_apply_u: f64,
    /// Dense construction of `U`.
    pub t_build_dense: f64,
    /// One `2^n × 2^n` complex GEMM.
    pub t_gemm: f64,
    /// One `2^n × 2^n` eigendecomposition.
    pub t_eig: f64,
}

impl QpeTimings {
    /// Simulation cost of a `b`-bit QPE.
    pub fn t_sim(&self, b: u32) -> f64 {
        ((2f64).powi(b as i32) - 1.0) * self.t_apply_u
    }

    /// Repeated-squaring emulation cost of a `b`-bit QPE.
    pub fn t_repeated_squaring(&self, b: u32) -> f64 {
        self.t_build_dense + b as f64 * self.t_gemm
    }

    /// Eigendecomposition emulation cost (independent of `b`).
    pub fn t_eigendecomposition(&self) -> f64 {
        self.t_build_dense + self.t_eig
    }

    /// Smallest `b` (≤ 64) at which repeated squaring beats simulation,
    /// or `None` if it never does.
    pub fn crossover_repeated_squaring(&self) -> Option<u32> {
        (1..=64).find(|&b| self.t_repeated_squaring(b) < self.t_sim(b))
    }

    /// Smallest `b` (≤ 64) at which eigendecomposition beats simulation.
    pub fn crossover_eigendecomposition(&self) -> Option<u32> {
        (1..=64).find(|&b| self.t_eigendecomposition() < self.t_sim(b))
    }

    /// Cheapest strategy at precision `b`.
    pub fn best_strategy(&self, b: u32) -> QpeStrategy {
        let sim = self.t_sim(b);
        let rs = self.t_repeated_squaring(b);
        let eig = self.t_eigendecomposition();
        if sim <= rs && sim <= eig {
            QpeStrategy::GateLevel
        } else if rs <= eig {
            QpeStrategy::RepeatedSquaring
        } else {
            QpeStrategy::Eigendecomposition
        }
    }
}

/// Analytic timing model (used where measurement is impractical, e.g. the
/// paper-scale rows of Table 2): costs are taken proportional to operation
/// counts with per-primitive throughput constants (ops/second).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QpeCostModel {
    /// Sustained rate for sparse gate application, amplitudes/s.
    pub gate_rate: f64,
    /// Sustained rate for dense construction, matrix entries/s.
    pub build_rate: f64,
    /// Sustained complex flops for GEMM.
    pub gemm_flops: f64,
    /// Sustained complex flops for the eigensolver (with its ~25·n³ flop
    /// count for Hessenberg + QR + vectors).
    pub eig_flops: f64,
}

impl QpeCostModel {
    /// Predicts primitive timings for an `n`-qubit, `G`-gate operator.
    pub fn predict(&self, n: usize, g: usize) -> QpeTimings {
        let dim = (2f64).powi(n as i32);
        QpeTimings {
            n,
            g,
            t_apply_u: g as f64 * dim / self.gate_rate,
            t_build_dense: g as f64 * dim * dim / self.build_rate,
            t_gemm: 8.0 * dim * dim * dim / self.gemm_flops,
            t_eig: 25.0 * 8.0 * dim * dim * dim / self.eig_flops,
        }
    }
}

/// Machine cost model for **every** high-level op, not just QPE — the
/// generalization the execution planner (`crate::planner`) consumes to
/// choose a backend per op.
///
/// Two regimes cover all backends:
///
/// * **memory-bound sweeps** — emulation shortcuts (table pass, FFT,
///   rotation sweep) and gate-level simulation both reduce to passes over
///   the 2ⁿ amplitudes; their cost is `entries written / entry_rate`,
///   with the entry counts coming from the traffic estimators
///   (`Circuit::touched_entries`, `FusedCircuit::touched_entries`);
/// * **label evaluation** — classical-map tables and oracle predicates
///   evaluate an `f(u64)`-style function per label at `table_rate`.
///
/// The QPE dense paths (GEMM / eigendecomposition) keep their dedicated
/// [`QpeCostModel`] rates. All predictions are *relative* costs on a
/// synthetic machine: the planner only compares them against each other,
/// so only the ratios matter. The defaults are calibrated to a
/// memory-bound state vector (≈10⁸–10⁹ entries/s) and hold up in the
/// `perf_suite`'s `planner.pred_over_meas_*` rows; for the real
/// host's constants — which shift whenever the SIMD kernels change the
/// per-entry arithmetic cost — use [`CostModel::calibrated`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// State-vector entries written per second by the per-gate butterfly
    /// sweep (memory-bound at large n, arithmetic-bound in cache).
    pub entry_rate: f64,
    /// State-vector entries written per second by the fused blocked
    /// kernels (gather + 2^k×2^k product + scatter). Distinct from
    /// [`CostModel::entry_rate`] because the per-entry arithmetic differs
    /// — and because SIMD accelerates the two loops by different factors.
    pub fused_entry_rate: f64,
    /// State-vector entries *replayed in cache* per second by the segment
    /// executor (`qcemu_sim::segment`): every op after the first in a
    /// blocked segment re-touches an L2-resident block, so its rate is
    /// bounded by cache bandwidth and SIMD arithmetic rather than DRAM.
    /// The default keeps the typical order-of-magnitude gap between L2
    /// and DRAM streaming bandwidth over [`CostModel::entry_rate`].
    pub cache_rate: f64,
    /// Classical label evaluations per second (map tables, predicates,
    /// rotation angles).
    pub table_rate: f64,
    /// One-off cost per gate of fusing + classifying a circuit
    /// (matrix compose and structure detection, paid before the first
    /// fused sweep). Charged only where a run pays it: segmented steps
    /// and fused steps on a built circuit compile per run, while a raw
    /// gate run's fused step applies the stream its plan carries and is
    /// priced with no compile term.
    pub fuse_per_gate: f64,
    /// Contraction work units per second of the compressed MPS backend
    /// (`qcemu_sim::mps`): the unit convention of
    /// [`estimate_mps_cost`](qcemu_sim::estimate_mps_cost), dominated by
    /// the χ³-scaling contract→SVD→truncate of each two-site apply. The
    /// SVD is dense arithmetic on tiny matrices, so the rate sits well
    /// below the streaming `entry_rate` per element — which is exactly
    /// why MPS only wins when χ stays small while 2ⁿ does not.
    pub mps_rate: f64,
    /// Seconds of fixed cost per parallel *dispatch* — one launch of the
    /// rayon shim's persistent worker pool (job publication, worker
    /// wake-up, completion wait). Every above-threshold sweep pays it
    /// once, so a depth-d circuit pays it d times while an emulation
    /// shortcut pays it once per pass — which is why it belongs in the
    /// planner's comparison. Measured by [`CostModel::calibrated`] as
    /// the wall time of an empty parallel region.
    pub dispatch_overhead: f64,
    /// Measured parallel speedup of the memory-bound sweep over a forced
    /// single-thread run (≥ 1). The calibrated `*_rate`s are measured
    /// with the pool warm and engaged, so *below*-threshold circuits —
    /// which the kernels run serially — are slower than `entries / rate`
    /// by exactly this factor; [`CostModel::t_sweeps`] applies it to the
    /// serial regime so small-state pricing stays honest on multi-core
    /// hosts. 1.0 on a single-thread host.
    pub thread_scale: f64,
    /// log2 of the segment executor's block size in amplitudes — the
    /// value both the segmented *pricing* (`t_gates_segmented`'s traffic
    /// split) and segmented *execution* (via
    /// `Backend::SimulateSegmented { block_bits }`) use. Defaults to
    /// `qcemu_sim::DEFAULT_BLOCK_BITS`; [`CostModel::calibrated`]
    /// replaces it with the block size the host's cache hierarchy
    /// actually replays fastest.
    pub block_bits: usize,
    /// Rates of the QPE dense-path primitives.
    pub qpe: QpeCostModel,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            entry_rate: 4e8,
            fused_entry_rate: 4e8,
            cache_rate: 4e9,
            table_rate: 5e7,
            fuse_per_gate: 2e-6,
            mps_rate: 2e8,
            dispatch_overhead: 2e-6,
            thread_scale: 1.0,
            block_bits: qcemu_sim::DEFAULT_BLOCK_BITS,
            qpe: QpeCostModel {
                gate_rate: 4e8,
                build_rate: 4e8,
                gemm_flops: 5e9,
                eig_flops: 1e9,
            },
        }
    }
}

impl CostModel {
    /// The host's **measured** cost model: micro-benchmarks every rate on
    /// first call (a few tens of milliseconds) and caches the result for
    /// the life of the process — the ROADMAP's "measured cost models"
    /// path, generalised beyond QPE.
    ///
    /// Calibrating at startup is what keeps the planner honest across
    /// kernel changes and hosts: the AVX2 kernels speed the fused dense
    /// product up by more than the butterfly sweep and far more than
    /// classical label evaluation, so crossover points genuinely move
    /// between a CPU that has them and one that does not — a [`HybridExecutor`](crate::executor::HybridExecutor) fed
    /// this model (`HybridExecutor::calibrated()`) shifts its per-op
    /// backend choices automatically instead of trusting the hand-tuned
    /// [`CostModel::default`] ratios.
    ///
    /// The measured rates also persist to disk
    /// (`$XDG_CACHE_HOME`/`~/.cache` + `qcemu/calibration.json`, keyed
    /// by a host fingerprint), so later processes on the same host skip
    /// the micro-benchmarks entirely. Set `QCEMU_CALIB_CACHE` to an
    /// alternative path, or to `off`/`0`/empty to disable persistence;
    /// a fingerprint or schema mismatch silently falls back to
    /// re-measuring.
    pub fn calibrated() -> CostModel {
        use std::sync::OnceLock;
        static HOST: OnceLock<CostModel> = OnceLock::new();
        *HOST.get_or_init(|| {
            crate::calibration::load_cached().unwrap_or_else(|| {
                let m = CostModel::measure_host();
                crate::calibration::store_cached(&m);
                m
            })
        })
    }

    /// Runs the calibration micro-benchmarks **now**, uncached. Prefer
    /// [`CostModel::calibrated`]; this entry point exists for harnesses
    /// that want to re-measure (e.g. after toggling
    /// `qcemu_linalg::simd::force_scalar` to quantify what SIMD does to
    /// the model's ratios).
    pub fn measure_host() -> CostModel {
        calibrate::measure()
    }

    /// Cost of `sweeps` passes writing `entries` state-vector entries in
    /// total at `rate` (entries/s), accounting for how the kernels
    /// actually run: a pass over ≥ [`qcemu_sim::PAR_THRESHOLD`] entries
    /// goes through the persistent pool and pays
    /// [`CostModel::dispatch_overhead`] once per sweep; a smaller pass
    /// runs serially and forfeits the [`CostModel::thread_scale`] factor
    /// folded into the calibrated rates.
    pub fn t_sweeps(&self, entries: usize, sweeps: usize, rate: f64) -> f64 {
        let per_sweep = entries / sweeps.max(1);
        if per_sweep >= qcemu_sim::PAR_THRESHOLD {
            entries as f64 / rate + sweeps as f64 * self.dispatch_overhead
        } else {
            entries as f64 * self.thread_scale / rate
        }
    }

    /// Cost of writing `entries` state-vector entries in one memory-bound
    /// sweep (dispatch-aware; see [`CostModel::t_sweeps`]).
    pub fn t_entries(&self, entries: usize) -> f64 {
        self.t_sweeps(entries, 1, self.entry_rate)
    }

    /// Emulated classical map over a `k_bits`-wide register tuple on a
    /// `2^n_state` state: build/validate the 2^k permutation table (or
    /// evaluate per amplitude when the table would not fit), then one
    /// scatter sweep.
    pub fn t_classical_emulated(&self, n_state: usize, k_bits: usize) -> f64 {
        let evals = if k_bits <= crate::classical::TABLE_MAX_BITS {
            (1u64 << k_bits) as f64
        } else {
            (2f64).powi(n_state as i32)
        };
        evals / self.table_rate + self.t_entries(1usize << n_state)
    }

    /// Emulated phase oracle: one conditional scan, one predicate call per
    /// amplitude.
    pub fn t_oracle_emulated(&self, n_state: usize) -> f64 {
        let dim = (1usize << n_state) as f64;
        dim / self.table_rate + dim / self.entry_rate
    }

    /// Emulated register-controlled rotation: one 2×2 rotation per
    /// amplitude pair (every entry written once), one angle evaluation per
    /// pair.
    pub fn t_rotation_emulated(&self, n_state: usize) -> f64 {
        let dim = 1usize << n_state;
        (dim / 2) as f64 / self.table_rate + self.t_entries(dim)
    }

    /// Gate-level cost of the generic per-value expansion of a rotation
    /// over an `m_bits` control register (2^m multi-controlled rotations,
    /// X-conjugated onto each value pattern) — computed analytically so
    /// the planner never has to materialise the exponential circuit just
    /// to reject it.
    pub fn t_rotation_simulated(&self, n_state: usize, m_bits: usize) -> f64 {
        let values = (2f64).powi(m_bits as i32);
        let x_sweeps = m_bits as f64; // ~m/2 zero bits, conjugated twice
        let dim = (2f64).powi(n_state as i32);
        let ry_entries = (2f64).powi((n_state - m_bits) as i32 + 1);
        values * (x_sweeps * dim + ry_entries) / self.entry_rate
    }

    /// Emulated QFT on an `r_bits` register, priced by what the FFT engine
    /// (`qcemu_fft`) does, in the two-rate form of
    /// [`CostModel::t_gates_segmented`]: the register is cut into
    /// `⌈r / block⌉` passes of at most one cache block
    /// (`qcemu_sim::DEFAULT_BLOCK_BITS`, the block the engine tiles by),
    /// each of which streams the state once, preceded by one bit-reversal
    /// pass when there is more than one; every amplitude is visited by
    /// `⌈r / 2⌉` radix-4 stages, the first of each pass riding on the
    /// streamed sweep and the rest replayed against a resident tile at
    /// the cache rate. Each streamed pass is one pool dispatch.
    pub fn t_qft_emulated(&self, n_state: usize, r_bits: usize) -> f64 {
        let dim = 1usize << n_state;
        let passes = r_bits.div_ceil(qcemu_sim::DEFAULT_BLOCK_BITS).max(1);
        let streamed = passes + usize::from(passes > 1);
        let replayed = r_bits.div_ceil(2).saturating_sub(passes);
        self.t_sweeps(streamed * dim, streamed, self.entry_rate)
            + (replayed * dim) as f64 / self.cache_rate
    }

    /// Unfused gate-level execution writing `unfused_entries` across
    /// `sweeps` per-gate kernel launches (the circuit's gate count).
    pub fn t_gates(&self, unfused_entries: usize, sweeps: usize) -> f64 {
        self.t_sweeps(unfused_entries, sweeps, self.entry_rate)
    }

    /// Fused gate-level execution: `sweeps` blocked sweeps (the fused
    /// circuit's op count, each one pool dispatch at the fused kernels'
    /// own measured rate) writing `fused_entries`, plus the one-off
    /// fuse/classify cost of `gate_count` gates. The planner passes the
    /// gates the run itself compiles: a circuit built per run counts all
    /// of them, a raw gate run whose stream the plan carries counts 0.
    pub fn t_gates_fused(&self, fused_entries: usize, gate_count: usize, sweeps: usize) -> f64 {
        self.t_sweeps(fused_entries, sweeps, self.fused_entry_rate)
            + gate_count as f64 * self.fuse_per_gate
    }

    /// Cache-blocked segment execution
    /// (`qcemu_sim::SegmentedCircuit`): the `streamed` entries cross
    /// memory once per segment at the sweep rate, the `incache` entries
    /// are replayed against resident blocks at the cache rate, the
    /// circuit pays the same one-off per-gate compile cost as fusion,
    /// and each of the `dispatches` parallel-region launches (one per
    /// blocked segment plus one per full-state sweep op) pays the pool's
    /// dispatch overhead.
    pub fn t_gates_segmented(
        &self,
        streamed: usize,
        incache: usize,
        gate_count: usize,
        dispatches: usize,
    ) -> f64 {
        streamed as f64 / self.entry_rate
            + incache as f64 / self.cache_rate
            + gate_count as f64 * self.fuse_per_gate
            + dispatches as f64 * self.dispatch_overhead
    }

    /// Compressed (MPS) execution of a circuit whose predicted
    /// contraction work is `units`
    /// ([`estimate_mps_cost`](qcemu_sim::estimate_mps_cost), only
    /// meaningful when the estimate is `exact`): the χ-law contraction
    /// term plus the dense↔MPS boundary — the plan interpreter imports
    /// the incoming state into site tensors and densifies back, two
    /// full-state passes at the sweep rate. Measured at n = 17 (2-core
    /// Xeon, `mps_ablation` section 4), a product state's import costs
    /// 2.0–2.4 streamed copies of the state and its densify 0.8–1.1, so
    /// the step runs at about this price (0.66 ms predicted, ≈ 0.6 ms
    /// run for 12 H gates on |0…0⟩). The boundary term is what keeps MPS
    /// honest per-op: a shallow circuit never wins just because its χ is
    /// small, only a *deep* low-entanglement circuit amortises the
    /// conversion.
    pub fn t_gates_mps(&self, units: f64, n_state: usize) -> f64 {
        units / self.mps_rate + 2.0 * (2f64).powi(n_state as i32) / self.entry_rate
    }

    /// QPE primitive timings for a `g`-gate unitary on an `m_bits` target
    /// register embedded in a `2^n_state` state. Unlike
    /// [`QpeCostModel::predict`] (which models the paper's stand-alone
    /// Table 2 setting), the gate-level `t_apply_u` here scales with the
    /// *full* state the program runs in — controlled-U sweeps the whole
    /// vector — while the dense build/GEMM/eig costs scale with the
    /// operator dimension `2^m` only.
    pub fn qpe_timings(&self, n_state: usize, m_bits: usize, g: usize) -> QpeTimings {
        let dim_state = (2f64).powi(n_state as i32);
        let dim_u = (2f64).powi(m_bits as i32);
        QpeTimings {
            n: m_bits,
            g,
            t_apply_u: g as f64 * dim_state / self.qpe.gate_rate,
            t_build_dense: g as f64 * dim_u * dim_u / self.qpe.build_rate,
            t_gemm: 8.0 * dim_u * dim_u * dim_u / self.qpe.gemm_flops,
            t_eig: 25.0 * 8.0 * dim_u * dim_u * dim_u / self.qpe.eig_flops,
        }
    }

    /// Total predicted cost of a `b`-bit QPE under `strategy`, including
    /// the parts the per-strategy `QpeTimings` formulas leave out because
    /// they cancel in *their* comparison: the final inverse QFT on the
    /// phase register (paid by **every** strategy — as a gate circuit on
    /// the gate-level path, as an FFT on the dense paths), and the one
    /// state-sized GEMM pass (`8·2^{n_state}·2^m` flops) in which the two
    /// dense strategies write the phase-register slices — the doubling
    /// sweep, or `D·Vᵀ`. Omitting the inverse QFT from the gate-level
    /// candidate would bias the planner toward simulation exactly in the
    /// crossover region.
    pub fn t_qpe(
        &self,
        n_state: usize,
        m_bits: usize,
        g: usize,
        b: usize,
        strategy: QpeStrategy,
    ) -> f64 {
        let t = self.qpe_timings(n_state, m_bits, g);
        let dim_state = (2f64).powi(n_state as i32);
        let dim_u = (2f64).powi(m_bits as i32);
        let iqft = self.t_qft_emulated(n_state, b);
        let dense_apply = 8.0 * dim_state * dim_u / self.qpe.gemm_flops;
        match strategy {
            QpeStrategy::GateLevel => t.t_sim(b as u32) + iqft,
            QpeStrategy::RepeatedSquaring => t.t_repeated_squaring(b as u32) + dense_apply + iqft,
            QpeStrategy::Eigendecomposition => t.t_eigendecomposition() + dense_apply + iqft,
        }
    }
}

/// The calibration micro-benchmarks behind [`CostModel::measure_host`].
///
/// Each primitive is timed on a working set small enough to finish in a
/// few milliseconds but large enough to dominate timer noise (best of a
/// few repetitions after a warm-up). The sizes live in cache, so the
/// measured rates are upper bounds on the DRAM-bound large-n rates —
/// uniformly so across primitives, which is what matters: the planner
/// only compares costs against each other.
mod calibrate {
    use super::{CostModel, QpeCostModel};
    use qcemu_linalg::{eig, gemm, random_matrix, random_unitary};
    use qcemu_sim::{
        circuit_to_dense, estimate_mps_cost, qft_circuit, segment_circuit, Circuit, FusionPolicy,
        Gate, MpsState, StateVector,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rayon::prelude::IntoParallelIterator;
    use std::time::Instant;

    /// Best-of-`reps` wall time of `f`, after one untimed warm-up run.
    fn time(reps: usize, mut f: impl FnMut()) -> f64 {
        f();
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best.max(1e-9)
    }

    /// Qubit count the sweep benchmarks run at: 2^16 amplitudes = 1 MiB,
    /// big enough to amortise per-call overhead, small enough to stay
    /// fast at startup.
    const N: usize = 16;

    pub(super) fn measure() -> CostModel {
        // Start the persistent pool's workers before timing anything, so
        // the measured rates reflect steady-state dispatch — not the
        // one-off thread spawns of a cold pool.
        rayon::pool::warm_up();

        let dim = 1usize << N;
        let sv = StateVector::uniform_superposition(N);

        // Butterfly sweep: one general gate writes every entry.
        let gate = Gate::h(N / 2);
        let mut state = sv.clone();
        let t_butterfly = time(3, || {
            state.apply(&gate);
            std::hint::black_box(state.amplitudes()[1]);
        });

        // Per-dispatch overhead: wall time of a near-empty parallel
        // region is pure job publication + wake-up + completion wait.
        let reps = 64;
        let t_dispatch = time(3, || {
            for _ in 0..reps {
                (0..2).into_par_iter().for_each(|i| {
                    std::hint::black_box(i);
                });
            }
        }) / reps as f64;

        // Thread scaling of the memory-bound sweep: the same butterfly
        // under a forced single-thread install. The ratio is what the
        // serial (below-threshold) regime forfeits relative to the
        // pool-engaged rates measured above.
        let serial_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("shim pool build is infallible");
        let mut serial_state = sv.clone();
        let t_butterfly_serial = time(3, || {
            serial_pool.install(|| serial_state.apply(&gate));
            std::hint::black_box(serial_state.amplitudes()[1]);
        });
        let thread_scale = (t_butterfly_serial / t_butterfly)
            .clamp(1.0, rayon::current_num_threads().max(1) as f64);

        // Fused blocked sweep: a dense 2^4-wide block (the classify
        // threshold guarantees the Dense mat-vec path) also writes every
        // entry, through gather + product + scatter.
        let mut c = Circuit::new(N);
        for _ in 0..4 {
            for q in 8..12 {
                c.h(q);
                c.ry(q, 0.37);
            }
        }
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 4,
        });
        let sweeps = fused.ops().len().max(1);
        let mut state = sv.clone();
        let t_fused = time(3, || {
            state.apply_fused_circuit(&fused);
            std::hint::black_box(state.amplitudes()[1]);
        });

        // In-cache segment replay: a QFT compiled at whole-state block
        // size replays every op against a 64 KiB resident block, so the
        // measured rate is cache/SIMD-bound rather than DRAM-bound —
        // exactly the regime `t_gates_segmented`'s incache term models.
        let seg_n = 12;
        let seg = segment_circuit(&qft_circuit(seg_n), seg_n, &FusionPolicy::Disabled);
        let seg_entries = seg.incache_entries(seg_n).max(1);
        let mut state = StateVector::uniform_superposition(seg_n);
        let t_cache = time(3, || {
            seg.apply(state.amplitudes_mut(), 1, usize::MAX);
            std::hint::black_box(state.amplitudes()[1]);
        });

        // Classical label throughput: one table-build-style pass mapping
        // every label through an opaque boxed closure — the same dynamic
        // dispatch `apply_classical_map` pays per label, so the measured
        // rate reflects real map evaluation, not an inlined loop.
        let map: Box<crate::program::RegisterMap> =
            std::hint::black_box(Box::new(|v: &mut [u64]| {
                v[0] = v[0].wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13);
            }));
        let mut scratch = [0u64; 2];
        let t_table = time(3, || {
            let mut acc = 0u64;
            for v in 0..dim as u64 {
                scratch[0] = v;
                map(&mut scratch);
                acc ^= scratch[0];
            }
            std::hint::black_box(acc);
        });

        // Fusion (compose + classify) cost per gate.
        let qft = qft_circuit(10);
        let t_fuse = time(2, || {
            std::hint::black_box(qft.fuse(&FusionPolicy::greedy()).ops().len());
        });

        // MPS contraction throughput: a brickwork chain circuit run at a
        // representative bounded χ, normalised by the same work-unit
        // estimate the planner prices with — so rate × estimate
        // round-trips to wall time by construction.
        let chain_n = 10;
        let mut chain = Circuit::new(chain_n);
        for layer in 0..4 {
            for q in 0..chain_n {
                chain.ry(q, 0.3 + 0.1 * layer as f64 + 0.01 * q as f64);
            }
            for q in 0..chain_n - 1 {
                chain.cnot(q, q + 1);
            }
        }
        let mps_units = estimate_mps_cost(&chain, 16).units.max(1.0);
        let t_mps = time(3, || {
            let mut mps = MpsState::zero_state(chain_n, 16);
            mps.run(&chain);
            std::hint::black_box(mps.truncation_error());
        });

        // Cache-hierarchy probe for the segment block size: replay a
        // segmented QFT (larger than any candidate block) at each
        // candidate and keep the fastest — the measured stand-in for
        // "half a per-core L2" that DEFAULT_BLOCK_BITS hand-codes.
        let probe_n = 16;
        let probe = qft_circuit(probe_n);
        let mut probe_state = StateVector::uniform_superposition(probe_n);
        let block_bits = [10usize, 12, 14]
            .into_iter()
            .map(|bb| {
                let seg = segment_circuit(&probe, bb, &FusionPolicy::Disabled);
                let t = time(1, || {
                    seg.apply(probe_state.amplitudes_mut(), 1, usize::MAX);
                    std::hint::black_box(probe_state.amplitudes()[1]);
                });
                (t, bb)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, bb)| bb)
            .unwrap_or(qcemu_sim::DEFAULT_BLOCK_BITS);

        // QPE dense-path primitives at small operator sizes.
        let build_circuit = qft_circuit(6);
        let build_dim = 1usize << 6;
        let t_build = time(2, || {
            std::hint::black_box(circuit_to_dense(&build_circuit).shape());
        });
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (ga, gb) = (
            random_matrix(128, 128, &mut rng),
            random_matrix(128, 128, &mut rng),
        );
        let t_gemm = time(2, || {
            std::hint::black_box(gemm(&ga, &gb).shape());
        });
        let u = random_unitary(32, &mut rng);
        let t_eig = time(1, || {
            std::hint::black_box(eig(&u).map(|e| e.values.len()).unwrap_or(0));
        });

        CostModel {
            entry_rate: dim as f64 / t_butterfly,
            fused_entry_rate: (sweeps * dim) as f64 / t_fused,
            cache_rate: seg_entries as f64 / t_cache,
            table_rate: dim as f64 / t_table,
            fuse_per_gate: t_fuse / qft.gate_count().max(1) as f64,
            mps_rate: mps_units / t_mps,
            dispatch_overhead: t_dispatch.max(1e-9),
            thread_scale,
            block_bits,
            qpe: QpeCostModel {
                gate_rate: dim as f64 / t_butterfly,
                build_rate: (build_circuit.gate_count() * build_dim * build_dim) as f64 / t_build,
                gemm_flops: 8.0 * 128f64.powi(3) / t_gemm,
                eig_flops: 25.0 * 8.0 * 32f64.powi(3) / t_eig,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic machine with paper-like ratios.
    fn model() -> QpeCostModel {
        QpeCostModel {
            gate_rate: 1e9,
            build_rate: 1e9,
            gemm_flops: 2e10,
            eig_flops: 4e9,
        }
    }

    #[test]
    fn costs_are_monotone_in_b() {
        let t = model().predict(10, 37);
        assert!(t.t_sim(10) < t.t_sim(11));
        assert!(t.t_repeated_squaring(10) < t.t_repeated_squaring(11));
        // Eigendecomposition is flat in b.
        assert_eq!(t.t_eigendecomposition(), t.t_eigendecomposition());
    }

    #[test]
    fn crossover_grows_with_n() {
        // Paper Table 2: repeated-squaring crossover rises 6 → 24 bits as
        // n goes 8 → 14 (roughly ~2n + const in their data).
        let m = model();
        let mut prev = 0;
        for n in 8..=14 {
            let g = 4 * n - 3;
            let t = m.predict(n, g);
            let x = t.crossover_repeated_squaring().expect("must cross");
            assert!(
                x > prev,
                "crossover must increase: n={n}, x={x}, prev={prev}"
            );
            prev = x;
        }
    }

    #[test]
    fn crossover_scales_like_2n_asymptotically() {
        // §3.3: "There is an advantage in the asymptotic scaling […] if
        // b ≥ 2n". With constants equal, crossover/n → 2.
        let m = QpeCostModel {
            gate_rate: 1e9,
            build_rate: 1e9,
            gemm_flops: 8e9, // t_gemm = dim³/1e9 exactly
            eig_flops: 8e9,
        };
        let t = m.predict(16, 61);
        let x = t.crossover_repeated_squaring().unwrap();
        let ratio = x as f64 / 16.0;
        assert!(
            (1.7..=2.4).contains(&ratio),
            "crossover/n = {ratio}, expected ≈ 2"
        );
    }

    #[test]
    fn best_strategy_switches_with_precision() {
        let t = model().predict(10, 37);
        // Tiny precision: simulating a handful of U applications is cheapest.
        assert_eq!(t.best_strategy(1), QpeStrategy::GateLevel);
        // Past the crossover, an emulation path wins.
        let x = t.crossover_repeated_squaring().unwrap();
        assert_ne!(t.best_strategy(x + 4), QpeStrategy::GateLevel);
        // At high precision, eigendecomposition (flat in b) wins once
        // b·t_gemm exceeds t_eig — use a model with a fast eigensolver.
        let fast_eig = QpeCostModel {
            eig_flops: 2e10,
            ..model()
        };
        let t2 = fast_eig.predict(10, 37);
        assert_eq!(t2.best_strategy(60), QpeStrategy::Eigendecomposition);
    }

    #[test]
    fn eigendecomposition_crossover_behaviour() {
        let t = model().predict(9, 33);
        let x = t.crossover_eigendecomposition().expect("must cross");
        // One step before the crossover simulation must still win.
        assert!(t.t_sim(x - 1) <= t.t_eigendecomposition());
        assert!(t.t_sim(x) > t.t_eigendecomposition());
    }

    #[test]
    fn cost_model_classical_crossover_mirrors_fig1() {
        // Paper Fig. 1: the emulated table pass beats the reversible
        // network, and the gap widens with size. The model's emulated cost
        // is a table build plus ONE sweep; any multi-gate network on the
        // same state costs at least gate_count sweeps.
        let m = CostModel::default();
        for n in 10..=20 {
            let emulated = m.t_classical_emulated(n, 3 * (n / 3));
            let network = m.t_gates(50 * (1usize << n), 50); // ~50-gate adder net
            assert!(emulated < network, "n = {n}");
        }
    }

    #[test]
    fn cost_model_qft_crossover_depends_on_register_width() {
        // The FFT streams the state a fixed few times; the circuit's
        // ~r²/8 gate-sweep traffic grows with the register. So the
        // emulation advantage is large for wide registers and vanishes —
        // without reversing — for tiny ones.
        let m = CostModel::default();
        let n = 20;
        let r = 16;
        let circuit = qcemu_sim::qft_circuit(r);
        let gates = m.t_gates(circuit.touched_entries(n), circuit.gate_count());
        assert!(
            4.0 * m.t_qft_emulated(n, r) < gates,
            "wide QFT must prefer FFT by a wide margin"
        );
        // Narrow register: the 4 gates fuse into one 2-qubit block, one
        // blocked sweep — and the FFT is one in-register radix-4 sweep.
        let r = 2;
        let circuit = qcemu_sim::qft_circuit(r);
        let fc = circuit.fuse(&qcemu_sim::FusionPolicy::greedy());
        let fused = m.t_gates_fused(fc.touched_entries(n), circuit.gate_count(), fc.ops().len());
        let fft = m.t_qft_emulated(n, r);
        assert!(
            fft <= fused && fused < 1.01 * fft,
            "narrow QFT is one sweep either way: fft {fft}, fused {fused}"
        );
        // A register wider than one cache block pays the reversal and a
        // second pass, never a pass per bit.
        let one_sweep = m.t_entries(1usize << 24);
        assert!(m.t_qft_emulated(24, 24) < 4.0 * one_sweep);
        assert!(m.t_qft_emulated(24, 24) > 3.0 * one_sweep);
    }

    #[test]
    fn cost_model_rotation_expansion_is_exponential() {
        let m = CostModel::default();
        let n = 18;
        // Emulation is flat in the control width; the expansion doubles
        // per control bit and loses catastrophically.
        let emu = m.t_rotation_emulated(n);
        assert!(m.t_rotation_simulated(n, 4) > emu);
        assert!(m.t_rotation_simulated(n, 10) > 20.0 * m.t_rotation_simulated(n, 5));
    }

    #[test]
    fn cost_model_qpe_total_includes_epilogue_and_orders_strategies() {
        let m = CostModel::default();
        // High precision on a small operator: eigendecomposition's flat
        // cost must beat per-bit repeated squaring, and both must beat
        // 2^b gate applications.
        let (n_state, m_bits, g, b) = (16, 4, 16, 24);
        let eig = m.t_qpe(n_state, m_bits, g, b, QpeStrategy::Eigendecomposition);
        let rs = m.t_qpe(n_state, m_bits, g, b, QpeStrategy::RepeatedSquaring);
        let sim = m.t_qpe(n_state, m_bits, g, b, QpeStrategy::GateLevel);
        assert!(eig < sim && rs < sim, "emulation beats 2^24 applications");
        // At b = 1 with a short circuit the gate-level path is cheapest:
        // one application of U beats building the dense operator.
        let g = 4;
        let sim1 = m.t_qpe(n_state, m_bits, g, 1, QpeStrategy::GateLevel);
        assert!(sim1 < m.t_qpe(n_state, m_bits, g, 1, QpeStrategy::RepeatedSquaring));
    }

    #[test]
    fn calibrated_model_is_finite_positive_and_cached() {
        let m = CostModel::calibrated();
        for (name, rate) in [
            ("entry_rate", m.entry_rate),
            ("fused_entry_rate", m.fused_entry_rate),
            ("cache_rate", m.cache_rate),
            ("table_rate", m.table_rate),
            ("mps_rate", m.mps_rate),
            ("gate_rate", m.qpe.gate_rate),
            ("build_rate", m.qpe.build_rate),
            ("gemm_flops", m.qpe.gemm_flops),
            ("eig_flops", m.qpe.eig_flops),
        ] {
            assert!(rate.is_finite() && rate > 0.0, "{name} = {rate}");
        }
        assert!(m.fuse_per_gate.is_finite() && m.fuse_per_gate > 0.0);
        assert!(
            m.dispatch_overhead.is_finite() && m.dispatch_overhead > 0.0,
            "dispatch_overhead = {}",
            m.dispatch_overhead
        );
        assert!(
            m.thread_scale.is_finite() && m.thread_scale >= 1.0,
            "thread_scale = {}",
            m.thread_scale
        );
        assert!(
            (1..=30).contains(&m.block_bits),
            "implausible block size: {}",
            m.block_bits
        );
        // Memoised: the second call must return the very same numbers.
        assert_eq!(m, CostModel::calibrated());
        // Sanity on the ordering the planner relies on: a state-vector
        // sweep is much faster per element than an eigensolve per flop
        // is slow — i.e. the measured machine can still tell the
        // regimes apart.
        assert!(
            m.entry_rate > 1e6,
            "implausibly slow sweep: {}",
            m.entry_rate
        );
        assert!(m.qpe.eig_flops > 1e6);
    }

    #[test]
    fn sweep_pricing_charges_dispatch_above_threshold_only() {
        let m = CostModel {
            dispatch_overhead: 1e-5,
            thread_scale: 3.0,
            ..CostModel::default()
        };
        // Above the parallel threshold: streamed traffic plus one
        // dispatch per sweep, and no serial penalty.
        let big = qcemu_sim::PAR_THRESHOLD * 4;
        let t = m.t_sweeps(10 * big, 10, m.entry_rate);
        let expected = 10.0 * big as f64 / m.entry_rate + 10.0 * m.dispatch_overhead;
        assert!((t - expected).abs() < 1e-12, "{t} vs {expected}");
        // Below it: serial execution forfeits the measured scaling and
        // pays no dispatch.
        let small = qcemu_sim::PAR_THRESHOLD / 2;
        let t = m.t_sweeps(small, 1, m.entry_rate);
        assert!((t - small as f64 * 3.0 / m.entry_rate).abs() < 1e-12);
        // The dispatch term makes many tiny above-threshold sweeps more
        // expensive than one sweep of the same total traffic — the
        // depth-d tax the pool rewrite shrinks but does not erase.
        let sweeps = 1000;
        assert!(
            m.t_sweeps(sweeps * big, sweeps, m.entry_rate)
                > m.t_sweeps(sweeps * big, 1, m.entry_rate)
        );
    }

    #[test]
    fn mps_cost_crossover_favours_deep_low_chi_circuits_only() {
        let m = CostModel::default();
        let n = 22;
        // Deep chain at bounded χ: contraction work is independent of n,
        // so past the boundary cost MPS beats per-gate dense sweeps.
        let depth = 400;
        let units = depth as f64 * 1.0e4; // ~χ³-scale work per 2q gate, χ ≤ 16
        let dense = m.t_gates(depth * (1usize << n), depth);
        assert!(m.t_gates_mps(units, n) < dense, "deep chain must pick MPS");
        // A shallow circuit never amortises the densify boundary: two
        // full-state passes already exceed one dense sweep.
        assert!(m.t_gates_mps(1.0, n) > m.t_gates(1usize << n, 1));
    }

    #[test]
    fn measured_style_timings_roundtrip() {
        // Direct construction (as the bench harness does from real clocks).
        let t = QpeTimings {
            n: 8,
            g: 29,
            t_apply_u: 1.44e-4,
            t_build_dense: 7.6e-4,
            t_gemm: 8.39e-4,
            t_eig: 9.6e-2,
        };
        // Paper Table 2 row n=8: crossover (repeated squaring) = 6,
        // eigendecomposition = 10. Our formulas on their numbers:
        assert_eq!(t.crossover_repeated_squaring(), Some(6));
        assert_eq!(t.crossover_eigendecomposition(), Some(10));
    }
}
