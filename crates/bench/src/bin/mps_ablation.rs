//! **MPS ablation**: the bond-truncated compressed backend vs dense
//! state-vector sweeps on low-entanglement circuits.
//!
//! Usage: `cargo run -p qcemu-bench --release --bin mps_ablation
//!         [-- --max-n 40 --dense-max-n 24 --depth 60 --max-bond 64]`
//!
//! No paper counterpart: the paper's simulator (§4.5) always pays Θ(2ⁿ)
//! per sweep. A matrix-product state pays O(depth·χ³) for bond dimension
//! χ, so circuits whose entanglement stays bounded (GHZ chains, shallow
//! line-QAOA, banded QFTs) run at widths where a dense vector does not
//! even fit in memory — the headline here is an n = 40 chain in well
//! under a second, where the dense state alone would need 16 TiB.
//! Three sections:
//!   1. compressed scaling at n = 16…40 (time, peak χ, truncation);
//!   2. crossover vs the dense fused backend at n = 16…dense-max-n,
//!      cross-checked state-exact through `to_statevector`;
//!   3. the hybrid planner routing a deep low-entanglement gate run to
//!      `Backend::SimulateMps` (predicted costs per backend tier).
//!
//! The cost model and reference numbers live in `docs/PERFORMANCE.md`
//! ("Compressed (MPS) backend").

use qcemu_bench::{fmt_secs, header, rule, time_median, Args};
use qcemu_core::{plan, CostModel, PlanInterpreter, Policy, ProgramBuilder};
use qcemu_sim::{Circuit, MpsState, SimConfig, StateVector, DEFAULT_MAX_BOND};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GHZ chain: H then nearest-neighbour CNOTs — χ = 2 at every cut.
fn ghz_chain(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cnot(q, q + 1);
    }
    c
}

/// `p` line-QAOA layers: nearest-neighbour cost phases + a mixer —
/// χ grows at most 2× per layer.
fn line_qaoa(n: usize, p: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for layer in 0..p {
        let gamma = 0.4 + 0.13 * layer as f64;
        let beta = 0.7 - 0.11 * layer as f64;
        for q in 0..n - 1 {
            c.cphase(q, q + 1, gamma);
        }
        for q in 0..n {
            c.rx(q, beta);
        }
    }
    c
}

/// QFT truncated to controlled phases within `band` of the target: the
/// standard approximate QFT, whose entanglement is bounded by the band.
fn banded_qft(n: usize, band: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in (0..n).rev() {
        c.h(q);
        for d in 1..=band.min(q) {
            c.cphase(q - d, q, std::f64::consts::PI / (1 << d) as f64);
        }
    }
    c
}

/// Deep low-entanglement workload for the dense crossover: one GHZ
/// chain under `layers` alternating single-qubit rotation layers.
fn deep_chain(n: usize, layers: usize) -> Circuit {
    let mut c = ghz_chain(n);
    for layer in 0..layers {
        for q in 0..n {
            if layer % 2 == 0 {
                c.rz(q, 0.11 + 0.01 * (layer + q) as f64);
            } else {
                c.rx(q, 0.07 + 0.01 * (layer + q) as f64);
            }
        }
    }
    c
}

fn main() {
    let args = Args::parse();
    let max_n: usize = args.get("max-n").unwrap_or(40);
    let dense_max_n: usize = args.get("dense-max-n").unwrap_or(24);
    let depth: usize = args.get("depth").unwrap_or(60);
    let max_bond: usize = args.get("max-bond").unwrap_or(DEFAULT_MAX_BOND);

    header(
        "MPS ablation — bond-truncated compressed backend vs dense sweeps",
        "low-entanglement circuits cost O(depth·χ³) compressed vs Θ(depth·2ⁿ) dense",
    );

    // ---- 1. compressed scaling past the dense wall -------------------
    println!(
        "{:>3} {:<12} {:>6} {:>12} {:>7} {:>10} {:>12}",
        "n", "circuit", "gates", "time", "peak χ", "trunc err", "sample 32"
    );
    for n in [16usize, 24, 32, 40] {
        if n > max_n {
            continue;
        }
        for (name, circuit) in [
            ("ghz-chain", deep_chain(n, depth)),
            ("line-qaoa", line_qaoa(n, 3)),
            ("banded-qft", banded_qft(n, 2)),
        ] {
            let mut peak = 0usize;
            let mut trunc = 0.0f64;
            let t = time_median(if n <= 24 { 3 } else { 2 }, || {
                let mut mps = MpsState::zero_state(n, max_bond);
                mps.run(&circuit);
                peak = mps.peak_bond();
                trunc = mps.truncation_error();
            });
            // Shot sampling straight off the tensors — no 2ⁿ densify.
            let mut mps = MpsState::zero_state(n, max_bond);
            mps.run(&circuit);
            let t_sample = time_median(3, || {
                let mut rng = StdRng::seed_from_u64(7);
                std::hint::black_box(mps.sample_shots(32, &mut rng));
            });
            println!(
                "{:>3} {:<12} {:>6} {:>12} {:>7} {:>10.1e} {:>12}",
                n,
                name,
                circuit.gate_count(),
                fmt_secs(t),
                peak,
                trunc,
                fmt_secs(t_sample)
            );
        }
    }
    println!("(dense state at n = 40: 2⁴⁰ amplitudes = 16 TiB — not runnable)");

    // ---- 2. crossover vs the dense fused backend ---------------------
    rule(78);
    println!(
        "{:>3} {:<12} {:>12} {:>12} {:>9} {:>12}",
        "n", "circuit", "dense", "mps+densify", "speedup", "max |Δψ|"
    );
    let mut n = 16;
    while n <= dense_max_n.min(max_n) {
        let circuit = deep_chain(n, depth);
        let reps = if n <= 20 { 3 } else { 1 };
        let t_dense = time_median(reps, || {
            let mut sv = StateVector::zero_state(n);
            sv.run(&circuit, &SimConfig::fused(4));
            std::hint::black_box(sv.amplitudes()[0]);
        });
        let mut out = StateVector::zero_state(1);
        let t_mps = time_median(reps, || {
            let mut mps = MpsState::zero_state(n, max_bond);
            mps.run(&circuit);
            out = mps.to_statevector();
        });
        let mut reference = StateVector::zero_state(n);
        reference.run(&circuit, &SimConfig::fused(4));
        let diff = out.max_diff_up_to_phase(&reference);
        println!(
            "{:>3} {:<12} {:>12} {:>12} {:>8.1}x {:>12.1e}",
            n,
            "ghz-chain",
            fmt_secs(t_dense),
            fmt_secs(t_mps),
            t_dense / t_mps,
            diff
        );
        assert!(diff < 1e-10, "compressed run diverged from dense");
        n += 4;
    }

    // ---- 3. hybrid planner routes the low-entanglement op ------------
    rule(78);
    let n_plan = 16.min(max_n);
    let mut pb = ProgramBuilder::new();
    let _r = pb.register("r", n_plan);
    let chain = deep_chain(n_plan, depth);
    pb.gates(|c| c.extend(&chain));
    let prog = pb.build().unwrap();
    let model = CostModel::default();
    let hybrid = plan(&prog, &model, &SimConfig::fused(4), Policy::Cheapest);
    println!("hybrid plan, deep chain at n = {n_plan}:");
    for (cfg_name, cfg) in [
        ("fused", SimConfig::fused(4)),
        ("segmented", SimConfig::segmented()),
        ("unfused", SimConfig::unfused()),
    ] {
        let fixed = plan(&prog, &model, &cfg, Policy::Simulate);
        println!(
            "  fixed {:<10} predicted {}",
            cfg_name,
            fmt_secs(fixed.steps()[0].predicted_s)
        );
    }
    println!(
        "  hybrid -> {:<12} predicted {}",
        hybrid.steps()[0].backend.to_string(),
        fmt_secs(hybrid.steps()[0].predicted_s)
    );
    let (t_hybrid, _) = qcemu_bench::time_once(|| {
        PlanInterpreter::default()
            .execute(&prog, &hybrid, StateVector::zero_state(n_plan))
            .unwrap()
    });
    println!("  hybrid wall time {}", fmt_secs(t_hybrid));
}
