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
//! Four sections:
//!   1. compressed scaling at n = 16…40 (time, peak χ, truncation);
//!   2. crossover vs the dense fused backend at n = 16…dense-max-n,
//!      cross-checked state-exact through `to_statevector`;
//!   3. the hybrid planner routing a deep low-entanglement gate run to
//!      `Backend::SimulateMps`, timed against the fixed segmented plan
//!      (medians of 7 runs, measured over predicted; asserts that the
//!      compressed plan wins);
//!   4. the dense↔MPS boundary (import and densify) in streamed copies
//!      of the same state, at n = 13, 17, 20 for |0…0⟩ (what a plan's
//!      first step imports), a generic product state, GHZ and a bond-8
//!      brickwork state.
//!
//! The cost model and reference numbers live in `docs/PERFORMANCE.md`
//! ("Compressed (MPS) backend").

use qcemu_bench::{fmt_secs, header, rule, time_median, Args};
use qcemu_core::{plan, Backend, CostModel, PlanInterpreter, Policy, ProgramBuilder};
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

/// One layer of distinct single-qubit rotations: a product state with
/// every amplitude non-zero.
fn product_layer(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(q, 0.3 + 0.05 * q as f64);
    }
    c
}

/// `2·depth` brickwork layers of rotations and nearest-neighbour
/// controlled phases: each cut is crossed `depth` times by a gate of
/// operator Schmidt rank 2, so the state has bond ≤ 2^depth.
fn brickwork(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..2 * depth {
        for q in 0..n {
            c.ry(q, 0.4 + 0.07 * ((q + layer) % 5) as f64);
        }
        for q in (layer % 2..n - 1).step_by(2) {
            c.cphase(q, q + 1, 0.9 + 0.1 * layer as f64);
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
    let segmented = plan(&prog, &model, &SimConfig::segmented(), Policy::Simulate);
    println!("hybrid plan, deep chain at n = {n_plan}:");
    println!(
        "  {:<28} {:>12} {:>12} {:>10}",
        "plan", "predicted", "measured", "meas/pred"
    );
    let mut wall = Vec::new();
    for (name, p) in [
        (format!("hybrid -> {}", hybrid.steps()[0].backend), &hybrid),
        ("fixed segmented".to_string(), &segmented),
    ] {
        let predicted = p.steps()[0].predicted_s;
        let t = time_median(7, || {
            let out = PlanInterpreter::default()
                .execute(&prog, p, StateVector::zero_state(n_plan))
                .unwrap();
            std::hint::black_box(out.0.amplitudes()[0]);
        });
        println!(
            "  {:<28} {:>12} {:>12} {:>9.2}x",
            name,
            fmt_secs(predicted),
            fmt_secs(t),
            t / predicted
        );
        wall.push(t);
    }
    // The claim is made at n = 16; a smaller `--max-n` only prints.
    if n_plan == 16 {
        assert!(
            matches!(hybrid.steps()[0].backend, Backend::SimulateMps { .. }),
            "the deep chain must route to the compressed tier"
        );
        assert!(
            wall[0] < wall[1],
            "compressed ({}) must beat segmented ({})",
            fmt_secs(wall[0]),
            fmt_secs(wall[1])
        );
    }

    // ---- 4. the dense <-> MPS boundary in streamed copies ------------
    rule(78);
    println!("boundary cost in streamed copies of the state (one copy = read + write 2^n amps):");
    println!(
        "{:>3} {:<10} {:>5} {:>12} {:>12} {:>8} {:>12} {:>8}",
        "n", "state", "χ", "copy", "import", "copies", "densify", "copies"
    );
    for n in [13usize, 17, 20] {
        if n > max_n {
            continue;
        }
        for (name, circuit) in [
            ("basis", Circuit::new(n)),
            ("product", product_layer(n)),
            ("ghz", ghz_chain(n)),
            ("bond-8", brickwork(n, 3)),
        ] {
            let mut sv = StateVector::zero_state(n);
            sv.run(&circuit, &SimConfig::fused(4));
            let reps = if n <= 17 { 15 } else { 5 };
            let mut copy = StateVector::zero_state(n);
            let t_copy = time_median(reps, || {
                copy.amplitudes_mut().copy_from_slice(sv.amplitudes());
                std::hint::black_box(copy.amplitudes()[0]);
            });
            let mut mps = MpsState::from_statevector(&sv, max_bond);
            let t_import = time_median(reps, || {
                mps = MpsState::from_statevector(&sv, max_bond);
            });
            let t_densify = time_median(reps, || {
                mps.write_into(&mut copy);
                std::hint::black_box(copy.amplitudes()[0]);
            });
            let diff = qcemu_linalg::max_abs_diff(copy.amplitudes(), sv.amplitudes());
            assert!(
                diff < 1e-12,
                "{name} at n = {n}: round trip off by {diff:.1e}"
            );
            println!(
                "{:>3} {:<10} {:>5} {:>12} {:>12} {:>8.1} {:>12} {:>8.1}",
                n,
                name,
                mps.peak_bond(),
                fmt_secs(t_copy),
                fmt_secs(t_import),
                t_import / t_copy,
                fmt_secs(t_densify),
                t_densify / t_copy
            );
        }
    }
}
