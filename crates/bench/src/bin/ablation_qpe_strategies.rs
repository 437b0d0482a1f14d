//! **Ablation**: execute all three QPE strategies end-to-end across the
//! precision sweep and verify the crossover *empirically* — Table 2
//! predicts crossovers from primitive timings; this harness runs the whole
//! phase estimations and reports where emulation actually starts winning,
//! plus the advisor's prediction next to it.
//!
//! The run **asserts** that both dense strategies produce the gate-level
//! state to 1e-8 at every `b`, and that both beat gate level at
//! `b = max-b`.
//!
//! Usage: `cargo run -p qcemu-bench --release --bin ablation_qpe_strategies
//!         [-- --n 5 --max-b 12]`

use qcemu_bench::{fmt_secs, header, time_once, Args};
use qcemu_core::{
    Emulator, Executor, GateLevelSimulator, ProgramBuilder, QpeOp, QpeStrategy, QpeTimings,
};
use qcemu_linalg::{eig, gemm, max_abs_diff};
use qcemu_sim::circuits::{tfim_gate_count, tfim_trotter_step, TfimParams};
use qcemu_sim::{circuit_to_dense, StateVector};

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n").unwrap_or(5);
    let max_b: usize = args.get("max-b").unwrap_or(12);

    header(
        "Ablation — QPE strategies executed across the precision sweep",
        "gate-level vs repeated squaring vs eigendecomposition, same program",
    );

    let unitary = tfim_trotter_step(n, TfimParams::default());

    // Advisor prediction from measured primitives.
    let timings = {
        let mut sv = StateVector::zero_state(n);
        let (mut t_apply, _) = time_once(|| sv.apply_circuit(&unitary));
        // median-ish of a few reps
        for _ in 0..4 {
            let (t, _) = time_once(|| sv.apply_circuit(&unitary));
            t_apply = t_apply.min(t);
        }
        let (t_build, u) = time_once(|| circuit_to_dense(&unitary));
        let (t_gemm, _) = time_once(|| std::hint::black_box(gemm(&u, &u)));
        let (t_eig, _) = time_once(|| std::hint::black_box(eig(&u).unwrap()));
        QpeTimings {
            n,
            g: tfim_gate_count(n),
            t_apply_u: t_apply,
            t_build_dense: t_build,
            t_gemm,
            t_eig,
        }
    };

    println!(
        "{:>3} {:>12} {:>12} {:>12}   winner(measured)   advisor",
        "b", "gate-level", "repeat-sq", "eigendecomp"
    );
    let mut empirical_crossover: Option<usize> = None;
    for b in 2..=max_b {
        let run = |strategy: Option<QpeStrategy>| -> (f64, StateVector) {
            let mut pb = ProgramBuilder::new();
            let target = pb.register("t", n);
            let phase = pb.register("p", b);
            pb.gates(|c| {
                c.h(0);
            });
            pb.qpe(QpeOp {
                unitary: unitary.clone(),
                target,
                phase,
            });
            let program = pb.build().unwrap();
            let init = StateVector::zero_state(program.n_qubits());
            let (t, out) = time_once(|| match strategy {
                None => GateLevelSimulator::new().run(&program, init.clone()),
                Some(s) => Emulator::with_qpe_strategy(s).run(&program, init.clone()),
            });
            (t, out.expect("qpe run"))
        };
        let (t_gate, reference) = run(None);
        let (t_rs, rs) = run(Some(QpeStrategy::RepeatedSquaring));
        let (t_eig, eig) = run(Some(QpeStrategy::Eigendecomposition));
        for (name, state) in [("repeated squaring", &rs), ("eigendecomposition", &eig)] {
            let diff = max_abs_diff(state.amplitudes(), reference.amplitudes());
            assert!(
                diff < 1e-8,
                "b = {b}: {name} is off gate level by {diff:.2e}"
            );
        }
        if b == max_b {
            assert!(
                t_rs < t_gate && t_eig < t_gate,
                "b = {b}: expected both dense strategies to beat gate level, got \
                 {t_gate:.4} s gate level, {t_rs:.4} s squaring, {t_eig:.4} s eigen"
            );
        }
        let winner = if t_gate <= t_rs && t_gate <= t_eig {
            "gate-level"
        } else if t_rs <= t_eig {
            "repeat-sq"
        } else {
            "eigendecomp"
        };
        if winner != "gate-level" && empirical_crossover.is_none() {
            empirical_crossover = Some(b);
        }
        let advisor = format!("{:?}", timings.best_strategy(b as u32));
        println!(
            "{:>3} {:>12} {:>12} {:>12}   {:<16}   {}",
            b,
            fmt_secs(t_gate),
            fmt_secs(t_rs),
            fmt_secs(t_eig),
            winner,
            advisor
        );
    }

    println!();
    match (empirical_crossover, timings.crossover_repeated_squaring()) {
        (Some(e), Some(p)) => {
            println!("empirical crossover: b = {e}; primitive-model prediction b = {p}");
            println!("(the primitive model prices the paper's one-ancilla iterative QPE;");
            println!(" this harness executes the COHERENT b-ancilla variant, which costs the");
            println!(" simulator an extra O(2^b) — paper 3.3: 'coherent phase estimation");
            println!(" algorithms … will incur an additional factor O(2^b) in simulation");
            println!(" effort' — so the empirical crossover lands earlier, as observed)");
        }
        _ => println!("no crossover observed in range — increase --max-b"),
    }
}
