//! **Segment ablation**: per-gate sweeps vs greedy fusion vs the
//! cache-blocked segment executor on QFT, GHZ-entangling, and random
//! circuits at out-of-cache sizes.
//!
//! Usage: `cargo run -p qcemu-bench --release --bin segment_ablation
//!         [-- --min-n 20 --max-n 22 --block-bits 14 --fuse-k 4 --json]`
//!
//! `--json` additionally writes `BENCH_segment_ablation.json`, a
//! machine-readable mirror of the printed table.
//!
//! No paper counterpart: the paper's simulator (§4.5) streams the state
//! once per gate. Fusion (PR 5) collapses *adjacent* gates into one
//! blocked sweep; segmentation goes further and replays a whole run of
//! compatible gates against one L2-sized block of amplitudes before
//! moving to the next block, so a depth-d compatible segment crosses
//! memory ~once instead of d times. Columns: measured wall time, speedup
//! over both baselines, the modelled streamed-traffic ratio, and the
//! segment census. The traffic model and reference numbers live in
//! `docs/PERFORMANCE.md` ("Cache-blocked segments").

use qcemu_bench::{fmt_secs, header, time_median, time_once, Args, BenchReport, JsonObj};
use qcemu_sim::{
    entangle_circuit, qft_circuit, segment_circuit, Circuit, FusionPolicy, Gate, StateVector,
    DEFAULT_BLOCK_BITS, PAR_THRESHOLD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random circuit: a dense mix of diagonal, butterfly, and
/// controlled gates, biased toward low targets the way compiled arithmetic
/// kernels are, with enough high-qubit gates to force segment boundaries.
fn random_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..5u32) {
            0 => c.push(Gate::h(q)),
            1 => c.push(Gate::rz(q, rng.gen_range(0.0..std::f64::consts::PI))),
            2 => c.push(Gate::ry(q, rng.gen_range(0.0..std::f64::consts::PI))),
            3 => {
                let c2 = (q + 1 + rng.gen_range(0..n - 1)) % n;
                c.push(Gate::cphase(
                    c2,
                    q,
                    rng.gen_range(0.0..std::f64::consts::PI),
                ));
            }
            _ => {
                let c2 = (q + 1 + rng.gen_range(0..n - 1)) % n;
                c.push(Gate::cnot(c2, q));
            }
        }
    }
    c
}

fn main() {
    let args = Args::parse();
    let min_n: usize = args.get("min-n").unwrap_or(20);
    let max_n: usize = args.get("max-n").unwrap_or(22);
    let block_bits: usize = args.get("block-bits").unwrap_or(DEFAULT_BLOCK_BITS);
    let fuse_k: usize = args.get("fuse-k").unwrap_or(4);
    let mut report = BenchReport::new("segment_ablation");
    report.set_config(
        JsonObj::new()
            .int("min_n", min_n as u64)
            .int("max_n", max_n as u64)
            .int("block_bits", block_bits as u64)
            .int("fuse_k", fuse_k as u64),
    );

    header(
        "Segment ablation — per-gate sweeps vs fusion vs cache-blocked segments",
        "each blocked segment replays its gates against one L2-resident block per pass",
    );
    println!(
        "{:>3} {:<10} {:<9} {:>6} {:>12} {:>9} {:>9} {:>9} {:>16}",
        "n",
        "circuit",
        "mode",
        "depth",
        "time",
        "vs gate",
        "vs fused",
        "traffic",
        "segments (blk/swp)"
    );

    for n in min_n..=max_n {
        for (name, circuit) in [
            ("fig5-qft", qft_circuit(n)),
            ("fig6-ghz", entangle_circuit(n)),
            ("random", random_circuit(n, 3 * n, 0x5eed)),
        ] {
            let reps = if n <= 20 { 3 } else { 2 };
            let depth = circuit.depth();
            let unfused_traffic = circuit.touched_entries(n) as f64;

            let t_gate = time_median(reps, || {
                let mut sv = StateVector::uniform_superposition(n);
                sv.apply_circuit(&circuit);
                std::hint::black_box(sv.amplitudes()[0]);
            });
            println!(
                "{:>3} {:<10} {:<9} {:>6} {:>12} {:>8.2}x {:>8.2}x {:>9.3} {:>16}",
                n,
                name,
                "per-gate",
                depth,
                fmt_secs(t_gate),
                1.0,
                0.0,
                1.0,
                "-"
            );
            report.push(
                JsonObj::new()
                    .int("n", n as u64)
                    .str("circuit", name)
                    .str("mode", "per-gate")
                    .num("ns_per_op", t_gate * 1e9)
                    .num("speedup_vs_gate", 1.0)
                    .num("traffic_ratio", 1.0),
            );

            let policy = FusionPolicy::Greedy {
                max_fused_qubits: fuse_k,
            };
            let (t_fuse, fused) = time_once(|| circuit.fuse(&policy));
            let t_fused = time_median(reps, || {
                let mut sv = StateVector::uniform_superposition(n);
                sv.apply_fused_circuit(&fused);
                std::hint::black_box(sv.amplitudes()[0]);
            });
            println!(
                "{:>3} {:<10} {:<9} {:>6} {:>12} {:>8.2}x {:>8.2}x {:>9.3} {:>13} (fuse {})",
                n,
                name,
                "fused",
                fused.ops().len(),
                fmt_secs(t_fused),
                t_gate / t_fused,
                1.0,
                fused.touched_entries(n) as f64 / unfused_traffic,
                "-",
                fmt_secs(t_fuse),
            );
            report.push(
                JsonObj::new()
                    .int("n", n as u64)
                    .str("circuit", name)
                    .str("mode", "fused")
                    .num("ns_per_op", t_fused * 1e9)
                    .num("speedup_vs_gate", t_gate / t_fused)
                    .num(
                        "traffic_ratio",
                        fused.touched_entries(n) as f64 / unfused_traffic,
                    ),
            );

            let (t_seg_compile, seg) = time_once(|| segment_circuit(&circuit, block_bits, &policy));
            let t_seg = time_median(reps, || {
                let mut sv = StateVector::uniform_superposition(n);
                seg.apply(sv.amplitudes_mut(), 1, PAR_THRESHOLD);
                std::hint::black_box(sv.amplitudes()[0]);
            });
            println!(
                "{:>3} {:<10} {:<9} {:>6} {:>12} {:>8.2}x {:>8.2}x {:>9.3} {:>11}/{} (seg {})",
                n,
                name,
                "segmented",
                seg.blocked_ops(),
                fmt_secs(t_seg),
                t_gate / t_seg,
                t_fused / t_seg,
                seg.streamed_entries(n) as f64 / unfused_traffic,
                seg.blocked_segments(),
                seg.sweep_segments(),
                fmt_secs(t_seg_compile),
            );
            report.push(
                JsonObj::new()
                    .int("n", n as u64)
                    .str("circuit", name)
                    .str("mode", "segmented")
                    .num("ns_per_op", t_seg * 1e9)
                    .num("speedup_vs_gate", t_gate / t_seg)
                    .num("speedup_vs_fused", t_fused / t_seg)
                    .num(
                        "traffic_ratio",
                        seg.streamed_entries(n) as f64 / unfused_traffic,
                    ),
            );
        }
    }
    report.write_if(args.has("json"));
    println!();
    println!("note: 'depth' is circuit depth for per-gate, executable blocks for fused,");
    println!("      and in-block replay ops for segmented; 'traffic' is the modelled");
    println!("      ratio of *streamed* state-vector entries to per-gate execution");
    println!("      (SegmentedCircuit::streamed_entries / Circuit::touched_entries).");
    println!("      Segmented runs additionally replay gates against resident blocks;");
    println!("      that in-cache term is costed separately by CostModel::cache_rate.");
    println!("      See docs/PERFORMANCE.md ('Cache-blocked segments') for the model.");
}
