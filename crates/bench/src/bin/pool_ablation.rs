//! **Pool ablation**: what the persistent worker pool behind the rayon
//! shim costs per dispatch and how sweeps scale under it. (The
//! spawn-per-call baseline this harness used to compare against is gone;
//! `perf_suite`'s `pool.dispatch_ns` / `pool.speedup_nt` rows carry the
//! trajectory now.)
//!
//! Usage: `cargo run -p qcemu-bench --release --bin pool_ablation
//!         [-- --min-n 16 --max-n 22 --e2e-n 20 --quick --json]`
//!
//! `--json` additionally writes `BENCH_pool_ablation.json`; `--quick`
//! shrinks every leg to CI-friendly sizes.
//!
//! Four legs, one table each:
//!
//! 1. **dispatch** — a minimal parallel region (two indices, empty body)
//!    timed back-to-back: pure per-call overhead of handing a job to
//!    already-parked workers over a condvar — the number the calibrated
//!    `CostModel::dispatch_overhead` feeds on.
//! 2. **scaling** — butterfly-sweep rate (one H per qubit) at n in
//!    `--min-n ..= --max-n` under 1/2/4-thread installs. On a machine
//!    with that many cores the rate curve is the thread-scaling factor;
//!    on an oversubscribed runner it documents that oversubscription is
//!    at worst neutral.
//! 3. **e2e** — deep above-threshold circuits (QFT and the GHZ ladder
//!    at `--e2e-n`) wall-to-wall.
//! 4. **serve** — an in-process daemon serving a concurrent sweep (the
//!    `serve_demo` workload), since the daemon is the one consumer that
//!    dispatches from several OS threads into the single process-wide
//!    pool.
//!
//! All numbers are host-dependent. Ends by
//! printing the pool counters (`rayon::pool::stats()`), and honours
//! `QCEMU_POOL_DEBUG` like every other consumer.

use qcemu_bench::{fmt_secs, header, time_median, Args, BenchReport, JsonObj};
use qcemu_serve::{
    AdmissionPolicy, EmuClient, EmuServer, ServerConfig, SubmitOptions, WireOp, WireProgram,
    WireRegister,
};
use qcemu_sim::{entangle_circuit, qft_circuit, Circuit, Gate, StateVector};
use rayon::prelude::*;
use std::time::Duration;

/// One butterfly sweep per qubit: n disjoint-pair sweeps over 2^n
/// entries each, the exact shape `CostModel` calibration prices.
fn butterfly_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Gate::h(q));
    }
    c
}

/// Seconds per dispatch of a minimal parallel region, amortised over
/// `batch` back-to-back calls.
fn dispatch_seconds(reps: usize, batch: usize) -> f64 {
    let t = time_median(reps, || {
        for _ in 0..batch {
            (0..2usize).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
        }
    });
    t / batch as f64
}

/// Wall time of one full state-vector run of `circuit`.
fn e2e_seconds(reps: usize, circuit: &Circuit) -> f64 {
    let n = circuit.n_qubits();
    time_median(reps, || {
        let mut sv = StateVector::uniform_superposition(n);
        sv.apply_circuit(circuit);
        std::hint::black_box(sv.amplitudes()[0]);
    })
}

/// The serve_demo sweep body widened to the admission limit: identical
/// structure per slope, so the daemon lowers once and coalesces
/// concurrent arrivals.
fn sweep_program(slope: f64) -> WireProgram {
    WireProgram {
        registers: vec![
            WireRegister {
                name: "x".into(),
                len: 9,
            },
            WireRegister {
                name: "ind".into(),
                len: 1,
            },
        ],
        ops: vec![
            WireOp::Hadamard(0),
            WireOp::Rotation {
                x: 0,
                target: 1,
                slope,
                intercept: 0.1,
            },
            WireOp::Qft(0),
            WireOp::InverseQft(0),
        ],
    }
}

/// Median wall time (over `reps` fresh daemons) for `clients`
/// concurrent tenants sweeping the rotation slope. Medianed because one
/// run is a couple of milliseconds — connection setup noise is real.
fn serve_seconds(reps: usize, clients: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1)).map(|_| serve_once(clients)).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// One daemon lifetime: bind, serve the sweep, shut down.
fn serve_once(clients: usize) -> f64 {
    // The sweep states are small (2^10 amplitudes), so the kernel
    // parallel threshold is forced to 1: every sweep becomes a real
    // dispatch from the daemon's worker threads — the per-call-overhead
    // regime the persistent pool exists for.
    let config = ServerConfig {
        workers: 2,
        batch_window: Duration::from_millis(5),
        policy: AdmissionPolicy {
            max_qubits: 10,
            ..AdmissionPolicy::default()
        },
        config: qcemu_sim::SimConfig::fused(qcemu_sim::DEFAULT_MAX_FUSED_QUBITS)
            .with_par_threshold(1),
        ..ServerConfig::default()
    };
    let handle = EmuServer::bind("127.0.0.1:0", config)
        .expect("bind")
        .start()
        .expect("start");
    let addr = handle.addr();
    let options = SubmitOptions {
        shots: 8,
        seed: 42,
        want_amplitudes: false,
    };

    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for i in 0..clients {
            scope.spawn(move || {
                let program = sweep_program(0.2 + 0.1 * i as f64);
                let mut client = EmuClient::connect(addr).expect("connect");
                client.submit(&program, &options).expect("submit");
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    handle.shutdown();
    elapsed
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let min_n: usize = args.get("min-n").unwrap_or(16);
    let max_n: usize = args.get("max-n").unwrap_or(if quick { 18 } else { 22 });
    let e2e_n: usize = args.get("e2e-n").unwrap_or(if quick { 18 } else { 20 });
    let batch: usize = args.get("batch").unwrap_or(if quick { 64 } else { 256 });
    let reps = if quick { 3 } else { 5 };
    let clients = if quick { 4 } else { 8 };

    let mut report = BenchReport::new("pool_ablation");
    report.set_config(
        JsonObj::new()
            .int("min_n", min_n as u64)
            .int("max_n", max_n as u64)
            .int("e2e_n", e2e_n as u64)
            .int("dispatch_batch", batch as u64)
            .int("threads", rayon::pool::stats().threads as u64)
            .str("quick", if quick { "yes" } else { "no" }),
    );

    header(
        "Pool ablation — persistent worker pool behind the rayon shim",
        "dispatch latency, thread scaling, end-to-end circuits, daemon sweep",
    );

    // ---- leg 1: dispatch latency -------------------------------------
    rayon::pool::warm_up();
    let t_pool = dispatch_seconds(reps, batch);
    println!("\ndispatch latency (minimal region, {batch}-call batches):");
    println!("  {:<16} {:>12}", "pool", fmt_secs(t_pool));
    if rayon::pool::stats().threads <= 1 {
        println!("  (single-thread pool: the region runs inline on the caller)");
    }
    report.push(
        JsonObj::new()
            .str("section", "dispatch")
            .num("ns_per_op", t_pool * 1e9),
    );

    // ---- leg 2: thread-scaling curves --------------------------------
    println!("\nbutterfly sweep rate under forced thread budgets:");
    println!(
        "  {:>3} {:>8} {:>12} {:>14} {:>9}",
        "n", "threads", "time", "entries/s", "vs t=1"
    );
    for n in min_n..=max_n {
        let circuit = butterfly_circuit(n);
        let entries = (n as f64) * (1u64 << n) as f64;
        let mut t_serial = 0.0;
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let t = pool.install(|| e2e_seconds(reps.min(3), &circuit));
            if threads == 1 {
                t_serial = t;
            }
            let speedup = t_serial / t.max(1e-12);
            println!(
                "  {:>3} {:>8} {:>12} {:>14.3e} {:>8.2}x",
                n,
                threads,
                fmt_secs(t),
                entries / t,
                speedup
            );
            report.push(
                JsonObj::new()
                    .str("section", "scaling")
                    .int("n", n as u64)
                    .int("threads", threads as u64)
                    .num("ns_per_op", t * 1e9)
                    .num("entries_per_s", entries / t)
                    .num("speedup_vs_1t", speedup),
            );
        }
    }

    // ---- leg 3: end-to-end circuits ----------------------------------
    println!("\nend-to-end deep circuits at n = {e2e_n}:");
    println!("  {:<10} {:>6} {:>12}", "circuit", "depth", "time");
    for (name, circuit) in [
        ("fig5-qft", qft_circuit(e2e_n)),
        ("fig6-ghz", entangle_circuit(e2e_n)),
    ] {
        let t_pool = e2e_seconds(reps.min(3), &circuit);
        println!(
            "  {:<10} {:>6} {:>12}",
            name,
            circuit.depth(),
            fmt_secs(t_pool)
        );
        report.push(
            JsonObj::new()
                .str("section", "e2e")
                .str("circuit", name)
                .int("n", e2e_n as u64)
                .int("depth", circuit.depth() as u64)
                .num("ns_per_op", t_pool * 1e9),
        );
    }

    // ---- leg 4: serve workload ---------------------------------------
    println!("\nserve workload ({clients} concurrent tenants, one sweep each):");
    let s_pool = serve_seconds(reps.min(3), clients);
    println!("  {:<16} {:>12}", "pool", fmt_secs(s_pool));
    report.push(
        JsonObj::new()
            .str("section", "serve")
            .int("clients", clients as u64)
            .num("ns_per_op", s_pool * 1e9),
    );

    // ---- pool counters -----------------------------------------------
    let stats = rayon::pool::stats();
    println!(
        "\npool counters: threads={} dispatched={} stolen={} parks={} wakeups={} peak={}",
        stats.threads,
        stats.tasks_dispatched,
        stats.blocks_stolen,
        stats.parks,
        stats.wakeups,
        stats.peak_workers
    );
    report.push(
        JsonObj::new()
            .str("section", "pool_stats")
            .int("threads", stats.threads as u64)
            .int("tasks_dispatched", stats.tasks_dispatched)
            .int("blocks_stolen", stats.blocks_stolen)
            .int("parks", stats.parks)
            .int("wakeups", stats.wakeups)
            .int("peak_workers", stats.peak_workers),
    );

    report.write_if(args.has("json"));
    rayon::pool::dump_stats_if_debug();
}
