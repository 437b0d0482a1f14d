//! **Serving throughput**: request latency through the `qcemu-serve`
//! daemon on a 17-qubit mixed workload (arithmetic + rotation + QFT),
//! comparing three regimes:
//!
//! * **cold-plan** — every request is a structurally *distinct* program
//!   (fresh register names), so each one pays the full lowering:
//!   cost-model dispatch, reversible-circuit synthesis for the
//!   arithmetic ops, gate fusion.
//! * **warm-cache** — every request shares one structure (a parameter
//!   sweep): after the first lowering, the cross-request plan cache
//!   serves all of them, and each request pays execution only.
//! * **batched** — the same sweep submitted concurrently: the worker
//!   coalesces structurally identical in-flight jobs into one
//!   [`qcemu_core::PlanInterpreter::run_members`] call inside the batching
//!   window.
//!
//! Usage: `cargo run -p qcemu-bench --release --bin serve_throughput
//!         [-- --m 4 --requests 24]`
//!
//! Expected shape: warm-cache latency ≥ 2× better than cold-plan (the
//! lowering dominates small-program serving), with batched at least
//! matching warm on per-request wall time. These are the numbers behind
//! the serving table in `docs/PERFORMANCE.md`.

use qcemu_bench::{fmt_secs, header, time_once, Args};
use qcemu_serve::{
    AdmissionPolicy, EmuClient, EmuServer, ServerConfig, SubmitOptions, WireOp, WireProgram,
    WireRegister,
};
use qcemu_sim::{Gate, GateOp};
use std::thread;
use std::time::Duration;

/// The mixed workload: registers `a,b,c,r` of `m` qubits plus a 1-qubit
/// indicator (`4m + 1` total, 17 at the default `m = 4`). Two Hadamard
/// preps, two deep local gate runs (Trotter-style: `depth` gates each,
/// confined to one register's support — the fusion engine collapses each
/// run into a single dense block, so the matrix-product chain is paid at
/// *plan* time and execution replays one block), a multiply and an add
/// (reversible synthesis at plan time), a parameter-carrying rotation,
/// and a QFT⁻¹·QFT pair on the accumulator.
fn deep_local_runs(m: usize, depth: usize) -> Vec<Gate> {
    let mut gates = Vec::with_capacity(2 * depth);
    for block in 0..2usize {
        let base = block * m;
        for i in 0..depth {
            let q = base + (i % m);
            let q2 = base + ((i + 1) % m);
            gates.push(match i % 3 {
                0 => Gate::Unary {
                    op: GateOp::Rz(0.01 * i as f64),
                    target: q,
                    controls: Vec::new(),
                },
                1 => Gate::Unary {
                    op: GateOp::H,
                    target: q,
                    controls: Vec::new(),
                },
                _ => Gate::Unary {
                    op: GateOp::X,
                    target: q2,
                    controls: vec![q],
                },
            });
        }
    }
    gates
}

fn workload(tag: &str, m: usize, depth: usize, slope: f64) -> WireProgram {
    let reg = |name: &str| WireRegister {
        name: format!("{name}{tag}"),
        len: m as u32,
    };
    WireProgram {
        registers: vec![
            reg("a"),
            reg("b"),
            reg("c"),
            reg("r"),
            WireRegister {
                name: format!("ind{tag}"),
                len: 1,
            },
        ],
        ops: vec![
            WireOp::Hadamard(0),
            WireOp::Hadamard(1),
            WireOp::Gates(deep_local_runs(m, depth)),
            WireOp::Multiply { a: 0, b: 1, c: 2 },
            WireOp::Add { a: 2, b: 3 },
            WireOp::Rotation {
                x: 0,
                target: 4,
                slope,
                intercept: 0.05,
            },
            WireOp::Qft(2),
            WireOp::InverseQft(2),
        ],
    }
}

fn server_config(batch_window: Duration) -> ServerConfig {
    ServerConfig {
        workers: 1,
        batch_window,
        policy: AdmissionPolicy {
            max_qubits: 26,
            max_cost_s: f64::INFINITY,
            ..AdmissionPolicy::default()
        },
        plan_cache_capacity: 64,
        ..ServerConfig::default()
    }
}

fn main() {
    let args = Args::parse();
    let m: usize = args.get("m").unwrap_or(4);
    let requests: usize = args.get("requests").unwrap_or(24);
    let depth: usize = args.get("depth").unwrap_or(45_000);
    let n_qubits = 4 * m + 1;
    header(
        "serve_throughput",
        &format!("{n_qubits}-qubit mixed workload (2x{depth}-deep local runs), {requests} requests per mode"),
    );

    let options = SubmitOptions {
        shots: 16,
        seed: 7,
        want_amplitudes: false,
    };

    // Workload generation and wire encoding (tens of MB of gate lists)
    // happen outside every timed window — the bench measures serving
    // cost (transfer, decode, admission, planning, execution), not
    // client-side program construction.
    let encode = |p: &WireProgram| qcemu_serve::wire::encode_submit(p, &options);
    let cold_payloads: Vec<Vec<u8>> = (0..requests)
        .map(|i| encode(&workload(&format!("-{i}"), m, depth, 0.3)))
        .collect();
    let sweep_payloads: Vec<Vec<u8>> = (0..requests)
        .map(|i| encode(&workload("", m, depth, 0.3 + 0.01 * i as f64)))
        .collect();
    let warm_up = encode(&workload("", m, depth, 0.0));

    // --- cold-plan: every request a fresh structure -------------------
    let handle = EmuServer::bind("127.0.0.1:0", server_config(Duration::ZERO))
        .expect("bind")
        .start()
        .expect("start");
    let mut client = EmuClient::connect(handle.addr()).expect("connect");
    let (cold_s, _) = time_once(|| {
        for p in &cold_payloads {
            client.submit_encoded(p).expect("cold submit");
        }
    });
    let cold_stats = handle.stats();
    handle.shutdown();

    // --- warm-cache: one structure, a parameter sweep -----------------
    let handle = EmuServer::bind("127.0.0.1:0", server_config(Duration::ZERO))
        .expect("bind")
        .start()
        .expect("start");
    let mut client = EmuClient::connect(handle.addr()).expect("connect");
    // Pay the single lowering outside the timed window.
    client.submit_encoded(&warm_up).expect("warm-up submit");
    let (warm_s, _) = time_once(|| {
        for p in &sweep_payloads {
            client.submit_encoded(p).expect("warm submit");
        }
    });
    let warm_stats = handle.stats();
    handle.shutdown();

    // --- batched: the sweep submitted concurrently --------------------
    let handle = EmuServer::bind("127.0.0.1:0", server_config(Duration::from_millis(10)))
        .expect("bind")
        .start()
        .expect("start");
    let addr = handle.addr();
    let mut client = EmuClient::connect(addr).expect("connect");
    client.submit_encoded(&warm_up).expect("warm-up submit");
    let (batched_s, batch_sizes) = time_once(|| {
        thread::scope(|scope| {
            let joins: Vec<_> = sweep_payloads
                .iter()
                .map(|p| {
                    scope.spawn(move || {
                        EmuClient::connect(addr)
                            .expect("connect")
                            .submit_encoded(p)
                            .expect("batched submit")
                            .batch_size
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect::<Vec<_>>()
        })
    });
    let max_batch = batch_sizes.iter().copied().max().unwrap_or(1);
    handle.shutdown();

    let per = |total: f64| total / requests as f64;
    let rps = |total: f64| requests as f64 / total;
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "mode", "total", "per-request", "req/s", "misses", "hits"
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10.1} {:>8} {:>8}",
        "cold-plan",
        fmt_secs(cold_s),
        fmt_secs(per(cold_s)),
        rps(cold_s),
        cold_stats.plan_misses,
        cold_stats.plan_hits
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10.1} {:>8} {:>8}",
        "warm-cache",
        fmt_secs(warm_s),
        fmt_secs(per(warm_s)),
        rps(warm_s),
        warm_stats.plan_misses,
        warm_stats.plan_hits
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10.1} {:>8} {:>8}",
        "batched",
        fmt_secs(batched_s),
        fmt_secs(per(batched_s)),
        rps(batched_s),
        "-",
        "-"
    );
    println!();
    println!(
        "warm-cache speedup over cold-plan: {:.2}x  (largest coalesced batch: {max_batch})",
        cold_s / warm_s
    );
}
