//! The emulation daemon end-to-end: an in-process `qcemu-serve` server,
//! a parameter sweep submitted by concurrent clients, and the daemon's
//! counters showing what the serving layer did with it — one plan-cache
//! miss for the whole sweep, batch execution for requests that queued
//! behind a busy worker, and a typed rejection for an over-width program.
//!
//! The same server can be started standalone with
//! `cargo run --release -p qcemu-serve --bin qcemu-served`; clients then
//! connect over TCP with [`EmuClient`]. See `docs/SERVING.md` for the
//! protocol and admission semantics.
//!
//! Run with: `cargo run --release --example serve_demo`

use qcemu::prelude::*;
use std::thread;

/// A phase-estimation-flavoured sweep body: Hadamard prep, a
/// parameter-carrying rotation onto an indicator qubit, and a QFT pair.
/// Every slope produces the *same structure*, so the daemon plans once.
fn sweep_program(slope: f64) -> WireProgram {
    WireProgram {
        registers: vec![
            WireRegister {
                name: "x".into(),
                len: 4,
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

fn main() {
    // A small daemon: two workers and an admission policy that refuses
    // anything wider than 10 qubits.
    let config = ServerConfig {
        workers: 2,
        policy: AdmissionPolicy {
            max_qubits: 10,
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    };
    let handle = EmuServer::bind("127.0.0.1:0", config)
        .expect("bind")
        .start()
        .expect("start");
    let addr = handle.addr();
    println!("daemon listening on {addr}");

    let options = SubmitOptions {
        shots: 8,
        seed: 42,
        want_amplitudes: false,
    };

    // Eight tenants sweep the rotation slope concurrently. Structure is
    // identical across the sweep, so the daemon lowers the program once;
    // requests that queue up behind a busy worker are coalesced into one
    // batch run, the rest run the moment a worker is free.
    thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let program = sweep_program(0.2 + 0.1 * i as f64);
                    let mut client = EmuClient::connect(addr).expect("connect");
                    let result = client.submit(&program, &options).expect("submit");
                    (i, result)
                })
            })
            .collect();
        for h in handles {
            let (i, r) = h.join().expect("client thread");
            println!(
                "request {i}: lane={:?} warm={} batched={} (batch of {}) shots={:?}",
                r.lane, r.warm, r.batched, r.batch_size, r.shots
            );
        }
    });

    // An over-width program bounces off admission with a typed error —
    // the daemon never spends a lowering on it.
    let mut client = EmuClient::connect(addr).expect("connect");
    let wide = WireProgram {
        registers: vec![WireRegister {
            name: "too-wide".into(),
            len: 20,
        }],
        ops: vec![WireOp::Hadamard(0)],
    };
    match client.submit(&wide, &options) {
        Err(ServeError::Server { code, message }) => {
            println!("20-qubit program rejected: {code}: {message}")
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    println!(
        "daemon counters: requests={} served={} rejected_qubits={} \
         plan_misses={} plan_hits={} batches={} batched_requests={}",
        stats.requests,
        stats.served,
        stats.rejected_qubits,
        stats.plan_misses,
        stats.plan_hits,
        stats.batches,
        stats.batched_requests
    );
    assert_eq!(stats.plan_misses, 1, "one structure, one lowering");
    assert_eq!(stats.served, 8);
    assert_eq!(stats.rejected_qubits, 1);

    handle.shutdown();
    println!("daemon stopped cleanly");
}
