//! Black-box integration tests for the serving daemon: an in-process
//! [`EmuServer`] exercised over real TCP connections by concurrent
//! clients.
//!
//! The load-bearing assertion: N structurally identical (but
//! differently parameterised) concurrent requests produce results
//! matching a local [`HybridExecutor`] to ≤1e-12 while incurring
//! **exactly one** plan-cache miss — the cross-request cache with
//! single-flight lowering doing its job.

use qcemu::prelude::*;
use qcemu::qcemu_serve::wire::{self, ErrorCode, FrameKind};
use qcemu::qcemu_serve::{RunResult, ServeError, ServerHandle, StatsSnapshot};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// A parameter sweep's program: same structure for every `slope`, so the
/// daemon should plan it once.
fn sweep_program(slope: f64) -> WireProgram {
    WireProgram {
        registers: vec![
            WireRegister {
                name: "x".into(),
                len: 3,
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
        ],
    }
}

/// The daemon's serve op mix at small size (`4m + 1` qubits, m = 3):
/// `multiply`, `add`, a rotation sweep and a QFT/IQFT pair, every one an
/// emulated step a coalesced batch runs once on its batch-major buffer.
fn serve_mix_program(slope: f64) -> WireProgram {
    let reg = |name: &str, len: u32| WireRegister {
        name: name.into(),
        len,
    };
    WireProgram {
        registers: vec![
            reg("a", 3),
            reg("b", 3),
            reg("c", 3),
            reg("r", 3),
            reg("ind", 1),
        ],
        ops: vec![
            WireOp::Hadamard(0),
            WireOp::Hadamard(1),
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

fn start_server(config: ServerConfig) -> ServerHandle {
    EmuServer::bind("127.0.0.1:0", config)
        .expect("bind")
        .start()
        .expect("start")
}

#[test]
fn concurrent_same_structure_requests_cost_one_plan_miss_and_match_local_runs() {
    let handle = start_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let n_clients = 8;
    let slopes: Vec<f64> = (0..n_clients).map(|i| 0.2 + 0.15 * i as f64).collect();

    let results: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = slopes
            .iter()
            .map(|&slope| {
                scope.spawn(move || {
                    let mut client = EmuClient::connect(addr).expect("connect");
                    let options = SubmitOptions {
                        shots: 32,
                        seed: slope.to_bits(),
                        want_amplitudes: true,
                    };
                    client
                        .submit(&sweep_program(slope), &options)
                        .expect("submit")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every response matches a from-scratch local run to 1e-12.
    for (slope, result) in slopes.iter().zip(&results) {
        let program = sweep_program(*slope).to_program().expect("valid program");
        let local = HybridExecutor::new()
            .run_structural(&program, StateVector::zero_state(program.n_qubits()))
            .expect("local run")
            .0;
        let amps = result.amplitudes.as_ref().expect("amplitudes requested");
        assert_eq!(amps.len(), local.dim());
        let max_diff = amps
            .iter()
            .zip(local.amplitudes())
            .map(|(a, b)| ((a.re - b.re).powi(2) + (a.im - b.im).powi(2)).sqrt())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff <= 1e-12,
            "served result diverged from local run: {max_diff:e}"
        );
        assert_eq!(result.shots.len(), 32);
        assert!(result.shots.iter().all(|&s| s < 16));
        assert!(!result.report.is_empty(), "plan report must be attached");
    }

    // The core tentpole claim: 8 concurrent same-structure requests,
    // exactly one lowering.
    let stats = handle.stats();
    assert_eq!(stats.requests, n_clients as u64);
    assert_eq!(stats.served, n_clients as u64);
    assert_eq!(
        stats.plan_misses, 1,
        "structurally identical requests must share one lowering, got {stats:?}"
    );
    assert!(stats.plan_hits >= n_clients as u64 - 1);
    assert_eq!(stats.plan_entries, 1);
    handle.shutdown();
}

const BLOCKER_QFT_PAIRS: usize = 6;

/// A long job with a structure of its own: `pairs` QFT/inverse-QFT
/// passes over a 22-qubit register, amplitudes not requested. At
/// `BLOCKER_QFT_PAIRS` it keeps a lone worker busy for well over 0.3 s,
/// so requests sent after it queue up.
fn blocker_program(pairs: usize) -> WireProgram {
    WireProgram {
        registers: vec![WireRegister {
            name: "wide".into(),
            len: 22,
        }],
        ops: (0..pairs)
            .flat_map(|_| [WireOp::Qft(0), WireOp::InverseQft(0)])
            .collect(),
    }
}

fn submit_blocker(addr: SocketAddr, pairs: usize) -> Result<RunResult, ServeError> {
    let options = SubmitOptions {
        want_amplitudes: false,
        ..SubmitOptions::default()
    };
    EmuClient::connect(addr)?.submit(&blocker_program(pairs), &options)
}

/// The cost the daemon's admission control predicts for `program`.
fn predicted_s(program: &WireProgram) -> f64 {
    let config = ServerConfig::default();
    HybridExecutor::new()
        .with_model(config.model)
        .with_config(config.config)
        .shared_plan(&program.to_program().unwrap())
        .0
        .total_predicted_s()
}

/// Polls the daemon's counters until `done` holds for them.
fn wait_until(handle: &ServerHandle, done: impl Fn(&StatsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = handle.stats();
        if done(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached the awaited state: {stats:?}"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn twins_queued_behind_a_busy_worker_run_as_one_batch() {
    twins_case(sweep_program, 4);
}

/// The serve op mix coalesced at B = 3: every classical and FFT step of
/// every reply ran once for the whole batch (`+batch`).
#[test]
fn serve_mix_twins_run_every_emulated_step_as_one_batch() {
    let results = twins_case(serve_mix_program, 3);
    for result in &results {
        for step in &result.report {
            let emulated = ["multiply", "add", "qft"]
                .iter()
                .any(|op| step.op.contains(op));
            if emulated {
                assert!(
                    step.backend.ends_with("+batch"),
                    "{}: {}",
                    step.op,
                    step.backend
                );
            }
        }
    }
}

/// Queues `count` same-structure requests behind a blocker on the lone
/// worker, and checks they ran as one batch whose members each match a
/// local solo run to ≤ 1e-12.
fn twins_case(program: fn(f64) -> WireProgram, count: usize) -> Vec<RunResult> {
    // One worker, and one lane, so the blocker is ahead of the twins
    // even if the worker has not yet woken to take it.
    let handle = start_server(ServerConfig {
        workers: 1,
        policy: AdmissionPolicy {
            fast_lane_cost_s: -1.0, // nothing qualifies as fast
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let slopes: Vec<f64> = (0..count).map(|i| 0.3 + 0.1 * i as f64).collect();

    let results: Vec<RunResult> = thread::scope(|scope| {
        let blocker = scope.spawn(move || submit_blocker(addr, BLOCKER_QFT_PAIRS));
        wait_until(&handle, |s| s.queued == 1);
        let twins: Vec<_> = slopes
            .iter()
            .map(|&slope| {
                scope.spawn(move || {
                    EmuClient::connect(addr)
                        .expect("connect")
                        .submit(&program(slope), &SubmitOptions::default())
                        .expect("submit")
                })
            })
            .collect();
        wait_until(&handle, |s| s.queued == 1 + count as u64);
        assert_eq!(
            handle.stats().served,
            0,
            "the blocker finished before all {count} twins were admitted"
        );
        blocker.join().unwrap().expect("blocker");
        twins.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The worker found all the twins waiting and ran them as one batch,
    // whose members still match local runs.
    let stats = handle.stats();
    assert_eq!(stats.batches, 1, "{stats:?}");
    assert_eq!(stats.batched_requests, count as u64, "{stats:?}");
    for (slope, result) in slopes.iter().zip(&results) {
        assert!(result.batched);
        assert_eq!(result.batch_size, count as u32);
        let local_program = program(*slope).to_program().unwrap();
        let local = HybridExecutor::new()
            .run_structural(
                &local_program,
                StateVector::zero_state(local_program.n_qubits()),
            )
            .unwrap()
            .0;
        let amps = result.amplitudes.as_ref().unwrap();
        for (a, b) in amps.iter().zip(local.amplitudes()) {
            assert!((a.re - b.re).abs() <= 1e-12 && (a.im - b.im).abs() <= 1e-12);
        }
    }
    // One lowering for the blocker, one for the twins' shared structure.
    assert_eq!(stats.plan_misses, 2);
    handle.shutdown();
    results
}

#[test]
fn a_lone_client_is_served_without_waiting_for_company() {
    let handle = start_server(ServerConfig::default());
    let mut client = EmuClient::connect(handle.addr()).unwrap();
    let options = SubmitOptions {
        want_amplitudes: false,
        ..SubmitOptions::default()
    };
    // Plan the structure first, so the timed requests are warm.
    client.submit(&sweep_program(0.1), &options).unwrap();

    // Each request finds an idle worker and nothing queued with it: it
    // must run at once. A worker that held every request open for
    // company for 2 ms would spend the whole budget on that alone, in
    // every round; the best of three rounds only forgives a busy host.
    let requests = 40;
    let budget = requests * Duration::from_millis(2);
    let fastest = (0..3)
        .map(|_| {
            let start = Instant::now();
            for i in 0..requests {
                let result = client
                    .submit(&sweep_program(0.2 + 0.01 * i as f64), &options)
                    .unwrap();
                assert_eq!(result.batch_size, 1);
            }
            start.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < budget,
        "{requests} sequential requests took {fastest:?} at best, budget {budget:?}"
    );
    handle.shutdown();
}

#[test]
fn malformed_frames_get_a_typed_reply_and_do_not_kill_the_daemon() {
    let handle = start_server(ServerConfig::default());
    let addr = handle.addr();

    // Garbage bytes: the daemon answers with a Malformed error frame and
    // drops that connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"this is not a qcemu frame at all....")
        .unwrap();
    raw.flush().unwrap();
    let (kind, body) = wire::read_frame(&mut raw)
        .expect("error frame expected")
        .expect("reply expected");
    assert_eq!(kind, FrameKind::Error);
    let (code, _) = wire::decode_error(&body).unwrap();
    assert_eq!(code, ErrorCode::Malformed);
    drop(raw);

    // A truncated frame (valid header, missing payload) likewise.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, FrameKind::Submit, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    raw.write_all(&frame[..frame.len() - 6]).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // The daemon is still fully serviceable afterwards.
    let mut client = EmuClient::connect(addr).unwrap();
    let result = client
        .submit(&sweep_program(0.4), &SubmitOptions::default())
        .expect("daemon must survive malformed input");
    assert!(result.amplitudes.is_some());
    assert!(handle.stats().malformed >= 1);
    handle.shutdown();
}

#[test]
fn invalid_programs_are_rejected_without_dropping_the_connection() {
    let handle = start_server(ServerConfig::default());
    let mut client = EmuClient::connect(handle.addr()).unwrap();

    // An out-of-range gate used to be a panic deep in the state-vector
    // kernels; at the daemon boundary it must be a typed error on a
    // connection that stays open.
    let mut bad = sweep_program(0.5);
    bad.ops.push(WireOp::Gates(vec![Gate::x(99)]));
    match client.submit(&bad, &SubmitOptions::default()) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidProgram),
        other => panic!("expected InvalidProgram, got {other:?}"),
    }

    // Same connection, valid program: still served.
    let result = client
        .submit(&sweep_program(0.5), &SubmitOptions::default())
        .expect("connection must remain usable");
    assert!(result.amplitudes.is_some());
    handle.shutdown();
}

#[test]
fn qubit_bound_rejects_above_and_admits_at_the_boundary() {
    let handle = start_server(ServerConfig {
        policy: AdmissionPolicy {
            max_qubits: 4,
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let mut client = EmuClient::connect(handle.addr()).unwrap();

    // 5 qubits: one over the bound → typed rejection.
    let wide = WireProgram {
        registers: vec![WireRegister {
            name: "w".into(),
            len: 5,
        }],
        ops: vec![WireOp::Hadamard(0)],
    };
    match client.submit(&wide, &SubmitOptions::default()) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::TooManyQubits),
        other => panic!("expected TooManyQubits, got {other:?}"),
    }

    // Exactly at the bound: admitted.
    let at_bound = sweep_program(0.7); // 4 qubits
    client
        .submit(&at_bound, &SubmitOptions::default())
        .expect("program at the qubit bound must be admitted");
    assert_eq!(handle.stats().rejected_qubits, 1);
    handle.shutdown();
}

#[test]
fn over_budget_programs_are_rejected_with_a_typed_error() {
    let handle = start_server(ServerConfig {
        policy: AdmissionPolicy {
            max_cost_s: 1e-15, // everything costs more than this
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let mut client = EmuClient::connect(handle.addr()).unwrap();
    match client.submit(&sweep_program(0.9), &SubmitOptions::default()) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::OverBudget),
        other => panic!("expected OverBudget, got {other:?}"),
    }
    // Stats keep flowing even when everything is over budget.
    let stats = handle.stats();
    assert_eq!(stats.rejected_cost, 1);
    assert_eq!(stats.served, 0);
    handle.shutdown();
}

#[test]
fn queue_overflow_is_a_typed_error_and_the_daemon_recovers() {
    // One worker, a queue bounded at a single waiter, and blocker A on
    // the fast lane, which the bound does not count: whether the worker
    // has taken A yet cannot change what B and C find. The longer
    // blockers B and C are priced above the fast lane.
    let (short, long) = (BLOCKER_QFT_PAIRS, BLOCKER_QFT_PAIRS + 1);
    let fast_lane_cost_s = predicted_s(&blocker_program(short));
    assert!(predicted_s(&blocker_program(long)) > fast_lane_cost_s);
    let handle = start_server(ServerConfig {
        workers: 1,
        policy: AdmissionPolicy {
            fast_lane_cost_s,
            max_queue_depth: 1,
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    // Plan B's structure up front, so that B and C are admitted from the
    // cache in well under A's run time.
    submit_blocker(addr, long).unwrap();

    thread::scope(|scope| {
        // Job A holds the worker.
        let a = scope.spawn(move || submit_blocker(addr, short));
        wait_until(&handle, |s| s.fast_lane == 1);
        // Job B occupies the single queue slot until A is done.
        let b = scope.spawn(move || submit_blocker(addr, long));
        wait_until(&handle, |s| s.queued == 2);
        // Job C: the queue is full → typed overflow rejection.
        match submit_blocker(addr, long) {
            Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::QueueFull),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // A and B were unaffected by the rejection.
        assert!(a.join().unwrap().is_ok());
        assert!(b.join().unwrap().is_ok());
    });

    // After the burst drains, the daemon admits queued work again.
    submit_blocker(addr, long).expect("daemon must stay serviceable after a queue overflow");
    let stats = handle.stats();
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!((stats.fast_lane, stats.queued, stats.served), (1, 3, 4));
    handle.shutdown();
}
