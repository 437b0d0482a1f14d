//! Set-up, the timed paths and the end-to-end pass.
//!
//! A *path* is one public call a user makes: `HybridExecutor::run`,
//! `Emulator::run`, `GateLevelSimulator::run`, `BatchExecutor::run`, and
//! for the serve workloads `EmuClient::submit_encoded` against an
//! in-process daemon. The timed region is exactly that call: the input
//! state is cloned from a template (so its pages are touched) before the
//! timer starts, and the output is checked and dropped after it stops.

use crate::check::{self, Fingerprint, Tally};
use crate::host;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::{self, ServeTraffic, Sizes, Workload};
use qcemu_core::{
    BatchExecutor, Emulator, Executor, GateLevelSimulator, HybridExecutor, QuantumProgram,
};
use qcemu_linalg::C64;
use qcemu_serve::{EmuClient, EmuServer, RunResult, ServerConfig, ServerHandle};
use qcemu_sim::{sample_shots, BatchStateVector, SimConfig, StateVector};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Barrier;
use std::time::Instant;

/// Times set-up is repeated in an end-to-end run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Rounds discarded before the first kept sample.
const WARM_UP_ROUNDS: usize = 2;
/// Fewest rounds kept, however short `--seconds` is.
const MIN_ROUNDS: usize = 5;
/// A path slower than this share of the run is *slow*: it skips the
/// warm-up rounds and is sampled at evenly spaced times, a few times a
/// run, so the fast paths keep most of the run.
const SLOW_SHARE: f64 = 1.0 / 24.0;
const SLOW_MIN_SAMPLES: usize = 3;
const SLOW_BUDGET: f64 = 0.35;
/// Share of a serve run given to the in-process paths; the closed loop
/// gets the rest.
const SERVE_INPROC_SHARE: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    Hybrid,
    Emulate,
    Simulate,
    Batch,
}

impl Path {
    pub const ALL: [Path; 4] = [Path::Hybrid, Path::Emulate, Path::Simulate, Path::Batch];

    pub fn metric(self) -> &'static str {
        match self {
            Path::Hybrid => "hybrid_s",
            Path::Emulate => "emulate_s",
            Path::Simulate => "simulate_s",
            Path::Batch => "batch_s",
        }
    }
}

/// The simulator tier `SimulateSegmented` plan steps lower to.
pub fn segmented_simulator() -> GateLevelSimulator {
    GateLevelSimulator::new().with_config(SimConfig::segmented())
}

/// An in-process daemon with the replies its requests must produce.
pub struct Daemon {
    handle: Option<ServerHandle>,
    /// Per slope: the shots and amplitudes of the in-process run.
    expected_shots: Vec<Vec<u64>>,
    expected_amps: Vec<Vec<C64>>,
}

impl Daemon {
    pub fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("daemon is running")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// One served request as its client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    pub latency_s: f64,
    /// Σ `measured_s` of the reply's plan report: time inside execution.
    pub exec_s: f64,
}

/// Everything one set-up produces: executors with their plans cached,
/// the reference output, and for serve workloads a running daemon.
pub struct Rig {
    pub w: Workload,
    pub hybrid: HybridExecutor,
    pub emulator: Emulator,
    pub simulator: GateLevelSimulator,
    pub batch: BatchExecutor,
    batch_input: BatchStateVector,
    pub reference: StateVector,
    fingerprint: Fingerprint,
    member_fingerprints: Vec<Fingerprint>,
    /// Duration of each path's first (cold) run.
    pub cold_s: [f64; 4],
    pub daemon: Option<Daemon>,
}

impl Rig {
    /// Builds the executors (and daemon), runs every path once cold —
    /// planning, synthesis, fusion, cache fill — and checks each output
    /// in full against the workload's reference.
    pub fn new(w: Workload, sizes: &Sizes, tally: &mut Tally) -> Rig {
        rayon::pool::warm_up();
        let emulator = Emulator::new();
        let hybrid = HybridExecutor::new();
        let simulator = segmented_simulator();
        let batch = BatchExecutor::new();
        let mut cold_s = [f64::NAN; 4];

        // The emulator's output is the reference the others must match.
        let t0 = Instant::now();
        let reference = emulator
            .run(&w.program, w.input.clone())
            .expect("the reference run must succeed");
        cold_s[Path::Emulate as usize] = t0.elapsed().as_secs_f64();
        let norm = reference.norm();
        tally.check((norm - 1.0).abs() <= check::NORM_TOL, || {
            format!("{}: reference norm {norm:.15}", w.name)
        });
        for (path, exec) in [
            (Path::Hybrid, &hybrid as &dyn Executor),
            (Path::Simulate, &simulator),
        ] {
            let t0 = Instant::now();
            let out = exec.run(&w.program, w.input.clone());
            cold_s[path as usize] = t0.elapsed().as_secs_f64();
            match out {
                Ok(state) => check::compare_states(
                    tally,
                    &format!("{} {}", w.name, exec.name()),
                    &state,
                    &reference,
                    check::STATE_TOL,
                ),
                Err(e) => tally.record(Some(format!("{} {}: {e}", w.name, exec.name()))),
            }
        }

        // Batch members against their own solo runs; member 0 is the
        // solo program, so its solo run is the reference.
        let later_refs: Vec<StateVector> = w.members[1..]
            .iter()
            .map(|member| {
                emulator
                    .run(member, w.input.clone())
                    .expect("a member's solo run must succeed")
            })
            .collect();
        let member_refs: Vec<&StateVector> =
            std::iter::once(&reference).chain(&later_refs).collect();
        let batch_input = BatchStateVector::broadcast(&w.input, w.members.len());
        let t0 = Instant::now();
        let out = batch.run(&w.members, batch_input.clone());
        cold_s[Path::Batch as usize] = t0.elapsed().as_secs_f64();
        match out {
            Ok(states) => {
                for (j, solo) in member_refs.iter().enumerate() {
                    let diff = states.member_max_diff(j, solo);
                    tally.check(diff <= check::BATCH_TOL, || {
                        format!("{} batch member {j}: {diff:.3e} from its solo run", w.name)
                    });
                }
            }
            Err(e) => tally.record(Some(format!("{} batch: {e}", w.name))),
        }

        let daemon = w
            .serve
            .as_ref()
            .map(|traffic| start_daemon(traffic, sizes, tally));
        let member_fingerprints: Vec<Fingerprint> = member_refs
            .iter()
            .map(|s| Fingerprint::of(s.amplitudes()))
            .collect();
        Rig {
            fingerprint: member_fingerprints[0].clone(),
            member_fingerprints,
            hybrid,
            emulator,
            simulator,
            batch,
            batch_input,
            reference,
            cold_s,
            daemon,
            w,
        }
    }

    /// A page-touched copy of the solo input.
    pub fn input(&self) -> StateVector {
        self.w.input.clone()
    }

    pub fn batch_input(&self) -> BatchStateVector {
        self.batch_input.clone()
    }

    pub fn check_solo(&self, tally: &mut Tally, what: &str, state: &StateVector) {
        self.fingerprint
            .check(tally, what, |i| state.amplitudes().get(i).copied());
    }

    pub fn check_batch(&self, tally: &mut Tally, what: &str, states: &BatchStateVector) {
        for (j, fp) in self.member_fingerprints.iter().enumerate() {
            fp.check(tally, what, |i| {
                (i < states.dim()).then(|| states.amplitude(i, j))
            });
        }
    }

    /// One timed sample of `path`, checked outside the timer. Returns
    /// NaN when the call failed (the failure is in `tally`).
    pub fn sample(&self, path: Path, tally: &mut Tally) -> f64 {
        let what = format!("{} {}", self.w.name, path.metric());
        let (elapsed, checked) = if path == Path::Batch {
            let input = self.batch_input();
            let t0 = Instant::now();
            let out = self.batch.run(&self.w.members, input);
            let elapsed = t0.elapsed().as_secs_f64();
            (
                elapsed,
                out.map(|states| self.check_batch(tally, &what, &states)),
            )
        } else {
            let exec: &dyn Executor = match path {
                Path::Hybrid => &self.hybrid,
                Path::Emulate => &self.emulator,
                _ => &self.simulator,
            };
            let input = self.input();
            let t0 = Instant::now();
            let out = exec.run(&self.w.program, input);
            let elapsed = t0.elapsed().as_secs_f64();
            (
                elapsed,
                out.map(|state| self.check_solo(tally, &what, &state)),
            )
        };
        match checked {
            Ok(()) => elapsed,
            Err(e) => {
                tally.record(Some(format!("{what}: {e}")));
                f64::NAN
            }
        }
    }

    /// The path a caller of this workload comes in through, when it is
    /// not the daemon: the batch executor on `batch_sweep`, the hybrid
    /// executor elsewhere.
    pub fn front_door(&self) -> Path {
        if self.w.name == "batch_sweep" {
            Path::Batch
        } else {
            Path::Hybrid
        }
    }

    /// Samples of every path, interleaved round-robin for `seconds`:
    /// sample i of every path before sample i+1 of any, so machine drift
    /// hits all paths alike.
    pub fn interleave(&self, seconds: f64, tally: &mut Tally) -> [Vec<f64>; 4] {
        let slow: Vec<bool> = Path::ALL
            .iter()
            .map(|&p| self.cold_s[p as usize] > SLOW_SHARE * seconds)
            .collect();
        // Warm-up samples are checked like any other, but not kept.
        for _ in 0..WARM_UP_ROUNDS {
            for path in Path::ALL.into_iter().filter(|&p| !slow[p as usize]) {
                self.sample(path, tally);
            }
        }
        let period: Vec<f64> = Path::ALL
            .iter()
            .map(|&p| {
                let fit = (SLOW_BUDGET * seconds / self.cold_s[p as usize]) as usize;
                seconds / fit.max(SLOW_MIN_SAMPLES) as f64
            })
            .collect();
        let mut due = [0.0f64; 4];
        let mut samples: [Vec<f64>; 4] = Default::default();
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            for path in Path::ALL {
                let i = path as usize;
                if slow[i] {
                    if start.elapsed().as_secs_f64() < due[i] {
                        continue;
                    }
                    due[i] += period[i];
                }
                let elapsed = self.sample(path, tally);
                if elapsed.is_finite() {
                    samples[i].push(elapsed);
                }
            }
            rounds += 1;
        }
        samples
    }

    /// The serve workloads' closed loop: every client sends its next
    /// request when the previous reply has arrived and been checked,
    /// for `seconds`. Returns the replies and the loop's wall time.
    pub fn closed_loop(&self, seconds: f64, tally: &mut Tally) -> (Vec<Reply>, f64) {
        let traffic = self.w.serve.as_ref().expect("a serve workload");
        let daemon = self.daemon.as_ref().expect("a serve workload");
        let addr = daemon.handle().addr();
        let barrier = Barrier::new(traffic.clients.len());
        let results: Vec<(Vec<Reply>, Tally, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = traffic
                .clients
                .iter()
                .map(|requests| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        let mut replies = Vec::new();
                        let mut client = match EmuClient::connect(addr) {
                            Ok(c) => Some(c),
                            Err(e) => {
                                tally.record(Some(format!("connect: {e}")));
                                None
                            }
                        };
                        barrier.wait();
                        let start = Instant::now();
                        let Some(client) = client.as_mut() else {
                            return (replies, tally, 0.0);
                        };
                        for request in requests.iter().cycle() {
                            if start.elapsed().as_secs_f64() >= seconds {
                                break;
                            }
                            let t0 = Instant::now();
                            let result = client.submit_encoded(&request.payload);
                            let latency_s = t0.elapsed().as_secs_f64();
                            match result {
                                Ok(result) => {
                                    daemon.check_reply(
                                        &mut tally,
                                        traffic.cold,
                                        request.slope,
                                        &result,
                                    );
                                    let exec_s = result.report.iter().map(|s| s.measured_s).sum();
                                    replies.push(Reply { latency_s, exec_s });
                                }
                                // A typed rejection or a wire error: the
                                // request failed, the loop goes on.
                                Err(e) => tally.record(Some(format!("request: {e}"))),
                            }
                        }
                        (replies, tally, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let mut replies = Vec::new();
        let mut wall_s: f64 = 0.0;
        for (client_replies, client_tally, client_wall) in results {
            replies.extend(client_replies);
            tally.merge(client_tally);
            wall_s = wall_s.max(client_wall);
        }
        (replies, wall_s)
    }
}

/// An executor with the daemon's model and configuration: what runs a
/// request when no daemon is in the way.
pub fn daemon_twin() -> HybridExecutor {
    let config = ServerConfig::default();
    HybridExecutor::new()
        .with_model(config.model)
        .with_config(config.config)
}

/// What the daemon does for one solo request, in-process: run from
/// |0…0⟩ under the structure-keyed plan cache, then sample the shots.
pub fn serve_in_process(
    twin: &HybridExecutor,
    program: &QuantumProgram,
) -> (StateVector, Vec<u64>) {
    let (state, _) = twin
        .run_structural(program, StateVector::zero_state(program.n_qubits()))
        .expect("the in-process twin of a request must run");
    let mut rng = StdRng::seed_from_u64(workloads::SERVE_SHOT_SEED);
    let shots = sample_shots(&state, workloads::SERVE_SHOTS as usize, &mut rng)
        .into_iter()
        .map(|s| s as u64)
        .collect();
    (state, shots)
}

impl Daemon {
    /// Shots (and amplitudes, when the reply carries them) against the
    /// in-process run; with `must_miss`, also that the plan was not cached.
    pub fn check_reply(&self, tally: &mut Tally, must_miss: bool, slope: usize, r: &RunResult) {
        let amplitude_diff = r
            .amplitudes
            .as_ref()
            .map(|amps| qcemu_linalg::max_abs_diff_up_to_phase(amps, &self.expected_amps[slope]));
        let problem = if r.shots != self.expected_shots[slope] {
            Some(format!(
                "reply shots {:?} differ from the in-process run",
                r.shots
            ))
        } else if must_miss && r.warm {
            Some("a cold request hit the plan cache".to_string())
        } else {
            // A NaN difference is a failure too.
            amplitude_diff
                .filter(|diff| diff.is_nan() || *diff > check::SERVE_TOL)
                .map(|diff| format!("reply amplitudes off by {diff:.3e}"))
        };
        tally.record(problem);
    }

    /// One full-amplitude request per slope, compared with the
    /// in-process run.
    pub fn audit(&self, traffic: &ServeTraffic, tally: &mut Tally) {
        let mut client = match EmuClient::connect(self.handle().addr()) {
            Ok(c) => c,
            Err(e) => return tally.record(Some(format!("audit connect: {e}"))),
        };
        for request in &traffic.audits {
            match client.submit_encoded(&request.payload) {
                Ok(result) => {
                    tally.check(result.amplitudes.is_some(), || {
                        "audit reply carries no amplitudes".into()
                    });
                    // Audits share the warm-up request's structure, so
                    // they may hit the cache on either serve workload.
                    self.check_reply(tally, false, request.slope, &result);
                }
                Err(e) => tally.record(Some(format!("audit request: {e}"))),
            }
        }
    }
}

/// Starts the daemon on an ephemeral port, computes the in-process
/// reference of every slope with the daemon's own executor settings,
/// plants the plan with one warm-up request and audits every slope.
fn start_daemon(traffic: &ServeTraffic, sizes: &Sizes, tally: &mut Tally) -> Daemon {
    let twin = daemon_twin();
    let (expected_amps, expected_shots) = traffic
        .slopes
        .iter()
        .map(|&slope| {
            let program = workloads::serve_reference_program(sizes, slope);
            let (state, shots) = serve_in_process(&twin, &program);
            (state.into_amplitudes(), shots)
        })
        .unzip();
    let handle = EmuServer::bind("127.0.0.1:0", ServerConfig::default())
        .and_then(EmuServer::start)
        .expect("the daemon must start on an ephemeral port");
    let daemon = Daemon {
        handle: Some(handle),
        expected_shots,
        expected_amps,
    };
    match EmuClient::connect(daemon.handle().addr()) {
        Ok(mut client) => {
            let planted = client.submit_encoded(&traffic.warm_up);
            tally.check(planted.is_ok(), || {
                format!("warm-up request: {}", planted.unwrap_err())
            });
        }
        Err(e) => tally.record(Some(format!("warm-up connect: {e}"))),
    }
    daemon.audit(traffic, tally);
    daemon
}

/// Beside a path's median: how many samples it rests on, and the highest
/// percentile that many samples support (ten or more beyond it).
pub struct Detail {
    pub path: &'static str,
    pub n: usize,
    pub tail_percentile: f64,
    pub tail: f64,
}

impl Detail {
    fn of(path: &'static str, samples: &[f64]) -> Detail {
        let tail_percentile = highest_supported_percentile(samples.len()).unwrap_or(50.0);
        Detail {
            path,
            n: samples.len(),
            tail_percentile,
            tail: percentile(samples, tail_percentile),
        }
    }
}

/// What the end-to-end pass hands back: the metrics by name, the tally,
/// and per-path detail for the record.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub detail: Vec<Detail>,
}

/// The end-to-end pass: set-up (several times over), then the timed
/// paths with tracing off.
pub fn run(name: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Option<Outcome> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        // Tear the previous daemon down first: one daemon at a time.
        drop(rig.take());
        let t0 = Instant::now();
        let workload = workloads::build(name, seed, sizes)?;
        rig = Some(Rig::new(workload, sizes, &mut tally));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let rig = rig.expect("SETUPS > 0");

    // A request is one call through the workload's front door: the
    // daemon for the serve workloads, an in-process path elsewhere.
    let (samples, latencies_s, wall_s) = match (&rig.daemon, &rig.w.serve) {
        (Some(daemon), Some(traffic)) => {
            let inproc_seconds = SERVE_INPROC_SHARE * seconds;
            let samples = rig.interleave(inproc_seconds, &mut tally);
            let (replies, wall_s) = rig.closed_loop(seconds - inproc_seconds, &mut tally);
            daemon.audit(traffic, &mut tally);
            let latencies: Vec<f64> = replies.iter().map(|r| r.latency_s).collect();
            (samples, latencies, wall_s)
        }
        _ => {
            let samples = rig.interleave(seconds, &mut tally);
            let latencies = samples[rig.front_door() as usize].clone();
            let wall_s = latencies.iter().sum();
            (samples, latencies, wall_s)
        }
    };

    let mut metrics = vec![("setup_s", median(&setup_s))];
    let mut detail = Vec::new();
    for path in Path::ALL {
        let s = &samples[path as usize];
        metrics.push((path.metric(), median(s)));
        detail.push(Detail::of(path.metric(), s));
    }
    metrics.push(("req_p50_ms", 1e3 * median(&latencies_s)));
    metrics.push(("req_per_s", latencies_s.len() as f64 / wall_s));
    detail.push(Detail::of("req_s", &latencies_s));
    drop(rig);
    metrics.push(("peak_rss_mib", host::peak_rss_mib()));
    Some(Outcome {
        metrics,
        tally,
        detail,
    })
}
