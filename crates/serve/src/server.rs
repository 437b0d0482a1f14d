//! The multi-tenant emulation daemon.
//!
//! One [`EmuServer`] owns a TCP listener, a worker pool built from the
//! standard threading primitives, and — the piece that makes it
//! *multi-tenant* rather than merely concurrent — a single
//! [`SharedPlanCache`] every worker's executor is attached to. Planning
//! (cost-model lowering, reversible-circuit synthesis, gate fusion) is
//! the expensive, structure-determined half of a request; the cache
//! guarantees each program structure pays it **once across all
//! connections**, with concurrent first-requests collapsing to a single
//! lowering (single-flight).
//!
//! Request lifecycle:
//!
//! 1. A connection thread reads a frame, decodes and validates the
//!    program ([`ErrorCode::Malformed`] / [`ErrorCode::InvalidProgram`]
//!    on failure — a bad frame can never take the daemon down).
//! 2. Admission control ([`AdmissionPolicy`]): qubit gate before
//!    planning, then one `shared_plan` lookup (cached), then the
//!    cost gate classifies the job fast/queued or rejects it.
//! 3. The job lands on the scheduler, carrying the plan it was admitted
//!    with; a worker pops it (fast lane first) together with every
//!    structurally identical job already waiting, and runs them at once
//!    as one ensemble ([`PlanInterpreter::run_members`]; a lone job is
//!    the one-member ensemble) — the batched-execution engine put
//!    behind a socket. Nothing waits for stragglers: a batch forms only
//!    from a backlog, when every worker was busy, which is the only time
//!    batching can raise throughput.
//! 4. Results (amplitudes on request, seeded measurement shots, the
//!    per-op [`PlanReport`](qcemu_core::PlanReport) audit, and the
//!    cache/batch provenance flags) stream back on the connection.

use crate::admission::{AdmissionPolicy, AdmitLane, RejectReason};
use crate::wire::{
    self, ErrorCode, FrameKind, Lane, RunResult, StatsSnapshot, SubmitOptions, WireStepReport,
};
use qcemu_core::{
    CostModel, ExecutionPlan, HybridExecutor, PlanInterpreter, QuantumProgram, SharedPlanCache,
};
use qcemu_sim::measure::sample_member_shots;
use qcemu_sim::{BatchStateVector, SimConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing admitted jobs.
    pub workers: usize,
    /// Admission policy (qubit bound, cost budget, queue bound).
    pub policy: AdmissionPolicy,
    /// Bound on distinct program structures the shared plan cache
    /// retains.
    pub plan_cache_capacity: usize,
    /// Cost model driving both planning and admission. The default is
    /// [`CostModel::default`] for reproducibility; the `qcemu-served`
    /// binary opts into [`CostModel::calibrated`].
    pub model: CostModel,
    /// Gate-level execution configuration shared by all workers.
    pub config: SimConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            policy: AdmissionPolicy::default(),
            plan_cache_capacity: qcemu_core::DEFAULT_PLAN_CACHE_CAPACITY,
            model: CostModel::default(),
            config: SimConfig::fused(qcemu_sim::DEFAULT_MAX_FUSED_QUBITS),
        }
    }
}

/// One admitted job waiting for (or undergoing) execution.
struct Job {
    program: QuantumProgram,
    structure_hash: u64,
    /// The plan admission priced: execution runs it without a second
    /// cache lookup, so an eviction in between cannot force a re-lowering.
    plan: Arc<ExecutionPlan>,
    options: SubmitOptions,
    lane: Lane,
    warm: bool,
    reply: mpsc::Sender<Result<RunResult, (ErrorCode, String)>>,
}

struct SchedState {
    fast: VecDeque<Job>,
    queued: VecDeque<Job>,
    shutdown: bool,
}

struct Scheduler {
    state: Mutex<SchedState>,
    work: Condvar,
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                fast: VecDeque::new(),
                queued: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    fn queued_depth(&self) -> usize {
        self.state.lock().unwrap().queued.len()
    }

    fn push(&self, job: Job) {
        let mut s = self.state.lock().unwrap();
        match job.lane {
            Lane::Fast => s.fast.push_back(job),
            Lane::Queued => s.queued.push_back(job),
        }
        drop(s);
        self.work.notify_one();
    }

    /// Blocks until a job is available (fast lane first) or shutdown,
    /// and takes with it every job of the same structure already
    /// waiting — both lanes, in arrival order within each lane.
    fn pop_batch(&self) -> Option<Vec<Job>> {
        /// Moves the jobs of `structure_hash` from `lane` to `out`,
        /// keeping the order of the rest.
        fn take(lane: &mut VecDeque<Job>, structure_hash: u64, out: &mut Vec<Job>) {
            for job in std::mem::take(lane) {
                if job.structure_hash == structure_hash {
                    out.push(job);
                } else {
                    lane.push_back(job);
                }
            }
        }
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(job) = s.fast.pop_front().or_else(|| s.queued.pop_front()) {
                let structure_hash = job.structure_hash;
                let mut batch = vec![job];
                take(&mut s.fast, structure_hash, &mut batch);
                take(&mut s.queued, structure_hash, &mut batch);
                return Some(batch);
            }
            if s.shutdown {
                return None;
            }
            s = self.work.wait(s).unwrap();
        }
    }

    fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.work.notify_all();
    }
}

/// Internal counters (monotonic, lock-free).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    served: AtomicU64,
    rejected_qubits: AtomicU64,
    rejected_cost: AtomicU64,
    rejected_queue_full: AtomicU64,
    malformed: AtomicU64,
    exec_failures: AtomicU64,
    fast_lane: AtomicU64,
    queued: AtomicU64,
    batched_requests: AtomicU64,
    batches: AtomicU64,
    in_service: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

struct Shared {
    sched: Scheduler,
    counters: Counters,
    cache: SharedPlanCache,
    policy: AdmissionPolicy,
    executor: HybridExecutor,
    stopping: AtomicBool,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let c = &self.counters;
        // The execution pool is process-wide (every request's kernels
        // dispatch through it), so its counters are global, not
        // per-daemon — exactly the view a capacity dashboard wants.
        let pool = rayon::pool::stats();
        StatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            rejected_qubits: c.rejected_qubits.load(Ordering::Relaxed),
            rejected_cost: c.rejected_cost.load(Ordering::Relaxed),
            rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
            malformed: c.malformed.load(Ordering::Relaxed),
            exec_failures: c.exec_failures.load(Ordering::Relaxed),
            fast_lane: c.fast_lane.load(Ordering::Relaxed),
            queued: c.queued.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            queue_depth: c.in_service.load(Ordering::Relaxed),
            plan_hits: self.cache.hits() as u64,
            plan_misses: self.cache.misses() as u64,
            plan_evictions: self.cache.evictions() as u64,
            plan_entries: self.cache.len() as u64,
            pool_tasks_dispatched: pool.tasks_dispatched,
            pool_blocks_stolen: pool.blocks_stolen,
            pool_parks: pool.parks,
            pool_wakeups: pool.wakeups,
            pool_peak_workers: pool.peak_workers,
        }
    }
}

/// A bound-but-not-yet-started daemon. [`EmuServer::start`] spawns the
/// accept loop and workers and returns the controlling
/// [`ServerHandle`].
pub struct EmuServer {
    listener: TcpListener,
    config: ServerConfig,
}

/// Handle to a running daemon: address, live counters, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl EmuServer {
    /// Binds the daemon to `addr` (use port 0 for an OS-assigned port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<EmuServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(EmuServer { listener, config })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the accept loop and the worker pool.
    pub fn start(self) -> io::Result<ServerHandle> {
        // Start the process-wide execution pool before the first request
        // arrives: every worker thread's kernels dispatch into this one
        // shared pool, so no request — not even the first — pays worker
        // spawn latency.
        rayon::pool::warm_up();
        let addr = self.listener.local_addr()?;
        let cache = SharedPlanCache::new(self.config.plan_cache_capacity.max(1));
        let executor = HybridExecutor::new()
            .with_model(self.config.model)
            .with_config(self.config.config)
            .with_plan_cache(cache.clone());
        let shared = Arc::new(Shared {
            sched: Scheduler::new(),
            counters: Counters::default(),
            cache,
            policy: self.config.policy,
            executor,
            stopping: AtomicBool::new(false),
        });

        let workers = (0..self.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let listener = self.listener;
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            let shared = Arc::clone(&shared);
                            // Connection threads are detached: they exit
                            // when their client hangs up.
                            thread::spawn(move || {
                                let _ = serve_connection(stream, &shared);
                            });
                        }
                        Err(_) => continue,
                    }
                }
            })
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A consistent-enough snapshot of the daemon counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// The cross-request plan cache (shared by every worker).
    pub fn plan_cache(&self) -> &SharedPlanCache {
        &self.shared.cache
    }

    /// Stops accepting, drains the scheduler, and joins the worker pool.
    /// Jobs still waiting are answered with
    /// [`ErrorCode::ShuttingDown`].
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.sched.shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Anything still queued: tell the waiting connections why.
        let mut state = self.shared.sched.state.lock().unwrap();
        let leftovers: Vec<Job> = state
            .fast
            .drain(..)
            .collect::<Vec<_>>()
            .into_iter()
            .chain(state.queued.drain(..))
            .collect();
        drop(state);
        for job in leftovers {
            let _ = job.reply.send(Err((
                ErrorCode::ShuttingDown,
                "daemon is shutting down".into(),
            )));
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling.
// ---------------------------------------------------------------------------

fn write_error(
    stream: &mut TcpStream,
    code: ErrorCode,
    message: &str,
) -> Result<(), wire::WireError> {
    wire::write_frame(stream, FrameKind::Error, &wire::encode_error(code, message))
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) -> Result<(), wire::WireError> {
    loop {
        let (kind, payload) = match wire::read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF: the client is done.
            Ok(None) => return Ok(()),
            Err(e) => {
                // Framing is lost: answer once, then drop the
                // connection. The daemon itself keeps serving.
                bump(&shared.counters.malformed);
                let _ = write_error(&mut stream, ErrorCode::Malformed, &e.to_string());
                return Err(e);
            }
        };
        match kind {
            FrameKind::GetStats => {
                wire::write_frame(&mut stream, FrameKind::Stats, &shared.snapshot().encode())?;
            }
            FrameKind::Submit => handle_submit(&mut stream, shared, &payload)?,
            // A client must not send server-side kinds.
            FrameKind::Result | FrameKind::Stats | FrameKind::Error => {
                bump(&shared.counters.malformed);
                write_error(
                    &mut stream,
                    ErrorCode::Malformed,
                    "unexpected server-side frame kind",
                )?;
            }
        }
    }
}

fn handle_submit(
    stream: &mut TcpStream,
    shared: &Shared,
    payload: &[u8],
) -> Result<(), wire::WireError> {
    bump(&shared.counters.requests);
    let (wire_program, options) = match wire::decode_submit(payload) {
        Ok(x) => x,
        Err(e) => {
            bump(&shared.counters.malformed);
            return write_error(stream, ErrorCode::Malformed, &e.to_string());
        }
    };
    let program = match wire_program.into_program() {
        Ok(p) => p,
        Err(e) => {
            bump(&shared.counters.malformed);
            return write_error(stream, ErrorCode::InvalidProgram, &e.to_string());
        }
    };

    // Admission, stage 1: the structural qubit gate — before planning,
    // so an oversized program cannot even cost us a lowering.
    if let Err(reason) = shared.policy.qubit_gate(program.n_qubits()) {
        bump(&shared.counters.rejected_qubits);
        return write_error(stream, reason.code(), &reason.to_string());
    }

    // Planning (cached, single-flight): the request's one counted lookup
    // also says whether it was a hit, which the reply reports as `warm`.
    let (plan, warm) = shared.executor.shared_plan(&program);

    // Admission, stage 2: the cost gate, on the plan's predicted total.
    let lane = match shared
        .policy
        .admit(plan.total_predicted_s(), shared.sched.queued_depth())
    {
        Ok(AdmitLane::Fast) => {
            bump(&shared.counters.fast_lane);
            Lane::Fast
        }
        Ok(AdmitLane::Queued) => {
            bump(&shared.counters.queued);
            Lane::Queued
        }
        Err(reason) => {
            match reason {
                RejectReason::OverBudget { .. } => bump(&shared.counters.rejected_cost),
                RejectReason::QueueFull { .. } => bump(&shared.counters.rejected_queue_full),
                RejectReason::TooManyQubits { .. } => bump(&shared.counters.rejected_qubits),
            }
            return write_error(stream, reason.code(), &reason.to_string());
        }
    };

    let (tx, rx) = mpsc::channel();
    bump(&shared.counters.in_service);
    shared.sched.push(Job {
        structure_hash: program.structure_hash(),
        program,
        plan,
        options,
        lane,
        warm,
        reply: tx,
    });
    let outcome = rx.recv().unwrap_or_else(|_| {
        Err((
            ErrorCode::ShuttingDown,
            "daemon stopped before the job ran".into(),
        ))
    });
    shared.counters.in_service.fetch_sub(1, Ordering::Relaxed);
    match outcome {
        Ok(result) => wire::write_frame(stream, FrameKind::Result, &result.encode()),
        Err((code, message)) => write_error(stream, code, &message),
    }
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    while let Some(batch) = shared.sched.pop_batch() {
        execute_batch(shared, batch);
    }
}

fn execute_batch(shared: &Shared, batch: Vec<Job>) {
    let n = batch.len();
    match catch_unwind(AssertUnwindSafe(|| run_batch(shared, &batch))) {
        Ok(Ok(results)) => {
            // Counters first, replies second: a client that reads stats
            // right after its result arrives must see this batch counted.
            shared
                .counters
                .served
                .fetch_add(n as u64, Ordering::Relaxed);
            if n > 1 {
                bump(&shared.counters.batches);
                shared
                    .counters
                    .batched_requests
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            for (job, result) in batch.into_iter().zip(results) {
                let _ = job.reply.send(Ok(result));
            }
        }
        Ok(Err(message)) => fail_batch(shared, batch, message),
        Err(_) => fail_batch(shared, batch, "worker panicked during execution".into()),
    }
}

fn fail_batch(shared: &Shared, batch: Vec<Job>, message: String) {
    // Counters before replies, as in the success path.
    shared
        .counters
        .exec_failures
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    for job in batch {
        let _ = job
            .reply
            .send(Err((ErrorCode::ExecutionFailed, message.clone())));
    }
}

/// Runs a structurally homogeneous batch (possibly of one) as one
/// ensemble under its first job's plan and builds the per-job responses.
/// Returns `Err(message)` on a typed execution failure.
fn run_batch(shared: &Shared, batch: &[Job]) -> Result<Vec<RunResult>, String> {
    let members: Vec<&QuantumProgram> = batch.iter().map(|j| &j.program).collect();
    let initial = BatchStateVector::zero_state(members[0].n_qubits(), members.len());
    let (states, report) = PlanInterpreter::new(*shared.executor.sim_config())
        .run_members(&members, &batch[0].plan, initial)
        .map_err(|e| e.to_string())?;
    let steps: Vec<WireStepReport> = report
        .steps
        .iter()
        .map(|s| WireStepReport {
            op: s.op.clone(),
            backend: if s.batched {
                format!("{}+batch", s.backend)
            } else {
                s.backend.to_string()
            },
            predicted_s: s.predicted_s,
            measured_s: s.measured_s,
        })
        .collect();
    Ok(batch
        .iter()
        .enumerate()
        .map(|(j, job)| build_result(job, &states, j, steps.clone(), batch.len()))
        .collect())
}

/// The reply to the job that ran as member `j` of `states`: its shots are
/// drawn straight from its lane of the batch-major buffer, and only a job
/// that asked for amplitudes gets a copy of them.
fn build_result(
    job: &Job,
    states: &BatchStateVector,
    j: usize,
    report: Vec<WireStepReport>,
    batch_size: usize,
) -> RunResult {
    let shots = if job.options.shots > 0 {
        let mut rng = StdRng::seed_from_u64(job.options.seed);
        sample_member_shots(states, j, job.options.shots as usize, &mut rng)
            .into_iter()
            .map(|s| s as u64)
            .collect()
    } else {
        Vec::new()
    };
    RunResult {
        n_qubits: states.n_qubits() as u8,
        amplitudes: job
            .options
            .want_amplitudes
            .then(|| states.member(j).into_amplitudes()),
        shots,
        report,
        lane: job.lane,
        batched: batch_size > 1,
        batch_size: batch_size as u32,
        warm: job.warm,
    }
}
