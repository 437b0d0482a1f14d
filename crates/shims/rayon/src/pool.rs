//! Persistent worker pool behind the shim's parallel iterators.
//!
//! Every parallel call used to pay `std::thread::scope` spawn + join —
//! acceptable for one-off sweeps, ruinous for a depth-d circuit that
//! dispatches d kernels per run. This module replaces that with a
//! process-wide pool started lazily on the first above-threshold
//! dispatch:
//!
//! * **Workers park on a condvar** (after a brief spin so back-to-back
//!   kernel dispatches — the per-gate hot path — never pay a futex
//!   round trip), and are handed work through a small job queue.
//! * **Dynamic chunk handoff**: each job owns an atomic range splitter
//!   over `0..len`. Participants (the caller *and* the pool workers)
//!   repeatedly claim contiguous index blocks of `len / (4·p)` until
//!   the range is exhausted, so a straggler's remaining work is picked
//!   up by whoever finishes first. Every `body(range)` call still
//!   receives a **contiguous block disjoint** from all others — the
//!   contract the state-vector kernels rely on for unsynchronised
//!   writes.
//! * **Budget semantics are unchanged**: participants run under a
//!   thread-count override of `budget / participants` (the budget being
//!   the caller's thread count clamped to the pool size), so nested
//!   parallel calls divide the budget exactly as before, and a
//!   [`ThreadPool::install`](crate::ThreadPool::install) bound caps how
//!   many pool workers may join a job. Nested parallel calls *from a
//!   pool worker* fall back to the old scoped-spawn path (they cannot
//!   block on the pool they occupy), which in practice means they run
//!   serially because the divided budget is 1.
//! * **Panics propagate**: a panicking `body` is caught, the job is
//!   drained, and the first payload is re-thrown on the calling thread
//!   once every in-flight block has retired. The pool itself holds no
//!   lock across user code, so a panic never poisons it — the next
//!   dispatch reuses the same workers.
//! * **`QCEMU_THREADS`** sets the pool size (default:
//!   `std::thread::available_parallelism`); `QCEMU_THREADS=1` disables
//!   the pool and runs every parallel call serially on the caller.
//!
//! Observability: [`stats`] exposes monotonic counters
//! (`tasks_dispatched`, `blocks_stolen`, `parks`, `wakeups`,
//! `peak_workers`); the daemon's Stats frame and `perf_suite`'s `pool.*`
//! rows read them.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::{current_num_threads, inner_threads, set_thread_count};

/// Spin iterations before a worker parks / a caller blocks on the
/// completion condvar. Roughly a few microseconds — long enough to
/// bridge the gap between back-to-back per-gate dispatches.
const SPIN_ITERS: usize = 4096;

/// Chunks handed out per participant (on average): 4 gives stragglers
/// three rebalancing opportunities without measurable splitter traffic.
const CHUNKS_PER_PARTICIPANT: usize = 4;

thread_local! {
    /// Set for the lifetime of a pool worker thread: parallel calls made
    /// *from* a worker must not block on the pool they occupy.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on a pool worker thread (nested parallel calls fall back to
/// scoped spawning there).
pub(crate) fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(|c| c.get())
}

/// Monotonic pool counters (process-wide, lock-free).
#[derive(Default)]
struct StatCells {
    tasks_dispatched: AtomicU64,
    blocks_stolen: AtomicU64,
    parks: AtomicU64,
    wakeups: AtomicU64,
    peak_workers: AtomicU64,
    participants: AtomicU64,
}

static STATS: StatCells = StatCells {
    tasks_dispatched: AtomicU64::new(0),
    blocks_stolen: AtomicU64::new(0),
    parks: AtomicU64::new(0),
    wakeups: AtomicU64::new(0),
    peak_workers: AtomicU64::new(0),
    participants: AtomicU64::new(0),
};

/// Snapshot of the pool counters returned by [`stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel jobs handed to the pool (serial and fallback-spawned
    /// calls are not counted).
    pub tasks_dispatched: u64,
    /// Contiguous index blocks claimed by a participant *beyond its
    /// first* — i.e. blocks the static even split would have left on a
    /// straggler, rebalanced through the atomic splitter instead.
    pub blocks_stolen: u64,
    /// Times an idle worker gave up spinning and parked on the condvar.
    pub parks: u64,
    /// Times a parked worker was woken by a new job.
    pub wakeups: u64,
    /// Peak number of participants (caller + workers) simultaneously
    /// executing job blocks.
    pub peak_workers: u64,
    /// Configured pool size (`QCEMU_THREADS` or the host parallelism);
    /// the pool spawns `threads - 1` workers and the caller is the
    /// remaining participant.
    pub threads: usize,
}

/// Current pool counters. Cheap (relaxed atomic loads); available (all
/// zeros) even before the first dispatch starts the pool.
pub fn stats() -> PoolStats {
    PoolStats {
        tasks_dispatched: STATS.tasks_dispatched.load(Ordering::Relaxed),
        blocks_stolen: STATS.blocks_stolen.load(Ordering::Relaxed),
        parks: STATS.parks.load(Ordering::Relaxed),
        wakeups: STATS.wakeups.load(Ordering::Relaxed),
        peak_workers: STATS.peak_workers.load(Ordering::Relaxed),
        threads: default_threads(),
    }
}

/// Parses `QCEMU_THREADS`-style values: a positive integer, clamped to
/// at least 1; anything unparsable is `None` (fall back to the host).
pub(crate) fn parse_thread_env(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// The pool size: `QCEMU_THREADS` if set (oversubscription allowed —
/// forcing 4 workers on a 1-core runner is how CI exercises parking and
/// handoff), otherwise the host's available parallelism. Read once.
pub fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("QCEMU_THREADS")
            .ok()
            .as_deref()
            .and_then(parse_thread_env)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// One parallel job: a type-erased block body plus the atomic range
/// splitter and completion/panic state.
///
/// Safety: `body` borrows from the dispatching caller's stack with the
/// lifetime erased. The caller blocks in [`Job::wait`] until `pending`
/// reaches zero, and no participant dereferences `body` after its last
/// claimed block retires, so the borrow never outlives the frame — the
/// same guarantee `std::thread::scope` provides, held by protocol
/// instead of by type.
struct Job {
    body: &'static (dyn Fn(Range<usize>) + Sync),
    /// Next unclaimed index.
    cursor: AtomicUsize,
    /// One past the last index.
    end: usize,
    /// Claim granularity (indices per block).
    chunk: usize,
    /// Indices claimed but not yet retired + indices never claimed.
    pending: AtomicUsize,
    /// Pool workers still allowed to join (budget − 1 at creation).
    helper_slots: AtomicIsize,
    /// Thread budget each participant runs blocks under.
    inner_budget: usize,
    /// First panic payload from any participant's body.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_m: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    /// Claims the next contiguous block, or `None` when exhausted.
    fn claim(&self) -> Option<Range<usize>> {
        let lo = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if lo >= self.end {
            return None;
        }
        Some(lo..(lo + self.chunk).min(self.end))
    }

    /// `true` once every index has been claimed (not necessarily retired).
    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.end
    }

    /// Retires `n` indices; the last retirement wakes the waiting caller.
    fn retire(&self, n: usize) {
        if self.pending.fetch_sub(n, Ordering::Release) == n {
            let _g = self.done_m.lock().unwrap();
            self.done_cv.notify_all();
        }
    }

    /// Records the first panic payload and claims-and-retires the rest of
    /// the range so the job completes without running further blocks.
    fn abort_with(&self, payload: Box<dyn std::any::Any + Send>) {
        {
            let mut p = self.panic.lock().unwrap();
            if p.is_none() {
                *p = Some(payload);
            }
        }
        while let Some(r) = self.claim() {
            self.retire(r.len());
        }
    }

    /// Blocks until every index has retired (spin first, then condvar).
    fn wait(&self) {
        for _ in 0..SPIN_ITERS {
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        let mut g = self.done_m.lock().unwrap();
        while self.pending.load(Ordering::Acquire) != 0 {
            g = self.done_cv.wait(g).unwrap();
        }
    }
}

/// Runs blocks of `job` on the current thread until the splitter runs
/// dry. Shared by the dispatching caller and the pool workers.
fn participate(job: &Job) {
    let _budget = set_thread_count(job.inner_budget);
    let n = STATS.participants.fetch_add(1, Ordering::Relaxed) + 1;
    STATS.peak_workers.fetch_max(n, Ordering::Relaxed);
    let mut first = true;
    while let Some(r) = job.claim() {
        if !first {
            STATS.blocks_stolen.fetch_add(1, Ordering::Relaxed);
        }
        first = false;
        let len = r.len();
        match catch_unwind(AssertUnwindSafe(|| (job.body)(r))) {
            Ok(()) => job.retire(len),
            Err(payload) => {
                // Record the payload *before* retiring this block: if it
                // is the last pending work, retiring first would let the
                // waiting caller observe completion with an empty panic
                // slot and return success.
                job.abort_with(payload);
                job.retire(len);
                break;
            }
        }
    }
    STATS.participants.fetch_sub(1, Ordering::Relaxed);
}

/// The queue + parking shared by all workers.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    /// Bumped on every push so idle workers can spin without the lock.
    queue_seq: AtomicU64,
}

impl PoolShared {
    /// Scans the queue (under its lock) for a job that still has both
    /// unclaimed blocks and a helper slot; prunes unusable entries.
    fn try_take(queue: &mut VecDeque<Arc<Job>>) -> Option<Arc<Job>> {
        while let Some(front) = queue.front() {
            if front.exhausted() || front.helper_slots.load(Ordering::Relaxed) <= 0 {
                queue.pop_front();
                continue;
            }
            let job = Arc::clone(front);
            if job.helper_slots.fetch_sub(1, Ordering::Relaxed) <= 0 {
                // Lost a race with another worker for the last slot.
                queue.pop_front();
                continue;
            }
            if job.helper_slots.load(Ordering::Relaxed) <= 0 {
                queue.pop_front();
            }
            return Some(job);
        }
        None
    }

    /// Blocks (spin, then park) until a job is claimable.
    fn next_job(&self, last_seq: &mut u64) -> Arc<Job> {
        loop {
            {
                let mut q = self.queue.lock().unwrap();
                if let Some(job) = Self::try_take(&mut q) {
                    return job;
                }
            }
            // Spin briefly on the push sequence — bridges back-to-back
            // per-gate dispatches without a futex round trip.
            let mut saw_push = false;
            for _ in 0..SPIN_ITERS {
                if self.queue_seq.load(Ordering::Relaxed) != *last_seq {
                    saw_push = true;
                    break;
                }
                std::hint::spin_loop();
            }
            let mut q = self.queue.lock().unwrap();
            if let Some(job) = Self::try_take(&mut q) {
                return job;
            }
            if !saw_push {
                STATS.parks.fetch_add(1, Ordering::Relaxed);
                let (guard, _) = self
                    .work_cv
                    .wait_timeout(q, std::time::Duration::from_millis(100))
                    .unwrap();
                q = guard;
                STATS.wakeups.fetch_add(1, Ordering::Relaxed);
                if let Some(job) = Self::try_take(&mut q) {
                    return job;
                }
            }
            *last_seq = self.queue_seq.load(Ordering::Relaxed);
        }
    }

    fn push(&self, job: Arc<Job>) {
        STATS.tasks_dispatched.fetch_add(1, Ordering::Relaxed);
        let mut q = self.queue.lock().unwrap();
        q.push_back(job);
        self.queue_seq.fetch_add(1, Ordering::Relaxed);
        self.work_cv.notify_all();
    }

    fn remove(&self, job: &Arc<Job>) {
        let mut q = self.queue.lock().unwrap();
        q.retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// The process-wide pool: `default_threads() − 1` detached workers.
struct Pool {
    shared: Arc<PoolShared>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = default_threads().saturating_sub(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            queue_seq: AtomicU64::new(0),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("qcemu-pool-{i}"))
                .spawn(move || {
                    IN_POOL_WORKER.with(|c| c.set(true));
                    let mut last_seq = 0u64;
                    loop {
                        let job = shared.next_job(&mut last_seq);
                        participate(&job);
                    }
                })
                .expect("rayon-shim: failed to spawn pool worker");
        }
        Pool { shared, workers }
    })
}

/// Starts the pool (if the configured size warrants one) and runs one
/// trivial job through it, so the first *measured* kernel dispatch pays
/// neither thread spawning nor first-touch costs. Calibration calls
/// this before timing any rate.
pub fn warm_up() {
    if default_threads() <= 1 {
        return;
    }
    let p = pool();
    if p.workers == 0 {
        return;
    }
    let sink = AtomicUsize::new(0);
    run_indexed((p.workers + 1) * CHUNKS_PER_PARTICIPANT, |r| {
        sink.fetch_add(r.len(), Ordering::Relaxed);
    });
    std::hint::black_box(sink.load(Ordering::Relaxed));
}

/// The legacy dispatch: split `0..len` into `min(outer, len)` contiguous
/// blocks and run them on `std::thread::scope` threads, paying spawn +
/// join per call. Retained as the nested-call fallback (a pool worker
/// cannot block on its own pool).
pub(crate) fn spawn_for_each_block(len: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    let outer = current_num_threads();
    let workers = outer.min(len.max(1));
    if workers <= 1 || len < 2 {
        body(0..len);
        return;
    }
    let inner = inner_threads(outer, workers);
    let per = len.div_ceil(workers);
    std::thread::scope(|s| {
        for w in 0..workers {
            let lo = w * per;
            let hi = ((w + 1) * per).min(len);
            if lo >= hi {
                break;
            }
            s.spawn(move || {
                let _threads = set_thread_count(inner);
                body(lo..hi)
            });
        }
    });
}

/// The dispatch primitive every shim adapter funnels through: invokes
/// `body` with disjoint contiguous sub-ranges covering `0..len`, in
/// parallel when the thread budget and pool allow it.
pub(crate) fn run_indexed(len: usize, body: impl Fn(Range<usize>) + Sync) {
    let outer = current_num_threads();
    if outer <= 1 || len < 2 {
        body(0..len);
        return;
    }
    if in_pool_worker() || default_threads() <= 1 {
        spawn_for_each_block(len, &body);
        return;
    }
    let p = pool();
    if p.workers == 0 {
        spawn_for_each_block(len, &body);
        return;
    }
    dispatch(p, len, outer, &body);
}

fn dispatch(p: &'static Pool, len: usize, outer: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    // Clamp the budget to pool capacity *before* dividing it: an
    // `install(4)` on a 2-thread pool has 2 participants, and each must
    // inherit 2/2 = 1 thread, not 4/2 = 2 (nested calls would oversubscribe).
    let budget = outer.min(p.workers + 1);
    let participants = budget.min(len);
    if participants <= 1 {
        body(0..len);
        return;
    }
    // Erase the borrow: `Job::wait` below outlives every dereference.
    let body: &'static (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(body) };
    let job = Arc::new(Job {
        body,
        cursor: AtomicUsize::new(0),
        end: len,
        chunk: len.div_ceil(CHUNKS_PER_PARTICIPANT * participants).max(1),
        pending: AtomicUsize::new(len),
        helper_slots: AtomicIsize::new(participants as isize - 1),
        inner_budget: inner_threads(budget, participants),
        panic: Mutex::new(None),
        done_m: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    p.shared.push(Arc::clone(&job));
    participate(&job);
    job.wait();
    p.shared.remove(&job);
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_thread_env_accepts_positive_integers() {
        assert_eq!(parse_thread_env("4"), Some(4));
        assert_eq!(parse_thread_env(" 2 "), Some(2));
        assert_eq!(parse_thread_env("0"), Some(1), "zero clamps to serial");
        assert_eq!(parse_thread_env("four"), None);
        assert_eq!(parse_thread_env(""), None);
    }

    #[test]
    fn stats_are_monotonic_and_cheap() {
        let a = stats();
        warm_up();
        let b = stats();
        assert!(b.tasks_dispatched >= a.tasks_dispatched);
        assert!(b.parks >= a.parks);
        assert_eq!(b.threads, default_threads());
    }
}
