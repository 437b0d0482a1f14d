//! Offline shim for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! The qcemu build environment has no crates.io access, so this in-tree
//! crate reproduces the slice/range parallel-iterator surface the workspace
//! uses — `par_iter`, `par_iter_mut`, `par_chunks_mut`,
//! `into_par_iter` on ranges (with `for_each`, `enumerate`, `zip`,
//! `map`/`collect`), plus [`current_num_threads`], [`join`] and a
//! [`ThreadPoolBuilder`] whose [`ThreadPool::install`] scopes the visible
//! thread count.
//!
//! Since PR 10 the dispatch is a lazily-started **persistent worker
//! pool** ([`pool`]): workers park on a condvar (brief spin first) and
//! are handed contiguous index blocks through an atomic range splitter,
//! so stragglers are rebalanced dynamically while each `body(range)`
//! call still owns a contiguous block *disjoint* from every other — the
//! contract the state-vector kernels rely on for unsynchronised writes.
//! A depth-d circuit therefore pays the pool's dispatch latency (~µs)
//! per gate instead of a `std::thread::scope` spawn + join. Worker
//! threads inherit an even share of the caller's thread budget, so
//! nested parallel calls (e.g. the four-step FFT parallelising rows
//! whose per-row FFTs are themselves parallel) divide rather than
//! multiply the number of live threads, and a [`ThreadPool::install`]
//! bound applies at every nesting level. `QCEMU_THREADS` sets the pool
//! size; panics in parallel bodies propagate to the caller without
//! poisoning the pool. See [`pool`] for the design and its counters.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Mutex;

pub mod pool;

thread_local! {
    static NUM_THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores the previous thread-count override on drop, so a scoped
/// override survives panics in the guarded closure.
struct ThreadCountGuard {
    prev: Option<usize>,
}

impl Drop for ThreadCountGuard {
    fn drop(&mut self) {
        NUM_THREADS_OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Sets this thread's visible thread count until the guard drops.
fn set_thread_count(n: usize) -> ThreadCountGuard {
    ThreadCountGuard {
        prev: NUM_THREADS_OVERRIDE.with(|o| o.replace(Some(n.max(1)))),
    }
}

/// Thread budget each of `workers` job participants inherits, so nested
/// parallel calls divide the caller's budget instead of multiplying it.
fn inner_threads(outer: usize, workers: usize) -> usize {
    (outer / workers.max(1)).max(1)
}

/// Number of worker threads parallel calls on this thread will use.
///
/// Defaults to the pool size ([`pool::default_threads`]: `QCEMU_THREADS`
/// or [`std::thread::available_parallelism`]); inside
/// [`ThreadPool::install`] it reports that pool's configured size, and
/// inside a parallel body it reports the participant's divided budget.
pub fn current_num_threads() -> usize {
    NUM_THREADS_OVERRIDE.with(|o| o.get().unwrap_or_else(pool::default_threads))
}

/// Runs two closures, potentially in parallel, returning both results.
///
/// Routed through the persistent pool as a two-block job: the caller
/// claims one arm, an idle worker (if any) claims the other, and a
/// panic in either arm resumes on the calling thread. Each arm runs
/// under half the caller's thread budget, as before.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let outer = current_num_threads();
    if outer <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let fa = Mutex::new(Some(a));
    let fb = Mutex::new(Some(b));
    let ra: Mutex<Option<RA>> = Mutex::new(None);
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    pool::run_indexed(2, |block| {
        for i in block {
            if i == 0 {
                let f = fa
                    .lock()
                    .unwrap()
                    .take()
                    .expect("join: arm 0 claimed twice");
                *ra.lock().unwrap() = Some(f());
            } else {
                let f = fb
                    .lock()
                    .unwrap()
                    .take()
                    .expect("join: arm 1 claimed twice");
                *rb.lock().unwrap() = Some(f());
            }
        }
    });
    (
        ra.into_inner().unwrap().expect("join: arm 0 did not run"),
        rb.into_inner().unwrap().expect("join: arm 1 did not run"),
    )
}

/// Raw-pointer wrapper that lets disjoint-range parallel bodies
/// reconstruct their `&mut` sub-slices. Sound because the pool hands
/// every body call a contiguous block disjoint from all others.
struct SendPtr<T>(*mut T);

// Manual impls: the derives would add unwanted `T: Copy` bounds.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// `range` must be in bounds and disjoint from every other range
    /// reconstructed from this pointer while the slice is borrowed.
    unsafe fn slice_mut<'a>(self, range: Range<usize>) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(range.start), range.len())
    }
}

/// Range → parallel iterator conversion (`(0..n).into_par_iter()`).
pub trait IntoParallelIterator {
    /// The parallel-iterator adapter type.
    type Iter;
    /// Converts `self` into its parallel adapter.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel adapter over a `Range<usize>`.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Calls `f(i)` for every index, split across pool workers.
    pub fn for_each<F: Fn(usize) + Sync + Send>(self, f: F) {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        pool::run_indexed(len, |block| {
            for i in block {
                f(start + i);
            }
        });
    }

    /// Maps every index through `f`, preserving order.
    pub fn map<T, F: Fn(usize) -> T + Sync + Send>(self, f: F) -> ParRangeMap<T, F> {
        ParRangeMap {
            range: self.range,
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Result of [`ParRange::map`]; consumed by [`ParRangeMap::collect`].
pub struct ParRangeMap<T, F> {
    range: Range<usize>,
    f: F,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Send, F: Fn(usize) -> T + Sync + Send> ParRangeMap<T, F> {
    /// Evaluates all elements in parallel and collects them in index order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        let f = &self.f;
        let mut out: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(len);
        // SAFETY: `MaybeUninit` needs no initialisation; every slot is
        // written exactly once below (blocks are disjoint and cover 0..len).
        unsafe { out.set_len(len) };
        let base = SendPtr(out.as_mut_ptr());
        pool::run_indexed(len, |block| {
            // Capture the wrapper, not its raw-pointer field (edition-2021
            // closures would otherwise capture the non-Sync `*mut` directly).
            #[allow(clippy::redundant_locals)]
            let base = base;
            for i in block {
                // SAFETY: in-bounds, and index `i` belongs to exactly one block.
                unsafe { (*base.0.add(i)).write(f(start + i)) };
            }
        });
        // SAFETY: fully initialised above; re-type the buffer in place.
        let vec: Vec<T> = unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr() as *mut T, len, out.capacity())
        };
        vec.into_iter().collect()
    }
}

/// `&[T]` / `&Vec<T>` → [`ParSlice`] (`.par_iter()`).
pub trait ParallelSlice<T> {
    /// Parallel shared-slice iterator.
    fn par_iter(&self) -> ParSlice<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}

/// Parallel iterator over `&[T]`.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Calls `f(&item)` for every element.
    pub fn for_each<F: Fn(&'a T) + Sync + Send>(self, f: F) {
        let slice = self.slice;
        pool::run_indexed(slice.len(), |block| {
            for item in &slice[block.start..block.end] {
                f(item);
            }
        });
    }

    /// Index-carrying variant: yields `(index, &item)` pairs.
    pub fn enumerate(self) -> ParSliceEnumerate<'a, T> {
        ParSliceEnumerate { slice: self.slice }
    }
}

/// Enumerated parallel iterator over `&[T]`.
pub struct ParSliceEnumerate<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSliceEnumerate<'a, T> {
    /// Calls `f((i, &item))` for every element.
    pub fn for_each<F: Fn((usize, &'a T)) + Sync + Send>(self, f: F) {
        let slice = self.slice;
        pool::run_indexed(slice.len(), |block| {
            for i in block {
                f((i, &slice[i]));
            }
        });
    }
}

/// `&mut [T]` → [`ParSliceMut`] / [`ParChunksMut`] (`.par_iter_mut()`,
/// `.par_chunks_mut(n)`).
pub trait ParallelSliceMut<T> {
    /// Parallel mutable iterator over elements.
    fn par_iter_mut(&mut self) -> ParSliceMut<'_, T>;
    /// Parallel iterator over contiguous mutable chunks of length
    /// `chunk_size` (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParSliceMut<'_, T> {
        ParSliceMut { slice: self }
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "par_chunks_mut: chunk size must be > 0");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

impl<T: Send> ParallelSliceMut<T> for Vec<T> {
    fn par_iter_mut(&mut self) -> ParSliceMut<'_, T> {
        self.as_mut_slice().par_iter_mut()
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        self.as_mut_slice().par_chunks_mut(chunk_size)
    }
}

/// Parallel mutable iterator over `&mut [T]`.
pub struct ParSliceMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    /// Calls `f(&mut item)` for every element.
    pub fn for_each<F: Fn(&mut T) + Sync + Send>(self, f: F) {
        let len = self.slice.len();
        let base = SendPtr(self.slice.as_mut_ptr());
        pool::run_indexed(len, |block| {
            // SAFETY: blocks are disjoint, so each element is borrowed once.
            let part = unsafe { base.slice_mut(block) };
            part.iter_mut().for_each(&f);
        });
    }

    /// Index-carrying variant: yields `(index, &mut item)` pairs.
    pub fn enumerate(self) -> ParSliceMutEnumerate<'a, T> {
        ParSliceMutEnumerate { slice: self.slice }
    }

    /// Locksteps two mutable slices (truncating to the shorter).
    pub fn zip(self, other: ParSliceMut<'a, T>) -> ParZipMut<'a, T> {
        ParZipMut {
            a: self.slice,
            b: other.slice,
        }
    }
}

/// Enumerated parallel mutable iterator.
pub struct ParSliceMutEnumerate<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSliceMutEnumerate<'a, T> {
    /// Calls `f((i, &mut item))` for every element.
    pub fn for_each<F: Fn((usize, &mut T)) + Sync + Send>(self, f: F) {
        let len = self.slice.len();
        let base = SendPtr(self.slice.as_mut_ptr());
        pool::run_indexed(len, |block| {
            let offset = block.start;
            // SAFETY: blocks are disjoint, so each element is borrowed once.
            let part = unsafe { base.slice_mut(block) };
            for (i, item) in part.iter_mut().enumerate() {
                f((offset + i, item));
            }
        });
    }
}

/// Parallel lockstep over two mutable slices.
pub struct ParZipMut<'a, T> {
    a: &'a mut [T],
    b: &'a mut [T],
}

impl<'a, T: Send> ParZipMut<'a, T> {
    /// Index-carrying variant: yields `(i, (&mut a, &mut b))`.
    pub fn enumerate(self) -> ParZipMutEnumerate<'a, T> {
        ParZipMutEnumerate {
            a: self.a,
            b: self.b,
        }
    }

    /// Calls `f((&mut a, &mut b))` for every lockstep pair.
    pub fn for_each<F: Fn((&mut T, &mut T)) + Sync + Send>(self, f: F) {
        ParZipMutEnumerate {
            a: self.a,
            b: self.b,
        }
        .for_each(|(_, pair)| f(pair));
    }
}

/// Enumerated parallel lockstep over two mutable slices.
pub struct ParZipMutEnumerate<'a, T> {
    a: &'a mut [T],
    b: &'a mut [T],
}

impl<'a, T: Send> ParZipMutEnumerate<'a, T> {
    /// Calls `f((i, (&mut a, &mut b)))` for every lockstep pair.
    pub fn for_each<F: Fn((usize, (&mut T, &mut T))) + Sync + Send>(self, f: F) {
        let len = self.a.len().min(self.b.len());
        let base_a = SendPtr(self.a.as_mut_ptr());
        let base_b = SendPtr(self.b.as_mut_ptr());
        pool::run_indexed(len, |block| {
            let offset = block.start;
            // SAFETY: blocks are disjoint and within both slices' bounds.
            let part_a = unsafe { base_a.slice_mut(block.clone()) };
            let part_b = unsafe { base_b.slice_mut(block) };
            for (i, (x, y)) in part_a.iter_mut().zip(part_b.iter_mut()).enumerate() {
                f((offset + i, (x, y)));
            }
        });
    }
}

/// Parallel iterator over contiguous mutable chunks.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Calls `f(chunk)` for every chunk.
    pub fn for_each<F: Fn(&mut [T]) + Sync + Send>(self, f: F) {
        ParChunksMutEnumerate { inner: self }.for_each(|(_, chunk)| f(chunk));
    }

    /// Index-carrying variant: yields `(chunk_index, chunk)` pairs.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }

    /// Locksteps this chunk iterator with another (rayon's
    /// `IndexedParallelIterator::zip`), yielding `(chunk_a, chunk_b)`
    /// pairs truncated to the shorter side.
    pub fn zip(self, other: ParChunksMut<'a, T>) -> ParChunksMutZip<'a, T> {
        ParChunksMutZip { a: self, b: other }
    }
}

/// The chunk with index `ci` of a `len`-element slice cut into
/// `chunk_size`-element chunks (the last chunk may be shorter).
fn chunk_bounds(ci: usize, chunk_size: usize, len: usize) -> Range<usize> {
    let lo = ci * chunk_size;
    lo..(lo + chunk_size).min(len)
}

/// Lockstep pair of two parallel chunk iterators.
pub struct ParChunksMutZip<'a, T> {
    a: ParChunksMut<'a, T>,
    b: ParChunksMut<'a, T>,
}

impl<'a, T: Send> ParChunksMutZip<'a, T> {
    /// Calls `f((chunk_a, chunk_b))` for every lockstep chunk pair.
    pub fn for_each<F: Fn((&mut [T], &mut [T])) + Sync + Send>(self, f: F) {
        self.enumerate().for_each(|(_, pair)| f(pair));
    }

    /// Index-carrying variant: yields `(i, (chunk_a, chunk_b))`.
    pub fn enumerate(self) -> ParChunksMutZipEnumerate<'a, T> {
        ParChunksMutZipEnumerate { inner: self }
    }
}

/// Enumerated lockstep pair of two parallel chunk iterators.
pub struct ParChunksMutZipEnumerate<'a, T> {
    inner: ParChunksMutZip<'a, T>,
}

impl<'a, T: Send> ParChunksMutZipEnumerate<'a, T> {
    /// Calls `f((i, (chunk_a, chunk_b)))` for every lockstep chunk pair.
    pub fn for_each<F: Fn((usize, (&mut [T], &mut [T]))) + Sync + Send>(self, f: F) {
        let (len_a, cs_a) = (self.inner.a.slice.len(), self.inner.a.chunk_size);
        let (len_b, cs_b) = (self.inner.b.slice.len(), self.inner.b.chunk_size);
        let n_chunks = len_a.div_ceil(cs_a).min(len_b.div_ceil(cs_b));
        let base_a = SendPtr(self.inner.a.slice.as_mut_ptr());
        let base_b = SendPtr(self.inner.b.slice.as_mut_ptr());
        pool::run_indexed(n_chunks, |block| {
            for ci in block {
                // SAFETY: chunk index `ci` belongs to exactly one block, so
                // each chunk pair is reconstructed and borrowed once.
                let chunk_a = unsafe { base_a.slice_mut(chunk_bounds(ci, cs_a, len_a)) };
                let chunk_b = unsafe { base_b.slice_mut(chunk_bounds(ci, cs_b, len_b)) };
                f((ci, (chunk_a, chunk_b)));
            }
        });
    }
}

/// Enumerated parallel iterator over contiguous mutable chunks.
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Calls `f((chunk_index, chunk))` for every chunk.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync + Send>(self, f: F) {
        let (len, cs) = (self.inner.slice.len(), self.inner.chunk_size);
        let n_chunks = len.div_ceil(cs);
        let base = SendPtr(self.inner.slice.as_mut_ptr());
        pool::run_indexed(n_chunks, |block| {
            for ci in block {
                // SAFETY: chunk index `ci` belongs to exactly one block.
                let chunk = unsafe { base.slice_mut(chunk_bounds(ci, cs, len)) };
                f((ci, chunk));
            }
        });
    }
}

/// Error type returned by [`ThreadPoolBuilder::build`]; never constructed.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("rayon-shim: thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder` (only `num_threads`).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count the built pool reports.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool (infallible in the shim).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(current_num_threads).max(1),
        })
    }
}

/// A scoped thread-count context over the shared persistent pool:
/// [`ThreadPool::install`] makes [`current_num_threads`] report the
/// pool's size inside the closure, which caps how many workers of the
/// process-wide pool a parallel call may enlist — so size-gated
/// parallel/serial code paths behave as they would under real rayon.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count visible to
    /// [`current_num_threads`].
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _threads = set_thread_count(self.num_threads);
        f()
    }

    /// The configured thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// `rayon::prelude` stand-in: the traits that hang `par_*` methods off
/// slices, vectors and ranges.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_for_each_covers_all_indices() {
        let hits: Vec<std::sync::atomic::AtomicUsize> = (0..1000)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect();
        (0..1000).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(hits
            .iter()
            .all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..997).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(v.len(), 997);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn par_iter_mut_and_chunks_mut() {
        let mut v = vec![1u64; 4096];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
        v.par_chunks_mut(100).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i as u64;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[150], 1);
        assert_eq!(v[4095], 40);
    }

    #[test]
    fn zip_enumerate_locksteps() {
        let mut a = vec![0usize; 512];
        let mut b = vec![0usize; 512];
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .for_each(|(i, (x, y))| {
                *x = i;
                *y = 2 * i;
            });
        assert!(a.iter().enumerate().all(|(i, &x)| x == i));
        assert!(b.iter().enumerate().all(|(i, &y)| y == 2 * i));
    }

    #[test]
    fn chunks_zip_handles_ragged_lengths() {
        // 10 chunks of a (len 1000, cs 100) vs 7 chunks of b (len 650,
        // cs 100): truncated to 7 pairs, with b's last chunk short.
        let mut a = vec![0usize; 1000];
        let mut b = vec![0usize; 650];
        a.par_chunks_mut(100)
            .zip(b.par_chunks_mut(100))
            .enumerate()
            .for_each(|(i, (ca, cb))| {
                assert_eq!(ca.len(), 100);
                assert_eq!(cb.len(), if i == 6 { 50 } else { 100 });
                for x in ca.iter_mut() {
                    *x = i + 1;
                }
                for y in cb.iter_mut() {
                    *y = i + 1;
                }
            });
        assert_eq!(a[699], 7);
        assert_eq!(a[700], 0, "a's chunks beyond the zip are untouched");
        assert_eq!(b[649], 7);
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 1);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn install_restores_thread_count_after_panic() {
        let before = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("boom"));
        }));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn nested_parallelism_divides_thread_budget() {
        // Each participant of an outer parallel call sees outer/workers
        // threads, so a nested parallel call cannot oversubscribe.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let max_inner = std::sync::atomic::AtomicUsize::new(0);
        pool.install(|| {
            (0..4).into_par_iter().for_each(|_| {
                max_inner.fetch_max(current_num_threads(), std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert_eq!(max_inner.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            join(|| 1, || -> i32 { panic!("arm b failed") });
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "arm b failed", "original payload must survive");
        // The pool must remain usable after the propagated panic.
        let (a, b) = join(|| 3, || 4);
        assert_eq!((a, b), (3, 4));
    }

    #[test]
    fn par_iter_panic_propagates_and_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            (0..1024).into_par_iter().for_each(|i| {
                if i == 700 {
                    panic!("body panicked at {i}");
                }
            });
        });
        assert!(caught.is_err());
        // Reuse after the panic: full coverage, no poisoning.
        let hits = std::sync::atomic::AtomicUsize::new(0);
        (0..1024).into_par_iter().for_each(|_| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1024);
    }
}
