//! Structure-specialised state-vector kernels.
//!
//! These kernels are the reason the paper's simulator beats qHiPSTER and
//! LIQUi|⟩ (§4.5): instead of one generic sparse-matrix product per gate,
//! each structural class gets its own loop —
//!
//! * **general 2×2**: one butterfly per amplitude pair;
//! * **diagonal**: pure scaling, no pairing; with `d0 = 1` (phase gates)
//!   only the `|1⟩` half is touched — a *controlled* phase therefore
//!   touches exactly a quarter of the state vector, the access pattern the
//!   paper's QFT cost model (Eq. 6) is built on;
//! * **X / SWAP**: pure permutations, no arithmetic.
//!
//! Controls are folded into the index enumeration (not checked per entry):
//! a gate with `c` controls iterates `2^{n−1−c}` compressed indices and
//! expands each by bit insertion, so work shrinks geometrically with the
//! number of controls.
//!
//! On top of the per-gate kernels sit the **fused** kernels
//! ([`apply_fused`], [`apply_fused_diagonal`], [`apply_fused_permutation`]):
//! they apply a whole k-qubit block — produced by [`crate::fusion`] from a
//! run of adjacent gates — in *one* blocked pass over the state vector,
//! so memory traffic is paid once per block instead of once per gate (the
//! qHiPSTER-style optimisation layered on the paper's §4.5 kernels).
//!
//! ## One layout
//!
//! Every kernel takes `(state, batch, …)`: a **batch-major buffer** of
//! `batch` state vectors, amplitude `i` of member `j` at
//! `state[i·batch + j]`. A single state is the `batch = 1` buffer — the
//! plain amplitude vector — so [`StateVector`](crate::StateVector),
//! [`BatchStateVector`](crate::BatchStateVector) and the distributed
//! simulator's node-local slabs (`qcemu-cluster`) all run the same code.
//!
//! ## Vectorisation
//!
//! With the lowest gate qubit (target or control) at position `p`, the
//! selected index set decomposes into contiguous runs of `batch · 2^p`
//! buffer elements, and the drivers ([`for_each_pair_run`],
//! [`for_each_one_run`]) hand out whole runs as slices — the shape the
//! complex-SIMD primitives of [`qcemu_linalg::simd`] consume. Runs shorter
//! than [`simd::LANES`] (a single state with the gate on its lowest
//! qubits) take an inline scalar loop instead of the SIMD dispatch. The
//! gathering fused kernels ([`apply_fused`] and the general-block replay)
//! first lift the state bits below a block's lowest qubit into the batch,
//! so their gathers copy contiguous runs and their replayed ops take the
//! same slice primitives; only a block on qubit 0 of a lone state replays
//! on the scalar loop. The
//! primitives themselves dispatch at run time (AVX2+FMA where the CPU
//! check finds it, scalar everywhere else), so this module never names
//! an instruction set.

use crate::gate::{Gate, GateStructure, Mat2};
use qcemu_linalg::{simd, CMatrix, C64};
use rayon::prelude::*;

/// Default **buffer length** (`2^n · batch` amplitudes — one state's
/// dimension when `batch = 1`) below which kernels run serially: thread
/// handoff would dominate. Every driver — per-gate, fused, segmented —
/// compares the length of the buffer it sweeps against this, not the
/// fraction of it a gate's controls select (only a sweep selecting under
/// 1/64 of the threshold stays serial regardless). Overridable per
/// execution via [`SimConfig::par_threshold`](crate::SimConfig).
pub const PAR_THRESHOLD: usize = 1 << 15;

/// `true` when a sweep over a `len`-element buffer should go parallel.
#[inline]
pub(crate) fn parallel_ok(len: usize, par_threshold: usize) -> bool {
    len >= par_threshold && rayon::current_num_threads() > 1
}

/// Widest block the fused kernels accept: `2^MAX_FUSED_QUBITS` amplitudes
/// per member (1 KiB) keeps the per-group working set L1-resident — the
/// whole point of fusion.
pub const MAX_FUSED_QUBITS: usize = 6;

/// Longest run (in buffer elements, 64 KiB) the pair/one drivers hand
/// out. Longer natural runs — a gate whose lowest qubit sits high — are
/// cut into aligned pieces so that every sweep has many tasks to split
/// across the pool (a top-qubit gate is otherwise one single run).
const MAX_RUN: usize = 1 << 12;

/// Largest gathered group (in buffer elements, 32 KiB) the fused gather
/// grows a block's group to by lifting low state bits into the batch: an
/// L1's worth (`MAX_RUN`'s 64 KiB measured slower).
const LIFT_GROUP: usize = 1 << 11;

/// A sweep whose controls select fewer than `par_threshold / MIN_PAR_SHARE`
/// elements stays serial however long the buffer is: a gate with a dozen
/// controls touches a few dozen amplitudes, and a pool dispatch costs more
/// than that (`sim.pergate_s` on `batch_sweep`).
const MIN_PAR_SHARE: usize = 64;

/// Tasks per thread the group driver cuts a sweep into, so a straggler's
/// tail is picked up by whoever finishes first.
const GROUP_TASKS_PER_THREAD: usize = 4;

/// Pointer wrapper that lets rayon tasks write to provably disjoint ranges
/// of one buffer.
#[derive(Copy, Clone)]
pub(crate) struct StatePtr(pub(crate) *mut C64);
// SAFETY: `StatePtr` is only used by the run and group drivers in this
// module, which guarantee that distinct loop indices expand to disjoint
// buffer ranges (the expansion is injective and the gate bits separate the
// runs of each pair / group). No two tasks ever alias.
unsafe impl Send for StatePtr {}
unsafe impl Sync for StatePtr {}

impl StatePtr {
    /// The `len` elements starting at `start`, as a slice.
    ///
    /// # Safety
    ///
    /// The range must lie inside the buffer and no other live reference
    /// may overlap it.
    #[inline(always)]
    unsafe fn run<'a>(self, start: usize, len: usize) -> &'a mut [C64] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Inserts zero bits into `k` at each of the (ascending) `positions`,
/// producing the state index whose "free" bits are `k` and whose bits at
/// `positions` are 0.
#[inline(always)]
pub fn expand_index(k: usize, positions: &[usize]) -> usize {
    let mut x = k;
    for &p in positions {
        let low = x & ((1usize << p) - 1);
        x = ((x >> p) << (p + 1)) | low;
    }
    x
}

/// OR-mask of a list of bit positions.
#[inline]
pub(crate) fn mask_of(bits: &[usize]) -> usize {
    bits.iter().fold(0usize, |m, &b| m | (1usize << b))
}

/// The set bits of `mask`, ascending.
fn bit_positions(mut mask: usize) -> Vec<usize> {
    let mut positions = Vec::with_capacity(mask.count_ones() as usize);
    while mask != 0 {
        positions.push(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
    positions
}

/// Per-member qubit count of a batch-major buffer, validating the layout.
#[inline]
pub(crate) fn batch_bits(len: usize, batch: usize) -> usize {
    assert!(
        batch > 0 && len.is_multiple_of(batch),
        "buffer not a whole batch"
    );
    let dim = len / batch;
    assert!(dim.is_power_of_two(), "per-member length must be 2^n");
    dim.trailing_zeros() as usize
}

// --- run primitives -------------------------------------------------------
//
// The arithmetic on one contiguous run. Runs of at least a vector go to
// the `simd` slice primitives; shorter ones (a single state with the gate
// on qubit 0 or 1) stay on an inline scalar loop, which costs a fraction
// of the primitives' dispatch (`sim.kernels.h_q0_gbps` in `perf_suite`).

/// `xs[j] ← f · xs[j]`.
#[inline(always)]
fn scale_run(xs: &mut [C64], f: C64) {
    if xs.len() < simd::LANES {
        for z in xs {
            *z *= f;
        }
    } else {
        simd::scale_slice(xs, f);
    }
}

/// `lo[j] ↔ hi[j]`.
#[inline(always)]
fn swap_run(lo: &mut [C64], hi: &mut [C64]) {
    if lo.len() < simd::LANES {
        for (a, b) in lo.iter_mut().zip(hi) {
            std::mem::swap(a, b);
        }
    } else {
        simd::swap_slices(lo, hi);
    }
}

/// `(lo[j], hi[j]) ← m · (lo[j], hi[j])`.
#[inline(always)]
fn butterfly_run(lo: &mut [C64], hi: &mut [C64], m: &Mat2) {
    if lo.len() < simd::LANES {
        simd::butterfly_slices_scalar(lo, hi, m);
    } else {
        simd::butterfly_slices(lo, hi, m);
    }
}

// --- run drivers ----------------------------------------------------------
//
// With the lowest gate-qubit position at `p0`, the bits below `p0` are all
// free and expansion leaves them in place, so the selected index set is a
// union of contiguous runs of `batch << p0` buffer elements. The drivers
// below enumerate the runs (cut to `MAX_RUN`) and hand them out as slices.

/// Calls `body(start, run)` for every run of the index set whose gate
/// qubits are the ascending `positions`: `start` is the buffer offset of
/// the run's first amplitude with all gate bits clear (the gate-bit
/// patterns a kernel selects sit at `start + bits·batch`), `run` its
/// length in buffer elements. Parallel when the buffer is at least
/// `par_threshold` long.
fn for_each_run<F>(len: usize, batch: usize, positions: &[usize], par_threshold: usize, body: F)
where
    F: Fn(usize, usize) + Sync + Send,
{
    let n_bits = batch_bits(len, batch);
    debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
    assert!(
        positions.last().is_some_and(|&p| p < n_bits),
        "gate qubits {positions:?} do not fit a {n_bits}-qubit state"
    );
    let mut run_bits = positions[0].min((MAX_RUN / batch).max(1).ilog2() as usize);
    if batch << run_bits < simd::LANES {
        run_bits = 0; // shorter than a vector: not worth forming
    }
    let outer = 1usize << (n_bits - positions.len() - run_bits);
    let selected = outer * (batch << run_bits);
    let parallel =
        parallel_ok(len, par_threshold) && outer > 1 && selected >= par_threshold / MIN_PAR_SHARE;
    if batch << run_bits == 1 {
        // A lone state (`batch = 1`) with the gate on qubit 0:
        // single-element runs. The literal length lets the inlined run
        // primitives collapse to the bare per-element arithmetic
        // (`sim.kernels.h_q0_gbps`).
        drive(outer, parallel, |o| body(expand_index(o, positions), 1));
    } else {
        drive(outer, parallel, |o| {
            body(
                expand_index(o << run_bits, positions) * batch,
                batch << run_bits,
            )
        });
    }
}

/// `body(o)` for every `o < outer`, through the pool when `parallel`.
#[inline(always)]
fn drive(outer: usize, parallel: bool, body: impl Fn(usize) + Sync + Send) {
    if parallel {
        (0..outer).into_par_iter().for_each(body);
    } else {
        (0..outer).for_each(body);
    }
}

/// Runs `f(lo_run, hi_run)` over the contiguous runs of every amplitude
/// pair of a batch-major buffer whose control bits are all 1: `lo_run`
/// holds the amplitudes with the bits of `lo_mask` set (and those of
/// `hi_mask` clear), `hi_run` the converse. A single-qubit gate on
/// `target` pairs `(0, 1 << target)`; a SWAP of `a`/`b` pairs
/// `(1 << a, 1 << b)`.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::C64;
/// use qcemu_sim::kernels::{for_each_pair_run, PAR_THRESHOLD};
///
/// // An X gate on qubit 0 of |00⟩, written as a raw run swap.
/// let mut state = vec![C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO];
/// for_each_pair_run(&mut state, 1, 0, 1, &[], PAR_THRESHOLD, |lo, hi| {
///     lo.swap_with_slice(hi)
/// });
/// assert_eq!(state[1], C64::ONE);
/// ```
pub fn for_each_pair_run<F>(
    state: &mut [C64],
    batch: usize,
    lo_mask: usize,
    hi_mask: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) where
    F: Fn(&mut [C64], &mut [C64]) + Sync + Send,
{
    let cmask = mask_of(controls);
    assert!(
        lo_mask != hi_mask && (lo_mask | hi_mask) & cmask == 0,
        "pair masks must differ and avoid the controls"
    );
    let positions = bit_positions(lo_mask | hi_mask | cmask);
    let (lo_off, hi_off) = ((cmask | lo_mask) * batch, (cmask | hi_mask) * batch);
    let ptr = StatePtr(state.as_mut_ptr());
    for_each_run(
        state.len(),
        batch,
        &positions,
        par_threshold,
        |start, run| {
            // SAFETY: expansion is injective and leaves every gate bit
            // clear, and a run only varies bits below positions[0] — so
            // the lo/hi runs (which differ in a gate bit) are disjoint
            // from each other and across starts, and all indices are
            // inside the buffer (`for_each_run` checked the positions).
            unsafe { f(ptr.run(start + lo_off, run), ptr.run(start + hi_off, run)) }
        },
    );
}

/// Runs `f(run)` over the contiguous runs of every amplitude whose target
/// bit is 1 and whose control bits are all 1 — the quarter-touch access
/// pattern of the controlled phase shift.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::C64;
/// use qcemu_sim::kernels::{for_each_one_run, PAR_THRESHOLD};
///
/// // A controlled phase on (control 1, target 0) touches only |11⟩.
/// let mut state = vec![C64::ONE; 4];
/// for_each_one_run(&mut state, 1, 0, &[1], PAR_THRESHOLD, |run| {
///     run[0] *= C64::cis(0.5)
/// });
/// assert_eq!(state[0], C64::ONE);
/// assert!(state[3].approx_eq(C64::cis(0.5), 1e-15));
/// ```
pub fn for_each_one_run<F>(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) where
    F: Fn(&mut [C64]) + Sync + Send,
{
    let ones = mask_of(controls) | (1usize << target);
    let positions = bit_positions(ones);
    let off = ones * batch;
    let ptr = StatePtr(state.as_mut_ptr());
    for_each_run(
        state.len(),
        batch,
        &positions,
        par_threshold,
        |start, run| {
            // SAFETY: disjoint in-bounds runs, as in `for_each_pair_run`.
            unsafe { f(ptr.run(start + off, run)) }
        },
    );
}

// --- per-gate kernels -----------------------------------------------------

/// General (controlled) single-qubit unitary: one butterfly per pair run.
pub fn apply_general(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    m: &Mat2,
    par_threshold: usize,
) {
    let m = *m;
    for_each_pair_run(
        state,
        batch,
        0,
        1 << target,
        controls,
        par_threshold,
        move |lo, hi| butterfly_run(lo, hi, &m),
    );
}

/// Diagonal (controlled) gate `diag(d0, d1)`. When `d0 = 1` (phase-type
/// gates: Z, S, T, Rθ…) only the `|1⟩` half of the selected subspace is
/// read and written.
pub fn apply_diagonal(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    d0: C64,
    d1: C64,
    par_threshold: usize,
) {
    if d0 == C64::ONE {
        if d1 == C64::ONE {
            return; // identity
        }
        for_each_one_run(state, batch, target, controls, par_threshold, move |xs| {
            scale_run(xs, d1)
        });
    } else {
        for_each_pair_run(
            state,
            batch,
            0,
            1 << target,
            controls,
            par_threshold,
            move |lo, hi| {
                scale_run(lo, d0);
                scale_run(hi, d1);
            },
        );
    }
}

/// (Controlled) X: swaps pair runs as whole slices (one `memcpy`-class
/// move per run), no arithmetic.
pub fn apply_perm_x(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    par_threshold: usize,
) {
    for_each_pair_run(
        state,
        batch,
        0,
        1 << target,
        controls,
        par_threshold,
        swap_run,
    );
}

/// (Controlled) SWAP of qubits `qa` and `qb`: exchanges amplitudes whose
/// two bits differ, touching half (uncontrolled) of the selected subspace.
pub fn apply_swap(
    state: &mut [C64],
    batch: usize,
    qa: usize,
    qb: usize,
    controls: &[usize],
    par_threshold: usize,
) {
    for_each_pair_run(
        state,
        batch,
        1 << qa,
        1 << qb,
        controls,
        par_threshold,
        swap_run,
    );
}

/// Applies one [`Gate`] to every member of a batch-major buffer,
/// dispatching on structure.
pub fn apply_gate_batch(state: &mut [C64], batch: usize, gate: &Gate, par_threshold: usize) {
    match gate {
        Gate::Unary {
            op,
            target,
            controls,
        } => match op.structure() {
            GateStructure::Diagonal(d0, d1) => {
                apply_diagonal(state, batch, *target, controls, d0, d1, par_threshold)
            }
            GateStructure::PermutationX => {
                apply_perm_x(state, batch, *target, controls, par_threshold)
            }
            GateStructure::General(m) => {
                apply_general(state, batch, *target, controls, &m, par_threshold)
            }
        },
        Gate::Swap { a, b, controls } => apply_swap(state, batch, *a, *b, controls, par_threshold),
    }
}

/// Applies one [`Gate`] to a single raw state slice — [`apply_gate_batch`]
/// at `batch = 1` and the default [`PAR_THRESHOLD`].
pub fn apply_gate_slice(state: &mut [C64], gate: &Gate) {
    apply_gate_batch(state, 1, gate, PAR_THRESHOLD)
}

// --- fused (blocked) kernels --------------------------------------------
//
// A fused block acts on the register formed by k ascending `qubits`. The
// state splits into 2^{n−k} groups of 2^k amplitudes (one group per
// assignment of the free qubits); every kernel below sweeps the groups
// once, so a block of g gates costs one memory pass instead of g.

/// Scatters the bits of local value `v` onto the global bit `positions`:
/// bit `j` of `v` becomes bit `positions[j]` of the result. Unlike
/// [`expand_index`], `positions` need not be ascending — the distributed
/// executor uses this with remapped (arbitrary-order) physical slots.
/// With ascending positions it is the inverse of [`expand_index`]'s bit
/// removal, and the convention by which a fused block's local amplitude
/// index maps into the full state.
/// (Same semantics as `qcemu_fft::scatter_bits`, re-exposed here so the
/// kernel layer's index conventions live next to [`expand_index`].)
#[inline(always)]
pub fn scatter_index(v: usize, positions: &[usize]) -> usize {
    qcemu_fft::scatter_bits(v, positions)
}

/// Validates a fused-kernel qubit list against the state size.
fn check_fused_qubits(n_bits: usize, qubits: &[usize]) {
    assert!(
        !qubits.is_empty() && qubits.len() <= MAX_FUSED_QUBITS,
        "fused block must use 1..={MAX_FUSED_QUBITS} qubits, got {}",
        qubits.len()
    );
    assert!(
        qubits.windows(2).all(|w| w[0] < w[1]),
        "fused qubits must be strictly ascending: {qubits:?}"
    );
    assert!(
        *qubits.last().unwrap() < n_bits,
        "fused block touches qubit {} but state has {n_bits}",
        qubits.last().unwrap()
    );
}

/// Validates a fused block's layout and returns its local dimension `2^k`.
fn fused_dim(len: usize, batch: usize, qubits: &[usize]) -> usize {
    check_fused_qubits(batch_bits(len, batch), qubits);
    1usize << qubits.len()
}

/// Runs `f(ptr, base, scratch)` for every group of a (validated) fused
/// block, `base` being the buffer offset of the group's amplitude with all
/// block bits clear. The sweep is cut into contiguous ranges of groups,
/// each with its own `scratch_len`-element scratch allocated **once**, so
/// the hot loop is allocation-free; the ranges run in parallel when the
/// buffer is at least `par_threshold` long.
fn for_each_group<F>(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    scratch_len: usize,
    par_threshold: usize,
    f: F,
) where
    F: Fn(StatePtr, usize, &mut [C64]) + Sync + Send,
{
    let count = (state.len() / batch) >> qubits.len();
    let tasks = if parallel_ok(state.len(), par_threshold) {
        (GROUP_TASKS_PER_THREAD * rayon::current_num_threads()).min(count)
    } else {
        1
    };
    let chunk = count.div_ceil(tasks);
    let ptr = StatePtr(state.as_mut_ptr());
    // Distinct groups own disjoint buffer ranges: `expand_index` is
    // injective in the group index and `f` only touches runs at
    // `base + off·batch` with `off` confined to the block's qubit bits.
    let body = |t: usize| {
        let mut scratch = vec![C64::ZERO; scratch_len];
        for g in t * chunk..((t + 1) * chunk).min(count) {
            f(ptr, expand_index(g, qubits) * batch, &mut scratch);
        }
    };
    if tasks > 1 {
        (0..tasks).into_par_iter().for_each(body);
    } else {
        body(0);
    }
}

/// Gathers every group of a fused block into the first `2^k·batch`
/// elements of a scratch buffer (`spare` more follow), runs
/// `f(scratch, batch)` on it in cache, and scatters those elements back.
/// Local index `v` of member `j` lands at `v·batch + j` — the gathered
/// group is itself batch-major.
///
/// First the `s` state bits below the block's lowest qubit are **lifted
/// into the batch dimension**: the block never touches them, and in the
/// batch-major layout `batch` members over `n` qubits are the same memory
/// as `batch << s` members over `n − s` qubits, old qubit `q` at `q − s`.
/// `f` receives that lifted batch, so every gathered run is at least
/// `batch << s` contiguous elements and every replayed op works on slices
/// at least that long — the SIMD tier of [`LocalOp::apply`]. `s` is capped
/// at a `LIFT_GROUP`-element group; a block on qubit 0 has `s = 0`. After
/// the lift, the block's low qubits `0..r` (those equal to their own
/// position) address a contiguous prefix of every group, so only the
/// remaining high qubits pay a strided offset.
fn for_each_gathered_group<F>(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    spare: usize,
    par_threshold: usize,
    f: F,
) where
    F: Fn(&mut [C64], usize) + Sync + Send,
{
    let cap = (LIFT_GROUP / (batch << qubits.len())).max(1).ilog2() as usize;
    let s = qubits[0].min(cap);
    let batch = batch << s;
    let mut lifted = [0; MAX_FUSED_QUBITS];
    for (l, &q) in lifted.iter_mut().zip(qubits) {
        *l = q - s;
    }
    let qubits = &lifted[..qubits.len()];
    let run_bits = qubits
        .iter()
        .enumerate()
        .take_while(|&(i, &q)| q == i)
        .count();
    let run = batch << run_bits;
    let offs: Vec<usize> = (0..1usize << (qubits.len() - run_bits))
        .map(|w| scatter_index(w, &qubits[run_bits..]) * batch)
        .collect();
    let scratch_len = offs.len() * run + spare;
    for_each_group(
        state,
        batch,
        qubits,
        scratch_len,
        par_threshold,
        |p, base, scratch| {
            // SAFETY: distinct groups own disjoint buffer ranges (see
            // `for_each_group`), every run `base + off .. + run` stays
            // confined to this group's qubit-bit offsets, and `scratch`
            // holds `offs.len()` runs.
            unsafe {
                for (w, &off) in offs.iter().enumerate() {
                    let src = p.0.add(base + off) as *const C64;
                    std::ptr::copy_nonoverlapping(src, scratch.as_mut_ptr().add(w * run), run);
                }
                f(scratch, batch);
                for (w, &off) in offs.iter().enumerate() {
                    let dst = p.0.add(base + off);
                    std::ptr::copy_nonoverlapping(scratch.as_ptr().add(w * run), dst, run);
                }
            }
        },
    );
}

/// Applies a dense `2^k × 2^k` matrix to the register formed by the `k`
/// ascending `qubits` — every amplitude group gets one gather / product /
/// scatter, so the whole block costs a single blocked pass over the state
/// regardless of how many gates were fused into the matrix. The state bits
/// below `qubits[0]` are lifted into the batch first (up to an L1-sized
/// group), so each gather copies contiguous runs of at least that many
/// lanes. The product `out[r·batch+j] = Σ_c M[r,c]·in[c·batch+j]` is the
/// FLOP-dense loop of the whole fusion engine: lane by lane, each
/// (contiguous) matrix row is reduced against the lane's `2^k` gathered
/// amplitudes through the vectorised [`simd::cdot`].
///
/// Prefer [`crate::fusion`]'s structure-aware dispatch over calling this
/// directly: diagonal and permutation blocks have far cheaper appliers.
///
/// # Panics
///
/// Panics if `qubits` is not strictly ascending, uses more than
/// [`MAX_FUSED_QUBITS`] qubits, indexes past the state, or if the matrix
/// is not `2^k × 2^k`.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::{CMatrix, C64};
/// use qcemu_sim::kernels::{apply_fused, PAR_THRESHOLD};
///
/// // SWAP(0, 1) as a fused 2-qubit block: |01⟩ ↦ |10⟩.
/// let mut state = vec![C64::ZERO; 4];
/// state[0b01] = C64::ONE;
/// let mut swap = CMatrix::zeros(4, 4);
/// for (row, col) in [(0, 0), (2, 1), (1, 2), (3, 3)] {
///     swap[(row, col)] = C64::ONE;
/// }
/// apply_fused(&mut state, 1, &[0, 1], &swap, PAR_THRESHOLD);
/// assert_eq!(state[0b10], C64::ONE);
/// ```
pub fn apply_fused(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    m: &CMatrix,
    par_threshold: usize,
) {
    let dim = fused_dim(state.len(), batch, qubits);
    assert_eq!(
        m.shape(),
        (dim, dim),
        "fused matrix must be 2^k x 2^k for k = {}",
        qubits.len()
    );
    for_each_gathered_group(state, batch, qubits, dim, par_threshold, |buf, lanes| {
        let (x, lane) = buf.split_at_mut(dim * lanes);
        for j in 0..lanes {
            for (c, z) in lane.iter_mut().enumerate() {
                *z = x[c * lanes + j];
            }
            // Lane `j`'s inputs are all in `lane` now, so its outputs can
            // overwrite them in place.
            for r in 0..dim {
                x[r * lanes + j] = simd::cdot(m.row(r), lane);
            }
        }
    });
}

/// Applies a fused **diagonal** block `diag(factors)` over `qubits`: only
/// amplitudes whose local factor differs from 1 are read and written, so a
/// run of g controlled phases fused into one block costs a single partial
/// sweep instead of g quarter-sweeps.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::{c64, C64};
/// use qcemu_sim::kernels::{apply_fused_diagonal, PAR_THRESHOLD};
///
/// // CZ(0, 1) as a fused diagonal block: only |11⟩ changes.
/// let mut state = vec![C64::ONE; 4];
/// let factors = [C64::ONE, C64::ONE, C64::ONE, c64(-1.0, 0.0)];
/// apply_fused_diagonal(&mut state, 1, &[0, 1], &factors, PAR_THRESHOLD);
/// assert_eq!(state[0b11], c64(-1.0, 0.0));
/// assert_eq!(state[0b01], C64::ONE);
/// ```
pub fn apply_fused_diagonal(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    factors: &[C64],
    par_threshold: usize,
) {
    let dim = fused_dim(state.len(), batch, qubits);
    assert_eq!(factors.len(), dim, "diagonal block needs 2^k factors");
    let touched: Vec<(usize, C64)> = factors
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f != C64::ONE)
        .map(|(v, &f)| (scatter_index(v, qubits) * batch, f))
        .collect();
    if touched.is_empty() {
        return; // identity block
    }
    // A lone state gets the literal-`1` instantiation, so its
    // one-amplitude runs collapse to bare multiplies (`sim.fused_s`).
    if batch == 1 {
        for_each_group(state, 1, qubits, 0, par_threshold, |p, base, _| {
            scale_touched(p, base, 1, &touched)
        });
    } else {
        for_each_group(state, batch, qubits, 0, par_threshold, |p, base, _| {
            scale_touched(p, base, batch, &touched)
        });
    }
}

/// Scales one group's non-unit runs: `touched` holds (offset, factor).
#[inline(always)]
fn scale_touched(p: StatePtr, base: usize, batch: usize, touched: &[(usize, C64)]) {
    for &(off, f) in touched {
        // SAFETY: disjoint groups as in `for_each_group`.
        scale_run(unsafe { p.run(base + off, batch) }, f);
    }
}

/// Applies a fused **monomial** (permutation-with-phases) block: column
/// `v` of the block's matrix has its single non-zero `factor[v]` in row
/// `target[v]`. Amplitudes move along the permutation's cycles with one
/// saved run (`batch` amplitudes) per cycle; fixed points with factor 1
/// are never touched, so e.g. a run of CNOTs sharing a control sweeps only
/// the control-on half.
///
/// # Panics
///
/// Panics if `target` is not a permutation of `0..2^k` or the slice
/// lengths disagree with `qubits`.
pub fn apply_fused_permutation(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    target: &[usize],
    factor: &[C64],
    par_threshold: usize,
) {
    let dim = fused_dim(state.len(), batch, qubits);
    assert_eq!(target.len(), dim, "permutation block needs 2^k targets");
    assert_eq!(factor.len(), dim, "permutation block needs 2^k factors");

    // Cycle decomposition over the non-identity support, precomputed once:
    // each cycle stores (buffer offset, factor) per element, in cycle order.
    let mut cycles: Vec<Vec<(usize, C64)>> = Vec::new();
    let mut seen = vec![false; dim];
    for start in 0..dim {
        if seen[start] {
            continue;
        }
        let mut cyc = Vec::new();
        let mut v = start;
        loop {
            seen[v] = true;
            cyc.push(v);
            v = target[v];
            assert!(v < dim, "permutation target {v} out of range");
            if v == start {
                break;
            }
            assert!(!seen[v], "targets do not form a permutation");
        }
        if cyc.len() == 1 && factor[start] == C64::ONE {
            continue; // untouched fixed point
        }
        cycles.push(
            cyc.into_iter()
                .map(|v| (scatter_index(v, qubits) * batch, factor[v]))
                .collect(),
        );
    }
    if cycles.is_empty() {
        return; // identity block
    }

    // Literal-`1` instantiation for a lone state, as in
    // `apply_fused_diagonal`: bare loads and stores along the cycles.
    if batch == 1 {
        for_each_group(state, 1, qubits, 1, par_threshold, |p, base, saved| {
            rotate_cycles(p, base, saved, 1, &cycles)
        });
    } else {
        for_each_group(
            state,
            batch,
            qubits,
            batch,
            par_threshold,
            |p, base, saved| rotate_cycles(p, base, saved, batch, &cycles),
        );
    }
}

/// Moves one group's runs along the `cycles` of a monomial block:
/// `new[target[v]] = factor[v] · old[v]`. Walking a cycle backwards needs
/// only one saved run (`saved`, `batch` long).
#[inline(always)]
fn rotate_cycles(
    p: StatePtr,
    base: usize,
    saved: &mut [C64],
    batch: usize,
    cycles: &[Vec<(usize, C64)>],
) {
    // SAFETY: disjoint groups as in `for_each_group`; within a group the
    // runs of one cycle sit at distinct offsets.
    let run = |off: usize| unsafe { p.run(base + off, batch) };
    // dst ← f · src
    let carry = |dst: &mut [C64], src: &[C64], f: C64| {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f * s;
        }
    };
    for cyc in cycles {
        let last = cyc.len() - 1;
        saved.copy_from_slice(run(cyc[last].0));
        for i in (1..=last).rev() {
            carry(run(cyc[i].0), run(cyc[i - 1].0), cyc[i - 1].1);
        }
        carry(run(cyc[0].0), saved, cyc[last].1);
    }
}

/// A gate precompiled for in-cache application to a gathered block:
/// control masks and matrix entries are resolved once at fusion time so
/// the per-group loops do no trigonometry, dispatch, or allocation.
/// (Kept compact — a blocked segment streams its whole op list once per
/// block, so the variants carry only what their class needs.)
#[derive(Clone, Debug)]
pub(crate) enum LocalOp {
    /// `diag(d0, d1)` on `tbit`, gated on all bits of `cmask`.
    Diag {
        cmask: usize,
        tbit: usize,
        d0: C64,
        d1: C64,
    },
    /// X on `tbit`, gated on `cmask`.
    Flip { cmask: usize, tbit: usize },
    /// Dense 2×2 on `tbit`, gated on `cmask`.
    Rot { cmask: usize, tbit: usize, m: Mat2 },
    /// Swap of `abit`/`bbit`, gated on `cmask`.
    Swap {
        cmask: usize,
        abit: usize,
        bbit: usize,
    },
}

impl LocalOp {
    /// Compiles a (local-index) gate into its block form.
    pub(crate) fn from_gate(gate: &Gate) -> LocalOp {
        match gate {
            Gate::Unary {
                op,
                target,
                controls,
            } => {
                let cmask = mask_of(controls);
                let tbit = 1usize << *target;
                match op.structure() {
                    GateStructure::Diagonal(d0, d1) => LocalOp::Diag {
                        cmask,
                        tbit,
                        d0,
                        d1,
                    },
                    GateStructure::PermutationX => LocalOp::Flip { cmask, tbit },
                    GateStructure::General(m) => LocalOp::Rot { cmask, tbit, m },
                }
            }
            Gate::Swap { a, b, controls } => LocalOp::Swap {
                cmask: mask_of(controls),
                abit: 1usize << *a,
                bbit: 1usize << *b,
            },
        }
    }

    /// Applies the op to a gathered block: `buf` holds `2^k` local
    /// amplitudes for `batch` members, batch-major (local index `v` of
    /// member `j` at `v·batch + j`).
    ///
    /// X, general and SWAP ops are all *pairings*: every local amplitude
    /// `v` with `v & mask == bits` meets its partner `v + delta` in a 2×2
    /// butterfly or — no matrix — an exchange. (X and general gates select
    /// the target-0 side of the control-on subspace; a SWAP, being
    /// symmetric, pairs from its lower bit's side.)
    pub(crate) fn apply(&self, buf: &mut [C64], batch: usize) {
        debug_assert!(batch > 0 && buf.len().is_multiple_of(batch));
        match *self {
            LocalOp::Diag {
                cmask,
                tbit,
                d0,
                d1,
            } => apply_local_diag(buf, batch, cmask, tbit, d0, d1),
            LocalOp::Flip { cmask, tbit } => {
                apply_local_pair(buf, batch, cmask | tbit, cmask, tbit, None)
            }
            LocalOp::Rot { cmask, tbit, ref m } => {
                apply_local_pair(buf, batch, cmask | tbit, cmask, tbit, Some(m))
            }
            LocalOp::Swap { cmask, abit, bbit } => {
                let (lbit, hbit) = (abit.min(bbit), abit.max(bbit));
                let mask = cmask | lbit | hbit;
                apply_local_pair(buf, batch, mask, cmask | lbit, hbit - lbit, None)
            }
        }
    }
}

/// How a [`LocalOp`] walks its block. The index space decomposes into
/// contiguous runs of `2^p` local indices — `batch · 2^p` buffer elements
/// — where `p` is the lowest bit the op's `mask` constrains (controls
/// *and* targets: every mask bit is constant within such a run; a control
/// on a high local bit merely deselects whole runs, it does not break them
/// up). Runs of at least a vector go through the SIMD slice primitives
/// (`Some(step)`: walk aligned runs of `step` local indices); shorter ones
/// (a lone state with the op on local bit 0 or 1, a batch of 2–3 on bit 0)
/// take the scalar per-element walk (`None`), which is instantiated with
/// the literal `batch = 1` for a lone state (`sim.segmented_s`,
/// `sim.fused_s` in `perf_suite`).
#[inline(always)]
fn local_run_step(mask: usize, batch: usize) -> Option<usize> {
    let step = lowest_bit(mask);
    (step * batch >= simd::LANES).then_some(step)
}

/// Steps through a block's buffer elements: element `e` is member `j` of
/// local amplitude `v` (`e = v·batch + j`); each call advances one element
/// and returns the amplitude of the *next* one (the first is 0).
#[inline(always)]
fn local_amplitudes(batch: usize) -> impl FnMut() -> usize {
    let (mut v, mut j) = (0, 0);
    move || {
        j += 1;
        if j == batch {
            (v, j) = (v + 1, 0);
        }
        v
    }
}

/// [`LocalOp::Diag`] on a gathered block.
fn apply_local_diag(buf: &mut [C64], batch: usize, cmask: usize, tbit: usize, d0: C64, d1: C64) {
    #[inline(always)]
    fn elements(buf: &mut [C64], batch: usize, cmask: usize, tbit: usize, d0: C64, d1: C64) {
        let (mut v, mut next) = (0, local_amplitudes(batch));
        for z in buf.iter_mut() {
            if v & cmask == cmask {
                *z *= if v & tbit != 0 { d1 } else { d0 };
            }
            v = next();
        }
    }
    match local_run_step(cmask | tbit, batch) {
        Some(step) => {
            let run = step * batch;
            // Run start as local index `v` and as buffer offset `e`.
            let (mut v, mut e) = (0, 0);
            while e < buf.len() {
                if v & cmask == cmask {
                    let f = if v & tbit != 0 { d1 } else { d0 };
                    if f != C64::ONE {
                        simd::scale_slice(&mut buf[e..e + run], f);
                    }
                }
                (v, e) = (v + step, e + run);
            }
        }
        None if batch == 1 => elements(buf, 1, cmask, tbit, d0, d1),
        None => elements(buf, batch, cmask, tbit, d0, d1),
    }
}

/// The pairing of [`LocalOp::apply`] on a gathered block: butterfly `m`
/// on, or (`None`) exchange of, every `v & mask == bits` with `v + delta`.
fn apply_local_pair(
    buf: &mut [C64],
    batch: usize,
    mask: usize,
    bits: usize,
    delta: usize,
    m: Option<&Mat2>,
) {
    #[inline(always)]
    fn elements(
        buf: &mut [C64],
        batch: usize,
        mask: usize,
        bits: usize,
        delta: usize,
        m: Option<&Mat2>,
    ) {
        let (mut v, mut next) = (0, local_amplitudes(batch));
        let far = delta * batch;
        match m {
            Some(m) => {
                for e in 0..buf.len() {
                    if v & mask == bits {
                        let (x, y) = (buf[e], buf[e + far]);
                        buf[e] = m[0][0] * x + m[0][1] * y;
                        buf[e + far] = m[1][0] * x + m[1][1] * y;
                    }
                    v = next();
                }
            }
            None => {
                for e in 0..buf.len() {
                    if v & mask == bits {
                        buf.swap(e, e + far);
                    }
                    v = next();
                }
            }
        }
    }
    match local_run_step(mask, batch) {
        Some(step) => {
            let run = step * batch;
            let (mut v, mut e) = (0, 0);
            while e < buf.len() {
                if v & mask == bits {
                    let (head, tail) = buf.split_at_mut(e + delta * batch);
                    let (lo, hi) = (&mut head[e..e + run], &mut tail[..run]);
                    match m {
                        Some(m) => simd::butterfly_slices(lo, hi, m),
                        None => simd::swap_slices(lo, hi),
                    }
                }
                (v, e) = (v + step, e + run);
            }
        }
        None if batch == 1 => elements(buf, 1, mask, bits, delta, m),
        None => elements(buf, batch, mask, bits, delta, m),
    }
}

/// The lowest set bit of a (non-zero) mask, as a value.
#[inline(always)]
fn lowest_bit(mask: usize) -> usize {
    mask & mask.wrapping_neg()
}

/// Applies a fused block by gathering each group into a scratch buffer,
/// running the block's precompiled ops on it in cache, and scattering the
/// result back — one memory sweep for the whole gate run, with exactly the
/// same per-amplitude arithmetic as unfused execution. With the state bits
/// below `qubits[0]` lifted into the batch, every op runs on the SIMD
/// slices of [`LocalOp::apply`]; a block on qubit 0 of a lone state keeps
/// the scalar walk.
pub(crate) fn apply_fused_local(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    ops: &[LocalOp],
    par_threshold: usize,
) {
    fused_dim(state.len(), batch, qubits);
    for_each_gathered_group(state, batch, qubits, 0, par_threshold, |buf, lanes| {
        for op in ops {
            op.apply(buf, lanes);
        }
    });
}

/// Number of state-vector entries a gate's kernel writes, as a function of
/// structure — the quantity behind the paper's Eq. 6 memory-traffic model.
/// (A controlled phase on n qubits writes `2^{n−2}` entries: a quarter.)
///
/// This counts **unfused** gate-by-gate application. Fused blocks write a
/// different (usually much smaller total) number of entries; use
/// [`fused_touched_entries`] / `FusedCircuit::touched_entries` so the
/// emulate-vs-simulate crossover heuristics stay honest under fusion.
pub fn touched_entries(n_qubits: usize, gate: &Gate) -> usize {
    match gate {
        Gate::Unary { op, controls, .. } => {
            let free = n_qubits - 1 - controls.len();
            match op.structure() {
                GateStructure::Diagonal(d0, d1) => {
                    if d0 == C64::ONE && d1 == C64::ONE {
                        0
                    } else if d0 == C64::ONE {
                        1usize << free
                    } else {
                        2usize << free
                    }
                }
                _ => 2usize << free,
            }
        }
        Gate::Swap { controls, .. } => 2usize << (n_qubits - 2 - controls.len()),
    }
}

/// Entries one fused-block pass writes: `touched_local` entries in each of
/// the `2^{n−k}` groups. `touched_local` is the size of the block's local
/// write set — `2^k` for a general/dense block, the non-unit factor count
/// for a diagonal block, the moved-cycle support for a permutation block.
/// This is the fused-block extension of [`touched_entries`]: a block of
/// `g` gates pays this **once**, where unfused execution pays the per-gate
/// sum — the memory-traffic gap `docs/PERFORMANCE.md` quantifies.
pub fn fused_touched_entries(n_qubits: usize, block_qubits: usize, touched_local: usize) -> usize {
    assert!(block_qubits <= n_qubits, "block wider than the state");
    debug_assert!(touched_local <= 1usize << block_qubits);
    touched_local << (n_qubits - block_qubits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateOp;
    use crate::{BatchStateVector, StateVector};
    use qcemu_linalg::{c64, max_abs_diff, norm2, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Independent semantic oracle: applies a gate by explicit scatter of
    /// each basis amplitude. O(2^n) per gate, used only for validation.
    fn oracle_apply(state: &[C64], gate: &Gate) -> Vec<C64> {
        let n = state.len();
        let mut out = vec![C64::ZERO; n];
        for (j, &amp) in state.iter().enumerate() {
            match gate {
                Gate::Unary {
                    op,
                    target,
                    controls,
                } => {
                    let ctrl_ok = controls.iter().all(|&c| (j >> c) & 1 == 1);
                    if !ctrl_ok {
                        out[j] += amp;
                        continue;
                    }
                    let m = op.matrix();
                    let b = (j >> target) & 1;
                    let tbit = 1usize << target;
                    out[j & !tbit] += m[0][b] * amp;
                    out[j | tbit] += m[1][b] * amp;
                }
                Gate::Swap { a, b, controls } => {
                    let ctrl_ok = controls.iter().all(|&c| (j >> c) & 1 == 1);
                    if !ctrl_ok {
                        out[j] += amp;
                        continue;
                    }
                    let ba = (j >> a) & 1;
                    let bb = (j >> b) & 1;
                    let mut t = j & !((1usize << a) | (1usize << b));
                    t |= bb << a;
                    t |= ba << b;
                    out[t] += amp;
                }
            }
        }
        out
    }

    /// Checks the kernel against the oracle on every member of a
    /// batch-major buffer, at batch sizes on both sides of the vector
    /// width (`batch · 2^p0 < LANES` is the short-run tier).
    fn check_gate(n_qubits: usize, gate: Gate, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 1usize << n_qubits;
        for batch in [1usize, 2, 3, 8] {
            let members: Vec<StateVector> = (0..batch)
                .map(|_| StateVector::from_amplitudes(random_state(dim, &mut rng)))
                .collect();
            let mut fast = BatchStateVector::from_states(&members);
            apply_gate_batch(fast.amplitudes_mut(), batch, &gate, PAR_THRESHOLD);
            for (j, member) in members.iter().enumerate() {
                let got = fast.member(j).into_amplitudes();
                let slow = oracle_apply(member.amplitudes(), &gate);
                assert!(
                    max_abs_diff(&got, &slow) < 1e-12,
                    "kernel mismatch for {gate:?} on {n_qubits} qubits, member {j} of {batch}: {}",
                    max_abs_diff(&got, &slow)
                );
                assert!((norm2(&got) - 1.0).abs() < 1e-10, "norm broken by {gate:?}");
            }
        }
    }

    #[test]
    fn expand_index_inserts_zero_bits() {
        // positions [1, 3]: k bits fill positions 0, 2, 4, ...
        assert_eq!(expand_index(0b000, &[1, 3]), 0b00000);
        assert_eq!(expand_index(0b001, &[1, 3]), 0b00001);
        assert_eq!(expand_index(0b010, &[1, 3]), 0b00100);
        assert_eq!(expand_index(0b011, &[1, 3]), 0b00101);
        assert_eq!(expand_index(0b100, &[1, 3]), 0b10000);
    }

    #[test]
    fn expand_index_is_injective_and_avoids_positions() {
        let positions = [0usize, 2, 5];
        let mut seen = std::collections::HashSet::new();
        for k in 0..64 {
            let x = expand_index(k, &positions);
            for &p in &positions {
                assert_eq!((x >> p) & 1, 0, "bit {p} must be clear in {x:#b}");
            }
            assert!(seen.insert(x), "duplicate expansion {x}");
        }
    }

    #[test]
    fn single_qubit_gates_match_oracle() {
        for (i, op) in [
            GateOp::X,
            GateOp::Y,
            GateOp::Z,
            GateOp::H,
            GateOp::S,
            GateOp::T,
            GateOp::Rx(0.37),
            GateOp::Ry(-0.9),
            GateOp::Rz(1.1),
            GateOp::Phase(2.2),
        ]
        .into_iter()
        .enumerate()
        {
            for target in [0usize, 2, 4] {
                check_gate(5, Gate::unary(op.clone(), target), 100 + i as u64);
            }
        }
    }

    #[test]
    fn controlled_gates_match_oracle() {
        check_gate(5, Gate::cnot(0, 4), 200);
        check_gate(5, Gate::cnot(4, 0), 201);
        check_gate(5, Gate::cz(2, 3), 202);
        check_gate(5, Gate::cphase(1, 3, 0.77), 203);
        check_gate(5, Gate::controlled(GateOp::H, 3, 1), 204);
        check_gate(5, Gate::controlled(GateOp::Rz(0.5), 0, 2), 205);
    }

    #[test]
    fn multi_controlled_gates_match_oracle() {
        check_gate(6, Gate::toffoli(0, 1, 2), 300);
        check_gate(6, Gate::toffoli(5, 3, 0), 301);
        check_gate(6, Gate::mcx(vec![0, 2, 4], 5), 302);
        check_gate(
            6,
            Gate::Unary {
                op: GateOp::Phase(0.3),
                target: 1,
                controls: vec![0, 3, 5],
            },
            303,
        );
    }

    #[test]
    fn swap_gates_match_oracle() {
        check_gate(5, Gate::swap(0, 4), 400);
        check_gate(5, Gate::swap(2, 1), 401);
        check_gate(
            5,
            Gate::Swap {
                a: 0,
                b: 3,
                controls: vec![2],
            },
            402,
        );
    }

    #[test]
    fn large_state_parallel_path_matches_oracle() {
        // Above PAR_THRESHOLD so the rayon branches execute.
        let n_qubits = 16;
        let mut rng = StdRng::seed_from_u64(500);
        let input = random_state(1 << n_qubits, &mut rng);
        for gate in [
            Gate::h(15),
            Gate::h(0),
            Gate::cphase(3, 14, 0.9),
            Gate::cnot(15, 1),
            Gate::swap(0, 15),
            Gate::rz(7, 0.123),
        ] {
            let mut fast = input.clone();
            apply_gate_slice(&mut fast, &gate);
            let slow = oracle_apply(&input, &gate);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-12,
                "parallel kernel mismatch for {gate:?}"
            );
        }
    }

    #[test]
    fn double_x_is_identity() {
        let mut rng = StdRng::seed_from_u64(501);
        let input = random_state(64, &mut rng);
        let mut s = input.clone();
        apply_perm_x(&mut s, 1, 3, &[], PAR_THRESHOLD);
        apply_perm_x(&mut s, 1, 3, &[], PAR_THRESHOLD);
        assert!(max_abs_diff(&s, &input) < 1e-15);
    }

    #[test]
    fn phase_kernel_touches_only_one_half() {
        // Phase gate on |0⟩-basis state must be a no-op.
        let mut s = vec![C64::ZERO; 8];
        s[0] = C64::ONE; // |000⟩
        apply_diagonal(&mut s, 1, 1, &[], C64::ONE, C64::cis(0.4), PAR_THRESHOLD);
        assert!(s[0].approx_eq(C64::ONE, 1e-15));
        // On |010⟩ it must apply the phase.
        let mut s = vec![C64::ZERO; 8];
        s[2] = C64::ONE;
        apply_diagonal(&mut s, 1, 1, &[], C64::ONE, C64::cis(0.4), PAR_THRESHOLD);
        assert!(s[2].approx_eq(C64::cis(0.4), 1e-15));
    }

    #[test]
    fn identity_diagonal_is_noop() {
        let mut rng = StdRng::seed_from_u64(502);
        let input = random_state(32, &mut rng);
        let mut s = input.clone();
        apply_diagonal(&mut s, 1, 2, &[], C64::ONE, C64::ONE, PAR_THRESHOLD);
        assert_eq!(
            max_abs_diff(&s, &input),
            0.0,
            "identity must not even perturb rounding"
        );
    }

    #[test]
    fn touched_entries_model() {
        let n = 10;
        let full = 1usize << n;
        // Hadamard: everything.
        assert_eq!(touched_entries(n, &Gate::h(0)), full);
        // Plain phase: half.
        assert_eq!(touched_entries(n, &Gate::phase(0, 0.1)), full / 2);
        // Controlled phase: a quarter (paper §3.2).
        assert_eq!(touched_entries(n, &Gate::cphase(0, 1, 0.1)), full / 4);
        // CNOT: half (pairs restricted by one control).
        assert_eq!(touched_entries(n, &Gate::cnot(0, 1)), full / 2);
        // Rz: both halves (d0 ≠ 1).
        assert_eq!(touched_entries(n, &Gate::rz(0, 0.1)), full);
        // Toffoli: a quarter.
        assert_eq!(touched_entries(n, &Gate::toffoli(0, 1, 2)), full / 4);
        // SWAP: half.
        assert_eq!(touched_entries(n, &Gate::swap(0, 1)), full / 2);
    }

    #[test]
    fn scatter_index_places_bits_on_positions() {
        let qubits = [1usize, 3, 4];
        let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
        for v in 0..8 {
            let x = scatter_index(v, &qubits);
            for (j, &q) in qubits.iter().enumerate() {
                assert_eq!((x >> q) & 1, (v >> j) & 1, "v={v}, q={q}");
            }
            // scatter hits only the listed positions…
            assert_eq!(x & !mask, 0);
            // …which are exactly the positions expand_index leaves clear.
            assert_eq!(expand_index(v, &qubits) & mask, 0);
        }
    }

    #[test]
    fn apply_fused_matches_gate_application() {
        // Fuse H(1)·CNOT(1→3)·T(3) into one dense block on qubits {1, 3}
        // by building the 4×4 matrix column by column with the gate
        // kernels themselves, then compare against gate-by-gate.
        let gates = [
            Gate::h(1),
            Gate::cnot(1, 3),
            Gate::t(3),
            Gate::swap(1, 3),
            Gate::cphase(3, 1, 0.37),
        ];
        let local: Vec<Gate> = [
            Gate::h(0),
            Gate::cnot(0, 1),
            Gate::t(1),
            Gate::swap(0, 1),
            Gate::cphase(1, 0, 0.37),
        ]
        .to_vec();
        let mut m = CMatrix::zeros(4, 4);
        for v in 0..4 {
            let mut col = vec![C64::ZERO; 4];
            col[v] = C64::ONE;
            for g in &local {
                apply_gate_slice(&mut col, g);
            }
            for r in 0..4 {
                m[(r, v)] = col[r];
            }
        }

        let mut rng = StdRng::seed_from_u64(600);
        let input = random_state(1 << 5, &mut rng);
        let mut fused = input.clone();
        apply_fused(&mut fused, 1, &[1, 3], &m, PAR_THRESHOLD);
        let mut plain = input;
        for g in &gates {
            apply_gate_slice(&mut plain, g);
        }
        assert!(max_abs_diff(&fused, &plain) < 1e-12);
    }

    #[test]
    fn apply_fused_diagonal_matches_gates_and_skips_identity() {
        // diag factors of CZ(0,1)·T(0) on qubits {0, 1}.
        let t = C64::cis(std::f64::consts::FRAC_PI_4);
        let factors = [C64::ONE, t, C64::ONE, t * c64(-1.0, 0.0)];
        let mut rng = StdRng::seed_from_u64(601);
        let input = random_state(1 << 4, &mut rng);
        let mut fused = input.clone();
        apply_fused_diagonal(&mut fused, 1, &[0, 1], &factors, PAR_THRESHOLD);
        let mut plain = input;
        apply_gate_slice(&mut plain, &Gate::cz(0, 1));
        apply_gate_slice(&mut plain, &Gate::t(0));
        assert!(max_abs_diff(&fused, &plain) < 1e-14);

        // All-identity factors must leave the state bitwise untouched.
        let before = fused.clone();
        apply_fused_diagonal(&mut fused, 1, &[0, 1], &[C64::ONE; 4], PAR_THRESHOLD);
        assert_eq!(max_abs_diff(&fused, &before), 0.0);

        // Accounting: 2 of the 4 local entries (|01⟩, |11⟩) are non-unit,
        // so the block writes half of a 4-qubit state.
        assert_eq!(fused_touched_entries(4, 2, 2), 8);
    }

    #[test]
    fn apply_fused_permutation_matches_gates() {
        // CNOT(0→1) then CNOT(0→2) as one monomial block on {0, 1, 2}:
        // target[v] flips bits 1 and 2 when bit 0 is set.
        let mut target = [0usize; 8];
        for (v, slot) in target.iter_mut().enumerate() {
            *slot = if v & 1 != 0 { v ^ 0b110 } else { v };
        }
        let factor = [C64::ONE; 8];
        let mut rng = StdRng::seed_from_u64(602);
        let input = random_state(1 << 4, &mut rng);
        let mut fused = input.clone();
        apply_fused_permutation(&mut fused, 1, &[0, 1, 2], &target, &factor, PAR_THRESHOLD);
        let mut plain = input;
        apply_gate_slice(&mut plain, &Gate::cnot(0, 1));
        apply_gate_slice(&mut plain, &Gate::cnot(0, 2));
        assert_eq!(max_abs_diff(&fused, &plain), 0.0, "pure data movement");
    }

    #[test]
    fn apply_fused_permutation_with_phases() {
        // X(0)·S(0) on qubit {0}: |0⟩ → i|1⟩? Track: X then S gives
        // column 0 → e_1 with factor i, column 1 → e_0 with factor 1.
        let target = [1usize, 0];
        let factor = [C64::I, C64::ONE];
        let mut rng = StdRng::seed_from_u64(603);
        let input = random_state(8, &mut rng);
        let mut fused = input.clone();
        apply_fused_permutation(&mut fused, 1, &[0], &target, &factor, PAR_THRESHOLD);
        let mut plain = input;
        apply_gate_slice(&mut plain, &Gate::x(0));
        apply_gate_slice(&mut plain, &Gate::s(0));
        assert!(max_abs_diff(&fused, &plain) < 1e-15);
    }

    #[test]
    fn local_ops_reproduce_each_gate_kernel() {
        let mut rng = StdRng::seed_from_u64(604);
        let gates = [
            Gate::h(1),
            Gate::x(2),
            Gate::rz(0, 0.7),
            Gate::cphase(0, 2, -0.4),
            Gate::cnot(2, 0),
            Gate::swap(0, 1),
            Gate::toffoli(0, 1, 2),
            Gate::Swap {
                a: 1,
                b: 2,
                controls: vec![0],
            },
        ];
        for gate in gates {
            let input = random_state(8, &mut rng);
            let mut via_local = input.clone();
            LocalOp::from_gate(&gate).apply(&mut via_local, 1);
            let mut via_kernel = input;
            apply_gate_slice(&mut via_kernel, &gate);
            assert!(
                max_abs_diff(&via_local, &via_kernel) < 1e-15,
                "LocalOp mismatch for {gate:?}"
            );
        }
    }

    #[test]
    fn fused_kernels_parallel_path_matches_serial() {
        // Above PAR_THRESHOLD so the rayon branch of for_each_group runs.
        let n_qubits = 16;
        let mut rng = StdRng::seed_from_u64(605);
        let input = random_state(1 << n_qubits, &mut rng);
        let local = [Gate::h(0), Gate::cnot(0, 1), Gate::rz(1, 0.3)];
        let mut m = CMatrix::zeros(4, 4);
        for v in 0..4 {
            let mut col = vec![C64::ZERO; 4];
            col[v] = C64::ONE;
            for g in &local {
                apply_gate_slice(&mut col, g);
            }
            for r in 0..4 {
                m[(r, v)] = col[r];
            }
        }
        let mut fused = input.clone();
        apply_fused(&mut fused, 1, &[3, 14], &m, PAR_THRESHOLD);
        let mut plain = input;
        let remapped = [Gate::h(3), Gate::cnot(3, 14), Gate::rz(14, 0.3)];
        for g in &remapped {
            apply_gate_slice(&mut plain, g);
        }
        assert!(max_abs_diff(&fused, &plain) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn fused_qubits_must_be_sorted() {
        let mut state = vec![C64::ZERO; 8];
        apply_fused_diagonal(&mut state, 1, &[2, 0], &[C64::I; 4], PAR_THRESHOLD);
    }

    #[test]
    fn touched_entries_matches_instrumented_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 8;
        let mut state = vec![c64(1.0, 0.0); 1 << n]; // unnormalised, fine
        let counter = AtomicUsize::new(0);
        // Controlled phase via the one-run driver.
        for_each_one_run(&mut state, 1, 3, &[5], PAR_THRESHOLD, |run| {
            counter.fetch_add(run.len(), Ordering::Relaxed);
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            touched_entries(n, &Gate::cphase(5, 3, 0.1))
        );
        // General pair kernel writes both runs of every pair.
        let counter = AtomicUsize::new(0);
        for_each_pair_run(
            &mut state,
            1,
            0,
            1 << 2,
            &[0, 6],
            PAR_THRESHOLD,
            |lo, hi| {
                counter.fetch_add(lo.len() + hi.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(
            counter.load(Ordering::Relaxed),
            touched_entries(n, &Gate::toffoli(0, 6, 2))
        );
    }

    #[test]
    fn par_threshold_counts_the_buffer_not_the_selected_pairs() {
        // A CNOT selects a quarter of the amplitudes as pairs, yet the
        // threshold is compared against the whole buffer: a 2^7 state is
        // above a threshold of 2^6 although only 2^5 pairs move.
        if rayon::pool::default_threads() < 2 {
            return; // no pool to observe on a serial host / QCEMU_THREADS=1
        }
        let (n_qubits, threshold, reps) = (7, 1 << 6, 64);
        let mut rng = StdRng::seed_from_u64(503);
        let input = random_state(1 << n_qubits, &mut rng);
        let gate = Gate::cnot(6, 2);
        let run = |state: &mut [C64], par_threshold| {
            for _ in 0..reps {
                apply_gate_batch(state, 1, &gate, par_threshold);
            }
        };
        let mut serial = input.clone();
        run(&mut serial, usize::MAX);
        let before = rayon::pool::stats().tasks_dispatched;
        let mut parallel = input;
        run(&mut parallel, threshold);
        let dispatched = rayon::pool::stats().tasks_dispatched - before;
        assert!(
            dispatched >= reps as u64,
            "{dispatched} pool dispatches for {reps} above-threshold gates"
        );
        assert_eq!(max_abs_diff(&serial, &parallel), 0.0);
    }
}
