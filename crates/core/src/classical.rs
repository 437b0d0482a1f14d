//! Direct emulation of classical functions on the state vector (§3.1).
//!
//! A classical map over registers is, at the amplitude level, a permutation
//! of basis-state labels within each coset of the untouched qubits: the
//! emulator "can simply perform the described mapping directly" instead of
//! running the Toffoli network. The permutation table over the involved
//! registers' joint space is built once per member from its own closure,
//! inverted and validated in one sweep, and applied in place: each coset
//! is copied into a small per-task buffer and gathered back through the
//! inverse table, for every member of a batch-major ensemble in the same
//! parallel pass.

use crate::error::EmuError;
use crate::program::{
    ClassicalMap, MapKind, PhaseOracle, ProgramRegister, QuantumProgram, RotationOp,
};
use qcemu_linalg::{simd, C64};
use qcemu_sim::{BatchStateVector, StateVector};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Above this many involved bits the permutation table (2^k entries) is
/// considered too large to materialise; the map is then applied on the fly.
pub(crate) const TABLE_MAX_BITS: usize = 24;

/// Basis indices one task of a state pass covers.
const TASK_INDICES: usize = 1 << 12;

/// Amplitudes below this many (all members together) are passed over on
/// the calling thread: a pool dispatch costs more than the pass.
const PAR_MIN_AMPS: usize = 1 << 15;

/// Weight above which an amplitude counts as support (zero-target maps).
const SUPPORT_TOL: f64 = 1e-12;

/// An inverse-table entry with no preimage (a zero-target map's labels
/// outside the image of its zero-target rows).
const NO_SOURCE: u32 = u32::MAX;

/// Applies a classical map to the state (the §3.1 emulation shortcut):
/// the one-member case of the batch-major pass the plan interpreter runs
/// on a whole ensemble. A failed map leaves the state partly mapped.
pub fn apply_classical_map(
    state: &mut StateVector,
    program: &QuantumProgram,
    map: &ClassicalMap,
) -> Result<(), EmuError> {
    if let Some(mapped) = map_lanes(state.amplitudes_mut(), 1, program, &[map])? {
        *state.amplitudes_mut() = mapped;
    }
    Ok(())
}

/// Applies member `j`'s classical map `maps[j]` to member `j` of a
/// batch-major ensemble in one pass over the whole buffer. A failed map
/// leaves the ensemble partly mapped.
///
/// # Panics
///
/// Panics if `maps.len() != state.batch()`.
pub(crate) fn apply_classical_map_batch(
    state: &mut BatchStateVector,
    program: &QuantumProgram,
    maps: &[&ClassicalMap],
) -> Result<(), EmuError> {
    let batch = state.batch();
    assert_eq!(maps.len(), batch, "one ClassicalMap per batch member");
    if let Some(mapped) = map_lanes(state.amplitudes_mut(), batch, program, maps)? {
        *state = BatchStateVector::from_amplitudes(mapped, batch);
    }
    Ok(())
}

/// Applies `maps[j]` to lane `j` of the batch-major `amps`: in place when
/// the permutation is tabulated (`None`), into a new buffer on the wide
/// on-the-fly path (`Some`).
///
/// Each member's permutation table comes from its own closure (members
/// whose tables agree share one, and then move whole `batch`-long runs);
/// it is inverted, checked for injectivity and cut into [`Chains`] in
/// one serial sweep. The map permutes labels within each coset of the
/// untouched qubits, and every coset lies inside one aligned block of
/// `2^h` indices (`h` one above the highest register bit), so the pass
/// hands whole blocks to the pool as disjoint chunks (a map over the
/// state's top qubits is one block, so one task). Each task skips its
/// empty cosets and walks the chains through the others, moving every
/// non-fixed unit once and allocating at most one unit; a zero-target
/// map's support is checked before the chains overwrite it. Errors are
/// those of the lowest member whose solo run fails, and that member's
/// solo error.
fn map_lanes(
    amps: &mut [C64],
    batch: usize,
    program: &QuantumProgram,
    maps: &[&ClassicalMap],
) -> Result<Option<Vec<C64>>, EmuError> {
    let map = maps[0];
    let regs: Vec<&ProgramRegister> = map.regs.iter().map(|&r| program.register(r)).collect();
    let k: usize = regs.iter().map(|r| r.len).sum();
    // Labels at or above `rows` have a non-zero target register.
    let (rows, targets) = match map.kind {
        MapKind::ZeroInitializedTargets { n_targets } => {
            let input_bits: usize = regs[..regs.len() - n_targets].iter().map(|r| r.len).sum();
            (1usize << input_bits, &regs[regs.len() - n_targets..])
        }
        MapKind::InPlaceBijection => (1usize << k, &regs[..0]),
    };
    let reg_mask = regs
        .iter()
        .flat_map(|r| r.bits())
        .fold(0usize, |m, q| m | (1usize << q));
    // The indices below the lowest register bit, in every lane, move
    // together: a unit of `2^lo·B` contiguous elements. Unit offsets are
    // kept as `u32`; a tuple spanning more units goes on the fly too.
    let lo = reg_mask.trailing_zeros();
    if k > TABLE_MAX_BITS || reg_mask >> lo > u32::MAX as usize {
        let mut out = Vec::new();
        map_on_the_fly(amps, &mut out, batch, &regs, maps, rows, targets)?;
        return Ok(Some(out));
    }

    let tables: Vec<Vec<u32>> = maps
        .iter()
        .map(|m| build_permutation_table(&regs, m, rows))
        .collect();
    let lanes = if tables.iter().all(|t| *t == tables[0]) {
        1
    } else {
        batch
    };
    let list: Vec<(usize, usize)> = regs.iter().map(|r| (r.offset, r.len)).collect();
    let offset = SplitLookup::new(k as u32, |v| unpack_by_list(&list, v as u64) >> lo);
    let (chains, invalid): (Vec<Chains>, Vec<Option<EmuError>>) = tables[..lanes]
        .iter()
        .zip(maps)
        .map(|(t, m)| Chains::of_table(t, k, |v| offset.get(v) as u32, &m.name))
        .unzip();
    drop(tables);
    let table_error = |j: usize| invalid[if lanes == 1 { 0 } else { j }].clone();
    if targets.is_empty() {
        if let Some(e) = (0..batch).find_map(table_error) {
            return Err(e);
        }
    }

    let block = (reg_mask + 1).next_power_of_two();
    let violation: Vec<AtomicUsize> = (0..batch).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let cx = CosetPass {
        batch,
        unit: batch << lo,
        reg_units: reg_mask >> lo,
        labels: 1 << k,
        rows,
        offset: &offset,
        chains: &chains,
        violation: &violation,
    };
    let pass = |base: usize, chunk: &mut [C64]| match (lanes, cx.unit) {
        (1, 1) => cx.shared::<1>(base, chunk),
        (1, 2) => cx.shared::<2>(base, chunk),
        (1, 3) => cx.shared::<3>(base, chunk),
        (1, 4) => cx.shared::<4>(base, chunk),
        _ => cx.general(base, chunk),
    };
    let task = block.max(TASK_INDICES) * batch;
    if amps.len() >= PAR_MIN_AMPS && amps.len() > task {
        amps.par_chunks_mut(task)
            .enumerate()
            .for_each(|(t, chunk)| pass(t * task / batch, chunk));
    } else {
        for (t, chunk) in amps.chunks_mut(task).enumerate() {
            pass(t * task / batch, chunk);
        }
    }

    for (j, v) in violation.iter().enumerate() {
        let i = v.load(Ordering::Relaxed);
        if i != usize::MAX {
            return Err(target_not_zero(targets, i, &maps[j].name));
        }
        if let Some(e) = table_error(j) {
            return Err(e);
        }
    }
    Ok(None)
}

/// The error a zero-target map reports for support at basis index `i`:
/// the first target register that reads non-zero there.
fn target_not_zero(targets: &[&ProgramRegister], i: usize, op: &str) -> EmuError {
    let t = targets
        .iter()
        .find(|t| t.value_of(i) != 0)
        .expect("index has a non-zero target");
    EmuError::TargetNotZero {
        op: op.to_string(),
        register: t.name.clone(),
    }
}

/// A permutation of `2^k` labels as chains of moves, run in place:
/// chain `v_0, v_1, …` has `v_{i+1} = π⁻¹(v_i)`, so label `v_i` takes
/// label `v_{i+1}`'s amplitudes in chain order. A closed chain (a cycle)
/// gives its last label `v_0`'s old amplitudes; an open one (a
/// zero-target map's path, from a label no amplitude moves onto to one
/// no row maps to) zeroes it. Fixed labels are in no chain.
struct Chains {
    /// Every chain's labels, chain after chain, each as its unit offset
    /// within a coset.
    order: Vec<u32>,
    /// Each chain's end in `order` and whether it closes.
    ends: Vec<(usize, bool)>,
}

impl Chains {
    /// The chains of the map whose image of label `v < table.len()` is
    /// `table[v]`, with label `v` placed at unit offset `place(v)`, built
    /// in one serial sweep that also checks injectivity: the first image
    /// label met twice, in label order, is the `NotReversible` collision
    /// (the chains then cover the map of the labels before it).
    fn of_table(
        table: &[u32],
        k: usize,
        place: impl Fn(usize) -> u32,
        op: &str,
    ) -> (Chains, Option<EmuError>) {
        let mut inverse = vec![NO_SOURCE; 1 << k];
        let mut error = None;
        // Labels below `sources` are some label's source.
        let mut sources = table.len();
        for (v, &image) in table.iter().enumerate() {
            let slot = &mut inverse[image as usize];
            if *slot != NO_SOURCE {
                error = Some(EmuError::NotReversible {
                    op: op.to_string(),
                    collision: image as u64,
                });
                sources = v;
                break;
            }
            *slot = v as u32;
        }
        let mut placed = vec![false; 1 << k];
        let mut chains = Chains {
            order: Vec::with_capacity(1 << k),
            ends: Vec::new(),
        };
        let mut follow = |placed: &mut [bool], v0: usize, closed: bool| {
            let mut v = v0 as u32;
            loop {
                chains.order.push(place(v as usize));
                placed[v as usize] = true;
                v = inverse[v as usize];
                if v == NO_SOURCE || v == v0 as u32 {
                    break;
                }
            }
            chains.ends.push((chains.order.len(), closed));
        };
        // Open chains start at the labels no amplitude is taken from;
        // every label left after them lies on a cycle.
        for v0 in sources..1 << k {
            follow(&mut placed, v0, false);
        }
        for v0 in 0..sources {
            if !placed[v0] && inverse[v0] != v0 as u32 {
                follow(&mut placed, v0, true);
            }
        }
        (chains, error)
    }

    /// Each chain's unit offsets and whether it closes.
    fn iter(&self) -> impl Iterator<Item = (&[u32], bool)> {
        let mut start = 0;
        self.ends.iter().map(move |&(end, closed)| {
            let chain = &self.order[start..end];
            start = end;
            (chain, closed)
        })
    }
}

/// What one task of a map pass reads: the coset layout in units of
/// `unit = 2^lo·B` contiguous elements (`offset`, each label's unit
/// offset within its coset, and `reg_units`, the register bits above
/// `lo`), each lane's chains (one for all lanes when the members share a
/// table) and the support records.
struct CosetPass<'a> {
    batch: usize,
    unit: usize,
    reg_units: usize,
    labels: usize,
    rows: usize,
    offset: &'a SplitLookup,
    chains: &'a [Chains],
    violation: &'a [AtomicUsize],
}

impl CosetPass<'_> {
    /// The elements of label `v`'s unit in the coset at unit offset `c`.
    fn unit_of(&self, c: usize, v: usize) -> std::ops::Range<usize> {
        let u = c + self.offset.get(v);
        u * self.unit..(u + 1) * self.unit
    }

    /// Whether the coset at unit offset `c` holds no amplitude (an empty
    /// coset maps to itself; sparse states have many). Its units, `c`
    /// plus every subset of `reg_units`, are read in memory order as runs
    /// over the low contiguous register bits.
    fn is_empty(&self, c: usize, chunk: &[C64]) -> bool {
        let run = 1usize << self.reg_units.trailing_ones();
        let high = self.reg_units & !(run - 1);
        std::iter::successors(Some(0), |&m| {
            Some((m | !high).wrapping_add(1) & high).filter(|&m| m != 0)
        })
        .all(|m| all_zero(&chunk[(c + m) * self.unit..(c + m + run) * self.unit]))
    }

    /// Records support at the labels at or above `rows` of the coset at
    /// unit offset `c` (a zero-target map's non-zero targets) of a chunk
    /// whose first basis index is `base`, before the chains overwrite
    /// them.
    fn check_support(&self, base: usize, c: usize, chunk: &[C64]) {
        for v in self.rows..self.labels {
            let range = self.unit_of(c, v);
            let first = range.start / self.batch;
            for (p, a) in chunk[range].iter().enumerate() {
                if a.norm_sqr() > SUPPORT_TOL {
                    let i = base + first + p / self.batch;
                    self.violation[p % self.batch].fetch_min(i, Ordering::Relaxed);
                }
            }
        }
    }

    /// The chunk's cosets under one shared table, with `W`-element units:
    /// each unit moves as one value.
    fn shared<const W: usize>(&self, base: usize, chunk: &mut [C64]) {
        for c in coset_offsets(self.reg_units, chunk.len() / W) {
            if self.is_empty(c, chunk) {
                continue;
            }
            self.check_support(base, c, chunk);
            let units = chunk.as_chunks_mut::<W>().0;
            let at = |o: u32| c + o as usize;
            for (chain, closed) in self.chains[0].iter() {
                let mut dst = at(chain[0]);
                let first = units[dst];
                for &o in &chain[1..] {
                    let src = at(o);
                    units[dst] = units[src];
                    dst = src;
                }
                units[dst] = if closed { first } else { [C64::ZERO; W] };
            }
        }
    }

    /// The chunk's cosets at any unit width: a shared table moves whole
    /// units, and under per-member tables lane `j` of a unit (its
    /// elements `p ≡ j mod B`) follows lane `j`'s chains.
    fn general(&self, base: usize, chunk: &mut [C64]) {
        let w = self.unit;
        let (step, len) = match self.chains.len() {
            1 => (1, w),
            _ => (self.batch, w / self.batch),
        };
        let mut first = vec![C64::ZERO; len];
        for c in coset_offsets(self.reg_units, chunk.len() / w) {
            if self.is_empty(c, chunk) {
                continue;
            }
            self.check_support(base, c, chunk);
            for (j, chains) in self.chains.iter().enumerate() {
                let at = |o: u32| (c + o as usize) * w + j;
                for (chain, closed) in chains.iter() {
                    let mut dst = at(chain[0]);
                    for (t, z) in first.iter_mut().enumerate() {
                        *z = if closed {
                            chunk[dst + t * step]
                        } else {
                            C64::ZERO
                        };
                    }
                    for &o in &chain[1..] {
                        let src = at(o);
                        if step == 1 {
                            chunk.copy_within(src..src + len, dst);
                        } else {
                            for t in 0..len {
                                chunk[dst + t * step] = chunk[src + t * step];
                            }
                        }
                        dst = src;
                    }
                    for (t, &z) in first.iter().enumerate() {
                        chunk[dst + t * step] = z;
                    }
                }
            }
        }
    }
}

/// Whether every amplitude of `amps` is zero (of either sign), read in
/// blocks without an early exit inside a block.
fn all_zero(amps: &[C64]) -> bool {
    amps.chunks(16).all(|block| {
        block
            .iter()
            .fold(0u64, |bits, a| bits | a.re.to_bits() | a.im.to_bits())
            << 1
            == 0
    })
}

/// The offsets of the cosets of `reg_mask`'s bits among the first
/// `indices` basis indices: every index with no bit of `reg_mask` set, in
/// increasing order.
fn coset_offsets(reg_mask: usize, indices: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(0), move |&c| Some(((c | reg_mask) + 1) & !reg_mask))
        .take_while(move |&c| c < indices)
}

/// A bit selection (a register tuple's packed label of a basis index, or
/// the index bits of a label) over arguments of `bits` bits, as the OR of
/// two lookups over the low and high halves of its argument's bits.
struct SplitLookup {
    split: u32,
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl SplitLookup {
    fn new(bits: u32, select: impl Fn(usize) -> usize) -> SplitLookup {
        let split = bits / 2;
        SplitLookup {
            split,
            lo: (0..1usize << split).map(&select).collect(),
            hi: (0..1usize << (bits - split))
                .map(|x| select(x << split))
                .collect(),
        }
    }

    #[inline]
    fn get(&self, x: usize) -> usize {
        self.lo[x & ((1usize << self.split) - 1)] | self.hi[x >> self.split]
    }
}

/// Applies a classical-predicate phase oracle (one conditional scan over
/// the amplitudes, §3.1 applied to diagonal operators): the one-member
/// case of the batch-major pass the plan interpreter runs on a whole
/// ensemble.
pub fn apply_phase_oracle(state: &mut StateVector, program: &QuantumProgram, oracle: &PhaseOracle) {
    phase_lanes(state.amplitudes_mut(), 1, program, &[oracle]);
}

/// Applies member `j`'s oracle `oracles[j]` to member `j` of a
/// batch-major ensemble in one masked pass.
///
/// # Panics
///
/// Panics if `oracles.len() != state.batch()`.
pub(crate) fn apply_phase_oracle_batch(
    state: &mut BatchStateVector,
    program: &QuantumProgram,
    oracles: &[&PhaseOracle],
) {
    let batch = state.batch();
    assert_eq!(oracles.len(), batch, "one PhaseOracle per batch member");
    phase_lanes(state.amplitudes_mut(), batch, program, oracles);
}

/// The oracle pass: each member's predicate is evaluated once per
/// register value into a mask table (`mask[v·B + j]`, `B·2^k` flags, at
/// most 1/16 of the ensemble's bytes since `k ≤ n`), so the pass over the
/// amplitudes is lookups and multiplies.
fn phase_lanes(amps: &mut [C64], batch: usize, program: &QuantumProgram, oracles: &[&PhaseOracle]) {
    let regs: Vec<&ProgramRegister> = oracles[0]
        .regs
        .iter()
        .map(|&r| program.register(r))
        .collect();
    let list: Vec<(usize, usize)> = regs.iter().map(|r| (r.offset, r.len)).collect();
    let k: usize = regs.iter().map(|r| r.len).sum();
    let factors: Vec<C64> = oracles.iter().map(|o| C64::cis(o.phase)).collect();
    let mut mask = vec![false; batch << k];
    let mut values = Vec::with_capacity(regs.len());
    for v in 0..1usize << k {
        values.clear();
        let mut shift = 0;
        for r in &regs {
            values.push((v as u64 >> shift) & r.mask());
            shift += r.len;
        }
        for (j, o) in oracles.iter().enumerate() {
            mask[v * batch + j] = (o.predicate)(&values);
        }
    }
    let n = (amps.len() / batch).trailing_zeros();
    let label = SplitLookup::new(n, |i| pack_by_list(&list, i) as usize);
    let pass = |(task, chunk): (usize, &mut [C64])| {
        let i0 = task * TASK_INDICES;
        for (d, run) in chunk.chunks_exact_mut(batch).enumerate() {
            if run.iter().all(|&z| z == C64::ZERO) {
                continue;
            }
            let v = label.get(i0 + d);
            for ((z, &hit), &f) in run.iter_mut().zip(&mask[v * batch..]).zip(&factors) {
                if hit {
                    *z *= f;
                }
            }
        }
    };
    if amps.len() >= PAR_MIN_AMPS {
        amps.par_chunks_mut(TASK_INDICES * batch)
            .enumerate()
            .for_each(pass);
    } else {
        amps.chunks_mut(TASK_INDICES * batch)
            .enumerate()
            .for_each(pass);
    }
}

/// Above this register width the per-value sin/cos table is not built
/// (2^bits entries per member; 20 bits = 32 MiB of coefficients each).
pub(crate) const ROTATION_TABLE_MAX_BITS: usize = 20;

/// Applies a register-controlled Ry rotation to every member of an
/// ensemble (a lone state is the one-member ensemble): for every
/// amplitude pair differing in the target bit, a 2×2 rotation by the
/// classically computed angle θ(x). One sweep over the pair indices, like
/// every other emulation shortcut, advances **all members** in the
/// batch-major layout, with no per-member de-interleave/re-interleave
/// copies.
///
/// `program` supplies the register layout (identical across a
/// structure-matched batch); `ops[j]` supplies member `j`'s angle closure —
/// this is how a parameter sweep varies per member while the pair
/// enumeration, register decode, and parallel dispatch are paid once for
/// the whole ensemble.
///
/// When the control register is narrower than the pair space, so that
/// every entry serves at least two amplitude pairs, `(sin, cos)` of
/// `θ(x)/2` are tabulated per (value, member) first: closure calls and
/// transcendentals drop from `2^{n−1}` per member (one per pair) to
/// `2^{|x|}` (one per value, the §3.1 evaluate-per-basis-value discipline
/// applied to the rotation angle). The table holds each coefficient once
/// per f64 lane in batch-major order, so each pair index is one
/// vectorised [`simd::rotate_lanes`] call over the whole ensemble — every
/// member rotating by its own angle in the same instruction stream.
///
/// # Panics
///
/// Panics if `ops.len() != state.batch()` or the qubit counts disagree.
pub fn apply_controlled_rotation_batch(
    state: &mut BatchStateVector,
    program: &QuantumProgram,
    ops: &[&RotationOp],
) {
    assert_eq!(ops.len(), state.batch(), "one RotationOp per batch member");
    assert!(
        state.n_qubits() >= program.n_qubits(),
        "batch narrower than the program"
    );
    let x = program.register(ops[0].x).clone();
    let tbit = 1usize << program.register(ops[0].target).offset;
    let half = 1usize << (state.n_qubits() - 1);
    let low_mask = tbit - 1;
    let batch = state.batch();
    let lanes = 2 * batch;

    let values = 1usize << x.len;
    let table = (x.len <= ROTATION_TABLE_MAX_BITS && values <= half / 2).then(|| {
        let mut cos = vec![0.0f64; values * lanes];
        let mut sin = vec![0.0f64; values * lanes];
        for (j, op) in ops.iter().enumerate() {
            for v in 0..values {
                let (s, c) = ((op.angle)(v as u64) / 2.0).sin_cos();
                let o = v * lanes + 2 * j;
                cos[o..o + 2].fill(c);
                sin[o..o + 2].fill(s);
            }
        }
        (cos, sin)
    });

    struct Ptr(*mut C64);
    unsafe impl Send for Ptr {}
    unsafe impl Sync for Ptr {}
    let ptr = Ptr(state.amplitudes_mut().as_mut_ptr());

    (0..half).into_par_iter().for_each(|k| {
        let p = &ptr;
        let i0 = ((k & !low_mask) << 1) | (k & low_mask);
        let xv = x.value_of(i0);
        // SAFETY: k ↦ i0 is injective with the target bit clear, so the
        // two batch runs at i0 and i0|tbit are pairwise disjoint across k.
        let (lo, hi) = unsafe {
            (
                std::slice::from_raw_parts_mut(p.0.add(i0 * batch), batch),
                std::slice::from_raw_parts_mut(p.0.add((i0 | tbit) * batch), batch),
            )
        };
        let givens = |a: &mut C64, b: &mut C64, (s, c): (f64, f64)| {
            let (a0, b0) = (*a, *b);
            *a = a0.scale(c) - b0.scale(s);
            *b = a0.scale(s) + b0.scale(c);
        };
        let o = xv as usize * lanes;
        match &table {
            // A lone member's run is a single amplitude: a vector-kernel
            // call per pair costs more than the rotation itself.
            Some((cos, sin)) if batch == 1 => givens(&mut lo[0], &mut hi[0], (sin[o], cos[o])),
            Some((cos, sin)) => simd::rotate_lanes(lo, hi, &cos[o..o + lanes], &sin[o..o + lanes]),
            None => {
                for ((a, b), op) in lo.iter_mut().zip(hi.iter_mut()).zip(ops) {
                    givens(a, b, ((op.angle)(xv) / 2.0).sin_cos());
                }
            }
        }
    });
}

/// Packs the per-register values of basis index `i` into the compact
/// `k`-bit label (register 0 in the lowest bits).
#[inline]
fn pack(regs: &[&ProgramRegister], i: usize) -> u64 {
    let mut packed = 0u64;
    let mut shift = 0u32;
    for r in regs {
        packed |= r.value_of(i) << shift;
        shift += r.len as u32;
    }
    packed
}

/// Expands a packed label to register-value scatter bits of a basis index.
#[inline]
fn unpack_to_index(regs: &[&ProgramRegister], packed: u64) -> usize {
    let mut idx = 0usize;
    let mut shift = 0u32;
    for r in regs {
        let v = (packed >> shift) & r.mask();
        idx |= (v as usize) << r.offset;
        shift += r.len as u32;
    }
    idx
}

/// Evaluates the map on one packed label, reusing `values` as scratch.
fn eval_map_scratch(
    regs: &[&ProgramRegister],
    map: &ClassicalMap,
    packed: u64,
    values: &mut Vec<u64>,
) -> u64 {
    values.clear();
    let mut shift = 0u32;
    for r in regs {
        values.push((packed >> shift) & r.mask());
        shift += r.len as u32;
    }
    (map.f)(values);
    let mut out = 0u64;
    let mut shift = 0u32;
    for (r, v) in regs.iter().zip(values.iter()) {
        assert!(
            *v <= r.mask(),
            "classical map '{}' wrote {v} into {}-bit register '{}'",
            map.name,
            r.len,
            r.name
        );
        out |= v << shift;
        shift += r.len as u32;
    }
    out
}

/// The map's image of labels `0..rows`: every label for an in-place
/// bijection, the zero-target rows for a zero-target map.
fn build_permutation_table(regs: &[&ProgramRegister], map: &ClassicalMap, rows: usize) -> Vec<u32> {
    let mut table = vec![0u32; rows];
    table
        .par_chunks_mut(TASK_INDICES.min(rows))
        .enumerate()
        .for_each(|(chunk_idx, chunk)| {
            let base = (chunk_idx * TASK_INDICES.min(rows)) as u64;
            let mut scratch = Vec::with_capacity(regs.len());
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = eval_map_scratch(regs, map, base + off as u64, &mut scratch) as u32;
            }
        });
    table
}

#[inline]
fn pack_by_list(regs: &[(usize, usize)], i: usize) -> u64 {
    let mut packed = 0u64;
    let mut shift = 0u32;
    for &(offset, len) in regs {
        let mask = (1u64 << len) - 1;
        packed |= (((i >> offset) as u64) & mask) << shift;
        shift += len as u32;
    }
    packed
}

#[inline]
fn unpack_by_list(regs: &[(usize, usize)], packed: u64) -> usize {
    let mut idx = 0usize;
    let mut shift = 0u32;
    for &(offset, len) in regs {
        let mask = (1u64 << len) - 1;
        idx |= (((packed >> shift) & mask) as usize) << offset;
        shift += len as u32;
    }
    idx
}

/// Table-free path for very wide register tuples: evaluate each member's
/// `f` per supported amplitude of its lane and scatter it to its image.
/// Each destination element is claimed in an atomic bitmap (2ⁿ·B bits,
/// 1/128 of the ensemble's bytes) before it is written, so no two threads
/// ever write one element. A non-injective `f` on the support is reported
/// exactly, with the smallest colliding destination of the lowest failing
/// member, and a zero-target map's support is checked in the same pass.
fn map_on_the_fly(
    inp: &[C64],
    out: &mut Vec<C64>,
    batch: usize,
    regs: &[&ProgramRegister],
    maps: &[&ClassicalMap],
    rows: usize,
    targets: &[&ProgramRegister],
) -> Result<(), EmuError> {
    let reg_mask: usize = regs
        .iter()
        .flat_map(|r| r.bits())
        .fold(0usize, |m, q| m | (1usize << q));
    out.clear();
    out.resize(inp.len(), C64::ZERO);
    let claimed: Vec<AtomicU64> = (0..inp.len().div_ceil(64))
        .map(|_| AtomicU64::new(0))
        .collect();
    let collision: Vec<AtomicUsize> = (0..batch).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let violation: Vec<AtomicUsize> = (0..batch).map(|_| AtomicUsize::new(usize::MAX)).collect();
    struct Ptr(*mut C64);
    // SAFETY: the one field points into `out`, which outlives the
    // parallel loop; tasks write through it only at claimed elements.
    unsafe impl Send for Ptr {}
    // SAFETY: as for `Send`: shared use is the claimed, disjoint writes.
    unsafe impl Sync for Ptr {}
    let ptr = Ptr(out.as_mut_ptr());

    // `Relaxed` suffices: a claim publishes no data to the other tasks
    // (a loser writes nothing and reads nothing), and `out` and the
    // error records are read only after the pool has joined every task.
    let block = TASK_INDICES * batch;
    (0..inp.len().div_ceil(block))
        .into_par_iter()
        .for_each(|task| {
            let p = &ptr;
            let mut scratch = Vec::with_capacity(regs.len());
            let start = task * block;
            for (e, &amp) in inp.iter().enumerate().skip(start).take(block) {
                if amp == C64::ZERO {
                    continue;
                }
                let (i, j) = (e / batch, e % batch);
                let label = pack(regs, i);
                if label >= rows as u64 {
                    if amp.norm_sqr() > SUPPORT_TOL {
                        violation[j].fetch_min(i, Ordering::Relaxed);
                    }
                    continue;
                }
                let mapped = eval_map_scratch(regs, maps[j], label, &mut scratch);
                let dest = ((i & !reg_mask) | unpack_to_index(regs, mapped)) * batch + j;
                let bit = 1u64 << (dest % 64);
                if claimed[dest / 64].fetch_or(bit, Ordering::Relaxed) & bit != 0 {
                    collision[j].fetch_min(dest / batch, Ordering::Relaxed);
                    continue;
                }
                // SAFETY: `dest` < 2ⁿ·B (unpacked register bits over a
                // coset, in lane `j`), and the bitmap claim above
                // succeeded, so this is the one write to `out[dest]`.
                unsafe {
                    *p.0.add(dest) = amp;
                }
            }
        });
    for j in 0..batch {
        let i = violation[j].load(Ordering::Relaxed);
        if i != usize::MAX {
            return Err(target_not_zero(targets, i, &maps[j].name));
        }
        let d = collision[j].load(Ordering::Relaxed);
        if d != usize::MAX {
            return Err(EmuError::NotReversible {
                op: maps[j].name.clone(),
                collision: pack(regs, d),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{GateImpl, ProgramBuilder};
    use std::sync::Arc;

    fn two_reg_program(
        m: usize,
    ) -> (
        QuantumProgram,
        crate::program::RegisterId,
        crate::program::RegisterId,
    ) {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        (pb.build().unwrap(), a, b)
    }

    #[test]
    fn increment_map_permutes_basis_states() {
        let (prog, a, _b) = two_reg_program(3);
        let map = ClassicalMap {
            name: "inc".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] = (v[0] + 1) % 8),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        let mut sv = StateVector::basis_state(6, 0b000_101); // a = 5
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        assert_eq!(sv.probability(0b000_110), 1.0); // a = 6
    }

    #[test]
    fn swap_registers_map() {
        let (prog, a, b) = two_reg_program(2);
        let map = ClassicalMap {
            name: "swap".into(),
            regs: vec![a, b],
            f: Arc::new(|v| v.swap(0, 1)),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        // a = 3, b = 1 → a = 1, b = 3.
        let mut sv = StateVector::basis_state(4, 0b01_11);
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        assert_eq!(sv.probability(0b11_01), 1.0);
    }

    #[test]
    fn map_on_superposition_preserves_norm_and_moves_all_branches() {
        let (prog, a, _b) = two_reg_program(3);
        let map = ClassicalMap {
            name: "xor5".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] ^= 5),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        let mut sv = StateVector::uniform_superposition(6);
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        // XOR is an involution: applying twice returns to uniform.
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        let expect = StateVector::uniform_superposition(6);
        assert!(sv.max_diff_up_to_phase(&expect) < 1e-12);
    }

    #[test]
    fn non_bijective_map_is_rejected() {
        let (prog, a, _b) = two_reg_program(3);
        let map = ClassicalMap {
            name: "collapse".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] = 0), // everything → 0
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        let mut sv = StateVector::uniform_superposition(6);
        let err = apply_classical_map(&mut sv, &prog, &map).unwrap_err();
        assert!(matches!(err, EmuError::NotReversible { .. }));
    }

    #[test]
    fn zero_target_map_requires_zero_support() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 2);
        let t = pb.register("t", 2);
        let prog = pb.build().unwrap();
        let map = ClassicalMap {
            name: "square".into(),
            regs: vec![a, t],
            f: Arc::new(|v| v[1] = (v[0] * v[0]) % 4),
            kind: MapKind::ZeroInitializedTargets { n_targets: 1 },
            gate_impl: None,
        };
        // Valid: t = 0.
        let mut sv = StateVector::basis_state(4, 0b00_11); // a = 3, t = 0
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        assert_eq!(sv.probability(0b01_11), 1.0); // t = 9 mod 4 = 1

        // Invalid: t ≠ 0.
        let mut sv = StateVector::basis_state(4, 0b10_00);
        let err = apply_classical_map(&mut sv, &prog, &map).unwrap_err();
        assert!(matches!(err, EmuError::TargetNotZero { .. }));
    }

    #[test]
    fn untouched_registers_are_untouched() {
        let (prog, a, b) = two_reg_program(3);
        let _ = b;
        let map = ClassicalMap {
            name: "inc".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] = (v[0] + 3) % 8),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        // b carries superposition; a increments per branch.
        let mut sv = StateVector::zero_state(6);
        sv.apply(&qcemu_sim::Gate::h(3)); // b bit 0
        sv.apply(&qcemu_sim::Gate::h(5)); // b bit 2
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        let dist = sv.register_distribution(&prog.register(a).bits());
        assert!((dist[3] - 1.0).abs() < 1e-12, "a = 0 + 3 in every branch");
        let distb = sv.register_distribution(&prog.register(b).bits());
        let expect = [0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0];
        for (v, e) in distb.iter().zip(expect.iter()) {
            assert!((v - e).abs() < 1e-12);
        }
    }

    #[test]
    fn map_with_gate_impl_unused_by_emulator() {
        // gate_impl presence must not change emulation behaviour.
        let (prog, a, _b) = two_reg_program(2);
        let map = ClassicalMap {
            name: "inc".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] = (v[0] + 1) % 4),
            kind: MapKind::InPlaceBijection,
            gate_impl: Some(GateImpl {
                n_ancilla: 0,
                build: Arc::new(|_| qcemu_sim::Circuit::new(4)),
            }),
        };
        let mut sv = StateVector::basis_state(4, 0);
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        assert_eq!(sv.probability(1), 1.0);
    }

    #[test]
    fn controlled_rotation_matches_gate_expansion() {
        use crate::executor::{Emulator, Executor, GateLevelSimulator};
        use crate::program::RotationOp;
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 3);
        let t = pb.register("t", 1);
        pb.hadamard_all(x);
        pb.rotation(RotationOp {
            name: "enc".into(),
            x,
            target: t,
            angle: Arc::new(|v| 0.2 + 0.37 * v as f64),
            gate_impl: None,
        });
        let prog = pb.build().unwrap();
        let init = StateVector::zero_state(prog.n_qubits());
        let emu = Emulator::new().run(&prog, init.clone()).unwrap();
        let sim = GateLevelSimulator::new().run(&prog, init.clone()).unwrap();
        let elem = GateLevelSimulator::elementary().run(&prog, init).unwrap();
        assert!(emu.max_diff_up_to_phase(&sim) < 1e-10, "emu vs sim");
        assert!(emu.max_diff_up_to_phase(&elem) < 1e-9, "emu vs elementary");
        assert!((emu.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_rotation_probability_encodes_function() {
        use crate::executor::{Emulator, Executor};
        use crate::program::RotationOp;
        // θ(x) = 2·asin(√(x/8)): P(t=1 | x) must equal x/8.
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 3);
        let t = pb.register("t", 1);
        pb.hadamard_all(x);
        pb.rotation(RotationOp {
            name: "enc".into(),
            x,
            target: t,
            angle: Arc::new(|v| 2.0 * ((v as f64 / 8.0).sqrt()).asin()),
            gate_impl: None,
        });
        let prog = pb.build().unwrap();
        let out = Emulator::new()
            .run(&prog, StateVector::zero_state(4))
            .unwrap();
        // Joint distribution over (x, t).
        let all: Vec<usize> = (0..4).collect();
        let dist = out.register_distribution(&all);
        for xv in 0..8usize {
            let p1 = dist[xv | 8];
            let expect = (xv as f64 / 8.0) / 8.0; // P(x)·P(1|x)
            assert!((p1 - expect).abs() < 1e-10, "x = {xv}: {p1} vs {expect}");
        }
        // Mean of f(x) = x/8 over uniform x = 35/80.
        let p_one = qcemu_sim::prob_qubit_one(&out, 3);
        assert!((p_one - 35.0 / 80.0).abs() < 1e-10);
    }

    #[test]
    fn rotation_validation_rejects_wide_target() {
        use crate::program::RotationOp;
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 2);
        let t = pb.register("t", 2); // too wide
        pb.rotation(RotationOp {
            name: "bad".into(),
            x,
            target: t,
            angle: Arc::new(|_| 0.0),
            gate_impl: None,
        });
        assert!(pb.build().is_err());
    }

    #[test]
    fn phase_oracle_emulation_matches_gates() {
        use crate::executor::{Emulator, Executor, GateLevelSimulator};
        use crate::stdops::mark_value;
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 4);
        pb.hadamard_all(x);
        pb.phase_oracle(mark_value(x, 11, 1.234));
        let prog = pb.build().unwrap();
        let init = StateVector::zero_state(4);
        let emu = Emulator::new().run(&prog, init.clone()).unwrap();
        let sim = GateLevelSimulator::new().run(&prog, init).unwrap();
        assert!(emu.max_diff_up_to_phase(&sim) < 1e-12);
        // The marked amplitude carries the phase; check directly.
        let a = emu.amplitudes()[11];
        assert!((a.arg() - 1.234).abs() < 1e-10);
    }

    #[test]
    fn emulation_only_phase_oracle_fails_simulation() {
        use crate::executor::{Executor, GateLevelSimulator};
        use crate::stdops::phase_if;
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 3);
        pb.phase_oracle(phase_if("parity", vec![x], std::f64::consts::PI, |v| {
            v[0].count_ones() % 2 == 1
        }));
        let prog = pb.build().unwrap();
        assert!(matches!(
            GateLevelSimulator::new().run(&prog, StateVector::zero_state(3)),
            Err(EmuError::NoGateImplementation { .. })
        ));
    }

    /// The in-place chain pass against the definition `out[coset |
    /// π_j(v)] = in[coset | v]`, member by member and bit for bit: a
    /// 14-qubit state with the map's registers scattered and above qubit 0
    /// (units of several indices, cosets that interleave), an in-place
    /// bijection with cycles and fixed points and a zero-target map with
    /// open chains, every member on one shared table or on its own,
    /// B ∈ {1, 2, 3}, pools 1 and 2 (B ≥ 2 crosses the parallel
    /// threshold).
    #[test]
    fn batch_map_matches_the_permutation_definition_per_member() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut pb = ProgramBuilder::new();
        let _low = pb.register("low", 2);
        let x = pb.register("x", 3);
        let _mid = pb.register("mid", 2);
        let y = pb.register("y", 3);
        let z = pb.register("z", 3);
        let _top = pb.register("top", 1);
        let prog = pb.build().unwrap();
        let n = prog.n_qubits();
        let in_place = |c: u64| ClassicalMap {
            name: format!("shift{c}"),
            regs: vec![y, x],
            f: Arc::new(move |v| {
                v[0] = (v[0] + c * v[1]) % 8;
                v[1] ^= c & 1;
            }),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        let zero_target = |c: u64| ClassicalMap {
            name: format!("scale{c}"),
            regs: vec![x, z],
            f: Arc::new(move |v| v[1] = (v[0] * (2 * c + 1)) % 8),
            kind: MapKind::ZeroInitializedTargets { n_targets: 1 },
            gate_impl: None,
        };
        let mut rng = StdRng::seed_from_u64(0xc0de);
        for (make, zero_z) in [
            (&in_place as &dyn Fn(u64) -> ClassicalMap, false),
            (&zero_target, true),
        ] {
            for consts in [[2u64, 2, 2], [0, 3, 1]] {
                for batch in 1..=3 {
                    let maps: Vec<ClassicalMap> =
                        consts[..batch].iter().map(|&c| make(c)).collect();
                    let members: Vec<Vec<C64>> = (0..batch)
                        .map(|_| {
                            (0..1usize << n)
                                .map(|i| match zero_z && prog.register(z).value_of(i) != 0 {
                                    true => C64::ZERO,
                                    false => {
                                        C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    let expected: Vec<Vec<C64>> = members
                        .iter()
                        .zip(&maps)
                        .map(|(amps, map)| {
                            let regs: Vec<&ProgramRegister> =
                                map.regs.iter().map(|&r| prog.register(r)).collect();
                            let mask = regs
                                .iter()
                                .fold(0, |m, r| m | (r.mask() << r.offset) as usize);
                            let mut out = vec![C64::ZERO; amps.len()];
                            let mut values = Vec::new();
                            for (i, &a) in amps.iter().enumerate() {
                                values.clear();
                                values.extend(regs.iter().map(|r| r.value_of(i)));
                                (map.f)(&mut values);
                                let image = regs
                                    .iter()
                                    .zip(&values)
                                    .fold(i & !mask, |j, (r, &v)| j | (v as usize) << r.offset);
                                if !zero_z || regs[1].value_of(i) == 0 {
                                    out[image] = a;
                                }
                            }
                            out
                        })
                        .collect();
                    for threads in [1, 2] {
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(threads)
                            .build()
                            .unwrap();
                        let input: Vec<C64> = (0..batch << n)
                            .map(|e| members[e % batch][e / batch])
                            .collect();
                        let mut state = BatchStateVector::from_amplitudes(input, batch);
                        let refs: Vec<&ClassicalMap> = maps.iter().collect();
                        pool.install(|| apply_classical_map_batch(&mut state, &prog, &refs))
                            .unwrap();
                        for (j, want) in expected.iter().enumerate() {
                            for (i, &w) in want.iter().enumerate() {
                                assert_eq!(
                                    state.amplitude(i, j),
                                    w,
                                    "{} B = {batch} member {j} index {i} pool {threads}",
                                    maps[j].name
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_map_on_the_fly_path() {
        // 26 involved bits > TABLE_MAX_BITS → on-the-fly branch, forced
        // with a 26-qubit register on a 26-qubit state of tiny support.
        // One state serves every case, so peak memory is one 26-qubit run.
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 26);
        let prog = pb.build().unwrap();
        let map = ClassicalMap {
            name: "bigxor".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] ^= 0x2AAAAAA),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        let mut sv = StateVector::basis_state(26, 1);
        apply_classical_map(&mut sv, &prog, &map).unwrap();
        assert_eq!(sv.probability(1 ^ 0x2AAAAAA), 1.0);

        // A non-injective map: clearing bit 0 sends 0x1234567 and
        // 0x1234566 to one destination. It must be named exactly, on any
        // pool, and the state left as it was.
        let h = C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
        let amps = sv.amplitudes_mut();
        amps[1 ^ 0x2AAAAAA] = C64::ZERO;
        amps[0x1234566] = h;
        amps[0x1234567] = h;
        let squash = ClassicalMap {
            name: "squash".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] &= !1),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        };
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let err = pool.install(|| apply_classical_map(&mut sv, &prog, &squash));
            assert_eq!(
                err,
                Err(EmuError::NotReversible {
                    op: "squash".into(),
                    collision: 0x1234566,
                }),
                "pool {threads}"
            );
            assert_eq!(sv.amplitudes()[0x1234566], h, "pool {threads}");
            assert_eq!(sv.amplitudes()[0x1234567], h, "pool {threads}");
        }
    }
}
