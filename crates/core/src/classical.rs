//! Direct emulation of classical functions on the state vector (§3.1).
//!
//! A classical map over registers is, at the amplitude level, a permutation
//! of basis-state labels within each coset of the untouched qubits: the
//! emulator "can simply perform the described mapping directly" instead of
//! running the Toffoli network. The permutation table over the involved
//! registers' joint space is built once, validated for bijectivity, and
//! applied to every coset in parallel.

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

/// Applies a classical map to the state (the §3.1 emulation shortcut).
pub fn apply_classical_map(
    state: &mut StateVector,
    program: &QuantumProgram,
    map: &ClassicalMap,
) -> Result<(), EmuError> {
    let regs: Vec<&ProgramRegister> = map.regs.iter().map(|&r| program.register(r)).collect();
    let k: usize = regs.iter().map(|r| r.len).sum();
    let n = state.n_qubits();

    // For zero-initialised-target maps, verify the support first.
    if let MapKind::ZeroInitializedTargets { n_targets } = map.kind {
        let targets = &regs[regs.len() - n_targets..];
        verify_zero_support(state, targets, &map.name)?;
    }

    if k <= TABLE_MAX_BITS {
        let table = build_permutation_table(&regs, map)?;
        apply_table(state, &regs, &table, n);
        Ok(())
    } else {
        apply_on_the_fly(state, &regs, map, n)
    }
}

/// Applies a classical-predicate phase oracle: one conditional scan over
/// the amplitudes (§3.1 applied to diagonal operators).
pub fn apply_phase_oracle(state: &mut StateVector, program: &QuantumProgram, oracle: &PhaseOracle) {
    let regs: Vec<&ProgramRegister> = oracle.regs.iter().map(|&r| program.register(r)).collect();
    let factor = qcemu_linalg::C64::cis(oracle.phase);
    let predicate = &oracle.predicate;
    state
        .amplitudes_mut()
        .par_iter_mut()
        .enumerate()
        .for_each(|(i, amp)| {
            if *amp == C64::ZERO {
                return;
            }
            let values: Vec<u64> = regs.iter().map(|r| r.value_of(i)).collect();
            if predicate(&values) {
                *amp *= factor;
            }
        });
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

/// All amplitude weight must sit on basis states where every target
/// register reads 0.
fn verify_zero_support(
    state: &StateVector,
    targets: &[&ProgramRegister],
    op_name: &str,
) -> Result<(), EmuError> {
    const TOL: f64 = 1e-12;
    for (i, amp) in state.amplitudes().iter().enumerate() {
        if amp.norm_sqr() <= TOL {
            continue;
        }
        for t in targets {
            if t.value_of(i) != 0 {
                return Err(EmuError::TargetNotZero {
                    op: op_name.to_string(),
                    register: t.name.clone(),
                });
            }
        }
    }
    Ok(())
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

/// Builds and validates the 2^k permutation table.
fn build_permutation_table(
    regs: &[&ProgramRegister],
    map: &ClassicalMap,
) -> Result<Vec<u32>, EmuError> {
    let k: usize = regs.iter().map(|r| r.len).sum();
    let size = 1usize << k;
    // Parallel fill (rayon), then a serial O(2^k) bijectivity sweep.
    let mut table = vec![0u32; size];
    table
        .par_chunks_mut(1 << 12.min(k))
        .enumerate()
        .for_each(|(chunk_idx, chunk)| {
            let base = (chunk_idx * chunk.len()) as u64;
            let mut scratch = Vec::with_capacity(regs.len());
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = eval_map_scratch(regs, map, base + off as u64, &mut scratch) as u32;
            }
        });
    if map.kind == MapKind::InPlaceBijection {
        let mut hit = vec![false; size];
        for &out in &table {
            let out_idx = out as usize;
            if hit[out_idx] {
                return Err(EmuError::NotReversible {
                    op: map.name.clone(),
                    collision: out as u64,
                });
            }
            hit[out_idx] = true;
        }
    }
    // For zero-target maps, check injectivity on the supported rows.
    if let MapKind::ZeroInitializedTargets { n_targets } = map.kind {
        let input_bits: usize = regs[..regs.len() - n_targets].iter().map(|r| r.len).sum();
        let mut seen = vec![false; size];
        for packed in 0..(1u64 << input_bits) {
            let out = table[packed as usize] as usize;
            if seen[out] {
                return Err(EmuError::NotReversible {
                    op: map.name.clone(),
                    collision: out as u64,
                });
            }
            seen[out] = true;
        }
    }
    Ok(table)
}

/// Applies the permutation table to every coset of the untouched qubits.
fn apply_table(state: &mut StateVector, regs: &[&ProgramRegister], table: &[u32], n: usize) {
    let reg_mask: usize = regs
        .iter()
        .flat_map(|r| r.bits())
        .fold(0usize, |m, q| m | (1usize << q));
    let _ = n;
    let amps = std::mem::take(state.amplitudes_mut());

    // Forward scatter: out[coset | π(v)] = in[coset | v]. Disjointness: π is
    // a bijection on the register subspace and cosets are disjoint.
    let mut result = vec![C64::ZERO; amps.len()];
    struct Ptr(*mut C64);
    unsafe impl Send for Ptr {}
    unsafe impl Sync for Ptr {}
    let ptr = Ptr(result.as_mut_ptr());

    let reg_list: Vec<(usize, usize)> = regs.iter().map(|r| (r.offset, r.len)).collect();
    amps.par_iter().enumerate().for_each(|(i, amp)| {
        let p = &ptr;
        if *amp == C64::ZERO {
            // Still must map structure for zero entries? Zero in, zero out —
            // result is pre-zeroed, skip.
            return;
        }
        let packed = pack_by_list(&reg_list, i);
        let mapped = table[packed as usize] as u64;
        let j = (i & !reg_mask) | unpack_by_list(&reg_list, mapped);
        // SAFETY: i ↦ j is injective on the support (π bijective per coset,
        // cosets disjoint), so writes are disjoint.
        unsafe {
            *p.0.add(j) = *amp;
        }
    });
    *state.amplitudes_mut() = result;
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

/// Table-free path for very wide register tuples: evaluate `f` per
/// supported amplitude and scatter it to its image. Each destination is
/// claimed in an atomic bitmap (2ⁿ bits, 1/128 of the state's bytes)
/// before it is written, so no two threads ever write one element. A
/// non-injective `f` on the support is reported exactly, with the
/// smallest colliding destination, and leaves the state untouched.
fn apply_on_the_fly(
    state: &mut StateVector,
    regs: &[&ProgramRegister],
    map: &ClassicalMap,
    _n: usize,
) -> Result<(), EmuError> {
    const BLOCK: usize = 1 << 12;
    let reg_mask: usize = regs
        .iter()
        .flat_map(|r| r.bits())
        .fold(0usize, |m, q| m | (1usize << q));
    let amps = std::mem::take(state.amplitudes_mut());
    let mut result = vec![C64::ZERO; amps.len()];
    let claimed: Vec<AtomicU64> = (0..amps.len().div_ceil(64))
        .map(|_| AtomicU64::new(0))
        .collect();
    let collision = AtomicUsize::new(usize::MAX);
    struct Ptr(*mut C64);
    // SAFETY: the one field points into `result`, which outlives the
    // parallel loop; tasks write through it only at claimed indices.
    unsafe impl Send for Ptr {}
    // SAFETY: as for `Send`: shared use is the claimed, disjoint writes.
    unsafe impl Sync for Ptr {}
    let ptr = Ptr(result.as_mut_ptr());

    // `Relaxed` suffices: a claim publishes no data to the other tasks
    // (a loser writes nothing and reads nothing), and `result` and
    // `collision` are read only after the pool has joined every task.
    (0..amps.len().div_ceil(BLOCK))
        .into_par_iter()
        .for_each(|block| {
            let p = &ptr;
            let mut scratch = Vec::with_capacity(regs.len());
            let start = block * BLOCK;
            for (i, &amp) in amps.iter().enumerate().skip(start).take(BLOCK) {
                if amp == C64::ZERO {
                    continue;
                }
                let mapped = eval_map_scratch(regs, map, pack(regs, i), &mut scratch);
                let j = (i & !reg_mask) | unpack_to_index(regs, mapped);
                let bit = 1u64 << (j % 64);
                if claimed[j / 64].fetch_or(bit, Ordering::Relaxed) & bit != 0 {
                    collision.fetch_min(j, Ordering::Relaxed);
                    continue;
                }
                // SAFETY: `j` < 2ⁿ (unpacked register bits over a coset),
                // and the bitmap claim above succeeded, so this is the
                // one write to `result[j]`.
                unsafe {
                    *p.0.add(j) = amp;
                }
            }
        });
    let j = collision.into_inner();
    if j != usize::MAX {
        *state.amplitudes_mut() = amps;
        return Err(EmuError::NotReversible {
            op: map.name.clone(),
            collision: pack(regs, j),
        });
    }
    *state.amplitudes_mut() = result;
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
