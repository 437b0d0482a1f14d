//! Distributed state vectors: 2ⁿ amplitudes sliced over P ranks.
//!
//! Rank `r` owns the amplitudes whose top `log₂P` index bits equal `r`
//! (the standard qHiPSTER/our-simulator decomposition): qubits below
//! `n_local` are *local*, the top ones are *global*.
//!
//! Gate application rules (paper §4.5):
//! * local target → node-local kernel, no communication;
//! * global target, **diagonal** gate → multiply own slice by the right
//!   diagonal entry — **no communication** (this is "our simulator takes
//!   advantage of the structure of gate matrices, allowing e.g. to reduce
//!   the communication for diagonal gates such as the conditional phase
//!   shift");
//! * global target, general gate → pairwise slice exchange + butterfly;
//! * global controls cost nothing: ranks whose bit is 0 skip outright.
//!
//! The [`CommPolicy`] knob switches between that specialised behaviour and
//! a *generic* one (exchange + dense 2×2 for every global-target gate,
//! dense kernels locally) which models qHiPSTER for Fig. 4.

use crate::comm::Comm;
use crate::plan::{DistPlan, PlanStep, QubitMap};
use qcemu_linalg::C64;
use qcemu_sim::kernels::{self, apply_fused_diagonal, expand_index, PAR_THRESHOLD};
use qcemu_sim::{
    Circuit, FusedCircuit, FusedGate, FusedOp, FusionPolicy, Gate, GateOp, GateStructure,
    StateVector,
};

/// Gate-application strategy for the distributed simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommPolicy {
    /// Structure-specialised ("our simulator"): diagonal gates never
    /// communicate; kernels exploit structure locally.
    Specialized,
    /// Generic ("qHiPSTER-like"): every global-target gate exchanges the
    /// full slice; local gates use the dense 2×2 kernel.
    Generic,
}

/// One rank's shard of a distributed 2ⁿ-amplitude state.
///
/// Alongside the amplitude slice, each rank tracks the [`QubitMap`] of the
/// communication-avoiding execution path: logical (program) qubits are
/// relabelled onto physical slots by collective remap permutations, so
/// runs of gates that would otherwise exchange slices execute locally.
/// Remaps are collective and deterministic, so every rank holds the same
/// map at every step.
pub struct DistributedState {
    n_qubits: usize,
    n_local: usize,
    rank: usize,
    p: usize,
    local: Vec<C64>,
    exchanges: u64,
    remaps: u64,
    map: QubitMap,
}

impl DistributedState {
    /// `|0…0⟩` distributed over `comm.size()` ranks.
    pub fn zero_state(n_qubits: usize, comm: &Comm) -> DistributedState {
        let p = comm.size();
        assert!(p.is_power_of_two());
        let log_p = p.trailing_zeros() as usize;
        assert!(n_qubits >= log_p, "need at least log2(P) qubits");
        let n_local = n_qubits - log_p;
        let mut local = vec![C64::ZERO; 1usize << n_local];
        if comm.rank() == 0 {
            local[0] = C64::ONE;
        }
        DistributedState {
            n_qubits,
            n_local,
            rank: comm.rank(),
            p,
            local,
            exchanges: 0,
            remaps: 0,
            map: QubitMap::identity(n_qubits),
        }
    }

    /// Distributes an existing full state (every rank takes its slice).
    pub fn from_full(full: &StateVector, comm: &Comm) -> DistributedState {
        let p = comm.size();
        let log_p = p.trailing_zeros() as usize;
        let n_qubits = full.n_qubits();
        assert!(n_qubits >= log_p);
        let n_local = n_qubits - log_p;
        let chunk = 1usize << n_local;
        let start = comm.rank() * chunk;
        DistributedState {
            n_qubits,
            n_local,
            rank: comm.rank(),
            p,
            local: full.amplitudes()[start..start + chunk].to_vec(),
            exchanges: 0,
            remaps: 0,
            map: QubitMap::identity(n_qubits),
        }
    }

    /// Total qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Local (intra-rank) qubits.
    pub fn n_local_qubits(&self) -> usize {
        self.n_local
    }

    /// This rank's amplitude slice.
    pub fn local(&self) -> &[C64] {
        &self.local
    }

    /// Mutable access to the local slice (used by the distributed FFT).
    pub fn local_mut(&mut self) -> &mut Vec<C64> {
        &mut self.local
    }

    /// Number of pairwise slice exchanges performed so far — the
    /// communication count the Fig. 4 comparison is about. (Exchanges can
    /// ship partial slices; `Comm::bytes_sent` is the accounted quantity.)
    pub fn exchange_count(&self) -> u64 {
        self.exchanges
    }

    /// Number of batched remap permutations performed so far.
    pub fn remap_count(&self) -> u64 {
        self.remaps
    }

    /// The current logical→physical qubit map (identity until a plan with
    /// remaps executes).
    pub fn qubit_map(&self) -> &QubitMap {
        &self.map
    }

    /// `true` if physical slot `q` is stored within each rank.
    pub fn is_local(&self, q: usize) -> bool {
        q < self.n_local
    }

    fn global_bit(&self, q: usize) -> usize {
        (self.rank >> (q - self.n_local)) & 1
    }

    /// Applies one gate (logical qubit indices) under the given policy,
    /// translating through the current qubit map first.
    pub fn apply_gate(&mut self, gate: &Gate, comm: &mut Comm, policy: CommPolicy) {
        match gate {
            Gate::Unary {
                op,
                target,
                controls,
            } => {
                let t = self.map.slot(*target);
                let ctl: Vec<usize> = controls.iter().map(|&c| self.map.slot(c)).collect();
                self.apply_unary(op, t, &ctl, comm, policy);
            }
            Gate::Swap { a, b, controls } => {
                let sa = self.map.slot(*a);
                let sb = self.map.slot(*b);
                let ctl: Vec<usize> = controls.iter().map(|&c| self.map.slot(c)).collect();
                self.apply_swap_slots(sa, sb, &ctl, comm, policy);
            }
        }
    }

    /// (Possibly controlled) SWAP on physical slots: local kernel when
    /// every participant is local, three CNOTs otherwise.
    fn apply_swap_slots(
        &mut self,
        a: usize,
        b: usize,
        controls: &[usize],
        comm: &mut Comm,
        policy: CommPolicy,
    ) {
        let all_local =
            self.is_local(a) && self.is_local(b) && controls.iter().all(|&c| self.is_local(c));
        if all_local {
            kernels::apply_swap(&mut self.local, 1, a, b, controls, PAR_THRESHOLD);
        } else {
            let mut cnot = |c: usize, t: usize| {
                let mut ctl = controls.to_vec();
                ctl.push(c);
                self.apply_unary(&GateOp::X, t, &ctl, comm, policy);
            };
            cnot(a, b);
            cnot(b, a);
            cnot(a, b);
        }
    }

    fn apply_unary(
        &mut self,
        op: &GateOp,
        target: usize,
        controls: &[usize],
        comm: &mut Comm,
        policy: CommPolicy,
    ) {
        let (local_controls, global_controls): (Vec<usize>, Vec<usize>) =
            controls.iter().partition(|&&c| self.is_local(c));

        // Global controls: if any is 0 on this rank, the gate is an
        // identity here — and on the partner rank too (partner differs only
        // in the target bit), so nobody communicates.
        if global_controls.iter().any(|&c| self.global_bit(c) == 0) {
            return;
        }

        if self.is_local(target) {
            match policy {
                CommPolicy::Specialized => {
                    let g = Gate::Unary {
                        op: op.clone(),
                        target,
                        controls: local_controls,
                    };
                    kernels::apply_gate_slice(&mut self.local, &g);
                }
                CommPolicy::Generic => {
                    // Dense 2×2 kernel regardless of structure.
                    kernels::apply_general(
                        &mut self.local,
                        1,
                        target,
                        &local_controls,
                        &op.matrix(),
                        PAR_THRESHOLD,
                    );
                }
            }
            return;
        }

        // Global target.
        let my_bit = self.global_bit(target);
        let partner = self.rank ^ (1usize << (target - self.n_local));

        if policy == CommPolicy::Specialized {
            match op.structure() {
                GateStructure::Diagonal(d0, d1) => {
                    // No communication: scale own slice by the right entry.
                    let d = if my_bit == 0 { d0 } else { d1 };
                    if d != C64::ONE {
                        scale_selected(&mut self.local, &local_controls, d);
                    }
                    return;
                }
                GateStructure::PermutationX if local_controls.is_empty() => {
                    // Pure slice swap with the partner.
                    let mine = std::mem::take(&mut self.local);
                    self.local = comm.exchange(partner, mine);
                    self.exchanges += 1;
                    return;
                }
                _ => {}
            }
        }

        // General path: pairwise exchange + butterfly. Only the entries
        // the local controls select participate, so only those are sent:
        // a gate with c local controls ships |slice| / 2^c amplitudes
        // (and `Comm` charges exactly the bytes on the wire).
        let m = op.matrix();
        // new(me) = m[my_bit][0]·amp(bit=0) + m[my_bit][1]·amp(bit=1)
        let (c_own, c_other) = if my_bit == 0 {
            (m[0][0], m[0][1])
        } else {
            (m[1][1], m[1][0])
        };
        self.exchanges += 1;
        if local_controls.is_empty() {
            // Every entry participates: the clone *is* the send buffer.
            let remote = comm.exchange(partner, self.local.clone());
            for (mine, theirs) in self.local.iter_mut().zip(remote.iter()) {
                *mine = c_own * *mine + c_other * *theirs;
            }
        } else {
            // Compact gather of the control-selected subset. Both ranks
            // enumerate the same compressed indices in the same order, so
            // the payload needs no index side-channel.
            let mut positions = local_controls.clone();
            positions.sort_unstable();
            let cmask = positions.iter().fold(0usize, |acc, &c| acc | (1usize << c));
            let count = self.local.len() >> positions.len();
            let mut mine = Vec::with_capacity(count);
            for k in 0..count {
                mine.push(self.local[expand_index(k, &positions) | cmask]);
            }
            let theirs = comm.exchange(partner, mine);
            debug_assert_eq!(theirs.len(), count);
            for (k, other) in theirs.iter().enumerate() {
                let j = expand_index(k, &positions) | cmask;
                self.local[j] = c_own * self.local[j] + c_other * *other;
            }
        }
    }

    /// Applies a whole circuit gate by gate (the per-gate exchange
    /// baseline — no remapping; use [`DistributedState::run`] for the
    /// communication-avoiding path).
    pub fn apply_circuit(&mut self, circuit: &Circuit, comm: &mut Comm, policy: CommPolicy) {
        assert!(circuit.n_qubits() <= self.n_qubits);
        for g in circuit.gates() {
            self.apply_gate(g, comm, policy);
        }
    }

    /// Runs a fused circuit under a communication-avoiding plan: global
    /// qubits about to be used non-diagonally are remapped into local
    /// slots by batched all-to-all permutations, fused blocks execute on
    /// the local slice, and diagonal blocks touching global qubits apply
    /// with **zero** communication (each rank folds its fixed global bits
    /// into the factor index).
    ///
    /// # Panics
    ///
    /// Panics if a non-diagonal block is wider than `n_local` qubits — it
    /// could never be made fully local. Fuse with
    /// [`Circuit::fuse_within`] (window ≤ `n_local`) or use
    /// [`DistributedState::run_circuit`], which clamps automatically.
    pub fn run(&mut self, fused: &FusedCircuit, comm: &mut Comm) {
        assert!(fused.n_qubits() <= self.n_qubits);
        // Plan from the *current* map: a previous run may have left
        // qubits relabelled, and planning from the identity would mistake
        // evicted qubits for local ones.
        let plan = DistPlan::from_map(fused, self.n_qubits, self.n_local, self.map.clone());
        self.run_plan(&plan, fused, comm);
    }

    /// Fuses `circuit` under `fusion` with the window clamped to the
    /// local-slot count — keeping uncontrolled SWAPs out of blocks, so
    /// they execute as free qubit relabels — then
    /// [`runs`](DistributedState::run) it.
    pub fn run_circuit(&mut self, circuit: &Circuit, fusion: &FusionPolicy, comm: &mut Comm) {
        let policy = fusion.clamped(self.n_local.max(1));
        let fused = qcemu_sim::fuse_circuit_with_barriers(
            circuit,
            &policy,
            |g| matches!(g, Gate::Swap { controls, .. } if controls.is_empty()),
        );
        self.run(&fused, comm);
    }

    /// Executes a precomputed [`DistPlan`] over `fused`. The state's
    /// current qubit map must equal the map the plan was built from
    /// (asserted), so a plan is reusable across runs only when its final
    /// map equals its initial one; otherwise re-plan per run with
    /// [`DistPlan::from_map`] — or just call
    /// [`DistributedState::run`], which does exactly that.
    pub fn run_plan(&mut self, plan: &DistPlan, fused: &FusedCircuit, comm: &mut Comm) {
        assert_eq!(plan.op_count(), fused.ops().len(), "plan/circuit mismatch");
        assert_eq!(
            plan.geometry(),
            (self.n_qubits, self.n_local),
            "plan built for a different slice geometry"
        );
        assert_eq!(
            *plan.initial_map(),
            self.map,
            "plan assumes a different starting qubit map than the state's \
             current one (re-plan with DistPlan::from_map)"
        );
        for step in plan.steps() {
            match step {
                PlanStep::Remap(pairs) => self.remap(pairs, comm),
                PlanStep::Op(i) => self.apply_fused_op(&fused.ops()[*i], comm),
            }
        }
    }

    /// One planned op: single gates go through the structural per-gate
    /// path (with its exchange fallback), blocks through the fused local
    /// and diagonal-global appliers.
    fn apply_fused_op(&mut self, op: &FusedOp, comm: &mut Comm) {
        // Uncontrolled SWAPs are pure relabels on the planned path: the
        // map swap is the whole operation — zero bytes, zero sweeps.
        // (gather and later gate translation undo/consume the map.)
        if let Some((a, b)) = crate::plan::relabel_swap(op) {
            let (sa, sb) = (self.map.slot(a), self.map.slot(b));
            self.map.swap_slots(sa, sb);
            return;
        }
        match op {
            FusedOp::Gate(g) => self.apply_gate(g, comm, CommPolicy::Specialized),
            FusedOp::Block(b) => {
                let phys: Vec<usize> = b.qubits().iter().map(|&q| self.map.slot(q)).collect();
                if let Some(factors) = b.diagonal_factors() {
                    self.apply_diagonal_block(&phys, factors);
                } else if phys.iter().all(|&s| s < self.n_local) {
                    apply_block_at(&mut self.local, b, &phys);
                } else {
                    panic!(
                        "non-diagonal fused block on qubits {:?} cannot be localised \
                         (n_local = {}): fuse with a window ≤ n_local, e.g. via \
                         Circuit::fuse_within or DistributedState::run_circuit",
                        b.qubits(),
                        self.n_local
                    );
                }
            }
        }
    }

    /// Applies a diagonal fused block whose qubits may sit in global
    /// slots. Diagonals commute with the basis, so each rank reduces the
    /// 2ᵏ factor table by its own fixed global bits and scales only the
    /// selected local entries — no communication, the fused-block
    /// generalisation of the paper's diagonal-gate shortcut.
    fn apply_diagonal_block(&mut self, phys: &[usize], factors: &[C64]) {
        // (slot, block-bit) of the locally-stored block qubits, plus the
        // factor-index bits this rank's global coordinates pin.
        let mut local_bits: Vec<(usize, usize)> = Vec::new();
        let mut fixed = 0usize;
        for (j, &s) in phys.iter().enumerate() {
            if s < self.n_local {
                local_bits.push((s, j));
            } else if (self.rank >> (s - self.n_local)) & 1 == 1 {
                fixed |= 1 << j;
            }
        }
        if local_bits.is_empty() {
            let f = factors[fixed];
            if f != C64::ONE {
                for z in self.local.iter_mut() {
                    *z *= f;
                }
            }
            return;
        }
        local_bits.sort_unstable();
        let positions: Vec<usize> = local_bits.iter().map(|&(s, _)| s).collect();
        let reduced: Vec<C64> = (0..1usize << local_bits.len())
            .map(|w| {
                let mut v = fixed;
                for (t, &(_, j)) in local_bits.iter().enumerate() {
                    if (w >> t) & 1 == 1 {
                        v |= 1 << j;
                    }
                }
                factors[v]
            })
            .collect();
        apply_fused_diagonal(&mut self.local, 1, &positions, &reduced, PAR_THRESHOLD);
    }

    /// Executes one batched slot permutation: every `(a, b)` pair swaps
    /// the contents of physical slots `a` and `b`. Local↔local pairs are
    /// in-slice bit swaps (no communication); local↔global pairs combine
    /// into **one** all-to-all permutation over this rank's XOR-coset —
    /// each rank keeps the `2⁻ᵏ` of its slice that stays home and sends
    /// one compact chunk to each of the `2ᵏ − 1` coset partners, i.e.
    /// `(1 − 2⁻ᵏ)` of a slice in total, *less* than one full pairwise
    /// exchange. Global↔global pairs are rejected (the planner never
    /// emits them).
    pub fn remap(&mut self, pairs: &[(usize, usize)], comm: &mut Comm) {
        let mut mixed: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in pairs {
            let (l, g) = if a <= b { (a, b) } else { (b, a) };
            if g < self.n_local {
                kernels::apply_swap(&mut self.local, 1, l, g, &[], PAR_THRESHOLD);
                self.map.swap_slots(l, g);
            } else {
                assert!(
                    l < self.n_local,
                    "remap cannot swap two global slots ({a}, {b})"
                );
                mixed.push((l, g));
            }
        }
        if mixed.is_empty() {
            return;
        }
        // Ascending local positions (expand_index's precondition); the
        // (local, global) pairing travels with the sort.
        mixed.sort_unstable();
        debug_assert!(
            mixed.windows(2).all(|w| w[0].0 != w[1].0) && {
                let mut g: Vec<usize> = mixed.iter().map(|&(_, g)| g).collect();
                g.sort_unstable();
                g.windows(2).all(|w| w[0] != w[1])
            },
            "remap pairs must use distinct slots"
        );
        let k = mixed.len();
        let lpos: Vec<usize> = mixed.iter().map(|&(l, _)| l).collect();
        let gbit: Vec<usize> = mixed.iter().map(|&(_, g)| g - self.n_local).collect();
        // Pattern p ↔ the k swapped bits: bit t of p is slot lpos[t]
        // locally, rank bit gbit[t] globally.
        let scatter = |pat: usize| -> usize { kernels::scatter_index(pat, &lpos) };
        let rank_with = |pat: usize| -> usize {
            gbit.iter().enumerate().fold(self.rank, |r, (t, &b)| {
                (r & !(1usize << b)) | (((pat >> t) & 1) << b)
            })
        };
        let my_pat = gbit
            .iter()
            .enumerate()
            .fold(0usize, |acc, (t, &b)| acc | (((self.rank >> b) & 1) << t));
        let count = self.local.len() >> k;

        // Bucket `pat` holds the entries whose swapped-local bits read
        // `pat` (ascending free bits) — after the swap those bits select
        // the rank, so the bucket belongs wholesale to coset partner
        // `rank_with(pat)`. Bucket `my_pat` stays in place bit-for-bit.
        let mut outgoing: Vec<(usize, Vec<C64>)> = Vec::with_capacity((1 << k) - 1);
        for pat in 0..(1usize << k) {
            if pat == my_pat {
                continue;
            }
            let base = scatter(pat);
            let mut payload = Vec::with_capacity(count);
            for m in 0..count {
                payload.push(self.local[expand_index(m, &lpos) | base]);
            }
            outgoing.push((rank_with(pat), payload));
        }
        let received = comm.exchange_all(outgoing);
        for (src, payload) in received {
            // Data from partner `src` lands where the swapped-local bits
            // read the *sender's* global pattern.
            let src_pat = gbit
                .iter()
                .enumerate()
                .fold(0usize, |acc, (t, &b)| acc | (((src >> b) & 1) << t));
            let base = scatter(src_pat);
            debug_assert_eq!(payload.len(), count);
            for (m, amp) in payload.into_iter().enumerate() {
                self.local[expand_index(m, &lpos) | base] = amp;
            }
        }
        self.remaps += 1;
        for &(l, g) in &mixed {
            self.map.swap_slots(l, g);
        }
    }

    /// Places rank `r`'s slice into `full` at the *logical* indices —
    /// undoing the physical relabelling the qubit map records.
    fn assemble(&self, full: &mut [C64], r: usize, slice: &[C64]) {
        let start = r << self.n_local;
        if self.map.is_identity() {
            full[start..start + slice.len()].copy_from_slice(slice);
        } else {
            for (j, &a) in slice.iter().enumerate() {
                full[self.map.logical_index(start | j)] = a;
            }
        }
    }

    /// Gathers the full state on rank 0 (others return `None`), in
    /// logical qubit order regardless of any remaps performed. (Remaps
    /// are collective, so rank 0's map describes every slice.)
    pub fn gather(&self, comm: &mut Comm) -> Option<StateVector> {
        if self.p == 1 {
            if self.map.is_identity() {
                return Some(StateVector::from_amplitudes(self.local.clone()));
            }
            let mut full = vec![C64::ZERO; 1usize << self.n_qubits];
            self.assemble(&mut full, 0, &self.local);
            return Some(StateVector::from_amplitudes(full));
        }
        if self.rank == 0 {
            let mut full = vec![C64::ZERO; 1usize << self.n_qubits];
            self.assemble(&mut full, 0, &self.local);
            for r in 1..self.p {
                let slice = comm.recv(r);
                self.assemble(&mut full, r, &slice);
            }
            Some(StateVector::from_amplitudes(full))
        } else {
            comm.send(0, self.local.clone());
            None
        }
    }

    /// Local contribution to `‖ψ‖²` (sum over all ranks gives 1).
    pub fn local_norm_sqr(&self) -> f64 {
        self.local.iter().map(|z| z.norm_sqr()).sum()
    }
}

/// Applies a fused block to a node-local slice with its qubits at
/// arbitrary — not necessarily ascending — physical bit positions:
/// gathers each 2ᵏ group into a buffer in block-local order, applies the
/// block ([`FusedGate::apply_buffer`]), and scatters back. The qubit-order
/// freedom is what lets remapped layouts reuse fused blocks unchanged.
fn apply_block_at(slice: &mut [C64], block: &FusedGate, phys: &[usize]) {
    let k = phys.len();
    let dim = 1usize << k;
    let mut sorted = phys.to_vec();
    sorted.sort_unstable();
    debug_assert!(sorted.windows(2).all(|w| w[0] != w[1]));
    // offs[v]: slice offset of block-local index v (bit j → bit phys[j];
    // scatter_index places bits at arbitrary, not necessarily ascending,
    // positions).
    let offs: Vec<usize> = (0..dim).map(|v| kernels::scatter_index(v, phys)).collect();
    let mut buf = vec![C64::ZERO; dim];
    for g in 0..(slice.len() >> k) {
        let base = kernels::expand_index(g, &sorted);
        for (v, &off) in offs.iter().enumerate() {
            buf[v] = slice[base | off];
        }
        block.apply_buffer(&mut buf, 1);
        for (v, &off) in offs.iter().enumerate() {
            slice[base | off] = buf[v];
        }
    }
}

/// Multiplies entries whose local control bits are all 1 by `d`.
fn scale_selected(local: &mut [C64], local_controls: &[usize], d: C64) {
    if local_controls.is_empty() {
        for z in local.iter_mut() {
            *z *= d;
        }
    } else {
        let cmask = local_controls
            .iter()
            .fold(0usize, |acc, &c| acc | (1usize << c));
        for (j, z) in local.iter_mut().enumerate() {
            if j & cmask == cmask {
                *z *= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;
    use crate::model::MachineModel;
    use qcemu_linalg::random_state;
    use qcemu_sim::circuits::{entangle_circuit, qft_circuit, tfim_trotter_step, TfimParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `circuit` on `p` ranks under `policy` and checks the gathered
    /// state equals single-process simulation.
    fn check_distributed(circuit: &Circuit, n_qubits: usize, p: usize, policy: CommPolicy) {
        let mut rng = StdRng::seed_from_u64(7 + n_qubits as u64 + p as u64);
        let input = StateVector::from_amplitudes(random_state(1 << n_qubits, &mut rng));
        let mut expect = input.clone();
        expect.apply_circuit(circuit);

        let input_ref = &input;
        let results = run(p, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::from_full(input_ref, comm);
            ds.apply_circuit(circuit, comm, policy);
            ds.gather(comm)
        });
        let gathered = results[0].0.as_ref().expect("rank 0 gathers");
        assert!(
            gathered.max_diff_up_to_phase(&expect) < 1e-10,
            "distributed ≠ serial (n={n_qubits}, p={p}, {policy:?}): {}",
            gathered.max_diff_up_to_phase(&expect)
        );
    }

    #[test]
    fn zero_state_distribution() {
        let results = run(4, MachineModel::stampede(), |comm| {
            let ds = DistributedState::zero_state(6, comm);
            (ds.n_local_qubits(), ds.local_norm_sqr())
        });
        for (rank, ((n_local, norm), _)) in results.iter().enumerate() {
            assert_eq!(*n_local, 4);
            let expect = if rank == 0 { 1.0 } else { 0.0 };
            assert_eq!(*norm, expect);
        }
    }

    #[test]
    fn qft_distributed_matches_serial_all_policies() {
        let circuit = qft_circuit(8);
        for p in [1usize, 2, 4, 8] {
            check_distributed(&circuit, 8, p, CommPolicy::Specialized);
            check_distributed(&circuit, 8, p, CommPolicy::Generic);
        }
    }

    #[test]
    fn entangle_distributed_matches_serial() {
        let circuit = entangle_circuit(7);
        for p in [2usize, 4] {
            check_distributed(&circuit, 7, p, CommPolicy::Specialized);
            check_distributed(&circuit, 7, p, CommPolicy::Generic);
        }
    }

    #[test]
    fn tfim_distributed_matches_serial() {
        let circuit = tfim_trotter_step(6, TfimParams::default());
        check_distributed(&circuit, 6, 4, CommPolicy::Specialized);
        check_distributed(&circuit, 6, 4, CommPolicy::Generic);
    }

    #[test]
    fn global_swap_gate_works() {
        let mut c = Circuit::new(6);
        c.h(0).swap(0, 5).cnot(5, 2);
        check_distributed(&c, 6, 4, CommPolicy::Specialized);
    }

    #[test]
    fn diagonal_gates_need_no_communication_under_specialized_policy() {
        // A circuit of only diagonal gates on *global* qubits.
        let mut c = Circuit::new(6);
        c.rz(4, 0.3)
            .cphase(4, 5, 0.7)
            .z(5)
            .phase(4, 0.2)
            .cphase(0, 5, 0.9);
        let c = &c;
        let results = run(4, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::zero_state(6, comm);
            // Put some weight everywhere first, locally (H on local qubits
            // needs no comm either).
            for q in 0..4 {
                ds.apply_gate(&Gate::h(q), comm, CommPolicy::Specialized);
            }
            ds.apply_circuit(c, comm, CommPolicy::Specialized);
            (ds.exchange_count(), comm.bytes_sent())
        });
        for (rank, ((exchanges, bytes), _)) in results.iter().enumerate() {
            assert_eq!(*exchanges, 0, "rank {rank} exchanged");
            assert_eq!(*bytes, 0, "rank {rank} sent bytes");
        }
        // …and the same circuit under the generic policy must communicate.
        let results = run(4, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::zero_state(6, comm);
            ds.apply_circuit(c, comm, CommPolicy::Generic);
            ds.exchange_count()
        });
        for (exchanges, _) in &results {
            assert!(
                *exchanges > 0,
                "generic policy must exchange for global diagonals"
            );
        }
    }

    #[test]
    fn global_controls_cost_nothing() {
        // CNOT controlled by a global qubit that is |0⟩: no work, no comm.
        let results = run(2, MachineModel::stampede(), |comm| {
            let mut ds = DistributedState::zero_state(5, comm);
            ds.apply_gate(&Gate::cnot(4, 0), comm, CommPolicy::Specialized);
            (ds.exchange_count(), ds.gather(comm))
        });
        assert_eq!(results[0].0 .0, 0);
        let sv = results[0].0 .1.as_ref().unwrap();
        assert_eq!(sv.probability(0), 1.0, "state unchanged");
    }

    #[test]
    fn exchange_counts_differ_between_policies_on_qft() {
        // Fig. 4's mechanism: the QFT is mostly controlled phases, so on
        // global qubits the specialised simulator exchanges only for H (and
        // the final swaps), the generic one for everything.
        let n = 8;
        let circuit = qft_circuit(n);
        let circuit = &circuit;
        let count = |policy: CommPolicy| {
            let results = run(4, MachineModel::stampede(), move |comm| {
                let mut ds = DistributedState::zero_state(n, comm);
                ds.apply_circuit(circuit, comm, policy);
                ds.exchange_count()
            });
            results.iter().map(|r| r.0).max().unwrap()
        };
        let spec = count(CommPolicy::Specialized);
        let gen = count(CommPolicy::Generic);
        assert!(
            spec < gen,
            "specialised exchanges ({spec}) must be fewer than generic ({gen})"
        );
    }

    /// Runs a fused `circuit` on `p` ranks through the planned
    /// (remap + fusion) path and checks the gathered state against serial
    /// execution.
    fn check_planned(circuit: &Circuit, n_qubits: usize, p: usize, fusion: FusionPolicy) {
        let mut rng = StdRng::seed_from_u64(40 + n_qubits as u64 + p as u64);
        let input = StateVector::from_amplitudes(random_state(1 << n_qubits, &mut rng));
        let mut expect = input.clone();
        expect.apply_circuit(circuit);

        let input_ref = &input;
        let results = run(p, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::from_full(input_ref, comm);
            ds.run_circuit(circuit, &fusion, comm);
            (ds.gather(comm), ds.remap_count())
        });
        let gathered = results[0].0 .0.as_ref().expect("rank 0 gathers");
        assert!(
            gathered.max_diff_up_to_phase(&expect) < 1e-12,
            "planned ≠ serial (n={n_qubits}, p={p}, {fusion:?}): {}",
            gathered.max_diff_up_to_phase(&expect)
        );
    }

    #[test]
    fn planned_qft_matches_serial_with_and_without_fusion() {
        let circuit = qft_circuit(8);
        for p in [1usize, 2, 4, 8] {
            check_planned(&circuit, 8, p, FusionPolicy::Disabled);
            check_planned(&circuit, 8, p, FusionPolicy::greedy());
        }
    }

    #[test]
    fn planned_entangle_and_tfim_match_serial() {
        let entangle = entangle_circuit(7);
        let tfim = tfim_trotter_step(6, TfimParams::default());
        for p in [2usize, 4, 8] {
            check_planned(&entangle, 7, p, FusionPolicy::Disabled);
            check_planned(&entangle, 7, p, FusionPolicy::greedy());
            check_planned(&tfim, 6, p, FusionPolicy::Disabled);
            check_planned(&tfim, 6, p, FusionPolicy::greedy());
        }
    }

    #[test]
    fn repeated_runs_replan_from_the_live_map() {
        // A second run on the same state must plan from the map the first
        // run left behind (planning from the identity used to panic on
        // "cannot be localised" and would compute wrong amplitudes).
        let n = 8;
        let circuit = qft_circuit(n);
        let circuit = &circuit;
        let mut expect = StateVector::zero_state(n);
        expect.apply_circuit(circuit);
        expect.apply_circuit(circuit);
        for p in [2usize, 4, 8] {
            let results = run(p, MachineModel::stampede(), move |comm| {
                let mut ds = DistributedState::zero_state(n, comm);
                ds.run_circuit(circuit, &FusionPolicy::greedy(), comm);
                ds.run_circuit(circuit, &FusionPolicy::greedy(), comm);
                ds.gather(comm)
            });
            let gathered = results[0].0.as_ref().unwrap();
            assert!(
                gathered.max_diff_up_to_phase(&expect) < 1e-12,
                "P = {p}: double run diverges"
            );
        }
    }

    #[test]
    fn uncontrolled_swaps_are_free_relabels_on_the_planned_path() {
        // A circuit ending in a SWAP network: on the planned path the
        // swaps must cost zero bytes beyond the Hadamard remap.
        let n = 8;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for i in 0..n / 2 {
            c.swap(i, n - 1 - i);
        }
        let c = &c;
        let results = run(4, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::zero_state(n, comm);
            // Hadamards on local qubits are free; only the two global
            // ones force one remap. The swaps must add nothing.
            ds.run_circuit(c, &FusionPolicy::Disabled, comm);
            (comm.bytes_sent(), ds.remap_count(), ds.gather(comm))
        });
        let slice_bytes = (1u64 << (n - 2)) * 16;
        for (rank, ((bytes, remaps, _), _)) in results.iter().enumerate() {
            assert_eq!(*remaps, 1, "rank {rank}: one remap for the global Hs");
            assert_eq!(
                *bytes,
                slice_bytes * 3 / 4,
                "rank {rank}: swaps must ship no bytes"
            );
        }
        let mut expect = StateVector::zero_state(n);
        expect.apply_circuit(&{
            let mut c2 = Circuit::new(n);
            for q in 0..n {
                c2.h(q);
            }
            for i in 0..n / 2 {
                c2.swap(i, n - 1 - i);
            }
            c2
        });
        let gathered = results[0].0 .2.as_ref().unwrap();
        assert!(gathered.max_diff_up_to_phase(&expect) < 1e-12);
    }

    #[test]
    fn remap_moves_slots_and_roundtrips() {
        // Swap local slot 0 with global slot 5 on P = 4, then swap back:
        // the state must be bitwise restored and the map identity again.
        let mut rng = StdRng::seed_from_u64(57);
        let input = StateVector::from_amplitudes(random_state(64, &mut rng));
        let input_ref = &input;
        let results = run(4, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::from_full(input_ref, comm);
            ds.remap(&[(0, 5)], comm);
            let mid_identity = ds.qubit_map().is_identity();
            // While remapped, the gathered state must equal the original
            // (the permutation is layout-only, undone by gather).
            let mid = ds.gather(comm);
            ds.remap(&[(0, 5)], comm);
            (
                mid_identity,
                mid,
                ds.qubit_map().is_identity(),
                ds.gather(comm),
                ds.remap_count(),
            )
        });
        let (mid_identity, mid, back_identity, fin, remaps) = &results[0].0;
        assert!(!mid_identity);
        assert!(*back_identity);
        assert_eq!(*remaps, 2);
        assert!(mid.as_ref().unwrap().max_diff_up_to_phase(&input) < 1e-15);
        assert!(fin.as_ref().unwrap().max_diff_up_to_phase(&input) < 1e-15);
    }

    #[test]
    fn remap_batch_costs_less_than_one_exchange() {
        // A 2-pair remap on P = 4 moves 3/4 of each slice; a single
        // global-target exchange moves the whole slice.
        let n = 8;
        let results = run(4, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::zero_state(n, comm);
            ds.remap(&[(0, 6), (1, 7)], comm);
            comm.bytes_sent()
        });
        let slice_bytes = (1u64 << (n - 2)) * 16;
        for (bytes, _) in &results {
            assert_eq!(*bytes, slice_bytes * 3 / 4, "remap must ship 3/4 slice");
            assert!(*bytes < slice_bytes);
        }
    }

    #[test]
    fn planned_qft_sends_fewer_bytes_than_per_gate() {
        // The tentpole claim at executed scale: remap(+fusion) beats the
        // per-gate exchange path on bytes for the Fig. 4 QFT workload.
        let n = 10;
        let circuit = qft_circuit(n);
        let circuit = &circuit;
        for p in [2usize, 4, 8] {
            let bytes = |mode: usize| {
                let results = run(p, MachineModel::stampede(), move |comm| {
                    let mut ds = DistributedState::zero_state(n, comm);
                    match mode {
                        0 => ds.apply_circuit(circuit, comm, CommPolicy::Specialized),
                        1 => ds.run_circuit(circuit, &FusionPolicy::Disabled, comm),
                        _ => ds.run_circuit(circuit, &FusionPolicy::greedy(), comm),
                    }
                    comm.bytes_sent()
                });
                results.iter().map(|r| r.0).sum::<u64>()
            };
            let per_gate = bytes(0);
            let remap = bytes(1);
            let remap_fused = bytes(2);
            assert!(
                remap < per_gate,
                "P={p}: remap ({remap}) must beat per-gate ({per_gate})"
            );
            assert!(
                remap_fused < per_gate,
                "P={p}: remap+fusion ({remap_fused}) must beat per-gate ({per_gate})"
            );
        }
    }

    #[test]
    fn controlled_global_gate_ships_only_selected_entries() {
        // A controlled-H with a global target and one *local* control
        // must exchange half a slice, not a whole one.
        let n = 6;
        let results = run(2, MachineModel::stampede(), move |comm| {
            let mut ds = DistributedState::zero_state(n, comm);
            for q in 0..n - 1 {
                ds.apply_gate(&Gate::h(q), comm, CommPolicy::Specialized);
            }
            let before = comm.bytes_sent();
            ds.apply_gate(
                &Gate::controlled(qcemu_sim::GateOp::H, 0, n - 1),
                comm,
                CommPolicy::Specialized,
            );
            (comm.bytes_sent() - before, ds.gather(comm))
        });
        let slice_bytes = (1u64 << (n - 1)) * 16;
        for (rank, ((bytes, _), _)) in results.iter().enumerate() {
            assert_eq!(
                *bytes,
                slice_bytes / 2,
                "rank {rank} must ship only the control-selected half"
            );
        }
        // And the result still matches serial execution.
        let mut expect = StateVector::zero_state(n);
        for q in 0..n - 1 {
            expect.apply(&Gate::h(q));
        }
        expect.apply(&Gate::controlled(qcemu_sim::GateOp::H, 0, n - 1));
        let gathered = results[0].0 .1.as_ref().unwrap();
        assert!(gathered.max_diff_up_to_phase(&expect) < 1e-12);
    }

    #[test]
    fn from_full_and_gather_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        let input = StateVector::from_amplitudes(random_state(64, &mut rng));
        let input_ref = &input;
        let results = run(8, MachineModel::stampede(), move |comm| {
            let ds = DistributedState::from_full(input_ref, comm);
            ds.gather(comm)
        });
        let sv = results[0].0.as_ref().unwrap();
        assert!(sv.max_diff_up_to_phase(&input) < 1e-15);
    }
}
