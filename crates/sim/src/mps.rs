//! Bond-dimension-truncated matrix-product-state simulation — the
//! compressed backend that breaks the 2ⁿ wall for low-entanglement
//! circuits.
//!
//! Every dense backend in this workspace pays Θ(2ⁿ) memory and traffic
//! per sweep. An MPS factors the wave function into one rank-3 tensor
//! per qubit, `ψ(q₀…q_{n−1}) = A₀[q₀]·A₁[q₁]···A_{n−1}[q_{n−1}]`, whose
//! inner ("bond") dimensions χ grow only with the entanglement the
//! circuit actually creates. A single-qubit gate is a local contraction
//! (O(χ²)); a two-qubit gate on adjacent sites contracts the two tensors
//! into a 4χ²-entry block, applies the 4×4 gate, and splits it back by
//! SVD (O(χ³)), truncating the bond to `max_bond` and accumulating the
//! discarded weight into an auditable [`MpsState::truncation_error`].
//! Non-adjacent pairs are routed through SWAP chains; gates with two or
//! more controls lower through [`decompose_gate`] first.
//!
//! The state is kept in *mixed-canonical form*: sites left of the
//! orthogonality `center` satisfy the left isometry condition, sites
//! right of it the right one, so the local SVD truncation at the center
//! is the globally optimal rank-χ approximation. Unitary single-qubit
//! gates preserve canonicality and need no center movement; two-site
//! updates move the center with trim-only SVDs (never truncating).
//!
//! `GHZ`, line-QAOA, and banded-QFT circuits hold χ ∈ O(1)…O(poly) and
//! run at n = 40+ in milliseconds where a dense state vector would need
//! 16 TiB. The planner prices this χ-law via [`estimate_mps_cost`] and
//! routes low-entanglement ops here (`Backend::SimulateMps`), falling
//! back to dense when the predicted χ blows past `max_bond`.
//!
//! The dense↔MPS boundary streams. [`MpsState::from_statevector`] reads
//! the state in place: one Gram pass over it, then per site one pass that
//! writes the next (shrinking) carry and sums that carry's Gram matrix as
//! it goes — for a product state ≈ 3 reads and 1 write of the state in
//! all; a bond-1 split runs on the `simd::pair_gram` / `pair_combine`
//! primitives. [`MpsState::write_into`] is one write of every amplitude.
//! At n = 17 (2 MiB, |0…0⟩) on a 2-core Xeon that measured 2.0–2.4 and
//! 0.8–1.1 streamed copies of the state (`mps_ablation`, section 4).

use crate::circuit::Circuit;
use crate::decompose::decompose_gate;
use crate::gate::{Gate, GateOp, GateStructure};
use crate::kernels::PAR_THRESHOLD;
use crate::statevector::StateVector;
use qcemu_linalg::{gemm, gemm_slices_with, simd, svd, CMatrix, Svd, C64};
use rand::Rng;
use rayon::prelude::*;

/// Default bond-dimension cap: χ = 64 stores a 40-qubit low-entanglement
/// state in ~5 MB and keeps every ≤12-qubit state *exact* (2^⌊12/2⌋ = 64),
/// which is what lets the hybrid planner route small-n ops here without a
/// correctness risk.
pub const DEFAULT_MAX_BOND: usize = 64;

/// Accumulated truncation error at or below this threshold certifies an
/// *exact* compressed run: forced truncations contribute at least
/// (REL_TRIM·σ_max)² of relative weight each, so anything smaller is
/// numerical-noise trimming. Execution paths that attempt a compressed
/// run audit against this and fall back to dense sweeps when exceeded.
pub const MPS_EXACT_TOL: f64 = 1e-24;

/// Singular values at or below this fraction of σ_max are numerical noise
/// and are trimmed without counting toward the truncation error.
const REL_TRIM: f64 = 1e-14;

/// A wave function in matrix-product form with bond dimensions capped at
/// `max_bond`. Site `i` carries qubit `i` (little-endian, matching
/// [`StateVector`]) as a `(χᵢ × 2 × χᵢ₊₁)` tensor stored row-major with
/// index `(l·2 + q)·χᵢ₊₁ + r`.
#[derive(Clone, Debug)]
pub struct MpsState {
    n: usize,
    sites: Vec<Vec<C64>>,
    /// `n + 1` bond dimensions; `bonds[0] = bonds[n] = 1`.
    bonds: Vec<usize>,
    /// Orthogonality center: sites `< center` are left-canonical, sites
    /// `> center` right-canonical.
    center: usize,
    max_bond: usize,
    trunc_error: f64,
}

impl MpsState {
    /// `|0…0⟩` as a product state (all bonds = 1).
    pub fn zero_state(n: usize, max_bond: usize) -> MpsState {
        MpsState::basis_state(n, 0, max_bond)
    }

    /// Computational basis state `|index⟩` as a product state.
    pub fn basis_state(n: usize, index: usize, max_bond: usize) -> MpsState {
        assert!(n >= 1, "MPS needs at least one site");
        assert!(max_bond >= 1, "max_bond must be at least 1");
        assert!(index < (1usize << n.min(63)), "basis index out of range");
        let sites = (0..n)
            .map(|q| {
                let bit = (index >> q) & 1;
                let mut t = vec![C64::ZERO; 2];
                t[bit] = C64::ONE;
                t
            })
            .collect();
        MpsState {
            n,
            sites,
            bonds: vec![1; n + 1],
            center: 0,
            max_bond,
            trunc_error: 0.0,
        }
    }

    /// Factors a dense state into MPS form by a left-to-right sweep of
    /// splits. Bonds are capped at `max_bond`; any weight that cap
    /// discards is recorded in [`truncation_error`](Self::truncation_error),
    /// so an exact import reads back as `truncation_error() == 0`.
    ///
    /// Passes: one over `sv`'s amplitudes, read in place, sums site 0's
    /// 2χ×2χ Gram matrix; then each wide split is one pass over its carry
    /// (the unsplit part of ψ) that writes the next carry into one of two
    /// reused buffers and sums the next site's Gram matrix from what it
    /// has just written. A product state's carries halve per site, so its
    /// import reads ≈ 3 and writes ≈ 1 state's worth. The passes run on
    /// the pool above [`PAR_THRESHOLD`] entries, over fixed chunks whose
    /// partial Grams are summed in chunk order, so the result is
    /// bit-identical on every pool size.
    pub fn from_statevector(sv: &StateVector, max_bond: usize) -> MpsState {
        let n = sv.n_qubits().max(1);
        let mut mps = MpsState::zero_state(n, max_bond);
        if sv.n_qubits() == 0 {
            return mps;
        }
        let mut trunc = 0.0;
        // The carry holds one χ-vector per value of the unsplit qubits,
        // `carry[col·χ + l]`, the current qubit being the low bit of `col`.
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        let mut chi = 1usize;
        let amps = sv.amplitudes();
        let mut gram = gram_split(2, amps.len() / 2).then(|| carry_gram(amps, 2));
        for site in 0..n - 1 {
            let carry = if site == 0 { amps } else { &cur[..] };
            let (u, k, g) = split_carry(carry, chi, gram, max_bond, &mut trunc, &mut next);
            mps.sites[site] = u; // (χ·2 × k) row-major == (χ,2,k)
            mps.bonds[site + 1] = k;
            std::mem::swap(&mut cur, &mut next);
            (chi, gram) = (k, g);
        }
        let carry = if n == 1 { amps } else { &cur[..] };
        mps.sites[n - 1] = (0..2 * chi).map(|i| carry[(i % 2) * chi + i / 2]).collect();
        mps.center = n - 1;
        mps.trunc_error = trunc;
        mps
    }

    /// Number of qubits (sites).
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The configured bond-dimension cap.
    pub fn max_bond(&self) -> usize {
        self.max_bond
    }

    /// Current bond dimensions (`n + 1` entries, outer bonds = 1).
    pub fn bond_dims(&self) -> &[usize] {
        &self.bonds
    }

    /// Largest current bond dimension.
    pub fn peak_bond(&self) -> usize {
        self.bonds.iter().copied().max().unwrap_or(1)
    }

    /// Accumulated *relative* weight discarded by bond-cap truncations
    /// (Σ of discarded-σ² / total-σ² over every truncating split). Zero
    /// means the run was exact up to floating-point rounding; the planner
    /// uses this to audit compressed execution and trigger dense
    /// fallback.
    pub fn truncation_error(&self) -> f64 {
        self.trunc_error
    }

    /// `‖ψ‖²` by environment contraction (no densification).
    pub fn norm_sqr(&self) -> f64 {
        let mut env = vec![C64::ONE]; // 1×1
        let mut chi = 1usize;
        for i in 0..self.n {
            let dr = self.bonds[i + 1];
            env = advance_left_env(&env, chi, &self.sites[i], dr);
            chi = dr;
        }
        env[0].re.max(0.0)
    }

    /// Applies one gate, lowering multi-controlled forms as needed.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match gate {
            Gate::Unary {
                op,
                target,
                controls,
            } if controls.is_empty() => self.apply_one_site(*target, op),
            Gate::Unary {
                op,
                target,
                controls,
            } if controls.len() == 1 => {
                let (c, t) = (controls[0], *target);
                let g = op.matrix();
                let (a, b) = (c.min(t), c.max(t));
                // Build the 4×4 in the (low site, high site) basis
                // b₂ = p + 2q: controlled-G with the control on either leg.
                let u4 = controlled_two_site(&g, c > t);
                self.apply_two_qubit(a, b, &u4);
            }
            Gate::Swap { a, b, controls } if controls.is_empty() => {
                self.apply_two_qubit((*a).min(*b), (*a).max(*b), &swap4());
            }
            other => {
                for g in decompose_gate(other) {
                    self.apply_gate(&g);
                }
            }
        }
    }

    /// Runs a whole circuit. Like a dense run, a circuit narrower than
    /// the state acts on its low qubits.
    pub fn run(&mut self, circuit: &Circuit) {
        assert!(
            circuit.n_qubits() <= self.n,
            "circuit needs {} qubits, MPS has {}",
            circuit.n_qubits(),
            self.n
        );
        for g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// Densifies to a fresh state vector (guarded: 2ⁿ amplitudes); see
    /// [`write_into`](Self::write_into).
    pub fn to_statevector(&self) -> StateVector {
        assert!(
            self.n <= 30,
            "to_statevector would allocate 2^{} amps",
            self.n
        );
        let mut sv = StateVector::from_amplitudes(vec![C64::ZERO; 1 << self.n]);
        self.write_into(&mut sv);
        sv
    }

    /// Densifies into `out`, overwriting every amplitude in one streamed
    /// write. The sites below the middle cut `h` contract into
    /// `L (χ_h × 2^h)`, those above it into `R (2^{n−h} × χ_h)`, both
    /// ≈ √(2ⁿ)·χ entries, and `out[hi·2^h + lo] = Σ_c R[hi,c]·L[c,lo]` is
    /// written as an outer product when χ_h = 1 and by a GEMM otherwise.
    ///
    /// # Panics
    ///
    /// If `out` does not have this state's qubit count.
    pub fn write_into(&self, out: &mut StateVector) {
        assert_eq!(
            out.n_qubits(),
            self.n,
            "write_into needs a {}-qubit state",
            self.n
        );
        let h = self.n / 2;
        let chi = self.bonds[h];
        let (l, r) = (self.contract_below(h), self.contract_above(h));
        let amps = out.amplitudes_mut();
        let low = 1usize << h;
        let par = amps.len() >= PAR_THRESHOLD;
        if chi == 1 {
            let row = |(hi, dst): (usize, &mut [C64])| {
                for (d, &x) in dst.iter_mut().zip(&l) {
                    *d = r[hi] * x;
                }
            };
            if par {
                amps.par_chunks_mut(low).enumerate().for_each(row);
            } else {
                amps.chunks_mut(low).enumerate().for_each(row);
            }
        } else {
            let par_threshold = if par { 0 } else { usize::MAX };
            let high = amps.len() / low;
            gemm_slices_with(&r, &l, amps, (high, chi, low), par_threshold);
        }
    }

    /// Sites `0..h` contracted into `L[c·2^h + lo]`, `c` the open bond
    /// `h` and `lo` the value of qubits `0..h`.
    fn contract_below(&self, h: usize) -> Vec<C64> {
        let mut l = vec![C64::ONE];
        for site in 0..h {
            let dr = self.bonds[site + 1];
            let (a, width) = (&self.sites[site], 1usize << site);
            let mut next = vec![C64::ZERO; dr * 2 * width];
            for (b, src) in l.chunks_exact(width).enumerate() {
                for q in 0..2 {
                    for c in 0..dr {
                        let x = a[(b * 2 + q) * dr + c];
                        if x == C64::ZERO {
                            continue;
                        }
                        let dst = &mut next[(2 * c + q) * width..][..width];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = x.mul_add(s, *d);
                        }
                    }
                }
            }
            l = next;
        }
        l
    }

    /// Sites `h..n` contracted into `R[hi·χ_h + c]`, `hi` the value of
    /// qubits `h..n` (qubit `h` lowest) and `c` the open bond `h`.
    fn contract_above(&self, h: usize) -> Vec<C64> {
        let mut r = vec![C64::ONE];
        for site in (h..self.n).rev() {
            let (dl, dr) = (self.bonds[site], self.bonds[site + 1]);
            let a = &self.sites[site];
            let mut next = vec![C64::ZERO; r.len() / dr * 2 * dl];
            for (dst, (hi, q)) in next
                .chunks_exact_mut(dl)
                .zip((0..r.len() / dr).flat_map(|hi| [(hi, 0), (hi, 1)]))
            {
                let src = &r[hi * dr..][..dr];
                for (b, d) in dst.iter_mut().enumerate() {
                    let row = &a[(b * 2 + q) * dr..][..dr];
                    *d = row
                        .iter()
                        .zip(src)
                        .fold(C64::ZERO, |acc, (&x, &s)| x.mul_add(s, acc));
                }
            }
            r = next;
        }
        r
    }

    /// Draws `shots` basis-state samples **without densifying**, by
    /// conditional bit descent from the most significant qubit: one
    /// uniform draw per shot (mirroring [`crate::measure::sample_shots`]'s
    /// draw pattern), then n conditional-marginal contractions of O(χ²).
    pub fn sample_shots(&self, shots: usize, rng: &mut impl Rng) -> Vec<usize> {
        // Left environments L_i[l,l'] = Σ_{prefix} u_l ū_{l'} for prefixes
        // over qubits < i; O(n·χ³) once, reused by every shot.
        let mut envs: Vec<Vec<C64>> = Vec::with_capacity(self.n + 1);
        envs.push(vec![C64::ONE]);
        for i in 0..self.n {
            let e = advance_left_env(&envs[i], self.bonds[i], &self.sites[i], self.bonds[i + 1]);
            envs.push(e);
        }
        let total = envs[self.n][0].re.max(0.0);
        (0..shots)
            .map(|_| {
                let r: f64 = rng.gen::<f64>() * total;
                self.descend(r, &envs)
            })
            .collect()
    }

    /// One conditional-descent sample: walk qubits n−1 → 0, at each site
    /// comparing the draw against the cumulative mass of the `bit = 0`
    /// branch — the hierarchical equivalent of the dense CDF scan.
    fn descend(&self, r: f64, envs: &[Vec<C64>]) -> usize {
        let mut idx = 0usize;
        let mut base = 0.0;
        let mut w = vec![C64::ONE]; // suffix vector, starts 1×1
        for i in (0..self.n).rev() {
            let (dl, dr) = (self.bonds[i], self.bonds[i + 1]);
            let a = &self.sites[i];
            let mut v = [vec![C64::ZERO; dl], vec![C64::ZERO; dl]];
            let mut mass = [0.0f64; 2];
            for b in 0..2 {
                for l in 0..dl {
                    let mut acc = C64::ZERO;
                    for (m, &wm) in w.iter().enumerate().take(dr) {
                        acc += a[(l * 2 + b) * dr + m] * wm;
                    }
                    v[b][l] = acc;
                }
                // mass = Σ_{l,l'} L[l,l'] v_l v̄_{l'}  (real, ≥ 0 up to FP)
                let env = &envs[i];
                let mut p = C64::ZERO;
                for l in 0..dl {
                    for lp in 0..dl {
                        p += env[l * dl + lp] * v[b][l] * v[b][lp].conj();
                    }
                }
                mass[b] = p.re.max(0.0);
            }
            let bit = if mass[0] > 0.0 && r < base + mass[0] {
                0
            } else if mass[1] > 0.0 {
                1
            } else {
                usize::from(mass[0] <= 0.0)
            };
            if bit == 1 {
                base += mass[0];
                idx |= 1 << i;
            }
            w = std::mem::take(&mut v[bit]);
        }
        idx
    }

    // ---- gate application internals ----

    /// Single-site gate: local contraction, O(χ²); diagonal and X fast
    /// paths avoid the 2×2 mix entirely. Unitarity preserves the
    /// canonical structure, so no center movement is needed.
    fn apply_one_site(&mut self, t: usize, op: &GateOp) {
        assert!(t < self.n, "target {t} out of range");
        let dr = self.bonds[t + 1];
        let site = &mut self.sites[t];
        match op.structure() {
            GateStructure::Diagonal(d0, d1) => {
                for l in 0..self.bonds[t] {
                    for r in 0..dr {
                        site[(l * 2) * dr + r] *= d0;
                        site[(l * 2 + 1) * dr + r] *= d1;
                    }
                }
            }
            GateStructure::PermutationX => {
                for l in 0..self.bonds[t] {
                    for r in 0..dr {
                        site.swap((l * 2) * dr + r, (l * 2 + 1) * dr + r);
                    }
                }
            }
            GateStructure::General(m) => {
                for l in 0..self.bonds[t] {
                    for r in 0..dr {
                        let v0 = site[(l * 2) * dr + r];
                        let v1 = site[(l * 2 + 1) * dr + r];
                        site[(l * 2) * dr + r] = m[0][0] * v0 + m[0][1] * v1;
                        site[(l * 2 + 1) * dr + r] = m[1][0] * v0 + m[1][1] * v1;
                    }
                }
            }
        }
    }

    /// Two-qubit gate on arbitrary `a < b`: route `b` next to `a` with a
    /// SWAP chain, apply the 4×4 on the adjacent pair, route back.
    fn apply_two_qubit(&mut self, a: usize, b: usize, u4: &[[C64; 4]; 4]) {
        assert!(a < b && b < self.n, "bad qubit pair ({a}, {b})");
        for j in ((a + 1)..b).rev() {
            self.apply_two_site(j, &swap4());
        }
        self.apply_two_site(a, u4);
        for j in (a + 1)..b {
            self.apply_two_site(j, &swap4());
        }
    }

    /// Adjacent two-site gate on (i, i+1): contract θ, apply the 4×4,
    /// split by SVD, truncate the new bond to `max_bond`.
    #[allow(clippy::needless_range_loop)] // (l, b', b, r) index arithmetic is the kernel
    fn apply_two_site(&mut self, i: usize, u4: &[[C64; 4]; 4]) {
        self.move_center_into(i);
        let (dl, dm, dr) = (self.bonds[i], self.bonds[i + 1], self.bonds[i + 2]);
        let (ai, aj) = (&self.sites[i], &self.sites[i + 1]);
        // θ[l, b₂, r] with b₂ = p + 2q (p on site i), then the gate.
        let mut theta = vec![C64::ZERO; dl * 4 * dr];
        for l in 0..dl {
            for p in 0..2 {
                for m in 0..dm {
                    let x = ai[(l * 2 + p) * dm + m];
                    if x == C64::ZERO {
                        continue;
                    }
                    for q in 0..2 {
                        let dst = (l * 4 + p + 2 * q) * dr;
                        let src = (m * 2 + q) * dr;
                        for r in 0..dr {
                            theta[dst + r] += x * aj[src + r];
                        }
                    }
                }
            }
        }
        let mut rotated = vec![C64::ZERO; dl * 4 * dr];
        for l in 0..dl {
            for bp in 0..4 {
                let dst = (l * 4 + bp) * dr;
                for b in 0..4 {
                    let g = u4[bp][b];
                    if g == C64::ZERO {
                        continue;
                    }
                    let src = (l * 4 + b) * dr;
                    for r in 0..dr {
                        rotated[dst + r] += g * theta[src + r];
                    }
                }
            }
        }
        // Reshape to (2χ_l × 2χ_r) and split.
        let m = CMatrix::from_fn(dl * 2, 2 * dr, |row, col| {
            let (l, p) = (row / 2, row % 2);
            let (q, r) = (col / dr, col % dr);
            rotated[(l * 4 + p + 2 * q) * dr + r]
        });
        let (u, sw, k) = split_truncate(&m, self.max_bond, &mut self.trunc_error);
        self.sites[i] = u.into_vec();
        let swv = sw.into_vec(); // (k × 2χ_r): columns are (q, r)
        let mut right = vec![C64::ZERO; k * 2 * dr];
        for (kk, row) in swv.chunks_exact(2 * dr).enumerate() {
            for q in 0..2 {
                right[(kk * 2 + q) * dr..(kk * 2 + q + 1) * dr]
                    .copy_from_slice(&row[q * dr..(q + 1) * dr]);
            }
        }
        self.sites[i + 1] = right;
        self.bonds[i + 1] = k;
        self.center = i + 1;
    }

    /// Moves the orthogonality center into `{i, i+1}`.
    fn move_center_into(&mut self, i: usize) {
        while self.center < i {
            self.move_center_right();
        }
        while self.center > i + 1 {
            self.move_center_left();
        }
    }

    /// Center i → i+1: split site i as a (2χ_l × χ_r) matrix, keep the
    /// isometry, absorb S·Vᴴ into the right neighbour. Trim-only (no cap).
    fn move_center_right(&mut self) {
        let i = self.center;
        let (dl, dr) = (self.bonds[i], self.bonds[i + 1]);
        let m = CMatrix::from_fn(dl * 2, dr, |row, col| self.sites[i][row * dr + col]);
        let mut sink = 0.0;
        let (u, sw, k) = split_truncate(&m, usize::MAX, &mut sink);
        self.sites[i] = u.into_vec();
        let carry = sw; // (k × χ_r)
        let dr2 = self.bonds[i + 2];
        let old = &self.sites[i + 1];
        let mut next = vec![C64::ZERO; k * 2 * dr2];
        for kk in 0..k {
            for (mm, &c) in carry.row(kk).iter().enumerate() {
                if c == C64::ZERO {
                    continue;
                }
                for q in 0..2 {
                    let dst = (kk * 2 + q) * dr2;
                    let src = (mm * 2 + q) * dr2;
                    for r in 0..dr2 {
                        next[dst + r] += c * old[src + r];
                    }
                }
            }
        }
        self.sites[i + 1] = next;
        self.bonds[i + 1] = k;
        self.center = i + 1;
    }

    /// Center i → i−1, mirror of [`move_center_right`](Self::move_center_right).
    fn move_center_left(&mut self) {
        let i = self.center;
        let (dl, dr) = (self.bonds[i], self.bonds[i + 1]);
        let m = CMatrix::from_fn(dl, 2 * dr, |row, col| {
            let (p, r) = (col / dr, col % dr);
            self.sites[i][(row * 2 + p) * dr + r]
        });
        let mut sink = 0.0;
        // Adjoint split: keep the right isometry (Vᴴ), absorb U·S left.
        let f = fast_svd(&m);
        let k = kept_rank(&f.s, usize::MAX, &mut sink);
        let mut site = vec![C64::ZERO; k * 2 * dr];
        for kk in 0..k {
            for col in 0..2 * dr {
                let (p, r) = (col / dr, col % dr);
                site[(kk * 2 + p) * dr + r] = f.vt[(kk, col)];
            }
        }
        self.sites[i] = site;
        let dl0 = self.bonds[i - 1];
        let old = &self.sites[i - 1];
        let mut prev = vec![C64::ZERO; dl0 * 2 * k];
        for l in 0..dl0 {
            for p in 0..2 {
                let src = (l * 2 + p) * dl;
                let dst = (l * 2 + p) * k;
                for kk in 0..k {
                    let mut acc = C64::ZERO;
                    for mm in 0..dl {
                        acc += old[src + mm] * f.u[(mm, kk)].scale(f.s[kk]);
                    }
                    prev[dst + kk] = acc;
                }
            }
        }
        self.sites[i - 1] = prev;
        self.bonds[i] = k;
        self.center = i - 1;
    }
}

/// Advances a left environment across one site:
/// `L'[r,r'] = Σ_{q,l,l'} L[l,l'] A[l,q,r] Ā[l',q,r']`.
fn advance_left_env(env: &[C64], dl: usize, site: &[C64], dr: usize) -> Vec<C64> {
    // Two-step contraction, O(χ³): B[l', q, r] = Σ_l L[l,l'] ... done as
    // B[(l'·2+q)·dr + r] = Σ_l env[l·dl + l'] · A[(l·2+q)·dr + r].
    let mut b = vec![C64::ZERO; dl * 2 * dr];
    for l in 0..dl {
        for lp in 0..dl {
            let e = env[l * dl + lp];
            if e == C64::ZERO {
                continue;
            }
            for q in 0..2 {
                let src = (l * 2 + q) * dr;
                let dst = (lp * 2 + q) * dr;
                for r in 0..dr {
                    b[dst + r] += e * site[src + r];
                }
            }
        }
    }
    let mut out = vec![C64::ZERO; dr * dr];
    for lp in 0..dl {
        for q in 0..2 {
            let row = &b[(lp * 2 + q) * dr..(lp * 2 + q + 1) * dr];
            let arow = &site[(lp * 2 + q) * dr..(lp * 2 + q + 1) * dr];
            for (r, &br) in row.iter().enumerate() {
                if br == C64::ZERO {
                    continue;
                }
                for (rp, &ar) in arow.iter().enumerate() {
                    out[r * dr + rp] += br * ar.conj();
                }
            }
        }
    }
    out
}

/// The SWAP gate as a 4×4 in the `b₂ = p + 2q` two-site basis.
fn swap4() -> [[C64; 4]; 4] {
    let mut u = [[C64::ZERO; 4]; 4];
    u[0][0] = C64::ONE;
    u[1][2] = C64::ONE;
    u[2][1] = C64::ONE;
    u[3][3] = C64::ONE;
    u
}

/// Controlled-G as a 4×4 two-site matrix. `control_high` says whether the
/// control sits on the high site (bit q) or the low site (bit p).
fn controlled_two_site(g: &crate::gate::Mat2, control_high: bool) -> [[C64; 4]; 4] {
    let mut u = [[C64::ZERO; 4]; 4];
    for p in 0..2 {
        for q in 0..2 {
            let b = p + 2 * q;
            let (ctrl, tgt) = if control_high { (q, p) } else { (p, q) };
            if ctrl == 0 {
                u[b][b] = C64::ONE;
            } else {
                for (tp, row) in g.iter().enumerate() {
                    let bp = if control_high { tp + 2 * q } else { p + 2 * tp };
                    u[bp][b] = row[tgt];
                }
            }
        }
    }
    u
}

/// Rank kept after trimming numerical noise and applying the bond cap;
/// the cap's *forced* discarded weight (relative to total) accumulates
/// into `trunc_error`.
fn kept_rank(s: &[f64], max_bond: usize, trunc_error: &mut f64) -> usize {
    let smax = s.first().copied().unwrap_or(0.0);
    let k0 = s
        .iter()
        .take_while(|&&v| v > smax * REL_TRIM && v > 0.0)
        .count()
        .max(1);
    let k = k0.min(max_bond);
    if k < k0 {
        let total2: f64 = s.iter().map(|v| v * v).sum();
        let forced2: f64 = s[k..k0].iter().map(|v| v * v).sum();
        if total2 > 0.0 {
            *trunc_error += forced2 / total2;
        }
    }
    k
}

/// SVD-splits `m` into an isometry `U` (m.nrows × k) and the weighted
/// remainder `S·Vᴴ` (k × m.ncols), truncating to `max_bond` and keeping
/// the norm by rescaling the retained weights after a forced truncation.
fn split_truncate(
    m: &CMatrix,
    max_bond: usize,
    trunc_error: &mut f64,
) -> (CMatrix, CMatrix, usize) {
    let f = fast_svd(m);
    let (k, scale) = kept_rank_and_scale(&f.s, max_bond, trunc_error);
    let u = CMatrix::from_fn(m.nrows(), k, |r, c| f.u[(r, c)]);
    let sw = CMatrix::from_fn(k, m.ncols(), |r, c| f.vt[(r, c)].scale(f.s[r] * scale));
    (u, sw, k)
}

/// [`kept_rank`], plus the factor that restores the norm when the cap
/// forced a truncation (1 otherwise).
fn kept_rank_and_scale(s: &[f64], max_bond: usize, trunc_error: &mut f64) -> (usize, f64) {
    let before = *trunc_error;
    let k = kept_rank(s, max_bond, trunc_error);
    let kept2: f64 = s[..k].iter().map(|v| v * v).sum();
    if *trunc_error > before && kept2 > 0.0 {
        let total2: f64 = s.iter().map(|v| v * v).sum();
        (k, (total2 / kept2).sqrt())
    } else {
        (k, 1.0)
    }
}

/// SVD with a Gram-matrix fast path for very wide inputs (the
/// `from_statevector` reshapes): `G = M·Mᴴ` is tiny, its eigenbasis gives
/// `U`, and `S·Vᴴ = Uᴴ·M` exactly — one O(r²·c) pass instead of many
/// Jacobi sweeps. Singular *values* from √λ lose half the digits near the
/// noise floor, but they only steer trim decisions; the factors used to
/// rebuild the state (`U`, `Uᴴ·M`) are exact projections.
fn fast_svd(m: &CMatrix) -> Svd {
    let (r, c) = (m.nrows(), m.ncols());
    if c > 2 * r && c > 64 {
        let g = gemm(m, &m.adjoint());
        let eg = svd(&g);
        let s: Vec<f64> = eg.s.iter().map(|l| l.max(0.0).sqrt()).collect();
        let vt = gemm(&eg.u.adjoint(), m); // rows have norm σᵢ (unnormalised)
        let smax = s.first().copied().unwrap_or(0.0);
        let vt = CMatrix::from_fn(r, c, |i, j| {
            if s[i] > smax * REL_TRIM {
                vt[(i, j)].scale(1.0 / s[i])
            } else {
                C64::ZERO
            }
        });
        Svd { u: eg.u, s, vt }
    } else {
        svd(m)
    }
}

/// Carry entries one task of an import pass handles (128 KiB): fixed, so
/// the partial Grams, and the order they are summed in, do not depend on
/// the pool size.
const CHUNK_ENTRIES: usize = 1 << 13;

/// Whether [`from_statevector`](MpsState::from_statevector) splits a
/// `(r × rest)` carry by its Gram matrix: [`fast_svd`]'s wide-shape test.
fn gram_split(r: usize, rest: usize) -> bool {
    rest > 2 * r && rest > 64
}

/// Carry columns (of `r` entries) per task: an even count, at least `2r`
/// so the partial Grams stay small beside the carry.
fn chunk_cols(r: usize) -> usize {
    (CHUNK_ENTRIES / r).max(2 * r) & !1
}

/// Splits one site off the import carry (`carry[col·χ + l]`, the site's
/// qubit the low bit of `col`): returns the site's isometry `U`
/// (`(χ·2 × k)` row-major) and writes the next carry, `(k × rest)` in
/// the same layout, into `next`.
///
/// Viewed as `M` (`2χ × rest`, row `(l, p)`), a wide carry comes with its
/// Gram sum `gram` (see [`column_gram`]) and is split like [`fast_svd`]'s
/// Gram path: `U` is `G = M·Mᴴ`'s eigenbasis, and one streamed pass
/// writes `next = scale·U_kᴴ·M`, accumulating the next site's Gram sum
/// from each chunk it has just written (returned when that site is wide
/// too). Narrow carries take the exact Jacobi split, as [`fast_svd`] does.
fn split_carry(
    carry: &[C64],
    chi: usize,
    gram: Option<Vec<C64>>,
    max_bond: usize,
    trunc_error: &mut f64,
    next: &mut Vec<C64>,
) -> (Vec<C64>, usize, Option<Vec<C64>>) {
    let r = 2 * chi;
    let rest = carry.len() / r;
    // Entry j of a carry column is M's row (l, p) at j = p·χ + l; `at`
    // maps M's row order l·2 + p onto it.
    let at = |row: usize| (row % 2) * chi + row / 2;
    let Some(h) = gram else {
        let m = CMatrix::from_fn(r, rest, |row, col| carry[col * r + at(row)]);
        let (u, sw, k) = split_truncate(&m, max_bond, trunc_error);
        next.resize(k * rest, C64::ZERO);
        for (col, dst) in next.chunks_exact_mut(k).enumerate() {
            for (kk, d) in dst.iter_mut().enumerate() {
                *d = sw[(kk, col)];
            }
        }
        return (u.into_vec(), k, None);
    };
    // h = Σ x̄·xᵀ over the columns x, so G = M·Mᴴ is its conjugate.
    let g = CMatrix::from_fn(r, r, |i, j| h[at(i) * r + at(j)].conj());
    let eg = svd(&g);
    let s: Vec<f64> = eg.s.iter().map(|l| l.max(0.0).sqrt()).collect();
    let (k, scale) = kept_rank_and_scale(&s, max_bond, trunc_error);
    // next[col·k + kk] = Σ_j carry[col·r + j]·w[j·k + kk].
    let mut w = vec![C64::ZERO; r * k];
    for row in 0..r {
        for kk in 0..k {
            w[at(row) * k + kk] = eg.u[(row, kk)].conj().scale(scale);
        }
    }
    next.resize(k * rest, C64::ZERO);
    let next_wide = gram_split(2 * k, rest / 2);
    let cols = chunk_cols(r);
    let mut tasks: Vec<(&mut [C64], Vec<C64>)> =
        next.chunks_mut(cols * k).map(|y| (y, Vec::new())).collect();
    let project = |(c, (y, part)): (usize, &mut (&mut [C64], Vec<C64>))| {
        let x = &carry[c * cols * r..][..y.len() / k * r];
        match (r, k) {
            (2, 1) => simd::pair_combine(x, w[0], w[1], y),
            (2, _) => project_fixed::<2>(x, &w, y),
            (4, _) => project_fixed::<4>(x, &w, y),
            _ => gemm_slices_with(x, &w, y, (y.len() / k, r, k), usize::MAX),
        }
        if next_wide {
            *part = column_gram(y, 2 * k);
        }
    };
    if carry.len() >= PAR_THRESHOLD {
        tasks.par_iter_mut().enumerate().for_each(project);
    } else {
        tasks.iter_mut().enumerate().for_each(project);
    }
    let next_gram = next_wide.then(|| sum_in_order(tasks.iter().map(|(_, part)| part)));
    let u = (0..r * k).map(|i| eg.u[(i / k, i % k)]).collect();
    (u, k, next_gram)
}

/// The Gram sum of a whole carry (`r`-entry columns), by chunks summed
/// in order.
fn carry_gram(carry: &[C64], r: usize) -> Vec<C64> {
    let len = chunk_cols(r) * r;
    let chunk = |c: usize| column_gram(&carry[c * len..carry.len().min((c + 1) * len)], r);
    let chunks = carry.len().div_ceil(len);
    let parts: Vec<Vec<C64>> = if carry.len() >= PAR_THRESHOLD {
        (0..chunks).into_par_iter().map(chunk).collect()
    } else {
        (0..chunks).map(chunk).collect()
    };
    sum_in_order(parts.iter())
}

/// Entry-wise sum of equally long partials, in iteration order.
fn sum_in_order<'a>(parts: impl Iterator<Item = &'a Vec<C64>>) -> Vec<C64> {
    let mut sum: Vec<C64> = Vec::new();
    for part in parts {
        if sum.is_empty() {
            sum = part.clone();
        } else {
            for (a, &b) in sum.iter_mut().zip(part) {
                *a += b;
            }
        }
    }
    sum
}

/// `Σ x̄·xᵀ` (`r × r`, row-major) over the `r`-entry columns `x` of one
/// carry chunk.
fn column_gram(x: &[C64], r: usize) -> Vec<C64> {
    match r {
        2 => {
            let [d0, d1, re, im] = simd::pair_gram(x);
            let off = C64::new(re, im);
            vec![C64::new(d0, 0.0), off, off.conj(), C64::new(d1, 0.0)]
        }
        4 => column_gram_fixed::<4>(x),
        _ => {
            // As Xᴴ·X for the chunk's (columns × r) view X.
            let rows = x.len() / r;
            let mut xh = vec![C64::ZERO; x.len()];
            for (i, col) in x.chunks_exact(r).enumerate() {
                for (j, &v) in col.iter().enumerate() {
                    xh[j * rows + i] = v.conj();
                }
            }
            let mut h = vec![C64::ZERO; r * r];
            gemm_slices_with(&xh, x, &mut h, (r, rows, r), usize::MAX);
            h
        }
    }
}

/// [`column_gram`] at a fixed order: the upper triangle accumulates as
/// real and imaginary sums, the lower one is its mirror.
fn column_gram_fixed<const R: usize>(x: &[C64]) -> Vec<C64> {
    let (mut re, mut im) = ([[0.0; R]; R], [[0.0; R]; R]);
    for col in x.chunks_exact(R) {
        let col: &[C64; R] = col.try_into().expect("R entries");
        for i in 0..R {
            for j in i..R {
                re[i][j] += col[i].re * col[j].re + col[i].im * col[j].im;
                im[i][j] += col[i].re * col[j].im - col[i].im * col[j].re;
            }
        }
    }
    (0..R * R)
        .map(|e| {
            let (i, j) = (e / R, e % R);
            let v = C64::new(re[i.min(j)][i.max(j)], im[i.min(j)][i.max(j)]);
            if i <= j {
                v
            } else {
                v.conj()
            }
        })
        .collect()
}

/// `y = x·w` for `R`-entry columns `x` and `(R × k)` `w`: the import's
/// projection pass at a fixed order.
fn project_fixed<const R: usize>(x: &[C64], w: &[C64], y: &mut [C64]) {
    let k = w.len() / R;
    let wt: Vec<[C64; R]> = (0..k)
        .map(|kk| std::array::from_fn(|j| w[j * k + kk]))
        .collect();
    for (col, out) in x.chunks_exact(R).zip(y.chunks_exact_mut(k)) {
        let col: &[C64; R] = col.try_into().expect("R entries");
        for (o, wk) in out.iter_mut().zip(&wt) {
            *o = (0..R).fold(C64::ZERO, |acc, j| col[j].mul_add(wk[j], acc));
        }
    }
}

// ---- planner-facing χ-law cost estimate ----

/// Bond-growth policy for the compressed backend, carried on
/// [`SimConfig`](crate::SimConfig).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpsPolicy {
    /// Never consider MPS execution.
    Disabled,
    /// Offer MPS to the hybrid planner as a per-op candidate, priced by
    /// [`estimate_mps_cost`] and only chosen when the predicted χ stays
    /// within `max_bond` (the default, with [`DEFAULT_MAX_BOND`]).
    Auto {
        /// Bond-dimension cap for compressed execution.
        max_bond: usize,
    },
    /// Force gate-level simulation steps onto the MPS backend.
    Forced {
        /// Bond-dimension cap for compressed execution.
        max_bond: usize,
    },
}

impl Default for MpsPolicy {
    fn default() -> MpsPolicy {
        MpsPolicy::Auto {
            max_bond: DEFAULT_MAX_BOND,
        }
    }
}

impl MpsPolicy {
    /// The bond cap, if MPS execution is allowed at all.
    pub fn max_bond(&self) -> Option<usize> {
        match self {
            MpsPolicy::Disabled => None,
            MpsPolicy::Auto { max_bond } | MpsPolicy::Forced { max_bond } => Some(*max_bond),
        }
    }
}

/// Structural entanglement-growth estimate for running `circuit` from a
/// product state under bond cap `max_bond`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpsCostEstimate {
    /// χ-law work units (≈ flops): Σ over two-site applies of
    /// `(2χ_l)(2χ_r)·min(2χ_l, 2χ_r)` + contraction terms, plus O(χ²)
    /// per single-site gate. Divide by `CostModel::mps_rate` for seconds.
    pub units: f64,
    /// Peak bond dimension reached (after capping).
    pub chi_peak: usize,
    /// `false` when some update would have exceeded `max_bond`, i.e. the
    /// run would truncate and results are no longer exact.
    pub exact: bool,
    /// Number of two-site applications, SWAP routing included.
    pub two_site_applies: usize,
}

/// Walks the circuit tracking a per-bond χ upper bound: each two-site
/// gate multiplies the crossed bond by its operator Schmidt rank, clamped
/// by the neighbouring bonds, the 2^k physical cap, and `max_bond`.
/// Assumes a product-state input (the interpreter's densify boundary
/// re-establishes this; an entangled import is caught at run time by the
/// truncation-error audit instead).
pub fn estimate_mps_cost(circuit: &Circuit, max_bond: usize) -> MpsCostEstimate {
    let n = circuit.n_qubits();
    let mut bonds = vec![1usize; n + 1];
    let mut est = MpsCostEstimate {
        units: 0.0,
        chi_peak: 1,
        exact: true,
        two_site_applies: 0,
    };
    if n == 0 {
        return est;
    }
    let phys_cap = |j: usize| -> usize {
        let e = j.min(n - j).min(60);
        1usize << e
    };
    // SVD + contraction work for one two-site apply at sites (i, i+1).
    let unit_cost = |bonds: &[usize], i: usize| -> f64 {
        let (cl, cm, cr) = (bonds[i], bonds[i + 1], bonds[i + 2]);
        let (a, b) = (2 * cl, 2 * cr);
        (a * b * a.min(b)) as f64 + (4 * cl * cm * cr) as f64
    };
    // A (possibly long-range) two-qubit gate of operator Schmidt rank
    // `rank` on qubits (a, b). The SWAP round-trip is unitary, so the
    // *net* bond growth is bounded per crossed cut by `rank` — much
    // tighter than compounding the rank-4 bound of each literal SWAP,
    // which would predict exponential blow-up the execution never pays.
    let apply =
        |bonds: &mut Vec<usize>, est: &mut MpsCostEstimate, a: usize, b: usize, rank: usize| {
            let (a, b) = (a.min(b), a.max(b));
            for j in (a + 1)..=b {
                let grown = (rank * bonds[j])
                    .min(2 * bonds[j - 1])
                    .min(2 * bonds[j + 1])
                    .min(phys_cap(j));
                if grown > max_bond {
                    est.exact = false;
                }
                bonds[j] = grown.min(max_bond);
                est.chi_peak = est.chi_peak.max(bonds[j]);
            }
            // Work: the routing SWAPs (twice per intermediate cut) plus the
            // adjacent apply, all charged at post-growth χ.
            for j in (a + 1)..b {
                est.units += 2.0 * unit_cost(bonds, j);
                est.two_site_applies += 2;
            }
            est.units += unit_cost(bonds, a);
            est.two_site_applies += 1;
        };
    let mut walk = |gates: &[Gate]| {
        for g in gates {
            match g {
                Gate::Unary {
                    op,
                    target,
                    controls,
                } if controls.is_empty() => {
                    est.units += match op.structure() {
                        GateStructure::General(_) => 8.0,
                        _ => 2.0,
                    } * (bonds[*target] * bonds[*target + 1]) as f64;
                }
                Gate::Unary {
                    target, controls, ..
                } if controls.len() == 1 => {
                    // Controlled-G = |0⟩⟨0|⊗I + |1⟩⟨1|⊗G: operator Schmidt rank 2.
                    apply(&mut bonds, &mut est, controls[0], *target, 2);
                }
                Gate::Swap { a, b, controls } if controls.is_empty() => {
                    apply(&mut bonds, &mut est, *a, *b, 4);
                }
                other => {
                    for g in decompose_gate(other) {
                        match &g {
                            Gate::Unary {
                                op,
                                target,
                                controls,
                            } if controls.is_empty() => {
                                est.units += match op.structure() {
                                    GateStructure::General(_) => 8.0,
                                    _ => 2.0,
                                } * (bonds[*target] * bonds[*target + 1]) as f64;
                            }
                            Gate::Unary {
                                target, controls, ..
                            } if controls.len() == 1 => {
                                apply(&mut bonds, &mut est, controls[0], *target, 2);
                            }
                            Gate::Swap { a, b, .. } => {
                                apply(&mut bonds, &mut est, *a, *b, 4);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    };
    walk(circuit.gates());
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{entangle_circuit, qft_circuit};
    use crate::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diff(mps: &MpsState, sv: &StateVector) -> f64 {
        mps.to_statevector().max_diff_up_to_phase(sv)
    }

    #[test]
    fn ghz_matches_dense() {
        for n in [2, 3, 6, 10] {
            let c = entangle_circuit(n);
            let mut mps = MpsState::zero_state(n, 16);
            mps.run(&c);
            let mut sv = StateVector::zero_state(n);
            sv.apply_circuit(&c);
            assert!(diff(&mps, &sv) < 1e-12, "n = {n}");
            assert_eq!(mps.truncation_error(), 0.0);
            assert!(
                mps.peak_bond() <= 2,
                "GHZ needs χ = 2, got {:?}",
                mps.bond_dims()
            );
        }
    }

    #[test]
    fn qft_matches_dense_with_ample_bond() {
        for n in [2, 3, 5, 8] {
            let c = qft_circuit(n);
            let mut mps = MpsState::zero_state(n, 1 << n);
            mps.run(&c);
            let mut sv = StateVector::zero_state(n);
            sv.apply_circuit(&c);
            assert!(diff(&mps, &sv) < 1e-10, "n = {n}: {}", diff(&mps, &sv));
            assert_eq!(mps.truncation_error(), 0.0);
        }
    }

    #[test]
    fn non_adjacent_and_multi_control_gates_match_dense() {
        let n = 6;
        let mut c = Circuit::new(n);
        c.push(Gate::h(0));
        c.push(Gate::h(3));
        c.push(Gate::cnot(0, 5));
        c.push(Gate::cphase(4, 1, 0.7));
        c.push(Gate::swap(0, 4));
        c.push(Gate::toffoli(0, 3, 5));
        c.push(Gate::mcx(vec![1, 2, 4], 0));
        c.push(Gate::ry(2, 1.1));
        let mut mps = MpsState::zero_state(n, 64);
        mps.run(&c);
        let mut sv = StateVector::zero_state(n);
        sv.apply_circuit(&c);
        assert!(diff(&mps, &sv) < 1e-10, "{}", diff(&mps, &sv));
        assert_eq!(mps.truncation_error(), 0.0);
    }

    #[test]
    fn statevector_round_trip() {
        let mut rng = StdRng::seed_from_u64(0x315);
        for n in [1, 2, 4, 7] {
            let amps = qcemu_linalg::random_state(1 << n, &mut rng);
            let sv = StateVector::from_amplitudes(amps);
            let mps = MpsState::from_statevector(&sv, 1 << n);
            assert_eq!(mps.truncation_error(), 0.0, "ample bond must be exact");
            let d = qcemu_linalg::max_abs_diff(mps.to_statevector().amplitudes(), sv.amplitudes());
            assert!(d < 1e-12, "n = {n}: {d}");
            assert!((mps.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn truncation_is_recorded_and_norm_kept() {
        // A deep random-ish entangler at χ = 2 must truncate.
        let n = 8;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push(Gate::h(q));
        }
        for layer in 0..4 {
            for q in 0..n - 1 {
                c.push(Gate::cphase(q, q + 1, 0.3 + 0.1 * layer as f64));
                c.push(Gate::ry(q, 0.4 + 0.2 * q as f64));
            }
        }
        let mut mps = MpsState::zero_state(n, 2);
        mps.run(&c);
        assert!(mps.truncation_error() > 0.0);
        assert!(
            (mps.norm_sqr() - 1.0).abs() < 1e-9,
            "renormalised after truncation"
        );
        assert!(mps.peak_bond() <= 2);
    }

    #[test]
    fn sampling_matches_densified_reference() {
        let n = 5;
        let c = qft_circuit(n);
        let mut mps = MpsState::zero_state(n, 64);
        mps.run(&c);
        let dense = mps.to_statevector();
        let a = mps.sample_shots(200, &mut StdRng::seed_from_u64(99));
        let b = crate::measure::sample_shots(&dense, 200, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_tracks_ghz_chain_and_qft() {
        // Chain-structured GHZ: H(0) then nearest-neighbour CNOTs — the
        // structural bound matches the true χ = 2 exactly. (The *star*
        // `entangle_circuit` re-crosses cut 1 with every CNOT, which a
        // structural estimate must conservatively over-bound.)
        let n = 12;
        let mut chain = Circuit::new(n);
        chain.push(Gate::h(0));
        for q in 0..n - 1 {
            chain.push(Gate::cnot(q, q + 1));
        }
        let ghz = estimate_mps_cost(&chain, 64);
        assert!(ghz.exact);
        assert!(
            ghz.chi_peak <= 2,
            "chain GHZ χ bound is 2, got {}",
            ghz.chi_peak
        );
        let qft = estimate_mps_cost(&qft_circuit(20), 8);
        assert!(!qft.exact, "QFT(20) must blow past χ = 8");
        assert_eq!(qft.chi_peak, 8);
        assert!(qft.units > ghz.units);
    }

    #[test]
    fn basis_state_setup() {
        let mps = MpsState::basis_state(4, 0b1010, 4);
        let sv = mps.to_statevector();
        for (i, a) in sv.amplitudes().iter().enumerate() {
            let want = if i == 0b1010 { 1.0 } else { 0.0 };
            assert!((a.abs() - want).abs() < 1e-15);
        }
    }
}
