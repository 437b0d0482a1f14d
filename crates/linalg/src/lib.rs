//! # qcemu-linalg
//!
//! From-scratch dense complex linear algebra for the `qcemu` workspace — the
//! replacement for the Intel MKL routines used in *High Performance
//! Emulation of Quantum Circuits* (Häner, Steiger, Smelyanskiy, Troyer,
//! SC 2016):
//!
//! * [`gemm`](mod@gemm) — packed, rayon-parallel complex GEMM on the
//!   [`simd::gemm_tile`] micro-kernel (≈ `zgemm`), the engine of both
//!   dense QPE emulation paths;
//! * [`strassen`](mod@strassen) — sub-cubic multiplication that shifts the paper's
//!   emulation crossover from `b ≥ 2n` to `b ≳ 1.8n` bits of precision;
//! * [`hessenberg`](mod@hessenberg) + [`eig`](mod@eig) — Householder reduction and shifted-QR complex
//!   Schur decomposition with eigenvector back-substitution (≈ `zgeev`);
//! * [`power`] — `U^{2^i}` sequences by repeated squaring (paper Eq. 7);
//! * [`svd`](mod@svd) — one-sided Jacobi SVD (≈ `zgesvd` at small sizes), the
//!   truncation engine of the MPS compressed backend;
//! * [`simd`] — split-lane complex vector primitives (AVX2+FMA chosen
//!   by a run-time CPU check, with a scalar fallback) that the
//!   state-vector/FFT/dense kernels build on;
//! * [`complex`], [`matrix`], [`vector`], [`random`] — supporting types.
//!
//! Everything is pure Rust with no numeric dependencies; parallelism
//! comes from rayon only, and the only `unsafe` is the x86-64
//! `core::arch` intrinsics inside [`simd`].

pub mod complex;
pub mod eig;
pub mod gemm;
pub mod hessenberg;
pub mod matrix;
pub mod power;
pub mod random;
pub mod simd;
pub mod strassen;
pub mod svd;
pub mod vector;

pub use complex::{c64, C64};
pub use eig::{eig, eig_residual, eigenvalues, schur, Eig, EigError, Schur};
pub use gemm::{gemm, gemm_into, gemm_into_with, gemm_naive, gemm_slices_with, GEMM_PAR_THRESHOLD};
pub use hessenberg::{hessenberg, is_upper_hessenberg, Hessenberg};
pub use matrix::CMatrix;
pub use power::{matrix_power, matrix_power_naive, power_from_eig, powers_of_two};
pub use random::{random_matrix, random_state, random_unitary};
pub use strassen::{multiply, strassen, strassen_with_cutoff, MulAlgorithm};
pub use svd::{svd, svd_reconstruct, Svd};
pub use vector::{axpy, fidelity, inner, max_abs_diff, max_abs_diff_up_to_phase, norm2, normalize};
