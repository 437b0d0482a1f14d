//! # qcemu-fft
//!
//! From-scratch FFT library backing the QFT emulation shortcut of *High
//! Performance Emulation of Quantum Circuits* (SC 2016, §3.2): instead of
//! simulating the O(n²)-gate QFT circuit on a 2ⁿ state vector, the emulator
//! runs a classical FFT directly on the amplitudes.
//!
//! There is one transform: the cache-blocked [`engine`], "a length-2^m FFT
//! along bit range `[lo, lo+m)` of a buffer" — in-cache radix-4 stages for
//! up to one block, the six-step composition (tiled bit reversal, row pass,
//! inter-step twiddle from `O(√N)` roots, column pass) beyond it — three
//! streamed passes over the state up to 2²⁸ amplitudes, `⌈n/14⌉ + 1` in
//! general — and no table or scratch proportional to `N`. Everything
//! public reaches it:
//!
//! * [`radix2`] — the whole-buffer entry points ([`fft_inplace`], [`fft`],
//!   [`qft_convention`]; the node-local FFT of the paper) and the plain
//!   radix-2 loop kept as a test reference;
//! * [`subspace`] — the transform on one register of a larger state: in
//!   place for a register on consecutive qubits at any offset, by
//!   permutation only for a scattered bit list;
//! * [`fourstep`] — the `N1 × N2` split the distributed FFT of
//!   `qcemu-cluster` shares (paper Eq. 5);
//! * [`plan`] — [`FftPlan`], [`Direction`], [`Normalization`];
//! * [`dft`] — O(N²) reference transform for validation.
//!
//! Sign/normalisation conventions: the paper's QFT (Eq. 4) is
//! `Direction::Inverse` + `Normalization::Sqrt`; helpers
//! [`qft_convention`]/[`inverse_qft_convention`] encode that so call sites
//! cannot get it wrong.

pub mod dft;
pub mod engine;
pub mod fourstep;
pub mod plan;
pub mod radix2;
pub mod subspace;

pub use dft::dft_reference;
pub use fourstep::{fft_four_step, square_split};
pub use plan::{Direction, FftPlan, Normalization};
pub use radix2::{fft, fft_inplace, inverse_qft_convention, qft_convention, radix2_reference};
pub use subspace::{
    fft_subspace, fft_subspace_batch, gather_bits, inverse_qft_subspace,
    inverse_qft_subspace_batch, qft_subspace, qft_subspace_batch, scatter_bits,
};
