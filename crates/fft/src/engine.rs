//! The cache-blocked axis engine: every transform in this crate is "a
//! length-2^m FFT down the rows of a `2^m × cols` row-major segment, for
//! every column and every segment of a buffer".
//!
//! `cols = 1` is the ordinary contiguous transform. A register at qubits
//! `[lo, lo+m)` of a lone state has `cols = 2^lo`: its low bits index
//! *columns* that all undergo the same transform. The same register of a
//! batch-major ensemble of `B` members (amplitude `i` of member `j` at
//! `i·B + j`) has `cols = B·2^lo` — the member index is just more
//! columns — so one call transforms the whole ensemble and `cols` may be
//! any positive integer. Every case is one `AxisPlan`, which cuts the
//! axis into **passes** of at most one cache block each:
//!
//! * a pass whose whole segment (`cols·2^m` amplitudes) fits a block runs
//!   **in place** on the contiguous segment — a row of the six-step
//!   picture, early stages chunked to L1, later stages sweeping the
//!   L2-resident row;
//! * any other pass **gathers a tile** of adjacent columns into a
//!   per-thread scratch, transforms it there, and scatters it back — one
//!   streamed pass over the state however many stages the tile runs.
//!
//! Either way the arithmetic is the same stage loop over the same two
//! `qcemu_linalg::simd` primitives (`fft_radix4_stage` with a radix-2
//! clean-up when `m` is odd), called with the column count as the
//! twiddle repeat: 1 for a row, the tile width for columns.
//!
//! An axis longer than one pass is the six-step composition, in
//! decimation-in-time order: one tiled, parallel, in-place bit reversal
//! of the axis; then the passes from the low bits up, each pure (its
//! twiddles depend only on its own bits) and each but the last followed,
//! while its data is still in cache, by the inter-step twiddle
//! `W^(rev(rows above)·k)`. That twiddle is never tabulated per element:
//! a `TwoLevel` table of `O(√N)` roots yields any power in one multiply,
//! and each row builds two `√`-sized factor tables from it. No table and
//! no scratch buffer is proportional to `N`.
//!
//! The reversal is a pass of its own because no other pass can carry it:
//! a row pass cannot move data between rows, a column pass cannot move it
//! between columns, and the reversal has to sit at the opposite end of
//! the sequence from the column pass (whichever input digit is
//! transformed first must deliver its output to the *other* end of the
//! index), so the index sets its neighbour works on are not closed under
//! it.

use crate::plan::{Direction, Normalization};
use qcemu_linalg::{simd, C64};
use rayon::prelude::*;
use std::cell::RefCell;

/// Below this many amplitudes a call stays on the calling thread — a pool
/// dispatch costs more than the transform.
const PAR_MIN_SIZE: usize = 1 << 14;

/// log2 of the amplitudes a gathered column tile aims for: 32 KiB, so the
/// tile's stages run out of L1.
const TILE_BITS: u32 = 11;

/// log2 of the chunk the early stages of an in-place row are confined to
/// before the late stages sweep the whole (L2-resident) row.
const L1_BITS: u32 = 11;

/// log2 of the amplitudes in one row of a bit-reversal tile (512 B): long
/// enough that every cache line the permutation touches is used whole,
/// short enough that the two tiles of an exchange (32 KiB) stay in L1.
const REVERSAL_ROW_BITS: u32 = 5;

/// Reverses the low `bits` bits of `x`.
#[inline]
fn rev(x: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (usize::BITS - bits)
    }
}

/// `O(√N)` storage for all `N = 2^bits` roots of unity:
/// `W^e = low[e mod 2^split] · high[e div 2^split]`, forward sign.
struct TwoLevel {
    bits: u32,
    split: u32,
    low: Vec<C64>,
    high: Vec<C64>,
}

impl TwoLevel {
    fn new(bits: u32) -> TwoLevel {
        let split = bits.div_ceil(2);
        let step = -std::f64::consts::TAU / (1u64 << bits) as f64;
        let table = |count: usize, stride: usize| -> Vec<C64> {
            (0..count)
                .map(|e| C64::cis(step * (e * stride) as f64))
                .collect()
        };
        TwoLevel {
            bits,
            split,
            low: table(1 << split, 1),
            high: table(1 << (bits - split), 1 << split),
        }
    }

    /// `e^{-2πi e/N}`; `e` is reduced mod `N`.
    #[inline]
    fn root(&self, e: usize) -> C64 {
        let e = e & ((1usize << self.bits) - 1);
        self.low[e & ((1usize << self.split) - 1)] * self.high[e >> self.split]
    }
}

/// `⌈log2 x⌉` for `x ≥ 1`: the bits a column count occupies, which for
/// a power of two is its exponent.
#[inline]
fn ceil_log2(x: usize) -> u32 {
    usize::BITS - (x - 1).leading_zeros()
}

/// One pass: a length-`2^m` pure transform down `cols` columns.
struct Pass {
    /// Columns of the pass: the axis's columns times `2^(axis bits
    /// below it)`.
    cols: usize,
    m: u32,
    /// Axis bits above this pass.
    above: u32,
    /// Columns of one gathered tile when the pass runs tiled: a divisor
    /// of `cols`.
    tile: usize,
    /// Radix-4 stage tables back to back; stage `s` (`q = 4^s`) holds
    /// `W^j | W^2j | W^3j`, `j < q`, `W = e^{-2πi/4q}`, at offset `4^s − 1`.
    radix4: Vec<C64>,
    /// The radix-2 clean-up table (`e^{-2πi j/2^m}`, `j < 2^(m−1)`) when
    /// `m` is odd.
    radix2: Vec<C64>,
    /// Roots of the transform spanning this pass and every axis bit above
    /// it — the inter-step twiddle — when there are bits above.
    twiddle: Option<TwoLevel>,
}

impl Pass {
    fn new(cols: usize, m: u32, above: u32) -> Pass {
        let roots = TwoLevel::new(m);
        let mut radix4 = Vec::with_capacity((1usize << (m & !1)) - 1);
        for s in 0..m / 2 {
            let q = 1usize << (2 * s);
            let stride = 1usize << (m - 2 * s - 2);
            for k in 1..=3 {
                radix4.extend((0..q).map(|j| roots.root(k * j * stride)));
            }
        }
        let radix2 = if m % 2 == 1 {
            (0..1usize << (m - 1)).map(|j| roots.root(j)).collect()
        } else {
            Vec::new()
        };
        // Aim for a 2^TILE_BITS-amplitude tile of at least 4 columns.
        let target = 1usize << TILE_BITS.saturating_sub(m).max(2);
        let tile = if cols <= target {
            cols
        } else {
            (1..=target)
                .rev()
                .find(|&d| cols.is_multiple_of(d))
                .unwrap_or(1)
        };
        Pass {
            cols,
            m,
            above,
            tile,
            radix4,
            radix2,
            twiddle: (above > 0).then(|| TwoLevel::new(m + above)),
        }
    }

    /// All butterfly stages over `data`, a `2^m × t` tile (or a whole
    /// number of them), row-major.
    fn stages(&self, data: &mut [C64], t: usize, inverse: bool) {
        let pairs = self.m / 2;
        let stage = |data: &mut [C64], s: u32| {
            let q = 1usize << (2 * s);
            simd::fft_radix4_stage(data, q, t, &self.radix4[q - 1..4 * q - 1], inverse);
        };
        // Stages whose blocks fit L1 run chunk by chunk; the rest sweep
        // the row.
        let mut first = 0;
        if data.len() > 1 << L1_BITS {
            let fit = (L1_BITS.saturating_sub(ceil_log2(t)) / 2).min(pairs);
            if fit > 0 {
                for chunk in data.chunks_exact_mut(t << (2 * fit)) {
                    (0..fit).for_each(|s| stage(chunk, s));
                }
                first = fit;
            }
        }
        (first..pairs).for_each(|s| stage(data, s));
        if self.m % 2 == 1 {
            simd::fft_radix2_stage(data, 1 << (self.m - 1), t, &self.radix2, inverse);
        }
    }

    /// Amplitudes of scratch `finish` needs.
    fn aux_len(&self) -> usize {
        match self.twiddle {
            Some(_) => (1 << self.m.div_ceil(2)) + (1 << (self.m / 2)),
            None => 0,
        }
    }

    /// What follows the stages while the `2^m × t` tile is still in cache:
    /// the inter-step twiddle `W^(q·k)` on row `k` (with `q` the
    /// bit-reversed index of the rows above this pass) and the
    /// normalisation, folded into one multiply.
    fn finish(
        &self,
        data: &mut [C64],
        t: usize,
        q: usize,
        scale: f64,
        inverse: bool,
        aux: &mut [C64],
    ) {
        let roots = match &self.twiddle {
            Some(roots) if q != 0 => roots,
            _ => {
                if scale != 1.0 {
                    simd::scale_slice_real(data, scale);
                }
                return;
            }
        };
        // k = k0 + k1·2^c:  W^(q·k) = u[k0] · v[k1].
        let c = self.m.div_ceil(2);
        let (u, v) = aux.split_at_mut(1 << c);
        let root = |e: usize| {
            let w = roots.root(e);
            if inverse {
                w.conj()
            } else {
                w
            }
        };
        for (k0, slot) in u.iter_mut().enumerate() {
            *slot = root(q * k0).scale(scale);
        }
        for (k1, slot) in v.iter_mut().enumerate() {
            *slot = root((q * k1) << c);
        }
        for (rows, &vk) in data.chunks_exact_mut(t << c).zip(v.iter()) {
            simd::mul_twiddles(rows, u, vk, t);
        }
    }
}

/// A planned transform of length `2^m` down `cols` columns: the passes
/// and their tables.
pub(crate) struct AxisPlan {
    cols: usize,
    m: u32,
    block_bits: u32,
    passes: Vec<Pass>,
    /// Row pairs `(r, rev r)`, `r < rev r`, when the whole transform is
    /// one in-place pass and reorders its own block.
    swaps: Vec<(u32, u32)>,
}

impl AxisPlan {
    /// Plans a length-`2^m` transform down `cols ≥ 1` columns for the
    /// workspace's cache block, `simd::DEFAULT_BLOCK_BITS`.
    pub(crate) fn new(cols: usize, m: usize) -> AxisPlan {
        AxisPlan::with_block_bits(cols, m as u32, simd::DEFAULT_BLOCK_BITS as u32)
    }

    /// [`AxisPlan::new`] with `2^block_bits`-amplitude cache blocks (tests
    /// shrink the block to reach every layout at small sizes).
    pub(crate) fn with_block_bits(cols: usize, m: u32, block_bits: u32) -> AxisPlan {
        assert!(cols > 0, "an axis needs at least one column");
        assert!(block_bits >= 3, "cache block too small to tile");
        // A pass over `c` columns keeps a tile of at least min(c, 4)
        // columns inside one block.
        let cap = |c: usize| block_bits - ceil_log2(c.min(4));
        let mut passes = Vec::new();
        let (mut c, mut left) = (cols, m);
        loop {
            let take = left.min(cap(c));
            passes.push(Pass::new(c, take, left - take));
            c <<= take;
            left -= take;
            if left == 0 {
                break;
            }
        }
        let swaps = if passes.len() == 1 && cols << m <= 1 << block_bits {
            (0..1u32 << m)
                .map(|r| (r, rev(r as usize, m) as u32))
                .filter(|(r, s)| r < s)
                .collect()
        } else {
            Vec::new()
        };
        AxisPlan {
            cols,
            m,
            block_bits,
            passes,
            swaps,
        }
    }

    /// Passes the axis is cut into.
    #[cfg(test)]
    pub(crate) fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Table entries held, all passes together.
    #[cfg(test)]
    pub(crate) fn table_len(&self) -> usize {
        let two_level = |t: &TwoLevel| t.low.len() + t.high.len();
        self.swaps.len()
            + self
                .passes
                .iter()
                .map(|p| p.radix4.len() + p.radix2.len() + p.twiddle.as_ref().map_or(0, two_level))
                .sum::<usize>()
    }

    /// Transforms every `cols·2^m`-amplitude segment of `buf` along the
    /// planned axis.
    pub(crate) fn run(&self, buf: &mut [C64], dir: Direction, norm: Normalization) {
        let seg = self.cols << self.m;
        assert_eq!(
            buf.len() % seg,
            0,
            "buffer is not a whole number of {seg}-amplitude segments"
        );
        if self.m == 0 {
            return;
        }
        let parallel = buf.len() >= PAR_MIN_SIZE && rayon::current_num_threads() > 1;
        let one_pass = self.passes.len() == 1;
        if !one_pass {
            bit_reverse_axis(buf, self.cols, self.m, parallel);
        }
        for (i, pass) in self.passes.iter().enumerate() {
            let job = Job {
                pass,
                swaps: &self.swaps,
                reorder: one_pass,
                scale: if i == 0 {
                    norm.factor(1 << self.m)
                } else {
                    1.0
                },
                inverse: dir == Direction::Inverse,
            };
            if pass.cols << pass.m <= 1 << self.block_bits {
                job.run_in_place(buf, parallel);
            } else {
                job.run_tiled(buf, parallel);
            }
        }
    }
}

/// One pass bound to one call's direction, scale and place in the plan.
struct Job<'a> {
    pass: &'a Pass,
    swaps: &'a [(u32, u32)],
    /// The pass takes natural-order input and bit-reverses its own rows
    /// (one-pass plans; otherwise the axis was reversed up front).
    reorder: bool,
    scale: f64,
    inverse: bool,
}

impl Job<'_> {
    /// Bit-reversed index of the rows above the pass, for segment
    /// `segment` of the pass.
    fn twiddle_row(&self, segment: usize) -> usize {
        let above = self.pass.above;
        rev(segment & ((1usize << above) - 1), above)
    }

    /// The pass over contiguous, block-sized-or-smaller segments.
    fn run_in_place(&self, buf: &mut [C64], parallel: bool) {
        let t = self.pass.cols;
        let seg = t << self.pass.m;
        // Segments far below L1 size are taken a batch at a time: the
        // stage kernels accept any whole number of blocks, so a batch of
        // tiny transforms pays their call overhead once. (A twiddled pass
        // is never tiny, and its twiddle differs per segment.)
        let batch = match self.pass.twiddle {
            Some(_) => 1,
            None => ((1usize << L1_BITS) / seg).max(1),
        };
        let body = |(item, data): (usize, &mut [C64])| {
            if self.reorder {
                for segment in data.chunks_exact_mut(seg) {
                    for &(a, b) in self.swaps {
                        let (a, b) = (a as usize * t, b as usize * t);
                        if t == 1 {
                            segment.swap(a, b);
                        } else {
                            let (head, tail) = segment.split_at_mut(b);
                            simd::swap_slices(&mut head[a..a + t], &mut tail[..t]);
                        }
                    }
                }
            }
            self.pass.stages(data, t, self.inverse);
            let q = self.twiddle_row(item);
            with_scratch(self.pass.aux_len(), |aux| {
                self.pass.finish(data, t, q, self.scale, self.inverse, aux)
            });
        };
        if parallel {
            buf.par_chunks_mut(seg * batch).enumerate().for_each(body);
        } else {
            buf.chunks_mut(seg * batch).enumerate().for_each(body);
        }
    }

    /// The pass over segments larger than a block: tiles of adjacent
    /// columns go through the per-thread scratch.
    fn run_tiled(&self, buf: &mut [C64], parallel: bool) {
        let (cols, m, t) = (self.pass.cols, self.pass.m, self.pass.tile);
        let seg = cols << m;
        let tiles_per_segment = cols / t;
        let tiles = (buf.len() / seg) * tiles_per_segment;
        let base = BufPtr(buf.as_mut_ptr());
        let body = |i: usize| {
            let (segment, column) = (i / tiles_per_segment, (i % tiles_per_segment) * t);
            // SAFETY: tile `i` is rows `0..2^m` × columns `column..column+t`
            // of segment `segment`: in bounds (`tiles` covers `buf`
            // exactly) and disjoint from every other tile, so no other
            // thread touches these elements during the call.
            let origin = unsafe { base.add(segment * seg + column) };
            with_scratch((t << m) + self.pass.aux_len(), |scratch| {
                let (tile, aux) = scratch.split_at_mut(t << m);
                for r in 0..1usize << m {
                    let row = if self.reorder { rev(r, m) } else { r };
                    // SAFETY: source row `r` lies inside the tile (above);
                    // the scratch row is a distinct allocation.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            origin.add(r * cols),
                            tile.as_mut_ptr().add(row * t),
                            t,
                        );
                    }
                }
                self.pass.stages(tile, t, self.inverse);
                let q = self.twiddle_row(segment);
                self.pass.finish(tile, t, q, self.scale, self.inverse, aux);
                for r in 0..1usize << m {
                    // SAFETY: as for the gather, directions swapped.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            tile.as_ptr().add(r * t),
                            origin.add(r * cols),
                            t,
                        );
                    }
                }
            });
        };
        for_each_task(tiles, parallel, body);
    }
}

/// `body(i)` for every `i < tasks`, through the pool when `parallel`.
fn for_each_task(tasks: usize, parallel: bool, body: impl Fn(usize) + Sync + Send) {
    if parallel {
        (0..tasks).into_par_iter().for_each(body);
    } else {
        (0..tasks).for_each(body);
    }
}

/// Pointer wrapper that lets pool tasks read and write provably disjoint
/// strided parts of one buffer.
#[derive(Copy, Clone)]
struct BufPtr(*mut C64);
// SAFETY: used only by `Job::run_tiled` and `bit_reverse_axis`, whose
// task indices expand to disjoint element sets of a buffer that is
// exclusively borrowed for the whole parallel region.
unsafe impl Send for BufPtr {}
unsafe impl Sync for BufPtr {}

impl BufPtr {
    /// Pointer to element `offset`.
    ///
    /// # Safety
    ///
    /// `offset` must lie inside the buffer.
    #[inline]
    unsafe fn add(self, offset: usize) -> *mut C64 {
        self.0.add(offset)
    }
}

thread_local! {
    /// Per-thread tile/twiddle scratch, grown on demand to at most one
    /// cache block plus two `√block` factor tables and kept for reuse.
    static SCRATCH: RefCell<Vec<C64>> = const { RefCell::new(Vec::new()) };
}

fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [C64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, C64::ZERO);
        }
        f(&mut buf[..len])
    })
}

/// In-place bit reversal of the row index of every `2^m × cols` segment:
/// unit `r` (a row, `cols` amplitudes) trades places with unit `rev r`.
///
/// Tiled so that both sides of every exchange are whole
/// `2^REVERSAL_ROW_BITS`-amplitude rows: split `r = (a, b, c)` with `a`
/// and `c` the top and bottom `tile` bits; the units sharing a middle `b`
/// form a `2^tile × 2^tile` tile with contiguous rows, and reversal sends
/// tile `b` to tile `rev b`, transposed with both indices reversed. Tiles
/// `b ≤ rev b` are independent tasks for the pool.
fn bit_reverse_axis(buf: &mut [C64], cols: usize, m: u32, parallel: bool) {
    let tile_bits = (m / 2).min(REVERSAL_ROW_BITS.saturating_sub(ceil_log2(cols)));
    let mid = m - 2 * tile_bits;
    let (unit, side, seg) = (cols, 1usize << tile_bits, cols << m);
    let tile_len = side * side * unit;
    let mut revs = [0usize; 1 << REVERSAL_ROW_BITS];
    for (i, r) in revs.iter_mut().enumerate().take(side) {
        *r = rev(i, tile_bits);
    }
    let base = BufPtr(buf.as_mut_ptr());
    let body = |i: usize| {
        let (segment, b) = (i >> mid, i & ((1usize << mid) - 1));
        let rb = rev(b, mid);
        if b > rb || (b == rb && tile_bits == 0) {
            return;
        }
        // SAFETY (all pointer uses below): row `a` of tile `x` is the
        // `side` units starting at unit `(a, x, 0)` of the segment — in
        // bounds, and disjoint from the rows of every tile other than
        // `x`. This task alone touches tiles `b` and `rev b` (the task
        // for `rev b` returned above), and it reads each into scratch
        // before writing either.
        let row = |a: usize, x: usize| unsafe {
            let r = (a << (m - tile_bits)) | (x << tile_bits);
            base.add(segment * seg + r * unit)
        };
        with_scratch(2 * tile_len, |scratch| {
            let (from_b, from_rb) = scratch.split_at_mut(tile_len);
            let load = |into: &mut [C64], x: usize| {
                for (a, dst) in into.chunks_exact_mut(side * unit).enumerate() {
                    unsafe {
                        std::ptr::copy_nonoverlapping(row(a, x), dst.as_mut_ptr(), side * unit)
                    };
                }
            };
            // Unit (a, c) of the source lands at (rev c, rev a).
            let store = |from: &[C64], x: usize| {
                for a in 0..side {
                    let dst = row(a, x);
                    for c in 0..side {
                        let src = ((revs[c] * side) | revs[a]) * unit;
                        if unit == 1 {
                            // A store, not a call to `memcpy` for 16 bytes.
                            unsafe { *dst.add(c) = from[src] };
                        } else {
                            unsafe {
                                std::ptr::copy_nonoverlapping(
                                    from[src..src + unit].as_ptr(),
                                    dst.add(c * unit),
                                    unit,
                                )
                            };
                        }
                    }
                }
            };
            load(from_b, b);
            if b != rb {
                load(from_rb, rb);
                store(from_rb, b);
            }
            store(from_b, rb);
        });
    };
    for_each_task((buf.len() / seg) << mid, parallel, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_reference;
    use qcemu_linalg::{max_abs_diff, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Transforms down every column of every `2^m × cols` segment with
    /// the O(N²) DFT.
    fn reference(
        input: &[C64],
        cols: usize,
        m: u32,
        dir: Direction,
        norm: Normalization,
    ) -> Vec<C64> {
        let mut out = input.to_vec();
        let rows = 1usize << m;
        for segment in 0..input.len() / (cols * rows) {
            for c in 0..cols {
                let at = |r: usize| segment * cols * rows + r * cols + c;
                let column: Vec<C64> = (0..rows).map(|r| input[at(r)]).collect();
                for (r, z) in dft_reference(&column, dir, norm).into_iter().enumerate() {
                    out[at(r)] = z;
                }
            }
        }
        out
    }

    /// A register at offset `lo` is the power-of-two column count
    /// `cols = 2^lo`; the permutation reverses the `m` bits above `lo`.
    #[test]
    fn bit_reversal_matches_index_definition_at_every_offset() {
        for (lo, m, segments) in [
            (0u32, 1u32, 3usize),
            (0, 5, 2),
            (0, 8, 1),
            (0, 9, 2),
            (1, 7, 1),
            (2, 6, 2),
            (3, 4, 1),
            (5, 3, 2),
        ] {
            let len = segments << (lo + m);
            let input: Vec<C64> = (0..len).map(|i| C64::new(i as f64, 0.0)).collect();
            let mut got = input.clone();
            bit_reverse_axis(&mut got, 1 << lo, m, false);
            for (i, z) in got.iter().enumerate() {
                let r = (i >> lo) & ((1 << m) - 1);
                let src = (i & !(((1 << m) - 1) << lo)) | (rev(r, m) << lo);
                assert_eq!(z.re, src as f64, "lo = {lo}, m = {m}, i = {i}");
            }
        }
    }

    #[test]
    fn bit_reversal_matches_index_definition_for_every_column_count() {
        for (cols, m, segments) in [
            (1usize, 1u32, 3usize),
            (1, 5, 2),
            (1, 8, 1),
            (1, 9, 2),
            (2, 7, 1),
            (4, 6, 2),
            (8, 4, 1),
            (32, 3, 2),
            (3, 6, 2),
            (6, 5, 1),
            (12, 7, 2),
            (5, 9, 1),
        ] {
            let seg = cols << m;
            let input: Vec<C64> = (0..segments * seg)
                .map(|i| C64::new(i as f64, 0.0))
                .collect();
            let mut got = input.clone();
            bit_reverse_axis(&mut got, cols, m, false);
            for (i, z) in got.iter().enumerate() {
                let (segment, r, c) = (i / seg, (i % seg) / cols, i % cols);
                let src = segment * seg + rev(r, m) * cols + c;
                assert_eq!(z.re, src as f64, "cols = {cols}, m = {m}, i = {i}");
            }
        }
    }

    #[test]
    fn two_level_roots_are_accurate() {
        for bits in [0u32, 1, 2, 5, 12] {
            let roots = TwoLevel::new(bits);
            let n = 1usize << bits;
            for e in [0, 1, n / 4, n / 2, n - 1, n + 3] {
                let want = C64::cis(-std::f64::consts::TAU * (e % n) as f64 / n as f64);
                assert!(
                    roots.root(e).approx_eq(want, 1e-15),
                    "bits = {bits}, e = {e}"
                );
            }
        }
    }

    /// Tiny blocks force every layout — in place, tiled, two and three
    /// passes deep — at sizes the O(N²) reference can check, for power-of-
    /// two column counts (a register at `lo = 0..=4`) and for the odd and
    /// even multiples a batch-major ensemble adds (`cols = B·2^lo`).
    #[test]
    fn every_pass_layout_matches_the_dft() {
        let mut rng = StdRng::seed_from_u64(90);
        for block_bits in [3u32, 4, 6] {
            for cols in [1usize, 2, 3, 4, 5, 6, 8, 12, 16, 24] {
                for m in 0..=9u32 {
                    let plan = AxisPlan::with_block_bits(cols, m, block_bits);
                    let input = random_state((2 * cols) << m, &mut rng);
                    for dir in [Direction::Forward, Direction::Inverse] {
                        let mut got = input.clone();
                        plan.run(&mut got, dir, Normalization::Sqrt);
                        let want = reference(&input, cols, m, dir, Normalization::Sqrt);
                        assert!(
                            max_abs_diff(&got, &want) < 1e-12,
                            "block_bits = {block_bits}, cols = {cols}, m = {m}, {dir:?}: {} passes",
                            plan.passes.len()
                        );
                    }
                }
            }
        }
    }

    /// A column tile always divides the pass's columns and is as wide as
    /// the power-of-two rule made it wherever that rule applies.
    #[test]
    fn tiles_divide_the_columns_and_keep_the_power_of_two_widths() {
        for m in 0..=12u32 {
            for lo in 0..=12u32 {
                let pass = Pass::new(1 << lo, m, 0);
                let want = 1usize << TILE_BITS.saturating_sub(m).max(2).min(lo);
                assert_eq!(pass.tile, want, "lo = {lo}, m = {m}");
            }
            for cols in [3usize, 6, 12, 24, 40, 3 << 9] {
                let pass = Pass::new(cols, m, 0);
                assert_eq!(cols % pass.tile, 0, "cols = {cols}, m = {m}");
            }
        }
    }

    #[test]
    fn base_cases_take_the_stages_their_size_calls_for() {
        let stages = |m: usize| {
            let plan = AxisPlan::new(1, m);
            assert_eq!(plan.passes.len(), 1);
            let pass = &plan.passes[0];
            // (radix-4 stages, has radix-2 clean-up)
            let radix4 = (0..)
                .take_while(|s| (1usize << (2 * s)) - 1 < pass.radix4.len())
                .count();
            (radix4, !pass.radix2.is_empty())
        };
        assert_eq!(stages(0), (0, false)); // n = 1: nothing to do
        assert_eq!(stages(1), (0, true)); // n = 2: one radix-2 butterfly
        assert_eq!(stages(2), (1, false)); // n = 4: radix-4, no clean-up
        assert_eq!(stages(3), (1, true));
        assert_eq!(stages(5), (2, true));
        assert_eq!(stages(14), (7, false));
        // …and each of them is right.
        let mut rng = StdRng::seed_from_u64(91);
        for m in [0usize, 1, 2, 3, 5] {
            let input = random_state(1 << m, &mut rng);
            let mut got = input.clone();
            AxisPlan::new(1, m).run(&mut got, Direction::Forward, Normalization::None);
            let want = dft_reference(&input, Direction::Forward, Normalization::None);
            assert!(max_abs_diff(&got, &want) < 1e-13, "m = {m}");
        }
    }

    #[test]
    fn tables_stay_near_one_block_however_long_the_transform() {
        let block = 1usize << 14;
        for m in [15usize, 21, 26, 30] {
            let plan = AxisPlan::new(1, m);
            let sqrt_n = 1usize << m.div_ceil(2);
            assert!(
                plan.table_len() <= block + 4 * sqrt_n,
                "m = {m}: {} table entries",
                plan.table_len()
            );
        }
    }
}
