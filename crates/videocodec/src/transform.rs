//! Orthonormal 2-D DCT transform coding.
//!
//! §3.1 of the paper attributes transform coding's effectiveness on
//! tensors not to perceptual frequency weighting but to **outlier
//! mitigation**: the DCT spreads a single huge value across all
//! coefficients of its block (Fig 3), so a uniform quantizer no longer has
//! to choose between resolving the body and covering the outlier. The
//! transforms here are orthonormal (Parseval holds up to `f32` rounding:
//! the coefficients' 2-norm is within a relative `2·(n + 2)·√n · 2⁻²⁴` of
//! the block's), so squared error in the coefficient domain equals
//! squared error in the pixel domain — which is what makes RD
//! optimisation in the coefficient domain legitimate.
//!
//! # Single-precision, register-blocked, bit-exact passes
//!
//! Each of the four matrix passes (two forward, two inverse) is one
//! product `C = A·B` of `n × n` row-major `f32` matrices, computed by
//! [`product`] as dot products over output tiles of 4 rows × 8 columns
//! (4 × 4 at `n = 4`) held in registers. Every output starts at `+0.0`
//! and adds its `n` products in ascending summation index — the textbook
//! triple-loop order, with no fused multiply-add and no re-association.
//! No sum is ever split or reduced across lanes; the tile only decides
//! which 32 independent outputs are in flight together, which LLVM maps
//! onto whatever vector registers the target has (4 × f32 on the SSE2
//! baseline, 8 × f32 with AVX2). The coefficients are therefore
//! bit-identical on every machine, and the encoded bytes match the golden
//! hashes everywhere. The tests pin the passes bit for bit to the same
//! sums computed as rank-1 (`axpy`) row updates, a form that streams
//! every accumulator row through memory once per summation index, and
//! bound their distance from an `f64` textbook DCT.
//!
//! The codec runs the passes on fixed-size stack blocks
//! ([`DctPlan::forward_block`], [`DctPlan::inverse_block`]), one
//! instantiation per edge, so every loop has a constant trip count. The
//! public slice API ([`DctPlan::forward_into`], [`DctPlan::inverse_into`])
//! wraps the same passes and keeps `f64` buffers: a block's residuals (at
//! most ±255) and every coefficient convert to `f32` on entry (exactly,
//! resp. with one rounding), and the results convert back exactly.
//!
//! # No libm rounding
//!
//! The inverse rounds each residual with [`crate::lanes::round_i32`],
//! never `f32::round`: on the x86-64 baseline (no SSE4.1) `round` is a
//! libm call per pixel, and the inverse transform runs in the decoder's
//! and the encoder's inner loops. The helper is exact, so the residuals
//! equal `round() as i32` for every input, hostile magnitudes included.
//!
//! # Shared bases
//!
//! The four orthonormal DCT-II bases (and their transposes) are built
//! once per process into a static `f32` table, so [`DctPlan::new`] and
//! [`DctPlans::new`] only copy references — tile tasks and stream-index
//! reads build plan sets freely.

use std::sync::OnceLock;

use crate::lanes::round_i32;
use crate::Block;

/// Supported transform sizes.
pub const SIZES: [usize; 4] = [4, 8, 16, 32];

/// Output tile height of [`product`]: 4 rows of accumulators.
const ROWS: usize = 4;

/// `C = A·B` for `N × N` row-major matrices, over output tiles of
/// [`ROWS`] rows × `W` columns (`W` divides `N`).
///
/// Each output starts at `+0.0` and accumulates `A[r][i] · B[i][c]` in
/// ascending `i`, so the result is bit-identical to the textbook triple
/// loop (and to the rank-1 update form of it).
#[inline(always)]
fn product<const N: usize, const W: usize>(a: &[f32], b: &[f32], c: &mut [f32]) {
    let (a, _) = a.as_chunks::<N>();
    let (b, _) = b.as_chunks::<N>();
    let (c, _) = c.as_chunks_mut::<N>();
    for (a_rows, c_rows) in a.chunks_exact(ROWS).zip(c.chunks_exact_mut(ROWS)) {
        for c0 in (0..N).step_by(W) {
            let mut acc = [[0.0f32; W]; ROWS];
            for (i, b_row) in b.iter().enumerate() {
                let bv = &b_row[c0..c0 + W];
                for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
                    let s = a_row[i];
                    for (o, &x) in acc_row.iter_mut().zip(bv) {
                        *o += s * x;
                    }
                }
            }
            for (c_row, acc_row) in c_rows.iter_mut().zip(&acc) {
                c_row[c0..c0 + W].copy_from_slice(acc_row);
            }
        }
    }
}

/// Forward 2-D DCT of one `N × N` block: rows, then columns. `tmp`
/// holds `2 N²` values: the block as `f32`, then pass 2's output over
/// it (the coefficients, left in `tmp[..N²]`), and pass 1's output.
fn forward_passes<const N: usize, const W: usize>(plan: &DctPlan, block: &[i32], tmp: &mut [f32]) {
    let (io, rows) = tmp.split_at_mut(N * N);
    // Residuals are small integers, which convert exactly.
    for (o, &v) in io.iter_mut().zip(block) {
        *o = v as f32;
    }
    // Pass 1 (rows): rows[y][k] = sum_i block[y][i] * basis[k][i].
    product::<N, W>(io, plan.basis_t, rows);
    // Pass 2 (columns): io[k][x] = sum_i basis[k][i] * rows[i][x].
    product::<N, W>(plan.basis, rows, io);
}

/// Inverse 2-D DCT of one `N × N` block up to its unrounded sums. `tmp`
/// holds `2 N²` values: the coefficients as `f32` on entry, pass 2's
/// output over them (the sums, left in `tmp[..N²]`), and pass 1's
/// output.
fn inverse_passes<const N: usize, const W: usize>(plan: &DctPlan, tmp: &mut [f32]) {
    let (io, cols) = tmp.split_at_mut(N * N);
    // Pass 1 (columns): cols[i][x] = sum_k basis[k][i] * coeffs[k][x].
    product::<N, W>(plan.basis_t, io, cols);
    // Pass 2 (rows): io[y][i] = sum_k cols[y][k] * basis[k][i].
    product::<N, W>(cols, plan.basis, io);
}

/// [`forward_passes`] at edge `N` with its output tile width: 4 columns
/// at `n = 4`, 8 above. `N` is a constant, so the match folds away.
#[inline(always)]
fn forward_sums<const N: usize>(plan: &DctPlan, block: &[i32], tmp: &mut [f32]) {
    debug_assert_eq!(plan.n, N, "plan dispatched on the wrong size");
    match N {
        4 => forward_passes::<4, 4>(plan, block, tmp),
        8 => forward_passes::<8, 8>(plan, block, tmp),
        16 => forward_passes::<16, 8>(plan, block, tmp),
        _ => forward_passes::<32, 8>(plan, block, tmp),
    }
}

/// [`inverse_passes`] at edge `N`, as [`forward_sums`].
#[inline(always)]
fn inverse_sums<const N: usize>(plan: &DctPlan, tmp: &mut [f32]) {
    debug_assert_eq!(plan.n, N, "plan dispatched on the wrong size");
    match N {
        4 => inverse_passes::<4, 4>(plan, tmp),
        8 => inverse_passes::<8, 8>(plan, tmp),
        16 => inverse_passes::<16, 8>(plan, tmp),
        _ => inverse_passes::<32, 8>(plan, tmp),
    }
}

/// The orthonormal DCT-II basis of one size and its transpose, as
/// fixed-size arrays of `L = n²` entries.
struct Basis<const L: usize> {
    // basis[k*n + i] = alpha_k * cos(pi/n * (i + 0.5) * k), computed in
    // f64 and rounded once to f32.
    basis: [f32; L],
    // Transposed basis, basis_t[i*n + k] = basis[k*n + i]: the passes
    // read whichever layout keeps their `B` rows contiguous.
    basis_t: [f32; L],
}

impl<const L: usize> Basis<L> {
    fn build(n: usize) -> Self {
        let mut b = Basis {
            basis: [0.0; L],
            basis_t: [0.0; L],
        };
        for k in 0..n {
            let alpha = if k == 0 {
                (1.0 / n as f64).sqrt()
            } else {
                (2.0 / n as f64).sqrt()
            };
            for i in 0..n {
                let v =
                    alpha * (std::f64::consts::PI / n as f64 * (i as f64 + 0.5) * k as f64).cos();
                b.basis[k * n + i] = v as f32;
                b.basis_t[i * n + k] = v as f32;
            }
        }
        b
    }
}

/// Every supported size's basis, built once per process.
struct Bases {
    n4: Basis<16>,
    n8: Basis<64>,
    n16: Basis<256>,
    n32: Basis<1024>,
}

/// The process-wide basis table: 1,360 `cos` evaluations on first use,
/// static storage (no heap) afterwards.
fn bases() -> &'static Bases {
    static BASES: OnceLock<Bases> = OnceLock::new();
    BASES.get_or_init(|| Bases {
        n4: Basis::build(4),
        n8: Basis::build(8),
        n16: Basis::build(16),
        n32: Basis::build(32),
    })
}

/// Precomputed orthonormal DCT-II basis for one size.
#[derive(Debug, Clone, Copy)]
pub struct DctPlan {
    n: usize,
    basis: &'static [f32],
    basis_t: &'static [f32],
}

impl DctPlan {
    /// The plan for transform size `n`, referencing the process-wide
    /// basis table (built on first use).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not one of [`SIZES`].
    pub fn new(n: usize) -> Self {
        assert!(SIZES.contains(&n), "unsupported transform size {n}");
        let b = bases();
        let (basis, basis_t): (&'static [f32], &'static [f32]) = match n {
            4 => (&b.n4.basis, &b.n4.basis_t),
            8 => (&b.n8.basis, &b.n8.basis_t),
            16 => (&b.n16.basis, &b.n16.basis_t),
            _ => (&b.n32.basis, &b.n32.basis_t),
        };
        DctPlan { n, basis, basis_t }
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Forward 2-D DCT of an `n × n` spatial block (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != n * n`.
    pub fn forward(&self, block: &[i32]) -> Vec<f64> {
        let mut tmp = Vec::new();
        let mut out = Vec::new();
        self.forward_into(block, &mut tmp, &mut out);
        out
    }

    /// [`Self::forward`] into caller-owned buffers, for hot loops that
    /// transform many blocks. `tmp` is workspace, `out` receives the
    /// coefficients; both are resized as needed. The arithmetic (and so
    /// the result, bit for bit) is that of the codec's fixed-size
    /// kernel, [`Self::forward_block`].
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != n * n`.
    pub fn forward_into(&self, block: &[i32], tmp: &mut Vec<f32>, out: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(block.len(), n * n);
        // Every slot is overwritten by the passes; resizing only sizes.
        tmp.resize(2 * n * n, 0.0);
        match n {
            4 => forward_sums::<4>(self, block, tmp),
            8 => forward_sums::<8>(self, block, tmp),
            16 => forward_sums::<16>(self, block, tmp),
            _ => forward_sums::<32>(self, block, tmp),
        }
        out.resize(n * n, 0.0);
        for (o, &s) in out.iter_mut().zip(&tmp[..n * n]) {
            *o = f64::from(s);
        }
    }

    /// Inverse 2-D DCT, rounding to the nearest integer residual.
    ///
    /// Deterministic: both encoder reconstruction and decoder run exactly
    /// this code on the same dequantized coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n * n`.
    pub fn inverse(&self, coeffs: &[f64]) -> Vec<i32> {
        let mut tmp = Vec::new();
        let mut out = Vec::new();
        self.inverse_into(coeffs, &mut tmp, &mut out);
        out
    }

    /// [`Self::inverse`] into caller-owned buffers — same contract as
    /// [`Self::forward_into`]; the kernel is [`Self::inverse_block`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n * n`.
    pub fn inverse_into(&self, coeffs: &[f64], tmp: &mut Vec<f32>, out: &mut Vec<i32>) {
        let n = self.n;
        self.inverse_sums_into(coeffs, tmp);
        out.resize(n * n, 0);
        // Rounding as a separate flat loop, which vectorizes.
        for (o, &s) in out.iter_mut().zip(&tmp[..n * n]) {
            *o = round_i32(f64::from(s));
        }
    }

    /// The inverse's unrounded sums, in `tmp[..n²]`.
    fn inverse_sums_into(&self, coeffs: &[f64], tmp: &mut Vec<f32>) {
        let n = self.n;
        assert_eq!(coeffs.len(), n * n);
        tmp.resize(2 * n * n, 0.0);
        for (t, &c) in tmp.iter_mut().zip(coeffs) {
            *t = c as f32;
        }
        match n {
            4 => inverse_sums::<4>(self, tmp),
            8 => inverse_sums::<8>(self, tmp),
            16 => inverse_sums::<16>(self, tmp),
            _ => inverse_sums::<32>(self, tmp),
        }
    }

    /// The codec's forward kernel: the 2-D DCT of one `N × N` block
    /// (`N` = this plan's size), on the stack, as `f32` coefficients.
    pub(crate) fn forward_block<const N: usize>(&self, block: &Block<N>) -> [[f32; N]; N] {
        let mut tmp = [[[0.0f32; N]; N]; 2];
        forward_sums::<N>(
            self,
            block.as_flattened(),
            tmp.as_flattened_mut().as_flattened_mut(),
        );
        tmp[0]
    }

    /// The codec's inverse kernel: `coeffs` (dequantized levels rounded
    /// once to `f32`) back to residuals, each rounded half away from
    /// zero.
    pub(crate) fn inverse_block<const N: usize>(&self, coeffs: [[f32; N]; N]) -> Block<N> {
        let mut tmp = [coeffs, [[0.0f32; N]; N]];
        inverse_sums::<N>(self, tmp.as_flattened_mut().as_flattened_mut());
        tmp[0].map(|row| row.map(|s| round_i32(f64::from(s))))
    }
}

/// A cache of DCT plans for all supported sizes.
#[derive(Debug, Clone)]
pub struct DctPlans {
    plans: [DctPlan; 4],
}

impl DctPlans {
    /// Builds plans for every supported size.
    pub fn new() -> Self {
        DctPlans {
            plans: [
                DctPlan::new(4),
                DctPlan::new(8),
                DctPlan::new(16),
                DctPlan::new(32),
            ],
        }
    }

    /// The plan for size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is unsupported.
    pub fn get(&self, n: usize) -> &DctPlan {
        match n {
            4 => &self.plans[0],
            8 => &self.plans[1],
            16 => &self.plans[2],
            32 => &self.plans[3],
            #[allow(
                clippy::panic,
                reason = "transform sizes come from profile constants, never from bitstream input"
            )]
            _ => panic!("unsupported transform size {n}"),
        }
    }
}

impl Default for DctPlans {
    fn default() -> Self {
        Self::new()
    }
}

/// Sum of absolute Hadamard-transformed differences between two `N × N`
/// blocks: the encoder's mode-ranking cost, which tracks the
/// bits a residual costs after the transform better than its SAD. A 4×4
/// block is one 4×4 tile; larger blocks are tiled 8×8. Each tile's sum of
/// `|H·D·H|` (`H` the ±1 Sylvester–Hadamard matrix, `D` the difference)
/// is normalised as in the HM reference encoder, `(Σ + 1) >> 1` for 4×4
/// and `(Σ + 2) >> 2` for 8×8, so both sizes sit on one scale. Integer
/// throughout: a coefficient is at most 64 · 255 in magnitude.
pub(crate) fn satd<const N: usize>(a: &Block<N>, b: &Block<N>) -> u64 {
    let (a, b) = (a.as_flattened(), b.as_flattened());
    if N == 4 {
        return (hadamard_tile::<4>(a, b, 4, 0, 0) + 1) >> 1;
    }
    let mut sum = 0;
    for y0 in (0..N).step_by(8) {
        for x0 in (0..N).step_by(8) {
            sum += (hadamard_tile::<8>(a, b, N, x0, y0) + 2) >> 2;
        }
    }
    sum
}

/// `Σ |H·D·H|` over the `N × N` tile at `(x0, y0)` of `a − b`.
#[inline(always)]
fn hadamard_tile<const N: usize>(a: &[i32], b: &[i32], stride: usize, x0: usize, y0: usize) -> u64 {
    let mut m = [[0i32; N]; N];
    for (y, row) in m.iter_mut().enumerate() {
        let at = (y0 + y) * stride + x0;
        for ((d, &p), &q) in row.iter_mut().zip(&a[at..at + N]).zip(&b[at..at + N]) {
            *d = p - q;
        }
        fwht(row);
    }
    let mut sum = 0;
    for x in 0..N {
        let mut col = [0i32; N];
        for (c, row) in col.iter_mut().zip(&m) {
            *c = row[x];
        }
        fwht(&mut col);
        sum += col
            .iter()
            .map(|&c| u64::from(c.unsigned_abs()))
            .sum::<u64>();
    }
    sum
}

/// In-place fast Walsh–Hadamard transform (Sylvester order, unscaled).
#[inline(always)]
fn fwht<const N: usize>(v: &mut [i32; N]) {
    let mut h = 1;
    while h < N {
        for i in (0..N).step_by(2 * h) {
            for j in i..i + h {
                let (x, y) = (v[j], v[j + h]);
                v[j] = x + y;
                v[j + h] = x - y;
            }
        }
        h *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    /// A row-major `n × n` slice as a fixed-size block.
    fn block<const N: usize>(v: &[i32]) -> Block<N> {
        let mut b = [[0; N]; N];
        b.as_flattened_mut().copy_from_slice(v);
        b
    }

    /// [`satd`] of two row-major `n × n` slices.
    fn satd_of(a: &[i32], b: &[i32], n: usize) -> u64 {
        fn at<const N: usize>(a: &[i32], b: &[i32]) -> u64 {
            satd::<N>(&block(a), &block(b))
        }
        match n {
            4 => at::<4>(a, b),
            8 => at::<8>(a, b),
            16 => at::<16>(a, b),
            _ => at::<32>(a, b),
        }
    }

    /// The fixed-size kernels the codec runs and the public slice
    /// wrappers agree bit for bit.
    #[test]
    fn block_kernels_match_the_slice_wrappers() {
        fn at<const N: usize>(rng: &mut Pcg32) {
            let plan = DctPlan::new(N);
            let res: Vec<i32> = (0..N * N).map(|_| rng.below(511) as i32 - 255).collect();
            let coeffs = plan.forward_block::<N>(&block(&res));
            let want: Vec<u64> = plan.forward(&res).iter().map(|c| c.to_bits()).collect();
            let got: Vec<u64> = coeffs
                .as_flattened()
                .iter()
                .map(|&c| f64::from(c).to_bits())
                .collect();
            assert_eq!(got, want, "forward n={N}");
            let as_f64: Vec<f64> = coeffs
                .as_flattened()
                .iter()
                .map(|&c| f64::from(c))
                .collect();
            let back = plan.inverse_block::<N>(coeffs);
            assert_eq!(
                back.as_flattened(),
                &plan.inverse(&as_f64)[..],
                "inverse n={N}"
            );
        }
        let mut rng = Pcg32::seed_from(5);
        for _ in 0..10 {
            at::<4>(&mut rng);
            at::<8>(&mut rng);
            at::<16>(&mut rng);
            at::<32>(&mut rng);
        }
    }

    /// SATD against its definition: the direct product `H·D·H` with the
    /// ±1 Sylvester–Hadamard matrix, per tile, normalised the same way.
    #[test]
    fn satd_matches_the_direct_hadamard_product() {
        fn sylvester(n: usize) -> Vec<Vec<i64>> {
            let mut h = vec![vec![1i64]];
            while h.len() < n {
                let k = h.len();
                h = (0..2 * k)
                    .map(|r| {
                        (0..2 * k)
                            .map(|c| {
                                let v = h[r % k][c % k];
                                if r >= k && c >= k {
                                    -v
                                } else {
                                    v
                                }
                            })
                            .collect()
                    })
                    .collect();
            }
            h
        }
        fn reference(a: &[i32], b: &[i32], n: usize) -> u64 {
            let t = if n == 4 { 4 } else { 8 };
            let h = sylvester(t);
            let mut total = 0u64;
            for y0 in (0..n).step_by(t) {
                for x0 in (0..n).step_by(t) {
                    let d = |y: usize, x: usize| {
                        let i = (y0 + y) * n + x0 + x;
                        i64::from(a[i] - b[i])
                    };
                    let mut sum = 0u64;
                    for r in 0..t {
                        for c in 0..t {
                            let v: i64 = (0..t)
                                .flat_map(|i| (0..t).map(move |j| (i, j)))
                                .map(|(i, j)| h[r][i] * d(i, j) * h[j][c])
                                .sum();
                            sum += v.unsigned_abs();
                        }
                    }
                    total += if t == 4 {
                        (sum + 1) >> 1
                    } else {
                        (sum + 2) >> 2
                    };
                }
            }
            total
        }
        let mut rng = Pcg32::seed_from(23);
        for n in SIZES {
            let random = |rng: &mut Pcg32| -> Vec<i32> {
                (0..n * n).map(|_| rng.below(256) as i32).collect()
            };
            let zeros = vec![0i32; n * n];
            let full = vec![255i32; n * n];
            let checker: Vec<i32> = (0..n * n)
                .map(|i| if (i / n + i % n) % 2 == 0 { 255 } else { 0 })
                .collect();
            let (r1, r2) = (random(&mut rng), random(&mut rng));
            for (a, b) in [
                (&r1, &r2),
                (&full, &zeros),
                (&zeros, &full),
                (&checker, &zeros),
                (&zeros, &checker),
                (&r1, &r1),
            ] {
                assert_eq!(satd_of(a, b, n), reference(a, b, n), "n={n}");
            }
        }
    }

    #[test]
    fn forward_inverse_identity() {
        let mut rng = Pcg32::seed_from(1);
        for &n in &SIZES {
            let plan = DctPlan::new(n);
            let block: Vec<i32> = (0..n * n).map(|_| rng.below(256) as i32 - 128).collect();
            let coeffs = plan.forward(&block);
            let back = plan.inverse(&coeffs);
            assert_eq!(back, block, "size {n}");
        }
    }

    /// `γ_k = k·u / (1 − k·u)` for the unit roundoff `u` of a format
    /// with machine epsilon `eps` (`u = eps / 2`): the relative error
    /// bound of a `k`-term sum of products computed left to right
    /// (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1).
    fn gamma(k: usize, eps: f64) -> f64 {
        let ku = k as f64 * eps / 2.0;
        ku / (1.0 - ku)
    }

    /// The largest difference, before rounding, between one 2-D `f32`
    /// transform of an input with entries at most `m` in magnitude and
    /// the exact transform.
    ///
    /// One pass computes each output as `Σ a_i·b_i` over `n` terms. Its
    /// inputs carry one rounding each at most (a coefficient converted
    /// from `f64`; residuals convert exactly), and so does every basis
    /// entry (computed in `f64`, stored as `f32`). With the `n` roundings
    /// of the sum that is `|fl(s) − s| ≤ γ_{n+2}·Σ|a_i||b_i|`. Every row
    /// and every column of the basis is a unit vector, so `Σ_i |b_i| ≤
    /// √n` (Cauchy–Schwarz). Pass 1's exact outputs are then at most
    /// `√n·m` and its errors at most `e₁ = γ_{n+2}·√n·m`. Pass 2 carries
    /// `e₁` through the basis (`≤ √n·e₁`) and adds its own sum's error,
    /// `γ_{n+2}·√n·(√n·m + e₁)`. In total:
    ///
    /// `|Δ| ≤ 2·γ_{n+2}·(1 + γ_{n+2})·n·m`.
    ///
    /// The `f64` textbook reference sums `n²` products `b·x·b` whose
    /// basis factors `b` sum to at most `√n` each; `γ_{n²+n}` at `f64`'s
    /// epsilon (a generous allowance for the `cos` evaluations) bounds its
    /// own error by `γ_{n²+n}·n·m`, some 10⁸ times less, and is added.
    fn f32_pass_bound(n: usize, m: f64) -> f64 {
        let g32 = gamma(n + 2, f64::from(f32::EPSILON));
        let g64 = gamma(n * n + n, f64::EPSILON);
        (2.0 * g32 * (1.0 + g32) + g64) * n as f64 * m
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let n = 8;
        let plan = DctPlan::new(n);
        let block = vec![100i32; n * n];
        let coeffs = plan.forward(&block);
        // Orthonormal 2-D DCT: DC = n * mean, every AC coefficient 0,
        // each within the f32 passes' bound (about 9.5e-4 here).
        let tol = f32_pass_bound(n, 100.0);
        assert!(
            (coeffs[0] - 100.0 * n as f64).abs() <= tol,
            "DC {} (tolerance {tol})",
            coeffs[0]
        );
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() <= tol, "AC coeff {i} = {c} (tolerance {tol})");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut rng = Pcg32::seed_from(2);
        let n = 16;
        let plan = DctPlan::new(n);
        let block: Vec<i32> = (0..n * n).map(|_| rng.below(256) as i32 - 128).collect();
        let coeffs = plan.forward(&block);
        let e_spatial: f64 = block.iter().map(|&v| (v as f64).powi(2)).sum();
        let e_coeff: f64 = coeffs.iter().map(|&c| c * c).sum();
        // The tolerance in 2-norms. One pass's error vector is bounded
        // entrywise by `γ_{n+2}·|B|·|a|` (see `f32_pass_bound`), so its
        // 2-norm is at most `γ_{n+2}·‖B‖_F·‖a‖ = γ_{n+2}·√n·‖a‖ = ρ₁‖a‖`.
        // Pass 2 carries pass 1's error through the orthonormal basis and
        // adds its own on an input of norm `≤ (1 + ρ₁)‖x‖`, so the
        // coefficients are within `ρ = ρ₁·(2 + ρ₁)` of exact, relative to
        // `‖x‖ = ‖c‖`. Squaring, the energies differ by at most
        // `(2ρ + ρ²)` relative: about 1.6e-5 at n = 16.
        let rho1 = gamma(n + 2, f64::from(f32::EPSILON)) * (n as f64).sqrt();
        let rho = rho1 * (2.0 + rho1);
        let tol = 2.0 * rho + rho * rho;
        assert!(
            (e_spatial - e_coeff).abs() / e_spatial <= tol,
            "parseval violated: {e_spatial} vs {e_coeff} (tolerance {tol})"
        );
    }

    /// The textbook orthonormal DCT-II in `f64`, straight from its
    /// definition: `forward` gives `B·X·Bᵀ`, otherwise `Bᵀ·X·B` (the
    /// inverse's sums before rounding).
    fn textbook(n: usize, x: &[f64], forward: bool) -> Vec<f64> {
        let b = |k: usize, i: usize| {
            let alpha = if k == 0 { 1.0 } else { 2.0f64.sqrt() } / (n as f64).sqrt();
            alpha * (std::f64::consts::PI / n as f64 * (i as f64 + 0.5) * k as f64).cos()
        };
        let m = |r: usize, c: usize| if forward { b(r, c) } else { b(c, r) };
        let mut out = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                out[r * n + c] = (0..n)
                    .flat_map(|i| (0..n).map(move |j| (i, j)))
                    .map(|(i, j)| m(r, i) * x[i * n + j] * m(c, j))
                    .sum();
            }
        }
        out
    }

    /// Both directions against the `f64` textbook DCT, before rounding:
    /// ±255 blocks, dequantized levels, and the hostile magnitudes up to
    /// `i32::MAX · qstep(51)` a decoder can be fed, each within
    /// `f32_pass_bound` of its input's largest magnitude.
    #[test]
    fn f32_passes_stay_within_their_bound_of_the_f64_textbook_dct() {
        let mut rng = Pcg32::seed_from(11);
        let q = crate::quant::Quantizer::from_qp(30.0);
        let hostile = i32::MAX as f64 * crate::quant::qstep(crate::quant::QP_MAX);
        let max_diff = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max)
        };
        let largest = |x: &[f64]| x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut tmp = Vec::new();
        for &n in &SIZES {
            let plan = DctPlan::new(n);
            let blocks: Vec<Vec<i32>> = vec![
                vec![255; n * n],
                (0..n * n)
                    .map(|i| if (i / n + i % n) % 2 == 0 { 255 } else { -255 })
                    .collect(),
                (0..n * n).map(|_| rng.below(511) as i32 - 255).collect(),
            ];
            for block in &blocks {
                let x: Vec<f64> = block.iter().map(|&v| f64::from(v)).collect();
                let diff = max_diff(&plan.forward(block), &textbook(n, &x, true));
                let tol = f32_pass_bound(n, 255.0);
                assert!(diff <= tol, "forward n={n}: {diff} > {tol}");
            }
            let inputs: Vec<Vec<f64>> = vec![
                (0..n * n)
                    .map(|_| q.dequantize(rng.below(41) as i32 - 20))
                    .collect(),
                (0..n * n)
                    .map(|i| if i % 3 == 0 { -hostile } else { hostile })
                    .collect(),
                (0..n * n)
                    .map(|_| (rng.below(2001) as f64 - 1000.0) / 1000.0 * hostile)
                    .collect(),
            ];
            for coeffs in &inputs {
                plan.inverse_sums_into(coeffs, &mut tmp);
                let sums: Vec<f64> = tmp[..n * n].iter().map(|&s| f64::from(s)).collect();
                let diff = max_diff(&sums, &textbook(n, coeffs, false));
                let tol = f32_pass_bound(n, largest(coeffs));
                assert!(diff <= tol, "inverse n={n}: {diff} > {tol}");
            }
        }
    }

    #[test]
    fn outlier_energy_is_spread_by_dct() {
        // Fig 3 of the paper: one outlier of 128 among small values; after
        // the DCT no coefficient should dwarf the rest the way the outlier
        // dwarfed its block.
        let n = 8;
        let plan = DctPlan::new(n);
        let mut block = vec![1i32; n * n];
        block[27] = 128;
        let peak_in = 128.0;
        let coeffs = plan.forward(&block);
        let peak_out = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        // Outlier amplitude is amortized: peak drops by > 4x.
        assert!(peak_out < peak_in / 4.0, "peak after dct {peak_out}");
    }

    #[test]
    fn smooth_blocks_compact_into_few_coeffs() {
        let n = 8;
        let plan = DctPlan::new(n);
        let block: Vec<i32> = (0..n * n).map(|i| (i % n) as i32 * 4).collect(); // ramp
        let coeffs = plan.forward(&block);
        let total: f64 = coeffs.iter().map(|&c| c * c).sum();
        let mut sorted: Vec<f64> = coeffs.iter().map(|&c| c * c).collect();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top4: f64 = sorted.iter().take(4).sum();
        assert!(top4 / total > 0.95, "energy compaction {}", top4 / total);
    }

    #[test]
    fn into_variants_match_allocating_ones_bit_for_bit() {
        let mut rng = Pcg32::seed_from(3);
        let mut tmp = Vec::new();
        let mut coeffs_buf = Vec::new();
        let mut back_buf = Vec::new();
        for &n in &SIZES {
            let plan = DctPlan::new(n);
            let block: Vec<i32> = (0..n * n).map(|_| rng.below(256) as i32 - 128).collect();
            let coeffs = plan.forward(&block);
            // Buffers deliberately carry stale contents from the previous
            // size; the _into contract is that they are fully overwritten.
            plan.forward_into(&block, &mut tmp, &mut coeffs_buf);
            assert_eq!(coeffs_buf, coeffs, "forward size {n}");
            let back = plan.inverse(&coeffs);
            plan.inverse_into(&coeffs_buf, &mut tmp, &mut back_buf);
            assert_eq!(back_buf, back, "inverse size {n}");
        }
    }

    #[test]
    fn plans_cache_covers_all_sizes() {
        let plans = DctPlans::new();
        for &n in &SIZES {
            assert_eq!(plans.get(n).size(), n);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn unsupported_size_panics() {
        let _ = DctPlan::new(5);
    }

    /// The passes as rank-1 (`axpy`) row updates: the reference the
    /// blocked passes must reproduce bit for bit.
    fn axpy(acc: &mut [f32], s: f32, v: &[f32]) {
        for (a, x) in acc.iter_mut().zip(v) {
            *a += s * *x;
        }
    }

    fn rank1_forward(plan: &DctPlan, block: &[i32]) -> Vec<f64> {
        let n = plan.n;
        let mut tmp = vec![0.0f32; n * n];
        let mut out = vec![0.0f32; n * n];
        for y in 0..n {
            for i in 0..n {
                let row = &mut tmp[y * n..(y + 1) * n];
                axpy(
                    row,
                    block[y * n + i] as f32,
                    &plan.basis_t[i * n..(i + 1) * n],
                );
            }
        }
        for k in 0..n {
            for i in 0..n {
                let row = &mut out[k * n..(k + 1) * n];
                axpy(row, plan.basis[k * n + i], &tmp[i * n..(i + 1) * n]);
            }
        }
        out.into_iter().map(f64::from).collect()
    }

    fn rank1_inverse(plan: &DctPlan, coeffs: &[f64]) -> Vec<i32> {
        let n = plan.n;
        let coeffs: Vec<f32> = coeffs.iter().map(|&c| c as f32).collect();
        let mut tmp = vec![0.0f32; n * n];
        for i in 0..n {
            for k in 0..n {
                let row = &mut tmp[i * n..(i + 1) * n];
                axpy(row, plan.basis[k * n + i], &coeffs[k * n..(k + 1) * n]);
            }
        }
        let mut out = vec![0i32; n * n];
        for y in 0..n {
            let mut acc = vec![0.0f32; n];
            for k in 0..n {
                axpy(&mut acc, tmp[y * n + k], &plan.basis[k * n..(k + 1) * n]);
            }
            for (o, a) in out[y * n..(y + 1) * n].iter_mut().zip(&acc) {
                *o = a.round() as i32;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    /// Asserts both blocked passes equal the rank-1 reference on `block`,
    /// and the inverse also on `coeffs`.
    fn assert_matches_rank1(plan: &DctPlan, block: &[i32], coeffs: &[f64], what: &str) {
        let n = plan.n;
        let fwd = plan.forward(block);
        assert_eq!(
            bits(&fwd),
            bits(&rank1_forward(plan, block)),
            "forward {what} n={n}"
        );
        assert_eq!(
            plan.inverse(&fwd),
            rank1_inverse(plan, &fwd),
            "inverse of forward {what} n={n}"
        );
        assert_eq!(
            plan.inverse(coeffs),
            rank1_inverse(plan, coeffs),
            "inverse {what} n={n}"
        );
    }

    #[test]
    fn blocked_passes_match_rank1_updates_on_random_input() {
        let mut rng = Pcg32::seed_from(9);
        let q = crate::quant::Quantizer::from_qp(30.0);
        for _ in 0..20 {
            for &n in &SIZES {
                let plan = DctPlan::new(n);
                let block: Vec<i32> = (0..n * n).map(|_| rng.below(511) as i32 - 255).collect();
                // Dequantized levels, as the decoder feeds the inverse.
                let coeffs: Vec<f64> = (0..n * n)
                    .map(|_| q.dequantize(rng.below(41) as i32 - 20))
                    .collect();
                assert_matches_rank1(&plan, &block, &coeffs, "random");
            }
        }
    }

    #[test]
    fn blocked_passes_match_rank1_updates_on_extreme_input() {
        let mut rng = Pcg32::seed_from(10);
        let step = crate::quant::qstep(crate::quant::QP_MAX);
        let hostile = i32::MAX as f64 * step;
        for &n in &SIZES {
            let plan = DctPlan::new(n);
            // ±255 extremes: flat, checkerboard and random signs.
            let flat = vec![255i32; n * n];
            let checker: Vec<i32> = (0..n * n)
                .map(|i| if (i / n + i % n) % 2 == 0 { 255 } else { -255 })
                .collect();
            let signs: Vec<i32> = (0..n * n)
                .map(|_| if rng.below(2) == 0 { 255 } else { -255 })
                .collect();
            // Hostile coefficients up to ±i32::MAX · qstep(51): the
            // largest a decoder can see, which saturate on rounding.
            let max_coeffs: Vec<f64> = (0..n * n)
                .map(|i| if i % 3 == 0 { -hostile } else { hostile })
                .collect();
            let mixed: Vec<f64> = (0..n * n)
                .map(|_| (rng.below(2001) as f64 - 1000.0) / 1000.0 * hostile)
                .collect();
            for (name, block) in [("flat", &flat), ("checker", &checker), ("signs", &signs)] {
                assert_matches_rank1(&plan, block, &max_coeffs, name);
                assert_matches_rank1(&plan, block, &mixed, name);
            }
        }
    }

    #[test]
    fn plans_share_one_basis_table() {
        for &n in &SIZES {
            let (a, b) = (DctPlan::new(n), DctPlans::new());
            assert!(std::ptr::eq(a.basis, b.get(n).basis), "size {n}");
            assert!(std::ptr::eq(a.basis_t, b.get(n).basis_t), "size {n}");
        }
    }

    #[test]
    fn all_zero_coefficients_invert_to_zero() {
        // The codec skips the inverse for all-zero TUs; that shortcut is
        // exact because the full inverse also returns zeros.
        for &n in &SIZES {
            assert_eq!(DctPlan::new(n).inverse(&vec![0.0; n * n]), vec![0; n * n]);
        }
    }
}
