//! Deterministic SIMD lane kernels shared by the hot element-wise loops,
//! plus the exact libm-free rounding helpers every codec kernel uses.
//!
//! The dead-zone quantizer (in [`crate::quant`]) and the tensor codec's
//! per-band f32→u8 affine map (in `llm265-core`) run the same kind of
//! loop: one independent output per input element, no cross-element
//! reduction. This module owns the lane machinery they share — a backend
//! enum picked once at runtime, plus a [`Lanes`] trait whose
//! implementations differ *only* in how many independent outputs advance
//! per step. (The DCT's register-blocked dot products in
//! [`crate::transform`] need no backend: their blocking is fixed and
//! LLVM maps it onto whatever vector width the target has.)
//!
//! # Bit-exactness contract
//!
//! Every backend executes the identical per-element IEEE operation
//! sequence — no fused multiply-add, no horizontal combine, no
//! re-association. The blocking shape mirrors one vector register of the
//! backend's ISA level (2 × f64 for SSE2, 4 × f64 for AVX2), which is
//! what LLVM turns into the corresponding packed instructions, but the
//! per-lane arithmetic is the scalar expression verbatim. Scalar and
//! SIMD therefore produce bit-identical results, and the encoded streams
//! match the golden hashes on every machine (CI pins this with
//! `-Ctarget-cpu=x86-64` and `x86-64-v3` legs). AVX2 is additionally
//! compile-time gated under the workspace's no-`unsafe` policy — see
//! DESIGN.md ("Deterministic SIMD").
//!
//! # No libm rounding calls
//!
//! The x86-64 baseline has no SSE4.1 `roundsd`, so `f64::floor` and
//! `f64::round` compile to a libm call per element there — a call that
//! also stops the surrounding loop from vectorizing. [`floor_i32`] and
//! [`round_i32`] compute the same saturating results with plain `f64`
//! adds, compares and one bit reinterpretation (the classic 1.5 · 2^52
//! round-to-integer trick), which vectorize like any other lane code.

/// Lower end of the window the rounding helpers clamp into: every `f64`
/// at or below it saturates to `i32::MIN` anyway.
const I32_LO: f64 = -2_147_483_648.0;
/// Upper end of the rounding window: everything at or above it
/// saturates to `i32::MAX`.
const I32_HI: f64 = 2_147_483_647.0;
/// 1.5 · 2^52. Adding it to any `|c| < 2^51` rounds `c` to an integer
/// (ties to even, the IEEE default) and leaves that integer, in two's
/// complement, in the low 32 bits of the sum's encoding.
const RINT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Clamps `x` into the i32 window (NaN → 0, the `as` cast's answer) and
/// rounds it to the nearest integer, ties to even: returns the clamped
/// value, the integer as `f64` and as `i32`. Lane-friendly: no
/// float→int conversion instruction, no branch, so loops over it
/// vectorize on the SSE2 baseline.
#[inline]
fn rint_parts(x: f64) -> (f64, f64, i32) {
    let c: f64 = if x.is_nan() {
        0.0
    } else {
        x.clamp(I32_LO, I32_HI)
    };
    let big = c + RINT_MAGIC;
    // `big` and the magic share a binade, so the subtraction is exact;
    // the low word of `big`'s encoding is the rounded integer.
    let r = big - RINT_MAGIC;
    let ri = ((big.to_bits() & 0xFFFF_FFFF) as u32).cast_signed();
    (c, r, ri)
}

/// `x.floor() as i32`, bit for bit (saturating, NaN → 0), without the
/// libm call: round to nearest, then step down where that went up. The
/// step never leaves i32 (`r > c >= i32::MIN`).
#[inline]
pub(crate) fn floor_i32(x: f64) -> i32 {
    let (c, r, ri) = rint_parts(x);
    ri - i32::from(r > c)
}

/// `x.round() as i32` (half away from zero, saturating, NaN → 0), bit
/// for bit, without the libm call: round to nearest-even, then move the
/// ties that went toward zero one step outward.
///
/// `c - r` is exact — `r = 0`, or `c` and `r` are within a factor of two
/// (Sterbenz) — so a tie is seen as exactly ±0.5, and 0.49999999999999994
/// stays below it (unlike `floor(x + 0.5)`, which rounds it up). The step
/// never leaves i32: a tie above `r` means `r <= I32_HI - 0.5`.
#[inline]
pub(crate) fn round_i32(x: f64) -> i32 {
    let (c, r, ri) = rint_parts(x);
    let d = c - r;
    // lint:allow(float-cmp): `d` is exact, and a tie is exactly ±0.5.
    ri + i32::from(d == 0.5 && c > 0.0) - i32::from(d == -0.5 && c < 0.0)
}

/// Which vector unit executes the lane kernels. Variants exist only where
/// the corresponding instructions compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneBackend {
    /// Portable one-output-per-step scalar lanes.
    Scalar,
    /// 128-bit SSE2 lanes (part of the x86-64 baseline).
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// 256-bit AVX2 lanes; compiled only when the build statically enables
    /// the feature (e.g. `RUSTFLAGS=-Ctarget-cpu=x86-64-v3`), so the lane
    /// shape matches the instructions LLVM may actually emit.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    Avx2,
}

/// Picks the widest compiled-in lane backend the running CPU supports.
///
/// Pure backend selector: the choice never alters any kernel's
/// arithmetic — every backend executes the identical per-output operation
/// sequence — it only decides how many independent outputs advance per
/// instruction. This is what keeps runtime CPU detection out of the
/// determinism lint's way.
pub(crate) fn detect_lane_backend() -> LaneBackend {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return LaneBackend::Avx2;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            return LaneBackend::Sse2;
        }
    }
    LaneBackend::Scalar
}

/// Every compiled-in backend, scalar first — test helper for the
/// backend-equivalence suites in this crate.
#[cfg(test)]
pub(crate) fn compiled_backends() -> Vec<LaneBackend> {
    let mut v = vec![LaneBackend::Scalar];
    #[cfg(target_arch = "x86_64")]
    v.push(LaneBackend::Sse2);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    v.push(LaneBackend::Avx2);
    v
}

/// The dead-zone quantizer's per-coefficient expression (see
/// [`crate::quant::Quantizer::quantize`]): shared by every lane backend so
/// the operation sequence cannot drift between them.
#[inline]
pub(crate) fn quantize_one(c: f64, step: f64, offset: f64) -> i32 {
    // `floor_i32` saturates like the `as` cast, and the magnitude is
    // never negative, so negating it cannot overflow. Applying the sign
    // bit equals multiplying by `c.signum() as i32` for every non-NaN
    // `c`; a NaN `c` has a NaN magnitude, which floors to 0 either way.
    let mag = floor_i32(c.abs() / step + offset);
    if c.is_sign_negative() {
        -mag
    } else {
        mag
    }
}

/// The per-band affine map's per-value expression (`llm265-core`'s
/// f32→u8 quantization): non-finite values collapse to 0, everything else
/// maps through round-and-clamp. Shared by every lane backend.
#[inline]
fn affine_one(v: f32, lo: f32, scale: f32) -> u8 {
    if !v.is_finite() {
        0
    } else {
        (((v - lo) / scale).round()).clamp(0.0, 255.0) as u8
    }
}

/// A lane backend: element-wise ("vertical") kernels only. Every
/// implementation performs the identical per-lane operation sequence;
/// the backends differ only in their blocking shape.
pub(crate) trait Lanes: Copy {
    /// Dead-zone-quantizes `coeffs[j]` into `out[j]`; equal lengths.
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]);

    /// Affine-maps `src[j]` into `out[j]` (f32→u8); equal lengths, any
    /// length (rows are not padded to the lane width).
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]);
}

/// Portable reference lanes: one output per step, the textbook loop.
#[derive(Clone, Copy)]
pub(crate) struct ScalarLanes;

impl Lanes for ScalarLanes {
    #[inline]
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]) {
        for (o, &c) in out.iter_mut().zip(coeffs) {
            *o = quantize_one(c, step, offset);
        }
    }

    #[inline]
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = affine_one(v, lo, scale);
        }
    }
}

/// SSE2-shaped lanes: explicit 2-wide groups matching one 128-bit
/// register (2 × f64), the x86-64 baseline vector width. The f32 kernel
/// uses 4-wide groups (4 × f32 per 128-bit register).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Sse2Lanes;

#[cfg(target_arch = "x86_64")]
impl Lanes for Sse2Lanes {
    #[inline]
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]) {
        let mut chunks = out.chunks_exact_mut(2);
        let mut cs = coeffs.chunks_exact(2);
        for (o, c) in (&mut chunks).zip(&mut cs) {
            o[0] = quantize_one(c[0], step, offset);
            o[1] = quantize_one(c[1], step, offset);
        }
        for (o, &c) in chunks.into_remainder().iter_mut().zip(cs.remainder()) {
            *o = quantize_one(c, step, offset);
        }
    }

    #[inline]
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(4);
        let mut vs = src.chunks_exact(4);
        for (o, v) in (&mut chunks).zip(&mut vs) {
            o[0] = affine_one(v[0], lo, scale);
            o[1] = affine_one(v[1], lo, scale);
            o[2] = affine_one(v[2], lo, scale);
            o[3] = affine_one(v[3], lo, scale);
        }
        for (o, &v) in chunks.into_remainder().iter_mut().zip(vs.remainder()) {
            *o = affine_one(v, lo, scale);
        }
    }
}

/// AVX2-shaped lanes: explicit 4-wide groups matching one 256-bit
/// register (4 × f64; 8 × f32 for the affine kernel). Compiled only when
/// the build statically enables the feature so that the blocking shape
/// and the instruction set LLVM emits for it agree.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[derive(Clone, Copy)]
pub(crate) struct Avx2Lanes;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
impl Lanes for Avx2Lanes {
    #[inline]
    fn quantize(self, coeffs: &[f64], step: f64, offset: f64, out: &mut [i32]) {
        let mut chunks = out.chunks_exact_mut(4);
        let mut cs = coeffs.chunks_exact(4);
        for (o, c) in (&mut chunks).zip(&mut cs) {
            o[0] = quantize_one(c[0], step, offset);
            o[1] = quantize_one(c[1], step, offset);
            o[2] = quantize_one(c[2], step, offset);
            o[3] = quantize_one(c[3], step, offset);
        }
        for (o, &c) in chunks.into_remainder().iter_mut().zip(cs.remainder()) {
            *o = quantize_one(c, step, offset);
        }
    }

    #[inline]
    fn affine_u8(self, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        let mut vs = src.chunks_exact(8);
        for (o, v) in (&mut chunks).zip(&mut vs) {
            o[0] = affine_one(v[0], lo, scale);
            o[1] = affine_one(v[1], lo, scale);
            o[2] = affine_one(v[2], lo, scale);
            o[3] = affine_one(v[3], lo, scale);
            o[4] = affine_one(v[4], lo, scale);
            o[5] = affine_one(v[5], lo, scale);
            o[6] = affine_one(v[6], lo, scale);
            o[7] = affine_one(v[7], lo, scale);
        }
        for (o, &v) in chunks.into_remainder().iter_mut().zip(vs.remainder()) {
            *o = affine_one(v, lo, scale);
        }
    }
}

/// Dead-zone-quantizes a coefficient block on a chosen backend; the
/// dispatch half of [`crate::quant::Quantizer::quantize_block_into`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub(crate) fn quantize_block_on(
    backend: LaneBackend,
    coeffs: &[f64],
    step: f64,
    offset: f64,
    out: &mut [i32],
) {
    assert_eq!(coeffs.len(), out.len(), "quantize block length mismatch");
    match backend {
        LaneBackend::Scalar => ScalarLanes.quantize(coeffs, step, offset, out),
        #[cfg(target_arch = "x86_64")]
        LaneBackend::Sse2 => Sse2Lanes.quantize(coeffs, step, offset, out),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        LaneBackend::Avx2 => Avx2Lanes.quantize(coeffs, step, offset, out),
    }
}

/// Affine-maps a row of f32 values to 8-bit pixels:
/// `out[j] = clamp(round((src[j] - lo) / scale), 0, 255)`, with
/// non-finite inputs collapsing to 0.
///
/// This is the tensor codec's per-band quantization inner loop
/// (`llm265-core`); it lives here so it runs on the same deterministic
/// lane backends as the quantizer. The result is bit-identical on every
/// backend. `scale` must be non-zero (flat bands are the caller's
/// zero-fill fast path).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn affine_map_u8(src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
    assert_eq!(src.len(), out.len(), "affine map length mismatch");
    match detect_lane_backend() {
        LaneBackend::Scalar => ScalarLanes.affine_u8(src, lo, scale, out),
        #[cfg(target_arch = "x86_64")]
        LaneBackend::Sse2 => Sse2Lanes.affine_u8(src, lo, scale, out),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        LaneBackend::Avx2 => Avx2Lanes.affine_u8(src, lo, scale, out),
    }
}

#[cfg(test)]
fn affine_map_u8_on(backend: LaneBackend, src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
    assert_eq!(src.len(), out.len(), "affine map length mismatch");
    match backend {
        LaneBackend::Scalar => ScalarLanes.affine_u8(src, lo, scale, out),
        #[cfg(target_arch = "x86_64")]
        LaneBackend::Sse2 => Sse2Lanes.affine_u8(src, lo, scale, out),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        LaneBackend::Avx2 => Avx2Lanes.affine_u8(src, lo, scale, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    /// Coefficient fixture mixing magnitudes, signs, exact zeros and
    /// non-finite values — every case the quantizer's expression branches
    /// on.
    fn coeff_fixture(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Pcg32::seed_from(seed);
        let mut v: Vec<f64> = (0..n)
            .map(|_| (rng.normal() * 40.0) + if rng.below(4) == 0 { 900.0 } else { 0.0 })
            .collect();
        if n >= 4 {
            v[0] = 0.0;
            v[1] = -0.0;
            v[2] = f64::NAN;
            v[3] = f64::INFINITY;
        }
        v
    }

    #[test]
    fn every_backend_quantizes_bit_for_bit() {
        // Odd lengths exercise the remainder lanes too.
        for &n in &[16usize, 64, 1024, 7, 33] {
            let coeffs = coeff_fixture(n, 11);
            for &(step, offset) in &[(0.5f64, 1.0 / 3.0), (16.0, 1.0 / 3.0), (181.0, 0.5)] {
                let mut want = vec![0i32; n];
                ScalarLanes.quantize(&coeffs, step, offset, &mut want);
                for backend in compiled_backends() {
                    let mut got = vec![7i32; n]; // stale contents must be overwritten
                    quantize_block_on(backend, &coeffs, step, offset, &mut got);
                    assert_eq!(got, want, "{backend:?} n={n} step={step}");
                }
            }
        }
    }

    #[test]
    fn every_backend_affine_maps_bit_for_bit() {
        for &n in &[4usize, 8, 256, 5, 1023] {
            let mut rng = Pcg32::seed_from(5);
            let mut src: Vec<f32> = (0..n).map(|_| (rng.normal() * 0.2) as f32).collect();
            if n >= 4 {
                src[0] = f32::NAN;
                src[1] = f32::INFINITY;
                src[2] = f32::NEG_INFINITY;
                src[3] = -1000.0; // clamps to 0
            }
            let (lo, scale) = (-0.7f32, 0.01f32);
            let mut want = vec![0u8; n];
            ScalarLanes.affine_u8(&src, lo, scale, &mut want);
            for backend in compiled_backends() {
                let mut got = vec![9u8; n]; // stale contents must be overwritten
                affine_map_u8_on(backend, &src, lo, scale, &mut got);
                assert_eq!(got, want, "{backend:?} n={n}");
            }
        }
    }

    #[test]
    fn affine_map_matches_the_scalar_expression() {
        let src = [0.0f32, 0.5, 1.0, -0.25, f32::NAN, 2.0];
        let (lo, scale) = (-0.25f32, 0.0125f32);
        let mut out = vec![0u8; src.len()];
        affine_map_u8(&src, lo, scale, &mut out);
        for (i, &v) in src.iter().enumerate() {
            let want = if !v.is_finite() {
                0
            } else {
                (((v - lo) / scale).round()).clamp(0.0, 255.0) as u8
            };
            assert_eq!(out[i], want, "element {i}");
        }
    }

    /// Inputs where a floor/round shortcut typically goes wrong: ties
    /// (±k.5), the largest double below 0.5, the 2^51–2^53 band where
    /// doubles lose their fraction bits, the i32 saturation edges, signed
    /// zeros and non-finite values.
    fn rounding_edge_cases() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            0.5000000000000001,
            -0.5000000000000001,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-300,
            -1e-300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ];
        for e in [31, 51, 52, 53] {
            let p = 2f64.powi(e);
            for base in [p, -p] {
                for d in [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5] {
                    v.push(base + d);
                }
                v.push(f64::from_bits(base.to_bits() - 1));
                v.push(f64::from_bits(base.to_bits() + 1));
            }
        }
        for k in [i32::MAX, i32::MIN] {
            let k = f64::from(k);
            v.extend([k - 0.5, k - 0.25, k + 0.25, k + 0.5, k + 1.0, k - 1.0]);
        }
        v
    }

    #[test]
    fn floor_and_round_match_std_on_edge_cases() {
        for x in rounding_edge_cases() {
            assert_eq!(floor_i32(x), x.floor() as i32, "floor({x:e})");
            assert_eq!(round_i32(x), x.round() as i32, "round({x:e})");
        }
    }

    #[test]
    fn floor_and_round_match_std_on_random_doubles() {
        use llm265_tensor::check::Checker;
        Checker::new(20_000).run("libm-free floor/round equal std", |rng| {
            // Random bit patterns cover every exponent (and NaN payloads);
            // scaled uniforms and half-integers cover the codec's range.
            let xs = [
                f64::from_bits(rng.next_u64()),
                (rng.f64() - 0.5) * 2f64.powi(rng.below(64) as i32),
                f64::from(rng.below(1 << 20) as i32 - (1 << 19)) + 0.5,
            ];
            for x in xs {
                if floor_i32(x) != x.floor() as i32 {
                    return Err(format!("floor({x:e}) = {}", floor_i32(x)));
                }
                if round_i32(x) != x.round() as i32 {
                    return Err(format!("round({x:e}) = {}", round_i32(x)));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn quantizer_expression_matches_the_floor_form() {
        // `quantize_one` once spelled `floor(...).min(i32::MAX) as i32`;
        // the libm-free form must agree on every input, NaN included.
        let reference = |c: f64, step: f64, offset: f64| -> i32 {
            let mag = (c.abs() / step + offset).floor();
            (mag.min(i32::MAX as f64) as i32) * c.signum() as i32
        };
        let mut inputs = rounding_edge_cases();
        inputs.extend(coeff_fixture(1024, 12));
        for &(step, offset) in &[(0.5f64, 1.0 / 3.0), (16.0, 1.0 / 3.0), (228.0, 0.5)] {
            for &c in &inputs {
                assert_eq!(
                    quantize_one(c, step, offset),
                    reference(c, step, offset),
                    "c={c:e} step={step}"
                );
            }
        }
    }

    #[test]
    fn detected_backend_is_compiled_in() {
        assert!(matches!(
            detect_lane_backend(),
            b if {
                let all = compiled_backends();
                all.contains(&b)
            }
        ));
    }
}
