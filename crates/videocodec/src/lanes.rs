//! Element-wise codec kernels, plus the exact libm-free rounding helpers
//! every codec kernel uses.
//!
//! The dead-zone quantizer (in [`crate::quant`]) and the tensor codec's
//! per-band f32→u8 affine map (in `llm265-core`) run the same kind of
//! loop: one independent output per input element, no cross-element
//! reduction. Each is one plain loop over a per-element expression
//! ([`crate::quant::Quantizer::quantize`], `affine_one`); LLVM vectorizes
//! it to whatever vector width the target has. (The DCT's register-blocked dot products
//! in [`crate::transform`] follow the same rule with a fixed blocking.)
//!
//! # Bit-exactness contract
//!
//! Vectorizing an element-wise loop changes only how many outputs
//! advance per instruction: every output still runs the identical IEEE
//! operation sequence — no fused multiply-add, no horizontal combine, no
//! re-association. The encoded streams therefore match the golden hashes
//! on every machine (CI pins this with `-Ctarget-cpu=x86-64` and
//! `x86-64-v3` legs). Nothing here detects CPU features at runtime — see
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
#[allow(clippy::float_cmp, reason = "`d` is exact, and a tie is exactly ±0.5")]
pub(crate) fn round_i32(x: f64) -> i32 {
    let (c, r, ri) = rint_parts(x);
    let d = c - r;
    ri + i32::from(d == 0.5 && c > 0.0) - i32::from(d == -0.5 && c < 0.0)
}

/// The per-band affine map's per-value expression (`llm265-core`'s
/// f32→u8 quantization): non-finite values collapse to 0, everything else
/// maps through round-and-clamp.
#[inline]
fn affine_one(v: f32, lo: f32, scale: f32) -> u8 {
    if !v.is_finite() {
        0
    } else {
        (((v - lo) / scale).round()).clamp(0.0, 255.0) as u8
    }
}

/// Affine-maps a row of f32 values to 8-bit pixels:
/// `out[j] = clamp(round((src[j] - lo) / scale), 0, 255)`, with
/// non-finite inputs collapsing to 0.
///
/// This is the tensor codec's per-band quantization inner loop
/// (`llm265-core`); it lives here beside the rounding helpers under the
/// same bit-exactness contract as the quantizer. `scale` must be non-zero (flat bands
/// are the caller's zero-fill fast path).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn affine_map_u8(src: &[f32], lo: f32, scale: f32, out: &mut [u8]) {
    assert_eq!(src.len(), out.len(), "affine map length mismatch");
    for (o, &v) in out.iter_mut().zip(src) {
        *o = affine_one(v, lo, scale);
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
    fn affine_map_matches_the_scalar_expression() {
        // Non-finite inputs, values that clamp to 0 and to 255 (255 ·
        // scale above `lo` is 2.9375), and an odd length.
        let src = [
            0.0f32,
            0.5,
            1.0,
            -0.25,
            f32::NAN,
            2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1000.0,
            3.5,
            1000.0,
        ];
        let (lo, scale) = (-0.25f32, 0.0125f32);
        // Stale contents must be overwritten.
        let mut out = vec![9u8; src.len()];
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
        // `Quantizer::quantize` once spelled
        // `floor(...).min(i32::MAX) as i32`; the libm-free form must
        // agree on every input, NaN included.
        let reference = |c: f64, step: f64| -> i32 {
            let mag = (c.abs() / step + 1.0 / 3.0).floor();
            (mag.min(i32::MAX as f64) as i32) * c.signum() as i32
        };
        let mut inputs = rounding_edge_cases();
        inputs.extend(coeff_fixture(1024, 12));
        // The smallest, a mid-range and the largest step.
        for qp in [0.0, 28.0, 51.0] {
            let q = crate::quant::Quantizer::from_qp(qp);
            for &c in &inputs {
                assert_eq!(q.quantize(c), reference(c, q.step()), "c={c:e} qp={qp}");
            }
        }
    }
}
