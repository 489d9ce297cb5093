//! Scalar quantization with the H.265 QP→step mapping.
//!
//! The quantizer is where the codec's *continuous* rate knob lives: QP is
//! a real number here (hardware uses integers plus per-block offsets; the
//! effect is the same), and `qstep = 2^((qp-4)/6)` doubles the step every
//! 6 QP, exactly as in H.264/H.265. Fractional bitrates — the paper's
//! headline versatility feature — fall out of sweeping QP continuously.

use crate::Block;

/// Quantization parameter range. H.265 uses 0..=51 for 8-bit video.
pub const QP_MIN: f64 = 0.0;
/// Upper end of the QP range.
pub const QP_MAX: f64 = 51.0;

/// Step size for a (possibly fractional) QP: `2^((qp-4)/6)`.
pub fn qstep(qp: f64) -> f64 {
    2f64.powf((qp - 4.0) / 6.0)
}

/// Lagrangian multiplier for RD decisions at a QP, in SSD-per-bit units.
/// The constant follows the HM reference encoder's intra tuning.
pub fn lambda(qp: f64) -> f64 {
    0.57 * 2f64.powf((qp - 12.0) / 3.0)
}

/// Dead-zone scalar quantizer.
///
/// Intra coding uses a rounding offset of 1/3 (HM's choice): values near a
/// step boundary round toward zero, trading a little distortion for
/// markedly fewer significant coefficients.
///
/// Block quantization is one plain loop over [`Self::quantize`], whose
/// libm-free rounding ([`crate::lanes`]) vectorizes, so the levels — and
/// therefore the encoded streams — are bit-identical however the loop is
/// vectorized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    step: f64,
    offset: f64,
}

impl Quantizer {
    /// Creates the quantizer for a QP.
    ///
    /// # Panics
    ///
    /// Panics if `qp` is outside `[QP_MIN, QP_MAX]`.
    pub fn from_qp(qp: f64) -> Self {
        assert!(
            (QP_MIN..=QP_MAX).contains(&qp),
            "qp {qp} out of range [{QP_MIN}, {QP_MAX}]"
        );
        Quantizer {
            step: qstep(qp),
            offset: 1.0 / 3.0,
        }
    }

    /// The quantization step size.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Quantizes one coefficient to an integer level:
    /// `floor(|c| / step + offset)`, saturated to `i32`, with the sign of
    /// `c` (0 for NaN).
    #[inline]
    pub fn quantize(&self, c: f64) -> i32 {
        // `floor_i32` saturates like the `as` cast, and the magnitude is
        // never negative, so negating it cannot overflow. Applying the sign
        // bit equals multiplying by `c.signum() as i32` for every non-NaN
        // `c`; a NaN `c` has a NaN magnitude, which floors to 0 either way.
        let mag = crate::lanes::floor_i32(c.abs() / self.step + self.offset);
        if c.is_sign_negative() {
            -mag
        } else {
            mag
        }
    }

    /// Dequantizes a level back to a coefficient value.
    #[inline]
    pub fn dequantize(&self, level: i32) -> f64 {
        level as f64 * self.step
    }

    /// Quantizes a whole coefficient block; bit-identical to mapping [`Self::quantize`] over the block.
    pub fn quantize_block(&self, coeffs: &[f64]) -> Vec<i32> {
        let mut out = Vec::new();
        self.quantize_block_into(coeffs, &mut out);
        out
    }

    /// [`Self::quantize_block`] into a caller-owned buffer, for hot loops
    /// that process many blocks without reallocating.
    pub fn quantize_block_into(&self, coeffs: &[f64], out: &mut Vec<i32>) {
        // Every slot is overwritten below; resizing only sizes.
        out.resize(coeffs.len(), 0);
        for (o, &c) in out.iter_mut().zip(coeffs) {
            *o = self.quantize(c);
        }
    }

    /// Quantizes one fixed-size block: each value through
    /// [`Self::quantize`], widened to `f64` first (exactly, from the
    /// forward kernel's `f32` coefficients or a transform-skip residual).
    pub(crate) fn quantize_fixed<T: Into<f64>, const N: usize>(
        &self,
        block: [[T; N]; N],
    ) -> Block<N> {
        block.map(|row| row.map(|c| self.quantize(c.into())))
    }

    /// Dequantizes a whole level block.
    pub fn dequantize_block(&self, levels: &[i32]) -> Vec<f64> {
        levels.iter().map(|&l| self.dequantize(l)).collect()
    }

    /// [`Self::dequantize_block`] into a caller-owned buffer, for hot
    /// loops that process many blocks without reallocating.
    pub fn dequantize_block_into(&self, levels: &[i32], out: &mut Vec<f64>) {
        out.clear();
        out.extend(levels.iter().map(|&l| self.dequantize(l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qstep_doubles_every_six_qp() {
        let s0 = qstep(22.0);
        let s1 = qstep(28.0);
        assert!((s1 / s0 - 2.0).abs() < 1e-12);
        // Anchor: qstep(4) = 1.
        assert!((qstep(4.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_grows_with_qp() {
        assert!(lambda(30.0) > lambda(20.0));
        assert!(lambda(20.0) > 0.0);
    }

    #[test]
    fn quantize_zero_stays_zero() {
        let q = Quantizer::from_qp(28.0);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.dequantize(0), 0.0);
    }

    #[test]
    fn quantize_is_odd_symmetric() {
        let q = Quantizer::from_qp(24.0);
        for &c in &[0.3, 1.7, 12.0, 555.5] {
            assert_eq!(q.quantize(c), -q.quantize(-c));
        }
    }

    #[test]
    fn reconstruction_error_bounded_by_step() {
        let q = Quantizer::from_qp(30.0);
        let step = q.step();
        let mut c = -300.0;
        while c < 300.0 {
            let level = q.quantize(c);
            let r = q.dequantize(level);
            assert!((r - c).abs() <= step, "err {} at {c}", (r - c).abs());
            c += 0.37;
        }
    }

    #[test]
    fn dead_zone_rounds_small_values_to_zero() {
        let q = Quantizer::from_qp(28.0);
        let step = q.step();
        // With offset 1/3, anything below (2/3)·step quantizes to 0.
        assert_eq!(q.quantize(0.6 * step), 0);
        assert_ne!(q.quantize(0.7 * step), 0);
    }

    #[test]
    fn finer_qp_means_smaller_error() {
        let fine = Quantizer::from_qp(10.0);
        let coarse = Quantizer::from_qp(40.0);
        let c = 37.123;
        let ef = (fine.dequantize(fine.quantize(c)) - c).abs();
        let ec = (coarse.dequantize(coarse.quantize(c)) - c).abs();
        assert!(ef < ec);
    }

    #[test]
    fn fractional_qp_interpolates_steps() {
        let a = qstep(27.0);
        let b = qstep(28.0);
        let mid = qstep(27.5);
        assert!(a < mid && mid < b);
    }

    #[test]
    fn block_helpers_match_scalar_ops() {
        let q = Quantizer::from_qp(26.0);
        let coeffs = [0.0, 5.5, -12.25, 100.0, -0.0, f64::NAN, f64::INFINITY];
        let levels = q.quantize_block(&coeffs);
        for (i, &c) in coeffs.iter().enumerate() {
            assert_eq!(levels[i], q.quantize(c));
        }
        let back = q.dequantize_block(&levels);
        for (i, &l) in levels.iter().enumerate() {
            assert_eq!(back[i], q.dequantize(l));
        }
        let mut buf = vec![99.0; 7]; // stale contents must be overwritten
        q.dequantize_block_into(&levels, &mut buf);
        assert_eq!(buf, back);
        let mut lbuf = vec![7i32; 3]; // stale contents must be overwritten
        q.quantize_block_into(&coeffs, &mut lbuf);
        assert_eq!(lbuf, levels);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qp_out_of_range_panics() {
        let _ = Quantizer::from_qp(60.0);
    }
}
