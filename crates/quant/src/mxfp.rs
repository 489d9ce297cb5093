//! Microscaling floating-point formats (MXFP4 / MXFP6 / MXFP8).
//!
//! MXFP (OCP Microscaling, Rouhani et al. 2023) stores blocks of 32
//! values as low-bit floats sharing one power-of-two scale (E8M0). The
//! paper uses MXFP as the numeric-format half of its chained-baseline
//! grid (Fig 14) and cites it as the representative custom-format
//! approach (§7.1).

use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::Tensor;

/// The MX block size fixed by the OCP spec.
pub const BLOCK: usize = 32;

/// An MXFP element format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MxFormat {
    /// FP4 E2M1: 4 bits/element.
    Mxfp4,
    /// FP6 E2M3: 6 bits/element.
    Mxfp6,
    /// FP8 E4M3: 8 bits/element.
    Mxfp8,
}

impl MxFormat {
    /// Bits per element (excluding the shared scale).
    pub fn element_bits(self) -> u32 {
        match self {
            MxFormat::Mxfp4 => 4,
            MxFormat::Mxfp6 => 6,
            MxFormat::Mxfp8 => 8,
        }
    }

    /// Exponent / mantissa widths.
    fn e_m(self) -> (i32, i32) {
        match self {
            MxFormat::Mxfp4 => (2, 1),
            MxFormat::Mxfp6 => (2, 3),
            MxFormat::Mxfp8 => (4, 3),
        }
    }

    /// Largest finite magnitude representable at unit scale.
    pub fn max_value(self) -> f64 {
        if self == MxFormat::Mxfp8 {
            // E4M3 reserves the all-ones code for NaN, so the top mantissa
            // at the top exponent is 1.75 · 2^8 = 448 (OCP FP8 spec).
            return 448.0;
        }
        let (e, m) = self.e_m();
        let bias = (1 << (e - 1)) - 1;
        let max_exp = ((1 << e) - 1) - bias; // FP4/FP6 have no Inf/NaN codes
        let max_mant = 2.0 - 2f64.powi(-m);
        max_mant * 2f64.powi(max_exp)
    }

    /// Rounds `x` to the nearest representable value at unit scale.
    pub fn round(self, x: f64) -> f64 {
        // Exact zero has no exponent — log2 below would return -inf; every
        // other value rounds through the grid.
        if x == 0.0 || !x.is_finite() {
            return 0.0;
        }
        let (e, m) = self.e_m();
        let bias = (1 << (e - 1)) - 1;
        let max = self.max_value();
        let sign = x.signum();
        let mag = x.abs().min(max);
        // Exponent of the value, clamped to the normal range.
        let exp = mag.log2().floor() as i32;
        let min_norm_exp = 1 - bias;
        if exp < min_norm_exp {
            // Subnormal: fixed quantum 2^(min_norm_exp - m).
            let quantum = 2f64.powi(min_norm_exp - m);
            return sign * (mag / quantum).round() * quantum;
        }
        let exp = exp.min(((1 << e) - 1) - bias);
        let quantum = 2f64.powi(exp - m);
        let r = (mag / quantum).round() * quantum;
        sign * r.min(max)
    }
}

/// MXFP block quantizer: shared E8M0 (power-of-two) scale per 32 values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MxfpQuantizer {
    format: MxFormat,
}

impl MxfpQuantizer {
    /// Creates a quantizer for the given element format.
    pub fn new(format: MxFormat) -> Self {
        MxfpQuantizer { format }
    }

    /// The element format.
    pub fn format(&self) -> MxFormat {
        self.format
    }

    /// Quantizes and dequantizes row-major blocks of 32 values.
    pub fn apply(&self, t: &Tensor) -> Tensor {
        let mut out = t.clone();
        let data = out.data_mut();
        let mut start = 0;
        while start < data.len() {
            let end = (start + BLOCK).min(data.len());
            self.quantize_block(&mut data[start..end]);
            start = end;
        }
        out
    }

    fn quantize_block(&self, xs: &mut [f32]) {
        let max_abs = xs.iter().fold(0.0f64, |m, &v| m.max((v as f64).abs()));
        // All-zero block — the fold starts at exactly 0.0, and log2(0) below
        // would be -inf.
        if max_abs == 0.0 {
            return;
        }
        // E8M0 shared scale: power of two such that max_abs maps near the
        // format's max value.
        let scale_exp = (max_abs / self.format.max_value()).log2().ceil() as i32;
        let scale_exp = scale_exp.clamp(-127, 127);
        let scale = 2f64.powi(scale_exp);
        for v in xs.iter_mut() {
            *v = (self.format.round(*v as f64 / scale) * scale) as f32;
        }
    }

    /// Wire size in bits: elements plus one 8-bit scale per block.
    pub fn wire_bits(&self, t: &Tensor) -> u64 {
        let blocks = (t.len() as u64).div_ceil(BLOCK as u64);
        t.len() as u64 * self.format.element_bits() as u64 + blocks * 8
    }

    /// Nominal bits/value including the amortized scale.
    pub fn bits_per_value(&self) -> f64 {
        self.format.element_bits() as f64 + 8.0 / BLOCK as f64
    }
}

impl LossyCompressor for MxfpQuantizer {
    fn name(&self) -> String {
        match self.format {
            MxFormat::Mxfp4 => "MXFP4".to_string(),
            MxFormat::Mxfp6 => "MXFP6".to_string(),
            MxFormat::Mxfp8 => "MXFP8".to_string(),
        }
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        (self.apply(t), self.wire_bits(t))
    }

    fn nominal_bits_per_value(&self) -> Option<f64> {
        Some(self.bits_per_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::stats;

    #[test]
    fn fp4_grid_values_are_exact() {
        // E2M1 representable magnitudes: 0, 0.5, 1, 1.5, 2, 3, 4, 6.
        let f = MxFormat::Mxfp4;
        for &v in &[0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0] {
            assert_eq!(f.round(v), v, "value {v}");
            assert_eq!(f.round(-v), -v);
        }
        assert_eq!(f.max_value(), 6.0);
        // Values beyond max saturate.
        assert_eq!(f.round(100.0), 6.0);
        // Rounding to nearest: 2.4 -> 2, 2.6 -> 3.
        assert_eq!(f.round(2.4), 2.0);
        assert_eq!(f.round(2.6), 3.0);
    }

    #[test]
    fn fp8_e4m3_max_is_448() {
        assert_eq!(MxFormat::Mxfp8.max_value(), 448.0);
    }

    #[test]
    fn relative_error_shrinks_with_wider_formats() {
        let mut rng = Pcg32::seed_from(1);
        let t = Tensor::from_fn(32, 32, |_, _| (rng.normal() * 0.1) as f32);
        let errs: Vec<f64> = [MxFormat::Mxfp4, MxFormat::Mxfp6, MxFormat::Mxfp8]
            .iter()
            .map(|&f| stats::tensor_mse(&t, &MxfpQuantizer::new(f).apply(&t)))
            .collect();
        assert!(errs[1] < errs[0]);
        assert!(errs[2] < errs[1]);
    }

    #[test]
    fn per_block_scales_adapt_to_magnitude() {
        // Two blocks with wildly different scales both reconstruct well.
        let mut data = vec![0.0f32; 64];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i < 32 { 1e-4 } else { 1e4 } * (1.0 + (i % 7) as f32 * 0.1);
        }
        let t = Tensor::from_vec(2, 32, data);
        let q = MxfpQuantizer::new(MxFormat::Mxfp6);
        let out = q.apply(&t);
        for (a, b) in t.data().iter().zip(out.data()) {
            let rel = ((a - b) / a).abs();
            assert!(rel < 0.07, "rel err {rel} at {a}");
        }
    }

    #[test]
    fn zero_blocks_stay_zero() {
        let t = Tensor::zeros(4, 32);
        let q = MxfpQuantizer::new(MxFormat::Mxfp4);
        assert_eq!(q.apply(&t), t);
    }

    #[test]
    fn wire_bits_accounting() {
        let t = Tensor::zeros(2, 48); // 96 values = 3 blocks
        let q = MxfpQuantizer::new(MxFormat::Mxfp4);
        assert_eq!(q.wire_bits(&t), 96 * 4 + 3 * 8);
        assert!((q.bits_per_value() - 4.25).abs() < 1e-12);
    }

    #[test]
    fn subnormals_are_representable() {
        // E2M1's single subnormal is 0.5 (quantum 2^(min_norm_exp − m)
        // = 2^(0−1) = 0.5); values below half of it flush to zero.
        let f = MxFormat::Mxfp4;
        assert_eq!(f.round(0.5), 0.5);
        assert_eq!(f.round(0.2), 0.0);
        assert_eq!(f.round(0.3), 0.5);
    }
}
