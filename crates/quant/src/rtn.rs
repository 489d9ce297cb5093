//! Round-to-nearest (RTN) quantization.
//!
//! The vanilla quantizer every other method builds on (§2.1 of the paper):
//! `Q(w) = Δ · round(w/Δ)` with `Δ = max|w| / 2^(N-1)` in the symmetric
//! case, or an asymmetric min–max affine grid. Grouping controls the
//! granularity at which Δ is computed — per tensor, per group of 128
//! values ("128G" in the paper's tables), or per row/token.

use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::Tensor;

/// Granularity at which quantization scales are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupScheme {
    /// One scale for the whole tensor.
    PerTensor,
    /// One scale per contiguous group of this many values (row-major).
    Groups(usize),
    /// One scale per row (per output channel / per token).
    PerRow,
}

/// An RTN quantizer: bit width, grouping and symmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtnQuantizer {
    bits: u32,
    scheme: GroupScheme,
    asymmetric: bool,
}

impl RtnQuantizer {
    /// Symmetric RTN at `bits` with the given grouping.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or a group size is 0.
    pub fn symmetric(bits: u32, scheme: GroupScheme) -> Self {
        Self::validate(bits, scheme);
        RtnQuantizer {
            bits,
            scheme,
            asymmetric: false,
        }
    }

    /// Asymmetric min–max RTN (the paper's dynamic-quantization baseline
    /// for KV cache and activations).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or a group size is 0.
    pub fn asymmetric(bits: u32, scheme: GroupScheme) -> Self {
        Self::validate(bits, scheme);
        RtnQuantizer {
            bits,
            scheme,
            asymmetric: true,
        }
    }

    fn validate(bits: u32, scheme: GroupScheme) {
        assert!((1..=8).contains(&bits), "RTN bits must be 1..=8");
        if let GroupScheme::Groups(g) = scheme {
            assert!(g > 0, "group size must be positive");
        }
    }

    /// The quantization bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Quantizes and dequantizes a tensor, returning the reconstruction.
    pub fn apply(&self, t: &Tensor) -> Tensor {
        let mut out = t.clone();
        let cols = t.cols().max(1);
        let group_len = match self.scheme {
            GroupScheme::PerTensor => t.len().max(1),
            GroupScheme::Groups(g) => g,
            GroupScheme::PerRow => cols,
        };
        let data = out.data_mut();
        let mut start = 0;
        while start < data.len() {
            let end = (start + group_len).min(data.len());
            self.quantize_group(&mut data[start..end]);
            start = end;
        }
        out
    }

    fn quantize_group(&self, xs: &mut [f32]) {
        if xs.is_empty() {
            return;
        }
        // `validate` asserts the width; restating it bounds the shifts below.
        debug_assert!((1..=8).contains(&self.bits));
        if self.asymmetric {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in xs.iter() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let levels = ((1u32 << self.bits) - 1) as f32;
            let scale = if hi > lo { (hi - lo) / levels } else { 0.0 };
            for v in xs.iter_mut() {
                // `scale` is assigned exactly 0.0 for flat groups above; this
                // guards the division.
                if scale == 0.0 {
                    *v = lo;
                } else {
                    let q = ((*v - lo) / scale).round().clamp(0.0, levels);
                    *v = lo + q * scale;
                }
            }
        } else {
            let max_abs = xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let half = (1u32 << (self.bits - 1)) as f32;
            let delta = if max_abs > 0.0 { max_abs / half } else { 0.0 };
            for v in xs.iter_mut() {
                // `delta` is assigned exactly 0.0 for all-zero groups above;
                // this guards the division.
                if delta == 0.0 {
                    *v = 0.0;
                } else {
                    let q = (*v / delta).round().clamp(-half, half - 1.0);
                    *v = q * delta;
                }
            }
        }
    }

    /// Wire size in bits for quantizing `t`: payload plus scale metadata
    /// (one f32 per scale for symmetric, two for asymmetric).
    pub fn wire_bits(&self, t: &Tensor) -> u64 {
        let n = t.len() as u64;
        let group_len: usize = match self.scheme {
            GroupScheme::PerTensor => t.len().max(1),
            GroupScheme::Groups(g) => g,
            GroupScheme::PerRow => t.cols().max(1),
        };
        let groups = n.div_ceil((group_len as u64).max(1));
        let scale_bits = if self.asymmetric { 64 } else { 32 };
        n * u64::from(self.bits) + groups * scale_bits
    }
}

impl LossyCompressor for RtnQuantizer {
    fn name(&self) -> String {
        let g = match self.scheme {
            GroupScheme::PerTensor => String::new(),
            GroupScheme::Groups(g) => format!("-{g}G"),
            GroupScheme::PerRow => "-row".to_string(),
        };
        format!("RTN{}{}", self.bits, g)
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        (self.apply(t), self.wire_bits(t))
    }

    fn nominal_bits_per_value(&self) -> Option<f64> {
        Some(self.bits as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::stats;

    fn gaussian(seed: u64, rows: usize, cols: usize) -> Tensor {
        let mut rng = Pcg32::seed_from(seed);
        Tensor::from_fn(rows, cols, |_, _| rng.normal() as f32)
    }

    #[test]
    fn symmetric_error_bounded_by_half_delta() {
        let t = gaussian(1, 16, 16);
        let q = RtnQuantizer::symmetric(8, GroupScheme::PerTensor);
        let out = q.apply(&t);
        let delta = t.max_abs() / 128.0;
        for (a, b) in t.data().iter().zip(out.data()) {
            assert!((a - b).abs() <= delta * 0.5 + 1e-6);
        }
    }

    #[test]
    fn more_bits_less_error() {
        let t = gaussian(2, 32, 32);
        let errs: Vec<f64> = (2..=8)
            .map(|b| {
                let q = RtnQuantizer::symmetric(b, GroupScheme::PerTensor);
                stats::tensor_mse(&t, &q.apply(&t))
            })
            .collect();
        for w in errs.windows(2) {
            assert!(w[1] < w[0], "error should fall with bits: {errs:?}");
        }
    }

    #[test]
    fn groupwise_beats_per_tensor_on_outliers() {
        // A single outlier kills per-tensor resolution but only one group's.
        let mut t = gaussian(3, 8, 128);
        t[(0, 0)] = 50.0;
        let per_tensor = RtnQuantizer::symmetric(4, GroupScheme::PerTensor);
        let grouped = RtnQuantizer::symmetric(4, GroupScheme::Groups(128));
        let e_pt = stats::tensor_mse(&t, &per_tensor.apply(&t));
        let e_g = stats::tensor_mse(&t, &grouped.apply(&t));
        assert!(e_g < e_pt / 4.0, "grouped {e_g} vs per-tensor {e_pt}");
    }

    #[test]
    fn asymmetric_handles_shifted_data() {
        let t = gaussian(4, 16, 16).map(|x| x + 10.0);
        let sym = RtnQuantizer::symmetric(4, GroupScheme::PerTensor);
        let asym = RtnQuantizer::asymmetric(4, GroupScheme::PerTensor);
        let e_sym = stats::tensor_mse(&t, &sym.apply(&t));
        let e_asym = stats::tensor_mse(&t, &asym.apply(&t));
        assert!(e_asym < e_sym, "asym {e_asym} vs sym {e_sym}");
    }

    #[test]
    fn one_bit_symmetric_is_sign_times_delta() {
        let t = Tensor::from_vec(1, 4, vec![-2.0, -0.1, 0.1, 2.0]);
        let q = RtnQuantizer::symmetric(1, GroupScheme::PerTensor);
        let out = q.apply(&t);
        // With 1 bit, levels are {-delta, 0}: q in {-1, 0}.
        for v in out.data() {
            assert!(*v == 0.0 || *v == -2.0, "level {v}");
        }
    }

    #[test]
    fn wire_bits_accounting() {
        let t = gaussian(5, 4, 128);
        let q = RtnQuantizer::symmetric(4, GroupScheme::Groups(128));
        // 512 values * 4 bits + 4 groups * 32 bits.
        assert_eq!(q.wire_bits(&t), 512 * 4 + 4 * 32);
        let qa = RtnQuantizer::asymmetric(3, GroupScheme::PerRow);
        assert_eq!(qa.wire_bits(&t), 512 * 3 + 4 * 64);
    }

    #[test]
    fn constant_tensor_is_exact_asymmetric() {
        let t = Tensor::full(4, 4, 3.25);
        let q = RtnQuantizer::asymmetric(2, GroupScheme::PerTensor);
        assert_eq!(q.apply(&t), t);
    }

    #[test]
    fn compressor_interface() {
        let t = gaussian(6, 8, 8);
        let mut q = RtnQuantizer::symmetric(4, GroupScheme::Groups(32));
        let (out, bits) = q.transcode(&t);
        assert_eq!(out.shape(), t.shape());
        assert!(bits >= 64 * 4);
        assert_eq!(q.name(), "RTN4-32G");
        assert_eq!(q.nominal_bits_per_value(), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn zero_bits_panics() {
        let _ = RtnQuantizer::symmetric(0, GroupScheme::PerTensor);
    }
}
