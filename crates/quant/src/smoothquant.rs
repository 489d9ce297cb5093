//! SmoothQuant-style dual-side quantization.
//!
//! SmoothQuant (Xiao et al., cited in §2.1) migrates quantization
//! difficulty from activations to weights: per input channel `c`, the
//! activation is divided by `s_c = max|x_c|^α / max|w_c|^(1−α)` and the
//! weight column multiplied by it, so both sides become quantization-
//! friendly. We implement the joint transform plus per-side RTN so the
//! baseline grid can include a W8A8-style dual-side point.

use llm265_tensor::rng::Pcg32;
use llm265_tensor::Tensor;

use crate::rtn::{GroupScheme, RtnQuantizer};

/// SmoothQuant-style dual-side quantizer bound to calibration
/// activations.
#[derive(Debug, Clone)]
pub struct SmoothQuant {
    w_bits: u32,
    a_bits: u32,
    alpha: f64,
    calib: Tensor,
}

impl SmoothQuant {
    /// Creates a dual-side quantizer (`w_bits` for weights, `a_bits` for
    /// activations) with migration strength `alpha` (0.5 is the paper's
    /// default).
    ///
    /// # Panics
    ///
    /// Panics if a bit width is outside 1..=8, `alpha` is outside
    /// `[0, 1]`, or `calib` is empty.
    pub fn new(w_bits: u32, a_bits: u32, alpha: f64, calib: Tensor) -> Self {
        assert!((1..=8).contains(&w_bits), "w_bits must be 1..=8");
        assert!((1..=8).contains(&a_bits), "a_bits must be 1..=8");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert!(!calib.is_empty(), "calibration set must be non-empty");
        SmoothQuant {
            w_bits,
            a_bits,
            alpha,
            calib,
        }
    }

    /// Creates a quantizer with synthetic outlier-channel calibration
    /// activations (the distribution SmoothQuant exists to fix).
    #[must_use]
    pub fn with_synthetic_calibration(
        w_bits: u32,
        a_bits: u32,
        alpha: f64,
        in_features: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        let mut rng = Pcg32::seed_from(seed);
        let chan: Vec<f64> = (0..in_features)
            .map(|_| if rng.chance(0.04) { 15.0 } else { 1.0 })
            .collect();
        let calib = Tensor::from_fn(samples, in_features, |_, c| (chan[c] * rng.normal()) as f32);
        SmoothQuant::new(w_bits, a_bits, alpha, calib)
    }

    /// Per-channel migration scales `s_c`.
    ///
    /// # Panics
    ///
    /// Panics if the weight's column count differs from the calibration
    /// feature count.
    pub fn scales(&self, w: &Tensor) -> Vec<f32> {
        assert_eq!(w.cols(), self.calib.cols(), "in_features mismatch");
        let n = w.cols();
        let mut a_max = vec![1e-8f64; n];
        for s in 0..self.calib.rows() {
            for (c, &v) in self.calib.row(s).iter().enumerate() {
                a_max[c] = a_max[c].max((v as f64).abs());
            }
        }
        let mut w_max = vec![1e-8f64; n];
        for r in 0..w.rows() {
            for (c, &v) in w.row(r).iter().enumerate() {
                w_max[c] = w_max[c].max((v as f64).abs());
            }
        }
        (0..n)
            .map(|c| (a_max[c].powf(self.alpha) / w_max[c].powf(1.0 - self.alpha)).max(1e-6) as f32)
            .collect()
    }

    /// Quantizes a (weight, activation) pair jointly: returns the
    /// reconstructed weight and activation after migration + RTN on each
    /// side.
    ///
    /// # Panics
    ///
    /// Panics if `w.cols() != x.cols()` or shapes disagree with the
    /// calibration features.
    pub fn apply(&self, w: &Tensor, x: &Tensor) -> (Tensor, Tensor) {
        assert_eq!(w.cols(), x.cols(), "weight/activation feature mismatch");
        let s = self.scales(w);
        // Migrate: W' = W·diag(s), X' = X·diag(1/s).
        let w_m = Tensor::from_fn(w.rows(), w.cols(), |r, c| w[(r, c)] * s[c]);
        let x_m = Tensor::from_fn(x.rows(), x.cols(), |r, c| x[(r, c)] / s[c]);
        let wq = RtnQuantizer::symmetric(self.w_bits, GroupScheme::PerRow).apply(&w_m);
        let xq = RtnQuantizer::asymmetric(self.a_bits, GroupScheme::PerRow).apply(&x_m);
        // Migrate back so callers compare in the original space.
        let w_out = Tensor::from_fn(w.rows(), w.cols(), |r, c| wq[(r, c)] / s[c]);
        let x_out = Tensor::from_fn(x.rows(), x.cols(), |r, c| xq[(r, c)] * s[c]);
        (w_out, x_out)
    }

    /// Layer-output error `‖XWᵀ − X̂Ŵᵀ‖²/n` on a probe batch — the metric
    /// dual-side quantization optimizes.
    pub fn output_error(&self, w: &Tensor, x: &Tensor) -> f64 {
        let (wq, xq) = self.apply(w, x);
        let y = x.matmul(&w.transposed());
        let yq = xq.matmul(&wq.transposed());
        llm265_tensor::stats::mse(y.data(), yq.data())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::stats;
    use llm265_tensor::synthetic::{llm_weight, WeightProfile};

    fn setup(seed: u64, n: usize) -> (Tensor, Tensor, SmoothQuant) {
        let mut rng = Pcg32::seed_from(seed);
        let w = llm_weight(n, n, &WeightProfile::default(), &mut rng);
        let sq = SmoothQuant::with_synthetic_calibration(8, 8, 0.5, n, 128, seed ^ 7);
        // Probe activations drawn like the calibration set.
        let x = SmoothQuant::with_synthetic_calibration(8, 8, 0.5, n, 64, seed ^ 7).calib;
        (w, x, sq)
    }

    #[test]
    fn migration_flattens_activation_channels() {
        let (w, x, sq) = setup(1, 64);
        let s = sq.scales(&w);
        let x_m = Tensor::from_fn(x.rows(), x.cols(), |r, c| x[(r, c)] / s[c]);
        assert!(
            stats::peak_to_sigma(x_m.data()) < stats::peak_to_sigma(x.data()),
            "migration should reduce activation peak/σ: {} -> {}",
            stats::peak_to_sigma(x.data()),
            stats::peak_to_sigma(x_m.data())
        );
    }

    #[test]
    fn smoothquant_beats_naive_dual_rtn_at_low_activation_bits() {
        let (w, x, _) = setup(2, 64);
        let smooth = SmoothQuant::with_synthetic_calibration(8, 4, 0.5, 64, 128, 2 ^ 7);
        let e_smooth = smooth.output_error(&w, &x);

        // Naive dual-side: quantize both sides with no migration.
        let wq = RtnQuantizer::symmetric(8, GroupScheme::PerRow).apply(&w);
        let xq = RtnQuantizer::asymmetric(4, GroupScheme::PerRow).apply(&x);
        let y = x.matmul(&w.transposed());
        let yq = xq.matmul(&wq.transposed());
        let e_naive = stats::mse(y.data(), yq.data());
        assert!(
            e_smooth < e_naive,
            "smoothquant {e_smooth} vs naive {e_naive}"
        );
    }

    #[test]
    fn alpha_zero_moves_all_difficulty_to_weights() {
        let (w, _x, _) = setup(3, 32);
        let sq0 = SmoothQuant::with_synthetic_calibration(8, 8, 0.0, 32, 64, 9);
        let s = sq0.scales(&w);
        // alpha = 0: s_c = 1 / max|w_c|^1 → migrated weight max per
        // channel equals 1 exactly.
        let w_m = Tensor::from_fn(w.rows(), w.cols(), |r, c| w[(r, c)] * s[c]);
        for c in 0..32 {
            let col_max = (0..32).map(|r| w_m[(r, c)].abs()).fold(0.0f32, f32::max);
            assert!((col_max - 1.0).abs() < 1e-3, "col {c}: {col_max}");
        }
    }

    #[test]
    fn roundtrip_error_is_bounded() {
        let (w, x, sq) = setup(4, 48);
        let (wq, xq) = sq.apply(&w, &x);
        let w_nmse = stats::mse(w.data(), wq.data()) / stats::variance(w.data());
        let x_nmse = stats::mse(x.data(), xq.data()) / stats::variance(x.data());
        assert!(w_nmse < 0.01, "weight nmse {w_nmse}");
        assert!(x_nmse < 0.01, "activation nmse {x_nmse}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    #[allow(
        clippy::let_underscore_must_use,
        reason = "the constructor panics before it returns a value"
    )]
    fn invalid_alpha_panics() {
        let _ = SmoothQuant::with_synthetic_calibration(8, 8, 1.5, 16, 8, 1);
    }
}
