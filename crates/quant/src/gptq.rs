//! GPTQ-style post-training quantization.
//!
//! GPTQ rounds weight columns one at a time, each time redistributing the
//! rounding error onto the not-yet-quantized columns through the inverse
//! Hessian of the layer's reconstruction loss, `H = X^T X` over a
//! calibration set (§2.1 of the paper; Frantar et al. 2023). This is the
//! paper's main *calibration-dependent* baseline: its quality hinges on
//! the calibration data matching deployment data — exactly the dependence
//! LLM.265 avoids.

use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::rng::Pcg32;
use llm265_tensor::Tensor;

use crate::linalg::spd_inverse;
use crate::rtn::{GroupScheme, RtnQuantizer};

/// GPTQ-style quantizer bound to a calibration activation matrix.
#[derive(Debug, Clone)]
pub struct GptqQuantizer {
    bits: u32,
    group: usize,
    damp: f64,
    calib: Tensor,
}

impl GptqQuantizer {
    /// Creates a quantizer from explicit calibration activations
    /// (`samples × in_features`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside 1..=8 or `calib` is empty.
    pub fn new(bits: u32, group: usize, calib: Tensor) -> Self {
        assert!((1..=8).contains(&bits), "bits must be 1..=8");
        assert!(!calib.is_empty(), "calibration set must be non-empty");
        GptqQuantizer {
            bits,
            group: group.max(1),
            damp: 0.01,
            calib,
        }
    }

    /// Creates a quantizer with a synthetic calibration set of `samples`
    /// rows — the stand-in for WikiText-2 calibration batches. Features
    /// are AR(1)-correlated with per-channel scales: GPTQ's Hessian
    /// compensation only has leverage when `H = XᵀX` is non-diagonal,
    /// which real LLM activations (and these) are.
    #[must_use]
    pub fn with_synthetic_calibration(
        bits: u32,
        group: usize,
        in_features: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        let mut rng = Pcg32::seed_from(seed);
        let chan_scale: Vec<f64> = (0..in_features)
            .map(|_| (0.4 * rng.normal()).exp())
            .collect();
        let mut calib = Tensor::zeros(samples, in_features);
        for s in 0..samples {
            let mut prev = rng.normal();
            for c in 0..in_features {
                prev = 0.7 * prev + 0.5 * rng.normal();
                calib[(s, c)] = (chan_scale[c] * prev) as f32;
            }
        }
        Self::new(bits, group, calib)
    }

    /// Quantizes a weight matrix (`out_features × in_features`) and
    /// returns the reconstruction.
    ///
    /// # Panics
    ///
    /// Panics if the weight's column count differs from the calibration
    /// set's feature count.
    pub fn apply(&self, w: &Tensor) -> Tensor {
        let n = w.cols();
        assert_eq!(
            n,
            self.calib.cols(),
            "weight in_features must match calibration features"
        );
        // H = X^T X / samples + damp·mean(diag)·I.
        let mut h = vec![0.0f64; n * n];
        for s in 0..self.calib.rows() {
            let row = self.calib.row(s);
            for i in 0..n {
                let xi = row[i] as f64;
                // Exact-zero skip is a pure perf shortcut — a true 0.0 adds
                // nothing to the Gram matrix.
                if xi == 0.0 {
                    continue;
                }
                for j in i..n {
                    h[i * n + j] += xi * row[j] as f64;
                }
            }
        }
        let samples = self.calib.rows() as f64;
        for i in 0..n {
            for j in 0..i {
                h[i * n + j] = h[j * n + i];
            }
        }
        let mean_diag = (0..n).map(|i| h[i * n + i]).sum::<f64>() / n as f64 / samples;
        for v in h.iter_mut() {
            *v /= samples;
        }
        for i in 0..n {
            h[i * n + i] += self.damp * mean_diag.max(1e-12);
        }
        // GPTQ propagates rounding error through the *upper Cholesky
        // factor* U of H^-1 (A = L·Lᵀ, U = Lᵀ): err = (w_j − q)/U[j][j],
        // then w_k −= err·U[j][k] for k > j. U[j][k] = L[k][j].
        let l_factor = match spd_inverse(&h, n).and_then(|a| crate::linalg::cholesky(&a, n)) {
            Some(l) => l,
            // Degenerate calibration: fall back to plain group-wise RTN.
            None => {
                return RtnQuantizer::symmetric(self.bits, GroupScheme::Groups(self.group)).apply(w)
            }
        };

        // Per-group symmetric grids, computed up front per row. `new`
        // asserts the width; restating it bounds the shift below.
        debug_assert!((1..=8).contains(&self.bits));
        let half = (1u32 << (self.bits - 1)) as f32;
        let mut out = Tensor::zeros(w.rows(), w.cols());
        let mut work: Vec<f64> = Vec::with_capacity(n);
        for r in 0..w.rows() {
            work.clear();
            work.extend(w.row(r).iter().map(|&v| v as f64));
            // Column-sequential rounding with error propagation.
            for j in 0..n {
                // Grid scale from the current group's *original* weights.
                let g0 = (j / self.group) * self.group;
                let g1 = (g0 + self.group).min(n);
                let max_abs = w.row(r)[g0..g1].iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let delta = if max_abs > 0.0 { max_abs / half } else { 0.0 };
                // `delta` is assigned exactly 0.0 for all-zero groups one line
                // up; this guards the division.
                let q = if delta == 0.0 {
                    0.0
                } else {
                    ((work[j] / delta as f64).round()).clamp(-(half as f64), half as f64 - 1.0)
                        * delta as f64
                };
                let err = (work[j] - q) / l_factor[j * n + j].max(1e-12);
                work[j] = q;
                for k in j + 1..n {
                    work[k] -= err * l_factor[k * n + j];
                }
                out[(r, j)] = q as f32;
            }
        }
        out
    }

    /// Wire size in bits (payload + one scale per group per row).
    pub fn wire_bits(&self, w: &Tensor) -> u64 {
        // `self.group` is clamped to >= 1 at construction.
        let groups_per_row = (w.cols() as u64).div_ceil(self.group as u64);
        w.len() as u64 * u64::from(self.bits) + w.rows() as u64 * groups_per_row * 32
    }
}

impl LossyCompressor for GptqQuantizer {
    fn name(&self) -> String {
        if self.group >= 1 << 20 {
            format!("GPTQ{}", self.bits)
        } else {
            format!("GPTQ{}-{}G", self.bits, self.group)
        }
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
    use llm265_tensor::stats;
    use llm265_tensor::synthetic::{llm_weight, WeightProfile};

    fn weight(seed: u64, n: usize) -> Tensor {
        let mut rng = Pcg32::seed_from(seed);
        llm_weight(n, n, &WeightProfile::default(), &mut rng)
    }

    /// Layer-output error on a probe batch — what GPTQ optimizes.
    fn output_error(w: &Tensor, wq: &Tensor, probe: &Tensor) -> f64 {
        let y = probe.matmul(&w.transposed());
        let yq = probe.matmul(&wq.transposed());
        stats::mse(y.data(), yq.data())
    }

    #[test]
    fn gptq_beats_rtn_on_layer_output_error() {
        let n = 48;
        let w = weight(1, n);
        let q = GptqQuantizer::with_synthetic_calibration(3, 1 << 20, n, 256, 7);
        let wq_gptq = q.apply(&w);
        let wq_rtn = RtnQuantizer::symmetric(3, GroupScheme::PerRow).apply(&w);

        // Probe batch drawn from the same correlated distribution as the
        // calibration set (same seed → same channel scales).
        let probe = GptqQuantizer::with_synthetic_calibration(3, 1 << 20, n, 128, 7).calib;
        let e_gptq = output_error(&w, &wq_gptq, &probe);
        let e_rtn = output_error(&w, &wq_rtn, &probe);
        assert!(
            e_gptq < e_rtn,
            "gptq {e_gptq} should beat per-row rtn {e_rtn}"
        );
    }

    #[test]
    fn quantized_values_lie_on_the_grid_scale() {
        let n = 16;
        let w = weight(2, n);
        let q = GptqQuantizer::with_synthetic_calibration(4, n, n, 64, 3);
        let wq = q.apply(&w);
        // Error stays bounded relative to the weight scale.
        let nmse = stats::mse(w.data(), wq.data()) / stats::variance(w.data());
        assert!(nmse < 0.2, "nmse {nmse}");
    }

    #[test]
    fn group_scales_isolate_outliers() {
        let n = 64;
        let mut w = weight(3, n);
        w[(0, 0)] = 5.0; // outlier in group 0
        let grouped = GptqQuantizer::with_synthetic_calibration(4, 16, n, 128, 5);
        let whole = GptqQuantizer::with_synthetic_calibration(4, 1 << 20, n, 128, 5);
        let e_g = stats::mse(w.data(), grouped.apply(&w).data());
        let e_w = stats::mse(w.data(), whole.apply(&w).data());
        assert!(e_g < e_w, "grouped {e_g} vs per-row {e_w}");
    }

    #[test]
    fn wire_bits_accounting() {
        let w = weight(4, 32);
        let q = GptqQuantizer::with_synthetic_calibration(3, 16, 32, 32, 1);
        // 1024 values * 3 bits + 32 rows * 2 groups * 32 bits.
        assert_eq!(q.wire_bits(&w), 1024 * 3 + 32 * 2 * 32);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_calibration_panics() {
        let w = weight(5, 16);
        let q = GptqQuantizer::with_synthetic_calibration(4, 16, 8, 32, 1);
        let _ = q.apply(&w);
    }
}
