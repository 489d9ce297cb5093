//! Residual-compensated gradient compression (§5.1 of the paper).
//!
//! Gradients are the hardest tensor class: directly compressing them to
//! ~3.5 bits makes training diverge after a few hundred steps. The paper's
//! fix is two-stage:
//!
//! 1. compress the gradient `G` to ~3.5 bits: `Comp(G)`;
//! 2. compress the residual `G − Comp(G)` with a schedule — LLM.265 at
//!    ~3.5 bits for the first `switch_step` steps, then 8-bit RTN
//!    afterwards, because late-training gradients develop 1→3 orders of
//!    magnitude of per-dimension range variance that a 3.5-bit residual
//!    can no longer carry.
//!
//! The transmitted payload is both stages; the receiver reconstructs
//! `Comp(G) + Comp(residual)`. The paper's realized average for an 8 000-
//! step run with `switch_step = 2500` is
//! `((3.5 + 3.5) · 2500 + (3.5 + 8) · 5500) / 8000 ≈ 10.1` bits/value,
//! reproduced by [`average_bits_per_value`].

use llm265_tensor::channel::LossyCompressor;
use llm265_tensor::Tensor;

use crate::{Llm265Codec, RateTarget, TensorCodec};

/// Configuration of the two-stage gradient compressor.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualCompensatorConfig {
    /// Bits/value for the primary pass `Comp(G)`.
    pub primary_bits: f64,
    /// Bits/value for the residual pass while in the early phase.
    pub early_residual_bits: f64,
    /// Step at which the residual pass switches to 8-bit RTN.
    pub switch_step: usize,
}

impl Default for ResidualCompensatorConfig {
    fn default() -> Self {
        ResidualCompensatorConfig {
            primary_bits: 3.5,
            early_residual_bits: 3.5,
            switch_step: 2500,
        }
    }
}

/// Two-stage gradient compressor with residual compensation.
#[derive(Debug, Clone)]
pub struct ResidualCompensator {
    codec: Llm265Codec,
    config: ResidualCompensatorConfig,
    step: usize,
}

impl ResidualCompensator {
    /// Creates a compensator with the paper's defaults (3.5 + 3.5/8 bits,
    /// switch at step 2500).
    pub fn new() -> Self {
        Self::with_config(ResidualCompensatorConfig::default())
    }

    /// Creates a compensator with an explicit configuration.
    #[must_use]
    pub fn with_config(config: ResidualCompensatorConfig) -> Self {
        ResidualCompensator {
            codec: Llm265Codec::new(),
            config,
            step: 0,
        }
    }

    /// Current training step (advanced once per [`LossyCompressor::transcode`]).
    pub fn step(&self) -> usize {
        self.step
    }

    /// Whether the residual stage has switched to 8-bit RTN.
    fn in_late_phase(&self) -> bool {
        self.step >= self.config.switch_step
    }

    /// Compresses one gradient, returning the reconstruction and the total
    /// transmitted bits. Does not advance the step counter.
    pub fn compress(&self, g: &Tensor) -> (Tensor, u64) {
        // Stage 1: Comp(G).
        #[allow(clippy::expect_used, reason = "non-empty by contract")]
        let enc1 = self
            .codec
            .encode(g, RateTarget::BitsPerValue(self.config.primary_bits))
            .expect("primary gradient encode");
        #[allow(
            clippy::expect_used,
            reason = "decoding a stream produced two lines up"
        )]
        let comp = self.codec.decode(&enc1).expect("primary decode");

        // Stage 2: compress the residual.
        let residual = g.sub(&comp);
        let (res_recon, res_bits) = if self.in_late_phase() {
            rtn8(&residual)
        } else {
            #[allow(clippy::expect_used, reason = "same shape as g")]
            let enc2 = self
                .codec
                .encode(
                    &residual,
                    RateTarget::BitsPerValue(self.config.early_residual_bits),
                )
                .expect("residual encode");
            #[allow(
                clippy::expect_used,
                reason = "decoding a stream produced two lines up"
            )]
            let dec = self.codec.decode(&enc2).expect("residual decode");
            (dec, enc2.bits())
        };

        let mut out = comp;
        out.add_assign(&res_recon);
        (out, enc1.bits() + res_bits)
    }
}

impl Default for ResidualCompensator {
    fn default() -> Self {
        Self::new()
    }
}

impl LossyCompressor for ResidualCompensator {
    fn name(&self) -> String {
        format!(
            "LLM.265(A+G) {:.1}+{:.1}/8b @{}",
            self.config.primary_bits, self.config.early_residual_bits, self.config.switch_step
        )
    }

    fn transcode(&mut self, t: &Tensor) -> (Tensor, u64) {
        let out = self.compress(t);
        self.step += 1;
        out
    }
}

/// Per-row 8-bit min–max RTN quantization of the residual (the late-phase
/// stage-2 coder). Returns the reconstruction and the bits spent
/// (8 bits/value plus two f32 scales per row).
fn rtn8(t: &Tensor) -> (Tensor, u64) {
    let mut out = Tensor::zeros(t.rows(), t.cols());
    for r in 0..t.rows() {
        let row = t.row(r);
        let (lo, hi) = row
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        let scale = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
        let out_row = out.row_mut(r);
        for (o, &v) in out_row.iter_mut().zip(row) {
            // `scale` is assigned exactly 0.0 for flat rows above; this guards
            // the division below.
            if scale == 0.0 {
                *o = lo;
            } else {
                let q = ((v - lo) / scale).round().clamp(0.0, 255.0);
                *o = lo + q * scale;
            }
        }
    }
    let bits = t.len() as u64 * 8 + t.rows() as u64 * 64;
    (out, bits)
}

/// The paper's realized-average formula: bits/value over a whole run of
/// `total_steps`, combining the early (primary + residual) and late
/// (primary + 8-bit RTN) phases.
pub fn average_bits_per_value(config: &ResidualCompensatorConfig, total_steps: usize) -> f64 {
    let early = config.switch_step.min(total_steps) as f64;
    let late = total_steps.saturating_sub(config.switch_step) as f64;
    let early_bits = config.primary_bits + config.early_residual_bits;
    let late_bits = config.primary_bits + 8.0;
    (early_bits * early + late_bits * late) / (early + late).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;
    use llm265_tensor::stats;
    use llm265_tensor::synthetic::{llm_gradient, GradientProfile};

    #[test]
    fn paper_average_formula_matches() {
        // ((3.5 + 3.5) * 2500 + (3.5 + 8) * 5500) / 8000 = 10.09...
        let avg = average_bits_per_value(&ResidualCompensatorConfig::default(), 8000);
        assert!((avg - 10.09375).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn residual_compensation_beats_single_stage() {
        let mut rng = Pcg32::seed_from(30);
        let g = llm_gradient(48, 48, &GradientProfile::at_progress(0.3), &mut rng);
        let comp = ResidualCompensator::new();
        let (two_stage, _) = comp.compress(&g);

        let codec = Llm265Codec::new();
        let enc = codec.encode(&g, RateTarget::BitsPerValue(3.5)).unwrap();
        let one_stage = codec.decode(&enc).unwrap();

        let e2 = stats::tensor_mse(&g, &two_stage);
        let e1 = stats::tensor_mse(&g, &one_stage);
        assert!(e2 < e1, "two-stage {e2} vs one-stage {e1}");
    }

    #[test]
    fn phase_switch_happens_at_configured_step() {
        let mut comp = ResidualCompensator::with_config(ResidualCompensatorConfig {
            switch_step: 3,
            ..Default::default()
        });
        let mut rng = Pcg32::seed_from(31);
        let g = llm_gradient(16, 16, &GradientProfile::default(), &mut rng);
        let mut bits_per_step = Vec::new();
        for _ in 0..5 {
            let (_, bits) = comp.transcode(&g);
            bits_per_step.push(bits);
        }
        assert!(!comp.in_late_phase() || comp.step() >= 3);
        // Late-phase steps carry the 8-bit residual: strictly more bits.
        assert!(bits_per_step[4] > bits_per_step[0]);
        let late_bpv = bits_per_step[4] as f64 / g.len() as f64;
        assert!(
            late_bpv > 8.0,
            "late phase must include 8-bit residual: {late_bpv}"
        );
    }

    #[test]
    fn late_phase_handles_wide_range_gradients() {
        // Late-training gradients have 3 orders of magnitude of row-scale
        // spread; the 8-bit RTN residual must keep relative error sane.
        let mut rng = Pcg32::seed_from(32);
        let g = llm_gradient(64, 64, &GradientProfile::at_progress(1.0), &mut rng);
        let mut comp = ResidualCompensator::with_config(ResidualCompensatorConfig {
            switch_step: 0,
            ..Default::default()
        });
        let (recon, bits) = comp.transcode(&g);
        let nmse = stats::tensor_mse(&g, &recon) / stats::variance(g.data());
        assert!(nmse < 0.05, "nmse {nmse}");
        let bpv = bits as f64 / g.len() as f64;
        assert!(bpv > 10.0 && bpv < 14.0, "bpv {bpv}");
    }

    #[test]
    fn rtn8_row_scaling_is_tight() {
        let mut t = Tensor::zeros(2, 4);
        t.row_mut(0).copy_from_slice(&[0.0, 1.0, 2.0, 3.0]);
        t.row_mut(1).copy_from_slice(&[-1000.0, 0.0, 500.0, 1000.0]);
        let (out, bits) = rtn8(&t);
        for r in 0..2 {
            let row_range = if r == 0 { 3.0f32 } else { 2000.0 };
            for (a, b) in t.row(r).iter().zip(out.row(r)) {
                assert!((a - b).abs() <= row_range / 255.0 / 2.0 + 1e-3);
            }
        }
        assert_eq!(bits, 8 * 8 + 2 * 64);
    }

    #[test]
    fn rtn8_constant_rows_are_exact() {
        let t = Tensor::full(3, 5, -0.75);
        let (out, _) = rtn8(&t);
        assert_eq!(out, t);
    }
}
