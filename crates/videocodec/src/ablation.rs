//! Pipeline-stage ablation (the paper's Fig 2b).
//!
//! The paper enables the encoding pipeline's stages one at a time and
//! measures the bits/value needed to stay under an MSE budget, showing the
//! contribution of each stage (8 bits with plain quantization down to
//! ~2.6 with intra prediction, with inter prediction giving nothing back).
//! [`stages`] enumerates that ladder; [`run_stage`] measures one rung.

use crate::rate::{encode_to_mse, mse_of};
use crate::{CodecConfig, CodecError, Frame, PipelineConfig, Profile};

/// One rung of the ablation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Human-readable label used in the Fig 2(b) table.
    pub label: &'static str,
    /// Pipeline switches for this rung; `None` for stage 1, plain 8-bit
    /// quantization, which stores the 8-bit plane as is and needs no
    /// codec: 8 bits/value at zero pixel-domain MSE by definition.
    pub pipeline: Option<PipelineConfig>,
    /// A fixed QP instead of the MSE-targeted search. Stage 2 pins QP to
    /// the lossless step (qstep = 1): in the paper's pipeline the
    /// quantizer lives inside the transform stage (Fig 2a ②), so with the
    /// transform off the entropy coder sees the 8-bit input losslessly.
    pub pinned_qp: Option<f64>,
}

/// The Fig 2(b) ladder: stages enabled incrementally.
pub fn stages() -> Vec<Stage> {
    let off = PipelineConfig {
        transform: false,
        adaptive_partition: false,
        intra: false,
        inter: false,
    };
    vec![
        Stage {
            label: "(1) 8-bit quantization",
            pipeline: None,
            pinned_qp: None,
        },
        Stage {
            label: "(2) + entropy coding",
            pipeline: Some(off),
            // qstep = 1: lossless coding of the quantized 8-bit input.
            pinned_qp: Some(4.0),
        },
        Stage {
            label: "(3) + transform coding",
            pipeline: Some(PipelineConfig {
                transform: true,
                ..off
            }),
            pinned_qp: None,
        },
        Stage {
            label: "(4) + adaptive partitioning",
            pipeline: Some(PipelineConfig {
                transform: true,
                adaptive_partition: true,
                ..off
            }),
            pinned_qp: None,
        },
        Stage {
            label: "(5) + intra prediction",
            pipeline: Some(PipelineConfig::default()),
            pinned_qp: None,
        },
        Stage {
            label: "(6) + inter prediction",
            pipeline: Some(PipelineConfig::full_video()),
            pinned_qp: None,
        },
    ]
}

/// Result of measuring one ablation rung.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// The rung's label.
    pub label: &'static str,
    /// Bits per pixel needed to meet the MSE budget.
    pub bits_per_value: f64,
    /// Pixel-domain MSE actually achieved.
    pub mse: f64,
}

/// Measures the bits/value one stage configuration needs to meet
/// `target_mse` (pixel² units) on `frames`.
///
/// # Errors
///
/// On a codec stage, propagates [`crate::encode_video`]'s
/// [`CodecError::InvalidInput`] for frames it cannot encode and
/// [`encode_to_mse`]'s rejection of a negative or non-finite
/// `target_mse`.
pub fn run_stage(
    frames: &[Frame],
    profile: &Profile,
    stage: &Stage,
    target_mse: f64,
) -> Result<StageResult, CodecError> {
    let Some(pipeline) = stage.pipeline else {
        // Plain 8-bit quantization: the frames are the stored values.
        return Ok(StageResult {
            label: stage.label,
            bits_per_value: 8.0,
            mse: 0.0,
        });
    };
    let cfg = CodecConfig::default()
        .with_profile(profile.clone())
        .with_pipeline(pipeline);
    if let Some(qp) = stage.pinned_qp {
        let enc = crate::encode_video(frames, &cfg.clone().with_qp(qp))?;
        return Ok(StageResult {
            label: stage.label,
            bits_per_value: enc.bits_per_pixel(),
            mse: mse_of(frames, &enc),
        });
    }
    let res = encode_to_mse(frames, &cfg, target_mse)?;
    Ok(StageResult {
        label: stage.label,
        bits_per_value: res.encoded.bits_per_pixel(),
        mse: mse_of(frames, &res.encoded),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm265_tensor::rng::Pcg32;

    /// A weight-like frame: channel-banded means, a smooth low-rank field,
    /// noise and rare outliers — the texture §3.1 says makes tensors
    /// codec-friendly (Fig 4's "edges and planar blocks").
    fn weight_frame(seed: u64, n: usize) -> Frame {
        let mut rng = Pcg32::seed_from(seed);
        let col_mean: Vec<f64> = (0..n)
            .map(|x| 35.0 * ((x / 6) as f64 * 0.9).sin())
            .collect();
        let row_field: Vec<f64> = {
            let mut acc = 0.0;
            (0..n)
                .map(|_| {
                    acc = 0.95 * acc + 4.0 * rng.normal();
                    acc
                })
                .collect()
        };
        Frame::from_fn(n, n, |x, y| {
            let mut v = 128.0 + col_mean[x] + row_field[y] + 10.0 * rng.normal();
            if rng.chance(0.002) {
                v += 90.0;
            }
            v.clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn ladder_has_six_rungs_in_order() {
        let s = stages();
        assert_eq!(s.len(), 6);
        assert!(s[0].pipeline.is_none());
        let p: Vec<PipelineConfig> = s[1..].iter().filter_map(|s| s.pipeline).collect();
        assert_eq!(p.len(), 5);
        assert!(!p[0].transform);
        assert!(p[1].transform && !p[1].adaptive_partition);
        assert!(p[2].adaptive_partition && !p[2].intra);
        assert!(p[3].intra && !p[3].inter);
        assert!(p[4].inter);
    }

    #[test]
    fn codec_stages_reject_empty_frames() {
        for stage in &stages()[1..] {
            let r = run_stage(&[], &Profile::h265(), stage, 10.0);
            assert!(
                matches!(r, Err(CodecError::InvalidInput(_))),
                "{}",
                stage.label
            );
        }
    }

    #[test]
    fn stage1_is_exactly_eight_bits() {
        let frames = [weight_frame(10, 64)];
        let r = run_stage(&frames, &Profile::h265(), &stages()[0], 10.0).unwrap();
        assert_eq!(r.bits_per_value, 8.0);
        assert_eq!(r.mse, 0.0);
    }

    #[test]
    fn each_stage_reduces_bits_until_inter() {
        // The core Fig 2(b) shape: monotone drop through stage 5, no gain
        // from stage 6. Uses a small frame so the test stays fast.
        let frames = [weight_frame(11, 64)];
        let profile = Profile::h265();
        let results: Vec<StageResult> = stages()
            .iter()
            .map(|s| run_stage(&frames, &profile, s, 10.0).unwrap())
            .collect();
        let bits: Vec<f64> = results.iter().map(|r| r.bits_per_value).collect();
        assert!(bits[1] < bits[0], "entropy coding must beat raw: {bits:?}");
        assert!(
            bits[2] < bits[1],
            "transform must beat entropy-only: {bits:?}"
        );
        assert!(
            bits[4] < bits[2],
            "intra must beat transform-only: {bits:?}"
        );
        // Inter gives nothing on a single frame (and little on weight
        // stacks) — allow noise but no real win.
        assert!(bits[5] >= bits[4] * 0.95, "inter should not help: {bits:?}");
        // MSE budget respected wherever entropy coding is on.
        for r in &results[1..] {
            assert!(r.mse <= 10.0 + 1e-9, "{}: mse {}", r.label, r.mse);
        }
    }
}
