//! Fig 2(b): bits/value needed to meet an MSE budget as the encoding
//! pipeline's stages are enabled one at a time.
//!
//! The paper reports 8 bits for plain quantization falling to ~2.6 bits
//! with the full intra pipeline, with entropy coding alone contributing
//! ~0.4 bits and inter prediction contributing nothing. We run the same
//! ladder on a synthetic key-projection weight stack (layer index =
//! temporal axis), with the quality constraint expressed in the pixel
//! domain (MSE ≤ 10 px², i.e. ~38 dB PSNR, the §3 operating point).

use llm265_bench::table::{f, Table};
use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{llm_weight_stack, WeightProfile};
use llm265_videocodec::ablation::{run_stage, stages};
use llm265_videocodec::{CodecError, Frame, Profile};

fn main() -> Result<(), CodecError> {
    let mut rng = Pcg32::seed_from(42);
    // 4 layers of 128x128 key-projection-like weights as frames. The
    // profile is tuned so the 8-bit plane has near-paper entropy (~7.4
    // bits) with strong channel-band structure (see DESIGN.md).
    let profile_cfg = WeightProfile {
        body_std: 0.02,
        channel_spread: 0.4,
        outlier_prob: 2e-4,
        outlier_scale: 3.0,
        smooth_strength: 1.0,
        smooth_rank: 3,
        band_strength: 4.0,
        band_width: 6,
    };
    let stack = llm_weight_stack(4, 128, 128, &profile_cfg, &mut rng);
    let frames: Vec<Frame> = stack
        .iter()
        .map(|w| {
            let (lo, hi) = w.min_max();
            let scale = (hi - lo).max(1e-9) / 255.0;
            Frame::from_fn(w.cols(), w.rows(), |x, y| {
                (((w[(y, x)] - lo) / scale).round() as i32).clamp(0, 255) as u8
            })
        })
        .collect();

    let target_mse = 10.0; // pixel² units (~38 dB PSNR)
    let profile = Profile::h265();
    let mut table = Table::new(vec!["stage", "bits/value", "mse(px^2)"]);
    let mut prev_bits = None;
    for stage in stages() {
        let r = run_stage(&frames, &profile, &stage, target_mse)?;
        let delta = prev_bits
            .map(|p: f64| format!(" ({:+.2})", r.bits_per_value - p))
            .unwrap_or_default();
        table.row(vec![
            r.label.to_string(),
            format!("{}{}", f(r.bits_per_value, 3), delta),
            f(r.mse, 2),
        ]);
        prev_bits = Some(r.bits_per_value);
    }
    table.print("Fig 2(b) — pipeline stage ablation (MSE budget 10 px²)");
    println!("\nPaper shape: 8.0 -> ~7.6 (entropy) -> ... -> ~2.6 (intra); inter adds nothing.");
    Ok(())
}
