//! Validates the inter-prediction path itself: the paper's claim that
//! inter-frame prediction does not help *tensors* (Fig 2b step 5→6) is
//! only meaningful if the same machinery demonstrably helps *video*.
//! These tests establish both halves.

use llm265_tensor::rng::Pcg32;
use llm265_videocodec::{decode_video, encode_video, CodecConfig, Frame, PipelineConfig};

/// A textured scene that translates by (dx, dy) per frame — classic video.
fn moving_scene(frames: usize, n: usize, dx: isize, dy: isize) -> Vec<Frame> {
    let mut rng = Pcg32::seed_from(99);
    let big = 2 * n;
    let backdrop = Frame::from_fn(big, big, |x, y| {
        ((x * 13 + y * 7 + (x * y) / 5) % 200 + rng.below(20) as usize) as u8
    });
    (0..frames)
        .map(|f| {
            Frame::from_fn(n, n, |x, y| {
                backdrop.get_clamped(
                    (x as isize + f as isize * dx + n as isize / 2).min(big as isize - 1),
                    (y as isize + f as isize * dy + n as isize / 2).min(big as isize - 1),
                )
            })
        })
        .collect()
}

/// Uncorrelated "layer stack" frames — tensors viewed as video.
fn layer_stack(frames: usize, n: usize) -> Vec<Frame> {
    (0..frames)
        .map(|f| {
            let mut rng = Pcg32::seed_from(1000 + f as u64);
            let bands: Vec<i32> = (0..n).map(|_| rng.below(120) as i32).collect();
            Frame::from_fn(n, n, |x, _y| {
                (70 + bands[x] + rng.below(21) as i32 - 10).clamp(0, 255) as u8
            })
        })
        .collect()
}

fn bits_with(frames: &[Frame], inter: bool) -> (u64, f64) {
    let pipeline = if inter {
        PipelineConfig::full_video()
    } else {
        PipelineConfig::default()
    };
    let cfg = CodecConfig::default().with_pipeline(pipeline).with_qp(30.0);
    let enc = encode_video(frames, &cfg).expect("encode");
    let dec = decode_video(&enc.bytes).expect("decode");
    let mse: f64 =
        frames.iter().zip(&dec).map(|(a, b)| a.mse(b)).sum::<f64>() / frames.len() as f64;
    (enc.bits(), mse)
}

#[test]
fn inter_prediction_helps_real_video() {
    let frames = moving_scene(4, 96, 3, 1);
    let (bits_intra, mse_intra) = bits_with(&frames, false);
    let (bits_inter, mse_inter) = bits_with(&frames, true);
    // Same QP → similar quality; inter must spend clearly fewer bits.
    assert!(
        (mse_inter - mse_intra).abs() < mse_intra * 0.5 + 4.0,
        "quality drifted: {mse_intra} vs {mse_inter}"
    );
    assert!(
        (bits_inter as f64) < 0.8 * bits_intra as f64,
        "inter {bits_inter} should beat intra {bits_intra} on translating video"
    );
}

#[test]
fn inter_prediction_does_not_help_layer_stacks() {
    // The paper's negative result: consecutive LLM layers have no pixel
    // correlation, so motion prediction buys nothing.
    let frames = layer_stack(4, 96);
    let (bits_intra, _) = bits_with(&frames, false);
    let (bits_inter, _) = bits_with(&frames, true);
    assert!(
        bits_inter as f64 > 0.95 * bits_intra as f64,
        "inter {bits_inter} should not beat intra {bits_intra} on uncorrelated layers"
    );
}

#[test]
fn p_frames_decode_bit_exactly() {
    // Inter frames reference reconstructed (not original) frames; decode
    // must still match the encoder's reconstruction exactly.
    let frames = moving_scene(3, 64, 2, 2);
    let cfg = CodecConfig::default()
        .with_pipeline(PipelineConfig::full_video())
        .with_qp(24.0);
    let enc = encode_video(&frames, &cfg).expect("encode");
    let dec = decode_video(&enc.bytes).unwrap();
    for (i, (d, r)) in dec.iter().zip(&enc.recon).enumerate() {
        assert_eq!(d, r, "frame {i}");
    }
}
