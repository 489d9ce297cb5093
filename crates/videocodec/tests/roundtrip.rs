//! End-to-end codec invariants: decode(encode(x)) is bit-exact with the
//! encoder's reconstruction, for every profile, pipeline configuration and
//! frame shape.

use llm265_tensor::check::Checker;
use llm265_tensor::prop_ensure;
use llm265_tensor::rng::Pcg32;
use llm265_videocodec::{
    decode_video, encode_video, CodecConfig, CodecError, Frame, PipelineConfig, Profile,
};

fn textured_frame(seed: u64, w: usize, h: usize) -> Frame {
    let mut rng = Pcg32::seed_from(seed);
    let bands: Vec<i32> = (0..w).map(|x| ((x / 5) as i32 * 37) % 120).collect();
    Frame::from_fn(w, h, |x, y| {
        let v = 70 + bands[x] + ((y / 7) as i32 * 11) % 60 + (rng.below(21) as i32 - 10);
        v.clamp(0, 255) as u8
    })
}

fn assert_roundtrip(frames: &[Frame], cfg: &CodecConfig) {
    let enc = encode_video(frames, cfg).expect("encode");
    let dec = decode_video(&enc.bytes).unwrap_or_else(|e| panic!("{cfg:?}: decode failed: {e}"));
    assert_eq!(dec.len(), frames.len());
    for (i, (d, r)) in dec.iter().zip(&enc.recon).enumerate() {
        assert_eq!(d, r, "{cfg:?}: frame {i} decoder/encoder recon mismatch");
    }
}

#[test]
fn roundtrip_all_profiles() {
    let frames = [textured_frame(1, 64, 64)];
    for profile in [Profile::h264(), Profile::h265(), Profile::av1()] {
        let cfg = CodecConfig::default().with_profile(profile).with_qp(26.0);
        assert_roundtrip(&frames, &cfg);
    }
}

/// The configuration matrix: every profile × every pipeline byte × one
/// and two tiles, over two frames so inter coding runs too.
#[test]
fn roundtrip_all_pipeline_configs() {
    let frames = [textured_frame(2, 48, 48), textured_frame(3, 48, 48)];
    for profile in [Profile::h264(), Profile::h265(), Profile::av1()] {
        for byte in 0..PipelineConfig::COUNT {
            let pipeline = PipelineConfig::from_byte(byte).expect("defined switches");
            for tiles in [1, 2] {
                let cfg = CodecConfig::default()
                    .with_profile(profile.clone())
                    .with_pipeline(pipeline)
                    .with_tiles(tiles)
                    .with_qp(30.0);
                assert_roundtrip(&frames, &cfg);
            }
        }
    }
}

#[test]
fn roundtrip_non_aligned_sizes() {
    for &(w, h) in &[(1usize, 1usize), (7, 5), (33, 17), (65, 31), (100, 3)] {
        let frames = [textured_frame(w as u64 * 1000 + h as u64, w, h)];
        assert_roundtrip(&frames, &CodecConfig::default().with_qp(24.0));
    }
}

#[test]
fn roundtrip_extreme_qps() {
    let frames = [textured_frame(4, 40, 40)];
    for qp in [0.0, 4.0, 17.3, 51.0] {
        assert_roundtrip(&frames, &CodecConfig::default().with_qp(qp));
    }
}

#[test]
fn quality_improves_with_lower_qp() {
    let frames = [textured_frame(5, 64, 64)];
    let mse_at = |qp: f64| {
        let enc = encode_video(&frames, &CodecConfig::default().with_qp(qp)).expect("encode");
        frames[0].mse(&enc.recon[0])
    };
    let fine = mse_at(12.0);
    let coarse = mse_at(42.0);
    assert!(fine < coarse, "fine {fine} coarse {coarse}");
    assert!(fine < 6.0, "qp 12 should be near-transparent: mse {fine}");
}

#[test]
fn lossless_at_qstep_one_with_transform_skip() {
    // qp = 4 gives qstep 1; transform-skip then reproduces pixels exactly.
    let frames = [textured_frame(6, 32, 32)];
    let pipeline = PipelineConfig {
        transform: false,
        ..PipelineConfig::default()
    };
    let cfg = CodecConfig::default().with_pipeline(pipeline).with_qp(4.0);
    let enc = encode_video(&frames, &cfg).expect("encode");
    assert_eq!(
        enc.recon[0], frames[0],
        "qstep=1 transform-skip must be lossless"
    );
}

/// `encode_video` refuses `frames` as `InvalidInput` with `msg`.
fn assert_refused(frames: &[Frame], msg: &str) {
    match encode_video(frames, &CodecConfig::default()) {
        Err(CodecError::InvalidInput(m)) => assert_eq!(m, msg),
        other => panic!(
            "expected InvalidInput({msg}), got {:?}",
            other.map(|e| e.bytes)
        ),
    }
}

#[test]
fn encode_refuses_an_empty_video() {
    assert_refused(&[], "cannot encode an empty video");
}

#[test]
fn encode_refuses_zero_size_frames() {
    for (w, h) in [(0, 0), (0, 16), (16, 0)] {
        assert_refused(
            &[Frame::new(w, h)],
            "frames must have non-zero width and height",
        );
    }
}

#[test]
fn encode_refuses_frames_of_different_sizes() {
    let frames = [textured_frame(1, 16, 16), textured_frame(2, 32, 16)];
    assert_refused(&frames, "all frames must share one size");
}

#[test]
fn corrupt_streams_error_gracefully() {
    let frames = [textured_frame(7, 32, 32)];
    let enc = encode_video(&frames, &CodecConfig::default()).expect("encode");
    assert!(decode_video(&[]).is_err());
    assert!(decode_video(&enc.bytes[..10]).is_err());
    let mut bad_magic = enc.bytes.clone();
    bad_magic[0] ^= 0xff;
    assert!(decode_video(&bad_magic).is_err());
    // Truncating the payload must error, not panic.
    assert!(decode_video(&enc.bytes[..enc.bytes.len() - 4]).is_err());
}

#[test]
fn structured_content_beats_noise() {
    // The codec must exploit structure: banded frames cost fewer bits than
    // pure noise at the same QP.
    let structured = [textured_frame(8, 64, 64)];
    let mut rng = Pcg32::seed_from(9);
    let noise = [Frame::from_fn(64, 64, |_, _| rng.below(256) as u8)];
    let cfg = CodecConfig::default().with_qp(28.0);
    let bits_structured = encode_video(&structured, &cfg).expect("encode").bits();
    let bits_noise = encode_video(&noise, &cfg).expect("encode").bits();
    assert!(
        (bits_structured as f64) < 0.8 * bits_noise as f64,
        "structured {bits_structured} vs noise {bits_noise}"
    );
}

#[test]
fn prop_roundtrip_random_frames() {
    Checker::new(12).run("roundtrip random frames", |rng| {
        let seed = rng.next_u64();
        let w = 4 + rng.below_usize(66);
        let h = 4 + rng.below_usize(66);
        let qp = rng.below(52);
        let frames = [textured_frame(seed, w, h)];
        let cfg = CodecConfig::default().with_qp(qp as f64);
        let enc = encode_video(&frames, &cfg).expect("encode");
        let dec = decode_video(&enc.bytes).map_err(|e| e.to_string())?;
        prop_ensure!(dec[0] == enc.recon[0], "decoder/encoder recon mismatch");
        prop_ensure!(
            dec[0].width() == w && dec[0].height() == h,
            "shape mismatch"
        );
        Ok(())
    });
}

#[test]
fn prop_recon_error_bounded_by_qstep() {
    Checker::new(12).run("recon error bounded by qstep", |rng| {
        // Per-pixel reconstruction error should be loosely bounded by the
        // quantization step (transform spreads error but MSE tracks step²).
        let seed = rng.next_u64();
        let qp = 4 + rng.below(41);
        let frames = [textured_frame(seed, 32, 32)];
        let cfg = CodecConfig::default().with_qp(qp as f64);
        let enc = encode_video(&frames, &cfg).expect("encode");
        let mse = frames[0].mse(&enc.recon[0]);
        let step = llm265_videocodec::quant::qstep(qp as f64);
        // Dead-zone quantizer MSE is at most ~step²; allow 1.2x headroom.
        prop_ensure!(mse <= 1.2 * step * step + 1.0, "mse {mse} step {step}");
        Ok(())
    });
}
