//! Single-frame ("image") coding: the three-in-one codec's third input
//! class reuses the intra pipeline exactly as the AVC image format does
//! (the paper's §7). These tests pin down that path: one intra frame is a
//! complete, self-contained image codec with sane rate-distortion.

use llm265_tensor::rng::Pcg32;
use llm265_videocodec::rate::{encode_to_bitrate, encode_to_mse, mse_of};
use llm265_videocodec::{decode_video, encode_video, CodecConfig, Frame};

/// A photo-like frame: smooth shading + edges + texture noise.
fn photo(seed: u64, n: usize) -> Frame {
    let mut rng = Pcg32::seed_from(seed);
    Frame::from_fn(n, n, |x, y| {
        let shade = 90.0 + 60.0 * ((x as f64 / n as f64) * std::f64::consts::PI).sin();
        let edge = if (x / 20 + y / 28) % 2 == 0 {
            35.0
        } else {
            -25.0
        };
        let texture = 6.0 * rng.normal();
        (shade + edge + texture).clamp(0.0, 255.0) as u8
    })
}

#[test]
fn image_roundtrip_is_bit_exact_with_encoder_recon() {
    let img = photo(1, 96);
    let cfg = CodecConfig::default().with_qp(24.0);
    let enc = encode_video(std::slice::from_ref(&img), &cfg).expect("encode");
    let dec = decode_video(&enc.bytes).unwrap();
    assert_eq!(dec[0], enc.recon[0]);
}

#[test]
fn image_rate_distortion_is_sane() {
    // A photo-like image at 1 bit/pixel should be visually transparent-ish
    // (PSNR > 30 dB ⇔ MSE < 65) and clearly better at 3 bits/pixel.
    let img = photo(2, 128);
    let cfg = CodecConfig::default();
    let at1 = encode_to_bitrate(std::slice::from_ref(&img), &cfg, 1.0).unwrap();
    let at3 = encode_to_bitrate(std::slice::from_ref(&img), &cfg, 3.0).unwrap();
    let mse1 = mse_of(std::slice::from_ref(&img), &at1.encoded);
    let mse3 = mse_of(std::slice::from_ref(&img), &at3.encoded);
    assert!(mse1 < 65.0, "1 bpp mse {mse1}");
    assert!(mse3 < mse1 / 2.0, "3 bpp mse {mse3} vs {mse1}");
}

#[test]
fn quality_targeted_image_coding() {
    let img = photo(3, 96);
    let cfg = CodecConfig::default();
    let res = encode_to_mse(std::slice::from_ref(&img), &cfg, 20.0).unwrap();
    let got = mse_of(std::slice::from_ref(&img), &res.encoded);
    assert!(got <= 20.0 + 1e-9, "mse {got}");
    assert!(res.encoded.bits_per_pixel() < 4.0);
}
