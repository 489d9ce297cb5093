//! Video-codec playground: drive the software codec directly — encode
//! frames under different profiles and pipeline configurations, and watch
//! where the bits go. Useful for understanding why the tensor codec
//! behaves the way it does.
//!
//! ```sh
//! cargo run --release --example video_codec_playground
//! ```

use llm265::tensor::rng::Pcg32;
use llm265::videocodec::{
    decode_video, encode_video, rate, CodecConfig, Frame, PipelineConfig, Profile,
};

/// A synthetic "weight image": channel bands + smooth field + noise.
fn weight_frame(seed: u64, n: usize) -> Frame {
    let mut rng = Pcg32::seed_from(seed);
    let bands: Vec<f64> = (0..n)
        .map(|x| 40.0 * ((x / 6) as f64 * 0.8).sin())
        .collect();
    let mut row_field = 0.0f64;
    let rows: Vec<f64> = (0..n)
        .map(|_| {
            row_field = 0.95 * row_field + 3.0 * rng.normal();
            row_field
        })
        .collect();
    Frame::from_fn(n, n, |x, y| {
        (128.0 + bands[x] + rows[y] + 9.0 * rng.normal()).clamp(0.0, 255.0) as u8
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let frame = weight_frame(7, 128);

    // Sweep QP: rate-distortion curve of the default (H.265-like) profile.
    println!("QP sweep (H.265-like profile):");
    println!("{:>6} {:>12} {:>10}", "QP", "bits/pixel", "MSE(px^2)");
    for qp in [12.0, 20.0, 28.0, 36.0, 44.0] {
        let cfg = CodecConfig::default().with_qp(qp);
        let enc = encode_video(std::slice::from_ref(&frame), &cfg)?;
        let dec = decode_video(&enc.bytes)?;
        println!(
            "{qp:>6.0} {:>12.3} {:>10.2}",
            enc.bits_per_pixel(),
            frame.mse(&dec[0])
        );
    }

    // Compare profiles at a fixed bitrate target.
    println!("\nProfiles at 2.0 bits/pixel:");
    for profile in [Profile::h264(), Profile::h265(), Profile::av1()] {
        let name = profile.kind().name();
        let cfg = CodecConfig::default().with_profile(profile);
        let res = rate::encode_to_bitrate(std::slice::from_ref(&frame), &cfg, 2.0)?;
        println!(
            "  {name:6} qp {:>5.1}: {:.3} bits/pixel, MSE {:.2}",
            res.qp,
            res.bits_per_pixel(),
            rate::mse_of(std::slice::from_ref(&frame), &res.encoded)
        );
    }

    // Toggle pipeline stages at a fixed QP (the Fig 2b machinery).
    println!("\nPipeline stages at QP 32:");
    for (label, pipeline) in [
        ("full intra pipeline", PipelineConfig::default()),
        (
            "no intra prediction",
            PipelineConfig {
                intra: false,
                ..PipelineConfig::default()
            },
        ),
        (
            "no transform (spatial)",
            PipelineConfig {
                transform: false,
                ..PipelineConfig::default()
            },
        ),
        (
            "fixed 8x8 grid",
            PipelineConfig {
                adaptive_partition: false,
                ..PipelineConfig::default()
            },
        ),
    ] {
        let cfg = CodecConfig::default().with_pipeline(pipeline).with_qp(32.0);
        let enc = encode_video(std::slice::from_ref(&frame), &cfg)?;
        let dec = decode_video(&enc.bytes)?;
        println!(
            "  {label:22}: {:.3} bits/pixel, MSE {:.2}",
            enc.bits_per_pixel(),
            frame.mse(&dec[0])
        );
    }
    Ok(())
}
