//! Entropy-profile invariants for the interleaved rANS backend.
//!
//! The rANS profile changes only how decided bins are entropy-coded, so
//! reconstructions must be bit-identical to CABAC at the same QP, tiled
//! rANS streams must round-trip (per-tile random access over rANS tiles
//! is tested with `llm265-core`'s tensor index), and hostile
//! payloads (truncated, flipped, declared-length bombs) must come back as
//! typed errors — never a panic or a hang.

use llm265_videocodec::{
    decode_video, encode_video, CodecConfig, CodecError, EntropyProfile, Frame,
};

fn textured_frame(seed: u64, w: usize, h: usize) -> Frame {
    Frame::from_fn(w, h, |x, y| {
        let v = (x * 7 + y * 13 + (x * y) / 3) as u64 + seed * 31;
        (v % 256) as u8
    })
}

/// The decide phase never sees the entropy backend, so switching the
/// profile must change the bytes but not the reconstruction: rANS decode
/// == rANS recon == CABAC recon, bit for bit.
#[test]
fn rans_reconstruction_is_bit_identical_to_cabac() {
    let frames = [textured_frame(1, 96, 96)];
    for qp in [20.0, 28.0, 36.0] {
        let cabac = encode_video(&frames, &CodecConfig::default().with_qp(qp));
        let rans = encode_video(
            &frames,
            &CodecConfig::default()
                .with_qp(qp)
                .with_entropy(EntropyProfile::Rans),
        );
        assert_ne!(cabac.bytes, rans.bytes, "qp {qp}: backends share bytes");
        assert_eq!(
            cabac.recon, rans.recon,
            "qp {qp}: recon differs across backends"
        );
        let dec = decode_video(&rans.bytes).expect("rans decode");
        assert_eq!(dec, rans.recon, "qp {qp}: rans decode != recon");
    }
}

/// Multi-frame clips exercise the inter path under rANS too.
#[test]
fn multi_frame_rans_streams_roundtrip() {
    let frames = [
        textured_frame(2, 64, 96),
        textured_frame(3, 64, 96),
        textured_frame(2, 64, 96), // repeat favours inter prediction
    ];
    let cfg = CodecConfig::default()
        .with_qp(28.0)
        .with_entropy(EntropyProfile::Rans);
    let enc = encode_video(&frames, &cfg);
    let dec = decode_video(&enc.bytes).expect("decode");
    assert_eq!(dec, enc.recon);
}

/// Tiled rANS streams: each tile payload carries its own frequency
/// table, and the whole stream still decodes to the committed recon.
#[test]
fn tiled_rans_streams_roundtrip_bit_exact() {
    let frames = [textured_frame(4, 96, 96)]; // 3 CTU rows at CTU 32
    for tiles in [2usize, 3] {
        let cfg = CodecConfig::default()
            .with_qp(26.0)
            .with_tiles(tiles)
            .with_entropy(EntropyProfile::Rans);
        let enc = encode_video(&frames, &cfg);
        let dec = decode_video(&enc.bytes).expect("tiled rans decode");
        assert_eq!(dec[0], enc.recon[0], "{tiles} tiles decode != recon");
    }
}

/// Truncating an rANS stream anywhere in the payload must yield a typed
/// error, never a panic or a hang. (Very short prefixes that still parse
/// as an empty-frame header are impossible here: the header alone is 22
/// bytes and every truncation below cuts into the payload.)
#[test]
fn truncated_rans_payloads_are_typed_errors() {
    let frames = [textured_frame(6, 64, 64)];
    let cfg = CodecConfig::default()
        .with_qp(28.0)
        .with_entropy(EntropyProfile::Rans);
    let enc = encode_video(&frames, &cfg);
    for cut in [enc.bytes.len() - 1, enc.bytes.len() - 7, 30, 23] {
        let r = decode_video(&enc.bytes[..cut]);
        assert!(
            matches!(
                r,
                Err(CodecError::Truncated(_))
                    | Err(CodecError::Corrupt(_))
                    | Err(CodecError::LimitExceeded(_))
            ),
            "cut at {cut}: {r:?}"
        );
    }
}

/// Flipping payload bytes must never panic: the decoder either returns a
/// typed error or a (wrong) frame, but stays total. Bins past the end of
/// the recorded stream read as zero, so a corrupted-but-parseable payload
/// is allowed to decode to garbage — what is not allowed is a crash.
#[test]
fn byte_flipped_rans_payloads_never_panic() {
    let frames = [textured_frame(7, 64, 64)];
    let cfg = CodecConfig::default()
        .with_qp(28.0)
        .with_entropy(EntropyProfile::Rans);
    let enc = encode_video(&frames, &cfg);
    // Flip every byte position past the header, one at a time.
    for pos in 22..enc.bytes.len() {
        let mut evil = enc.bytes.clone();
        evil[pos] ^= 0xff;
        let _ = decode_video(&evil); // must not panic or hang
    }
}
