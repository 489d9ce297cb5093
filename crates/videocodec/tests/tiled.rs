//! Tiled-bitstream invariants: each tile is independently decodable (no
//! prediction or entropy state crosses a tile seam), the decoder must
//! reproduce the encoder's committed reconstruction bit-exactly, and the
//! quality cost of breaking prediction at seams stays small. Also pins
//! the strictness of the header's flags and pipeline bytes.

use llm265_videocodec::{decode_video, encode_video, CodecConfig, CodecError, Frame};

fn textured_frame(seed: u64, w: usize, h: usize) -> Frame {
    Frame::from_fn(w, h, |x, y| {
        let v = (x * 7 + y * 13 + (x * y) / 3) as u64 + seed * 31;
        (v % 256) as u8
    })
}

/// Tiles reset intra prediction at the seam (that is what makes them
/// independently decodable), so the reconstruction is *allowed* to differ
/// from the one-tile stream — but the decoder must still match the
/// encoder's committed recon bit-exactly, and the seam cost must stay a
/// small quality perturbation, not a cliff.
#[test]
fn tiled_decode_is_bit_exact_and_seams_cost_little() {
    let frames = [textured_frame(1, 96, 96)]; // 3 CTU rows at CTU 32
    let one_tile = encode_video(&frames, &CodecConfig::default().with_qp(26.0)).expect("encode");
    let base_mse = frames[0].mse(&one_tile.recon[0]);
    for tiles in [2usize, 3] {
        let cfg = CodecConfig::default().with_qp(26.0).with_tiles(tiles);
        let enc = encode_video(&frames, &cfg).expect("encode");
        assert_ne!(
            enc.bytes, one_tile.bytes,
            "{tiles} tiles must change the framing"
        );
        let dec = decode_video(&enc.bytes).expect("tiled decode");
        assert_eq!(dec[0], enc.recon[0], "{tiles} tiles decode != recon");
        let mse = frames[0].mse(&enc.recon[0]);
        assert!(
            mse <= 1.5 * base_mse + 1.0,
            "{tiles} tiles: mse {mse} vs one tile {base_mse}"
        );
    }
}

/// Asking for more tiles than the frame has CTU rows must clamp, not
/// fail: a 64-row frame has two CTU rows, so 99 requested tiles encode
/// as two and still round-trip.
#[test]
fn tile_count_clamps_to_ctu_rows() {
    let frames = [textured_frame(2, 64, 64)];
    let capped = encode_video(
        &frames,
        &CodecConfig::default().with_qp(30.0).with_tiles(99),
    )
    .expect("encode");
    let two =
        encode_video(&frames, &CodecConfig::default().with_qp(30.0).with_tiles(2)).expect("encode");
    assert_eq!(capped.bytes, two.bytes, "99 tiles must clamp to 2");
    let dec = decode_video(&capped.bytes).expect("decode");
    assert_eq!(dec[0], capped.recon[0]);
}

/// Multi-frame clips tile each frame independently; the inter path still
/// predicts from the previous *stitched* reconstruction, so tiled inter
/// streams must decode bit-exactly too.
#[test]
fn multi_frame_tiled_streams_roundtrip() {
    let frames = [
        textured_frame(3, 64, 96),
        textured_frame(4, 64, 96),
        textured_frame(3, 64, 96), // repeat favours inter prediction
    ];
    let cfg = CodecConfig::default().with_qp(28.0).with_tiles(3);
    let enc = encode_video(&frames, &cfg).expect("encode");
    let dec = decode_video(&enc.bytes).expect("decode");
    assert_eq!(dec.len(), frames.len());
    for (i, (d, r)) in dec.iter().zip(&enc.recon).enumerate() {
        assert_eq!(d, r, "frame {i}");
    }
}

/// Unknown flag bits change how payloads are coded, and unknown pipeline
/// bits would decode a corrupted header as a clean one, so the decoder
/// must refuse both instead of guessing.
#[test]
fn unknown_stream_flags_are_rejected() {
    let frames = [textured_frame(6, 32, 32)];
    let enc = encode_video(&frames, &CodecConfig::default().with_qp(24.0)).expect("encode");
    // No stream flag is defined: 0x01 is the retired tiled-layout flag
    // and 0x02 the retired rANS entropy backend. The flags byte sits at
    // offset 7; the pipeline byte (offset 6) defines bits 0–3 only.
    let cases = [
        (7, 0x01u8, "unknown stream flags"),
        (7, 0x02, "unknown stream flags"),
        (7, 0x04, "unknown stream flags"),
        (7, 0x80, "unknown stream flags"),
        (6, 0x10, "unknown pipeline switches"),
        (6, 0x80, "unknown pipeline switches"),
    ];
    for (at, bit, expect) in cases {
        let mut evil = enc.bytes.clone();
        evil[at] |= bit;
        match decode_video(&evil) {
            Err(CodecError::Unsupported(msg)) => assert_eq!(msg, expect),
            other => panic!("bit {bit:#x} at byte {at}: {:?}", other.err()),
        }
    }
}
