//! Adversarial decoder tests: hostile video bitstreams must produce
//! [`CodecError`]s, never panics and never unbounded allocations.

use llm265_videocodec::{decode_video, encode_video, CodecConfig, CodecError, Frame};

/// A small two-frame clip with real detail (so the bitstream contains
/// split flags, mode bits and residual syntax, not just trivial leaves).
fn sample_stream() -> Vec<u8> {
    let frames: Vec<Frame> = (0..2)
        .map(|t| Frame::from_fn(48, 32, |x, y| ((x * 5 + y * 3 + t * 17) % 251) as u8))
        .collect();
    encode_video(&frames, &CodecConfig::default())
        .expect("encode")
        .bytes
}

// The fixed header is 176 bits: magic(32) version(8) profile(8)
// pipeline(8) qp(16) width(32) height(32) n_frames(32) flags(8),
// MSB-first.
const HEADER_BYTES: usize = 22;
const WIDTH_OFFSET: usize = 9;
const HEIGHT_OFFSET: usize = 13;
const NFRAMES_OFFSET: usize = 17;

fn patch_be_u32(stream: &mut [u8], offset: usize, value: u32) {
    stream[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
}

#[test]
fn empty_and_tiny_inputs_error() {
    assert!(decode_video(&[]).is_err());
    for len in 1..HEADER_BYTES {
        assert!(
            decode_video(&vec![0u8; len]).is_err(),
            "{len}-byte input must not decode"
        );
    }
}

#[test]
fn sample_stream_roundtrips_before_corruption() {
    // Sanity anchor: everything below corrupts *this* stream, so it must
    // decode cleanly first.
    let frames = decode_video(&sample_stream()).expect("clean stream decodes");
    assert_eq!(frames.len(), 2);
    assert_eq!((frames[0].width(), frames[0].height()), (48, 32));
}

#[test]
fn bad_magic_and_version_are_rejected() {
    let mut stream = sample_stream();
    stream[0] ^= 0xff;
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt("bad magic"))
    ));

    // Versions 1 and 2 (untiled and optionally tiled payloads) are
    // retired; only version 3 decodes.
    for version in [1u8, 2, 4] {
        let mut stream = sample_stream();
        stream[4] = version;
        assert!(
            matches!(
                decode_video(&stream),
                Err(CodecError::Unsupported("bitstream version"))
            ),
            "version {version} accepted"
        );
    }
}

#[test]
fn hostile_dimensions_hit_the_limit_not_the_allocator() {
    let mut stream = sample_stream();
    patch_be_u32(&mut stream, WIDTH_OFFSET, u32::MAX);
    patch_be_u32(&mut stream, HEIGHT_OFFSET, u32::MAX);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::LimitExceeded("frame dimensions"))
    ));

    let mut stream = sample_stream();
    patch_be_u32(&mut stream, WIDTH_OFFSET, 0);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt("zero frame dimensions"))
    ));

    let mut stream = sample_stream();
    patch_be_u32(&mut stream, NFRAMES_OFFSET, u32::MAX);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::LimitExceeded("frame count"))
    ));
}

#[test]
fn every_truncation_point_errors_or_decodes_without_panic() {
    let stream = sample_stream();
    for cut in 0..stream.len() {
        // Short prefixes must error; a cut inside the last frame's CABAC
        // payload may still "decode" (arithmetic decoders read past the
        // end as zeros) but must never panic.
        let _ = decode_video(&stream[..cut]);
    }
    // Cutting anywhere inside the header or frame-length framing must error.
    for cut in 0..=HEADER_BYTES + 3 {
        assert!(
            decode_video(&stream[..cut]).is_err(),
            "cut at {cut} decoded"
        );
    }
}

#[test]
fn every_single_byte_flip_never_panics() {
    let stream = sample_stream();
    for pos in 0..stream.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut evil = stream.clone();
            evil[pos] ^= flip;
            let _ = decode_video(&evil);
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [1usize, 20, 21, 22, 64, 1024] {
        let garbage: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
        let _ = decode_video(&garbage);
    }
}

/// A single-frame two-tile stream: header (22 bytes), u32 payload length,
/// then the tile index — u16 count at offset 26, per-tile (u32 offset,
/// u32 length) entries from offset 28, all little-endian.
fn tiled_sample_stream() -> Vec<u8> {
    let frames = [Frame::from_fn(64, 64, |x, y| ((x * 5 + y * 3) % 251) as u8)];
    encode_video(&frames, &CodecConfig::default().with_tiles(2))
        .expect("encode")
        .bytes
}

const TILE_COUNT_OFFSET: usize = 26;
const TILE_ENTRIES_OFFSET: usize = 28;

fn patch_le_u16(stream: &mut [u8], offset: usize, value: u16) {
    stream[offset..offset + 2].copy_from_slice(&value.to_le_bytes());
}

fn patch_le_u32(stream: &mut [u8], offset: usize, value: u32) {
    stream[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
}

/// Hostile tile counts must hit the validator, not the allocator: the
/// u16 field can claim up to 65535 tiles, far past both the global cap
/// and the frame's CTU-row geometry.
#[test]
fn hostile_tile_counts_are_rejected() {
    let clean = tiled_sample_stream();
    assert_eq!(decode_video(&clean).expect("clean tiled stream").len(), 1);

    let mut stream = clean.clone();
    patch_le_u16(&mut stream, TILE_COUNT_OFFSET, 0);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt("empty tile index"))
    ));

    let mut stream = clean.clone();
    patch_le_u16(&mut stream, TILE_COUNT_OFFSET, u16::MAX);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::LimitExceeded("tile count"))
    ));

    // 64 rows at CTU 32 is two CTU rows; five tiles is under the global
    // cap but geometrically impossible for this frame.
    let mut stream = clean.clone();
    patch_le_u16(&mut stream, TILE_COUNT_OFFSET, 5);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt(_)) | Err(CodecError::Truncated(_))
    ));
}

/// The byte-offset table must describe exactly the payload that follows:
/// gaps, overlaps, zero-length tiles and overflowing extents are all
/// corruption, never a panic or an out-of-bounds read.
#[test]
fn hostile_tile_offsets_and_lengths_are_rejected() {
    let clean = tiled_sample_stream();
    let tile0_len_off = TILE_ENTRIES_OFFSET + 4;
    let tile1_off_off = TILE_ENTRIES_OFFSET + 8;
    let tile1_len_off = TILE_ENTRIES_OFFSET + 12;

    // Shift tile 1 off the end of tile 0: offsets must be contiguous.
    let mut stream = clean.clone();
    let good = u32::from_le_bytes(stream[tile1_off_off..tile1_off_off + 4].try_into().unwrap());
    patch_le_u32(&mut stream, tile1_off_off, good + 1);
    assert!(matches!(decode_video(&stream), Err(CodecError::Corrupt(_))));

    // Zero-length tiles cannot carry a CABAC payload.
    let mut stream = clean.clone();
    patch_le_u32(&mut stream, tile0_len_off, 0);
    assert!(matches!(decode_video(&stream), Err(CodecError::Corrupt(_))));

    // An extent past the frame payload must be caught by the index
    // validator, not by slicing.
    let mut stream = clean.clone();
    patch_le_u32(&mut stream, tile1_len_off, u32::MAX);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt(_)) | Err(CodecError::Truncated(_))
    ));
}

/// The flip/truncation sweeps above run on a one-tile-per-frame stream;
/// sweep a two-tile index too.
#[test]
fn tiled_stream_flips_and_truncations_never_panic() {
    let stream = tiled_sample_stream();
    for pos in 0..stream.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut evil = stream.clone();
            evil[pos] ^= flip;
            let _ = decode_video(&evil);
        }
    }
    for cut in 0..stream.len() {
        let _ = decode_video(&stream[..cut]);
    }
}
