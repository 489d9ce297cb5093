//! Adversarial decoder tests: hostile video bitstreams must produce
//! [`CodecError`]s, never panics and never unbounded allocations.

use std::ops::Range;
use std::time::Duration;

use llm265_bitstream::crc32::Crc32;
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

// The fixed header is 24 bytes, little-endian: magic(4) version(1)
// profile(1) pipeline(1) flags(1) qp(2) width(4) height(4) n_frames(4)
// tiles(2). Each frame follows as one u32 length per tile, the tile
// payloads, then a u32 CRC-32 of the header and the frame.
const HEADER_BYTES: usize = 24;
const WIDTH_OFFSET: usize = 10;
const HEIGHT_OFFSET: usize = 14;
const NFRAMES_OFFSET: usize = 18;
const TILES_OFFSET: usize = 22;

fn patch_le_u16(stream: &mut [u8], offset: usize, value: u16) {
    stream[offset..offset + 2].copy_from_slice(&value.to_le_bytes());
}

fn patch_le_u32(stream: &mut [u8], offset: usize, value: u32) {
    stream[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
}

fn read_le_u32(stream: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(stream[offset..offset + 4].try_into().unwrap())
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

    // Versions 1–3 (untiled, optionally tiled and tile-indexed payloads)
    // and 4 (no frame checksum) are retired; only version 5 decodes.
    for version in [1u8, 2, 3, 4, 6] {
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
    patch_le_u32(&mut stream, WIDTH_OFFSET, u32::MAX);
    patch_le_u32(&mut stream, HEIGHT_OFFSET, u32::MAX);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::LimitExceeded("frame dimensions"))
    ));

    let mut stream = sample_stream();
    patch_le_u32(&mut stream, WIDTH_OFFSET, 0);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt("zero frame dimensions"))
    ));

    let mut stream = sample_stream();
    patch_le_u32(&mut stream, NFRAMES_OFFSET, u32::MAX);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::LimitExceeded("frame count"))
    ));
}

/// Every frame's tile table states its length and a checksum ends it,
/// so every cut errors: in the header, a table, a payload or a checksum.
#[test]
fn every_truncation_point_errors() {
    let stream = sample_stream();
    for cut in 0..stream.len() {
        assert!(
            decode_video(&stream[..cut]).is_err(),
            "cut at {cut} decoded"
        );
    }
}

/// Each frame's checksummed record (its tile table and payloads), read
/// from the clean stream's own tables; the frame's CRC-32 follows it.
fn frame_records(stream: &[u8]) -> Vec<Range<usize>> {
    let tiles = usize::from(u16::from_le_bytes([
        stream[TILES_OFFSET],
        stream[TILES_OFFSET + 1],
    ]));
    let mut pos = HEADER_BYTES;
    (0..read_le_u32(stream, NFRAMES_OFFSET))
        .map(|_| {
            let start = pos;
            let payload: u32 = (0..tiles).map(|t| read_le_u32(stream, start + 4 * t)).sum();
            pos = start + 4 * tiles + payload as usize;
            let record = start..pos;
            pos += 4;
            record
        })
        .collect()
}

/// Rewrites every frame checksum of `evil` over its (possibly flipped)
/// header and records, at the clean stream's layout `records`. A CRC-32
/// guards against accidents, not adversaries; resealed flips reach the
/// tile parsers behind it.
fn reseal(evil: &mut [u8], records: &[Range<usize>]) {
    for r in records {
        let crc = Crc32::new()
            .update(&evil[..HEADER_BYTES])
            .update(&evil[r.clone()])
            .finish();
        evil[r.end..r.end + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Longest any one hostile decode of a sample stream may take. A clean
/// decode takes well under a millisecond; a flipped length or count that
/// drives a parser loop far past the data shows up here even when the
/// loop ends.
const MAX_DECODE: Duration = Duration::from_secs(1);

#[allow(
    clippy::disallowed_types,
    reason = "times a test decode against MAX_DECODE; no stream byte depends on the clock"
)]
fn bounded_decode(evil: &[u8], pos: usize) -> Result<Vec<Frame>, CodecError> {
    let start = std::time::Instant::now();
    let out = decode_video(evil);
    let took = start.elapsed();
    assert!(took < MAX_DECODE, "flip at {pos}: decode took {took:?}");
    out
}

/// What the flips of one sweep decoded to.
#[derive(Debug, Default)]
struct Outcomes {
    /// Refused at a frame checksum.
    checksum: usize,
    /// Refused by any other check.
    refused: usize,
    /// Decoded `Ok` to frames other than the clean ones.
    wrong: usize,
    /// Decoded `Ok` to the clean frames.
    clean: usize,
}

/// Flips every byte of `stream` with masks 0x01, 0x80 and 0xFF, reseals
/// the checksums when `resealed`, and counts what each flip decodes to.
/// No flip may panic or outlast [`MAX_DECODE`].
fn flip_sweep(stream: &[u8], resealed: bool) -> Outcomes {
    let clean = decode_video(stream).expect("clean stream decodes");
    let records = frame_records(stream);
    let mut out = Outcomes::default();
    for pos in 0..stream.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut evil = stream.to_vec();
            evil[pos] ^= flip;
            if resealed {
                reseal(&mut evil, &records);
            }
            match bounded_decode(&evil, pos) {
                Err(CodecError::Corrupt("checksum mismatch")) => out.checksum += 1,
                Err(_) => out.refused += 1,
                Ok(f) if f == clean => out.clean += 1,
                Ok(_) => out.wrong += 1,
            }
        }
    }
    out
}

/// Both sweeps of `stream`. As written, every frame ends with the CRC-32
/// of the stream header and its tile table, so no flip decodes `Ok` to
/// wrong frames: a flip in the header or a frame fails that frame's
/// checksum, a flip in a checksum fails the comparison. Resealed, the
/// flips reach the tile table and CABAC parsers, which must refuse them
/// or decode them without a panic in bounded time.
fn assert_flip_sweeps(stream: &[u8]) {
    let as_is = flip_sweep(stream, false);
    assert_eq!(as_is.wrong, 0, "{as_is:?}");
    let resealed = flip_sweep(stream, true);
    // The sweep reaches the parsers behind the checksum.
    assert!(resealed.refused > resealed.checksum, "{resealed:?}");
}

#[test]
fn single_byte_flips_are_detected_or_harmless() {
    assert_flip_sweeps(&sample_stream());
}

#[test]
#[allow(
    clippy::let_underscore_must_use,
    reason = "a hostile stream may decode or fail; the test asserts only that the call returns"
)]
fn random_garbage_never_panics() {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [1usize, 22, 23, 24, 64, 1024] {
        let garbage: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
        let _ = decode_video(&garbage);
    }
}

/// Anything after the last frame is refused, as the tensor and archive
/// readers refuse it: a reader that stops at the declared frame count
/// would accept a stream with extra bytes as clean.
#[test]
fn bytes_after_the_last_frame_are_refused() {
    let mut stream = sample_stream();
    stream.extend_from_slice(&[0, 0, 0]);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt("bytes after the last frame"))
    ));
}

/// A single-frame two-tile stream: the header, then the tile table — two
/// u32 lengths at offsets 24 and 28 — the payloads and the checksum.
fn tiled_sample_stream() -> Vec<u8> {
    let frames = [Frame::from_fn(64, 64, |x, y| ((x * 5 + y * 3) % 251) as u8)];
    encode_video(&frames, &CodecConfig::default().with_tiles(2))
        .expect("encode")
        .bytes
}

const TILE0_LEN_OFFSET: usize = HEADER_BYTES;
const TILE1_LEN_OFFSET: usize = HEADER_BYTES + 4;

/// The header states the tile count once; a count the frame's geometry
/// cannot have is refused there, before any tile length is read. 64 rows
/// at CTU 32 is two CTU rows, so only 1 and 2 are possible counts.
#[test]
fn header_tile_counts_outside_the_geometry_are_refused() {
    let clean = tiled_sample_stream();
    assert_eq!(decode_video(&clean).expect("clean tiled stream").len(), 1);
    for count in [0u16, 3, u16::MAX] {
        let mut stream = clean.clone();
        patch_le_u16(&mut stream, TILES_OFFSET, count);
        assert!(
            matches!(
                decode_video(&stream),
                Err(CodecError::Corrupt("tile count out of range"))
            ),
            "tile count {count} accepted"
        );
    }
}

/// Tile lengths must describe exactly the bytes that follow: a zero
/// length, a tile past the end and a length off by one either way are
/// refused, never a panic or an out-of-bounds read. The structure is
/// checked before the checksum, so each keeps its own error.
#[test]
fn hostile_tile_lengths_are_rejected() {
    let clean = tiled_sample_stream();
    let tile1_len = read_le_u32(&clean, TILE1_LEN_OFFSET);

    let mut stream = clean.clone();
    patch_le_u32(&mut stream, TILE0_LEN_OFFSET, 0);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Corrupt("zero-length tile"))
    ));

    // The last tile is followed by the 4-byte checksum, so `+ 5` ends
    // one byte past the stream.
    for len in [u32::MAX, tile1_len + 5] {
        let mut stream = clean.clone();
        patch_le_u32(&mut stream, TILE1_LEN_OFFSET, len);
        assert!(
            matches!(
                decode_video(&stream),
                Err(CodecError::Truncated("tile payload"))
            ),
            "tile 1 length {len} accepted"
        );
    }

    // One byte long leaves three bytes for the checksum.
    let mut stream = clean.clone();
    patch_le_u32(&mut stream, TILE1_LEN_OFFSET, tile1_len + 1);
    assert!(matches!(
        decode_video(&stream),
        Err(CodecError::Truncated("u32 field"))
    ));

    // One byte short moves the checksum onto the payload's last byte.
    let mut stream = clean.clone();
    patch_le_u32(&mut stream, TILE1_LEN_OFFSET, tile1_len - 1);
    assert!(matches!(decode_video(&stream), Err(CodecError::Corrupt(_))));
}

/// The flip/truncation sweeps above run on a one-tile-per-frame stream;
/// sweep a two-tile table too.
#[test]
fn tiled_stream_flips_are_detected_and_truncations_error() {
    let stream = tiled_sample_stream();
    assert_flip_sweeps(&stream);
    for cut in 0..stream.len() {
        assert!(
            decode_video(&stream[..cut]).is_err(),
            "cut at {cut} decoded"
        );
    }
}
