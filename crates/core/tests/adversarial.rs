//! Adversarial tensor-stream tests: corrupt or truncated streams handed to
//! the tensor codec and the archive must produce [`CodecError`]s, never
//! panics.

use std::ops::Range;
use std::time::Duration;

use llm265_bitstream::crc32::Crc32;
use llm265_core::archive::{ArchiveIndex, TensorArchive};
use llm265_core::{
    CodecError, EncodedTensor, Llm265Codec, Llm265Config, RateTarget, TensorCodec,
    TensorStreamIndex,
};
use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{llm_weight, WeightProfile};
use llm265_tensor::Tensor;

/// Byte offsets into the 22-byte v5 tensor header: magic u32, then
/// version, profile, pipeline and flags bytes, the QP as u16, and rows,
/// cols and rows per chunk as u32 (all little-endian).
const VERSION_AT: usize = 4;
const PROFILE_AT: usize = 5;
const PIPELINE_AT: usize = 6;
const FLAGS_AT: usize = 7;
const QP_AT: usize = 8;
const ROWS_AT: usize = 10;
const COLS_AT: usize = 14;
const ROWS_PER_CHUNK_AT: usize = 18;
const HEADER_BYTES: usize = 22;

fn patch_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Both readers, the index and the decoder, refuse `bytes` as `Corrupt`.
fn assert_corrupt(bytes: Vec<u8>, (rows, cols): (usize, usize), what: &str) {
    let parsed = TensorStreamIndex::parse(&bytes).map(|i| i.shape());
    let decoded = Llm265Codec::new()
        .decode(&EncodedTensor::from_parts(bytes, rows, cols))
        .map(|t| t.shape());
    for r in [parsed, decoded] {
        assert!(matches!(r, Err(CodecError::Corrupt(_))), "{what}: {r:?}");
    }
}

fn sample_tensor() -> Tensor {
    let mut rng = Pcg32::seed_from(7);
    llm_weight(40, 40, &WeightProfile::default(), &mut rng)
}

fn sample_encoded() -> EncodedTensor {
    let enc = Llm265Codec::new()
        .encode(&sample_tensor(), RateTarget::Qp(32.0))
        .expect("sample encode");
    // Pin the layout the offset constants assume before mutating it.
    assert_eq!(enc.bytes()[VERSION_AT], 5, "version byte");
    assert_eq!(enc.bytes()[FLAGS_AT], 0, "flags byte");
    assert_eq!(enc.bytes()[COLS_AT..ROWS_PER_CHUNK_AT], 40u32.to_le_bytes());
    enc
}

#[test]
fn empty_stream_errors() {
    let codec = Llm265Codec::new();
    let empty = EncodedTensor::from_parts(Vec::new(), 40, 40);
    assert!(codec.decode(&empty).is_err());
}

#[test]
fn bad_magic_is_rejected() {
    let codec = Llm265Codec::new();
    let enc = sample_encoded();
    let mut bytes = enc.bytes().to_vec();
    bytes[0] ^= 0xff;
    let (rows, cols) = enc.shape();
    match codec.decode(&EncodedTensor::from_parts(bytes, rows, cols)) {
        Err(CodecError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {:?}", other.map(|t| t.shape())),
    }
}

#[test]
fn every_truncation_point_errors_never_panics() {
    let codec = Llm265Codec::new();
    let enc = sample_encoded();
    let (rows, cols) = enc.shape();
    for cut in 0..enc.bytes().len() {
        let trimmed = EncodedTensor::from_parts(enc.bytes()[..cut].to_vec(), rows, cols);
        assert!(
            codec.decode(&trimmed).is_err(),
            "truncation to {cut}/{} bytes decoded",
            enc.bytes().len()
        );
    }
}

/// Each chunk's checksummed record (affine map, tile table and
/// payloads), read from the clean stream's index; the chunk's CRC-32
/// follows it. A record opens with `lo` and `scale` (4 bytes each) and
/// one u32 length per tile.
fn chunk_records(bytes: &[u8]) -> Vec<Range<usize>> {
    let index = TensorStreamIndex::parse(bytes).expect("clean index parses");
    (0..index.n_chunks())
        .map(|c| {
            let tiles = index.n_tiles(c);
            let start = index.tile_range(c, 0).start - 4 * tiles - 8;
            start..index.tile_range(c, tiles - 1).end
        })
        .collect()
}

/// Rewrites every chunk checksum of `evil` over its (possibly flipped)
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

/// Longest any one hostile decode of the sample stream may take. A clean
/// decode takes well under a millisecond; a flipped length or count that
/// drives a parser loop far past the data shows up here even when the
/// loop ends.
const MAX_DECODE: Duration = Duration::from_secs(1);

#[allow(
    clippy::disallowed_types,
    reason = "times a test decode against MAX_DECODE; no stream byte depends on the clock"
)]
fn bounded_decode(enc: &EncodedTensor, pos: usize) -> Result<Tensor, CodecError> {
    let start = std::time::Instant::now();
    let out = Llm265Codec::new().decode(enc);
    let took = start.elapsed();
    assert!(took < MAX_DECODE, "flip at {pos}: decode took {took:?}");
    out
}

/// What the flips of one sweep decoded to.
#[derive(Debug, Default)]
struct Outcomes {
    /// Refused at a chunk checksum.
    checksum: usize,
    /// Refused by any other check.
    refused: usize,
    /// Decoded `Ok` to a tensor other than the clean one.
    wrong: usize,
    /// Decoded `Ok` to the clean tensor.
    clean: usize,
}

/// Flips every byte of the sample stream with masks 0x01, 0x80 and 0xFF,
/// reseals the checksums when `resealed`, and counts what each flip
/// decodes to. No flip may panic, outlast [`MAX_DECODE`] or change the
/// shape.
fn flip_sweep(enc: &EncodedTensor, resealed: bool) -> Outcomes {
    let (rows, cols) = enc.shape();
    let clean = Llm265Codec::new()
        .decode(enc)
        .expect("clean stream decodes");
    let records = chunk_records(enc.bytes());
    let mut out = Outcomes::default();
    for pos in 0..enc.bytes().len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bytes = enc.bytes().to_vec();
            bytes[pos] ^= flip;
            if resealed {
                reseal(&mut bytes, &records);
            }
            match bounded_decode(&EncodedTensor::from_parts(bytes, rows, cols), pos) {
                Err(CodecError::Corrupt("checksum mismatch")) => out.checksum += 1,
                Err(_) => out.refused += 1,
                Ok(t) => {
                    assert_eq!(t.shape(), (rows, cols));
                    if t == clean {
                        out.clean += 1;
                    } else {
                        out.wrong += 1;
                    }
                }
            }
        }
    }
    out
}

/// Every chunk record ends with the CRC-32 of the tensor header and the
/// record, so no single-byte flip decodes `Ok` to a tensor other than
/// the clean one: a flip in the header or a record fails its checksum,
/// and a flip in a checksum fails the comparison. Resealed, the flips
/// reach the tile table and CABAC parsers, which must refuse them or
/// decode them without a panic in bounded time.
#[test]
fn single_byte_flips_are_detected_or_harmless() {
    let enc = sample_encoded();
    let as_is = flip_sweep(&enc, false);
    assert_eq!(as_is.wrong, 0, "{as_is:?}");
    let resealed = flip_sweep(&enc, true);
    // The sweep reaches the parsers behind the checksum.
    assert!(resealed.refused > resealed.checksum, "{resealed:?}");
}

#[test]
fn hostile_declared_shape_is_limited() {
    let codec = Llm265Codec::new();
    let enc = sample_encoded();
    let mut bytes = enc.bytes().to_vec();
    patch_u32(&mut bytes, ROWS_AT, u32::MAX);
    patch_u32(&mut bytes, COLS_AT, u32::MAX);
    match codec.decode(&EncodedTensor::from_parts(bytes, 40, 40)) {
        Err(CodecError::LimitExceeded(_)) => {}
        other => panic!("expected LimitExceeded, got {:?}", other.map(|t| t.shape())),
    }
}

#[test]
fn chunk_coverage_mismatch_is_detected() {
    // Shrinking the declared row count below the rows per chunk leaves no
    // valid chunk placement; growing it declares chunk records the stream
    // does not hold. Both directions must be refused, not trusted.
    let codec = Llm265Codec::new();
    let enc = sample_encoded();
    for declared_rows in [8u32, 160] {
        let mut bytes = enc.bytes().to_vec();
        patch_u32(&mut bytes, ROWS_AT, declared_rows);
        assert!(
            codec
                .decode(&EncodedTensor::from_parts(bytes, 40, 40))
                .is_err(),
            "declared rows {declared_rows} decoded"
        );
    }
}

/// Chunk placement follows from `rows` and `rows_per_chunk` alone, so
/// the one way to misplace chunks is a `rows_per_chunk` outside
/// `1..=rows`: zero would declare endless empty chunks, more than `rows`
/// a chunk past the tensor's end. Both are refused by the decoder and
/// the index.
#[test]
fn rows_per_chunk_outside_one_to_rows_is_corrupt() {
    let mut rng = Pcg32::seed_from(11);
    let t = llm_weight(64, 32, &WeightProfile::default(), &mut rng);
    let codec = Llm265Codec::with_config(Llm265Config {
        max_chunk_pixels: 32 * 32,
        ..Llm265Config::default()
    });
    let enc = codec.encode(&t, RateTarget::Qp(32.0)).expect("encode");
    assert_eq!(
        enc.bytes()[ROWS_PER_CHUNK_AT..HEADER_BYTES],
        32u32.to_le_bytes(),
        "two 32-row chunks"
    );
    for rows_per_chunk in [0u32, 65, u32::MAX] {
        let mut bytes = enc.bytes().to_vec();
        patch_u32(&mut bytes, ROWS_PER_CHUNK_AT, rows_per_chunk);
        assert_corrupt(bytes, (64, 32), &format!("rows per chunk {rows_per_chunk}"));
    }
}

/// A stream ends where its last tile ends. Junk appended to a stream, or
/// a second stream concatenated after it, used to decode `Ok` as the
/// first stream alone; both are corrupt.
#[test]
fn bytes_after_the_last_tile_are_corrupt() {
    let t = llm_weight(64, 64, &WeightProfile::default(), &mut Pcg32::seed_from(1));
    let enc = Llm265Codec::new()
        .encode(&t, RateTarget::BitsPerValue(3.0))
        .expect("encode");
    let mut junk = enc.bytes().to_vec();
    junk.extend_from_slice(&[0x5A; 7]);
    let mut twice = enc.bytes().to_vec();
    twice.extend_from_slice(enc.bytes());
    assert_corrupt(junk, (64, 64), "7 junk bytes");
    assert_corrupt(twice, (64, 64), "two streams");
}

/// The random-access index parses the same hostile inputs the decoder
/// does, so it gets the same sweep: every byte flip either fails to parse
/// or yields an index whose lookups still never panic. The 40-row sample
/// spans two CTU rows, so this exercises real tile tables, not the
/// single-tile degenerate case.
#[test]
fn tile_index_survives_flips_and_hostile_lookups() {
    let enc = sample_encoded();
    let index = TensorStreamIndex::parse(enc.bytes()).expect("clean index parses");
    assert!(index.total_tiles() >= 2, "sample stream should be tiled");
    for pos in 0..enc.bytes().len() {
        let mut bytes = enc.bytes().to_vec();
        bytes[pos] ^= 0xff;
        if let Ok(idx) = TensorStreamIndex::parse(&bytes) {
            let _ = idx.decode_tile(&bytes, 0, 0);
        }
    }
    // Out-of-range lookups against the clean index are errors, not panics.
    assert!(index.decode_tile(enc.bytes(), usize::MAX, 0).is_err());
    assert!(index.decode_tile(enc.bytes(), 0, usize::MAX).is_err());
    // An index parsed from the full stream must refuse a buffer that no
    // longer covers the last tile.
    let last = index.n_chunks() - 1;
    let short = &enc.bytes()[..index.tile_range(last, index.n_tiles(last) - 1).end - 1];
    assert!(index
        .decode_tile(short, last, index.n_tiles(last) - 1)
        .is_err());
}

#[test]
fn archive_rejects_garbage_and_truncations() {
    let codec = Llm265Codec::new();
    assert!(TensorArchive::decode(&codec, &[]).is_err());
    assert!(TensorArchive::decode(&codec, b"not an archive").is_err());

    let t = sample_tensor();
    let archive =
        TensorArchive::encode(&codec, &[("layer.0".to_string(), t)], RateTarget::Qp(32.0))
            .expect("archive encode");
    let bytes = archive.bytes();
    assert!(!TensorArchive::decode(&codec, bytes)
        .expect("clean archive decodes")
        .is_empty());
    for cut in 0..bytes.len() {
        assert!(
            TensorArchive::decode(&codec, &bytes[..cut]).is_err(),
            "archive truncated to {cut}/{} bytes decoded",
            bytes.len()
        );
    }
}

/// The archive ends where its last entry ends: junk or a second archive
/// appended after it used to decode `Ok` as the first archive alone.
#[test]
fn archive_bytes_after_the_last_entry_are_corrupt() {
    let codec = Llm265Codec::new();
    let archive = TensorArchive::encode(
        &codec,
        &[("w".to_string(), sample_tensor())],
        RateTarget::Qp(32.0),
    )
    .expect("archive encode");
    let mut junk = archive.bytes().to_vec();
    junk.push(0);
    let mut twice = archive.bytes().to_vec();
    twice.extend_from_slice(archive.bytes());
    for (what, bytes) in [("one junk byte", junk), ("two archives", twice)] {
        match TensorArchive::decode(&codec, &bytes) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {:?}", other.map(|v| v.len())),
        }
        assert!(
            matches!(ArchiveIndex::parse(&bytes), Err(CodecError::Corrupt(_))),
            "{what}: index parsed"
        );
    }
}

#[test]
fn archive_hostile_entry_count_is_limited() {
    let mut evil = Vec::new();
    // Real archive magic, then an absurd entry count.
    let codec = Llm265Codec::new();
    let archive = TensorArchive::encode(
        &codec,
        &[("w".to_string(), sample_tensor())],
        RateTarget::Qp(32.0),
    )
    .expect("archive encode");
    evil.extend_from_slice(&archive.bytes()[..4]);
    evil.extend_from_slice(&u32::MAX.to_le_bytes());
    match TensorArchive::decode(&codec, &evil) {
        Err(CodecError::LimitExceeded(_)) => {}
        other => panic!("expected LimitExceeded, got {:?}", other.map(|v| v.len())),
    }
}

#[test]
fn index_truncated_anywhere_in_the_header_errors() {
    let enc = sample_encoded();
    TensorStreamIndex::parse(enc.bytes()).expect("clean index parses");
    // Every cut through the header — including one byte short of its
    // end — must error, never read past the end.
    for cut in 0..HEADER_BYTES {
        assert!(
            TensorStreamIndex::parse(&enc.bytes()[..cut]).is_err(),
            "index parsed with header cut at {cut}"
        );
    }
}

/// Reserved header bits and other versions are refused, not guessed at,
/// by both the index and the decoder: every stream flag (0x01 is the
/// retired tiled-layout flag, 0x02 the retired rANS entropy backend),
/// pipeline bits 0x10–0x80, unknown profile ids, versions 1–3 (the
/// per-chunk video-stream layout), 4 (no chunk checksum) and 6.
#[test]
fn index_reserved_flag_bits_are_refused() {
    let enc = sample_encoded();
    let flags = [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80].map(|b| (FLAGS_AT, b));
    let pipeline = [0x10u8, 0x20, 0x40, 0x80].map(|b| (PIPELINE_AT, b));
    let profile = [0x10u8, 0x80].map(|b| (PROFILE_AT, b));
    for (at, bit) in flags.into_iter().chain(pipeline).chain(profile) {
        let mut bytes = enc.bytes().to_vec();
        bytes[at] |= bit;
        let parsed = TensorStreamIndex::parse(&bytes).map(|i| i.shape());
        let decoded = Llm265Codec::new()
            .decode(&EncodedTensor::from_parts(bytes, 40, 40))
            .map(|t| t.shape());
        for r in [parsed, decoded] {
            match r {
                Err(CodecError::Unsupported(_)) => {}
                Err(e) => panic!("reserved bit {bit:#04x} at {at}: wrong error {e:?}"),
                Ok(_) => panic!("reserved bit {bit:#04x} at {at} accepted"),
            }
        }
    }
    for version in [1u8, 2, 3, 4, 6] {
        let mut bytes = enc.bytes().to_vec();
        bytes[VERSION_AT] = version;
        assert!(
            matches!(
                TensorStreamIndex::parse(&bytes),
                Err(CodecError::Unsupported("tensor-stream version"))
            ),
            "version {version} accepted"
        );
    }
    // QP 51.25 is past the H.265 range.
    let mut bytes = enc.bytes().to_vec();
    bytes[QP_AT..ROWS_AT].copy_from_slice(&(51 * 256 + 64u16).to_le_bytes());
    assert!(matches!(
        TensorStreamIndex::parse(&bytes),
        Err(CodecError::Corrupt("qp out of range"))
    ));
}
