//! Adversarial tensor-stream tests: corrupt or truncated streams handed to
//! the tensor codec and the archive must produce [`CodecError`]s, never
//! panics.

use llm265_core::archive::TensorArchive;
use llm265_core::{
    CodecError, EncodedTensor, Llm265Codec, RateTarget, TensorCodec, TensorStreamIndex,
};
use llm265_tensor::rng::Pcg32;
use llm265_tensor::synthetic::{llm_weight, WeightProfile};
use llm265_tensor::Tensor;

fn sample_tensor() -> Tensor {
    let mut rng = Pcg32::seed_from(7);
    llm_weight(40, 40, &WeightProfile::default(), &mut rng)
}

fn sample_encoded() -> EncodedTensor {
    Llm265Codec::new()
        .encode(&sample_tensor(), RateTarget::Qp(32.0))
        .expect("sample encode")
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

#[test]
fn every_single_byte_flip_never_panics() {
    let codec = Llm265Codec::new();
    let enc = sample_encoded();
    let (rows, cols) = enc.shape();
    for pos in 0..enc.bytes().len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bytes = enc.bytes().to_vec();
            bytes[pos] ^= flip;
            // Entropy-coded payloads carry no checksum, so a flip may
            // still decode (to a distorted tensor) — but never panic, and
            // never to the wrong shape.
            if let Ok(t) = codec.decode(&EncodedTensor::from_parts(bytes, rows, cols)) {
                assert_eq!(t.shape(), (rows, cols));
            }
        }
    }
}

#[test]
fn hostile_declared_shape_is_limited() {
    // Stream layout starts: magic u32, rows u32, cols u32 (all LE).
    let codec = Llm265Codec::new();
    let enc = sample_encoded();
    let mut bytes = enc.bytes().to_vec();
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    match codec.decode(&EncodedTensor::from_parts(bytes, 40, 40)) {
        Err(CodecError::LimitExceeded(_)) => {}
        other => panic!("expected LimitExceeded, got {:?}", other.map(|t| t.shape())),
    }
}

#[test]
fn chunk_coverage_mismatch_is_detected() {
    // Shrinking the declared row count leaves the chunks covering more
    // rows than the tensor has; growing it leaves rows uncovered. Both
    // directions must be caught by the coverage checks, not trusted.
    let codec = Llm265Codec::new();
    let enc = sample_encoded();
    for declared_rows in [8u32, 160] {
        let mut bytes = enc.bytes().to_vec();
        bytes[4..8].copy_from_slice(&declared_rows.to_le_bytes());
        assert!(
            codec
                .decode(&EncodedTensor::from_parts(bytes, 40, 40))
                .is_err(),
            "declared rows {declared_rows} decoded"
        );
    }
}

/// Chunk records must tile the tensor top to bottom. Moving the second
/// of two 32-row chunks from row 32 to row 0 keeps every chunk inside the
/// tensor and the covered-row total at 64, yet leaves rows 32–63 unwritten;
/// the decoder and the index must refuse it instead of returning zeros
/// there.
#[test]
fn overlapping_chunk_records_are_corrupt() {
    use llm265_core::Llm265Config;
    let mut rng = Pcg32::seed_from(11);
    let t = llm_weight(64, 32, &WeightProfile::default(), &mut rng);
    let codec = Llm265Codec::with_config(Llm265Config {
        max_chunk_pixels: 32 * 32,
        ..Llm265Config::default()
    });
    let enc = codec.encode(&t, RateTarget::Qp(32.0)).expect("encode");
    let mut bytes = enc.bytes().to_vec();
    // Header: magic, rows, cols, n_chunks; then per chunk row0, rows, lo,
    // scale, payload length (all u32 LE) and the payload.
    assert_eq!(bytes[12..16], 2u32.to_le_bytes(), "two chunks");
    let len0 = u32::from_le_bytes(bytes[32..36].try_into().expect("4 bytes"));
    let row0_at = 36 + usize::try_from(len0).expect("usize");
    assert_eq!(bytes[row0_at..row0_at + 4], 32u32.to_le_bytes());
    bytes[row0_at..row0_at + 4].copy_from_slice(&0u32.to_le_bytes());
    let hostile = EncodedTensor::from_parts(bytes, 64, 32);
    match codec.decode(&hostile) {
        Err(CodecError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {:?}", other.map(|t| t.shape())),
    }
    assert!(matches!(
        TensorStreamIndex::parse(hostile.bytes()),
        Err(CodecError::Corrupt(_))
    ));
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
    // An index parsed from the full stream must refuse a shorter buffer.
    let short = &enc.bytes()[..enc.bytes().len() - 1];
    assert!(index.decode_tile(short, 0, 0).is_err());
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

/// Byte offsets of the first chunk's inner video-stream header inside a
/// tensor stream: 16 outer header bytes + 20 chunk-header bytes, then
/// the inner stream (magic u32, version byte at +4, pipeline byte at +6,
/// flags byte at +21).
const INNER_STREAM: usize = 36;
const INNER_VERSION: usize = INNER_STREAM + 4;
const INNER_PIPELINE: usize = INNER_STREAM + 6;
const INNER_FLAGS: usize = INNER_STREAM + 21;
const FLAG_RANS: u8 = 0x02;

fn sample_rans_encoded() -> EncodedTensor {
    use llm265_core::{EntropyProfile, Llm265Config};
    let codec = Llm265Codec::with_config(Llm265Config {
        entropy: EntropyProfile::Rans,
        ..Llm265Config::default()
    });
    let enc = codec
        .encode(&sample_tensor(), RateTarget::Qp(32.0))
        .expect("rans sample encode");
    // Pin the layout the offset constants assume before mutating it.
    assert_eq!(enc.bytes()[INNER_VERSION], 3, "inner version byte");
    assert_eq!(
        enc.bytes()[INNER_FLAGS] & FLAG_RANS,
        FLAG_RANS,
        "inner flags byte carries FLAG_RANS"
    );
    enc
}

#[test]
fn index_truncated_before_inner_flags_byte_errors() {
    let enc = sample_rans_encoded();
    TensorStreamIndex::parse(enc.bytes()).expect("clean rans index parses");
    // Every cut through the inner stream header — including one byte
    // short of the flags byte — must error, never read past the end.
    for cut in INNER_STREAM..=INNER_FLAGS {
        assert!(
            TensorStreamIndex::parse(&enc.bytes()[..cut]).is_err(),
            "index parsed with inner header cut at {cut}"
        );
    }
}

/// Reserved header bits and retired versions are refused, not guessed
/// at: stream flag 0x01 (the retired tiled-layout flag) and 0x04–0x80,
/// pipeline bits 0x10–0x80, and versions 1 and 2 — whose flag bytes
/// could otherwise smuggle FLAG_RANS into a different payload layout.
#[test]
fn index_reserved_flag_bits_are_refused() {
    let enc = sample_rans_encoded();
    let flags = [0x01u8, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80].map(|b| (INNER_FLAGS, b));
    let pipeline = [0x10u8, 0x20, 0x40, 0x80].map(|b| (INNER_PIPELINE, b));
    for (at, bit) in flags.into_iter().chain(pipeline) {
        let mut bytes = enc.bytes().to_vec();
        bytes[at] |= bit;
        match TensorStreamIndex::parse(&bytes) {
            Err(CodecError::Unsupported(_)) => {}
            Err(e) => panic!("reserved bit {bit:#04x} at {at}: wrong error {e:?}"),
            Ok(_) => panic!("reserved bit {bit:#04x} at {at} accepted"),
        }
    }
    for version in [1u8, 2] {
        let mut bytes = enc.bytes().to_vec();
        bytes[INNER_VERSION] = version;
        assert!(
            matches!(
                TensorStreamIndex::parse(&bytes),
                Err(CodecError::Unsupported("bitstream version"))
            ),
            "version {version} accepted"
        );
    }
}
