//! Adversarial decode tests: hostile byte streams must produce
//! [`llm265_bitstream::CodecError`]s, never panics.
//!
//! These complement the random-truncation property tests in
//! `roundtrip_props.rs` with *systematic* sweeps: every truncation length,
//! every byte position flipped, plus hand-built hostile headers.

use llm265_bitstream::{
    deflate::Deflate, huffman::Huffman, lz4::Lz4, ByteCodec, CabacBytes, CodecError,
};

fn codecs() -> Vec<Box<dyn ByteCodec>> {
    vec![
        Box::new(Huffman),
        Box::new(Deflate),
        Box::new(Lz4),
        Box::new(CabacBytes),
    ]
}

/// A payload with enough structure to exercise match/literal paths in the
/// LZ codecs and multi-symbol tables in the entropy coders.
fn sample_payload() -> Vec<u8> {
    let mut data = b"the quick brown fox jumps over the lazy dog. ".repeat(8);
    data.extend((0u16..512).map(|i| (i % 251) as u8));
    data
}

#[test]
fn empty_input_errors_for_every_codec() {
    for codec in codecs() {
        // CABAC decodes an empty stream to empty output only when the
        // length header is present; with *no bytes at all* every codec
        // must error rather than fabricate output.
        assert!(
            codec.decompress(&[]).is_err(),
            "{}: empty input must not decode",
            codec.name()
        );
    }
}

#[test]
fn every_truncation_point_errors_or_decodes_without_panic() {
    let data = sample_payload();
    for codec in codecs() {
        let packed = codec.compress(&data);
        for cut in 0..packed.len() {
            // Must never panic. A short prefix may still happen to parse
            // (LZ formats are self-delimiting per token, and a trailing
            // byte can be redundant), but a prefix missing 8+ bytes of a
            // stream that ends in incompressible literals cannot still
            // reproduce the full payload.
            match codec.decompress(&packed[..cut]) {
                Err(_) => {}
                Ok(out) => {
                    if cut + 8 <= packed.len() {
                        assert_ne!(
                            out,
                            data,
                            "{}: truncation to {cut}/{} bytes still decoded fully",
                            codec.name(),
                            packed.len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[allow(
    clippy::let_underscore_must_use,
    reason = "a hostile stream may decode or fail; the test asserts only that the call returns"
)]
fn every_single_byte_flip_never_panics() {
    let data = sample_payload();
    for codec in codecs() {
        let packed = codec.compress(&data);
        for pos in 0..packed.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut evil = packed.clone();
                evil[pos] ^= flip;
                // Corruption may or may not be detected (entropy-coded
                // payloads have no checksum), but it must never panic.
                let _ = codec.decompress(&evil);
            }
        }
    }
}

#[test]
#[allow(
    clippy::let_underscore_must_use,
    reason = "a hostile stream may decode or fail; the test asserts only that the call returns"
)]
fn random_garbage_never_panics() {
    // Deterministic xorshift garbage, no external PRNG crate.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [1usize, 2, 7, 8, 9, 63, 256, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
        for codec in codecs() {
            let _ = codec.decompress(&garbage);
        }
    }
}

#[test]
fn cabac_hostile_declared_length_is_rejected_not_allocated() {
    // An 8-byte header declaring ~u64::MAX decoded bytes with a tiny
    // payload: the decoder must refuse instead of looping/allocating.
    let mut evil = Vec::new();
    evil.extend_from_slice(&u64::MAX.to_le_bytes());
    evil.extend_from_slice(&[0u8; 16]);
    match CabacBytes.decompress(&evil) {
        Err(CodecError::LimitExceeded(_)) => {}
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

#[test]
fn lz4_hostile_match_length_is_rejected_not_amplified() {
    // Declared output of 8 bytes, then a sequence whose match-length
    // extension asks for ~725 more: the decoder must refuse instead of
    // growing `out` far past the declared length.
    let mut evil = Vec::new();
    evil.extend_from_slice(&8u64.to_le_bytes());
    evil.push(0x4F); // 4 literals, match nibble 15 (extended)
    evil.extend_from_slice(b"abcd");
    evil.extend_from_slice(&1u16.to_le_bytes()); // distance 1
    evil.extend_from_slice(&[255, 255, 200]); // match extension: +710
    match Lz4.decompress(&evil) {
        Err(CodecError::LimitExceeded(_)) => {}
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

#[test]
fn huffman_hostile_declared_length_is_rejected_not_allocated() {
    // All-ones header bits declare ~2^57 symbols from a 10-byte stream;
    // every symbol costs at least one bit, so this is impossible and must
    // be rejected before anything is sized by it.
    match Huffman.decompress(&[0xFF; 10]) {
        Err(CodecError::LimitExceeded(_)) => {}
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

#[test]
fn deflate_hostile_match_length_is_rejected_not_amplified() {
    // A valid LZ77-mode stream whose declared length is then shrunk to 2:
    // the first match would overshoot the remaining output, which must be
    // an error instead of unbounded growth before the final length check.
    let data = vec![b'a'; 4096];
    let mut evil = Deflate.compress(&data);
    assert_eq!(evil[8], 2, "expected LZ77 block mode");
    evil[..8].copy_from_slice(&2u64.to_le_bytes());
    match Deflate.decompress(&evil) {
        Err(CodecError::LimitExceeded(_)) => {}
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

#[test]
fn cabac_truncated_header_is_truncation_error() {
    for len in 0..8 {
        match CabacBytes.decompress(&vec![0u8; len]) {
            Err(CodecError::Truncated(_)) => {}
            other => panic!("header of {len} bytes: expected Truncated, got {other:?}"),
        }
    }
}
