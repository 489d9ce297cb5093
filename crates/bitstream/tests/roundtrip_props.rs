//! Property tests: every ByteCodec must be lossless on arbitrary bytes.

use llm265_bitstream::{deflate::Deflate, huffman::Huffman, lz4::Lz4, ByteCodec, CabacBytes};
use llm265_tensor::check::Checker;
use llm265_tensor::prop_ensure;

fn codecs() -> Vec<Box<dyn ByteCodec>> {
    vec![
        Box::new(Huffman),
        Box::new(Deflate),
        Box::new(Lz4),
        Box::new(CabacBytes),
    ]
}

#[test]
fn prop_roundtrip_arbitrary_bytes() {
    Checker::new(24).run("roundtrip arbitrary bytes", |rng| {
        let len = rng.below_usize(4096);
        let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        for codec in codecs() {
            let packed = codec.compress(&data);
            let unpacked = codec
                .decompress(&packed)
                .map_err(|e| format!("{}: {e}", codec.name()))?;
            prop_ensure!(unpacked == data, "{} roundtrip mismatch", codec.name());
        }
        Ok(())
    });
}

#[test]
fn prop_roundtrip_skewed_bytes() {
    Checker::new(24).run("roundtrip skewed bytes", |rng| {
        // Bell-shaped symbol streams (what quantized tensors look like).
        let len = rng.below_usize(8192);
        let spread = 1 + rng.below(63);
        let data: Vec<u8> = (0..len)
            .map(|_| {
                let centered = rng.below(spread) as i64 - rng.below(spread) as i64;
                (128i64 + centered).clamp(0, 255) as u8
            })
            .collect();
        for codec in codecs() {
            let packed = codec.compress(&data);
            let unpacked = codec
                .decompress(&packed)
                .map_err(|e| format!("{}: {e}", codec.name()))?;
            prop_ensure!(unpacked == data, "{} roundtrip mismatch", codec.name());
        }
        Ok(())
    });
}

#[test]
#[allow(
    clippy::let_underscore_must_use,
    reason = "a hostile stream may decode or fail; the test asserts only that the call returns"
)]
fn prop_truncation_never_panics() {
    Checker::new(24).run("truncation never panics", |rng| {
        let len = 1 + rng.below_usize(511);
        let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let cut = 1 + rng.below_usize(63);
        for codec in codecs() {
            let packed = codec.compress(&data);
            let cut = cut.min(packed.len());
            // Truncated streams must error or return wrong data — never panic.
            let _ = codec.decompress(&packed[..packed.len() - cut]);
        }
        Ok(())
    });
}
