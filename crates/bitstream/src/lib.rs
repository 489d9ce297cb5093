//! Bit-level I/O and entropy coders for the LLM.265 reproduction.
//!
//! The paper's codec pipeline terminates in a CABAC entropy coder (§2.2),
//! and its baseline grid (Fig 14/15) chains integer/MXFP quantization into
//! one of four general-purpose compressors: Huffman, Deflate, LZ4, CABAC.
//! This crate implements all of them from scratch:
//!
//! - [`cabac`] — an adaptive binary arithmetic coder (LZMA-style range
//!   coder with 11-bit adaptive probabilities), the workhorse behind both
//!   the video codec's residual coding and the CABAC byte-compressor
//!   baseline.
//! - [`crc32`] — the slicing-by-8 CRC-32 that checksums every tensor
//!   chunk record and video frame.
//! - [`rans`] — a static-table interleaved rANS coder (32-bit states,
//!   12-bit normalized frequencies, byte-wise renorm), a decode-speed
//!   reference for the entropy stage; no codec stream uses it.
//! - [`huffman`] — canonical Huffman coding of byte streams, over a
//!   crate-private MSB-first bit writer and reader.
//! - [`deflate`] — an LZ77 + Huffman compressor in the spirit of DEFLATE
//!   (own framing, not zlib-compatible).
//! - [`lz4`] — a byte-oriented LZ compressor in the spirit of LZ4.
//! - [`ByteCodec`] — the common trait the baseline grid is built over.
//!
//! # Example
//!
//! ```
//! use llm265_bitstream::{ByteCodec, huffman::Huffman};
//!
//! let data = b"aaaaabbbccd".repeat(20);
//! let codec = Huffman;
//! let packed = codec.compress(&data);
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! assert!(packed.len() < data.len());
//! ```

#![forbid(unsafe_code)]
// Decode and encode paths return `CodecError` instead of panicking; an
// exception carries an allow with the reason it cannot fire.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod bits;
pub mod bytes;
pub mod cabac;
pub mod crc32;
pub mod deflate;
mod error;
pub mod huffman;
pub mod lz4;
pub mod rans;

pub use error::CodecError;

/// A lossless byte-stream compressor.
///
/// This is the interface the Fig 14 baseline grid composes with integer /
/// MXFP quantization ("chained tensor codecs", §7.1).
pub trait ByteCodec {
    /// Short name used in experiment tables ("Huffman", "LZ4", ...).
    fn name(&self) -> &'static str;

    /// Compresses `data` into a self-describing byte stream.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompresses a stream produced by [`ByteCodec::compress`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the stream is truncated or corrupt.
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError>;
}

/// The CABAC byte-compressor baseline: codes each byte bit-by-bit through a
/// binary context tree of adaptive probabilities (255 contexts), the
/// configuration hardware CABAC tensor compressors use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CabacBytes;

impl ByteCodec for CabacBytes {
    fn name(&self) -> &'static str {
        "CABAC"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut enc = cabac::CabacEncoder::new();
        // Binary context tree: node 1 is the root; descending by coded bits
        // selects children 2i / 2i+1, giving 255 inner nodes for 8 levels.
        let mut ctx = vec![cabac::Prob::default(); 256];
        for &byte in data {
            let mut node = 1usize;
            for i in (0..8).rev() {
                let bit = (byte >> i) & 1;
                enc.encode_bit(&mut ctx[node], bit == 1);
                node = (node << 1) | usize::from(bit);
            }
        }
        let payload = enc.finish();
        let mut out = Vec::with_capacity(payload.len() + 8);
        bytes::write_le_u64(&mut out, data.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut pos = 0;
        let len64: u64 = bytes::read_le_u64(data, &mut pos)
            .map_err(|_| CodecError::Truncated("cabac length header"))?;
        // CABAC tops out around 360:1 on degenerate all-same-bit input (the
        // probability floor costs ~0.022 bit/bin); a declared length far
        // beyond that is a hostile header, not a compressed stream.
        let payload_len: usize = data.len() - pos;
        if len64 > 4096 * (payload_len as u64).max(16) {
            return Err(CodecError::LimitExceeded("cabac declared length"));
        }
        let len = len64 as usize;
        let mut dec = cabac::CabacDecoder::new(data.get(pos..).unwrap_or(&[]));
        let mut ctx = vec![cabac::Prob::default(); 256];
        let mut out = Vec::with_capacity(len.min(1 << 24));
        for _ in 0..len {
            let mut node = 1usize;
            for _ in 0..8 {
                let bit = dec.decode_bit(&mut ctx[node]);
                node = (node << 1) | usize::from(bit);
            }
            out.push((node & 0xff) as u8);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &dyn ByteCodec, data: &[u8]) {
        let packed = codec.compress(data);
        let unpacked = codec.decompress(&packed).expect("decode failed");
        assert_eq!(unpacked, data, "roundtrip failed for {}", codec.name());
    }

    #[test]
    fn cabac_bytes_roundtrip_empty_and_small() {
        roundtrip(&CabacBytes, b"");
        roundtrip(&CabacBytes, b"a");
        roundtrip(&CabacBytes, b"hello world");
    }

    #[test]
    fn cabac_bytes_compresses_skewed_data() {
        let data: Vec<u8> = (0..10_000)
            .map(|i| if i % 10 == 0 { 1 } else { 0 })
            .collect();
        let packed = CabacBytes.compress(&data);
        assert!(
            packed.len() < data.len() / 5,
            "packed {} bytes",
            packed.len()
        );
        assert_eq!(CabacBytes.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn cabac_bytes_rejects_truncated_header() {
        assert!(CabacBytes.decompress(&[1, 2, 3]).is_err());
    }
}
